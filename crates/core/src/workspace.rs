//! Workspaces: "essentially a database instance which contains a set of
//! predicate definitions and a set of active rules (similar to continuous
//! queries)" (§3.1 of the paper).
//!
//! A [`Workspace`] owns one principal's context: its rules (tagged, so
//! authentication preludes can be swapped — the reconfigurability story),
//! constraints (schema- and meta-), asserted base facts, and the
//! materialized database. Evaluation is a **staged fixpoint**: run the
//! semi-naive engine, extract rules generated into `active`/`rule`
//! (§3.3 code generation), install them (with `me` resolution, safety
//! checks, reflection), and repeat until no new rules appear; then check
//! constraints, rolling the workspace back if any is violated ("the
//! evaluation of the Datalog program fails by terminating with an
//! error", §3.2).

use crate::principal::Principal;
use lbtrust_datalog::ast::{BodyItem, Constraint, Rule};
use lbtrust_datalog::eval::{Engine, EvalError, EvalStats};
use lbtrust_datalog::safety::{check_rule, check_rule_at, SafetyError};
use lbtrust_datalog::strata::{stratify_spanned, StratifyError};
use lbtrust_datalog::{parse_program, Builtins, Database, ParseError, Span, Symbol, Tuple, Value};
use lbtrust_metamodel::constraintcheck::{check_constraints, check_fail, CheckError};
use lbtrust_metamodel::reflect::reflect_into;
use lbtrust_metamodel::{generated_rules, MetaPreds};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Errors from workspace operations.
#[derive(Debug)]
pub enum WsError {
    /// Source failed to parse.
    Parse(ParseError),
    /// A rule failed the safety (range-restriction) check.
    Safety(SafetyError),
    /// The program (combined with the rules already installed) is not
    /// stratifiable — rejected at load time, before any fact is
    /// asserted or evaluation attempted.
    Stratify(StratifyError),
    /// Evaluation failed.
    Eval(EvalError),
    /// A constraint (or `fail()`) was violated; the workspace rolled
    /// back.
    Constraint(CheckError),
    /// The staged meta-fixpoint did not converge.
    MetaDivergence {
        /// Stages executed before giving up.
        stages: usize,
    },
}

impl fmt::Display for WsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsError::Parse(e) => write!(f, "{e}"),
            WsError::Safety(e) => write!(f, "{e}"),
            WsError::Stratify(e) => write!(f, "{e}"),
            WsError::Eval(e) => write!(f, "{e}"),
            WsError::Constraint(e) => write!(f, "{e}"),
            WsError::MetaDivergence { stages } => {
                write!(
                    f,
                    "meta-programming fixpoint did not converge after {stages} stages"
                )
            }
        }
    }
}

impl std::error::Error for WsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WsError::Parse(e) => Some(e),
            WsError::Safety(e) => Some(e),
            WsError::Stratify(e) => Some(e),
            WsError::Eval(e) => Some(e),
            WsError::Constraint(e) => Some(e),
            WsError::MetaDivergence { .. } => None,
        }
    }
}

impl From<ParseError> for WsError {
    fn from(e: ParseError) -> Self {
        WsError::Parse(e)
    }
}
impl From<StratifyError> for WsError {
    fn from(e: StratifyError) -> Self {
        WsError::Stratify(e)
    }
}
impl From<SafetyError> for WsError {
    fn from(e: SafetyError) -> Self {
        WsError::Safety(e)
    }
}
impl From<EvalError> for WsError {
    fn from(e: EvalError) -> Self {
        WsError::Eval(e)
    }
}
impl From<CheckError> for WsError {
    fn from(e: CheckError) -> Self {
        WsError::Constraint(e)
    }
}

/// Cap on meta-fixpoint stages (each stage installs at least one new
/// generated rule, so divergence means runaway code generation).
const MAX_META_STAGES: usize = 64;

/// How a retraction was repaired (see [`Workspace::retract_facts`]).
#[derive(Clone, Copy, Debug)]
pub enum RetractOutcome {
    /// No listed fact was a base fact — nothing changed.
    Noop,
    /// The database was repaired in place by DRed; the statistics count
    /// over-deleted and re-derived tuples.
    Incremental(lbtrust_datalog::dred::DredStats),
    /// Repair was deferred to the next evaluation (non-monotonic
    /// program or pending rule changes force a rebuild from base).
    Deferred,
}

/// One principal's context.
pub struct Workspace {
    me: Principal,
    meta: MetaPreds,
    builtins: Builtins,
    /// User rules grouped by tag (preludes are swappable by tag).
    rules: Vec<(String, Arc<Rule>)>,
    /// Constraints grouped by tag.
    constraints: Vec<(String, Constraint)>,
    /// Rules installed by code generation (cleared on rebuild).
    generated: Vec<Arc<Rule>>,
    /// Content ids of every installed rule.
    installed: HashSet<u64>,
    /// Facts asserted from outside (the EDB).
    base_facts: Vec<(Symbol, Tuple)>,
    db: Database,
    /// Whether rules/constraints changed since the last evaluate.
    dirty: bool,
    /// Incremental seeds: relation growth since the last evaluate.
    seeds: HashMap<Symbol, usize>,
    /// Accumulated evaluation statistics.
    stats: EvalStats,
    /// State as of the last successful evaluation; failed evaluations
    /// (constraint violations) roll back to it, which also undoes the
    /// offending assertions — the paper's "terminates with an error"
    /// transaction semantics.
    committed: Option<Snapshot>,
    /// Monotone database-change counter: bumped whenever the
    /// materialized database (or the base it will be rebuilt from) may
    /// differ from what a reader last saw — fact assertion, incremental
    /// retraction repair, rollback restore, and any evaluation that
    /// rebuilt, reflected, or derived. Never decremented, so snapshot
    /// publishers can compare epochs across time.
    epoch: u64,
}

/// A snapshot for rollback. Rules and constraints only ever grow
/// between snapshots, so their lengths suffice; base facts can also be
/// *removed* from the middle (certificate retraction), so the full
/// vector is captured.
#[derive(Clone)]
struct Snapshot {
    db: Database,
    rules_len: usize,
    constraints_len: usize,
    generated: Vec<Arc<Rule>>,
    installed: HashSet<u64>,
    base_facts: Vec<(Symbol, Tuple)>,
    dirty: bool,
    seeds: HashMap<Symbol, usize>,
}

impl Workspace {
    /// Creates an empty workspace for principal `me`. Type predicates
    /// (`int(X)`, `string(X)`, …) are pre-registered so Figure 1-style
    /// typing constraints work out of the box; cryptographic builtins
    /// are registered by the [`crate::System`] (they need key material).
    pub fn new(me: &str) -> Workspace {
        let mut builtins = Builtins::new();
        lbtrust_datalog::builtins::register_type_predicates(&mut builtins);
        Workspace {
            me: Symbol::intern(me),
            meta: MetaPreds::new(),
            builtins,
            rules: Vec::new(),
            constraints: Vec::new(),
            generated: Vec::new(),
            installed: HashSet::new(),
            base_facts: Vec::new(),
            db: Database::new(),
            dirty: false,
            seeds: HashMap::new(),
            stats: EvalStats::default(),
            committed: None,
            epoch: 0,
        }
    }

    /// The local principal.
    pub fn me(&self) -> Principal {
        self.me
    }

    /// Mutable access to the builtin registry (register crypto builtins
    /// etc. before loading rules).
    pub fn builtins_mut(&mut self) -> &mut Builtins {
        &mut self.builtins
    }

    /// The builtin registry.
    pub fn builtins(&self) -> &Builtins {
        &self.builtins
    }

    /// The materialized database (read-only view).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Accumulated evaluation statistics.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The workspace's database-change epoch (see the field doc). Two
    /// equal epochs bracket a window in which the materialized database
    /// did not change, so derived state captured at the first read is
    /// still exact at the second.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Currently installed user + generated rules (for inspection).
    pub fn active_rules(&self) -> Vec<Arc<Rule>> {
        self.rules
            .iter()
            .map(|(_, r)| r.clone())
            .chain(self.generated.iter().cloned())
            .collect()
    }

    // ---- loading ----------------------------------------------------------

    /// Parses and installs a program under `tag`. The `me` keyword is
    /// resolved to this workspace's principal everywhere, including
    /// inside quoted code.
    ///
    /// Install-time checks run *before* any state changes: every rule
    /// must be safe (range-restricted), and the program combined with
    /// the rules already installed must be stratifiable. A rejected
    /// program leaves the workspace untouched, and the structured error
    /// cites the offending rule's source position.
    pub fn load(&mut self, tag: &str, src: &str) -> Result<(), WsError> {
        let program = parse_program(src)?;
        let me_sym = Symbol::intern("me");
        let mut pending: Vec<(Arc<Rule>, Span)> = Vec::with_capacity(program.rules.len());
        for (i, rule) in program.rules.iter().enumerate() {
            let span = program.rule_span(i);
            let rule = Arc::new(rule.clone().substitute_sym(me_sym, self.me));
            check_rule_at(&rule, &self.builtins, span)?;
            pending.push((rule, span));
        }
        // Stratify the combined rule set (already-installed rules carry
        // no source position; new rules cite theirs).
        let mut combined: Vec<Rule> = Vec::with_capacity(self.rules.len() + pending.len());
        let mut spans: Vec<Span> = Vec::with_capacity(combined.capacity());
        for (_, rule) in &self.rules {
            combined.push((**rule).clone());
            spans.push(Span::UNKNOWN);
        }
        for (rule, span) in &pending {
            combined.push((**rule).clone());
            spans.push(*span);
        }
        let builtins = &self.builtins;
        stratify_spanned(&combined, &spans, &|p| builtins.contains(p))?;

        for (rule, _) in pending {
            self.installed.insert(rule.content_id());
            self.rules.push((tag.to_string(), rule));
        }
        for constraint in program.constraints {
            let constraint = substitute_constraint(&constraint, me_sym, self.me);
            self.constraints.push((tag.to_string(), constraint));
        }
        self.dirty = true;
        Ok(())
    }

    /// Installs a program under `tag` on behalf of `owner`, recording
    /// `owner(rule, principal)` facts for every rule (§3.3). Combined
    /// with the `MAY_READ_OWNER`/`MAY_WRITE_OWNER` meta-constraints,
    /// the next evaluation rejects rules that read or write predicates
    /// the owner has no `access` grant for — and rolls this load back.
    pub fn load_owned(&mut self, tag: &str, src: &str, owner: Principal) -> Result<(), WsError> {
        let before = self.rules.len();
        self.load(tag, src)?;
        let owner_pred = Symbol::intern("owner");
        let new_rules: Vec<Arc<Rule>> = self.rules[before..]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        for rule in new_rules {
            self.assert_fact(owner_pred, vec![Value::Quote(rule), Value::Sym(owner)]);
        }
        Ok(())
    }

    /// Removes every rule and constraint previously loaded under `tag`,
    /// then installs `src` in its place. This is the paper's two-rule
    /// authentication swap (§4.1.2).
    pub fn replace_tag(&mut self, tag: &str, src: &str) -> Result<(), WsError> {
        self.rules.retain(|(t, r)| {
            if t == tag {
                self.installed.remove(&r.content_id());
                false
            } else {
                true
            }
        });
        self.constraints.retain(|(t, _)| t != tag);
        self.dirty = true;
        self.load(tag, src)
    }

    // ---- facts -------------------------------------------------------------

    /// Asserts a base fact.
    pub fn assert_fact(&mut self, pred: Symbol, tuple: Tuple) {
        if self.db.contains(pred, &tuple) {
            // Already present (possibly derived); still record as base so
            // it survives a rebuild.
            self.base_facts.push((pred, tuple));
            return;
        }
        let mark = self.db.count(pred);
        self.base_facts.push((pred, tuple.clone()));
        self.db.insert(pred, tuple);
        self.seeds.entry(pred).or_insert(mark);
        self.epoch += 1;
    }

    /// Asserts a batch of base facts (one supporting copy each) — the
    /// certificate-import and log-replay reconciliation path, which
    /// asserts many `export`/`says` facts before one evaluation.
    pub fn assert_facts(&mut self, facts: &[(Symbol, Tuple)]) {
        for (pred, tuple) in facts {
            self.assert_fact(*pred, tuple.clone());
        }
    }

    /// Parses and asserts facts, e.g. `"neighbor(a,b). neighbor(b,c)."`.
    /// Quote arguments are allowed when they contain no pattern
    /// constructs (`important([| payload(1). |]).`).
    pub fn assert_src(&mut self, src: &str) -> Result<(), WsError> {
        let program = parse_program(src)?;
        let me_sym = Symbol::intern("me");
        for rule in &program.rules {
            let rule = rule.substitute_sym(me_sym, self.me);
            let fact = (rule.body.is_empty() && rule.agg.is_none() && rule.heads.len() == 1)
                .then(|| {
                    let head = &rule.heads[0];
                    let pred = head.pred.name()?;
                    let tuple: Option<Tuple> = head.all_args().map(term_to_ground_value).collect();
                    Some((pred, tuple?))
                })
                .flatten();
            let Some((pred, tuple)) = fact else {
                return Err(WsError::Parse(ParseError {
                    message: format!("'{rule}' is not a ground fact"),
                    line: 0,
                    col: 0,
                }));
            };
            self.assert_fact(pred, tuple);
        }
        if !program.constraints.is_empty() {
            return Err(WsError::Parse(ParseError {
                message: "assert_src takes facts only".into(),
                line: 0,
                col: 0,
            }));
        }
        Ok(())
    }

    /// Retracts a base fact (all copies). For positive programs the
    /// repair is incremental — the DRed delete-and-rederive algorithm
    /// (§3.1 "active rules are incrementally recomputed") — otherwise
    /// the next evaluation re-derives everything from the remaining base.
    pub fn retract_fact(&mut self, pred: Symbol, tuple: &[Value]) -> bool {
        let before = self.base_facts.len();
        self.base_facts.retain(|(p, t)| !(*p == pred && t == tuple));
        let removed = self.base_facts.len() != before;
        if !removed {
            return false;
        }
        self.repair_after_retraction(vec![(pred, tuple.to_vec())]);
        true
    }

    /// Retracts **one supporting copy** of each listed base fact, then
    /// repairs the database in a single DRed pass for every fact whose
    /// last copy disappeared. Duplicated base facts model multiple live
    /// credentials asserting the same conclusion: the conclusion stands
    /// while any copy remains (the certificate store's retraction path
    /// relies on this).
    pub fn retract_facts(&mut self, facts: &[(Symbol, Tuple)]) -> RetractOutcome {
        let mut gone: Vec<(Symbol, Tuple)> = Vec::new();
        for (pred, tuple) in facts {
            let Some(pos) = self
                .base_facts
                .iter()
                .position(|(p, t)| p == pred && t == tuple)
            else {
                continue;
            };
            self.base_facts.remove(pos);
            let still_supported = self.base_facts.iter().any(|(p, t)| p == pred && t == tuple);
            if !still_supported {
                gone.push((*pred, tuple.clone()));
            }
        }
        if gone.is_empty() {
            return RetractOutcome::Noop;
        }
        self.repair_after_retraction(gone)
    }

    /// Repairs derived state after `retracted` left the EDB: the DRed
    /// incremental path when the program admits it, otherwise marking
    /// the workspace for a full rebuild on the next evaluation.
    fn repair_after_retraction(&mut self, retracted: Vec<(Symbol, Tuple)>) -> RetractOutcome {
        if self.dirty || self.non_monotonic() {
            self.dirty = true;
            self.sync_committed_after_deferred_retraction();
            return RetractOutcome::Deferred;
        }
        // Incremental path. Failure (e.g. a generated pattern construct
        // the DRed fragment rejects) falls back to full recomputation.
        let rules: Vec<Rule> = self
            .rules
            .iter()
            .map(|(_, r)| r.as_ref().clone())
            .chain(self.generated.iter().map(|r| r.as_ref().clone()))
            .collect();
        let outcome =
            lbtrust_datalog::dred::retract(&rules, &mut self.db, &self.builtins, &retracted);
        match outcome {
            Ok(stats) => {
                self.seeds.clear();
                self.epoch += 1;
                // The repaired state is the new committed baseline.
                self.committed = Some(self.snapshot());
                RetractOutcome::Incremental(stats)
            }
            Err(_) => {
                self.dirty = true;
                self.sync_committed_after_deferred_retraction();
                RetractOutcome::Deferred
            }
        }
    }

    /// Keeps the committed rollback baseline honest when a retraction's
    /// repair is deferred: the snapshot's base facts must not resurrect
    /// the retracted copies if a later failed evaluation restores it,
    /// and the restored state must rebuild from base (its materialized
    /// db still contains the stale derivations).
    fn sync_committed_after_deferred_retraction(&mut self) {
        if let Some(snap) = &mut self.committed {
            snap.base_facts = self.base_facts.clone();
            snap.dirty = true;
        }
    }

    // ---- queries -----------------------------------------------------------

    /// The tuples of `pred`, cloned in insertion order.
    pub fn tuples(&self, pred: Symbol) -> Vec<Tuple> {
        self.db
            .relation(pred)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Whether `pred(tuple)` holds.
    pub fn holds(&self, pred: Symbol, tuple: &[Value]) -> bool {
        self.db.contains(pred, tuple)
    }

    /// Whether the fact written as `src` (e.g. `"access(alice,f,read)"`)
    /// holds.
    pub fn holds_src(&self, src: &str) -> Result<bool, WsError> {
        let atom = lbtrust_datalog::parse_atom(src)?;
        let atom = atom.substitute_sym(Symbol::intern("me"), self.me);
        let pred = atom.pred.name().ok_or(WsError::Parse(ParseError {
            message: "pattern queries not supported here".into(),
            line: 0,
            col: 0,
        }))?;
        let tuple: Option<Tuple> = atom.all_args().map(|t| t.as_val().cloned()).collect();
        match tuple {
            Some(t) => Ok(self.db.contains(pred, &t)),
            None => Ok(self.db.relation(pred).is_some_and(|rel| {
                rel.iter().any(|t| {
                    !lbtrust_datalog::Bindings::new()
                        .match_tuple(&atom, t)
                        .is_empty()
                })
            })),
        }
    }

    /// Serializes the workspace's rules, constraints and base facts as
    /// LBTrust source text. Loading the result into a fresh workspace
    /// (rules via [`Workspace::load`], facts via
    /// [`Workspace::assert_src`]) reproduces the same conclusions —
    /// canonical text is the durability format, exactly as it is the
    /// wire format.
    pub fn export_program(&self) -> String {
        let mut out = String::new();
        out.push_str("// constraints\n");
        for (tag, c) in &self.constraints {
            out.push_str(&format!("// tag: {tag}\n{c}\n"));
        }
        out.push_str("// rules\n");
        for (tag, r) in &self.rules {
            out.push_str(&format!("// tag: {tag}\n{r}\n"));
        }
        out.push_str("// base facts\n");
        for (pred, tuple) in &self.base_facts {
            let args: Vec<String> = tuple.iter().map(ToString::to_string).collect();
            out.push_str(&format!("{pred}({}).\n", args.join(",")));
        }
        out
    }

    /// Renders the named predicates as a table — the stand-in for the
    /// paper's §9 "visualization tool used in LogicBlox to display a
    /// table of the values of various predicates".
    pub fn dump(&self, preds: &[&str]) -> String {
        let mut out = String::new();
        for name in preds {
            let pred = Symbol::intern(name);
            out.push_str(&format!("{} @ {}:\n", name, self.me));
            let tuples = self.tuples(pred);
            if tuples.is_empty() {
                out.push_str("  (none)\n");
            }
            for t in tuples {
                let row: Vec<String> = t.iter().map(ToString::to_string).collect();
                out.push_str(&format!("  {}({})\n", name, row.join(", ")));
            }
        }
        out
    }

    /// Goal-directed query via the magic-sets rewrite (§7's bridge from
    /// access-control-style top-down evaluation to bottom-up): answers
    /// `goal_src` (e.g. `"access(alice, O, read)"`) against the current
    /// rules and base facts *without* materializing unrelated
    /// conclusions. Aggregate rules are not supported on the goal's
    /// dependency path.
    pub fn query_goal(&self, goal_src: &str) -> Result<Vec<Tuple>, WsError> {
        let atom = lbtrust_datalog::parse_atom(goal_src)?;
        let atom = atom.substitute_sym(Symbol::intern("me"), self.me);
        let rules: Vec<Rule> = self
            .rules
            .iter()
            .map(|(_, r)| r.as_ref().clone())
            .chain(self.generated.iter().map(|r| r.as_ref().clone()))
            .filter(|r| !r.is_pattern())
            .collect();
        let (answers, _) =
            lbtrust_datalog::magic::query_magic(&rules, &self.db, &atom, &self.builtins)?;
        Ok(answers)
    }

    /// Explains how a fact was derived (provenance, §7 of the paper).
    /// Returns `None` if the fact does not hold.
    pub fn explain(&self, fact_src: &str) -> Result<Option<String>, WsError> {
        Ok(self.explain_proof(fact_src)?.map(|proof| proof.render()))
    }

    /// [`Workspace::explain`], but returning the structured proof tree
    /// instead of its rendering — callers that need the derivation's
    /// *premises* (e.g. the decision journal collecting the `says`
    /// facts an authorization rests on) walk this.
    pub fn explain_proof(
        &self,
        fact_src: &str,
    ) -> Result<Option<lbtrust_datalog::provenance::Proof>, WsError> {
        let atom = lbtrust_datalog::parse_atom(fact_src)?;
        let atom = atom.substitute_sym(Symbol::intern("me"), self.me);
        let pred = atom.pred.name().ok_or(WsError::Parse(ParseError {
            message: "explain takes a concrete fact".into(),
            line: 0,
            col: 0,
        }))?;
        let tuple: Option<Tuple> = atom.all_args().map(|t| t.as_val().cloned()).collect();
        let Some(tuple) = tuple else {
            return Err(WsError::Parse(ParseError {
                message: "explain takes a ground fact".into(),
                line: 0,
                col: 0,
            }));
        };
        let rules: Vec<Rule> = self
            .rules
            .iter()
            .map(|(_, r)| r.as_ref().clone())
            .chain(self.generated.iter().map(|r| r.as_ref().clone()))
            .collect();
        Ok(lbtrust_datalog::provenance::explain(
            &rules,
            &self.db,
            &self.builtins,
            pred,
            &tuple,
        ))
    }

    // ---- evaluation ---------------------------------------------------------

    /// Takes a rollback snapshot.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            db: self.db.clone(),
            rules_len: self.rules.len(),
            constraints_len: self.constraints.len(),
            generated: self.generated.clone(),
            installed: self.installed.clone(),
            base_facts: self.base_facts.clone(),
            dirty: self.dirty,
            seeds: self.seeds.clone(),
        }
    }

    /// Restores a snapshot taken earlier.
    fn restore(&mut self, snap: Snapshot) {
        self.db = snap.db;
        self.rules.truncate(snap.rules_len);
        self.constraints.truncate(snap.constraints_len);
        self.generated = snap.generated;
        self.installed = snap.installed;
        self.base_facts = snap.base_facts;
        self.dirty = snap.dirty;
        self.seeds = snap.seeds;
        // A rollback changes the database; the epoch stays monotone (it
        // counts changes, it does not identify states).
        self.epoch += 1;
    }

    /// Whether any installed rule uses negation or aggregation (in which
    /// case incremental addition is unsound and evaluation rebuilds from
    /// base facts).
    fn non_monotonic(&self) -> bool {
        self.rules
            .iter()
            .map(|(_, r)| r.as_ref())
            .chain(self.generated.iter().map(|r| r.as_ref()))
            .any(|r| {
                r.agg.is_some()
                    || r.body
                        .iter()
                        .any(|i| matches!(i, BodyItem::Lit { negated: true, .. }))
            })
    }

    /// Resets the database to base facts plus reflections of the current
    /// rule set (user and generated). Generated rules are kept — callers
    /// that invalidated them clear `generated` first.
    fn reset_db(&mut self) {
        self.db = Database::new();
        for (pred, tuple) in &self.base_facts {
            self.db.insert(*pred, tuple.clone());
        }
        let rules: Vec<Arc<Rule>> = self
            .rules
            .iter()
            .map(|(_, r)| r.clone())
            .chain(self.generated.iter().cloned())
            .collect();
        for rule in rules {
            self.reflect_rule(&rule);
        }
        self.seeds.clear();
    }

    fn reflect_rule(&mut self, rule: &Rule) {
        reflect_into(rule, &self.meta, &mut self.db);
        // Installed rules appear in the `active` table (§3.3), which both
        // enables reflection-style rules like `pull0` and makes code
        // generation idempotent.
        self.db
            .insert(self.meta.active, vec![Value::Quote(Arc::new(rule.clone()))]);
    }

    /// Evaluates to a (staged) fixpoint and checks constraints. On
    /// failure (constraint violation, unsafe generated rule, …) the
    /// workspace rolls back to the state after its last *successful*
    /// evaluation, undoing the offending assertions.
    pub fn evaluate(&mut self) -> Result<EvalStats, WsError> {
        // Captured before `evaluate_inner` clears `dirty`: a rebuild
        // replaces the database wholesale, and the first evaluation's
        // reflection fast path inserts `active` facts — both change the
        // database even when zero tuples are "derived".
        let was_rebuild = self.dirty || self.non_monotonic();
        let maybe_reflect =
            !was_rebuild && self.db.count(self.meta.active) == 0 && !self.rules.is_empty();
        match self.evaluate_inner() {
            Ok(stats) => {
                if was_rebuild || maybe_reflect || stats.derived > 0 {
                    self.epoch += 1;
                }
                self.committed = Some(self.snapshot());
                Ok(stats)
            }
            Err(e) => {
                match self.committed.clone() {
                    Some(snap) => self.restore(snap),
                    None => {
                        // Nothing ever succeeded: reset to an empty,
                        // facts-free state with the loaded rules intact.
                        self.base_facts.clear();
                        self.generated.clear();
                        self.db = Database::new();
                        self.seeds.clear();
                        self.dirty = true;
                        self.epoch += 1;
                    }
                }
                Err(e)
            }
        }
    }

    fn evaluate_inner(&mut self) -> Result<EvalStats, WsError> {
        // `dirty` (rules changed / retraction) invalidates generated
        // rules and the whole database; non-monotonic programs must also
        // re-derive from base every time, but keep their generated rules
        // (monotone extraction re-finds them anyway).
        if self.dirty {
            self.generated.clear();
            self.installed = self.rules.iter().map(|(_, r)| r.content_id()).collect();
        }
        let mut fresh = self.dirty || self.non_monotonic();
        self.dirty = false;

        if !fresh && self.db.count(self.meta.active) == 0 && !self.rules.is_empty() {
            // Fast path, first evaluation: materialize reflections.
            let rules: Vec<Arc<Rule>> = self.rules.iter().map(|(_, r)| r.clone()).collect();
            for rule in rules {
                self.reflect_rule(&rule);
            }
        }

        let mut total = EvalStats::default();
        let mut use_seeds = !fresh && !self.seeds.is_empty();
        for stage in 0.. {
            if stage >= MAX_META_STAGES {
                return Err(WsError::MetaDivergence { stages: stage });
            }
            if fresh {
                self.reset_db();
            }
            let rules: Vec<Rule> = self
                .rules
                .iter()
                .map(|(_, r)| r.as_ref().clone())
                .chain(self.generated.iter().map(|r| r.as_ref().clone()))
                .collect();
            let engine = Engine::new(&rules, &self.builtins);
            let stats = if use_seeds {
                let seeds: Vec<(Symbol, usize)> =
                    self.seeds.iter().map(|(&p, &m)| (p, m)).collect();
                engine.run_incremental(&mut self.db, &seeds)?
            } else {
                engine.run(&mut self.db)?
            };
            self.seeds.clear();
            use_seeds = false;
            total.rounds += stats.rounds;
            total.derived += stats.derived;
            total.rule_evals += stats.rule_evals;

            // Code generation: install new rules derived into
            // active/rule, then run another stage (§3.3: "those new facts
            // turn into a new rule which must itself be evaluated").
            let me_sym = Symbol::intern("me");
            let mut new_rules = Vec::new();
            for quote in generated_rules(&self.db, &self.meta) {
                let resolved = quote.substitute_sym(me_sym, self.me);
                let id = resolved.content_id();
                if !self.installed.contains(&id) && !resolved.is_pattern() {
                    new_rules.push(Arc::new(resolved));
                }
            }
            if new_rules.is_empty() {
                break;
            }
            for rule in new_rules {
                check_rule(&rule, &self.builtins)?;
                self.installed.insert(rule.content_id());
                if !fresh {
                    self.reflect_rule(&rule);
                }
                // A generated rule with negation/aggregation switches the
                // remaining stages to from-scratch mode so its
                // non-monotonic conclusions are sound.
                if rule.agg.is_some()
                    || rule
                        .body
                        .iter()
                        .any(|i| matches!(i, BodyItem::Lit { negated: true, .. }))
                {
                    fresh = true;
                }
                self.generated.push(rule);
            }
        }

        // Constraint checking (schema constraints, meta-constraints, and
        // the fail() predicate).
        check_fail(&self.db)?;
        let constraints: Vec<Constraint> =
            self.constraints.iter().map(|(_, c)| c.clone()).collect();
        check_constraints(&constraints, &self.db, &self.builtins)?;
        self.stats.rounds += total.rounds;
        self.stats.derived += total.derived;
        self.stats.rule_evals += total.rule_evals;
        Ok(total)
    }
}

// The parallel quiescence engine moves exclusive workspace references
// onto `std::thread::scope` workers. This assertion turns an
// accidentally non-`Send` field added later (an `Rc`, a raw pointer)
// into a compile error here, instead of a borrow-check maze inside the
// shard plumbing.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Workspace>();
};

/// Converts a term to a ground value, accepting concrete quotes (code
/// without pattern constructs) alongside ordinary values.
fn term_to_ground_value(term: &lbtrust_datalog::Term) -> Option<Value> {
    use lbtrust_datalog::Term;
    match term {
        Term::Val(v) => Some(v.clone()),
        Term::Quote(r) if !r.is_pattern() => Some(Value::Quote(r.clone())),
        _ => None,
    }
}

/// `me`-resolution for constraints.
fn substitute_constraint(c: &Constraint, from: Symbol, to: Symbol) -> Constraint {
    // Reuse the rule substitution by packing the constraint into a rule
    // body plus a formula walk.
    use lbtrust_datalog::ast::Formula;
    fn subst_formula(f: &Formula, from: Symbol, to: Symbol) -> Formula {
        match f {
            Formula::Item(item) => Formula::Item(subst_item(item, from, to)),
            Formula::And(parts) => {
                Formula::And(parts.iter().map(|p| subst_formula(p, from, to)).collect())
            }
            Formula::Or(parts) => {
                Formula::Or(parts.iter().map(|p| subst_formula(p, from, to)).collect())
            }
            Formula::Not(inner) => Formula::Not(Box::new(subst_formula(inner, from, to))),
        }
    }
    fn subst_item(item: &BodyItem, from: Symbol, to: Symbol) -> BodyItem {
        let carrier = Rule {
            heads: Vec::new(),
            body: vec![item.clone()],
            agg: None,
        };
        carrier.substitute_sym(from, to).body.remove(0)
    }
    Constraint {
        body: c.body.iter().map(|i| subst_item(i, from, to)).collect(),
        requires: subst_formula(&c.requires, from, to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn vals(parts: &[&str]) -> Tuple {
        parts.iter().map(|p| Value::sym(p)).collect()
    }

    #[test]
    fn load_and_evaluate_simple_policy() {
        let mut ws = Workspace::new("alice");
        ws.load("policy", "access(P,file1,read) <- good(P).")
            .unwrap();
        ws.assert_src("good(carol). good(dave).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds_src("access(carol,file1,read)").unwrap());
        assert!(ws.holds_src("access(dave,file1,read)").unwrap());
        assert!(!ws.holds_src("access(eve,file1,read)").unwrap());
    }

    #[test]
    fn me_resolution() {
        let mut ws = Workspace::new("alice");
        ws.load("p", "mine(me).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("mine"), &vals(&["alice"])));
    }

    #[test]
    fn incremental_assertions() {
        let mut ws = Workspace::new("w");
        ws.load(
            "tc",
            "reach(X,Y) <- edge(X,Y). reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        ws.assert_src("edge(a,b).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("reach"), &vals(&["a", "b"])));
        // Incremental: new edge extends reach without a rebuild.
        ws.assert_src("edge(b,c).").unwrap();
        let stats = ws.evaluate().unwrap();
        assert!(ws.holds(sym("reach"), &vals(&["a", "c"])));
        assert!(stats.derived >= 2);
    }

    #[test]
    fn constraint_violation_rolls_back() {
        let mut ws = Workspace::new("w");
        ws.load("schema", "access(P,O,M) -> principal(P).").unwrap();
        ws.assert_src("principal(alice).").unwrap();
        ws.assert_fact(sym("access"), vals(&["alice", "f", "read"]));
        ws.evaluate().unwrap();
        // A violating fact rolls everything back.
        ws.assert_fact(sym("access"), vals(&["mallory", "f", "read"]));
        let err = ws.evaluate().unwrap_err();
        assert!(matches!(err, WsError::Constraint(_)));
        // The poisoned fact is gone after rollback...
        assert!(!ws.holds(sym("access"), &vals(&["mallory", "f", "read"])));
        // ...and the workspace still evaluates cleanly.
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("access"), &vals(&["alice", "f", "read"])));
    }

    #[test]
    fn fail_rule_rolls_back() {
        let mut ws = Workspace::new("w");
        ws.load("schema", "fail() <- bad(X).").unwrap();
        ws.evaluate().unwrap();
        ws.assert_src("bad(thing).").unwrap();
        assert!(ws.evaluate().is_err());
        assert!(!ws.holds(sym("bad"), &vals(&["thing"])));
    }

    #[test]
    fn code_generation_via_active() {
        // A rule that activates another rule when a fact appears
        // (simplified del1).
        let mut ws = Workspace::new("alice");
        ws.load(
            "deleg",
            "active([| trusted(X) <- vouched(U2,X). |]) <- delegates(me,U2).",
        )
        .unwrap();
        ws.assert_src("delegates(alice,bob). vouched(bob,carol).")
            .unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("trusted"), &vals(&["carol"])));
        // The generated rule shows up among active rules.
        assert!(ws
            .active_rules()
            .iter()
            .any(|r| r.to_string().contains("trusted(X)")));
    }

    #[test]
    fn generated_rules_cascade() {
        // Generation that generates again (two stages).
        let mut ws = Workspace::new("w");
        ws.load(
            "gen",
            "active([| active([| final(done). |]) <- go2(). |]) <- go1().",
        )
        .unwrap();
        ws.assert_src("go1(). go2().").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("final"), &vals(&["done"])));
    }

    #[test]
    fn replace_tag_swaps_rules() {
        let mut ws = Workspace::new("w");
        ws.load("auth", "mode(rsa) <- on().").unwrap();
        ws.assert_src("on().").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("mode"), &vals(&["rsa"])));
        ws.replace_tag("auth", "mode(hmac) <- on().").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("mode"), &vals(&["hmac"])));
        // The old derivation is gone after the rebuild.
        assert!(!ws.holds(sym("mode"), &vals(&["rsa"])));
    }

    #[test]
    fn unstratifiable_program_rejected_at_load() {
        // Negation through recursion is refused at install time — before
        // any rule or constraint is added — and the error cites the
        // offending rule's source position.
        let mut ws = Workspace::new("w");
        ws.load("base", "win(X) <- move(X,Y), lose(Y).").unwrap();
        let err = ws.load("bad", "lose(X) <- pos(X), !win(X).").unwrap_err();
        match &err {
            WsError::Stratify(e) => {
                assert!(e.negation);
                assert_eq!(e.span, lbtrust_datalog::Span::new(1, 1));
            }
            other => panic!("expected Stratify, got {other}"),
        }
        // Structured error chain is intact.
        assert!(std::error::Error::source(&err).is_some());
        // The rejected program left no trace: the workspace still
        // evaluates, and only the first program's rule is installed.
        assert_eq!(ws.active_rules().len(), 1);
        ws.assert_src("move(a,b). pos(a).").unwrap();
        ws.evaluate().unwrap();
    }

    #[test]
    fn unsafe_rule_rejected_at_load_with_span() {
        let mut ws = Workspace::new("w");
        let err = ws
            .load("bad", "ok(X) <- good(Y).\nbad(X) <- !seen(X).")
            .unwrap_err();
        match &err {
            WsError::Safety(e) => {
                assert_eq!(e.span(), lbtrust_datalog::Span::new(1, 1));
            }
            other => panic!("expected Safety, got {other}"),
        }
        assert_eq!(ws.active_rules().len(), 0);
    }

    #[test]
    fn retraction_full_recompute() {
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        ws.assert_src("p(a). p(b).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("q"), &vals(&["a"])));
        assert!(ws.retract_fact(sym("p"), &vals(&["a"])));
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
        assert!(ws.holds(sym("q"), &vals(&["b"])));
    }

    #[test]
    fn retraction_incremental_repair_is_immediate() {
        // Positive program: the DRed path repairs the database inside
        // retract_fact, before any evaluate().
        let mut ws = Workspace::new("w");
        ws.load(
            "tc",
            "reach(X,Y) <- edge(X,Y). reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        ws.assert_src("edge(a,b). edge(b,c).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("reach"), &vals(&["a", "c"])));
        assert!(ws.retract_fact(sym("edge"), &vals(&["b", "c"])));
        // No evaluate() needed: DRed already repaired.
        assert!(!ws.holds(sym("reach"), &vals(&["a", "c"])));
        assert!(!ws.holds(sym("reach"), &vals(&["b", "c"])));
        assert!(ws.holds(sym("reach"), &vals(&["a", "b"])));
        // Later evaluation keeps the repaired state consistent.
        ws.assert_src("edge(c,d).").unwrap();
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("reach"), &vals(&["a", "d"])));
        assert!(ws.holds(sym("reach"), &vals(&["c", "d"])));
    }

    #[test]
    fn negation_forces_rebuild_correctness() {
        let mut ws = Workspace::new("w");
        ws.load("p", "ok(X) <- candidate(X), !banned(X).").unwrap();
        ws.assert_src("candidate(a).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("ok"), &vals(&["a"])));
        // Banning later must retract the conclusion.
        ws.assert_src("banned(a).").unwrap();
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("ok"), &vals(&["a"])));
    }

    #[test]
    fn deferred_retraction_survives_constraint_rollback() {
        // Non-monotonic program: retraction repair is deferred to the
        // next evaluation. A constraint violation in between must not
        // resurrect the retracted fact through the rollback snapshot.
        let mut ws = Workspace::new("w");
        ws.load("p", "ok(X) <- candidate(X), !banned(X).").unwrap();
        ws.load("schema", "poison(X) -> never(X).").unwrap();
        ws.assert_src("candidate(a). candidate(b).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("ok"), &vals(&["a"])));

        // Deferred retraction (negation forces rebuild-on-evaluate).
        let outcome = ws.retract_facts(&[(sym("candidate"), vals(&["a"]))]);
        assert!(matches!(outcome, RetractOutcome::Deferred));

        // A poisoned assertion rolls the workspace back…
        ws.assert_fact(sym("poison"), vals(&["x"]));
        assert!(ws.evaluate().is_err());
        // …but the retracted fact must stay gone after the rollback.
        ws.evaluate().unwrap();
        assert!(
            !ws.holds(sym("ok"), &vals(&["a"])),
            "rollback must not resurrect a retracted base fact"
        );
        assert!(ws.holds(sym("ok"), &vals(&["b"])));
        assert!(!ws.holds(sym("poison"), &vals(&["x"])));
    }

    #[test]
    fn one_copy_retraction_keeps_duplicated_support() {
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        // Two credentials assert the same fact.
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("q"), &vals(&["a"])));
        // Removing one copy keeps the conclusion…
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("q"), &vals(&["a"])));
        // …removing the last copy retracts it.
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
    }

    #[test]
    fn meta_constraint_blocks_unauthorized_generated_rule() {
        // mayWrite-style meta-constraint: only rules writing predicates
        // the owner may write are admissible. Here: everything said to me
        // activates (says1), but writes to `secret` are forbidden.
        let mut ws = Workspace::new("alice");
        ws.load("says", "active(R) <- says(_,me,R).").unwrap();
        ws.load("authz", "active([| secret(T*) <- A*. |]) -> never().")
            .unwrap();
        // A benign said rule is fine.
        ws.assert_fact(
            sym("says"),
            vec![
                Value::sym("bob"),
                Value::sym("alice"),
                Value::Quote(Arc::new(
                    lbtrust_datalog::parse_rule("note(hello).").unwrap(),
                )),
            ],
        );
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("note"), &vals(&["hello"])));
        // A rule writing `secret` violates the meta-constraint and is
        // rolled back.
        ws.assert_fact(
            sym("says"),
            vec![
                Value::sym("bob"),
                Value::sym("alice"),
                Value::Quote(Arc::new(
                    lbtrust_datalog::parse_rule("secret(stolen).").unwrap(),
                )),
            ],
        );
        assert!(ws.evaluate().is_err());
        assert!(!ws.holds(sym("secret"), &vals(&["stolen"])));
    }

    #[test]
    fn load_owned_enforces_read_authorization() {
        let mut ws = Workspace::new("w");
        ws.load("authz", lbtrust_metamodel_free_authz()).unwrap();
        // u1 may read budget.
        ws.assert_src("access(u1, budget, read).").unwrap();
        ws.load_owned("p1", "spend(X) <- budget(X).", sym("u1"))
            .unwrap();
        ws.evaluate().unwrap();
        // u2 may not: the load is rolled back on evaluation.
        ws.load_owned("p2", "leak(X) <- budget(X).", sym("u2"))
            .unwrap();
        assert!(ws.evaluate().is_err());
        assert!(!ws
            .active_rules()
            .iter()
            .any(|r| r.to_string().contains("leak")));
        // The workspace still works afterwards.
        ws.assert_src("budget(500).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("spend"), &[Value::Int(500)]));
    }

    /// The §3.3 owner/access read meta-constraint source.
    fn lbtrust_metamodel_free_authz() -> &'static str {
        crate::authz::MAY_READ_OWNER
    }

    #[test]
    fn export_program_roundtrips() {
        let mut ws = Workspace::new("w");
        ws.load(
            "tc",
            "reach(X,Y) <- edge(X,Y). reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        ws.load("schema", "edge(X,Y) -> node(X), node(Y).").unwrap();
        ws.assert_src("node(a). node(b). node(c). edge(a,b). edge(b,c).")
            .unwrap();
        ws.evaluate().unwrap();

        // Restore into a fresh workspace from the exported text.
        let text = ws.export_program();
        let mut restored = Workspace::new("w2");
        // Rules+constraints parse as a program; facts are the fact lines.
        let (defs, facts): (Vec<&str>, Vec<&str>) = text
            .lines()
            .filter(|l| !l.starts_with("//") && !l.is_empty())
            .partition(|l| l.contains("<-") || l.contains("->"));
        restored.load("restored", &defs.join("\n")).unwrap();
        restored.assert_src(&facts.join("\n")).unwrap();
        restored.evaluate().unwrap();
        assert_eq!(
            ws.tuples(sym("reach")).len(),
            restored.tuples(sym("reach")).len()
        );
        for t in ws.tuples(sym("reach")) {
            assert!(restored.holds(sym("reach"), &t));
        }
    }

    #[test]
    fn dump_renders_tables() {
        let mut ws = Workspace::new("alice");
        ws.assert_src("permission(alice, f1, read).").unwrap();
        ws.evaluate().unwrap();
        let text = ws.dump(&["permission", "nothing"]);
        assert!(text.contains("permission @ alice"), "{text}");
        assert!(text.contains("permission(alice, f1, read)"), "{text}");
        assert!(text.contains("(none)"), "{text}");
    }

    #[test]
    fn query_goal_answers_without_materializing() {
        let mut ws = Workspace::new("w");
        ws.load(
            "policy",
            "access(P,O,M) <- owns(P,O), mode(M).\n\
             access(P,O,M) <- delegated(Q,P), access(Q,O,M).",
        )
        .unwrap();
        ws.assert_src("owns(alice,f1). owns(bob,f2). mode(read). delegated(alice,carol).")
            .unwrap();
        // No evaluate() call: the goal query works off base facts.
        let answers = ws.query_goal("access(carol, O, read)").unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][1], Value::sym("f1"));
        // The access relation itself was not materialized.
        assert_eq!(ws.db().count(sym("access")), 0);
    }

    #[test]
    fn explain_renders_derivation() {
        let mut ws = Workspace::new("w");
        ws.load("policy", "grant(P,O) <- owns(P,O), vetted(P).")
            .unwrap();
        ws.assert_src("owns(alice,f1). vetted(alice).").unwrap();
        ws.evaluate().unwrap();
        let proof = ws.explain("grant(alice,f1)").unwrap().expect("holds");
        assert!(proof.contains("grant(alice,f1)"), "{proof}");
        assert!(proof.contains("[fact]"), "{proof}");
        assert!(proof.contains("owns(alice,f1)"), "{proof}");
        // Absent facts have no explanation.
        assert!(ws.explain("grant(bob,f1)").unwrap().is_none());
    }
}
