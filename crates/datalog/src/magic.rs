//! Magic-sets rewriting (Bancilhon et al., cited as \[6\] in the paper).
//!
//! §7 of the paper: "traditional database optimizations such as magic-sets
//! can potentially bridge the top-down evaluation approach used in access
//! control, versus the typical bottom-up continuous evaluation of network
//! protocols." This module implements that bridge: given a ground-or-
//! partially-bound query, it rewrites the program so that bottom-up
//! evaluation only derives facts *relevant* to the query, then runs the
//! ordinary semi-naive engine.
//!
//! Supported fragment: positive rules with builtins and comparisons;
//! negation is allowed only on predicates that the rewrite leaves
//! untouched (EDB). Aggregation is not supported (access-control queries
//! in the paper's Binder case study do not aggregate).

use crate::ast::{Atom, BodyItem, CmpOp, Expr, PredRef, Rule, Term};
use crate::builtins::Builtins;
use crate::db::{Database, Tuple};
use crate::eval::{Engine, EvalError, EvalStats};
use crate::intern::Symbol;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Rewrite failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MagicError {
    /// The program aggregates, which the rewrite does not support.
    Aggregation {
        /// The rule, printed.
        rule: String,
    },
    /// Negation on a rewritten (IDB) predicate.
    NegatedIdb {
        /// The rule, printed.
        rule: String,
    },
    /// The query atom contains pattern constructs.
    PatternQuery,
}

impl fmt::Display for MagicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MagicError::Aggregation { rule } => {
                write!(f, "magic rewrite does not support aggregation: '{rule}'")
            }
            MagicError::NegatedIdb { rule } => {
                write!(
                    f,
                    "magic rewrite does not support negated IDB literals: '{rule}'"
                )
            }
            MagicError::PatternQuery => write!(f, "query atom must not contain patterns"),
        }
    }
}

impl std::error::Error for MagicError {}

/// An adornment: one flag per argument position, `true` = bound.
type Adornment = Vec<bool>;

fn adorned_name(pred: Symbol, adornment: &Adornment, magic: bool) -> Symbol {
    let mut name = String::with_capacity(pred.as_str().len() + adornment.len() + 8);
    if magic {
        name.push_str("m__");
    }
    name.push_str(pred.as_str());
    name.push_str("__");
    for &b in adornment {
        name.push(if b { 'b' } else { 'f' });
    }
    Symbol::intern(&name)
}

/// The result of a magic rewrite.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten rules (adorned rules + magic rules + seed).
    pub rules: Vec<Rule>,
    /// The adorned predicate holding the query's answers.
    pub answer_pred: Symbol,
}

/// Rewrites `rules` for the given query atom. The query's adornment is
/// derived from its ground argument positions.
pub fn magic_rewrite(
    rules: &[Rule],
    query: &Atom,
    builtins: &Builtins,
) -> Result<MagicProgram, MagicError> {
    let Some(query_pred) = query.pred.name() else {
        return Err(MagicError::PatternQuery);
    };
    let idb: HashSet<Symbol> = rules
        .iter()
        .flat_map(|r| r.heads.iter())
        .filter_map(|h| h.pred.name())
        .collect();

    let query_adornment: Adornment = query
        .all_args()
        .map(|t| matches!(t, Term::Val(_)))
        .collect();

    let mut out = Vec::new();
    let mut queue: VecDeque<(Symbol, Adornment)> = VecDeque::new();
    let mut seen: HashSet<(Symbol, Adornment)> = HashSet::new();

    // Seed: the magic fact for the query's bound arguments.
    let seed_args: Vec<Term> = query
        .all_args()
        .filter(|t| matches!(t, Term::Val(_)))
        .cloned()
        .collect();
    out.push(Rule {
        heads: vec![Atom {
            pred: PredRef::Name(adorned_name(query_pred, &query_adornment, true)),
            key_args: Vec::new(),
            args: seed_args,
        }],
        body: Vec::new(),
        agg: None,
    });

    queue.push_back((query_pred, query_adornment.clone()));
    seen.insert((query_pred, query_adornment.clone()));

    while let Some((pred, adornment)) = queue.pop_front() {
        for rule in rules
            .iter()
            .filter(|r| r.heads.len() == 1 && r.heads[0].pred.name() == Some(pred))
        {
            if rule.agg.is_some() {
                return Err(MagicError::Aggregation {
                    rule: rule.to_string(),
                });
            }
            let head = &rule.heads[0];
            if head.arity() != adornment.len() {
                continue;
            }
            // Bound variables: those in bound head positions.
            let mut bound: HashSet<Symbol> = HashSet::new();
            for (term, &is_bound) in head.all_args().zip(adornment.iter()) {
                if is_bound {
                    if let Term::Var(v) = term {
                        bound.insert(*v);
                    }
                }
            }
            // The magic guard literal.
            let magic_args: Vec<Term> = head
                .all_args()
                .zip(adornment.iter())
                .filter(|(_, &b)| b)
                .map(|(t, _)| t.clone())
                .collect();
            let mut new_body: Vec<BodyItem> = vec![BodyItem::pos(Atom {
                pred: PredRef::Name(adorned_name(pred, &adornment, true)),
                key_args: Vec::new(),
                args: magic_args.clone(),
            })];

            // Walk the body left to right (sideways information passing),
            // adorning IDB literals and emitting magic rules for them.
            for item in &rule.body {
                match item {
                    BodyItem::Lit {
                        negated: false,
                        atom,
                    } if atom
                        .pred
                        .name()
                        .is_some_and(|p| idb.contains(&p) && !builtins.contains(p)) =>
                    {
                        let sub_pred = atom.pred.name().expect("checked");
                        let sub_adornment: Adornment =
                            atom.all_args().map(|t| term_bound(t, &bound)).collect();
                        // Magic rule: the bound arguments of the subgoal
                        // are reachable given the prefix so far.
                        let sub_bound_args: Vec<Term> = atom
                            .all_args()
                            .zip(sub_adornment.iter())
                            .filter(|(_, &b)| b)
                            .map(|(t, _)| t.clone())
                            .collect();
                        out.push(Rule {
                            heads: vec![Atom {
                                pred: PredRef::Name(adorned_name(sub_pred, &sub_adornment, true)),
                                key_args: Vec::new(),
                                args: sub_bound_args,
                            }],
                            body: new_body.clone(),
                            agg: None,
                        });
                        // Replace the literal with its adorned version.
                        new_body.push(BodyItem::pos(Atom {
                            pred: PredRef::Name(adorned_name(sub_pred, &sub_adornment, false)),
                            key_args: Vec::new(),
                            args: atom.all_args().cloned().collect(),
                        }));
                        if seen.insert((sub_pred, sub_adornment.clone())) {
                            queue.push_back((sub_pred, sub_adornment));
                        }
                        let mut vars = Vec::new();
                        atom.collect_vars(&mut vars);
                        bound.extend(vars);
                    }
                    BodyItem::Lit { negated, atom } => {
                        if *negated && atom.pred.name().is_some_and(|p| idb.contains(&p)) {
                            return Err(MagicError::NegatedIdb {
                                rule: rule.to_string(),
                            });
                        }
                        new_body.push(item.clone());
                        if !negated {
                            let mut vars = Vec::new();
                            atom.collect_vars(&mut vars);
                            bound.extend(vars);
                        }
                    }
                    BodyItem::Cmp { op, lhs, rhs } => {
                        new_body.push(item.clone());
                        if *op == CmpOp::Eq {
                            for e in [lhs, rhs] {
                                if let Expr::Term(Term::Var(v)) = e {
                                    bound.insert(*v);
                                }
                            }
                        }
                    }
                    BodyItem::Rest(_) => {
                        new_body.push(item.clone());
                    }
                }
            }

            // The adorned rule itself.
            out.push(Rule {
                heads: vec![Atom {
                    pred: PredRef::Name(adorned_name(pred, &adornment, false)),
                    key_args: Vec::new(),
                    args: head.all_args().cloned().collect(),
                }],
                body: new_body,
                agg: None,
            });
        }
    }

    Ok(MagicProgram {
        rules: out,
        answer_pred: adorned_name(query_pred, &query_adornment, false),
    })
}

fn term_bound(term: &Term, bound: &HashSet<Symbol>) -> bool {
    match term {
        Term::Val(_) => true,
        Term::Var(v) => bound.contains(v),
        Term::SeqVar(_) | Term::Quote(_) => false,
    }
}

/// Rewrites, evaluates, and extracts the answers for `query` over the
/// extensional database `db` (which is not modified). Returns the
/// matching tuples of the query predicate together with evaluation stats
/// (for the bottom-up vs magic ablation, experiment A2).
pub fn query_magic(
    rules: &[Rule],
    db: &Database,
    query: &Atom,
    builtins: &Builtins,
) -> Result<(Vec<Tuple>, EvalStats), EvalError> {
    let magic = magic_rewrite(rules, query, builtins).map_err(|e| EvalError::TypeError {
        message: e.to_string(),
    })?;
    let mut work = db.clone();
    let stats = Engine::new(&magic.rules, builtins).run(&mut work)?;
    let mut answers: Vec<Tuple> = Vec::new();
    let mut seen: HashSet<Tuple> = HashSet::new();
    if let Some(rel) = work.relation(magic.answer_pred) {
        for tuple in rel.iter() {
            if !crate::unify::Bindings::new()
                .match_tuple(query, tuple)
                .is_empty()
                && seen.insert(tuple.clone())
            {
                answers.push(tuple.clone());
            }
        }
    }
    // Facts for the query predicate stored directly in the EDB also count
    // as answers (the rewrite only derives rule-produced tuples).
    if let Some(rel) = db.relation(query.pred.name().expect("concrete query")) {
        for tuple in rel.iter() {
            if !crate::unify::Bindings::new()
                .match_tuple(query, tuple)
                .is_empty()
                && seen.insert(tuple.clone())
            {
                answers.push(tuple.clone());
            }
        }
    }
    Ok((answers, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom, parse_program};
    use crate::value::Value;

    fn edb(pairs: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (pred, tuple) in pairs {
            db.insert(
                Symbol::intern(pred),
                tuple.iter().map(|v| Value::sym(v)).collect(),
            );
        }
        db
    }

    #[test]
    fn bound_query_restricts_derivation() {
        let program = parse_program(
            "reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        // Two disconnected chains: a->b->c and p->q->r.
        let db = edb(&[
            ("edge", &["a", "b"][..]),
            ("edge", &["b", "c"][..]),
            ("edge", &["p", "q"][..]),
            ("edge", &["q", "r"][..]),
        ]);
        let builtins = Builtins::new();
        let query = parse_atom("reach(a, X)").unwrap();
        let (answers, stats) = query_magic(&program.rules, &db, &query, &builtins).unwrap();
        let mut got: Vec<String> = answers.iter().map(|t| t[1].to_string()).collect();
        got.sort();
        assert_eq!(got, vec!["b", "c"]);
        // Relevance: nothing about p/q/r is derived, so far fewer tuples
        // than full evaluation would produce.
        assert!(stats.derived <= 8, "derived {} tuples", stats.derived);
    }

    #[test]
    fn fully_bound_query() {
        let program = parse_program(
            "reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        let db = edb(&[("edge", &["a", "b"][..]), ("edge", &["b", "c"][..])]);
        let builtins = Builtins::new();
        let yes = parse_atom("reach(a, c)").unwrap();
        let (answers, _) = query_magic(&program.rules, &db, &yes, &builtins).unwrap();
        assert_eq!(answers.len(), 1);
        let no = parse_atom("reach(c, a)").unwrap();
        let (answers, _) = query_magic(&program.rules, &db, &no, &builtins).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn matches_bottom_up_results() {
        let program = parse_program(
            "access(P,O,M) <- owns(P,O), mode(M).\n\
             access(P,O,M) <- delegated(Q,P), access(Q,O,M).",
        )
        .unwrap();
        let db = edb(&[
            ("owns", &["alice", "f1"][..]),
            ("owns", &["bob", "f2"][..]),
            ("mode", &["read"][..]),
            ("mode", &["write"][..]),
            ("delegated", &["alice", "carol"][..]),
        ]);
        let builtins = Builtins::new();
        // Bottom-up full evaluation.
        let mut full = db.clone();
        Engine::new(&program.rules, &builtins)
            .run(&mut full)
            .unwrap();
        let query = parse_atom("access(carol, X, Y)").unwrap();
        let (magic_answers, _) = query_magic(&program.rules, &db, &query, &builtins).unwrap();
        let access = Symbol::intern("access");
        let expected: Vec<&Tuple> = full
            .relation(access)
            .unwrap()
            .iter()
            .filter(|t| t[0] == Value::sym("carol"))
            .collect();
        assert_eq!(magic_answers.len(), expected.len());
        for t in expected {
            assert!(magic_answers.contains(t), "missing {t:?}");
        }
    }

    #[test]
    fn edb_facts_count_as_answers() {
        let program = parse_program("p(X) <- q(X).").unwrap();
        let mut db = edb(&[("q", &["a"][..])]);
        db.insert(Symbol::intern("p"), vec![Value::sym("direct")]);
        let builtins = Builtins::new();
        let query = parse_atom("p(X)").unwrap();
        let (answers, _) = query_magic(&program.rules, &db, &query, &builtins).unwrap();
        let mut got: Vec<String> = answers.iter().map(|t| t[0].to_string()).collect();
        got.sort();
        assert_eq!(got, vec!["a", "direct"]);
    }

    #[test]
    fn aggregation_rejected() {
        let program = parse_program("c(K,N) <- agg<<N = count(U)>> v(K,U).").unwrap();
        let err = magic_rewrite(
            &program.rules,
            &parse_atom("c(a,b)").unwrap(),
            &Builtins::new(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn negated_edb_allowed() {
        let program = parse_program("ok(X) <- candidate(X), !banned(X).").unwrap();
        let db = edb(&[
            ("candidate", &["a"][..]),
            ("candidate", &["b"][..]),
            ("banned", &["b"][..]),
        ]);
        let query = parse_atom("ok(X)").unwrap();
        let (answers, _) = query_magic(&program.rules, &db, &query, &Builtins::new()).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][0], Value::sym("a"));
    }
}
