//! Recursive-descent parser for the LBTrust Datalog dialect.
//!
//! Grammar sketch (see the module tests for worked examples):
//!
//! ```text
//! program    := statement*
//! statement  := heads '.'                      -- facts
//!             | heads '<-' aggspec? formula '.' -- rule(s)
//!             | conj '->' formula? '.'          -- constraint / declaration
//! heads      := atom (',' atom)*
//! formula    := conj (';' conj)*
//! conj       := unary (',' unary)*
//! unary      := '!' unary | '(' formula ')' | bodyitem
//! bodyitem   := atom | expr cmpop expr | UIdent '*'   -- rest var in quotes
//! atom       := functor key? args? | UIdent           -- whole-atom var in quotes
//! functor    := Ident | UIdent                        -- UIdent only in quotes
//! key        := '[' expr (',' expr)* ']'
//! args       := '(' (expr (',' expr)*)? ')'
//! expr       := mul (('+'|'-') mul)*
//! mul        := operand (('*'|'/'|'%') operand)*
//! operand    := term | '(' expr ')'
//! term       := UIdent '*'? | Ident | Int | Str | Bytes | '_' | quote
//! quote      := '[|' heads ('<-' formula)? '.'? '|]'
//! aggspec    := 'agg' '<<' UIdent '=' aggfn '(' UIdent ')' '>>'
//! ```
//!
//! Arithmetic expressions in argument positions are hoisted: `p(N-1)`
//! becomes `p(V)` plus a body item `V = N - 1` appended to the enclosing
//! *top-level* rule — including when the expression sits inside a quoted
//! template, which implements the paper's "unquoted in-place" evaluation
//! of meta-variable expressions (§3.3, rule `dd3`).

use crate::ast::{
    AggFunc, AggSpec, ArithOp, Atom, BodyItem, CmpOp, Constraint, Expr, Formula, PredRef, Program,
    Rule, Term,
};
use crate::dnf::to_dnf;
use crate::intern::Symbol;
use crate::lexer::{lex, Span, Spanned, Token};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A parse error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number (0 when at end of input).
    pub line: usize,
    /// 1-based column number (0 when at end of input).
    pub col: usize,
}

impl ParseError {
    /// The `line:col` position of the error.
    pub fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col != 0 {
            write!(
                f,
                "parse error at line {}:{}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// How deeply `!`, parenthesized groups, `[| … |]` quotes and chained
/// arithmetic operators may nest, all counted together. Parsing
/// recurses once per level (an operator chain instead builds a tree one
/// level deeper per operator), and so do the later walks over the
/// result (printing, substitution, content hashing), so unbounded
/// nesting would let one small hostile wire frame overflow the
/// receiver's stack. 64 levels leave room for those walks on a 2 MiB
/// thread; deeper input is a [`ParseError`].
pub const MAX_NESTING: usize = 64;

/// Parses a full program (rules, facts, constraints).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    Parser::new(src)?.program()
}

/// Parses a single rule or fact (must consume all input).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let program = parse_program(src)?;
    if !program.constraints.is_empty() {
        return Err(ParseError {
            message: "expected a rule, found a constraint".into(),
            line: 0,
            col: 0,
        });
    }
    match <[Rule; 1]>::try_from(program.rules) {
        Ok([rule]) => Ok(rule),
        Err(rules) => Err(ParseError {
            message: format!("expected exactly one rule, found {}", rules.len()),
            line: 0,
            col: 0,
        }),
    }
}

/// Parses a single ground atom, e.g. `neighbor(a, b)`.
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let mut p = Parser::new(src)?;
    let atom = p.atom()?;
    p.expect_eof()?;
    Ok(atom)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    gensym: u32,
    quote_depth: usize,
    /// Current nesting of the recursive productions (see
    /// [`MAX_NESTING`]).
    nesting: usize,
    /// Body items hoisted from argument-position arithmetic, appended to
    /// the enclosing top-level statement.
    hoisted: Vec<BodyItem>,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        let toks = lex(src).map_err(|e| ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        })?;
        Ok(Parser {
            toks,
            pos: 0,
            gensym: 0,
            quote_depth: 0,
            nesting: 0,
            hoisted: Vec::new(),
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.toks.get(self.pos + 1).map(|s| &s.token)
    }

    /// The span of the token at the cursor (or the last token at EOF).
    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(Span::UNKNOWN, |s| s.span())
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{tok}', found {}",
                self.describe_current()
            )))
        }
    }

    fn describe_current(&self) -> String {
        match self.peek() {
            Some(t) => format!("'{t}'"),
            None => "end of input".into(),
        }
    }

    fn error(&self, message: String) -> ParseError {
        let span = self.span();
        ParseError {
            message,
            line: span.line,
            col: span.col,
        }
    }

    /// Descends one nesting level, refusing input nested past
    /// [`MAX_NESTING`] at the token that would exceed the bound.
    fn deepen(&mut self) -> Result<(), ParseError> {
        if self.nesting == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.nesting += 1;
        Ok(())
    }

    /// Runs one recursive production a nesting level deeper.
    fn nested<T>(
        &mut self,
        production: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deepen()?;
        let result = production(self);
        self.nesting -= 1;
        result
    }

    fn fresh_var(&mut self) -> Symbol {
        self.gensym += 1;
        Symbol::intern(&format!("_G{}", self.gensym))
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.error(format!("unexpected {}", self.describe_current())))
        }
    }

    // ---- program & statements -------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        while self.peek().is_some() {
            self.statement(&mut program)?;
        }
        Ok(program)
    }

    fn statement(&mut self, program: &mut Program) -> Result<(), ParseError> {
        debug_assert!(self.hoisted.is_empty());
        // The statement's source position: the first token of its head.
        // Rules split out of a disjunctive body all share this span.
        let span = self.span();
        // Parse the left side as a conjunction of body items: it serves as
        // rule heads (facts/rules) or constraint premise.
        let lhs = self.conjunction()?;
        match self.peek() {
            Some(Token::Dot) => {
                self.bump();
                let hoisted = std::mem::take(&mut self.hoisted);
                if !hoisted.is_empty() {
                    return Err(self.error("arithmetic not allowed in fact arguments".into()));
                }
                for item in lhs {
                    match item {
                        BodyItem::Lit {
                            negated: false,
                            atom,
                        } => program.push_rule(
                            Rule {
                                heads: vec![atom],
                                body: Vec::new(),
                                agg: None,
                            },
                            span,
                        ),
                        other => {
                            return Err(
                                self.error(format!("'{other}' cannot stand alone as a fact"))
                            )
                        }
                    }
                }
                Ok(())
            }
            Some(Token::ImpliedBy) => {
                self.bump();
                let heads = lhs
                    .into_iter()
                    .map(|item| match item {
                        BodyItem::Lit {
                            negated: false,
                            atom,
                        } => Ok(atom),
                        other => Err(self.error(format!("invalid rule head '{other}'"))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let agg = self.maybe_agg_spec()?;
                let formula = self.formula()?;
                self.expect(&Token::Dot)?;
                let hoisted = std::mem::take(&mut self.hoisted);
                let disjuncts = to_dnf(&formula).map_err(|e| self.error(e.to_string()))?;
                if agg.is_some() && disjuncts.len() > 1 {
                    return Err(
                        self.error("disjunction is not supported in aggregate rules".into())
                    );
                }
                for mut body in disjuncts {
                    body.extend(hoisted.iter().cloned());
                    program.push_rule(
                        Rule {
                            heads: heads.clone(),
                            body,
                            agg: agg.clone(),
                        },
                        span,
                    );
                }
                Ok(())
            }
            Some(Token::Implies) => {
                self.bump();
                let requires = if self.peek() == Some(&Token::Dot) {
                    Formula::truth()
                } else {
                    self.formula()?
                };
                self.expect(&Token::Dot)?;
                let mut body = lhs;
                body.extend(std::mem::take(&mut self.hoisted));
                program.push_constraint(Constraint { body, requires }, span);
                Ok(())
            }
            _ => Err(self.error(format!(
                "expected '.', '<-' or '->', found {}",
                self.describe_current()
            ))),
        }
    }

    fn maybe_agg_spec(&mut self) -> Result<Option<AggSpec>, ParseError> {
        if self.peek() == Some(&Token::Ident("agg".into())) && self.peek2() == Some(&Token::LAngles)
        {
            self.bump();
            self.bump();
            let result = match self.bump() {
                Some(Token::UIdent(name)) => Symbol::intern(&name),
                _ => return Err(self.error("expected aggregate result variable".into())),
            };
            self.expect(&Token::Eq)?;
            let func = match self.bump() {
                Some(Token::Ident(name)) => match name.as_str() {
                    "count" => AggFunc::Count,
                    "total" => AggFunc::Total,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    other => {
                        return Err(self.error(format!("unknown aggregation function '{other}'")))
                    }
                },
                _ => return Err(self.error("expected aggregation function".into())),
            };
            self.expect(&Token::LParen)?;
            let over = match self.bump() {
                Some(Token::UIdent(name)) => Symbol::intern(&name),
                _ => return Err(self.error("expected aggregated variable".into())),
            };
            self.expect(&Token::RParen)?;
            self.expect(&Token::RAngles)?;
            Ok(Some(AggSpec { result, func, over }))
        } else {
            Ok(None)
        }
    }

    // ---- formulas ---------------------------------------------------------

    fn formula(&mut self) -> Result<Formula, ParseError> {
        // Singleton conjunctions stay unwrapped so `p(X) -> q(X).` prints
        // back without spurious grouping.
        fn conj(mut parts: Vec<Formula>) -> Formula {
            if parts.len() == 1 {
                parts.pop().expect("one element")
            } else {
                Formula::And(parts)
            }
        }
        let mut parts = vec![conj(self.conjunction_formulas()?)];
        while self.eat(&Token::Semi) {
            parts.push(conj(self.conjunction_formulas()?));
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one element")
        } else {
            Formula::Or(parts)
        })
    }

    fn conjunction_formulas(&mut self) -> Result<Vec<Formula>, ParseError> {
        let mut out = vec![self.unary_formula()?];
        while self.peek() == Some(&Token::Comma) {
            // A comma only continues the conjunction if another body item
            // follows (trailing commas before '.' are rejected by unary).
            self.bump();
            out.push(self.unary_formula()?);
        }
        Ok(out)
    }

    /// A conjunction parsed directly into body items (used for statement
    /// left sides, where `;` is not allowed).
    fn conjunction(&mut self) -> Result<Vec<BodyItem>, ParseError> {
        let formulas = self.conjunction_formulas()?;
        let mut out = Vec::with_capacity(formulas.len());
        for f in formulas {
            match f {
                Formula::Item(item) => out.push(item),
                Formula::Not(inner) => match *inner {
                    Formula::Item(BodyItem::Lit { negated, atom }) => out.push(BodyItem::Lit {
                        negated: !negated,
                        atom,
                    }),
                    other => {
                        return Err(self.error(format!("unsupported negation '!{other}' here")))
                    }
                },
                other => return Err(self.error(format!("'{other}' not allowed here"))),
            }
        }
        Ok(out)
    }

    fn unary_formula(&mut self) -> Result<Formula, ParseError> {
        if self.peek() == Some(&Token::Bang) {
            return self.nested(|p| {
                p.bump();
                Ok(Formula::Not(Box::new(p.unary_formula()?)))
            });
        }
        if self.peek() == Some(&Token::LParen) && self.starts_formula_group() {
            return self.nested(|p| {
                p.bump();
                let inner = p.formula()?;
                p.expect(&Token::RParen)?;
                Ok(inner)
            });
        }
        Ok(Formula::Item(self.body_item()?))
    }

    /// Distinguishes `(p(X); q(X))` formula grouping from a parenthesized
    /// arithmetic operand like `(N + 1) > M`: scan ahead for a comparison
    /// operator after the matching close paren.
    fn starts_formula_group(&self) -> bool {
        let mut depth = 0usize;
        let mut i = self.pos;
        while let Some(spanned) = self.toks.get(i) {
            match spanned.token {
                Token::LParen => depth += 1,
                Token::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return !matches!(
                            self.toks.get(i + 1).map(|s| &s.token),
                            Some(
                                Token::Eq
                                    | Token::Ne
                                    | Token::Lt
                                    | Token::Le
                                    | Token::Gt
                                    | Token::Ge
                                    | Token::Plus
                                    | Token::Minus
                                    | Token::Star
                                    | Token::Slash
                                    | Token::Percent
                            )
                        );
                    }
                }
                _ => {}
            }
            i += 1;
        }
        true
    }

    // ---- body items -------------------------------------------------------

    fn body_item(&mut self) -> Result<BodyItem, ParseError> {
        // Rest meta-variable: `A*` followed by a body-terminating token.
        if self.quote_depth > 0 {
            if let (Some(Token::UIdent(name)), Some(Token::Star)) = (self.peek(), self.peek2()) {
                let after = self.toks.get(self.pos + 2).map(|s| &s.token);
                if matches!(
                    after,
                    Some(Token::Comma | Token::Dot | Token::RQuote) | None
                ) {
                    let sym = Symbol::intern(name);
                    self.bump();
                    self.bump();
                    return Ok(BodyItem::Rest(sym));
                }
            }
        }
        // Atom if an identifier is followed by '(' or '[', or is a bare
        // 0-ary predicate / whole-atom meta-variable not followed by an
        // operator.
        let is_atom_start = match (self.peek(), self.peek2()) {
            (Some(Token::Ident(_)), Some(Token::LParen | Token::LBracket | Token::LQuote)) => true,
            (Some(Token::Ident(_)), next) => !matches!(
                next,
                Some(
                    Token::Eq
                        | Token::Ne
                        | Token::Lt
                        | Token::Le
                        | Token::Gt
                        | Token::Ge
                        | Token::Plus
                        | Token::Minus
                        | Token::Star
                        | Token::Slash
                        | Token::Percent
                )
            ),
            (Some(Token::UIdent(_)), Some(Token::LParen | Token::LBracket)) => self.quote_depth > 0,
            (Some(Token::UIdent(_)), next) => {
                // Bare whole-atom meta-variable inside quotes (may also
                // head a quoted rule, hence `<-`).
                self.quote_depth > 0
                    && matches!(
                        next,
                        Some(Token::Comma | Token::Dot | Token::RQuote | Token::ImpliedBy) | None
                    )
            }
            _ => false,
        };
        if is_atom_start {
            let atom = self.atom()?;
            return Ok(BodyItem::pos(atom));
        }
        // Otherwise: comparison between expressions.
        let lhs = self.expr()?;
        let op = match self.bump() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => {
                return Err(self.error(format!(
                    "expected comparison operator, found {}",
                    other.map_or("end of input".to_string(), |t| format!("'{t}'"))
                )))
            }
        };
        let rhs = self.expr()?;
        Ok(BodyItem::Cmp { op, lhs, rhs })
    }

    // ---- atoms ------------------------------------------------------------

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let pred = match self.bump() {
            Some(Token::Ident(name)) => PredRef::Name(Symbol::intern(&name)),
            Some(Token::UIdent(name)) if self.quote_depth > 0 => {
                let sym = Symbol::intern(&name);
                // Bare meta-variable: matches/generates a whole atom.
                if !matches!(self.peek(), Some(Token::LParen | Token::LBracket)) {
                    return Ok(Atom {
                        pred: PredRef::Var(sym),
                        key_args: Vec::new(),
                        args: Vec::new(),
                    });
                }
                PredRef::Var(sym)
            }
            other => {
                return Err(self.error(format!(
                    "expected predicate name, found {}",
                    other.map_or("end of input".to_string(), |t| format!("'{t}'"))
                )))
            }
        };
        let mut key_args = Vec::new();
        if self.eat(&Token::LBracket) {
            loop {
                key_args.push(self.arg_term()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RBracket)?;
        }
        let mut args = Vec::new();
        if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
            loop {
                args.push(self.arg_term()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        Ok(Atom {
            pred,
            key_args,
            args,
        })
    }

    /// Parses one argument position: a term, or an arithmetic expression
    /// which is hoisted into a fresh variable.
    fn arg_term(&mut self) -> Result<Term, ParseError> {
        let expr = self.expr()?;
        Ok(match expr {
            Expr::Term(t) => t,
            computed => {
                let var = self.fresh_var();
                self.hoisted.push(BodyItem::Cmp {
                    op: CmpOp::Eq,
                    lhs: Expr::Term(Term::Var(var)),
                    rhs: computed,
                });
                Term::Var(var)
            }
        })
    }

    // ---- expressions --------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        // Each chained operator nests the (left-leaning) tree one level
        // deeper; errors abandon the parse, so only success restores.
        let outer = self.nesting;
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.deepen()?;
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        self.nesting = outer;
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.nesting;
        let mut lhs = self.operand()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => {
                    // `X*` as a sequence variable is handled in operand();
                    // reaching here with Star means multiplication.
                    ArithOp::Mul
                }
                Some(Token::Slash) => ArithOp::Div,
                Some(Token::Percent) => ArithOp::Mod,
                _ => break,
            };
            self.deepen()?;
            self.bump();
            let rhs = self.operand()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        self.nesting = outer;
        Ok(lhs)
    }

    fn operand(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::LParen) => self.nested(|p| {
                p.bump();
                let inner = p.expr()?;
                p.expect(&Token::RParen)?;
                Ok(inner)
            }),
            Some(Token::Minus) => {
                self.bump();
                match self.bump() {
                    Some(Token::Int(v)) => Ok(Expr::Term(Term::Val(Value::Int(-v)))),
                    _ => Err(self.error("expected integer after unary '-'".into())),
                }
            }
            Some(Token::UIdent(name)) => {
                self.bump();
                let sym = Symbol::intern(&name);
                // Sequence meta-variable `T*`: only inside quotes, and only
                // when the star is followed by an argument separator (so
                // `N*2` still parses as multiplication).
                if self.quote_depth > 0
                    && self.peek() == Some(&Token::Star)
                    && matches!(
                        self.peek2(),
                        Some(Token::Comma | Token::RParen | Token::RBracket) | None
                    )
                {
                    self.bump();
                    return Ok(Expr::Term(Term::SeqVar(sym)));
                }
                Ok(Expr::Term(Term::Var(sym)))
            }
            Some(Token::Underscore) => {
                self.bump();
                Ok(Expr::Term(Term::Var(self.fresh_var())))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                Ok(Expr::Term(Term::Val(Value::sym(&name))))
            }
            Some(Token::Int(v)) => {
                self.bump();
                Ok(Expr::Term(Term::Val(Value::Int(v))))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Expr::Term(Term::Val(Value::str(&s))))
            }
            Some(Token::Bytes(b)) => {
                self.bump();
                Ok(Expr::Term(Term::Val(Value::bytes(&b))))
            }
            Some(Token::LQuote) => {
                let rule = self.quote()?;
                Ok(Expr::Term(Term::Quote(Arc::new(rule))))
            }
            other => Err(self.error(format!(
                "expected a term, found {}",
                other.map_or("end of input".to_string(), |t| format!("'{t}'"))
            ))),
        }
    }

    // ---- quoted code --------------------------------------------------------

    /// Parses `[| heads ('<-' body)? '.'? |]` into a rule. The trailing
    /// dot is optional, matching the paper's usage for quoted facts.
    fn quote(&mut self) -> Result<Rule, ParseError> {
        self.nested(|p| {
            p.expect(&Token::LQuote)?;
            p.quote_depth += 1;
            let result = p.quote_body();
            p.quote_depth -= 1;
            result
        })
    }

    fn quote_body(&mut self) -> Result<Rule, ParseError> {
        let lhs = self.conjunction()?;
        let heads = lhs
            .into_iter()
            .map(|item| match item {
                BodyItem::Lit {
                    negated: false,
                    atom,
                } => Ok(atom),
                other => Err(self.error(format!("invalid quoted rule head '{other}'"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut body = Vec::new();
        if self.eat(&Token::ImpliedBy) {
            let formula = self.formula()?;
            let mut disjuncts = to_dnf(&formula).map_err(|e| self.error(e.to_string()))?;
            if disjuncts.len() != 1 {
                return Err(self.error("disjunction not supported inside quoted code".into()));
            }
            body = disjuncts.pop().expect("one disjunct");
        }
        self.eat(&Token::Dot);
        self.expect(&Token::RQuote)?;
        Ok(Rule {
            heads,
            body,
            agg: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse_program(src)
            .unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"))
            .to_string()
            .trim()
            .to_string()
    }

    #[test]
    fn parse_fact() {
        assert_eq!(roundtrip("good(alice)."), "good(alice).");
    }

    #[test]
    fn parse_binder_rules() {
        // The paper's b1/b2 (§2.2), modulo `says` being a plain predicate.
        assert_eq!(
            roundtrip("access(P,O,read) <- good(P)."),
            "access(P,O,read) <- good(P)."
        );
    }

    #[test]
    fn parse_negation() {
        assert_eq!(
            roundtrip("safe(P) <- principal(P), !banned(P)."),
            "safe(P) <- principal(P), !banned(P)."
        );
    }

    #[test]
    fn disjunction_splits_rules() {
        let p = parse_program("p(X) <- q(X); r(X).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].to_string(), "p(X) <- q(X).");
        assert_eq!(p.rules[1].to_string(), "p(X) <- r(X).");
    }

    #[test]
    fn nested_formula() {
        let p = parse_program("p(X) <- q(X), (r(X); s(X)).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].to_string(), "p(X) <- q(X), r(X).");
        assert_eq!(p.rules[1].to_string(), "p(X) <- q(X), s(X).");
    }

    #[test]
    fn negated_conjunction_de_morgan() {
        let p = parse_program("p(X) <- q(X), !(r(X), s(X)).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].to_string(), "p(X) <- q(X), !r(X).");
        assert_eq!(p.rules[1].to_string(), "p(X) <- q(X), !s(X).");
    }

    #[test]
    fn parse_constraint() {
        assert_eq!(
            roundtrip("access(P,O,M) -> principal(P), object(O), mode(M)."),
            "access(P,O,M) -> (principal(P), object(O), mode(M))."
        );
    }

    #[test]
    fn parse_declaration() {
        let p = parse_program("rule(R) ->.").unwrap();
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(p.constraints[0].requires, Formula::truth());
    }

    #[test]
    fn parse_fig1_meta_model() {
        // The whole meta-model of Figure 1 parses.
        let src = r#"
            rule(R) ->.
            head(R,A) -> rule(R), atom(A).
            body(R,A) -> rule(R), atom(A).
            atom(A) -> .
            functor(A,P) -> atom(A), predicate(P).
            arg(A,I,T) -> atom(A), int(I), term(T).
            negated(A) -> atom(A).
            term(T) -> .
            variable(X) -> term(X).
            vname(X,N) -> variable(X), string(N).
            constant(C) -> term(C).
            value(C,V) -> constant(C), string(V).
            predicate(P) -> .
            pname(P,N) -> predicate(P), string(N).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.constraints.len(), 14);
    }

    #[test]
    fn parse_keyed_atom() {
        assert_eq!(
            roundtrip("export[U2](me,R,S) <- says(me,U2,R)."),
            "export[U2](me,R,S) <- says(me,U2,R)."
        );
    }

    #[test]
    fn parse_quote_fact() {
        // bex1' from §5.1.
        let r = parse_rule(
            "access(P,O,read) <- says(bob,me,[|access(P,O,read)|]), pubkey(bob,rsa:3:c1ebab5d).",
        )
        .unwrap();
        assert_eq!(
            r.to_string(),
            "access(P,O,read) <- says(bob,me,[| access(P,O,read). |]), pubkey(bob,rsa:3:c1ebab5d)."
        );
    }

    #[test]
    fn parse_pattern_quote() {
        // The owner meta-constraint pattern (§3.3).
        let p = parse_program("owner(U, [| A <- P(T2*), A*. |]) -> access(U,P,read).").unwrap();
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(
            p.constraints[0].to_string(),
            "owner(U,[| A <- P(T2*), A*. |]) -> access(U,P,read)."
        );
    }

    #[test]
    fn parse_nested_quote() {
        // del1 from §4.2 — a quote inside a quote.
        let r = parse_rule(
            "active([| active(R) <- says(U2,me,R), R = [| P(T*) <- A*. |]. |]) <- delegates(me,U2,p).",
        )
        .unwrap();
        assert!(r.to_string().contains("[| P(T*) <- A*. |]"));
    }

    #[test]
    fn parse_agg_rule() {
        // wd2 from §4.2.2.
        let r = parse_rule(
            "creditOKCount(C,N) <- agg<<N = count(U)>> pringroup(U,creditBureau), says(U,me,[| creditOK(C). |]).",
        )
        .unwrap();
        let agg = r.agg.as_ref().unwrap();
        assert_eq!(agg.func, AggFunc::Count);
        assert_eq!(agg.result.as_str(), "N");
        assert_eq!(agg.over.as_str(), "U");
    }

    #[test]
    fn arith_in_args_hoisted() {
        // dd3's N-1 inside a quoted template (§4.2.1).
        let r = parse_rule(
            "says(me,U,[| inferredDelDepth(me,U,P,N-1). |]) <- inferredDelDepth(me,U,P,N), delegates(me,U,P), N>0.",
        )
        .unwrap();
        // The hoisted binding lands at the end of the body.
        let last = r.body.last().unwrap().to_string();
        assert!(last.contains("= (N - 1)"), "hoisted item: {last}");
        // And the quote's argument is now a plain variable.
        assert!(!r.heads[0].to_string().contains('-'), "{}", r.heads[0]);
    }

    #[test]
    fn comparisons_parse() {
        let r = parse_rule("creditOK(C) <- creditOKCount(C,N), N >= 3.").unwrap();
        assert_eq!(r.to_string(), "creditOK(C) <- creditOKCount(C,N), N >= 3.");
    }

    #[test]
    fn underscore_becomes_fresh_var() {
        let r = parse_rule("p(X) <- q(X,_), r(_,X).").unwrap();
        let text = r.to_string();
        assert!(text.contains("_G1") && text.contains("_G2"), "{text}");
        let r2 = parse_rule("inferredDelDepth(_,me,P,0) -> !delegates(me,_,P).").err();
        assert!(r2.is_some()); // it's a constraint, not a rule
    }

    #[test]
    fn parse_dd4_constraint() {
        let p = parse_program("inferredDelDepth(_,me,P,0) -> !delegates(me,_,P).").unwrap();
        assert_eq!(p.constraints.len(), 1);
    }

    #[test]
    fn parse_multi_head_quote() {
        // dfs2's response template has a two-atom head.
        let src = "says(me,U,[| response(R), message:fname(R,S) <- A*. |]), fileName(F,S), fileowner(F,O) -> says(O,me,[| permission(O,U,F,read) |]).";
        let p = parse_program(src).unwrap();
        assert_eq!(p.constraints.len(), 1);
    }

    #[test]
    fn parse_arith_expression_precedence() {
        let r = parse_rule("p(X) <- q(N), X = N * 2 + 1.").unwrap();
        assert!(r.to_string().contains("X = ((N * 2) + 1)"), "{r}");
        let r = parse_rule("p(X) <- q(N), X = N + 2 * 3.").unwrap();
        assert!(r.to_string().contains("X = (N + (2 * 3))"), "{r}");
    }

    #[test]
    fn parse_zero_arity() {
        let r = parse_rule("fail() <- access(P,O,M), !principal(P).").unwrap();
        assert_eq!(r.to_string(), "fail() <- access(P,O,M), !principal(P).");
        // Bare 0-ary atoms also work.
        let r = parse_rule("shutdown <- overload.").unwrap();
        assert_eq!(r.to_string(), "shutdown() <- overload().");
    }

    #[test]
    fn error_positions() {
        let err = parse_program("p(X) <- q(X)\nr(Y).").unwrap_err();
        assert_eq!(err.line, 2); // missing dot noticed at line 2
        assert!(parse_program("p(X) <- .").is_err());
        assert!(parse_program("p(X) <- q(X),.").is_err());
    }

    #[test]
    fn statement_spans_recorded() {
        let p = parse_program("good(alice).\n  p(X) <- q(X); r(X).\nq(X) -> p(X).").unwrap();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rule_span(0), Span::new(1, 1));
        // Both disjunct-split rules share the statement's span.
        assert_eq!(p.rule_span(1), Span::new(2, 3));
        assert_eq!(p.rule_span(2), Span::new(2, 3));
        assert_eq!(p.constraint_span(0), Span::new(3, 1));
        // Out-of-range indices report an unknown span rather than panic.
        assert!(!p.rule_span(99).is_known());
    }

    #[test]
    fn parse_error_has_col() {
        let err = parse_program("p(X) <- q(X)\n   r(Y).").unwrap_err();
        assert_eq!((err.line, err.col), (2, 4));
        assert!(err.to_string().contains("2:4"));
    }

    #[test]
    fn parse_says_pull_rules() {
        // pull0/pull1 from §5.1.
        let src = r#"
            says(me,X,[|request(R).|]) <- active([| A <- says(X,me,R), A*. |]), X != me.
            says(me,X,R) <- says(X,me,[|request(R).|]).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    /// Runs `f` on a thread with a worker pool's 2 MiB stack.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    /// One rule per recursive production, nested `depth` levels deep:
    /// negation, formula grouping, and quotation.
    fn nested_inputs(depth: usize) -> [String; 3] {
        [
            format!("p() <- {}q().", "!".repeat(depth)),
            format!("p() <- {}q(){}.", "(".repeat(depth), ")".repeat(depth)),
            format!("{}q(x){}.", "q([| ".repeat(depth), " |])".repeat(depth)),
        ]
    }

    /// A comparison against a chain of `ops` additions, whose tree is
    /// `ops` levels deep.
    fn operator_chain(ops: usize) -> String {
        format!("p(X) <- q(X), X = {}1.", "1 + ".repeat(ops))
    }

    #[test]
    fn nesting_at_the_bound_parses_and_round_trips() {
        on_small_stack(|| {
            for src in nested_inputs(MAX_NESTING) {
                let rule = parse_rule(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
                let printed = rule.to_string();
                let again = parse_rule(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
                assert_eq!(again.to_string(), printed);
            }
            // The printer parenthesizes every operator, so an operator
            // chain round-trips one level below the bound.
            assert!(parse_rule(&operator_chain(MAX_NESTING)).is_ok());
            let rule = parse_rule(&operator_chain(MAX_NESTING - 1)).unwrap();
            assert_eq!(parse_rule(&rule.to_string()).unwrap(), rule);
        });
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error() {
        on_small_stack(|| {
            for depth in [MAX_NESTING + 1, 100_000] {
                let [bangs, parens, quotes] = nested_inputs(depth);
                for src in [bangs, parens, quotes, operator_chain(depth)] {
                    let err = parse_rule(&src).expect_err("nested past the bound");
                    assert!(err.message.contains("nesting"), "{err}");
                }
            }
        });
        // The error points at the first `!` past the bound.
        let err = parse_rule(&nested_inputs(MAX_NESTING + 1)[0]).unwrap_err();
        assert_eq!((err.line, err.col), (1, "p() <- ".len() + MAX_NESTING + 1));
    }
}
