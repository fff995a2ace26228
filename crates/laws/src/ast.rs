//! Abstract syntax of LAWS specifications.
//!
//! The AST mirrors the surface grammar one-to-one; field and variant
//! names follow the grammar, so per-field docs are suppressed.
#![allow(missing_docs)]

use crew_lint::Span;

/// A complete parsed specification.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Spec {
    pub workflows: Vec<WorkflowDecl>,
    pub coordination: Vec<CoordItem>,
}

/// `workflow Name (id N) { ... }`
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowDecl {
    pub name: String,
    pub id: u32,
    pub inputs: u16,
    pub steps: Vec<StepDecl>,
    pub items: Vec<FlowItem>,
    pub pos: Span,
}

/// `step Name { ... }`
#[derive(Debug, Clone, PartialEq)]
pub struct StepDecl {
    pub name: String,
    /// `program "name";` — exclusive with `calls workflow`.
    pub program: Option<String>,
    /// `calls workflow Child;` — a nested workflow step.
    pub nested: Option<String>,
    /// `compensate "name" [partial];`
    pub compensate: Option<(String, bool)>,
    /// `kind query|update;` (default update)
    pub query: bool,
    /// `reads <itemref>, ...;`
    pub reads: Vec<ItemRef>,
    /// `outputs N;` (default 1)
    pub outputs: u16,
    /// `cost N;` (default 100)
    pub cost: u64,
    /// `agents N, ...;` eligible agent indices.
    pub agents: Vec<u32>,
    /// `reexecute always|never|when inputs_changed|when <expr>;`
    pub reexec: Option<ReexecDecl>,
    /// `policy { retry(N); }`
    pub policy: Option<PolicyDecl>,
    pub pos: Span,
}

/// `policy { ... }` inside a step body.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecl {
    /// `retry(N);`
    pub retry: Option<u32>,
}

/// The re-execution policy surface.
#[derive(Debug, Clone, PartialEq)]
pub enum ReexecDecl {
    Always,
    Never,
    InputsChanged,
    When(ExprAst),
}

/// A data item reference: `WF.I1` or `StepName.O2`.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemRef {
    /// `"WF"` or a step name.
    pub scope: String,
    /// `I<n>` or `O<n>`.
    pub slot: String,
    pub pos: Span,
}

/// Flow/recovery declarations inside a workflow body.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowItem {
    /// `flow A -> B;`
    Seq { from: String, to: String, pos: Span },
    /// `parallel A -> { B, C } -> D;`
    Parallel {
        from: String,
        branches: Vec<String>,
        join: String,
        pos: Span,
    },
    /// `choice A -> { B when e, C otherwise } -> D;`
    Choice {
        from: String,
        branches: Vec<(String, Option<ExprAst>)>,
        join: String,
        pos: Span,
    },
    /// `loop A while e;` (self-loop) or `loop A -> B while e;` (back-edge
    /// from A to upstream B).
    Loop {
        from: String,
        to: String,
        while_: ExprAst,
        pos: Span,
    },
    /// `compensation set { A, B };`
    CompSet { members: Vec<String>, pos: Span },
    /// `on failure of A rollback to B [retry N];`
    OnFailure {
        failing: String,
        origin: String,
        retries: Option<u32>,
        pos: Span,
    },
}

/// Coordination-block declarations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordItem {
    /// `mutex "res" { WF.Step, WF2.Step };`
    Mutex {
        resource: String,
        members: Vec<QualRef>,
        pos: Span,
    },
    /// `order "conflict" (A.X before B.Y), (A.X2 before B.Y2);`
    Order {
        conflict: String,
        pairs: Vec<(QualRef, QualRef)>,
        pos: Span,
    },
    /// `rollback A.X forces B to Y;`
    Rollback {
        source: QualRef,
        dependent: String,
        origin: String,
        pos: Span,
    },
}

/// `WorkflowName.StepName`
#[derive(Debug, Clone, PartialEq)]
pub struct QualRef {
    pub workflow: String,
    pub step: String,
    pub pos: Span,
}

/// Expression AST (compiled to `crew_model::Expr`).
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Item(ItemRef),
    Defined(ItemRef),
    Cmp(CmpOpAst, Box<ExprAst>, Box<ExprAst>),
    Arith(ArithOpAst, Box<ExprAst>, Box<ExprAst>),
    And(Box<ExprAst>, Box<ExprAst>),
    Or(Box<ExprAst>, Box<ExprAst>),
    Not(Box<ExprAst>),
    Neg(Box<ExprAst>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOpAst {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOpAst {
    Add,
    Sub,
    Mul,
    Div,
}
