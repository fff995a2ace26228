//! # crew-lint
//!
//! A static verifier for workflow specifications. The paper's whole
//! failure-handling story assumes the schema's recovery declarations are
//! *coherent* — every rollback path has compensations to run (§3,
//! Figure 3) and the coordination requirements of §3 \[KR98\] (mutual
//! exclusion, relative order, rollback dependency) do not wedge
//! concurrent instances — but structural validation
//! (`SchemaBuilder::build`) only checks graph shape. An incoherent spec
//! today surfaces as a runtime `Stalled` after the simulation horizon
//! expires; this crate turns those wedges into compile-time diagnostics.
//!
//! Every [`LintId`] is a runtime prediction: `lint_predicts_runtime`
//! (`tests/tests/lint.rs`) runs one flagged spec per id under the named
//! architectures and shows the predicted harm — a stall, an effect never
//! undone or applied twice, a relative order broken — beside a lint-clean
//! control that does not show it. A check no run could confirm was
//! deleted rather than kept as advice.
//!
//! Four passes run over a compiled spec (schemas + [`CoordinationSpec`]):
//!
//! 1. **Compensation soundness** ([`passes::compensation`]) — steps a
//!    declared rollback can abandon or blindly redo must be compensatable
//!    (compensate program, compensation-set membership, or query kind).
//! 2. **Cross-workflow deadlock** ([`passes::coordination`]) — the static
//!    wait-for graph induced by mutex members and relative-order pairs
//!    against each schema's own topological order must be acyclic for
//!    every reachable leadership assignment.
//! 3. **Loop termination** ([`passes::template`]) — a loop-continue
//!    condition must not fold to a constant `true`.
//! 4. **Data hazards** ([`passes::data`]) — an XOR split must keep a
//!    viable branch under constant folding over
//!    [`Expr`](crew_model::Expr), and reads must not cross XOR branches.
//!
//! Diagnostics carry a [`LintId`], a severity, and (when the spec came
//! from LAWS source) a [`Span`] threaded through from the parser via a
//! [`SpanTable`]. `crew-laws` exposes `parse_and_compile_strict`, which
//! fails compilation on Error-level findings, and the `crew-lint` CLI
//! (in `crew-lint-cli`) lints `.laws` files and the built-in corpus.

#![warn(missing_docs)]

pub mod fold;
pub mod passes;

use crew_model::{CoordinationSpec, SchemaId, StepId, WorkflowSchema};
use std::collections::BTreeMap;
use std::fmt;

/// A source position (`line:col`) in the LAWS text a diagnostic points
/// at, and the position the LAWS lexer, parser and compiler report.
/// Defined here so the analyzer does not depend on the language crate (the
/// language crate depends on the analyzer for its strict mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Which coordination requirement kind a span or diagnostic refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoordKind {
    /// A `MutualExclusion` requirement.
    Mutex,
    /// A `RelativeOrder` requirement.
    Order,
}

/// Source spans for compiled entities, recorded by the LAWS compiler and
/// consumed by [`lint_with_spans`] to place diagnostics in the source.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    workflows: BTreeMap<SchemaId, Span>,
    steps: BTreeMap<(SchemaId, StepId), Span>,
    coord: BTreeMap<(CoordKind, u32), Span>,
}

impl SpanTable {
    /// Record the declaration span of a workflow.
    pub fn record_workflow(&mut self, schema: SchemaId, span: Span) {
        self.workflows.insert(schema, span);
    }

    /// Record the declaration span of a step.
    pub fn record_step(&mut self, schema: SchemaId, step: StepId, span: Span) {
        self.steps.insert((schema, step), span);
    }

    /// Record the span of a coordination requirement.
    pub fn record_coord(&mut self, kind: CoordKind, id: u32, span: Span) {
        self.coord.insert((kind, id), span);
    }

    /// The best span for a diagnostic: its step, else its coordination
    /// requirement, else its workflow.
    pub fn resolve(&self, d: &Diagnostic) -> Option<Span> {
        if let (Some(schema), Some(step)) = (d.schema, d.step) {
            if let Some(s) = self.steps.get(&(schema, step)) {
                return Some(*s);
            }
        }
        if let Some(c) = d.coord {
            if let Some(s) = self.coord.get(&c) {
                return Some(*s);
            }
        }
        d.schema.and_then(|w| self.workflows.get(&w).copied())
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably wedging: surfaced, never fatal.
    Warn,
    /// The spec can lose effects, stall, or deadlock at run time. Strict
    /// compilation and the CLI fail on these.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifiers for every check the analyzer performs, one per
/// distinct hazard a run can show. The kebab-case rendering (`Display`) is
/// the code the CLI prints and tests assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    // Pass 1: compensation soundness.
    /// An update step a rollback's branch switch can abandon has no
    /// compensate program and no compensation-set membership: its effect
    /// is never undone.
    RollbackStepNotCompensatable,
    /// An update step in a rollback region re-executes unconditionally
    /// (`Always`/`When`) with no way to undo its previous effects: the
    /// effect is applied twice.
    RollbackBlindReexecution,
    /// A compensation-set member is an update step without a compensate
    /// program, so the set's atomic undo is impossible.
    CompensationSetMemberNotCompensatable,

    // Pass 2: cross-workflow deadlock.
    /// A step belongs to two or more mutexes: acquisition is concurrent
    /// with partial holds, so linked instances can deadlock on opposite
    /// grant orders.
    MutexHoldAndWait,
    /// On both sides of a relative order a later pair's step precedes the
    /// first pair's: each linked instance blocks there waiting for a
    /// leadership decision only a first-pair step can make.
    RelativeOrderPairsInverted,
    /// A relative order mixes schemas within one side: leadership is per
    /// instance, so the run-times cannot honour the declared order.
    RelativeOrderSchemaMixed,
    /// The static wait-for graph has a cycle under a reachable leadership
    /// assignment: linked instances can wedge.
    CoordinationDeadlock,

    // Pass 3: loop termination.
    /// A loop-continue condition folds to constant `true`: the loop never
    /// exits.
    LoopNeverExits,

    // Pass 4: data hazards.
    /// Every XOR arc condition folds to constant `false` and there is no
    /// `otherwise` arc: the instance stalls at the split.
    XorNoViableBranch,
    /// A step reads an output produced on a different branch of the same
    /// XOR split: when its own branch runs, the producer never does, and
    /// the reader's rule waits forever.
    XorCrossBranchRead,
}

impl LintId {
    /// The default severity of this check.
    pub fn severity(self) -> Severity {
        match self {
            LintId::RollbackBlindReexecution => Severity::Warn,
            _ => Severity::Error,
        }
    }

    /// The stable kebab-case code for this check.
    pub fn code(self) -> &'static str {
        use LintId::*;
        match self {
            RollbackStepNotCompensatable => "rollback-step-not-compensatable",
            RollbackBlindReexecution => "rollback-blind-reexecution",
            CompensationSetMemberNotCompensatable => "compensation-set-member-not-compensatable",
            MutexHoldAndWait => "mutex-hold-and-wait",
            RelativeOrderPairsInverted => "relative-order-pairs-inverted",
            RelativeOrderSchemaMixed => "relative-order-schema-mixed",
            CoordinationDeadlock => "coordination-deadlock",
            LoopNeverExits => "loop-never-exits",
            XorNoViableBranch => "xor-no-viable-branch",
            XorCrossBranchRead => "xor-cross-branch-read",
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: what ([`LintId`]), how bad ([`Severity`]), where (schema /
/// step / coordination requirement, plus a [`Span`] when the spec came
/// from LAWS source), and a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub id: LintId,
    /// Error or Warn (the check's default severity).
    pub severity: Severity,
    /// The schema the finding is about, when step-localized.
    pub schema: Option<SchemaId>,
    /// The step the finding anchors to.
    pub step: Option<StepId>,
    /// The coordination requirement the finding is about.
    pub coord: Option<(CoordKind, u32)>,
    /// LAWS source position, when a [`SpanTable`] was provided.
    pub span: Option<Span>,
    /// Human-readable description with names and ids spelled out.
    pub message: String,
}

impl Diagnostic {
    fn new(id: LintId, message: String) -> Self {
        Diagnostic {
            id,
            severity: id.severity(),
            schema: None,
            step: None,
            coord: None,
            span: None,
            message,
        }
    }

    fn at_step(mut self, schema: SchemaId, step: StepId) -> Self {
        self.schema = Some(schema);
        self.step = Some(step);
        self
    }

    fn at_coord(mut self, kind: CoordKind, id: u32) -> Self {
        self.coord = Some((kind, id));
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.id)?;
        if let Some(span) = self.span {
            write!(f, " at {span}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Run all four passes over `schemas` + `coordination`.
///
/// Diagnostics come back sorted errors-first, then by schema/step, so the
/// first entry is always the most severe finding.
pub fn lint(schemas: &[WorkflowSchema], coordination: &CoordinationSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for schema in schemas {
        passes::compensation::run(schema, &mut out);
        passes::template::run(schema, &mut out);
        passes::data::run(schema, &mut out);
    }
    passes::coordination::run(schemas, coordination, &mut out);
    sort(&mut out);
    out
}

/// [`lint`] plus span resolution through `spans` (typically the table the
/// LAWS compiler recorded).
pub fn lint_with_spans(
    schemas: &[WorkflowSchema],
    coordination: &CoordinationSpec,
    spans: &SpanTable,
) -> Vec<Diagnostic> {
    let mut out = lint(schemas, coordination);
    for d in &mut out {
        d.span = spans.resolve(d);
    }
    out
}

/// Lint a single schema with no coordination requirements.
pub fn lint_schema(schema: &WorkflowSchema) -> Vec<Diagnostic> {
    lint(std::slice::from_ref(schema), &CoordinationSpec::default())
}

/// The diagnostics of Error severity.
pub fn errors(diags: &[Diagnostic]) -> impl Iterator<Item = &Diagnostic> {
    diags.iter().filter(|d| d.severity == Severity::Error)
}

/// True when no Error-level diagnostic is present (Warns allowed).
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    errors(diags).next().is_none()
}

/// Render a report, one diagnostic per line.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    for d in diags {
        s.push_str(&d.to_string());
        s.push('\n');
    }
    s
}

fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.schema.cmp(&b.schema))
            .then_with(|| a.step.cmp(&b.step))
            .then_with(|| a.id.cmp(&b.id))
    });
}
