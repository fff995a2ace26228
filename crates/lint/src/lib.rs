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
//! Five passes run over a compiled spec (schemas + [`CoordinationSpec`] +
//! the `crew-rules` template):
//!
//! 1. **Compensation soundness** ([`passes::compensation`]) — steps a
//!    declared rollback can abandon or blindly redo must be compensatable
//!    (compensate program, compensation-set membership, or query kind),
//!    and rollback origins must cover the failing step's XOR branch.
//! 2. **Cross-workflow deadlock** ([`passes::coordination`]) — the static
//!    wait-for graph induced by mutex members and relative-order pairs
//!    against each schema's own topological order must be acyclic for
//!    every reachable leadership assignment.
//! 3. **Rule-template termination** ([`passes::template`]) — cycles in
//!    the compiled template's trigger graph must correspond to a declared
//!    `loop_back` arc, and loop-continue conditions must not fold to a
//!    constant `true`.
//! 4. **Data hazards** ([`passes::data`]) — XOR arc conditions must not
//!    be statically contradictory or tautological (constant folding over
//!    [`Expr`](crew_model::Expr)), reads must not cross XOR branches, and
//!    concurrent AND branches must not race the same update program
//!    without a serializing mutex.
//! 5. **Failure-policy soundness** ([`passes::policy`]) — a step that
//!    declares `retry(N)` and updates external state must be `idempotent`
//!    or compensatable, or every failed attempt can leak effects. That is
//!    the pass's one check: `retry(N)` and `idempotent` are the whole
//!    policy surface, because they are what the run-times honour.
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

pub use passes::template::lint_template;

/// A source position (`line:col`) in the LAWS text a diagnostic points
/// at. Mirrors `crew_laws::token::Pos`; defined here so the analyzer does
/// not depend on the language crate (the language crate depends on the
/// analyzer for its strict mode).
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
    /// A `RollbackDependency` requirement.
    RollbackDep,
}

/// Source spans for compiled entities, recorded by the LAWS compiler and
/// consumed by [`lint_with_spans`] to place diagnostics in the source.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    workflows: BTreeMap<SchemaId, Span>,
    steps: BTreeMap<(SchemaId, StepId), Span>,
    step_policies: BTreeMap<(SchemaId, StepId), Span>,
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

    /// Record the span of a step's `policy { ... }` block.
    pub fn record_step_policy(&mut self, schema: SchemaId, step: StepId, span: Span) {
        self.step_policies.insert((schema, step), span);
    }

    /// Record the span of a coordination requirement.
    pub fn record_coord(&mut self, kind: CoordKind, id: u32, span: Span) {
        self.coord.insert((kind, id), span);
    }

    /// The best span for a diagnostic: for policy findings the step's
    /// policy block, then its step, else its workflow, else its
    /// coordination requirement.
    pub fn resolve(&self, d: &Diagnostic) -> Option<Span> {
        if let (Some(schema), Some(step)) = (d.schema, d.step) {
            if d.id.is_policy() {
                if let Some(s) = self.step_policies.get(&(schema, step)) {
                    return Some(*s);
                }
            }
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
/// distinct hazard. The kebab-case rendering (`Display`) is the code the
/// CLI prints and tests assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum LintId {
    // Pass 1: compensation soundness.
    /// An update step a rollback's branch switch can abandon has no
    /// compensate program and no compensation-set membership.
    RollbackStepNotCompensatable,
    /// An update step in a rollback region re-executes unconditionally
    /// (`Always`/`When`) with no way to undo its previous effects.
    RollbackBlindReexecution,
    /// The rollback origin sits inside the failing step's XOR branch, so
    /// a retry can never re-decide the branch choice (Figure 3).
    RollbackOriginInsideXorBranch,
    /// A compensation-set member is an update step without a compensate
    /// program, so the set's atomic undo is impossible.
    CompensationSetMemberNotCompensatable,

    // Pass 2: cross-workflow deadlock.
    /// A coordination requirement references a schema or step that does
    /// not exist in the spec.
    CoordUnknownStep,
    /// A step belongs to two or more mutexes: acquisition is concurrent
    /// with partial holds, so linked instances can deadlock on opposite
    /// grant orders.
    MutexHoldAndWait,
    /// A mutex lists the same schema step twice.
    MutexDuplicateMember,
    /// A relative order's pair sequence is inverted with respect to its
    /// own schema's topological order.
    RelativeOrderPairsInverted,
    /// A relative order mixes schemas within one side, or pairs a schema
    /// with itself.
    RelativeOrderSchemaMixed,
    /// The static wait-for graph has a cycle under a reachable leadership
    /// assignment: linked instances can wedge.
    CoordinationDeadlock,
    /// Rollback dependencies form a cycle between schemas: a rollback can
    /// ping-pong between linked instances.
    RollbackDependencyCycle,

    // Pass 3: rule-template termination.
    /// The compiled rule template has a trigger cycle that no declared
    /// `loop_back` arc accounts for: navigation can loop forever.
    RuleCycleWithoutLoopBack,
    /// A loop-continue condition folds to constant `true`: the loop never
    /// exits.
    LoopNeverExits,
    /// A loop-continue condition folds to constant `false`: the loop body
    /// never repeats and the arc is dead.
    LoopConditionNeverHolds,

    // Pass 4: data hazards.
    /// An XOR arc condition folds to constant `false`: the branch is
    /// unreachable.
    XorBranchUnreachable,
    /// An XOR arc condition folds to constant `true`: the choice is
    /// decided at design time and sibling branches are dead.
    XorBranchAlwaysTaken,
    /// Every XOR arc condition folds to constant `false` and there is no
    /// `otherwise` arc: the instance stalls at the split.
    XorNoViableBranch,
    /// A step reads an output produced on a different branch of the same
    /// XOR split: when its own branch runs, the producer never does, and
    /// the reader's rule waits forever.
    XorCrossBranchRead,
    /// Two update steps on concurrent AND branches run the same program
    /// with no serializing mutex: lost-update race on the shared
    /// resource.
    ConcurrentWriteConflict,

    // Pass 5: failure-policy soundness.
    /// A retried update step is neither idempotent nor compensatable:
    /// each retry can duplicate effects no rollback can undo.
    RetryNonIdempotentWithoutCompensation,
}

impl LintId {
    /// The default severity of this check.
    pub fn severity(self) -> Severity {
        use LintId::*;
        match self {
            RollbackStepNotCompensatable
            | CompensationSetMemberNotCompensatable
            | CoordUnknownStep
            | MutexHoldAndWait
            | RelativeOrderPairsInverted
            | RelativeOrderSchemaMixed
            | CoordinationDeadlock
            | RuleCycleWithoutLoopBack
            | LoopNeverExits
            | XorNoViableBranch
            | XorCrossBranchRead
            | RetryNonIdempotentWithoutCompensation => Severity::Error,
            RollbackBlindReexecution
            | RollbackOriginInsideXorBranch
            | MutexDuplicateMember
            | RollbackDependencyCycle
            | LoopConditionNeverHolds
            | XorBranchUnreachable
            | XorBranchAlwaysTaken
            | ConcurrentWriteConflict => Severity::Warn,
        }
    }

    /// True for the failure-policy pass family: these diagnostics anchor
    /// to a step's `policy { ... }` block when the spec came from LAWS
    /// source.
    pub fn is_policy(self) -> bool {
        self == LintId::RetryNonIdempotentWithoutCompensation
    }

    /// The stable kebab-case code for this check.
    pub fn code(self) -> &'static str {
        use LintId::*;
        match self {
            RollbackStepNotCompensatable => "rollback-step-not-compensatable",
            RollbackBlindReexecution => "rollback-blind-reexecution",
            RollbackOriginInsideXorBranch => "rollback-origin-inside-xor-branch",
            CompensationSetMemberNotCompensatable => "compensation-set-member-not-compensatable",
            CoordUnknownStep => "coord-unknown-step",
            MutexHoldAndWait => "mutex-hold-and-wait",
            MutexDuplicateMember => "mutex-duplicate-member",
            RelativeOrderPairsInverted => "relative-order-pairs-inverted",
            RelativeOrderSchemaMixed => "relative-order-schema-mixed",
            CoordinationDeadlock => "coordination-deadlock",
            RollbackDependencyCycle => "rollback-dependency-cycle",
            RuleCycleWithoutLoopBack => "rule-cycle-without-loop-back",
            LoopNeverExits => "loop-never-exits",
            LoopConditionNeverHolds => "loop-condition-never-holds",
            XorBranchUnreachable => "xor-branch-unreachable",
            XorBranchAlwaysTaken => "xor-branch-always-taken",
            XorNoViableBranch => "xor-no-viable-branch",
            XorCrossBranchRead => "xor-cross-branch-read",
            ConcurrentWriteConflict => "concurrent-write-conflict",
            RetryNonIdempotentWithoutCompensation => "retry-non-idempotent-without-compensation",
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

/// Run all five passes over `schemas` + `coordination`.
///
/// Diagnostics come back sorted errors-first, then by schema/step, so the
/// first entry is always the most severe finding.
pub fn lint(schemas: &[WorkflowSchema], coordination: &CoordinationSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for schema in schemas {
        passes::compensation::run(schema, &mut out);
        passes::template::run(schema, &mut out);
        passes::data::run(schema, coordination, &mut out);
        passes::policy::run(schema, &mut out);
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
