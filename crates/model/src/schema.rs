//! Workflow schemas: the directed graph of steps and control arcs.
//!
//! A schema ("workflow definition", §2) is a directed graph whose nodes are
//! steps and whose arcs carry control flow (optionally conditioned) and —
//! derivably — data flow. Supported control structures follow §4.2:
//! sequential flow, parallel branching (AND-split), if-then-else branching
//! (XOR-split with arc conditions), branch-joins at confluence steps
//! (AND/XOR joins), loops (a conditioned back-edge), and nested workflows
//! (a step that instantiates a child schema).
//!
//! Schemas are immutable after [`SchemaBuilder::build`], which also performs
//! the validation and derives the structures the run-times need: the
//! topological order, per-step ancestor sets, the terminal-step list (the
//! steps whose agents act as *termination agents*), and per-XOR-branch step
//! sets (used by the `CompensateThread` protocol when re-execution takes a
//! different branch, Figure 3).

use crate::expr::Expr;
use crate::ids::{AgentId, SchemaId, StepId};
use crate::recovery::{CompensationSet, RollbackSpec};
use crate::step::{InputBinding, StepDef};
use crate::value::{ItemKey, ItemScope};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// How control fans out of a step with multiple outgoing arcs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitKind {
    /// Parallel branching: every outgoing arc is taken.
    And,
    /// If-then-else branching: arc conditions select exactly one branch.
    Xor,
}

/// How control fans into a step with multiple incoming arcs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Confluence of parallel branches: waits for *all* incoming arcs.
    And,
    /// Merge of exclusive branches: fires on *any one* incoming arc.
    Xor,
}

/// A control arc between two steps.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlArc {
    /// Sending node.
    pub from: StepId,
    /// Receiving node.
    pub to: StepId,
    /// Branch condition — required on XOR-split arcs (except a single
    /// optional `otherwise` arc with `None`), forbidden elsewhere.
    pub condition: Option<Expr>,
    /// Marks a loop back-edge: excluded from acyclicity and ordering, taken
    /// when its condition holds (the loop *continue* condition — the paper
    /// phrases it as sending the packet back "if the loop exit condition
    /// evaluates to false").
    pub loop_back: bool,
}

/// Errors detected while building/validating a schema. The `Display`
/// rendering is the canonical description of each case.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The schema has no steps.
    Empty,
    /// An arc or spec references a step that was never added.
    UnknownStep(StepId),
    /// The same step id was added twice.
    DuplicateStep(StepId),
    /// Forward arcs must form a DAG.
    Cycle(Vec<StepId>),
    /// Exactly one start step (no incoming forward arcs) is required: its
    /// agent is the instance's coordination agent.
    StartSteps(Vec<StepId>),
    /// An XOR-split arc other than the single `otherwise` arc lacks a
    /// condition.
    MissingCondition { from: StepId, to: StepId },
    /// More than one unconditioned arc on an XOR split.
    MultipleOtherwise(StepId),
    /// A condition appears on an arc of an AND split or a sequence.
    UnexpectedCondition { from: StepId, to: StepId },
    /// A step with multiple outgoing arcs has no declared split kind.
    UndeclaredSplit(StepId),
    /// A step with multiple incoming arcs has no declared join kind.
    UndeclaredJoin(StepId),
    /// A step input reads a nonexistent producer or slot, its own output,
    /// or an output of a strict descendant (the future).
    BadInput {
        step: StepId,
        source: ItemKey,
        reason: &'static str,
    },
    /// A condition references an item that no upstream step produces.
    BadConditionItem { at: StepId, item: ItemKey },
    /// Compensation sets must be disjoint.
    OverlappingCompensationSets(StepId),
    /// A rollback origin must be an ancestor of (or equal to) the failing
    /// step.
    BadRollbackOrigin { failing: StepId, origin: StepId },
    /// A loop back-edge must target an ancestor of its source.
    BadLoopBack { from: StepId, to: StepId },
    /// A step reads a workflow input slot outside the declared range.
    BadInputSlot { step: StepId, slot: u16 },
    /// A nested-workflow step must not also name a program to execute.
    NestedStepHasProgram(StepId),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Empty => write!(f, "schema has no steps"),
            SchemaError::UnknownStep(s) => write!(f, "arc or spec references unknown step {s}"),
            SchemaError::DuplicateStep(s) => write!(f, "duplicate step id {s}"),
            SchemaError::Cycle(path) => {
                write!(f, "forward arcs contain a cycle through ")?;
                for (i, s) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
            SchemaError::StartSteps(v) => {
                write!(f, "schema must have exactly one start step, found {v:?}")
            }
            SchemaError::MissingCondition { from, to } => {
                write!(f, "XOR arc {from}->{to} needs a condition")
            }
            SchemaError::MultipleOtherwise(s) => {
                write!(f, "XOR split at {s} has multiple unconditioned arcs")
            }
            SchemaError::UnexpectedCondition { from, to } => {
                write!(f, "non-XOR arc {from}->{to} must not carry a condition")
            }
            SchemaError::UndeclaredSplit(s) => write!(f, "step {s} fans out without a split kind"),
            SchemaError::UndeclaredJoin(s) => write!(f, "step {s} fans in without a join kind"),
            SchemaError::BadInput {
                step,
                source,
                reason,
            } => {
                write!(f, "step {step} input {source}: {reason}")
            }
            SchemaError::BadConditionItem { at, item } => {
                write!(f, "condition at {at} references unproducible item {item}")
            }
            SchemaError::OverlappingCompensationSets(s) => {
                write!(f, "step {s} belongs to more than one compensation set")
            }
            SchemaError::BadRollbackOrigin { failing, origin } => {
                write!(
                    f,
                    "rollback origin {origin} is not an ancestor of failing step {failing}"
                )
            }
            SchemaError::BadLoopBack { from, to } => {
                write!(f, "loop back-edge {from}->{to} does not target an ancestor")
            }
            SchemaError::BadInputSlot { step, slot } => {
                write!(f, "step {step} reads undeclared workflow input slot {slot}")
            }
            SchemaError::NestedStepHasProgram(s) => {
                write!(
                    f,
                    "nested-workflow step {s} must use the nested placeholder program"
                )
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Program name used by steps that instantiate a nested workflow instead of
/// running an application program.
pub const NESTED_PROGRAM: &str = "<nested>";

/// An immutable, validated workflow schema.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowSchema {
    /// Stable identifier within its collection.
    pub id: SchemaId,
    /// Human-readable name.
    pub name: String,
    /// Number of workflow input slots (`WF.I1 ..= WF.I<n>`).
    pub input_slots: u16,
    steps: BTreeMap<StepId, StepDef>,
    arcs: Vec<ControlArc>,
    splits: BTreeMap<StepId, SplitKind>,
    joins: BTreeMap<StepId, JoinKind>,
    /// Compensation sets.
    pub compensation_sets: Vec<CompensationSet>,
    /// Rollback specs.
    pub rollback_specs: Vec<RollbackSpec>,
    /// Steps that instantiate a child workflow (nested workflows, §4.2).
    pub nested: BTreeMap<StepId, SchemaId>,
    // ---- derived ----
    start: StepId,
    terminals: Vec<StepId>,
    topo: Vec<StepId>,
    /// ancestors[s] = every step strictly upstream of `s` via forward arcs.
    ancestors: BTreeMap<StepId, BTreeSet<StepId>>,
}

impl WorkflowSchema {
    // ---- graph accessors -------------------------------------------------

    /// The step this entry concerns.
    pub fn step(&self, id: StepId) -> Option<&StepDef> {
        self.steps.get(&id)
    }

    /// Step definition, panicking on unknown id — for contexts where the id
    /// came from this schema and absence is a logic error.
    pub fn expect_step(&self, id: StepId) -> &StepDef {
        self.steps
            .get(&id)
            .unwrap_or_else(|| panic!("schema {} has no step {id}", self.id))
    }

    /// Steps.
    pub fn steps(&self) -> impl Iterator<Item = &StepDef> {
        self.steps.values()
    }

    /// Step count.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Arcs.
    pub fn arcs(&self) -> &[ControlArc] {
        &self.arcs
    }

    /// All outgoing arcs (forward and loop-back) of `step`.
    pub fn outgoing(&self, step: StepId) -> impl Iterator<Item = &ControlArc> {
        self.arcs.iter().filter(move |a| a.from == step)
    }

    /// Outgoing forward arcs only.
    pub fn forward_outgoing(&self, step: StepId) -> impl Iterator<Item = &ControlArc> {
        self.outgoing(step).filter(|a| !a.loop_back)
    }

    /// All incoming arcs of `step`.
    pub fn incoming(&self, step: StepId) -> impl Iterator<Item = &ControlArc> {
        self.arcs.iter().filter(move |a| a.to == step)
    }

    /// Incoming forward arcs only.
    pub fn forward_incoming(&self, step: StepId) -> impl Iterator<Item = &ControlArc> {
        self.incoming(step).filter(|a| !a.loop_back)
    }

    /// Split kind of a step (meaningful when it has >1 outgoing forward
    /// arcs).
    pub fn split_kind(&self, step: StepId) -> Option<SplitKind> {
        self.splits.get(&step).copied()
    }

    /// Join kind of a step (meaningful when it has >1 incoming forward
    /// arcs).
    pub fn join_kind(&self, step: StepId) -> Option<JoinKind> {
        self.joins.get(&step).copied()
    }

    /// The unique start step. Its (primary eligible) agent is the
    /// coordination agent of every instance of this schema.
    pub fn start_step(&self) -> StepId {
        self.start
    }

    /// Terminal steps: no outgoing forward arcs. Their agents act as
    /// termination agents and report `StepCompleted` to the coordination
    /// agent. This is the paper's parameter `f`.
    pub fn terminal_steps(&self) -> &[StepId] {
        &self.terminals
    }

    /// Steps in a topological order of the forward arcs.
    pub fn topo_order(&self) -> &[StepId] {
        &self.topo
    }

    /// True iff `a` is strictly upstream of `b` along forward arcs.
    pub fn is_ancestor(&self, a: StepId, b: StepId) -> bool {
        self.ancestors.get(&b).is_some_and(|anc| anc.contains(&a))
    }

    /// Every step reachable from `from` (inclusive) along forward arcs.
    pub fn reachable_from(&self, from: StepId) -> BTreeSet<StepId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([from]);
        while let Some(s) = queue.pop_front() {
            if seen.insert(s) {
                for arc in self.forward_outgoing(s) {
                    queue.push_back(arc.to);
                }
            }
        }
        seen
    }

    /// Strict descendants of `from`.
    pub fn descendants(&self, from: StepId) -> BTreeSet<StepId> {
        let mut r = self.reachable_from(from);
        r.remove(&from);
        r
    }

    /// Deployment-time mutator: replace the eligible agents of a step.
    /// Agent eligibility is the one part of a schema that belongs to the
    /// deployment rather than the design, so it stays adjustable after
    /// `build()`; everything structural remains immutable.
    pub fn set_eligible_agents(&mut self, step: StepId, agents: Vec<AgentId>) {
        if let Some(def) = self.steps.get_mut(&step) {
            def.eligible_agents = agents;
        }
    }

    /// The compensation set containing `step`, if any.
    pub fn compensation_set_of(&self, step: StepId) -> Option<&CompensationSet> {
        self.compensation_sets.iter().find(|s| s.contains(step))
    }

    /// The rollback spec for a failure at `step`, if the designer declared
    /// one. Engines fall back to "rollback to the start step" otherwise.
    pub fn rollback_spec_for(&self, step: StepId) -> Option<&RollbackSpec> {
        self.rollback_specs.iter().find(|r| r.failing_step == step)
    }

    /// Average number of eligible agents per step — the paper's parameter
    /// `a` for this schema.
    pub fn mean_eligible_agents(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        let total: usize = self.steps.values().map(|s| s.eligible_agents.len()).sum();
        total as f64 / self.steps.len() as f64
    }

    /// The confluence step of an XOR split, if its branches re-join: the
    /// first step (in topo order) reachable from every branch head.
    pub fn confluence_of(&self, split: StepId) -> Option<StepId> {
        let heads: Vec<StepId> = self.forward_outgoing(split).map(|a| a.to).collect();
        if heads.len() < 2 {
            return None;
        }
        let reach: Vec<BTreeSet<StepId>> = heads.iter().map(|&h| self.reachable_from(h)).collect();
        self.topo
            .iter()
            .copied()
            .find(|s| reach.iter().all(|r| r.contains(s)))
    }

    /// The steps belonging to one branch of an XOR split: everything
    /// reachable from `head` before the confluence (all of it, if the
    /// branches never re-join). This is the step list the
    /// `CompensateThread` protocol walks when re-execution abandons the
    /// branch (Figure 3).
    pub fn branch_steps(&self, split: StepId, head: StepId) -> BTreeSet<StepId> {
        let mut steps = self.reachable_from(head);
        if let Some(confluence) = self.confluence_of(split) {
            for s in self.reachable_from(confluence) {
                steps.remove(&s);
            }
        }
        steps
    }

    /// Steps downstream of `origin` (strict), i.e. the executions a rollback
    /// to `origin` invalidates — the paper's parameter `v` for one failure.
    pub fn invalidation_set(&self, origin: StepId) -> BTreeSet<StepId> {
        self.descendants(origin)
    }

    /// Extra `step.done` events a step's firing rule must wait for beyond
    /// its control-flow predecessors: the producers of its inputs that are
    /// not already upstream (cross-branch data arcs). See §4.2: "the rule
    /// may require other step.done events depending on which of the steps
    /// it gets its input data from".
    pub fn cross_branch_producers(&self, step: StepId) -> BTreeSet<StepId> {
        let def = self.expect_step(step);
        let mut out = BTreeSet::new();
        for b in &def.inputs {
            if let ItemScope::StepOutput(p) = b.source.scope {
                if !self.is_ancestor(p, step) && p != step {
                    out.insert(p);
                }
            }
        }
        out
    }
}

/// Fluent builder for [`WorkflowSchema`]. Step ids are assigned
/// sequentially starting at `S1`.
pub struct SchemaBuilder {
    id: SchemaId,
    name: String,
    input_slots: u16,
    steps: BTreeMap<StepId, StepDef>,
    arcs: Vec<ControlArc>,
    splits: BTreeMap<StepId, SplitKind>,
    joins: BTreeMap<StepId, JoinKind>,
    compensation_sets: Vec<CompensationSet>,
    rollback_specs: Vec<RollbackSpec>,
    nested: BTreeMap<StepId, SchemaId>,
    next_step: u32,
}

impl SchemaBuilder {
    /// Create a new, empty value.
    pub fn new(id: SchemaId, name: impl Into<String>) -> Self {
        SchemaBuilder {
            id,
            name: name.into(),
            input_slots: 0,
            steps: BTreeMap::new(),
            arcs: Vec::new(),
            splits: BTreeMap::new(),
            joins: BTreeMap::new(),
            compensation_sets: Vec::new(),
            rollback_specs: Vec::new(),
            nested: BTreeMap::new(),
            next_step: 1,
        }
    }

    /// Declare the number of workflow input slots.
    pub fn inputs(mut self, slots: u16) -> Self {
        self.input_slots = slots;
        self
    }

    /// Add a step with defaults and return its id; customize via
    /// [`SchemaBuilder::configure`].
    pub fn add_step(&mut self, name: impl Into<String>, program: impl Into<String>) -> StepId {
        let id = StepId(self.next_step);
        self.next_step += 1;
        self.steps.insert(id, StepDef::new(id, name, program));
        id
    }

    /// Add a step that instantiates the nested workflow `child`.
    pub fn add_nested(&mut self, name: impl Into<String>, child: SchemaId) -> StepId {
        let id = self.add_step(name, NESTED_PROGRAM);
        self.nested.insert(id, child);
        id
    }

    /// Mutate a previously added step definition.
    pub fn configure(&mut self, id: StepId, f: impl FnOnce(&mut StepDef)) -> &mut Self {
        let def = self.steps.get_mut(&id).expect("configure: unknown step");
        f(def);
        self
    }

    /// Convenience: declare that `step` reads `source`.
    pub fn read(&mut self, step: StepId, source: ItemKey) -> &mut Self {
        self.configure(step, |d| d.inputs.push(InputBinding { source }))
    }

    /// Sequential arc `from -> to`.
    pub fn seq(&mut self, from: StepId, to: StepId) -> &mut Self {
        self.arcs.push(ControlArc {
            from,
            to,
            condition: None,
            loop_back: false,
        });
        self
    }

    /// Parallel branching: all `to` steps execute.
    pub fn and_split(&mut self, from: StepId, to: impl IntoIterator<Item = StepId>) -> &mut Self {
        self.splits.insert(from, SplitKind::And);
        for t in to {
            self.arcs.push(ControlArc {
                from,
                to: t,
                condition: None,
                loop_back: false,
            });
        }
        self
    }

    /// If-then-else branching: each branch carries a condition; pass `None`
    /// for at most one `otherwise` branch.
    pub fn xor_split(
        &mut self,
        from: StepId,
        branches: impl IntoIterator<Item = (StepId, Option<Expr>)>,
    ) -> &mut Self {
        self.splits.insert(from, SplitKind::Xor);
        for (to, condition) in branches {
            self.arcs.push(ControlArc {
                from,
                to,
                condition,
                loop_back: false,
            });
        }
        self
    }

    /// Confluence of parallel branches at `to`.
    pub fn and_join(&mut self, from: impl IntoIterator<Item = StepId>, to: StepId) -> &mut Self {
        self.joins.insert(to, JoinKind::And);
        for f in from {
            self.arcs.push(ControlArc {
                from: f,
                to,
                condition: None,
                loop_back: false,
            });
        }
        self
    }

    /// Merge of exclusive branches at `to`.
    pub fn xor_join(&mut self, from: impl IntoIterator<Item = StepId>, to: StepId) -> &mut Self {
        self.joins.insert(to, JoinKind::Xor);
        for f in from {
            self.arcs.push(ControlArc {
                from: f,
                to,
                condition: None,
                loop_back: false,
            });
        }
        self
    }

    /// Loop back-edge `from -> to`, taken while `continue_if` holds.
    pub fn loop_back(&mut self, from: StepId, to: StepId, continue_if: Expr) -> &mut Self {
        self.arcs.push(ControlArc {
            from,
            to,
            condition: Some(continue_if),
            loop_back: true,
        });
        self
    }

    /// Declare a compensation dependent set.
    pub fn compensation_set(&mut self, members: impl IntoIterator<Item = StepId>) -> &mut Self {
        let id = self.compensation_sets.len() as u32;
        self.compensation_sets
            .push(CompensationSet::new(id, members));
        self
    }

    /// Declare the rollback origin for failures of `failing_step`.
    pub fn on_failure_rollback_to(&mut self, failing_step: StepId, origin: StepId) -> &mut Self {
        self.rollback_specs
            .push(RollbackSpec::new(failing_step, origin));
        self
    }

    /// Same, with an explicit retry budget.
    pub fn on_failure_rollback_to_with_attempts(
        &mut self,
        failing_step: StepId,
        origin: StepId,
        max_attempts: u32,
    ) -> &mut Self {
        let mut spec = RollbackSpec::new(failing_step, origin);
        spec.max_attempts = max_attempts;
        self.rollback_specs.push(spec);
        self
    }

    /// Assign `agents` as the eligible agents of every step that has none
    /// yet. Deployment helpers use this to spread steps across a pool.
    pub fn default_agents(&mut self, agents: &[AgentId]) -> &mut Self {
        for def in self.steps.values_mut() {
            if def.eligible_agents.is_empty() && !agents.is_empty() {
                let idx = def.id.index() % agents.len();
                def.eligible_agents = vec![agents[idx]];
            }
        }
        self
    }

    /// Validate and freeze.
    pub fn build(self) -> Result<WorkflowSchema, SchemaError> {
        if self.steps.is_empty() {
            return Err(SchemaError::Empty);
        }
        // Arc endpoints must exist.
        for arc in &self.arcs {
            if !self.steps.contains_key(&arc.from) {
                return Err(SchemaError::UnknownStep(arc.from));
            }
            if !self.steps.contains_key(&arc.to) {
                return Err(SchemaError::UnknownStep(arc.to));
            }
        }
        // Nested steps use the placeholder program.
        for &sid in self.nested.keys() {
            if self.steps[&sid].program != NESTED_PROGRAM {
                return Err(SchemaError::NestedStepHasProgram(sid));
            }
        }

        let forward: Vec<&ControlArc> = self.arcs.iter().filter(|a| !a.loop_back).collect();

        // Exactly one start step.
        let with_incoming: BTreeSet<StepId> = forward.iter().map(|a| a.to).collect();
        let starts: Vec<StepId> = self
            .steps
            .keys()
            .copied()
            .filter(|s| !with_incoming.contains(s))
            .collect();
        let &[start] = starts.as_slice() else {
            return Err(SchemaError::StartSteps(starts));
        };

        // Topological order (Kahn) over forward arcs; leftover = cycle.
        let mut indeg: BTreeMap<StepId, usize> = self.steps.keys().map(|&s| (s, 0)).collect();
        for arc in &forward {
            *indeg.get_mut(&arc.to).expect("checked") += 1;
        }
        let mut queue: VecDeque<StepId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&s, _)| s)
            .collect();
        let mut topo = Vec::with_capacity(self.steps.len());
        while let Some(s) = queue.pop_front() {
            topo.push(s);
            for arc in forward.iter().filter(|a| a.from == s) {
                let d = indeg.get_mut(&arc.to).expect("checked");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(arc.to);
                }
            }
        }
        if topo.len() != self.steps.len() {
            let leftover: Vec<StepId> = self
                .steps
                .keys()
                .copied()
                .filter(|s| !topo.contains(s))
                .collect();
            return Err(SchemaError::Cycle(leftover));
        }

        // Ancestor sets in topo order.
        let mut ancestors: BTreeMap<StepId, BTreeSet<StepId>> =
            self.steps.keys().map(|&s| (s, BTreeSet::new())).collect();
        for &s in &topo {
            let incoming: Vec<StepId> = forward
                .iter()
                .filter(|a| a.to == s)
                .map(|a| a.from)
                .collect();
            let mut anc = BTreeSet::new();
            for p in incoming {
                anc.insert(p);
                anc.extend(ancestors[&p].iter().copied());
            }
            ancestors.insert(s, anc);
        }

        // Split/join declarations and conditions.
        for &s in self.steps.keys() {
            let out: Vec<&&ControlArc> = forward.iter().filter(|a| a.from == s).collect();
            if out.len() > 1 {
                match self.splits.get(&s) {
                    None => return Err(SchemaError::UndeclaredSplit(s)),
                    Some(SplitKind::Xor) => {
                        let mut otherwise = 0;
                        for a in &out {
                            if a.condition.is_none() {
                                otherwise += 1;
                            }
                        }
                        if otherwise > 1 {
                            return Err(SchemaError::MultipleOtherwise(s));
                        }
                        if otherwise == out.len() {
                            // No conditioned arc at all: every branch needs
                            // a way to be selected.
                            let a = out[0];
                            return Err(SchemaError::MissingCondition {
                                from: a.from,
                                to: a.to,
                            });
                        }
                    }
                    Some(SplitKind::And) => {
                        if let Some(a) = out.iter().find(|a| a.condition.is_some()) {
                            return Err(SchemaError::UnexpectedCondition {
                                from: a.from,
                                to: a.to,
                            });
                        }
                    }
                }
            } else if let Some(a) = out.first() {
                if a.condition.is_some() && self.splits.get(&s) != Some(&SplitKind::Xor) {
                    return Err(SchemaError::UnexpectedCondition {
                        from: a.from,
                        to: a.to,
                    });
                }
            }
            let inc = forward.iter().filter(|a| a.to == s).count();
            if inc > 1 && !self.joins.contains_key(&s) {
                return Err(SchemaError::UndeclaredJoin(s));
            }
        }

        // Loop back-edges must target an ancestor of their source.
        for arc in self.arcs.iter().filter(|a| a.loop_back) {
            let ok = arc.to == arc.from || ancestors[&arc.from].contains(&arc.to);
            if !ok {
                return Err(SchemaError::BadLoopBack {
                    from: arc.from,
                    to: arc.to,
                });
            }
        }

        // Input bindings: slots in range, producers visible.
        for def in self.steps.values() {
            for b in &def.inputs {
                match b.source.scope {
                    ItemScope::WorkflowInput => {
                        if b.source.slot == 0 || b.source.slot > self.input_slots {
                            return Err(SchemaError::BadInputSlot {
                                step: def.id,
                                slot: b.source.slot,
                            });
                        }
                    }
                    ItemScope::StepOutput(p) => {
                        let Some(producer) = self.steps.get(&p) else {
                            return Err(SchemaError::BadInput {
                                step: def.id,
                                source: b.source,
                                reason: "producer step does not exist",
                            });
                        };
                        if b.source.slot == 0 || b.source.slot > producer.output_slots {
                            return Err(SchemaError::BadInput {
                                step: def.id,
                                source: b.source,
                                reason: "producer has no such output slot",
                            });
                        }
                        if p == def.id {
                            return Err(SchemaError::BadInput {
                                step: def.id,
                                source: b.source,
                                reason: "step cannot read its own output",
                            });
                        }
                        // Reading from a strict descendant would wait on the
                        // future.
                        if ancestors[&p].contains(&def.id) {
                            return Err(SchemaError::BadInput {
                                step: def.id,
                                source: b.source,
                                reason: "producer is downstream of consumer",
                            });
                        }
                    }
                }
            }
        }

        // Arc conditions can only reference items producible before the
        // branch decision: workflow inputs or outputs of the split step's
        // ancestors (or the split step itself).
        for arc in &self.arcs {
            if let Some(cond) = &arc.condition {
                for item in cond.referenced_items() {
                    let ok = match item.scope {
                        ItemScope::WorkflowInput => item.slot >= 1 && item.slot <= self.input_slots,
                        ItemScope::StepOutput(p) => {
                            p == arc.from || ancestors[&arc.from].contains(&p)
                        }
                    };
                    if !ok {
                        return Err(SchemaError::BadConditionItem { at: arc.from, item });
                    }
                }
            }
        }

        // Compensation sets: members exist and are disjoint.
        let mut seen = BTreeSet::new();
        for set in &self.compensation_sets {
            for &m in &set.members {
                if !self.steps.contains_key(&m) {
                    return Err(SchemaError::UnknownStep(m));
                }
                if !seen.insert(m) {
                    return Err(SchemaError::OverlappingCompensationSets(m));
                }
            }
        }

        // Rollback specs: origin is self or ancestor of the failing step.
        for spec in &self.rollback_specs {
            if !self.steps.contains_key(&spec.failing_step) {
                return Err(SchemaError::UnknownStep(spec.failing_step));
            }
            if !self.steps.contains_key(&spec.origin) {
                return Err(SchemaError::UnknownStep(spec.origin));
            }
            let ok = spec.origin == spec.failing_step
                || ancestors[&spec.failing_step].contains(&spec.origin);
            if !ok {
                return Err(SchemaError::BadRollbackOrigin {
                    failing: spec.failing_step,
                    origin: spec.origin,
                });
            }
        }

        // Terminal steps: no outgoing forward arcs.
        let with_outgoing: BTreeSet<StepId> = forward.iter().map(|a| a.from).collect();
        let terminals: Vec<StepId> = topo
            .iter()
            .copied()
            .filter(|s| !with_outgoing.contains(s))
            .collect();

        Ok(WorkflowSchema {
            id: self.id,
            name: self.name,
            input_slots: self.input_slots,
            steps: self.steps,
            arcs: self.arcs,
            splits: self.splits,
            joins: self.joins,
            compensation_sets: self.compensation_sets,
            rollback_specs: self.rollback_specs,
            nested: self.nested,
            start,
            terminals,
            topo,
            ancestors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::value::ItemKey;

    /// The Figure 3 shape: S1 -> S2 -> xor(S3 | S5') ... here:
    /// S1 -> S2, xor at S2 to S3 (top) or S5 (bottom), both join at S4... we
    /// build the exact Figure 3 shape: S1->S2, S2 xor-> S3 / S5, S3->S4,
    /// S5->S4' — to keep it simple: S3->S4, S5->S4, xor-join at S4, S4->S6.
    fn fig3_like() -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(1), "fig3").inputs(1);
        let s1 = b.add_step("S1", "p1");
        let s2 = b.add_step("S2", "p2");
        let s3 = b.add_step("S3", "p3");
        let s5 = b.add_step("S5", "p5");
        let s4 = b.add_step("S4", "p4");
        b.seq(s1, s2);
        b.xor_split(
            s2,
            [
                (
                    s3,
                    Some(Expr::gt(Expr::item(ItemKey::output(s2, 1)), Expr::lit(10))),
                ),
                (s5, None),
            ],
        );
        b.xor_join([s3, s5], s4);
        b.build().unwrap()
    }

    fn diamond() -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(2), "diamond").inputs(1);
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        let s4 = b.add_step("D", "p");
        b.and_split(s1, [s2, s3]);
        b.and_join([s2, s3], s4);
        b.build().unwrap()
    }

    #[test]
    fn start_and_terminals() {
        let s = fig3_like();
        assert_eq!(s.start_step(), StepId(1));
        assert_eq!(s.terminal_steps(), &[StepId(5)]); // S4 has id 5 (added fifth)
        let d = diamond();
        assert_eq!(d.terminal_steps(), &[StepId(4)]);
    }

    #[test]
    fn topo_order_respects_arcs() {
        let d = diamond();
        let pos: BTreeMap<StepId, usize> = d
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        for arc in d.arcs() {
            assert!(
                pos[&arc.from] < pos[&arc.to],
                "{} before {}",
                arc.from,
                arc.to
            );
        }
    }

    #[test]
    fn ancestor_queries() {
        let d = diamond();
        assert!(d.is_ancestor(StepId(1), StepId(4)));
        assert!(d.is_ancestor(StepId(2), StepId(4)));
        assert!(!d.is_ancestor(StepId(2), StepId(3))); // parallel branches
        assert!(!d.is_ancestor(StepId(4), StepId(1)));
    }

    #[test]
    fn cycle_detected() {
        let mut b = SchemaBuilder::new(SchemaId(3), "cyc");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        b.seq(s1, s2).seq(s2, s3).seq(s3, s2);
        assert!(matches!(b.build(), Err(SchemaError::Cycle(_))));
    }

    #[test]
    fn two_starts_rejected() {
        let mut b = SchemaBuilder::new(SchemaId(3), "two");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        b.xor_join([s1, s2], s3);
        assert!(matches!(b.build(), Err(SchemaError::StartSteps(_))));
    }

    #[test]
    fn xor_needs_conditions() {
        let mut b = SchemaBuilder::new(SchemaId(3), "xor");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        b.xor_split(s1, [(s2, None), (s3, None)]);
        assert!(matches!(b.build(), Err(SchemaError::MultipleOtherwise(_))));
    }

    #[test]
    fn and_split_rejects_conditions() {
        let mut b = SchemaBuilder::new(SchemaId(3), "and");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        b.splits.insert(s1, SplitKind::And);
        b.arcs.push(ControlArc {
            from: s1,
            to: s2,
            condition: Some(Expr::lit(true)),
            loop_back: false,
        });
        b.arcs.push(ControlArc {
            from: s1,
            to: s3,
            condition: None,
            loop_back: false,
        });
        assert!(matches!(
            b.build(),
            Err(SchemaError::UnexpectedCondition { .. })
        ));
    }

    #[test]
    fn undeclared_split_join_rejected() {
        let mut b = SchemaBuilder::new(SchemaId(3), "u");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        b.seq(s1, s2).seq(s1, s3);
        assert!(matches!(b.build(), Err(SchemaError::UndeclaredSplit(_))));

        let mut b = SchemaBuilder::new(SchemaId(3), "u2");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        let s4 = b.add_step("D", "p");
        b.and_split(s1, [s2, s3]);
        b.seq(s2, s4).seq(s3, s4);
        assert!(matches!(b.build(), Err(SchemaError::UndeclaredJoin(_))));
    }

    #[test]
    fn loop_back_must_target_ancestor() {
        let mut b = SchemaBuilder::new(SchemaId(3), "loop");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        b.seq(s1, s2).seq(s2, s3);
        b.loop_back(s2, s3, Expr::lit(true)); // s3 not an ancestor of s2
        assert!(matches!(b.build(), Err(SchemaError::BadLoopBack { .. })));

        let mut b = SchemaBuilder::new(SchemaId(3), "loop-ok");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        b.seq(s1, s2).seq(s2, s3);
        b.loop_back(s3, s2, Expr::lit(false));
        let schema = b.build().unwrap();
        // Loop back-edges do not make s3 non-terminal.
        assert_eq!(schema.terminal_steps(), &[s3]);
    }

    #[test]
    fn bad_inputs_rejected() {
        // Reading a downstream producer.
        let mut b = SchemaBuilder::new(SchemaId(3), "bad");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        b.seq(s1, s2);
        b.read(s1, ItemKey::output(s2, 1));
        assert!(matches!(b.build(), Err(SchemaError::BadInput { .. })));

        // Out-of-range workflow input slot.
        let mut b = SchemaBuilder::new(SchemaId(3), "bad2").inputs(1);
        let s1 = b.add_step("A", "p");
        b.read(s1, ItemKey::input(2));
        assert!(matches!(b.build(), Err(SchemaError::BadInputSlot { .. })));

        // Out-of-range producer slot.
        let mut b = SchemaBuilder::new(SchemaId(3), "bad3");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        b.seq(s1, s2);
        b.read(s2, ItemKey::output(s1, 9));
        assert!(matches!(b.build(), Err(SchemaError::BadInput { .. })));
    }

    #[test]
    fn cross_branch_read_is_allowed_and_reported() {
        let mut b = SchemaBuilder::new(SchemaId(3), "x").inputs(1);
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        let s4 = b.add_step("D", "p");
        b.and_split(s1, [s2, s3]);
        b.and_join([s2, s3], s4);
        // C reads B's output although B is on the sibling branch.
        b.read(s3, ItemKey::output(s2, 1));
        let schema = b.build().unwrap();
        assert_eq!(schema.cross_branch_producers(s3), BTreeSet::from([s2]));
        // D reads B's output, but B is already upstream: no extra event.
        assert!(schema.cross_branch_producers(s4).is_empty());
    }

    #[test]
    fn condition_item_visibility() {
        let mut b = SchemaBuilder::new(SchemaId(3), "cond");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        // Condition at s1 references output of s3 (downstream): invalid.
        b.xor_split(
            s1,
            [
                (
                    s2,
                    Some(Expr::gt(Expr::item(ItemKey::output(s3, 1)), Expr::lit(0))),
                ),
                (s3, None),
            ],
        );
        assert!(matches!(
            b.build(),
            Err(SchemaError::BadConditionItem { .. })
        ));
    }

    #[test]
    fn compensation_sets_disjoint() {
        let mut b = SchemaBuilder::new(SchemaId(3), "comp");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        b.seq(s1, s2);
        b.compensation_set([s1, s2]);
        b.compensation_set([s2]);
        assert!(matches!(
            b.build(),
            Err(SchemaError::OverlappingCompensationSets(_))
        ));
    }

    #[test]
    fn rollback_origin_must_be_upstream() {
        let mut b = SchemaBuilder::new(SchemaId(3), "rb");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        b.seq(s1, s2).seq(s2, s3);
        b.on_failure_rollback_to(s2, s3);
        assert!(matches!(
            b.build(),
            Err(SchemaError::BadRollbackOrigin { .. })
        ));
    }

    #[test]
    fn confluence_and_branch_steps() {
        let s = fig3_like();
        // split at S2, branches S3 and S5 (ids 3 and 4), confluence S4 (id 5)
        assert_eq!(s.confluence_of(StepId(2)), Some(StepId(5)));
        assert_eq!(
            s.branch_steps(StepId(2), StepId(3)),
            BTreeSet::from([StepId(3)])
        );
        assert_eq!(
            s.branch_steps(StepId(2), StepId(4)),
            BTreeSet::from([StepId(4)])
        );
    }

    #[test]
    fn branch_without_confluence_takes_whole_tail() {
        let mut b = SchemaBuilder::new(SchemaId(4), "open");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        let s4 = b.add_step("B2", "p");
        b.xor_split(s1, [(s2, Some(Expr::lit(true))), (s3, None)]);
        b.seq(s2, s4);
        let s = b.build().unwrap();
        assert_eq!(s.confluence_of(StepId(1)), None);
        assert_eq!(s.branch_steps(StepId(1), s2), BTreeSet::from([s2, s4]));
        assert_eq!(s.terminal_steps(), &[s3, s4]);
    }

    #[test]
    fn invalidation_set_is_strict_descendants() {
        let d = diamond();
        assert_eq!(
            d.invalidation_set(StepId(1)),
            BTreeSet::from([StepId(2), StepId(3), StepId(4)])
        );
        assert!(d.invalidation_set(StepId(4)).is_empty());
    }

    #[test]
    fn nested_step_requires_placeholder() {
        let mut b = SchemaBuilder::new(SchemaId(5), "nest");
        let s1 = b.add_nested("Child", SchemaId(6));
        let s2 = b.add_step("B", "p");
        b.seq(s1, s2);
        let s = b.build().unwrap();
        assert_eq!(s.nested.get(&s1), Some(&SchemaId(6)));

        let mut b = SchemaBuilder::new(SchemaId(5), "nest-bad");
        let s1 = b.add_step("Child", "real-program");
        b.nested.insert(s1, SchemaId(6));
        assert!(matches!(
            b.build(),
            Err(SchemaError::NestedStepHasProgram(_))
        ));
    }

    #[test]
    fn mean_eligible_agents() {
        let mut b = SchemaBuilder::new(SchemaId(7), "agents");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        b.seq(s1, s2);
        b.configure(s1, |d| d.eligible_agents = vec![AgentId(1), AgentId(2)]);
        b.configure(s2, |d| d.eligible_agents = vec![AgentId(3)]);
        let s = b.build().unwrap();
        assert!((s.mean_eligible_agents() - 1.5).abs() < 1e-9);
    }
}
