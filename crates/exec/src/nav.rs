//! The per-instance navigator: every enactment decision, made once.
//!
//! The paper's claim is that rule-based enactment is architecture-neutral:
//! the same ECA rules, OCR decision, weight-based commit and rollback
//! semantics run under centralized, parallel and distributed control, and
//! §6 compares only *who holds the state and who is told*. [`InstanceNav`]
//! is that neutral core. It owns the navigation state of one workflow
//! instance (or the slice of it one distributed agent holds) and answers
//! each navigation question with a value — weights to forward, the
//! abandoned branch head, retry / rollback origin / abort, the steps a
//! rollback invalidated, commit-now — and [`crate::recovery`] composes these
//! into the failure-handling decisions. It never sends, journals or reads a
//! clock: the central engine and the distributed agent embed it and keep
//! only their transport-shaped shell around it.

use crate::coord::Gate;
use crate::failure::FailurePlan;
use crate::hash;
use crate::history::InstanceHistory;
use crate::ocr::{decide as ocr_decide, OcrDecision};
use crate::weight::Weight;
use crew_model::{
    AgentId, DataEnv, InstanceId, ItemKey, SchemaId, SplitKind, StepDef, StepId, Value, VecMap,
    VecSet, WorkflowSchema,
};
use crew_rules::{Action, EventKind, RuleSet};
use std::collections::BTreeSet;

/// Rollback budget per origin for failing steps without an explicit
/// rollback spec: the rollback that would be number `DEFAULT_MAX_ROLLBACKS`
/// aborts the workflow instead.
pub const DEFAULT_MAX_ROLLBACKS: u32 = 3;

/// What to do about a failed step attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureVerdict {
    /// The step's retry policy still has budget: run it again in place.
    Retry,
    /// Partially roll the workflow back to this origin step.
    RollbackTo(StepId),
    /// The origin's rollback budget is spent: abort the workflow.
    Abort,
}

/// Navigation state of one workflow instance.
#[derive(Debug, Default)]
pub struct InstanceNav {
    /// Rule table + event table.
    pub rules: RuleSet,
    /// The instance's data table.
    pub data: DataEnv,
    /// Execution history (what OCR compares a revisit against).
    pub history: InstanceHistory,
    /// Set by [`Self::commit_now`]; restored by the host on recovery.
    pub committed: bool,
    /// Set by the host's abort protocol; silences rule firing.
    pub aborted: bool,
    /// Parent linkage of a nested instance.
    pub parent: Option<(InstanceId, StepId)>,
    /// Incoming flow weight, keyed by (target step, source step), so joins
    /// sum over a target's sources and a re-execution replaces its slot
    /// instead of double-counting. The workflow's initial token uses
    /// source `StepId(0)`.
    weight_in: VecMap<(StepId, StepId), Weight>,
    /// Chosen branch head per XOR split.
    branch_choice: VecMap<StepId, StepId>,
    /// Rollbacks so far per origin step.
    rollback_counts: VecMap<StepId, u32>,
    /// Steps invalidated by a rollback and not yet revisited: the OCR
    /// decision applies exactly to these. A rule re-firing for a step not
    /// in this set is a fresh occurrence (a loop iteration) and executes.
    revisit_pending: VecSet<StepId>,
    /// Completion weight per terminal step (replace semantics: idempotent
    /// under re-execution, retractable by compensation).
    terminal_weights: VecMap<StepId, Weight>,
    /// Children launched and not yet completed, per nested step.
    pending_nested: VecMap<StepId, InstanceId>,
    /// What the held steps wait on and owe, for an instance some mutual
    /// exclusion or relative order names (`None` otherwise).
    pub gate: Option<Box<Gate>>,
}

impl InstanceNav {
    /// Size the instance's tables once, from its schema, before it runs:
    /// the history to a row per step, the event table to a kind per step
    /// plus `workflow.start`, the data table to the `inputs` plus every
    /// step's output slots, and the incoming weights to a slot per arc
    /// plus the initial token. The engine calls it at instantiation; a
    /// distributed agent holds a slice of an instance and keeps its
    /// tables exact-fit instead (DESIGN.md §6j).
    pub fn reserve_for(&mut self, schema: &WorkflowSchema, inputs: usize) {
        let steps = schema.step_count();
        let outputs: usize = schema.steps().map(|s| usize::from(s.output_slots)).sum();
        self.history.reserve(steps);
        self.rules.reserve_events(steps + 1);
        self.data.reserve(inputs + outputs);
        self.weight_in.reserve(schema.arcs().len() + 1);
    }

    // ---- rules -----------------------------------------------------------

    /// One sweep of the rule table over the current data: the steps the
    /// rules that fired start, or `None` once nothing fires or the
    /// instance is aborted. Hosts start the steps and call again.
    pub fn ready_steps(&mut self) -> Option<Vec<StepId>> {
        if self.aborted {
            return None;
        }
        let firings = self.rules.fire_ready(&self.data).into_iter();
        let steps: Vec<StepId> = firings
            .map(|f| {
                let Action::StartStep(step) = f.action;
                step
            })
            .collect();
        (!steps.is_empty()).then_some(steps)
    }

    // ---- step start ------------------------------------------------------

    /// How to (re-)establish `def`'s effects now that its rule fired: OCR
    /// is consulted only when a rollback left the step waiting to be
    /// revisited; any other firing executes fresh.
    pub(crate) fn revisit_decision(
        &mut self,
        def: &StepDef,
        instance: InstanceId,
        plan: &FailurePlan,
    ) -> OcrDecision {
        if self.revisit_pending.remove(&def.id) {
            ocr_decide(def, instance, &self.history, &self.data, plan)
        } else {
            OcrDecision::ExecuteFresh
        }
    }

    // ---- thread weights and commit ---------------------------------------

    /// Thread weight flowing through `step`: the sum of its per-source
    /// slots, 1 when nothing is recorded.
    pub fn flow_weight(&self, step: StepId) -> Weight {
        let slots = self.weight_in.iter().filter(|((to, _), _)| *to == step);
        let mut slots = slots.map(|(_, w)| w).peekable();
        match slots.peek() {
            Some(_) => sum(slots),
            None => Weight::ONE,
        }
    }

    /// Whether `step`'s rule fired before its own weight arrived: some
    /// forward predecessor's `step.done` is in the event table, but the
    /// weight that predecessor sent is not. A host that holds a slice of the
    /// instance sees this when the trigger outran the step's own packet
    /// (DESIGN.md §6l F10). A loop back-edge's slot replaces the head's
    /// others, so with one present nothing is missing; the start step has no
    /// forward predecessor.
    pub fn lacks_weight(&self, schema: &WorkflowSchema, step: StepId) -> bool {
        let slot = |from: StepId| self.weight_in.contains_key(&(step, from));
        let done = |from: StepId| self.rules.has_event(EventKind::StepDone(from));
        schema
            .forward_incoming(step)
            .any(|a| done(a.from) && !slot(a.from))
            && !schema.incoming(step).any(|a| a.loop_back && slot(a.from))
    }

    /// The weight each successor of the completed `step` receives: an
    /// AND-split divides the flow among its branches, every other arc
    /// (sequence, XOR branch, loop back-edge) carries it whole.
    pub fn outgoing_weights(&self, schema: &WorkflowSchema, step: StepId) -> Vec<(StepId, Weight)> {
        let flow = self.flow_weight(step);
        let forward: Vec<StepId> = schema.forward_outgoing(step).map(|a| a.to).collect();
        let branch = match schema.split_kind(step) {
            Some(SplitKind::And) if forward.len() > 1 => flow.split(forward.len() as u64),
            _ => flow,
        };
        let loops = schema.outgoing(step).filter(|a| a.loop_back);
        forward
            .into_iter()
            .map(|to| (to, branch))
            .chain(loops.map(|a| (a.to, flow)))
            .collect()
    }

    /// Record `weight` arriving at `target` from `source` (`None`: the
    /// workflow's initial token). A loop back-edge re-enters with the same
    /// thread, so it replaces the head's incoming weight outright; any
    /// other arc fills (or refreshes) its own slot.
    pub fn accept_weight(
        &mut self,
        schema: &WorkflowSchema,
        source: Option<StepId>,
        target: StepId,
        weight: Weight,
    ) {
        let via_loop_back =
            source.is_some_and(|src| schema.outgoing(src).any(|a| a.loop_back && a.to == target));
        if via_loop_back {
            self.weight_in.retain(|(to, _), _| *to != target);
        }
        let source = source.unwrap_or(StepId(0));
        self.weight_in.insert((target, source), weight);
    }

    /// True when one of `step`'s loop back-edges continues over the current
    /// data: the thread goes round again, so a terminal loop tail's
    /// completion does not count toward commit yet. A condition that errors
    /// counts as false, as for rule guards.
    pub fn loop_continues(&self, schema: &WorkflowSchema, step: StepId) -> bool {
        schema
            .outgoing(step)
            .filter(|a| a.loop_back)
            .filter_map(|a| a.condition.as_ref())
            .any(|c| c.eval_bool(&self.data).unwrap_or(false))
    }

    /// Account `weight` as terminal `step`'s completion weight
    /// (`Weight::ZERO` retracts a compensated terminal).
    pub fn set_terminal_weight(&mut self, step: StepId, weight: Weight) {
        self.terminal_weights.insert(step, weight);
    }

    /// True exactly once: when the terminal weights first total 1.
    pub fn commit_now(&mut self) -> bool {
        if self.committed || !sum(self.terminal_weights.values()).is_one() {
            return false;
        }
        self.committed = true;
        true
    }

    // ---- branches --------------------------------------------------------

    /// Evaluate XOR split `split` over the current data (first true
    /// condition, else the unconditioned arc) and remember the choice.
    /// Returns the previously chosen head when the choice changed — the
    /// branch to unwind.
    pub(crate) fn switch_branch(
        &mut self,
        schema: &WorkflowSchema,
        split: StepId,
    ) -> Option<StepId> {
        let mut chosen = None;
        let mut otherwise = None;
        for arc in schema.forward_outgoing(split) {
            match &arc.condition {
                Some(c) if chosen.is_none() && c.eval_bool(&self.data).unwrap_or(false) => {
                    chosen = Some(arc.to)
                }
                Some(_) => {}
                None => otherwise = Some(arc.to),
            }
        }
        let new_head = chosen.or(otherwise)?;
        self.branch_choice
            .insert(split, new_head)
            .filter(|old| *old != new_head)
    }

    // ---- failure, rollback, compensation ---------------------------------

    /// Decide what follows the failed `attempt` of `failed`: an in-place
    /// retry while the step's `retry(N)` budget allows one; otherwise a rollback to
    /// the designer's origin (the failed step itself without a spec),
    /// charged against that origin's budget; abort once it is spent.
    pub fn failure_verdict(
        &mut self,
        schema: &WorkflowSchema,
        failed: StepId,
        attempt: u32,
    ) -> FailureVerdict {
        // A budget of N allows N re-dispatches on top of the first attempt.
        if schema
            .expect_step(failed)
            .retry
            .is_some_and(|max| attempt <= max)
        {
            return FailureVerdict::Retry;
        }
        let (origin, max_attempts) = match schema.rollback_spec_for(failed) {
            Some(spec) => (spec.origin, spec.max_attempts),
            None => (failed, DEFAULT_MAX_ROLLBACKS),
        };
        let count = self.rollback_counts.entry(origin).or_default();
        *count += 1;
        if *count >= max_attempts {
            FailureVerdict::Abort
        } else {
            FailureVerdict::RollbackTo(origin)
        }
    }

    /// Apply a rollback to `origin`: every step downstream of it loses its
    /// `step.done` fact and awaits a revisit, and every weight the origin or
    /// an invalidated step sent is void. A weight a branch the rollback did
    /// not touch sent into an invalidated join stands. Returns the
    /// invalidated steps.
    pub(crate) fn invalidate_from(
        &mut self,
        schema: &WorkflowSchema,
        origin: StepId,
    ) -> BTreeSet<StepId> {
        let invalidated = schema.invalidation_set(origin);
        self.weight_in
            .retain(|(_, from), _| !voids(schema, origin, *from));
        for &s in &invalidated {
            self.rules.invalidate_event(EventKind::StepDone(s));
        }
        self.revisit_pending.extend(invalidated.iter().copied());
        invalidated
    }

    /// Void the past firings of `steps`' rules so they fire again on the
    /// events they already consumed, as revisits.
    pub(crate) fn refire(&mut self, steps: impl IntoIterator<Item = StepId>) {
        for step in steps {
            self.rules.refire(step);
            self.revisit_pending.insert(step);
        }
    }

    /// Bookkeeping once `step`'s effects are undone: `step.done` no longer
    /// holds, and the weight the step sent its successors is void (a branch
    /// switch must not leave the old branch's weight at the joins). Returns
    /// whether `step` is terminal: its completion weight is then retracted,
    /// as `Weight::ZERO`, where the terminal weights are kept.
    pub fn compensated(&mut self, schema: &WorkflowSchema, step: StepId) -> bool {
        self.rules.invalidate_event(EventKind::StepDone(step));
        for arc in schema.forward_outgoing(step) {
            self.weight_in.remove(&(arc.to, step));
        }
        schema.terminal_steps().contains(&step)
    }

    // ---- nested workflows ------------------------------------------------

    /// Begin nested step `def` of `instance`: the child instance to start
    /// and its inputs (the step's input bindings, renumbered as the
    /// child's workflow inputs). `None` while a child is already pending.
    pub fn launch_nested(
        &mut self,
        instance: InstanceId,
        def: &StepDef,
        child_schema: SchemaId,
    ) -> Option<(InstanceId, Vec<(ItemKey, Value)>)> {
        if self.pending_nested.contains_key(&def.id) {
            return None;
        }
        let child = InstanceId::new(child_schema, nested_instance_serial(instance, def.id));
        self.pending_nested.insert(def.id, child);
        let inputs = def
            .inputs
            .iter()
            .enumerate()
            .filter_map(|(i, k)| Some((ItemKey::input((i + 1) as u16), self.data.get(k)?.clone())))
            .collect();
        Some((child, inputs))
    }

    /// What a committed nested instance hands back to its parent: the
    /// outputs of its last executed terminal step (in topo order).
    pub fn nested_outputs(&self, schema: &WorkflowSchema) -> Vec<Value> {
        let mut terminals = schema.terminal_steps().iter().rev();
        terminals
            .find_map(|t| self.history.record(*t).map(|r| r.outputs.clone()))
            .unwrap_or_default()
    }

    /// Record the completion of nested step `def`'s child in the parent:
    /// the child's outputs become the step's outputs. Returns the attempt
    /// the completion counts as.
    pub fn record_child_done(&mut self, def: &StepDef, outputs: Vec<Value>) -> u32 {
        self.pending_nested.remove(&def.id);
        let attempt = self.history.begin_attempt(def.id);
        for (key, value) in declared_outputs(def, &outputs) {
            self.data.set(key, value.clone());
        }
        self.history.record_done(def.id, attempt, vec![], outputs);
        attempt
    }
}

/// Whether a rollback to `origin` voids the facts and weights `step`
/// produced: it does for the origin and its invalidation set. What a branch
/// the rollback did not touch produced stands, wherever it is held.
pub fn voids(schema: &WorkflowSchema, origin: StepId, step: StepId) -> bool {
    step == origin || schema.is_ancestor(origin, step)
}

fn sum<'a>(weights: impl Iterator<Item = &'a Weight>) -> Weight {
    weights.fold(Weight::ZERO, |acc, w| acc.plus(*w))
}

/// The data-table writes `outputs` of `def` amount to: slot numbering is
/// 1-based and outputs beyond the declared slot count are dropped.
pub fn declared_outputs<'a>(
    def: &'a StepDef,
    outputs: &'a [Value],
) -> impl Iterator<Item = (ItemKey, &'a Value)> {
    let declared = outputs.iter().take(def.output_slots as usize);
    declared
        .enumerate()
        .map(|(i, v)| (ItemKey::output(def.id, (i + 1) as u16), v))
}

/// The rollback origin of a user input change: the earliest step (topo
/// order) reading a changed key, the start step when none does.
pub(crate) fn input_change_origin(
    schema: &WorkflowSchema,
    new_inputs: &[(ItemKey, Value)],
) -> StepId {
    let reads_changed = |s: &StepId| {
        let keys = &schema.expect_step(*s).inputs;
        keys.iter()
            .any(|k| new_inputs.iter().any(|(changed, _)| changed == k))
    };
    let mut topo = schema.topo_order().iter().copied();
    topo.find(reads_changed).unwrap_or(schema.start_step())
}

/// The designated executor of a step execution: a deterministic rendezvous
/// hash over the eligible agents, keyed by (deployment seed, instance,
/// step). Every node computes the same answer with zero messages: the
/// engine dispatches the program there, and distributed agents — who all
/// receive the workflow packet — let only the designated one execute.
pub fn designated_agent(seed: u64, instance: InstanceId, def: &StepDef) -> AgentId {
    let e = &def.eligible_agents;
    assert!(!e.is_empty(), "step {} has no eligible agents", def.id);
    let h = hash::combine(
        seed,
        &[
            instance.schema.0 as u64,
            instance.serial as u64,
            def.id.0 as u64,
        ],
    );
    e[(h % e.len() as u64) as usize]
}

/// Child instance serial for a nested workflow launched by `parent` at
/// `step`. Deterministic and collision-free for the serial ranges the
/// harnesses use (serials < 2^20, steps < 2^10).
pub fn nested_instance_serial(parent: InstanceId, step: StepId) -> u32 {
    parent
        .serial
        .wrapping_mul(1009)
        .wrapping_add(step.0)
        .wrapping_add(0x4000_0000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{Expr, SchemaBuilder};
    use crew_rules::Rule;

    fn inst(serial: u32) -> InstanceId {
        InstanceId::new(SchemaId(1), serial)
    }

    fn build(b: SchemaBuilder) -> WorkflowSchema {
        let mut b = b;
        b.default_agents(&[AgentId(0)]);
        b.build().expect("valid schema")
    }

    /// S1 ─and→ {S2, S3} ─and→ S4 (terminal).
    fn diamond() -> (WorkflowSchema, [StepId; 4]) {
        let mut b = SchemaBuilder::new(SchemaId(1), "diamond").inputs(1);
        let s = [(); 4].map(|_| b.add_step("S", "passthrough"));
        b.and_split(s[0], [s[1], s[2]]);
        b.and_join([s[1], s[2]], s[3]);
        (build(b), s)
    }

    /// Complete `step` the way the engine does: forward its weights and
    /// accept them at the targets.
    fn complete(nav: &mut InstanceNav, schema: &WorkflowSchema, step: StepId) {
        for (to, w) in nav.outgoing_weights(schema, step) {
            nav.accept_weight(schema, Some(step), to, w);
        }
    }

    #[test]
    fn and_split_weights_rejoin_and_reexecution_replaces_its_slot() {
        let (schema, s) = diamond();
        let half = Weight::new(1, 2);
        let mut nav = InstanceNav::default();
        nav.accept_weight(&schema, None, s[0], Weight::ONE);
        assert_eq!(
            nav.outgoing_weights(&schema, s[0]),
            vec![(s[1], half), (s[2], half)]
        );
        // (completed steps in order, expected flow at the join)
        let cases: [(&[StepId], Weight); 4] = [
            (&[s[0], s[1]], half),
            (&[s[0], s[1], s[2]], Weight::ONE),
            // S2 re-executes after a rollback: its slot is replaced, not added.
            (&[s[0], s[1], s[2], s[1]], Weight::ONE),
            (&[s[0], s[1], s[2], s[0], s[1], s[2]], Weight::ONE),
        ];
        for (completed, at_join) in cases {
            let mut nav = InstanceNav::default();
            nav.accept_weight(&schema, None, s[0], Weight::ONE);
            for &step in completed {
                complete(&mut nav, &schema, step);
            }
            assert_eq!(nav.flow_weight(s[3]), at_join, "{completed:?}");
        }
        // Nothing recorded (takeover paths): the whole thread.
        assert_eq!(nav.flow_weight(s[3]), Weight::ONE);
    }

    #[test]
    fn loop_back_edge_replaces_the_heads_incoming_weight() {
        // S1 → S2 → S3, S3 ⟲ S2 while I1 > 0.
        let mut b = SchemaBuilder::new(SchemaId(1), "loop").inputs(1);
        let s = [(); 3].map(|_| b.add_step("S", "passthrough"));
        b.seq(s[0], s[1]).seq(s[1], s[2]);
        let again = Expr::gt(Expr::item(ItemKey::input(1)), Expr::lit(0i64));
        b.loop_back(s[2], s[1], again);
        let schema = build(b);
        let mut nav = InstanceNav::default();
        nav.accept_weight(&schema, None, s[0], Weight::ONE);
        complete(&mut nav, &schema, s[0]);
        for iteration in 0..3 {
            complete(&mut nav, &schema, s[1]);
            complete(&mut nav, &schema, s[2]);
            // Entry arc and back-edge never add up to 2.
            assert_eq!(nav.flow_weight(s[1]), Weight::ONE, "iteration {iteration}");
        }
        assert_eq!(
            nav.outgoing_weights(&schema, s[2]),
            vec![(s[1], Weight::ONE)]
        );
    }

    #[test]
    fn only_an_exiting_loop_tail_counts_toward_commit() {
        // S1 → S2, S2 ⟲ S1 while `cont`: S2 is a terminal loop tail.
        let i1 = || Expr::item(ItemKey::input(1));
        // (continue condition, I1, loop continues)
        let cases = [
            (Expr::lit(true), 0, true),
            (Expr::lit(false), 0, false),
            (Expr::lt(i1(), Expr::lit(3i64)), 2, true),
            (Expr::lt(i1(), Expr::lit(3i64)), 3, false),
            // Errors count as false: a non-boolean, then an unset item.
            (i1(), 1, false),
            (
                Expr::lt(Expr::item(ItemKey::input(2)), Expr::lit(3i64)),
                0,
                false,
            ),
        ];
        for (cont, input, continues) in cases {
            let mut b = SchemaBuilder::new(SchemaId(1), "loop").inputs(2);
            let s = [(); 2].map(|_| b.add_step("S", "passthrough"));
            b.seq(s[0], s[1]);
            b.loop_back(s[1], s[0], cont.clone());
            let schema = build(b);
            let mut nav = InstanceNav::default();
            nav.data.set(ItemKey::input(1), Value::Int(input));
            assert_eq!(schema.terminal_steps(), &[s[1]]);
            assert_eq!(
                nav.loop_continues(&schema, s[1]),
                continues,
                "{cont:?} at I1 = {input}"
            );
            assert!(!nav.loop_continues(&schema, s[0]), "no back-edge out of S1");
        }
    }

    #[test]
    fn terminal_weights_commit_exactly_once_and_retract() {
        let half = Weight::new(1, 2);
        let (t1, t2) = (StepId(1), StepId(2));
        // Reports in order: (terminal, weight, commit_now right after it).
        let cases: [&[(StepId, Weight, bool)]; 4] = [
            &[(t1, Weight::ONE, true)],
            &[(t1, half, false), (t2, half, true), (t2, half, false)],
            // A re-executed terminal replaces its weight: 1/2 + 1/2, not 3/2.
            &[(t1, half, false), (t1, half, false), (t2, half, true)],
            // A compensated terminal retracts; the other branch then has to
            // carry the whole thread.
            &[
                (t1, half, false),
                (t1, Weight::ZERO, false),
                (t2, half, false),
                (t2, Weight::ONE, true),
            ],
        ];
        for reports in cases {
            let mut nav = InstanceNav::default();
            for &(step, w, commit) in reports {
                nav.set_terminal_weight(step, w);
                assert_eq!(nav.commit_now(), commit, "{reports:?} at {step}");
            }
            assert!(nav.committed);
            assert!(!nav.commit_now(), "commit is reported once");
        }
    }

    #[test]
    fn xor_reevaluation_reports_the_abandoned_head_only_on_change() {
        // S1 ─xor→ S2 if I1 > 10, S3 if I1 > 5, else S4.
        let mut b = SchemaBuilder::new(SchemaId(1), "xor").inputs(1);
        let s = [(); 4].map(|_| b.add_step("S", "passthrough"));
        let over = |n: i64| Some(Expr::gt(Expr::item(ItemKey::input(1)), Expr::lit(n)));
        b.xor_split(s[0], [(s[1], over(10)), (s[2], over(5)), (s[3], None)]);
        let schema = build(b);
        let mut nav = InstanceNav::default();
        // (input, abandoned head) evaluated in sequence on one instance.
        let cases = [
            (20, None),       // first choice (S2: first true condition wins)
            (30, None),       // still S2
            (7, Some(s[1])),  // S2 → S3
            (7, None),        // unchanged
            (0, Some(s[2])),  // S3 → otherwise
            (20, Some(s[3])), // otherwise → S2
        ];
        for (input, abandoned) in cases {
            nav.data.set(ItemKey::input(1), Value::Int(input));
            assert_eq!(nav.switch_branch(&schema, s[0]), abandoned, "I1 = {input}");
        }
    }

    #[test]
    fn failure_verdict_retry_then_rollback_budget_then_abort() {
        // S1 → S2 → S3 → S4; S3 rolls back to S1 (budget 2), S4 retries
        // twice in place, S2 has neither.
        let mut b = SchemaBuilder::new(SchemaId(1), "fail").inputs(1);
        let s = [(); 4].map(|_| b.add_step("S", "passthrough"));
        b.seq(s[0], s[1]).seq(s[1], s[2]).seq(s[2], s[3]);
        b.on_failure_rollback_to_with_attempts(s[2], s[0], 2);
        b.configure(s[3], |d| d.retry = Some(2));
        let schema = build(b);
        use FailureVerdict::*;
        // (failed step, attempt) in sequence on one instance → verdict.
        let cases = [
            (s[1], 1, RollbackTo(s[1])), // no spec: the failed step itself
            (s[1], 2, RollbackTo(s[1])),
            (s[1], 3, Abort),            // rollback number DEFAULT_MAX_ROLLBACKS
            (s[2], 1, RollbackTo(s[0])), // the spec's origin
            (s[2], 2, Abort),            // the spec's budget
            (s[3], 1, Retry),
            (s[3], 2, Retry),
            (s[3], 3, RollbackTo(s[3])), // retries spent: rollback machinery
        ];
        let mut nav = InstanceNav::default();
        for (failed, attempt, verdict) in cases {
            assert_eq!(
                nav.failure_verdict(&schema, failed, attempt),
                verdict,
                "{failed} attempt {attempt}"
            );
        }
    }

    #[test]
    fn input_change_origin_is_the_earliest_reader() {
        // S1 reads I1, S2 reads I2, S3 reads I2 and I3, S4 reads nothing.
        let mut b = SchemaBuilder::new(SchemaId(1), "inputs").inputs(4);
        let s = [(); 4].map(|_| b.add_step("S", "passthrough"));
        b.seq(s[0], s[1]).seq(s[1], s[2]).seq(s[2], s[3]);
        b.read(s[0], ItemKey::input(1));
        b.read(s[1], ItemKey::input(2));
        b.read(s[2], ItemKey::input(2))
            .read(s[2], ItemKey::input(3));
        let schema = build(b);
        let cases: [(&[u16], StepId); 5] = [
            (&[1], s[0]),
            (&[2], s[1]),
            (&[3], s[2]),
            (&[3, 2], s[1]),
            (&[4], s[0]), // nobody reads it: the start step
        ];
        for (slots, origin) in cases {
            let changed: Vec<(ItemKey, Value)> = slots
                .iter()
                .map(|&k| (ItemKey::input(k), Value::Int(9)))
                .collect();
            assert_eq!(input_change_origin(&schema, &changed), origin, "{slots:?}");
        }
    }

    #[test]
    fn ocr_is_consulted_only_for_steps_a_rollback_left_pending() {
        let (schema, s) = diamond();
        let plan = FailurePlan::none();
        let mut nav = InstanceNav::default();
        for step in s {
            let a = nav.history.begin_attempt(step);
            nav.history.record_done(step, a, vec![], vec![]);
        }
        let decide = |nav: &mut InstanceNav, step| {
            nav.revisit_decision(schema.expect_step(step), inst(1), &plan)
        };
        // Done, unchanged inputs — yet a plain re-firing (a loop iteration)
        // executes: nothing was rolled back.
        assert_eq!(decide(&mut nav, s[1]), OcrDecision::ExecuteFresh);
        // Rollback to S2: only S4 is downstream; S2 itself is re-fired.
        assert_eq!(nav.invalidate_from(&schema, s[1]), BTreeSet::from([s[3]]));
        nav.refire([s[1]]);
        let expected = [
            (s[0], OcrDecision::ExecuteFresh), // upstream of the origin
            (s[2], OcrDecision::ExecuteFresh), // sibling branch
            (s[1], OcrDecision::Reuse),
            (s[3], OcrDecision::Reuse),
            (s[1], OcrDecision::ExecuteFresh), // the revisit was consumed
        ];
        for (step, decision) in expected {
            assert_eq!(decide(&mut nav, step), decision, "{step}");
        }
    }

    #[test]
    fn invalidation_voids_done_facts_weights_and_rule_firings() {
        let (schema, s) = diamond();
        let mut nav = InstanceNav::default();
        let trigger = EventKind::StepDone(s[0]);
        nav.rules
            .add_rule(Rule::new(vec![trigger], Action::StartStep(s[1])));
        nav.rules.add_event(trigger);
        nav.rules.add_event(EventKind::StepDone(s[3]));
        nav.accept_weight(&schema, Some(s[1]), s[3], Weight::new(1, 2));
        assert_eq!(nav.ready_steps(), Some(vec![s[1]]));
        assert_eq!(nav.ready_steps(), None, "one occurrence fires a rule once");

        nav.invalidate_from(&schema, s[1]);
        assert!(!nav.rules.has_event(EventKind::StepDone(s[3])));
        assert_eq!(nav.flow_weight(s[3]), Weight::ONE, "slots dropped");
        assert_eq!(nav.ready_steps(), None, "S2's trigger is still consumed");
        nav.refire([s[1]]);
        assert_eq!(nav.ready_steps(), Some(vec![s[1]]));

        nav.refire([s[1]]);
        nav.aborted = true;
        assert_eq!(nav.ready_steps(), None, "an aborted instance is silent");
    }

    #[test]
    fn compensation_leaves_only_the_standing_done_facts_and_voids_the_weight_it_sent() {
        let (schema, s) = diamond();
        let mut nav = InstanceNav::default();
        nav.accept_weight(&schema, None, s[0], Weight::ONE);
        for step in [s[0], s[1], s[2]] {
            nav.rules.add_event(EventKind::StepDone(step));
            complete(&mut nav, &schema, step);
        }
        nav.compensated(&schema, s[1]);
        assert_eq!(
            nav.rules.present_events_with_gens(),
            vec![
                (EventKind::StepDone(s[0]), 1),
                (EventKind::StepDone(s[2]), 1)
            ],
            "the compensation posts nothing; S2's done fact is gone"
        );
        assert_eq!(nav.flow_weight(s[3]), Weight::new(1, 2), "S3's half stays");
    }

    #[test]
    fn nested_launch_projects_inputs_and_completion_lands_in_the_parent() {
        let mut b = SchemaBuilder::new(SchemaId(1), "parent").inputs(2);
        let s1 = b.add_step("S1", "passthrough");
        let n = b.add_nested("N", SchemaId(2));
        b.seq(s1, n);
        b.read(n, ItemKey::output(s1, 1))
            .read(n, ItemKey::input(2))
            .read(n, ItemKey::input(1));
        let schema = build(b);
        let def = schema.expect_step(n);
        let mut nav = InstanceNav::default();
        nav.data.set(ItemKey::input(1), Value::Int(5));
        nav.data.set(ItemKey::output(s1, 1), Value::Int(7));

        let (child, inputs) = nav.launch_nested(inst(3), def, SchemaId(2)).expect("first");
        assert_eq!(
            child,
            InstanceId::new(SchemaId(2), nested_instance_serial(inst(3), n))
        );
        // Bindings are renumbered by position; an absent item stays absent.
        assert_eq!(
            inputs,
            vec![
                (ItemKey::input(1), Value::Int(7)),
                (ItemKey::input(3), Value::Int(5))
            ]
        );
        assert!(nav.launch_nested(inst(3), def, SchemaId(2)).is_none());

        // One declared output slot: the second value is dropped.
        nav.record_child_done(def, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(nav.data.get(&ItemKey::output(n, 1)), Some(&Value::Int(1)));
        assert_eq!(nav.data.get(&ItemKey::output(n, 2)), None);
        assert_eq!(nav.history.record(n).map(|r| r.attempt), Some(1));
        assert!(nav.launch_nested(inst(3), def, SchemaId(2)).is_some());

        // The parent's own hand-back: its last executed terminal's outputs.
        assert_eq!(
            nav.nested_outputs(&schema),
            vec![Value::Int(1), Value::Int(2)]
        );
        assert!(InstanceNav::default().nested_outputs(&schema).is_empty());
    }

    #[test]
    fn designation_is_deterministic_and_eligible() {
        let mut def = StepDef::new(StepId(2), "X", "p");
        def.eligible_agents = vec![AgentId(1), AgentId(4), AgentId(7)];
        let a = designated_agent(9, inst(3), &def);
        assert_eq!(a, designated_agent(9, inst(3), &def));
        assert!(def.eligible_agents.contains(&a));
        // Spread: different instances land on different agents eventually.
        let distinct: BTreeSet<AgentId> = (0..50)
            .map(|n| designated_agent(9, inst(n), &def))
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn nested_serials_distinct() {
        let a = nested_instance_serial(inst(5), StepId(2));
        assert_ne!(a, nested_instance_serial(inst(5), StepId(3)));
        assert_ne!(a, nested_instance_serial(inst(6), StepId(2)));
        // The engine used to OR the tag in; same id over the harness ranges.
        assert_eq!(a, (5u32 * 1009 + 2) | 0x4000_0000);
    }
}
