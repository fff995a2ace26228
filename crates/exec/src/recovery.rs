//! Failure handling, decided once: what a rollback, an abort, an input
//! change, a branch switch and an OCR revisit come to (§5.2, Figure 5).
//!
//! The paper's failure protocols are one set of semantics with two
//! transports. An engine applies each decision in place; distributed agents
//! split it across `WorkflowRollback` → `HaltThread`, the `CompensateSet`
//! and `CompensateThread` chains and `StepCompensate`. The methods here, on
//! the navigator of an instance (or of the slice of it a node holds),
//! return each decision as a value, and the shells only send and journal
//! it. Where the two transports know different things, the difference is
//! an argument, never a question about the caller (DESIGN §6g): [`Refire`]
//! is whose past firings a rollback voids at the node applying it,
//! [`Vantage`] whether the deciding node knows the execution history or
//! only the schema.
//!
//! Every list of steps to undo is in the order they are undone.

use crate::coord::Request;
use crate::deploy::Deployment;
use crate::nav::{input_change_origin, voids, InstanceNav};
use crate::ocr::OcrDecision;
use crew_model::{InstanceId, ItemKey, SplitKind, StepId, Value, WorkflowSchema};
use crew_rules::EventKind;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Whose past rule firing a rollback voids at the node applying it, so
/// that it fires again, as a revisit, on the events it already consumed.
/// Only the origin's: every re-execution and every reuse posts a fresh
/// `step.done` occurrence, which the steps downstream fire on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refire {
    /// The origin is here (an engine, or the origin's agent): its rule
    /// fires again.
    Origin,
    /// The origin is elsewhere (an agent a `HaltThread` probe, or a packet
    /// that follows the rollback, reached): no rule fires again here until
    /// a fresh occurrence arrives.
    Downstream,
}

/// What the node deciding a compensation knows of where and when steps
/// ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vantage {
    /// The whole execution history (an engine): undo what ran, newest
    /// first.
    History,
    /// The schema alone (an agent): every candidate, last in topological
    /// order first; each holder undoes its step only if it ran there.
    Schema,
}

/// A rollback, as applied at one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rollback {
    /// The steps downstream of the origin; their `step.done` is void.
    pub invalidated: BTreeSet<StepId>,
    /// The linked instances rolled back with it, each to its origin.
    pub dependents: Vec<(InstanceId, StepId)>,
}

/// How a step whose rule fired re-establishes its effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Revisit {
    /// The previous results stand: re-assert `step.done`.
    Reuse,
    /// Run the program: nothing ran before, or nothing was rolled back.
    Execute,
    /// Undo `undo`, then run the step again.
    Compensate {
        /// The members of the step's compensation dependent set that ran
        /// after it, then the step itself.
        undo: Vec<StepId>,
        /// Whether the step itself is undone and redone incrementally.
        partial: bool,
    },
}

/// What an abort request comes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Abort {
    /// The instance committed first: the abort is rejected.
    Committed,
    /// The instance is aborted already.
    Repeated,
    /// The instance aborts now.
    Now {
        /// Withdraw from every mutex its schema names, in deployment order.
        releases: Vec<Request>,
        /// Then undo these steps.
        undo: Vec<StepId>,
    },
}

impl InstanceNav {
    /// Roll back to `origin` here (§5.2): invalidate the steps downstream
    /// of it, void the past firings `refire` names, end the waits of the
    /// steps rolled back here in the gate (they wait again when their rules
    /// re-fire), and, when `dependents`, name the linked instances a
    /// rollback past their dependency's source drags back. That is one
    /// level: a rollback a dependency caused passes `false`, so two linked
    /// instances never roll each other back in turn.
    pub fn roll_back(
        &mut self,
        dep: &Deployment,
        instance: InstanceId,
        origin: StepId,
        refire: Refire,
        dependents: bool,
    ) -> Rollback {
        let invalidated = self.invalidate_from(dep.expect_schema(instance.schema), origin);
        let here = (refire == Refire::Origin).then_some(origin);
        self.refire(here);
        if let Some(gate) = self.gate.as_deref_mut() {
            gate.unpark(invalidated.iter().copied().chain(here));
        }
        let dependents = if dependents {
            (dep.rollback_dependents(instance, origin, &invalidated)).collect()
        } else {
            Vec::new()
        };
        Rollback {
            invalidated,
            dependents,
        }
    }

    /// What is stale of a packet whose sender had applied the rollbacks
    /// its `events` number: the steps a rollback applied here, and not by
    /// the sender, [`voids`]. Their facts, outputs and weights in the
    /// packet are void. Empty when the sender follows every rollback
    /// applied here, as in a fault-free run.
    pub fn voided_since(
        &self,
        schema: &WorkflowSchema,
        events: &[(EventKind, u32)],
    ) -> BTreeSet<StepId> {
        let mut voided = BTreeSet::new();
        for (&kind, here) in self.rules.events().iter() {
            let EventKind::Rollback(origin) = kind else {
                continue;
            };
            let sent = events.iter().find(|(k, _)| *k == kind);
            if sent.map_or(0, |&(_, n)| n) < here.generation {
                let steps = schema.steps().map(|d| d.id);
                voided.extend(steps.filter(|&s| voids(schema, origin, s)));
            }
        }
        voided
    }

    /// How `step`, whose rule fired, re-establishes its effects: OCR's
    /// choice (Figure 5) when a rollback left it to be revisited, undoing
    /// first the members of its compensation dependent set that ran after
    /// it (§3), as `vantage` knows them; a fresh run otherwise.
    pub fn revisit(
        &mut self,
        dep: &Deployment,
        instance: InstanceId,
        step: StepId,
        vantage: Vantage,
    ) -> Revisit {
        let schema = dep.expect_schema(instance.schema);
        let partial = match self.revisit_decision(schema.expect_step(step), instance, &dep.plan) {
            OcrDecision::Reuse => return Revisit::Reuse,
            OcrDecision::ExecuteFresh => return Revisit::Execute,
            OcrDecision::PartialCompensateIncrementalReexec => true,
            OcrDecision::CompleteCompensateCompleteReexec => false,
        };
        let set = schema.compensation_set_of(step).into_iter();
        let members = set.flat_map(|set| set.members.iter().copied());
        let mut undo = self.undo_order(schema, members, Some(step), vantage);
        undo.push(step);
        Revisit::Compensate { undo, partial }
    }

    /// Abort the instance, unless it committed or aborted first: the gate
    /// drops what waits and what is held, every mutex the schema names is
    /// released, and the compensatable steps are undone — under
    /// [`Vantage::History`] those that ran, newest first; under
    /// [`Vantage::Schema`] all of them in id order, since the coordination
    /// agent does not know where each ran and tells every eligible agent
    /// (§6).
    pub fn abort(&mut self, dep: &Deployment, instance: InstanceId, vantage: Vantage) -> Abort {
        if self.committed {
            return Abort::Committed;
        }
        if self.aborted {
            return Abort::Repeated;
        }
        self.aborted = true;
        if let Some(gate) = self.gate.as_deref_mut() {
            gate.abort();
        }
        let mut releases = Vec::new();
        for m in &dep.coordination.mutual_exclusions {
            let members = m.members.iter().filter(|s| s.schema == instance.schema);
            releases.extend(members.map(|s| Request::Release(m.id, s.step)));
        }
        let schema = dep.expect_schema(instance.schema);
        let compensatable = |s: &StepId| schema.expect_step(*s).is_compensatable();
        let mut undo = match vantage {
            Vantage::History => self.history.done_steps_reverse_order(),
            Vantage::Schema => schema.steps().map(|d| d.id).collect(),
        };
        undo.retain(compensatable);
        Abort::Now { releases, undo }
    }

    /// The rollback origin of a user's change to `new_inputs`, or `None`
    /// once the instance committed or aborted: the change is rejected.
    pub fn input_change(
        &self,
        schema: &WorkflowSchema,
        new_inputs: &[(ItemKey, Value)],
    ) -> Option<StepId> {
        (!self.committed && !self.aborted).then(|| input_change_origin(schema, new_inputs))
    }

    /// The steps to undo because completing `step` switched its XOR split
    /// to another branch (Figure 3): the abandoned branch up to the
    /// confluence, as `vantage` knows it. Empty when `step` is no XOR split
    /// or its choice stands.
    pub fn abandoned_branch(
        &mut self,
        schema: &WorkflowSchema,
        step: StepId,
        vantage: Vantage,
    ) -> Vec<StepId> {
        let xor = schema.split_kind(step) == Some(SplitKind::Xor);
        match xor.then(|| self.switch_branch(schema, step)).flatten() {
            Some(head) => self.undo_order(schema, schema.branch_steps(step, head), None, vantage),
            None => Vec::new(),
        }
    }

    /// Of `steps`, those to undo — when `after` is given, only the ones
    /// that ran after it — in the order they are undone.
    fn undo_order(
        &self,
        schema: &WorkflowSchema,
        steps: impl IntoIterator<Item = StepId>,
        after: Option<StepId>,
        vantage: Vantage,
    ) -> Vec<StepId> {
        match vantage {
            Vantage::History => {
                let seq = |s| self.history.record(s).map_or(0, |r| r.seq);
                let floor = after.map_or(0, seq);
                let steps: Vec<StepId> = steps.into_iter().collect();
                let mut undo = self.history.members_reverse_order(&steps);
                undo.retain(|&s| seq(s) > floor);
                undo
            }
            Vantage::Schema => {
                let floor = after.map(|s| schema.topo_rank(s));
                let later = |s: &StepId| floor.is_none_or(|f| schema.topo_rank(*s) > f);
                let mut undo: Vec<StepId> = steps.into_iter().filter(later).collect();
                undo.sort_by_key(|&s| Reverse(schema.topo_rank(s)));
                undo
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{Gate, Verdict};
    use crew_model::{
        AgentId, CompensationKind, CoordinationSpec, Expr, MutualExclusion, ReexecPolicy,
        RollbackDependency, SchemaBuilder, SchemaId, SchemaStep,
    };
    use crew_rules::{Action, EventKind, Rule};

    fn x() -> InstanceId {
        InstanceId::new(SchemaId(1), 1)
    }

    fn y() -> InstanceId {
        InstanceId::new(SchemaId(2), 1)
    }

    /// S1 → S2 ─xor→ {S3 → S4 while I1 > 10 | S5} ─xor→ S6, in topological
    /// order S1 S2 S3 S5 S4 S6. S2 reads I1 and S5 reads I2. Dependent set
    /// {S1, S2, S4}. S1, S2, S4 and S6 compensate (S1 partially); every step
    /// re-executes on a revisit but S3, which reuses. Mutex 7 names S4 and
    /// a step of WF2, mutex 3 names S2 and S6. Rolling `x` back past S2
    /// rolls its linked partner `y` back to its S1.
    fn fixture() -> (Deployment, [StepId; 6]) {
        let mut b = SchemaBuilder::new(SchemaId(1), "recovery").inputs(3);
        let s = [(); 6].map(|_| b.add_step("S", "passthrough"));
        let top = Expr::gt(Expr::item(ItemKey::input(1)), Expr::lit(10i64));
        b.seq(s[0], s[1]);
        b.xor_split(s[1], [(s[2], Some(top)), (s[4], None)]);
        b.seq(s[2], s[3]);
        b.xor_join([s[3], s[4]], s[5]);
        b.read(s[1], ItemKey::input(1))
            .read(s[4], ItemKey::input(2));
        b.compensation_set([s[0], s[1], s[3]]);
        for step in s {
            b.configure(step, |d| {
                d.reexec = ReexecPolicy::Always;
                if [s[0], s[1], s[3], s[5]].contains(&step) {
                    d.compensation_program = Some("undo".into());
                }
            });
        }
        b.configure(s[0], |d| d.compensation_kind = CompensationKind::Partial);
        b.configure(s[2], |d| d.reexec = ReexecPolicy::Never);
        b.default_agents(&[AgentId(0)]);
        let schema = b.build().expect("valid schema");
        assert_eq!(schema.topo_order(), [s[0], s[1], s[2], s[4], s[3], s[5]]);
        let mut dep = Deployment::new([schema]);
        let member = |schema, step: StepId| SchemaStep::new(SchemaId(schema), step);
        let mutex = |id, members| MutualExclusion {
            id,
            resource: format!("r{id}"),
            members,
        };
        dep.coordination = CoordinationSpec {
            mutual_exclusions: vec![
                mutex(7, vec![member(1, s[3]), member(2, StepId(1))]),
                mutex(3, vec![member(1, s[1]), member(1, s[5])]),
            ],
            rollback_dependencies: vec![RollbackDependency {
                id: 0,
                source: member(1, s[1]),
                dependent_schema: SchemaId(2),
                dependent_origin: StepId(1),
            }],
            ..CoordinationSpec::default()
        };
        dep.ro_links.link(x(), y());
        (dep, s)
    }

    /// `steps` completed, in order.
    fn ran(nav: &mut InstanceNav, steps: &[StepId]) {
        for &step in steps {
            let attempt = nav.history.begin_attempt(step);
            nav.history.record_done(step, attempt, vec![], vec![]);
        }
    }

    fn render(steps: &[StepId]) -> String {
        let steps: Vec<String> = steps.iter().map(StepId::to_string).collect();
        match steps.is_empty() {
            true => "-".into(),
            false => steps.join(" "),
        }
    }

    #[test]
    fn rollback_decisions() {
        use Refire::*;
        let (dep, s) = fixture();
        let cases = [
            (
                "an engine or the origin's agent re-fires the origin alone",
                (s[1], Origin, true),
                "invalidated S3 S4 S5 S6; refire S2; unpark S2 S4 S6; dependents WF2#1 to S1",
            ),
            (
                "a halted agent re-fires nothing and unparks downstream only",
                (s[1], Downstream, false),
                "invalidated S3 S4 S5 S6; refire -; unpark S4 S6; dependents -",
            ),
            (
                "a rollback a dependency caused drags no one back",
                (s[1], Origin, false),
                "invalidated S3 S4 S5 S6; refire S2; unpark S2 S4 S6; dependents -",
            ),
            (
                "a rollback past the dependency's source drags the partner back",
                (s[0], Origin, true),
                "invalidated S2 S3 S4 S5 S6; refire S1; unpark S2 S4 S6; dependents WF2#1 to S1",
            ),
            (
                "a rollback short of the source does not",
                (s[2], Origin, true),
                "invalidated S4 S6; refire S3; unpark S4 S6; dependents -",
            ),
        ];
        for (what, (origin, refire, dependents), want) in cases {
            let mut nav = InstanceNav::default();
            // Every step's rule has fired once, on an event no rollback
            // voids, and every guarded step is parked on its grant.
            for step in s {
                let start = Rule::new(vec![EventKind::WorkflowStart], Action::StartStep(step));
                nav.rules.add_rule(start);
            }
            nav.rules.add_event(EventKind::WorkflowStart);
            assert_eq!(nav.ready_steps().map(|a| a.len()), Some(6));
            nav.gate = Gate::wire(&dep, x(), |_| true);
            let gate = nav.gate.as_deref_mut().expect("x names mutexes");
            let guarded = [s[1], s[3], s[5]];
            for step in guarded {
                assert!(matches!(gate.check(step).1, Verdict::Send(_)));
                assert_eq!(gate.check(step).1, Verdict::Parked);
            }

            let rollback = nav.roll_back(&dep, x(), origin, refire, dependents);
            let invalidated: Vec<StepId> = rollback.invalidated.into_iter().collect();
            let refired = nav.ready_steps().unwrap_or_default();
            let gate = nav.gate.as_deref_mut().expect("still wired");
            let unparked: Vec<StepId> = (guarded.into_iter())
                .filter(|&step| gate.check(step).1 != Verdict::Parked)
                .collect();
            let dependents: Vec<String> = (rollback.dependents.iter())
                .map(|(partner, origin)| format!("{partner} to {origin}"))
                .collect();
            let got = format!(
                "invalidated {}; refire {}; unpark {}; dependents {}",
                render(&invalidated),
                render(&refired),
                render(&unparked),
                if dependents.is_empty() {
                    "-".into()
                } else {
                    dependents.join(", ")
                },
            );
            assert_eq!(got, want, "{what}");
        }
    }

    #[test]
    fn voided_since_decisions() {
        let (dep, s) = fixture();
        let schema = dep.expect_schema(SchemaId(1));
        let rollback = |step: StepId, n| (EventKind::Rollback(step), n);
        // (rollbacks applied here, the packet's events, steps void in it)
        type Case<'a> = (&'a [(EventKind, u32)], &'a [(EventKind, u32)], &'a str);
        let cases: [Case; 6] = [
            (&[], &[], "-"),
            (&[rollback(s[2], 1)], &[], "S3 S4 S6"),
            (&[rollback(s[2], 1)], &[rollback(s[2], 1)], "-"),
            (&[rollback(s[2], 2)], &[rollback(s[2], 1)], "S3 S4 S6"),
            // Only the rollback the sender missed voids anything.
            (
                &[rollback(s[1], 1), rollback(s[4], 1)],
                &[rollback(s[1], 1), (EventKind::StepDone(s[4]), 3)],
                "S5 S6",
            ),
            // A sender ahead of this node: the shell applies its rollback
            // first, so nothing here is newer than the packet.
            (&[rollback(s[2], 1)], &[rollback(s[2], 2)], "-"),
        ];
        for (here, sent, want) in cases {
            let mut nav = InstanceNav::default();
            nav.rules.merge_events(here);
            let got: Vec<StepId> = nav.voided_since(schema, sent).into_iter().collect();
            assert_eq!(render(&got), want, "{here:?} vs {sent:?}");
        }
    }

    #[test]
    fn revisit_decisions() {
        use Vantage::*;
        let (dep, s) = fixture();
        let (origin_s1, origin_s2) = (Some(s[0]), Some(s[1]));
        let full = [s[0], s[1], s[2], s[3]];
        // (what, steps that ran, rollback origin, revisited step, vantage,
        // decision)
        type Case<'a> = (
            &'a str,
            &'a [StepId],
            Option<StepId>,
            StepId,
            Vantage,
            &'a str,
        );
        let cases: [Case; 10] = [
            (
                "nothing rolled back: a loop iteration",
                &full,
                None,
                s[0],
                History,
                "execute",
            ),
            (
                "rolled back but never ran",
                &[s[0]],
                origin_s1,
                s[1],
                History,
                "execute",
            ),
            (
                "the revisit reuses",
                &full,
                origin_s1,
                s[2],
                History,
                "reuse",
            ),
            (
                "the set's later members first, newest first",
                &full,
                origin_s1,
                s[0],
                History,
                "undo S4 S2 S1 partially",
            ),
            (
                "the same chain from the schema",
                &full,
                origin_s1,
                s[0],
                Schema,
                "undo S4 S2 S1 partially",
            ),
            (
                "history leaves out what never ran",
                &[s[0], s[1], s[4]],
                origin_s1,
                s[0],
                History,
                "undo S2 S1 partially",
            ),
            (
                "the schema cannot",
                &[s[0], s[1], s[4]],
                origin_s1,
                s[0],
                Schema,
                "undo S4 S2 S1 partially",
            ),
            (
                "history follows what ran last",
                &[s[0], s[1], s[2], s[3], s[1]],
                origin_s1,
                s[0],
                History,
                "undo S2 S4 S1 partially",
            ),
            (
                "members before the step stay",
                &full,
                origin_s2,
                s[1],
                History,
                "undo S4 S2 completely",
            ),
            (
                "outside any set, the step alone",
                &[s[0], s[1], s[4]],
                origin_s2,
                s[4],
                Schema,
                "undo S5 completely",
            ),
        ];
        for (what, history, origin, step, vantage, want) in cases {
            let mut nav = InstanceNav::default();
            ran(&mut nav, history);
            if let Some(origin) = origin {
                nav.roll_back(&dep, x(), origin, Refire::Origin, false);
            }
            let got = match nav.revisit(&dep, x(), step, vantage) {
                Revisit::Reuse => "reuse".to_string(),
                Revisit::Execute => "execute".to_string(),
                Revisit::Compensate { undo, partial } => {
                    let how = if partial { "partially" } else { "completely" };
                    format!("undo {} {how}", render(&undo))
                }
            };
            assert_eq!(got, want, "{what}");
        }
    }

    #[test]
    fn abort_decisions() {
        use Vantage::*;
        let (dep, s) = fixture();
        let releases = "release 7 S4, 3 S2, 3 S6";
        // (state, steps that ran, vantage, verdict)
        let cases = [
            ("committed", &[s[0]][..], History, "rejected".to_string()),
            ("aborted", &[s[0]], History, "repeated".into()),
            (
                "executing",
                &[s[0], s[1], s[2], s[3], s[1]],
                History,
                format!("{releases}; undo S2 S4 S1"),
            ),
            (
                "executing",
                &[s[0], s[1], s[4]],
                History,
                format!("{releases}; undo S2 S1"),
            ),
            (
                "executing",
                &[s[0], s[1], s[4]],
                Schema,
                format!("{releases}; undo S1 S2 S4 S6"),
            ),
        ];
        for (state, history, vantage, want) in cases {
            let mut nav = InstanceNav::default();
            ran(&mut nav, history);
            nav.committed = state == "committed";
            nav.aborted = state == "aborted";
            let got = match nav.abort(&dep, x(), vantage) {
                Abort::Committed => "rejected".into(),
                Abort::Repeated => "repeated".into(),
                Abort::Now { releases, undo } => {
                    let releases: Vec<String> = (releases.iter())
                        .map(|r| match r {
                            Request::Release(req, step) => format!("{req} {step}"),
                            other => format!("{other:?}"),
                        })
                        .collect();
                    format!("release {}; undo {}", releases.join(", "), render(&undo))
                }
            };
            assert_eq!(got, want, "{state} {history:?} {vantage:?}");
            assert!(nav.committed || nav.aborted, "{state}: the verdict stands");
            assert_eq!(nav.ready_steps(), None, "an aborted instance is silent");
        }
    }

    #[test]
    fn input_change_decisions() {
        let (dep, s) = fixture();
        let schema = dep.expect_schema(SchemaId(1));
        // (state, changed input slots, origin)
        let cases: [(&str, &[u16], Option<StepId>); 5] = [
            ("executing", &[1], Some(s[1])),
            ("executing", &[2, 1], Some(s[1])),
            ("executing", &[3], Some(s[0])), // nobody reads it: the start step
            ("committed", &[1], None),
            ("aborted", &[1], None),
        ];
        for (state, slots, want) in cases {
            let mut nav = InstanceNav::default();
            nav.committed = state == "committed";
            nav.aborted = state == "aborted";
            let changed: Vec<(ItemKey, Value)> = (slots.iter())
                .map(|&k| (ItemKey::input(k), Value::Int(0)))
                .collect();
            assert_eq!(
                nav.input_change(schema, &changed),
                want,
                "{state} {slots:?}"
            );
        }
    }

    #[test]
    fn abandoned_branch_decisions() {
        use Vantage::*;
        let (dep, s) = fixture();
        let schema = dep.expect_schema(SchemaId(1));
        let (top, bottom) = (20, 5);
        // (I1 at the first choice, steps that ran, I1 now, completed step,
        // vantage, steps to undo)
        type Case<'a> = (i64, &'a [StepId], i64, StepId, Vantage, &'a str);
        let cases: [Case; 6] = [
            (top, &[s[2], s[3]], bottom, s[1], History, "S4 S3"),
            (top, &[s[2]], bottom, s[1], History, "S3"),
            (top, &[s[2]], bottom, s[1], Schema, "S4 S3"),
            (bottom, &[s[4]], top, s[1], History, "S5"),
            (top, &[s[2], s[3]], 30, s[1], History, "-"),
            (top, &[s[2], s[3]], bottom, s[0], Schema, "-"), // no XOR split
        ];
        for (first, history, now, step, vantage, want) in cases {
            let mut nav = InstanceNav::default();
            nav.data.set(ItemKey::input(1), Value::Int(first));
            assert_eq!(
                nav.abandoned_branch(schema, step, vantage),
                [],
                "the first choice"
            );
            ran(&mut nav, history);
            nav.data.set(ItemKey::input(1), Value::Int(now));
            let got = nav.abandoned_branch(schema, step, vantage);
            assert_eq!(render(&got), want, "{first} → {now} at {step}, {vantage:?}");
        }
    }

    #[test]
    fn compensation_bookkeeping_decisions() {
        let (dep, s) = fixture();
        let schema = dep.expect_schema(SchemaId(1));
        // Only a terminal's completion weight is retracted.
        for (step, retract) in [(s[0], false), (s[3], false), (s[4], false), (s[5], true)] {
            let mut nav = InstanceNav::default();
            nav.rules.add_event(EventKind::StepDone(step));
            assert_eq!(nav.compensated(schema, step), retract, "{step}");
            assert!(!nav.rules.has_event(EventKind::StepDone(step)));
        }
    }
}
