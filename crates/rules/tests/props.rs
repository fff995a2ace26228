//! Property tests over the rule engine: firing discipline under arbitrary
//! event sequences, invalidation/reset laws, packet-merge semantics, and
//! the woken-rule sweep against a full sweep of every rule.

use crew_model::{DataEnv, Expr, ItemKey, StepId, Value};
use crew_rules::{Action, EventKind, EventState, Rule, RuleSet};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

fn ev(i: u8) -> EventKind {
    EventKind::StepDone(StepId(i as u32 % 5 + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A rule never fires more times than the minimum occurrence count of
    /// its trigger events (each firing consumes one occurrence of each).
    #[test]
    fn firings_bounded_by_occurrences(seq in proptest::collection::vec(0u8..10, 0..60)) {
        let mut rs = RuleSet::new();
        let trigger = vec![ev(0), ev(1)];
        rs.add_rule(Rule::new(trigger.clone(), Action::StartStep(StepId(9))));
        let mut fired = 0u32;
        let mut counts = [0u32; 2];
        for e in seq {
            let kind = ev(e);
            rs.add_event(kind);
            for (i, t) in trigger.iter().enumerate() {
                if *t == kind {
                    counts[i] += 1;
                }
            }
            fired += rs.fire_ready(&DataEnv::new()).len() as u32;
        }
        prop_assert!(fired <= counts[0].min(counts[1]),
            "fired {fired}, occurrences {counts:?}");
    }

    /// merge_event is monotone and idempotent: replaying any prefix of
    /// merges leaves the table identical to the direct application.
    #[test]
    fn merge_event_idempotent(gens in proptest::collection::vec((0u8..4, 1u32..6), 0..30)) {
        let mut a = RuleSet::new();
        let mut b = RuleSet::new();
        for (e, g) in &gens {
            a.merge_event(ev(*e), *g);
            b.merge_event(ev(*e), *g);
            b.merge_event(ev(*e), *g); // replay
        }
        for e in 0u8..4 {
            prop_assert_eq!(a.event_state(ev(e)), b.event_state(ev(e)));
        }
    }

    /// Invalidate, then merge: after invalidation the event is absent; a
    /// packet re-delivering the voided generation (or an older one) leaves
    /// it absent, and only a higher generation re-establishes it and lets
    /// dependent rules fire exactly once more.
    #[test]
    fn invalidate_then_merge_fires_once(gen in 1u32..5) {
        let mut rs = RuleSet::new();
        rs.add_rule(Rule::new(vec![ev(0)], Action::StartStep(StepId(9))));
        for _ in 0..gen {
            rs.add_event(ev(0));
        }
        let first = rs.fire_ready(&DataEnv::new()).len();
        prop_assert_eq!(first, 1, "one firing per sweep regardless of pending gens");
        rs.invalidate_event(ev(0));
        prop_assert!(!rs.has_event(ev(0)));
        prop_assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        for stale in 1..=gen {
            prop_assert!(!rs.merge_event(ev(0), stale));
        }
        prop_assert!(!rs.has_event(ev(0)));
        prop_assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        prop_assert!(rs.merge_event(ev(0), gen + 1));
        prop_assert_eq!(rs.fire_ready(&DataEnv::new()).len(), 1);
        prop_assert!(rs.fire_ready(&DataEnv::new()).is_empty());
    }
}

// ---- the woken-rule sweep against the full sweep ---------------------------

/// Kinds 0..4: `workflow.start` and `step.done` of S1..S3, few enough that
/// random operations keep landing on the same kinds and generations.
fn kind(i: u8) -> EventKind {
    match i % 4 {
        0 => EventKind::WorkflowStart,
        s => EventKind::StepDone(StepId(u32::from(s))),
    }
}

/// The guard data changes flip: `WF.I1`.
fn guard_item() -> ItemKey {
    ItemKey::input(1)
}

/// A rule: trigger kinds, guard (0: none, 1: `I1 > 0`, 2: `I1 <= 0`, which
/// is false while `I1` is absent), and the step it starts.
#[derive(Debug, Clone)]
struct RuleSpec {
    trigger: Vec<u8>,
    guard: u8,
    step: u32,
}

impl RuleSpec {
    fn guard(&self) -> Option<Expr> {
        let item = Expr::item(guard_item());
        match self.guard % 3 {
            0 => None,
            1 => Some(Expr::gt(item, Expr::lit(0))),
            _ => Some(Expr::le(item, Expr::lit(0))),
        }
    }

    fn rule(&self) -> Rule {
        let rule = Rule::new(
            self.trigger.iter().map(|&k| kind(k)).collect(),
            Action::StartStep(StepId(self.step)),
        );
        match self.guard() {
            Some(g) => rule.with_guard(g),
            None => rule,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    AddRule(RuleSpec),
    AddEvent(u8),
    MergeEvent(u8, u32),
    MergeEvents(Vec<(u8, u32)>),
    Invalidate(u8),
    Refire(u32),
    /// Set `I1` (`None`: remove it), which flips guards without an event.
    SetData(Option<i64>),
    Fire,
}

fn rule_spec() -> impl Strategy<Value = RuleSpec> {
    (proptest::collection::vec(0u8..4, 1..=3), 0u8..3, 1u32..4).prop_map(
        |(trigger, guard, step)| RuleSpec {
            trigger,
            guard,
            step,
        },
    )
}

/// One operation, drawn with sweeps the most frequent: a selector picks
/// the operation and the other parts are its arguments.
fn op() -> impl Strategy<Value = Op> {
    let args = (0u8..4, 0u32..4, -2i64..2);
    let packet = proptest::collection::vec((0u8..4, 0u32..4), 0..4);
    (0u8..20, args, rule_spec(), packet).prop_map(
        |(select, (k, g, v), spec, packet)| match select {
            0 => Op::AddRule(spec),
            1..=3 => Op::AddEvent(k),
            4..=6 => Op::MergeEvent(k, g),
            7 => Op::MergeEvents(packet),
            8 | 9 => Op::Invalidate(k),
            10 | 11 => Op::Refire(g % 3 + 1),
            12 | 13 => Op::SetData((v >= -1).then_some(v)),
            _ => Op::Fire,
        },
    )
}

/// One rule of the reference: its triggers with their marks, guard and
/// step.
struct FullRule {
    trigger: Vec<(EventKind, u32)>,
    guard: Option<Expr>,
    step: StepId,
}

/// The reference rule set: every sweep checks every rule.
#[derive(Default)]
struct FullSweep {
    rules: Vec<FullRule>,
    events: BTreeMap<EventKind, EventState>,
}

impl FullSweep {
    fn state(&self, kind: EventKind) -> EventState {
        self.events.get(&kind).copied().unwrap_or_default()
    }

    fn clear_marks(&mut self, which: impl Fn(&FullRule) -> bool) {
        for rule in self.rules.iter_mut().filter(|r| which(r)) {
            for t in &mut rule.trigger {
                t.1 = 0;
            }
        }
    }

    fn add_rule(&mut self, spec: &RuleSpec) {
        self.rules.push(FullRule {
            trigger: spec.trigger.iter().map(|&k| (kind(k), 0)).collect(),
            guard: spec.guard(),
            step: StepId(spec.step),
        });
    }

    fn add_event(&mut self, kind: EventKind) {
        let st = self.events.entry(kind).or_default();
        st.generation += 1;
        st.valid = true;
    }

    fn merge_event(&mut self, kind: EventKind, generation: u32) -> bool {
        let st = self.events.entry(kind).or_default();
        let advanced = generation > st.generation;
        if advanced {
            st.generation = generation;
            st.valid = true;
        }
        advanced
    }

    fn invalidate_event(&mut self, kind: EventKind) {
        if let Some(st) = self.events.get_mut(&kind) {
            st.valid = false;
        }
        self.clear_marks(|r| r.trigger.iter().any(|t| t.0 == kind));
    }

    fn refire(&mut self, step: StepId) {
        self.clear_marks(|r| r.step == step);
    }

    fn fire_ready(&mut self, env: &DataEnv) -> Vec<StepId> {
        let events = &self.events;
        let fresh = |&(kind, mark): &(EventKind, u32)| {
            let st = events.get(&kind).copied().unwrap_or_default();
            st.is_present() && st.generation > mark
        };
        let mut fired = Vec::new();
        for rule in &mut self.rules {
            let holds = rule
                .guard
                .as_ref()
                .is_none_or(|g| g.eval_bool(env).unwrap_or(false));
            if !rule.trigger.iter().all(fresh) || !holds {
                continue;
            }
            for t in &mut rule.trigger {
                t.1 = events[&t.0].generation;
            }
            fired.push(rule.step);
        }
        fired
    }
}

/// A `RuleSet` and the reference driven side by side over one data table.
#[derive(Default)]
struct Twins {
    woken: RuleSet,
    full: FullSweep,
    data: DataEnv,
}

impl Twins {
    /// Apply `op` to both; a sweep returns the steps both fired, in order.
    fn apply(&mut self, op: &Op) -> Result<Vec<StepId>, TestCaseError> {
        match op {
            Op::AddRule(spec) => {
                self.woken.add_rule(spec.rule());
                self.full.add_rule(spec);
            }
            Op::AddEvent(k) => {
                self.woken.add_event(kind(*k));
                self.full.add_event(kind(*k));
            }
            &Op::MergeEvent(k, g) => {
                prop_assert_eq!(
                    self.woken.merge_event(kind(k), g),
                    self.full.merge_event(kind(k), g)
                );
            }
            Op::MergeEvents(packet) => {
                let packet: BTreeMap<EventKind, u32> =
                    packet.iter().map(|&(k, g)| (kind(k), g)).collect();
                let packet: Vec<(EventKind, u32)> = packet.into_iter().collect();
                self.woken.merge_events(&packet);
                for &(k, g) in &packet {
                    self.full.merge_event(k, g);
                }
            }
            Op::Invalidate(k) => {
                self.woken.invalidate_event(kind(*k));
                self.full.invalidate_event(kind(*k));
            }
            &Op::Refire(step) => {
                self.woken.refire(StepId(step));
                self.full.refire(StepId(step));
            }
            &Op::SetData(Some(v)) => self.data.set(guard_item(), Value::Int(v)),
            Op::SetData(None) => {
                self.data.remove(&guard_item());
            }
            Op::Fire => {
                let fired: Vec<StepId> = (self.woken.fire_ready(&self.data).into_iter())
                    .map(|f| {
                        let Action::StartStep(step) = f.action;
                        step
                    })
                    .collect();
                prop_assert_eq!(&fired, &self.full.fire_ready(&self.data));
                return Ok(fired);
            }
        }
        for (kind, st) in self.woken.events() {
            prop_assert_eq!(*st, self.full.state(*kind));
        }
        prop_assert_eq!(self.woken.events().len(), self.full.events.len());
        Ok(Vec::new())
    }

    fn run(&mut self, ops: &[Op]) -> Result<Vec<Vec<StepId>>, TestCaseError> {
        let mut sweeps = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let at = |e| TestCaseError::fail(format!("operation {i}, {op:?}: {e}"));
            let fired = self.apply(op).map_err(at)?;
            if matches!(op, Op::Fire) {
                sweeps.push(fired);
            }
        }
        Ok(sweeps)
    }
}

fn on(trigger: &[u8], guard: u8, step: u32) -> Op {
    Op::AddRule(RuleSpec {
        trigger: trigger.to_vec(),
        guard,
        step,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every sweep of the woken rules fires what a sweep of every rule
    /// fires, in install order, whatever events, merges, invalidations,
    /// re-arms, guard flips and new rules came before it.
    #[test]
    fn a_woken_sweep_fires_what_the_full_sweep_fires(
        rules in proptest::collection::vec(rule_spec(), 1..6),
        ops in proptest::collection::vec(op(), 0..80),
    ) {
        let mut twins = Twins::default();
        let template: Vec<Rule> = rules.iter().map(RuleSpec::rule).collect();
        twins.woken.add_rules(&template);
        for spec in &rules {
            twins.full.add_rule(spec);
        }
        twins.run(&ops)?;
        twins.apply(&Op::Fire)?;
    }
}

/// A rule whose event has occurred but whose guard fails stays pending
/// across sweeps and fires, once, when the data arrives with no new event.
#[test]
fn a_guard_blocked_rule_fires_once_data_arrives() {
    let mut twins = Twins::default();
    let sweeps = twins
        .run(&[
            on(&[0], 1, 1),
            Op::AddEvent(0),
            Op::Fire,
            Op::Fire,
            Op::SetData(Some(0)),
            Op::Fire,
            Op::SetData(Some(1)),
            Op::Fire,
            Op::Fire,
        ])
        .unwrap();
    let s1 = vec![StepId(1)];
    assert_eq!(sweeps, [vec![], vec![], vec![], s1, vec![]]);
}

/// `refire` re-arms a rule on the occurrences it already consumed: it
/// fires again with no new event, once.
#[test]
fn a_rule_refire_rearms_fires_again_with_no_new_event() {
    let mut twins = Twins::default();
    let sweeps = twins
        .run(&[
            on(&[0], 0, 1),
            on(&[1, 2], 0, 2),
            Op::AddEvent(0),
            Op::AddEvent(1),
            Op::AddEvent(2),
            Op::Fire,
            Op::Fire,
            Op::Refire(2),
            Op::Fire,
            Op::Fire,
        ])
        .unwrap();
    let (s1, s2) = (StepId(1), StepId(2));
    assert_eq!(sweeps, [vec![s1, s2], vec![], vec![s2], vec![]]);
}
