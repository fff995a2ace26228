//! The rule set of one workflow instance: the run-time realization of the
//! paper's general-rule table, pending-rule table and event table (§4.2),
//! together with the implementation-level primitives `AddRule()` and
//! `AddEvent()` (§3, Figure 4). The third, `AddPrecondition()`, is realized
//! by the instance's coordination gate: `crew_exec::Gate::wire` installs
//! every guard when the instance is created, and a step passes the gate
//! after its rule fires.
//!
//! In distributed control every agent keeps one `RuleSet` per instance it
//! participates in, holding only the rules for the steps it is responsible
//! for. In centralized control the engine keeps the complete rule set of
//! each instance.

use crate::event::{EventKind, EventState};
use crate::rule::{Action, Rule, RuleId, Trigger};
use crew_model::{DataEnv, Expr, VecMap};

/// Outcome of a [`RuleSet::fire_ready`] sweep: the rules that fired, in
/// order, with their actions.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// The rule that fired.
    pub rule: RuleId,
    /// Action taken when the rule fires.
    pub action: Action,
}

/// Per-instance rule set + event table.
///
/// ```
/// use crew_rules::{Action, EventKind, Rule, RuleId, RuleSet};
/// use crew_model::{DataEnv, StepId};
///
/// let mut rs = RuleSet::new();
/// rs.add_rule(Rule::new(
///     RuleId(0),
///     vec![EventKind::WorkflowStart],
///     Action::StartStep(StepId(1)),
/// ));
/// rs.add_event(EventKind::WorkflowStart);
/// let fired = rs.fire_ready(&DataEnv::new());
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].action, Action::StartStep(StepId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: VecMap<RuleId, Rule>,
    events: EventTable,
    next_rule: u32,
}

type EventTable = VecMap<EventKind, EventState>;

/// Is `t`'s event present with an occurrence its rule has not consumed?
fn is_fresh(events: &EventTable, t: &Trigger) -> bool {
    let st = events.get(&t.event).copied().unwrap_or_default();
    st.is_present() && st.generation > t.mark
}

fn is_ready_ignoring_guard(events: &EventTable, rule: &Rule) -> bool {
    rule.trigger.iter().all(|t| is_fresh(events, t))
}

impl RuleSet {
    /// Create a new, empty value.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- AddRule() -------------------------------------------------------

    /// Install a rule (the `AddRule()` primitive). The rule's id is
    /// reassigned to be unique in this set; the assigned id is returned.
    pub fn add_rule(&mut self, mut rule: Rule) -> RuleId {
        let id = RuleId(self.next_rule);
        self.next_rule += 1;
        rule.id = id;
        self.rules.insert(id, rule);
        id
    }

    /// Install every rule of a compiled template (cloning), e.g. when a
    /// workflow packet first reaches an agent and the instance's rules are
    /// instantiated from the workflow class table.
    pub fn add_rules<'a>(&mut self, rules: impl IntoIterator<Item = &'a Rule>) -> Vec<RuleId> {
        rules
            .into_iter()
            .map(|r| self.add_rule(r.clone()))
            .collect()
    }

    /// Clear a rule's firing marks so it can fire again on the events it
    /// already consumed — used when a rollback re-executes the rule's step
    /// without re-delivering its (still valid) trigger events.
    pub fn reset_rule(&mut self, id: RuleId) -> bool {
        match self.rules.get_mut(&id) {
            Some(r) => {
                r.clear_marks();
                true
            }
            None => false,
        }
    }

    // ---- AddEvent() ------------------------------------------------------

    /// Post an occurrence of `kind` (the `AddEvent()` primitive): bumps the
    /// generation and (re)validates the event.
    pub fn add_event(&mut self, kind: EventKind) {
        let st = self.events.entry(kind).or_default();
        st.generation += 1;
        st.valid = true;
    }

    /// Merge an event occurrence carried by a workflow packet: occurrences
    /// are numbered (generations), so the merge is idempotent across the
    /// eligible-agent broadcast yet still delivers *fresh* occurrences —
    /// which is what re-fires downstream rules after a rollback
    /// re-executes (or reuses) upstream steps, and what drives loop
    /// iterations across agents. Returns `true` if the local table
    /// advanced.
    pub fn merge_event(&mut self, kind: EventKind, generation: u32) -> bool {
        let st = self.events.entry(kind).or_default();
        if generation > st.generation {
            st.generation = generation;
            st.valid = true;
            true
        } else if generation == st.generation && st.generation > 0 && !st.valid {
            // Re-delivery of an occurrence we invalidated during rollback:
            // the fact is re-established without minting a new occurrence
            // (rules affected by the invalidation had their marks cleared,
            // so they fire exactly once on the revalidated generation).
            st.valid = true;
            true
        } else {
            false
        }
    }

    /// Re-validate an event occurrence without minting a new one — the
    /// OCR *reuse* outcome: the step's previous completion stands. Returns
    /// `true` if the event was invalid and is now valid again.
    pub fn revalidate_event(&mut self, kind: EventKind) -> bool {
        match self.events.get_mut(&kind) {
            Some(st) if st.generation > 0 && !st.valid => {
                st.valid = true;
                true
            }
            _ => false,
        }
    }

    /// Present events with their generations — the cumulative event list a
    /// workflow packet carries onward.
    pub fn present_events_with_gens(&self) -> Vec<(EventKind, u32)> {
        self.events
            .iter()
            .filter(|(_, st)| st.is_present())
            .map(|(&k, st)| (k, st.generation))
            .collect()
    }

    // ---- event table -----------------------------------------------------

    /// State of an event kind (default state if never seen).
    pub fn event_state(&self, kind: EventKind) -> EventState {
        self.events.get(&kind).copied().unwrap_or_default()
    }

    /// True if the event is present and valid.
    pub fn has_event(&self, kind: EventKind) -> bool {
        self.event_state(kind).is_present()
    }

    /// Invalidate an event (rollback: `step.done` of steps downstream of
    /// the rollback origin). Pending rules waiting on it effectively reset;
    /// rules that already consumed it will re-fire only after a fresh
    /// occurrence.
    pub fn invalidate_event(&mut self, kind: EventKind) {
        if let Some(st) = self.events.get_mut(&kind) {
            st.valid = false;
        }
        // A rule whose firing consumed the invalidated fact is void: clear
        // *all* its marks so it re-fires from whatever occurrences are
        // present once the invalidated event is re-established. (Clearing
        // only the invalidated event's mark would leave the rule blocked
        // on its other, still-present triggers, whose generations were
        // already consumed.)
        for rule in self.rules.values_mut() {
            if rule.triggers_on(kind) {
                rule.clear_marks();
            }
        }
    }

    // ---- firing ----------------------------------------------------------

    /// Fire every rule whose trigger events are all present with fresh
    /// generations and whose guard holds over `env`. Fired rules mark the
    /// consumed generations (so one occurrence fires a rule at most once)
    /// and their actions are returned in rule-id order.
    ///
    /// Guard evaluation errors count as `false`: a branch condition over
    /// data that is absent simply does not select that branch.
    pub fn fire_ready(&mut self, env: &DataEnv) -> Vec<Firing> {
        let events = &self.events;
        let holds = |guard: &Expr| guard.eval_bool(env).unwrap_or(false);
        let mut fired = Vec::new();
        // A firing posts no event, so no rule's readiness depends on the
        // rules swept before it.
        for rule in self.rules.values_mut() {
            if !is_ready_ignoring_guard(events, rule) || !rule.guard.as_deref().is_none_or(holds) {
                continue;
            }
            for t in &mut rule.trigger {
                t.mark = events[&t.event].generation;
            }
            fired.push(Firing {
                rule: rule.id,
                action: rule.action.clone(),
            });
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{ItemKey, StepId, Value};

    fn env_with(slot: u16, v: i64) -> DataEnv {
        let mut e = DataEnv::new();
        e.set(ItemKey::input(slot), Value::Int(v));
        e
    }

    #[test]
    fn simple_fire_once_per_occurrence() {
        let mut rs = RuleSet::new();
        let id = rs.add_rule(Rule::new(
            RuleId(0),
            vec![EventKind::WorkflowStart],
            Action::StartStep(StepId(1)),
        ));
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        rs.add_event(EventKind::WorkflowStart);
        let fired = rs.fire_ready(&DataEnv::new());
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, id);
        // Same occurrence does not fire twice.
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        // A fresh occurrence (loop) re-fires.
        rs.add_event(EventKind::WorkflowStart);
        assert_eq!(rs.fire_ready(&DataEnv::new()).len(), 1);
    }

    #[test]
    fn conjunction_waits_for_all_events() {
        let mut rs = RuleSet::new();
        rs.add_rule(Rule::new(
            RuleId(0),
            vec![
                EventKind::StepDone(StepId(1)),
                EventKind::StepDone(StepId(2)),
            ],
            Action::StartStep(StepId(3)),
        ));
        rs.add_event(EventKind::StepDone(StepId(1)));
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        rs.add_event(EventKind::StepDone(StepId(2)));
        assert_eq!(rs.fire_ready(&DataEnv::new()).len(), 1);
    }

    #[test]
    fn guard_selects_branch() {
        let mut rs = RuleSet::new();
        let key = ItemKey::input(1);
        rs.add_rule(
            Rule::new(
                RuleId(0),
                vec![EventKind::StepDone(StepId(2))],
                Action::StartStep(StepId(3)),
            )
            .with_guard(Expr::gt(Expr::item(key), Expr::lit(10))),
        );
        rs.add_rule(
            Rule::new(
                RuleId(0),
                vec![EventKind::StepDone(StepId(2))],
                Action::StartStep(StepId(4)),
            )
            .with_guard(Expr::le(Expr::item(key), Expr::lit(10))),
        );
        rs.add_event(EventKind::StepDone(StepId(2)));
        let fired = rs.fire_ready(&env_with(1, 42));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].action, Action::StartStep(StepId(3)));
    }

    #[test]
    fn guard_error_is_false_not_panic() {
        let mut rs = RuleSet::new();
        rs.add_rule(
            Rule::new(
                RuleId(0),
                vec![EventKind::WorkflowStart],
                Action::StartStep(StepId(1)),
            )
            .with_guard(Expr::gt(Expr::item(ItemKey::input(9)), Expr::lit(0))),
        );
        rs.add_event(EventKind::WorkflowStart);
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        // Data arrives later; the still-pending occurrence now fires.
        assert_eq!(rs.fire_ready(&env_with(9, 1)).len(), 1);
    }

    #[test]
    fn invalidate_resets_rules_for_reexecution() {
        let mut rs = RuleSet::new();
        rs.add_rule(Rule::new(
            RuleId(0),
            vec![EventKind::StepDone(StepId(1))],
            Action::StartStep(StepId(2)),
        ));
        rs.add_event(EventKind::StepDone(StepId(1)));
        assert_eq!(rs.fire_ready(&DataEnv::new()).len(), 1);
        // Rollback: S1's completion is no longer a fact.
        rs.invalidate_event(EventKind::StepDone(StepId(1)));
        assert!(!rs.has_event(EventKind::StepDone(StepId(1))));
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        // Re-execution of S1 revalidates and re-triggers S2's rule.
        rs.add_event(EventKind::StepDone(StepId(1)));
        assert_eq!(rs.fire_ready(&DataEnv::new()).len(), 1);
    }

    #[test]
    fn present_events_round_trip() {
        let mut rs = RuleSet::new();
        rs.add_event(EventKind::WorkflowStart);
        rs.add_event(EventKind::StepDone(StepId(1)));
        rs.invalidate_event(EventKind::StepDone(StepId(1)));
        assert_eq!(
            rs.present_events_with_gens(),
            vec![(EventKind::WorkflowStart, 1)]
        );
    }

    /// The firing marks of a multi-trigger rule through every operation
    /// that touches them, on the rule the compiler makes for an AND-join
    /// of three branches: one firing consumes the current occurrence of
    /// *every* trigger, a fresh occurrence of one trigger is not enough,
    /// invalidating any one trigger voids the whole firing, and
    /// `reset_rule` re-arms the rule on occurrences it already consumed.
    #[test]
    fn three_trigger_rule_fires_on_exactly_the_fresh_occurrences() {
        use crate::compile::compile_schema;
        use crew_model::{AgentId, SchemaBuilder, SchemaId};
        let mut b = SchemaBuilder::new(SchemaId(1), "and-join").inputs(1);
        let s = [(); 5].map(|_| b.add_step("S", "passthrough"));
        b.and_split(s[0], [s[1], s[2], s[3]]);
        b.and_join([s[1], s[2], s[3]], s[4]);
        b.default_agents(&[AgentId(0)]);
        let schema = b.build().expect("valid schema");
        let join = compile_schema(&schema)
            .into_iter()
            .find(|t| t.step == s[4])
            .expect("the join's rule");
        let [a, b, x] = [s[1], s[2], s[3]].map(EventKind::StepDone);
        let env = DataEnv::new();
        let mut rs = RuleSet::new();
        let id = rs.add_rule(join.rule);
        let fires = |rs: &mut RuleSet| rs.fire_ready(&env).len();

        rs.add_event(a);
        rs.add_event(a); // two occurrences of a, one of b: one firing
        rs.add_event(b);
        assert_eq!(fires(&mut rs), 0, "the third trigger has not occurred");
        rs.add_event(x);
        assert_eq!(fires(&mut rs), 1);
        assert_eq!(fires(&mut rs), 0, "a's second occurrence was consumed too");

        // A fresh occurrence of one trigger is not enough.
        rs.add_event(a);
        assert_eq!(fires(&mut rs), 0);
        rs.add_event(b);
        assert_eq!(fires(&mut rs), 0);
        rs.add_event(x);
        assert_eq!(fires(&mut rs), 1);

        // Invalidating one trigger voids the firing: once the fact is
        // re-established (same generation), the rule fires on the other
        // triggers' already-consumed occurrences.
        rs.invalidate_event(b);
        assert_eq!(fires(&mut rs), 0);
        assert!(rs.revalidate_event(b));
        assert_eq!(fires(&mut rs), 1);
        assert_eq!(fires(&mut rs), 0);

        // reset_rule re-arms on what is present, exactly once.
        assert!(rs.reset_rule(id));
        assert_eq!(fires(&mut rs), 1);
        assert_eq!(fires(&mut rs), 0);
        assert!(!rs.reset_rule(RuleId(9)));
    }
}
