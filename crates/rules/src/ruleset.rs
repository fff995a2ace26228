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
//!
//! A sweep ([`RuleSet::fire_ready`]) visits only the *woken* rules, in
//! install order. A rule starts woken; an event it triggers on wakes it
//! when the event occurs or advances, and `refire` wakes the rules whose
//! marks it clears. A sweep puts a rule back to sleep once
//! it finds its triggers not fresh, or fires it. Those are the only ways a
//! rule's triggers can turn fresh, so every rule a full sweep would fire
//! is woken, and each sweep returns exactly what the full sweep returns.
//! Two cases need care:
//! - a rule held back only by its guard stays woken, because data changes
//!   post no event;
//! - `invalidate_event` clears marks but wakes nothing: a rule on the
//!   invalidated kind cannot be ready until the kind is present again, and
//!   both ways back (`add_event`, an advancing `merge_event`) wake it.

use crate::event::{EventKind, EventState};
use crate::rule::{Action, Rule, Trigger};
use crew_model::{DataEnv, Expr, StepId, VecMap};

/// One entry of a [`RuleSet::fire_ready`] sweep: the action of a rule that
/// fired.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// Action taken when the rule fires.
    pub action: Action,
}

/// Per-instance rule set + event table.
///
/// ```
/// use crew_rules::{Action, EventKind, Rule, RuleSet};
/// use crew_model::{DataEnv, StepId};
///
/// let mut rs = RuleSet::new();
/// rs.add_rule(Rule::new(
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
    /// In install order, which is the order a sweep fires them in.
    rules: Vec<Rule>,
    events: EventTable,
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

    /// Install a rule (the `AddRule()` primitive) after the ones already
    /// installed.
    pub fn add_rule(&mut self, rule: Rule) {
        // Exact fit, like `VecMap`: an agent installs its one or two rules
        // per instance one at a time.
        self.rules.reserve_exact(1);
        self.rules.push(rule);
    }

    /// Install every rule of a compiled template (cloning), e.g. when a
    /// workflow packet first reaches an agent and the instance's rules are
    /// instantiated from the workflow class table.
    pub fn add_rules<'a>(&mut self, rules: impl IntoIterator<Item = &'a Rule>) {
        self.rules.extend(rules.into_iter().cloned());
    }

    /// Wake every rule that triggers on `kind`: an occurrence of it may
    /// have made them ready.
    fn wake(&mut self, kind: EventKind) {
        for rule in &mut self.rules {
            if rule.triggers_on(kind) {
                rule.woken = true;
            }
        }
    }

    /// Clear the firing marks of the rules that start `step`, so they can
    /// fire again on the events they already consumed — used when a
    /// rollback re-executes the step without re-delivering its (still
    /// valid) trigger events.
    pub fn refire(&mut self, step: StepId) {
        for rule in &mut self.rules {
            if rule.action == Action::StartStep(step) {
                rule.clear_marks();
                rule.woken = true;
            }
        }
    }

    // ---- AddEvent() ------------------------------------------------------

    /// Post an occurrence of `kind` (the `AddEvent()` primitive): bumps the
    /// generation and (re)validates the event. Returns the new generation.
    pub fn add_event(&mut self, kind: EventKind) -> u32 {
        self.wake(kind);
        let st = self.events.entry(kind).or_default();
        st.generation += 1;
        st.valid = true;
        st.generation
    }

    /// Merge an event occurrence carried by a workflow packet: occurrences
    /// are numbered (generations), so the merge is idempotent across the
    /// eligible-agent broadcast yet still delivers *fresh* occurrences —
    /// which is what re-fires downstream rules after a rollback
    /// re-executes (or reuses) upstream steps, and what drives loop
    /// iterations across agents. Only a higher generation advances the
    /// table: an occurrence a rollback invalidated stays void when a
    /// packet re-delivers it. Returns `true` if the local table advanced.
    pub fn merge_event(&mut self, kind: EventKind, generation: u32) -> bool {
        let st = self.events.entry(kind).or_default();
        let advanced = generation > st.generation;
        if advanced {
            st.generation = generation;
            st.valid = true;
            self.wake(kind);
        }
        advanced
    }

    /// Merge every occurrence a workflow packet carries ([`merge_event`]
    /// each, in order), growing the event table once for the kinds it
    /// lacks. `events` name distinct kinds, as a packet's do.
    ///
    /// [`merge_event`]: RuleSet::merge_event
    pub fn merge_events(&mut self, events: &[(EventKind, u32)]) {
        self.events
            .reserve_missing(events.iter().map(|(kind, _)| kind));
        for &(kind, generation) in events {
            self.merge_event(kind, generation);
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

    /// Make room for `n` more event kinds in one allocation — what a host
    /// that knows the schema does at instantiation, so the table does not
    /// grow one kind at a time.
    pub fn reserve_events(&mut self, n: usize) {
        self.events.reserve(n);
    }

    /// The event table: every kind seen, with its state.
    pub fn events(&self) -> &VecMap<EventKind, EventState> {
        &self.events
    }

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
        for rule in &mut self.rules {
            if rule.triggers_on(kind) {
                rule.clear_marks();
            }
        }
    }

    // ---- firing ----------------------------------------------------------

    /// Fire every rule whose trigger events are all present with fresh
    /// generations and whose guard holds over `env`. Fired rules mark the
    /// consumed generations (so one occurrence fires a rule at most once)
    /// and their actions are returned in install order.
    ///
    /// Only woken rules are checked (see the module docs): a rule whose
    /// triggers are not fresh, and a rule that fires, go back to sleep; a
    /// rule whose guard alone holds it back stays woken.
    ///
    /// Guard evaluation errors count as `false`: a branch condition over
    /// data that is absent simply does not select that branch.
    pub fn fire_ready(&mut self, env: &DataEnv) -> Vec<Firing> {
        let events = &self.events;
        let holds = |guard: &Expr| guard.eval_bool(env).unwrap_or(false);
        let mut fired = Vec::new();
        // A firing posts no event, so no rule's readiness depends on the
        // rules swept before it.
        for rule in self.rules.iter_mut().filter(|rule| rule.woken) {
            if !is_ready_ignoring_guard(events, rule) {
                rule.woken = false;
                continue;
            }
            if !rule.guard.as_deref().is_none_or(holds) {
                continue;
            }
            for t in &mut rule.trigger {
                t.mark = events[&t.event].generation;
            }
            rule.woken = false;
            fired.push(Firing {
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

    /// The woken flag fits in a rule's padding.
    #[test]
    fn a_rule_is_five_words_and_a_rule_set_six() {
        assert_eq!(std::mem::size_of::<Rule>(), 40);
        assert_eq!(std::mem::size_of::<RuleSet>(), 48);
    }

    /// A sweep puts a rule whose triggers are not fresh to sleep and an
    /// event it triggers on wakes it; a guard-blocked rule stays woken.
    #[test]
    fn a_sweep_visits_the_rules_an_event_woke() {
        let mut rs = RuleSet::new();
        let done = |s| EventKind::StepDone(StepId(s));
        rs.add_rule(Rule::new(vec![done(1)], Action::StartStep(StepId(2))));
        rs.add_rule(
            Rule::new(vec![done(3)], Action::StartStep(StepId(4)))
                .with_guard(Expr::gt(Expr::item(ItemKey::input(1)), Expr::lit(0))),
        );
        let woken = |rs: &RuleSet| rs.rules.iter().map(|r| r.woken).collect::<Vec<_>>();
        assert_eq!(woken(&rs), [true, true], "a new rule starts woken");
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        assert_eq!(woken(&rs), [false, false]);
        rs.add_event(done(3));
        assert_eq!(woken(&rs), [false, true]);
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        assert_eq!(woken(&rs), [false, true], "held back by its guard only");
        assert_eq!(rs.fire_ready(&env_with(1, 1)).len(), 1);
        assert_eq!(woken(&rs), [false, false], "a fired rule sleeps");
        rs.refire(StepId(4));
        assert_eq!(woken(&rs), [false, true]);
    }

    #[test]
    fn simple_fire_once_per_occurrence() {
        let mut rs = RuleSet::new();
        rs.add_rule(Rule::new(
            vec![EventKind::WorkflowStart],
            Action::StartStep(StepId(1)),
        ));
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        rs.add_event(EventKind::WorkflowStart);
        let fired = rs.fire_ready(&DataEnv::new());
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].action, Action::StartStep(StepId(1)));
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
                vec![EventKind::StepDone(StepId(2))],
                Action::StartStep(StepId(3)),
            )
            .with_guard(Expr::gt(Expr::item(key), Expr::lit(10))),
        );
        rs.add_rule(
            Rule::new(
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
            Rule::new(vec![EventKind::WorkflowStart], Action::StartStep(StepId(1)))
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
            vec![EventKind::StepDone(StepId(1))],
            Action::StartStep(StepId(2)),
        ));
        rs.add_event(EventKind::StepDone(StepId(1)));
        assert_eq!(rs.fire_ready(&DataEnv::new()).len(), 1);
        // Rollback: S1's completion is no longer a fact.
        rs.invalidate_event(EventKind::StepDone(StepId(1)));
        assert!(!rs.has_event(EventKind::StepDone(StepId(1))));
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        // Re-execution of S1 posts a fresh occurrence and re-triggers S2's rule.
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
    /// invalidating any one trigger voids the whole firing, and `refire`
    /// re-arms the rule on occurrences it already consumed.
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
        rs.add_rule(join.rule);
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

        // Invalidating one trigger voids the firing: a re-delivery of the
        // voided occurrence does not re-establish it, and once a fresh one
        // occurs the rule fires on the other triggers' already-consumed
        // occurrences.
        rs.invalidate_event(b);
        assert_eq!(fires(&mut rs), 0);
        let voided = rs.event_state(b).generation;
        assert!(!rs.merge_event(b, voided));
        assert_eq!(fires(&mut rs), 0);
        assert!(rs.merge_event(b, voided + 1));
        assert_eq!(fires(&mut rs), 1);
        assert_eq!(fires(&mut rs), 0);

        // refire re-arms on what is present, exactly once, and only the
        // rules that start the named step.
        rs.refire(s[3]);
        assert_eq!(fires(&mut rs), 0);
        rs.refire(s[4]);
        assert_eq!(fires(&mut rs), 1);
        assert_eq!(fires(&mut rs), 0);
    }

    /// A packet's events merge as they would one by one, and the table
    /// grows once, to exactly the kinds it then holds.
    #[test]
    fn merge_events_is_merge_event_in_order_into_an_exact_table() {
        let done = |s| EventKind::StepDone(StepId(s));
        let packet = [(EventKind::WorkflowStart, 1), (done(1), 2), (done(3), 1)];
        let (mut one_by_one, mut batch) = (RuleSet::new(), RuleSet::new());
        for rs in [&mut one_by_one, &mut batch] {
            rs.add_event(done(1));
            rs.add_event(done(2));
        }
        for &(kind, generation) in &packet {
            one_by_one.merge_event(kind, generation);
        }
        batch.merge_events(&packet);
        assert_eq!(batch.events(), one_by_one.events());
        assert_eq!(batch.events().len(), 4);
        assert_eq!(batch.events().capacity(), 4);
    }
}
