//! The rule set of one workflow instance: the run-time realization of the
//! paper's general-rule table, pending-rule table and event table (§4.2),
//! together with the three implementation-level primitives `AddRule()`,
//! `AddEvent()` and `AddPrecondition()` (§3, Figure 4).
//!
//! In distributed control every agent keeps one `RuleSet` per instance it
//! participates in, holding only the rules for the steps it is responsible
//! for plus any coordination rules installed by peers. In centralized
//! control the engine keeps the complete rule set of each instance.

use crate::event::{EventKind, EventState};
use crate::rule::{Action, Rule, RuleId};
use crew_model::DataEnv;
use std::collections::BTreeMap;

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
    rules: BTreeMap<RuleId, Rule>,
    events: BTreeMap<EventKind, EventState>,
    next_rule: u32,
    /// Total rule firings — a component of the node's navigation load.
    firings: u64,
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
                r.fired_marks.clear();
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

    /// Post `kind` only if it is not already present — used when folding the
    /// cumulative event list of an arriving workflow packet into the local
    /// event table (re-deliveries of the same packet must not double-count).
    pub fn add_event_if_absent(&mut self, kind: EventKind) -> bool {
        let st = self.events.entry(kind).or_default();
        if st.is_present() {
            false
        } else {
            st.generation += 1;
            st.valid = true;
            true
        }
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

    // ---- AddPrecondition() -----------------------------------------------

    /// Require an additional event before `rule` may fire (the
    /// `AddPrecondition()` primitive). Returns `false` if the rule does not
    /// exist (e.g. already fired and removed).
    pub fn add_precondition(&mut self, rule: RuleId, kind: EventKind) -> bool {
        match self.rules.get_mut(&rule) {
            Some(r) => {
                if !r.trigger.contains(&kind) {
                    r.trigger.push(kind);
                }
                true
            }
            None => false,
        }
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
        // on its other, still-present triggers — e.g. coordination guard
        // events — whose generations were already consumed.)
        for rule in self.rules.values_mut() {
            if rule.trigger.contains(&kind) {
                rule.fired_marks.clear();
            }
        }
    }

    /// Discard rules whose trigger references `kind` — the paper's "rules in
    /// the pending rule table from which the invalidated step.done events
    /// have been deleted are discarded to ensure that incorrect rules will
    /// not be fired". Returns the removed rule ids.
    pub fn discard_rules_waiting_on(&mut self, kind: EventKind) -> Vec<RuleId> {
        let doomed: Vec<RuleId> = self
            .rules
            .iter()
            .filter(|(_, r)| r.trigger.contains(&kind) && !self.rule_is_ready_ignoring_guard(r))
            .map(|(&id, _)| id)
            .collect();
        for id in &doomed {
            self.rules.remove(id);
        }
        doomed
    }

    /// All present (valid, occurred) events — what a workflow packet carries
    /// onward as its cumulative event list.
    pub fn present_events(&self) -> Vec<EventKind> {
        self.events
            .iter()
            .filter(|(_, st)| st.is_present())
            .map(|(&k, _)| k)
            .collect()
    }

    // ---- firing ----------------------------------------------------------

    fn rule_is_ready_ignoring_guard(&self, rule: &Rule) -> bool {
        rule.trigger.iter().all(|kind| {
            let st = self.event_state(*kind);
            let mark = rule.fired_marks.get(kind).copied().unwrap_or(0);
            st.is_present() && st.generation > mark
        })
    }

    /// Fire every rule whose trigger events are all present with fresh
    /// generations and whose guard holds over `env`. Fired rules mark the
    /// consumed generations (so one occurrence fires a rule at most once)
    /// and their actions are returned in rule-id order.
    ///
    /// Guard evaluation errors count as `false`: a branch condition over
    /// data that is absent simply does not select that branch.
    pub fn fire_ready(&mut self, env: &DataEnv) -> Vec<Firing> {
        let mut fired = Vec::new();
        // Deterministic order: ascending rule id. Collect first to appease
        // the borrow checker, then mark.
        let candidates: Vec<RuleId> = self
            .rules
            .values()
            .filter(|r| self.rule_is_ready_ignoring_guard(r))
            .filter(|r| match &r.guard {
                None => true,
                Some(g) => g.eval_bool(env).unwrap_or(false),
            })
            .map(|r| r.id)
            .collect();
        for id in candidates {
            // Re-check readiness: an earlier firing in this sweep cannot
            // invalidate events, but keep the invariant locally obvious.
            let Some(rule) = self.rules.get(&id) else {
                continue;
            };
            if !self.rule_is_ready_ignoring_guard(rule) {
                continue;
            }
            let marks: Vec<(EventKind, u32)> = rule
                .trigger
                .iter()
                .map(|k| (*k, self.event_state(*k).generation))
                .collect();
            let action = rule.action.clone();
            let rule = self.rules.get_mut(&id).expect("present");
            for (k, gen) in marks {
                rule.fired_marks.insert(k, gen);
            }
            self.firings += 1;
            fired.push(Firing { rule: id, action });
        }
        fired
    }

    // ---- introspection ---------------------------------------------------

    /// Look up a rule by id.
    pub fn rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(&id)
    }

    /// Rules.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.values()
    }

    /// Total firings so far (a load indicator).
    pub fn total_firings(&self) -> u64 {
        self.firings
    }

    /// The *pending-rule table*: rules that are not currently ready, with
    /// the events still missing for each. The distributed agent's
    /// predecessor-failure timeout scans this for rules blocked on exactly
    /// one `step.done`.
    pub fn pending_rules(&self) -> Vec<(RuleId, Vec<EventKind>)> {
        self.rules
            .values()
            .filter(|r| !self.rule_is_ready_ignoring_guard(r))
            .map(|r| {
                let missing: Vec<EventKind> = r
                    .trigger
                    .iter()
                    .filter(|k| {
                        let st = self.event_state(**k);
                        let mark = r.fired_marks.get(k).copied().unwrap_or(0);
                        !(st.is_present() && st.generation > mark)
                    })
                    .copied()
                    .collect();
                (r.id, missing)
            })
            .collect()
    }

    /// Has `rule` already consumed the current occurrence of `kind`?
    /// (`None` if the rule does not exist or does not trigger on `kind`.)
    pub fn trigger_consumed(&self, id: RuleId, kind: EventKind) -> Option<bool> {
        let rule = self.rules.get(&id)?;
        if !rule.trigger.contains(&kind) {
            return None;
        }
        let st = self.event_state(kind);
        let mark = rule.fired_marks.get(&kind).copied().unwrap_or(0);
        Some(mark >= st.generation)
    }

    /// Rules currently blocked on exactly one missing event of the given
    /// predicate — helper for the `StepStatus` polling protocol.
    pub fn blocked_on_single(&self, pred: impl Fn(EventKind) -> bool) -> Vec<(RuleId, EventKind)> {
        self.pending_rules()
            .into_iter()
            .filter_map(|(id, missing)| match missing.as_slice() {
                [only] if pred(*only) => Some((id, *only)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{Expr, ItemKey, StepId, Value};

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
        assert_eq!(rs.total_firings(), 2);
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
        let pending = rs.pending_rules();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].1, vec![EventKind::StepDone(StepId(2))]);
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
    fn add_precondition_blocks_until_external_event() {
        let mut rs = RuleSet::new();
        let id = rs.add_rule(Rule::new(
            RuleId(0),
            vec![EventKind::StepDone(StepId(1))],
            Action::StartStep(StepId(2)),
        ));
        // Coordinated execution: S2 must additionally wait for an external
        // event from the leading workflow (Figure 4).
        assert!(rs.add_precondition(id, EventKind::External(7)));
        rs.add_event(EventKind::StepDone(StepId(1)));
        assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        rs.add_event(EventKind::External(7));
        assert_eq!(rs.fire_ready(&DataEnv::new()).len(), 1);
        // Unknown rule id reports failure.
        assert!(!rs.add_precondition(RuleId(99), EventKind::External(1)));
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
    fn add_event_if_absent_dedupes_packet_merges() {
        let mut rs = RuleSet::new();
        assert!(rs.add_event_if_absent(EventKind::StepDone(StepId(1))));
        assert!(!rs.add_event_if_absent(EventKind::StepDone(StepId(1))));
        assert_eq!(rs.event_state(EventKind::StepDone(StepId(1))).generation, 1);
        // After invalidation the merge counts again.
        rs.invalidate_event(EventKind::StepDone(StepId(1)));
        assert!(rs.add_event_if_absent(EventKind::StepDone(StepId(1))));
        assert_eq!(rs.event_state(EventKind::StepDone(StepId(1))).generation, 2);
    }

    #[test]
    fn discard_rules_waiting_on_invalidated_events() {
        let mut rs = RuleSet::new();
        let pending = rs.add_rule(Rule::new(
            RuleId(0),
            vec![
                EventKind::StepDone(StepId(1)),
                EventKind::StepDone(StepId(9)),
            ],
            Action::StartStep(StepId(3)),
        ));
        let satisfied = rs.add_rule(Rule::new(
            RuleId(0),
            vec![EventKind::StepDone(StepId(1))],
            Action::StartStep(StepId(2)),
        ));
        rs.add_event(EventKind::StepDone(StepId(1)));
        let removed = rs.discard_rules_waiting_on(EventKind::StepDone(StepId(9)));
        assert_eq!(removed, vec![pending]);
        assert!(rs.rule(satisfied).is_some());
    }

    #[test]
    fn blocked_on_single_finds_poll_candidates() {
        let mut rs = RuleSet::new();
        rs.add_rule(Rule::new(
            RuleId(0),
            vec![EventKind::StepDone(StepId(1))],
            Action::StartStep(StepId(2)),
        ));
        rs.add_rule(Rule::new(
            RuleId(0),
            vec![
                EventKind::StepDone(StepId(3)),
                EventKind::StepDone(StepId(4)),
            ],
            Action::StartStep(StepId(5)),
        ));
        let hits = rs.blocked_on_single(|k| matches!(k, EventKind::StepDone(_)));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, EventKind::StepDone(StepId(1)));
    }

    #[test]
    fn present_events_round_trip() {
        let mut rs = RuleSet::new();
        rs.add_event(EventKind::WorkflowStart);
        rs.add_event(EventKind::StepDone(StepId(1)));
        rs.invalidate_event(EventKind::StepDone(StepId(1)));
        assert_eq!(rs.present_events(), vec![EventKind::WorkflowStart]);
    }
}
