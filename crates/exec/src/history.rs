//! Per-instance execution history.
//!
//! OCR needs "additional data that correspond to the previous execution of
//! the steps" (§6): the inputs and outputs of each completed execution, the
//! order steps executed in (compensation dependent sets compensate in
//! *reverse execution order*), and each step's current state. Both the
//! central engine and distributed agents keep this in their step status
//! tables; in distributed control each agent holds the records of the steps
//! it executed.

use crew_model::{StepId, StepState, Value, VecMap};

/// The recorded facts of a step's most recent completed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// The step this entry concerns.
    pub step: StepId,
    /// 1-based attempt number of the recorded execution.
    pub attempt: u32,
    /// Global execution sequence number within the instance (assigned in
    /// completion order) — the basis for reverse-execution-order
    /// compensation.
    pub seq: u64,
    /// The input values the execution consumed (in declaration order).
    pub inputs: Vec<Option<Value>>,
    /// The outputs it produced.
    pub outputs: Vec<Value>,
    /// Current state.
    pub state: StepState,
}

/// Execution history of one workflow instance (or the locally-known slice
/// of it at a distributed agent).
#[derive(Debug, Clone, Default)]
pub struct InstanceHistory {
    /// Per step: the attempts made so far, including failed ones (drives
    /// `pf` first-attempt semantics and rollback retry budgets; 0 = none),
    /// and the record of its most recent execution. One table, so a step
    /// costs one entry however much is known of it (DESIGN.md §6j).
    steps: VecMap<StepId, (u32, Option<StepRecord>)>,
    next_seq: u64,
}

impl InstanceHistory {
    /// Create a new, empty value.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `n` more steps in one allocation.
    pub fn reserve(&mut self, n: usize) {
        self.steps.reserve(n);
    }

    /// `step`'s entry, opened empty on first use.
    fn entry(&mut self, step: StepId) -> &mut (u32, Option<StepRecord>) {
        self.steps.entry(step).or_insert((0, None))
    }

    /// Allocate the next attempt number for `step`.
    pub fn begin_attempt(&mut self, step: StepId) -> u32 {
        let (attempts, record) = self.entry(step);
        *attempts += 1;
        if let Some(rec) = record {
            rec.state = StepState::Executing;
        }
        *attempts
    }

    /// Restore `step`'s attempt counter to a journaled value, so a
    /// recovered node neither re-grants spent retries nor re-fires
    /// first-attempt failures.
    pub fn restore_attempts(&mut self, step: StepId, attempts: u32) {
        self.entry(step).0 = attempts;
    }

    /// Record a successful completion.
    pub fn record_done(
        &mut self,
        step: StepId,
        attempt: u32,
        inputs: Vec<Option<Value>>,
        outputs: Vec<Value>,
    ) -> &StepRecord {
        self.next_seq += 1;
        let rec = StepRecord {
            step,
            attempt,
            seq: self.next_seq,
            inputs,
            outputs,
            state: StepState::Done,
        };
        self.entry(step).1.insert(rec)
    }

    /// Record a failed attempt.
    pub fn record_failed(&mut self, step: StepId) {
        self.next_seq += 1;
        let seq = self.next_seq;
        let (attempts, record) = self.entry(step);
        match record {
            Some(rec) => rec.state = StepState::Failed,
            None => {
                *record = Some(StepRecord {
                    step,
                    attempt: (*attempts).max(1),
                    seq,
                    inputs: Vec::new(),
                    outputs: Vec::new(),
                    state: StepState::Failed,
                })
            }
        }
    }

    /// Mark a step compensated (its record is kept — OCR may still compare
    /// against the old inputs on re-execution).
    pub fn record_compensated(&mut self, step: StepId) {
        if let Some((_, Some(rec))) = self.steps.get_mut(&step) {
            rec.state = StepState::Compensated;
        }
    }

    /// Current state of `step`.
    pub fn state(&self, step: StepId) -> StepState {
        self.record(step)
            .map(|r| r.state)
            .unwrap_or(StepState::NotExecuted)
    }

    /// The recorded execution of `step`, if any.
    pub fn record(&self, step: StepId) -> Option<&StepRecord> {
        self.steps.get(&step).and_then(|(_, rec)| rec.as_ref())
    }

    /// Attempts made for `step` so far.
    pub fn attempts(&self, step: StepId) -> u32 {
        self.steps.get(&step).map_or(0, |(attempts, _)| *attempts)
    }

    /// Steps currently in `Done` state, most recent first — the order
    /// compensation walks.
    pub fn done_steps_reverse_order(&self) -> Vec<StepId> {
        let mut done: Vec<&StepRecord> =
            self.iter().filter(|r| r.state == StepState::Done).collect();
        done.sort_by_key(|r| std::cmp::Reverse(r.seq));
        done.into_iter().map(|r| r.step).collect()
    }

    /// Of the given set, the members that are `Done`, in reverse execution
    /// order — the `CompensateSet` walk order.
    pub fn members_reverse_order(&self, members: &[StepId]) -> Vec<StepId> {
        let mut done: Vec<&StepRecord> = members
            .iter()
            .filter_map(|s| self.record(*s))
            .filter(|r| r.state == StepState::Done)
            .collect();
        done.sort_by_key(|r| std::cmp::Reverse(r.seq));
        done.into_iter().map(|r| r.step).collect()
    }

    /// Iterate over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &StepRecord> {
        self.steps.values().filter_map(|(_, rec)| rec.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_counter_increments() {
        let mut h = InstanceHistory::new();
        assert_eq!(h.begin_attempt(StepId(1)), 1);
        assert_eq!(h.begin_attempt(StepId(1)), 2);
        assert_eq!(h.begin_attempt(StepId(2)), 1);
        assert_eq!(h.attempts(StepId(1)), 2);
    }

    #[test]
    fn state_transitions() {
        let mut h = InstanceHistory::new();
        assert_eq!(h.state(StepId(1)), StepState::NotExecuted);
        let a = h.begin_attempt(StepId(1));
        h.record_done(StepId(1), a, vec![], vec![Value::Int(1)]);
        assert_eq!(h.state(StepId(1)), StepState::Done);
        h.record_compensated(StepId(1));
        assert_eq!(h.state(StepId(1)), StepState::Compensated);
        h.begin_attempt(StepId(2));
        h.record_failed(StepId(2));
        assert_eq!(h.state(StepId(2)), StepState::Failed);
    }

    #[test]
    fn reverse_order_follows_completion_sequence() {
        let mut h = InstanceHistory::new();
        for s in [3, 1, 2] {
            let a = h.begin_attempt(StepId(s));
            h.record_done(StepId(s), a, vec![], vec![]);
        }
        assert_eq!(
            h.done_steps_reverse_order(),
            vec![StepId(2), StepId(1), StepId(3)]
        );
        assert_eq!(
            h.members_reverse_order(&[StepId(1), StepId(3)]),
            vec![StepId(1), StepId(3)]
        );
    }

    #[test]
    fn compensated_steps_leave_reverse_order() {
        let mut h = InstanceHistory::new();
        for s in [1, 2] {
            let a = h.begin_attempt(StepId(s));
            h.record_done(StepId(s), a, vec![], vec![]);
        }
        h.record_compensated(StepId(2));
        assert_eq!(h.done_steps_reverse_order(), vec![StepId(1)]);
    }

    #[test]
    fn reexecution_replaces_record_and_seq() {
        let mut h = InstanceHistory::new();
        let a = h.begin_attempt(StepId(1));
        h.record_done(StepId(1), a, vec![Some(Value::Int(1))], vec![]);
        let first_seq = h.record(StepId(1)).unwrap().seq;
        let a2 = h.begin_attempt(StepId(2));
        h.record_done(StepId(2), a2, vec![], vec![]);
        let a3 = h.begin_attempt(StepId(1));
        h.record_done(StepId(1), a3, vec![Some(Value::Int(9))], vec![]);
        let rec = h.record(StepId(1)).unwrap();
        assert!(rec.seq > first_seq);
        assert_eq!(rec.attempt, 2);
        assert_eq!(h.done_steps_reverse_order(), vec![StepId(1), StepId(2)]);
    }
}
