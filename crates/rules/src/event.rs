//! Workflow events.
//!
//! The rule-based run-time is driven by events (§3). A compiled rule waits
//! only on `workflow.start` and `step.done`. The one other kind an event
//! table holds, `step.rollback`, triggers no rule: it numbers a rollback
//! origin's rollbacks, so that a workflow packet says which of them its
//! sender had applied. The paper's `step.fail`, `step.compensate`,
//! `workflow.done` and `workflow.abort` trigger no rule here: failures and
//! compensations are `crew_exec::recovery`'s decisions, and commit and
//! abort are status rows.
//!
//! Events are scoped to one workflow instance (the rule set they are posted
//! into). Each event kind carries a *generation* — the number of times it
//! has occurred — because loops re-produce `step.done` for body steps, and a
//! *validity* flag — rollback invalidates the `step.done` of steps that are
//! to be re-executed (the `HaltThread` protocol, §5.2).

use crew_model::StepId;
use std::fmt;

/// The kind of an event within one workflow instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// The instance was started (`workflow.start`).
    WorkflowStart,
    /// A step completed successfully (`step.done`).
    StepDone(StepId),
    /// The instance was rolled back to this step (`step.rollback`): its
    /// generation is the number of the latest rollback to it.
    Rollback(StepId),
}

impl EventKind {
    /// Render like the paper's compact packet notation (`S1.D`, `WF1.S`,
    /// Figure 7 uses `S1.D S2.D WF1.S`).
    pub fn code(&self) -> String {
        match self {
            EventKind::WorkflowStart => "WF.S".to_owned(),
            EventKind::StepDone(s) => format!("{s}.D"),
            EventKind::Rollback(s) => format!("{s}.R"),
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.code())
    }
}

/// State of one event kind in an instance's event table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventState {
    /// How many times the event has occurred (0 = never).
    pub generation: u32,
    /// `false` after rollback invalidated the occurrence; only a fresh
    /// occurrence (a higher generation) makes the event valid again.
    pub valid: bool,
}

impl EventState {
    /// True if the event is present for rule-triggering purposes.
    pub fn is_present(&self) -> bool {
        self.valid && self.generation > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_packet_notation() {
        assert_eq!(EventKind::WorkflowStart.code(), "WF.S");
        assert_eq!(EventKind::StepDone(StepId(2)).code(), "S2.D");
        assert_eq!(EventKind::Rollback(StepId(3)).code(), "S3.R");
    }

    #[test]
    fn presence_requires_valid_and_occurred() {
        let state = |generation, valid| EventState { generation, valid };
        assert!(!EventState::default().is_present());
        assert!(state(1, true).is_present());
        assert!(!state(2, false).is_present());
        assert!(!state(0, true).is_present());
    }
}
