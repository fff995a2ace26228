//! Workflow events.
//!
//! The rule-based run-time is driven by events (§3). A compiled rule waits
//! only on `workflow.start` and `step.done`, so those are the two kinds an
//! event table holds. The paper's `step.fail`, `step.compensate`,
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
}

impl EventKind {
    /// Render like the paper's compact packet notation (`S1.D`, `WF1.S`,
    /// Figure 7 uses `S1.D S2.D WF1.S`).
    pub fn code(&self) -> String {
        match self {
            EventKind::WorkflowStart => "WF.S".to_owned(),
            EventKind::StepDone(s) => format!("{s}.D"),
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
    /// `false` after rollback invalidated the occurrence; a fresh
    /// occurrence revalidates.
    pub valid: bool,
}

impl EventState {
    /// An event that has occurred `generation` times and is valid.
    pub fn occurred(generation: u32) -> Self {
        EventState {
            generation,
            valid: generation > 0,
        }
    }

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
    }

    #[test]
    fn presence_requires_valid_and_occurred() {
        assert!(!EventState::default().is_present());
        assert!(EventState::occurred(1).is_present());
        let mut s = EventState::occurred(2);
        s.valid = false;
        assert!(!s.is_present());
    }
}
