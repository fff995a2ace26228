//! ECA rules.
//!
//! "Requirements expressed in LAWS are converted into rules which are tuples
//! containing an event, condition and action part" (§1). A rule waits for a
//! conjunction of events, checks a guard condition over the instance's data
//! table, and when fired produces an [`Action`]: the step the hosting
//! run-time (central engine or distributed agent) starts.

use crate::event::EventKind;
use crew_model::{Expr, StepId};
use std::fmt;
use std::sync::Arc;

/// What a fired rule instructs the host to do. Every compiled navigation
/// rule starts a step; compensation, commit and abort are decided outside
/// the rule table.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Schedule the step for execution (generates `step.start`).
    StartStep(StepId),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Action::StartStep(s) = self;
        write!(f, "start {s}")
    }
}

/// One event of a rule's trigger, with the generation of it the rule's
/// most recent firing consumed (0: none). The rule can fire (again) only
/// when each trigger event is present with a generation newer than its
/// mark — which is what lets loop-body rules re-fire on each iteration
/// without firing twice on one occurrence. The mark sits beside the event
/// so that a rule is one allocation, not a trigger list plus a mark table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Trigger {
    pub(crate) event: EventKind,
    pub(crate) mark: u32,
}

/// One event-condition-action rule.
///
/// The guard never changes after the rule is built, so it is shared:
/// instantiating a template rule for one more workflow instance copies its
/// trigger and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Conjunction of events required before the rule may fire.
    pub(crate) trigger: Vec<Trigger>,
    /// Guard evaluated against the instance's data table; the rule fires
    /// only if it holds. `None` = always true. Guard evaluation errors are
    /// treated as `false` (a branch condition over data that is not yet — or
    /// no longer — present must simply not be taken).
    pub guard: Option<Arc<Expr>>,
    /// Action taken when the rule fires.
    pub action: Action,
    /// Set when an event occurrence or a cleared mark may have made
    /// the rule ready since a sweep last found it not ready or fired it:
    /// a sweep visits only woken rules. It sits in the struct's padding.
    pub(crate) woken: bool,
}

impl Rule {
    /// Create a new, empty value.
    pub fn new(trigger: Vec<EventKind>, action: Action) -> Self {
        let unfired = |event| Trigger { event, mark: 0 };
        Rule {
            trigger: trigger.into_iter().map(unfired).collect(),
            guard: None,
            action,
            woken: true,
        }
    }

    /// Attach a guard condition.
    pub fn with_guard(mut self, guard: Expr) -> Self {
        self.guard = Some(Arc::new(guard));
        self
    }

    /// True if `kind` is one of the events the rule waits for.
    pub fn triggers_on(&self, kind: EventKind) -> bool {
        self.trigger.iter().any(|t| t.event == kind)
    }

    /// Forget every firing: the rule fires again on the occurrences it
    /// already consumed.
    pub(crate) fn clear_marks(&mut self) {
        for t in &mut self.trigger {
            t.mark = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Action::StartStep(StepId(2)).to_string(), "start S2");
    }

    #[test]
    fn builder_style() {
        let r = Rule::new(vec![EventKind::WorkflowStart], Action::StartStep(StepId(1)));
        assert!(r.guard.is_none());
        assert!(r.triggers_on(EventKind::WorkflowStart));
        assert!(!r.triggers_on(EventKind::StepDone(StepId(1))));
    }
}
