//! Failure policies: the per-step annotations the run-times honour.
//!
//! The paper's failure handling is all-or-nothing — compensate or
//! re-execute under a fixed rollback budget (OCR, Figure 5). A step may
//! additionally declare `retry(N)`: both control architectures re-dispatch
//! the failed step in place up to `N` times before the paper's rollback
//! protocol takes over.

/// A step's retry policy: re-dispatch in place up to `max` times before
/// handing the failure to the rollback machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Retry budget: in-place re-dispatches on top of the first attempt.
    pub max: u32,
}

impl RetryPolicy {
    /// Bounded immediate retry.
    pub fn bounded(max: u32) -> Self {
        RetryPolicy { max }
    }

    /// True when the budget permits another in-place retry after the
    /// failed `attempt` (1-based): a budget of `max` allows `max`
    /// re-dispatches on top of the original execution.
    pub fn allows_retry_after(&self, attempt: u32) -> bool {
        attempt <= self.max
    }
}

/// Per-step failure-policy annotations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepPolicy {
    /// In-place retry before rollback.
    pub retry: Option<RetryPolicy>,
}

impl StepPolicy {
    /// True when no annotation is present (the paper's plain semantics).
    pub fn is_empty(&self) -> bool {
        self.retry.is_none()
    }
}

/// The bounded simulation run horizon in ticks. `crew-core` stops every
/// run at this virtual time; an instance still live then is reported
/// `Stalled`.
pub const RUN_HORIZON_TICKS: u64 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_budget_counts_redispatches() {
        let p = RetryPolicy::bounded(2);
        assert!(p.allows_retry_after(1));
        assert!(p.allows_retry_after(2));
        assert!(!p.allows_retry_after(3));
    }

    #[test]
    fn empty_policies_report_empty() {
        assert!(StepPolicy::default().is_empty());
        let r = StepPolicy {
            retry: Some(RetryPolicy::bounded(0)),
        };
        assert!(!r.is_empty());
    }
}
