//! Message tracing for protocol inspection.
//!
//! The figure reproductions (`repro fig1/fig4/fig6` in `crew-bench`) print
//! the actual message exchanges of a run. Tracing is off by default since
//! the performance harnesses deliver millions of messages, and it is lazy:
//! an entry is built (and its message `Debug`-rendered) only when on.

use crate::node::NodeId;
use std::fmt;

/// Trace kind: a frame was dropped by the fault plan.
pub const NET_DROP: &str = "!net-drop";
/// Trace kind: a frame was duplicated by the fault plan.
pub const NET_DUP: &str = "!net-dup";
/// Trace kind: a frame was held back (reordered) by the fault plan.
pub const NET_REORDER: &str = "!net-reorder";
/// Trace kind: a frame was lost to a scripted link partition.
pub const NET_CUT: &str = "!net-cut";
/// Trace kind: the reliable channel retransmitted a data frame.
pub const NET_RETRANSMIT: &str = "!net-retransmit";
/// Trace kind: the receiver suppressed a duplicate data frame.
pub const NET_DUP_SUPPRESSED: &str = "!net-dup-suppressed";
/// Trace kind: a message was addressed to a node outside the deployment.
pub const NET_MISADDRESSED: &str = "!misaddressed";

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time of the event.
    pub at: u64,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Stable message-kind name.
    pub kind: &'static str,
    /// Debug rendering of the message payload.
    pub detail: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={:>5}] {} -> {}: {}",
            self.at, self.from, self.to, self.kind
        )
    }
}

/// A (possibly disabled) message trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Enabled.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            entries: Vec::new(),
        }
    }

    /// Disabled.
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Record the entry `build` returns. `build` runs only when the trace
    /// is on: a disabled trace never renders a detail string.
    pub fn record_with(&mut self, build: impl FnOnce() -> TraceEntry) {
        if self.enabled {
            self.entries.push(build());
        }
    }

    /// All recorded entries, in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries of a given message kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: &'static str) -> TraceEntry {
        TraceEntry {
            at: 3,
            from: NodeId(1),
            to: NodeId(2),
            kind,
            detail: String::new(),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record_with(|| entry("X"));
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_trace_collects_and_filters() {
        let mut t = Trace::enabled();
        t.record_with(|| entry("StepExecute"));
        t.record_with(|| entry("HaltThread"));
        t.record_with(|| entry("StepExecute"));
        assert_eq!(t.len(), 3);
        assert_eq!(t.of_kind("StepExecute").count(), 2);
        assert_eq!(
            t.entries()[0].to_string(),
            "[t=    3] n1 -> n2: StepExecute"
        );
    }
}
