//! Instrumentation: message and load accounting.
//!
//! The evaluation (§6) compares architectures on two axes: *load at a node*
//! (abstract instructions) and *physical messages exchanged*, each broken
//! down by mechanism — normal execution, workflow input change, workflow
//! abort, failure handling and coordinated execution. Deployment message
//! types implement [`Classify`] so the runtimes can attribute every message
//! without knowing the protocols.

use crate::node::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// The paper's five mechanisms plus `Control` for infrastructure traffic
/// (e.g. the periodic purge broadcast) that its per-mechanism counts
/// exclude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mechanism {
    /// Normal (failure-free) execution.
    Normal,
    /// User-initiated workflow input change.
    InputChange,
    /// User-initiated workflow abort.
    Abort,
    /// Logical step-failure recovery.
    FailureHandling,
    /// Cross-workflow coordination.
    CoordinatedExecution,
    /// Control.
    Control,
}

impl Mechanism {
    /// All mechanisms in display order.
    pub const ALL: [Mechanism; 6] = [
        Mechanism::Normal,
        Mechanism::InputChange,
        Mechanism::Abort,
        Mechanism::FailureHandling,
        Mechanism::CoordinatedExecution,
        Mechanism::Control,
    ];
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mechanism::Normal => "normal",
            Mechanism::InputChange => "input-change",
            Mechanism::Abort => "abort",
            Mechanism::FailureHandling => "failure-handling",
            Mechanism::CoordinatedExecution => "coordinated-execution",
            Mechanism::Control => "control",
        };
        f.write_str(s)
    }
}

/// Implemented by deployment message types so runtimes can attribute
/// traffic.
pub trait Classify {
    /// Short stable name of the message kind ("StepExecute", "HaltThread").
    fn kind(&self) -> &'static str;
    /// Which mechanism's budget the message belongs to.
    fn mechanism(&self) -> Mechanism;
    /// Approximate payload size in bytes (for the packet-growth ablation).
    fn approx_size(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// Physical-network accounting, kept apart from the logical §6 message
/// counts: wire frames, injected faults, and the reliable channel's
/// recovery work (see [`crate::netfault`] and [`crate::reliable`]). All
/// zero when no fault plan is installed, except the two addressing
/// counters which are live on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// First transmissions of data frames (== logical messages staged on a
    /// channel).
    pub data_frames: u64,
    /// Data frames re-sent by retransmission timers or crash recovery.
    pub retransmissions: u64,
    /// Ack frames sent.
    pub acks: u64,
    /// Frames dropped by the fault plan (probabilistic or scripted).
    pub drops_injected: u64,
    /// The subset of [`drops_injected`](Self::drops_injected) that hit data
    /// frames. A dropped data frame can only be recovered by retransmission;
    /// a dropped ack may be covered by a later cumulative ack without one —
    /// chaos assertions should therefore key on this counter, not the total.
    pub data_drops_injected: u64,
    /// Frames duplicated by the fault plan.
    pub dups_injected: u64,
    /// Frames held back by injected reorder delay.
    pub reorders_injected: u64,
    /// Frames lost to a scripted link partition.
    pub partition_drops: u64,
    /// Frames lost because the destination node was crashed.
    pub crash_drops: u64,
    /// Duplicate data frames suppressed by the receiver's channel endpoint.
    pub dup_suppressed: u64,
    /// Messages addressed to a node outside the deployment — a deployment
    /// bug, also traced (counted with or without a fault plan).
    pub misaddressed: u64,
    /// Messages addressed to [`NodeId::EXTERNAL`](crate::node::NodeId) —
    /// benign replies to injected user traffic (counted with or without a
    /// fault plan).
    pub external_sink: u64,
}

impl TransportStats {
    /// Total physical frames put on the wire (including injected
    /// duplicates, excluding frames the plan swallowed before transit).
    pub fn frames_sent(&self) -> u64 {
        self.data_frames + self.retransmissions + self.acks + self.dups_injected
    }

    /// Fold another stats object into this one.
    pub fn merge(&mut self, other: &TransportStats) {
        self.data_frames += other.data_frames;
        self.retransmissions += other.retransmissions;
        self.acks += other.acks;
        self.drops_injected += other.drops_injected;
        self.data_drops_injected += other.data_drops_injected;
        self.dups_injected += other.dups_injected;
        self.reorders_injected += other.reorders_injected;
        self.partition_drops += other.partition_drops;
        self.crash_drops += other.crash_drops;
        self.dup_suppressed += other.dup_suppressed;
        self.misaddressed += other.misaddressed;
        self.external_sink += other.external_sink;
    }
}

/// One row of [`Metrics`]' per-kind table.
#[derive(Debug, Clone, Copy)]
struct KindCount {
    kind: &'static str,
    mechanism: Mechanism,
    count: u64,
}

/// Aggregated counters for one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Messages per (kind, mechanism), found by the kind's address rather
    /// than its text: a run sends a handful of static kinds, so a short
    /// scan of pointer compares finds the row. Rows that are hit move
    /// towards the front. Read through [`Metrics::by_kind`].
    kinds: Vec<KindCount>,
    /// Messages per mechanism, indexed by `Mechanism as usize`.
    by_mechanism: [u64; Mechanism::ALL.len()],
    /// Abstract instructions charged per node.
    pub load_by_node: BTreeMap<NodeId, u64>,
    /// Messages handled per node.
    pub handled_by_node: BTreeMap<NodeId, u64>,
    /// Total messages delivered.
    pub total_messages: u64,
    /// Total payload bytes (approximate).
    pub total_bytes: u64,
    /// Physical-network overhead, separate from the logical counts above.
    pub transport: TransportStats,
}

impl Metrics {
    /// Record one delivered message.
    pub fn record_message(
        &mut self,
        kind: &'static str,
        mechanism: Mechanism,
        size: usize,
        to: NodeId,
    ) {
        self.count_kind(kind, mechanism, 1);
        self.by_mechanism[mechanism as usize] += 1;
        *self.handled_by_node.entry(to).or_default() += 1;
        self.total_messages += 1;
        self.total_bytes += size as u64;
    }

    /// Add `n` to the row of (`kind`, `mechanism`), swapping a row that is
    /// hit one place towards the front. Two copies of one kind's text at
    /// different addresses get a row each; [`Metrics::by_kind`] sums them.
    fn count_kind(&mut self, kind: &'static str, mechanism: Mechanism, n: u64) {
        let row = self
            .kinds
            .iter()
            .position(|r| std::ptr::eq(r.kind, kind) && r.mechanism == mechanism);
        match row {
            Some(0) => self.kinds[0].count += n,
            Some(i) => {
                self.kinds[i].count += n;
                self.kinds.swap(i - 1, i);
            }
            None => self.kinds.push(KindCount {
                kind,
                mechanism,
                count: n,
            }),
        }
    }

    /// Messages by (kind, mechanism).
    pub fn by_kind(&self) -> BTreeMap<(&'static str, Mechanism), u64> {
        let mut table = BTreeMap::new();
        for r in &self.kinds {
            *table.entry((r.kind, r.mechanism)).or_default() += r.count;
        }
        table
    }

    /// Charge load to a node.
    pub fn record_load(&mut self, node: NodeId, instructions: u64) {
        if instructions > 0 {
            *self.load_by_node.entry(node).or_default() += instructions;
        }
    }

    /// Messages attributed to `mechanism`.
    pub fn messages(&self, mechanism: Mechanism) -> u64 {
        self.by_mechanism[mechanism as usize]
    }

    /// Mean messages per instance for `mechanism` over `instances` runs.
    pub fn messages_per_instance(&self, mechanism: Mechanism, instances: u64) -> f64 {
        if instances == 0 {
            return 0.0;
        }
        self.messages(mechanism) as f64 / instances as f64
    }

    /// Maximum load charged to any single node — the "load at engine/agent"
    /// column of Tables 4–6 (the busiest node bounds scalability).
    pub fn max_node_load(&self) -> u64 {
        self.load_by_node.values().copied().max().unwrap_or(0)
    }

    /// Mean load over the given nodes (e.g. all agents).
    pub fn mean_load(&self, nodes: impl IntoIterator<Item = NodeId>) -> f64 {
        let mut total = 0u64;
        let mut n = 0u64;
        for node in nodes {
            total += self.load_by_node.get(&node).copied().unwrap_or(0);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Fold another metrics object into this one.
    pub fn merge(&mut self, other: &Metrics) {
        for r in &other.kinds {
            self.count_kind(r.kind, r.mechanism, r.count);
        }
        for (mine, theirs) in self.by_mechanism.iter_mut().zip(other.by_mechanism) {
            *mine += theirs;
        }
        for (&k, &v) in &other.load_by_node {
            *self.load_by_node.entry(k).or_default() += v;
        }
        for (&k, &v) in &other.handled_by_node {
            *self.handled_by_node.entry(k).or_default() += v;
        }
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
        self.transport.merge(&other.transport);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut m = Metrics::default();
        m.record_message("StepExecute", Mechanism::Normal, 64, NodeId(2));
        m.record_message("StepExecute", Mechanism::Normal, 64, NodeId(3));
        m.record_message("HaltThread", Mechanism::FailureHandling, 32, NodeId(2));
        m.record_load(NodeId(2), 100);
        m.record_load(NodeId(3), 40);
        m.record_load(NodeId(3), 0); // no-op

        assert_eq!(m.messages(Mechanism::Normal), 2);
        assert_eq!(m.messages(Mechanism::FailureHandling), 1);
        assert_eq!(m.messages(Mechanism::Abort), 0);
        assert_eq!(m.total_messages, 3);
        assert_eq!(m.total_bytes, 160);
        assert_eq!(m.max_node_load(), 100);
        assert_eq!(m.mean_load([NodeId(2), NodeId(3)]), 70.0);
        assert_eq!(m.messages_per_instance(Mechanism::Normal, 2), 1.0);
        assert_eq!(m.messages_per_instance(Mechanism::Normal, 0), 0.0);
        assert_eq!(m.handled_by_node[&NodeId(2)], 2);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Metrics::default();
        a.record_message("X", Mechanism::Normal, 8, NodeId(1));
        let mut b = Metrics::default();
        b.record_message("X", Mechanism::Normal, 8, NodeId(1));
        b.record_load(NodeId(1), 5);
        a.merge(&b);
        assert_eq!(a.total_messages, 2);
        assert_eq!(a.by_kind()[&("X", Mechanism::Normal)], 2);
        assert_eq!(a.load_by_node[&NodeId(1)], 5);
    }

    #[test]
    fn kinds_are_found_by_address_and_read_by_text() {
        let mut m = Metrics::default();
        // The same text at a second address, as another crate's copy of a
        // kind literal may be.
        let twin: &'static str = String::from("StepExecute").leak();
        for (kind, mechanism) in [
            ("StepExecute", Mechanism::Normal),
            ("HaltThread", Mechanism::FailureHandling),
            (twin, Mechanism::Normal),
            ("HaltThread", Mechanism::FailureHandling),
            ("StepExecute", Mechanism::Abort),
            ("HaltThread", Mechanism::FailureHandling),
        ] {
            m.record_message(kind, mechanism, 1, NodeId(0));
        }
        let expect = BTreeMap::from([
            (("HaltThread", Mechanism::FailureHandling), 3),
            (("StepExecute", Mechanism::Normal), 2),
            (("StepExecute", Mechanism::Abort), 1),
        ]);
        assert_eq!(m.by_kind(), expect);
        let mut merged = Metrics::default();
        merged.merge(&m);
        merged.merge(&m);
        let doubled: BTreeMap<_, _> = expect.iter().map(|(&k, &v)| (k, 2 * v)).collect();
        assert_eq!(merged.by_kind(), doubled);
        assert_eq!(merged.messages(Mechanism::FailureHandling), 6);
    }

    #[test]
    fn mechanism_display() {
        assert_eq!(Mechanism::Normal.to_string(), "normal");
        assert_eq!(
            Mechanism::CoordinatedExecution.to_string(),
            "coordinated-execution"
        );
        assert_eq!(Mechanism::ALL.len(), 6);
    }
}
