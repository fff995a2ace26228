//! Run reports: the normalized result of executing a scenario under any
//! architecture — outcomes per instance plus the §6 metrics (per-mechanism
//! message counts per instance, busiest-node and per-pool loads).

use crew_model::InstanceId;
use crew_shard::EngineLoad;
use crew_simnet::{Mechanism, Metrics, NodeId, TransportStats};
use std::collections::BTreeMap;

/// Terminal outcome of one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceOutcome {
    /// Terminated successfully; effects permanent.
    Committed,
    /// Terminated by abort; effects compensated.
    Aborted,
    /// Not terminal when the run went quiescent — a stall (deliberate in
    /// crash-without-recovery scenarios, a bug otherwise).
    Stalled,
}

/// The normalized result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Outcome per started instance.
    pub outcomes: BTreeMap<InstanceId, InstanceOutcome>,
    /// Raw simulator metrics.
    pub metrics: Metrics,
    /// Number of instances started.
    pub instances: u64,
    /// Node ids of the scheduling nodes (engines under central/parallel,
    /// agents under distributed) for load aggregation.
    pub scheduler_nodes: Vec<NodeId>,
    /// Simulated events delivered.
    pub events: u64,
    /// Virtual time at quiescence.
    pub virtual_time: u64,
    /// Virtual tick at which each instance's start was injected.
    pub arrival_ticks: BTreeMap<InstanceId, u64>,
    /// Virtual tick at which each instance was first observed terminal
    /// (engine summary table under central/parallel control, front-end
    /// notification under distributed control). Stalled instances are
    /// absent.
    pub completion_ticks: BTreeMap<InstanceId, u64>,
    /// Final per-engine load sample (central/parallel control only;
    /// empty under distributed control): live instances, delivered
    /// messages, WAL appends, forwarding and migration counters.
    pub engine_loads: Vec<EngineLoad>,
}

/// Completion-latency summary over the terminal instances of one run, in
/// virtual ticks (arrival → first terminal status).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Instances with both an arrival and a completion tick.
    pub count: u64,
    /// Median latency.
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Mean latency.
    pub mean: f64,
    /// Maximum latency.
    pub max: u64,
}

impl LatencyStats {
    /// Summarize a set of latency samples (nearest-rank percentiles).
    /// Returns `None` when `samples` is empty.
    pub fn from_samples(mut samples: Vec<u64>) -> Option<LatencyStats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| samples[((n as f64 * q).ceil() as usize).clamp(1, n) - 1];
        Some(LatencyStats {
            count: n as u64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: samples.iter().sum::<u64>() as f64 / n as f64,
            max: samples[n - 1],
        })
    }
}

impl RunReport {
    /// Per-instance completion latencies in virtual ticks (instances that
    /// stalled or whose arrival was not recorded are skipped).
    pub fn latencies(&self) -> Vec<u64> {
        self.completion_ticks
            .iter()
            .filter_map(|(i, &done)| {
                self.arrival_ticks
                    .get(i)
                    .map(|&start| done.saturating_sub(start))
            })
            .collect()
    }

    /// Completion-latency summary; `None` when nothing completed.
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        LatencyStats::from_samples(self.latencies())
    }

    /// Per-instance messages for a mechanism (the Tables 4–6 unit).
    pub fn messages_per_instance(&self, mechanism: Mechanism) -> f64 {
        self.metrics
            .messages_per_instance(mechanism, self.instances)
    }

    /// Mean navigation load over the scheduling nodes, per instance, in
    /// raw instruction units.
    pub fn scheduler_load_per_instance(&self) -> f64 {
        if self.instances == 0 {
            return 0.0;
        }
        let total: u64 = self
            .scheduler_nodes
            .iter()
            .map(|n| self.metrics.load_by_node.get(n).copied().unwrap_or(0))
            .sum();
        total as f64 / self.scheduler_nodes.len().max(1) as f64 / self.instances as f64
    }

    /// Load at the busiest scheduling node, per instance.
    pub fn max_scheduler_load_per_instance(&self) -> f64 {
        if self.instances == 0 {
            return 0.0;
        }
        let max: u64 = self
            .scheduler_nodes
            .iter()
            .map(|n| self.metrics.load_by_node.get(n).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        max as f64 / self.instances as f64
    }

    /// Count of committed instances.
    pub fn committed(&self) -> usize {
        self.outcomes
            .values()
            .filter(|o| **o == InstanceOutcome::Committed)
            .count()
    }

    /// Count of aborted instances.
    pub fn aborted(&self) -> usize {
        self.outcomes
            .values()
            .filter(|o| **o == InstanceOutcome::Aborted)
            .count()
    }

    /// Wire-level transport counters (frames, retransmissions, injected
    /// faults). All-zero unless the run had net faults enabled; the §6
    /// logical message counts above never include this overhead.
    pub fn transport(&self) -> &TransportStats {
        &self.metrics.transport
    }

    /// Physical frames per logical message: the reliable-channel overhead
    /// factor. `1.0` on a quiet network (every logical message costs one
    /// data frame; acks are reported separately), higher under faults.
    pub fn frame_overhead(&self) -> f64 {
        let t = &self.metrics.transport;
        if t.data_frames == 0 {
            return 1.0;
        }
        (t.data_frames + t.retransmissions) as f64 / t.data_frames as f64
    }

    /// True if every instance reached a terminal state.
    pub fn all_terminal(&self) -> bool {
        !self
            .outcomes
            .values()
            .any(|o| *o == InstanceOutcome::Stalled)
    }

    /// Total live migrations completed during the run (sum of the
    /// engines' `migrations_in` counters).
    pub fn migrations(&self) -> u64 {
        self.engine_loads.iter().map(|l| l.migrations_in).sum()
    }

    /// Measured end-of-run load skew across the engines (max/mean
    /// pressure); 1.0 when there are no engine samples.
    pub fn engine_skew(&self) -> f64 {
        crew_shard::measured_skew(&self.engine_loads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::SchemaId;

    #[test]
    fn aggregations() {
        let mut metrics = Metrics::default();
        let i1 = InstanceId::new(SchemaId(1), 1);
        metrics.record_message("X", Mechanism::Normal, 10, NodeId(0));
        metrics.record_message("X", Mechanism::Normal, 10, NodeId(0));
        metrics.record_load(NodeId(0), 100);
        metrics.record_load(NodeId(1), 300);
        let report = RunReport {
            outcomes: BTreeMap::from([(i1, InstanceOutcome::Committed)]),
            metrics,
            instances: 2,
            scheduler_nodes: vec![NodeId(0), NodeId(1)],
            events: 10,
            virtual_time: 50,
            arrival_ticks: BTreeMap::from([(i1, 5)]),
            completion_ticks: BTreeMap::from([(i1, 45)]),
            engine_loads: Vec::new(),
        };
        assert_eq!(report.messages_per_instance(Mechanism::Normal), 1.0);
        assert_eq!(report.scheduler_load_per_instance(), 100.0);
        assert_eq!(report.max_scheduler_load_per_instance(), 150.0);
        assert_eq!(report.committed(), 1);
        assert_eq!(report.aborted(), 0);
        assert!(report.all_terminal());
        let lat = report.latency_stats().unwrap();
        assert_eq!(lat.count, 1);
        assert_eq!(lat.p50, 40);
        assert_eq!(lat.max, 40);
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let stats = LatencyStats::from_samples((1..=100).collect()).unwrap();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50, 50);
        assert_eq!(stats.p95, 95);
        assert_eq!(stats.p99, 99);
        assert_eq!(stats.max, 100);
        assert_eq!(stats.mean, 50.5);
        assert_eq!(LatencyStats::from_samples(vec![]), None);
        let one = LatencyStats::from_samples(vec![7]).unwrap();
        assert_eq!((one.p50, one.p95, one.p99, one.max), (7, 7, 7, 7));
    }
}
