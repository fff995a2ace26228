//! Per-engine load accounting.
//!
//! The runtime samples one [`EngineLoad`] per engine per balancing
//! interval. The fields mirror the load components of the §6/§7 analysis:
//! navigation work concentrates where live instances live, message
//! traffic follows dispatch fan-out, and WFDB write pressure follows the
//! journaling rate — which is the delivery rate, because an engine's WAL
//! is its command log: one record per delivered message.

/// One engine's load sample over an observation window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineLoad {
    /// Engine index.
    pub engine: u32,
    /// Instances currently hosted and not yet terminal.
    pub live_instances: u64,
    /// Messages delivered to (handled by) the engine so far.
    pub delivered_msgs: u64,
    /// WAL records appended so far (WFDB write pressure). An engine
    /// journals one command record per delivered message and nothing
    /// else, so on a live engine this equals `delivered_msgs`: the records
    /// its command log holds plus those compaction dropped from it. It
    /// stays its own field because a crash zeroes `delivered_msgs` until
    /// recovery re-counts it from the logs.
    pub wal_appends: u64,
    /// Messages passed along for migrated-away instances.
    pub forwarded_msgs: u64,
    /// Instances migrated out of this engine.
    pub migrations_out: u64,
    /// Instances migrated into this engine.
    pub migrations_in: u64,
}

impl EngineLoad {
    /// The scalar the balancer ranks engines by. Live instances dominate:
    /// they are what migration can actually move; delivered traffic and
    /// write pressure break ties between equally-populated engines.
    pub fn pressure(&self) -> f64 {
        self.live_instances as f64 * 1000.0
            + self.delivered_msgs as f64
            + self.wal_appends as f64 * 0.25
    }
}

/// Max/mean pressure ratio across a fleet sample — the measured skew the
/// balancer compares against the analytic (uniform) prediction. A fleet
/// with no live work reports 1.0 (perfectly balanced).
pub fn measured_skew(loads: &[EngineLoad]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let mean = loads.iter().map(|l| l.pressure()).sum::<f64>() / loads.len() as f64;
    if mean <= f64::EPSILON {
        return 1.0;
    }
    let max = loads.iter().map(|l| l.pressure()).fold(0.0, f64::max);
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(engine: u32, live: u64) -> EngineLoad {
        EngineLoad {
            engine,
            live_instances: live,
            ..EngineLoad::default()
        }
    }

    #[test]
    fn skew_of_uniform_fleet_is_one() {
        let loads: Vec<_> = (0..4).map(|e| sample(e, 10)).collect();
        assert!((measured_skew(&loads) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_grows_with_imbalance() {
        let loads = vec![sample(0, 30), sample(1, 10), sample(2, 10), sample(3, 10)];
        assert!(measured_skew(&loads) > 1.9);
    }

    #[test]
    fn idle_fleet_reports_balanced() {
        let loads: Vec<_> = (0..4).map(|e| sample(e, 0)).collect();
        assert_eq!(measured_skew(&loads), 1.0);
        assert_eq!(measured_skew(&[]), 1.0);
    }
}
