//! The metric catalogue: every name the benchmark prints, with its unit,
//! whether it is a simulated statistic or a host measurement, which
//! direction is better and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` is `benchmark manifest`'s output; a test keeps it so.

/// `Sim` metrics are statistics of the deterministic simulation: for a
/// fixed seed they repeat exactly, on any machine. `Host` metrics are wall
/// time and memory of this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sim,
    Host,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Sim => "sim",
            Kind::Host => "host",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        kind,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, kind: Kind, better: Better) -> Metric {
    Metric {
        name,
        unit,
        kind,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Kind::{Host, Sim};

/// The nine end-to-end metrics; the same set for every workload.
///
/// Bounds: the gate measures each workload on ten different seeds and
/// accepts a metric only if the spread of those ten values (IQR ÷ median)
/// stays within its bound, so a bound has to clear the seed-to-seed spread
/// of the widest workload — roughly threefold — not only the run-to-run
/// noise of one seed. README "Bounds" has the measured spreads.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Host, Lower, 0.25),
    e2e("inst_per_s", "instances/s", Host, Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Host, Lower, 0.08),
    e2e("lat_p50_ticks", "ticks", Sim, Lower, 0.10),
    e2e("lat_p99_ticks", "ticks", Sim, Lower, 0.25),
    e2e("msgs_per_inst", "msgs", Sim, Lower, 0.07),
    e2e("bytes_per_inst", "bytes", Sim, Lower, 0.07),
    e2e("node_load_max_per_inst", "load_units", Sim, Lower, 0.08),
    // (failed + 1) ÷ (instances + 1): never 0, as the gate requires, and one
    // failed instance at least doubles it, so any bound means "none".
    e2e("failed_share", "fraction", Sim, Lower, 0.001),
];

/// The 62 per-layer metrics, grouped by the module that does the work.
pub const PER_LAYER: &[Metric] = &[
    // simnet.sim
    layer("sim.events", "count", Sim, Lower),
    layer("sim.events_per_inst", "events/inst", Sim, Lower),
    layer("sim.self_s", "s", Host, Lower),
    layer("sim.self_ns_per_event", "ns/event", Host, Lower),
    layer("sim.virtual_ticks", "ticks", Sim, Lower),
    layer("sim.drain_ticks", "ticks", Sim, Lower),
    // central.engine
    layer("engine.msgs", "count", Sim, Lower),
    layer("engine.busy_s", "s", Host, Lower),
    layer("engine.ns_per_msg", "ns/msg", Host, Lower),
    layer("engine.wal_records", "count", Sim, Lower),
    layer("engine.load_units_per_inst", "load_units/inst", Sim, Lower),
    layer("engine.busiest_share", "fraction", Sim, Lower),
    layer("engine.recoveries", "count", Sim, Lower),
    layer("engine.recover_ms_per_call", "ms/call", Host, Lower),
    // central.appagent
    layer("appagent.msgs", "count", Sim, Lower),
    layer("appagent.busy_s", "s", Host, Lower),
    layer("appagent.ns_per_msg", "ns/msg", Host, Lower),
    // distributed.agent
    layer("agent.msgs", "count", Sim, Lower),
    layer("agent.busy_s", "s", Host, Lower),
    layer("agent.ns_per_msg", "ns/msg", Host, Lower),
    layer("agent.load_units_per_inst", "load_units/inst", Sim, Lower),
    layer("agent.busiest_share", "fraction", Sim, Lower),
    // distributed.frontend
    layer("frontend.msgs", "count", Sim, Lower),
    layer("frontend.busy_s", "s", Host, Lower),
    // simnet.metrics by mechanism (Tables 4-6 rows); sum = msgs_per_inst
    layer("msgs.normal_per_inst", "msgs/inst", Sim, Lower),
    layer("msgs.input_change_per_inst", "msgs/inst", Sim, Lower),
    layer("msgs.abort_per_inst", "msgs/inst", Sim, Lower),
    layer("msgs.failure_per_inst", "msgs/inst", Sim, Lower),
    layer("msgs.coord_per_inst", "msgs/inst", Sim, Lower),
    layer("msgs.control_per_inst", "msgs/inst", Sim, Lower),
    // central.codec / distributed.codec (the workload's own message type)
    layer("codec.encode_ns_per_msg", "ns/msg", Host, Lower),
    layer("codec.decode_ns_per_msg", "ns/msg", Host, Lower),
    layer("codec.encoded_bytes_per_msg", "bytes/msg", Sim, Lower),
    // storage.wal
    layer("wal.append_ns_per_rec", "ns/rec", Host, Lower),
    layer("wal.recover_ns_per_rec", "ns/rec", Host, Lower),
    layer("wal.bytes_per_rec", "bytes/rec", Sim, Lower),
    layer("wal.file_flush_us_per_batch", "us/batch", Host, Lower),
    layer("wal.est_share", "fraction", Host, Lower),
    // simnet.reliable
    layer("reliable.data_frames", "count", Sim, Lower),
    layer("reliable.retransmissions", "count", Sim, Lower),
    layer("reliable.acks", "count", Sim, Lower),
    layer("reliable.dup_suppressed", "count", Sim, Lower),
    layer("reliable.frames_per_msg", "frames/msg", Sim, Lower),
    layer("reliable.useful_ratio", "ratio", Sim, Higher),
    layer("reliable.roundtrip_ns_per_msg", "ns/msg", Host, Lower),
    layer("reliable.replay_us", "us", Host, Lower),
    // rules
    layer("rules.compile_us_per_schema", "us/schema", Host, Lower),
    layer("rules.fire_ns_per_event", "ns/event", Host, Lower),
    // exec
    layer("exec.ocr_decide_ns", "ns", Host, Lower),
    layer("exec.execute_ns_per_step", "ns/step", Host, Lower),
    // shard
    layer("shard.migrations", "count", Sim, Lower),
    layer("shard.engine_skew", "ratio", Sim, Lower),
    layer("shard.ring_owner_ns", "ns", Host, Lower),
    layer("shard.plan_us", "us", Host, Lower),
    // workload / core (sum is about setup_s)
    layer("setup.build_deployment_s", "s", Host, Lower),
    layer("setup.scenario_s", "s", Host, Lower),
    // host spread of the untraced repetitions (informational)
    layer("host.wall_s_min", "s", Host, Lower),
    layer("host.wall_s_median", "s", Host, Lower),
    layer("host.wall_s_q1", "s", Host, Lower),
    layer("host.wall_s_q3", "s", Host, Lower),
    layer("host.cpu_s_min", "s", Host, Lower),
    // tracing
    layer("trace.overhead_share", "fraction", Host, Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(m.name), "metric name {:?}", m.name);
            assert!(is_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for w in WORKLOADS {
            assert!(is_name(w.name), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(END_TO_END.len(), 9);
        assert_eq!(PER_LAYER.len(), 62);
        assert_eq!(WORKLOADS.len(), 8);
    }

    #[test]
    fn bounds_are_within_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` sits one directory up and is what the driver reads;
    /// it must be exactly what `benchmark manifest` prints.
    #[test]
    fn benchmark_json_is_the_printed_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(committed, crate::manifest().render_pretty());
    }
}
