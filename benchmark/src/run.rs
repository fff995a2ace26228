//! One repetition of one workload: warm-up, timed set-up, timed run, the
//! simulated statistics of the run and the output checks on them.

use crate::hosttime::Checkpoints;
use crate::json::Json;
use crate::stats::{latencies_with_unfinished, nearest_rank, spread};
use crate::workloads::{Inputs, Workload};
use crew_core::{InstanceOutcome, RunReport};
use crew_model::RUN_HORIZON_TICKS;
use crew_simnet::{Mechanism, NodeId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up is repeated this many times per repetition and the median kept:
/// it lasts about a millisecond, so a single reading is mostly noise.
const SETUP_REPEATS: usize = 9;

/// Simulated statistics of one run, by name. For a fixed seed and size they
/// must repeat exactly across repetitions and in the traced run; the counts
/// stay far below 2^53, so `f64` holds them exactly and they survive the
/// JSON hop from the child process unchanged.
pub type SimStats = BTreeMap<String, f64>;

/// What one repetition reports.
#[derive(Debug, Clone, Default)]
pub struct RepResult {
    pub setup_s: f64,
    pub build_deployment_s: f64,
    pub scenario_s: f64,
    /// Wall time of `WorkflowSystem::run`.
    pub wall_s: f64,
    /// The same, split at the checkpoints (`hosttime`); sums to `wall_s`.
    pub stretches_s: Vec<f64>,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub instances: u64,
    /// Instances that did not reach the outcome they should have.
    pub failed: u64,
    /// Violated output checks, human-readable; empty = correct.
    pub violations: Vec<String>,
    pub sim: SimStats,
}

impl RepResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("build_deployment_s", Json::Num(self.build_deployment_s)),
            ("scenario_s", Json::Num(self.scenario_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("stretches_s", Json::nums(&self.stretches_s)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("instances", Json::Num(self.instances as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("violations", Json::strs(&self.violations)),
            ("sim", sim_to_json(&self.sim)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<RepResult, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repetition result lacks number {k:?}"))
        };
        Ok(RepResult {
            setup_s: num("setup_s")?,
            build_deployment_s: num("build_deployment_s")?,
            scenario_s: num("scenario_s")?,
            wall_s: num("wall_s")?,
            stretches_s: j.get("stretches_s").map(Json::num_vec).unwrap_or_default(),
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            instances: num("instances")? as u64,
            failed: num("failed")? as u64,
            violations: j.get("violations").map(Json::str_vec).unwrap_or_default(),
            sim: j.get("sim").map(Json::num_map).unwrap_or_default(),
        })
    }
}

pub fn sim_to_json(sim: &SimStats) -> Json {
    Json::obj(sim.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
}

/// Per-instance outcome, in start order.
pub fn outcomes_in_order(inputs: &Inputs, report: &RunReport) -> Vec<InstanceOutcome> {
    (0..inputs.starts.len())
        .map(|k| {
            report
                .outcomes
                .get(&inputs.instance_id(k))
                .copied()
                .unwrap_or(InstanceOutcome::Stalled)
        })
        .collect()
}

/// Extract the simulated statistics of a finished run.
pub fn sim_stats(inputs: &Inputs, report: &RunReport) -> SimStats {
    let mut s = SimStats::new();
    let mut put = |k: &str, v: f64| {
        s.insert(k.to_owned(), v);
    };
    let outcomes = outcomes_in_order(inputs, report);
    let count = |o: InstanceOutcome| outcomes.iter().filter(|x| **x == o).count() as f64;
    put("instances", report.instances as f64);
    put("committed", count(InstanceOutcome::Committed));
    put("aborted", count(InstanceOutcome::Aborted));
    put("unfinished", count(InstanceOutcome::Stalled));
    put("events", report.events as f64);
    put("virtual_ticks", report.virtual_time as f64);
    put(
        "drain_ticks",
        report.virtual_time.saturating_sub(inputs.last_arrival()) as f64,
    );
    put("msgs", report.metrics.total_messages as f64);
    put("bytes", report.metrics.total_bytes as f64);
    for (name, m) in [
        ("msgs_normal", Mechanism::Normal),
        ("msgs_input_change", Mechanism::InputChange),
        ("msgs_abort", Mechanism::Abort),
        ("msgs_failure", Mechanism::FailureHandling),
        ("msgs_coord", Mechanism::CoordinatedExecution),
        ("msgs_control", Mechanism::Control),
    ] {
        put(name, report.metrics.messages(m) as f64);
    }

    let lat = latencies_with_unfinished(
        (0..inputs.starts.len()).map(|k| {
            let id = inputs.instance_id(k);
            (
                inputs.starts[k].1,
                report.completion_ticks.get(&id).copied(),
            )
        }),
        RUN_HORIZON_TICKS,
    );
    put("lat_p50_ticks", nearest_rank(&lat, 0.50) as f64);
    put("lat_p99_ticks", nearest_rank(&lat, 0.99) as f64);
    // A digest of every instance's outcome and latency, so "traced =
    // untraced" and "rep = rep" compare per-instance results, not only
    // their summary. Truncated to 52 bits to stay exact in an f64.
    let mut digest = 0u64;
    for (k, o) in outcomes.iter().enumerate() {
        let done = report
            .completion_ticks
            .get(&inputs.instance_id(k))
            .copied()
            .unwrap_or(u64::MAX);
        digest = crew_exec::hash::combine(digest, &[k as u64, *o as u64, done]);
    }
    put("outcome_digest", (digest >> 12) as f64);

    let load = |n: &NodeId| report.metrics.load_by_node.get(n).copied().unwrap_or(0);
    let handled = |n: &NodeId| report.metrics.handled_by_node.get(n).copied().unwrap_or(0);
    let sched_load: Vec<u64> = report.scheduler_nodes.iter().map(load).collect();
    let sched_msgs: Vec<u64> = report.scheduler_nodes.iter().map(handled).collect();
    put("sched_load_total", sched_load.iter().sum::<u64>() as f64);
    put(
        "sched_load_max",
        sched_load.iter().copied().max().unwrap_or(0) as f64,
    );
    put("sched_msgs_total", sched_msgs.iter().sum::<u64>() as f64);
    put(
        "sched_msgs_max",
        sched_msgs.iter().copied().max().unwrap_or(0) as f64,
    );

    let t = &report.metrics.transport;
    put("transport_data_frames", t.data_frames as f64);
    put("transport_retransmissions", t.retransmissions as f64);
    put("transport_acks", t.acks as f64);
    put("transport_dup_suppressed", t.dup_suppressed as f64);
    put("transport_frames_sent", t.frames_sent() as f64);
    put("transport_misaddressed", t.misaddressed as f64);

    put("engines", report.engine_loads.len() as f64);
    put(
        "wal_records",
        report
            .engine_loads
            .iter()
            .map(|l| l.wal_appends)
            .sum::<u64>() as f64,
    );
    put("migrations", report.migrations() as f64);
    put("engine_skew", report.engine_skew());
    s
}

/// Output checks on one run. Returns `(failed instances, violations)`.
pub fn check(
    workload: &Workload,
    inputs: &Inputs,
    report: &RunReport,
    twin: Option<&[InstanceOutcome]>,
) -> (u64, Vec<String>) {
    let outcomes = outcomes_in_order(inputs, report);
    let mut violations = Vec::new();
    if report.outcomes.len() != inputs.starts.len() {
        violations.push(format!(
            "committed + aborted + unfinished = {} but {} instances started",
            report.outcomes.len(),
            inputs.starts.len()
        ));
    }
    let misaddressed = report.metrics.transport.misaddressed;
    if misaddressed > 0 {
        violations.push(format!("{misaddressed} misaddressed messages"));
    }
    let unfinished = outcomes
        .iter()
        .filter(|o| **o == InstanceOutcome::Stalled)
        .count();
    if unfinished > 0 {
        violations.push(format!("{unfinished} instances not terminal at quiescence"));
    }
    let not_committed = outcomes
        .iter()
        .filter(|o| **o != InstanceOutcome::Committed)
        .count();
    if workload.all_commit && not_committed > 0 {
        violations.push(format!(
            "{not_committed} instances did not commit although nothing was injected"
        ));
    }
    let differs = |k: usize| twin.is_some_and(|t| t[k] != outcomes[k]);
    let twin_diff = (0..outcomes.len()).filter(|&k| differs(k)).count();
    if twin_diff > 0 {
        violations.push(format!(
            "{twin_diff} instances ended differently from the fault-free twin"
        ));
    }
    let failed = (0..outcomes.len())
        .filter(|&k| {
            outcomes[k] == InstanceOutcome::Stalled
                || (workload.all_commit && outcomes[k] != InstanceOutcome::Committed)
                || differs(k)
        })
        .count();
    (failed as u64, violations)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has spent on a core, seconds (scheduler
/// accounting; 0 where `/proc/self/schedstat` is absent).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Timed set-up: generated inputs plus how long the two halves took
/// (medians over [`SETUP_REPEATS`] repeats).
pub struct Setup {
    pub inputs: Inputs,
    pub build_deployment_s: f64,
    pub scenario_s: f64,
    pub setup_s: f64,
}

/// Everything before `WorkflowSystem::run`: generate the inputs (schemas,
/// arrival train, fault plans), then construct the system and the scenario.
pub fn timed_setup(workload: &Workload, seed: u64, instances: u32) -> Setup {
    let mut build = Vec::new();
    let mut scenario = Vec::new();
    let mut total = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let generated = workload.inputs(seed, instances);
        let t1 = Instant::now();
        let built = (generated.system(), generated.scenario());
        let t2 = Instant::now();
        std::hint::black_box(&built);
        build.push((t1 - t0).as_secs_f64());
        scenario.push((t2 - t1).as_secs_f64());
        total.push((t2 - t0).as_secs_f64());
        inputs = Some(generated);
    }
    Setup {
        inputs: inputs.expect("SETUP_REPEATS > 0"),
        build_deployment_s: spread(&build).median,
        scenario_s: spread(&scenario).median,
        setup_s: spread(&total).median,
    }
}

/// One untraced repetition in this process: warm-up at 1/20 size, timed
/// set-up, timed `WorkflowSystem::run`, checks. With `with_twin` the
/// fault-free twin (where the workload defines one) also runs, untimed.
pub fn repetition(workload: &Workload, seed: u64, instances: u32, with_twin: bool) -> RepResult {
    let warm = workload.inputs(seed, workload.small().min(instances));
    std::hint::black_box(warm.system().run(warm.scenario()));

    let setup = timed_setup(workload, seed, instances);
    let inputs = setup.inputs;
    let (mut system, scenario) = (inputs.system(), inputs.scenario());
    let checkpoints = Checkpoints::install(&mut system.deployment.registry);

    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let report = system.run(scenario);
    let ended = Instant::now();
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mb = peak_rss_mb();

    let twin = inputs
        .fault_free_twin()
        .filter(|_| with_twin)
        .map(|t| outcomes_in_order(&t, &t.system().run(t.scenario())));
    let (failed, violations) = check(workload, &inputs, &report, twin.as_deref());
    RepResult {
        setup_s: setup.setup_s,
        build_deployment_s: setup.build_deployment_s,
        scenario_s: setup.scenario_s,
        wall_s: (ended - started).as_secs_f64(),
        stretches_s: checkpoints.stretches_s(started, ended),
        cpu_s,
        peak_rss_mb,
        instances: report.instances,
        failed,
        violations,
        sim: sim_stats(&inputs, &report),
    }
}
