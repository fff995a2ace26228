//! Open-loop traffic driver: Poisson arrivals over the deterministic
//! simulator.
//!
//! A closed-loop harness (start N, wait, start N more) measures the
//! system's own backpressure; an *open-loop* driver schedules the whole
//! arrival train up front at a configured rate, so queueing delay shows up
//! in the completion-latency percentiles instead of silently throttling
//! the offered load. Arrivals are a Poisson process in virtual time —
//! exponential inter-arrival gaps drawn from the seeded hash, so the same
//! `(seed, rate, instances)` triple always produces the identical train
//! and every measurement is reproducible bit-for-bit.

use crew_core::{
    Architecture, BalancerConfig, LatencyStats, PlacementStrategy, Scenario, WorkflowSystem,
};
use crew_model::{SchemaId, Value};
use crew_workload::{build_deployment, SetupParams};

/// One open-loop load point: which architecture, how hard, how long.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Architecture under test.
    pub arch: Architecture,
    /// Offered load: expected arrivals per 1000 virtual ticks.
    pub rate_per_ktick: f64,
    /// Total instances in the arrival train.
    pub instances: u32,
    /// Workload shape (schemas, steps, agents, failure probabilities).
    pub setup: SetupParams,
    /// Instance-placement strategy (central/parallel control).
    pub placement: PlacementStrategy,
    /// Auto-balancer `(interval, config)`; `None` = static placement.
    pub balancer: Option<(u64, BalancerConfig)>,
    /// Skewed arrival mix: this fraction of arrivals is concentrated on
    /// the first schema instead of round-robining. `0.0` = uniform.
    pub hot_fraction: f64,
    /// Per-message engine service cost in virtual ticks (`0` = engines
    /// handle messages instantly, the pre-shard behavior).
    pub engine_cost: u64,
    /// A degraded engine `(index, ticks)`: that engine pays `ticks` per
    /// message instead of `engine_cost`, modeling a slow node the static
    /// placement keeps feeding at full rate.
    pub degraded: Option<(u32, u64)>,
}

impl LoadSpec {
    /// A plain load point: modulo placement, no balancer, uniform
    /// arrival mix, instant engines.
    pub fn new(
        arch: Architecture,
        rate_per_ktick: f64,
        instances: u32,
        setup: SetupParams,
    ) -> Self {
        LoadSpec {
            arch,
            rate_per_ktick,
            instances,
            setup,
            placement: PlacementStrategy::Modulo,
            balancer: None,
            hot_fraction: 0.0,
            engine_cost: 0,
            degraded: None,
        }
    }
}

/// One point of the `repro escale` sweep (DESIGN §6f): 800 arrivals, 70 %
/// of them on the hot schema, engines paying 1 tick per message and engine
/// 0 degraded to 8 — the divergence-from-uniform case the balancer exists
/// for — over `engines` parallel engines under the paper's static modulo
/// assignment, or (`balanced`) consistent-hash placement plus the
/// auto-balancer sampling every 100 ticks.
pub fn escale_spec(engines: u32, rate_per_ktick: f64, balanced: bool) -> LoadSpec {
    let setup = SetupParams {
        z: 12,
        seed: 42,
        ..SetupParams::small()
    };
    let arch = Architecture::Parallel {
        agents: setup.z,
        engines,
    };
    let mut spec = LoadSpec::new(arch, rate_per_ktick, 800, setup);
    if balanced {
        spec.placement = PlacementStrategy::ConsistentHash { vnodes: 16 };
        spec.balancer = Some((100, BalancerConfig::default()));
    }
    spec.hot_fraction = 0.7;
    spec.engine_cost = 1;
    spec.degraded = Some((0, 8));
    spec
}

/// Measured result of one open-loop run; every field is in the tick
/// domain, so the same spec always yields the same result (rates in wall
/// time are `benchmark/`'s job).
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Instances committed / aborted / not terminal at quiescence.
    pub committed: usize,
    /// See [`LoadResult::committed`].
    pub aborted: usize,
    /// See [`LoadResult::committed`].
    pub stalled: usize,
    /// Virtual time at quiescence.
    pub virtual_ticks: u64,
    /// Terminal instances per 1000 virtual ticks (the modeled throughput;
    /// compare against `rate_per_ktick` to spot saturation).
    pub instances_per_ktick: f64,
    /// Completion latency in virtual ticks (arrival → terminal status).
    pub latency_ticks: Option<LatencyStats>,
    /// Total logical messages delivered.
    pub messages: u64,
    /// Total payload bytes (approximate).
    pub bytes: u64,
    /// Live migrations completed during the run (0 without a balancer).
    pub migrations: u64,
    /// End-of-run per-engine load skew, max/mean pressure (1.0 when
    /// balanced or when the architecture has no engine fleet).
    pub engine_skew: f64,
}

/// The deterministic Poisson arrival train for `(seed, rate, instances)`:
/// strictly increasing virtual ticks, exponential gaps of mean
/// `1000 / rate_per_ktick` (quantized to ≥ 1 tick).
pub fn arrival_ticks(seed: u64, rate_per_ktick: f64, instances: u32) -> Vec<u64> {
    assert!(rate_per_ktick > 0.0, "offered load must be positive");
    let mean_gap = 1000.0 / rate_per_ktick;
    let mut at = 0u64;
    let mut out = Vec::with_capacity(instances as usize);
    for k in 0..instances as u64 {
        // (0, 1]: flip the [0,1) draw so ln never sees zero.
        let u = 1.0 - crew_exec::hash::unit_draw(seed, &[0x4c4f4144, k]);
        let gap = (-u.ln() * mean_gap).round().max(1.0) as u64;
        at += gap;
        out.push(at);
    }
    out
}

/// Run one open-loop load point to quiescence and measure.
pub fn run_load(spec: &LoadSpec) -> LoadResult {
    let deployment = build_deployment(&spec.setup, false);
    let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    let mut system =
        WorkflowSystem::with_deployment(deployment, spec.arch).with_placement(spec.placement);
    if let Some((interval, cfg)) = spec.balancer {
        system = system.with_balancer(interval, cfg);
    }
    let engines = match spec.arch {
        Architecture::Parallel { engines, .. } => engines,
        Architecture::Central { .. } => 1,
        Architecture::Distributed { .. } => 0,
    };
    if spec.engine_cost > 0 {
        for e in 0..engines {
            system = system.with_engine_service_cost(e, spec.engine_cost);
        }
    }
    if let Some((e, ticks)) = spec.degraded {
        if e < engines {
            system = system.with_engine_service_cost(e, ticks);
        }
    }

    let mut scenario = Scenario::new();
    for (k, &at) in arrival_ticks(spec.setup.seed, spec.rate_per_ktick, spec.instances)
        .iter()
        .enumerate()
    {
        // Skewed mix: a seeded draw sends `hot_fraction` of arrivals to
        // the first schema; the rest round-robin over the whole set.
        let hot = spec.hot_fraction > 0.0
            && crew_exec::hash::unit_draw(spec.setup.seed, &[0x534b_4557, k as u64])
                < spec.hot_fraction;
        let schema = if hot {
            schemas[0]
        } else {
            schemas[k % schemas.len()]
        };
        scenario.start_at(schema, vec![(1, Value::Int(5)), (2, Value::Int(1))], at);
    }

    let report = system.run(scenario);

    let committed = report.committed();
    let aborted = report.aborted();
    let terminal = (committed + aborted) as f64;
    let stalled = spec.instances as usize - committed - aborted;
    LoadResult {
        committed,
        aborted,
        stalled,
        virtual_ticks: report.virtual_time,
        instances_per_ktick: if report.virtual_time > 0 {
            terminal * 1000.0 / report.virtual_time as f64
        } else {
            0.0
        },
        latency_ticks: report.latency_stats(),
        messages: report.metrics.total_messages,
        bytes: report.metrics.total_bytes,
        migrations: report.migrations(),
        engine_skew: report.engine_skew(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arch: Architecture, rate: f64, instances: u32) -> LoadSpec {
        LoadSpec::new(arch, rate, instances, SetupParams::small())
    }

    #[test]
    fn arrival_train_is_deterministic_and_increasing() {
        let a = arrival_ticks(42, 100.0, 500);
        let b = arrival_ticks(42, 100.0, 500);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        // Mean gap tracks 1000/rate loosely (quantized exponential).
        let mean = *a.last().unwrap() as f64 / a.len() as f64;
        assert!((5.0..20.0).contains(&mean), "mean gap {mean} for rate 100");
        let c = arrival_ticks(43, 100.0, 500);
        assert_ne!(a, c, "seed changes the train");
    }

    #[test]
    fn open_loop_run_completes_under_all_architectures() {
        let z = SetupParams::small().z;
        for arch in [
            Architecture::Central { agents: z },
            Architecture::Parallel {
                agents: z,
                engines: 2,
            },
            Architecture::Distributed { agents: z },
        ] {
            let r = run_load(&spec(arch, 50.0, 40));
            assert_eq!(r.committed, 40, "{arch:?}");
            assert_eq!(r.stalled, 0, "{arch:?}");
            assert!(r.instances_per_ktick > 0.0, "{arch:?}");
            let lat = r.latency_ticks.expect("completions recorded");
            assert_eq!(lat.count, 40, "{arch:?}");
            assert!(lat.p50 > 0 && lat.p50 <= lat.p95 && lat.p95 <= lat.p99);
            assert!(r.messages > 0 && r.bytes > 0);
        }
    }

    #[test]
    fn balanced_run_with_degraded_engine_commits_deterministically() {
        let z = SetupParams::small().z;
        let mut s = spec(
            Architecture::Parallel {
                agents: z,
                engines: 4,
            },
            100.0,
            60,
        );
        s.placement = PlacementStrategy::ConsistentHash { vnodes: 8 };
        s.balancer = Some((
            40,
            BalancerConfig {
                skew_threshold: 1.2,
                max_moves_per_round: 4,
            },
        ));
        s.engine_cost = 1;
        s.degraded = Some((0, 8));
        s.hot_fraction = 0.6;
        let r = run_load(&s);
        assert_eq!(r.committed, 60);
        assert_eq!(r.stalled, 0);
        assert!(r.engine_skew >= 1.0);
        let again = run_load(&s);
        assert_eq!(r.virtual_ticks, again.virtual_ticks, "deterministic");
        assert_eq!(r.migrations, again.migrations, "deterministic");
    }

    /// The e = 8 rows of `repro escale` at 120/ktick, pinned as printed:
    /// the row DESIGN §6f quotes cannot drift unseen.
    #[test]
    fn escale_e8_rows_are_pinned() {
        // (balanced, committed, virtual ticks, p99, migrations, skew)
        let pinned = [
            (false, 800, 11_069, 5_225, 0, "1.11"),
            (true, 800, 7_580, 1_159, 140, "1.25"),
        ];
        for (balanced, committed, ticks, p99, migrations, skew) in pinned {
            let r = run_load(&escale_spec(8, 120.0, balanced));
            let lat = r.latency_ticks.expect("completions recorded");
            assert_eq!(
                (r.committed, r.virtual_ticks, lat.p99, r.migrations),
                (committed, ticks, p99, migrations),
                "balanced = {balanced}"
            );
            assert_eq!(
                format!("{:.2}", r.engine_skew),
                skew,
                "balanced = {balanced}"
            );
        }
    }

    #[test]
    fn higher_rate_finishes_in_fewer_ticks() {
        let z = SetupParams::small().z;
        let slow = run_load(&spec(Architecture::Central { agents: z }, 20.0, 60));
        let fast = run_load(&spec(Architecture::Central { agents: z }, 200.0, 60));
        assert!(
            fast.virtual_ticks < slow.virtual_ticks,
            "fast {} vs slow {}",
            fast.virtual_ticks,
            slow.virtual_ticks
        );
    }
}
