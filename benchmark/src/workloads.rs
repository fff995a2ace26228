//! The eight workloads: what each one feeds the system and why it exists.
//!
//! A workload is a pure function from `(seed, instances)` to [`Inputs`]: the
//! generated schemas, the open-loop arrival train, user actions and fault
//! plans. The system under test receives only those inputs; the same seed
//! gives the same inputs, so every simulated statistic repeats exactly.

use crew_core::{
    Architecture, BalancerConfig, CrashWindow, NetFaultPlan, PlacementStrategy, Scenario,
    WorkflowSystem,
};
use crew_exec::{Deployment, FailurePlan};
use crew_model::{InstanceId, SchemaId, Value};
use crew_workload::{build_deployment, link_instances, SetupParams};

/// Every workload's instance count is multiplied by this one common factor
/// (ISSUE 11 sizes ÷ 2) so that a 10-second run holds several fresh-process
/// repetitions; see README "Budget".
pub const SCALE_DIVISOR: u32 = 2;

/// Warm-up and `--smoke` runs use this fraction of a workload's size.
pub const SMALL_DIVISOR: u32 = 20;

/// A user action injected mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserAction {
    Abort,
    ChangeInputs,
}

/// Everything one run is given. Both the timed run (`WorkflowSystem::run`)
/// and the traced run (hand-assembled simulation) are built from this.
#[derive(Clone)]
pub struct Inputs {
    /// Schemas, failure plan, coordination spec and instance links.
    pub deployment: Deployment,
    pub arch: Architecture,
    pub placement: PlacementStrategy,
    pub balancer: Option<(u64, BalancerConfig)>,
    /// `(engine, ticks per message)`.
    pub engine_service_costs: Vec<(u32, u64)>,
    pub net_faults: Option<NetFaultPlan>,
    /// `(schema, due tick)` per instance, in start order; serials are
    /// `index + 1`.
    pub starts: Vec<(SchemaId, u64)>,
    /// `(instance index, tick, action)`.
    pub actions: Vec<(usize, u64, UserAction)>,
    pub crashes: Vec<CrashWindow>,
}

/// The workflow inputs every instance starts with.
pub fn instance_inputs() -> Vec<(u16, Value)> {
    vec![(1, Value::Int(5)), (2, Value::Int(1))]
}

/// The inputs a `ChangeInputs` action switches to.
pub fn changed_inputs() -> Vec<(u16, Value)> {
    vec![(1, Value::Int(99))]
}

impl Inputs {
    pub fn instance_id(&self, index: usize) -> InstanceId {
        InstanceId::new(self.starts[index].0, index as u32 + 1)
    }

    pub fn last_arrival(&self) -> u64 {
        self.starts.last().map_or(0, |s| s.1)
    }

    pub fn system(&self) -> WorkflowSystem {
        let mut system = WorkflowSystem::with_deployment(self.deployment.clone(), self.arch)
            .with_placement(self.placement);
        if let Some((interval, cfg)) = self.balancer {
            system = system.with_balancer(interval, cfg);
        }
        for &(e, ticks) in &self.engine_service_costs {
            system = system.with_engine_service_cost(e, ticks);
        }
        if let Some(plan) = &self.net_faults {
            system = system.with_net_faults(plan.clone());
        }
        system
    }

    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::new();
        for &(schema, at) in &self.starts {
            scenario.start_at(schema, instance_inputs(), at);
        }
        for &(index, at, action) in &self.actions {
            match action {
                UserAction::Abort => scenario.abort_at(index, at),
                UserAction::ChangeInputs => scenario.change_inputs_at(index, at, changed_inputs()),
            }
        }
        for &w in &self.crashes {
            scenario.crash(w);
        }
        scenario
    }

    /// The same inputs with no network faults and no crashes: the paper's
    /// exactly-once / fault-free-equivalence guarantee says per-instance
    /// outcomes must equal this twin's. `None` when the workload injects
    /// neither.
    pub fn fault_free_twin(&self) -> Option<Inputs> {
        if self.net_faults.is_none() && self.crashes.is_empty() {
            return None;
        }
        Some(Inputs {
            net_faults: None,
            crashes: Vec::new(),
            ..self.clone()
        })
    }
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// One line: the layer that does most of the work here, so a reader
    /// knows which optimisation should move it and which should not.
    pub why: &'static str,
    /// Instances at full benchmark size (ISSUE 11 size ÷ [`SCALE_DIVISOR`]).
    pub instances: u32,
    /// Every instance must commit (no failures, aborts or input changes are
    /// injected).
    pub all_commit: bool,
    build: fn(seed: u64, instances: u32) -> Inputs,
}

impl Workload {
    pub fn inputs(&self, seed: u64, instances: u32) -> Inputs {
        (self.build)(seed, instances)
    }

    pub fn small(&self) -> u32 {
        (self.instances * SCALE_DIVISOR / SMALL_DIVISOR).max(1)
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "central_steady",
        why: "Table 7 Normal, centralized: engine straight-line navigation + WFDB journaling dominate, simnet.sim is the rest; distributed code is bypassed",
        instances: 20_000 / SCALE_DIVISOR,
        all_commit: true,
        build: central_steady,
    },
    Workload {
        name: "dist_steady",
        why: "Same inputs, no engine: distributed.agent navigation, packet growth/clone and distributed.codec dominate; an engine-only change must show no change here",
        instances: 10_000 / SCALE_DIVISOR,
        all_commit: true,
        build: dist_steady,
    },
    Workload {
        name: "central_failures",
        why: "Table 7 Normal+Failures: the engine layer used differently - rollback, OCR, compensation, abort and input-change paths instead of straight-line firing",
        instances: 4_000 / SCALE_DIVISOR,
        all_commit: false,
        build: central_failures,
    },
    Workload {
        name: "dist_failures",
        why: "The distributed failure protocols (WorkflowRollback, HaltThread, CompensateSet/Thread): the duplicated twin a one-navigator refactor must not slow",
        instances: 2_000 / SCALE_DIVISOR,
        all_commit: false,
        build: dist_failures,
    },
    Workload {
        name: "parallel_coord",
        why: "Table 7 Normal+Coordinated on the architecture that pays most: mutex manager, relative-order decisions, AddRule/AddEvent/AddPrecondition, engine-to-engine traffic",
        instances: 4_000 / SCALE_DIVISOR,
        all_commit: true,
        build: parallel_coord,
    },
    Workload {
        name: "parallel_degraded",
        why: "Only workload with a service-time model, so queueing shows in simulated tail latency: shard ring + balancer + live migration do the work",
        instances: 20_000 / SCALE_DIVISOR,
        all_commit: true,
        build: parallel_degraded,
    },
    Workload {
        name: "central_lossy",
        why: "central_steady inputs over a 5% drop / 5% dup / 10% reorder network: simnet.reliable + WalOutbox + central.codec do most of the work; absent elsewhere",
        instances: 10_000 / SCALE_DIVISOR,
        all_commit: true,
        build: central_lossy,
    },
    Workload {
        name: "central_crash",
        why: "central_steady inputs with five engine crashes: the storage read path (Wal::recover + command-log replay) beside the write path",
        instances: 10_000 / SCALE_DIVISOR,
        all_commit: true,
        build: central_crash,
    },
];

/// Seed of everything *structural* about a workload: the generated schemas
/// (which steps are compensatable, rollback origins), which agents are
/// eligible for which step, and with them the deployment seed that lays out
/// the consistent-hash ring. These define the workload, so they are the same
/// on every run; `--seed` drives the stochastic processes laid over them —
/// the arrival train, the hot-schema mix, step failures, user actions and
/// network faults. With only 2–4 schemas per workload, regenerating the
/// structure per seed moved `msgs_per_inst` by 6 %, `node_load_max_per_inst`
/// by 19 % and p99 latency by 65 % between seeds (README "Bounds"): a
/// different workload each time, not a different sample of one.
const STRUCTURE_SEED: u64 = 42;

/// Shape L (the BENCH_1 shape): 2 sequential schemas × 6 steps, 12 agents,
/// 2 eligible agents per step, no failures, no coordination.
fn shape_l() -> SetupParams {
    SetupParams {
        s: 6,
        c: 2,
        z: 12,
        a: 2,
        me: 0,
        ro: 0,
        rd: 0,
        r: 0,
        pf: 0.0,
        pi: 0.0,
        pa: 0.0,
        pr: 0.0,
        seed: STRUCTURE_SEED,
    }
}

/// Shape P: the Table 3 mean point trimmed to 4 schemas (15 steps, 50
/// agents, rollback depth 5, pr = 0.25), failures and coordination off
/// until a workload turns one of them on.
fn shape_p() -> SetupParams {
    SetupParams {
        s: 15,
        c: 4,
        z: 50,
        a: 2,
        me: 0,
        ro: 0,
        rd: 0,
        r: 5,
        pf: 0.0,
        pi: 0.0,
        pa: 0.0,
        pr: 0.25,
        seed: STRUCTURE_SEED,
    }
}

/// Seeded Poisson arrival train in virtual time: strictly increasing ticks
/// with exponential gaps of mean `1000 / rate_per_ktick`, quantized to at
/// least one tick. Scheduled in full before the run starts (open loop), so
/// the generator is never late.
pub fn arrival_ticks(seed: u64, rate_per_ktick: f64, instances: u32) -> Vec<u64> {
    assert!(rate_per_ktick > 0.0, "offered load must be positive");
    let mean_gap = 1000.0 / rate_per_ktick;
    let mut at = 0u64;
    (0..instances as u64)
        .map(|k| {
            // (0, 1]: flip the [0, 1) draw so ln never sees zero.
            let u = 1.0 - crew_exec::hash::unit_draw(seed, &[0x4c4f_4144, k]);
            at += (-u.ln() * mean_gap).round().max(1.0) as u64;
            at
        })
        .collect()
}

/// Base inputs: `arch` over `setup`, `instances` arrivals at
/// `rate_per_ktick` drawn from `seed`, schemas round-robin except that
/// `hot_fraction` of arrivals (by seeded draw) go to the first schema. The
/// failure plan keeps `setup`'s probabilities but draws from `seed`.
fn open_loop(
    arch: Architecture,
    setup: SetupParams,
    seed: u64,
    rate_per_ktick: f64,
    instances: u32,
    hot_fraction: f64,
) -> Inputs {
    let mut deployment = build_deployment(&setup, false);
    deployment.plan = FailurePlan::probabilistic(seed, setup.pf, setup.pi, setup.pa, setup.pr);
    let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    let starts = arrival_ticks(seed, rate_per_ktick, instances)
        .into_iter()
        .enumerate()
        .map(|(k, at)| {
            let hot = hot_fraction > 0.0
                && crew_exec::hash::unit_draw(seed, &[0x534b_4557, k as u64]) < hot_fraction;
            let schema = if hot {
                schemas[0]
            } else {
                schemas[k % schemas.len()]
            };
            (schema, at)
        })
        .collect();
    Inputs {
        deployment,
        arch,
        placement: PlacementStrategy::Modulo,
        balancer: None,
        engine_service_costs: Vec::new(),
        net_faults: None,
        starts,
        actions: Vec::new(),
        crashes: Vec::new(),
    }
}

const STEADY_RATE: f64 = 200.0;

fn central_steady(seed: u64, instances: u32) -> Inputs {
    open_loop(
        Architecture::Central { agents: 12 },
        shape_l(),
        seed,
        STEADY_RATE,
        instances,
        0.0,
    )
}

fn dist_steady(seed: u64, instances: u32) -> Inputs {
    open_loop(
        Architecture::Distributed { agents: 12 },
        shape_l(),
        seed,
        STEADY_RATE,
        instances,
        0.0,
    )
}

/// Most failing steps one instance may have. Distributed control stalls a
/// few instances per thousand when three or more steps of one instance fail
/// (README "Known stalls"); a benchmark workload must not fail, so the draws
/// are capped below that.
const MAX_FAILING_STEPS: usize = 2;

/// Shape P with step failures (pf = 0.1 per step, first attempt only) and
/// user aborts / input changes (pi = pa = 0.025) landing a few steps into
/// the instance, all per the `FailurePlan` draws for `seed`. The draws are
/// then scripted with two exclusions that keep the distributed protocols off
/// their known stalls: at most [`MAX_FAILING_STEPS`] failing steps per
/// instance, and none in an instance whose inputs a user changes.
fn with_failures(arch: Architecture, seed: u64, instances: u32) -> Inputs {
    let setup = SetupParams {
        pf: 0.1,
        pi: 0.025,
        pa: 0.025,
        ..shape_p()
    };
    let mut inputs = open_loop(arch, setup, seed, 100.0, instances, 0.0);
    let drawn = inputs.deployment.plan.clone();
    let mut plan = FailurePlan::probabilistic(seed, 0.0, setup.pi, setup.pa, setup.pr);
    for k in 0..inputs.starts.len() {
        let instance = inputs.instance_id(k);
        let at = inputs.starts[k].1 + 10 + (k as u64 % 7) * 4;
        if drawn.user_aborts(instance) {
            inputs.actions.push((k, at, UserAction::Abort));
        } else if drawn.inputs_change(instance) {
            inputs.actions.push((k, at, UserAction::ChangeInputs));
            continue;
        }
        let schema = &inputs.deployment.schemas[&instance.schema];
        plan.scripted_failures.extend(
            schema
                .topo_order()
                .iter()
                .filter(|&&step| drawn.step_fails(instance, step, 1))
                .take(MAX_FAILING_STEPS)
                .map(|&step| (instance, step, 1)),
        );
    }
    inputs.deployment.plan = plan;
    inputs
}

fn central_failures(seed: u64, instances: u32) -> Inputs {
    with_failures(Architecture::Central { agents: 50 }, seed, instances)
}

fn dist_failures(seed: u64, instances: u32) -> Inputs {
    with_failures(Architecture::Distributed { agents: 50 }, seed, instances)
}

/// Shape P with coordination (me = 2, ro = 2, rd = 1) and no failures;
/// consecutive instances of paired schemas are linked. Failures and
/// coordination are deliberately not combined: at the full mean point some
/// instances stall (README "Known stalls"), which would poison p99.
fn parallel_coord(seed: u64, instances: u32) -> Inputs {
    let setup = SetupParams {
        me: 2,
        ro: 2,
        rd: 1,
        ..shape_p()
    };
    let arch = Architecture::Parallel {
        agents: 50,
        engines: 4,
    };
    let mut inputs = open_loop(arch, setup, seed, 100.0, instances, 0.0);
    let planned: Vec<InstanceId> = (0..inputs.starts.len())
        .map(|k| inputs.instance_id(k))
        .collect();
    link_instances(&mut inputs.deployment, &planned);
    inputs
}

/// Ticks per message at the degraded engine. Engine 0 owns 1/8 of the
/// arrivals: 15 instances/ktick × 13 messages × 6 ticks = 117 % of its
/// capacity, so only the balancer's live migrations keep its backlog
/// bounded. ISSUE 11 said 8 (156 %); there the backlog is chaotic in the
/// arrival train and p99 moves by a quarter between seeds (IQR/median 25 %
/// over 12 seeds, at any run length), which no bound a gate may carry can
/// resolve. At 6 the same mechanisms do the work (≈ 1 500 migrations per
/// 10 000 instances) and p99 spreads by 7 %.
const DEGRADED_COST: u64 = 6;

/// BENCH_2's e = 8 case: a skewed arrival mix over eight engines that each
/// take 1 tick per message, engine 0 degraded to [`DEGRADED_COST`], placed
/// by a consistent-hash ring and rebalanced by live migration every 100
/// ticks.
fn parallel_degraded(seed: u64, instances: u32) -> Inputs {
    let arch = Architecture::Parallel {
        agents: 12,
        engines: 8,
    };
    let mut inputs = open_loop(arch, shape_l(), seed, 120.0, instances, 0.7);
    inputs.placement = PlacementStrategy::ConsistentHash { vnodes: 16 };
    inputs.balancer = Some((100, BalancerConfig::default()));
    inputs.engine_service_costs = (0..8)
        .map(|e| (e, if e == 0 { DEGRADED_COST } else { 1 }))
        .collect();
    inputs
}

fn central_lossy(seed: u64, instances: u32) -> Inputs {
    let mut inputs = central_steady(seed, instances);
    inputs.net_faults = Some(NetFaultPlan::probabilistic(seed, 0.05, 0.05, 0.10));
    inputs
}

/// Engine 0 crashes five times, evenly spaced over the arrival train (ticks
/// 8 000, 16 000, … 40 000 at the ISSUE 11 size of 10 000 instances), each
/// time down for 200 ticks. Every recovery replays the whole command log.
fn central_crash(seed: u64, instances: u32) -> Inputs {
    let mut inputs = central_steady(seed, instances);
    let train_ticks = instances as f64 * 1000.0 / STEADY_RATE;
    inputs.crashes = (1..=5)
        .map(|k| CrashWindow::engine(0, (train_ticks * 0.16 * k as f64) as u64, Some(200)))
        .collect();
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_train_is_deterministic_and_strictly_increasing() {
        for seed in [1u64, 42, 9173] {
            let a = arrival_ticks(seed, 200.0, 2_000);
            assert_eq!(a, arrival_ticks(seed, 200.0, 2_000), "seed {seed}");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
            // 200 arrivals per 1000 ticks: mean gap near 5 ticks.
            let mean = *a.last().unwrap() as f64 / a.len() as f64;
            assert!((4.0..6.5).contains(&mean), "seed {seed}: mean gap {mean}");
        }
        assert_ne!(
            arrival_ticks(1, 200.0, 100),
            arrival_ticks(2, 200.0, 100),
            "the seed changes the train"
        );
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        for w in WORKLOADS {
            let a = w.inputs(7, w.small());
            let b = w.inputs(7, w.small());
            assert_eq!(a.starts, b.starts, "{}", w.name);
            assert_eq!(a.actions, b.actions, "{}", w.name);
            assert_eq!(a.starts.len() as u32, w.small(), "{}", w.name);
        }
    }

    #[test]
    fn twins_exist_exactly_where_faults_are_injected() {
        for w in WORKLOADS {
            let twin = w.inputs(7, w.small()).fault_free_twin();
            let faulty = matches!(w.name, "central_lossy" | "central_crash");
            assert_eq!(twin.is_some(), faulty, "{}", w.name);
        }
    }

    #[test]
    fn crash_schedule_matches_the_issue_at_full_size() {
        let at: Vec<u64> = central_crash(42, 10_000)
            .crashes
            .iter()
            .map(|w| w.at)
            .collect();
        assert_eq!(at, vec![8_000, 16_000, 24_000, 32_000, 40_000]);
    }
}
