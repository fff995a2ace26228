//! Measured cross-architecture comparisons: the qualitative shape of the
//! paper's §6 analysis must hold on the simulator — distributed agents are
//! the least loaded, distributed normal execution needs the fewest
//! messages, centralized coordination is message-free, and the measured
//! normal-execution counts match the closed forms exactly for sequential
//! workloads.

use crew_central::CentralRun;
use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_distributed::{DistConfig, DistRun, Outcome};
use crew_exec::{hash, Program, ProgramCtx, StepFailure};
use crew_model::{InstanceId, SchemaId, StepId, Value};
use crew_simnet::Mechanism;
use crew_storage::InstanceStatus;
use crew_workload::{build_deployment, SetupParams};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

fn run_arch(arch: Architecture, p: &SetupParams, instances: u32) -> crew_core::RunReport {
    let deployment = build_deployment(p, false);
    let system = WorkflowSystem::with_deployment(deployment, arch);
    let mut scenario = Scenario::new();
    let schemas: Vec<SchemaId> = system.deployment.schemas.keys().copied().collect();
    for k in 0..instances {
        let schema = schemas[(k as usize) % schemas.len()];
        scenario.start(schema, vec![(1, Value::Int(5)), (2, Value::Int(1))]);
    }
    let report = system.run(scenario);
    assert_eq!(report.committed() as u32, instances, "{arch:?}");
    report
}

/// Normal execution, sequential schemas: measured messages per instance
/// match the closed forms — distributed `s·a + f` (f = 1 for a chain, the
/// coordinator message replaced by `WorkflowStart` + `WorkflowCommitted`
/// bookkeeping), central `2·s·a`.
#[test]
fn normal_execution_message_counts_match_model() {
    let p = SetupParams {
        s: 10,
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
        seed: 3,
    };
    let instances = 6;

    let dist = run_arch(Architecture::Distributed { agents: p.z }, &p, instances);
    let cent = run_arch(Architecture::Central { agents: p.z }, &p, instances);

    let s = p.s as f64;
    let a = p.a as f64;
    let dist_normal = dist.messages_per_instance(Mechanism::Normal);
    let cent_normal = cent.messages_per_instance(Mechanism::Normal);

    // Central: ExecRequest+ExecResult to the executor plus
    // StateProbe+Reply to the other a−1 eligible agents per step = 2·s·a.
    assert!(
        (cent_normal - 2.0 * s * a).abs() < 1e-9,
        "central normal {cent_normal} vs 2sa {}",
        2.0 * s * a
    );
    // Distributed: per non-start step, packets to the a eligible agents
    // (the start step gets WorkflowStart + a−1 broadcasts), plus the
    // terminal StepCompleted (f=1) and the WorkflowCommitted notification.
    // = s·a + f + 1.
    let expect = s * a + 1.0 + 1.0;
    assert!(
        (dist_normal - expect).abs() < 2.0,
        "distributed normal {dist_normal} vs model {expect}"
    );
    // The paper's headline: distributed needs fewer messages than central
    // for normal execution.
    assert!(dist_normal < cent_normal);
}

/// Load shape: the busiest distributed agent carries far less navigation
/// load than the central engine; parallel engines sit in between.
#[test]
fn load_shape_distributed_least_loaded() {
    let p = SetupParams {
        s: 10,
        c: 4,
        z: 12,
        a: 1,
        me: 0,
        ro: 0,
        rd: 0,
        r: 0,
        pf: 0.0,
        pi: 0.0,
        pa: 0.0,
        pr: 0.0,
        seed: 5,
    };
    let instances = 12;
    let dist = run_arch(Architecture::Distributed { agents: p.z }, &p, instances);
    let par = run_arch(
        Architecture::Parallel {
            agents: p.z,
            engines: 4,
        },
        &p,
        instances,
    );
    let cent = run_arch(Architecture::Central { agents: p.z }, &p, instances);

    let dist_max = dist.max_scheduler_load_per_instance();
    let par_max = par.max_scheduler_load_per_instance();
    let cent_max = cent.max_scheduler_load_per_instance();
    assert!(
        dist_max < par_max && par_max < cent_max,
        "load shape: dist {dist_max} < par {par_max} < cent {cent_max}"
    );
}

/// Coordination messages: centralized = 0; parallel and distributed > 0;
/// and with a·d small vs e, distributed uses fewer than parallel (the §6
/// crossover).
#[test]
fn coordination_message_shape() {
    let p = SetupParams {
        s: 6,
        c: 2,
        z: 8,
        a: 1,
        me: 1,
        ro: 2,
        rd: 0,
        r: 0,
        pf: 0.0,
        pi: 0.0,
        pa: 0.0,
        pr: 0.0,
        seed: 11,
    };
    // Two linked instances (one per schema of the pair).
    let build = |arch| {
        let mut deployment = build_deployment(&p, false);
        crew_workload::link_instances(
            &mut deployment,
            &[
                crew_model::InstanceId::new(SchemaId(1), 1),
                crew_model::InstanceId::new(SchemaId(2), 2),
            ],
        );
        let system = WorkflowSystem::with_deployment(deployment, arch);
        let mut scenario = Scenario::new();
        scenario.start(SchemaId(1), vec![(1, Value::Int(5)), (2, Value::Int(1))]);
        scenario.start(SchemaId(2), vec![(1, Value::Int(5)), (2, Value::Int(1))]);
        let report = system.run(scenario);
        assert_eq!(report.committed(), 2, "{arch:?}");
        report.messages_per_instance(Mechanism::CoordinatedExecution)
    };

    let cent = build(Architecture::Central { agents: p.z });
    let par = build(Architecture::Parallel {
        agents: p.z,
        engines: 4,
    });
    let dist = build(Architecture::Distributed { agents: p.z });
    assert_eq!(cent, 0.0, "centralized coordination is message-free");
    assert!(
        par > 0.0,
        "parallel coordination needs engine↔engine traffic"
    );
    assert!(
        dist > 0.0,
        "distributed coordination needs agent↔agent traffic"
    );
}

/// Failure handling traffic: with pf > 0, distributed control exchanges
/// rollback/halt traffic; all instances still commit.
#[test]
fn failure_traffic_scales_with_pf() {
    let base = SetupParams {
        s: 8,
        c: 2,
        z: 10,
        a: 1,
        me: 0,
        ro: 0,
        rd: 0,
        r: 0,
        pf: 0.0,
        pi: 0.0,
        pa: 0.0,
        pr: 0.0,
        seed: 13,
    };
    let quiet = run_arch(Architecture::Distributed { agents: base.z }, &base, 10);
    let mut noisy_p = base;
    noisy_p.pf = 0.2;
    noisy_p.r = 3;
    let noisy = run_arch(Architecture::Distributed { agents: base.z }, &noisy_p, 10);
    assert_eq!(quiet.messages_per_instance(Mechanism::FailureHandling), 0.0);
    assert!(
        noisy.messages_per_instance(Mechanism::FailureHandling)
            > quiet.messages_per_instance(Mechanism::FailureHandling),
        "failures generate failure-handling traffic"
    );
}

/// All three architectures compute the same workflow results (output data
/// equivalence via commit counts across a seeded stochastic workload).
#[test]
fn outcome_equivalence_under_failures() {
    let p = SetupParams {
        s: 8,
        c: 2,
        z: 10,
        a: 2,
        me: 0,
        ro: 0,
        rd: 0,
        r: 3,
        pf: 0.15,
        pi: 0.0,
        pa: 0.0,
        pr: 0.25,
        seed: 17,
    };
    let mut counts = Vec::new();
    for arch in [
        Architecture::Central { agents: p.z },
        Architecture::Parallel {
            agents: p.z,
            engines: 2,
        },
        Architecture::Distributed { agents: p.z },
    ] {
        let report = run_arch(arch, &p, 8);
        counts.push(report.committed());
    }
    assert!(counts.iter().all(|&c| c == 8), "{counts:?}");
}

/// EXPERIMENTS.md's density claim, measured: with dense coordination
/// requirements, the parallel architecture pays more coordination
/// messages per instance than distributed control does at low density —
/// and centralized stays at zero throughout.
#[test]
fn coordination_density_shapes() {
    let at_density = |arch: Architecture, density: u32| {
        let p = SetupParams {
            s: 6,
            c: 2,
            z: 8,
            a: 1,
            me: density,
            ro: density.min(3),
            rd: 0,
            r: 0,
            pf: 0.0,
            pi: 0.0,
            pa: 0.0,
            pr: 0.0,
            seed: 19,
        };
        let mut deployment = build_deployment(&p, false);
        crew_workload::link_instances(
            &mut deployment,
            &[
                crew_model::InstanceId::new(SchemaId(1), 1),
                crew_model::InstanceId::new(SchemaId(2), 2),
            ],
        );
        let system = WorkflowSystem::with_deployment(deployment, arch);
        let mut scenario = Scenario::new();
        scenario.start(SchemaId(1), vec![(1, Value::Int(5)), (2, Value::Int(1))]);
        scenario.start(SchemaId(2), vec![(1, Value::Int(5)), (2, Value::Int(1))]);
        let report = system.run(scenario);
        assert_eq!(report.committed(), 2, "{arch:?} density={density}");
        report.messages_per_instance(Mechanism::CoordinatedExecution)
    };
    for density in [1u32, 3] {
        let cent = at_density(Architecture::Central { agents: 8 }, density);
        let dist = at_density(Architecture::Distributed { agents: 8 }, density);
        assert_eq!(cent, 0.0, "central coordination stays message-free");
        assert!(dist > 0.0);
    }
    // Density grows the distributed coordination bill monotonically.
    let low = at_density(Architecture::Distributed { agents: 8 }, 1);
    let high = at_density(Architecture::Distributed { agents: 8 }, 3);
    assert!(
        high > low,
        "coordination messages grow with density: {high} vs {low}"
    );
}

/// What one architecture ran: per instance, every step-program invocation
/// that returned, as (step, attempt, outputs), in (step, attempt) order.
type Runs = BTreeMap<InstanceId, Vec<(StepId, u32, Vec<Value>)>>;

/// A step program wrapped to record each invocation into [`Runs`].
struct Recorded {
    inner: Arc<dyn Program>,
    runs: Arc<Mutex<Runs>>,
}

impl Program for Recorded {
    fn run(&self, ctx: &ProgramCtx) -> Result<Vec<Value>, StepFailure> {
        let outputs = self.inner.run(ctx)?;
        let mut runs = self.runs.lock().expect("poisoned only by a panic");
        let record = (ctx.step, ctx.attempt, outputs.clone());
        runs.entry(ctx.instance).or_default().push(record);
        Ok(outputs)
    }

    fn compensate(&self, ctx: &ProgramCtx) {
        self.inner.compensate(ctx);
    }
}

/// Run `deployment`, with every step program wrapped to record what it
/// ran, under `control`. (Compensation programs are left alone: agents
/// call them with a placeholder attempt.)
fn recorded_runs(
    deployment: &crew_exec::Deployment,
    control: impl FnOnce(crew_exec::Deployment),
) -> Runs {
    let mut deployment = deployment.clone();
    let runs = Arc::new(Mutex::new(Runs::new()));
    let steps = deployment.schemas.values().flat_map(|s| s.steps());
    let names: BTreeSet<String> = steps.map(|d| d.program.clone()).collect();
    for name in names {
        let inner = deployment.registry.get(&name).expect("listed").clone();
        let runs = runs.clone();
        deployment.registry.register(name, Recorded { inner, runs });
    }
    control(deployment);
    let mut runs = runs.lock().expect("poisoned only by a panic").clone();
    for record in runs.values_mut() {
        record.sort_by_key(|&(step, attempt, _)| (step, attempt));
    }
    runs
}

/// What every instance ran after running `deployment` under central and
/// under distributed control. The committed data table is a function of
/// this record (each item holds its step's last output); under central
/// control the engine no longer keeps the table once the instance retires.
fn program_runs(
    deployment: &crew_exec::Deployment,
    agents: u32,
    starts: &[InstanceId],
) -> [Runs; 2] {
    let inputs = || vec![(1, Value::Int(5)), (2, Value::Int(1))];
    let central = recorded_runs(deployment, |deployment| {
        let mut central = CentralRun::new(deployment, agents, 1);
        for inst in starts {
            assert_eq!(central.start_instance(inst.schema, inputs()), *inst);
        }
        central.run();
        let statuses = central.statuses();
        for inst in starts {
            let status = statuses.get(inst);
            assert_eq!(status, Some(&InstanceStatus::Committed), "{inst}");
        }
    });
    let distributed = recorded_runs(deployment, |deployment| {
        let mut dist = DistRun::new(deployment, agents, DistConfig::default());
        for inst in starts {
            assert_eq!(dist.start_instance(inst.schema, inputs()), *inst);
        }
        dist.run();
        let outcomes = dist.outcomes();
        for inst in starts {
            assert_eq!(outcomes.get(inst), Some(&Outcome::Committed), "{inst}");
        }
    });
    [central, distributed]
}

/// Differential architectures, at the data level: the same
/// `crew-workload` schemas, seed and `FailurePlan` run the same step
/// programs per instance under central and distributed control — the same
/// steps, attempts and outputs (every output is a `step@attempt` stamp), so
/// both architectures executed, reused and re-executed the same steps the
/// same number of times, and committed the same data. Fault-free, and with
/// 1 and 2 scripted failing steps per instance
/// (the envelope `benchmark/README.md` "Known stalls" documents for
/// distributed control). Sequential schemas, like the rest of this file:
/// under distributed control a generated AND-diamond whose two branches are
/// designated at one agent runs the second branch off the first branch's
/// packet, before its own weight arrives, and never commits.
#[test]
fn committed_data_matches_between_central_and_distributed() {
    let p = SetupParams {
        s: 11,
        c: 3,
        z: 8,
        a: 2,
        me: 0,
        ro: 0,
        rd: 0,
        r: 2,
        pf: 0.0,
        pi: 0.0,
        pa: 0.0,
        pr: 0.5,
        seed: 29,
    };
    let base = build_deployment(&p, false);
    let schemas: Vec<SchemaId> = base.schemas.keys().copied().collect();
    let starts: Vec<InstanceId> = (0..12u32)
        .map(|k| InstanceId::new(schemas[k as usize % schemas.len()], k + 1))
        .collect();

    for failing_steps in 0..=2u64 {
        let mut deployment = base.clone();
        for inst in &starts {
            let order = deployment.expect_schema(inst.schema).topo_order().to_vec();
            // Distinct steps per instance: a hashed first pick, the second
            // a fixed stride further along the topo order.
            let first = hash::combine(p.seed, &[inst.serial as u64]) as usize;
            for j in 0..failing_steps as usize {
                let step = order[(first + j * 4) % order.len()];
                deployment.plan = deployment.plan.fail_step(*inst, step, 1);
            }
        }
        let [central, distributed] = program_runs(&deployment, p.z, &starts);
        for inst in &starts {
            assert!(central.contains_key(inst), "{inst} ran");
            assert_eq!(
                central.get(inst),
                distributed.get(inst),
                "{inst} with {failing_steps} failing step(s)"
            );
        }
        let mut runs = central.values().flatten();
        assert_eq!(
            runs.any(|&(_, attempt, _)| attempt > 1),
            failing_steps > 0,
            "failures, and only failures, force later attempts"
        );
    }
}
