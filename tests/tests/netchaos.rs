//! Network chaos: every architecture must reach the *same* terminal
//! outcomes on a lossy, duplicating, reordering, partitioning network as
//! it does on a perfect one — the reliable exactly-once channels underneath
//! are the paper's "persistent messaging" assumption made executable.
//!
//! Assertions are restricted to timing-invariant properties (all-commit
//! fleets, retry-exhaustion aborts, execution counts): faults shift
//! virtual time, so races the paper itself calls user-visible (abort vs
//! commit) are exercised elsewhere.

use crew_core::{
    Architecture, BalancerConfig, CrashWindow, EngineLoad, NetFaultPlan, RunReport, Scenario,
    WorkflowSystem,
};
use crew_exec::{FnProgram, StepFailure};
use crew_integration_tests::{linear_logged_schema, ExecLog};
use crew_model::{AgentId, SchemaBuilder, SchemaId, Value, WorkflowSchema};
use crew_simnet::NodeId;
use proptest::prelude::*;

const ALL_ARCHS: [Architecture; 3] = [
    Architecture::Central { agents: 6 },
    Architecture::Parallel {
        agents: 6,
        engines: 2,
    },
    Architecture::Distributed { agents: 6 },
];

/// Fault-plan seed, overridable via `CREW_CHAOS_SEED` so CI can sweep the
/// whole suite under a second seed without code changes. Assertions here
/// are seed-robust by design (timing-invariant properties only).
fn chaos_seed(default: u64) -> u64 {
    match std::env::var("CREW_CHAOS_SEED") {
        Ok(s) => s.parse().expect("CREW_CHAOS_SEED must be a u64"),
        Err(_) => default,
    }
}

/// Two steps; the second always fails, exhausting the retry budget and
/// aborting — a deterministic, timing-invariant abort path.
fn doom_schema() -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(2), "doom").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "doom");
    b.seq(s1, s2);
    for (i, s) in [s1, s2].iter().enumerate() {
        b.configure(*s, |d| {
            d.eligible_agents = vec![AgentId(4 + i as u32)];
            d.compensation_program = Some("passthrough".into());
        });
    }
    b.build().unwrap()
}

/// Mixed fleet: four 4-step instances that commit, two that abort by
/// retry exhaustion. `crashes` injects fail-stop windows on top.
fn run_mixed_with_crashes(
    arch: Architecture,
    net: Option<NetFaultPlan>,
    crashes: &[CrashWindow],
) -> (RunReport, ExecLog) {
    let log = ExecLog::new();
    let mut system =
        WorkflowSystem::new([linear_logged_schema(1, 4, 4, "log"), doom_schema()], arch);
    log.register(&mut system.deployment.registry, "log");
    system.deployment.registry.register(
        "doom",
        FnProgram(|_ctx: &crew_exec::ProgramCtx| Err(StepFailure::new("doomed"))),
    );
    if let Some(plan) = net {
        system = system.with_net_faults(plan);
    }
    let mut scenario = Scenario::new();
    for k in 0..4 {
        scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
    }
    for _ in 0..2 {
        scenario.start(SchemaId(2), vec![(1, Value::Int(9))]);
    }
    for &w in crashes {
        scenario.crash(w);
    }
    (system.run(scenario), log)
}

fn run_mixed(arch: Architecture, net: Option<NetFaultPlan>) -> (RunReport, ExecLog) {
    run_mixed_with_crashes(arch, net, &[])
}

/// 5% drop + 5% dup + 10% reorder: terminal outcomes are identical to the
/// fault-free run, per instance, under every architecture.
#[test]
fn faulty_fleet_matches_fault_free_outcomes() {
    for arch in ALL_ARCHS {
        let (baseline, _) = run_mixed(arch, None);
        assert!(baseline.all_terminal(), "{arch:?} baseline");
        assert_eq!(baseline.committed(), 4, "{arch:?} baseline");
        assert_eq!(baseline.aborted(), 2, "{arch:?} baseline");
        assert_eq!(
            baseline.transport().data_frames,
            0,
            "{arch:?}: fault-free runs must not touch the reliable channel"
        );

        let plan = NetFaultPlan::probabilistic(chaos_seed(7), 0.05, 0.05, 0.10);
        let (faulty, _) = run_mixed(arch, Some(plan));
        assert_eq!(
            faulty.outcomes, baseline.outcomes,
            "{arch:?}: outcomes diverged under faults"
        );
        let t = faulty.transport();
        assert!(t.data_frames > 0, "{arch:?}: traffic rode the channel");
        assert!(
            t.drops_injected + t.dups_injected + t.reorders_injected > 0,
            "{arch:?}: the plan actually injected faults"
        );
        // Only data drops *require* a retransmission; a dropped ack may be
        // covered by a later cumulative ack before the retry timer fires.
        assert!(
            t.retransmissions >= t.data_drops_injected.min(1),
            "{arch:?}: data drops were recovered by retransmission"
        );
        assert!(faulty.frame_overhead() >= 1.0, "{arch:?}");
    }
}

/// Exactly-once: under drop/dup/reorder every step of every committed
/// instance executes precisely once (`pf = 0`, no crashes — any count > 1
/// is duplicate delivery leaking through the channel).
#[test]
fn no_duplicate_step_executions_under_faults() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut system =
            WorkflowSystem::new([linear_logged_schema(1, 5, 5, "log")], arch).with_net_faults(
                NetFaultPlan::probabilistic(chaos_seed(13), 0.08, 0.10, 0.15),
            );
        log.register(&mut system.deployment.registry, "log");
        let mut scenario = Scenario::new();
        for k in 0..5 {
            scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        }
        let insts: Vec<_> = (0..5).map(|i| scenario.instance_id(i)).collect();
        let report = system.run(scenario);
        assert_eq!(report.committed(), 5, "{arch:?}");
        assert!(
            report.transport().dups_injected > 0,
            "{arch:?}: plan injected dups"
        );
        for inst in insts {
            for step in 1..=5u32 {
                assert_eq!(
                    log.count(inst, crew_model::StepId(step)),
                    1,
                    "{arch:?}: {inst} step {step} must execute exactly once"
                );
            }
        }
    }
}

/// A healing partition plus a recovering agent crash on top of the lossy
/// network: the WAL-backed outboxes retransmit across both outages and the
/// whole fleet still commits.
#[test]
fn partition_and_crash_heal_without_losing_workflows() {
    for arch in ALL_ARCHS {
        // Cut the busiest link: engine↔agent under central control (the
        // engine sits above the agent pool), agent↔agent under distributed.
        let (a, b) = match arch {
            Architecture::Central { agents } | Architecture::Parallel { agents, .. } => {
                (NodeId(0), NodeId(agents))
            }
            Architecture::Distributed { .. } => (NodeId(0), NodeId(1)),
        };
        let plan = NetFaultPlan::probabilistic(chaos_seed(21), 0.03, 0.03, 0.05).cut(a, b, 0, 80);
        let log = ExecLog::new();
        let mut system =
            WorkflowSystem::new([linear_logged_schema(1, 4, 4, "log")], arch).with_net_faults(plan);
        log.register(&mut system.deployment.registry, "log");
        let mut scenario = Scenario::new();
        for k in 0..4 {
            scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        }
        scenario.crash(CrashWindow::agent(1, 6, Some(60)));
        let report = system.run(scenario);
        assert!(report.all_terminal(), "{arch:?}");
        assert_eq!(
            report.committed(),
            4,
            "{arch:?}: fleet survived partition + crash"
        );
        assert!(
            report.virtual_time >= 80,
            "{arch:?}: ran past the partition window"
        );
    }
}

/// Same seed ⇒ bit-identical run: outcomes, virtual time, message totals,
/// and every transport counter.
#[test]
fn faulty_runs_are_deterministic_per_seed() {
    for arch in ALL_ARCHS {
        let plan = NetFaultPlan::probabilistic(chaos_seed(42), 0.06, 0.06, 0.12);
        let (r1, _) = run_mixed(arch, Some(plan.clone()));
        let (r2, _) = run_mixed(arch, Some(plan));
        assert_eq!(r1.outcomes, r2.outcomes, "{arch:?}");
        assert_eq!(r1.virtual_time, r2.virtual_time, "{arch:?}");
        assert_eq!(r1.events, r2.events, "{arch:?}");
        assert_eq!(
            r1.metrics.total_messages, r2.metrics.total_messages,
            "{arch:?}"
        );
        assert_eq!(*r1.transport(), *r2.transport(), "{arch:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any fault seed: the mixed fleet always reaches the fault-free
    /// terminal outcomes (4 commits, 2 retry-exhaustion aborts) under both
    /// the centralized and the distributed architecture.
    #[test]
    fn any_seed_reaches_fault_free_outcomes(seed in 0u64..1_000_000) {
        for arch in [
            Architecture::Central { agents: 6 },
            Architecture::Distributed { agents: 6 },
        ] {
            let plan = NetFaultPlan::probabilistic(seed, 0.08, 0.05, 0.12);
            let (report, _) = run_mixed(arch, Some(plan));
            prop_assert!(report.all_terminal(), "{arch:?} seed={seed}");
            prop_assert_eq!(report.committed(), 4, "{arch:?} seed={seed}");
            prop_assert_eq!(report.aborted(), 2, "{arch:?} seed={seed}");
        }
    }
}

/// The ISSUE's headline property: runs with *engine* crash windows — with
/// and without a lossy network underneath — reach the same terminal
/// outcomes and the same per-(instance, step) execution counts as the
/// fault-free run, deterministically per seed. Exactly-once step execution
/// across an engine outage is what the WFDB command log buys.
#[test]
fn engine_crash_matches_fault_free_outcomes() {
    for arch in [
        Architecture::Central { agents: 6 },
        Architecture::Parallel {
            agents: 6,
            engines: 2,
        },
    ] {
        let (baseline, base_log) = run_mixed(arch, None);
        assert_eq!(baseline.committed(), 4, "{arch:?} baseline");
        assert_eq!(baseline.aborted(), 2, "{arch:?} baseline");
        let insts: Vec<_> = baseline.outcomes.keys().copied().collect();

        let engines = match arch {
            Architecture::Parallel { engines, .. } => engines,
            _ => 1,
        };
        for engine in 0..engines {
            for net in [
                None,
                Some(NetFaultPlan::probabilistic(chaos_seed(7), 0.05, 0.05, 0.10)),
            ] {
                let crash = CrashWindow::engine(engine, 8, Some(50));
                let (report, log) = run_mixed_with_crashes(arch, net.clone(), &[crash]);
                assert_eq!(
                    report.outcomes,
                    baseline.outcomes,
                    "{arch:?} engine {engine} net={:?}: outcomes diverged",
                    net.is_some()
                );
                for &inst in &insts {
                    for step in 1..=4u32 {
                        let step = crew_model::StepId(step);
                        assert_eq!(
                            log.count(inst, step),
                            base_log.count(inst, step),
                            "{arch:?} engine {engine} net={:?}: {inst} {step:?} execution \
                             count diverged from the fault-free run",
                            net.is_some()
                        );
                    }
                }
            }
        }
    }
}

// ---- live migration under chaos (crew-shard) -------------------------------

use crew_central::CentralRun;
use crew_exec::Deployment;
use crew_model::{CoordinationSpec, InstanceId, MutualExclusion, SchemaStep, StepId};
use crew_storage::InstanceStatus;

/// Three-engine fleet of four slow 6-step instances, one of which is
/// ordered migrated mid-flight at tick 8. `make_net` sees `(src, dst)`
/// engine node ids so partition cases can cut exactly the hand-off link.
fn run_migration_fleet(
    crash_target: Option<(u64, u64)>,
    make_net: impl FnOnce(crew_simnet::NodeId, crew_simnet::NodeId) -> Option<NetFaultPlan>,
) -> (CentralRun, ExecLog, Vec<InstanceId>, u32, u32) {
    let log = ExecLog::new();
    let mut deployment = Deployment::new([linear_logged_schema(1, 6, 2, "log")]);
    log.register(&mut deployment.registry, "log");
    let mut run = CentralRun::new(deployment, 2, 3);
    // Slow agents widen the execution window, so the migration order
    // lands mid-flight under every fault seed.
    for a in 0..2 {
        run.sim.set_service_cost(run.topo.agent_node(AgentId(a)), 5);
    }
    let insts: Vec<InstanceId> = (0..4)
        .map(|k| run.start_instance(SchemaId(1), vec![(1, Value::Int(k))]))
        .collect();
    let src = run.topo.owner_engine(insts[0]);
    let dst = (src + 1) % 3;
    run.migrate_instance_at(insts[0], dst, 8);
    if let Some(plan) = make_net(run.topo.engine_node(src), run.topo.engine_node(dst)) {
        run.sim.enable_net_faults(plan);
    }
    if let Some((at, down)) = crash_target {
        run.sim
            .schedule_crash(run.topo.engine_node(dst), at, Some(down));
    }
    run.run();
    (run, log, insts, src, dst)
}

/// Mid-flight migration under drop/dup/reorder, under a target-engine
/// crash during the hand-off, and under a healing partition of the
/// hand-off link: every variant reaches the fault-free outcomes with the
/// fault-free per-(instance, step) execution counts — exactly once.
#[test]
fn migration_under_chaos_matches_fault_free_exactly_once() {
    let (base_run, base_log, insts, _, base_dst) = run_migration_fleet(None, |_, _| None);
    let base_statuses = base_run.statuses();
    for inst in &insts {
        assert_eq!(
            base_statuses.get(inst),
            Some(&InstanceStatus::Committed),
            "baseline {inst}"
        );
    }
    assert_eq!(
        base_run.engine(base_dst).migrations_in,
        1,
        "baseline migration completed"
    );

    type NetFn = fn(crew_simnet::NodeId, crew_simnet::NodeId) -> Option<NetFaultPlan>;
    type Variant = (&'static str, Option<(u64, u64)>, NetFn);
    let variants: [Variant; 3] = [
        ("lossy network", None, |_, _| {
            Some(NetFaultPlan::probabilistic(
                chaos_seed(31),
                0.06,
                0.06,
                0.12,
            ))
        }),
        ("target crash during hand-off", Some((9, 20)), |_, _| {
            Some(NetFaultPlan::probabilistic(
                chaos_seed(31),
                0.04,
                0.04,
                0.08,
            ))
        }),
        ("hand-off link partitioned", None, |src, dst| {
            Some(NetFaultPlan::probabilistic(chaos_seed(31), 0.03, 0.03, 0.06).cut(src, dst, 6, 80))
        }),
    ];
    for (name, crash, make_net) in variants {
        let (run, log, insts2, _, dst) = run_migration_fleet(crash, make_net);
        assert_eq!(insts2, insts, "{name}: same fleet");
        assert_eq!(run.statuses(), base_statuses, "{name}: outcomes diverged");
        assert_eq!(
            run.engine(dst).migrations_in,
            1,
            "{name}: the migration still lands"
        );
        for inst in &insts {
            for step in 1..=6u32 {
                let step = StepId(step);
                assert_eq!(
                    log.count(*inst, step),
                    base_log.count(*inst, step),
                    "{name}: {inst} {step:?} diverged from the fault-free count"
                );
                assert_eq!(
                    log.count(*inst, step),
                    1,
                    "{name}: {inst} {step:?} must execute exactly once"
                );
            }
        }
    }
}

/// A mutex holder migrated mid-critical-section while the network drops,
/// duplicates and reorders: exclusion stays safe, both contenders commit,
/// and every step still executes exactly once. The tick scan finds the
/// critical-section window for whatever timing the fault seed produces.
#[test]
fn migrating_a_mutex_holder_under_chaos_stays_exactly_once() {
    let mut saw_holder_migration = false;
    for at in 1..80 {
        let log = ExecLog::new();
        let mut deployment = Deployment::new([linear_logged_schema(1, 4, 1, "log")]);
        deployment.coordination = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "booth".into(),
                members: vec![SchemaStep::new(SchemaId(1), StepId(2))],
            }],
            ..CoordinationSpec::default()
        };
        log.register(&mut deployment.registry, "log");
        let mut run = CentralRun::new(deployment, 1, 2);
        run.sim.set_service_cost(run.topo.agent_node(AgentId(0)), 5);
        let a = run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]);
        let b = run.start_instance(SchemaId(1), vec![(1, Value::Int(2))]);
        let src = run.topo.owner_engine(a);
        let dst = 1 - src;
        run.migrate_instance_at(a, dst, at);
        run.sim.enable_net_faults(NetFaultPlan::probabilistic(
            chaos_seed(17),
            0.05,
            0.05,
            0.10,
        ));
        run.run();
        let statuses = run.statuses();
        assert_eq!(
            statuses.get(&a),
            Some(&InstanceStatus::Committed),
            "at {at}"
        );
        assert_eq!(
            statuses.get(&b),
            Some(&InstanceStatus::Committed),
            "at {at}"
        );
        for inst in [a, b] {
            for step in 1..=4u32 {
                assert_eq!(
                    log.count(inst, StepId(step)),
                    1,
                    "at {at}: {inst} S{step} must execute exactly once"
                );
            }
        }
        if run.engine(dst).migrations_in_with_mutex == 1 {
            saw_holder_migration = true;
            break;
        }
    }
    assert!(
        saw_holder_migration,
        "no migration tick caught the instance holding the mutex"
    );
}

/// The balancer samples per-window counter deltas while an engine is down
/// and just after it recovers (a crash zeroes the counters, and replay
/// does not re-count forwards): the run must neither panic on a negative
/// window nor strand an instance, on a perfect network and on a lossy one.
#[test]
fn balancer_migrations_survive_an_engine_crash() {
    for net in [
        None,
        Some(NetFaultPlan::probabilistic(
            chaos_seed(23),
            0.04,
            0.04,
            0.08,
        )),
    ] {
        let lossy = net.is_some();
        let mut system = WorkflowSystem::new(
            [linear_logged_schema(1, 4, 2, "passthrough")],
            Architecture::Parallel {
                agents: 2,
                engines: 4,
            },
        )
        .with_balancer(8, BalancerConfig::default());
        if let Some(plan) = net {
            system = system.with_net_faults(plan);
        }
        let mut scenario = Scenario::new();
        for k in 0..40 {
            scenario.start_at(SchemaId(1), vec![(1, Value::Int(k))], k as u64 * 3);
        }
        scenario.crash(CrashWindow::engine(1, 30, Some(40)));
        let report = system.run(scenario);
        assert_eq!(report.committed(), 40, "lossy={lossy}");
    }
}

/// The journal invariant, stated once: at the end of a run every engine's
/// WAL holds exactly one record per message delivered to it — after a
/// fault-free run, after an engine crashed and replayed its log, and after
/// a live migration (whose install replays a command slice unjournaled,
/// under the one `MigrateState` record). `engine::tests` checks the record
/// kind; this checks the count wherever engines run.
#[test]
fn engine_journal_is_exactly_the_delivered_inputs() {
    fn check(name: &str, loads: &[EngineLoad]) {
        assert!(loads.iter().any(|l| l.delivered_msgs > 0), "{name}");
        for l in loads {
            assert_eq!(
                l.wal_appends, l.delivered_msgs,
                "{name}: engine {} journaled something other than its inputs",
                l.engine
            );
        }
    }
    for arch in [
        Architecture::Central { agents: 6 },
        Architecture::Parallel {
            agents: 6,
            engines: 2,
        },
    ] {
        let (report, _) = run_mixed(arch, None);
        check(&format!("{arch:?} fault-free"), &report.engine_loads);
        let crash = CrashWindow::engine(0, 8, Some(50));
        let (report, _) = run_mixed_with_crashes(arch, None, &[crash]);
        assert_eq!(report.committed(), 4, "{arch:?}");
        check(&format!("{arch:?} engine crash"), &report.engine_loads);
    }
    let (run, _, _, _, dst) = run_migration_fleet(None, |_, _| None);
    assert_eq!(run.engine(dst).migrations_in, 1);
    check("migration", &run.engine_loads());
    let (run, _, _, _, dst) = run_migration_fleet(Some((9, 20)), |_, _| None);
    assert_eq!(run.engine(dst).migrations_in, 1);
    check("migration + target crash", &run.engine_loads());
}

/// Same seed, same crash windows ⇒ bit-identical runs, engine crashes
/// included: outcomes, virtual time, events, message totals, transport.
#[test]
fn engine_crash_runs_are_deterministic_per_seed() {
    for arch in [
        Architecture::Central { agents: 6 },
        Architecture::Parallel {
            agents: 6,
            engines: 2,
        },
    ] {
        let plan = NetFaultPlan::probabilistic(chaos_seed(42), 0.06, 0.06, 0.12);
        let crash = CrashWindow::engine(0, 8, Some(50));
        let (r1, _) = run_mixed_with_crashes(arch, Some(plan.clone()), &[crash]);
        let (r2, _) = run_mixed_with_crashes(arch, Some(plan), &[crash]);
        assert_eq!(r1.outcomes, r2.outcomes, "{arch:?}");
        assert_eq!(r1.virtual_time, r2.virtual_time, "{arch:?}");
        assert_eq!(r1.events, r2.events, "{arch:?}");
        assert_eq!(
            r1.metrics.total_messages, r2.metrics.total_messages,
            "{arch:?}"
        );
        assert_eq!(*r1.transport(), *r2.transport(), "{arch:?}");
    }
}

/// Live migration together with coordination terminates (FAILURE_MODES
/// F5, ROADMAP "Always terminate" defect (h)) under parallel control. Four
/// engines on a consistent-hash ring, the balancer every 20 ticks, engines
/// 0 and 1 slowed to 6 and 3 ticks per message; 60 linked instances of four
/// generated 8-step schemas with me = 2, ro = 2, rd = 1; 8 seeds, fault-free
/// and with pf = 0.08. Before the coordination gate moved into the
/// navigator, 33 of these 960 instances stalled.
#[test]
fn migration_meets_coordination_and_every_instance_terminates() {
    use crew_core::PlacementStrategy;
    use crew_workload::{build_deployment, link_instances, SetupParams};
    let (mut stalled, mut total, mut migrations) = (0, 0, 0);
    for seed in 1..=8 {
        for pf in [0.0, 0.08] {
            let p = SetupParams {
                s: 8,
                c: 4,
                me: 2,
                ro: 2,
                rd: 1,
                pf,
                pi: 0.0,
                pa: 0.0,
                seed,
                ..SetupParams::default()
            };
            let mut deployment = build_deployment(&p, false);
            let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
            let planned: Vec<_> = (0..60u32)
                .map(|k| crew_model::InstanceId::new(schemas[k as usize % schemas.len()], k + 1))
                .collect();
            link_instances(&mut deployment, &planned);
            let arch = Architecture::Parallel {
                agents: p.z,
                engines: 4,
            };
            let system = WorkflowSystem::with_deployment(deployment, arch)
                .with_placement(PlacementStrategy::ConsistentHash { vnodes: 16 })
                .with_balancer(20, BalancerConfig::default())
                .with_engine_service_cost(0, 6)
                .with_engine_service_cost(1, 3);
            let mut scenario = Scenario::new();
            for (k, inst) in planned.iter().enumerate() {
                let inputs = vec![(1, Value::Int(5)), (2, Value::Int(1))];
                let idx = scenario.start_at(inst.schema, inputs, k as u64 * 2);
                assert_eq!(scenario.instance_id(idx), *inst);
            }
            let report = system.run(scenario);
            total += report.outcomes.len();
            stalled += report.outcomes.len() - report.committed() - report.aborted();
            migrations += report.migrations();
        }
    }
    println!("migration x coordination: stalled {stalled}/{total}, {migrations} migrations");
    assert!(migrations > 0, "the balancer migrated nothing");
    assert_eq!(stalled, 0, "instances left non-terminal");
}
