//! Fail-stop crash handling: crashed *agents* under distributed control
//! (§5.2 — messages buffered by the reliable substrate, pending-rule
//! timeout → `StepStatus` poll → query-step takeover, WAL-based forward
//! recovery of agent state) and crashed *engines* under central/parallel
//! control (WFDB command-log replay rebuilds the scheduler's projection
//! and in-flight coordination state, with exactly-once step execution
//! across the outage).

use crew_core::{Architecture, CrashWindow, Scenario, WorkflowSystem};
use crew_distributed::SuccessorSelection;
use crew_integration_tests::{linear_logged_schema, logged_linear, multi_eligible_schema, ExecLog};
use crew_model::{
    AgentId, MutualExclusion, RelativeOrder, SchemaBuilder, SchemaId, SchemaStep, StepId, StepKind,
    Value,
};
use crew_storage::{DbOp, InstanceStatus, Wal};
use std::collections::BTreeMap;

/// A successor agent is down when the packet arrives: the persistent
/// substrate buffers it; on recovery the workflow continues and commits.
#[test]
fn crashed_successor_buffers_until_recovery() {
    let log = ExecLog::new();
    let mut b = SchemaBuilder::new(SchemaId(1), "buf").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "log");
    let s3 = b.add_step("C", "log");
    b.seq(s1, s2).seq(s2, s3);
    for (i, s) in [s1, s2, s3].iter().enumerate() {
        b.configure(*s, |d| d.eligible_agents = vec![AgentId(i as u32)]);
    }
    let schema = b.build().unwrap();

    let mut system = WorkflowSystem::new([schema], Architecture::Distributed { agents: 3 });
    log.register(&mut system.deployment.registry, "log");

    let mut scenario = Scenario::new();
    let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
    // Agent 1 (B's executor) is down from the start, recovering later.
    scenario.crash(CrashWindow::agent(1, 1, Some(200)));
    let inst = scenario.instance_id(idx);
    let report = system.run(scenario);

    assert_eq!(report.committed(), 1);
    assert_eq!(log.count(inst, s2), 1, "B ran exactly once, after recovery");
    assert!(report.virtual_time >= 200, "commit waited for the recovery");
}

/// Predecessor crash with a *query* step: the successor's pending-rule
/// timeout polls `StepStatus`; all replies are Unknown, so an alternate
/// eligible agent takes the step over and the workflow commits without the
/// crashed agent.
#[test]
fn crashed_predecessor_query_step_rerouted() {
    let log = ExecLog::new();
    let mut b = SchemaBuilder::new(SchemaId(1), "poll").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "log"); // query step, 2 eligible agents
    let s3 = b.add_step("C", "log");
    b.seq(s1, s2).seq(s2, s3);
    b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
    b.configure(s2, |d| {
        d.eligible_agents = vec![AgentId(1), AgentId(2)];
        d.kind = StepKind::Query;
    });
    b.configure(s3, |d| d.eligible_agents = vec![AgentId(3)]);
    let schema = b.build().unwrap();

    // Find which of agents 1/2 is designated for S2 so we can crash it.
    let mut system = WorkflowSystem::new([schema.clone()], Architecture::Distributed { agents: 4 });
    log.register(&mut system.deployment.registry, "log");
    system.dist_config.enable_status_polling = true;

    let mut scenario = Scenario::new();
    let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
    let inst = scenario.instance_id(idx);
    let designated =
        crew_distributed::designated_agent(system.deployment.seed, inst, schema.expect_step(s2));
    // Crash the designated executor of S2 forever.
    scenario.crash(CrashWindow::agent(designated.0, 1, None));
    let report = system.run(scenario);

    assert_eq!(report.committed(), 1, "query step taken over by alternate");
    assert_eq!(log.count(inst, s2), 1);
    // The StepStatus poll went to the crashed designee (buffered, never
    // delivered), so it does not show in delivered-message metrics; the
    // observable evidence of the protocol is the commit itself plus the
    // single execution above, achieved without the crashed agent.
}

/// Polling on and no fault: every wait a poll ends, so the run quiesces
/// once the last instance commits. While the poll timer re-armed for as
/// long as an agent held an instance it did not know to have committed,
/// this run ticked on to the simulator's horizon (999 975 ticks, 182 158
/// events), scanning every instance every 50 ticks.
#[test]
fn a_fault_free_polling_run_quiesces() {
    let setup = crew_workload::SetupParams {
        z: 12,
        seed: 42,
        ..crew_workload::SetupParams::small()
    };
    let deployment = crew_workload::build_deployment(&setup, false);
    let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    let mut system =
        WorkflowSystem::with_deployment(deployment, Architecture::Distributed { agents: 12 });
    system.dist_config.enable_status_polling = true;
    let mut scenario = Scenario::new();
    // The steady workloads' shape L at their 200 arrivals per 1 000 ticks.
    for k in 0..100u64 {
        let inputs = vec![(1, Value::Int(5)), (2, Value::Int(1))];
        scenario.start_at(schemas[k as usize % schemas.len()], inputs, (k + 1) * 5);
    }
    let report = system.run(scenario);
    assert_eq!(report.committed(), 100);
    assert!(
        report.virtual_time < 10_000,
        "quiesced at tick {}",
        report.virtual_time
    );
}

/// Predecessor crash with an *update* step: the paper mandates waiting for
/// the failed agent. With no recovery the run stalls (documented
/// behaviour); with recovery it completes.
#[test]
fn crashed_predecessor_update_step_waits() {
    let build = |down_for: Option<u64>| {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "upd").inputs(1);
        let s1 = b.add_step("A", "log");
        let s2 = b.add_step("B", "log");
        let s3 = b.add_step("C", "log");
        b.seq(s1, s2).seq(s2, s3);
        b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
        b.configure(s2, |d| {
            d.eligible_agents = vec![AgentId(1), AgentId(2)];
            d.kind = StepKind::Update;
        });
        b.configure(s3, |d| d.eligible_agents = vec![AgentId(3)]);
        let schema = b.build().unwrap();
        let mut system =
            WorkflowSystem::new([schema.clone()], Architecture::Distributed { agents: 4 });
        log.register(&mut system.deployment.registry, "log");
        system.dist_config.enable_status_polling = true;
        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        let inst = scenario.instance_id(idx);
        let designated = crew_distributed::designated_agent(
            system.deployment.seed,
            inst,
            schema.expect_step(s2),
        );
        scenario.crash(CrashWindow::agent(designated.0, 1, down_for));
        system.run(scenario)
    };

    // Never recovers: the update step must NOT be rerouted; the run stalls.
    let report = build(None);
    assert_eq!(report.committed(), 0, "update step is never taken over");
    // Recovers: the buffered packet is delivered and the workflow commits.
    let report = build(Some(300));
    assert_eq!(report.committed(), 1);
}

/// An agent that crashes *after* executing steps recovers its AGDB from
/// the WAL: what it held before the crash — data table, step states,
/// attempts and outputs, summary row — is what it holds after.
#[test]
fn agent_recovers_state_from_wal() {
    let log = ExecLog::new();
    let mut b = SchemaBuilder::new(SchemaId(1), "walrec").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "log");
    b.seq(s1, s2);
    b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
    b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
    let schema = b.build().unwrap();

    let mut deployment = crew_exec::Deployment::new([schema]);
    log.register(&mut deployment.registry, "log");
    let mut run =
        crew_distributed::DistRun::new(deployment, 2, crew_distributed::DistConfig::default());
    let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
    // Let the run commit, then crash/recover both agents (0 coordinates).
    run.run();
    let durable_state = |run: &crew_distributed::DistRun, agent: u32| {
        let a = run.agent(AgentId(agent));
        let history = a.history_of(inst).expect("instance known");
        let rows: Vec<_> = [s1, s2]
            .iter()
            .map(|&s| {
                let execution = history.record(s).map(|r| (r.attempt, r.outputs.clone()));
                (history.state(s), history.attempts(s), execution)
            })
            .collect();
        (a.data_of(inst).cloned(), rows, a.instance_status(inst))
    };
    let before = [durable_state(&run, 0), durable_state(&run, 1)];
    assert_eq!(before[0].2, Some(InstanceStatus::Committed));
    assert_eq!(before[0].1[0].0, crew_exec::StepState::Done);
    assert_eq!(before[1].1[1].0, crew_exec::StepState::Done);

    let t = run.sim.now();
    for node in 0..2 {
        run.sim
            .schedule_crash(crew_simnet::NodeId(node), t + 1, Some(5));
    }
    run.run();
    assert!(
        run.sim.now() >= t + 6,
        "both agents went down and came back"
    );
    assert_eq!(
        [durable_state(&run, 0), durable_state(&run, 1)],
        before,
        "WAL replay rebuilds exactly the pre-crash state"
    );
}

/// The WAL itself: the records an agent journals read back in order at
/// the storage layer (the agent folds them back into its navigators; its
/// unit tests check that fold).
#[test]
fn wal_projection_round_trip() {
    let inst = crew_model::InstanceId::new(SchemaId(1), 1);
    let mut wal: Wal<DbOp> = Wal::in_memory();
    let ops = vec![
        DbOp::DataWritten {
            instance: inst,
            key: crew_model::ItemKey::input(1),
            value: Value::Int(5),
        },
        DbOp::StatusChanged {
            instance: inst,
            status: InstanceStatus::Committed,
        },
    ];
    for op in &ops {
        wal.append(op).unwrap();
    }
    let recovered = wal.recover().unwrap();
    assert_eq!(recovered, ops);
}

/// Crash during a multi-instance run: untouched instances commit; the
/// instance blocked on the crashed (recovering) agent commits after
/// recovery.
#[test]
fn crash_isolates_to_dependent_instances() {
    let log = ExecLog::new();
    let mut b = SchemaBuilder::new(SchemaId(1), "iso").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "log");
    b.seq(s1, s2);
    b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
    b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
    let wf1 = b.build().unwrap();
    let mut b = SchemaBuilder::new(SchemaId(2), "iso2").inputs(1);
    let t1 = b.add_step("A", "log");
    let t2 = b.add_step("B", "log");
    b.seq(t1, t2);
    b.configure(t1, |d| d.eligible_agents = vec![AgentId(2)]);
    b.configure(t2, |d| d.eligible_agents = vec![AgentId(3)]);
    let wf2 = b.build().unwrap();

    let mut system = WorkflowSystem::new([wf1, wf2], Architecture::Distributed { agents: 4 });
    log.register(&mut system.deployment.registry, "log");

    let mut scenario = Scenario::new();
    scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
    scenario.start(SchemaId(2), vec![(1, Value::Int(2))]);
    scenario.crash(CrashWindow::agent(1, 1, Some(100)));
    let report = system.run(scenario);
    assert_eq!(
        report.committed(),
        2,
        "both commit; WF2 unaffected by the crash"
    );
}

// ---- agent crash sweeps ------------------------------------------------------

/// What went wrong in a run: how many instances did not commit, and
/// whether some `(instance, step)` ran more than once.
fn damage(report: &crew_core::RunReport, log: &ExecLog) -> (usize, bool) {
    let mut runs = BTreeMap::new();
    for (instance, step, _) in log.entries() {
        *runs.entry((instance, step)).or_insert(0u32) += 1;
    }
    let uncommitted = report.outcomes.len() - report.committed();
    (uncommitted, runs.values().any(|&n| n > 1))
}

/// The coordination a row (l) sweep runs under.
#[derive(Debug, Clone, Copy)]
enum Coordination {
    None,
    /// A mutual exclusion over both schemas' S3.
    MutexOnS3,
    /// A relative order over the pairs (S2, S2) and (S4, S4).
    OrderOnS2S4,
}

/// Three linked pairs of `logged_linear` instances (bases 0 and 3) on six
/// agents under `arch`, with the node of `crash` down: is the run bad?
fn linked_pairs_crash_is_bad(
    coordination: Coordination,
    arch: Architecture,
    crash: CrashWindow,
) -> bool {
    let log = ExecLog::new();
    let (wf1, wf2) = (logged_linear(1, 5, 0), logged_linear(2, 5, 3));
    let mut system = WorkflowSystem::new([wf1, wf2], arch);
    log.register(&mut system.deployment.registry, "log");
    let step = |schema, s| SchemaStep::new(SchemaId(schema), StepId(s));
    let spec = &mut system.deployment.coordination;
    match coordination {
        Coordination::None => {}
        Coordination::MutexOnS3 => spec.mutual_exclusions.push(MutualExclusion {
            id: 0,
            resource: "booth".into(),
            members: vec![step(1, 3), step(2, 3)],
        }),
        Coordination::OrderOnS2S4 => spec.relative_orders.push(RelativeOrder {
            id: 0,
            conflict: "parts".into(),
            pairs: vec![(step(1, 2), step(2, 2)), (step(1, 4), step(2, 4))],
        }),
    }
    let mut scenario = Scenario::new();
    for k in 0..3 {
        let a = scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        let b = scenario.start(SchemaId(2), vec![(1, Value::Int(k))]);
        scenario.link(a, b);
    }
    scenario.crash(crash);
    let report = system.run(scenario);
    damage(&report, &log) != (0, false)
}

/// ROADMAP row (l), an agent crash × coordination: each of the six agents
/// down for 30 ticks from each tick 0–79 (1 440 runs). A bad run leaves an
/// instance uncommitted or runs a step twice. Without coordination no run
/// is bad. With it, the bad runs per crashed agent are pinned as KNOWN:
/// an agent's managers and gates are volatile and its AGDB journals none
/// of them, so a crash at an agent that holds a member step or runs a
/// manager can wedge an instance (ROADMAP item 3). The fix moves these
/// rows to zero.
#[test]
fn agent_crash_sweep_over_linked_pairs() {
    const KNOWN_MUTEX: [usize; 6] = [0, 0, 11, 0, 0, 17];
    const KNOWN_ORDER: [usize; 6] = [4, 9, 0, 10, 7, 0];
    let arch = Architecture::Distributed { agents: 6 };
    let sweep = |coordination| {
        (0..6u32)
            .map(|agent| {
                (0..80)
                    .filter(|&at| {
                        let crash = CrashWindow::agent(agent, at, Some(30));
                        linked_pairs_crash_is_bad(coordination, arch, crash)
                    })
                    .count()
            })
            .collect::<Vec<_>>()
    };
    let none = sweep(Coordination::None);
    let mutex = sweep(Coordination::MutexOnS3);
    let order = sweep(Coordination::OrderOnS2S4);
    assert_eq!(none, [0; 6], "uncoordinated");
    assert_eq!(mutex, KNOWN_MUTEX, "mutex on S3");
    assert_eq!(order, KNOWN_ORDER, "relative order on (S2, S4)");
}

/// Row (l)'s parallel column: the same linked pairs under parallel control
/// on three engines, each engine down for 30 ticks from each tick 0–79,
/// under the mutex on S3 and under the relative order on (S2, S4) (480
/// runs). No run is bad: an engine's managers and gates are rebuilt by
/// the replay of its command log.
#[test]
fn engine_crash_sweep_over_linked_pairs() {
    let arch = Architecture::Parallel {
        agents: 6,
        engines: 3,
    };
    for coordination in [Coordination::MutexOnS3, Coordination::OrderOnS2S4] {
        let crashes = (0..3).flat_map(|engine| (0..80).map(move |at| (engine, at)));
        let bad: Vec<_> = crashes
            .filter(|&(engine, at)| {
                let crash = CrashWindow::engine(engine, at, Some(30));
                linked_pairs_crash_is_bad(coordination, arch, crash)
            })
            .collect();
        assert_eq!(bad, [], "{coordination:?}: (engine, crash tick)");
    }
}

/// Load-balanced successor selection under agent crashes:
/// `multi_eligible_schema`, six instances on four agents, each agent down
/// for 30 or 5 ticks from each tick 0–79 (640 runs). Every instance
/// commits and no step runs twice. A crash that dropped the agent's
/// outstanding forwards, or reset its load, would make runs bad here
/// (`DistAgent::take_over` keeps both).
#[test]
fn load_balanced_agent_crash_sweep() {
    let mut bad = Vec::new();
    for down_for in [30, 5] {
        for agent in 0..4 {
            for at in 0..80 {
                let log = ExecLog::new();
                let mut system = WorkflowSystem::new(
                    [multi_eligible_schema()],
                    Architecture::Distributed { agents: 4 },
                );
                log.register(&mut system.deployment.registry, "log");
                system.dist_config.successor_selection = SuccessorSelection::LoadBalanced;
                let mut scenario = Scenario::new();
                for k in 0..6 {
                    scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
                }
                scenario.crash(CrashWindow::agent(agent, at, Some(down_for)));
                let report = system.run(scenario);
                let damage = damage(&report, &log);
                if damage != (0, false) {
                    bad.push((down_for, agent, at, damage));
                }
            }
        }
    }
    assert_eq!(
        bad,
        [],
        "(down for, agent, crash tick, (uncommitted, a step ran twice))"
    );
}

/// A → B → C on two agents, A and B on agents 0 and 1 and C eligible on
/// `c_on`, with `crashed` down for 30 ticks from tick `at`: how often each
/// step ran, and how many instances committed.
fn recovered_rerun(
    c_on: &[u32],
    crashed: u32,
    at: u64,
    selection: SuccessorSelection,
) -> (Vec<usize>, usize) {
    let log = ExecLog::new();
    let mut b = SchemaBuilder::new(SchemaId(1), "rerun").inputs(1);
    let steps = ["A", "B", "C"].map(|name| b.add_step(name, "log"));
    b.seq(steps[0], steps[1]).seq(steps[1], steps[2]);
    for (s, agents) in steps.into_iter().zip([&[0][..], &[1], c_on]) {
        b.configure(s, |d| {
            d.eligible_agents = agents.iter().map(|&a| AgentId(a)).collect()
        });
    }
    let mut system = WorkflowSystem::new(
        [b.build().unwrap()],
        Architecture::Distributed { agents: 2 },
    );
    log.register(&mut system.deployment.registry, "log");
    system.dist_config.successor_selection = selection;
    let mut scenario = Scenario::new();
    let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
    let inst = scenario.instance_id(idx);
    scenario.crash(CrashWindow::agent(crashed, at, Some(30)));
    let report = system.run(scenario);
    let runs = steps.iter().map(|&s| log.count(inst, s)).collect();
    (runs, report.committed())
}

/// KNOWN, ROADMAP row (m): a recovered agent re-runs steps its AGDB
/// records `Done`. A@0 → B@1 → C@0, agent 0 down for 30 ticks from tick
/// 4, 5 or 6 (A ran at tick 3, B runs at 4): on recovery the packet for C
/// carries `workflow.start` and `A.done`, the agent installs its rules
/// fresh with no marks, and A's rule fires again, so A, B and C each run
/// twice. The instance still commits. Under load-balanced selection with
/// C eligible on both agents and agent 1 down from tick 5–8, B's forward
/// of C is outstanding across the crash: on recovery the reply completes
/// it, agent 1 picks itself, and its self-delivered packet fires C on
/// fresh rules; `finish_load_balanced_forward`'s tail `start_step` runs C
/// a second time. The packet fires B's fresh rule too, on the `A.done` it
/// carries, but that packet is C's, not B's: B lacks its own weight and
/// waits for it (row (d), F10), so B runs once and no re-run of B forwards
/// C again (before that fix the runs were 1 / 2 / 4). The fix moves both
/// to one run of each step.
#[test]
fn known_recovered_agent_reruns_done_steps() {
    for at in [4, 5, 6] {
        let hashed = recovered_rerun(&[0], 0, at, SuccessorSelection::DesignatedHash);
        assert_eq!(hashed, (vec![2, 2, 2], 1), "agent 0 down from {at}");
    }
    for at in 5..=8 {
        let balanced = recovered_rerun(&[0, 1], 1, at, SuccessorSelection::LoadBalanced);
        assert_eq!(
            balanced,
            (vec![1, 1, 2], 1),
            "load-balanced, agent 1 down from {at}"
        );
    }
}

// ---- engine crashes under central / parallel control -----------------------

/// Both engine-holding architectures, for the engine-crash matrix below.
const ENGINE_ARCHS: [Architecture; 2] = [
    Architecture::Central { agents: 2 },
    Architecture::Parallel {
        agents: 2,
        engines: 2,
    },
];

/// Run a 3-step / 2-instance fleet with one engine crash window; return the
/// report plus the per-step execution log.
fn run_with_engine_crash(
    arch: Architecture,
    crash: CrashWindow,
) -> (crew_core::RunReport, ExecLog, Vec<crew_model::InstanceId>) {
    let log = ExecLog::new();
    let mut system = WorkflowSystem::new([linear_logged_schema(1, 3, 2, "log")], arch);
    log.register(&mut system.deployment.registry, "log");
    let mut scenario = Scenario::new();
    let mut insts = Vec::new();
    for k in 0..2 {
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        insts.push(scenario.instance_id(idx));
    }
    scenario.crash(crash);
    (system.run(scenario), log, insts)
}

fn assert_committed_exactly_once(
    arch: Architecture,
    report: &crew_core::RunReport,
    log: &ExecLog,
    insts: &[crew_model::InstanceId],
) {
    assert_eq!(report.committed(), insts.len(), "{arch:?}");
    assert!(report.all_terminal(), "{arch:?}");
    for &inst in insts {
        for step in 1..=3u32 {
            assert_eq!(
                log.count(inst, crew_model::StepId(step)),
                1,
                "{arch:?}: {inst} step {step} executed exactly once across the engine outage"
            );
        }
    }
}

/// The engine is down before it dispatches anything: `WorkflowStart`s are
/// buffered by the substrate, WAL replay on recovery finds an empty log,
/// and the fleet runs to commit with exactly-once execution.
#[test]
fn engine_down_before_dispatch_recovers() {
    for arch in ENGINE_ARCHS {
        let (report, log, insts) = run_with_engine_crash(arch, CrashWindow::engine(0, 1, Some(40)));
        assert_committed_exactly_once(arch, &report, &log, &insts);
        assert!(report.virtual_time >= 40, "{arch:?}: waited out the outage");
    }
}

/// The engine crashes mid-run — after `StepCompleted`s have arrived but
/// with navigation still in flight. Replaying the command log rebuilds the
/// projection and the pending-dispatch bookkeeping; buffered messages then
/// drive the fleet to commit without re-executing finished steps.
#[test]
fn engine_crash_mid_run_recovers_via_wal_replay() {
    for arch in ENGINE_ARCHS {
        for at in [4, 8, 12] {
            let (report, log, insts) =
                run_with_engine_crash(arch, CrashWindow::engine(0, at, Some(40)));
            assert_committed_exactly_once(arch, &report, &log, &insts);
        }
    }
}

/// Engine crash while a doomed instance is rolling back: compensation
/// resumes after WAL replay and the instance still aborts exactly as it
/// does crash-free; the healthy instance commits.
#[test]
fn engine_crash_mid_compensation_recovers() {
    for arch in ENGINE_ARCHS {
        let baseline = {
            let log = ExecLog::new();
            let mut system =
                WorkflowSystem::new([linear_logged_schema(1, 2, 2, "log"), doom_schema()], arch);
            log.register(&mut system.deployment.registry, "log");
            system.deployment.registry.register(
                "doom",
                crew_exec::FnProgram(|_ctx: &crew_exec::ProgramCtx| {
                    Err(crew_exec::StepFailure::new("doomed"))
                }),
            );
            let mut scenario = Scenario::new();
            scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
            scenario.start(SchemaId(2), vec![(1, Value::Int(9))]);
            system.run(scenario)
        };
        assert_eq!(baseline.committed(), 1, "{arch:?} baseline");
        assert_eq!(baseline.aborted(), 1, "{arch:?} baseline");

        for at in [6, 10, 14] {
            let log = ExecLog::new();
            let mut system =
                WorkflowSystem::new([linear_logged_schema(1, 2, 2, "log"), doom_schema()], arch);
            log.register(&mut system.deployment.registry, "log");
            system.deployment.registry.register(
                "doom",
                crew_exec::FnProgram(|_ctx: &crew_exec::ProgramCtx| {
                    Err(crew_exec::StepFailure::new("doomed"))
                }),
            );
            let mut scenario = Scenario::new();
            let i1 = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
            let i2 = scenario.start(SchemaId(2), vec![(1, Value::Int(9))]);
            let (lin, doomed) = (scenario.instance_id(i1), scenario.instance_id(i2));
            scenario.crash(CrashWindow::engine(0, at, Some(40)));
            let report = system.run(scenario);
            assert_eq!(
                report.outcomes, baseline.outcomes,
                "{arch:?} at={at}: crash+recovery reaches the crash-free outcomes"
            );
            assert_eq!(log.count(lin, crew_model::StepId(1)), 1, "{arch:?} at={at}");
            assert_eq!(
                log.count(doomed, crew_model::StepId(1)),
                1,
                "{arch:?} at={at}: doomed A ran once"
            );
        }
    }
}

/// Two-step schema whose second step always fails, exhausting the retry
/// budget (3 attempts) and aborting with compensation of step A.
fn doom_schema() -> crew_model::WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(2), "doom").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "doom");
    b.seq(s1, s2);
    for (i, s) in [s1, s2].iter().enumerate() {
        b.configure(*s, |d| {
            d.eligible_agents = vec![AgentId(i as u32)];
            d.compensation_program = Some("passthrough".into());
        });
    }
    b.build().unwrap()
}

/// An engine that never recovers: the run must terminate (bounded horizon)
/// with the dependent instances reported `Stalled`, not hang.
#[test]
fn unrecoverable_engine_crash_stalls_boundedly() {
    for arch in ENGINE_ARCHS {
        let (report, _, insts) = run_with_engine_crash(arch, CrashWindow::engine(0, 1, None));
        let stalled = insts
            .iter()
            .filter(|i| report.outcomes.get(i) == Some(&crew_core::InstanceOutcome::Stalled))
            .count();
        // Central: everything depends on the lone engine. Parallel: only
        // the dead engine's shard stalls; the sibling's instances commit.
        assert!(stalled >= 1, "{arch:?}: dependent instances stall");
        assert_eq!(
            report.committed() + stalled,
            insts.len(),
            "{arch:?}: every instance is either committed or stalled"
        );
        if matches!(arch, Architecture::Central { .. }) {
            assert_eq!(report.committed(), 0, "{arch:?}: nothing commits");
        }
    }
}

/// Under Parallel control only one engine crashes: its instances recover
/// via WAL replay while the sibling engine's instances are untouched.
#[test]
fn parallel_sibling_engine_unaffected_by_crash() {
    let arch = Architecture::Parallel {
        agents: 2,
        engines: 2,
    };
    let log = ExecLog::new();
    let mut system = WorkflowSystem::new([linear_logged_schema(1, 3, 2, "log")], arch);
    log.register(&mut system.deployment.registry, "log");
    let mut scenario = Scenario::new();
    let mut insts = Vec::new();
    for k in 0..4 {
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        insts.push(scenario.instance_id(idx));
    }
    scenario.crash(CrashWindow::engine(1, 5, Some(40)));
    let report = system.run(scenario);
    assert_committed_exactly_once(arch, &report, &log, &insts);
}

/// Direct engine-state inspection: crash/recover engine 0 while the
/// instance is live and check its data table and step history were rebuilt
/// by replaying the command log; then let it commit, crash again, and check
/// that its status survives the instance's retirement.
#[test]
fn engine_recovers_state_from_wal() {
    let log = ExecLog::new();
    let mut deployment = crew_exec::Deployment::new([linear_logged_schema(1, 2, 1, "log")]);
    log.register(&mut deployment.registry, "log");
    let mut run = crew_central::CentralRun::new(deployment, 1, 1);
    // The one agent is busy for 50 ticks after each message it handles, so
    // S2's request waits out S1's: the crash and the recovery below both
    // fall inside that wait, nothing reaches the engine while it is down,
    // and the tables can be compared right after replay.
    run.sim
        .set_service_cost(run.topo.agent_node(AgentId(0)), 50);
    let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
    // The engine's data and step tables for the instance.
    let tables = |run: &crew_central::CentralRun| {
        let engine = run.engine(0);
        let steps: Vec<_> = engine.history_of(inst)?.iter().cloned().collect();
        Some((engine.data_of(inst)?.clone(), steps))
    };
    // Until S1 is recorded (and S2 dispatched in the same handler).
    let mut t = 0;
    while tables(&run).is_none_or(|(_, steps)| steps.is_empty()) {
        assert!(t < 1_000, "S1 never completed");
        t += 1;
        run.sim.run_until(t);
    }
    let before = tables(&run).expect("hosted on engine 0");
    assert_eq!(before.1.len(), 1);
    assert_eq!(run.statuses().get(&inst), Some(&InstanceStatus::Executing));

    let engine_node = run.topo.engine_node(0);
    run.sim.schedule_crash(engine_node, t + 1, Some(5));
    run.sim.run_until(t + 6);
    assert_eq!(run.sim.now(), t + 6, "recovered, and nothing else happened");
    assert!(!run.engine(0).is_halted());
    assert_eq!(tables(&run), Some(before), "tables rebuilt from the WAL");
    assert_eq!(run.statuses().get(&inst), Some(&InstanceStatus::Executing));

    run.run();
    assert_eq!(run.statuses().get(&inst), Some(&InstanceStatus::Committed));
    assert_eq!(log.entries().len(), 2, "each step ran once");
    let t = run.sim.now();
    run.sim.schedule_crash(engine_node, t + 1, Some(5));
    run.run();
    assert!(!run.engine(0).is_halted());
    assert_eq!(
        run.statuses().get(&inst),
        Some(&InstanceStatus::Committed),
        "engine status survived the crash via the WFDB summary log"
    );
    assert_eq!(tables(&run), None, "retired: nothing rebuilt for it");
    assert_eq!(log.entries().len(), 2);
}
