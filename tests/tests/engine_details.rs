//! Engine-level regression details: stale execution results after
//! rollback (central), cross-engine nested workflows (parallel), and
//! commit idempotence under duplicate terminal reports.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_integration_tests::ExecLog;
use crew_model::{AgentId, ItemKey, SchemaBuilder, SchemaId, Value};

/// Parallel control: a parent on one engine with a nested child that
/// hashes to another engine — the ChildStart/ChildDone hand-off must
/// complete for many instances (some pairs will cross engines).
#[test]
fn parallel_nested_cross_engine() {
    let log = ExecLog::new();
    let mut b = SchemaBuilder::new(SchemaId(2), "child").inputs(1);
    let c1 = b.add_step("C1", "log");
    b.read(c1, ItemKey::input(1));
    b.configure(c1, |d| d.eligible_agents = vec![AgentId(0)]);
    let child = b.build().unwrap();

    let mut b = SchemaBuilder::new(SchemaId(1), "parent").inputs(1);
    let p1 = b.add_step("P1", "log");
    let call = b.add_nested("Call", SchemaId(2));
    b.configure(call, |d| {
        d.inputs = vec![ItemKey::output(p1, 1)];
    });
    let p2 = b.add_step("P2", "log");
    b.seq(p1, call).seq(call, p2);
    for (i, s) in [p1, call, p2].iter().enumerate() {
        b.configure(*s, |d| d.eligible_agents = vec![AgentId(i as u32 % 3)]);
    }
    let parent = b.build().unwrap();

    let mut system = WorkflowSystem::new(
        [parent, child],
        Architecture::Parallel {
            agents: 3,
            engines: 4,
        },
    );
    log.register(&mut system.deployment.registry, "log");
    let mut scenario = Scenario::new();
    for k in 0..8 {
        scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
    }
    let report = system.run(scenario);
    assert_eq!(report.committed(), 8);
    // Every parent drove exactly one child run.
    let child_runs = log
        .entries()
        .iter()
        .filter(|(i, _, _)| i.schema == SchemaId(2))
        .count();
    assert_eq!(child_runs, 8);
}

/// Stale results: a step whose first attempt's result arrives after a
/// rollback already re-dispatched must not double-complete (central
/// matches results by attempt number).
#[test]
fn central_ignores_stale_attempt_results() {
    // The flaky program fails attempt 1; the rollback targets the failing
    // step itself, so attempt 2 is dispatched while attempt 1's failure
    // already consumed the pending slot. The instance must complete with
    // downstream steps run exactly once.
    let log = ExecLog::new();
    let mut b = SchemaBuilder::new(SchemaId(1), "stale").inputs(1);
    let s1 = b.add_step("A", "flaky");
    let s2 = b.add_step("B", "log");
    b.seq(s1, s2);
    b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
    b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
    let schema = b.build().unwrap();
    let mut system = WorkflowSystem::new([schema], Architecture::Central { agents: 2 });
    log.register(&mut system.deployment.registry, "log");
    log.register_flaky(&mut system.deployment.registry, "flaky");
    let mut scenario = Scenario::new();
    let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
    let inst = scenario.instance_id(idx);
    let report = system.run(scenario);
    assert_eq!(report.committed(), 1);
    assert_eq!(log.count(inst, s2), 1, "downstream exactly once");
    assert_eq!(log.count(inst, s1), 2, "failed once, retried once");
}

/// Commit is idempotent under duplicate StepCompleted weights: rollback
/// after terminal completion re-reports the terminal; the instance must
/// commit exactly once (replace semantics on terminal weights).
#[test]
fn distributed_duplicate_terminal_reports_commit_once() {
    let log = ExecLog::new();
    let mut b = SchemaBuilder::new(SchemaId(1), "dup").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "flaky-late");
    let s3 = b.add_step("C", "log");
    b.seq(s1, s2).seq(s2, s3);
    b.on_failure_rollback_to(s2, s1);
    for (i, s) in [s1, s2, s3].iter().enumerate() {
        b.configure(*s, |d| {
            d.eligible_agents = vec![AgentId(i as u32)];
            d.compensation_program = Some("passthrough".into());
        });
    }
    let schema = b.build().unwrap();
    let mut system = WorkflowSystem::new([schema], Architecture::Distributed { agents: 3 });
    log.register(&mut system.deployment.registry, "log");
    // Fails on attempt 1 only.
    log.register_flaky(&mut system.deployment.registry, "flaky-late");
    let mut scenario = Scenario::new();
    let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
    let inst = scenario.instance_id(idx);
    let report = system.run(scenario);
    assert_eq!(report.committed(), 1);
    assert_eq!(
        report.outcomes[&inst],
        crew_core::InstanceOutcome::Committed
    );
    // The terminal ran exactly once despite the upstream retry.
    assert_eq!(log.count(inst, s3), 1);
}
