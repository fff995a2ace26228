//! Distributed-control feature coverage: relative order from the guards
//! every agent wires at instantiation (§5.1), the committed-instance purge
//! broadcast (§4.2), and front-end status queries.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_distributed::{DistConfig, DistRun, WorkflowStatusKind};
use crew_exec::Deployment;
use crew_integration_tests::{linear_logged_schema, ExecLog};
use crew_model::{
    AgentId, CoordinationSpec, InstanceId, RelativeOrder, SchemaId, SchemaStep, StepId, Value,
};
use crew_simnet::Mechanism;

fn ro_deployment(log: &ExecLog) -> Deployment {
    let wf1 = linear_logged_schema(1, 5, 6, "log");
    let wf2 = {
        let mut b = crew_model::SchemaBuilder::new(SchemaId(2), "wf2").inputs(1);
        let ids: Vec<StepId> = (0..5)
            .map(|i| b.add_step(format!("S{}", i + 1), "log"))
            .collect();
        for w in ids.windows(2) {
            b.seq(w[0], w[1]);
        }
        for (i, s) in ids.iter().enumerate() {
            b.configure(*s, |d| {
                d.eligible_agents = vec![AgentId((3 + i as u32) % 6)];
            });
        }
        b.build().unwrap()
    };
    let mut deployment = Deployment::new([wf1, wf2]);
    log.register(&mut deployment.registry, "log");
    deployment.coordination = CoordinationSpec {
        relative_orders: vec![RelativeOrder {
            id: 0,
            conflict: "parts".into(),
            pairs: vec![
                (
                    SchemaStep::new(SchemaId(1), StepId(2)),
                    SchemaStep::new(SchemaId(2), StepId(2)),
                ),
                (
                    SchemaStep::new(SchemaId(1), StepId(4)),
                    SchemaStep::new(SchemaId(2), StepId(4)),
                ),
            ],
        }],
        ..CoordinationSpec::default()
    };
    deployment.ro_links.link(
        InstanceId::new(SchemaId(1), 1),
        InstanceId::new(SchemaId(2), 2),
    );
    deployment
}

/// §5.1 passes ordering information to agents on workflow packets; here
/// no packet carries any. Every agent wires its steps' ordering guards
/// from the deployment when it creates the instance, and the order of the
/// first pair holds for the second.
#[test]
fn wired_guards_preserve_relative_order() {
    let log = ExecLog::new();
    let deployment = ro_deployment(&log);
    let system =
        WorkflowSystem::with_deployment(deployment, Architecture::Distributed { agents: 6 });
    let mut scenario = Scenario::new();
    let a = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
    let b = scenario.start(SchemaId(2), vec![(1, Value::Int(2))]);
    scenario.link(a, b);
    let ia = scenario.instance_id(a);
    let ib = scenario.instance_id(b);
    let report = system.run(scenario);
    assert_eq!(report.committed(), 2);
    let p2a = log.position(ia, StepId(2)).unwrap();
    let p2b = log.position(ib, StepId(2)).unwrap();
    let p4a = log.position(ia, StepId(4)).unwrap();
    let p4b = log.position(ib, StepId(4)).unwrap();
    assert_eq!(p2a < p2b, p4a < p4b);
}

/// §4.2: "Periodically the coordination agents broadcast information to
/// the other agents about the committed workflows so that ... instance
/// tables can be purged".
#[test]
fn purge_broadcast_drops_committed_state() {
    let schema = linear_logged_schema(1, 4, 4, "log");
    let log = ExecLog::new();
    let mut deployment = Deployment::new([schema]);
    log.register(&mut deployment.registry, "log");
    let config = DistConfig {
        purge_period: Some(50),
        ..DistConfig::default()
    };
    let mut run = DistRun::new(deployment, 4, config);
    let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
    run.run();
    assert_eq!(run.outcomes().len(), 1);
    // Purge traffic was broadcast (classified as Control).
    assert!(
        run.sim.metrics.messages(Mechanism::Control) > 0,
        "purge broadcast expected: {:?}",
        run.sim.metrics.by_kind()
    );
    // Execution agents dropped the instance; the coordination agent keeps
    // the summary for front-end status queries.
    let coord = crew_distributed::coordination_agent(
        run.deployment.seed,
        inst,
        run.deployment.expect_schema(SchemaId(1)),
    );
    let mut dropped = 0;
    for a in 0..4u32 {
        if AgentId(a) == coord {
            assert!(run.agent(AgentId(a)).instance_status(inst).is_some());
        } else if run.agent(AgentId(a)).data_of(inst).is_none() {
            dropped += 1;
        }
    }
    assert!(
        dropped >= 1,
        "at least one execution agent purged the instance"
    );
}

/// `WorkflowStatus` round trip: the front end asks the coordination agent
/// and records the reply.
#[test]
fn workflow_status_roundtrip() {
    let schema = linear_logged_schema(1, 3, 3, "log");
    let log = ExecLog::new();
    let mut deployment = Deployment::new([schema]);
    log.register(&mut deployment.registry, "log");
    let mut run = DistRun::new(deployment, 3, DistConfig::default());
    let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
    run.run();
    run.query_status(inst);
    run.run();
    let status = run.frontend().statuses.get(&inst);
    assert_eq!(status, Some(&WorkflowStatusKind::Committed));
    // Unknown instance reports unknown.
    let ghost = InstanceId::new(SchemaId(1), 99);
    run.query_status(ghost);
    run.run();
    let status = run.frontend().statuses.get(&ghost);
    assert_eq!(status, Some(&WorkflowStatusKind::Unknown));
}
