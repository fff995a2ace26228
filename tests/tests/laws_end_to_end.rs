//! LAWS specifications driven through the full pipeline: DSL text →
//! schemas + coordination → rules → execution under every architecture.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_exec::Deployment;
use crew_model::{SchemaId, Value};

const SPEC: &str = r#"
workflow Fulfilment (id 1) {
    inputs 2;
    step Validate {
        program "passthrough";
        kind query;
        reads WF.I1;
        agents 0;
    }
    step Reserve {
        program "stamp";
        compensate "passthrough";
        reexecute when inputs_changed;
        agents 1;
    }
    step Pick {
        program "stamp";
        agents 2;
    }
    step Pack {
        program "stamp";
        agents 3;
    }
    step Ship {
        program "sum";
        reads WF.I2;
        agents 0;
    }
    flow Validate -> Reserve;
    parallel Reserve -> { Pick, Pack } -> Ship;
    compensation set { Reserve };
}

workflow Restock (id 2) {
    inputs 1;
    step Plan { program "passthrough"; reads WF.I1; agents 1; }
    step Buy { program "stamp"; agents 2; }
    flow Plan -> Buy;
}

coordination {
    mutex "dock" { Fulfilment.Ship, Restock.Buy };
    order "bin" (Fulfilment.Reserve before Restock.Plan),
                (Fulfilment.Ship before Restock.Buy);
}
"#;

fn build_system(arch: Architecture) -> WorkflowSystem {
    let compiled = crew_laws::parse_and_compile(SPEC).expect("spec compiles");
    assert_eq!(compiled.schemas.len(), 2);
    assert_eq!(compiled.coordination.mutual_exclusions.len(), 1);
    assert_eq!(compiled.coordination.relative_orders.len(), 1);
    let mut deployment = Deployment::new(compiled.schemas);
    deployment.coordination = compiled.coordination;
    WorkflowSystem::with_deployment(deployment, arch)
}

#[test]
fn laws_spec_runs_under_all_architectures() {
    for arch in [
        Architecture::Central { agents: 4 },
        Architecture::Parallel {
            agents: 4,
            engines: 2,
        },
        Architecture::Distributed { agents: 4 },
    ] {
        let system = build_system(arch);
        let mut scenario = Scenario::new();
        let a = scenario.start(SchemaId(1), vec![(1, Value::Int(3)), (2, Value::Int(9))]);
        let b = scenario.start(SchemaId(2), vec![(1, Value::Int(1))]);
        scenario.link(a, b);
        let report = system.run(scenario);
        assert_eq!(report.committed(), 2, "{arch:?}");
    }
}

#[test]
fn laws_spec_handles_failures() {
    // Inject a failure at Ship (S5 of schema 1) via the failure plan; the
    // default rollback (retry in place) must still commit.
    let mut system = build_system(Architecture::Distributed { agents: 4 });
    let inst = crew_model::InstanceId::new(SchemaId(1), 1);
    system.deployment.plan =
        crew_exec::FailurePlan::none().fail_step(inst, crew_model::StepId(5), 1);
    let mut scenario = Scenario::new();
    scenario.start(SchemaId(1), vec![(1, Value::Int(3)), (2, Value::Int(9))]);
    let report = system.run(scenario);
    assert_eq!(report.committed(), 1);
}

/// `policy { retry(N); }` compiles into `StepDef::retry`, and the budget
/// rides out that many failed attempts under every architecture.
#[test]
fn laws_retry_budget_compiles_and_runs() {
    const RETRY: &str = r#"
        workflow Flaky (id 1) {
            inputs 1;
            step Fetch { program "passthrough"; reads WF.I1; agents 0; }
            step Store { program "stamp"; agents 1; policy { retry(2); } }
            flow Fetch -> Store;
        }
    "#;
    let compiled = crew_laws::parse_and_compile(RETRY).expect("spec compiles");
    let store = compiled.schemas[0].expect_step(crew_model::StepId(2));
    assert_eq!(store.retry, Some(2));
    let inst = crew_model::InstanceId::new(SchemaId(1), 1);
    let plan = (1..=2).fold(crew_exec::FailurePlan::none(), |plan, attempt| {
        plan.fail_step(inst, crew_model::StepId(2), attempt)
    });
    for arch in [
        Architecture::Central { agents: 2 },
        Architecture::Parallel {
            agents: 2,
            engines: 2,
        },
        Architecture::Distributed { agents: 2 },
    ] {
        let mut deployment = Deployment::new(compiled.schemas.clone());
        deployment.plan = plan.clone();
        let system = WorkflowSystem::with_deployment(deployment, arch);
        let mut scenario = Scenario::new();
        scenario.start(SchemaId(1), vec![(1, Value::Int(4))]);
        assert_eq!(system.run(scenario).committed(), 1, "{arch:?}");
    }
}
