//! The §4.2 successor-selection ablation: the two-phase
//! `StateInformation`-based choice vs the deterministic rendezvous hash.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_distributed::SuccessorSelection;
use crew_integration_tests::{multi_eligible_schema, ExecLog};
use crew_model::{AgentId, SchemaBuilder, SchemaId, Value};
use crew_simnet::Mechanism;

#[test]
fn load_balanced_mode_commits_and_costs_polls() {
    let run = |mode: SuccessorSelection| {
        let log = ExecLog::new();
        let mut system = WorkflowSystem::new(
            [multi_eligible_schema()],
            Architecture::Distributed { agents: 4 },
        );
        log.register(&mut system.deployment.registry, "log");
        system.dist_config.successor_selection = mode;
        let mut scenario = Scenario::new();
        for k in 0..6 {
            scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        }
        let report = system.run(scenario);
        assert_eq!(report.committed(), 6, "{mode:?}");
        let polls = report
            .metrics
            .by_kind()
            .iter()
            .filter(|((k, _), _)| *k == "StateInformation" || *k == "StateInformationReply")
            .map(|(_, v)| *v)
            .sum::<u64>();
        (polls, report.messages_per_instance(Mechanism::Normal))
    };

    let (polls_hash, msgs_hash) = run(SuccessorSelection::DesignatedHash);
    let (polls_lb, msgs_lb) = run(SuccessorSelection::LoadBalanced);
    assert_eq!(polls_hash, 0, "rendezvous selection needs no polls");
    assert!(polls_lb > 0, "two-phase selection polls StateInformation");
    assert!(
        msgs_lb > msgs_hash,
        "selection overhead shows in the per-instance bill: {msgs_lb} vs {msgs_hash}"
    );
}

#[test]
fn load_balanced_choices_spread_work() {
    // With per-instance designation, 6 instances spread by hash; with load
    // balancing they spread by observed load. Both must spread across
    // agents (no agent does everything) and execute each step once.
    let log = ExecLog::new();
    let mut system = WorkflowSystem::new(
        [multi_eligible_schema()],
        Architecture::Distributed { agents: 4 },
    );
    log.register(&mut system.deployment.registry, "log");
    system.dist_config.successor_selection = SuccessorSelection::LoadBalanced;
    let mut scenario = Scenario::new();
    let mut instances = Vec::new();
    for k in 0..6 {
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        instances.push(scenario.instance_id(idx));
    }
    let report = system.run(scenario);
    assert_eq!(report.committed(), 6);
    for inst in &instances {
        for step in 1..=4u32 {
            assert_eq!(
                log.count(*inst, crew_model::StepId(step)),
                1,
                "{inst} S{step} executed exactly once"
            );
        }
    }
}

/// A step that a mutual exclusion or a relative order names is never
/// load-balanced: its guards are wired at its designated agent only, so a
/// chosen non-designee would run it unguarded and the instances that
/// depended on the guard would never terminate (DESIGN.md FAILURE_MODES
/// F3). Two sweeps, each run under both selection modes:
/// - eight instances of A → B → C → D with B and C eligible on agents
///   1–3 and B under a mutex, at arrival gaps 0–8: all eight commit, each
///   B once;
/// - two linked five-step instances ordered at (S2, S2) and (S4, S4),
///   steps 2–5 eligible on every agent but 0, on 4, 6 and 8 agents, the
///   second starting 0–39 ticks after the first in both directions: both
///   commit and the second pair keeps the first pair's order.
#[test]
fn load_balanced_selection_keeps_coordination() {
    use crew_model::{CoordinationSpec, MutualExclusion, RelativeOrder, SchemaStep, StepId};
    let modes = [
        SuccessorSelection::DesignatedHash,
        SuccessorSelection::LoadBalanced,
    ];
    let step = |schema, s| SchemaStep::new(SchemaId(schema), StepId(s));

    for mode in modes {
        for gap in [0u64, 1, 2, 3, 5, 8] {
            let log = ExecLog::new();
            let mut b = SchemaBuilder::new(SchemaId(1), "mutex").inputs(1);
            let ids = ["A", "B", "C", "D"].map(|name| b.add_step(name, "log"));
            b.seq(ids[0], ids[1])
                .seq(ids[1], ids[2])
                .seq(ids[2], ids[3]);
            for (s, agents) in ids
                .into_iter()
                .zip([&[0][..], &[1, 2, 3], &[1, 2, 3], &[0]])
            {
                b.configure(s, |d| {
                    d.eligible_agents = agents.iter().map(|&a| AgentId(a)).collect()
                });
            }
            let mut system = WorkflowSystem::new(
                [b.build().unwrap()],
                Architecture::Distributed { agents: 4 },
            );
            log.register(&mut system.deployment.registry, "log");
            system.deployment.coordination = CoordinationSpec {
                mutual_exclusions: vec![MutualExclusion {
                    id: 0,
                    resource: "booth".into(),
                    members: vec![step(1, ids[1].0)],
                }],
                ..CoordinationSpec::default()
            };
            system.dist_config.successor_selection = mode;
            let mut scenario = Scenario::new();
            let instances: Vec<_> = (0..8u64)
                .map(|k| {
                    let idx =
                        scenario.start_at(SchemaId(1), vec![(1, Value::Int(k as i64))], k * gap);
                    scenario.instance_id(idx)
                })
                .collect();
            let report = system.run(scenario);
            assert_eq!(report.committed(), 8, "{mode:?} gap {gap}");
            for inst in &instances {
                assert_eq!(log.count(*inst, ids[1]), 1, "{mode:?} gap {gap}: {inst} B");
            }
        }
    }

    let linked = |id: u32, agents: u32| {
        let mut b = SchemaBuilder::new(SchemaId(id), format!("ro{id}")).inputs(1);
        let ids: Vec<_> = (1..=5)
            .map(|i| b.add_step(format!("S{i}"), "log"))
            .collect();
        for w in ids.windows(2) {
            b.seq(w[0], w[1]);
        }
        for (i, s) in ids.iter().enumerate() {
            let eligible: Vec<_> = match i {
                0 => vec![AgentId(0)],
                _ => (1..agents).map(AgentId).collect(),
            };
            b.configure(*s, |d| d.eligible_agents = eligible);
        }
        b.build().unwrap()
    };
    for mode in modes {
        for agents in [4u32, 6, 8] {
            for offset in 0..40u64 {
                for first in [1u32, 2] {
                    let log = ExecLog::new();
                    let mut system = WorkflowSystem::new(
                        [linked(1, agents), linked(2, agents)],
                        Architecture::Distributed { agents },
                    );
                    log.register(&mut system.deployment.registry, "log");
                    system.deployment.coordination = CoordinationSpec {
                        relative_orders: vec![RelativeOrder {
                            id: 0,
                            conflict: "parts".into(),
                            pairs: vec![(step(1, 2), step(2, 2)), (step(1, 4), step(2, 4))],
                        }],
                        ..CoordinationSpec::default()
                    };
                    system.dist_config.successor_selection = mode;
                    let mut scenario = Scenario::new();
                    let at = |schema| if schema == first { 0 } else { offset };
                    let a = scenario.start_at(SchemaId(1), vec![(1, Value::Int(1))], at(1));
                    let b = scenario.start_at(SchemaId(2), vec![(1, Value::Int(2))], at(2));
                    scenario.link(a, b);
                    let (ia, ib) = (scenario.instance_id(a), scenario.instance_id(b));
                    let report = system.run(scenario);
                    let case = format!("{mode:?}, {agents} agents, WF{first} first by {offset}");
                    assert_eq!(report.committed(), 2, "{case}");
                    let at = |i, s| log.position(i, StepId(s)).unwrap();
                    assert_eq!(at(ia, 2) < at(ib, 2), at(ia, 4) < at(ib, 4), "{case}");
                }
            }
        }
    }
}
