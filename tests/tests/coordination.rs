//! Coordinated-execution requirements across concurrent workflows:
//! relative ordering (Figure 2), mutual exclusion, rollback dependencies.

use crew_core::{Architecture, InstanceOutcome, Scenario, WorkflowSystem};
use crew_integration_tests::{logged_linear, ExecLog};
use crew_model::{
    AgentId, CoordinationSpec, Expr, ItemKey, MutualExclusion, RelativeOrder, RollbackDependency,
    SchemaBuilder, SchemaId, SchemaStep, StepId, Value,
};
use crew_simnet::Mechanism;

const ALL_ARCHS: [Architecture; 3] = [
    Architecture::Central { agents: 6 },
    Architecture::Parallel {
        agents: 6,
        engines: 3,
    },
    Architecture::Distributed { agents: 6 },
];

/// Figure 2: two workflows with two conflicting step pairs. Whatever order
/// the first pair executes in, the second pair must follow the same
/// relative order.
#[test]
fn relative_order_preserved_across_pairs() {
    for arch in ALL_ARCHS {
        // WF1 steps S2, S4 conflict with WF2 steps S2, S4.
        let ro = RelativeOrder {
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
        };
        // Bias the race both ways by swapping agent placement.
        for (base1, base2) in [(0u32, 3u32), (3, 0)] {
            let log = ExecLog::new();
            let wf1 = logged_linear(1, 5, base1);
            let wf2 = logged_linear(2, 5, base2);
            let mut system = WorkflowSystem::new([wf1, wf2], arch);
            system.deployment.coordination = CoordinationSpec {
                relative_orders: vec![ro.clone()],
                ..CoordinationSpec::default()
            };
            log.register(&mut system.deployment.registry, "log");

            let mut scenario = Scenario::new();
            let a = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
            let b = scenario.start(SchemaId(2), vec![(1, Value::Int(2))]);
            scenario.link(a, b);
            let ia = scenario.instance_id(a);
            let ib = scenario.instance_id(b);
            let report = system.run(scenario);

            assert_eq!(report.committed(), 2, "{arch:?} base=({base1},{base2})");
            // The invariant: first-pair order == second-pair order.
            let p2a = log.position(ia, StepId(2)).expect("WF1.S2 ran");
            let p2b = log.position(ib, StepId(2)).expect("WF2.S2 ran");
            let p4a = log.position(ia, StepId(4)).expect("WF1.S4 ran");
            let p4b = log.position(ib, StepId(4)).expect("WF2.S4 ran");
            assert_eq!(
                p2a < p2b,
                p4a < p4b,
                "{arch:?} base=({base1},{base2}): relative order violated: \
                 pair1 {p2a}/{p2b}, pair2 {p4a}/{p4b}"
            );
        }
    }
}

/// An aborted workflow imposes no order (DESIGN §6g, FAILURE_MODES F11): a
/// relative order on (S2, S4) of a linked pair, one of the two aborted at
/// each tick 0–59. No run leaves an instance unfinished. Where the aborted
/// instance led — its S2 ran first — and aborted before its S4, its lagger
/// still runs S4 and commits: the abort pays the release the leader owed.
#[test]
fn an_aborted_leader_releases_its_lagger() {
    let step = |schema, s| SchemaStep::new(SchemaId(schema), StepId(s));
    let ro = RelativeOrder {
        id: 0,
        conflict: "parts".into(),
        pairs: vec![(step(1, 2), step(2, 2)), (step(1, 4), step(2, 4))],
    };
    for arch in &ALL_ARCHS[..2] {
        let mut led_then_aborted = 0;
        for k in [0, 1] {
            for at in 0..60 {
                let log = ExecLog::new();
                let (wf1, wf2) = (logged_linear(1, 5, 0), logged_linear(2, 5, 3));
                let mut system = WorkflowSystem::new([wf1, wf2], *arch);
                system.deployment.coordination.relative_orders = vec![ro.clone()];
                log.register(&mut system.deployment.registry, "log");
                let mut scenario = Scenario::new();
                let ids =
                    [1, 2].map(|schema| scenario.start(SchemaId(schema), vec![(1, Value::Int(1))]));
                scenario.link(ids[0], ids[1]);
                scenario.abort_at(ids[k], at);
                let [aborted, partner] = [k, 1 - k].map(|k| scenario.instance_id(ids[k]));
                let report = system.run(scenario);
                let outcomes = report.outcomes.values();
                let stalled = outcomes.filter(|o| **o == InstanceOutcome::Stalled).count();
                assert_eq!(stalled, 0, "{arch:?}: {aborted} aborted at tick {at}");
                let s2 = |i| log.position(i, StepId(2));
                let led = matches!((s2(aborted), s2(partner)), (Some(x), Some(y)) if x < y);
                if led && log.position(aborted, StepId(4)).is_none() {
                    led_then_aborted += 1;
                    let outcome = report.outcomes[&partner];
                    assert_eq!(outcome, InstanceOutcome::Committed, "{arch:?}: tick {at}");
                }
            }
        }
        assert!(
            led_then_aborted > 0,
            "{arch:?}: no leader aborted between its S2 and S4"
        );
    }
}

/// Mutual exclusion: member steps of concurrent instances never starve and
/// all instances commit; each member executes exactly once.
#[test]
fn mutual_exclusion_serializes_and_commits() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let wf1 = logged_linear(1, 4, 0);
        let wf2 = logged_linear(2, 4, 2);
        let mut system = WorkflowSystem::new([wf1, wf2], arch);
        system.deployment.coordination = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "paint-booth".into(),
                members: vec![
                    SchemaStep::new(SchemaId(1), StepId(3)),
                    SchemaStep::new(SchemaId(2), StepId(3)),
                ],
            }],
            ..CoordinationSpec::default()
        };
        log.register(&mut system.deployment.registry, "log");

        let mut scenario = Scenario::new();
        let mut ids = Vec::new();
        for k in 0..3 {
            ids.push(scenario.start(SchemaId(1), vec![(1, Value::Int(k))]));
            ids.push(scenario.start(SchemaId(2), vec![(1, Value::Int(k))]));
        }
        let instances: Vec<_> = ids.iter().map(|&i| scenario.instance_id(i)).collect();
        let report = system.run(scenario);

        assert_eq!(report.committed(), 6, "{arch:?}");
        for i in &instances {
            assert_eq!(log.count(*i, StepId(3)), 1, "{arch:?}: {i} member ran once");
        }
        // Centralized control coordinates without messages; the other two
        // need coordination traffic.
        let coord_msgs = report.messages_per_instance(Mechanism::CoordinatedExecution);
        match arch {
            Architecture::Central { .. } => {
                assert_eq!(coord_msgs, 0.0, "central coordination is message-free")
            }
            _ => assert!(coord_msgs > 0.0, "{arch:?}: expected coordination traffic"),
        }
    }
}

/// Rollback dependency: when the source workflow rolls back past the
/// declared step, the linked dependent instance rolls back too.
#[test]
fn rollback_dependency_propagates() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        // WF1: S1 log, S2 flaky (fails once, rolls back to S1).
        let mut b = SchemaBuilder::new(SchemaId(1), "src").inputs(1);
        let s1 = b.add_step("A", "log");
        let s2 = b.add_step("B", "flaky");
        b.seq(s1, s2);
        b.on_failure_rollback_to(s2, s1);
        b.configure(s1, |d| {
            d.eligible_agents = vec![AgentId(0)];
            d.compensation_program = Some("passthrough".into());
            d.reexec = crew_model::ReexecPolicy::Always;
        });
        b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
        let wf1 = b.build().unwrap();
        // WF2: 4 slow steps so it is mid-flight when WF1 fails.
        let wf2 = logged_linear(2, 4, 2);

        let mut system = WorkflowSystem::new([wf1, wf2], arch);
        system.deployment.coordination = CoordinationSpec {
            rollback_dependencies: vec![RollbackDependency {
                id: 0,
                source: SchemaStep::new(SchemaId(1), StepId(1)),
                dependent_schema: SchemaId(2),
                dependent_origin: StepId(1),
            }],
            ..CoordinationSpec::default()
        };
        log.register(&mut system.deployment.registry, "log");
        log.register_flaky(&mut system.deployment.registry, "flaky");

        let mut scenario = Scenario::new();
        let a = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
        let bidx = scenario.start(SchemaId(2), vec![(1, Value::Int(2))]);
        scenario.link(a, bidx);
        let ia = scenario.instance_id(a);
        let ib = scenario.instance_id(bidx);
        let report = system.run(scenario);

        assert_eq!(report.committed(), 2, "{arch:?}");
        // WF1's S1 re-executed (Always policy, rollback to S1).
        assert_eq!(log.count(ia, StepId(1)), 2, "{arch:?}: source rolled back");
        // WF2's S1 executed at least once; if the dependency landed while
        // WF2 was still in flight, it re-executed too (its policy is
        // IfInputsChanged with no inputs → reuse, so count stays 1; the
        // observable effect is that WF2 still commits despite the forced
        // rollback).
        assert!(log.count(ib, StepId(1)) >= 1, "{arch:?}");
    }
}

/// A two-way rollback dependency (WF1.S1 ↔ WF2.S1) is one level deep
/// wherever the partners run. WF1.S2 fails once: WF1 rolls back to S1,
/// which forces WF2 back to its S1, and that dependency-caused rollback
/// does not bounce back to WF1. WF2.S1 runs on WF1.S1's agent, then on
/// another one; every architecture and both placements behave the same.
#[test]
fn rollback_dependency_cycle_is_one_level_at_any_placement() {
    let origin = |d: &mut crew_model::StepDef, agent: u32| {
        d.eligible_agents = vec![AgentId(agent)];
        d.compensation_program = Some("passthrough".into());
        d.reexec = crew_model::ReexecPolicy::Always;
    };
    for arch in ALL_ARCHS {
        for wf2_s1_agent in [0, 2] {
            let log = ExecLog::new();
            let mut b = SchemaBuilder::new(SchemaId(1), "wf1").inputs(1);
            let s1 = b.add_step("S1", "log");
            let s2 = b.add_step("S2", "flaky");
            b.seq(s1, s2);
            b.on_failure_rollback_to(s2, s1);
            b.configure(s1, |d| origin(d, 0));
            b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
            let wf1 = b.build().unwrap();
            let mut b = SchemaBuilder::new(SchemaId(2), "wf2").inputs(1);
            let s1 = b.add_step("S1", "log");
            let s2 = b.add_step("S2", "log");
            b.seq(s1, s2);
            b.configure(s1, |d| origin(d, wf2_s1_agent));
            b.configure(s2, |d| d.eligible_agents = vec![AgentId(3)]);
            let wf2 = b.build().unwrap();

            let mut system = WorkflowSystem::new([wf1, wf2], arch);
            let dependency = |id, source: u32, dependent: u32| RollbackDependency {
                id,
                source: SchemaStep::new(SchemaId(source), StepId(1)),
                dependent_schema: SchemaId(dependent),
                dependent_origin: StepId(1),
            };
            system.deployment.coordination = CoordinationSpec {
                rollback_dependencies: vec![dependency(0, 1, 2), dependency(1, 2, 1)],
                ..CoordinationSpec::default()
            };
            log.register(&mut system.deployment.registry, "log");
            log.register_flaky(&mut system.deployment.registry, "flaky");

            let mut scenario = Scenario::new();
            let a = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
            let b = scenario.start(SchemaId(2), vec![(1, Value::Int(2))]);
            scenario.link(a, b);
            let ia = scenario.instance_id(a);
            let ib = scenario.instance_id(b);
            let report = system.run(scenario);

            let case = format!("{arch:?}, WF2.S1 on agent {wf2_s1_agent}");
            assert_eq!(report.committed(), 2, "{case}");
            assert_eq!(log.count(ia, StepId(1)), 2, "{case}: WF1.S1 runs");
            assert_eq!(log.count(ib, StepId(1)), 2, "{case}: WF2.S1 runs");
            let rollbacks: u64 = report
                .metrics
                .by_kind()
                .iter()
                .filter(|((kind, _), _)| *kind == "WorkflowRollback")
                .map(|(_, n)| n)
                .sum();
            let ticks = report.virtual_time;
            assert!(rollbacks <= 2, "{case}: {rollbacks} WorkflowRollbacks");
            assert!(ticks < 1_000, "{case}: ends at tick {ticks}");
        }
    }
}

/// Coordination requirements among *unlinked* instances are inert: no
/// waiting, no cross-talk.
#[test]
fn unlinked_instances_ignore_requirements() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let wf1 = logged_linear(1, 3, 0);
        let wf2 = logged_linear(2, 3, 3);
        let mut system = WorkflowSystem::new([wf1, wf2], arch);
        system.deployment.coordination = CoordinationSpec {
            relative_orders: vec![RelativeOrder {
                id: 0,
                conflict: "x".into(),
                pairs: vec![
                    (
                        SchemaStep::new(SchemaId(1), StepId(1)),
                        SchemaStep::new(SchemaId(2), StepId(1)),
                    ),
                    (
                        SchemaStep::new(SchemaId(1), StepId(2)),
                        SchemaStep::new(SchemaId(2), StepId(2)),
                    ),
                ],
            }],
            ..CoordinationSpec::default()
        };
        log.register(&mut system.deployment.registry, "log");

        let mut scenario = Scenario::new();
        scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
        scenario.start(SchemaId(2), vec![(1, Value::Int(2))]);
        // No scenario.link(...) — the instances are not concurrent over
        // shared resources.
        let report = system.run(scenario);
        assert_eq!(report.committed(), 2, "{arch:?}");
    }
}

/// Three-way contention on one mutex with interleaved starts: strict FIFO
/// handoff means everyone eventually runs; nobody deadlocks.
#[test]
fn mutex_three_way_contention_no_deadlock() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let wf1 = logged_linear(1, 2, 0);
        let mut system = WorkflowSystem::new([wf1], arch);
        system.deployment.coordination = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "dock".into(),
                members: vec![SchemaStep::new(SchemaId(1), StepId(2))],
            }],
            ..CoordinationSpec::default()
        };
        log.register(&mut system.deployment.registry, "log");

        let mut scenario = Scenario::new();
        for k in 0..5 {
            scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        }
        let report = system.run(scenario);
        assert_eq!(report.committed(), 5, "{arch:?}");
    }
}

/// Coordination decides *when* a step runs, never *whether*: two linked
/// instances of A → B, looping B → A while A's output is below 3, run A
/// and B three times each — 12 executions — under every coordination
/// requirement and every architecture, whatever the second instance's
/// arrival offset. Before the shared gate, a relative order on A cut
/// distributed control to 8 executions (6 with a second pair on B): the
/// agent's rule table needed a fresh guard occurrence per loop iteration.
/// A mutex on A cut central and parallel control to 4 (6 on B): the engine
/// handed back every grant that reached an instance already committed at
/// its first B (FAILURE_MODES F4).
#[test]
fn coordination_never_changes_what_runs() {
    let archs = [
        Architecture::Central { agents: 3 },
        Architecture::Parallel {
            agents: 3,
            engines: 2,
        },
        Architecture::Distributed { agents: 3 },
    ];
    let (a, b) = (StepId(1), StepId(2));
    let ss = |step| SchemaStep::new(SchemaId(1), step);
    let order = |pairs: Vec<(SchemaStep, SchemaStep)>| CoordinationSpec {
        relative_orders: vec![RelativeOrder {
            id: 0,
            conflict: "parts".into(),
            pairs,
        }],
        ..CoordinationSpec::default()
    };
    let mutex = |step| CoordinationSpec {
        mutual_exclusions: vec![MutualExclusion {
            id: 0,
            resource: "dock".into(),
            members: vec![ss(step)],
        }],
        ..CoordinationSpec::default()
    };
    let cases = [
        ("none", CoordinationSpec::default()),
        ("order A", order(vec![(ss(a), ss(a))])),
        ("order A, B", order(vec![(ss(a), ss(a)), (ss(b), ss(b))])),
        ("mutex {A}", mutex(a)),
        ("mutex {B}", mutex(b)),
    ];
    for (name, spec) in &cases {
        for arch in archs {
            for offset in 0..40 {
                let log = ExecLog::new();
                let mut s = SchemaBuilder::new(SchemaId(1), "loop").inputs(1);
                let sa = s.add_step("A", "log");
                let sb = s.add_step("B", "log");
                s.seq(sa, sb);
                let again = Expr::lt(Expr::item(ItemKey::output(sa, 1)), Expr::lit(3i64));
                s.loop_back(sb, sa, again);
                s.configure(sa, |d| {
                    d.eligible_agents = vec![AgentId(0)];
                    d.output_slots = 1;
                });
                s.configure(sb, |d| d.eligible_agents = vec![AgentId(1)]);
                let mut system = WorkflowSystem::new([s.build().unwrap()], arch);
                system.deployment.coordination = spec.clone();
                log.register(&mut system.deployment.registry, "log");

                let mut scenario = Scenario::new();
                let x = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
                let y = scenario.start_at(SchemaId(1), vec![(1, Value::Int(2))], offset);
                scenario.link(x, y);
                let report = system.run(scenario);

                let case = format!("{name}, {arch:?}, offset {offset}");
                assert!(report.all_terminal(), "{case}: not terminal");
                assert_eq!(log.entries().len(), 12, "{case}: executions");
            }
        }
    }
}
