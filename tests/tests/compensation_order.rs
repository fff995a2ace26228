//! Direct observation of compensation ordering: compensation programs log
//! their invocations, so the reverse-execution-order guarantee of
//! compensation dependent sets (§3/§5.2) is asserted on the actual
//! compensation sequence, not inferred from re-executions.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_exec::{FnProgram, ProgramCtx};
use crew_model::{
    AgentId, CmpOp, Expr, ItemKey, ReexecPolicy, SchemaBuilder, SchemaId, StepId, Value,
};
use std::sync::{Arc, Mutex};

/// Registers a compensation program that records which step it undid.
#[derive(Clone, Default)]
struct CompLog(Arc<Mutex<Vec<StepId>>>);

impl CompLog {
    fn register(&self, registry: &mut crew_exec::ProgramRegistry, name: &str) {
        let log = self.0.clone();
        registry.register(
            name,
            FnProgram(move |ctx: &ProgramCtx| {
                log.lock().unwrap().push(ctx.step);
                Ok(vec![])
            }),
        );
    }
    fn entries(&self) -> Vec<StepId> {
        self.0.lock().unwrap().clone()
    }
}

const ALL_ARCHS: [Architecture; 3] = [
    Architecture::Central { agents: 5 },
    Architecture::Parallel {
        agents: 5,
        engines: 2,
    },
    Architecture::Distributed { agents: 5 },
];

/// A dependent set {A, B, C} with a failure at D rolling back to A: the
/// compensations must run C, B, A — strictly reverse execution order.
#[test]
fn dependent_set_compensates_in_reverse_execution_order() {
    for arch in ALL_ARCHS {
        let comp = CompLog::default();
        let mut b = SchemaBuilder::new(SchemaId(1), "rev").inputs(1);
        let a = b.add_step("A", "stamp");
        let bb = b.add_step("B", "stamp");
        let c = b.add_step("C", "stamp");
        let d = b.add_step("D", "always-fail-once");
        b.seq(a, bb).seq(bb, c).seq(c, d);
        b.on_failure_rollback_to(d, a);
        for (i, s) in [a, bb, c, d].iter().enumerate() {
            b.configure(*s, |d2| {
                d2.eligible_agents = vec![AgentId(i as u32)];
                d2.compensation_program = Some("undo".into());
                d2.reexec = ReexecPolicy::Always;
            });
        }
        b.compensation_set([a, bb, c]);
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        comp.register(&mut system.deployment.registry, "undo");
        {
            use crew_exec::StepFailure;
            system.deployment.registry.register(
                "always-fail-once",
                FnProgram(|ctx: &ProgramCtx| {
                    if ctx.attempt == 1 {
                        Err(StepFailure::new("first attempt"))
                    } else {
                        Ok(vec![Value::Int(1)])
                    }
                }),
            );
        }
        let mut scenario = Scenario::new();
        scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
        let report = system.run(scenario);
        assert_eq!(report.committed(), 1, "{arch:?}");

        let undone = comp.entries();
        // A, B, C are all compensated (Always policy on revisit via the
        // dependent-set chain), in reverse execution order.
        let positions: Vec<usize> = [c, bb, a]
            .iter()
            .map(|s| {
                undone
                    .iter()
                    .position(|x| x == s)
                    .unwrap_or_else(|| panic!("{arch:?}: {s} was not compensated: {undone:?}"))
            })
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "{arch:?}: compensation order violated: {undone:?}"
        );
    }
}

/// Figure 3 with a two-step top branch: S4 fails once and rolls back to
/// S2, whose re-execution takes the bottom branch, so the abandoned top
/// branch S3a → S3b is undone newest first — S3b, then S3a — by the
/// engine's queue and by the `CompensateThread` chain alike.
#[test]
fn abandoned_branch_compensates_newest_first() {
    for arch in ALL_ARCHS {
        let comp = CompLog::default();
        let mut b = SchemaBuilder::new(SchemaId(1), "fig3-long").inputs(1);
        let s1 = b.add_step("S1", "stamp");
        let s2 = b.add_step("S2", "attempt-out"); // outputs its attempt
        let s3a = b.add_step("S3a", "stamp");
        let s3b = b.add_step("S3b", "stamp");
        let s5 = b.add_step("S5", "stamp");
        let s4 = b.add_step("S4", "always-fail-once");
        b.seq(s1, s2);
        // The first run of S2 takes the top branch, its second the bottom.
        let top = Expr::cmp(CmpOp::Eq, Expr::item(ItemKey::output(s2, 1)), Expr::lit(1));
        b.xor_split(s2, [(s3a, Some(top)), (s5, None)]);
        b.seq(s3a, s3b);
        b.xor_join([s3b, s5], s4);
        b.on_failure_rollback_to(s4, s2);
        // S3a runs with S2 and S4 with S3b, so the rollback's `HaltThread`
        // reaches S4's agent one hop before the bottom branch's packet
        // can. `stalls.rs` holds the placement where the packet arrives
        // first (row (j)); this test is about the unwinding.
        for (s, agent) in [(s1, 0), (s2, 1), (s3a, 1), (s3b, 2), (s5, 3), (s4, 2)] {
            b.configure(s, |d| {
                d.eligible_agents = vec![AgentId(agent)];
                d.compensation_program = Some("undo".into());
            });
        }
        b.configure(s2, |d| d.reexec = ReexecPolicy::Always);
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        comp.register(&mut system.deployment.registry, "undo");
        let registry = &mut system.deployment.registry;
        registry.register(
            "attempt-out",
            FnProgram(|ctx: &ProgramCtx| Ok(vec![Value::Int(ctx.attempt as i64)])),
        );
        registry.register(
            "always-fail-once",
            FnProgram(|ctx: &ProgramCtx| match ctx.attempt {
                1 => Err(crew_exec::StepFailure::new("first attempt")),
                _ => Ok(vec![Value::Int(1)]),
            }),
        );
        let mut scenario = Scenario::new();
        scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
        let report = system.run(scenario);
        assert_eq!(report.committed(), 1, "{arch:?}");

        let undone = comp.entries();
        let branch: Vec<StepId> = undone
            .iter()
            .copied()
            .filter(|s| [s3a, s3b].contains(s))
            .collect();
        assert_eq!(branch, [s3b, s3a], "{arch:?}: {undone:?}");
        assert!(!undone.contains(&s5), "{arch:?}: {undone:?}");
    }
}

/// User abort compensates executed steps in reverse execution order too.
#[test]
fn abort_compensates_in_reverse_order_central() {
    let comp = CompLog::default();
    let mut b = SchemaBuilder::new(SchemaId(1), "ab").inputs(1);
    let a = b.add_step("A", "stamp");
    let bb = b.add_step("B", "stamp");
    let c = b.add_step("C", "slow"); // slows the flow so the abort lands
    let d = b.add_step("D", "stamp");
    b.seq(a, bb).seq(bb, c).seq(c, d);
    for (i, s) in [a, bb, c, d].iter().enumerate() {
        b.configure(*s, |d2| {
            d2.eligible_agents = vec![AgentId(i as u32 % 3)];
            d2.compensation_program = Some("undo".into());
        });
    }
    let schema = b.build().unwrap();
    let mut system = WorkflowSystem::new([schema], Architecture::Central { agents: 3 });
    comp.register(&mut system.deployment.registry, "undo");
    system
        .deployment
        .registry
        .register("slow", FnProgram(|_: &ProgramCtx| Ok(vec![Value::Int(1)])));
    let mut scenario = Scenario::new();
    let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
    scenario.abort_at(idx, 8); // after a couple of steps completed
    let report = system.run(scenario);
    if report.aborted() == 1 {
        let undone = comp.entries();
        assert!(!undone.is_empty(), "abort compensated the executed prefix");
        // Whatever was undone, the order is reverse of (A, B, C, D).
        let order: Vec<u32> = undone.iter().map(|s| s.0).collect();
        assert!(
            order.windows(2).all(|w| w[0] > w[1]),
            "reverse order violated: {order:?}"
        );
    } else {
        // Abort lost the race with commit: acceptable outcome.
        assert_eq!(report.committed(), 1);
    }
}
