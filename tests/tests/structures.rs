//! Deep control-structure coverage: XOR inside AND branches, nested
//! workflows calling nested workflows, loops around parallel blocks, and
//! weight-accounting commits under all of them.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_integration_tests::ExecLog;
use crew_model::{
    AgentId, CmpOp, Expr, InputBinding, ItemKey, SchemaBuilder, SchemaId, StepId, Value,
};

const ALL_ARCHS: [Architecture; 3] = [
    Architecture::Central { agents: 6 },
    Architecture::Parallel {
        agents: 6,
        engines: 2,
    },
    Architecture::Distributed { agents: 6 },
];

fn assign(b: &mut SchemaBuilder, steps: &[StepId]) {
    for (i, s) in steps.iter().enumerate() {
        b.configure(*s, |d| d.eligible_agents = vec![AgentId(i as u32 % 6)]);
    }
}

/// AND-split whose branches each contain an XOR: weight must still sum to
/// one at commit regardless of which sub-branches run.
#[test]
fn xor_inside_and_commits() {
    for arch in ALL_ARCHS {
        for input in [5i64, 50] {
            let log = ExecLog::new();
            let mut b = SchemaBuilder::new(SchemaId(1), "mix").inputs(1);
            let start = b.add_step("Start", "log");
            let l_head = b.add_step("LHead", "log");
            let l_hi = b.add_step("LHi", "log");
            let l_lo = b.add_step("LLo", "log");
            let l_join = b.add_step("LJoin", "log");
            let r_mid = b.add_step("RMid", "log");
            let fin = b.add_step("Fin", "log");
            b.and_split(start, [l_head, r_mid]);
            let cond = Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(10));
            b.xor_split(l_head, [(l_hi, Some(cond)), (l_lo, None)]);
            b.xor_join([l_hi, l_lo], l_join);
            b.and_join([l_join, r_mid], fin);
            assign(&mut b, &[start, l_head, l_hi, l_lo, l_join, r_mid, fin]);
            let schema = b.build().unwrap();

            let mut system = WorkflowSystem::new([schema], arch);
            log.register(&mut system.deployment.registry, "log");
            let mut scenario = Scenario::new();
            let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(input))]);
            let inst = scenario.instance_id(idx);
            let report = system.run(scenario);
            assert_eq!(report.committed(), 1, "{arch:?} input={input}");
            // Exactly one XOR branch ran.
            let hi = log.count(inst, l_hi);
            let lo = log.count(inst, l_lo);
            assert_eq!(hi + lo, 1, "{arch:?} input={input}");
            assert_eq!(hi == 1, input > 10, "{arch:?}");
        }
    }
}

/// A nested workflow that itself calls a nested workflow (two levels).
#[test]
fn doubly_nested_workflows_commit() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();

        let mut b = SchemaBuilder::new(SchemaId(3), "leaf").inputs(1);
        let leaf = b.add_step("Leaf", "log");
        b.read(leaf, ItemKey::input(1));
        assign(&mut b, &[leaf]);
        let leaf_schema = b.build().unwrap();

        let mut b = SchemaBuilder::new(SchemaId(2), "mid").inputs(1);
        let pre = b.add_step("Pre", "log");
        let call_leaf = b.add_nested("CallLeaf", SchemaId(3));
        b.configure(call_leaf, |d| {
            d.inputs = vec![InputBinding {
                source: ItemKey::output(pre, 1),
            }];
        });
        b.seq(pre, call_leaf);
        assign(&mut b, &[pre, call_leaf]);
        let mid_schema = b.build().unwrap();

        let mut b = SchemaBuilder::new(SchemaId(1), "top").inputs(1);
        let intro = b.add_step("Intro", "log");
        let call_mid = b.add_nested("CallMid", SchemaId(2));
        b.configure(call_mid, |d| {
            d.inputs = vec![InputBinding {
                source: ItemKey::output(intro, 1),
            }];
        });
        let outro = b.add_step("Outro", "log");
        b.seq(intro, call_mid).seq(call_mid, outro);
        assign(&mut b, &[intro, call_mid, outro]);
        let top_schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([top_schema, mid_schema, leaf_schema], arch);
        log.register(&mut system.deployment.registry, "log");
        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(7))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);
        assert_eq!(report.committed(), 1, "{arch:?}");
        assert_eq!(log.count(inst, intro), 1);
        assert_eq!(log.count(inst, outro), 1);
        // The leaf ran (under its own derived instance id).
        let total_leaf_runs: usize = log
            .entries()
            .iter()
            .filter(|(i, _, _)| i.schema == SchemaId(3))
            .count();
        assert_eq!(total_leaf_runs, 1, "{arch:?}");
    }
}

/// A loop whose body is a parallel block: each iteration re-runs both
/// branches; weight accounting still commits exactly once.
#[test]
fn loop_around_parallel_block() {
    for arch in ALL_ARCHS {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "loop-par").inputs(1);
        let init = b.add_step("Init", "log");
        let split = b.add_step("Split", "log");
        let left = b.add_step("Left", "log");
        let right = b.add_step("Right", "log");
        let join = b.add_step("Join", "counter"); // counts its attempts
        let done = b.add_step("Done", "log");
        b.seq(init, split);
        b.and_split(split, [left, right]);
        b.and_join([left, right], join);
        b.seq(join, done);
        // Loop back to Split while the join's attempt counter < 3.
        let cont = Expr::cmp(
            CmpOp::Lt,
            Expr::item(ItemKey::output(join, 1)),
            Expr::lit(3),
        );
        b.loop_back(join, split, cont);
        assign(&mut b, &[init, split, left, right, join, done]);
        let schema = b.build().unwrap();

        let mut system = WorkflowSystem::new([schema], arch);
        log.register(&mut system.deployment.registry, "log");
        log.register(&mut system.deployment.registry, "counter");
        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(0))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);
        assert_eq!(report.committed(), 1, "{arch:?}");
        assert_eq!(log.count(inst, join), 3, "{arch:?}: three loop iterations");
        assert_eq!(
            log.count(inst, left),
            3,
            "{arch:?}: branch re-ran per iteration"
        );
        assert_eq!(log.count(inst, done), 1, "{arch:?}: exit once");
    }
}

/// A terminal loop tail commits only when its loop exits (DESIGN §6l F6):
/// `loop B -> A while true` never commits and ends `Stalled` at the
/// horizon; looping while A's output < 3 commits once, after the third B,
/// later than the same schema that exits after the first B.
#[test]
fn terminal_loop_tail_commits_only_on_exit() {
    let run = |arch: Architecture, cont: Expr| {
        let log = ExecLog::new();
        let mut b = SchemaBuilder::new(SchemaId(1), "loop-tail").inputs(1);
        let a = b.add_step("A", "log");
        let z = b.add_step("B", "log");
        b.seq(a, z);
        b.loop_back(z, a, cont);
        assign(&mut b, &[a, z]);
        let mut system = WorkflowSystem::new([b.build().unwrap()], arch);
        log.register(&mut system.deployment.registry, "log");
        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(0))]);
        let inst = scenario.instance_id(idx);
        let report = system.run(scenario);
        (report, log, inst, z)
    };
    let a_below = |n: i64| {
        Expr::cmp(
            CmpOp::Lt,
            Expr::item(ItemKey::output(StepId(1), 1)),
            Expr::lit(n),
        )
    };
    for arch in ALL_ARCHS {
        let (report, log, inst, _) = run(arch, Expr::lit(true));
        assert_eq!(
            report.committed(),
            0,
            "{arch:?}: never exits, never commits"
        );
        assert!(!report.all_terminal(), "{arch:?}: the loop is a stall");
        assert!(
            log.count(inst, StepId(1)) > 1_000,
            "{arch:?}: still looping"
        );

        let (once, _, _, _) = run(arch, a_below(1));
        let (report, log, inst, z) = run(arch, a_below(3));
        assert_eq!(report.committed(), 1, "{arch:?}");
        assert_eq!(log.count(inst, z), 3, "{arch:?}: three iterations");
        assert!(
            report.completion_ticks[&inst] > once.completion_ticks[&inst],
            "{arch:?}: committed after the third B, not the first"
        );
    }
}
