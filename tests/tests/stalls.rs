//! The stall ratchet: every stall found in the stall map (ROADMAP, "Always
//! terminate") is pinned here as a case a person can read.
//!
//! A case is plain data: the steps, each with the agent it runs on, the
//! control flow between them, the rollback each failing step starts, and
//! the steps that fail on their first attempt. One instance runs it under
//! each of the three architectures.
//! - A `FIXED` case commits under every architecture, and its join step's
//!   program runs exactly once.
//! - A `KNOWN` case stalls under the architecture it names and commits
//!   under the other two. Its name is the map row it reproduces. The PR
//!   that fixes the row moves the case to `FIXED`.
//!
//! The ignored `diamond_placement_sweep` runs every placement of the AND
//! diamond on four agents with and without failures, and of a three-branch
//! join without them, and holds the count of placements that stall under
//! distributed control to ceilings that may only fall (`cargo test
//! --release -p crew-integration-tests --test stalls -- --ignored
//! --nocapture`).

use crew_core::{Architecture, InstanceOutcome, Scenario, WorkflowSystem};
use crew_exec::{FailurePlan, FnProgram};
use crew_integration_tests::ExecLog;
use crew_model::{
    AgentId, CmpOp, Expr, ItemKey, ReexecPolicy, SchemaBuilder, SchemaId, StepId, Value,
    WorkflowSchema,
};

/// Control flow between named steps.
#[derive(Debug, Clone, Copy)]
enum Flow {
    Seq(&'static str, &'static str),
    And(&'static str, &'static [&'static str]),
    AndJoin(&'static [&'static str], &'static str),
    /// The split's first run takes the first branch, every later run the
    /// second: the split's program outputs its attempt.
    Xor(&'static str, [&'static str; 2]),
    XorJoin(&'static [&'static str], &'static str),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arch {
    Central,
    Parallel,
    Distributed,
}

impl Arch {
    const ALL: [Arch; 3] = [Arch::Central, Arch::Parallel, Arch::Distributed];

    fn architecture(self, agents: u32) -> Architecture {
        match self {
            Arch::Central => Architecture::Central { agents },
            Arch::Parallel => Architecture::Parallel { agents, engines: 2 },
            Arch::Distributed => Architecture::Distributed { agents },
        }
    }
}

#[derive(Debug, Clone)]
struct Case {
    /// The stall map row, or what the case pins.
    row: &'static str,
    /// Steps in id order, each with its one eligible agent.
    steps: Vec<(&'static str, u32)>,
    flow: &'static [Flow],
    /// A failing step and the origin it rolls back to.
    rollbacks: &'static [(&'static str, &'static str)],
    /// Steps whose first attempt fails.
    fail: Vec<&'static str>,
    /// The step whose program must run once.
    join: &'static str,
}

/// S1 → AND{A1 → A2, B1 → B2} → AND-join J; a failure of A2 rolls back to
/// A1, one of B2 to B1.
const DIAMOND: [&str; 6] = ["S1", "A1", "B1", "A2", "B2", "J"];
const DIAMOND_FLOW: &[Flow] = &[
    Flow::And("S1", &["A1", "B1"]),
    Flow::Seq("A1", "A2"),
    Flow::Seq("B1", "B2"),
    Flow::AndJoin(&["A2", "B2"], "J"),
];
const DIAMOND_ROLLBACKS: &[(&str, &str)] = &[("A2", "A1"), ("B2", "B1")];

fn diamond(row: &'static str, agents: [u32; 6], fail: &[&'static str]) -> Case {
    Case {
        row,
        steps: DIAMOND.into_iter().zip(agents).collect(),
        flow: DIAMOND_FLOW,
        rollbacks: DIAMOND_ROLLBACKS,
        fail: fail.to_vec(),
        join: "J",
    }
}

/// S1 → AND{A1 → A2, B1, C1} → AND-join J: a three-branch join, one
/// branch longer than the others.
fn triple(agents: [u32; 6]) -> Case {
    Case {
        row: "three-branch join",
        steps: ["S1", "A1", "B1", "C1", "A2", "J"]
            .into_iter()
            .zip(agents)
            .collect(),
        flow: &[
            Flow::And("S1", &["A1", "B1", "C1"]),
            Flow::Seq("A1", "A2"),
            Flow::AndJoin(&["A2", "B1", "C1"], "J"),
        ],
        rollbacks: &[],
        fail: vec![],
        join: "J",
    }
}

/// The Figure 3 schema of `compensation_order::abandoned_branch_compensates_newest_first`:
/// S1 → S2 ─xor→ {S3a → S3b | S5} → S4, S4 rolling back to S2, whose
/// second run takes the other branch.
fn figure3(row: &'static str, agents: [u32; 6]) -> Case {
    Case {
        row,
        steps: ["S1", "S2", "S3a", "S3b", "S5", "S4"]
            .into_iter()
            .zip(agents)
            .collect(),
        flow: &[
            Flow::Seq("S1", "S2"),
            Flow::Xor("S2", ["S3a", "S5"]),
            Flow::Seq("S3a", "S3b"),
            Flow::XorJoin(&["S3b", "S5"], "S4"),
        ],
        rollbacks: &[("S4", "S2")],
        fail: vec!["S4"],
        join: "S4",
    }
}

/// S1 → AND{S2, S3} → S4.
fn and_pair(row: &'static str, agents: [u32; 4]) -> Case {
    Case {
        row,
        steps: ["S1", "S2", "S3", "S4"].into_iter().zip(agents).collect(),
        flow: &[
            Flow::And("S1", &["S2", "S3"]),
            Flow::AndJoin(&["S2", "S3"], "S4"),
        ],
        rollbacks: &[],
        fail: vec![],
        join: "S4",
    }
}

impl Case {
    fn id(&self, name: &str) -> StepId {
        let at = self.steps.iter().position(|(n, _)| *n == name);
        StepId(at.expect("a step of the case") as u32 + 1)
    }

    fn ids(&self, names: &[&str]) -> Vec<StepId> {
        names.iter().map(|n| self.id(n)).collect()
    }

    fn schema(&self) -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(1), self.row).inputs(1);
        for (name, _) in &self.steps {
            b.add_step(*name, "log");
        }
        for flow in self.flow {
            match *flow {
                Flow::Seq(a, z) => {
                    b.seq(self.id(a), self.id(z));
                }
                Flow::And(a, z) => {
                    b.and_split(self.id(a), self.ids(z));
                }
                Flow::AndJoin(a, z) => {
                    b.and_join(self.ids(a), self.id(z));
                }
                Flow::Xor(a, [first, later]) => {
                    let out = Expr::item(ItemKey::output(self.id(a), 1));
                    let first_run = Expr::cmp(CmpOp::Eq, out, Expr::lit(1));
                    let branches = [(self.id(first), Some(first_run)), (self.id(later), None)];
                    b.xor_split(self.id(a), branches);
                    b.configure(self.id(a), |d| d.reexec = ReexecPolicy::Always);
                }
                Flow::XorJoin(a, z) => {
                    b.xor_join(self.ids(a), self.id(z));
                }
            }
        }
        for &(failing, origin) in self.rollbacks {
            b.on_failure_rollback_to(self.id(failing), self.id(origin));
        }
        for (name, agent) in &self.steps {
            b.configure(self.id(name), |d| {
                d.eligible_agents = vec![AgentId(*agent)];
                d.compensation_program = Some("undo".into());
                d.output_slots = 1;
            });
        }
        b.build().expect("a valid case schema")
    }

    fn agents(&self) -> u32 {
        self.steps.iter().map(|(_, a)| a + 1).max().unwrap_or(1)
    }

    /// Run one instance under `arch`: did it commit, and how often did the
    /// join step's program run?
    fn run(&self, arch: Arch) -> (InstanceOutcome, usize) {
        let log = ExecLog::new();
        let mut system = WorkflowSystem::new([self.schema()], arch.architecture(self.agents()));
        let registry = &mut system.deployment.registry;
        log.register(registry, "log");
        registry.register("undo", FnProgram(|_: &crew_exec::ProgramCtx| Ok(vec![])));
        let mut scenario = Scenario::new();
        let index = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
        let instance = scenario.instance_id(index);
        let plan = (self.fail.iter()).fold(FailurePlan::none(), |plan, step| {
            plan.fail_step(instance, self.id(step), 1)
        });
        system.deployment.plan = plan;
        let report = system.run(scenario);
        (
            report.outcomes[&instance],
            log.count(instance, self.id(self.join)),
        )
    }
}

fn fixed() -> Vec<Case> {
    vec![
        // Row (j): S5's packet of the re-execution overtakes the halt and
        // reaches S4's agent first.
        figure3(
            "(j) a new-epoch packet overtakes the halt",
            [0, 1, 2, 3, 4, 0],
        ),
        // The rollback of one AND branch used to void the other branch's
        // weight at the join.
        diamond(
            "the AND-branch weight, A2 fails",
            [0, 1, 2, 3, 4, 0],
            &["A2"],
        ),
        diamond(
            "the AND-branch weight, B2 fails",
            [0, 1, 2, 3, 4, 0],
            &["B2"],
        ),
        diamond(
            "the AND-branch weight, J beside B1",
            [0, 1, 2, 3, 4, 1],
            &["A2"],
        ),
        // Two rollbacks that start at different agents used to share one
        // epoch number, and one halt was dropped as a duplicate.
        diamond(
            "two origins share an epoch",
            [0, 1, 2, 3, 3, 4],
            &["A2", "B2"],
        ),
        // B2's packet was dropped as stale because J's agent had adopted
        // A1's rollback epoch.
        diamond(
            "untouched branch dropped as stale",
            [0, 1, 2, 1, 2, 3],
            &["A2"],
        ),
        // Row (d), F10: a step's trigger reaches its agent in a packet for
        // another step, ahead of its own packet. The step used to run with
        // the whole thread's weight instead of its branch's, so the join
        // counted 3/2 and never committed. Here both branch heads are at
        // one agent, and the first packet used to start both.
        and_pair(
            "(d) AND-split with both branches at one agent",
            [0, 1, 1, 2],
        ),
        // The same through the other branch: A1 runs beside S1, so B1's
        // packet carries A1's completion, and B2's packet brings it to A2's
        // agent before A1's own packet does.
        diamond(
            "(d) a branch's trigger in the other branch's packet",
            [2, 2, 1, 0, 0, 0],
            &[],
        ),
    ]
}

/// Each known stall, with the architecture that stalls on it. None is
/// known at present; a newly found one is pinned here until it is fixed.
fn known() -> Vec<(Case, Arch)> {
    vec![]
}

#[test]
fn fixed_cases_commit_under_every_architecture() {
    for case in fixed() {
        for arch in Arch::ALL {
            let (outcome, joins) = case.run(arch);
            assert_eq!(
                outcome,
                InstanceOutcome::Committed,
                "{}: {arch:?}",
                case.row
            );
            assert_eq!(
                joins, 1,
                "{}: {arch:?} ran {} {joins} times",
                case.row, case.join
            );
        }
    }
}

#[test]
fn known_cases_stall_only_where_they_are_known_to() {
    for (case, stalls) in known() {
        for arch in Arch::ALL {
            let want = match arch == stalls {
                true => InstanceOutcome::Stalled,
                false => InstanceOutcome::Committed,
            };
            assert_eq!(case.run(arch).0, want, "{}: {arch:?}", case.row);
        }
    }
}

/// The most placements of the diamond that commit fault-free under
/// distributed control but stall when A2, B2 or both fail. Measured when
/// the rollback epoch went; a fix lowers them, nothing may raise them.
const DISTRIBUTED_FAILURE_STALLS: [usize; 3] = [0, 0, 0];

/// The most placements of the diamond, and of the three-branch join, that
/// stall fault-free under distributed control: 1 459 of the diamond's
/// before a step waited for its own weight (row (d), F10).
const DISTRIBUTED_FAULT_FREE_STALLS: [usize; 2] = [0, 0];

/// Every placement of six steps on four agents.
fn placements() -> impl Iterator<Item = [u32; 6]> {
    (0..4u32.pow(6)).map(|p| std::array::from_fn(|k| p / 4u32.pow(k as u32) % 4))
}

#[test]
#[ignore = "61 440 runs; run in release"]
fn diamond_placement_sweep() {
    let failures: [&[&str]; 4] = [&[], &["A2"], &["B2"], &["A2", "B2"]];
    let mut runs = 0;
    let mut fault_free_stalls = 0;
    let mut shared_head = 0;
    let mut failure_stalls = [0usize; 3];
    let mut stalls = [[0usize; 4]; 3];
    let mut repeated_joins = 0;
    for agents in placements() {
        let mut committed = [[false; 4]; 3];
        for (f, fail) in failures.iter().enumerate() {
            let case = diamond("sweep", agents, fail);
            for (a, arch) in Arch::ALL.into_iter().enumerate() {
                runs += 1;
                let (outcome, joins) = case.run(arch);
                committed[a][f] = outcome == InstanceOutcome::Committed;
                repeated_joins += usize::from(committed[a][f] && joins != 1);
                stalls[a][f] += usize::from(!committed[a][f]);
            }
        }
        let dist = committed[2];
        if !dist[0] {
            fault_free_stalls += 1;
            shared_head += usize::from(agents[1] == agents[2]);
        }
        for f in 1..4 {
            failure_stalls[f - 1] += usize::from(dist[0] && !dist[f]);
        }
    }
    // The second shape, fault-free: every placement of the three-branch
    // join.
    let mut triple_stalls = [0usize; 3];
    for agents in placements() {
        let case = triple(agents);
        for (a, arch) in Arch::ALL.into_iter().enumerate() {
            runs += 1;
            let (outcome, joins) = case.run(arch);
            let committed = outcome == InstanceOutcome::Committed;
            repeated_joins += usize::from(committed && joins != 1);
            triple_stalls[a] += usize::from(!committed);
        }
    }
    println!("{runs} runs over {} placements of each shape", 4u32.pow(6));
    for (arch, row) in Arch::ALL.iter().zip(stalls) {
        println!("{arch:?}: non-committing placements (none, A2, B2, both) {row:?}");
    }
    println!(
        "Distributed: {fault_free_stalls} placements stall fault-free, {shared_head} of them \
         with A1 and B1 on one agent; {failure_stalls:?} commit fault-free but stall when \
         A2, B2 or both fail"
    );
    println!("three-branch join, fault-free: non-committing placements {triple_stalls:?}");
    assert_eq!(
        repeated_joins, 0,
        "committed runs whose join ran more than once"
    );
    assert_eq!(stalls[0], [0; 4], "central control");
    assert_eq!(stalls[1], [0; 4], "parallel control");
    assert_eq!(triple_stalls[..2], [0; 2], "central and parallel control");
    let fault_free = [fault_free_stalls, triple_stalls[2]];
    for (got, ceiling) in fault_free.iter().zip(DISTRIBUTED_FAULT_FREE_STALLS) {
        assert!(
            *got <= ceiling,
            "{fault_free:?} over {DISTRIBUTED_FAULT_FREE_STALLS:?}"
        );
    }
    for (got, ceiling) in failure_stalls.iter().zip(DISTRIBUTED_FAILURE_STALLS) {
        assert!(
            *got <= ceiling,
            "{failure_stalls:?} over {DISTRIBUTED_FAILURE_STALLS:?}"
        );
    }
}
