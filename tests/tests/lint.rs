//! The static verifier end to end: the shipped corpus lints clean, and
//! every diagnostic is a runtime prediction. `lint_predicts_runtime` holds
//! one row per `LintId` — a flagged spec that raises it, a lint-clean
//! control, the architectures and arrival offsets to run both under, and
//! the harm the prediction names. `seeded_defects_trigger_expected_lints`
//! checks what each row lints to; `lint_predicts_runtime` checks that each
//! flagged spec shows its harm in at least one of those runs, and its
//! control in none.

use crew_core::{Architecture, RunReport, Scenario, WorkflowSystem};
use crew_integration_tests::ExecLog;
use crew_lint::{is_clean, lint, LintId};
use crew_model::{
    AgentId, CmpOp, CoordinationSpec, Expr, InstanceId, ItemKey, MutualExclusion, ReexecPolicy,
    RelativeOrder, SchemaBuilder, SchemaId, SchemaStep, StepId, Value, WorkflowSchema,
    RUN_HORIZON_TICKS,
};
use crew_workload::{
    claim_processing, fraud_check, generate, order_processing, travel_booking, GenConfig,
};
use std::collections::BTreeSet;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Corpus cleanliness
// ---------------------------------------------------------------------------

/// Every shipped scenario schema passes the analyzer with zero findings.
#[test]
fn scenario_schemas_lint_clean() {
    let groups: [(&str, Vec<WorkflowSchema>); 3] = [
        ("order_processing", vec![order_processing()]),
        ("travel_booking", vec![travel_booking()]),
        ("claim_processing", vec![claim_processing(), fraud_check()]),
    ];
    for (name, schemas) in groups {
        let out = lint(&schemas, &CoordinationSpec::default());
        assert!(out.is_empty(), "{name}: {out:?}");
    }
}

/// Generated schemas across the structure/rollback parameter space carry
/// no finding at all.
#[test]
fn generated_schemas_lint_error_free() {
    for seed in 0..8u64 {
        for rollback_depth in [0u32, 1, 2, 3] {
            let cfg = GenConfig {
                steps: 20,
                parallel_prob: 0.4,
                xor_prob: 0.4,
                compensatable_frac: 0.5,
                rollback_depth,
                seed,
                ..GenConfig::default()
            };
            let schema = generate(SchemaId(50 + seed as u32), &cfg);
            let out = lint(&[schema], &CoordinationSpec::default());
            assert!(
                out.is_empty(),
                "gen(seed={seed},r={rollback_depth}): {out:?}"
            );
        }
    }
}

/// The example LAWS corpus: `logistics.laws` passes strict compilation
/// with zero findings; `unsound.laws` compiles but fails strict mode with
/// the three seeded error classes.
#[test]
fn example_laws_corpus() {
    let logistics = include_str!("../../examples/specs/logistics.laws");
    let spec = crew_laws::parse_and_compile_strict(logistics).expect("logistics.laws is clean");
    assert!(spec.lint().is_empty(), "{:?}", spec.lint());

    let unsound = include_str!("../../examples/specs/unsound.laws");
    let spec = crew_laws::parse_and_compile(unsound).expect("unsound.laws still compiles");
    let diags = spec.lint();
    let ids: Vec<LintId> = diags.iter().map(|d| d.id).collect();
    for seeded in [
        LintId::RollbackStepNotCompensatable,
        LintId::LoopNeverExits,
        LintId::XorCrossBranchRead,
    ] {
        assert!(ids.contains(&seeded), "{seeded}: {diags:?}");
    }
    match crew_laws::parse_and_compile_strict(unsound) {
        Err(crew_laws::LawsError::Lint(diags)) => {
            assert!(crew_lint::errors(&diags).count() >= 3, "{diags:?}")
        }
        other => panic!("strict mode must fail on unsound.laws, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Every lint is a runtime prediction
// ---------------------------------------------------------------------------

const CENTRAL: Architecture = Architecture::Central { agents: 3 };
const ALL_ARCHS: &[Architecture] = &[
    CENTRAL,
    Architecture::Parallel {
        agents: 3,
        engines: 2,
    },
    Architecture::Distributed { agents: 3 },
];

/// One instance, one start: the harm needs no timing.
const ONCE: Range<u64> = 0..1;
/// The second instance's arrival tick swept over 40 values: the harm
/// needs a race between the two.
const SWEEP: Range<u64> = 0..40;

/// A spec to deploy: its schemas and coordination requirements.
struct Spec {
    schemas: Vec<WorkflowSchema>,
    coordination: CoordinationSpec,
}

/// What a run shows when a lint's prediction comes true.
#[derive(Debug, Clone, Copy)]
enum Harm {
    /// An instance is not terminal at the horizon.
    Stall,
    /// The run is still executing steps at the horizon, more than this
    /// many executions in.
    Horizon(usize),
    /// The first instance ran the step and never undid it.
    NeverUndone(StepId),
    /// The first instance's step effect stands twice: at least two more
    /// runs than undos.
    AppliedTwice(StepId),
    /// A relative order's pairs ran in opposite orders.
    OrderBroken,
}

/// One `lint_predicts_runtime` row.
struct Row {
    flagged: Spec,
    control: Spec,
    archs: &'static [Architecture],
    offsets: Range<u64>,
    harm: Harm,
}

/// The two linked instances of a run and what they did: every program
/// run (`log`, `flaky`) in `effects`, every compensation (`undo`) in
/// `undos`.
struct Run {
    report: RunReport,
    effects: ExecLog,
    undos: ExecLog,
    ids: [InstanceId; 2],
}

/// Instance 1 of the spec's first schema starts at tick 0, instance 2 of
/// its last schema at `offset`, linked for relative order.
fn run(spec: &Spec, arch: Architecture, offset: u64) -> Run {
    let (effects, undos) = (ExecLog::new(), ExecLog::new());
    let mut system = WorkflowSystem::new(spec.schemas.clone(), arch);
    system.deployment.coordination = spec.coordination.clone();
    effects.register(&mut system.deployment.registry, "log");
    effects.register_flaky(&mut system.deployment.registry, "flaky");
    undos.register(&mut system.deployment.registry, "undo");
    let mut scenario = Scenario::new();
    let last = spec.schemas.len() - 1;
    let a = scenario.start(spec.schemas[0].id, vec![(1, Value::Int(1))]);
    let b = scenario.start_at(spec.schemas[last].id, vec![(1, Value::Int(2))], offset);
    scenario.link(a, b);
    let ids = [scenario.instance_id(a), scenario.instance_id(b)];
    Run {
        report: system.run(scenario),
        effects,
        undos,
        ids,
    }
}

impl Harm {
    fn shown(self, spec: &Spec, run: &Run) -> bool {
        let standing = |step| {
            let runs = run.effects.count(run.ids[0], step);
            runs.saturating_sub(run.undos.count(run.ids[0], step))
        };
        match self {
            Harm::Stall => !run.report.all_terminal(),
            Harm::Horizon(executions) => {
                run.report.virtual_time + 1_000 >= RUN_HORIZON_TICKS
                    && run.effects.entries().len() > executions
            }
            Harm::NeverUndone(step) => standing(step) >= 1,
            Harm::AppliedTwice(step) => standing(step) >= 2,
            Harm::OrderBroken => spec
                .coordination
                .relative_orders
                .iter()
                .any(|r| order_broken(r, run)),
        }
    }
}

/// Whether `r`'s pairs ran side 0 first for one pair and side 1 first for
/// another. A side's step belongs to the instance of its schema (of the
/// lower serial on side 0 when both instances share a schema).
fn order_broken(r: &RelativeOrder, run: &Run) -> bool {
    let instance = |side: usize, s: &SchemaStep| {
        if run.ids[0].schema == run.ids[1].schema {
            run.ids[side]
        } else {
            *run.ids.iter().find(|i| i.schema == s.schema).unwrap()
        }
    };
    let side0_first: BTreeSet<bool> = r
        .pairs
        .iter()
        .filter_map(|(a, b)| {
            let pa = run.effects.position(instance(0, a), a.step)?;
            let pb = run.effects.position(instance(1, b), b.step)?;
            Some(pa < pb)
        })
        .collect();
    side0_first.len() > 1
}

/// Spread the steps over the three agents every architecture deploys.
fn build(mut b: SchemaBuilder) -> WorkflowSchema {
    b.default_agents(&[AgentId(0), AgentId(1), AgentId(2)]);
    b.build().unwrap()
}

fn linear(id: u32, steps: u32) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(id), format!("wf{id}")).inputs(1);
    let ids: Vec<StepId> = (0..steps)
        .map(|i| b.add_step(format!("S{}", i + 1), "log"))
        .collect();
    for w in ids.windows(2) {
        b.seq(w[0], w[1]);
    }
    build(b)
}

fn ss(schema: u32, step: u32) -> SchemaStep {
    SchemaStep::new(SchemaId(schema), StepId(step))
}

fn undo(b: &mut SchemaBuilder, step: StepId) {
    b.configure(step, |d| d.compensation_program = Some("undo".into()));
}

fn false_cond() -> Expr {
    Expr::cmp(CmpOp::Gt, Expr::lit(1), Expr::lit(2))
}

/// `WF.I1 > 10`: both instances start with a smaller input, so the
/// unconditioned branch runs.
fn data_cond() -> Expr {
    Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(10))
}

/// `A` outputs its attempt number: 1 on the first run, 2 after a
/// rollback re-runs it.
fn a_output_is(op: CmpOp, n: i64) -> Expr {
    Expr::cmp(op, Expr::item(ItemKey::output(StepId(1), 1)), Expr::lit(n))
}

fn single(schema: WorkflowSchema) -> Spec {
    Spec {
        schemas: vec![schema],
        coordination: CoordinationSpec::default(),
    }
}

fn linked(schemas: Vec<WorkflowSchema>, coordination: CoordinationSpec) -> Spec {
    Spec {
        schemas,
        coordination,
    }
}

fn orders(orders: Vec<Vec<(SchemaStep, SchemaStep)>>) -> CoordinationSpec {
    CoordinationSpec {
        relative_orders: orders
            .into_iter()
            .enumerate()
            .map(|(i, pairs)| RelativeOrder {
                id: i as u32,
                conflict: format!("c{i}"),
                pairs,
            })
            .collect(),
        ..CoordinationSpec::default()
    }
}

fn mutexes(count: u32, members: Vec<SchemaStep>) -> CoordinationSpec {
    CoordinationSpec {
        mutual_exclusions: (0..count)
            .map(|id| MutualExclusion {
                id,
                resource: format!("m{id}"),
                members: members.clone(),
            })
            .collect(),
        ..CoordinationSpec::default()
    }
}

/// Figure 3: A -> {L if A ran once, R} -> J -> Z. Z fails once and rolls
/// back to A, whose re-run switches the split to R and abandons L.
fn branch_switch(branch_undo: bool) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(1), "switch").inputs(1);
    let a = b.add_step("A", "log");
    let l = b.add_step("L", "log");
    let r = b.add_step("R", "log");
    let j = b.add_step("J", "log");
    let z = b.add_step("Z", "flaky");
    b.xor_split(a, [(l, Some(a_output_is(CmpOp::Eq, 1))), (r, None)]);
    b.xor_join([l, r], j);
    b.seq(j, z);
    b.on_failure_rollback_to(z, a);
    b.configure(a, |d| d.reexec = ReexecPolicy::Always);
    undo(&mut b, a);
    if branch_undo {
        undo(&mut b, l);
        undo(&mut b, r);
    }
    build(b)
}

/// A -> B; B fails once and rolls back to A, which re-executes always.
fn blind_reexecution(a_undo: bool) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(1), "blind").inputs(1);
    let a = b.add_step("A", "log");
    let z = b.add_step("B", "flaky");
    b.seq(a, z);
    b.on_failure_rollback_to(z, a);
    b.configure(a, |d| d.reexec = ReexecPolicy::Always);
    if a_undo {
        undo(&mut b, a);
    }
    build(b)
}

/// A -> B -> C with {A, B} a compensation set; C fails once and rolls
/// back to A, and both set members re-execute always.
fn compensation_set(b_undo: bool) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(1), "compset").inputs(1);
    let a = b.add_step("A", "log");
    let m = b.add_step("B", "log");
    let z = b.add_step("C", "flaky");
    b.seq(a, m).seq(m, z);
    b.on_failure_rollback_to(z, a);
    for s in [a, m] {
        b.configure(s, |d| d.reexec = ReexecPolicy::Always);
    }
    undo(&mut b, a);
    if b_undo {
        undo(&mut b, m);
    }
    b.compensation_set([a, m]);
    build(b)
}

/// A -> B with the loop B -> A continuing while `cont` holds.
fn looped(cont: Expr) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(1), "loop").inputs(1);
    let a = b.add_step("A", "log");
    let z = b.add_step("B", "log");
    b.seq(a, z);
    b.loop_back(z, a, cont);
    build(b)
}

/// A -> {L, R} -> J with the split's conditions and R's reads given.
fn xor(cond_l: Expr, cond_r: Option<Expr>, r_reads: StepId) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(1), "xor").inputs(1);
    let a = b.add_step("A", "log");
    let l = b.add_step("L", "log");
    let r = b.add_step("R", "log");
    let j = b.add_step("J", "log");
    b.xor_split(a, [(l, Some(cond_l)), (r, cond_r)]);
    b.xor_join([l, r], j);
    b.read(r, ItemKey::output(r_reads, 1));
    build(b)
}

/// One row per `LintId`: the `match` is exhaustive, so an id without a
/// row does not compile, and `ALL` lists exactly the ids with a row.
macro_rules! rows {
    ($($id:ident => $row:expr,)*) => {
        const ALL: &[LintId] = &[$(LintId::$id),*];
        fn row(id: LintId) -> Row {
            match id {
                $(LintId::$id => $row,)*
            }
        }
    };
}

rows! {
    RollbackStepNotCompensatable => Row {
        flagged: single(branch_switch(false)),
        control: single(branch_switch(true)),
        archs: ALL_ARCHS,
        offsets: ONCE,
        harm: Harm::NeverUndone(StepId(2)),
    },
    RollbackBlindReexecution => Row {
        flagged: single(blind_reexecution(false)),
        control: single(blind_reexecution(true)),
        archs: ALL_ARCHS,
        offsets: ONCE,
        harm: Harm::AppliedTwice(StepId(1)),
    },
    CompensationSetMemberNotCompensatable => Row {
        flagged: single(compensation_set(false)),
        control: single(compensation_set(true)),
        archs: ALL_ARCHS,
        offsets: ONCE,
        harm: Harm::AppliedTwice(StepId(2)),
    },
    // Each instance's S2 needs both mutexes; a single one serializes.
    MutexHoldAndWait => Row {
        flagged: linked(vec![linear(1, 3), linear(2, 3)], mutexes(2, vec![ss(1, 2), ss(2, 2)])),
        control: linked(vec![linear(1, 3), linear(2, 3)], mutexes(1, vec![ss(1, 2), ss(2, 2)])),
        archs: ALL_ARCHS,
        offsets: SWEEP,
        harm: Harm::Stall,
    },
    // Both sides' first pair (S3) follows their second (S1). The control
    // inverts side 0 only: side 1's S1 decides, and both commit.
    RelativeOrderPairsInverted => Row {
        flagged: linked(
            vec![linear(1, 3), linear(2, 3)],
            orders(vec![vec![(ss(1, 3), ss(2, 3)), (ss(1, 1), ss(2, 1))]]),
        ),
        control: linked(
            vec![linear(1, 3), linear(2, 3)],
            orders(vec![vec![(ss(1, 3), ss(2, 1)), (ss(1, 1), ss(2, 3))]]),
        ),
        archs: ALL_ARCHS,
        offsets: SWEEP,
        harm: Harm::Stall,
    },
    // Pair 1 swaps the sides' schemas, so the run-times order WF1.S2
    // against WF2.S2 as if it were pair 0 again.
    RelativeOrderSchemaMixed => Row {
        flagged: linked(
            vec![linear(1, 2), linear(2, 2)],
            orders(vec![vec![(ss(1, 1), ss(2, 1)), (ss(2, 2), ss(1, 2))]]),
        ),
        control: linked(
            vec![linear(1, 2), linear(2, 2)],
            orders(vec![vec![(ss(1, 1), ss(2, 1)), (ss(1, 2), ss(2, 2))]]),
        ),
        archs: ALL_ARCHS,
        offsets: SWEEP,
        harm: Harm::OrderBroken,
    },
    // Each instance leads one order from its S1; the later pairs then
    // make WF1.S3 wait for WF2.S4 and WF2.S3 for WF1.S3. The control
    // crosses single-pair orders: that cycle needs leaderships that
    // contradict the arrival order, and every run commits.
    CoordinationDeadlock => Row {
        flagged: linked(
            vec![linear(1, 4), linear(2, 4)],
            orders(vec![
                vec![(ss(1, 1), ss(2, 2)), (ss(1, 3), ss(2, 3))],
                vec![(ss(2, 1), ss(1, 2)), (ss(2, 4), ss(1, 3))],
            ]),
        ),
        control: linked(
            vec![linear(1, 4), linear(2, 4)],
            orders(vec![vec![(ss(1, 2), ss(2, 1))], vec![(ss(2, 2), ss(1, 1))]]),
        ),
        archs: ALL_ARCHS,
        offsets: SWEEP,
        harm: Harm::Stall,
    },
    // The looping instances even report Committed; the harm is the work.
    LoopNeverExits => Row {
        flagged: single(looped(Expr::lit(true))),
        control: single(looped(a_output_is(CmpOp::Lt, 3))),
        archs: &[CENTRAL],
        offsets: ONCE,
        harm: Harm::Horizon(100_000),
    },
    XorNoViableBranch => Row {
        flagged: single(xor(false_cond(), Some(false_cond()), StepId(1))),
        control: single(xor(data_cond(), None, StepId(1))),
        archs: ALL_ARCHS,
        offsets: ONCE,
        harm: Harm::Stall,
    },
    // R reads L's output, but only one branch runs.
    XorCrossBranchRead => Row {
        flagged: single(xor(data_cond(), None, StepId(2))),
        control: single(xor(data_cond(), None, StepId(1))),
        archs: ALL_ARCHS,
        offsets: ONCE,
        harm: Harm::Stall,
    },
}

/// The static half of the table: each row's flagged spec raises its id at
/// the documented severity, and its control lints clean.
#[test]
fn seeded_defects_trigger_expected_lints() {
    for &id in ALL {
        let row = row(id);
        let flagged = lint(&row.flagged.schemas, &row.flagged.coordination);
        assert!(
            flagged
                .iter()
                .any(|d| d.id == id && d.severity == id.severity()),
            "{id}: the flagged spec must raise it at {}, got {flagged:?}",
            id.severity()
        );
        let control = lint(&row.control.schemas, &row.control.coordination);
        assert!(
            control.is_empty(),
            "{id}: the control must lint clean: {control:?}"
        );
    }
}

/// The runtime half: each row's flagged spec shows its harm in at least
/// one run, and its control in none.
#[test]
fn lint_predicts_runtime() {
    for &id in ALL {
        let row = row(id);
        // How many flagged runs show the harm, per architecture.
        let mut shown = Vec::new();
        for &arch in row.archs {
            let mut n = 0;
            for offset in row.offsets.clone() {
                let flagged = run(&row.flagged, arch, offset);
                n += usize::from(row.harm.shown(&row.flagged, &flagged));
                let control = run(&row.control, arch, offset);
                assert!(
                    !row.harm.shown(&row.control, &control),
                    "{id}: the control shows {:?} under {arch:?} at offset {offset}",
                    row.harm
                );
            }
            shown.push(n);
        }
        println!(
            "{id}: {:?} in {shown:?} of {} flagged runs per architecture, in no control run",
            row.harm,
            row.offsets.end - row.offsets.start
        );
        assert!(
            shown.iter().any(|&n| n > 0),
            "{id}: no run of the flagged spec shows {:?}",
            row.harm
        );
    }
}

// ---------------------------------------------------------------------------
// Span fidelity over the LAWS seeded-defect corpus
// ---------------------------------------------------------------------------

/// Every diagnostic the analyzer raises against a `.laws` source carries a
/// resolved, non-empty source span pointing into the offending
/// declaration.
#[test]
fn laws_defect_corpus_spans_are_total() {
    let corpus: Vec<(&str, &str, LintId)> = vec![
        (
            "xor split with no viable branch",
            r#"workflow W (id 1) {
                inputs 1;
                step S { program "p"; }
                step L { program "p"; }
                step R { program "p"; }
                step M { program "p"; }
                choice S -> { L when 1 > 2, R when 3 > 4 } -> M;
            }"#,
            LintId::XorNoViableBranch,
        ),
        (
            "uncompensatable xor branch in a rollback region",
            r#"workflow W (id 1) {
                inputs 1;
                step S { program "p"; reads WF.I1; }
                step L { program "p"; }
                step R { program "p"; }
                step M { program "p"; }
                step F { program "p"; }
                choice S -> { L when WF.I1 > 10, R otherwise } -> M;
                flow M -> F;
                on failure of F rollback to S;
            }"#,
            LintId::RollbackStepNotCompensatable,
        ),
        (
            "loop that never exits",
            r#"workflow W (id 1) {
                inputs 1;
                step A { program "p"; }
                step B { program "p"; }
                flow A -> B;
                loop B -> A while 1 < 2;
            }"#,
            LintId::LoopNeverExits,
        ),
    ];

    for (name, source, expected) in corpus {
        let spec = crew_laws::parse_and_compile(source)
            .unwrap_or_else(|e| panic!("{name}: must compile, got {e}"));
        let diags = spec.lint();
        assert!(
            diags.iter().any(|d| d.id == expected),
            "{name}: expected {expected}, got {diags:?}"
        );
        assert!(!is_clean(&diags), "{name}: {diags:?}");
        for d in &diags {
            let span = d
                .span
                .unwrap_or_else(|| panic!("{name}: {} has no span: {d:?}", d.id));
            assert!(span.line >= 1 && span.col >= 1, "{name}: empty span {d:?}");
        }
    }
}
