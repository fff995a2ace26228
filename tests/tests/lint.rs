//! The static verifier end to end: the shipped corpus lints clean, a
//! seeded corpus of deliberately broken specs triggers exactly the
//! expected diagnostics, and lint verdicts are validated against the
//! runtime — the coordination-deadlock spec really stalls two linked
//! instances in simnet while the single-mutex control commits, and every
//! lint-clean retry policy terminates under all three architectures.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_exec::FailurePlan;
use crew_integration_tests::ExecLog;
use crew_lint::{is_clean, lint, LintId, Severity};
use crew_model::{
    AgentId, CmpOp, CoordinationSpec, Expr, ItemKey, MutualExclusion, ReexecPolicy, RelativeOrder,
    RetryPolicy, RollbackDependency, SchemaBuilder, SchemaId, SchemaStep, StepId, StepPolicy,
    Value, WorkflowSchema,
};
use crew_workload::{
    claim_processing, fraud_check, generate, order_processing, travel_booking, GenConfig,
};
use std::collections::BTreeSet;

fn ss(schema: u32, step: u32) -> SchemaStep {
    SchemaStep::new(SchemaId(schema), StepId(step))
}

fn linear(id: u32, steps: u32) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(id), format!("wf{id}")).inputs(1);
    let ids: Vec<StepId> = (0..steps)
        .map(|i| b.add_step(format!("S{}", i + 1), "p"))
        .collect();
    for w in ids.windows(2) {
        b.seq(w[0], w[1]);
    }
    b.build().unwrap()
}

fn data_cond() -> Expr {
    Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(10))
}

fn false_cond() -> Expr {
    Expr::cmp(CmpOp::Gt, Expr::lit(1), Expr::lit(2))
}

fn true_cond() -> Expr {
    Expr::cmp(CmpOp::Lt, Expr::lit(1), Expr::lit(2))
}

/// XOR diamond A -> {L if cond, R} -> J -> Z; optionally compensatable
/// branches, optionally a rollback Z -> A.
fn xor_schema(branch_comp: bool, rollback: bool, cond: Option<Expr>) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
    let a = b.add_step("A", "p");
    let l = b.add_step("L", "p");
    let r = b.add_step("R", "p");
    let j = b.add_step("J", "p");
    let z = b.add_step("Z", "p");
    b.xor_split(a, [(l, Some(cond.unwrap_or_else(data_cond))), (r, None)]);
    b.xor_join([l, r], j);
    b.seq(j, z);
    if branch_comp {
        for s in [l, r] {
            b.configure(s, |d| d.compensation_program = Some("undo".into()));
        }
    }
    if rollback {
        b.on_failure_rollback_to(z, a);
    }
    b.build().unwrap()
}

/// The spec the probe confirmed wedges two linked instances: two mutexes
/// over the same pair of steps, so each instance's step 2 must hold both
/// "dock" and "crane", and partial grants are held while waiting.
fn double_mutex_spec() -> CoordinationSpec {
    let members = vec![ss(1, 2), ss(2, 2)];
    CoordinationSpec {
        mutual_exclusions: vec![
            MutualExclusion {
                id: 0,
                resource: "dock".into(),
                members: members.clone(),
            },
            MutualExclusion {
                id: 1,
                resource: "crane".into(),
                members,
            },
        ],
        ..CoordinationSpec::default()
    }
}

fn single_mutex_spec() -> CoordinationSpec {
    CoordinationSpec {
        mutual_exclusions: vec![MutualExclusion {
            id: 0,
            resource: "dock".into(),
            members: vec![ss(1, 2), ss(2, 2)],
        }],
        ..CoordinationSpec::default()
    }
}

fn logged_linear(id: u32, steps: u32, agent_base: u32) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(id), format!("wf{id}")).inputs(1);
    let ids: Vec<_> = (0..steps)
        .map(|i| b.add_step(format!("S{}", i + 1), "log"))
        .collect();
    for w in ids.windows(2) {
        b.seq(w[0], w[1]);
    }
    for (i, s) in ids.iter().enumerate() {
        b.configure(*s, |d| {
            d.eligible_agents = vec![AgentId((agent_base + i as u32) % 6)];
            d.compensation_program = Some("passthrough".into());
        });
    }
    b.build().unwrap()
}

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

/// Generated schemas across the structure/rollback parameter space are
/// free of Error-level findings (AND diamonds may carry lost-update
/// warnings by construction).
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
                is_clean(&out),
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
    assert!(
        ids.contains(&LintId::RollbackStepNotCompensatable),
        "{diags:?}"
    );
    assert!(ids.contains(&LintId::LoopNeverExits), "{diags:?}");
    assert!(
        ids.contains(&LintId::RetryNonIdempotentWithoutCompensation),
        "{diags:?}"
    );
    match crew_laws::parse_and_compile_strict(unsound) {
        Err(crew_laws::LawsError::Lint(diags)) => {
            assert!(crew_lint::errors(&diags).count() >= 3, "{diags:?}")
        }
        other => panic!("strict mode must fail on unsound.laws, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Seeded defect corpus
// ---------------------------------------------------------------------------

/// One deliberately broken spec per defect class; each must trigger its
/// LintId at the documented severity, and together they must exercise
/// every diagnostic `lint` can reach (all but the amended-rule cycle).
#[test]
fn seeded_defects_trigger_expected_lints() {
    let no_coord = CoordinationSpec::default;

    let blind_reexec = || {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        b.on_failure_rollback_to(c, a);
        b.configure(a, |d| d.reexec = ReexecPolicy::Always);
        b.build().unwrap()
    };
    let origin_in_branch = || {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l1 = b.add_step("L1", "p");
        let l2 = b.add_step("L2", "p");
        let r = b.add_step("R", "p");
        let j = b.add_step("J", "p");
        b.xor_split(a, [(l1, Some(data_cond())), (r, None)]);
        b.seq(l1, l2);
        b.xor_join([l2, r], j);
        b.on_failure_rollback_to(l2, l1);
        b.build().unwrap()
    };
    let uncovered_comp_set = || {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        b.configure(a, |d| d.compensation_program = Some("undo".into()));
        b.compensation_set([a, c]);
        b.build().unwrap()
    };
    let looped = |cond: Expr| {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        b.loop_back(c, a, cond);
        b.build().unwrap()
    };
    let no_viable_xor = || {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", "p");
        let r = b.add_step("R", "p");
        let j = b.add_step("J", "p");
        b.xor_split(a, [(l, Some(false_cond())), (r, Some(false_cond()))]);
        b.xor_join([l, r], j);
        b.build().unwrap()
    };
    let cross_branch_read = || {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", "p");
        let r = b.add_step("R", "p");
        let j = b.add_step("J", "p");
        b.xor_split(a, [(l, Some(data_cond())), (r, None)]);
        b.xor_join([l, r], j);
        b.read(r, ItemKey::output(l, 1));
        b.build().unwrap()
    };
    let and_conflict = || {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", "stamp");
        let r = b.add_step("R", "stamp");
        let j = b.add_step("J", "p");
        b.and_split(a, [l, r]);
        b.and_join([l, r], j);
        b.build().unwrap()
    };

    // Two-step schema with `policy` installed on step A, an update step
    // with no compensate program.
    let policied = |policy: StepPolicy| -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        b.configure(a, |d| d.policy = policy);
        b.build().unwrap()
    };
    let retry = |max: u32| StepPolicy {
        retry: Some(RetryPolicy::bounded(max)),
        idempotent: false,
    };

    type Case = (
        &'static str,
        Vec<WorkflowSchema>,
        CoordinationSpec,
        LintId,
        Severity,
    );
    let cases: Vec<Case> = vec![
        (
            "uncompensatable xor branch in rollback region",
            vec![xor_schema(false, true, None)],
            no_coord(),
            LintId::RollbackStepNotCompensatable,
            Severity::Error,
        ),
        (
            "comp-set member without a program",
            vec![uncovered_comp_set()],
            no_coord(),
            LintId::CompensationSetMemberNotCompensatable,
            Severity::Error,
        ),
        (
            "always-reexecute step with no undo",
            vec![blind_reexec()],
            no_coord(),
            LintId::RollbackBlindReexecution,
            Severity::Warn,
        ),
        (
            "rollback origin inside the xor branch",
            vec![origin_in_branch()],
            no_coord(),
            LintId::RollbackOriginInsideXorBranch,
            Severity::Warn,
        ),
        (
            "mutex member that no schema defines",
            vec![linear(1, 2), linear(2, 2)],
            CoordinationSpec {
                mutual_exclusions: vec![MutualExclusion {
                    id: 0,
                    resource: "dock".into(),
                    members: vec![ss(1, 9), ss(2, 1)],
                }],
                ..CoordinationSpec::default()
            },
            LintId::CoordUnknownStep,
            Severity::Error,
        ),
        (
            "same member listed twice in one mutex",
            vec![linear(1, 2)],
            CoordinationSpec {
                mutual_exclusions: vec![MutualExclusion {
                    id: 0,
                    resource: "dock".into(),
                    members: vec![ss(1, 1), ss(1, 1)],
                }],
                ..CoordinationSpec::default()
            },
            LintId::MutexDuplicateMember,
            Severity::Warn,
        ),
        (
            "step holding two mutexes",
            vec![linear(1, 3), linear(2, 3)],
            double_mutex_spec(),
            LintId::MutexHoldAndWait,
            Severity::Error,
        ),
        (
            "crossed relative orders",
            vec![linear(1, 2), linear(2, 2)],
            CoordinationSpec {
                relative_orders: vec![
                    RelativeOrder {
                        id: 0,
                        conflict: "a".into(),
                        pairs: vec![(ss(1, 2), ss(2, 1))],
                    },
                    RelativeOrder {
                        id: 1,
                        conflict: "b".into(),
                        pairs: vec![(ss(2, 2), ss(1, 1))],
                    },
                ],
                ..CoordinationSpec::default()
            },
            LintId::CoordinationDeadlock,
            Severity::Error,
        ),
        (
            "inverted relative-order pairs",
            vec![linear(1, 3), linear(2, 3)],
            CoordinationSpec {
                relative_orders: vec![RelativeOrder {
                    id: 0,
                    conflict: "x".into(),
                    pairs: vec![(ss(1, 3), ss(2, 1)), (ss(1, 1), ss(2, 3))],
                }],
                ..CoordinationSpec::default()
            },
            LintId::RelativeOrderPairsInverted,
            Severity::Error,
        ),
        (
            "relative-order side mixing schemas",
            vec![linear(1, 3), linear(2, 3)],
            CoordinationSpec {
                relative_orders: vec![RelativeOrder {
                    id: 0,
                    conflict: "x".into(),
                    pairs: vec![(ss(1, 1), ss(2, 1)), (ss(2, 2), ss(1, 2))],
                }],
                ..CoordinationSpec::default()
            },
            LintId::RelativeOrderSchemaMixed,
            Severity::Error,
        ),
        (
            "mutual rollback dependencies",
            vec![linear(1, 2), linear(2, 2)],
            CoordinationSpec {
                rollback_dependencies: vec![
                    RollbackDependency {
                        id: 0,
                        source: ss(1, 1),
                        dependent_schema: SchemaId(2),
                        dependent_origin: StepId(1),
                    },
                    RollbackDependency {
                        id: 1,
                        source: ss(2, 1),
                        dependent_schema: SchemaId(1),
                        dependent_origin: StepId(1),
                    },
                ],
                ..CoordinationSpec::default()
            },
            LintId::RollbackDependencyCycle,
            Severity::Warn,
        ),
        (
            "loop whose condition is constant true",
            vec![looped(Expr::lit(true))],
            no_coord(),
            LintId::LoopNeverExits,
            Severity::Error,
        ),
        (
            "loop whose condition is constant false",
            vec![looped(false_cond())],
            no_coord(),
            LintId::LoopConditionNeverHolds,
            Severity::Warn,
        ),
        (
            "xor split with no viable branch",
            vec![no_viable_xor()],
            no_coord(),
            LintId::XorNoViableBranch,
            Severity::Error,
        ),
        (
            "xor branch condition constant false",
            vec![xor_schema(false, false, Some(false_cond()))],
            no_coord(),
            LintId::XorBranchUnreachable,
            Severity::Warn,
        ),
        (
            "xor branch condition constant true",
            vec![xor_schema(false, false, Some(true_cond()))],
            no_coord(),
            LintId::XorBranchAlwaysTaken,
            Severity::Warn,
        ),
        (
            "read across xor branches",
            vec![cross_branch_read()],
            no_coord(),
            LintId::XorCrossBranchRead,
            Severity::Error,
        ),
        (
            "same-program writes on concurrent and-branches",
            vec![and_conflict()],
            no_coord(),
            LintId::ConcurrentWriteConflict,
            Severity::Warn,
        ),
        // -- failure-policy soundness --
        (
            "bounded retry on a bare update step",
            vec![policied(retry(2))],
            no_coord(),
            LintId::RetryNonIdempotentWithoutCompensation,
            Severity::Error,
        ),
        (
            "a one-attempt retry budget still re-runs the update",
            vec![policied(retry(1))],
            no_coord(),
            LintId::RetryNonIdempotentWithoutCompensation,
            Severity::Error,
        ),
    ];

    let mut exercised = BTreeSet::new();
    for (name, schemas, spec, id, severity) in cases {
        let out = lint(&schemas, &spec);
        assert!(
            out.iter().any(|d| d.id == id && d.severity == severity),
            "{name}: expected {id} at {severity:?}, got {out:?}"
        );
        exercised.insert(id);
    }
    assert_eq!(exercised.len(), 19, "only {} ids", exercised.len());
}

/// The one diagnostic the seeded corpus cannot reach through `lint` —
/// an amended rule set cycling without a declared loop — via the exported
/// template entry point.
#[test]
fn amended_rule_cycle_is_flagged() {
    use crew_rules::{compile_schema, Action, EventKind, Rule, RuleId, TemplateRule};

    let schema = linear(1, 2);
    let mut rules = compile_schema(&schema);
    rules.push(TemplateRule {
        step: StepId(1),
        rule: Rule::new(
            RuleId(99),
            vec![EventKind::StepDone(StepId(2))],
            Action::StartStep(StepId(1)),
        ),
    });
    let out = crew_lint::lint_template(&schema, &rules);
    assert_eq!(
        out.iter().map(|d| d.id).collect::<Vec<_>>(),
        vec![LintId::RuleCycleWithoutLoopBack]
    );
    assert_eq!(out[0].severity, Severity::Error);
}

// ---------------------------------------------------------------------------
// Negative-to-runtime correspondence
// ---------------------------------------------------------------------------

fn run_pair(spec: CoordinationSpec) -> crew_core::RunReport {
    let log = ExecLog::new();
    let wf1 = logged_linear(1, 3, 0);
    let wf2 = logged_linear(2, 3, 0);
    let mut system = WorkflowSystem::new(
        [wf1, wf2],
        Architecture::Parallel {
            agents: 6,
            engines: 2,
        },
    );
    system.deployment.coordination = spec;
    log.register(&mut system.deployment.registry, "log");
    let mut scenario = Scenario::new();
    let a = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
    let b = scenario.start(SchemaId(2), vec![(1, Value::Int(2))]);
    scenario.link(a, b);
    system.run(scenario)
}

/// A spec the coordination pass flags as a deadlock really stalls two
/// linked instances in simnet, and the single-mutex control (which lints
/// clean) commits under the identical deployment.
#[test]
fn deadlock_lint_predicts_runtime_stall() {
    let schemas = [logged_linear(1, 3, 0), logged_linear(2, 3, 0)];

    let flagged = lint(&schemas, &double_mutex_spec());
    let ids: Vec<LintId> = crew_lint::errors(&flagged).map(|d| d.id).collect();
    assert!(ids.contains(&LintId::MutexHoldAndWait), "{flagged:?}");
    assert!(ids.contains(&LintId::CoordinationDeadlock), "{flagged:?}");

    let control = lint(&schemas, &single_mutex_spec());
    assert!(control.is_empty(), "{control:?}");

    let stalled = run_pair(double_mutex_spec());
    assert!(!stalled.all_terminal(), "lint predicted a stall");
    assert_eq!(stalled.committed(), 0);

    let committed = run_pair(single_mutex_spec());
    assert!(committed.all_terminal());
    assert_eq!(committed.committed(), 2);
}

/// The guarantee the policy surface gives: a lint-clean `retry(3);
/// idempotent;` on a step that fails every attempt spends its budget,
/// falls through to the paper's rollback budget and ends Aborted — well
/// inside the horizon, not Stalled at it — under all three architectures.
/// The control rides out two transient failures and commits.
#[test]
fn retry_lint_predicts_runtime_divergence() {
    let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
    let a = b.add_step("A", "passthrough");
    let c = b.add_step("B", "passthrough");
    let z = b.add_step("C", "passthrough");
    b.seq(a, c);
    b.seq(c, z);
    for (i, s) in [a, c, z].into_iter().enumerate() {
        b.configure(s, |d| d.eligible_agents = vec![AgentId(i as u32 % 2)]);
    }
    b.configure(c, |d| {
        d.policy = StepPolicy {
            retry: Some(RetryPolicy::bounded(3)),
            idempotent: true,
        }
    });
    let schema = b.build().unwrap();
    let diags = lint(std::slice::from_ref(&schema), &CoordinationSpec::default());
    assert!(diags.is_empty(), "{diags:?}");

    let run = |arch: Architecture, plan: &dyn Fn(crew_model::InstanceId) -> FailurePlan| {
        let mut system = WorkflowSystem::new([schema.clone()], arch);
        let mut scenario = Scenario::new();
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(1))]);
        let inst = scenario.instance_id(idx);
        system.deployment.plan = plan(inst);
        (system.run(scenario), inst)
    };
    for arch in [
        Architecture::Central { agents: 2 },
        Architecture::Parallel {
            agents: 2,
            engines: 2,
        },
        Architecture::Distributed { agents: 2 },
    ] {
        let (report, inst) = run(arch, &|inst| {
            FailurePlan::none().fail_step_always(inst, StepId(2))
        });
        assert_eq!(report.aborted(), 1, "{arch:?}: exhausted retry must abort");
        assert!(report.all_terminal(), "{arch:?}");
        let done = report.completion_ticks[&inst];
        assert!(done < 1_000, "{arch:?}: aborted only at tick {done}");

        let (report, _) = run(arch, &|inst| {
            FailurePlan::none()
                .fail_step(inst, StepId(2), 1)
                .fail_step(inst, StepId(2), 2)
        });
        assert!(report.all_terminal(), "{arch:?}");
        assert_eq!(
            report.committed(),
            1,
            "{arch:?}: bounded retry must ride out transient failures"
        );
    }
}

// ---------------------------------------------------------------------------
// Span fidelity over the LAWS seeded-defect corpus
// ---------------------------------------------------------------------------

/// Every diagnostic the analyzer raises against a `.laws` source —
/// including the policy-soundness check — carries a resolved, non-empty
/// source span pointing into the offending declaration.
#[test]
fn laws_defect_corpus_spans_are_total() {
    let corpus: Vec<(&str, &str, LintId)> = vec![
        (
            "retry on a bare update step",
            r#"workflow W (id 1) {
                inputs 1;
                step A { program "p"; policy { retry(2); } }
                step B { program "p"; }
                flow A -> B;
            }"#,
            LintId::RetryNonIdempotentWithoutCompensation,
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
        for d in &diags {
            let span = d
                .span
                .unwrap_or_else(|| panic!("{name}: {} has no span: {d:?}", d.id));
            assert!(span.line >= 1 && span.col >= 1, "{name}: empty span {d:?}");
        }
    }
}
