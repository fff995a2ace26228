//! Compiling LAWS ASTs to `crew-model` schemas and coordination specs.
//!
//! Name resolution happens here: step names become [`StepId`]s, item
//! references (`WF.I1`, `StepName.O2`) become [`ItemKey`]s, and workflow
//! names in the coordination block resolve across workflow declarations.
//! Structural validation is delegated to [`SchemaBuilder::build`], so LAWS
//! specs get exactly the same rigor as programmatically built schemas.

use crate::ast::*;
use crew_lint::{CoordKind, Span, SpanTable};
use crew_model::{
    CompensationKind, CoordinationSpec, Expr, ItemKey, MutualExclusion, ReexecPolicy,
    RelativeOrder, RollbackDependency, SchemaBuilder, SchemaError, SchemaId, SchemaStep, StepId,
    StepKind, WorkflowSchema,
};
use std::collections::BTreeMap;
use std::fmt;

/// Compilation errors with positions where available.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    pub pos: Option<Span>,
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "compile error at {p}: {}", self.message),
            None => write!(f, "compile error: {}", self.message),
        }
    }
}

impl std::error::Error for CompileError {}

fn err<T>(pos: Span, message: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        pos: Some(pos),
        message: message.into(),
    })
}

/// The compiled output of a LAWS spec.
#[derive(Debug, Clone)]
pub struct CompiledSpec {
    /// Validated schemas, in declaration order.
    pub schemas: Vec<WorkflowSchema>,
    /// Coordination requirements resolved across the schemas.
    pub coordination: CoordinationSpec,
    /// Source positions of compiled entities, for lint diagnostics.
    pub spans: SpanTable,
}

impl CompiledSpec {
    /// Run the `crew-lint` analyzer over this spec, with diagnostics
    /// carrying LAWS source positions.
    pub fn lint(&self) -> Vec<crew_lint::Diagnostic> {
        crew_lint::lint_with_spans(&self.schemas, &self.coordination, &self.spans)
    }
}

/// Compile a parsed [`Spec`].
pub fn compile(spec: &Spec) -> Result<CompiledSpec, CompileError> {
    // Workflow name → schema id (for nested references + coordination).
    let mut wf_ids: BTreeMap<&str, SchemaId> = BTreeMap::new();
    for wf in &spec.workflows {
        if wf_ids.insert(&wf.name, SchemaId(wf.id)).is_some() {
            return err(wf.pos, format!("duplicate workflow name `{}`", wf.name));
        }
    }
    // Duplicate-id check.
    {
        let mut seen = BTreeMap::new();
        for wf in &spec.workflows {
            if let Some(prev) = seen.insert(wf.id, &wf.name) {
                return err(
                    wf.pos,
                    format!(
                        "workflow id {} used by both `{prev}` and `{}`",
                        wf.id, wf.name
                    ),
                );
            }
        }
    }

    let mut schemas = Vec::new();
    let mut spans = SpanTable::default();
    // (workflow name → (step name → id)) for coordination resolution.
    let mut step_maps: BTreeMap<&str, BTreeMap<&str, StepId>> = BTreeMap::new();

    for wf in &spec.workflows {
        let (schema, steps) = compile_workflow(wf, &wf_ids)?;
        spans.record_workflow(schema.id, wf.pos);
        for step in &wf.steps {
            let id = steps[step.name.as_str()];
            spans.record_step(schema.id, id, step.pos);
        }
        step_maps.insert(&wf.name, steps);
        schemas.push(schema);
    }

    let coordination = compile_coordination(&spec.coordination, &wf_ids, &step_maps, &mut spans)?;
    Ok(CompiledSpec {
        schemas,
        coordination,
        spans,
    })
}

fn compile_workflow<'a>(
    wf: &'a WorkflowDecl,
    wf_ids: &BTreeMap<&str, SchemaId>,
) -> Result<(WorkflowSchema, BTreeMap<&'a str, StepId>), CompileError> {
    let mut b = SchemaBuilder::new(SchemaId(wf.id), wf.name.clone()).inputs(wf.inputs);
    let mut ids: BTreeMap<&str, StepId> = BTreeMap::new();

    // Pass 1: declare steps.
    for step in &wf.steps {
        if ids.contains_key(step.name.as_str()) {
            return err(step.pos, format!("duplicate step name `{}`", step.name));
        }
        let id = match (&step.program, &step.nested) {
            (Some(_), Some(_)) => {
                return err(
                    step.pos,
                    format!(
                        "step `{}` has both `program` and `calls workflow`",
                        step.name
                    ),
                )
            }
            (Some(p), None) => b.add_step(&step.name, p.clone()),
            (None, Some(child)) => {
                let Some(&child_id) = wf_ids.get(child.as_str()) else {
                    return err(step.pos, format!("unknown nested workflow `{child}`"));
                };
                b.add_nested(&step.name, child_id)
            }
            (None, None) => {
                return err(
                    step.pos,
                    format!("step `{}` needs `program` or `calls workflow`", step.name),
                )
            }
        };
        ids.insert(&step.name, id);
    }

    // Pass 2: configure steps (needs all names for item refs).
    for step in &wf.steps {
        let id = ids[step.name.as_str()];
        let reads = step
            .reads
            .iter()
            .map(|r| resolve_item(r, &ids))
            .collect::<Result<Vec<_>, _>>()?;
        let reexec = match &step.reexec {
            None => None,
            Some(ReexecDecl::Always) => Some(ReexecPolicy::Always),
            Some(ReexecDecl::Never) => Some(ReexecPolicy::Never),
            Some(ReexecDecl::InputsChanged) => Some(ReexecPolicy::IfInputsChanged),
            Some(ReexecDecl::When(e)) => Some(ReexecPolicy::When(resolve_expr(e, &ids)?)),
        };
        b.configure(id, |d| {
            d.kind = if step.query {
                StepKind::Query
            } else {
                StepKind::Update
            };
            d.inputs = reads;
            d.output_slots = step.outputs;
            d.cost = step.cost;
            if let Some((prog, partial)) = &step.compensate {
                d.compensation_program = Some(prog.clone());
                d.compensation_kind = if *partial {
                    CompensationKind::Partial
                } else {
                    CompensationKind::Complete
                };
            }
            if let Some(r) = reexec {
                d.reexec = r;
            }
            d.retry = step.policy.as_ref().and_then(|p| p.retry);
            d.eligible_agents = step
                .agents
                .iter()
                .map(|&a| crew_model::AgentId(a))
                .collect();
        });
    }

    // Pass 3: flow items.
    let lookup = |name: &str, pos: Span, ids: &BTreeMap<&str, StepId>| {
        ids.get(name).copied().ok_or_else(|| CompileError {
            pos: Some(pos),
            message: format!("unknown step `{name}` in workflow `{}`", wf.name),
        })
    };
    for item in &wf.items {
        match item {
            FlowItem::Seq { from, to, pos } => {
                let f = lookup(from, *pos, &ids)?;
                let t = lookup(to, *pos, &ids)?;
                b.seq(f, t);
            }
            FlowItem::Parallel {
                from,
                branches,
                join,
                pos,
            } => {
                let f = lookup(from, *pos, &ids)?;
                let heads = branches
                    .iter()
                    .map(|n| lookup(n, *pos, &ids))
                    .collect::<Result<Vec<_>, _>>()?;
                let j = lookup(join, *pos, &ids)?;
                b.and_split(f, heads.clone());
                b.and_join(heads, j);
            }
            FlowItem::Choice {
                from,
                branches,
                join,
                pos,
            } => {
                let f = lookup(from, *pos, &ids)?;
                let mut arcs = Vec::new();
                for (name, cond) in branches {
                    let head = lookup(name, *pos, &ids)?;
                    let guard = match cond {
                        Some(e) => Some(resolve_expr(e, &ids)?),
                        None => None,
                    };
                    arcs.push((head, guard));
                }
                let heads: Vec<StepId> = arcs.iter().map(|(h, _)| *h).collect();
                let j = lookup(join, *pos, &ids)?;
                b.xor_split(f, arcs);
                b.xor_join(heads, j);
            }
            FlowItem::Loop {
                from,
                to,
                while_,
                pos,
            } => {
                let f = lookup(from, *pos, &ids)?;
                let t = lookup(to, *pos, &ids)?;
                b.loop_back(f, t, resolve_expr(while_, &ids)?);
            }
            FlowItem::CompSet { members, pos } => {
                let m = members
                    .iter()
                    .map(|n| lookup(n, *pos, &ids))
                    .collect::<Result<Vec<_>, _>>()?;
                b.compensation_set(m);
            }
            FlowItem::OnFailure {
                failing,
                origin,
                retries,
                pos,
            } => {
                let f = lookup(failing, *pos, &ids)?;
                let o = lookup(origin, *pos, &ids)?;
                match retries {
                    Some(n) => {
                        b.on_failure_rollback_to_with_attempts(f, o, *n);
                    }
                    None => {
                        b.on_failure_rollback_to(f, o);
                    }
                }
            }
        }
    }

    let schema = b.build().map_err(|e: SchemaError| CompileError {
        pos: Some(wf.pos),
        message: format!("workflow `{}`: {e}", wf.name),
    })?;
    Ok((schema, ids))
}

/// Resolve `WF.I<n>` / `<Step>.O<n>` item references.
fn resolve_item(r: &ItemRef, ids: &BTreeMap<&str, StepId>) -> Result<ItemKey, CompileError> {
    let slot_num = |s: &str, prefix: char| -> Option<u16> {
        s.strip_prefix(prefix).and_then(|n| n.parse().ok())
    };
    if r.scope == "WF" {
        match slot_num(&r.slot, 'I') {
            Some(n) => Ok(ItemKey::input(n)),
            None => err(
                r.pos,
                format!("workflow items are WF.I<n>, got `WF.{}`", r.slot),
            ),
        }
    } else {
        let Some(&step) = ids.get(r.scope.as_str()) else {
            return err(
                r.pos,
                format!("unknown step `{}` in item reference", r.scope),
            );
        };
        match slot_num(&r.slot, 'O') {
            Some(n) => Ok(ItemKey::output(step, n)),
            None => err(
                r.pos,
                format!("step outputs are <Step>.O<n>, got `{}.{}`", r.scope, r.slot),
            ),
        }
    }
}

fn resolve_expr(e: &ExprAst, ids: &BTreeMap<&str, StepId>) -> Result<Expr, CompileError> {
    Ok(match e {
        ExprAst::Int(v) => Expr::lit(*v),
        ExprAst::Float(v) => Expr::lit(*v),
        ExprAst::Str(s) => Expr::lit(s.as_str()),
        ExprAst::Bool(b) => Expr::lit(*b),
        ExprAst::Item(r) => Expr::item(resolve_item(r, ids)?),
        ExprAst::Defined(r) => Expr::Defined(resolve_item(r, ids)?),
        ExprAst::Cmp(op, l, r) => {
            let op = match op {
                CmpOpAst::Eq => crew_model::CmpOp::Eq,
                CmpOpAst::Ne => crew_model::CmpOp::Ne,
                CmpOpAst::Lt => crew_model::CmpOp::Lt,
                CmpOpAst::Le => crew_model::CmpOp::Le,
                CmpOpAst::Gt => crew_model::CmpOp::Gt,
                CmpOpAst::Ge => crew_model::CmpOp::Ge,
            };
            Expr::cmp(op, resolve_expr(l, ids)?, resolve_expr(r, ids)?)
        }
        ExprAst::Arith(op, l, r) => {
            let op = match op {
                ArithOpAst::Add => crew_model::ArithOp::Add,
                ArithOpAst::Sub => crew_model::ArithOp::Sub,
                ArithOpAst::Mul => crew_model::ArithOp::Mul,
                ArithOpAst::Div => crew_model::ArithOp::Div,
            };
            Expr::arith(op, resolve_expr(l, ids)?, resolve_expr(r, ids)?)
        }
        ExprAst::And(l, r) => Expr::and(resolve_expr(l, ids)?, resolve_expr(r, ids)?),
        ExprAst::Or(l, r) => Expr::or(resolve_expr(l, ids)?, resolve_expr(r, ids)?),
        ExprAst::Not(inner) => Expr::not(resolve_expr(inner, ids)?),
        ExprAst::Neg(inner) => Expr::arith(
            crew_model::ArithOp::Sub,
            Expr::lit(0),
            resolve_expr(inner, ids)?,
        ),
    })
}

fn compile_coordination(
    items: &[CoordItem],
    wf_ids: &BTreeMap<&str, SchemaId>,
    step_maps: &BTreeMap<&str, BTreeMap<&str, StepId>>,
    spans: &mut SpanTable,
) -> Result<CoordinationSpec, CompileError> {
    let resolve = |q: &QualRef| -> Result<SchemaStep, CompileError> {
        let Some(&schema) = wf_ids.get(q.workflow.as_str()) else {
            return err(q.pos, format!("unknown workflow `{}`", q.workflow));
        };
        let Some(&step) = step_maps
            .get(q.workflow.as_str())
            .and_then(|m| m.get(q.step.as_str()))
        else {
            return err(
                q.pos,
                format!("workflow `{}` has no step `{}`", q.workflow, q.step),
            );
        };
        Ok(SchemaStep::new(schema, step))
    };

    let mut spec = CoordinationSpec::default();
    let mut next_id = 0u32;
    for item in items {
        match item {
            CoordItem::Mutex {
                resource,
                members,
                pos,
            } => {
                spec.mutual_exclusions.push(MutualExclusion {
                    id: next_id,
                    resource: resource.clone(),
                    members: members.iter().map(&resolve).collect::<Result<_, _>>()?,
                });
                spans.record_coord(CoordKind::Mutex, next_id, *pos);
                next_id += 1;
            }
            CoordItem::Order {
                conflict,
                pairs,
                pos,
            } => {
                spec.relative_orders.push(RelativeOrder {
                    id: next_id,
                    conflict: conflict.clone(),
                    pairs: pairs
                        .iter()
                        .map(|(a, b)| Ok((resolve(a)?, resolve(b)?)))
                        .collect::<Result<_, CompileError>>()?,
                });
                spans.record_coord(CoordKind::Order, next_id, *pos);
                next_id += 1;
            }
            CoordItem::Rollback {
                source,
                dependent,
                origin,
                pos,
            } => {
                let src = resolve(source)?;
                let Some(&dep_schema) = wf_ids.get(dependent.as_str()) else {
                    return err(*pos, format!("unknown workflow `{dependent}`"));
                };
                let Some(&dep_origin) = step_maps
                    .get(dependent.as_str())
                    .and_then(|m| m.get(origin.as_str()))
                else {
                    return err(
                        *pos,
                        format!("workflow `{dependent}` has no step `{origin}`"),
                    );
                };
                spec.rollback_dependencies.push(RollbackDependency {
                    id: next_id,
                    source: src,
                    dependent_schema: dep_schema,
                    dependent_origin: dep_origin,
                });
                next_id += 1;
            }
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Result<CompiledSpec, CompileError> {
        compile(&parse(src).expect("parse"))
    }

    const ORDER_SRC: &str = r#"
        workflow OrderProcessing (id 1) {
            inputs 2;
            step CheckStock {
                program "inv.check";
                kind query;
                reads WF.I1;
                outputs 2;
            }
            step ReserveParts {
                program "inv.reserve";
                compensate "inv.release";
                reads WF.I1;
                outputs 2;
                reexecute when inputs_changed;
            }
            step ChargePayment {
                program "pay.charge";
                compensate "pay.refund" partial;
                reads WF.I2;
                outputs 2;
            }
            step Dispatch { program "ship.dispatch"; }
            flow CheckStock -> ReserveParts;
            flow ReserveParts -> ChargePayment;
            flow ChargePayment -> Dispatch;
            compensation set { ReserveParts, ChargePayment };
            on failure of ChargePayment rollback to ReserveParts retry 4;
        }
    "#;

    #[test]
    fn compiles_order_processing() {
        let out = compile_src(ORDER_SRC).unwrap();
        assert_eq!(out.schemas.len(), 1);
        let s = &out.schemas[0];
        assert_eq!(s.id, SchemaId(1));
        assert_eq!(s.step_count(), 4);
        assert_eq!(s.compensation_sets.len(), 1);
        let spec = s.rollback_spec_for(StepId(3)).expect("rollback spec");
        assert_eq!(spec.origin, StepId(2));
        assert_eq!(spec.max_attempts, 4);
        let charge = s.expect_step(StepId(3));
        assert_eq!(charge.compensation_kind, CompensationKind::Partial);
        assert_eq!(charge.inputs, vec![ItemKey::input(2)]);
        let check = s.expect_step(StepId(1));
        assert_eq!(check.kind, StepKind::Query);
    }

    #[test]
    fn compiles_structures_and_nesting() {
        let out = compile_src(
            r#"
            workflow Child (id 9) {
                inputs 1;
                step Only { program "p"; reads WF.I1; }
            }
            workflow Parent (id 2) {
                inputs 1;
                step Start { program "p"; outputs 1; }
                step L { program "p"; }
                step R { program "p"; }
                step Join { program "p"; }
                step Sub { calls workflow Child; reads Start.O1; }
                step Fin { program "p"; }
                parallel Start -> { L, R } -> Join;
                flow Join -> Sub;
                flow Sub -> Fin;
                loop Fin -> Join while Fin.O1 == false;
            }
            "#,
        )
        .unwrap();
        assert_eq!(out.schemas.len(), 2);
        let parent = out.schemas.iter().find(|s| s.id == SchemaId(2)).unwrap();
        assert_eq!(parent.nested.len(), 1);
        assert!(parent.arcs().iter().any(|a| a.loop_back));
        assert_eq!(
            parent.split_kind(StepId(1)),
            Some(crew_model::SplitKind::And)
        );
    }

    #[test]
    fn compiles_coordination() {
        let out = compile_src(&format!(
            "{ORDER_SRC}
            workflow Restock (id 2) {{
                inputs 1;
                step Pick {{ program \"p\"; }}
                step Stage {{ program \"p\"; }}
                flow Pick -> Stage;
            }}
            coordination {{
                mutex \"dock\" {{ OrderProcessing.Dispatch, Restock.Stage }};
                order \"parts\" (OrderProcessing.ReserveParts before Restock.Pick),
                               (OrderProcessing.Dispatch before Restock.Stage);
                rollback OrderProcessing.ReserveParts forces Restock to Pick;
            }}"
        ))
        .unwrap();
        assert_eq!(out.coordination.mutual_exclusions.len(), 1);
        assert_eq!(out.coordination.relative_orders.len(), 1);
        assert_eq!(out.coordination.relative_orders[0].pairs.len(), 2);
        assert_eq!(out.coordination.rollback_dependencies.len(), 1);
    }

    #[test]
    fn strict_mode_accepts_clean_spec() {
        crate::parse_and_compile_strict(ORDER_SRC).expect("order spec lints clean");
    }

    #[test]
    fn strict_mode_rejects_error_findings_with_spans() {
        // `while true` never lets the loop exit: LoopNeverExits (Error).
        let err = crate::parse_and_compile_strict(
            "workflow W (id 1) {
                inputs 1;
                step A { program \"p\"; }
                step B { program \"p\"; }
                flow A -> B;
                loop B -> A while true;
            }",
        )
        .unwrap_err();
        let crate::LawsError::Lint(diags) = err else {
            panic!("expected lint failure, got {err}");
        };
        let d = diags
            .iter()
            .find(|d| d.id == crew_lint::LintId::LoopNeverExits)
            .expect("loop-never-exits diagnostic");
        // The diagnostic lands on the loop head step `A`, declared line 3.
        assert_eq!(d.span.map(|s| s.line), Some(3), "{d}");
    }

    #[test]
    fn lint_report_keeps_warns_without_failing_strict() {
        // A rollback re-runs `A` under `reexecute always` with nothing to
        // undo it: a Warn, not an Error, so strict mode still accepts the
        // spec.
        let spec = crate::parse_and_compile_strict(
            "workflow W (id 1) {
                inputs 1;
                step A { program \"p\"; reexecute always; }
                step B { program \"p\"; }
                flow A -> B;
                on failure of B rollback to A;
            }",
        )
        .expect("warns do not fail strict mode");
        let diags = spec.lint();
        assert!(diags
            .iter()
            .any(|d| d.id == crew_lint::LintId::RollbackBlindReexecution));
        assert!(crew_lint::is_clean(&diags));
    }

    #[test]
    fn name_resolution_errors() {
        let e = compile_src("workflow W (id 1) { step A { program \"p\"; } flow A -> Nope; }")
            .unwrap_err();
        assert!(e.message.contains("unknown step `Nope`"), "{e}");

        let e =
            compile_src("workflow W (id 1) { step A { program \"p\"; reads B.O1; } }").unwrap_err();
        assert!(e.message.contains("unknown step `B`"), "{e}");

        let e = compile_src("workflow W (id 1) { step A { calls workflow Ghost; } }").unwrap_err();
        assert!(e.message.contains("unknown nested workflow"), "{e}");

        let e = compile_src("coordination { mutex \"x\" { W.A }; }").unwrap_err();
        assert!(e.message.contains("unknown workflow `W`"), "{e}");
    }

    #[test]
    fn structural_errors_surface_from_builder() {
        // Cycle through forward arcs.
        let e = compile_src(
            "workflow W (id 1) {
                step A { program \"p\"; }
                step B { program \"p\"; }
                flow A -> B; flow B -> A;
            }",
        )
        .unwrap_err();
        assert!(
            e.message.contains("cycle") || e.message.contains("start step"),
            "{e}"
        );
    }

    #[test]
    fn duplicate_names_and_ids_rejected() {
        let e = compile_src(
            "workflow W (id 1) { step A { program \"p\"; } }
             workflow W (id 2) { step A { program \"p\"; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate workflow name"), "{e}");

        let e = compile_src(
            "workflow W (id 1) { step A { program \"p\"; } }
             workflow X (id 1) { step A { program \"p\"; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("workflow id 1"), "{e}");

        let e = compile_src(
            "workflow W (id 1) { step A { program \"p\"; } step A { program \"q\"; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate step name"), "{e}");
    }

    #[test]
    fn bad_item_slots_rejected() {
        let e = compile_src("workflow W (id 1) { step A { program \"p\"; reads WF.X1; } }")
            .unwrap_err();
        assert!(e.message.contains("WF.I<n>"), "{e}");

        let e = compile_src(
            "workflow W (id 1) { inputs 1;
                step A { program \"p\"; }
                step B { program \"p\"; reads A.I1; }
                flow A -> B; }",
        )
        .unwrap_err();
        assert!(e.message.contains("O<n>"), "{e}");
    }
}
