//! Pass 1: compensation soundness of declared rollbacks (§3, Figure 3).
//!
//! A rollback to `origin` invalidates every step downstream of it. The
//! steps that may already have *executed* when `failing` fails — everything
//! in the region except `failing` itself and its strict descendants — are
//! revisited on retry. Three things can then happen to a region step:
//!
//! - it re-executes (OCR decides per its reexec policy), superseding its
//!   previous effects;
//! - it is *abandoned*: it sat on an XOR branch and the retry decides the
//!   split differently, so `CompensateThread` undoes the branch without
//!   re-running it (Figure 3);
//! - it is compensated then re-executed (policy `Always`/`When`).
//!
//! Abandonment and compensate-then-reexec both need a real undo. An update
//! step with no compensate program is "compensated" by the engines as a
//! silent no-op — its external effects survive, which is exactly the
//! incoherence this pass reports.

use crate::{Diagnostic, LintId};
use crew_model::{ReexecPolicy, SplitKind, StepDef, StepId, StepKind, WorkflowSchema};
use std::collections::BTreeSet;

/// Run the pass over one schema.
pub fn run(schema: &WorkflowSchema, out: &mut Vec<Diagnostic>) {
    for spec in &schema.rollback_specs {
        check_rollback(schema, spec.failing_step, spec.origin, out);
    }
    for set in &schema.compensation_sets {
        for &member in &set.members {
            let def = schema.expect_step(member);
            if def.kind == StepKind::Update && !def.is_compensatable() {
                out.push(
                    Diagnostic::new(
                        LintId::CompensationSetMemberNotCompensatable,
                        format!(
                            "compensation set {} of workflow `{}` contains update step \
                             `{}` ({member}) with no compensate program: the set's \
                             atomic undo chain breaks at it",
                            set.id, schema.name, def.name
                        ),
                    )
                    .at_step(schema.id, member),
                );
            }
        }
    }
}

fn check_rollback(
    schema: &WorkflowSchema,
    failing: StepId,
    origin: StepId,
    out: &mut Vec<Diagnostic>,
) {
    // Steps that may have executed when `failing` fails and are invalidated
    // by restarting from `origin`: the origin, plus its descendants minus
    // the failing step and everything strictly after it.
    let mut region: BTreeSet<StepId> = schema.invalidation_set(origin);
    region.insert(origin);
    region.remove(&failing);
    for s in schema.descendants(failing) {
        region.remove(&s);
    }

    // XOR splits the retry walks again re-decide their branch; previously
    // executed steps on the branch *not* retaken are compensated without
    // re-execution (`CompensateThread`), so they need a real undo.
    let mut switchable: BTreeSet<StepId> = BTreeSet::new();
    for def in schema.steps() {
        let split = def.id;
        if schema.split_kind(split) != Some(SplitKind::Xor) {
            continue;
        }
        if split != origin && !region.contains(&split) {
            continue;
        }
        for arc in schema.forward_outgoing(split) {
            for s in schema.branch_steps(split, arc.to) {
                if region.contains(&s) {
                    switchable.insert(s);
                }
            }
        }
    }

    for &s in &region {
        let def = schema.expect_step(s);
        if def.kind != StepKind::Update || covered(schema, def) {
            continue;
        }
        if switchable.contains(&s) {
            out.push(
                Diagnostic::new(
                    LintId::RollbackStepNotCompensatable,
                    format!(
                        "rollback of `{}` ({failing}) to `{}` ({origin}) in workflow \
                         `{}` can abandon XOR-branch update step `{}` ({s}), which has \
                         no compensate program and is in no compensation set: its \
                         effects survive the branch switch",
                        schema.expect_step(failing).name,
                        schema.expect_step(origin).name,
                        schema.name,
                        def.name
                    ),
                )
                .at_step(schema.id, s),
            );
        } else if matches!(def.reexec, ReexecPolicy::Always | ReexecPolicy::When(_)) {
            out.push(
                Diagnostic::new(
                    LintId::RollbackBlindReexecution,
                    format!(
                        "rollback of `{}` ({failing}) to `{}` ({origin}) in workflow \
                         `{}` re-executes update step `{}` ({s}) under its `{}` \
                         policy with no compensate program: previous effects are \
                         applied twice",
                        schema.expect_step(failing).name,
                        schema.expect_step(origin).name,
                        schema.name,
                        def.name,
                        match def.reexec {
                            ReexecPolicy::Always => "reexecute always",
                            _ => "conditional reexecute",
                        }
                    ),
                )
                .at_step(schema.id, s),
            );
        }
    }
}

/// A step needs no undo when it is read-only, has a compensate program, or
/// participates in a compensation set (whose members pass 1 checks
/// separately).
fn covered(schema: &WorkflowSchema, def: &StepDef) -> bool {
    def.kind == StepKind::Query
        || def.is_compensatable()
        || schema.compensation_set_of(def.id).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use crew_model::{CmpOp, Expr, ItemKey, SchemaBuilder, SchemaId};

    fn ids(out: &[Diagnostic]) -> Vec<LintId> {
        out.iter().map(|d| d.id).collect()
    }

    /// XOR diamond inside a rollback region with a non-compensatable
    /// update branch step: branch switch loses its effects.
    #[test]
    fn abandoned_branch_step_without_compensation_is_an_error() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", "p");
        let r = b.add_step("R", "p");
        let j = b.add_step("J", "p");
        let z = b.add_step("Z", "p");
        let cond = Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(0));
        b.xor_split(a, [(l, Some(cond)), (r, None)]);
        b.xor_join([l, r], j);
        b.seq(j, z);
        b.on_failure_rollback_to(z, a);
        let schema = b.build().unwrap();

        let mut out = Vec::new();
        run(&schema, &mut out);
        assert!(
            ids(&out).contains(&LintId::RollbackStepNotCompensatable),
            "{out:?}"
        );
        assert!(
            out.iter()
                .all(|d| d.id != LintId::RollbackStepNotCompensatable
                    || d.severity == Severity::Error)
        );
    }

    /// Same shape, but the branch steps can undo themselves: clean.
    #[test]
    fn compensatable_branch_steps_are_clean() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", "p");
        let r = b.add_step("R", "p");
        let j = b.add_step("J", "p");
        let z = b.add_step("Z", "p");
        let cond = Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(0));
        b.xor_split(a, [(l, Some(cond)), (r, None)]);
        b.xor_join([l, r], j);
        b.seq(j, z);
        b.on_failure_rollback_to(z, a);
        for s in [l, r] {
            b.configure(s, |d| d.compensation_program = Some("undo".into()));
        }
        let schema = b.build().unwrap();

        let mut out = Vec::new();
        run(&schema, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    /// A query step on the branch needs no compensation.
    #[test]
    fn query_branch_steps_are_exempt() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", "p");
        let r = b.add_step("R", "p");
        let j = b.add_step("J", "p");
        let z = b.add_step("Z", "p");
        let cond = Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(0));
        b.xor_split(a, [(l, Some(cond)), (r, None)]);
        b.xor_join([l, r], j);
        b.seq(j, z);
        b.on_failure_rollback_to(z, a);
        for s in [l, r] {
            b.configure(s, |d| d.kind = StepKind::Query);
        }
        let schema = b.build().unwrap();

        let mut out = Vec::new();
        run(&schema, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    /// Always-reexecute steps with no undo get flagged as blind.
    #[test]
    fn blind_reexecution_warns() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        b.on_failure_rollback_to(c, a);
        b.configure(a, |d| d.reexec = ReexecPolicy::Always);
        let schema = b.build().unwrap();

        let mut out = Vec::new();
        run(&schema, &mut out);
        assert_eq!(ids(&out), vec![LintId::RollbackBlindReexecution]);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    /// Compensation-set member without a program breaks the undo chain.
    #[test]
    fn comp_set_member_without_program_is_an_error() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        b.configure(a, |d| d.compensation_program = Some("undo".into()));
        b.compensation_set([a, c]);
        let schema = b.build().unwrap();

        let mut out = Vec::new();
        run(&schema, &mut out);
        assert_eq!(
            ids(&out),
            vec![LintId::CompensationSetMemberNotCompensatable]
        );
    }
}
