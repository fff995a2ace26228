//! Pass 4: data hazards decidable without running anything.
//!
//! Two checks, each a stall the run shows at the split:
//!
//! - **No viable XOR branch.** When *every* arc of a split carries a
//!   condition that folds to `false` (see [`crate::fold`]), no branch rule
//!   can ever fire.
//! - **Cross-branch reads over an XOR split.** Only one branch of an XOR
//!   executes; a step reading a sibling branch's output waits on an event
//!   that will never be posted.

use crate::fold::fold_bool;
use crate::{Diagnostic, LintId};
use crew_model::{ItemScope, SplitKind, StepId, WorkflowSchema};
use std::collections::BTreeSet;

/// Run the pass over one schema.
pub fn run(schema: &WorkflowSchema, out: &mut Vec<Diagnostic>) {
    for def in schema.steps() {
        if schema.split_kind(def.id) == Some(SplitKind::Xor) {
            check_no_viable_branch(schema, def.id, out);
            check_cross_branch_reads(schema, def.id, out);
        }
    }
}

fn check_no_viable_branch(schema: &WorkflowSchema, split: StepId, out: &mut Vec<Diagnostic>) {
    let mut arcs = schema.forward_outgoing(split);
    if arcs.all(|a| a.condition.as_ref().and_then(fold_bool) == Some(false)) {
        out.push(
            Diagnostic::new(
                LintId::XorNoViableBranch,
                format!(
                    "every branch condition of XOR split `{}` ({split}) in workflow \
                     `{}` is statically false: no branch can be taken and the \
                     instance stalls at the split",
                    schema.expect_step(split).name,
                    schema.name
                ),
            )
            .at_step(schema.id, split),
        );
    }
}

fn check_cross_branch_reads(schema: &WorkflowSchema, split: StepId, out: &mut Vec<Diagnostic>) {
    let branches: Vec<BTreeSet<StepId>> = schema
        .forward_outgoing(split)
        .map(|a| schema.branch_steps(split, a.to))
        .collect();

    for (i, branch) in branches.iter().enumerate() {
        for &s in branch {
            let def = schema.expect_step(s);
            for key in &def.inputs {
                let ItemScope::StepOutput(p) = key.scope else {
                    continue;
                };
                let crossed = branches
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && other.contains(&p) && !branch.contains(&p));
                if crossed {
                    out.push(
                        Diagnostic::new(
                            LintId::XorCrossBranchRead,
                            format!(
                                "step `{}` ({s}) in workflow `{}` reads {key} from a \
                                 different branch of XOR split `{}` ({split}): when \
                                 `{}`'s branch runs, the producer never does",
                                def.name,
                                schema.name,
                                schema.expect_step(split).name,
                                def.name
                            ),
                        )
                        .at_step(schema.id, s),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use crew_model::{CmpOp, Expr, ItemKey, SchemaBuilder, SchemaId};

    fn ids(out: &[Diagnostic]) -> Vec<LintId> {
        out.iter().map(|d| d.id).collect()
    }

    fn run_pass(schema: &WorkflowSchema) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        run(schema, &mut out);
        out
    }

    fn xor_diamond(cond_l: Expr) -> (SchemaBuilder, StepId, StepId, StepId, StepId) {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", "p");
        let r = b.add_step("R", "p");
        let j = b.add_step("J", "p");
        b.xor_split(a, [(l, Some(cond_l)), (r, None)]);
        b.xor_join([l, r], j);
        (b, a, l, r, j)
    }

    #[test]
    fn data_dependent_xor_is_clean() {
        let cond = Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(10));
        let (b, ..) = xor_diamond(cond);
        let schema = b.build().unwrap();
        assert!(run_pass(&schema).is_empty());
    }

    #[test]
    fn all_false_conditions_leave_no_viable_branch() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", "p");
        let r = b.add_step("R", "p");
        let j = b.add_step("J", "p");
        let f1 = Expr::cmp(CmpOp::Gt, Expr::lit(1), Expr::lit(2));
        let f2 = Expr::cmp(CmpOp::Gt, Expr::lit(3), Expr::lit(4));
        b.xor_split(a, [(l, Some(f1)), (r, Some(f2))]);
        b.xor_join([l, r], j);
        let schema = b.build().unwrap();
        let out = run_pass(&schema);
        assert_eq!(ids(&out), vec![LintId::XorNoViableBranch]);
        assert_eq!(out[0].severity, Severity::Error);
    }

    #[test]
    fn cross_branch_read_is_an_error() {
        let cond = Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(10));
        let (mut b, _a, l, r, _j) = xor_diamond(cond);
        b.read(r, ItemKey::output(l, 1));
        let schema = b.build().unwrap();
        let out = run_pass(&schema);
        assert_eq!(ids(&out), vec![LintId::XorCrossBranchRead]);
        assert_eq!(out[0].severity, Severity::Error);
    }

    /// Reading an output produced *before* the split is fine.
    #[test]
    fn upstream_read_is_clean() {
        let cond = Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(10));
        let (mut b, a, l, _r, _j) = xor_diamond(cond);
        b.read(l, ItemKey::output(a, 1));
        let schema = b.build().unwrap();
        assert!(run_pass(&schema).is_empty());
    }

    fn and_diamond(left_prog: &str, right_prog: &str) -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let l = b.add_step("L", left_prog);
        let r = b.add_step("R", right_prog);
        let j = b.add_step("J", "p");
        b.and_split(a, [l, r]);
        b.and_join([l, r], j);
        b.build().unwrap()
    }

    #[test]
    fn different_programs_are_clean() {
        let out = run_pass(&and_diamond("stamp", "other"));
        assert!(out.is_empty(), "{out:?}");
    }
}
