//! Pass 3: termination of the compiled rule template (§4).
//!
//! The ECA template drives an instance by chaining rules, and the only
//! repetition the schema compiler can produce is a declared `loop_back`
//! arc, whose rule the engines re-fire per iteration under its continue
//! condition. A continue condition that is absent or folds to `true` never
//! lets the loop exit: the instance keeps executing its body until the run
//! horizon.

use crate::fold::fold_bool;
use crate::{Diagnostic, LintId};
use crew_model::WorkflowSchema;

/// Run the pass over one schema: check every declared loop's condition.
pub fn run(schema: &WorkflowSchema, out: &mut Vec<Diagnostic>) {
    for def in schema.steps() {
        for arc in schema.incoming(def.id).filter(|a| a.loop_back) {
            let why = match arc.condition.as_ref().map(fold_bool) {
                None => "has no continue condition",
                Some(Some(true)) => "has a continue condition that is statically true",
                Some(_) => continue,
            };
            out.push(
                Diagnostic::new(
                    LintId::LoopNeverExits,
                    format!(
                        "loop back-edge `{}` -> `{}` in workflow `{}` {why}: the \
                         loop never exits",
                        schema.expect_step(arc.from).name,
                        schema.expect_step(arc.to).name,
                        schema.name
                    ),
                )
                .at_step(schema.id, arc.to),
            );
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

    #[test]
    fn linear_schema_is_clean() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        let schema = b.build().unwrap();
        let mut out = Vec::new();
        run(&schema, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn data_dependent_loop_is_clean() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        let cont = Expr::cmp(
            CmpOp::Eq,
            Expr::item(ItemKey::output(a, 1)),
            Expr::lit(false),
        );
        b.loop_back(a, a, cont);
        let schema = b.build().unwrap();
        let mut out = Vec::new();
        run(&schema, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn statically_true_loop_condition_never_exits() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        b.loop_back(a, a, Expr::lit(true));
        let schema = b.build().unwrap();
        let mut out = Vec::new();
        run(&schema, &mut out);
        assert_eq!(ids(&out), vec![LintId::LoopNeverExits]);
        assert_eq!(out[0].severity, Severity::Error);
    }
}
