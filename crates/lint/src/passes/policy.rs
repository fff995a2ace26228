//! Pass 5: failure-policy soundness.
//!
//! A step's `retry(N)` re-dispatches it in place before the paper's
//! compensate-or-reexecute machinery takes over, and re-running a
//! non-idempotent update step duplicates external effects: a retry needs
//! either `idempotent` or a compensate program to undo the failed attempt.
//! `idempotent` is the one annotation only this pass reads — it declares a
//! property of the step's program that no run-time can observe.

use crate::{Diagnostic, LintId};
use crew_model::{StepKind, WorkflowSchema};

/// Run the pass over one schema.
pub fn run(schema: &WorkflowSchema, out: &mut Vec<Diagnostic>) {
    for def in schema.steps() {
        let p = &def.policy;
        if p.retry.is_some()
            && !p.idempotent
            && def.kind == StepKind::Update
            && !def.is_compensatable()
        {
            out.push(
                Diagnostic::new(
                    LintId::RetryNonIdempotentWithoutCompensation,
                    format!(
                        "step `{}` ({}) of workflow `{}` retries but is neither \
                         idempotent nor compensatable: every failed attempt can \
                         leave external effects no rollback undoes",
                        def.name, def.id, schema.name
                    ),
                )
                .at_step(schema.id, def.id),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{RetryPolicy, SchemaBuilder, SchemaId, StepPolicy};

    fn two_step_schema(comp: bool, policy: StepPolicy) -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(1), "W");
        let a = b.add_step("A", "p");
        let z = b.add_step("Z", "q");
        b.seq(a, z);
        b.configure(a, |d| {
            if comp {
                d.compensation_program = Some("p.undo".into());
            }
            d.policy = policy;
        });
        b.build().unwrap()
    }

    fn ids(schema: &WorkflowSchema) -> Vec<LintId> {
        let mut out = Vec::new();
        run(schema, &mut out);
        out.iter().map(|d| d.id).collect()
    }

    #[test]
    fn retry_without_undo_is_flagged_and_idempotence_clears_it() {
        let retry = |idempotent| StepPolicy {
            retry: Some(RetryPolicy::bounded(2)),
            idempotent,
        };
        assert_eq!(
            ids(&two_step_schema(false, retry(false))),
            vec![LintId::RetryNonIdempotentWithoutCompensation]
        );
        assert!(ids(&two_step_schema(false, retry(true))).is_empty());
        assert!(ids(&two_step_schema(true, retry(false))).is_empty());
    }

    #[test]
    fn unannotated_schema_is_silent() {
        assert!(ids(&two_step_schema(false, StepPolicy::default())).is_empty());
    }
}
