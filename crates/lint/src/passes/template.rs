//! Pass 3: termination of the compiled rule template (§4).
//!
//! The ECA template drives an instance by chaining rules: a fired rule's
//! action produces events (`StartStep(s)` eventually posts `StepDone(s)`,
//! `EmitEvent(e)` posts `e` directly) that trigger further rules. That
//! chain must terminate — the only sanctioned repetition is a schema
//! `loop_back` arc, whose rule the engines re-fire per iteration under its
//! continue condition.
//!
//! The pass builds the trigger graph over the template and reports any
//! cycle none of whose edges is carried by a declared `loop_back` arc: such
//! a cycle re-fires rules forever (or deadlocks the generation marks) with
//! no loop condition ever able to stop it. Declared loops are then checked
//! for statically decided conditions: a continue condition that folds to
//! `true` never lets the loop exit, one that folds to `false` makes the
//! back-edge dead weight.

use super::find_cycle;
use crate::fold::fold_bool;
use crate::{Diagnostic, LintId};
use crew_model::WorkflowSchema;
use crew_rules::{compile_schema, Action, EventKind, TemplateRule};
use std::collections::BTreeSet;

/// Run the pass over one schema: compile its template and lint it, then
/// check the declared loop conditions themselves.
pub fn run(schema: &WorkflowSchema, out: &mut Vec<Diagnostic>) {
    for def in schema.steps() {
        for arc in schema.incoming(def.id).filter(|a| a.loop_back) {
            let tail = schema.expect_step(arc.from);
            let head = schema.expect_step(arc.to);
            match arc.condition.as_ref() {
                None => out.push(
                    Diagnostic::new(
                        LintId::LoopNeverExits,
                        format!(
                            "loop back-edge `{}` -> `{}` in workflow `{}` has no \
                             continue condition: the loop re-fires unconditionally \
                             and never exits",
                            tail.name, head.name, schema.name
                        ),
                    )
                    .at_step(schema.id, arc.to),
                ),
                Some(c) => match fold_bool(c) {
                    Some(true) => out.push(
                        Diagnostic::new(
                            LintId::LoopNeverExits,
                            format!(
                                "loop back-edge `{}` -> `{}` in workflow `{}` has a \
                                 continue condition that is statically true: the \
                                 loop never exits",
                                tail.name, head.name, schema.name
                            ),
                        )
                        .at_step(schema.id, arc.to),
                    ),
                    Some(false) => out.push(
                        Diagnostic::new(
                            LintId::LoopConditionNeverHolds,
                            format!(
                                "loop back-edge `{}` -> `{}` in workflow `{}` has a \
                                 continue condition that is statically false: the \
                                 loop body never repeats",
                                tail.name, head.name, schema.name
                            ),
                        )
                        .at_step(schema.id, arc.to),
                    ),
                    None => {}
                },
            }
        }
    }

    let template = compile_schema(schema);
    out.extend(lint_template(schema, &template));
}

/// Lint an explicit rule template against its schema. Exposed so callers
/// can check hand-built or runtime-amended rule sets (the coordination
/// machinery adds rules via `AddRule()`), not just the stock compilation.
pub fn lint_template(schema: &WorkflowSchema, rules: &[TemplateRule]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Loop-sanctioned trigger links: StepDone(tail) firing a rule that
    // starts `head` where the schema declares `tail -> head` as loop_back.
    let declared: BTreeSet<(crew_model::StepId, crew_model::StepId)> = schema
        .steps()
        .flat_map(|d| schema.incoming(d.id).filter(|a| a.loop_back))
        .map(|a| (a.from, a.to))
        .collect();

    // The event a rule's action eventually produces, if any.
    let produces = |r: &TemplateRule| -> Option<EventKind> {
        match &r.rule.action {
            Action::StartStep(s) => Some(EventKind::StepDone(*s)),
            Action::EmitEvent(e) => Some(*e),
            _ => None,
        }
    };

    // Trigger graph over rule indices, minus loop-declared edges: any cycle
    // that survives has no sanctioned back-edge.
    let n = rules.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ri) in rules.iter().enumerate() {
        let Some(ev) = produces(ri) else { continue };
        for (j, rj) in rules.iter().enumerate() {
            if !rj.rule.triggers_on(ev) {
                continue;
            }
            if let EventKind::StepDone(tail) = ev {
                if declared.contains(&(tail, rj.step)) {
                    continue;
                }
            }
            edges[i].push(j);
        }
    }
    let nodes: BTreeSet<usize> = (0..n).collect();
    if let Some(cycle) = find_cycle(&nodes, |i| edges[*i].clone()) {
        let path: Vec<String> = cycle
            .iter()
            .map(|&i| {
                let r = &rules[i];
                format!("{} ({})", r.rule.id, r.rule.action)
            })
            .collect();
        out.push(
            Diagnostic::new(
                LintId::RuleCycleWithoutLoopBack,
                format!(
                    "rule template of workflow `{}` chains in a cycle with no \
                     declared loop back-edge: {} — the rule set re-fires forever",
                    schema.name,
                    path.join(" -> ")
                ),
            )
            .at_step(schema.id, rules[cycle[0]].step),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use crew_model::{CmpOp, Expr, ItemKey, SchemaBuilder, SchemaId};
    use crew_rules::{Rule, RuleId};

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

    #[test]
    fn statically_false_loop_condition_warns() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        b.loop_back(a, a, Expr::cmp(CmpOp::Gt, Expr::lit(1), Expr::lit(2)));
        let schema = b.build().unwrap();
        let mut out = Vec::new();
        run(&schema, &mut out);
        assert_eq!(ids(&out), vec![LintId::LoopConditionNeverHolds]);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    /// Hand-built rules that chain through emitted events in a ring — the
    /// shape `AddRule()` amendments can produce, which no schema loop
    /// sanctions.
    #[test]
    fn synthetic_emit_cycle_is_an_error() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let schema = b.build().unwrap();
        let rules = vec![
            TemplateRule {
                step: a,
                rule: Rule::new(
                    RuleId(0),
                    vec![EventKind::External(1)],
                    Action::EmitEvent(EventKind::External(2)),
                ),
            },
            TemplateRule {
                step: a,
                rule: Rule::new(
                    RuleId(1),
                    vec![EventKind::External(2)],
                    Action::EmitEvent(EventKind::External(1)),
                ),
            },
        ];
        let out = lint_template(&schema, &rules);
        assert_eq!(ids(&out), vec![LintId::RuleCycleWithoutLoopBack]);
    }

    /// A rule re-starting an ancestor step without a matching loop_back arc
    /// cycles the template.
    #[test]
    fn undeclared_restart_cycle_is_an_error() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let a = b.add_step("A", "p");
        let c = b.add_step("B", "p");
        b.seq(a, c);
        let schema = b.build().unwrap();
        let mut rules = compile_schema(&schema);
        rules.push(TemplateRule {
            step: a,
            rule: Rule::new(
                RuleId(99),
                vec![EventKind::StepDone(c)],
                Action::StartStep(a),
            ),
        });
        let out = lint_template(&schema, &rules);
        assert_eq!(ids(&out), vec![LintId::RuleCycleWithoutLoopBack]);
    }
}
