//! Compiling a workflow schema into its rule template.
//!
//! The paper's run-times navigate by firing rules: "When a workflow is
//! instantiated ... a workflow.start event is generated which triggers
//! several rules", and each subsequent step's rule fires on the `step.done`
//! events of its control-flow predecessors plus the producers of its input
//! data (§3, §4.2). This module derives that rule template from a validated
//! [`WorkflowSchema`]; run-times instantiate the template per instance (and
//! per agent, in distributed control, keeping only the rules for locally
//! handled steps).

use crate::event::EventKind;
use crate::rule::{Action, Rule};
use crew_model::{Expr, JoinKind, StepId, WorkflowSchema};

/// A rule template entry: the rule plus the step whose execution it starts.
/// Distributed agents filter the template by step responsibility.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateRule {
    /// The step the rule fires (every compiled navigation rule starts a
    /// step; coordination rules are added at run time instead).
    pub step: StepId,
    /// The rule that fired.
    pub rule: Rule,
}

/// Compile the navigation rule template for `schema`.
///
/// Per step, the trigger is:
/// - the start step: `workflow.start`;
/// - an AND-join (or single-predecessor step): `step.done` of **all**
///   forward predecessors;
/// - an XOR-join: one rule per incoming arc, each on that predecessor's
///   `step.done`;
///
/// plus, in every case, `step.done` of any cross-branch data producers
/// ("the rule may require other step.done events depending on which of the
/// steps it gets its input data from", §4.2).
///
/// Arc conditions become rule guards. On an XOR split the unconditioned
/// `otherwise` arc gets the negated conjunction of its sibling conditions,
/// so that exactly one branch rule can fire. Loop back-edges compile to an
/// additional rule at the loop head guarded by the continue condition; the
/// forward exit arc out of the loop tail is guarded by the negated continue
/// condition when it does not carry its own.
pub fn compile_schema(schema: &WorkflowSchema) -> Vec<TemplateRule> {
    let mut out = Vec::new();
    let mut push = |step: StepId, rule: Rule| {
        out.push(TemplateRule { step, rule });
    };

    for def in schema.steps() {
        let step = def.id;
        let extra: Vec<EventKind> = schema
            .cross_branch_producers(step)
            .into_iter()
            .map(EventKind::StepDone)
            .collect();

        if step == schema.start_step() {
            let mut trigger = vec![EventKind::WorkflowStart];
            trigger.extend(extra.iter().copied());
            push(step, Rule::new(trigger, Action::StartStep(step)));
        } else {
            let incoming: Vec<&crew_model::ControlArc> = schema.forward_incoming(step).collect();
            let is_xor_join = incoming.len() > 1 && schema.join_kind(step) == Some(JoinKind::Xor);
            if is_xor_join {
                // One rule per incoming arc: any single branch completing
                // fires the confluence step.
                for arc in &incoming {
                    let mut trigger = vec![EventKind::StepDone(arc.from)];
                    trigger.extend(extra.iter().copied());
                    let mut rule = Rule::new(trigger, Action::StartStep(step));
                    if let Some(guard) = arc_guard(schema, arc) {
                        rule = rule.with_guard(guard);
                    }
                    push(step, rule);
                }
            } else {
                // AND-join / sequence: all predecessors must complete.
                let mut trigger: Vec<EventKind> = incoming
                    .iter()
                    .map(|a| EventKind::StepDone(a.from))
                    .collect();
                trigger.extend(extra.iter().copied());
                // Conjoin the guards of all incoming arcs (only meaningful
                // for a single conditioned arc out of an XOR split).
                let mut guard: Option<Expr> = None;
                for arc in &incoming {
                    if let Some(g) = arc_guard(schema, arc) {
                        guard = Some(match guard {
                            None => g,
                            Some(prev) => Expr::and(prev, g),
                        });
                    }
                }
                let mut rule = Rule::new(trigger, Action::StartStep(step));
                if let Some(g) = guard {
                    rule = rule.with_guard(g);
                }
                push(step, rule);
            }
        }

        // Loop back-edges targeting this step: re-fire it while the
        // continue condition holds.
        for arc in schema.incoming(step).filter(|a| a.loop_back) {
            let trigger = vec![EventKind::StepDone(arc.from)];
            let mut rule = Rule::new(trigger, Action::StartStep(step));
            if let Some(c) = &arc.condition {
                rule = rule.with_guard(c.clone());
            }
            push(step, rule);
        }
    }

    out
}

/// The effective guard of a forward arc: its own condition; for the single
/// unconditioned arc of an XOR split, the negated disjunction of the
/// sibling conditions; for the forward exit of a loop tail with an
/// unconditioned exit arc, the negated loop-continue condition.
fn arc_guard(schema: &WorkflowSchema, arc: &crew_model::ControlArc) -> Option<Expr> {
    if let Some(c) = &arc.condition {
        return Some(c.clone());
    }
    // `otherwise` arc of an XOR split.
    if schema.split_kind(arc.from) == Some(crew_model::SplitKind::Xor) {
        let siblings: Vec<Expr> = schema
            .forward_outgoing(arc.from)
            .filter(|a| a.to != arc.to)
            .filter_map(|a| a.condition.clone())
            .collect();
        if !siblings.is_empty() {
            let any = siblings.into_iter().reduce(Expr::or).expect("non-empty");
            return Some(Expr::not(any));
        }
    }
    // Forward continuation out of a loop tail: take it when the loop does
    // not continue.
    let loop_conds: Vec<Expr> = schema
        .outgoing(arc.from)
        .filter(|a| a.loop_back)
        .filter_map(|a| a.condition.clone())
        .collect();
    if !loop_conds.is_empty() {
        let any = loop_conds.into_iter().reduce(Expr::or).expect("non-empty");
        return Some(Expr::not(any));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ruleset::RuleSet;
    use crew_model::{DataEnv, ItemKey, SchemaBuilder, SchemaId, Value};

    fn fire_all(rs: &mut RuleSet, env: &DataEnv) -> Vec<StepId> {
        rs.fire_ready(env)
            .into_iter()
            .map(|f| {
                let Action::StartStep(s) = f.action;
                s
            })
            .collect()
    }

    #[test]
    fn sequence_compiles_to_chained_rules() {
        let mut b = SchemaBuilder::new(SchemaId(1), "seq");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        b.seq(s1, s2);
        let schema = b.build().unwrap();
        let template = compile_schema(&schema);
        assert_eq!(template.len(), 2);

        let mut rs = RuleSet::new();
        rs.add_rules(template.iter().map(|t| &t.rule));
        rs.add_event(EventKind::WorkflowStart);
        assert_eq!(fire_all(&mut rs, &DataEnv::new()), vec![s1]);
        rs.add_event(EventKind::StepDone(s1));
        assert_eq!(fire_all(&mut rs, &DataEnv::new()), vec![s2]);
    }

    #[test]
    fn and_split_fires_both_join_waits_for_all() {
        let mut b = SchemaBuilder::new(SchemaId(1), "par");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        let s4 = b.add_step("D", "p");
        b.and_split(s1, [s2, s3]);
        b.and_join([s2, s3], s4);
        let schema = b.build().unwrap();
        let mut rs = RuleSet::new();
        rs.add_rules(compile_schema(&schema).iter().map(|t| &t.rule));

        rs.add_event(EventKind::WorkflowStart);
        assert_eq!(fire_all(&mut rs, &DataEnv::new()), vec![s1]);
        rs.add_event(EventKind::StepDone(s1));
        let mut fired = fire_all(&mut rs, &DataEnv::new());
        fired.sort();
        assert_eq!(fired, vec![s2, s3]);
        rs.add_event(EventKind::StepDone(s2));
        assert!(fire_all(&mut rs, &DataEnv::new()).is_empty());
        rs.add_event(EventKind::StepDone(s3));
        assert_eq!(fire_all(&mut rs, &DataEnv::new()), vec![s4]);
    }

    #[test]
    fn xor_split_takes_exactly_one_branch_and_otherwise_negates() {
        let mut b = SchemaBuilder::new(SchemaId(1), "xor").inputs(1);
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        let s4 = b.add_step("D", "p");
        b.xor_split(
            s1,
            [
                (
                    s2,
                    Some(Expr::gt(Expr::item(ItemKey::input(1)), Expr::lit(10))),
                ),
                (s3, None),
            ],
        );
        b.xor_join([s2, s3], s4);
        let schema = b.build().unwrap();

        let run = |input: i64| {
            let mut rs = RuleSet::new();
            rs.add_rules(compile_schema(&schema).iter().map(|t| &t.rule));
            let mut env = DataEnv::new();
            env.set(ItemKey::input(1), Value::Int(input));
            rs.add_event(EventKind::WorkflowStart);
            assert_eq!(fire_all(&mut rs, &env), vec![s1]);
            rs.add_event(EventKind::StepDone(s1));
            let branch = fire_all(&mut rs, &env);
            assert_eq!(branch.len(), 1, "exactly one branch");
            let taken = branch[0];
            rs.add_event(EventKind::StepDone(taken));
            // XOR join fires on the single completed branch.
            assert_eq!(fire_all(&mut rs, &env), vec![s4]);
            taken
        };
        assert_eq!(run(42), s2);
        assert_eq!(run(5), s3);
    }

    #[test]
    fn cross_branch_data_adds_producer_event() {
        let mut b = SchemaBuilder::new(SchemaId(1), "data");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        let s4 = b.add_step("D", "p");
        b.and_split(s1, [s2, s3]);
        b.and_join([s2, s3], s4);
        b.read(s3, ItemKey::output(s2, 1)); // C consumes B's output
        let schema = b.build().unwrap();
        let template = compile_schema(&schema);
        let c_rule = template.iter().find(|t| t.step == s3).unwrap();
        assert!(c_rule.rule.triggers_on(EventKind::StepDone(s2)));

        // Behaviourally: C must not fire before B completes.
        let mut rs = RuleSet::new();
        rs.add_rules(template.iter().map(|t| &t.rule));
        rs.add_event(EventKind::WorkflowStart);
        fire_all(&mut rs, &DataEnv::new());
        rs.add_event(EventKind::StepDone(s1));
        let first = fire_all(&mut rs, &DataEnv::new());
        assert_eq!(first, vec![s2], "only B is ready until B.done");
        rs.add_event(EventKind::StepDone(s2));
        assert_eq!(fire_all(&mut rs, &DataEnv::new()), vec![s3]);
    }

    #[test]
    fn loop_repeats_until_condition_clears() {
        let mut b = SchemaBuilder::new(SchemaId(1), "loop").inputs(1);
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("Body", "p");
        let s3 = b.add_step("After", "p");
        b.seq(s1, s2);
        b.seq(s2, s3);
        let cont = Expr::lt(Expr::item(ItemKey::input(1)), Expr::lit(3));
        b.loop_back(s2, s2, cont);
        let schema = b.build().unwrap();
        let mut rs = RuleSet::new();
        rs.add_rules(compile_schema(&schema).iter().map(|t| &t.rule));

        let mut env = DataEnv::new();
        env.set(ItemKey::input(1), Value::Int(0));
        rs.add_event(EventKind::WorkflowStart);
        fire_all(&mut rs, &env);
        rs.add_event(EventKind::StepDone(s1));
        assert_eq!(fire_all(&mut rs, &env), vec![s2]);
        // Body completes with counter still low: loop rule fires body again
        // and the exit arc's negated guard keeps After quiet.
        for i in 1..3 {
            env.set(ItemKey::input(1), Value::Int(i));
            rs.add_event(EventKind::StepDone(s2));
            assert_eq!(fire_all(&mut rs, &env), vec![s2], "iteration {i}");
        }
        env.set(ItemKey::input(1), Value::Int(3));
        rs.add_event(EventKind::StepDone(s2));
        assert_eq!(fire_all(&mut rs, &env), vec![s3]);
    }

    #[test]
    fn template_covers_every_step() {
        let mut b = SchemaBuilder::new(SchemaId(1), "all").inputs(1);
        let ids: Vec<StepId> = (0..5).map(|i| b.add_step(format!("S{i}"), "p")).collect();
        for w in ids.windows(2) {
            b.seq(w[0], w[1]);
        }
        let schema = b.build().unwrap();
        let template = compile_schema(&schema);
        for def in schema.steps() {
            assert!(template.iter().any(|t| t.step == def.id));
        }
    }
}
