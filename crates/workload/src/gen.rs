//! Random workflow schema generation over the Table 3 parameter ranges.
//!
//! The generator emits structurally valid schemas mixing the paper's
//! control structures — sequences, AND-splits/joins, XOR-splits/joins —
//! with compensation programs, compensation dependent sets and rollback
//! specs sprinkled per configuration. Generation is seeded and
//! deterministic.

use crew_exec::hash;
use crew_model::{CmpOp, Expr, ItemKey, SchemaBuilder, SchemaId, StepId, StepKind, WorkflowSchema};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Target step count (the paper's `s`; the generator lands exactly on
    /// it).
    pub steps: u32,
    /// Probability that a block is parallel (AND) rather than sequential.
    pub parallel_prob: f64,
    /// Probability that a block is an if-then-else (XOR).
    pub xor_prob: f64,
    /// Fraction of steps given a compensation program.
    pub compensatable_frac: f64,
    /// Put roughly this many steps into compensation dependent sets.
    pub comp_set_steps: u32,
    /// Rollback depth (the paper's `r`): on a step failure, roll back this
    /// many blocks along the backbone (0 = retry in place, no specs).
    pub rollback_depth: u32,
    /// Fraction of steps given a random `retry(1..=4)` failure policy.
    pub policy_frac: f64,
    /// Seed for the structural draws.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            steps: 15,
            parallel_prob: 0.25,
            xor_prob: 0.25,
            compensatable_frac: 0.6,
            comp_set_steps: 3,
            rollback_depth: 0,
            policy_frac: 0.0,
            seed: 0,
        }
    }
}

/// Generate one random schema with id `id`.
///
/// Layout: a linear backbone of "blocks"; each block is a single step, an
/// AND-split diamond (2 branches, 1 step each, AND-join), or an XOR
/// diamond conditioned on the workflow's first input. Blocks are chained
/// sequentially, so the step count is controlled exactly.
pub fn generate(id: SchemaId, cfg: &GenConfig) -> WorkflowSchema {
    let mut b = SchemaBuilder::new(id, format!("gen-{}", id.0)).inputs(2);
    let draw = |salt: u64, p: f64| hash::draw(cfg.seed, &[id.0 as u64, salt], p);

    let mut remaining = cfg.steps.max(1);
    let mut tail: Option<StepId> = None;
    let mut block = 0u64;
    let mut all_steps: Vec<StepId> = Vec::new();
    // XOR branch steps: a rollback that re-decides the split abandons the
    // branch not retaken, so these must stay compensatable whenever
    // rollback specs are emitted (crew-lint's compensation-soundness pass).
    let mut xor_branch_steps: Vec<StepId> = Vec::new();
    // Backbone tails: the sequential spine every later step descends from
    // (rollback origins are drawn from here so they are always ancestors).
    let mut backbone: Vec<StepId> = Vec::new();
    // (step, block index) for rollback spec assignment.
    let mut block_of: Vec<(StepId, usize)> = Vec::new();

    while remaining > 0 {
        block += 1;
        // A diamond consumes 4 steps (split head, two branch steps, join);
        // only place one when it fits and the draw says so.
        let want_diamond = remaining >= 4
            && (draw(block * 2, cfg.parallel_prob) || draw(block * 2 + 1, cfg.xor_prob));
        if want_diamond {
            let is_xor = draw(block * 2 + 1, cfg.xor_prob) && !draw(block * 2, cfg.parallel_prob);
            let head = b.add_step(format!("B{block}h"), "stamp");
            let left = b.add_step(format!("B{block}l"), "stamp");
            let right = b.add_step(format!("B{block}r"), "stamp");
            let join = b.add_step(format!("B{block}j"), "stamp");
            if let Some(t) = tail {
                b.seq(t, head);
            }
            if is_xor {
                let cond = Expr::cmp(CmpOp::Gt, Expr::item(ItemKey::input(1)), Expr::lit(10));
                b.xor_split(head, [(left, Some(cond)), (right, None)]);
                b.xor_join([left, right], join);
                xor_branch_steps.extend([left, right]);
            } else {
                b.and_split(head, [left, right]);
                b.and_join([left, right], join);
            }
            all_steps.extend([head, left, right, join]);
            let blk = backbone.len();
            for s in [head, left, right, join] {
                block_of.push((s, blk));
            }
            backbone.push(join);
            tail = Some(join);
            remaining -= 4;
        } else {
            let s = b.add_step(format!("B{block}"), "stamp");
            if let Some(t) = tail {
                b.seq(t, s);
            }
            all_steps.push(s);
            block_of.push((s, backbone.len()));
            backbone.push(s);
            tail = Some(s);
            remaining -= 1;
        }
    }

    // Compensation programs + kinds.
    for (i, &s) in all_steps.iter().enumerate() {
        let comp = hash::draw(
            cfg.seed,
            &[id.0 as u64, 0xC0, i as u64],
            cfg.compensatable_frac,
        );
        b.configure(s, |d| {
            if comp {
                d.compensation_program = Some("passthrough".into());
            }
            d.kind = if i % 3 == 0 {
                StepKind::Query
            } else {
                StepKind::Update
            };
            d.cost = 50 + (i as u64 % 5) * 25;
        });
    }

    // Rollback specs: a failure at any step past the first block rolls
    // back `rollback_depth` blocks along the backbone (the paper's `r`).
    if cfg.rollback_depth > 0 {
        // Branch switches on re-decided XOR splits compensate the abandoned
        // branch, so its update steps need a real undo regardless of the
        // compensatable_frac draw.
        for &s in &xor_branch_steps {
            b.configure(s, |d| {
                if d.kind == StepKind::Update && d.compensation_program.is_none() {
                    d.compensation_program = Some("passthrough".into());
                }
            });
        }
        let start = all_steps[0];
        for &(step, blk) in &block_of {
            if step == start {
                continue;
            }
            let origin = if blk >= cfg.rollback_depth as usize {
                backbone[blk - cfg.rollback_depth as usize]
            } else {
                start
            };
            if origin != step {
                b.on_failure_rollback_to(step, origin);
            }
        }
    }

    // One compensation dependent set over a prefix of compensatable steps.
    if cfg.comp_set_steps >= 2 {
        let members: Vec<StepId> = all_steps
            .iter()
            .copied()
            .take(cfg.comp_set_steps as usize)
            .collect();
        if members.len() >= 2 {
            // Members must be compensatable for the chain to do real work.
            for &m in &members {
                b.configure(m, |d| {
                    if d.compensation_program.is_none() {
                        d.compensation_program = Some("passthrough".into());
                    }
                });
            }
            b.compensation_set(members);
        }
    }

    // Failure policies: sprinkle random `retry(1..=4)` annotations.
    if cfg.policy_frac > 0.0 {
        for (i, &s) in all_steps.iter().enumerate() {
            let step_draw =
                |salt: u64, p: f64| hash::draw(cfg.seed, &[id.0 as u64, salt, i as u64], p);
            if !step_draw(0xF0, cfg.policy_frac) || !step_draw(0xF1, 0.75) {
                continue;
            }
            let max = 1 + (hash::combine(cfg.seed, &[id.0 as u64, 0xA1, i as u64]) % 4) as u32;
            b.configure(s, |d| d.retry = Some(max));
        }
    }

    b.build().expect("generated schemas are structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_exact_step_counts() {
        for steps in [5u32, 10, 15, 25] {
            let cfg = GenConfig {
                steps,
                ..GenConfig::default()
            };
            let s = generate(SchemaId(1), &cfg);
            assert_eq!(s.step_count() as u32, steps, "steps={steps}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = GenConfig::default();
        let a = generate(SchemaId(3), &cfg);
        let b = generate(SchemaId(3), &cfg);
        assert_eq!(a, b);
        let c = generate(SchemaId(3), &GenConfig { seed: 99, ..cfg });
        // Different seed ⇒ (almost surely) different structure.
        assert!(a != c || a.step_count() == c.step_count());
    }

    #[test]
    fn contains_mixed_structures_at_high_probs() {
        let cfg = GenConfig {
            steps: 25,
            parallel_prob: 0.9,
            xor_prob: 0.9,
            ..GenConfig::default()
        };
        let s = generate(SchemaId(2), &cfg);
        let has_split = s.steps().any(|d| s.forward_outgoing(d.id).count() > 1);
        assert!(has_split, "expected at least one split");
    }

    #[test]
    fn pure_sequential_when_probs_zero() {
        let cfg = GenConfig {
            steps: 10,
            parallel_prob: 0.0,
            xor_prob: 0.0,
            ..GenConfig::default()
        };
        let s = generate(SchemaId(4), &cfg);
        for d in s.steps() {
            assert!(s.forward_outgoing(d.id).count() <= 1);
        }
        assert_eq!(s.terminal_steps().len(), 1);
    }

    #[test]
    fn policies_are_valid_by_construction() {
        for seed in 0..20u64 {
            let cfg = GenConfig {
                steps: 20,
                policy_frac: 1.0,
                compensatable_frac: 0.3,
                seed,
                ..GenConfig::default()
            };
            let s = generate(SchemaId(6), &cfg);
            let with_policy = s.steps().filter(|d| d.retry.is_some()).count();
            assert!(with_policy > 0, "seed={seed}: no policies emitted");
            for max in s.steps().filter_map(|d| d.retry) {
                assert!((1..=4).contains(&max), "retry budget stays small");
            }
        }
    }

    #[test]
    fn compensation_set_members_are_compensatable() {
        let s = generate(SchemaId(5), &GenConfig::default());
        for set in &s.compensation_sets {
            for &m in &set.members {
                assert!(s.expect_step(m).is_compensatable());
            }
        }
    }
}
