//! Deployment assembly for the §6 experiments.
//!
//! Turns a point of the Table 3 parameter space into a runnable
//! [`Deployment`]: `c` generated schemas of `s` steps, eligibility lists of
//! `a` agents over a pool of `z`, failure probabilities, and — when the
//! point asks for them — coordination requirements covering `me`/`ro`/`rd`
//! steps per schema.

use crate::gen::{generate, GenConfig};
use crew_exec::{Deployment, FailurePlan};
use crew_model::{
    AgentId, CoordinationSpec, InstanceId, MutualExclusion, RelativeOrder, RollbackDependency,
    SchemaId, SchemaStep, StepId, WorkflowSchema,
};

/// Experiment-facing parameter point (integer view of the Table 3 space).
#[derive(Debug, Clone, Copy)]
pub struct SetupParams {
    /// Steps per workflow (`s`).
    pub s: u32,
    /// Number of schemas (`c`).
    pub c: u32,
    /// Agents (`z`).
    pub z: u32,
    /// Eligible agents per step (`a`).
    pub a: u32,
    /// Steps per schema under mutual exclusion (`me`).
    pub me: u32,
    /// Steps per schema under relative ordering (`ro`).
    pub ro: u32,
    /// Steps per schema with rollback dependencies (`rd`).
    pub rd: u32,
    /// Rollback depth on step failure (the paper's `r`).
    pub r: u32,
    /// Failure probabilities.
    pub pf: f64,
    /// Probability of workflow input change (`pi`).
    pub pi: f64,
    /// Probability of workflow abort (`pa`).
    pub pa: f64,
    /// Probability of step re-execution (`pr`).
    pub pr: f64,
    /// Run seed.
    pub seed: u64,
}

impl Default for SetupParams {
    fn default() -> Self {
        // The paper's mean point (Table 3): s=15, c=20, z=50, a=2,
        // me=ro=2, rd=1, pf=0.1, pi=pa=0.025, pr=0.25.
        SetupParams {
            s: 15,
            c: 20,
            z: 50,
            a: 2,
            me: 2,
            ro: 2,
            rd: 1,
            r: 5,
            pf: 0.1,
            pi: 0.025,
            pa: 0.025,
            pr: 0.25,
            seed: 42,
        }
    }
}

impl SetupParams {
    /// A light point for unit/integration tests.
    pub fn small() -> Self {
        SetupParams {
            s: 6,
            c: 2,
            z: 6,
            a: 2,
            me: 0,
            ro: 0,
            rd: 0,
            r: 0,
            pf: 0.0,
            pi: 0.0,
            pa: 0.0,
            pr: 0.0,
            seed: 7,
        }
    }
}

/// Assign `a` eligible agents per step over a pool of `z` (round-robin
/// with a per-step hash base, giving even coverage).
fn assign_agents(schema: &mut WorkflowSchema, z: u32, a: u32, salt: u64) {
    let step_ids: Vec<StepId> = schema.steps().map(|d| d.id).collect();
    for step in step_ids {
        let base = crew_exec::hash::combine(salt, &[step.0 as u64]) % z as u64;
        let eligible: Vec<AgentId> = (0..a.min(z))
            .map(|i| AgentId(((base + i as u64) % z as u64) as u32))
            .collect();
        schema.set_eligible_agents(step, eligible);
    }
}

/// Build the deployment for a parameter point. Sequential schemas (the
/// generator's split probabilities are configurable through `structured`)
/// keep the measured message counts directly comparable to the closed
/// forms, which assume `s` executed steps per instance.
pub fn build_deployment(p: &SetupParams, structured: bool) -> Deployment {
    let (parallel_prob, xor_prob) = if structured { (0.25, 0.25) } else { (0.0, 0.0) };
    let schemas: Vec<WorkflowSchema> = (1..=p.c)
        .map(|i| {
            let cfg = GenConfig {
                steps: p.s,
                parallel_prob,
                xor_prob,
                compensatable_frac: 0.6,
                comp_set_steps: 0,
                rollback_depth: p.r,
                policy_frac: 0.0,
                seed: p.seed,
            };
            let mut s = generate(SchemaId(i), &cfg);
            assign_agents(&mut s, p.z, p.a, p.seed ^ i as u64);
            s
        })
        .collect();

    let mut deployment = Deployment::new(schemas);
    deployment.seed = p.seed;
    deployment.plan = FailurePlan::probabilistic(p.seed, p.pf, p.pi, p.pa, p.pr);
    deployment.coordination = coordination_for(p, &deployment);
    deployment
}

/// Coordination requirements covering `me`/`ro`/`rd` steps of each schema,
/// pairing consecutive schemas (1↔2, 3↔4, …).
fn coordination_for(p: &SetupParams, deployment: &Deployment) -> CoordinationSpec {
    let mut spec = CoordinationSpec::default();
    if p.me == 0 && p.ro == 0 && p.rd == 0 {
        return spec;
    }
    let mut req = 0u32;
    let ids: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    for pair in ids.chunks(2) {
        let [sa, sb] = pair else { continue };
        let a_steps: Vec<StepId> = deployment.schemas[sa].topo_order().to_vec();
        let b_steps: Vec<StepId> = deployment.schemas[sb].topo_order().to_vec();
        // Mutual exclusion: me steps of each schema share resources.
        for k in 0..p.me.min(a_steps.len() as u32).min(b_steps.len() as u32) {
            spec.mutual_exclusions.push(MutualExclusion {
                id: req,
                resource: format!("res-{req}"),
                members: vec![
                    SchemaStep::new(*sa, a_steps[k as usize]),
                    SchemaStep::new(*sb, b_steps[k as usize]),
                ],
            });
            req += 1;
        }
        // Relative ordering: ro consecutive conflicting pairs.
        let ro_n = p.ro.min(a_steps.len() as u32).min(b_steps.len() as u32);
        if ro_n >= 2 {
            spec.relative_orders.push(RelativeOrder {
                id: req,
                conflict: format!("conflict-{req}"),
                pairs: (0..ro_n)
                    .map(|k| {
                        (
                            SchemaStep::new(*sa, a_steps[k as usize]),
                            SchemaStep::new(*sb, b_steps[k as usize]),
                        )
                    })
                    .collect(),
            });
            req += 1;
        }
        // Rollback dependencies.
        for k in 0..p.rd.min(a_steps.len() as u32) {
            spec.rollback_dependencies.push(RollbackDependency {
                id: req,
                source: SchemaStep::new(*sa, a_steps[k as usize]),
                dependent_schema: *sb,
                dependent_origin: b_steps[0],
            });
            req += 1;
        }
    }
    spec
}

/// Link consecutive instances of paired schemas for the relative-order
/// requirements (instance k of schema 2j−1 with instance k of schema 2j).
pub fn link_instances(deployment: &mut Deployment, instances: &[InstanceId]) {
    let mut by_schema: std::collections::BTreeMap<SchemaId, Vec<InstanceId>> =
        std::collections::BTreeMap::new();
    for &i in instances {
        by_schema.entry(i.schema).or_default().push(i);
    }
    let ids: Vec<SchemaId> = by_schema.keys().copied().collect();
    for pair in ids.chunks(2) {
        let [sa, sb] = pair else { continue };
        let a = &by_schema[sa];
        let b = &by_schema[sb];
        for (x, y) in a.iter().zip(b.iter()) {
            deployment.ro_links.link(*x, *y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_c_schemas_with_s_steps() {
        let p = SetupParams {
            s: 8,
            c: 4,
            z: 10,
            a: 2,
            ..SetupParams::small()
        };
        let d = build_deployment(&p, false);
        assert_eq!(d.schemas.len(), 4);
        for s in d.schemas.values() {
            assert_eq!(s.step_count(), 8);
            for def in s.steps() {
                assert_eq!(def.eligible_agents.len(), 2);
                for a in &def.eligible_agents {
                    assert!(a.0 < 10);
                }
            }
        }
        assert!(d.agent_pool_size() <= 10);
    }

    #[test]
    fn coordination_injected_per_pair() {
        let p = SetupParams {
            me: 2,
            ro: 2,
            rd: 1,
            c: 4,
            ..SetupParams::default()
        };
        let d = build_deployment(&p, false);
        // 2 schema pairs × (2 mutex + 1 relative order + 1 rbdep).
        assert_eq!(d.coordination.mutual_exclusions.len(), 4);
        assert_eq!(d.coordination.relative_orders.len(), 2);
        assert_eq!(d.coordination.rollback_dependencies.len(), 2);
    }

    #[test]
    fn no_coordination_when_zeroed() {
        let d = build_deployment(&SetupParams::small(), false);
        assert!(d.coordination.is_empty());
    }

    #[test]
    fn linking_pairs_instances() {
        let p = SetupParams {
            c: 2,
            ..SetupParams::small()
        };
        let mut d = build_deployment(&p, false);
        let a = InstanceId::new(SchemaId(1), 1);
        let b = InstanceId::new(SchemaId(2), 2);
        link_instances(&mut d, &[a, b]);
        assert_eq!(d.ro_links.partners_of(a).collect::<Vec<_>>(), vec![b]);
    }
}
