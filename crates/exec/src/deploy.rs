//! Deployment description shared by all three control architectures.
//!
//! A [`Deployment`] bundles everything static about a run: the workflow
//! schemas, the coordinated-execution requirements, the program registry,
//! the failure plan and the run seed. Engine builders consume it to lay out
//! nodes; the analysis crate derives the paper's parameters from it.

use crate::failure::FailurePlan;
use crate::program::ProgramRegistry;
use crew_model::{
    CoordinationSpec, InstanceId, MutualExclusion, RelativeOrder, RollbackDependency, SchemaId,
    SchemaStep, StepId, WorkflowSchema,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Links between concurrent instances that relative-ordering requirements
/// apply to (the WF1/WF2 pairing of Figure 2). The run harness declares
/// which instance pairs are "concurrent over the same resources".
#[derive(Debug, Clone, Default)]
pub struct RelOrderLinks {
    pairs: Vec<(InstanceId, InstanceId)>,
    /// `(instance, partner)` for both directions of every pair, sorted by
    /// instance (as its [`RelOrderLinks::key`], so the search compares one
    /// integer per probe). The sort is stable, so one instance's partners
    /// stay in pair order — exactly what a scan of `pairs` yields. Built by
    /// the first lookup after the last [`RelOrderLinks::link`], not by
    /// `link`: linking is set-up, lookups are the per-step path.
    index: OnceLock<Vec<(u64, InstanceId)>>,
}

impl RelOrderLinks {
    /// Create a new, empty value.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare `a` and `b` as a coordinated pair.
    pub fn link(&mut self, a: InstanceId, b: InstanceId) {
        self.pairs.push((a, b));
        self.index.take();
    }

    /// `i` as one integer, distinct for distinct instances.
    fn key(i: InstanceId) -> u64 {
        (i.schema.0 as u64) << 32 | i.serial as u64
    }

    /// All partners linked with `i` (in either position), in pair order.
    /// One lookup; the iterator borrows the index and clones for free, so
    /// a caller looping over requirements looks up once, outside the loop.
    pub fn partners_of(&self, i: InstanceId) -> impl Iterator<Item = InstanceId> + Clone + '_ {
        let index = self.index.get_or_init(|| {
            let mut index = Vec::with_capacity(2 * self.pairs.len());
            for &(a, b) in &self.pairs {
                index.push((Self::key(a), b));
                if a != b {
                    index.push((Self::key(b), a));
                }
            }
            index.sort_by_key(|&(key, _)| key);
            index
        });
        let key = Self::key(i);
        let start = index.partition_point(|&(k, _)| k < key);
        index[start..]
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, partner)| partner)
    }

    /// Iterate over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &(InstanceId, InstanceId)> {
        self.pairs.iter()
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The paper's `l`: abstract navigation instructions charged at the node
/// that schedules/navigates one step.
pub const NAV_LOAD: u64 = 100;

/// Everything static about a run.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// All workflow schemas, by id.
    pub schemas: BTreeMap<SchemaId, Arc<WorkflowSchema>>,
    /// Coordinated-execution requirements across the schemas.
    pub coordination: CoordinationSpec,
    /// Instance pairs the relative-order requirements bind.
    pub ro_links: RelOrderLinks,
    /// Program implementations.
    pub registry: ProgramRegistry,
    /// Failure/perturbation injection.
    pub plan: FailurePlan,
    /// Run seed (latency draws, load-balancing hashes, program draws).
    pub seed: u64,
}

impl Deployment {
    /// A deployment over `schemas` with built-in programs, no failures and
    /// defaults everywhere else.
    pub fn new(schemas: impl IntoIterator<Item = WorkflowSchema>) -> Self {
        Deployment {
            schemas: schemas.into_iter().map(|s| (s.id, Arc::new(s))).collect(),
            coordination: CoordinationSpec::default(),
            ro_links: RelOrderLinks::new(),
            registry: ProgramRegistry::with_builtins(),
            plan: FailurePlan::none(),
            seed: 0,
        }
    }

    /// Schema.
    pub fn schema(&self, id: SchemaId) -> Option<&Arc<WorkflowSchema>> {
        self.schemas.get(&id)
    }

    /// Schema lookup that panics on unknown ids — deployment wiring bugs.
    pub fn expect_schema(&self, id: SchemaId) -> &Arc<WorkflowSchema> {
        self.schemas
            .get(&id)
            .unwrap_or_else(|| panic!("deployment has no schema {id}"))
    }

    /// Relative-order requirement `id`.
    pub fn relative_order(&self, id: u32) -> Option<&RelativeOrder> {
        self.coordination
            .relative_orders
            .iter()
            .find(|r| r.id == id)
    }

    /// Mutual-exclusion requirement `id`.
    pub fn mutex(&self, id: u32) -> Option<&MutualExclusion> {
        self.coordination
            .mutual_exclusions
            .iter()
            .find(|m| m.id == id)
    }

    /// The mutual exclusions `step` is a member of, in declaration order.
    pub fn mutexes_of(&self, step: SchemaStep) -> impl Iterator<Item = &MutualExclusion> + '_ {
        let mutexes = &self.coordination.mutual_exclusions;
        mutexes.iter().filter(move |m| m.members.contains(&step))
    }

    /// Whether any mutual exclusion or relative order names `step`.
    pub fn is_coordinated(&self, step: SchemaStep) -> bool {
        let orders = &self.coordination.relative_orders;
        self.mutexes_of(step).next().is_some()
            || orders
                .iter()
                .flat_map(|r| &r.pairs)
                .any(|&(x, y)| x == step || y == step)
    }

    /// The rollbacks that rolling `instance` back to `origin`, which
    /// invalidated `invalidated`, forces on its linked partners: for each
    /// rollback dependency whose source it reaches, every partner of the
    /// dependent schema and that partner's origin, in declaration then
    /// link order. One level: the shells do not ask again for a rollback
    /// this caused.
    pub fn rollback_dependents<'a>(
        &'a self,
        instance: InstanceId,
        origin: StepId,
        invalidated: &'a BTreeSet<StepId>,
    ) -> impl Iterator<Item = (InstanceId, StepId)> + 'a {
        let reached = move |rd: &&RollbackDependency| {
            rd.source.schema == instance.schema
                && (rd.source.step == origin || invalidated.contains(&rd.source.step))
        };
        let deps = &self.coordination.rollback_dependencies;
        deps.iter().filter(reached).flat_map(move |rd| {
            self.ro_links
                .partners_of(instance)
                .filter(move |p| p.schema == rd.dependent_schema)
                .map(move |p| (p, rd.dependent_origin))
        })
    }

    /// Highest agent id referenced by any step's eligibility list, plus
    /// one — the size of the agent pool the deployment needs.
    pub fn agent_pool_size(&self) -> u32 {
        self.schemas
            .values()
            .flat_map(|s| s.steps())
            .flat_map(|d| &d.eligible_agents)
            .map(|a| a.0 + 1)
            .max()
            .unwrap_or(0)
    }

    /// Panic unless the deployment can run on a pool of `agents`. Every
    /// driver calls this before laying out nodes, so a wiring bug stops
    /// the run before it starts instead of stalling or panicking midway:
    ///
    /// - every step's eligible agents fit the pool. Agents occupy node ids
    ///   `0..agents`, so an id past the pool would address whichever node
    ///   comes next (an engine, the front end);
    /// - every step but a nested workflow's placeholder names a program the
    ///   registry holds. No agent could run it, under any architecture;
    /// - every mutex member, relative-order pair step and rollback
    ///   dependency source and origin names a step of a deployed schema.
    ///   The engines would silently drop such a requirement, and the
    ///   distributed agents can panic mid-run looking the step up.
    pub fn validate(&self, agents: u32) {
        for schema in self.schemas.values() {
            for def in schema.steps() {
                assert!(
                    schema.nested.contains_key(&def.id)
                        || self.registry.get(&def.program).is_some(),
                    "step {}.{} names program {:?}, which the registry does not hold",
                    schema.id,
                    def.id,
                    def.program,
                );
                for a in &def.eligible_agents {
                    assert!(
                        a.0 < agents,
                        "step {} of {} names agent {a} outside the pool of {agents}",
                        def.id,
                        schema.id,
                    );
                }
            }
        }
        let c = &self.coordination;
        let mut named: Vec<(&str, u32, SchemaStep)> = Vec::new();
        for m in &c.mutual_exclusions {
            named.extend(m.members.iter().map(|&s| ("mutex", m.id, s)));
        }
        for r in &c.relative_orders {
            let steps = r.pairs.iter().flat_map(|&(a, b)| [a, b]);
            named.extend(steps.map(|s| ("relative order", r.id, s)));
        }
        for d in &c.rollback_dependencies {
            let origin = SchemaStep::new(d.dependent_schema, d.dependent_origin);
            named.extend([d.source, origin].map(|s| ("rollback dependency", d.id, s)));
        }
        for (kind, id, s) in named {
            assert!(
                self.schema(s.schema)
                    .is_some_and(|w| w.step(s.step).is_some()),
                "{kind} {id} names step {s}, which no deployed schema defines"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{AgentId, SchemaBuilder};
    use proptest::prelude::*;
    use std::panic::AssertUnwindSafe;

    fn schema(id: u32, agents: &[u32]) -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(id), format!("wf{id}"));
        let s1 = b.add_step("A", "passthrough");
        let s2 = b.add_step("B", "passthrough");
        b.seq(s1, s2);
        b.configure(s1, |d| {
            d.eligible_agents = agents.iter().map(|&a| AgentId(a)).collect()
        });
        b.configure(s2, |d| {
            d.eligible_agents = agents.iter().map(|&a| AgentId(a)).collect()
        });
        b.build().unwrap()
    }

    #[test]
    fn pool_size_covers_all_agents() {
        let d = Deployment::new([schema(1, &[0, 3]), schema(2, &[1])]);
        assert_eq!(d.agent_pool_size(), 4);
        assert!(d.schema(SchemaId(1)).is_some());
        assert!(d.schema(SchemaId(9)).is_none());
    }

    /// Every kind of coordination requirement is checked against the
    /// deployed schemas, with one message.
    #[test]
    fn validate_refuses_unknown_coordination_steps() {
        let ss = |schema, step| SchemaStep::new(SchemaId(schema), StepId(step));
        let refusal = |coordination: CoordinationSpec| {
            let mut d = Deployment::new([schema(1, &[0]), schema(2, &[0])]);
            d.coordination = coordination;
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| d.validate(1)));
            err.err().map(|e| *e.downcast::<String>().unwrap())
        };
        let mutex = MutualExclusion {
            id: 0,
            resource: "dock".into(),
            members: vec![ss(1, 1), ss(2, 2)],
        };
        let order = RelativeOrder {
            id: 1,
            conflict: "parts".into(),
            pairs: vec![(ss(1, 1), ss(2, 1)), (ss(1, 2), ss(2, 3))],
        };
        let dependency = RollbackDependency {
            id: 2,
            source: ss(1, 2),
            dependent_schema: SchemaId(7),
            dependent_origin: StepId(1),
        };
        let valid = CoordinationSpec {
            mutual_exclusions: vec![mutex.clone()],
            ..CoordinationSpec::default()
        };
        assert_eq!(refusal(valid), None);
        let cases = [
            (
                CoordinationSpec {
                    mutual_exclusions: vec![mutex],
                    relative_orders: vec![order],
                    ..CoordinationSpec::default()
                },
                "relative order 1 names step WF2.S3",
            ),
            (
                CoordinationSpec {
                    rollback_dependencies: vec![dependency],
                    ..CoordinationSpec::default()
                },
                "rollback dependency 2 names step WF7.S1",
            ),
        ];
        for (coordination, expected) in cases {
            let msg = refusal(coordination).expect(expected);
            assert_eq!(msg, format!("{expected}, which no deployed schema defines"));
        }
    }

    /// A step naming a program the registry does not hold is refused, with
    /// one message; a nested step's placeholder names no program and passes.
    #[test]
    fn validate_refuses_unregistered_programs() {
        let refusal = |second: fn(&mut SchemaBuilder) -> StepId| {
            let mut b = SchemaBuilder::new(SchemaId(1), "wf1");
            let s1 = b.add_step("A", "passthrough");
            let s2 = second(&mut b);
            b.seq(s1, s2);
            for s in [s1, s2] {
                b.configure(s, |d| d.eligible_agents = vec![AgentId(0)]);
            }
            let d = Deployment::new([b.build().unwrap()]);
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| d.validate(1)));
            err.err().map(|e| *e.downcast::<String>().unwrap())
        };
        assert_eq!(
            refusal(|b| b.add_step("B", "no-such-program")).as_deref(),
            Some("step WF1.S2 names program \"no-such-program\", which the registry does not hold")
        );
        assert_eq!(refusal(|b| b.add_step("B", "always-fail")), None);
        assert_eq!(refusal(|b| b.add_nested("Call", SchemaId(2))), None);
    }

    /// The requirement lookups both shells share: by id, by member step,
    /// "named by any requirement", and the one-level rollback dependents.
    #[test]
    fn coordination_lookups() {
        let ss = |schema, step| SchemaStep::new(SchemaId(schema), StepId(step));
        let mut d = Deployment::new([schema(1, &[0]), schema(2, &[0])]);
        let mutex = |id, members| MutualExclusion {
            id,
            resource: "dock".into(),
            members,
        };
        let dependency = |id, source, origin| RollbackDependency {
            id,
            source,
            dependent_schema: SchemaId(2),
            dependent_origin: StepId(origin),
        };
        d.coordination = CoordinationSpec {
            mutual_exclusions: vec![mutex(3, vec![ss(1, 2)]), mutex(5, vec![ss(1, 2), ss(2, 2)])],
            relative_orders: vec![RelativeOrder {
                id: 4,
                conflict: "parts".into(),
                pairs: vec![(ss(1, 1), ss(2, 2))],
            }],
            rollback_dependencies: vec![dependency(6, ss(1, 2), 1), dependency(7, ss(1, 1), 2)],
        };
        let (wf1, wf2, other) = (
            InstanceId::new(SchemaId(1), 1),
            InstanceId::new(SchemaId(2), 2),
            InstanceId::new(SchemaId(2), 3),
        );
        d.ro_links.link(wf1, wf2);
        d.ro_links.link(other, wf1);

        assert_eq!(d.relative_order(4).map(|r| r.id), Some(4));
        assert!(d.relative_order(3).is_none());
        assert_eq!(d.mutex(5).map(|m| m.id), Some(5));
        assert!(d.mutex(4).is_none());
        let ids = |s| d.mutexes_of(s).map(|m| m.id).collect::<Vec<_>>();
        assert_eq!(ids(ss(1, 2)), vec![3, 5]);
        assert_eq!(ids(ss(2, 2)), vec![5]);
        assert!(ids(ss(1, 1)).is_empty());
        // WF1.S1 is named by the order, WF1.S2 by the mutexes, WF2.S2 by
        // both, WF2.S1 by nothing.
        let named = [(1, 1, true), (1, 2, true), (2, 1, false), (2, 2, true)];
        for (schema, step, coordinated) in named {
            let step = ss(schema, step);
            assert_eq!(d.is_coordinated(step), coordinated, "{step}");
        }

        let dependents = |origin, invalidated: &[u32]| {
            let invalidated = invalidated.iter().map(|&s| StepId(s)).collect();
            d.rollback_dependents(wf1, StepId(origin), &invalidated)
                .map(|(p, o)| (p.serial, o.0))
                .collect::<Vec<_>>()
        };
        // Rolling back to S1 reaches dependency 7 at the origin and 6
        // through the invalidated S2; every WF2 partner follows, in link
        // order.
        assert_eq!(dependents(1, &[2]), vec![(2, 1), (3, 1), (2, 2), (3, 2)]);
        assert_eq!(dependents(2, &[]), vec![(2, 1), (3, 1)]);
        assert!(d
            .rollback_dependents(wf2, StepId(1), &BTreeSet::new())
            .next()
            .is_none());
    }

    /// The scan `partners_of` was before it had an index.
    fn scan(pairs: &[(InstanceId, InstanceId)], i: InstanceId) -> Vec<InstanceId> {
        pairs
            .iter()
            .filter_map(|&(a, b)| {
                if a == i {
                    Some(b)
                } else if b == i {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    fn partners(links: &RelOrderLinks, i: InstanceId) -> Vec<InstanceId> {
        links.partners_of(i).collect()
    }

    #[test]
    fn ro_links_partner_lookup() {
        let mut links = RelOrderLinks::new();
        let a = InstanceId::new(SchemaId(1), 1);
        let b = InstanceId::new(SchemaId(2), 2);
        let c = InstanceId::new(SchemaId(2), 3);
        links.link(a, b);
        links.link(c, a);
        assert_eq!(partners(&links, a), vec![b, c]);
        assert_eq!(partners(&links, b), vec![a]);
        assert!(partners(&links, InstanceId::new(SchemaId(9), 9)).is_empty());
        assert_eq!(links.iter().count(), 2);
        assert!(!links.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The index answers exactly as the scan did, in order — over
        /// duplicates and self-links, after a `link` that follows a lookup,
        /// and from clones taken before and after the first lookup.
        #[test]
        fn partner_index_equals_the_scan(
            ids in proptest::collection::vec((1u32..4, 0u32..6, 1u32..4, 0u32..6), 0..24),
            late in 0usize..24,
        ) {
            let pairs: Vec<_> = ids
                .iter()
                .map(|&(sa, a, sb, b)| {
                    (InstanceId::new(SchemaId(sa), a), InstanceId::new(SchemaId(sb), b))
                })
                .collect();
            // Schemas 1..4 as linked, plus schema 4, which no pair mentions.
            let everyone: Vec<_> = (1u32..5)
                .flat_map(|s| (0u32..6).map(move |n| InstanceId::new(SchemaId(s), n)))
                .collect();
            let (early, rest) = pairs.split_at(late.min(pairs.len()));

            let mut links = RelOrderLinks::new();
            for &(a, b) in early {
                links.link(a, b);
            }
            let never_looked_up = links.clone();
            for &i in &everyone {
                prop_assert_eq!(partners(&links, i), scan(early, i));
            }
            let looked_up = links.clone();
            for &(a, b) in rest {
                links.link(a, b);
            }
            for &i in &everyone {
                prop_assert_eq!(partners(&links, i), scan(&pairs, i), "stale after a late link");
                prop_assert_eq!(partners(&never_looked_up, i), scan(early, i));
                prop_assert_eq!(partners(&looked_up, i), scan(early, i));
            }
        }
    }
}
