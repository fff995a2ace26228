//! Coordinated-execution requirements across concurrent workflows.
//!
//! The paper's high-level building blocks (§3, \[KR98\]) express
//! *mutual exclusion* and *relative ordering* of steps across workflows and
//! *rollback dependency* across workflow instances. These are schema-level
//! declarations; the run-time systems enforce them by exchanging events
//! between the affected instances (Figure 4): `AddRule`/`AddEvent`
//! messages carry claims, grants and releases, and the paper's
//! `AddPrecondition` is the guard set each instance's coordination gate
//! is wired with when it is created.

use crate::ids::{SchemaId, StepId};

/// Names a step of a particular schema (coordination requirements span
/// schemas, so a bare `StepId` is not enough).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemaStep {
    /// Owning workflow schema.
    pub schema: SchemaId,
    /// The step this entry concerns.
    pub step: StepId,
}

impl SchemaStep {
    /// Create a new, empty value.
    pub fn new(schema: SchemaId, step: StepId) -> Self {
        SchemaStep { schema, step }
    }
}

impl std::fmt::Display for SchemaStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.schema, self.step)
    }
}

/// Steps that must never execute concurrently across instances. While one
/// member step of any instance is running, member steps of other instances
/// wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutualExclusion {
    /// Stable identifier within its collection.
    pub id: u32,
    /// A label for the shared resource ("paint-booth").
    pub resource: String,
    /// Members.
    pub members: Vec<SchemaStep>,
}

/// Relative ordering (Figure 2): once a pair of conflicting steps from two
/// instances executes in some order, every later conflicting pair must
/// preserve that order — the instance that went first is the *leading*
/// workflow, the other the *lagging* one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelativeOrder {
    /// Stable identifier within its collection.
    pub id: u32,
    /// A label for the conflict ("parts-bin").
    pub conflict: String,
    /// Ordered list of conflicting step pairs `(x_k, y_k)`. If `x_1` of
    /// instance `I` executes before `y_1` of instance `J`, then every
    /// subsequent `x_k` of `I` must execute before `y_k` of `J`. In the
    /// paper's Figure 2(a), pairs are `(S12, S23)` and `(S14, S25)`.
    pub pairs: Vec<(SchemaStep, SchemaStep)>,
}

impl RelativeOrder {
    /// Number of steps of each participant that are ordered after the first
    /// pair — the messages the protocol must deliver per lagging instance.
    pub fn follow_on_pairs(&self) -> usize {
        self.pairs.len().saturating_sub(1)
    }
}

/// Rollback dependency across instances: if the `source` workflow instance
/// rolls back past `source_step`, any concurrent `dependent` instance that
/// consumed its effects must roll back to `dependent_origin`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackDependency {
    /// Stable identifier within its collection.
    pub id: u32,
    /// Source.
    pub source: SchemaStep,
    /// Dependent schema.
    pub dependent_schema: SchemaId,
    /// Dependent origin.
    pub dependent_origin: StepId,
}

/// The full set of coordination requirements active in a deployment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoordinationSpec {
    /// Mutual exclusions.
    pub mutual_exclusions: Vec<MutualExclusion>,
    /// Relative orders.
    pub relative_orders: Vec<RelativeOrder>,
    /// Rollback dependencies.
    pub rollback_dependencies: Vec<RollbackDependency>,
}

impl CoordinationSpec {
    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.mutual_exclusions.is_empty()
            && self.relative_orders.is_empty()
            && self.rollback_dependencies.is_empty()
    }

    /// Count of coordination-constrained steps per schema — the paper's
    /// `me`, `ro` and `rd` parameters for a schema.
    pub fn constrained_counts(&self, schema: SchemaId) -> (usize, usize, usize) {
        let me = self
            .mutual_exclusions
            .iter()
            .flat_map(|m| &m.members)
            .filter(|s| s.schema == schema)
            .count();
        let ro = self
            .relative_orders
            .iter()
            .flat_map(|r| &r.pairs)
            .flat_map(|(a, b)| [a, b])
            .filter(|s| s.schema == schema)
            .count();
        let rd = self
            .rollback_dependencies
            .iter()
            .filter(|r| r.source.schema == schema || r.dependent_schema == schema)
            .count();
        (me, ro, rd)
    }

    /// All schemas any requirement mentions.
    pub fn schemas(&self) -> Vec<SchemaId> {
        let mut out: Vec<SchemaId> = self
            .mutual_exclusions
            .iter()
            .flat_map(|m| m.members.iter().map(|s| s.schema))
            .chain(
                self.relative_orders
                    .iter()
                    .flat_map(|r| r.pairs.iter().flat_map(|(a, b)| [a.schema, b.schema])),
            )
            .chain(
                self.rollback_dependencies
                    .iter()
                    .flat_map(|r| [r.source.schema, r.dependent_schema]),
            )
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoordinationSpec {
        // Figure 2(a): WF1 steps S12,S14 conflict with WF2 steps S23,S25.
        CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "paint-booth".into(),
                members: vec![
                    SchemaStep::new(SchemaId(1), StepId(3)),
                    SchemaStep::new(SchemaId(2), StepId(4)),
                ],
            }],
            relative_orders: vec![RelativeOrder {
                id: 0,
                conflict: "parts".into(),
                pairs: vec![
                    (
                        SchemaStep::new(SchemaId(1), StepId(2)),
                        SchemaStep::new(SchemaId(2), StepId(3)),
                    ),
                    (
                        SchemaStep::new(SchemaId(1), StepId(4)),
                        SchemaStep::new(SchemaId(2), StepId(5)),
                    ),
                ],
            }],
            rollback_dependencies: vec![RollbackDependency {
                id: 0,
                source: SchemaStep::new(SchemaId(1), StepId(2)),
                dependent_schema: SchemaId(2),
                dependent_origin: StepId(1),
            }],
        }
    }

    #[test]
    fn constrained_counts_per_schema() {
        let spec = sample();
        let (me, ro, rd) = spec.constrained_counts(SchemaId(1));
        assert_eq!((me, ro, rd), (1, 2, 1));
        let (me2, ro2, rd2) = spec.constrained_counts(SchemaId(2));
        assert_eq!((me2, ro2, rd2), (1, 2, 1));
        let (me3, ro3, rd3) = spec.constrained_counts(SchemaId(9));
        assert_eq!((me3, ro3, rd3), (0, 0, 0));
    }

    #[test]
    fn schemas_deduped() {
        let spec = sample();
        assert_eq!(spec.schemas(), vec![SchemaId(1), SchemaId(2)]);
        assert!(!spec.is_empty());
        assert!(CoordinationSpec::default().is_empty());
    }

    #[test]
    fn follow_on_pairs_counts_messages() {
        let spec = sample();
        assert_eq!(spec.relative_orders[0].follow_on_pairs(), 1);
    }
}
