//! Strongly-typed identifiers used throughout CREW.
//!
//! Every entity the paper names — workflow schemas ("workflow classes"),
//! workflow instances, steps, agents — gets its own newtype so that
//! the compiler rules out cross-entity mixups (e.g. passing a step id where
//! an agent id is expected). All ids are small `Copy` integers; formatting
//! follows the paper's conventions (`S3`, `WF2`, instance numbers).

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Raw numeric value of the identifier.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifies a workflow schema (a "workflow class" in the paper's
    /// terminology). A schema is the template from which instances are
    /// created.
    SchemaId,
    "WF"
);

id_type!(
    /// Identifies a step *definition* within a schema. Step ids are local to
    /// their schema; `(SchemaId, StepId)` is globally unique and
    /// `(InstanceId, StepId)` names a step execution.
    StepId,
    "S"
);

id_type!(
    /// Identifies an application agent — the node type that executes steps.
    /// In distributed control an agent additionally navigates workflows and
    /// may play the coordination/termination roles.
    AgentId,
    "A"
);

/// Identifies one workflow instance, globally unique across schemas.
///
/// The paper renders instances as "workflow name + instance number"
/// (e.g. `WF2` instance `4`); we carry both halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    /// Schema this instance was created from.
    pub schema: SchemaId,
    /// Serial number of the instance, unique within the whole system (not
    /// merely within the schema) so logs read unambiguously.
    pub serial: u32,
}

impl InstanceId {
    /// Create a new, empty value.
    pub fn new(schema: SchemaId, serial: u32) -> Self {
        InstanceId { schema, serial }
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.schema, self.serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_follows_paper_conventions() {
        assert_eq!(SchemaId(2).to_string(), "WF2");
        assert_eq!(StepId(3).to_string(), "S3");
        assert_eq!(AgentId(7).to_string(), "A7");
        let inst = InstanceId::new(SchemaId(2), 4);
        assert_eq!(inst.to_string(), "WF2#4");
    }

    #[test]
    fn ids_order_and_hash_like_their_integers() {
        assert!(StepId(1) < StepId(2));
        assert_eq!(StepId::from(5), StepId(5));
        assert_eq!(StepId(5).index(), 5);
        let a = InstanceId::new(SchemaId(1), 9);
        let b = InstanceId::new(SchemaId(1), 10);
        assert!(a < b);
    }
}
