//! Messages of the centralized / parallel control architectures.
//!
//! The engine(s) hold all workflow state; application agents only run
//! programs. Per step the engine performs a one-phase scatter-gather over
//! the step's `a` eligible agents: an `ExecRequest` to the (least-loaded
//! estimated) executor plus `StateProbe`s to the rest, each answered — the
//! `2·s·a` messages per instance of Table 4. Engine↔engine messages exist
//! only under parallel control, for coordination requirements whose
//! instances live on different engines (Table 5's coordinated-execution
//! row).

use crew_model::{InstanceId, ItemKey, StepId, Value};
use crew_simnet::{Classify, Mechanism};
use crew_storage::VariantName;

/// Engine↔engine coordination traffic (parallel control only).
#[derive(Debug, Clone, PartialEq)]
pub enum CoordMsg {
    /// Relative order: first conflicting step of `claimant` (linked with
    /// `partner`) completed; the requirement's manager engine decides.
    RoFirstDone {
        req: u32,
        claimant: InstanceId,
        partner: InstanceId,
    },
    /// Manager → owner engine: the decision (leading instance).
    RoDecision {
        req: u32,
        a: InstanceId,
        b: InstanceId,
        leader_side: u8,
    },
    /// Leading side's step `k` completed: release the lagging instance's
    /// step (owner engine of the lagging instance applies it).
    RoRelease {
        req: u32,
        k: usize,
        lagging: InstanceId,
    },
    /// Mutual exclusion request for `(instance, step)`.
    MutexAcquire {
        req: u32,
        instance: InstanceId,
        step: StepId,
    },
    /// Manager → owner engine: grant.
    MutexGrant {
        req: u32,
        instance: InstanceId,
        step: StepId,
    },
    /// Release the resource.
    MutexRelease {
        req: u32,
        instance: InstanceId,
        step: StepId,
    },
    /// Rollback dependency: roll `instance` back to `origin`.
    RollbackDep {
        instance: InstanceId,
        origin: StepId,
    },
}

/// The centralized/parallel control message set.
#[derive(Debug, Clone, PartialEq)]
pub enum CentralMsg {
    // ---- administrative interface (external → engine) ----
    WorkflowStart {
        instance: InstanceId,
        inputs: Vec<(ItemKey, Value)>,
    },
    WorkflowChangeInputs {
        instance: InstanceId,
        new_inputs: Vec<(ItemKey, Value)>,
    },
    WorkflowAbort {
        instance: InstanceId,
    },
    WorkflowStatus {
        instance: InstanceId,
    },

    // ---- engine → agent ----
    /// Execute a step's program.
    ExecRequest {
        instance: InstanceId,
        step: StepId,
        program: String,
        inputs: Vec<Option<Value>>,
        attempt: u32,
        /// Charged at the agent on success (the program's cost).
        cost: u64,
    },
    /// Load probe to the non-chosen eligible agents (scatter half).
    StateProbe,
    /// Compensate a previously executed step.
    CompensateRequest {
        instance: InstanceId,
        step: StepId,
        program: Option<String>,
        partial: bool,
        /// The mechanism this compensation belongs to (failure vs abort),
        /// so replies are attributed correctly.
        for_abort: bool,
    },

    // ---- agent → engine ----
    ExecResult {
        instance: InstanceId,
        step: StepId,
        attempt: u32,
        /// `None` when the attempt failed.
        outputs: Option<Vec<Value>>,
    },
    /// The probed agent's answer (gather half).
    StateProbeReply,
    CompensateResult {
        instance: InstanceId,
        step: StepId,
        for_abort: bool,
    },

    // ---- engine ↔ engine (parallel only) ----
    Coord(CoordMsg),
    /// Nested workflow hand-off between owner engines.
    ChildStart {
        child: InstanceId,
        inputs: Vec<(ItemKey, Value)>,
        parent: InstanceId,
        parent_step: StepId,
    },
    ChildDone {
        parent: InstanceId,
        parent_step: StepId,
        outputs: Vec<Value>,
    },

    // ---- live migration (crew-shard, parallel only) ----
    /// Balancer → source engine: freeze `instance` and hand it over to
    /// engine index `target`. Handler atomicity is the freeze: the
    /// instance's state is exported and dropped before any further message
    /// can touch it.
    MigrateRequest {
        instance: InstanceId,
        target: u32,
    },
    /// Source → target engine: the instance's command-log slice — every
    /// journaled input that shaped it, as `(from_node, payload)` pairs in
    /// wire encoding. The target replays them through the normal handlers
    /// (the WFDB recovery machinery) to rebuild the instance in place.
    MigrateState {
        instance: InstanceId,
        records: Vec<(u32, Vec<u8>)>,
    },
    /// Target → source engine: installation complete.
    MigrateAck {
        instance: InstanceId,
    },
    /// Target → every other engine: routing update so in-flight traffic
    /// chases the instance with at most one forwarding hop.
    OwnerChanged {
        instance: InstanceId,
        owner: u32,
    },
}

impl CentralMsg {
    /// Every instance this message is addressed *about* — the owner-routing
    /// key set. Coordination traffic can concern two (both sides of a
    /// relative order, a parent and child). Migration control and probe
    /// traffic mention none: they are point-to-point engine messages that
    /// must never be re-routed through forwarding.
    ///
    /// At most two, read in place: engines ask this of every input, so it
    /// allocates nothing (`.into_iter().flatten()` walks the set).
    pub fn mentions(&self) -> [Option<InstanceId>; 2] {
        let one = |i: &InstanceId| [Some(*i), None];
        match self {
            CentralMsg::WorkflowStart { instance, .. }
            | CentralMsg::WorkflowChangeInputs { instance, .. }
            | CentralMsg::WorkflowAbort { instance }
            | CentralMsg::WorkflowStatus { instance }
            | CentralMsg::ExecRequest { instance, .. }
            | CentralMsg::CompensateRequest { instance, .. }
            | CentralMsg::ExecResult { instance, .. }
            | CentralMsg::CompensateResult { instance, .. }
            | CentralMsg::MigrateRequest { instance, .. } => one(instance),
            CentralMsg::Coord(c) => match c {
                CoordMsg::RoFirstDone {
                    claimant, partner, ..
                } => [Some(*claimant), Some(*partner)],
                CoordMsg::RoDecision { a, b, .. } => [Some(*a), Some(*b)],
                CoordMsg::RoRelease { lagging, .. } => one(lagging),
                CoordMsg::MutexAcquire { instance, .. }
                | CoordMsg::MutexGrant { instance, .. }
                | CoordMsg::MutexRelease { instance, .. }
                | CoordMsg::RollbackDep { instance, .. } => one(instance),
            },
            // ChildStart mentions only the child it creates: the parent's
            // half of the interaction (pending_nested) is rebuilt by the
            // parent's own command log, and routing is to the child's side.
            CentralMsg::ChildStart { child, .. } => one(child),
            CentralMsg::ChildDone { parent, .. } => one(parent),
            CentralMsg::StateProbe
            | CentralMsg::StateProbeReply
            | CentralMsg::MigrateState { .. }
            | CentralMsg::MigrateAck { .. }
            | CentralMsg::OwnerChanged { .. } => [None, None],
        }
    }

    /// Whether this message is addressed to a per-requirement *manager*
    /// engine (`req % e`) rather than to an instance's owner. The manager
    /// role is placement-independent and never migrates, so these must
    /// never be forwarded even when every instance they mention has moved.
    pub fn manager_bound(&self) -> bool {
        matches!(
            self,
            CentralMsg::Coord(
                CoordMsg::RoFirstDone { .. }
                    | CoordMsg::MutexAcquire { .. }
                    | CoordMsg::MutexRelease { .. }
            )
        )
    }
}

impl Classify for CentralMsg {
    fn kind(&self) -> &'static str {
        match self {
            CentralMsg::Coord(c) => match c {
                CoordMsg::RoFirstDone { .. } => "Coord.RoFirstDone",
                CoordMsg::RoDecision { .. } => "Coord.RoDecision",
                CoordMsg::RoRelease { .. } => "Coord.RoRelease",
                CoordMsg::MutexAcquire { .. } => "Coord.MutexAcquire",
                CoordMsg::MutexGrant { .. } => "Coord.MutexGrant",
                CoordMsg::MutexRelease { .. } => "Coord.MutexRelease",
                CoordMsg::RollbackDep { .. } => "Coord.RollbackDep",
            },
            other => other.variant_name(),
        }
    }

    fn mechanism(&self) -> Mechanism {
        match self {
            CentralMsg::WorkflowStart { .. }
            | CentralMsg::WorkflowStatus { .. }
            | CentralMsg::ExecRequest { .. }
            | CentralMsg::StateProbe
            | CentralMsg::ExecResult { .. }
            | CentralMsg::StateProbeReply
            | CentralMsg::ChildStart { .. }
            | CentralMsg::ChildDone { .. } => Mechanism::Normal,
            CentralMsg::WorkflowChangeInputs { .. } => Mechanism::InputChange,
            CentralMsg::WorkflowAbort { .. } => Mechanism::Abort,
            CentralMsg::CompensateRequest { for_abort, .. }
            | CentralMsg::CompensateResult { for_abort, .. } => {
                if *for_abort {
                    Mechanism::Abort
                } else {
                    Mechanism::FailureHandling
                }
            }
            CentralMsg::Coord(CoordMsg::RollbackDep { .. }) => Mechanism::FailureHandling,
            CentralMsg::Coord(_) => Mechanism::CoordinatedExecution,
            CentralMsg::MigrateRequest { .. }
            | CentralMsg::MigrateState { .. }
            | CentralMsg::MigrateAck { .. }
            | CentralMsg::OwnerChanged { .. } => Mechanism::Control,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::SchemaId;

    fn inst() -> InstanceId {
        InstanceId::new(SchemaId(1), 1)
    }

    #[test]
    fn mechanisms_partition() {
        assert_eq!(
            CentralMsg::ExecRequest {
                instance: inst(),
                step: StepId(1),
                program: "p".into(),
                inputs: vec![],
                attempt: 1,
                cost: 1,
            }
            .mechanism(),
            Mechanism::Normal
        );
        assert_eq!(
            CentralMsg::CompensateRequest {
                instance: inst(),
                step: StepId(1),
                program: None,
                partial: false,
                for_abort: true,
            }
            .mechanism(),
            Mechanism::Abort
        );
        assert_eq!(
            CentralMsg::CompensateRequest {
                instance: inst(),
                step: StepId(1),
                program: None,
                partial: false,
                for_abort: false,
            }
            .mechanism(),
            Mechanism::FailureHandling
        );
        assert_eq!(
            CentralMsg::Coord(CoordMsg::MutexAcquire {
                req: 0,
                instance: inst(),
                step: StepId(1)
            })
            .mechanism(),
            Mechanism::CoordinatedExecution
        );
        assert_eq!(
            CentralMsg::Coord(CoordMsg::RollbackDep {
                instance: inst(),
                origin: StepId(1)
            })
            .mechanism(),
            Mechanism::FailureHandling
        );
    }

    /// `Classify::approx_size` is `size_of_val`, so the benchmark's
    /// `bytes_per_inst` is a multiple of this in-memory size, not of any
    /// encoded length: a variant field that grows the enum moves it.
    #[test]
    fn in_memory_size_is_pinned() {
        assert_eq!(std::mem::size_of::<CentralMsg>(), 72);
    }

    #[test]
    fn kinds_are_stable_names() {
        assert_eq!(
            CentralMsg::WorkflowAbort { instance: inst() }.kind(),
            "WorkflowAbort"
        );
        assert_eq!(
            CentralMsg::Coord(CoordMsg::RollbackDep {
                instance: inst(),
                origin: StepId(1)
            })
            .kind(),
            "Coord.RollbackDep"
        );
    }
}
