//! The distributed control wire protocol: every Workflow Interface of the
//! paper's Table 1 as a message variant, plus the replies and notifications
//! the protocols need.
//!
//! Message classification (Table 2) drives the per-mechanism counters of
//! the §6 analysis: `StepExecute`/`StepCompleted`/`StateInformation`/
//! `WorkflowStart`/`WorkflowStatus` are *normal execution*;
//! `WorkflowRollback`/`HaltThread`/`StepCompensate`/`CompensateSet`/
//! `StepStatus` are *failure handling*; `WorkflowChangeInputs`/
//! `InputsChanged` are *input change*; `WorkflowAbort` is *abort*;
//! `AddRule`/`AddEvent` are *coordinated execution*. The paper's third
//! primitive, `AddPrecondition`, is no message: every agent wires its
//! steps' ordering guards from the deployment when it creates the instance
//! (`crew_exec::Gate::wire`).

use crate::packet::WorkflowPacket;
use crate::weight::Weight;
use crew_model::{InstanceId, ItemKey, StepId, StepState, Value};
use crew_simnet::{Classify, Mechanism};
use crew_storage::VariantName;

/// A coordination agent's answer about a workflow: its status, or the
/// rejection of a request it can no longer honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkflowStatusKind {
    /// The instance committed.
    Committed,
    /// The instance aborted.
    Aborted,
    /// The instance is running.
    Executing,
    /// The coordination agent knows no such instance.
    Unknown,
    /// A `WorkflowAbort` arrived after the commit.
    AbortRejected,
    /// A `WorkflowChangeInputs` arrived after the instance finished.
    ChangeRejected,
}

/// Why a coordination message is being sent (labels the `AddRule` protocol
/// roles of Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordRule {
    /// Relative order: the linked pair's first conflicting step finished on
    /// the sender's side; the receiving arbiter decides leading/lagging.
    RoFirstDone {
        /// Requirement id.
        req: u32,
        /// The instance on whose behalf the claim is made.
        claimant: InstanceId,
        /// The partner instance (owns the arbiter step).
        partner: InstanceId,
    },
    /// Mutual exclusion: request the resource for `holder` step of
    /// `instance`.
    MutexAcquire {
        req: u32,
        instance: InstanceId,
        step: StepId,
    },
    /// Mutual exclusion: release the resource.
    MutexRelease {
        req: u32,
        instance: InstanceId,
        step: StepId,
    },
    /// Relative order: the arbiter tells the *leading* side's agent that
    /// `instance` leads `target_instance`, so it owes the lagging step
    /// paired with `local_step` a release once `local_step` completes. The
    /// receiver's gate derives that step and the release's tag from the
    /// order.
    RoNotify {
        req: u32,
        /// Leading instance the wiring is installed for.
        instance: InstanceId,
        /// The leading step whose completion triggers the notification.
        local_step: StepId,
        /// Lagging instance.
        target_instance: InstanceId,
    },
}

/// The distributed-control message set.
#[derive(Debug, Clone, PartialEq)]
pub enum DistMsg {
    // ---- front end ↔ coordination agent (Table 1, rows 1-4) ----
    /// Instantiate a workflow (front end → coordination agent; also parent
    /// agent → child coordination agent for nested workflows, carrying the
    /// parent linkage).
    WorkflowStart {
        instance: InstanceId,
        inputs: Vec<(ItemKey, Value)>,
        parent: Option<(InstanceId, StepId)>,
    },
    /// User changes the inputs of a running workflow.
    WorkflowChangeInputs {
        instance: InstanceId,
        new_inputs: Vec<(ItemKey, Value)>,
    },
    /// User aborts a running workflow.
    WorkflowAbort { instance: InstanceId },
    /// Status query.
    WorkflowStatus { instance: InstanceId },
    /// Status answer (coordination agent → front end).
    WorkflowStatusReply {
        instance: InstanceId,
        status: WorkflowStatusKind,
    },
    /// Commit notification (coordination agent → front end).
    WorkflowCommitted { instance: InstanceId },
    /// Abort notification (coordination agent → front end).
    WorkflowAborted { instance: InstanceId },

    // ---- agent ↔ agent: normal execution ----
    /// The workflow packet (Table 1 `StepExecute`).
    StepExecute { packet: WorkflowPacket },
    /// Terminal-step completion report (termination → coordination agent),
    /// carrying the packet's thread-accounting weight.
    StepCompleted {
        instance: InstanceId,
        step: StepId,
        weight: Weight,
    },
    /// Load/state query used by successor-selection (`StateInformation`).
    StateInformation { token: u64 },
    /// Reply with the agent's current load.
    StateInformationReply { token: u64, load: u64 },
    /// Nested workflow completed: child coordination agent hands control
    /// back to the parent-side agent (§4.2 nested workflows).
    NestedCompleted {
        parent: InstanceId,
        parent_step: StepId,
        child: InstanceId,
        outputs: Vec<Value>,
    },

    // ---- agent ↔ agent: failure handling ----
    /// Coordination agent propagates an input change to the rollback
    /// origin's agent.
    InputsChanged {
        instance: InstanceId,
        origin: StepId,
        new_inputs: Vec<(ItemKey, Value)>,
    },
    /// Roll the workflow back to `origin` (failing agent → origin agent).
    /// `from_dependency` marks a rollback forced by a linked instance's
    /// rollback dependency: it does not propagate further, so a two-way
    /// dependency stays one level deep.
    WorkflowRollback {
        instance: InstanceId,
        origin: StepId,
        from_dependency: bool,
    },
    /// Halt probe: quiesce control flow downstream of `origin`, adopting
    /// `epoch` (§5.2).
    HaltThread {
        instance: InstanceId,
        origin: StepId,
        epoch: u32,
    },
    /// Compensate one step (coordination agent → executing agent on user
    /// abort).
    StepCompensate { instance: InstanceId, step: StepId },
    /// Acknowledgement of a `StepCompensate` (compensated or not-executed).
    StepCompensateAck {
        instance: InstanceId,
        step: StepId,
        compensated: bool,
    },
    /// Compensate a dependent set in reverse execution order: the receiver
    /// compensates the last executed member in `steps`, removes it, and
    /// forwards (§5.2).
    CompensateSet {
        instance: InstanceId,
        origin: StepId,
        steps: Vec<StepId>,
    },
    /// Walk an abandoned if-then-else branch compensating every executed
    /// step before the confluence (§5.2).
    CompensateThread {
        instance: InstanceId,
        steps: Vec<StepId>,
    },
    /// Poll the status of a step at its eligible agents (predecessor-crash
    /// recovery).
    StepStatus { instance: InstanceId, step: StepId },
    /// Status poll reply: the step's state in the replier's history
    /// (`NotExecuted` when it holds no such instance).
    StepStatusReply {
        instance: InstanceId,
        step: StepId,
        status: StepState,
    },
    /// Ask an alternate eligible agent to take over a (query) step whose
    /// designated executor is unreachable.
    ExecuteRequest { instance: InstanceId, step: StepId },
    /// Failure-policy retry: re-execute a failed step in place (self-send,
    /// so each of the `retry(N)` attempts is a fresh delivery at a later
    /// tick instead of a recursive call).
    StepRetry { instance: InstanceId, step: StepId },

    // ---- coordinated execution (AddRule / AddEvent) ----
    /// Install a coordination rule at the receiving agent (Figure 4).
    AddRule { rule: CoordRule },
    /// Inject an external event into the receiver's rule set for
    /// `instance`.
    AddEvent { instance: InstanceId, tag: u64 },

    // ---- infrastructure ----
    /// Periodic committed-instance purge broadcast (§4.2).
    PurgeBroadcast { instances: Vec<InstanceId> },
}

impl Classify for DistMsg {
    fn kind(&self) -> &'static str {
        self.variant_name()
    }

    fn mechanism(&self) -> Mechanism {
        match self {
            DistMsg::WorkflowStart { .. }
            | DistMsg::WorkflowStatus { .. }
            | DistMsg::WorkflowStatusReply { .. }
            | DistMsg::WorkflowCommitted { .. }
            | DistMsg::StepExecute { .. }
            | DistMsg::StepCompleted { .. }
            | DistMsg::StateInformation { .. }
            | DistMsg::StateInformationReply { .. }
            | DistMsg::NestedCompleted { .. } => Mechanism::Normal,
            DistMsg::WorkflowChangeInputs { .. } | DistMsg::InputsChanged { .. } => {
                Mechanism::InputChange
            }
            DistMsg::WorkflowAbort { .. }
            | DistMsg::WorkflowAborted { .. }
            | DistMsg::StepCompensate { .. }
            | DistMsg::StepCompensateAck { .. } => Mechanism::Abort,
            DistMsg::WorkflowRollback { .. }
            | DistMsg::HaltThread { .. }
            | DistMsg::CompensateSet { .. }
            | DistMsg::CompensateThread { .. }
            | DistMsg::StepStatus { .. }
            | DistMsg::StepStatusReply { .. }
            | DistMsg::ExecuteRequest { .. }
            | DistMsg::StepRetry { .. } => Mechanism::FailureHandling,
            DistMsg::AddRule { .. } | DistMsg::AddEvent { .. } => Mechanism::CoordinatedExecution,
            DistMsg::PurgeBroadcast { .. } => Mechanism::Control,
        }
    }

    fn approx_size(&self) -> usize {
        match self {
            DistMsg::StepExecute { packet } => packet.approx_size(),
            other => std::mem::size_of_val(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::SchemaId;

    fn inst() -> InstanceId {
        InstanceId::new(SchemaId(2), 4)
    }

    #[test]
    fn mechanisms_match_table2() {
        use Mechanism::*;
        let cases: Vec<(DistMsg, Mechanism)> = vec![
            (
                DistMsg::WorkflowStart {
                    instance: inst(),
                    inputs: vec![],
                    parent: None,
                },
                Normal,
            ),
            (DistMsg::WorkflowStatus { instance: inst() }, Normal),
            (
                DistMsg::StepCompleted {
                    instance: inst(),
                    step: StepId(1),
                    weight: Weight::ONE,
                },
                Normal,
            ),
            (DistMsg::StateInformation { token: 0 }, Normal),
            (
                DistMsg::WorkflowChangeInputs {
                    instance: inst(),
                    new_inputs: vec![],
                },
                InputChange,
            ),
            (
                DistMsg::InputsChanged {
                    instance: inst(),
                    origin: StepId(1),
                    new_inputs: vec![],
                },
                InputChange,
            ),
            (DistMsg::WorkflowAbort { instance: inst() }, Abort),
            (
                DistMsg::StepCompensate {
                    instance: inst(),
                    step: StepId(1),
                },
                Abort,
            ),
            (
                DistMsg::WorkflowRollback {
                    instance: inst(),
                    origin: StepId(2),
                    from_dependency: true,
                },
                FailureHandling,
            ),
            (
                DistMsg::HaltThread {
                    instance: inst(),
                    origin: StepId(2),
                    epoch: 1,
                },
                FailureHandling,
            ),
            (
                DistMsg::CompensateSet {
                    instance: inst(),
                    origin: StepId(2),
                    steps: vec![],
                },
                FailureHandling,
            ),
            (
                DistMsg::StepStatus {
                    instance: inst(),
                    step: StepId(1),
                },
                FailureHandling,
            ),
            (
                DistMsg::AddEvent {
                    instance: inst(),
                    tag: 1,
                },
                CoordinatedExecution,
            ),
            (
                DistMsg::AddRule {
                    rule: CoordRule::MutexAcquire {
                        req: 0,
                        instance: inst(),
                        step: StepId(1),
                    },
                },
                CoordinatedExecution,
            ),
            (DistMsg::PurgeBroadcast { instances: vec![] }, Control),
        ];
        for (msg, want) in cases {
            assert_eq!(msg.mechanism(), want, "{}", msg.kind());
        }
    }

    /// `Classify::approx_size` is `size_of_val` for every message but
    /// `StepExecute`, so the benchmark's `bytes_per_inst` is built from this
    /// in-memory size, not from any encoded length: a variant field that
    /// grows the enum moves it.
    #[test]
    fn in_memory_size_is_pinned() {
        assert_eq!(std::mem::size_of::<DistMsg>(), 96);
    }

    #[test]
    fn kinds_are_stable_names() {
        assert_eq!(
            DistMsg::WorkflowAbort { instance: inst() }.kind(),
            "WorkflowAbort"
        );
        assert_eq!(
            DistMsg::HaltThread {
                instance: inst(),
                origin: StepId(1),
                epoch: 0
            }
            .kind(),
            "HaltThread"
        );
    }
}
