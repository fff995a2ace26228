//! # crew-distributed
//!
//! The distributed workflow control architecture of §4–§5: agents that both
//! execute steps and navigate workflows by exchanging *workflow packets*,
//! playing the coordination / execution / termination roles per instance.
//! Implements all sixteen Workflow Interfaces of Table 1, the failure
//! handling protocols (`WorkflowRollback`/`HaltThread` probes with event
//! invalidation, `CompensateSet` chains, `CompensateThread` branch
//! unwinding, `StepStatus` polling for crashed predecessors), weighted
//! thread-accounting commit, and the coordinated-execution protocols
//! (relative ordering with packet-piggybacked leading/lagging tags, mutual
//! exclusion, rollback dependencies) built on the `AddRule`/`AddEvent`
//! primitives; `AddPrecondition` rides on packets and becomes a
//! requirement of the instance's coordination gate (`crew_exec::Gate`).

#![warn(missing_docs)]
#![allow(missing_docs)] // field-level docs are selective in protocol enums

pub mod agent;
pub mod builder;
pub mod codec;
pub mod frontend;
pub mod msg;
pub mod packet;
pub mod runtime;

/// Re-export of the shared thread-accounting weight (lives in `crew-exec`
/// so the central/parallel engines use the identical commit accounting).
pub mod weight {
    pub use crew_exec::weight::*;
}

pub use agent::DistAgent;
pub use builder::DistRun;
pub use frontend::{FrontEnd, Outcome};
pub use msg::{CoordRule, DistMsg, StepStatusKind};
pub use packet::{RoTag, WorkflowPacket};
pub use runtime::{
    coordination_agent, designated_agent, Directory, DistConfig, SharedCtx, SuccessorSelection,
};
pub use weight::Weight;
