//! # crew-simnet
//!
//! The distributed-systems substrate CREW deployments run on: a sans-io
//! [`Node`] abstraction, a deterministic discrete-event [`Simulation`] with
//! reliable FIFO message delivery, seeded latency, fail-stop crash/recovery
//! injection and full message/load instrumentation.
//!
//! The paper assumes "messages are reliably delivered between agents"
//! (§4) via a persistent-messaging substrate. The simulator can discharge
//! that assumption two ways: by construction (the default — perfect FIFO
//! delivery with crash buffering), or by *earning* it — install a
//! [`NetFaultPlan`] and every inter-node message travels over a lossy
//! network (seeded drop/duplicate/reorder plus scripted partitions) through
//! WAL-backed reliable channels ([`reliable`]) that restore exactly-once
//! in-order delivery across fail-stop crashes. Either way every run is
//! reproducible from a seed — which is what lets the benches regenerate the
//! §6 message counts deterministically, with physical retransmission
//! overhead accounted separately in [`metrics::TransportStats`].

#![warn(missing_docs)]

pub mod metrics;
pub mod netfault;
pub mod node;
pub mod reliable;
pub mod sim;
pub mod trace;

pub use metrics::{Classify, Mechanism, Metrics, TransportStats};
pub use netfault::{LinkCut, NetFaultPlan};
pub use node::{Ctx, Node, NodeId, TimerId};
pub use reliable::{Endpoint, Frame, OutboxLog, RetransmitConfig, WalOutbox};
pub use sim::Simulation;
pub use trace::{Trace, TraceEntry};
