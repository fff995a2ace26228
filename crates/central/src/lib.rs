//! # crew-central
//!
//! The centralized workflow control architecture (§2, Figure 1) and — via
//! the `engines > 1` topology — the parallel architecture of §6 (Figure
//! 6b): full-state engines navigating by rules, dispatching step programs
//! to stateless application agents through a scatter-gather that matches
//! the paper's `2·s·a` message model, with every recovery and coordination
//! mechanism handled engine-locally (centralized) or via per-requirement
//! manager engines (parallel).
//!
//! Parallel control is, in the paper's words, "an extension of the
//! centralized architecture where several central engines work in parallel
//! to share the load of workflow scheduling", each instance controlled by
//! exactly one engine. It is [`CentralRun::new`] with `engines >= 2` (or
//! [`CentralRun::new_with_placement`] for consistent-hash placement); the
//! engine-to-engine coordination behaviours that only arise then are
//! tested in [`builder`].

#![warn(missing_docs)]
#![allow(missing_docs)] // selective field docs in protocol enums

pub mod appagent;
pub mod builder;
pub mod codec;
pub mod engine;
pub mod msg;
pub mod topology;

pub use appagent::AppAgent;
pub use builder::CentralRun;
pub use engine::Engine;
pub use msg::{CentralMsg, CoordMsg};
pub use topology::{PlacementStrategy, Topology};
