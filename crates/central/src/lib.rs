//! # crew-central
//!
//! The centralized workflow control architecture (§2, Figure 1) and — via
//! the `engines > 1` topology — the parallel architecture of §6 (Figure
//! 6b): full-state engines navigating by rules, dispatching step programs
//! to stateless application agents through a scatter-gather that matches
//! the paper's `2·s·a` message model, with every recovery and coordination
//! mechanism handled engine-locally (centralized) or via per-requirement
//! manager engines (parallel).

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
