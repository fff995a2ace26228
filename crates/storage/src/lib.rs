//! # crew-storage
//!
//! Persistence for CREW nodes: the WFDB of the centralized engine and the
//! per-agent AGDB of distributed control (§2, §4.1). Provides a
//! from-scratch CRC-32, a compact binary [`codec`], a crash-safe
//! append-only [write-ahead log](wal) with torn-tail recovery, and the
//! [workflow tables](tables) (class/instance/step/summary) rebuilt by
//! replaying logged [`DbOp`]s — the forward-recovery path a node takes
//! after a fail-stop crash.

#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod tables;
pub mod wal;

// `wire!` expansions name the buffer types through this path, whatever the
// calling crate imports.
#[doc(hidden)]
pub use bytes;
pub use codec::{CodecError, Decode, Encode, VariantName};
pub use crc::crc32;
pub use tables::{AgentDb, DbOp, InstanceStatus, InstanceTable, StoredStepState};
pub use wal::{recover_for_node, FileStore, LogStore, MemStore, RecoveryReport, Wal, WalError};
