//! What a node journals: the AGDB at agents, the command log at engines.
//!
//! §2 and §4.1 give the central engine (WFDB) and every distributed agent
//! (AGDB) a database for one purpose, forward recovery, and [`DbOp`] is
//! the record type of both logs. Each node journals only what its own
//! recovery reads back:
//!
//! * A distributed agent's AGDB holds the *workflow instance tables* (data
//!   per instance), a *step table* (step status and results) and, at
//!   coordination agents, the *coordination instance summary table* that
//!   serves front-end status requests — as the log of their mutations.
//!   Every mutation is a table [`DbOp`] the agent appends to its WAL, and
//!   each fact is journaled once. There is no table copy: live, the
//!   agent's navigators hold the data, and after a crash the agent folds
//!   the log, in order, straight back into them.
//! * An engine keeps no tables here. Its WFDB is a command log of
//!   [`DbOp::EngineInput`] records, one per delivered message; replaying
//!   them through the normal handlers rebuilds the engine's in-memory
//!   instance, step, event and summary state. Beside it, a summary log
//!   holds a [`DbOp::StatusChanged`] per retired instance and a
//!   [`DbOp::CommandsDropped`] per compaction of the command log.

use crate::wire;
use crew_model::{InstanceId, ItemKey, StepId, StepState, Value};

/// Instance status as tracked in the coordination instance summary table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceStatus {
    /// Still in progress.
    Executing,
    /// Terminated successfully; effects permanent.
    Committed,
    /// Terminated by abort; effects compensated.
    Aborted,
}

wire! {
    enum InstanceStatus {
        0 => Executing,
        1 => Committed,
        2 => Aborted,
    }
}

// A step-table row's state. Tags 0–3 are the step table's own; a
// `StepStatus` poll also answers 4, a step this agent never ran.
wire! {
    enum StepState {
        0 => Executing,
        1 => Done,
        2 => Failed,
        3 => Compensated,
        4 => NotExecuted,
    }
}

/// One journal record. The table variants are an agent's AGDB mutations
/// (fields follow the naming of the tables they touch, and each names the
/// `instance` whose tables it changes); an engine writes `EngineInput` to
/// its command log and `StatusChanged` / `CommandsDropped` to its summary
/// log.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum DbOp {
    /// Write one data item of an instance.
    DataWritten {
        instance: InstanceId,
        key: ItemKey,
        value: Value,
    },
    /// Remove the outputs of a step from an instance's data table
    /// (compensation).
    StepOutputsCleared { instance: InstanceId, step: StepId },
    /// Update a step's row in the step table.
    StepRecorded {
        instance: InstanceId,
        step: StepId,
        /// The status the step reached.
        state: StepState,
        /// Which execution of the step this is, counting from 1.
        attempt: u32,
        /// What that execution produced (empty unless `state` is `Done`).
        outputs: Vec<Value>,
    },
    /// Update the coordination instance summary table.
    StatusChanged {
        instance: InstanceId,
        status: InstanceStatus,
    },
    /// Drop all state of a committed instance (purge broadcast).
    InstancePurged { instance: InstanceId },
    /// A logical *command* record: one input message delivered to an
    /// engine, stored verbatim (codec-encoded) before it is handled.
    /// Engines are deterministic state machines over their delivered
    /// message stream, so replaying the commands with outputs discarded
    /// rebuilds every volatile structure (instance data and history,
    /// rule-set firing state, flow weights, OCR bookkeeping, in-flight
    /// coordination). Not a table mutation: an agent never writes it.
    EngineInput {
        /// Sending node id (`u32::MAX` = external).
        from: u32,
        /// Codec-encoded message payload.
        payload: Vec<u8>,
    },
    /// An engine compacted its command log: it dropped `records`
    /// [`DbOp::EngineInput`]s whose replay would change nothing but
    /// counters, `installs` of them migration installs. Recovery counts
    /// them as delivered (and as installs) without reading them.
    CommandsDropped {
        /// Command records dropped.
        records: u64,
        /// How many of them installed a migrated instance.
        installs: u64,
    },
}

// Retired tags are left unused and never reused, so a log written with
// one fails to decode instead of being misread: 0 is `InstanceCreated`,
// which no recovery needed (an instance's entry comes back with its first
// row), 3 and 4 `EventPosted` / `EventInvalidated`, an event table no
// recovery read.
wire! {
    enum DbOp {
        1 => DataWritten { instance, key, value },
        2 => StepOutputsCleared { instance, step },
        5 => StepRecorded { instance, step, state, attempt, outputs },
        6 => StatusChanged { instance, status },
        7 => InstancePurged { instance },
        8 => EngineInput { from, payload },
        9 => CommandsDropped { records, installs },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};
    use crew_model::SchemaId;

    fn inst(n: u32) -> InstanceId {
        InstanceId::new(SchemaId(1), n)
    }

    #[test]
    fn ops_round_trip_through_codec() {
        let ops = vec![
            DbOp::DataWritten {
                instance: inst(1),
                key: ItemKey::output(StepId(2), 1),
                value: Value::Int(45),
            },
            DbOp::StepOutputsCleared {
                instance: inst(1),
                step: StepId(2),
            },
            DbOp::StepRecorded {
                instance: inst(1),
                step: StepId(2),
                state: StepState::Done,
                attempt: 2,
                outputs: vec![Value::Str("Gasket".into())],
            },
            DbOp::StatusChanged {
                instance: inst(1),
                status: InstanceStatus::Committed,
            },
            DbOp::InstancePurged { instance: inst(1) },
            DbOp::EngineInput {
                from: u32::MAX,
                payload: vec![0, 1, 2, 255],
            },
            DbOp::CommandsDropped {
                records: 1 << 40,
                installs: 3,
            },
        ];
        for op in &ops {
            let mut bytes = op.to_bytes();
            assert_eq!(&DbOp::decode(&mut bytes).unwrap(), op);
        }
    }

    #[test]
    fn retired_tags_do_not_decode() {
        // Bytes written before each retirement: InstanceCreated { WF2 #1 },
        // and EventPosted / EventInvalidated "S2.D".
        let instance_created = vec![0, 2, 0, 0, 0, 1, 0, 0, 0];
        let events = [3u8, 4].map(|tag| {
            vec![
                tag, 2, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0x53, 0x32, 0x2e, 0x44,
            ]
        });
        for bytes in [instance_created].into_iter().chain(events) {
            let tag = bytes[0];
            let got = DbOp::decode(&mut bytes::Bytes::from(bytes));
            let want = crate::CodecError::BadTag {
                context: "DbOp",
                tag,
            };
            assert_eq!(got, Err(want));
        }
    }
}
