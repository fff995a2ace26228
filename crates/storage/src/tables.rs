//! What a node journals: the AGDB tables at agents, the command log at
//! engines.
//!
//! §2 and §4.1 give the central engine (WFDB) and every distributed agent
//! (AGDB) a database for one purpose, forward recovery, and [`DbOp`] is
//! the record type of both logs. Each node journals only what its own
//! recovery reads back:
//!
//! * A distributed agent keeps the AGDB tables — *workflow instance
//!   tables* (data per instance), a *step table* (step status/results),
//!   and, at coordination agents, the *coordination instance summary
//!   table* that serves front-end status requests. Every mutation is a
//!   table [`DbOp`] the agent appends to its WAL. [`AgentDb`] is the
//!   projection of that log into tables: after a crash `replay(ops)`
//!   rebuilds it, the agent restores its navigators from the instance
//!   tables, keeps the summary table and drops the rest — live, the
//!   navigators hold the only copy of the data.
//! * An engine keeps no tables here. Its WFDB is a command log of
//!   [`DbOp::EngineInput`] records, one per delivered message; replaying
//!   them through the normal handlers rebuilds the engine's in-memory
//!   instance, step, event and summary state. Beside it, a summary log
//!   holds a [`DbOp::StatusChanged`] per retired instance and a
//!   [`DbOp::CommandsDropped`] per compaction of the command log.

use crate::wire;
use crew_model::{DataEnv, InstanceId, ItemKey, StepId, Value};
use std::collections::BTreeMap;

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

/// Step status as persisted in the step table (mirrors
/// `crew_exec::StepState` without depending on it, keeping storage
/// self-contained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredStepState {
    /// Still in progress.
    Executing,
    /// Done.
    Done,
    /// Failed.
    Failed,
    /// Compensated.
    Compensated,
}

wire! {
    enum StoredStepState {
        0 => Executing,
        1 => Done,
        2 => Failed,
        3 => Compensated,
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
    /// Create (or re-register) the instance's tables.
    InstanceCreated { instance: InstanceId },
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
        state: StoredStepState,
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
    /// coordination). Not a table mutation — [`AgentDb::apply`] ignores it.
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

// Tags 3 and 4 are retired (`EventPosted` / `EventInvalidated`, an event
// table no recovery read): left unused and never reused, so a log written
// with them fails to decode instead of being misread.
wire! {
    enum DbOp {
        0 => InstanceCreated { instance },
        1 => DataWritten { instance, key, value },
        2 => StepOutputsCleared { instance, step },
        5 => StepRecorded { instance, step, state, attempt, outputs },
        6 => StatusChanged { instance, status },
        7 => InstancePurged { instance },
        8 => EngineInput { from, payload },
        9 => CommandsDropped { records, installs },
    }
}

/// Persisted per-instance state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstanceTable {
    /// The instance data table.
    pub data: DataEnv,
    /// Step table rows: persisted status per step.
    pub steps: BTreeMap<StepId, (StoredStepState, u32, Vec<Value>)>,
}

/// A distributed agent's database (AGDB) as tables: instance tables plus
/// the coordination instance summary, projected from the journal on
/// recovery.
#[derive(Debug, Clone, Default)]
pub struct AgentDb {
    instances: BTreeMap<InstanceId, InstanceTable>,
    /// Coordination instance summary table (only populated at nodes acting
    /// as coordination agents).
    summary: BTreeMap<InstanceId, InstanceStatus>,
}

impl AgentDb {
    /// Create a new, empty value.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one mutation to the projection.
    pub fn apply(&mut self, op: &DbOp) {
        match op {
            DbOp::InstanceCreated { instance } => {
                self.instances.entry(*instance).or_default();
            }
            DbOp::DataWritten {
                instance,
                key,
                value,
            } => {
                self.instances
                    .entry(*instance)
                    .or_default()
                    .data
                    .set(*key, value.clone());
            }
            DbOp::StepOutputsCleared { instance, step } => {
                if let Some(t) = self.instances.get_mut(instance) {
                    t.data.clear_step_outputs(*step);
                }
            }
            DbOp::StepRecorded {
                instance,
                step,
                state,
                attempt,
                outputs,
            } => {
                self.instances
                    .entry(*instance)
                    .or_default()
                    .steps
                    .insert(*step, (*state, *attempt, outputs.clone()));
            }
            DbOp::StatusChanged { instance, status } => {
                self.summary.insert(*instance, *status);
            }
            DbOp::InstancePurged { instance } => {
                self.instances.remove(instance);
            }
            DbOp::EngineInput { .. } | DbOp::CommandsDropped { .. } => {
                // Command log records: consumed by engine replay, not
                // table ops.
            }
        }
    }

    /// Rebuild the projection from a recovered op sequence.
    pub fn replay<'a>(ops: impl IntoIterator<Item = &'a DbOp>) -> Self {
        let mut db = AgentDb::new();
        for op in ops {
            db.apply(op);
        }
        db
    }

    /// The workflow instance concerned.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceTable> {
        self.instances.get(&id)
    }

    /// Instances.
    pub fn instances(&self) -> impl Iterator<Item = (&InstanceId, &InstanceTable)> {
        self.instances.iter()
    }

    /// Coordination instance summary lookup (front-end `WorkflowStatus`).
    pub fn status(&self, id: InstanceId) -> Option<InstanceStatus> {
        self.summary.get(&id).copied()
    }

    /// The whole coordination instance summary table: the one table an
    /// agent keeps live after recovery.
    pub fn into_summary(self) -> BTreeMap<InstanceId, InstanceStatus> {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};
    use crate::wal::Wal;
    use crew_model::SchemaId;

    fn inst(n: u32) -> InstanceId {
        InstanceId::new(SchemaId(1), n)
    }

    #[test]
    fn ops_round_trip_through_codec() {
        let ops = vec![
            DbOp::InstanceCreated { instance: inst(1) },
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
                state: StoredStepState::Done,
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
    fn apply_builds_projection() {
        let mut db = AgentDb::new();
        db.apply(&DbOp::InstanceCreated { instance: inst(1) });
        db.apply(&DbOp::DataWritten {
            instance: inst(1),
            key: ItemKey::input(1),
            value: Value::Int(90),
        });
        db.apply(&DbOp::StepRecorded {
            instance: inst(1),
            step: StepId(1),
            state: StoredStepState::Done,
            attempt: 1,
            outputs: vec![Value::Int(20)],
        });
        db.apply(&DbOp::StatusChanged {
            instance: inst(1),
            status: InstanceStatus::Executing,
        });

        let t = db.instance(inst(1)).unwrap();
        assert_eq!(t.data.get(&ItemKey::input(1)), Some(&Value::Int(90)));
        assert_eq!(t.steps[&StepId(1)].0, StoredStepState::Done);
        assert_eq!(db.status(inst(1)), Some(InstanceStatus::Executing));
    }

    #[test]
    fn replay_equals_apply() {
        let ops = vec![
            DbOp::InstanceCreated { instance: inst(1) },
            DbOp::DataWritten {
                instance: inst(1),
                key: ItemKey::input(1),
                value: Value::Int(7),
            },
            DbOp::StepRecorded {
                instance: inst(1),
                step: StepId(1),
                state: StoredStepState::Failed,
                attempt: 1,
                outputs: vec![],
            },
            DbOp::StepRecorded {
                instance: inst(1),
                step: StepId(1),
                state: StoredStepState::Done,
                attempt: 2,
                outputs: vec![Value::Int(7)],
            },
        ];
        let mut direct = AgentDb::new();
        for op in &ops {
            direct.apply(op);
        }
        let replayed = AgentDb::replay(&ops);
        assert_eq!(
            direct.instance(inst(1)).unwrap(),
            replayed.instance(inst(1)).unwrap()
        );
        assert_eq!(
            replayed.instance(inst(1)).unwrap().steps[&StepId(1)],
            (StoredStepState::Done, 2, vec![Value::Int(7)])
        );
    }

    #[test]
    fn wal_backed_recovery() {
        let mut wal: Wal<DbOp> = Wal::in_memory();
        let ops = vec![
            DbOp::InstanceCreated { instance: inst(4) },
            DbOp::DataWritten {
                instance: inst(4),
                key: ItemKey::output(StepId(1), 2),
                value: Value::Str("Gasket".into()),
            },
            DbOp::StatusChanged {
                instance: inst(4),
                status: InstanceStatus::Committed,
            },
        ];
        for op in &ops {
            wal.append(op).unwrap();
        }
        let recovered = wal.recover().unwrap();
        let db = AgentDb::replay(&recovered);
        let t = db.instance(inst(4)).unwrap();
        assert_eq!(
            t.data.get(&ItemKey::output(StepId(1), 2)),
            Some(&Value::Str("Gasket".into()))
        );
        assert_eq!(db.status(inst(4)), Some(InstanceStatus::Committed));
    }

    #[test]
    fn engine_input_is_not_a_table_op() {
        let mut db = AgentDb::new();
        db.apply(&DbOp::EngineInput {
            from: 3,
            payload: vec![1, 2, 3],
        });
        assert_eq!(db.instances().count(), 0);
    }

    #[test]
    fn purge_drops_instance_state() {
        let mut db = AgentDb::new();
        db.apply(&DbOp::InstanceCreated { instance: inst(1) });
        db.apply(&DbOp::InstancePurged { instance: inst(1) });
        assert!(db.instance(inst(1)).is_none());
    }

    #[test]
    fn retired_tags_do_not_decode() {
        // The parent's bytes for EventPosted / EventInvalidated "S2.D".
        for tag in [3u8, 4] {
            let mut bytes = bytes::Bytes::from(vec![
                tag, 2, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0x53, 0x32, 0x2e, 0x44,
            ]);
            assert!(DbOp::decode(&mut bytes).is_err());
        }
    }
}
