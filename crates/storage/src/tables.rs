//! The workflow database tables.
//!
//! §2 and §4.1 describe the same table layout at the central engine (WFDB)
//! and at every distributed agent (AGDB): a *workflow class table* per
//! schema linked to *workflow instance tables* (data + event state per
//! instance), a *step table* (step status/results), and — at coordination
//! agents only — the *coordination instance summary table* that serves
//! front-end status requests.
//!
//! [`AgentDb`] is that store, with every mutation expressed as a loggable
//! [`DbOp`] so the node's WAL can forward-recover the exact projection
//! after a crash: `apply(op)` both mutates and (at the caller's choice)
//! appends to the log; `replay(ops)` rebuilds from scratch.

use crate::wire;
use crew_model::{DataEnv, InstanceId, ItemKey, SchemaId, StepId, Value};
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

/// One loggable mutation of the agent database. Variant fields follow
/// the naming of the tables they touch; every variant but `EngineInput`
/// names the `instance` whose tables it changes.
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
    /// Record an event occurrence (by its stable code, e.g. "S2.D").
    EventPosted { instance: InstanceId, code: String },
    /// Invalidate an event occurrence (rollback).
    EventInvalidated { instance: InstanceId, code: String },
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
    /// rebuilds every volatile structure the table ops cannot capture
    /// (rule-set firing state, flow weights, OCR bookkeeping, in-flight
    /// coordination). Not a table mutation — [`AgentDb::apply`] ignores it.
    EngineInput {
        /// Sending node id (`u32::MAX` = external).
        from: u32,
        /// Codec-encoded message payload.
        payload: Vec<u8>,
    },
}

wire! {
    enum DbOp {
        0 => InstanceCreated { instance },
        1 => DataWritten { instance, key, value },
        2 => StepOutputsCleared { instance, step },
        3 => EventPosted { instance, code },
        4 => EventInvalidated { instance, code },
        5 => StepRecorded { instance, step, state, attempt, outputs },
        6 => StatusChanged { instance, status },
        7 => InstancePurged { instance },
        8 => EngineInput { from, payload },
    }
}

/// Persisted per-instance state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstanceTable {
    /// The instance data table.
    pub data: DataEnv,
    /// Present (valid) event codes with occurrence counts.
    pub events: BTreeMap<String, u32>,
    /// Step table rows: persisted status per step.
    pub steps: BTreeMap<StepId, (StoredStepState, u32, Vec<Value>)>,
}

/// The agent/engine database: instance tables plus the coordination
/// instance summary.
#[derive(Debug, Clone, Default)]
pub struct AgentDb {
    instances: BTreeMap<InstanceId, InstanceTable>,
    /// Coordination instance summary table (only populated at nodes acting
    /// as coordination agents / the central engine).
    summary: BTreeMap<InstanceId, InstanceStatus>,
}

impl AgentDb {
    /// Create a new, empty value.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one mutation to the projection. (Appending to the WAL is the
    /// caller's job — write ahead, then apply.)
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
            DbOp::EventPosted { instance, code } => {
                *self
                    .instances
                    .entry(*instance)
                    .or_default()
                    .events
                    .entry(code.clone())
                    .or_default() += 1;
            }
            DbOp::EventInvalidated { instance, code } => {
                if let Some(t) = self.instances.get_mut(instance) {
                    t.events.remove(code);
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
            DbOp::EngineInput { .. } => {
                // Command record: consumed by engine replay, not a table op.
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

    /// Instances of `schema` known to this node.
    pub fn instances_of(&self, schema: SchemaId) -> Vec<InstanceId> {
        self.instances
            .keys()
            .filter(|i| i.schema == schema)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};
    use crate::wal::Wal;

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
            DbOp::EventPosted {
                instance: inst(1),
                code: "S2.D".into(),
            },
            DbOp::EventInvalidated {
                instance: inst(1),
                code: "S2.D".into(),
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
        db.apply(&DbOp::EventPosted {
            instance: inst(1),
            code: "WF.S".into(),
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
        assert_eq!(t.events["WF.S"], 1);
        assert_eq!(t.steps[&StepId(1)].0, StoredStepState::Done);
        assert_eq!(db.status(inst(1)), Some(InstanceStatus::Executing));
        assert_eq!(db.instances_of(SchemaId(1)), vec![inst(1)]);
        assert!(db.instances_of(SchemaId(9)).is_empty());
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
            DbOp::EventPosted {
                instance: inst(1),
                code: "S1.D".into(),
            },
            DbOp::EventPosted {
                instance: inst(1),
                code: "S1.D".into(),
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
        assert_eq!(replayed.instance(inst(1)).unwrap().events["S1.D"], 2);
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
            DbOp::EventPosted {
                instance: inst(4),
                code: "S1.D".into(),
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
    fn invalidation_removes_event() {
        let mut db = AgentDb::new();
        db.apply(&DbOp::EventPosted {
            instance: inst(1),
            code: "S3.D".into(),
        });
        db.apply(&DbOp::EventInvalidated {
            instance: inst(1),
            code: "S3.D".into(),
        });
        assert!(db.instance(inst(1)).unwrap().events.is_empty());
    }
}
