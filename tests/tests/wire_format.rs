//! The wire format, pinned and attacked.
//!
//! WALs and channel logs are on-disk formats, so every codec generated from
//! a `crew_storage::wire!` table is held to three properties over one sample
//! per variant:
//!
//! - **golden bytes** — the encoding equals the hex recorded in
//!   `wire_golden.txt`, captured before the codecs were table-generated; a
//!   format change has to edit that file deliberately;
//! - **round trip** — decoding the encoding gives the value back and
//!   consumes every byte;
//! - **decode robustness** — every strict prefix decodes to `Err`, and no
//!   single-bit flip makes a decoder panic.

use bytes::Bytes;
use crew_central::{CentralMsg, CoordMsg};
use crew_distributed::{CoordRule, DistMsg, Weight, WorkflowPacket, WorkflowStatusKind};
use crew_model::{AgentId, DataEnv, InstanceId, ItemKey, SchemaId, StepId, StepState, Value};
use crew_rules::EventKind;
use crew_simnet::reliable::ChanRec;
use crew_simnet::NodeId;
use crew_storage::{DbOp, Decode, Encode, InstanceStatus, LogStore, MemStore, Wal};
use std::fmt::{Debug, Write as _};

/// Bit flips tried per sample, drawn from a fixed seed.
const FLIPS_PER_SAMPLE: usize = 64;

/// Collects the golden text while checking each sample.
#[derive(Default)]
struct Checker {
    golden: String,
    rng: u64,
}

impl Checker {
    /// Deterministic xorshift draw (the robustness half must repeat exactly).
    fn draw(&mut self, below: usize) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng % below as u64) as usize
    }

    fn check<T: Encode + Decode + PartialEq + Debug>(&mut self, label: &str, value: T) {
        let bytes = value.to_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        writeln!(self.golden, "{label} {hex}").unwrap();

        let mut buf = bytes.clone();
        assert_eq!(T::decode(&mut buf).as_ref(), Ok(&value), "{label}");
        assert!(buf.is_empty(), "{label}: trailing bytes");

        for cut in 0..bytes.len() {
            assert!(
                T::decode(&mut bytes.slice(0..cut)).is_err(),
                "{label}: the {cut}-byte prefix of {} bytes decoded",
                bytes.len()
            );
        }
        for _ in 0..FLIPS_PER_SAMPLE {
            let mut raw = bytes.to_vec();
            let bit = self.draw(raw.len() * 8);
            raw[bit / 8] ^= 1 << (bit % 8);
            // Either outcome is fine; a panic is not.
            let _ = T::decode(&mut Bytes::from(raw));
        }
    }
}

fn inst(n: u32) -> InstanceId {
    InstanceId::new(SchemaId(2), n)
}

fn data_env() -> DataEnv {
    [
        (ItemKey::input(1), Value::Int(90)),
        (ItemKey::output(StepId(1), 2), Value::Str("Gasket".into())),
    ]
    .into_iter()
    .collect()
}

fn rich_packet() -> WorkflowPacket {
    WorkflowPacket {
        instance: inst(4),
        target_step: StepId(3),
        source_step: Some(StepId(2)),
        executor: Some(AgentId(5)),
        data: data_env(),
        events: vec![
            (EventKind::WorkflowStart, 1),
            (EventKind::StepDone(StepId(1)), 2),
            (EventKind::Rollback(StepId(1)), 7),
        ],
        weight: Weight::new(3, 8),
    }
}

fn db_ops() -> Vec<(&'static str, DbOp)> {
    vec![
        (
            "DataWritten",
            DbOp::DataWritten {
                instance: inst(1),
                key: ItemKey::output(StepId(2), 1),
                value: Value::Int(45),
            },
        ),
        (
            "StepOutputsCleared",
            DbOp::StepOutputsCleared {
                instance: inst(1),
                step: StepId(2),
            },
        ),
        (
            "StepRecorded",
            DbOp::StepRecorded {
                instance: inst(1),
                step: StepId(2),
                state: StepState::Done,
                attempt: 2,
                outputs: vec![Value::Str("Gasket".into())],
            },
        ),
        (
            "StatusChanged",
            DbOp::StatusChanged {
                instance: inst(1),
                status: InstanceStatus::Committed,
            },
        ),
        ("InstancePurged", DbOp::InstancePurged { instance: inst(1) }),
        (
            "EngineInput",
            DbOp::EngineInput {
                from: u32::MAX,
                payload: vec![0, 1, 2, 255],
            },
        ),
        (
            "CommandsDropped",
            DbOp::CommandsDropped {
                records: 3_000,
                installs: 2,
            },
        ),
    ]
}

/// Every step state, in its wire-tag order.
fn step_states() -> [(&'static str, StepState); 5] {
    [
        ("Executing", StepState::Executing),
        ("Done", StepState::Done),
        ("Failed", StepState::Failed),
        ("Compensated", StepState::Compensated),
        ("NotExecuted", StepState::NotExecuted),
    ]
}

fn storage_samples(c: &mut Checker) {
    c.check("StepId", StepId(5));
    c.check("AgentId", AgentId(8));
    c.check("SchemaId", SchemaId(2));
    c.check("InstanceId", inst(4));
    c.check("NodeId", NodeId(6));
    c.check("ItemKey::WorkflowInput", ItemKey::input(1));
    c.check("ItemKey::StepOutput", ItemKey::output(StepId(3), 2));
    c.check("Value::Int", Value::Int(-90));
    c.check("Value::Float", Value::Float(-0.5));
    c.check("Value::Str", Value::Str("Blower".into()));
    c.check("Value::Bool", Value::Bool(true));
    // Had no codec of its own before the tables; these are the bytes it
    // occupies inside the recorded `WorkflowPacket/rich`.
    c.check("DataEnv", data_env());
    // Likewise: the one tag byte `DbOp::StatusChanged` / `StepRecorded`
    // carried for them.
    c.check("InstanceStatus::Executing", InstanceStatus::Executing);
    c.check("InstanceStatus::Committed", InstanceStatus::Committed);
    c.check("InstanceStatus::Aborted", InstanceStatus::Aborted);
    for (name, state) in step_states() {
        c.check(&format!("StepState::{name}"), state);
    }
    for (name, op) in db_ops() {
        c.check(&format!("DbOp::{name}"), op);
    }
}

fn coord_msgs() -> Vec<(&'static str, CoordMsg)> {
    vec![
        (
            "RoFirstDone",
            CoordMsg::RoFirstDone {
                req: 1,
                claimant: inst(1),
                partner: inst(2),
            },
        ),
        (
            "RoDecision",
            CoordMsg::RoDecision {
                req: 2,
                a: inst(1),
                b: inst(2),
                leader_side: 1,
            },
        ),
        (
            "RoRelease",
            CoordMsg::RoRelease {
                req: 3,
                k: 4,
                lagging: inst(2),
            },
        ),
        (
            "MutexAcquire",
            CoordMsg::MutexAcquire {
                req: 4,
                instance: inst(3),
                step: StepId(1),
            },
        ),
        (
            "MutexGrant",
            CoordMsg::MutexGrant {
                req: 5,
                instance: inst(3),
                step: StepId(1),
            },
        ),
        (
            "MutexRelease",
            CoordMsg::MutexRelease {
                req: 6,
                instance: inst(3),
                step: StepId(1),
            },
        ),
        (
            "RollbackDep",
            CoordMsg::RollbackDep {
                instance: inst(4),
                origin: StepId(2),
            },
        ),
    ]
}

fn central_samples(c: &mut Checker) {
    let msgs = vec![
        (
            "WorkflowStart",
            CentralMsg::WorkflowStart {
                instance: inst(1),
                inputs: vec![
                    (ItemKey::input(0), Value::Int(7)),
                    (ItemKey::input(1), Value::Bool(true)),
                ],
            },
        ),
        (
            "WorkflowChangeInputs",
            CentralMsg::WorkflowChangeInputs {
                instance: inst(2),
                new_inputs: vec![(ItemKey::output(StepId(3), 0), Value::Str("x".into()))],
            },
        ),
        (
            "WorkflowAbort",
            CentralMsg::WorkflowAbort { instance: inst(3) },
        ),
        (
            "ExecRequest",
            CentralMsg::ExecRequest {
                instance: inst(5),
                step: StepId(2),
                program: "passthrough".into(),
                inputs: vec![Some(Value::Float(0.5)), None],
                attempt: 2,
                cost: 99,
            },
        ),
        ("StateProbe", CentralMsg::StateProbe),
        (
            "CompensateRequest",
            CentralMsg::CompensateRequest {
                instance: inst(6),
                step: StepId(1),
                program: Some("undo".into()),
                partial: true,
                for_abort: false,
            },
        ),
        (
            "ExecResult/ok",
            CentralMsg::ExecResult {
                instance: inst(7),
                step: StepId(3),
                attempt: 1,
                outputs: Some(vec![Value::Int(1)]),
            },
        ),
        (
            "ExecResult/err",
            CentralMsg::ExecResult {
                instance: inst(7),
                step: StepId(3),
                attempt: 2,
                outputs: None,
            },
        ),
        ("StateProbeReply", CentralMsg::StateProbeReply),
        (
            "CompensateResult",
            CentralMsg::CompensateResult {
                instance: inst(8),
                step: StepId(4),
                for_abort: true,
            },
        ),
        (
            "ChildStart",
            CentralMsg::ChildStart {
                child: inst(9),
                inputs: vec![],
                parent: inst(1),
                parent_step: StepId(5),
            },
        ),
        (
            "ChildDone",
            CentralMsg::ChildDone {
                parent: inst(1),
                parent_step: StepId(5),
                outputs: vec![Value::Bool(false)],
            },
        ),
        (
            "MigrateRequest",
            CentralMsg::MigrateRequest {
                instance: inst(10),
                target: 7,
            },
        ),
        (
            "MigrateState",
            CentralMsg::MigrateState {
                instance: inst(10),
                records: vec![(3, vec![1, 2, 3]), (u32::MAX, vec![])],
            },
        ),
        ("MigrateAck", CentralMsg::MigrateAck { instance: inst(10) }),
        (
            "OwnerChanged",
            CentralMsg::OwnerChanged {
                instance: inst(10),
                owner: 3,
            },
        ),
    ];
    for (name, msg) in msgs {
        c.check(&format!("CentralMsg::{name}"), msg);
    }
    for (name, coord) in coord_msgs() {
        c.check(&format!("CoordMsg::{name}"), coord.clone());
        c.check(
            &format!("CentralMsg::Coord/{name}"),
            CentralMsg::Coord(coord),
        );
    }
}

fn coord_rules() -> Vec<(&'static str, CoordRule)> {
    vec![
        (
            "RoFirstDone",
            CoordRule::RoFirstDone {
                req: 1,
                claimant: inst(1),
                partner: inst(2),
            },
        ),
        (
            "MutexAcquire",
            CoordRule::MutexAcquire {
                req: 2,
                instance: inst(1),
                step: StepId(1),
            },
        ),
        (
            "MutexRelease",
            CoordRule::MutexRelease {
                req: 3,
                instance: inst(1),
                step: StepId(1),
            },
        ),
        (
            "RoNotify",
            CoordRule::RoNotify {
                req: 4,
                instance: inst(1),
                local_step: StepId(2),
                target_instance: inst(2),
            },
        ),
    ]
}

fn dist_samples(c: &mut Checker) {
    c.check("WorkflowPacket/rich", rich_packet());
    c.check(
        "WorkflowPacket/initial",
        WorkflowPacket::initial(inst(1), StepId(1), DataEnv::new()),
    );
    let (instance, step) = (inst(1), StepId(2));
    let msgs = vec![
        (
            "WorkflowStart",
            DistMsg::WorkflowStart {
                instance,
                inputs: vec![(ItemKey::input(0), Value::Int(1))],
                parent: Some((inst(2), StepId(3))),
            },
        ),
        (
            "WorkflowChangeInputs",
            DistMsg::WorkflowChangeInputs {
                instance,
                new_inputs: vec![(ItemKey::input(0), Value::Bool(true))],
            },
        ),
        ("WorkflowAbort", DistMsg::WorkflowAbort { instance }),
        ("WorkflowStatus", DistMsg::WorkflowStatus { instance }),
        ("WorkflowCommitted", DistMsg::WorkflowCommitted { instance }),
        ("WorkflowAborted", DistMsg::WorkflowAborted { instance }),
        (
            "StepExecute",
            DistMsg::StepExecute {
                packet: rich_packet(),
            },
        ),
        (
            "StepCompleted",
            DistMsg::StepCompleted {
                instance,
                step,
                weight: Weight::new(1, 4),
            },
        ),
        ("StateInformation", DistMsg::StateInformation { token: 9 }),
        (
            "StateInformationReply",
            DistMsg::StateInformationReply {
                token: 9,
                load: 777,
            },
        ),
        (
            "NestedCompleted",
            DistMsg::NestedCompleted {
                parent: instance,
                parent_step: step,
                child: inst(3),
                outputs: vec![Value::Float(1.5)],
            },
        ),
        (
            "InputsChanged",
            DistMsg::InputsChanged {
                instance,
                origin: StepId(1),
                new_inputs: vec![],
            },
        ),
        (
            "WorkflowRollback",
            DistMsg::WorkflowRollback {
                instance,
                origin: StepId(1),
                from_dependency: true,
            },
        ),
        (
            "HaltThread",
            DistMsg::HaltThread {
                instance,
                origin: StepId(1),
                rollback: 2,
            },
        ),
        ("StepCompensate", DistMsg::StepCompensate { instance, step }),
        (
            "StepCompensateAck",
            DistMsg::StepCompensateAck {
                instance,
                step,
                compensated: true,
            },
        ),
        (
            "CompensateSet",
            DistMsg::CompensateSet {
                instance,
                origin: StepId(1),
                steps: vec![StepId(2), StepId(3)],
            },
        ),
        (
            "CompensateThread",
            DistMsg::CompensateThread {
                instance,
                steps: vec![StepId(4)],
            },
        ),
        ("StepStatus", DistMsg::StepStatus { instance, step }),
        ("ExecuteRequest", DistMsg::ExecuteRequest { instance, step }),
        ("StepRetry", DistMsg::StepRetry { instance, step }),
        ("AddEvent", DistMsg::AddEvent { instance, tag: 4 }),
        (
            "PurgeBroadcast",
            DistMsg::PurgeBroadcast {
                instances: vec![inst(1), inst(2)],
            },
        ),
    ];
    for (name, msg) in msgs {
        c.check(&format!("DistMsg::{name}"), msg);
    }
    for (name, status) in [
        ("committed", WorkflowStatusKind::Committed),
        ("aborted", WorkflowStatusKind::Aborted),
        ("executing", WorkflowStatusKind::Executing),
        ("unknown", WorkflowStatusKind::Unknown),
        ("abort-rejected", WorkflowStatusKind::AbortRejected),
        ("change-rejected", WorkflowStatusKind::ChangeRejected),
    ] {
        c.check(
            &format!("DistMsg::WorkflowStatusReply/{name}"),
            DistMsg::WorkflowStatusReply { instance, status },
        );
    }
    for (name, status) in step_states() {
        c.check(
            &format!("DistMsg::StepStatusReply/{name}"),
            DistMsg::StepStatusReply {
                instance,
                step,
                status,
            },
        );
    }
    for (name, rule) in coord_rules() {
        c.check(&format!("CoordRule::{name}"), rule);
        c.check(
            &format!("DistMsg::AddRule/{name}"),
            DistMsg::AddRule { rule },
        );
    }
}

fn channel_samples(c: &mut Checker) {
    c.check(
        "ChanRec::Sent",
        ChanRec::Sent {
            to: NodeId(3),
            seq: 9,
            payload: 77u64,
        },
    );
    c.check(
        "ChanRec::Sent/CentralMsg",
        ChanRec::Sent {
            to: NodeId(3),
            seq: 9,
            payload: CentralMsg::WorkflowAbort { instance: inst(3) },
        },
    );
    c.check(
        "ChanRec::Acked",
        ChanRec::<u64>::Acked {
            peer: NodeId(1),
            cum: 4,
        },
    );
    c.check(
        "ChanRec::Delivered",
        ChanRec::<u64>::Delivered {
            peer: NodeId(2),
            cum: 6,
        },
    );
    c.check(
        "ChanRec::Checkpoint",
        ChanRec::<u64>::Checkpoint {
            next_seq: vec![(NodeId(1), 12), (NodeId(4), 3)],
            delivered: vec![(NodeId(2), 9)],
        },
    );
}

#[test]
fn every_wire_type_matches_its_golden_bytes_and_decodes_robustly() {
    let mut c = Checker {
        rng: 0x9E37_79B9_7F4A_7C15,
        ..Checker::default()
    };
    storage_samples(&mut c);
    central_samples(&mut c);
    dist_samples(&mut c);
    channel_samples(&mut c);
    let golden = include_str!("wire_golden.txt");
    assert!(
        c.golden == golden,
        "wire format moved; encodings now:\n{}",
        c.golden
    );
}

/// The log image a `Wal<DbOp>` leaves behind: frame header (length, CRC-32)
/// and payload bytes are pinned like the record encodings, and the recovery
/// scan survives the same attacks a decoder does. The golden file holds the
/// image in rows, each row the frames of the records added together, so a
/// new record kind adds a row and moves none.
#[test]
fn wal_image_is_golden_and_recovers_robustly() {
    let ops: Vec<DbOp> = db_ops().into_iter().map(|(_, op)| op).collect();
    let mut wal: Wal<DbOp> = Wal::in_memory();
    wal.append_batch(&ops).unwrap();
    let image = wal.store_mut().read_all().unwrap();
    let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
    let golden: String = include_str!("wal_golden.txt").lines().collect();
    assert_eq!(hex, golden);

    let recover = |raw: &[u8]| -> Vec<DbOp> {
        let mut store = MemStore::default();
        store.append(raw).unwrap();
        Wal::<DbOp>::with_store(store).recover().unwrap()
    };
    assert_eq!(recover(&image), ops);
    // A strict prefix recovers the records whose frames it holds in full,
    // and nothing else.
    for cut in 0..image.len() {
        let got = recover(&image[..cut]);
        assert!(got.len() < ops.len(), "cut {cut}");
        assert_eq!(got[..], ops[..got.len()], "cut {cut}");
    }
    // A flipped bit is caught by the frame CRC (or tears the frame): the
    // scan stops there, so what it returns is still a prefix.
    let mut c = Checker {
        rng: 0xD1B5_4A32_D192_ED03,
        ..Checker::default()
    };
    for _ in 0..4 * FLIPS_PER_SAMPLE {
        let mut raw = image.clone();
        let bit = c.draw(raw.len() * 8);
        raw[bit / 8] ^= 1 << (bit % 8);
        let got = recover(&raw);
        assert!(got.len() < ops.len(), "bit {bit}");
        assert_eq!(got[..], ops[..got.len()], "bit {bit}");
    }
}
