//! Wire tables for [`CentralMsg`] and [`CoordMsg`], so centralized/parallel
//! traffic can ride the simulator's WAL-backed reliable channels (the
//! durable outbox needs to persist message payloads across fail-stop
//! crashes) and engines can journal their inputs.
//!
//! The number at the head of a row is the variant's `u8` tag on the wire.
//! Tags are dense from zero in the order the variants were added; a new
//! variant takes the next free number and no number is ever reused, because
//! WALs and channel logs written before the change must still decode.

use crate::msg::{CentralMsg, CoordMsg};
use crew_storage::wire;

wire! {
    enum CoordMsg {
        0 => RoFirstDone { req, claimant, partner },
        1 => RoDecision { req, a, b, leader_side },
        2 => RoRelease { req, k, lagging },
        3 => MutexAcquire { req, instance, step },
        4 => MutexGrant { req, instance, step },
        5 => MutexRelease { req, instance, step },
        6 => RollbackDep { instance, origin },
    }
}

// Retired tags are left unused and never reused: 5 `StateProbe` with a
// token, 7 `ExecResult` with an error string and 8 `StateProbeReply` with
// a token and a load, fields no handler read; 3 `WorkflowStatus`, a
// request no one sent (the admin tool reads the WFDB summary directly).
wire! {
    enum CentralMsg {
        0 => WorkflowStart { instance, inputs },
        1 => WorkflowChangeInputs { instance, new_inputs },
        2 => WorkflowAbort { instance },
        4 => ExecRequest { instance, step, program, inputs, attempt, cost },
        6 => CompensateRequest { instance, step, program, partial, for_abort },
        9 => CompensateResult { instance, step, for_abort },
        10 => Coord(c),
        11 => ChildStart { child, inputs, parent, parent_step },
        12 => ChildDone { parent, parent_step, outputs },
        // Live-migration protocol (crew-shard).
        13 => MigrateRequest { instance, target },
        14 => MigrateState { instance, records },
        15 => MigrateAck { instance },
        16 => OwnerChanged { instance, owner },
        17 => StateProbe,
        18 => ExecResult { instance, step, attempt, outputs },
        19 => StateProbeReply,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Buf, Bytes};
    use crew_model::{InstanceId, ItemKey, SchemaId, StepId, Value};
    use crew_storage::{CodecError, Decode, Encode};
    use proptest::prelude::*;

    fn inst(n: u32) -> InstanceId {
        InstanceId::new(SchemaId(2), n)
    }

    fn round_trip(msg: CentralMsg) {
        let bytes = msg.to_bytes();
        let mut buf = bytes.clone();
        let back = CentralMsg::decode(&mut buf).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(buf.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(CentralMsg::WorkflowStart {
            instance: inst(1),
            inputs: vec![
                (ItemKey::input(0), Value::Int(7)),
                (ItemKey::input(1), Value::Bool(true)),
            ],
        });
        round_trip(CentralMsg::WorkflowChangeInputs {
            instance: inst(2),
            new_inputs: vec![(ItemKey::output(StepId(3), 0), Value::Str("x".into()))],
        });
        round_trip(CentralMsg::WorkflowAbort { instance: inst(3) });
        round_trip(CentralMsg::ExecRequest {
            instance: inst(5),
            step: StepId(2),
            program: "passthrough".into(),
            inputs: vec![Some(Value::Float(0.5)), None],
            attempt: 2,
            cost: 99,
        });
        round_trip(CentralMsg::StateProbe);
        round_trip(CentralMsg::CompensateRequest {
            instance: inst(6),
            step: StepId(1),
            program: Some("undo".into()),
            partial: true,
            for_abort: false,
        });
        round_trip(CentralMsg::ExecResult {
            instance: inst(7),
            step: StepId(3),
            attempt: 1,
            outputs: Some(vec![Value::Int(1)]),
        });
        round_trip(CentralMsg::ExecResult {
            instance: inst(7),
            step: StepId(3),
            attempt: 2,
            outputs: None,
        });
        round_trip(CentralMsg::StateProbeReply);
        round_trip(CentralMsg::CompensateResult {
            instance: inst(8),
            step: StepId(4),
            for_abort: true,
        });
        round_trip(CentralMsg::ChildStart {
            child: inst(9),
            inputs: vec![],
            parent: inst(1),
            parent_step: StepId(5),
        });
        round_trip(CentralMsg::ChildDone {
            parent: inst(1),
            parent_step: StepId(5),
            outputs: vec![Value::Bool(false)],
        });
        round_trip(CentralMsg::MigrateRequest {
            instance: inst(10),
            target: 7,
        });
        round_trip(CentralMsg::MigrateState {
            instance: inst(10),
            records: vec![(3, vec![1, 2, 3]), (u32::MAX, vec![])],
        });
        round_trip(CentralMsg::MigrateAck { instance: inst(10) });
        round_trip(CentralMsg::OwnerChanged {
            instance: inst(10),
            owner: 3,
        });
    }

    #[test]
    fn coord_variants_round_trip() {
        for c in [
            CoordMsg::RoFirstDone {
                req: 1,
                claimant: inst(1),
                partner: inst(2),
            },
            CoordMsg::RoDecision {
                req: 2,
                a: inst(1),
                b: inst(2),
                leader_side: 1,
            },
            CoordMsg::RoRelease {
                req: 3,
                k: 4,
                lagging: inst(2),
            },
            CoordMsg::MutexAcquire {
                req: 4,
                instance: inst(3),
                step: StepId(1),
            },
            CoordMsg::MutexGrant {
                req: 5,
                instance: inst(3),
                step: StepId(1),
            },
            CoordMsg::MutexRelease {
                req: 6,
                instance: inst(3),
                step: StepId(1),
            },
            CoordMsg::RollbackDep {
                instance: inst(4),
                origin: StepId(2),
            },
        ] {
            round_trip(CentralMsg::Coord(c));
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = Bytes::from_static(&[200u8]);
        assert!(matches!(
            CentralMsg::decode(&mut buf),
            Err(CodecError::BadTag {
                context: "CentralMsg",
                tag: 200
            })
        ));
    }

    #[test]
    fn retired_tag_does_not_decode() {
        // Golden bytes from before the retirement: StateProbe { token
        // u64::MAX }, ExecResult { WF2 #7, S3, attempt 1, outputs [1],
        // error None }, StateProbeReply { token 4, load 1000 } and
        // WorkflowStatus { WF2 #4 }.
        let samples = [
            ("05ffffffffffffffff", 5),
            (
                "0702000000070000000300000001000000010100000000010000000000000000",
                7,
            ),
            ("080400000000000000e803000000000000", 8),
            ("030200000004000000", 3),
        ];
        for (hex, tag) in samples {
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                .collect();
            let got = CentralMsg::decode(&mut Bytes::from(bytes));
            let want = CodecError::BadTag {
                context: "CentralMsg",
                tag,
            };
            assert_eq!(got, Err(want), "{hex}");
        }
    }

    proptest! {
        /// Migration messages round-trip for arbitrary identities and
        /// record slices (the payloads are opaque bytes on the wire).
        #[test]
        fn migration_messages_round_trip(
            schema in 0u32..64,
            serial in 0u32..1_000_000,
            target in 0u32..1024,
            records in proptest::collection::vec(
                (0u32..4096, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48)),
                0..12,
            ),
        ) {
            let instance = InstanceId::new(SchemaId(schema), serial);
            round_trip(CentralMsg::MigrateRequest { instance, target });
            round_trip(CentralMsg::MigrateState { instance, records: records.clone() });
            round_trip(CentralMsg::MigrateAck { instance });
            round_trip(CentralMsg::OwnerChanged { instance, owner: target });
        }
    }
}
