//! Wire tables for [`DistMsg`] and [`WorkflowPacket`], so distributed
//! traffic can ride the simulator's WAL-backed reliable channels (the
//! durable outbox persists message payloads across fail-stop crashes).
//!
//! The number at the head of a row is the variant's `u8` tag on the wire;
//! a new variant takes the next free number and no number is ever reused.
//!
//! [`EventKind`] and [`Weight`] belong to other crates, so neither can
//! implement the codec traits here: their fields go `via` the function
//! pairs below.

use crate::msg::{CoordRule, DistMsg, WorkflowStatusKind};
use crate::packet::WorkflowPacket;
use crate::weight::Weight;
use bytes::{Bytes, BytesMut};
use crew_rules::EventKind;
use crew_storage::{wire, CodecError, Decode, Encode};

// ---- foreign-type fields ---------------------------------------------------

// `EventKind` tags 2–6 are retired (`step.fail`, `step.compensate`,
// `workflow.done`, `workflow.abort`, external): no rule waits on them, so
// no packet carries them.
fn encode_events(events: &[(EventKind, u32)], buf: &mut BytesMut) {
    (events.len() as u32).encode(buf);
    for (e, gen) in events {
        match e {
            EventKind::WorkflowStart => 0u8.encode(buf),
            EventKind::StepDone(s) => {
                1u8.encode(buf);
                s.encode(buf);
            }
            EventKind::Rollback(s) => {
                7u8.encode(buf);
                s.encode(buf);
            }
        }
        gen.encode(buf);
    }
}

fn decode_events(buf: &mut Bytes) -> Result<Vec<(EventKind, u32)>, CodecError> {
    let n = u32::decode(buf)?;
    let mut events = Vec::with_capacity(n.min(4096) as usize);
    for _ in 0..n {
        let e = match u8::decode(buf)? {
            0 => EventKind::WorkflowStart,
            1 => EventKind::StepDone(Decode::decode(buf)?),
            7 => EventKind::Rollback(Decode::decode(buf)?),
            tag => {
                return Err(CodecError::BadTag {
                    context: "EventKind",
                    tag,
                })
            }
        };
        events.push((e, u32::decode(buf)?));
    }
    Ok(events)
}

fn encode_weight(w: &Weight, buf: &mut BytesMut) {
    w.parts().encode(buf);
}

fn decode_weight(buf: &mut Bytes) -> Result<Weight, CodecError> {
    let (num, den) = Decode::decode(buf)?;
    // A zero denominator cannot come from Weight::parts(); treat it as
    // corruption rather than panicking inside Weight::new.
    if den == 0 {
        return Err(CodecError::BadTag {
            context: "Weight",
            tag: 0,
        });
    }
    Ok(Weight::new(num, den))
}

// ---- protocol types -------------------------------------------------------

wire! {
    enum WorkflowStatusKind {
        0 => Committed,
        1 => Aborted,
        2 => Executing,
        3 => Unknown,
        4 => AbortRejected,
        5 => ChangeRejected,
    }
}

// Tag 3 is retired: `RoNotify` with the tag and lagging step its
// receiver now derives from the order.
wire! {
    enum CoordRule {
        0 => RoFirstDone { req, claimant, partner },
        1 => MutexAcquire { req, instance, step },
        2 => MutexRelease { req, instance, step },
        4 => RoNotify { req, instance, local_step, target_instance },
    }
}

wire! {
    struct WorkflowPacket {
        instance,
        target_step,
        source_step,
        executor,
        data,
        events via (encode_events, decode_events),
        weight via (encode_weight, decode_weight),
    }
}

// Retired tags are left unused and never reused, so a channel log written
// with one fails to decode instead of being misread: 7 is `StepExecute`
// whose packet carried relative-order tags, 24 `AddPrecondition`, a
// message form of those tags (every agent now wires the ordering guards at
// instantiation), 20 `StepStatusReply` with a four-value status of its
// own (its row now carries the step's `StepState`), 27 `StepExecute` whose
// packet carried the instance's rollback epoch, and 14 `HaltThread` with
// that epoch where its row now numbers the rollback among its origin's.
wire! {
    enum DistMsg {
        0 => WorkflowStart { instance, inputs, parent },
        1 => WorkflowChangeInputs { instance, new_inputs },
        2 => WorkflowAbort { instance },
        3 => WorkflowStatus { instance },
        4 => WorkflowStatusReply { instance, status },
        5 => WorkflowCommitted { instance },
        6 => WorkflowAborted { instance },
        8 => StepCompleted { instance, step, weight via (encode_weight, decode_weight) },
        9 => StateInformation { token },
        10 => StateInformationReply { token, load },
        11 => NestedCompleted { parent, parent_step, child, outputs },
        12 => InputsChanged { instance, origin, new_inputs },
        13 => WorkflowRollback { instance, origin, from_dependency },
        15 => StepCompensate { instance, step },
        16 => StepCompensateAck { instance, step, compensated },
        17 => CompensateSet { instance, origin, steps },
        18 => CompensateThread { instance, steps },
        19 => StepStatus { instance, step },
        21 => ExecuteRequest { instance, step },
        22 => AddRule { rule },
        23 => AddEvent { instance, tag },
        25 => PurgeBroadcast { instances },
        26 => StepRetry { instance, step },
        28 => StepStatusReply { instance, step, status },
        29 => StepExecute { packet },
        30 => HaltThread { instance, origin, rollback },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;
    use crew_model::{DataEnv, InstanceId, ItemKey, SchemaId, StepId, StepState, Value};

    fn inst(n: u32) -> InstanceId {
        InstanceId::new(SchemaId(2), n)
    }

    fn round_trip(msg: DistMsg) {
        let bytes = msg.to_bytes();
        let mut buf = bytes.clone();
        let back = DistMsg::decode(&mut buf).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(buf.remaining(), 0, "no trailing bytes for {}", bytes.len());
    }

    fn rich_packet() -> WorkflowPacket {
        let mut data = DataEnv::new();
        data.set(ItemKey::input(1), Value::Int(90));
        data.set(ItemKey::output(StepId(1), 2), Value::Str("Gasket".into()));
        WorkflowPacket {
            instance: inst(4),
            target_step: StepId(3),
            source_step: Some(StepId(2)),
            executor: Some(crew_model::AgentId(5)),
            data,
            events: vec![
                (EventKind::WorkflowStart, 1),
                (EventKind::StepDone(StepId(1)), 2),
                (EventKind::Rollback(StepId(1)), 7),
            ],
            weight: Weight::new(3, 8),
        }
    }

    #[test]
    fn packet_round_trips_with_all_payloads() {
        round_trip(DistMsg::StepExecute {
            packet: rich_packet(),
        });
        round_trip(DistMsg::StepExecute {
            packet: WorkflowPacket::initial(inst(1), StepId(1), DataEnv::new()),
        });
    }

    #[test]
    fn all_message_variants_round_trip() {
        let msgs = vec![
            DistMsg::WorkflowStart {
                instance: inst(1),
                inputs: vec![(ItemKey::input(0), Value::Int(1))],
                parent: Some((inst(2), StepId(3))),
            },
            DistMsg::WorkflowChangeInputs {
                instance: inst(1),
                new_inputs: vec![(ItemKey::input(0), Value::Bool(true))],
            },
            DistMsg::WorkflowAbort { instance: inst(1) },
            DistMsg::WorkflowStatus { instance: inst(1) },
            DistMsg::WorkflowCommitted { instance: inst(1) },
            DistMsg::WorkflowAborted { instance: inst(1) },
            DistMsg::StepCompleted {
                instance: inst(1),
                step: StepId(2),
                weight: Weight::new(1, 4),
            },
            DistMsg::StateInformation { token: 9 },
            DistMsg::StateInformationReply {
                token: 9,
                load: 777,
            },
            DistMsg::NestedCompleted {
                parent: inst(1),
                parent_step: StepId(2),
                child: inst(3),
                outputs: vec![Value::Float(1.5)],
            },
            DistMsg::InputsChanged {
                instance: inst(1),
                origin: StepId(1),
                new_inputs: vec![],
            },
            DistMsg::WorkflowRollback {
                instance: inst(1),
                origin: StepId(1),
                from_dependency: true,
            },
            DistMsg::HaltThread {
                instance: inst(1),
                origin: StepId(1),
                rollback: 2,
            },
            DistMsg::StepCompensate {
                instance: inst(1),
                step: StepId(2),
            },
            DistMsg::StepCompensateAck {
                instance: inst(1),
                step: StepId(2),
                compensated: true,
            },
            DistMsg::CompensateSet {
                instance: inst(1),
                origin: StepId(1),
                steps: vec![StepId(2), StepId(3)],
            },
            DistMsg::CompensateThread {
                instance: inst(1),
                steps: vec![StepId(4)],
            },
            DistMsg::StepStatus {
                instance: inst(1),
                step: StepId(2),
            },
            DistMsg::ExecuteRequest {
                instance: inst(1),
                step: StepId(2),
            },
            DistMsg::StepRetry {
                instance: inst(1),
                step: StepId(2),
            },
            DistMsg::AddEvent {
                instance: inst(1),
                tag: 4,
            },
            DistMsg::PurgeBroadcast {
                instances: vec![inst(1), inst(2)],
            },
        ];
        for m in msgs {
            round_trip(m);
        }
    }

    #[test]
    fn status_replies_round_trip_the_whole_vocabulary() {
        for status in [
            WorkflowStatusKind::Committed,
            WorkflowStatusKind::Aborted,
            WorkflowStatusKind::Executing,
            WorkflowStatusKind::Unknown,
            WorkflowStatusKind::AbortRejected,
            WorkflowStatusKind::ChangeRejected,
        ] {
            round_trip(DistMsg::WorkflowStatusReply {
                instance: inst(1),
                status,
            });
        }
        for status in [
            StepState::NotExecuted,
            StepState::Executing,
            StepState::Done,
            StepState::Failed,
            StepState::Compensated,
        ] {
            round_trip(DistMsg::StepStatusReply {
                instance: inst(1),
                step: StepId(1),
                status,
            });
        }
    }

    #[test]
    fn coord_rules_round_trip() {
        for rule in [
            CoordRule::RoFirstDone {
                req: 1,
                claimant: inst(1),
                partner: inst(2),
            },
            CoordRule::MutexAcquire {
                req: 2,
                instance: inst(1),
                step: StepId(1),
            },
            CoordRule::MutexRelease {
                req: 3,
                instance: inst(1),
                step: StepId(1),
            },
            CoordRule::RoNotify {
                req: 4,
                instance: inst(1),
                local_step: StepId(2),
                target_instance: inst(2),
            },
        ] {
            round_trip(DistMsg::AddRule { rule });
        }
    }

    #[test]
    fn retired_tag_does_not_decode() {
        // Golden bytes from before each retirement: AddPrecondition
        // { instance WF2 #1, step S2, tag 4 }; StepExecute of the initial
        // packet of WF2 #1, with its two empty tag lists; AddRule of a
        // RoNotify that still named the tag and the lagging step; StepExecute
        // of a packet whose event list still held `S2.F` (tag 2) and the
        // other retired event kinds (re-framed under today's StepExecute
        // row, which carries no epoch); StepStatusReply { WF2 #1, S2, Done }
        // under its old tag; StepExecute of the rich golden packet with
        // rollback epoch 7; HaltThread { WF2 #1, S1, epoch 2 }.
        let samples = [
            ("180200000001000000020000000400000000000000", "DistMsg", 24),
            (
                "0702000000010000000100000000000000000000000000010000000001000000\
                 000000000000000001000000000000000100000000000000",
                "DistMsg",
                7,
            ),
            (
                "160304000000020000000100000002000000ab000000000000000200000002000000\
                 03000000",
                "CoordRule",
                3,
            ),
            (
                "1d020000000400000003000000010200000001050000000200000000\
                 0100005a000000000000000101000000020002060000004761736b6574070000\
                 0000010000000101000000020000000202000000010000000302000000010000\
                 000401000000050100000006efbe000000000000030000000300000000000000\
                 0800000000000000",
                "EventKind",
                2,
            ),
            ("1402000000010000000200000002", "DistMsg", 20),
            (
                "1b020000000400000003000000010200000001050000000700000002000000\
                 000100005a000000000000000101000000020002060000004761736b65740200\
                 0000000100000001010000000200000003000000000000000800000000000000",
                "DistMsg",
                27,
            ),
            ("0e02000000010000000100000002000000", "DistMsg", 14),
        ];
        for (hex, context, tag) in samples {
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                .collect();
            let got = DistMsg::decode(&mut Bytes::from(bytes));
            assert_eq!(got, Err(CodecError::BadTag { context, tag }), "{hex}");
        }
    }

    /// A completion weight is checked on decode as in a packet: a zero
    /// denominator is corruption, not a panic in `Weight::new`.
    #[test]
    fn step_completed_with_a_zero_denominator_does_not_decode() {
        // StepCompleted { instance WF2 #1, step S2, weight 1/0 }.
        let mut frame = BytesMut::new();
        8u8.encode(&mut frame);
        inst(1).encode(&mut frame);
        StepId(2).encode(&mut frame);
        (1u64, 0u64).encode(&mut frame);
        let got = DistMsg::decode(&mut frame.freeze());
        assert!(
            matches!(
                got,
                Err(CodecError::BadTag {
                    context: "Weight",
                    ..
                })
            ),
            "{got:?}"
        );
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = Bytes::from_static(&[99u8]);
        assert!(matches!(
            DistMsg::decode(&mut buf),
            Err(CodecError::BadTag {
                context: "DistMsg",
                tag: 99
            })
        ));
    }
}
