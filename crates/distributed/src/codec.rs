//! Wire tables for [`DistMsg`] and [`WorkflowPacket`], so distributed
//! traffic can ride the simulator's WAL-backed reliable channels (the
//! durable outbox persists message payloads across fail-stop crashes).
//!
//! The number at the head of a row is the variant's `u8` tag on the wire;
//! a new variant takes the next free number and no number is ever reused.
//!
//! [`EventKind`] and [`Weight`] belong to other crates and a `&'static str`
//! is no type of ours, so none of them can implement the codec traits here:
//! their fields go `via` the function pairs below. The status of
//! `WorkflowStatusReply` is a closed vocabulary and travels as a one-byte
//! tag.

use crate::msg::{CoordRule, DistMsg, StepStatusKind};
use crate::packet::{RoTag, WorkflowPacket};
use crate::weight::Weight;
use bytes::{Bytes, BytesMut};
use crew_rules::EventKind;
use crew_storage::{wire, CodecError, Decode, Encode};

// ---- foreign-type fields ---------------------------------------------------

fn encode_events(events: &[(EventKind, u32)], buf: &mut BytesMut) {
    (events.len() as u32).encode(buf);
    for (e, gen) in events {
        match e {
            EventKind::WorkflowStart => 0u8.encode(buf),
            EventKind::StepDone(s) => {
                1u8.encode(buf);
                s.encode(buf);
            }
            EventKind::StepFail(s) => {
                2u8.encode(buf);
                s.encode(buf);
            }
            EventKind::StepCompensated(s) => {
                3u8.encode(buf);
                s.encode(buf);
            }
            EventKind::WorkflowDone => 4u8.encode(buf),
            EventKind::WorkflowAbort => 5u8.encode(buf),
            EventKind::External(t) => {
                6u8.encode(buf);
                t.encode(buf);
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
            2 => EventKind::StepFail(Decode::decode(buf)?),
            3 => EventKind::StepCompensated(Decode::decode(buf)?),
            4 => EventKind::WorkflowDone,
            5 => EventKind::WorkflowAbort,
            6 => EventKind::External(Decode::decode(buf)?),
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

/// The closed status vocabulary of `WorkflowStatusReply`.
const STATUS_TABLE: [&str; 6] = [
    "committed",
    "aborted",
    "executing",
    "unknown",
    "abort-rejected",
    "change-rejected",
];

fn encode_status(status: &str, buf: &mut BytesMut) {
    let tag = STATUS_TABLE.iter().position(|&s| s == status).unwrap_or(3) as u8; // any unrecognized status degrades to "unknown"
    tag.encode(buf);
}

fn decode_status(buf: &mut Bytes) -> Result<&'static str, CodecError> {
    let tag = u8::decode(buf)?;
    STATUS_TABLE
        .get(tag as usize)
        .copied()
        .ok_or(CodecError::BadTag {
            context: "WorkflowStatus",
            tag,
        })
}

// ---- protocol types -------------------------------------------------------

wire! {
    enum StepStatusKind {
        0 => Unknown,
        1 => Executing,
        2 => Done,
        3 => Failed,
    }
}

wire! {
    enum CoordRule {
        0 => RoFirstDone { req, claimant, partner },
        1 => MutexAcquire { req, instance, step },
        2 => MutexRelease { req, instance, step },
        3 => RoNotify { req, instance, local_step, tag, target_instance, target_step },
    }
}

wire! { struct RoTag { local_step, tag, partner, partner_step } }

wire! {
    struct WorkflowPacket {
        instance,
        target_step,
        source_step,
        executor,
        epoch,
        data,
        events via (encode_events, decode_events),
        ro_leading,
        ro_lagging,
        weight via (encode_weight, decode_weight),
    }
}

wire! {
    enum DistMsg {
        0 => WorkflowStart { instance, inputs, parent },
        1 => WorkflowChangeInputs { instance, new_inputs },
        2 => WorkflowAbort { instance },
        3 => WorkflowStatus { instance },
        4 => WorkflowStatusReply { instance, status via (encode_status, decode_status) },
        5 => WorkflowCommitted { instance },
        6 => WorkflowAborted { instance },
        7 => StepExecute { packet },
        8 => StepCompleted { instance, step, weight_num, weight_den },
        9 => StateInformation { token },
        10 => StateInformationReply { token, load },
        11 => NestedCompleted { parent, parent_step, child, outputs },
        12 => InputsChanged { instance, origin, new_inputs },
        13 => WorkflowRollback { instance, origin, from_dependency },
        14 => HaltThread { instance, origin, epoch },
        15 => StepCompensate { instance, step },
        16 => StepCompensateAck { instance, step, compensated },
        17 => CompensateSet { instance, origin, steps },
        18 => CompensateThread { instance, steps },
        19 => StepStatus { instance, step },
        20 => StepStatusReply { instance, step, status },
        21 => ExecuteRequest { instance, step },
        22 => AddRule { rule },
        23 => AddEvent { instance, tag },
        24 => AddPrecondition { instance, step, tag },
        25 => PurgeBroadcast { instances },
        26 => StepRetry { instance, step },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;
    use crew_model::{DataEnv, InstanceId, ItemKey, SchemaId, StepId, Value};

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
            epoch: 7,
            data,
            events: vec![
                (EventKind::WorkflowStart, 1),
                (EventKind::StepDone(StepId(1)), 2),
                (EventKind::StepFail(StepId(2)), 1),
                (EventKind::StepCompensated(StepId(2)), 1),
                (EventKind::WorkflowDone, 1),
                (EventKind::WorkflowAbort, 1),
                (EventKind::External(0xBEEF), 3),
            ],
            ro_leading: vec![RoTag {
                local_step: StepId(3),
                tag: 0xBEEF,
                partner: inst(15),
                partner_step: StepId(5),
            }],
            ro_lagging: vec![RoTag {
                local_step: StepId(2),
                tag: 0xF00D,
                partner: inst(12),
                partner_step: StepId(2),
            }],
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
                weight_num: 1,
                weight_den: 4,
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
                epoch: 2,
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
            DistMsg::AddPrecondition {
                instance: inst(1),
                step: StepId(2),
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
        for status in super::STATUS_TABLE {
            round_trip(DistMsg::WorkflowStatusReply {
                instance: inst(1),
                status,
            });
        }
        for status in [
            StepStatusKind::Unknown,
            StepStatusKind::Executing,
            StepStatusKind::Done,
            StepStatusKind::Failed,
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
                tag: 0xAB,
                target_instance: inst(2),
                target_step: StepId(3),
            },
        ] {
            round_trip(DistMsg::AddRule { rule });
        }
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
