//! Workflow packets — the unit of state transfer between distributed
//! agents.
//!
//! "After the execution of a step, an agent has to communicate the entire
//! state information of the workflow that it is aware of to the agent
//! responsible for executing the next step. This information is
//! communicated via a *workflow packet*" (§4.1). A packet carries the
//! workflow/instance identifiers, the action (execute step S), the
//! accumulated data items and the accumulated events. Figure 7 shows the
//! paper's sample packet; [`WorkflowPacket::render`] reproduces that
//! layout. The paper also piggybacks relative-ordering leading/lagging
//! tags here (§5.1, Figure 7's `R.O.` fields); this packet carries none,
//! because every agent wires its steps' ordering guards from the
//! deployment when the instance is created (`crew_exec::Gate::wire`).

use crate::weight::Weight;
use crew_model::{AgentId, DataEnv, InstanceId, StepId};
use crew_rules::EventKind;
use std::fmt::Write as _;

/// The workflow packet.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowPacket {
    /// The instance this packet navigates.
    pub instance: InstanceId,
    /// Action: execute this step ("Action: Execute S3").
    pub target_step: StepId,
    /// The step whose completion produced this packet (`None` for the
    /// initial packet). Keys the receiver's per-source weight slot so
    /// re-deliveries replace rather than double-count at joins.
    pub source_step: Option<StepId>,
    /// Under load-balanced successor selection: the agent the sender chose
    /// to execute `target_step` (overrides the deterministic designation
    /// at every receiver). `None` under the default rendezvous scheme.
    pub executor: Option<AgentId>,
    /// Accumulated data items (the state information).
    pub data: DataEnv,
    /// Accumulated events with occurrence generations (for rule-based
    /// navigation at the receiver; generations make packet merges
    /// idempotent yet able to deliver fresh occurrences after rollback and
    /// across loop iterations). The `step.rollback` events say which
    /// rollbacks the sender had applied: a receiver applies those it has
    /// not before it merges the rest, and drops what the packet holds of
    /// the steps a rollback it applied and the sender had not voids (the
    /// event-invalidation strategy of §5.2, per rollback origin).
    pub events: Vec<(EventKind, u32)>,
    /// Thread-accounting weight (see [`crate::weight`]).
    pub weight: Weight,
}

impl WorkflowPacket {
    /// A fresh packet for the start step of an instance.
    pub fn initial(instance: InstanceId, start: StepId, data: DataEnv) -> Self {
        WorkflowPacket {
            instance,
            target_step: start,
            source_step: None,
            executor: None,
            data,
            events: vec![(EventKind::WorkflowStart, 1)],
            weight: Weight::ONE,
        }
    }

    /// Render in the Figure 7 layout.
    pub fn render(&self, workflow_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Workflow Name: {workflow_name}");
        let _ = writeln!(out, "Instance Number: {}", self.instance.serial);
        let _ = writeln!(out, "Action: Execute {}", self.target_step);
        let _ = writeln!(out, "Data Items:");
        for (k, v) in self.data.iter() {
            let _ = writeln!(out, "  {k} = {v}");
        }
        let _ = write!(out, "Events:");
        for (e, _) in &self.events {
            let _ = write!(out, " {}", e.code());
        }
        let _ = writeln!(out);
        out
    }

    /// Approximate wire size in bytes (for the packet-growth ablation):
    /// ids + per-item and per-event costs.
    pub fn approx_size(&self) -> usize {
        let mut n = 28; // headers: ids, weight, action
        for (_, v) in self.data.iter() {
            n += 8 // key
                + match v {
                    crew_model::Value::Str(s) => 4 + s.len(),
                    _ => 8,
                };
        }
        n += self.events.len() * 6;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{ItemKey, SchemaId, Value};

    /// Build the exact packet of the paper's Figure 7: WF2 instance 4,
    /// executing S3, with workflow inputs and outputs of S1/S2, events
    /// WF.S S1.D S2.D.
    fn figure7_packet() -> WorkflowPacket {
        let instance = InstanceId::new(SchemaId(2), 4);
        let mut data = DataEnv::new();
        data.set(ItemKey::input(1), Value::Int(90));
        data.set(ItemKey::input(2), Value::from("Blower"));
        data.set(ItemKey::output(StepId(1), 1), Value::Int(20));
        data.set(ItemKey::output(StepId(1), 2), Value::from("Gasket"));
        data.set(ItemKey::output(StepId(2), 1), Value::Int(45));
        data.set(ItemKey::output(StepId(2), 2), Value::Int(400));
        WorkflowPacket {
            instance,
            target_step: StepId(3),
            source_step: Some(StepId(2)),
            executor: None,
            data,
            events: vec![
                (EventKind::WorkflowStart, 1),
                (EventKind::StepDone(StepId(1)), 1),
                (EventKind::StepDone(StepId(2)), 1),
            ],
            weight: Weight::ONE,
        }
    }

    #[test]
    fn renders_like_figure7() {
        let p = figure7_packet();
        let r = p.render("WF2");
        assert!(r.contains("Workflow Name: WF2"));
        assert!(r.contains("Instance Number: 4"));
        assert!(r.contains("Action: Execute S3"));
        assert!(r.contains("WF.I1 = 90"));
        assert!(r.contains("WF.I2 = Blower"));
        assert!(r.contains("S1.O2 = Gasket"));
        assert!(r.contains("S2.O1 = 45"));
        assert!(r.contains("Events: WF.S S1.D S2.D"));
        assert!(!r.contains("R.O."), "ordering guards are not on the packet");
    }

    #[test]
    fn initial_packet_shape() {
        let inst = InstanceId::new(SchemaId(1), 1);
        let p = WorkflowPacket::initial(inst, StepId(1), DataEnv::new());
        assert_eq!(p.events, vec![(EventKind::WorkflowStart, 1)]);
        assert!(p.weight.is_one());
    }

    #[test]
    fn size_grows_with_payload() {
        let inst = InstanceId::new(SchemaId(1), 1);
        let small = WorkflowPacket::initial(inst, StepId(1), DataEnv::new());
        let big = figure7_packet();
        assert!(big.approx_size() > small.approx_size());
    }
}
