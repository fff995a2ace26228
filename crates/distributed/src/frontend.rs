//! The front-end database node.
//!
//! "The front end database that provides the administrative interface to
//! execute/abort workflows interacts only with coordination agents" (§4.1).
//! This node translates external user requests (start, abort, change
//! inputs, status) into Workflow Interface calls on the right coordination
//! agent, and collects commit/abort notifications so harnesses and examples
//! can observe terminal outcomes.

use crate::msg::DistMsg;
use crate::runtime::{coordination_agent, SharedCtx};
use crew_model::{InstanceId, ItemKey, Value};
use crew_simnet::{Ctx, Node, NodeId};
use std::any::Any;
use std::collections::BTreeMap;

/// A user request the front end accepts from the external world. External
/// drivers build one of these and convert it to the wire message with
/// [`UserRequest::into_msg`].
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum UserRequest {
    Start {
        instance: InstanceId,
        inputs: Vec<(ItemKey, Value)>,
    },
    Abort {
        instance: InstanceId,
    },
    ChangeInputs {
        instance: InstanceId,
        new_inputs: Vec<(ItemKey, Value)>,
    },
    Status {
        instance: InstanceId,
    },
}

impl UserRequest {
    /// The wire message to send to the front-end node.
    pub fn into_msg(self) -> DistMsg {
        match self {
            UserRequest::Start { instance, inputs } => DistMsg::WorkflowStart {
                instance,
                inputs,
                parent: None,
            },
            UserRequest::Abort { instance } => DistMsg::WorkflowAbort { instance },
            UserRequest::ChangeInputs {
                instance,
                new_inputs,
            } => DistMsg::WorkflowChangeInputs {
                instance,
                new_inputs,
            },
            UserRequest::Status { instance } => DistMsg::WorkflowStatus { instance },
        }
    }
}

/// Observed terminal outcome of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    Aborted,
}

/// The front-end database node.
pub struct FrontEnd {
    shared: SharedCtx,
    /// Terminal outcomes observed.
    pub outcomes: BTreeMap<InstanceId, Outcome>,
    /// Virtual tick at which each terminal outcome was first observed
    /// (completion as seen from the administrative interface — the
    /// latency `RunReport::latency_stats` reports).
    pub outcome_times: BTreeMap<InstanceId, u64>,
    /// Last status reply per instance.
    pub statuses: BTreeMap<InstanceId, &'static str>,
    /// Requests rejected by coordination agents.
    pub rejections: Vec<(InstanceId, &'static str)>,
}

impl FrontEnd {
    pub fn new(shared: SharedCtx) -> Self {
        FrontEnd {
            shared,
            outcomes: BTreeMap::new(),
            outcome_times: BTreeMap::new(),
            statuses: BTreeMap::new(),
            rejections: Vec::new(),
        }
    }

    fn coordination_node(&self, instance: InstanceId) -> NodeId {
        let schema = self.shared.deployment.expect_schema(instance.schema);
        let agent = coordination_agent(self.shared.deployment.seed, instance, schema);
        self.shared.directory.node_of(agent)
    }
}

impl Node<DistMsg> for FrontEnd {
    fn on_message(&mut self, _from: NodeId, msg: DistMsg, ctx: &mut Ctx<DistMsg>) {
        match msg {
            // External world → route to the coordination agent.
            DistMsg::WorkflowStart {
                instance,
                inputs,
                parent,
            } => {
                let coord = self.coordination_node(instance);
                ctx.send(
                    coord,
                    DistMsg::WorkflowStart {
                        instance,
                        inputs,
                        parent,
                    },
                );
            }
            DistMsg::WorkflowAbort { instance } => {
                let coord = self.coordination_node(instance);
                ctx.send(coord, DistMsg::WorkflowAbort { instance });
            }
            DistMsg::WorkflowChangeInputs {
                instance,
                new_inputs,
            } => {
                let coord = self.coordination_node(instance);
                ctx.send(
                    coord,
                    DistMsg::WorkflowChangeInputs {
                        instance,
                        new_inputs,
                    },
                );
            }
            DistMsg::WorkflowStatus { instance } => {
                let coord = self.coordination_node(instance);
                ctx.send(coord, DistMsg::WorkflowStatus { instance });
            }
            // Coordination agents → record.
            DistMsg::WorkflowCommitted { instance } => {
                self.outcomes.insert(instance, Outcome::Committed);
                self.outcome_times.entry(instance).or_insert(ctx.now);
            }
            DistMsg::WorkflowAborted { instance } => {
                self.outcomes.insert(instance, Outcome::Aborted);
                self.outcome_times.entry(instance).or_insert(ctx.now);
            }
            DistMsg::WorkflowStatusReply { instance, status } => {
                self.statuses.insert(instance, status);
                if status.ends_with("rejected") {
                    self.rejections.push((instance, status));
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
