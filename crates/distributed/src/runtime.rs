//! Deployment-wide runtime knowledge shared by every distributed agent:
//! the node directory, designated-executor selection, and configuration.

use crew_exec::Deployment;
pub use crew_exec::{designated_agent, nested_instance_serial};
use crew_model::{AgentId, InstanceId, WorkflowSchema};
use crew_simnet::NodeId;
use std::sync::Arc;

/// Maps the logical deployment (agents, front end) to simulator nodes.
/// Agents occupy node ids `0..agents`; the front-end database is the next
/// node.
#[derive(Debug, Clone)]
pub struct Directory {
    /// Number of agents (the paper's `z`).
    pub agents: u32,
    /// Node id of the front-end database.
    pub frontend: NodeId,
}

impl Directory {
    pub fn new(agents: u32) -> Self {
        Directory {
            agents,
            frontend: NodeId(agents),
        }
    }

    /// Node hosting `agent`.
    pub fn node_of(&self, agent: AgentId) -> NodeId {
        debug_assert!(agent.0 < self.agents, "agent {agent} outside pool");
        NodeId(agent.0)
    }

    /// All agent node ids.
    pub fn agent_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.agents).map(NodeId)
    }
}

/// How the executor of a multi-eligible step is chosen (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuccessorSelection {
    /// Deterministic rendezvous hash over the eligible agents: zero
    /// selection messages (the default used by the experiments).
    #[default]
    DesignatedHash,
    /// The paper's two-phase scheme: the predecessor polls
    /// `StateInformation` of every eligible agent and forwards to the
    /// least-loaded one. Costs 2·(a−1) extra messages per selected step;
    /// applies to single-predecessor steps (confluence steps fall back to
    /// the deterministic hash, standing in for the paper's successor
    /// leader election). Intended for the successor-selection ablation;
    /// the recovery protocols keep routing by the deterministic hash.
    LoadBalanced,
}

/// Period of the pending-rule scan timer, in ticks.
pub const POLL_PERIOD: u64 = 50;

/// Age in ticks after which a single-event-blocked rule triggers a poll.
pub const POLL_TIMEOUT: u64 = 100;

/// Tunables of the distributed run-time.
#[derive(Debug, Clone, Default)]
pub struct DistConfig {
    /// Enable the pending-rule timeout + `StepStatus` polling protocol
    /// (predecessor-failure recovery, §5.2). Off by default: with it on,
    /// an agent that holds a packet for a step designated elsewhere polls
    /// that step's eligible agents once it is overdue, which adds messages
    /// to fault-free runs. The poll timer runs only while such a wait is
    /// open, so a run with polling on still quiesces.
    pub enable_status_polling: bool,
    /// If set, coordination agents broadcast committed-instance purges with
    /// this period (§4.2).
    pub purge_period: Option<u64>,
    /// Successor-selection strategy for multi-eligible steps.
    pub successor_selection: SuccessorSelection,
}

/// The coordination agent of an instance: the designated executor of its
/// start step (§4.1: "typically the agent responsible for executing the
/// first step of the workflow").
pub fn coordination_agent(seed: u64, instance: InstanceId, schema: &WorkflowSchema) -> AgentId {
    designated_agent(seed, instance, schema.expect_step(schema.start_step()))
}

/// Shared read-only context every agent holds.
#[derive(Debug, Clone)]
pub struct SharedCtx {
    pub deployment: Arc<Deployment>,
    pub directory: Directory,
    pub config: DistConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{SchemaBuilder, SchemaId};

    #[test]
    fn directory_layout() {
        let d = Directory::new(5);
        assert_eq!(d.node_of(AgentId(3)), NodeId(3));
        assert_eq!(d.frontend, NodeId(5));
        assert_eq!(d.agent_nodes().count(), 5);
    }

    #[test]
    fn coordination_agent_is_start_designee() {
        let mut b = SchemaBuilder::new(SchemaId(1), "x");
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        b.seq(s1, s2);
        b.configure(s1, |d| d.eligible_agents = vec![AgentId(2)]);
        b.configure(s2, |d| d.eligible_agents = vec![AgentId(3)]);
        let schema = b.build().unwrap();
        let inst = InstanceId::new(SchemaId(1), 1);
        assert_eq!(coordination_agent(7, inst, &schema), AgentId(2));
    }
}
