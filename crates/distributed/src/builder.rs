//! Building a distributed-control deployment on the simulator.
//!
//! Lays out `z` agents (node ids `0..z`), the front-end database (node
//! `z`), wires them to a shared [`Deployment`], and offers a driver API to
//! start instances and inject user actions through the front end.

use crate::agent::DistAgent;
use crate::frontend::{FrontEnd, Outcome};
use crate::msg::DistMsg;
use crate::runtime::{Directory, DistConfig, SharedCtx};
use crew_exec::Deployment;
use crew_model::{AgentId, InstanceId, ItemKey, SchemaId, Value};
use crew_simnet::{NodeId, Simulation};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A distributed deployment bound to a simulator.
pub struct DistRun {
    /// The simulator holding the agents and front end.
    pub sim: Simulation<DistMsg>,
    /// Node directory.
    pub directory: Directory,
    /// The shared deployment.
    pub deployment: Arc<Deployment>,
    next_serial: u32,
}

impl DistRun {
    /// Lay out `agents` agent nodes plus the front end for `deployment`.
    pub fn new(deployment: Deployment, agents: u32, config: DistConfig) -> Self {
        deployment.validate(agents);
        let deployment = Arc::new(deployment);
        let directory = Directory::new(agents);
        let shared = SharedCtx {
            deployment: deployment.clone(),
            directory: directory.clone(),
            config,
        };
        let mut sim = Simulation::new(deployment.seed);
        for a in 0..agents {
            sim.add_node(DistAgent::new(AgentId(a), shared.clone()));
        }
        sim.add_node(FrontEnd::new(shared));
        DistRun {
            sim,
            directory,
            deployment,
            next_serial: 1,
        }
    }

    /// Start a new instance of `schema` with the given workflow inputs,
    /// injected through the front end. Returns the instance id.
    pub fn start_instance(&mut self, schema: SchemaId, inputs: Vec<(u16, Value)>) -> InstanceId {
        self.start_instance_at(schema, inputs, 0)
    }

    /// Start an instance at a specific virtual time (open-loop arrival
    /// processes); a time already past means the next tick.
    pub fn start_instance_at(
        &mut self,
        schema: SchemaId,
        inputs: Vec<(u16, Value)>,
        at: u64,
    ) -> InstanceId {
        let instance = InstanceId::new(schema, self.next_serial);
        self.next_serial += 1;
        let inputs: Vec<(ItemKey, Value)> = inputs
            .into_iter()
            .map(|(slot, v)| (ItemKey::input(slot), v))
            .collect();
        self.sim.send_external_at(
            self.directory.frontend,
            DistMsg::WorkflowStart {
                instance,
                inputs,
                parent: None,
            },
            at,
        );
        instance
    }

    /// Inject a user abort for `instance`.
    pub fn abort_instance(&mut self, instance: InstanceId) {
        self.abort_instance_at(instance, 0)
    }

    /// Inject a user abort at a specific virtual time (mid-flight).
    pub fn abort_instance_at(&mut self, instance: InstanceId, at: u64) {
        self.sim.send_external_at(
            self.directory.frontend,
            DistMsg::WorkflowAbort { instance },
            at,
        );
    }

    /// Inject a user input change.
    pub fn change_inputs(&mut self, instance: InstanceId, new_inputs: Vec<(u16, Value)>) {
        self.change_inputs_at(instance, new_inputs, 0)
    }

    /// Inject a user input change at a specific virtual time.
    pub fn change_inputs_at(
        &mut self,
        instance: InstanceId,
        new_inputs: Vec<(u16, Value)>,
        at: u64,
    ) {
        let new_inputs = new_inputs
            .into_iter()
            .map(|(slot, v)| (ItemKey::input(slot), v))
            .collect();
        self.sim.send_external_at(
            self.directory.frontend,
            DistMsg::WorkflowChangeInputs {
                instance,
                new_inputs,
            },
            at,
        );
    }

    /// Query status through the front end.
    pub fn query_status(&mut self, instance: InstanceId) {
        self.sim.send_external(
            self.directory.frontend,
            DistMsg::WorkflowStatus { instance },
        );
    }

    /// Run to quiescence; returns delivered event count.
    pub fn run(&mut self) -> u64 {
        self.sim.run()
    }

    /// Observed terminal outcomes at the front end.
    pub fn outcomes(&self) -> BTreeMap<InstanceId, Outcome> {
        self.frontend().outcomes.clone()
    }

    /// Virtual tick at which each terminal outcome was first observed at
    /// the front end.
    pub fn completion_times(&self) -> BTreeMap<InstanceId, u64> {
        self.frontend().outcome_times.clone()
    }

    /// The front-end node.
    pub fn frontend(&self) -> &FrontEnd {
        self.sim
            .node_as::<FrontEnd>(self.directory.frontend)
            .expect("front end is the last node")
    }

    /// An agent node, by agent id.
    pub fn agent(&self, agent: AgentId) -> &DistAgent {
        self.sim
            .node_as::<DistAgent>(self.directory.node_of(agent))
            .expect("agent node")
    }

    /// Nodes hosting agents (for load aggregation).
    pub fn agent_nodes(&self) -> Vec<NodeId> {
        self.directory.agent_nodes().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{SchemaBuilder, StepKind};

    fn linear_schema(id: u32, steps: u32, agents: &[u32]) -> crew_model::WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(id), format!("wf{id}")).inputs(1);
        let ids: Vec<_> = (0..steps)
            .map(|i| b.add_step(format!("S{}", i + 1), "passthrough"))
            .collect();
        for w in ids.windows(2) {
            b.seq(w[0], w[1]);
        }
        for (i, s) in ids.iter().enumerate() {
            let a = agents[i % agents.len()];
            b.configure(*s, |d| {
                d.eligible_agents = vec![AgentId(a)];
                d.kind = StepKind::Update;
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn sequential_workflow_commits() {
        let deployment = Deployment::new([linear_schema(1, 4, &[0, 1, 2])]);
        let mut run = DistRun::new(deployment, 3, DistConfig::default());
        let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
        run.run();
        assert_eq!(run.outcomes().get(&inst), Some(&Outcome::Committed));
        // Coordination agent has the committed status in its summary.
        let coord = crate::runtime::coordination_agent(
            run.deployment.seed,
            inst,
            run.deployment.expect_schema(SchemaId(1)),
        );
        assert_eq!(
            run.agent(coord).instance_status(inst),
            Some(crew_storage::InstanceStatus::Committed)
        );
    }

    #[test]
    fn message_count_matches_broadcast_model() {
        // 4 steps, a=1: packets per non-start step = 3, WorkflowStart = 1
        // (ext->frontend is external, frontend->coord counts), terminal
        // StepCompleted = 1 unless coordinator is also the termination
        // agent.
        let deployment = Deployment::new([linear_schema(1, 4, &[0, 1, 2, 3])]);
        let mut run = DistRun::new(deployment, 4, DistConfig::default());
        run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
        run.run();
        let m = &run.sim.metrics;
        use crew_simnet::Mechanism;
        // Normal messages: WorkflowStart (frontend→coord), 3 StepExecute,
        // 1 StepCompleted, 1 WorkflowCommitted (coord→frontend).
        assert_eq!(m.messages(Mechanism::Normal), 6, "by_kind: {:?}", m.by_kind);
        assert_eq!(m.messages(Mechanism::FailureHandling), 0);
    }
}
