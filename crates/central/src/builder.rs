//! Building centralized/parallel deployments on the simulator, with the
//! same driver surface as `crew-distributed`'s `DistRun`.

use crate::appagent::AppAgent;
use crate::engine::Engine;
use crate::msg::CentralMsg;
use crate::topology::{PlacementStrategy, Topology};
use crew_exec::Deployment;
use crew_model::{AgentId, InstanceId, ItemKey, SchemaId, Value};
use crew_shard::{plan_migrations, BalancerConfig, EngineLoad, Params};
use crew_simnet::{NodeId, Simulation};
use crew_storage::InstanceStatus;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A centralized (`engines == 1`) or parallel deployment bound to a
/// simulator.
pub struct CentralRun {
    pub sim: Simulation<CentralMsg>,
    pub topo: Topology,
    pub deployment: Arc<Deployment>,
    next_serial: u32,
}

impl CentralRun {
    pub fn new(deployment: Deployment, agents: u32, engines: u32) -> Self {
        Self::new_with_placement(deployment, agents, engines, PlacementStrategy::Modulo)
    }

    /// Like [`CentralRun::new`] but with an explicit instance-placement
    /// strategy. The deployment seed feeds the consistent-hash ring so
    /// runs stay deterministic.
    pub fn new_with_placement(
        deployment: Deployment,
        agents: u32,
        engines: u32,
        strategy: PlacementStrategy,
    ) -> Self {
        deployment.validate(agents);
        let deployment = Arc::new(deployment);
        let topo = Topology::with_placement(agents, engines, strategy, deployment.seed);
        let mut sim = Simulation::new(deployment.seed);
        for _ in 0..agents {
            sim.add_node(AppAgent::new(
                deployment.registry.clone(),
                deployment.plan.clone(),
                deployment.seed,
            ));
        }
        for e in 0..engines {
            sim.add_node(Engine::new(e, deployment.clone(), topo));
        }
        CentralRun {
            sim,
            topo,
            deployment,
            next_serial: 1,
        }
    }

    /// Start an instance through its owner engine's administrative
    /// interface.
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
        let inputs = inputs
            .into_iter()
            .map(|(slot, v)| (ItemKey::input(slot), v))
            .collect();
        let owner = self.topo.owner_engine(instance);
        self.sim.send_external_at(
            self.topo.engine_node(owner),
            CentralMsg::WorkflowStart { instance, inputs },
            at,
        );
        instance
    }

    /// Inject a user abort.
    pub fn abort_instance(&mut self, instance: InstanceId) {
        self.abort_instance_at(instance, 0)
    }

    /// Inject a user abort at a specific virtual time (mid-flight).
    pub fn abort_instance_at(&mut self, instance: InstanceId, at: u64) {
        let owner = self.topo.owner_engine(instance);
        self.sim.send_external_at(
            self.topo.engine_node(owner),
            CentralMsg::WorkflowAbort { instance },
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
        let owner = self.topo.owner_engine(instance);
        let new_inputs = new_inputs
            .into_iter()
            .map(|(slot, v)| (ItemKey::input(slot), v))
            .collect();
        self.sim.send_external_at(
            self.topo.engine_node(owner),
            CentralMsg::WorkflowChangeInputs {
                instance,
                new_inputs,
            },
            at,
        );
    }

    /// Inject a live-migration order at a specific virtual time: move
    /// `instance` to engine `target`. Addressed to the placement owner; if
    /// the instance already migrated, the owner forwards the request to
    /// wherever it currently lives.
    pub fn migrate_instance_at(&mut self, instance: InstanceId, target: u32, at: u64) {
        let owner = self.topo.owner_engine(instance);
        self.sim.send_external_at(
            self.topo.engine_node(owner),
            CentralMsg::MigrateRequest { instance, target },
            at,
        );
    }

    /// Run to quiescence.
    pub fn run(&mut self) -> u64 {
        self.sim.run()
    }

    /// One load sample per engine, in engine order, from the live
    /// counters each engine exports.
    pub fn engine_loads(&self) -> Vec<EngineLoad> {
        (0..self.topo.engines)
            .map(|e| {
                let eng = self.engine(e);
                EngineLoad {
                    engine: e,
                    live_instances: eng.live_instances(),
                    delivered_msgs: eng.delivered_msgs,
                    wal_appends: eng.wal_appended(),
                    forwarded_msgs: eng.forwarded_msgs,
                    migrations_out: eng.migrations_out,
                    migrations_in: eng.migrations_in,
                }
            })
            .collect()
    }

    /// Run to quiescence with the auto-balancer in the loop.
    ///
    /// Every `interval` ticks the driver samples per-engine load, asks
    /// `crew-shard` for a plan (measured skew vs the §7 uniform
    /// prediction), and turns each [`crew_shard::MigrationOrder`] into
    /// live `MigrateRequest`s against concrete executing instances on the
    /// hot engine. Returns `(final_tick, instances_ordered_moved)`.
    pub fn run_balanced(&mut self, interval: u64, cfg: &BalancerConfig, p: &Params) -> (u64, u64) {
        self.run_balanced_until(u64::MAX, interval, cfg, p)
    }

    /// [`CentralRun::run_balanced`] with a virtual-time horizon, for
    /// scenarios (unrecovered crashes) whose event queue never drains.
    pub fn run_balanced_until(
        &mut self,
        horizon: u64,
        interval: u64,
        cfg: &BalancerConfig,
        p: &Params,
    ) -> (u64, u64) {
        let interval = interval.max(1);
        let mut moved = 0u64;
        // Drive a monotonic virtual-time cursor rather than `sim.now()`:
        // a window in which nothing was due must still advance time, or a
        // queue of far-future arrivals would spin the loop forever.
        let mut cursor = self.sim.now();
        // Counter samples from the previous window: the planner sees
        // per-window deltas, not run-cumulative totals, so pressure ranks
        // engines by what they are doing *now* rather than by history.
        // Backlog (`live_instances`) stays instantaneous.
        let mut prev: Vec<EngineLoad> = self.engine_loads();
        // Each instance is ordered moved at most once per run. A request
        // queued behind a saturated engine is invisible to the next
        // sampling round — without this set the driver re-orders the same
        // instances every interval and the duplicates, delivered stale,
        // bounce them between engines indefinitely.
        let mut ordered: std::collections::BTreeSet<InstanceId> = std::collections::BTreeSet::new();
        loop {
            cursor = cursor.saturating_add(interval).min(horizon);
            self.sim.run_until(cursor);
            if self.sim.is_quiescent()
                || self.sim.halted()
                || cursor >= horizon
                || self.sim.delivered() >= self.sim.max_events
            {
                break;
            }
            let now = self.engine_loads();
            // Saturating: a crash zeroes an engine's counters (replay
            // re-counts only some of them), so a down or just-recovered
            // engine reports an empty window rather than a wrapped one.
            let window: Vec<EngineLoad> = now
                .iter()
                .zip(prev.iter())
                .map(|(n, o)| EngineLoad {
                    engine: n.engine,
                    live_instances: n.live_instances,
                    delivered_msgs: n.delivered_msgs.saturating_sub(o.delivered_msgs),
                    wal_appends: n.wal_appends.saturating_sub(o.wal_appends),
                    forwarded_msgs: n.forwarded_msgs.saturating_sub(o.forwarded_msgs),
                    migrations_out: n.migrations_out.saturating_sub(o.migrations_out),
                    migrations_in: n.migrations_in.saturating_sub(o.migrations_in),
                })
                .collect();
            prev = now;
            let orders = plan_migrations(&window, p, cfg);
            let at = cursor + 1;
            for o in orders {
                let candidates = self.engine(o.from).movable_instances();
                for inst in candidates
                    .into_iter()
                    .filter(|i| ordered.insert(*i))
                    .take(o.count as usize)
                {
                    // Address the currently-hosting engine directly: the
                    // placement owner would forward anyway, this skips a
                    // hop for instances the balancer already moved once.
                    self.sim.send_external_at(
                        self.topo.engine_node(o.from),
                        CentralMsg::MigrateRequest {
                            instance: inst,
                            target: o.to,
                        },
                        at,
                    );
                    moved += 1;
                }
            }
        }
        (self.sim.now(), moved)
    }

    /// Engine by index.
    pub fn engine(&self, index: u32) -> &Engine {
        self.sim
            .node_as::<Engine>(self.topo.engine_node(index))
            .expect("engine node")
    }

    /// Agent by id.
    pub fn agent(&self, agent: AgentId) -> &AppAgent {
        self.sim
            .node_as::<AppAgent>(self.topo.agent_node(agent))
            .expect("agent node")
    }

    /// Statuses of all started instances, folded across engines.
    pub fn statuses(&self) -> BTreeMap<InstanceId, InstanceStatus> {
        let mut out = BTreeMap::new();
        for e in 0..self.topo.engines {
            self.engine(e).check_executing_index();
            for (&i, &s) in &self.engine(e).statuses {
                out.insert(i, s);
            }
        }
        out
    }

    /// Virtual tick at which each instance first reached a terminal
    /// status, folded across engines.
    pub fn completion_times(&self) -> BTreeMap<InstanceId, u64> {
        let mut out = BTreeMap::new();
        for e in 0..self.topo.engines {
            for (&i, &t) in &self.engine(e).terminal_times {
                out.entry(i).or_insert(t);
            }
        }
        out
    }

    /// Engine node ids (for load aggregation).
    pub fn engine_nodes(&self) -> Vec<NodeId> {
        self.topo.engine_nodes().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{
        CoordinationSpec, MutualExclusion, RelativeOrder, SchemaBuilder, SchemaStep, StepId,
    };
    use crew_simnet::Mechanism;

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
            b.configure(*s, |d| d.eligible_agents = vec![AgentId(a)]);
        }
        b.build().unwrap()
    }

    #[test]
    fn sequential_workflow_commits_centrally() {
        let deployment = Deployment::new([linear_schema(1, 4, &[0, 1])]);
        let mut run = CentralRun::new(deployment, 2, 1);
        let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
        run.run();
        assert_eq!(run.statuses().get(&inst), Some(&InstanceStatus::Committed));
        // Normal messages: per step a=1 → ExecRequest + ExecResult = 2·s.
        assert_eq!(run.sim.metrics.messages(Mechanism::Normal), 8);
    }

    #[test]
    fn parallel_engines_partition_instances() {
        let deployment = Deployment::new([linear_schema(1, 3, &[0])]);
        let mut run = CentralRun::new(deployment, 1, 4);
        let instances: Vec<InstanceId> = (0..8)
            .map(|_| run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]))
            .collect();
        run.run();
        let statuses = run.statuses();
        for i in &instances {
            assert_eq!(statuses.get(i), Some(&InstanceStatus::Committed), "{i}");
        }
        // More than one engine did work.
        let engines_with_work = (0..4)
            .filter(|&e| !run.engine(e).statuses.is_empty())
            .count();
        assert!(engines_with_work > 1);
    }

    #[test]
    fn balancer_moves_instances_off_the_hot_engine() {
        // A 1-vnode-per-engine ring carves the key space into four uneven
        // arcs, so arrivals pile onto whichever engine owns the largest
        // arc — exactly the measured-vs-predicted divergence the balancer
        // exists to correct.
        let deployment = Deployment::new([linear_schema(1, 4, &[0])]);
        let mut run = CentralRun::new_with_placement(
            deployment,
            1,
            4,
            PlacementStrategy::ConsistentHash { vnodes: 1 },
        );
        run.sim.set_service_cost(run.topo.agent_node(AgentId(0)), 3);
        let instances: Vec<InstanceId> = (0..24)
            .map(|_| run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]))
            .collect();
        let cfg = crew_shard::BalancerConfig {
            skew_threshold: 1.2,
            max_moves_per_round: 8,
        };
        let (_, moved) = run.run_balanced(5, &cfg, &crew_shard::Params::paper_mean());
        let statuses = run.statuses();
        for i in &instances {
            assert_eq!(statuses.get(i), Some(&InstanceStatus::Committed), "{i}");
        }
        assert!(moved >= 1, "balancer should order at least one move");
        let migrated_in: u64 = (0..4).map(|e| run.engine(e).migrations_in).sum();
        assert!(migrated_in >= 1, "at least one migration completed");
    }

    #[test]
    fn engine_loads_reflect_delivered_work() {
        let deployment = Deployment::new([linear_schema(1, 3, &[0])]);
        let mut run = CentralRun::new(deployment, 1, 2);
        run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]);
        run.run();
        let loads = run.engine_loads();
        assert_eq!(loads.len(), 2);
        assert!(loads.iter().any(|l| l.delivered_msgs > 0));
        assert!(loads.iter().all(|l| l.live_instances == 0), "all terminal");
    }

    // Engine-to-engine behaviour that only arises when `engines > 1`
    // (parallel control, §6). Steps alternate between agents 1 and 0.

    #[test]
    fn consistent_hash_placement_commits_across_engines() {
        let deployment = Deployment::new([linear_schema(1, 3, &[1, 0])]);
        let mut run = CentralRun::new_with_placement(
            deployment,
            2,
            4,
            PlacementStrategy::ConsistentHash { vnodes: 16 },
        );
        let instances: Vec<_> = (0..8)
            .map(|_| run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]))
            .collect();
        run.run();
        let statuses = run.statuses();
        for i in &instances {
            assert_eq!(statuses.get(i), Some(&InstanceStatus::Committed), "{i}");
        }
    }

    #[test]
    fn instances_spread_and_commit() {
        let deployment = Deployment::new([linear_schema(1, 3, &[1, 0])]);
        let mut run = CentralRun::new(deployment, 2, 4);
        let instances: Vec<_> = (0..8)
            .map(|_| run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]))
            .collect();
        run.run();
        let statuses = run.statuses();
        for i in &instances {
            assert_eq!(statuses.get(i), Some(&InstanceStatus::Committed), "{i}");
        }
        let engines_with_work = (0..4)
            .filter(|&e| !run.engine(e).statuses.is_empty())
            .count();
        assert!(engines_with_work > 1, "load is shared across engines");
    }

    #[test]
    fn cross_engine_mutex_serializes() {
        // Instances owned by different engines contend on a mutex; all must
        // commit and coordination messages must flow between engines.
        let mut deployment = Deployment::new([linear_schema(1, 3, &[1, 0])]);
        deployment.coordination = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "booth".into(),
                members: vec![SchemaStep::new(SchemaId(1), StepId(2))],
            }],
            ..CoordinationSpec::default()
        };
        let mut run = CentralRun::new(deployment, 2, 4);
        let instances: Vec<_> = (0..6)
            .map(|_| run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]))
            .collect();
        run.run();
        let statuses = run.statuses();
        for i in &instances {
            assert_eq!(statuses.get(i), Some(&InstanceStatus::Committed), "{i}");
        }
        assert!(
            run.sim.metrics.messages(Mechanism::CoordinatedExecution) > 0,
            "cross-engine mutex requires engine-to-engine messages"
        );
    }

    #[test]
    fn cross_engine_mutex_survives_a_lossy_network() {
        // Same contention as above, but the engine↔engine and engine↔agent
        // links drop, duplicate and reorder frames: the reliable channels
        // must deliver the mutex protocol exactly once and in order, so
        // every contender still commits.
        let mut deployment = Deployment::new([linear_schema(1, 3, &[1, 0])]);
        deployment.coordination = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "booth".into(),
                members: vec![SchemaStep::new(SchemaId(1), StepId(2))],
            }],
            ..CoordinationSpec::default()
        };
        let mut run = CentralRun::new(deployment, 2, 4);
        run.sim
            .enable_net_faults(crew_simnet::NetFaultPlan::probabilistic(
                3, 0.06, 0.06, 0.10,
            ));
        let instances: Vec<_> = (0..6)
            .map(|_| run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]))
            .collect();
        run.run();
        let statuses = run.statuses();
        for i in &instances {
            assert_eq!(statuses.get(i), Some(&InstanceStatus::Committed), "{i}");
        }
        let t = run.sim.metrics.transport;
        assert!(t.data_frames > 0, "traffic rode the reliable channel");
        assert!(
            t.drops_injected + t.dups_injected + t.reorders_injected > 0,
            "faults were actually injected: {t:?}"
        );
    }

    #[test]
    fn cross_engine_relative_order_commits_both() {
        // Two linked instances with relative ordering on (S2,S2) then
        // (S3,S3), owned by different engines: both must commit, and the
        // decision/release protocol must run.
        let mut deployment = Deployment::new([linear_schema(1, 4, &[1, 0])]);
        deployment.coordination = CoordinationSpec {
            relative_orders: vec![RelativeOrder {
                id: 0,
                conflict: "parts".into(),
                pairs: vec![
                    (
                        SchemaStep::new(SchemaId(1), StepId(2)),
                        SchemaStep::new(SchemaId(1), StepId(2)),
                    ),
                    (
                        SchemaStep::new(SchemaId(1), StepId(3)),
                        SchemaStep::new(SchemaId(1), StepId(3)),
                    ),
                ],
            }],
            ..CoordinationSpec::default()
        };
        // Instance serials are allocated 1, 2 by the driver.
        deployment.ro_links.link(
            crew_model::InstanceId::new(SchemaId(1), 1),
            crew_model::InstanceId::new(SchemaId(1), 2),
        );
        let mut run = CentralRun::new(deployment, 2, 3);
        let a = run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]);
        let b = run.start_instance(SchemaId(1), vec![(1, Value::Int(2))]);
        run.run();
        let statuses = run.statuses();
        assert_eq!(statuses.get(&a), Some(&InstanceStatus::Committed));
        assert_eq!(statuses.get(&b), Some(&InstanceStatus::Committed));
    }
}
