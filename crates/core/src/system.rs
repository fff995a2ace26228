//! The top-level CREW API: pick an architecture, describe a scenario, run
//! it, get a [`RunReport`].
//!
//! ```
//! use crew_core::{Architecture, Scenario, WorkflowSystem};
//! use crew_model::{SchemaBuilder, SchemaId, AgentId, Value};
//!
//! let mut b = SchemaBuilder::new(SchemaId(1), "hello").inputs(1);
//! let s1 = b.add_step("First", "passthrough");
//! let s2 = b.add_step("Second", "passthrough");
//! b.seq(s1, s2);
//! b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
//! b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
//! let schema = b.build().unwrap();
//!
//! let system = WorkflowSystem::new([schema], Architecture::Distributed { agents: 2 });
//! let mut scenario = Scenario::new();
//! scenario.start(SchemaId(1), vec![(1, Value::Int(7))]);
//! let report = system.run(scenario);
//! assert_eq!(report.committed(), 1);
//! ```

use crate::report::{InstanceOutcome, RunReport};
use crew_central::{CentralRun, PlacementStrategy};
use crew_distributed::{DistConfig, DistRun, Outcome};
use crew_exec::Deployment;
use crew_model::{InstanceId, SchemaId, Value, WorkflowSchema, RUN_HORIZON_TICKS};
use crew_shard::BalancerConfig;
use crew_simnet::NetFaultPlan;
use crew_storage::InstanceStatus;
use std::collections::BTreeMap;

/// The control architecture to run under (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// One engine, `agents` application agents.
    Central {
        /// Application agent pool size.
        agents: u32,
    },
    /// Several engines sharing the instances.
    Parallel {
        /// Application agent pool size.
        agents: u32,
        /// Engine count (the paper's `e`).
        engines: u32,
    },
    /// Distributed agents (plus the front-end database).
    Distributed {
        /// Agent pool size (the paper's `z`).
        agents: u32,
    },
}

/// A user action injected mid-run.
#[derive(Debug, Clone)]
enum UserAction {
    Abort {
        index: usize,
        at: u64,
    },
    ChangeInputs {
        index: usize,
        at: u64,
        new_inputs: Vec<(u16, Value)>,
    },
}

/// Which node a [`CrashWindow`] takes down.
///
/// Node layout: application agents occupy node ids `0..z` under every
/// architecture. Under `Central`/`Parallel` control the engines are
/// separate nodes at `z..z+e` (so `Engine(n)` maps to node `z + n`);
/// under `Distributed` control every agent embeds its own engine slice,
/// so `Engine(n)` and `Agent(n)` are the same physical node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTarget {
    /// Application agent `n`.
    Agent(u32),
    /// Workflow engine `n`.
    Engine(u32),
}

/// A fail-stop crash window for one node of the deployment.
///
/// The crashed node loses all volatile state; whatever it wrote to its
/// WAL-backed WFDB survives. On recovery (`down_for` ticks later) the node
/// replays its log — engines rebuild their control state and re-arm
/// pending dispatches, agents replay their journal — and the reliable
/// channel layer retransmits everything unacked across the outage.
/// `down_for: None` means the node never comes back: runs that depend on
/// it end [`Stalled`](InstanceOutcome::Stalled) at the bounded horizon
/// rather than hanging.
#[derive(Debug, Clone, Copy)]
pub struct CrashWindow {
    /// The node to crash.
    pub target: CrashTarget,
    /// Virtual time of the crash.
    pub at: u64,
    /// Recovery delay; `None` = never recovers.
    pub down_for: Option<u64>,
}

impl CrashWindow {
    /// Crash application agent `n` at `at`, recovering after `down_for`.
    pub fn agent(n: u32, at: u64, down_for: Option<u64>) -> Self {
        CrashWindow {
            target: CrashTarget::Agent(n),
            at,
            down_for,
        }
    }

    /// Crash engine `n` at `at`, recovering after `down_for`.
    pub fn engine(n: u32, at: u64, down_for: Option<u64>) -> Self {
        CrashWindow {
            target: CrashTarget::Engine(n),
            at,
            down_for,
        }
    }
}

/// One scheduled instance start: schema, initial inputs, arrival tick.
type ScheduledStart = (SchemaId, Vec<(u16, Value)>, u64);

/// A declarative run scenario: which instances start (in order — instance
/// serials are assigned 1, 2, … accordingly), which get linked for
/// relative ordering, and which user actions / crashes are injected.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    starts: Vec<ScheduledStart>,
    links: Vec<(usize, usize)>,
    actions: Vec<UserAction>,
    crashes: Vec<CrashWindow>,
}

impl Scenario {
    /// Create a new, empty value.
    pub fn new() -> Self {
        Scenario::default()
    }

    /// Start an instance of `schema`; returns its index within the
    /// scenario (serials are `index + 1`).
    pub fn start(&mut self, schema: SchemaId, inputs: Vec<(u16, Value)>) -> usize {
        self.start_at(schema, inputs, 0)
    }

    /// Start an instance of `schema` at virtual time `at` — open-loop
    /// arrival processes schedule their whole arrival train up front with
    /// this.
    pub fn start_at(&mut self, schema: SchemaId, inputs: Vec<(u16, Value)>, at: u64) -> usize {
        self.starts.push((schema, inputs, at));
        self.starts.len() - 1
    }

    /// Link two started instances for relative-order requirements.
    pub fn link(&mut self, a: usize, b: usize) {
        self.links.push((a, b));
    }

    /// Abort instance `index` at virtual time `at`.
    pub fn abort_at(&mut self, index: usize, at: u64) {
        self.actions.push(UserAction::Abort { index, at });
    }

    /// Change instance `index`'s inputs at virtual time `at`.
    pub fn change_inputs_at(&mut self, index: usize, at: u64, new_inputs: Vec<(u16, Value)>) {
        self.actions.push(UserAction::ChangeInputs {
            index,
            at,
            new_inputs,
        });
    }

    /// Schedule a fail-stop crash (any architecture; see [`CrashWindow`]).
    pub fn crash(&mut self, window: CrashWindow) {
        self.crashes.push(window);
    }

    /// The instance id the scenario will assign to `index`.
    pub fn instance_id(&self, index: usize) -> InstanceId {
        InstanceId::new(self.starts[index].0, index as u32 + 1)
    }

    fn instance_count(&self) -> usize {
        self.starts.len()
    }
}

/// A configured CREW system: deployment + architecture.
#[derive(Debug, Clone)]
pub struct WorkflowSystem {
    /// The deployment (schemas, programs, plan, coordination). Public so
    /// callers can customize programs/failure plans before running.
    pub deployment: Deployment,
    /// The chosen architecture.
    pub architecture: Architecture,
    /// Distributed-control tunables (ignored by other architectures).
    pub dist_config: DistConfig,
    /// Network fault plan; `Some` routes all traffic through the
    /// WAL-backed reliable channels with these faults injected.
    pub net_faults: Option<NetFaultPlan>,
    /// Instance-placement strategy for central/parallel control (ignored
    /// by distributed control).
    pub placement: PlacementStrategy,
    /// Auto-balancer: `Some((interval, config))` samples per-engine load
    /// every `interval` virtual ticks and migrates instances off hot
    /// engines when the measured skew diverges from the §7 uniform
    /// prediction. Parallel control only.
    pub balancer: Option<(u64, BalancerConfig)>,
    /// Per-engine message service cost in virtual ticks, `(engine,
    /// ticks)` — models heterogeneous or degraded engine hardware.
    /// Engines absent from the list handle messages instantly.
    /// Central/parallel control only.
    pub engine_service_costs: Vec<(u32, u64)>,
}

impl WorkflowSystem {
    /// Build a system over `schemas` with default programs and no
    /// failures.
    pub fn new(
        schemas: impl IntoIterator<Item = WorkflowSchema>,
        architecture: Architecture,
    ) -> Self {
        Self::with_deployment(Deployment::new(schemas), architecture)
    }

    /// Build from an existing deployment.
    pub fn with_deployment(deployment: Deployment, architecture: Architecture) -> Self {
        WorkflowSystem {
            deployment,
            architecture,
            dist_config: DistConfig::default(),
            net_faults: None,
            placement: PlacementStrategy::Modulo,
            balancer: None,
            engine_service_costs: Vec::new(),
        }
    }

    /// Inject network faults: all traffic rides the WAL-backed reliable
    /// channels (exactly-once delivery) while `plan` drops, duplicates,
    /// reorders, and partitions the wire underneath them.
    pub fn with_net_faults(mut self, plan: NetFaultPlan) -> Self {
        self.net_faults = Some(plan);
        self
    }

    /// Choose the instance-placement strategy (central/parallel control).
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Enable the auto-balancer with a sampling `interval` (virtual
    /// ticks) and tuning `config` (parallel control only).
    pub fn with_balancer(mut self, interval: u64, config: BalancerConfig) -> Self {
        self.balancer = Some((interval, config));
        self
    }

    /// Give engine `n` a per-message service cost of `ticks` (see
    /// [`WorkflowSystem::engine_service_costs`]).
    pub fn with_engine_service_cost(mut self, engine: u32, ticks: u64) -> Self {
        self.engine_service_costs.push((engine, ticks));
        self
    }

    /// Run a scenario to quiescence and report.
    pub fn run(&self, scenario: Scenario) -> RunReport {
        match self.architecture {
            Architecture::Distributed { agents } => self.run_distributed(scenario, agents),
            Architecture::Central { agents } => self.run_central(scenario, agents, 1),
            Architecture::Parallel { agents, engines } => {
                self.run_central(scenario, agents, engines)
            }
        }
    }

    fn linked_deployment(&self, scenario: &Scenario) -> Deployment {
        let mut deployment = self.deployment.clone();
        for &(a, b) in &scenario.links {
            deployment
                .ro_links
                .link(scenario.instance_id(a), scenario.instance_id(b));
        }
        deployment
    }

    fn run_distributed(&self, scenario: Scenario, agents: u32) -> RunReport {
        let deployment = self.linked_deployment(&scenario);
        let mut run = DistRun::new(deployment, agents, self.dist_config.clone());
        for w in &scenario.crashes {
            // Distributed agents embed their engine slice: either target
            // names the same node.
            let node = match w.target {
                CrashTarget::Agent(n) | CrashTarget::Engine(n) => {
                    assert!(
                        n < agents,
                        "CrashWindow targets node {n} but Distributed has {agents} agents"
                    );
                    crew_simnet::NodeId(n)
                }
            };
            run.sim.schedule_crash(node, w.at, w.down_for);
        }
        if let Some(plan) = &self.net_faults {
            run.sim.enable_net_faults(plan.clone());
        }
        let mut ids = Vec::new();
        let mut arrival_ticks = BTreeMap::new();
        for (schema, inputs, at) in &scenario.starts {
            let id = run.start_instance_at(*schema, inputs.clone(), *at);
            arrival_ticks.insert(id, *at);
            ids.push(id);
        }
        for action in &scenario.actions {
            match action {
                UserAction::Abort { index, at } => run.abort_instance_at(ids[*index], *at),
                UserAction::ChangeInputs {
                    index,
                    at,
                    new_inputs,
                } => run.change_inputs_at(ids[*index], new_inputs.clone(), *at),
            }
        }
        // Bounded horizon: deliberately-unrecoverable crash scenarios keep
        // the poll timer alive forever; a generous virtual-time cap turns
        // "waits for the failed agent" into a terminating run.
        run.sim.max_events = 50_000_000;
        let events = run.sim.run_until(RUN_HORIZON_TICKS);
        let completion_ticks = run.completion_times();
        let outcomes_raw = run.outcomes();
        let outcomes: BTreeMap<InstanceId, InstanceOutcome> = ids
            .iter()
            .map(|&i| {
                let o = match outcomes_raw.get(&i) {
                    Some(Outcome::Committed) => InstanceOutcome::Committed,
                    Some(Outcome::Aborted) => InstanceOutcome::Aborted,
                    None => InstanceOutcome::Stalled,
                };
                (i, o)
            })
            .collect();
        RunReport {
            outcomes,
            instances: scenario.instance_count() as u64,
            scheduler_nodes: run.agent_nodes(),
            events,
            virtual_time: run.sim.now(),
            arrival_ticks,
            completion_ticks,
            metrics: run.sim.metrics.clone(),
            engine_loads: Vec::new(),
        }
    }

    fn run_central(&self, scenario: Scenario, agents: u32, engines: u32) -> RunReport {
        let deployment = self.linked_deployment(&scenario);
        let mut run = CentralRun::new_with_placement(deployment, agents, engines, self.placement);
        for w in &scenario.crashes {
            let node = match w.target {
                CrashTarget::Agent(n) => {
                    assert!(
                        n < agents,
                        "CrashWindow targets agent {n} but this architecture has {agents} agents"
                    );
                    crew_simnet::NodeId(n)
                }
                CrashTarget::Engine(n) => {
                    assert!(
                        n < engines,
                        "CrashWindow targets engine {n} but this architecture has {engines} engine(s)"
                    );
                    run.topo.engine_node(n)
                }
            };
            run.sim.schedule_crash(node, w.at, w.down_for);
        }
        if let Some(plan) = &self.net_faults {
            run.sim.enable_net_faults(plan.clone());
        }
        for &(e, ticks) in &self.engine_service_costs {
            if e < engines {
                run.sim.set_service_cost(run.topo.engine_node(e), ticks);
            }
        }
        let mut ids = Vec::new();
        let mut arrival_ticks = BTreeMap::new();
        for (schema, inputs, at) in &scenario.starts {
            let id = run.start_instance_at(*schema, inputs.clone(), *at);
            arrival_ticks.insert(id, *at);
            ids.push(id);
        }
        for action in &scenario.actions {
            match action {
                UserAction::Abort { index, at } => run.abort_instance_at(ids[*index], *at),
                UserAction::ChangeInputs {
                    index,
                    at,
                    new_inputs,
                } => run.change_inputs_at(ids[*index], new_inputs.clone(), *at),
            }
        }
        // Bounded horizon, mirroring `run_distributed`: an engine or agent
        // that never recovers leaves retransmission timers alive forever;
        // the cap turns "waits for the failed node" into a terminating run
        // reported as Stalled instead of an unbounded loop.
        run.sim.max_events = 50_000_000;
        let events = match self.balancer {
            Some((interval, cfg)) if engines > 1 => {
                let p = crew_analysis::Params::paper_mean();
                run.run_balanced_until(RUN_HORIZON_TICKS, interval, &cfg, &p);
                run.sim.delivered()
            }
            _ => run.sim.run_until(RUN_HORIZON_TICKS),
        };
        let completion_ticks = run.completion_times();
        let statuses = run.statuses();
        let outcomes: BTreeMap<InstanceId, InstanceOutcome> = ids
            .iter()
            .map(|&i| {
                let o = match statuses.get(&i) {
                    Some(InstanceStatus::Committed) => InstanceOutcome::Committed,
                    Some(InstanceStatus::Aborted) => InstanceOutcome::Aborted,
                    Some(InstanceStatus::Executing) | None => InstanceOutcome::Stalled,
                };
                (i, o)
            })
            .collect();
        RunReport {
            outcomes,
            instances: scenario.instance_count() as u64,
            scheduler_nodes: run.engine_nodes(),
            events,
            virtual_time: run.sim.now(),
            arrival_ticks,
            completion_ticks,
            metrics: run.sim.metrics.clone(),
            engine_loads: run.engine_loads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{AgentId, MutualExclusion, SchemaBuilder, SchemaStep, StepId};

    fn two_step_schema() -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(1), "t").inputs(1);
        let s1 = b.add_step("A", "passthrough");
        let s2 = b.add_step("B", "passthrough");
        b.seq(s1, s2);
        b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
        b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
        b.build().unwrap()
    }

    #[test]
    fn same_scenario_commits_under_all_architectures() {
        for arch in [
            Architecture::Central { agents: 2 },
            Architecture::Parallel {
                agents: 2,
                engines: 2,
            },
            Architecture::Distributed { agents: 2 },
        ] {
            let system = WorkflowSystem::new([two_step_schema()], arch);
            let mut scenario = Scenario::new();
            scenario.start(SchemaId(1), vec![(1, Value::Int(7))]);
            scenario.start(SchemaId(1), vec![(1, Value::Int(8))]);
            let report = system.run(scenario);
            assert_eq!(report.committed(), 2, "{arch:?}");
            assert!(report.all_terminal(), "{arch:?}");
            assert!(report.metrics.total_messages > 0, "{arch:?}");
        }
    }

    /// `two_step_schema` names agent 1; a pool of one agent must be refused
    /// before any node is laid out, or the request for step B lands on
    /// whichever node follows the agents and the run stalls silently.
    fn run_with_short_pool(arch: Architecture) {
        let system = WorkflowSystem::new([two_step_schema()], arch);
        let mut scenario = Scenario::new();
        scenario.start(SchemaId(1), vec![(1, Value::Int(7))]);
        system.run(scenario);
    }

    #[test]
    #[should_panic(expected = "names agent A1 outside the pool of 1")]
    fn short_pool_is_refused_under_central() {
        run_with_short_pool(Architecture::Central { agents: 1 });
    }

    #[test]
    #[should_panic(expected = "names agent A1 outside the pool of 1")]
    fn short_pool_is_refused_under_parallel() {
        run_with_short_pool(Architecture::Parallel {
            agents: 1,
            engines: 2,
        });
    }

    #[test]
    #[should_panic(expected = "names agent A1 outside the pool of 1")]
    fn short_pool_is_refused_under_distributed() {
        run_with_short_pool(Architecture::Distributed { agents: 1 });
    }

    /// A mutex naming step S9 of the two-step schema must be refused
    /// before any node is laid out too: the engines would silently drop
    /// the member, and the distributed agents would panic mid-run when
    /// locate the mutex's manager from its first member.
    fn run_with_unknown_mutex_member(arch: Architecture) {
        let mut system = WorkflowSystem::new([two_step_schema()], arch);
        let dock = MutualExclusion {
            id: 0,
            resource: "dock".into(),
            members: vec![
                SchemaStep::new(SchemaId(1), StepId(9)),
                SchemaStep::new(SchemaId(1), StepId(1)),
            ],
        };
        system.deployment.coordination.mutual_exclusions.push(dock);
        let mut scenario = Scenario::new();
        let a = scenario.start(SchemaId(1), vec![(1, Value::Int(7))]);
        let b = scenario.start(SchemaId(1), vec![(1, Value::Int(8))]);
        scenario.link(a, b);
        system.run(scenario);
    }

    #[test]
    #[should_panic(expected = "mutex 0 names step WF1.S9, which no deployed schema defines")]
    fn unknown_coordination_step_is_refused_under_central() {
        run_with_unknown_mutex_member(Architecture::Central { agents: 2 });
    }

    #[test]
    #[should_panic(expected = "mutex 0 names step WF1.S9, which no deployed schema defines")]
    fn unknown_coordination_step_is_refused_under_parallel() {
        run_with_unknown_mutex_member(Architecture::Parallel {
            agents: 2,
            engines: 2,
        });
    }

    #[test]
    #[should_panic(expected = "mutex 0 names step WF1.S9, which no deployed schema defines")]
    fn unknown_coordination_step_is_refused_under_distributed() {
        run_with_unknown_mutex_member(Architecture::Distributed { agents: 2 });
    }

    /// A step naming a program no agent can run must be refused before any
    /// node is laid out, the same way under every architecture: the app
    /// agents would fail each attempt until the rollback budget aborts the
    /// instance, and the distributed agent would panic mid-run.
    fn run_with_unregistered_program(arch: Architecture) {
        let mut b = SchemaBuilder::new(SchemaId(1), "t").inputs(1);
        let s1 = b.add_step("A", "passthrough");
        let s2 = b.add_step("B", "no-such-program");
        b.seq(s1, s2);
        b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
        b.configure(s2, |d| d.eligible_agents = vec![AgentId(1)]);
        let system = WorkflowSystem::new([b.build().unwrap()], arch);
        let mut scenario = Scenario::new();
        scenario.start(SchemaId(1), vec![(1, Value::Int(7))]);
        system.run(scenario);
    }

    #[test]
    #[should_panic(expected = "which the registry does not hold")]
    fn unregistered_program_is_refused_under_central() {
        run_with_unregistered_program(Architecture::Central { agents: 2 });
    }

    #[test]
    #[should_panic(expected = "which the registry does not hold")]
    fn unregistered_program_is_refused_under_parallel() {
        run_with_unregistered_program(Architecture::Parallel {
            agents: 2,
            engines: 2,
        });
    }

    #[test]
    #[should_panic(expected = "which the registry does not hold")]
    fn unregistered_program_is_refused_under_distributed() {
        run_with_unregistered_program(Architecture::Distributed { agents: 2 });
    }

    #[test]
    fn net_faults_preserve_outcomes_under_all_architectures() {
        for arch in [
            Architecture::Central { agents: 2 },
            Architecture::Parallel {
                agents: 2,
                engines: 2,
            },
            Architecture::Distributed { agents: 2 },
        ] {
            let system = WorkflowSystem::new([two_step_schema()], arch)
                .with_net_faults(NetFaultPlan::probabilistic(11, 0.05, 0.05, 0.10));
            let mut scenario = Scenario::new();
            scenario.start(SchemaId(1), vec![(1, Value::Int(7))]);
            scenario.start(SchemaId(1), vec![(1, Value::Int(8))]);
            let report = system.run(scenario);
            assert_eq!(report.committed(), 2, "{arch:?}");
            assert!(report.all_terminal(), "{arch:?}");
            assert!(report.transport().data_frames > 0, "{arch:?}");
            assert!(report.frame_overhead() >= 1.0, "{arch:?}");
        }
    }

    #[test]
    fn staggered_starts_record_latency_under_all_architectures() {
        for arch in [
            Architecture::Central { agents: 2 },
            Architecture::Parallel {
                agents: 2,
                engines: 2,
            },
            Architecture::Distributed { agents: 2 },
        ] {
            let system = WorkflowSystem::new([two_step_schema()], arch);
            let mut scenario = Scenario::new();
            scenario.start_at(SchemaId(1), vec![(1, Value::Int(7))], 10);
            scenario.start_at(SchemaId(1), vec![(1, Value::Int(8))], 40);
            let report = system.run(scenario);
            assert_eq!(report.committed(), 2, "{arch:?}");
            assert_eq!(report.arrival_ticks.len(), 2, "{arch:?}");
            assert_eq!(report.completion_ticks.len(), 2, "{arch:?}");
            let lat = report.latency_stats().expect("two completions");
            assert_eq!(lat.count, 2, "{arch:?}");
            assert!(lat.p50 > 0, "{arch:?}: completion after arrival");
            assert!(
                lat.max < 1_000,
                "{arch:?}: latency is per-instance, not absolute time"
            );
        }
    }

    #[test]
    fn consistent_hash_placement_commits_and_reports_engine_loads() {
        let system = WorkflowSystem::new(
            [two_step_schema()],
            Architecture::Parallel {
                agents: 2,
                engines: 4,
            },
        )
        .with_placement(PlacementStrategy::ConsistentHash { vnodes: 16 })
        .with_balancer(8, BalancerConfig::default());
        let mut scenario = Scenario::new();
        for i in 0..12 {
            scenario.start_at(SchemaId(1), vec![(1, Value::Int(i))], (i as u64) * 3);
        }
        let report = system.run(scenario);
        assert_eq!(report.committed(), 12);
        assert!(report.all_terminal());
        assert_eq!(report.engine_loads.len(), 4);
        assert!(report.engine_loads.iter().any(|l| l.delivered_msgs > 0));
        assert!(report.engine_skew() >= 1.0 || report.engine_loads.is_empty());
    }

    #[test]
    fn scenario_instance_ids_are_serial() {
        let mut scenario = Scenario::new();
        let a = scenario.start(SchemaId(1), vec![]);
        let b = scenario.start(SchemaId(1), vec![]);
        assert_eq!(scenario.instance_id(a), InstanceId::new(SchemaId(1), 1));
        assert_eq!(scenario.instance_id(b), InstanceId::new(SchemaId(1), 2));
    }

    #[test]
    fn abort_mid_flight_aborts() {
        let system =
            WorkflowSystem::new([two_step_schema()], Architecture::Distributed { agents: 2 });
        let mut scenario = Scenario::new();
        let i = scenario.start(SchemaId(1), vec![(1, Value::Int(7))]);
        scenario.abort_at(i, 2);
        let report = system.run(scenario);
        // Either the abort landed before commit (aborted) or after
        // (rejected → committed); with latency ≥ 1 per hop and 2 steps the
        // abort at t=2 beats the 2-hop commit path.
        assert!(report.aborted() == 1 || report.committed() == 1);
    }
}
