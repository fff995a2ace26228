//! The distributed workflow agent.
//!
//! One node class plays all three roles of §4.1 concurrently, per instance:
//! *coordination agent* (designated executor of the start step: owns
//! commit/abort, the coordination instance summary table and the front-end
//! interface), *execution agent* (runs steps, navigates onward via workflow
//! packets) and *termination agent* (runs terminal steps and reports
//! `StepCompleted`).
//!
//! ## Protocol realizations
//!
//! - **Navigation** (§4.2): packets are broadcast to every agent eligible
//!   for a succeeding step; a deterministic rendezvous hash designates the
//!   executor, so no extra selection messages are needed (the
//!   `StateInformation` two-phase selection exists for the ablation).
//! - **Commit**: weighted thread accounting (see [`crate::weight`]).
//! - **Rollback** (§5.2): `WorkflowRollback` reaches the origin's agent,
//!   which numbers the rollback among that origin's rollbacks, applies
//!   [`InstanceNav::roll_back`] (what is invalidated, re-fired and
//!   unparked, which dependents follow — decided in [`crew_exec::recovery`])
//!   and sends `HaltThread` probes, carrying the origin and the number,
//!   along exactly the channels earlier packets used. A halt and a packet
//!   of the re-execution take different paths, so either may arrive first:
//!   the number is a `rollback` event of the origin, which packets carry
//!   like any other, and an agent applies a rollback it has not applied
//!   yet — from the halt or from the packet, whichever comes first — before
//!   it merges the packet. A rollback voids only what its origin and the
//!   steps downstream of it produced ([`crew_exec::voids`]); a packet from
//!   a branch it did not touch merges whole.
//! - **OCR** (Figure 5): on re-visit the agent asks
//!   [`InstanceNav::revisit`] from the schema's vantage; a compensation
//!   dependent set is undone by a `CompensateSet` chain and an abandoned
//!   if-then-else branch ([`InstanceNav::abandoned_branch`]) by a
//!   `CompensateThread` chain, both last in topological order first, and
//!   every hop of either undoes its step if it ran there and passes the
//!   rest on.
//! - **Coordinated execution** (§5.1): relative ordering uses an arbiter
//!   (the designated agent of the partner's first conflicting step) that
//!   tells the leader's agents what they owe (`RoNotify`) and releases the
//!   leader's guards (`AddEvent`); every guard is wired at instantiation,
//!   so packets carry no ordering tags (the paper's `AddPrecondition`);
//!   mutual exclusion uses a manager agent granting via `AddEvent`;
//!   rollback dependencies propagate
//!   `WorkflowRollback` across linked instances, marked `from_dependency`
//!   so a dependency-caused rollback goes no further (one level, at any
//!   placement of the partners). The arbiter's and the managers' decisions
//!   are `crew_exec`'s [`RoArbiter`] and [`MutexQueue`], and what a step
//!   waits on is its instance's [`Gate`], wired over the steps designated
//!   here; the agent carries their answers as `AddRule`/`AddEvent`.
//! - **Delivery**: every interaction with another role goes through
//!   `DistAgent::tell`, which calls the message's handler when the role
//!   is played here and sends otherwise, so a co-located and a remote
//!   partner run the same code.
//! - **Recovery** (§4.1): a fail-stop crash puts a fresh agent in this
//!   one's place, and `DistAgent::take_over` names what survives (the
//!   AGDB, the halted flag, outstanding load-balanced forwards and the
//!   load), each with its reason. `on_recover` folds the AGDB back into
//!   the instance entries; rules and gates are rebuilt as packets arrive.

use crate::msg::{CoordRule, DistMsg, WorkflowStatusKind};
use crate::packet::WorkflowPacket;
use crate::runtime::{coordination_agent, SharedCtx, SuccessorSelection};
use crate::runtime::{POLL_PERIOD, POLL_TIMEOUT};
use crate::weight::Weight;
use crew_exec::coord::{mutex_grant, ro_guard};
use crew_exec::{
    declared_outputs, designated_agent, ro_canonical, ro_side, ro_steps, voids, Abort,
    FailureVerdict, Gate, InstanceHistory, InstanceNav, MutexQueue, Refire, Request, Revisit,
    RoArbiter, RoLeader, StepExecutor, StepOutcome, StepState, Vantage, Verdict, Wake, NAV_LOAD,
};
use crew_model::{
    DataEnv, InstanceId, ItemKey, SchemaStep, StepId, Value, VecMap, VecSet, WorkflowSchema,
};
use crew_rules::{compile_schema, EventKind};
use crew_simnet::{Ctx, Node, NodeId, TimerId};
use crew_storage::{recover_for_node, DbOp, InstanceStatus, MemStore, Wal};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

mod paged;

use paged::Paged;

const TIMER_POLL: TimerId = TimerId(1);
const TIMER_PURGE: TimerId = TimerId(2);

/// A per-node table keyed by instance: it grows with the run and handlers
/// read it several times per message, so one hash probe finds an entry.
/// The hasher is fixed, so the iteration order repeats run to run; a read
/// that needs key order sorts what it collects (DESIGN.md §6j). It needs
/// no collision resistance: the front end numbers instances, not a user.
type ByInstance<V> = HashMap<InstanceId, V, BuildHasherDefault<InstanceHasher>>;

/// Multiplicative hash over an [`InstanceId`]'s two words, `schema` and
/// `serial` (the golden-ratio multiplier of FxHash).
#[derive(Default)]
struct InstanceHasher(u64);

impl Hasher for InstanceHasher {
    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b.into()));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Volatile per-instance state at one agent (its data, step history and
/// summary row are rebuilt from the AGDB on recovery): the shared
/// navigator over the slice of the instance this agent holds, plus what
/// only packet-passing agents need — the channels packets went down, and
/// the stall-detection / takeover bookkeeping.
#[derive(Debug, Default)]
struct InstState {
    /// Rules are installed for the locally-designated steps only; the
    /// terminal-weight account is meaningful at the coordination agent.
    nav: InstanceNav,
    instantiated: bool,
    /// (local step, successor step) pairs we already forwarded packets
    /// along (the halt probes retrace these channels).
    forwarded: VecSet<(StepId, StepId)>,
    /// The tables a fault-free run under designated executors never
    /// writes, allocated on first write (DESIGN.md §6j).
    cold: Option<Box<Cold>>,
    /// This agent plays the coordination-agent role for the instance: an
    /// entry that keeps it survives a purge.
    is_coordinator: bool,
    /// The instance's row in the coordination instance summary table — the
    /// one AGDB table read live (`WorkflowStatus`). Not derived from
    /// `is_coordinator`: `on_workflow_abort` can journal `Aborted` at an
    /// agent that never saw the start.
    status: Option<InstanceStatus>,
}

/// An entry's rarely written tables: a `CompensateSet` chain, status
/// polling, a takeover or a load-balanced choice writes them.
#[derive(Debug, Default)]
struct Cold {
    /// Steps whose re-execution is deferred until a `CompensateSet` chain
    /// returns.
    awaiting_compset: VecSet<StepId>,
    /// Steps whose rule fired on a trigger that outran their own packet:
    /// started once that packet brings their weight (DESIGN.md §6l F10).
    awaiting_weight: VecSet<StepId>,
    /// Steps designated at another agent whose packet we hold, and how far
    /// the wait for their `step.done` has got. The alternate eligible agent
    /// is the natural stall detector — it is the only node that already
    /// holds the state needed for a takeover.
    waits: VecMap<StepId, RemoteWait>,
    /// Steps this agent executes despite not being designated (takeover).
    overrides: VecSet<StepId>,
    /// Load-balanced executor choices received via packets: step → agent.
    chosen_executor: VecMap<StepId, crew_model::AgentId>,
}

impl InstState {
    /// The rarely written tables, if one was ever written.
    fn cold(&self) -> Option<&Cold> {
        self.cold.as_deref()
    }

    /// The rarely written tables, allocated on first use.
    fn cold_mut(&mut self) -> &mut Cold {
        self.cold.get_or_insert_with(Box::default)
    }
}

/// How far the wait for a remote step's `step.done` has got.
#[derive(Debug, Clone, Copy)]
enum RemoteWait {
    /// A packet for the step arrived at this tick; unpolled.
    Since(u64),
    /// `StepStatus` polls went out at this tick. A poll answered only by
    /// silence (the designated executor crashed) escalates to a takeover
    /// after a second timeout.
    Polled(u64),
    /// Polled and answered, escalated or completed: never polled again.
    Settled,
}

impl RemoteWait {
    /// The step completed, or a poll reply reports progress: a polled wait
    /// becomes `Settled` and stays (true); an unpolled one is dropped
    /// (false), so a later packet opens it again.
    fn settle(&mut self) -> bool {
        !matches!(
            std::mem::replace(self, RemoteWait::Settled),
            RemoteWait::Since(_)
        )
    }
}

/// The distributed agent node.
pub struct DistAgent {
    /// This agent's id (equals its node id by construction).
    pub agent_id: crew_model::AgentId,
    shared: SharedCtx,
    executor: StepExecutor,
    /// Every instance this agent has touched and not purged, in pages: a
    /// table that grows moves slot numbers, not states, and a page is one
    /// block for many entries.
    instances: Paged<InstState>,
    /// Compiled rule templates per schema (lazily built): only the rows
    /// of steps this agent is eligible for, the others it never installs.
    templates: BTreeMap<crew_model::SchemaId, Arc<Vec<crew_rules::TemplateRule>>>,
    /// AGDB: the write-ahead log. The instance entries hold the only copy
    /// of its tables; `on_recover` folds the log straight back into them.
    pub(crate) wal: Wal<DbOp, MemStore>,
    /// Relative-order decisions of the pairs this agent arbitrates.
    ro: RoArbiter,
    /// The mutual exclusions this agent manages, by requirement.
    mutexes: BTreeMap<u32, MutexQueue>,
    /// Instances committed locally-known (purge batching).
    purge_queue: Vec<InstanceId>,
    /// Cumulative navigation load (served via `StateInformation`);
    /// survives a crash (`take_over`).
    load: u64,
    /// The poll timer is set; a crash drops it with the instances.
    poll_armed: bool,
    /// Outstanding load-balanced forwards: token → deferred packet
    /// fan-out. Survives a crash with `next_token` (`take_over`).
    pending_forwards: BTreeMap<u64, PendingForward>,
    next_token: u64,
    /// Set when AGDB recovery failed: the node degrades to fail-silent
    /// (ignores every message and timer) instead of serving from a state
    /// that contradicts its own log. Shared failure mode with the central
    /// engine's WFDB recovery.
    halted: bool,
}

/// A packet whose executor choice awaits `StateInformationReply`s.
struct PendingForward {
    packet: WorkflowPacket,
    candidates: Vec<crew_model::AgentId>,
    replies: BTreeMap<NodeId, u64>,
    expected: usize,
}

impl DistAgent {
    pub fn new(agent_id: crew_model::AgentId, shared: SharedCtx) -> Self {
        let executor = StepExecutor::of(shared.deployment.clone());
        DistAgent {
            agent_id,
            shared,
            executor,
            instances: Paged::default(),
            templates: BTreeMap::new(),
            wal: Wal::in_memory(),
            ro: RoArbiter::default(),
            mutexes: BTreeMap::new(),
            purge_queue: Vec::new(),
            load: 0,
            poll_armed: false,
            pending_forwards: BTreeMap::new(),
            next_token: 0,
            halted: false,
        }
    }

    /// Become `fresh`, keeping what survives a fail-stop crash. The rest —
    /// instances, gates, managers, rule templates, the armed timers — is
    /// lost, and so is the purge queue: its timer, due while the node is
    /// down, is dropped, and the next commit arms one again. The
    /// survivors, and why (the counts are of
    /// `crash_recovery::load_balanced_agent_crash_sweep`, 320 runs per
    /// outage length, with the survivor dropped):
    /// - `wal`: the AGDB, which `on_recover` folds back in;
    /// - `halted`: a node whose recovery once failed stays fail-silent;
    /// - `pending_forwards`, `next_token`: a load-balanced forward's
    ///   `StateInformation` polls are in the durable channel outbox and
    ///   their replies arrive after recovery; a forward a fresh table
    ///   dropped never sends its packet (52 of 320 runs stalled);
    /// - `load`: reset, a recovered forwarder reads as the least loaded
    ///   and picks itself, and a recovered agent re-runs steps its AGDB
    ///   records `Done` (ROADMAP row (m); 32 of 320 runs ran a step twice).
    fn take_over(&mut self, fresh: DistAgent) {
        let old = std::mem::replace(self, fresh);
        self.wal = old.wal;
        self.halted = old.halted;
        self.pending_forwards = old.pending_forwards;
        self.next_token = old.next_token;
        self.load = old.load;
    }

    /// True when AGDB recovery failed and the node went fail-silent.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    // ---- small helpers ----------------------------------------------------

    fn schema(&self, instance: InstanceId) -> Arc<WorkflowSchema> {
        self.shared
            .deployment
            .expect_schema(instance.schema)
            .clone()
    }

    fn seed(&self) -> u64 {
        self.shared.deployment.seed
    }

    fn node_of_step(&self, instance: InstanceId, schema: &WorkflowSchema, step: StepId) -> NodeId {
        let agent = designated_agent(self.seed(), instance, schema.expect_step(step));
        self.shared.directory.node_of(agent)
    }

    fn is_designated(&self, instance: InstanceId, schema: &WorkflowSchema, step: StepId) -> bool {
        designated_agent(self.seed(), instance, schema.expect_step(step)) == self.agent_id
    }

    /// The agent expected to execute `step` for `instance`: a load-balanced
    /// choice received via packets when present, else the deterministic
    /// designation. While a load-balanced choice is still outstanding the
    /// step belongs to *nobody* — executing on the designation fallback
    /// would race the selection and double-execute.
    fn is_executor(&mut self, instance: InstanceId, schema: &WorkflowSchema, step: StepId) -> bool {
        let cold = self.instances.get(&instance).and_then(InstState::cold);
        if let Some(&chosen) = cold.and_then(|c| c.chosen_executor.get(&step)) {
            return chosen == self.agent_id;
        }
        if self.selectable(schema, step) {
            return false; // await the selection's executor stamp
        }
        self.is_designated(instance, schema, step)
    }

    /// Whether load-balanced selection picks `step`'s executor. Only under
    /// `SuccessorSelection::LoadBalanced`, and only for a step with a
    /// choice to make: several eligible agents, one predecessor (a
    /// confluence step goes to its designee, standing in for the paper's
    /// leader election), not the start step (the coordination agent runs
    /// it), and no mutual exclusion or relative order naming it — its
    /// guards are wired at the designee alone (FAILURE_MODES F3).
    fn selectable(&self, schema: &WorkflowSchema, step: StepId) -> bool {
        let dep = &self.shared.deployment;
        self.shared.config.successor_selection == SuccessorSelection::LoadBalanced
            && schema.expect_step(step).eligible_agents.len() > 1
            && schema.forward_incoming(step).count() <= 1
            && step != schema.start_step()
            && !dep.is_coordinated(SchemaStep::new(schema.id, step))
    }

    fn nav_load(&mut self, ctx: &mut Ctx<DistMsg>) {
        self.load += NAV_LOAD;
        ctx.add_load(NAV_LOAD);
    }

    fn log(&mut self, op: &DbOp) {
        self.wal
            .append(op)
            .expect("in-memory WAL append cannot fail");
    }

    /// Journal one data item and hand the value back, so the navigator
    /// stores the allocation that was journaled instead of a clone.
    fn log_write(&mut self, instance: InstanceId, key: ItemKey, value: Value) -> Value {
        let op = DbOp::DataWritten {
            instance,
            key,
            value,
        };
        self.log(&op);
        match op {
            DbOp::DataWritten { value, .. } => value,
            _ => unreachable!("built as DataWritten above"),
        }
    }

    /// Journal `step`'s row in the step table: the state it reached, the
    /// attempt that reached it and, when `Done`, what it produced (recovery
    /// derives the step's data writes from those).
    fn log_step(
        &mut self,
        instance: InstanceId,
        step: StepId,
        state: StepState,
        attempt: u32,
        outputs: Vec<Value>,
    ) {
        let row = DbOp::StepRecorded {
            instance,
            step,
            state,
            attempt,
            outputs,
        };
        self.log(&row);
    }

    /// Journal a summary-table change and apply it.
    fn set_status(&mut self, instance: InstanceId, status: InstanceStatus) {
        self.log(&DbOp::StatusChanged { instance, status });
        self.inst(instance).status = Some(status);
    }

    /// Instance state, creating an empty shell on first contact.
    fn inst(&mut self, instance: InstanceId) -> &mut InstState {
        self.instances.get_or_default(instance)
    }

    /// Deliver `msg` to the agent at `node`: a send to a peer, or — `node`
    /// is this agent — a direct call of the handler the message reaches, so
    /// a co-located and a remote partner run the same code. Unlike
    /// `Engine::tell` nothing is journaled here: the agent journals the
    /// effects its handlers record, not its inputs. The one handler that
    /// tells the two apart is `StepCompensate`, which acks only a remote
    /// requester.
    fn tell(&mut self, node: NodeId, msg: DistMsg, ctx: &mut Ctx<DistMsg>) {
        if node == ctx.self_id {
            self.dispatch(node, msg, ctx);
        } else {
            ctx.send(node, msg);
        }
    }

    // ---- rule instantiation ------------------------------------------------

    /// Install the navigation rules for the locally-designated steps of an
    /// instance (first packet contact), and wire its coordination gate.
    fn ensure_instantiated(&mut self, instance: InstanceId) {
        if self
            .instances
            .get(&instance)
            .is_some_and(|s| s.instantiated)
        {
            return;
        }
        let schema = self.schema(instance);
        let me = self.agent_id;
        let template = self
            .templates
            .entry(instance.schema)
            .or_insert_with(|| {
                let mut rows = compile_schema(&schema);
                rows.retain(|t| schema.expect_step(t.step).eligible_agents.contains(&me));
                Arc::new(rows)
            })
            .clone();

        let seed = self.seed();
        let load_balanced =
            self.shared.config.successor_selection == SuccessorSelection::LoadBalanced;
        let st = self.instances.get_or_default(instance);
        st.instantiated = true;
        for t in template.iter() {
            // Under load balancing the executor is chosen dynamically, so
            // every eligible agent holds the rules (the template's rows)
            // and the executor check happens at firing time; under the
            // rendezvous scheme only the designee needs them.
            if load_balanced || designated_agent(seed, instance, schema.expect_step(t.step)) == me {
                st.nav.rules.add_rule(t.rule.clone());
            }
        }
        self.wire_gate(instance);
    }

    /// Wire `instance`'s gate over the steps designated here, on first
    /// use: at instantiation, or when an answer arrives before the first
    /// packet does.
    fn wire_gate(&mut self, instance: InstanceId) {
        if self.inst(instance).nav.gate.is_none() {
            let schema = self.schema(instance);
            let designated = |step| self.is_designated(instance, &schema, step);
            let gate = Gate::wire(&self.shared.deployment, instance, designated);
            self.inst(instance).nav.gate = gate;
        }
    }

    // ---- packet handling ---------------------------------------------------

    fn on_packet(&mut self, mut packet: WorkflowPacket, ctx: &mut Ctx<DistMsg>) {
        let instance = packet.instance;
        self.ensure_instantiated(instance);
        // A rollback the sender applied and this agent has not (its halt
        // is still on the way) comes first: the packet's facts follow it.
        for &(kind, number) in &packet.events {
            if let EventKind::Rollback(origin) = kind {
                self.apply_rollback(instance, origin, number, ctx);
            }
        }
        // What a rollback applied here voided, the sender still held: the
        // packet's facts from that origin and downstream of it are stale.
        let schema = self.schema(instance);
        let st = self.inst(instance);
        let voided = st.nav.voided_since(&schema, &packet.events);
        for &step in &voided {
            packet.data.clear_step_outputs(step);
        }
        let stale = |k: &EventKind| matches!(k, EventKind::StepDone(s) if voided.contains(s));
        packet.events.retain(|(kind, _)| !stale(kind));
        if let Some(chosen) = packet.executor {
            st.cold_mut()
                .chosen_executor
                .insert(packet.target_step, chosen);
        }
        self.nav_load(ctx);

        // Merge data (persisting each write), making room for the items
        // this table lacks in one allocation.
        self.inst(instance).nav.data.reserve_for(&packet.data);
        for (key, value) in packet.data {
            let value = self.log_write(instance, key, value);
            self.inst(instance).nav.data.set(key, value);
        }
        // Merge events by generation (idempotent across the broadcast,
        // fresh occurrences re-trigger rules).
        self.inst(instance).nav.rules.merge_events(&packet.events);
        // Weight accounting at the executor of the target step.
        let step = packet.target_step;
        let am_executor = self.is_executor(instance, &schema, step);
        // Only a query step can be taken over, so only its wait is polled.
        if self.shared.config.enable_status_polling
            && !am_executor
            && schema.expect_step(step).kind == crew_model::StepKind::Query
        {
            let wait = RemoteWait::Since(ctx.now);
            let st = self.inst(instance);
            if !st.nav.rules.has_event(EventKind::StepDone(step)) {
                st.cold_mut().waits.entry(step).or_insert(wait);
                self.arm_poll(ctx);
            }
        }
        if am_executor && !packet.source_step.is_some_and(|s| voided.contains(&s)) {
            let st = self.inst(instance);
            (st.nav).accept_weight(&schema, packet.source_step, step, packet.weight);
            // The step's rule fired ahead of this packet: fire it again.
            let cold = st.cold.as_deref_mut();
            if let Some(awaiting) = cold.map(|c| &mut c.awaiting_weight) {
                if awaiting.contains(&step) && !st.nav.lacks_weight(&schema, step) {
                    awaiting.remove(&step);
                    st.nav.rules.refire(step);
                }
            }
        }
        self.fire_rules(instance, ctx);
    }

    /// Fire every ready rule and start its step, repeating until no rule
    /// fires (a step completion can enable further local rules).
    fn fire_rules(&mut self, instance: InstanceId, ctx: &mut Ctx<DistMsg>) {
        while let Some(steps) = self.inst(instance).nav.ready_steps() {
            for step in steps {
                self.start_step(instance, step, ctx);
            }
        }
    }

    // ---- coordination ------------------------------------------------------

    /// Ask `instance`'s gate whether `step` may run, sending what it asks
    /// for until it says go or parks the step (a manager or arbiter here
    /// may answer on the spot).
    fn pass_gate(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<DistMsg>) -> bool {
        loop {
            let Some(gate) = self.inst(instance).nav.gate.as_deref_mut() else {
                return true;
            };
            match gate.check(step).1 {
                Verdict::Go => return true,
                Verdict::Parked => return false,
                Verdict::Send(requests) => {
                    for request in requests {
                        self.request(instance, request, ctx);
                    }
                    // An answer on the spot may have retried the step.
                    let gate = self.inst(instance).nav.gate.as_deref();
                    if !gate.is_some_and(|g| g.asking(step)) {
                        return false;
                    }
                }
            }
        }
    }

    /// Send `request` of `instance`: a claim to the pair's arbiter, an
    /// acquire or release to the mutex's manager.
    fn request(&mut self, instance: InstanceId, request: Request, ctx: &mut Ctx<DistMsg>) {
        let (node, rule) = match request {
            Request::Claim(req, partner) => (
                self.ro_arbiter_node(req, instance, partner),
                CoordRule::RoFirstDone {
                    req,
                    claimant: instance,
                    partner,
                },
            ),
            Request::Acquire(req, step) => (
                self.mutex_manager_node(req),
                CoordRule::MutexAcquire {
                    req,
                    instance,
                    step,
                },
            ),
            Request::Release(req, step) => (
                self.mutex_manager_node(req),
                CoordRule::MutexRelease {
                    req,
                    instance,
                    step,
                },
            ),
        };
        self.tell(node, DistMsg::AddRule { rule }, ctx);
    }

    /// Hand `instance`'s gate to `answer` and carry out what it wakes:
    /// retry the steps, inject the releases owed at the lagging steps'
    /// agents, send the requests.
    fn answer(
        &mut self,
        instance: InstanceId,
        ctx: &mut Ctx<DistMsg>,
        answer: impl FnOnce(&mut Gate, &InstanceHistory) -> Wake,
    ) {
        let nav = &mut self.inst(instance).nav;
        let Some(gate) = nav.gate.as_deref_mut() else {
            return;
        };
        let wake = answer(gate, &nav.history);
        for step in wake.retry {
            self.start_step(instance, step, ctx);
        }
        for owed in wake.emit {
            self.add_event_at(owed.partner, owed.partner_step, owed.tag, ctx);
        }
        for request in wake.send {
            self.request(instance, request, ctx);
        }
    }

    // ---- step execution ----------------------------------------------------

    fn start_step(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<DistMsg>) {
        let schema = self.schema(instance);
        let cold = self.inst(instance).cold();
        let overridden = cold.is_some_and(|c| c.overrides.contains(&step));
        let deferred = cold.is_some_and(|c| c.awaiting_compset.contains(&step));
        if !overridden && !self.is_executor(instance, &schema, step) {
            return;
        }
        if deferred {
            return; // a CompensateSet chain will restart it
        }
        // A trigger in another step's packet: wait for this step's own.
        if !overridden && self.inst(instance).nav.lacks_weight(&schema, step) {
            self.inst(instance).cold_mut().awaiting_weight.insert(step);
            return;
        }
        if !self.pass_gate(instance, step, ctx) {
            return;
        }
        // Nested workflow step: launch the child instead of a program.
        if let Some(&child_schema) = schema.nested.get(&step) {
            self.launch_nested(instance, step, child_schema, ctx);
            return;
        }

        let def = schema.expect_step(step);
        let nav = &mut self.instances.get_or_default(instance).nav;
        match nav.revisit(&self.shared.deployment, instance, step, Vantage::Schema) {
            // Previous results suffice: re-assert step.done directly.
            Revisit::Reuse => self.after_step_done(instance, step, ctx),
            Revisit::Execute => self.execute_now(instance, def, ctx),
            // Later members of the step's dependent set are undone first by
            // the CompensateSet chain, which re-executes it at its end (§5.2).
            Revisit::Compensate { mut undo, .. } if undo.len() > 1 => {
                undo.reverse();
                self.inst(instance).cold_mut().awaiting_compset.insert(step);
                self.pass_chain(instance, Some(step), undo, ctx);
            }
            Revisit::Compensate { partial, .. } => {
                self.compensate_local(instance, step, partial, ctx);
                self.execute_now(instance, def, ctx);
            }
        }
    }

    fn execute_now(
        &mut self,
        instance: InstanceId,
        def: &crew_model::StepDef,
        ctx: &mut Ctx<DistMsg>,
    ) {
        self.nav_load(ctx);
        let outcome = {
            let st = self.instances.get_mut(&instance).expect("instantiated");
            self.executor
                .execute(def, instance, &mut st.nav.data, &mut st.nav.history)
                .expect("Deployment::validate refuses a step naming an unregistered program")
        };
        match outcome {
            StepOutcome::Done {
                attempt,
                outputs,
                cost,
            } => {
                ctx.add_load(cost);
                self.log_step(instance, def.id, StepState::Done, attempt, outputs);
                self.after_step_done(instance, def.id, ctx);
            }
            StepOutcome::Failed { attempt, .. } => {
                self.log_step(instance, def.id, StepState::Failed, attempt, vec![]);
                let schema = self.schema(instance);
                let nav = &mut self.inst(instance).nav;
                match nav.failure_verdict(&schema, def.id, attempt) {
                    // Requeue via a self-send so each attempt is a fresh
                    // delivery (simulated time advances, no recursion).
                    FailureVerdict::Retry => ctx.send(
                        ctx.self_id,
                        DistMsg::StepRetry {
                            instance,
                            step: def.id,
                        },
                    ),
                    // §5.2: only the rollback origin's agent is told —
                    // "None of the other agents that executed steps of
                    // that workflow are notified".
                    FailureVerdict::RollbackTo(origin) => {
                        let target = self.node_of_step(instance, &schema, origin);
                        let msg = DistMsg::WorkflowRollback {
                            instance,
                            origin,
                            from_dependency: false,
                        };
                        self.tell(target, msg, ctx);
                    }
                    FailureVerdict::Abort => {
                        let coord = self.coordination_node(instance, &schema);
                        self.tell(coord, DistMsg::WorkflowAbort { instance }, ctx);
                    }
                }
            }
        }
    }

    /// Everything that happens once a step's effects are (re)established:
    /// post `step.done`, run coordination notifications, detect branch
    /// switches, forward packets, report terminal completions.
    fn after_step_done(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<DistMsg>) {
        let schema = self.schema(instance);
        // A new execution and an OCR reuse alike post a new occurrence,
        // which the steps downstream fire on.
        self.inst(instance)
            .nav
            .rules
            .add_event(EventKind::StepDone(step));

        // Coordination: the releases the step owes lagging partners, and
        // its grants back to their managers.
        self.answer(instance, ctx, |gate, _| gate.done(step));

        // A switched XOR split (Figure 3): the CompensateThread chain undoes
        // the abandoned branch before the confluence (§5.2).
        let mut undo = (self.inst(instance).nav).abandoned_branch(&schema, step, Vantage::Schema);
        if !undo.is_empty() {
            undo.reverse();
            self.pass_chain(instance, None, undo, ctx);
        }

        // Terminal step (and not going round its loop again): report
        // completion (weight) to the coordination agent.
        let nav = &self.inst(instance).nav;
        if schema.terminal_steps().contains(&step) && !nav.loop_continues(&schema, step) {
            let weight = nav.flow_weight(step);
            self.report_terminal_weight(instance, step, weight, &schema, ctx);
        }

        self.forward_packets(instance, step, &schema, ctx);
        // Completing a step can make further local steps ready.
        self.fire_rules(instance, ctx);
    }

    /// Tell the coordination agent the completion weight of terminal
    /// `step` (`Weight::ZERO` retracts it after a compensation).
    fn report_terminal_weight(
        &mut self,
        instance: InstanceId,
        step: StepId,
        weight: Weight,
        schema: &WorkflowSchema,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let msg = DistMsg::StepCompleted {
            instance,
            step,
            weight,
        };
        self.tell(self.coordination_node(instance, schema), msg, ctx);
    }

    fn coordination_node(&self, instance: InstanceId, schema: &WorkflowSchema) -> NodeId {
        let agent = coordination_agent(self.seed(), instance, schema);
        self.shared.directory.node_of(agent)
    }

    /// Send the workflow packet along every outgoing arc of `step` to all
    /// eligible agents of each successor step (§4.2: on if-then-else both
    /// branch agents receive the packet; the rules decide).
    fn forward_packets(
        &mut self,
        instance: InstanceId,
        step: StepId,
        schema: &WorkflowSchema,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let targets = self.inst(instance).nav.outgoing_weights(schema, step);
        for (target, weight) in targets {
            let st = self.inst(instance);
            st.forwarded.insert((step, target));
            let packet = WorkflowPacket {
                instance,
                target_step: target,
                source_step: Some(step),
                executor: None,
                data: st.nav.data.clone(),
                events: st.nav.rules.present_events_with_gens(),
                weight,
            };
            // Two-phase successor selection (§4.2): poll the eligible
            // agents' state and forward once the least-loaded is known.
            let eligible = &schema.expect_step(target).eligible_agents;
            if self.selectable(schema, target) {
                self.begin_load_balanced_forward(packet, eligible.clone(), ctx);
                continue;
            }
            self.broadcast_packet(packet, eligible, ctx);
        }
    }

    /// Hand `packet` to each of `agents` in order as a `StepExecute`. Every
    /// recipient but the last gets a clone; the last takes the original.
    fn broadcast_packet(
        &mut self,
        packet: WorkflowPacket,
        agents: &[crew_model::AgentId],
        ctx: &mut Ctx<DistMsg>,
    ) {
        let Some((last, rest)) = agents.split_last() else {
            return;
        };
        for agent in rest {
            self.hand_packet(*agent, packet.clone(), ctx);
        }
        self.hand_packet(*last, packet, ctx);
    }

    fn hand_packet(
        &mut self,
        agent: crew_model::AgentId,
        packet: WorkflowPacket,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let node = self.shared.directory.node_of(agent);
        self.tell(node, DistMsg::StepExecute { packet }, ctx);
    }

    /// Phase one of the two-phase forward: poll `StateInformation` of every
    /// candidate and stash the packet until the replies arrive.
    fn begin_load_balanced_forward(
        &mut self,
        packet: WorkflowPacket,
        candidates: Vec<crew_model::AgentId>,
        ctx: &mut Ctx<DistMsg>,
    ) {
        self.next_token += 1;
        let token = self.next_token;
        let mut expected = 0;
        for agent in &candidates {
            let node = self.shared.directory.node_of(*agent);
            if node == ctx.self_id {
                continue; // our own load is known locally
            }
            expected += 1;
            ctx.send(node, DistMsg::StateInformation { token });
        }
        let pf = PendingForward {
            packet,
            candidates,
            replies: BTreeMap::new(),
            expected,
        };
        if expected == 0 {
            self.finish_load_balanced_forward(pf, ctx);
        } else {
            self.pending_forwards.insert(token, pf);
        }
    }

    /// Phase two: all replies are in — pick the least-loaded candidate
    /// (ties break toward the lowest agent id), stamp it as the executor
    /// and broadcast the packet to every eligible agent (they keep the
    /// state for takeover; only the chosen one executes).
    fn finish_load_balanced_forward(&mut self, pf: PendingForward, ctx: &mut Ctx<DistMsg>) {
        let mut packet = pf.packet;
        let chosen = pf
            .candidates
            .iter()
            .map(|a| {
                let node = self.shared.directory.node_of(*a);
                let load = if node == ctx.self_id {
                    self.load
                } else {
                    pf.replies.get(&node).copied().unwrap_or(u64::MAX)
                };
                (load, *a)
            })
            .min()
            .map(|(_, a)| a)
            .expect("candidates non-empty");
        packet.executor = Some(chosen);
        let (instance, target_step) = (packet.instance, packet.target_step);
        // The sender records the choice too (it may itself be eligible
        // for the target step).
        let st = self.inst(instance);
        st.cold_mut().chosen_executor.insert(target_step, chosen);
        self.broadcast_packet(packet, &pf.candidates, ctx);
        // If we chose ourselves, the navigation rule already fired (and
        // skipped) while the choice was outstanding — drive the step
        // directly now that the stamp is recorded.
        if chosen == self.agent_id {
            self.start_step(instance, target_step, ctx);
        }
    }

    /// Record a `StateInformationReply` for a deferred forward.
    fn on_state_information_reply(
        &mut self,
        token: u64,
        load: u64,
        from: NodeId,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let Some(pf) = self.pending_forwards.get_mut(&token) else {
            return;
        };
        pf.replies.insert(from, load);
        if pf.replies.len() >= pf.expected {
            let pf = self.pending_forwards.remove(&token).expect("present");
            self.finish_load_balanced_forward(pf, ctx);
        }
    }

    // ---- relative ordering --------------------------------------------------

    /// Release guard `tag` of `instance`'s `step` at the step's agent.
    fn add_event_at(
        &mut self,
        instance: InstanceId,
        step: StepId,
        tag: u64,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let node = self.node_of_step(instance, &self.schema(instance), step);
        self.tell(node, DistMsg::AddEvent { instance, tag }, ctx);
    }

    /// The arbiter node of relative order `req` between `instance` and
    /// `partner`: the designated agent of the side-1 instance's first
    /// conflicting step.
    fn ro_arbiter_node(&self, req: u32, instance: InstanceId, partner: InstanceId) -> NodeId {
        let dep = &self.shared.deployment;
        let r = dep
            .relative_order(req)
            .expect("a claimed order is deployed");
        let side = ro_side(r, instance, partner).expect("the claimant is bound by the order");
        let (_, b) = ro_canonical(instance, partner, side);
        let (step, _) = ro_steps(r, 1).next().expect("pairs non-empty");
        self.node_of_step(b, &self.schema(b), step)
    }

    /// Arbiter, once `decision` is made: release the leading side's guards
    /// and install the notify wiring that releases the lagging side's.
    fn ro_wire_leader(
        &mut self,
        r: &crew_model::RelativeOrder,
        decision: RoLeader,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let RoLeader { req, a, b, side } = decision;
        let (leader, lagger) = ro_canonical(a, b, side);
        let leader_schema = self.schema(leader);
        for (k, (lead_step, _)) in ro_steps(r, side).enumerate() {
            let lead_node = self.node_of_step(leader, &leader_schema, lead_step);
            // Install the leader's notify-on-done, *before* the release so
            // FIFO delivers the wiring first.
            let rule = CoordRule::RoNotify {
                req,
                instance: leader,
                local_step: lead_step,
                target_instance: lagger,
            };
            self.tell(lead_node, DistMsg::AddRule { rule }, ctx);
            // Release the leader's guard: its steps must not wait.
            let release = DistMsg::AddEvent {
                instance: leader,
                tag: ro_guard(req, k, side, a, b),
            };
            self.tell(lead_node, release, ctx);
        }
    }

    // ---- mutual exclusion ----------------------------------------------------

    /// Mutual exclusion `req`'s manager agent: the designated agent of its
    /// first member step, instance-independent (keyed by serial 0 so every
    /// agent agrees without knowing live instances).
    fn mutex_manager_node(&self, req: u32) -> NodeId {
        let dep = &self.shared.deployment;
        let m = dep.mutex(req).expect("a requested mutex is deployed");
        let first = m.members.first().expect("mutex requirement has members");
        let probe = InstanceId::new(first.schema, 0);
        self.node_of_step(probe, &self.schema(probe), first.step)
    }

    fn handle_coord_rule(&mut self, rule: CoordRule, ctx: &mut Ctx<DistMsg>) {
        match rule {
            // Grants go to the agent the step is designated at, the one
            // whose gate asked.
            CoordRule::MutexAcquire {
                req,
                instance,
                step,
            } => {
                if self.mutexes.entry(req).or_default().acquire(instance, step) {
                    self.add_event_at(instance, step, mutex_grant(req, instance, step), ctx);
                }
            }
            CoordRule::MutexRelease {
                req,
                instance,
                step,
            } => {
                let queue = self.mutexes.entry(req).or_default();
                if let Some((next, next_step)) = queue.release(instance, step) {
                    let grant = mutex_grant(req, next, next_step);
                    self.add_event_at(next, next_step, grant, ctx);
                }
            }
            CoordRule::RoFirstDone {
                req,
                claimant,
                partner,
            } => {
                let dep = self.shared.deployment.clone();
                let Some(r) = dep.relative_order(req) else {
                    return;
                };
                if let Some(decision) = self.ro.claim(r, claimant, partner) {
                    self.nav_load(ctx);
                    self.ro_wire_leader(r, decision, ctx);
                }
            }
            // The leader owes the lagger a release once `local_step`
            // completes (at once if it already has).
            CoordRule::RoNotify {
                req,
                instance,
                local_step,
                target_instance,
            } => {
                let dep = self.shared.deployment.clone();
                let Some(r) = dep.relative_order(req) else {
                    return;
                };
                let Some(side) = ro_side(r, instance, target_instance) else {
                    return;
                };
                let (a, b) = ro_canonical(instance, target_instance, side);
                let leads = RoLeader { req, a, b, side };
                self.wire_gate(instance);
                self.answer(instance, ctx, |gate, history| {
                    let done = |s| history.state(s) == StepState::Done;
                    gate.oblige(r, leads, local_step, done)
                });
            }
        }
    }

    /// A grant or a release for `instance` arrived.
    fn on_add_event(&mut self, instance: InstanceId, tag: u64, ctx: &mut Ctx<DistMsg>) {
        self.wire_gate(instance);
        self.answer(instance, ctx, |gate, _| gate.satisfy(tag));
    }

    // ---- compensation chains ------------------------------------------------

    fn compensate_local(
        &mut self,
        instance: InstanceId,
        step: StepId,
        partial: bool,
        ctx: &mut Ctx<DistMsg>,
    ) -> bool {
        let schema = self.schema(instance);
        let def = schema.expect_step(step);
        if self.inst(instance).nav.history.state(step) != StepState::Done {
            return false;
        }
        self.nav_load(ctx);
        let nav = &mut self.instances.get_mut(&instance).expect("instantiated").nav;
        let attempt = nav.history.record(step).map_or(0, |r| r.attempt);
        let cost =
            self.executor
                .compensate(def, instance, &mut nav.data, &mut nav.history, partial);
        ctx.add_load(cost);
        let retract = nav.compensated(&schema, step);
        self.log(&DbOp::StepOutputsCleared { instance, step });
        self.log_step(instance, step, StepState::Compensated, attempt, vec![]);
        if retract {
            self.report_terminal_weight(instance, step, Weight::ZERO, &schema, ctx);
        }
        true
    }

    /// Pass a compensation chain over `steps` (non-empty, undone from the
    /// end) to the agent of its last step: a `CompensateSet` that walks back
    /// to `origin`, or a `CompensateThread` when there is none.
    fn pass_chain(
        &mut self,
        instance: InstanceId,
        origin: Option<StepId>,
        steps: Vec<StepId>,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let last = *steps.last().expect("non-empty");
        let target = self.node_of_step(instance, &self.schema(instance), last);
        let msg = match origin {
            Some(origin) => DistMsg::CompensateSet {
                instance,
                origin,
                steps,
            },
            None => DistMsg::CompensateThread { instance, steps },
        };
        self.tell(target, msg, ctx);
    }

    /// One hop of a compensation chain: undo its last step if it ran here
    /// ("if the step has not been executed then no action is required"),
    /// then pass the rest on — or, back at a `CompensateSet`'s origin,
    /// re-execute it.
    fn on_chain(
        &mut self,
        instance: InstanceId,
        origin: Option<StepId>,
        mut steps: Vec<StepId>,
        ctx: &mut Ctx<DistMsg>,
    ) {
        self.ensure_instantiated(instance);
        self.nav_load(ctx);
        let Some(step) = steps.pop() else { return };
        self.compensate_local(instance, step, false, ctx);
        if !steps.is_empty() {
            self.pass_chain(instance, origin, steps, ctx);
        } else if let Some(origin) = origin {
            debug_assert_eq!(step, origin);
            if let Some(cold) = self.inst(instance).cold.as_deref_mut() {
                cold.awaiting_compset.remove(&origin);
            }
            let def = self.schema(instance).expect_step(origin).clone();
            self.execute_now(instance, &def, ctx);
        }
    }

    // ---- rollback --------------------------------------------------------------

    /// At the rollback origin's agent: number the rollback, invalidate the
    /// downstream `step.done` facts, send the halt probes along the
    /// forwarded channels, honor rollback dependencies, and re-fire the
    /// origin's rule so OCR re-execution starts.
    fn on_workflow_rollback(
        &mut self,
        instance: InstanceId,
        origin: StepId,
        from_dependency: bool,
        ctx: &mut Ctx<DistMsg>,
    ) {
        self.ensure_instantiated(instance);
        self.nav_load(ctx);
        let dep = self.shared.deployment.clone();
        let nav = &mut self.inst(instance).nav;
        // The rollback's number: a new occurrence of the origin's event.
        let number = nav.rules.add_event(EventKind::Rollback(origin));
        let rollback = nav.roll_back(&dep, instance, origin, Refire::Origin, !from_dependency);
        // Halt probes retrace the packet channels.
        self.propagate_halt(instance, origin, number, ctx);
        // Linked dependents roll back too, marked so they go no further.
        for (partner, origin) in rollback.dependents {
            let target = self.node_of_step(partner, &self.schema(partner), origin);
            self.nav_load(ctx);
            let msg = DistMsg::WorkflowRollback {
                instance: partner,
                origin,
                from_dependency: true,
            };
            self.tell(target, msg, ctx);
        }
        self.fire_rules(instance, ctx);
    }

    /// Forward `HaltThread` to the eligible agents of every successor step
    /// this agent forwarded packets toward, for local steps at/under the
    /// origin.
    fn propagate_halt(
        &self,
        instance: InstanceId,
        origin: StepId,
        rollback: u32,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let schema = self.schema(instance);
        let affected = schema.reachable_from(origin);
        let forwarded = self.instances[&instance].forwarded.iter();
        let mut notified: BTreeSet<NodeId> = BTreeSet::new();
        for &(_, succ) in forwarded.filter(|(local, _)| affected.contains(local)) {
            for agent in &schema.expect_step(succ).eligible_agents {
                let node = self.shared.directory.node_of(*agent);
                if node != ctx.self_id && notified.insert(node) {
                    let halt = DistMsg::HaltThread {
                        instance,
                        origin,
                        rollback,
                    };
                    ctx.send(node, halt);
                }
            }
        }
    }

    /// Rollback `number` of `origin` at an agent downstream of it, from a
    /// `HaltThread` or a packet that follows it: invalidate, and keep
    /// propagating along our own forwarded channels. A rollback applied
    /// here already (a halt that came another way, or after a packet
    /// brought it) changes nothing. Returns whether it was new here.
    fn apply_rollback(
        &mut self,
        instance: InstanceId,
        origin: StepId,
        number: u32,
        ctx: &mut Ctx<DistMsg>,
    ) -> bool {
        let (dep, schema) = (self.shared.deployment.clone(), self.schema(instance));
        let nav = &mut self.inst(instance).nav;
        if !nav.rules.merge_event(EventKind::Rollback(origin), number) {
            return false;
        }
        // An agent that holds no completion of the origin or of a step
        // downstream of it has nothing to void and no channel to halt.
        let held =
            |k: &EventKind| matches!(*k, EventKind::StepDone(s) if voids(&schema, origin, s));
        if !nav.rules.events().keys().any(held) {
            return true;
        }
        nav.roll_back(&dep, instance, origin, Refire::Downstream, false);
        self.propagate_halt(instance, origin, number, ctx);
        true
    }

    // ---- coordinator role --------------------------------------------------------

    fn on_workflow_start(
        &mut self,
        instance: InstanceId,
        inputs: Vec<(ItemKey, Value)>,
        parent: Option<(InstanceId, StepId)>,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let schema = self.schema(instance);
        self.ensure_instantiated(instance);
        self.nav_load(ctx);
        {
            let st = self.inst(instance);
            st.is_coordinator = true;
            st.nav.parent = parent;
        }
        self.set_status(instance, InstanceStatus::Executing);
        let mut data = DataEnv::new();
        for (k, v) in inputs {
            data.set(k, v);
        }
        let packet = WorkflowPacket::initial(instance, schema.start_step(), data);
        // The coordination agent is the designated executor of the start
        // step; the packet is also broadcast to the other eligible agents
        // so they hold the state for takeover.
        let def = schema.expect_step(schema.start_step());
        for agent in &def.eligible_agents {
            let node = self.shared.directory.node_of(*agent);
            if node != ctx.self_id {
                ctx.send(
                    node,
                    DistMsg::StepExecute {
                        packet: packet.clone(),
                    },
                );
            }
        }
        self.on_packet(packet, ctx);
    }

    fn on_step_completed(
        &mut self,
        instance: InstanceId,
        step: StepId,
        weight: Weight,
        ctx: &mut Ctx<DistMsg>,
    ) {
        self.nav_load(ctx);
        let nav = &mut self.inst(instance).nav;
        if nav.committed || nav.aborted {
            return; // the coordinator's verdict stands
        }
        nav.set_terminal_weight(step, weight);
        if !nav.commit_now() {
            return;
        }
        self.set_status(instance, InstanceStatus::Committed);
        // Notify the front end (or the parent, for nested instances).
        let schema = self.schema(instance);
        let nav = &self.inst(instance).nav;
        match nav.parent {
            Some((parent, parent_step)) => {
                let outputs = nav.nested_outputs(&schema);
                let node = self.node_of_step(parent, &self.schema(parent), parent_step);
                let msg = DistMsg::NestedCompleted {
                    parent,
                    parent_step,
                    child: instance,
                    outputs,
                };
                self.tell(node, msg, ctx);
            }
            None => {
                ctx.send(
                    self.shared.directory.frontend,
                    DistMsg::WorkflowCommitted { instance },
                );
            }
        }
        // Purge batching: the first queued instance arms the timer that
        // drains the queue.
        if let Some(period) = self.shared.config.purge_period {
            self.purge_queue.push(instance);
            if self.purge_queue.len() == 1 {
                ctx.set_timer(period, TIMER_PURGE);
            }
        }
    }

    fn on_nested_completed(
        &mut self,
        parent: InstanceId,
        parent_step: StepId,
        outputs: Vec<Value>,
        ctx: &mut Ctx<DistMsg>,
    ) {
        self.ensure_instantiated(parent);
        self.nav_load(ctx);
        let schema = self.schema(parent);
        let def = schema.expect_step(parent_step);
        let nav = &mut self.inst(parent).nav;
        let attempt = nav.record_child_done(def, outputs.clone());
        self.log_step(parent, parent_step, StepState::Done, attempt, outputs);
        self.after_step_done(parent, parent_step, ctx);
    }

    fn launch_nested(
        &mut self,
        instance: InstanceId,
        step: StepId,
        child_schema: crew_model::SchemaId,
        ctx: &mut Ctx<DistMsg>,
    ) {
        // Reuse of a completed nested step follows the OCR path upstream of
        // here; launching means we genuinely (re)run the child.
        let schema = self.schema(instance);
        let nav = &mut self.inst(instance).nav;
        let Some((child, inputs)) =
            nav.launch_nested(instance, schema.expect_step(step), child_schema)
        else {
            return;
        };
        self.nav_load(ctx);
        let coord = self.coordination_node(child, &self.schema(child));
        let msg = DistMsg::WorkflowStart {
            instance: child,
            inputs,
            parent: Some((instance, step)),
        };
        self.tell(coord, msg, ctx);
    }

    fn on_workflow_abort(&mut self, instance: InstanceId, ctx: &mut Ctx<DistMsg>) {
        self.ensure_instantiated(instance);
        self.nav_load(ctx);
        let dep = self.shared.deployment.clone();
        let (releases, undo) = match self
            .inst(instance)
            .nav
            .abort(&dep, instance, Vantage::Schema)
        {
            Abort::Now { releases, undo } => (releases, undo),
            Abort::Repeated => return,
            // "Any request for aborting the workflow ... after a workflow
            // commit will be rejected."
            Abort::Committed => {
                let status = WorkflowStatusKind::AbortRejected;
                let reply = DistMsg::WorkflowStatusReply { instance, status };
                ctx.send(self.shared.directory.frontend, reply);
                return;
            }
        };
        self.set_status(instance, InstanceStatus::Aborted);
        // Hand back (or de-queue) every mutex this instance may hold or
        // await, so contenders are never wedged by the abort.
        for request in releases {
            self.request(instance, request, ctx);
        }
        // The coordination agent does not know where each step ran, so it
        // messages *all eligible agents* of each (§6 Workflow Abort
        // discussion).
        let schema = self.schema(instance);
        for step in undo {
            for agent in &schema.expect_step(step).eligible_agents {
                let node = self.shared.directory.node_of(*agent);
                self.tell(node, DistMsg::StepCompensate { instance, step }, ctx);
            }
        }
        // Halt the threads of execution starting from the first step, as a
        // rollback to it.
        let start = EventKind::Rollback(schema.start_step());
        let number = self.inst(instance).nav.rules.add_event(start);
        self.propagate_halt(instance, schema.start_step(), number, ctx);
        ctx.send(
            self.shared.directory.frontend,
            DistMsg::WorkflowAborted { instance },
        );
    }

    fn on_change_inputs(
        &mut self,
        instance: InstanceId,
        new_inputs: Vec<(ItemKey, Value)>,
        ctx: &mut Ctx<DistMsg>,
    ) {
        self.ensure_instantiated(instance);
        self.nav_load(ctx);
        let schema = self.schema(instance);
        let Some(origin) = self.inst(instance).nav.input_change(&schema, &new_inputs) else {
            let status = WorkflowStatusKind::ChangeRejected;
            let reply = DistMsg::WorkflowStatusReply { instance, status };
            ctx.send(self.shared.directory.frontend, reply);
            return;
        };
        // The new inputs take effect at the rollback origin's agent.
        let msg = DistMsg::InputsChanged {
            instance,
            origin,
            new_inputs,
        };
        self.tell(self.node_of_step(instance, &schema, origin), msg, ctx);
    }

    fn on_inputs_changed(
        &mut self,
        instance: InstanceId,
        origin: StepId,
        new_inputs: Vec<(ItemKey, Value)>,
        ctx: &mut Ctx<DistMsg>,
    ) {
        self.ensure_instantiated(instance);
        for (key, value) in new_inputs {
            let value = self.log_write(instance, key, value);
            self.inst(instance).nav.data.set(key, value);
        }
        self.on_workflow_rollback(instance, origin, false, ctx);
    }

    // ---- predecessor-failure polling ------------------------------------------

    fn arm_poll(&mut self, ctx: &mut Ctx<DistMsg>) {
        if self.shared.config.enable_status_polling && !self.poll_armed {
            self.poll_armed = true;
            ctx.set_timer(POLL_PERIOD, TIMER_POLL);
        }
    }

    /// Scan the instances held here for overdue remote steps: poll them,
    /// escalate polls that met silence, and re-arm only while a wait is
    /// left that a later scan can act on (an unpolled step or an
    /// outstanding poll), so a run with polling on still quiesces.
    fn on_poll_timer(&mut self, ctx: &mut Ctx<DistMsg>) {
        self.poll_armed = false;
        let now = ctx.now;
        let mut polls: Vec<(InstanceId, StepId)> = Vec::new();
        let mut takeovers: Vec<(InstanceId, StepId)> = Vec::new();
        let mut waiting = false;
        let overdue = |t: u64| now.saturating_sub(t) >= POLL_TIMEOUT;
        self.instances.for_each_mut(|instance, st| {
            let Some(cold) = st.cold.as_deref_mut() else {
                return;
            };
            if st.nav.committed || st.nav.aborted {
                return;
            }
            // Settle the waits for steps that completed meanwhile.
            let rules = &st.nav.rules;
            cold.waits
                .retain(|&s, w| !rules.has_event(EventKind::StepDone(s)) || w.settle());
            for (&step, wait) in &cold.waits {
                match *wait {
                    // Overdue remote step → poll its eligible agents.
                    RemoteWait::Since(t) if overdue(t) => polls.push((instance, step)),
                    // A poll answered only by silence → escalate.
                    RemoteWait::Polled(t) if overdue(t) => takeovers.push((instance, step)),
                    _ => {}
                }
                waiting |= !matches!(wait, RemoteWait::Settled);
            }
        });
        // The table's order is its hasher's: go out in instance order.
        polls.sort_unstable();
        takeovers.sort_unstable();
        let polled = RemoteWait::Polled(now);
        for (instance, step) in polls {
            self.inst(instance).cold_mut().waits.insert(step, polled);
            let schema = self.schema(instance);
            let def = schema.expect_step(step);
            for agent in &def.eligible_agents {
                let node = self.shared.directory.node_of(*agent);
                if node != ctx.self_id {
                    ctx.send(node, DistMsg::StepStatus { instance, step });
                }
            }
        }
        for (instance, step) in takeovers {
            let waits = &mut self.inst(instance).cold_mut().waits;
            waits.insert(step, RemoteWait::Settled);
            self.try_takeover(instance, step, ctx);
        }
        if waiting {
            self.arm_poll(ctx);
        }
    }

    /// Take over a stalled *query* step at the first non-designated
    /// eligible agent (the paper: "the successor agent requests the
    /// execution of that step ... at one of the available predecessor
    /// agents"; update steps must wait for the failed agent).
    fn try_takeover(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<DistMsg>) {
        let schema = self.schema(instance);
        let Some(def) = schema.step(step) else { return };
        if def.kind != crew_model::StepKind::Query {
            return;
        }
        let designated = designated_agent(self.seed(), instance, def);
        let Some(first_alternate) = def
            .eligible_agents
            .iter()
            .find(|a| **a != designated)
            .copied()
        else {
            return;
        };
        let node = self.shared.directory.node_of(first_alternate);
        self.tell(node, DistMsg::ExecuteRequest { instance, step }, ctx);
    }

    fn on_step_status(
        &mut self,
        instance: InstanceId,
        step: StepId,
        from: NodeId,
        ctx: &mut Ctx<DistMsg>,
    ) {
        let history = self.instances.get(&instance).map(|st| &st.nav.history);
        let status = history.map_or(StepState::NotExecuted, |h| h.state(step));
        let reply = DistMsg::StepStatusReply {
            instance,
            step,
            status,
        };
        ctx.send(from, reply);
    }

    fn on_step_status_reply(
        &mut self,
        instance: InstanceId,
        step: StepId,
        status: StepState,
        ctx: &mut Ctx<DistMsg>,
    ) {
        if matches!(status, StepState::NotExecuted | StepState::Compensated) {
            return self.try_takeover(instance, step, ctx);
        }
        // Someone made (or is making) progress: keep waiting; the packet /
        // failure protocol will reach us.
        if let Some(cold) = self.inst(instance).cold.as_deref_mut() {
            cold.waits.retain(|&s, w| s != step || w.settle());
        }
    }

    fn on_execute_request(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<DistMsg>) {
        self.ensure_instantiated(instance);
        let schema = self.schema(instance);
        let def = schema.expect_step(step).clone();
        {
            let st = self.inst(instance);
            if st.nav.history.state(step) != StepState::NotExecuted {
                return; // executed / executing here already
            }
            st.cold_mut().overrides.insert(step);
        }
        // Take over: rules for this step were not installed locally (we are
        // not designated), so drive the execution directly from the packet
        // state we hold.
        self.execute_now(instance, &def, ctx);
    }

    fn on_step_retry(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<DistMsg>) {
        // The retry only stands while the failure is still current: a
        // rollback or abort between the self-send and its delivery
        // supersedes the policy.
        let current = self
            .instances
            .get(&instance)
            .is_some_and(|st| st.nav.history.state(step) == StepState::Failed);
        if !current {
            return;
        }
        let schema = self.schema(instance);
        let def = schema.expect_step(step).clone();
        self.execute_now(instance, &def, ctx);
    }

    // ---- purge ------------------------------------------------------------------

    fn on_purge_timer(&mut self, ctx: &mut Ctx<DistMsg>) {
        if self.purge_queue.is_empty() {
            return;
        }
        let instances = std::mem::take(&mut self.purge_queue);
        for node in self.shared.directory.agent_nodes().collect::<Vec<_>>() {
            if node != ctx.self_id {
                ctx.send(
                    node,
                    DistMsg::PurgeBroadcast {
                        instances: instances.clone(),
                    },
                );
            }
        }
        self.apply_purge(&instances);
    }

    fn apply_purge(&mut self, instances: &[InstanceId]) {
        for &i in instances {
            // Keep coordinator records (status serves the front end);
            // execution agents drop the instance tables.
            let keep = self.instances.get(&i).is_some_and(|s| s.is_coordinator);
            if !keep {
                self.instances.remove(&i);
                self.log(&DbOp::InstancePurged { instance: i });
            }
        }
    }

    // ---- public introspection (tests/harnesses) ---------------------------------

    /// Status of an instance as this agent knows it.
    pub fn instance_status(&self, instance: InstanceId) -> Option<InstanceStatus> {
        self.instances.get(&instance)?.status
    }

    /// The instance's data table at this agent.
    pub fn data_of(&self, instance: InstanceId) -> Option<&DataEnv> {
        self.instances.get(&instance).map(|s| &s.nav.data)
    }

    /// The instance's execution history at this agent.
    pub fn history_of(&self, instance: InstanceId) -> Option<&InstanceHistory> {
        self.instances.get(&instance).map(|s| &s.nav.history)
    }
}

impl DistAgent {
    /// Run the handler for `msg` from `from`: the peer that sent it, or
    /// this agent when [`DistAgent::tell`] delivers locally.
    fn dispatch(&mut self, from: NodeId, msg: DistMsg, ctx: &mut Ctx<DistMsg>) {
        match msg {
            DistMsg::WorkflowStart {
                instance,
                inputs,
                parent,
            } => self.on_workflow_start(instance, inputs, parent, ctx),
            DistMsg::WorkflowChangeInputs {
                instance,
                new_inputs,
            } => self.on_change_inputs(instance, new_inputs, ctx),
            DistMsg::WorkflowAbort { instance } => self.on_workflow_abort(instance, ctx),
            DistMsg::WorkflowStatus { instance } => {
                let status = match self.instance_status(instance) {
                    Some(InstanceStatus::Committed) => WorkflowStatusKind::Committed,
                    Some(InstanceStatus::Aborted) => WorkflowStatusKind::Aborted,
                    Some(InstanceStatus::Executing) => WorkflowStatusKind::Executing,
                    None => WorkflowStatusKind::Unknown,
                };
                ctx.send(from, DistMsg::WorkflowStatusReply { instance, status });
            }
            DistMsg::StepExecute { packet } => self.on_packet(packet, ctx),
            DistMsg::StepCompleted {
                instance,
                step,
                weight,
            } => self.on_step_completed(instance, step, weight, ctx),
            DistMsg::StateInformation { token } => {
                let load = self.load;
                ctx.send(from, DistMsg::StateInformationReply { token, load });
            }
            DistMsg::StateInformationReply { token, load } => {
                self.on_state_information_reply(token, load, from, ctx)
            }
            DistMsg::NestedCompleted {
                parent,
                parent_step,
                outputs,
                ..
            } => self.on_nested_completed(parent, parent_step, outputs, ctx),
            DistMsg::InputsChanged {
                instance,
                origin,
                new_inputs,
            } => self.on_inputs_changed(instance, origin, new_inputs, ctx),
            DistMsg::WorkflowRollback {
                instance,
                origin,
                from_dependency,
            } => self.on_workflow_rollback(instance, origin, from_dependency, ctx),
            DistMsg::HaltThread {
                instance,
                origin,
                rollback,
            } => {
                self.ensure_instantiated(instance);
                // A packet that brings the rollback pays for it in its own
                // navigation load.
                if self.apply_rollback(instance, origin, rollback, ctx) {
                    self.nav_load(ctx);
                }
            }
            DistMsg::StepCompensate { instance, step } => {
                let compensated = self.compensate_local(instance, step, false, ctx);
                // The coordination agent does not ack itself.
                if from != ctx.self_id {
                    let ack = DistMsg::StepCompensateAck {
                        instance,
                        step,
                        compensated,
                    };
                    ctx.send(from, ack);
                }
            }
            DistMsg::StepCompensateAck { .. } => {}
            DistMsg::CompensateSet {
                instance,
                origin,
                steps,
            } => self.on_chain(instance, Some(origin), steps, ctx),
            DistMsg::CompensateThread { instance, steps } => {
                self.on_chain(instance, None, steps, ctx)
            }
            DistMsg::StepStatus { instance, step } => {
                self.on_step_status(instance, step, from, ctx)
            }
            DistMsg::StepStatusReply {
                instance,
                step,
                status,
            } => self.on_step_status_reply(instance, step, status, ctx),
            DistMsg::ExecuteRequest { instance, step } => {
                self.on_execute_request(instance, step, ctx)
            }
            DistMsg::StepRetry { instance, step } => self.on_step_retry(instance, step, ctx),
            DistMsg::AddRule { rule } => self.handle_coord_rule(rule, ctx),
            DistMsg::AddEvent { instance, tag } => self.on_add_event(instance, tag, ctx),
            DistMsg::PurgeBroadcast { instances } => self.apply_purge(&instances),
            DistMsg::WorkflowStatusReply { .. }
            | DistMsg::WorkflowCommitted { .. }
            | DistMsg::WorkflowAborted { .. } => {
                // Front-end bound; ignore if misrouted.
            }
        }
    }
}

impl Node<DistMsg> for DistAgent {
    fn on_message(&mut self, from: NodeId, msg: DistMsg, ctx: &mut Ctx<DistMsg>) {
        if self.halted {
            // Fail-silent after unrecoverable AGDB loss.
            return;
        }
        self.dispatch(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Ctx<DistMsg>) {
        if self.halted {
            return;
        }
        match timer {
            TIMER_POLL => self.on_poll_timer(ctx),
            TIMER_PURGE => self.on_purge_timer(ctx),
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // Fail-stop: everything `take_over` does not name is gone.
        self.take_over(DistAgent::new(self.agent_id, self.shared.clone()));
    }

    fn on_recover(&mut self, _ctx: &mut Ctx<DistMsg>) {
        // Forward recovery: fold the AGDB journal, in log order, straight
        // into the instance entries (navigators and summary rows).
        // Volatile navigation state (rule sets, gates) is rebuilt lazily
        // as packets arrive; completed-step facts are restored here so
        // StepStatus polls answer correctly.
        let Some(ops) = recover_for_node(&mut self.wal) else {
            // Unreadable AGDB: degrade to a halted node rather than serving
            // from amnesia — peers observe a silent agent and route around
            // it, exactly as for a node that never came back.
            self.halted = true;
            return;
        };
        for op in ops {
            match op {
                DbOp::DataWritten {
                    instance,
                    key,
                    value,
                } => self.inst(instance).nav.data.set(key, value),
                DbOp::StepOutputsCleared { instance, step } => {
                    self.inst(instance).nav.data.clear_step_outputs(step);
                }
                DbOp::StepRecorded {
                    instance,
                    step,
                    state,
                    attempt,
                    outputs,
                } => {
                    let schema = self.schema(instance);
                    let nav = &mut self.inst(instance).nav;
                    // The journaled attempt is the step's attempt counter
                    // (rows are journaled as `Done`, `Failed` and
                    // `Compensated` only): a recovered agent must neither
                    // re-grant spent retries nor re-fire scripted
                    // first-attempt failures.
                    nav.history.restore_attempts(step, attempt);
                    match state {
                        StepState::Done => {
                            let def = schema.expect_step(step);
                            for (key, v) in declared_outputs(def, &outputs) {
                                nav.data.set(key, v.clone());
                            }
                            nav.history.record_done(step, attempt, vec![], outputs);
                        }
                        StepState::Failed => nav.history.record_failed(step),
                        StepState::Compensated => nav.history.record_compensated(step),
                        StepState::Executing | StepState::NotExecuted => {}
                    }
                }
                DbOp::StatusChanged { instance, status } => {
                    let st = self.inst(instance);
                    st.is_coordinator = true;
                    st.nav.committed = status == InstanceStatus::Committed;
                    st.nav.aborted = status == InstanceStatus::Aborted;
                    st.status = Some(status);
                }
                DbOp::InstancePurged { instance } => {
                    self.instances.remove(&instance);
                }
                // An engine's records: no agent writes them.
                DbOp::EngineInput { .. } | DbOp::CommandsDropped { .. } => {}
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Directory, SharedCtx};
    use crate::DistConfig;
    use crew_exec::{Deployment, FailurePlan};
    use crew_model::{AgentId, ItemKey, SchemaBuilder, SchemaId, Value};

    /// S1 → S2, both on agent 0 with an in-place retry budget; S1 copies
    /// the workflow input into its output. `plan` scripts which attempts
    /// fail.
    fn deployment_with(plan: FailurePlan) -> Deployment {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf1").inputs(1);
        let s1 = b.add_step("S1", "passthrough");
        let s2 = b.add_step("S2", "passthrough");
        b.seq(s1, s2);
        b.read(s1, ItemKey::input(1));
        for s in [s1, s2] {
            b.configure(s, |d| {
                d.eligible_agents = vec![AgentId(0)];
                d.retry = Some(5);
            });
        }
        let mut deployment = Deployment::new([b.build().unwrap()]);
        deployment.plan = plan;
        deployment
    }

    fn agent_with(plan: FailurePlan) -> DistAgent {
        let shared = SharedCtx {
            deployment: Arc::new(deployment_with(plan)),
            directory: Directory::new(1),
            config: DistConfig::default(),
        };
        DistAgent::new(AgentId(0), shared)
    }

    fn agent() -> DistAgent {
        agent_with(FailurePlan::none())
    }

    /// Everything a crash must not lose: the data table; per step its
    /// state, its attempt counter and, while an execution stands (`Done`),
    /// that execution's attempt and outputs (a compensated step's outputs
    /// are retracted, and journaled as such); the summary row; and the
    /// coordinator's role and verdict flags it is read back into.
    fn durable_state(
        a: &DistAgent,
        instance: InstanceId,
        steps: &[StepId],
    ) -> impl PartialEq + std::fmt::Debug {
        let history = a.history_of(instance).expect("instance known");
        let rows: Vec<_> = steps
            .iter()
            .map(|&s| {
                let standing = history
                    .record(s)
                    .filter(|r| r.state == StepState::Done)
                    .map(|r| (r.attempt, r.outputs.clone()));
                (history.state(s), history.attempts(s), standing)
            })
            .collect();
        let st = &a.instances[&instance];
        (
            a.data_of(instance).cloned(),
            rows,
            a.instance_status(instance),
            (st.is_coordinator, st.nav.committed, st.nav.aborted),
        )
    }

    /// The records in `a`'s AGDB log, in order.
    fn journal(a: &DistAgent) -> Vec<DbOp> {
        Wal::with_store(a.wal.store().clone())
            .recover()
            .expect("in-memory log reads back")
    }

    /// Only the purge timer drains the coordinator's purge queue, so a
    /// commit is queued only when purge is on. A crash empties the queue,
    /// since a timer due while the node is down is dropped, so the first
    /// commit after recovery arms the timer again.
    #[test]
    fn purge_queue_is_drained_or_never_filled_across_a_crash() {
        for purge_period in [None, Some(50)] {
            let config = DistConfig {
                purge_period,
                ..DistConfig::default()
            };
            let deployment = deployment_with(FailurePlan::none());
            let mut run = crate::DistRun::new(deployment, 1, config);
            let inputs = || vec![(1, Value::Int(5))];
            let first = run.start_instance(SchemaId(1), inputs());
            // Down after the first commit, and still down when its purge
            // timer comes due.
            run.sim.schedule_crash(NodeId(0), 20, Some(100));
            let second = run.start_instance_at(SchemaId(1), inputs(), 200);
            run.run();
            let times = run.completion_times();
            assert!(times[&first] < 20, "{purge_period:?}: {times:?}");
            assert!(times[&second] > 120, "{purge_period:?}: {times:?}");
            let queue = &run.agent(AgentId(0)).purge_queue;
            assert!(queue.is_empty(), "{purge_period:?}: {queue:?} left queued");
        }
    }

    /// An agent's executor reads the run's one deployment, and so does
    /// the fresh agent a crash puts in its place: neither copies the
    /// failure plan or the program registry.
    #[test]
    fn a_crashed_agent_still_reads_the_runs_one_deployment() {
        let instance = InstanceId::new(SchemaId(1), 1);
        let mut a = agent_with(FailurePlan::none().fail_step(instance, StepId(1), 1));
        let run = a.shared.deployment.clone();
        assert!(Arc::ptr_eq(a.executor.deployment(), &run));
        a.on_crash();
        a.on_recover(&mut Ctx::detached(10, NodeId(0)));
        assert!(Arc::ptr_eq(a.executor.deployment(), &run));
    }

    #[test]
    fn unreadable_wal_halts_recovery_and_silences_the_node() {
        let mut a = agent();
        let instance = InstanceId::new(SchemaId(1), 1);
        let mut ctx = Ctx::detached(0, NodeId(0));
        a.on_message(
            NodeId::EXTERNAL,
            DistMsg::WorkflowStart {
                instance,
                inputs: vec![(ItemKey::input(1), Value::Int(5))],
                parent: None,
            },
            &mut ctx,
        );
        assert!(!a.instances.is_empty());
        assert!(!a.is_halted());

        a.on_crash();
        a.wal.store_mut().fail_reads();
        let mut ctx = Ctx::detached(10, NodeId(0));
        a.on_recover(&mut ctx);
        assert!(a.is_halted(), "unreadable AGDB degrades to a halted node");

        // Fail-silent: new work is ignored, no sends, no timers.
        let instance2 = InstanceId::new(SchemaId(1), 2);
        let mut ctx = Ctx::detached(20, NodeId(0));
        a.on_message(
            NodeId::EXTERNAL,
            DistMsg::WorkflowStart {
                instance: instance2,
                inputs: vec![(ItemKey::input(1), Value::Int(6))],
                parent: None,
            },
            &mut ctx,
        );
        assert!(a.instances.is_empty());
        assert!(a.instance_status(instance2).is_none());
        a.on_timer(TIMER_POLL, &mut ctx);
    }

    /// The AGDB journal of a fault-free run, as numbers: every agent that
    /// receives a packet journals each item it carries once (the packet
    /// grows by one output per hop), the executor adds one step row that
    /// carries the step's outputs, the coordination agent two summary rows.
    #[test]
    fn fault_free_journal_is_pinned_per_agent() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf3").inputs(1);
        let s1 = b.add_step("S1", "passthrough");
        let s2 = b.add_step("S2", "passthrough");
        let s3 = b.add_step("S3", "passthrough");
        b.seq(s1, s2);
        b.seq(s2, s3);
        // Each step copies what it reads into one output; S2's packet is
        // broadcast to both of its eligible agents.
        b.read(s1, ItemKey::input(1));
        b.read(s2, ItemKey::output(s1, 1));
        b.read(s3, ItemKey::output(s2, 1));
        for (s, agents) in [(s1, vec![0]), (s2, vec![1, 2]), (s3, vec![0])] {
            b.configure(s, |d| {
                d.output_slots = 1;
                d.eligible_agents = agents.into_iter().map(AgentId).collect();
            });
        }
        let deployment = Deployment::new([b.build().unwrap()]);
        let mut run = crate::DistRun::new(deployment, 3, DistConfig::default());
        let instance = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
        run.run();
        assert_eq!(
            run.agent(AgentId(0)).instance_status(instance),
            Some(InstanceStatus::Committed)
        );

        let kinds = |agent: u32| {
            let mut counts = [0usize; 3];
            for op in journal(run.agent(AgentId(agent))) {
                let i = match op {
                    DbOp::DataWritten { .. } => 0,
                    DbOp::StepRecorded { .. } => 1,
                    DbOp::StatusChanged { .. } => 2,
                    other => panic!("unexpected record in a fault-free run: {other:?}"),
                };
                counts[i] += 1;
            }
            counts
        };
        let executor = designated_agent(
            run.deployment.seed,
            instance,
            run.deployment.expect_schema(SchemaId(1)).expect_step(s2),
        );
        let standby = if executor == AgentId(1) { 2 } else { 1 };
        // [data, step rows, summary rows]. Agent 0 merges the start
        // packet (1 item) and S3's packet (3); S2's executor and the
        // standby merge S2's packet (2 items). Outputs ride in the step
        // rows, not as items of their own.
        assert_eq!(kinds(0), [1 + 3, 2, 2]);
        assert_eq!(kinds(executor.0), [2, 1, 0]);
        assert_eq!(kinds(standby), [2, 0, 0]);
    }

    /// The benchmark's L shape, made small: six `stamp` steps in
    /// sequence, two eligible agents each over four agents. `policies`
    /// adds failure policies before the schema is built.
    fn small_l(policies: impl FnOnce(&mut SchemaBuilder, &[StepId])) -> (Deployment, Vec<StepId>) {
        let mut b = SchemaBuilder::new(SchemaId(1), "L").inputs(1);
        let steps: Vec<StepId> = (1..=6)
            .map(|k| b.add_step(format!("S{k}"), "stamp"))
            .collect();
        for pair in steps.windows(2) {
            b.seq(pair[0], pair[1]);
        }
        for (k, &step) in steps.iter().enumerate() {
            let k = k as u32;
            b.configure(step, |d| {
                d.eligible_agents = vec![AgentId(k % 4), AgentId((k + 1) % 4)];
            });
        }
        policies(&mut b, &steps);
        (Deployment::new([b.build().unwrap()]), steps)
    }

    /// Values are immutable once a program returns them, so a string
    /// output is one allocation wherever it travels: in the executor's
    /// step record and in the data table of every agent a packet carried
    /// it to.
    #[test]
    fn a_string_output_is_shared_by_every_agent_that_holds_it() {
        let (deployment, steps) = small_l(|_, _| {});
        let mut run = crate::DistRun::new(deployment, 4, DistConfig::default());
        let instance = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
        run.run();
        let agents: Vec<&DistAgent> = (0..4).map(|a| run.agent(AgentId(a))).collect();
        let mut shared = 0;
        for &step in &steps {
            let records: Vec<&crew_exec::StepRecord> = agents
                .iter()
                .filter_map(|a| a.history_of(instance)?.record(step))
                .collect();
            let [record] = records[..] else {
                panic!("{step} ran at {} agents", records.len());
            };
            let Value::Str(made) = &record.outputs[0] else {
                panic!("stamp's first output is a string");
            };
            let key = ItemKey::output(step, 1);
            let held: Vec<&Value> = agents
                .iter()
                .filter_map(|a| a.data_of(instance)?.get(&key))
                .collect();
            for value in &held {
                let Value::Str(copy) = value else {
                    panic!("{key} changed type on the way");
                };
                assert!(Arc::ptr_eq(made, copy), "{key} was copied, not shared");
            }
            if held.len() >= 2 {
                shared += 1;
            }
        }
        assert!(shared > 0, "some output reached two agents");
    }

    /// A packet merge grows the data table and the event table once each,
    /// to exactly what they then hold (DESIGN.md §6j's exact fit), when
    /// the packet brings items and events the agent partly holds already.
    #[test]
    fn a_packet_merge_leaves_each_table_exact_fit() {
        let mut a = agent();
        let instance = InstanceId::new(SchemaId(1), 1);
        let mut ctx = Ctx::detached(0, NodeId(0));
        let inputs = vec![(ItemKey::input(1), Value::Int(5))];
        let start = DistMsg::WorkflowStart {
            instance,
            inputs,
            parent: None,
        };
        a.on_message(NodeId::EXTERNAL, start, &mut ctx);
        let nav = &a.instances[&instance].nav;
        let (items, kinds) = (nav.data.len(), nav.rules.events().len());
        let mut data = nav.data.clone();
        data.set(ItemKey::input(2), Value::from("new"));
        data.set(ItemKey::output(StepId(9), 1), Value::Int(9));
        let mut events = nav.rules.present_events_with_gens();
        events.push((EventKind::StepDone(StepId(9)), 1));
        let packet = WorkflowPacket {
            instance,
            target_step: StepId(2),
            source_step: Some(StepId(1)),
            executor: None,
            data,
            events,
            weight: Weight::ONE,
        };
        a.on_message(NodeId(0), DistMsg::StepExecute { packet }, &mut ctx);
        let nav = &a.instances[&instance].nav;
        assert_eq!(nav.data.len(), items + 2);
        assert_eq!(nav.data.capacity(), nav.data.len());
        let events = nav.rules.events();
        assert_eq!(events.len(), kinds + 1);
        assert_eq!(events.capacity(), events.len());
    }

    #[test]
    fn readable_wal_recovers_projection() {
        let [instance, committed, aborted, purged] =
            [1, 2, 3, 4].map(|n| InstanceId::new(SchemaId(1), n));
        let (s1, s2) = (StepId(1), StepId(2));
        // S1 fails once, S2 three times; every retry is a self-send the
        // detached context drops, so the test delivers them by hand.
        let plan = FailurePlan::none()
            .fail_step(instance, s1, 1)
            .fail_step(instance, s2, 1)
            .fail_step(instance, s2, 2)
            .fail_step(instance, s2, 3)
            .fail_step(aborted, s1, 1);
        let mut a = agent_with(plan);
        let mut ctx = Ctx::detached(0, NodeId(0));
        let mut deliver = |a: &mut DistAgent, msg| a.on_message(NodeId(0), msg, &mut ctx);
        deliver(
            &mut a,
            DistMsg::WorkflowStart {
                instance,
                inputs: vec![(ItemKey::input(1), Value::Int(5))],
                parent: None,
            },
        );
        deliver(&mut a, DistMsg::StepRetry { instance, step: s1 });
        deliver(&mut a, DistMsg::StepRetry { instance, step: s2 });
        deliver(&mut a, DistMsg::StepRetry { instance, step: s2 });
        deliver(&mut a, DistMsg::StepCompensate { instance, step: s1 });
        let history = a.history_of(instance).unwrap();
        assert_eq!(history.state(s1), StepState::Compensated);
        assert_eq!(
            (history.state(s2), history.attempts(s2)),
            (StepState::Failed, 3)
        );
        // Beside it: an instance that commits, one aborted after a failed
        // attempt, and one this agent ran from a packet alone (so it is no
        // coordinator of it) and then purged.
        let inputs = vec![(ItemKey::input(1), Value::Int(6))];
        for i in [committed, aborted] {
            let (inputs, parent) = (inputs.clone(), None);
            deliver(
                &mut a,
                DistMsg::WorkflowStart {
                    instance: i,
                    inputs,
                    parent,
                },
            );
        }
        deliver(&mut a, DistMsg::WorkflowAbort { instance: aborted });
        let data = inputs.into_iter().collect();
        let packet = WorkflowPacket::initial(purged, s1, data);
        deliver(&mut a, DistMsg::StepExecute { packet });
        deliver(
            &mut a,
            DistMsg::PurgeBroadcast {
                instances: vec![purged],
            },
        );
        assert!(a.history_of(purged).is_none());
        let steps = [s1, s2];
        let before = [instance, committed, aborted].map(|i| durable_state(&a, i, &steps));

        a.on_crash();
        assert!(a.instances.is_empty());
        let mut ctx = Ctx::detached(10, NodeId(0));
        a.on_recover(&mut ctx);
        assert!(!a.is_halted());
        assert_eq!(
            [instance, committed, aborted].map(|i| durable_state(&a, i, &steps)),
            before,
            "recovery rebuilds exactly the pre-crash state"
        );
        // What the rows say, spelled out: the compensated step's output is
        // gone from the data table, the coordinator's verdicts are back, and
        // the purged instance stays purged.
        assert_eq!(
            a.data_of(instance).unwrap().get(&ItemKey::output(s1, 1)),
            None
        );
        assert_eq!(
            a.data_of(committed).unwrap().get(&ItemKey::output(s1, 1)),
            Some(&Value::Int(6))
        );
        let flags = |i| {
            let st = &a.instances[&i];
            (
                a.instance_status(i),
                st.is_coordinator,
                st.nav.committed,
                st.nav.aborted,
            )
        };
        assert_eq!(
            flags(committed),
            (Some(InstanceStatus::Committed), true, true, false)
        );
        assert_eq!(
            flags(aborted),
            (Some(InstanceStatus::Aborted), true, false, true)
        );
        assert!(a.history_of(purged).is_none());
        // The AGDB journal holds only what that state is rebuilt from.
        // The match is exhaustive so a new record kind has to be
        // classified here as read by `on_recover` or not an agent's.
        let journal = journal(&a);
        assert!(!journal.is_empty());
        for op in journal {
            match op {
                DbOp::DataWritten { .. }
                | DbOp::StepOutputsCleared { .. }
                | DbOp::StepRecorded { .. }
                | DbOp::StatusChanged { .. }
                | DbOp::InstancePurged { .. } => {}
                DbOp::EngineInput { .. } | DbOp::CommandsDropped { .. } => {
                    panic!("an agent journals no commands: {op:?}")
                }
            }
        }
        // Attempt counters survive the crash for failed and compensated
        // steps alike: S1 completed on its second attempt, S2 failed thrice.
        let history = a.history_of(instance).unwrap();
        assert_eq!(history.state(s1), StepState::Compensated);
        assert_eq!(history.record(s1).map(|r| r.attempt), Some(2));
        assert_eq!(history.attempts(s1), 2);
        assert_eq!(
            (history.state(s2), history.attempts(s2)),
            (StepState::Failed, 3)
        );
        // So the pending retry is attempt 4 — past the scripted failures —
        // not a replay of attempt 2.
        a.on_message(
            NodeId(0),
            DistMsg::StepRetry { instance, step: s2 },
            &mut ctx,
        );
        let history = a.history_of(instance).unwrap();
        assert_eq!(history.state(s2), StepState::Done);
        assert_eq!(history.record(s2).map(|r| r.attempt), Some(4));
    }

    /// Polls one step's status at `agent` once, `at` ticks in, and keeps
    /// the answers.
    struct Poll {
        agent: NodeId,
        instance: InstanceId,
        step: StepId,
        at: u64,
        answers: Vec<StepState>,
    }

    impl Node<DistMsg> for Poll {
        fn on_start(&mut self, ctx: &mut Ctx<DistMsg>) {
            ctx.set_timer(self.at, TimerId(0));
        }
        fn on_timer(&mut self, _timer: TimerId, ctx: &mut Ctx<DistMsg>) {
            let (instance, step) = (self.instance, self.step);
            ctx.send(self.agent, DistMsg::StepStatus { instance, step });
        }
        fn on_message(&mut self, _from: NodeId, msg: DistMsg, _ctx: &mut Ctx<DistMsg>) {
            if let DistMsg::StepStatusReply { status, .. } = msg {
                self.answers.push(status);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// A nested step's completion is journaled as a step row like any
    /// other, so a crash after the child's `NestedCompleted` keeps it: the
    /// recovered agent holds the step `Done` with its attempt and outputs,
    /// and answers a `StepStatus` poll with `Done`.
    #[test]
    fn a_nested_steps_completion_survives_a_crash() {
        let mut b = SchemaBuilder::new(SchemaId(2), "child").inputs(1);
        let c1 = b.add_step("C1", "passthrough");
        b.read(c1, ItemKey::input(1));
        b.configure(c1, |d| d.eligible_agents = vec![AgentId(1)]);
        let child = b.build().unwrap();
        let mut b = SchemaBuilder::new(SchemaId(1), "parent").inputs(1);
        let call = b.add_nested("Call", SchemaId(2));
        b.read(call, ItemKey::input(1));
        b.configure(call, |d| d.eligible_agents = vec![AgentId(0)]);
        let deployment = Deployment::new([b.build().unwrap(), child]);
        let mut run = crate::DistRun::new(deployment, 2, DistConfig::default());
        let parent = run.start_instance(SchemaId(1), vec![(1, Value::Int(7))]);
        // The parent step's agent goes down well after the commit, and is
        // polled once it is back.
        let agent = run.directory.node_of(AgentId(0));
        let poll = Poll {
            agent,
            instance: parent,
            step: call,
            at: 1_000,
            answers: Vec::new(),
        };
        let poll = run.sim.add_node(poll);
        run.sim.schedule_crash(agent, 500, Some(100));
        run.sim.run_until(400);
        assert!(run.completion_times()[&parent] < 400);
        let history = run.agent(AgentId(0)).history_of(parent).unwrap();
        let record = history.record(call).unwrap();
        assert_eq!(history.state(call), StepState::Done);
        assert_eq!(
            (record.attempt, &record.outputs[..]),
            (1, &[Value::Int(7)][..])
        );
        let before = durable_state(run.agent(AgentId(0)), parent, &[call]);

        run.run();
        let after = durable_state(run.agent(AgentId(0)), parent, &[call]);
        assert_eq!(after, before, "the nested step's row survives the crash");
        let answers = &run.sim.node_as::<Poll>(poll).unwrap().answers;
        assert_eq!(answers, &[StepState::Done]);
    }

    /// A failed attempt leaves no trace in the event table, and so none in
    /// the packets the table is copied into: only the events a rule waits
    /// on are posted, and none waits on a failure.
    #[test]
    fn a_failed_attempt_posts_no_event() {
        let instance = InstanceId::new(SchemaId(1), 1);
        let (s1, s2) = (StepId(1), StepId(2));
        let mut a = agent_with(FailurePlan::none().fail_step(instance, s1, 1));
        let mut ctx = Ctx::detached(0, NodeId(0));
        let mut deliver = |a: &mut DistAgent, msg| a.on_message(NodeId(0), msg, &mut ctx);
        deliver(
            &mut a,
            DistMsg::WorkflowStart {
                instance,
                inputs: vec![(ItemKey::input(1), Value::Int(5))],
                parent: None,
            },
        );
        deliver(&mut a, DistMsg::StepRetry { instance, step: s1 });
        let history = a.history_of(instance).unwrap();
        assert_eq!(history.record(s1).map(|r| r.attempt), Some(2));
        assert_eq!(
            a.inst(instance).nav.rules.present_events_with_gens(),
            vec![
                (EventKind::WorkflowStart, 1),
                (EventKind::StepDone(s1), 1),
                (EventKind::StepDone(s2), 1),
            ]
        );
    }

    /// Records the `StepStatus` polls it receives and never answers.
    #[derive(Default)]
    struct PollSink(Vec<(InstanceId, StepId)>);

    impl Node<DistMsg> for PollSink {
        fn on_message(&mut self, _from: NodeId, msg: DistMsg, _ctx: &mut Ctx<DistMsg>) {
            if let DistMsg::StepStatus { instance, step } = msg {
                self.0.push((instance, step));
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// S1 → S2, S2 a step of `kind` eligible at agents 0 and 1, and a
    /// simulation with status polling on in which agent 0 is a standby for
    /// S2 and a `PollSink` stands where agent 1 would be. Returns the
    /// deployment, the simulation, and the standby's and the sink's nodes.
    fn standby(
        kind: crew_model::StepKind,
    ) -> (
        Arc<Deployment>,
        crew_simnet::Simulation<DistMsg>,
        NodeId,
        NodeId,
    ) {
        let mut b = SchemaBuilder::new(SchemaId(1), "polls");
        let s1 = b.add_step("S1", "passthrough");
        let s2 = b.add_step("S2", "passthrough");
        b.seq(s1, s2);
        b.configure(s1, |d| d.eligible_agents = vec![AgentId(1)]);
        b.configure(s2, |d| {
            d.eligible_agents = vec![AgentId(0), AgentId(1)];
            d.kind = kind;
        });
        let deployment = Arc::new(Deployment::new([b.build().unwrap()]));
        let shared = SharedCtx {
            deployment: deployment.clone(),
            directory: Directory::new(2),
            config: DistConfig {
                enable_status_polling: true,
                ..DistConfig::default()
            },
        };
        let mut sim = crew_simnet::Simulation::new(deployment.seed);
        let agent = sim.add_node(DistAgent::new(AgentId(0), shared));
        let sink = sim.add_node(PollSink::default());
        (deployment, sim, agent, sink)
    }

    /// S2's packet from S1, as agent 1 would broadcast it.
    fn s2_packet(instance: InstanceId) -> DistMsg {
        let packet = WorkflowPacket {
            instance,
            target_step: StepId(2),
            source_step: Some(StepId(1)),
            executor: None,
            data: DataEnv::default(),
            events: vec![(EventKind::StepDone(StepId(1)), 1)],
            weight: Weight::ONE,
        };
        DistMsg::StepExecute { packet }
    }

    /// The poll timer scans a hashed table, so it sorts what it collects:
    /// `StepStatus` polls go out in instance order, whatever the order the
    /// table iterates in and whatever order the instances arrived in.
    #[test]
    fn status_polls_go_out_in_instance_order() {
        // A query step, so the standby polls for it; agent 0 holds the
        // packets and polls agent 1.
        let (deployment, mut sim, agent, sink) = standby(crew_model::StepKind::Query);
        let schema = deployment.expect_schema(SchemaId(1)).clone();
        let (seed, s2) = (deployment.seed, StepId(2));

        // Two instances whose S2 agent 1 runs, contacted in descending
        // order, that a table fed in that order iterates in that order.
        let remote = (1..64)
            .map(|n| InstanceId::new(SchemaId(1), n))
            .filter(|&i| designated_agent(seed, i, schema.expect_step(s2)) == AgentId(1))
            .collect::<Vec<_>>();
        let iterated = |contacts: [InstanceId; 2]| {
            let mut table = ByInstance::default();
            for i in contacts {
                table.insert(i, ());
            }
            table.into_keys().collect::<Vec<_>>()
        };
        let contacts = remote
            .iter()
            .enumerate()
            .flat_map(|(k, &hi)| remote[..k].iter().map(move |&lo| [hi, lo]))
            .find(|&pair| iterated(pair) == pair)
            .expect("two keys the hasher orders against key order");

        for instance in contacts {
            sim.send_external_at(agent, s2_packet(instance), 10);
        }
        // The polls go out one timeout after the packets; the run ends
        // before a second timeout escalates the silence to a takeover.
        sim.run_until(10 + POLL_TIMEOUT + POLL_PERIOD);

        let held = sim.node_as::<DistAgent>(agent).unwrap();
        let held = held.instances.keys().copied().collect::<Vec<_>>();
        assert_eq!(
            held, contacts,
            "the agent's table iterates against key order"
        );
        let polls = &sim.node_as::<PollSink>(sink).unwrap().0;
        assert_eq!(polls, &[(contacts[1], s2), (contacts[0], s2)]);
    }

    /// Only a query step can be taken over (`try_takeover`), so a standby
    /// polls for nothing else: holding an update step's packet with polling
    /// on, it opens no wait, leaves the cold half unallocated and sends no
    /// `StepStatus`.
    #[test]
    fn a_standby_does_not_poll_for_an_update_step() {
        let (deployment, mut sim, agent, sink) = standby(crew_model::StepKind::Update);
        let s2 = deployment.expect_schema(SchemaId(1)).expect_step(StepId(2));
        let remote = (1..64).map(|n| InstanceId::new(SchemaId(1), n));
        let remote = remote.filter(|&i| designated_agent(deployment.seed, i, s2) == AgentId(1));
        for instance in remote.take(4) {
            sim.send_external_at(agent, s2_packet(instance), 10);
        }
        sim.run_until(10 + 4 * POLL_TIMEOUT);
        let (held, cold) = cold_tables(sim.node_as::<DistAgent>(agent).unwrap());
        assert_eq!(held, 4);
        assert!(cold.is_empty(), "{cold:?}");
        assert!(sim.node_as::<PollSink>(sink).unwrap().0.is_empty());
    }

    /// What `agent` holds per instance: every entry, and the rarely
    /// written tables of those that allocated them.
    fn cold_tables(agent: &DistAgent) -> (usize, Vec<&Cold>) {
        let held = agent.instances.keys();
        let cold = held.filter_map(|i| agent.instances[i].cold());
        (agent.instances.keys().count(), cold.collect())
    }

    /// An entry is 320 bytes since its four rarely written tables moved
    /// behind one pointer (408 before): a field added here is paid by
    /// every agent-instance, 7.5 per workflow instance in the L shape.
    #[test]
    fn an_instance_entry_stays_small() {
        assert_eq!(std::mem::size_of::<InstState>(), 320);
    }

    /// The cold half stays cold: a fault-free run and a run whose steps
    /// fail, retry and roll back (first attempts only, as
    /// `dist_failures` scripts them) leave no entry with its rarely
    /// written tables allocated.
    #[test]
    fn fault_free_and_failing_runs_leave_the_cold_half_unallocated() {
        const INSTANCES: u32 = 24;
        for failing in [false, true] {
            let (mut deployment, steps) = small_l(|b, steps| {
                b.configure(steps[1], |d| d.retry = Some(1));
                b.on_failure_rollback_to(steps[4], steps[2]);
            });
            if failing {
                let mut plan = FailurePlan::none();
                for serial in (1..=INSTANCES).filter(|n| n % 3 == 0) {
                    let instance = InstanceId::new(SchemaId(1), serial);
                    for step in [steps[1], steps[3], steps[4]] {
                        plan = plan.fail_step(instance, step, 1);
                    }
                }
                deployment.plan = plan;
            }
            let mut run = crate::DistRun::new(deployment, 4, DistConfig::default());
            for k in 0..INSTANCES {
                run.start_instance_at(SchemaId(1), vec![(1, Value::Int(5))], u64::from(k) * 5);
            }
            run.run();
            let outcomes = run.outcomes();
            assert!(outcomes.values().all(|o| *o == crate::Outcome::Committed));
            let agents: Vec<&DistAgent> = (0..4).map(|a| run.agent(AgentId(a))).collect();
            let retried = outcomes.keys().any(|&i| {
                let attempts = |a: &&DistAgent| a.history_of(i).map(|h| h.attempts(steps[4]));
                agents.iter().filter_map(attempts).any(|n| n > 1)
            });
            assert_eq!(retried, failing, "failures ran only where scripted");
            for agent in agents {
                let (held, cold) = cold_tables(agent);
                assert!(held > 0);
                assert!(cold.is_empty(), "failing {failing}: {cold:?}");
            }
        }
    }

    /// Under load-balanced selection an entry allocates its rarely written
    /// tables where it holds an executor choice, and only there. The
    /// schema is `successor_selection.rs`'s: A at agent 0, then B, C and
    /// D each eligible at agents 1, 2 and 3 (its `log` steps are
    /// `passthrough` here, which this crate's registry holds).
    #[test]
    fn load_balanced_choices_alone_warm_the_cold_half() {
        let mut b = SchemaBuilder::new(SchemaId(1), "lb").inputs(1);
        let steps = ["A", "B", "C", "D"].map(|name| b.add_step(name, "passthrough"));
        for pair in steps.windows(2) {
            b.seq(pair[0], pair[1]);
        }
        b.configure(steps[0], |d| d.eligible_agents = vec![AgentId(0)]);
        for &s in &steps[1..] {
            b.configure(s, |d| {
                d.eligible_agents = vec![AgentId(1), AgentId(2), AgentId(3)]
            });
        }
        let deployment = Deployment::new([b.build().unwrap()]);
        let config = DistConfig {
            successor_selection: SuccessorSelection::LoadBalanced,
            ..DistConfig::default()
        };
        let mut run = crate::DistRun::new(deployment, 4, config);
        for k in 0..8 {
            run.start_instance_at(
                SchemaId(1),
                vec![(1, Value::Int(k))],
                u64::from(k as u32) * 5,
            );
        }
        run.run();
        assert!(run
            .outcomes()
            .values()
            .all(|o| *o == crate::Outcome::Committed));
        let mut warm = 0;
        for a in 0..4 {
            let (held, cold) = cold_tables(run.agent(AgentId(a)));
            assert!(held > 0);
            for c in &cold {
                assert!(!c.chosen_executor.is_empty(), "agent {a}: {c:?}");
                assert!(c.awaiting_compset.is_empty() && c.waits.is_empty());
                assert!(c.overrides.is_empty());
            }
            warm += cold.len();
        }
        assert!(warm > 0, "no executor choice was held");
    }

    /// A purge frees its entry's slot, and the next instance the agent
    /// meets takes that slot with none of the purged instance's facts: no
    /// data, no history, no forwarded channel, no rarely written table.
    #[test]
    fn a_purged_entrys_slot_is_reused_empty() {
        let [purged, next] = [1, 2].map(|n| InstanceId::new(SchemaId(1), n));
        let mut a = agent();
        let mut ctx = Ctx::detached(0, NodeId(0));
        let data: DataEnv = [(ItemKey::input(1), Value::Int(5))].into_iter().collect();
        let packet = WorkflowPacket::initial(purged, StepId(1), data);
        a.on_message(NodeId(0), DistMsg::StepExecute { packet }, &mut ctx);
        a.inst(purged).cold_mut().overrides.insert(StepId(2));
        let st = &a.instances[&purged];
        assert!(!st.nav.data.is_empty() && !st.forwarded.is_empty());
        let slot: *const InstState = st;
        let instances = vec![purged];
        a.on_message(NodeId(0), DistMsg::PurgeBroadcast { instances }, &mut ctx);
        assert!(a.instances.get(&purged).is_none());

        let st = a.inst(next);
        assert!(std::ptr::eq(slot, st), "the purged slot was not reused");
        assert!(st.nav.data.is_empty() && st.nav.history.record(StepId(1)).is_none());
        assert!(st.forwarded.is_empty() && st.cold.is_none() && !st.instantiated);
        assert_eq!(a.instances.pages(), 1);
    }

    /// A crash leaves the agent an empty table: `take_over` keeps no entry
    /// and no page.
    #[test]
    fn take_over_starts_from_an_empty_table() {
        let mut a = agent();
        let mut ctx = Ctx::detached(0, NodeId(0));
        for n in 1..=3 {
            let start = DistMsg::WorkflowStart {
                instance: InstanceId::new(SchemaId(1), n),
                inputs: vec![(ItemKey::input(1), Value::Int(5))],
                parent: None,
            };
            a.on_message(NodeId::EXTERNAL, start, &mut ctx);
        }
        assert_eq!((a.instances.keys().count(), a.instances.pages()), (3, 1));
        a.on_crash();
        assert!(a.instances.is_empty());
        assert_eq!(a.instances.pages(), 0);
    }
}
