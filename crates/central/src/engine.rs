//! The workflow engine of centralized and parallel control.
//!
//! One engine manages every instance it owns: it holds the complete rule
//! set, data table and execution history per instance (backed by the
//! WFDB), navigates by firing rules, dispatches step programs to
//! application agents, and runs every recovery and coordination mechanism
//! *locally* — which is why centralized control needs zero coordination
//! messages (Table 4) but concentrates all navigation load on one node.
//!
//! Under parallel control (§6) several engines each run this same node
//! class; an instance is owned by `hash(instance) mod e`. Coordination
//! requirements spanning instances on different engines are mediated by a
//! per-requirement *manager engine* through [`CoordMsg`] traffic — the
//! source of Table 5's coordinated-execution message count. The managers
//! and the guards are `crew_exec`'s ([`MutexQueue`], [`RoArbiter`], and the
//! [`Gate`] in each instance's navigator); the engine carries their answers.
//!
//! Failure handling is decided by the navigator too ([`crew_exec::recovery`]:
//! rollback, abort, input change, the abandoned branch of an XOR split, an
//! OCR revisit with its dependent set). The engine holds the whole
//! execution history, so it asks from [`Vantage::History`], queues the
//! compensations each answer names, newest first, and sends them to the
//! application agents one at a time.
//!
//! The engine is a deterministic state machine over the inputs it
//! journals, so it rebuilds state one way: it replays recorded inputs into
//! a fresh engine, which is what a fail-stop crash leaves. Crash recovery
//! replays the command log and takes the fresh engine over, keeping only
//! the WFDB logs and the instrumentation; a live-migration install replays
//! the instance's slice into a fresh engine that owns no instance and
//! manages no requirement, and adopts the instance from it. No handler
//! knows whether it is being replayed.

use crate::msg::{CentralMsg, CoordMsg};
use crate::topology::Topology;
use bytes::{Bytes, BytesMut};
use crew_exec::coord::{mutex_grant, ro_guard};
use crew_exec::{
    declared_outputs, designated_agent, ro_canonical, ro_side, Abort, Deployment, FailureVerdict,
    Gate, InstanceHistory, InstanceNav, MutexQueue, Refire, Request, Revisit, RoArbiter, RoLeader,
    StepState, Vantage, Verdict, Wake, Weight,
};
use crew_model::{DataEnv, InstanceId, ItemKey, SchemaId, StepId, Value, VecMap, WorkflowSchema};
use crew_rules::{compile_schema, EventKind};
use crew_simnet::{Ctx, Node, NodeId};
use crew_storage::{recover_for_node, DbOp, Decode, Encode, InstanceStatus, MemStore, Wal};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One queued compensation. `for_abort` attributes its messages to the
/// abort rather than to failure handling.
#[derive(Debug, Clone)]
struct CompItem {
    step: StepId,
    partial: bool,
    for_abort: bool,
}

/// Per-instance engine state: the shared navigator, the instance's row in
/// the WFDB instance summary table and its command slice, plus what only an
/// engine needs — dispatches in flight to application agents and the
/// ordered compensation queue.
#[derive(Debug, Default)]
struct EngineInst {
    nav: InstanceNav,
    /// The instance's summary row; `None` until its start arrives (an
    /// answer can wire its gate first).
    status: Option<InstanceStatus>,
    /// The encoded `CentralMsg` inputs (real and synthesized) that mention
    /// the instance, in delivery order, while it executes; empty once it is
    /// terminal, since terminal instances never migrate. Replaying the slice
    /// through `handle` on another engine rebuilds the instance there,
    /// which is what `MigrateState` carries. Rebuilt from the WAL on
    /// recovery, so it needs no separate persistence.
    slice: Vec<(u32, Vec<u8>)>,
    /// Steps whose program execution is in flight: step → attempt.
    pending_exec: VecMap<StepId, u32>,
    /// Ordered compensation work; processed one item at a time so
    /// dependent sets compensate in reverse execution order.
    comp_queue: VecDeque<CompItem>,
    comp_active: bool,
    /// Revisited steps to re-execute, in the order they were revisited,
    /// once the compensation queue drains. More than one when a second
    /// thread of the instance revisits a step before the first one's
    /// compensations are done.
    reexec_after_comp: Vec<StepId>,
}

/// The engine node.
pub struct Engine {
    /// This engine's index (0 for centralized control).
    pub index: u32,
    topo: Topology,
    deployment: Arc<Deployment>,
    /// The instances hosted here and not yet retired, each with everything
    /// the engine knows of it. An instance retires once it is terminal,
    /// quiescent and standalone ([`Self::finished`]); it then leaves only
    /// its `retired` row and its `terminal_times` tick, so this table is
    /// bounded by what is live.
    instances: BTreeMap<InstanceId, Box<EngineInst>>,
    templates: BTreeMap<crew_model::SchemaId, Arc<Vec<crew_rules::TemplateRule>>>,
    /// The final summary rows of the instances that retired here.
    retired: BTreeMap<InstanceId, InstanceStatus>,
    /// Virtual tick at which each instance first reached a terminal status
    /// (measurement instrumentation for the throughput/latency harness —
    /// not part of the recovered state machine, so it survives fail-stop
    /// crashes, and what a replay stamps is dropped with the engine it was
    /// replayed into).
    pub terminal_times: BTreeMap<InstanceId, u64>,
    /// Virtual time of the message being handled (instrumentation only;
    /// the state machine itself never reads the clock).
    clock: u64,
    // ---- coordination managers ----
    /// Relative-order decisions of the requirements this engine manages.
    ro: RoArbiter,
    /// The mutual exclusions this engine manages, by requirement.
    mutexes: BTreeMap<u32, MutexQueue>,
    // ---- live migration (crew-shard) ----
    /// Instances migrated away: where to forward their traffic.
    forwards: BTreeMap<InstanceId, u32>,
    /// Messages forwarded on behalf of migrated-away instances.
    pub forwarded_msgs: u64,
    /// Instances this engine has migrated out / accepted in.
    pub migrations_out: u64,
    pub migrations_in: u64,
    /// Accepted instances that arrived holding at least one mutex grant.
    pub migrations_in_with_mutex: u64,
    /// Messages delivered to this engine (handled, not forwarded).
    pub delivered_msgs: u64,
    // ---- WFDB (persistence) ----
    /// The WFDB write-ahead log: one [`DbOp::EngineInput`] command per
    /// delivered message, journaled *before* it is handled, and nothing
    /// else. The engine is a deterministic state machine over its input
    /// stream (it never reads the clock and all its hashing is seeded), so
    /// re-driving the commands with outputs discarded rebuilds every
    /// structure — the instance summary rows, the data, step and
    /// event tables (`nav.data`, `nav.history`, `nav.rules`), pending
    /// dispatches, compensation queues, OCR bookkeeping, and in-flight
    /// coordination state. Commands of retired instances are skipped on
    /// replay (see `summary`), and compaction drops them, with every
    /// `StateProbeReply`, from the log once it has grown
    /// ([`Self::compact_if_due`]), so recovery reads what is live.
    wal: Wal<DbOp, MemStore>,
    /// What compaction knows of each record in `wal`, in log order, fixed
    /// when the record is journaled (or replayed). Volatile: recovery
    /// rebuilds it while it replays.
    wal_index: Vec<Indexed>,
    /// Records the last compaction kept. The log compacts again once it
    /// holds [`COMPACT_GROWTH`] times as many, and at least
    /// [`COMPACT_MIN`]. Volatile, so 0 after a crash — never the replayed
    /// length, or a log that crashes often would never compact.
    compacted_kept: u64,
    /// Command records compaction dropped, restored from `summary` on
    /// recovery.
    wal_dropped: u64,
    /// The WFDB instance summary table, append-only: one
    /// [`DbOp::StatusChanged`] per retired instance, its final status,
    /// written when it retires, and one [`DbOp::CommandsDropped`] per
    /// compaction of `wal`. Recovery reads it first, so the replay of
    /// `wal` can skip every command of an instance that had retired.
    summary: Wal<DbOp, MemStore>,
    /// Set when WAL recovery fails: the node goes silent (fail-stop
    /// becomes fail-silent) instead of taking down the run.
    halted: bool,
}

impl Engine {
    pub fn new(index: u32, deployment: Arc<Deployment>, topo: Topology) -> Self {
        Engine {
            index,
            topo,
            deployment,
            instances: BTreeMap::new(),
            templates: BTreeMap::new(),
            retired: BTreeMap::new(),
            terminal_times: BTreeMap::new(),
            clock: 0,
            ro: RoArbiter::default(),
            mutexes: BTreeMap::new(),
            forwards: BTreeMap::new(),
            forwarded_msgs: 0,
            migrations_out: 0,
            migrations_in: 0,
            migrations_in_with_mutex: 0,
            delivered_msgs: 0,
            wal: Wal::in_memory(),
            wal_index: Vec::new(),
            compacted_kept: 0,
            wal_dropped: 0,
            summary: Wal::in_memory(),
            halted: false,
        }
    }

    fn schema(&self, instance: InstanceId) -> Arc<WorkflowSchema> {
        self.deployment.expect_schema(instance.schema).clone()
    }

    fn nav_load(&self, ctx: &mut Ctx<CentralMsg>) {
        ctx.add_load(crew_exec::NAV_LOAD);
    }

    fn inst(&mut self, instance: InstanceId) -> &mut EngineInst {
        debug_assert!(
            !self.retired(instance),
            "engine {}: {instance} retired, but a handler reached it",
            self.index
        );
        self.instances.entry(instance).or_default()
    }

    /// Update the instance's summary row.
    fn set_status(&mut self, instance: InstanceId, status: InstanceStatus) {
        let st = self.inst(instance);
        st.status = Some(status);
        if status != InstanceStatus::Executing {
            // Terminal instances never migrate, so their slice — kept only
            // to feed a future MigrateState export — can go.
            st.slice = Vec::new();
            // First terminal transition wins: re-executions after an
            // input change must not move the completion time.
            self.terminal_times.entry(instance).or_insert(self.clock);
        }
    }

    /// Instance status: the admin tool reads the WFDB summary directly in
    /// this architecture.
    pub fn status_of(&self, instance: InstanceId) -> Option<InstanceStatus> {
        match self.instances.get(&instance) {
            Some(st) => st.status,
            None => self.retired.get(&instance).copied(),
        }
    }

    /// The WFDB instance summary table: the row of every started instance
    /// hosted here, then the final row of every one that retired here.
    pub fn statuses(&self) -> impl Iterator<Item = (InstanceId, InstanceStatus)> + '_ {
        let hosted = self.instances.iter();
        let hosted = hosted.filter_map(|(i, st)| Some((*i, st.status?)));
        hosted.chain(self.retired.iter().map(|(i, s)| (*i, *s)))
    }

    /// The hosted instances whose status is `Executing`, in ascending id
    /// order.
    fn executing(&self) -> impl Iterator<Item = InstanceId> + '_ {
        let hosted = self.instances.iter();
        let executing = hosted.filter(|(_, st)| st.status == Some(InstanceStatus::Executing));
        executing.map(|(i, _)| *i)
    }

    /// The instance's current data table (test introspection); `None` once
    /// it retired.
    pub fn data_of(&self, instance: InstanceId) -> Option<&DataEnv> {
        self.instances.get(&instance).map(|s| &s.nav.data)
    }

    /// The instance's execution history (test introspection); `None` once
    /// it retired.
    pub fn history_of(&self, instance: InstanceId) -> Option<&InstanceHistory> {
        self.instances.get(&instance).map(|s| &s.nav.history)
    }

    /// Whether WAL recovery failed and this engine went silent.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    // ---- live migration (crew-shard) ---------------------------------------

    /// Live (non-terminal) instances currently hosted by this engine.
    pub fn live_instances(&self) -> u64 {
        self.executing().count() as u64
    }

    /// Navigators hosted here: live instances, plus finished ones that
    /// cannot retire yet (coordinated, linked or nested).
    pub fn hosted_instances(&self) -> u64 {
        self.instances.len() as u64
    }

    /// Debug builds: no hosted instance has finished without retiring (a
    /// leak), and no retired instance is hosted. Each hosted instance's row
    /// and slice live in its entry, so nothing else can diverge. Run-sized,
    /// so it is called where runs are read out
    /// ([`crate::CentralRun::statuses`]), not per message.
    pub(crate) fn check_tables(&self) {
        debug_assert!(
            self.halted || self.instances.keys().all(|i| !self.finished(*i)),
            "engine {}: a finished instance was never retired",
            self.index
        );
        debug_assert!(
            self.retired.keys().all(|i| !self.instances.contains_key(i)),
            "engine {}: a retired instance is hosted",
            self.index
        );
    }

    // ---- retirement -----------------------------------------------------------

    /// Whether `instance` is hosted and done for good: terminal; nothing in
    /// flight (no dispatch, so a late `ExecResult` after an abort still
    /// lands, and no compensation); and standalone — no coordination gate,
    /// no relative-order or rollback-dependency partner, no parent, no
    /// nested step — so every input that can still name it is one the
    /// handlers ignore.
    fn finished(&self, instance: InstanceId) -> bool {
        let Some(st) = self.instances.get(&instance) else {
            return false;
        };
        st.status.is_some_and(|s| s != InstanceStatus::Executing)
            && st.nav.gate.is_none()
            && st.nav.parent.is_none()
            && st.pending_exec.is_empty()
            && st.comp_queue.is_empty()
            && !st.comp_active
            && (self.deployment.ro_links.partners_of(instance))
                .next()
                .is_none()
            && (self.deployment.expect_schema(instance.schema))
                .nested
                .is_empty()
    }

    /// Whether `instance` retired here. (An instance that migrated away left
    /// no row.)
    fn retired(&self, instance: InstanceId) -> bool {
        self.retired.contains_key(&instance)
    }

    /// After an input's handler returned: retire each instance it was about
    /// that has [`Self::finished`] — drop its entry, keep its final row and
    /// journal it, once, to the summary log. (A replay journals to the
    /// summary log of the fresh engine it runs in, which is dropped.)
    fn retire_finished(&mut self, subjects: [Option<InstanceId>; 2]) {
        for instance in subjects.into_iter().flatten() {
            if !self.finished(instance) {
                continue;
            }
            let st = self.instances.remove(&instance);
            let status = st.and_then(|st| st.status).expect("finished is terminal");
            self.retired.insert(instance, status);
            self.summary
                .append(&DbOp::StatusChanged { instance, status })
                .expect("in-memory WAL append cannot fail");
        }
    }

    /// Command records journaled so far, one per delivered input (a proxy
    /// for WFDB write pressure): the records in the log plus those
    /// compaction dropped.
    pub fn wal_appended(&self) -> u64 {
        self.wal_dropped + self.wal.appended()
    }

    /// Command records compaction has dropped from the log.
    pub fn wal_dropped(&self) -> u64 {
        self.wal_dropped
    }

    /// Compact the command log once it has grown [`COMPACT_GROWTH`]-fold
    /// since the last compaction: drop every record whose replay would
    /// change nothing but counters — each instance it is about has retired
    /// (the guard in `handle` would skip it), or it is a `StateProbeReply`
    /// (whose handler is empty). Retirement is permanent, so a record inert
    /// now is inert at every later recovery. The counts go to the summary
    /// log, so recovery still counts every delivered input and install.
    fn compact_if_due(&mut self) {
        let records = self.wal_index.len() as u64;
        if records < COMPACT_MIN.max(COMPACT_GROWTH * self.compacted_kept) {
            return;
        }
        debug_assert_eq!(records, self.wal.appended(), "one index entry per record");
        let mut index = std::mem::take(&mut self.wal_index);
        let mut installs = 0;
        for entry in &mut index {
            if let Some((instance, install)) = entry.subject() {
                if self.retired(instance) {
                    installs += u64::from(install);
                    *entry = Indexed::DROP;
                }
            }
        }
        let dropped = (self.wal)
            .retain(|k| index.get(k) != Some(&Indexed::DROP))
            .expect("in-memory WAL retention cannot fail");
        index.retain(|entry| *entry != Indexed::DROP);
        self.wal_index = index;
        self.compacted_kept = self.wal_index.len() as u64;
        if dropped > 0 {
            self.wal_dropped += dropped;
            let op = DbOp::CommandsDropped {
                records: dropped,
                installs,
            };
            (self.summary.append(&op)).expect("in-memory WAL append cannot fail");
        }
    }

    /// Instances hosted here and still executing — the candidates a
    /// balancer driver can order moved, in ascending id order.
    pub fn movable_instances(&self) -> Vec<InstanceId> {
        self.executing().collect()
    }

    /// Where an instance lives right now, for the local-vs-remote decision
    /// every cross-instance interaction makes: `None` means handle it with
    /// a direct call (hosted here, or about to be created here), otherwise
    /// the engine node to send to — the placement owner, or the forward
    /// target if the instance migrated away.
    fn route(&self, instance: InstanceId) -> Option<NodeId> {
        if self.instances.contains_key(&instance) {
            return None;
        }
        if let Some(&e) = self.forwards.get(&instance) {
            return Some(self.topo.engine_node(e));
        }
        let owner = self.topo.owner_engine(instance);
        if owner == self.index {
            None
        } else {
            Some(self.topo.engine_node(owner))
        }
    }

    /// Record a delivered (or locally synthesized) command in the slice of
    /// every executing instance it mentions, and of the one it starts. The
    /// slice is what a `MigrateState` export carries: replaying it through
    /// [`Self::handle`] on another engine rebuilds the instance's volatile
    /// state there. The slice is itself volatile — crash recovery rebuilds
    /// it by re-driving the WAL through this same path.
    fn ingest_cmd(&mut self, from: u32, msg: &CentralMsg, payload: &[u8]) {
        if matches!(
            msg,
            CentralMsg::MigrateRequest { .. }
                | CentralMsg::MigrateState { .. }
                | CentralMsg::MigrateAck { .. }
                | CentralMsg::OwnerChanged { .. }
        ) {
            // Migration traffic describes placement, not instance state;
            // replaying a stale MigrateRequest at a new host would bounce
            // the instance right back out.
            return;
        }
        // A duplicate start of a terminal instance creates nothing
        // (`start_instance` ignores it), and a slice opened here would never
        // be dropped: `set_status` only runs on a transition.
        let creates = match msg {
            CentralMsg::WorkflowStart { instance, .. } => Some(*instance),
            CentralMsg::ChildStart { child, .. } => Some(*child),
            _ => None,
        }
        .filter(|i| (self.status_of(*i)).is_none_or(|s| s == InstanceStatus::Executing));
        for inst in msg.mentions().into_iter().flatten() {
            let st = if creates == Some(inst) {
                self.instances.entry(inst).or_default()
            } else {
                match self.instances.get_mut(&inst) {
                    Some(st) if st.status == Some(InstanceStatus::Executing) => st,
                    _ => continue,
                }
            };
            st.slice.push((from, payload.to_vec()));
        }
    }

    /// Deliver `msg` to wherever `instance` lives: a send to its engine,
    /// or — hosted here — a direct call of the handler a self-send would
    /// reach. The direct call is recorded against the hosted instances the
    /// message mentions, so an export replays the interaction at the
    /// target. Nothing is sent and nothing is charged for it —
    /// non-migrating runs behave identically. During a replay the sends go
    /// to a detached context, which drops them: the other side saw them
    /// before the crash or at the source.
    fn tell(&mut self, instance: InstanceId, msg: CentralMsg, ctx: &mut Ctx<CentralMsg>) {
        match self.route(instance) {
            Some(node) => ctx.send(node, msg),
            None => {
                self.ingest_cmd(ctx.self_id.0, &msg, &encode_cmd(&msg));
                self.handle(ctx.self_id, msg, ctx);
            }
        }
    }

    /// Deliver `msg` to requirement `req`'s manager, engine `req % e`: a
    /// send, or — this engine manages `req` — a direct call of the handler.
    /// Nothing is journaled for the direct call: manager state belongs to
    /// no instance and never migrates.
    fn tell_manager(&mut self, req: u32, msg: CoordMsg, ctx: &mut Ctx<CentralMsg>) {
        let manager = req % self.topo.engines;
        if self.index != manager {
            ctx.send(self.topo.engine_node(manager), CentralMsg::Coord(msg));
        } else {
            self.on_coord(msg, ctx);
        }
    }

    // ---- instantiation -----------------------------------------------------

    fn start_instance(
        &mut self,
        instance: InstanceId,
        inputs: Vec<(ItemKey, Value)>,
        parent: Option<(InstanceId, StepId)>,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        if self.status_of(instance).is_some() {
            // Duplicate start (e.g. a replayed ChildStart for an instance
            // that already lives here): compiling the rules twice would
            // double-fire every step.
            return;
        }
        let schema = self.schema(instance);
        let template = self
            .templates
            .entry(instance.schema)
            .or_insert_with(|| Arc::new(compile_schema(&schema)))
            .clone();
        self.nav_load(ctx);
        let nav = &mut self.inst(instance).nav;
        nav.parent = parent;
        nav.reserve_for(&schema, inputs.len());
        nav.rules.add_rules(template.iter().map(|t| &t.rule));
        for (k, v) in inputs {
            nav.data.set(k, v);
        }
        nav.rules.add_event(EventKind::WorkflowStart);
        nav.accept_weight(&schema, None, schema.start_step(), Weight::ONE);
        self.wire_gate(instance);
        self.set_status(instance, InstanceStatus::Executing);
        self.fire_rules(instance, ctx);
    }

    // ---- rule firing ---------------------------------------------------------

    fn fire_rules(&mut self, instance: InstanceId, ctx: &mut Ctx<CentralMsg>) {
        while let Some(steps) = self.inst(instance).nav.ready_steps() {
            for step in steps {
                self.start_step(instance, step, ctx);
            }
        }
    }

    // ---- coordination ----------------------------------------------------------

    /// Wire `instance`'s gate on first use: at its start, or when an answer
    /// for it arrives before its start does.
    fn wire_gate(&mut self, instance: InstanceId) {
        let nav = &mut self.instances.entry(instance).or_default().nav;
        if nav.gate.is_none() {
            nav.gate = Gate::wire(&self.deployment, instance, |_| true);
        }
    }

    /// Ask `instance`'s gate whether `step` may run, sending what it asks
    /// for until it says go or parks the step. Each guard examined costs
    /// one navigation load; a re-check after sending (a manager here may
    /// have answered on the spot) charges only the guards it reaches
    /// beyond the previous pass.
    fn pass_gate(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<CentralMsg>) -> bool {
        let mut charged = 0;
        loop {
            let Some(gate) = self.inst(instance).nav.gate.as_deref_mut() else {
                return true;
            };
            let (examined, verdict) = gate.check(step);
            for _ in charged..examined {
                self.nav_load(ctx);
            }
            charged = charged.max(examined);
            match verdict {
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

    /// Send `request` of `instance` to its requirement's manager.
    fn request(&mut self, instance: InstanceId, request: Request, ctx: &mut Ctx<CentralMsg>) {
        let (Request::Claim(req, _) | Request::Acquire(req, _) | Request::Release(req, _)) =
            request;
        let msg = match request {
            Request::Claim(req, partner) => CoordMsg::RoFirstDone {
                req,
                claimant: instance,
                partner,
            },
            Request::Acquire(req, step) => CoordMsg::MutexAcquire {
                req,
                instance,
                step,
            },
            Request::Release(req, step) => CoordMsg::MutexRelease {
                req,
                instance,
                step,
            },
        };
        self.tell_manager(req, msg, ctx);
    }

    /// Hand `instance`'s gate to `answer` and carry out what it wakes.
    fn answer(
        &mut self,
        instance: InstanceId,
        ctx: &mut Ctx<CentralMsg>,
        answer: impl FnOnce(&mut Gate, &InstanceHistory) -> Wake,
    ) {
        let nav = &mut self.inst(instance).nav;
        let Some(gate) = nav.gate.as_deref_mut() else {
            return;
        };
        let wake = answer(gate, &nav.history);
        self.wake(instance, wake, ctx);
    }

    /// Carry out what `instance`'s gate woke: retry the steps, send the
    /// releases owed, send the requests.
    fn wake(&mut self, instance: InstanceId, wake: Wake, ctx: &mut Ctx<CentralMsg>) {
        for step in wake.retry {
            self.start_step(instance, step, ctx);
        }
        for owed in wake.emit {
            let release = CoordMsg::RoRelease {
                req: owed.req,
                k: owed.k,
                lagging: owed.partner,
            };
            self.tell(owed.partner, CentralMsg::Coord(release), ctx);
        }
        for request in wake.send {
            self.request(instance, request, ctx);
        }
    }

    /// Manager side: hand the resource to `step` of `instance`, wherever
    /// the instance is hosted now (it may have migrated while queued).
    fn mutex_grant(
        &mut self,
        req: u32,
        instance: InstanceId,
        step: StepId,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let grant = CoordMsg::MutexGrant {
            req,
            instance,
            step,
        };
        self.tell(instance, CentralMsg::Coord(grant), ctx);
    }

    // ---- step lifecycle -----------------------------------------------------------

    fn start_step(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<CentralMsg>) {
        let st = self.inst(instance);
        if st.nav.aborted || st.pending_exec.contains_key(&step) {
            return;
        }
        if !self.pass_gate(instance, step, ctx) {
            return;
        }
        let schema = self.schema(instance);
        if let Some(&child_schema) = schema.nested.get(&step) {
            self.launch_nested(instance, step, child_schema, ctx);
            return;
        }
        let def = schema.expect_step(step);
        let nav = &mut self.instances.entry(instance).or_default().nav;
        match nav.revisit(&self.deployment, instance, step, Vantage::History) {
            Revisit::Reuse => self.after_step_done(instance, step, ctx),
            Revisit::Execute => self.dispatch(instance, def, ctx),
            // Re-dispatched once the queue of compensations drains.
            Revisit::Compensate { undo, partial } => {
                let origins = &mut self.inst(instance).reexec_after_comp;
                if !origins.contains(&step) {
                    origins.push(step);
                }
                let partial = partial.then_some(step);
                self.queue_compensations(instance, undo, partial, false, ctx);
            }
        }
    }

    /// Queue the compensations of `undo`, in order, `partial` the one done
    /// incrementally, and start on them.
    fn queue_compensations(
        &mut self,
        instance: InstanceId,
        undo: Vec<StepId>,
        partial: Option<StepId>,
        for_abort: bool,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let items = undo.into_iter().map(|step| CompItem {
            step,
            partial: partial == Some(step),
            for_abort,
        });
        self.inst(instance).comp_queue.extend(items);
        self.pump_comp_queue(instance, ctx);
    }

    /// Send the next queued compensation to its agent (or apply it locally
    /// when the step has no compensation program).
    fn pump_comp_queue(&mut self, instance: InstanceId, ctx: &mut Ctx<CentralMsg>) {
        loop {
            let item = {
                let st = self.inst(instance);
                if st.comp_active {
                    return;
                }
                st.comp_queue.pop_front()
            };
            let Some(item) = item else {
                // Queue drained: re-execute the deferred origins.
                let schema = self.schema(instance);
                let origins = std::mem::take(&mut self.inst(instance).reexec_after_comp);
                for origin in origins {
                    self.dispatch(instance, schema.expect_step(origin), ctx);
                }
                return;
            };
            let schema = self.schema(instance);
            let def = schema.expect_step(item.step);
            let done = self.inst(instance).nav.history.state(item.step) == StepState::Done;
            if !done {
                continue; // not executed: nothing to undo
            }
            self.nav_load(ctx);
            if let Some(program) = def.compensation_program.clone() {
                let agent = designated_agent(self.deployment.seed, instance, def);
                self.inst(instance).comp_active = true;
                ctx.send(
                    self.topo.agent_node(agent),
                    CentralMsg::CompensateRequest {
                        instance,
                        step: item.step,
                        program: Some(program),
                        partial: item.partial,
                        for_abort: item.for_abort,
                    },
                );
                return; // wait for CompensateResult
            }
            // No compensation program: bookkeeping only.
            self.apply_compensation(instance, item.step);
        }
    }

    /// Local effects of a completed compensation.
    fn apply_compensation(&mut self, instance: InstanceId, step: StepId) {
        let schema = self.schema(instance);
        let nav = &mut self.inst(instance).nav;
        nav.data.clear_step_outputs(step);
        nav.history.record_compensated(step);
        if nav.compensated(&schema, step) {
            // Retracted without re-testing commit; only a later terminal
            // completion re-tests (DESIGN §6g).
            nav.set_terminal_weight(step, Weight::ZERO);
        }
    }

    /// Scatter-gather dispatch of a step's program: `ExecRequest` to the
    /// chosen executor, `StateProbe` to the other eligible agents — the
    /// `2·a` messages per step of the §6 model.
    fn dispatch(
        &mut self,
        instance: InstanceId,
        def: &crew_model::StepDef,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        self.nav_load(ctx);
        let st = self.inst(instance);
        let attempt = st.nav.history.begin_attempt(def.id);
        st.pending_exec.insert(def.id, attempt);
        let inputs = st.nav.data.project(&def.inputs);
        let chosen = designated_agent(self.deployment.seed, instance, def);
        for agent in &def.eligible_agents {
            let node = self.topo.agent_node(*agent);
            if *agent == chosen {
                ctx.send(
                    node,
                    CentralMsg::ExecRequest {
                        instance,
                        step: def.id,
                        program: def.program.clone(),
                        inputs: inputs.clone(),
                        attempt,
                        cost: def.cost,
                    },
                );
            } else {
                ctx.send(node, CentralMsg::StateProbe);
            }
        }
    }

    fn on_exec_result(
        &mut self,
        instance: InstanceId,
        step: StepId,
        attempt: u32,
        outputs: Option<Vec<Value>>,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let st = self.inst(instance);
        if st.pending_exec.get(&step) != Some(&attempt) {
            return; // stale result from a rolled-back attempt
        }
        st.pending_exec.remove(&step);
        self.nav_load(ctx);
        let schema = self.schema(instance);
        match outputs {
            Some(outputs) => {
                let def = schema.expect_step(step);
                let nav = &mut self.inst(instance).nav;
                let inputs = nav.data.project(&def.inputs);
                for (key, v) in declared_outputs(def, &outputs) {
                    nav.data.set(key, v.clone());
                }
                nav.history.record_done(step, attempt, inputs, outputs);
                self.after_step_done(instance, step, ctx);
            }
            None => {
                let nav = &mut self.inst(instance).nav;
                nav.history.record_failed(step);
                match nav.failure_verdict(&schema, step, attempt) {
                    // Re-dispatch in place; only an exhausted retry budget
                    // reaches the paper's rollback machinery.
                    FailureVerdict::Retry => self.dispatch(instance, schema.expect_step(step), ctx),
                    FailureVerdict::RollbackTo(origin) => {
                        self.rollback_to(instance, origin, false, ctx)
                    }
                    FailureVerdict::Abort => self.abort_instance(instance, ctx),
                }
            }
        }
    }

    /// The instance is looked up once, and again only after a send that
    /// may have reached it (a wake or a compensation).
    fn after_step_done(&mut self, instance: InstanceId, step: StepId, ctx: &mut Ctx<CentralMsg>) {
        let schema = self.schema(instance);
        let mut nav = &mut self.inst(instance).nav;
        nav.rules.add_event(EventKind::StepDone(step));
        // The releases the step owes lagging partners, and its grants back.
        if let Some(wake) = nav.gate.as_deref_mut().map(|gate| gate.done(step)) {
            if !wake.is_empty() {
                self.wake(instance, wake, ctx);
                nav = &mut self.inst(instance).nav;
            }
        }
        // A switched XOR split: undo the abandoned branch.
        let undo = nav.abandoned_branch(&schema, step, Vantage::History);
        if !undo.is_empty() {
            self.queue_compensations(instance, undo, None, false, ctx);
            nav = &mut self.inst(instance).nav;
        }
        // The engine holds both ends of every arc: the weights the step
        // forwards are accepted on the spot.
        for (to, weight) in nav.outgoing_weights(&schema, step) {
            nav.accept_weight(&schema, Some(step), to, weight);
        }
        // Terminal (and not going round its loop again): account
        // completion weight; commit at 1.
        if schema.terminal_steps().contains(&step) && !nav.loop_continues(&schema, step) {
            nav.set_terminal_weight(step, nav.flow_weight(step));
            if nav.commit_now() {
                let done = nav.parent.map(|(parent, parent_step)| {
                    let outputs = nav.nested_outputs(&schema);
                    let done = CentralMsg::ChildDone {
                        parent,
                        parent_step,
                        outputs,
                    };
                    (parent, done)
                });
                self.set_status(instance, InstanceStatus::Committed);
                if let Some((parent, done)) = done {
                    self.tell(parent, done, ctx);
                }
            }
        }
        self.fire_rules(instance, ctx);
    }

    fn launch_nested(
        &mut self,
        instance: InstanceId,
        step: StepId,
        child_schema: crew_model::SchemaId,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let schema = self.schema(instance);
        let nav = &mut self.inst(instance).nav;
        let Some((child, inputs)) =
            nav.launch_nested(instance, schema.expect_step(step), child_schema)
        else {
            return;
        };
        self.tell(
            child,
            CentralMsg::ChildStart {
                child,
                inputs,
                parent: instance,
                parent_step: step,
            },
            ctx,
        );
    }

    fn on_child_done(
        &mut self,
        parent: InstanceId,
        parent_step: StepId,
        outputs: Vec<Value>,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let schema = self.schema(parent);
        let nav = &mut self.inst(parent).nav;
        nav.record_child_done(schema.expect_step(parent_step), outputs);
        self.after_step_done(parent, parent_step, ctx);
    }

    // ---- failure handling -------------------------------------------------------

    fn rollback_to(
        &mut self,
        instance: InstanceId,
        origin: StepId,
        from_dependency: bool,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        self.nav_load(ctx);
        let dep = self.deployment.clone();
        let st = self.inst(instance);
        // Only the origin's firing is reset: downstream rules re-fire on
        // the fresh `step.done` occurrences the re-execution posts.
        let rollback = (st.nav).roll_back(&dep, instance, origin, Refire::Origin, !from_dependency);
        // Results of dispatches still in flight are stale, and so are
        // re-executions still waiting on compensations.
        let stale = |s: &StepId| *s == origin || rollback.invalidated.contains(s);
        st.pending_exec.retain(|s, _| !stale(s));
        st.reexec_after_comp.retain(|s| !stale(s));
        for (partner, origin) in rollback.dependents {
            let msg = CentralMsg::Coord(CoordMsg::RollbackDep {
                instance: partner,
                origin,
            });
            self.tell(partner, msg, ctx);
        }
        self.fire_rules(instance, ctx);
    }

    fn abort_instance(&mut self, instance: InstanceId, ctx: &mut Ctx<CentralMsg>) {
        let dep = self.deployment.clone();
        let nav = &mut self.inst(instance).nav;
        let Abort::Now { releases, undo } = nav.abort(&dep, instance, Vantage::History) else {
            return; // committed or aborted already
        };
        self.nav_load(ctx);
        self.set_status(instance, InstanceStatus::Aborted);
        // Hand back (or de-queue) every mutex this instance may be holding
        // or waiting on — a wedged resource would deadlock the contenders.
        for request in releases {
            self.request(instance, request, ctx);
        }
        // Release every lagger this instance leads: an aborted workflow
        // imposes no order.
        self.answer(instance, ctx, |gate, history| {
            gate.owed_by_abort(|s| history.state(s) == StepState::Done)
        });
        // Undo what ran, newest first; nothing re-executes.
        self.inst(instance).reexec_after_comp.clear();
        self.queue_compensations(instance, undo, None, true, ctx);
    }

    fn change_inputs(
        &mut self,
        instance: InstanceId,
        new_inputs: Vec<(ItemKey, Value)>,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let schema = self.schema(instance);
        let nav = &mut self.inst(instance).nav;
        let Some(origin) = nav.input_change(&schema, &new_inputs) else {
            return;
        };
        for (k, v) in new_inputs {
            nav.data.set(k, v);
        }
        self.nav_load(ctx);
        self.rollback_to(instance, origin, false, ctx);
    }

    fn on_coord(&mut self, msg: CoordMsg, ctx: &mut Ctx<CentralMsg>) {
        match msg {
            CoordMsg::RoFirstDone {
                req,
                claimant,
                partner,
            } => {
                // Manager: the first claim wins; tell the decision to the
                // engines hosting both instances.
                let dep = self.deployment.clone();
                let Some(order) = dep.relative_order(req) else {
                    return;
                };
                let Some(RoLeader { a, b, side, .. }) = self.ro.claim(order, claimant, partner)
                else {
                    return;
                };
                self.nav_load(ctx);
                for inst in [a, b] {
                    let msg = CentralMsg::Coord(CoordMsg::RoDecision {
                        req,
                        a,
                        b,
                        leader_side: side,
                    });
                    self.tell(inst, msg, ctx);
                }
            }
            // A host learns the decision for the instances that live here
            // (or are about to be created here). The manager sent one copy
            // to each instance's host; a copy that finds its instance
            // migrated away while the partner stayed is handled here for
            // the partner and chases the instance to its new host.
            CoordMsg::RoDecision {
                req,
                a,
                b,
                leader_side,
            } => {
                let dep = self.deployment.clone();
                let Some(order) = dep.relative_order(req) else {
                    return;
                };
                let decision = RoLeader {
                    req,
                    a,
                    b,
                    side: leader_side,
                };
                for inst in [a, b] {
                    match self.route(inst) {
                        None => {
                            self.wire_gate(inst);
                            self.answer(inst, ctx, |gate, history| {
                                let done = |s| history.state(s) == StepState::Done;
                                gate.decide(order, decision, inst, done)
                            });
                        }
                        Some(host) if self.forwards.contains_key(&inst) => {
                            ctx.send(host, CentralMsg::Coord(msg.clone()));
                        }
                        Some(_) => {}
                    }
                }
            }
            CoordMsg::RoRelease { req, k, lagging } => {
                let dep = self.deployment.clone();
                let Some(order) = dep.relative_order(req) else {
                    return;
                };
                if self.route(lagging).is_some() {
                    return;
                }
                self.wire_gate(lagging);
                for partner in dep.ro_links.partners_of(lagging) {
                    if let Some(side) = ro_side(order, lagging, partner) {
                        let (a, b) = ro_canonical(lagging, partner, side);
                        let tag = ro_guard(req, k, side, a, b);
                        self.answer(lagging, ctx, |gate, _| gate.satisfy(tag));
                    }
                }
            }
            CoordMsg::MutexAcquire {
                req,
                instance,
                step,
            } => {
                if self.mutexes.entry(req).or_default().acquire(instance, step) {
                    self.mutex_grant(req, instance, step, ctx);
                }
            }
            CoordMsg::MutexGrant {
                req,
                instance,
                step,
            } => {
                let tag = mutex_grant(req, instance, step);
                self.answer(instance, ctx, |gate, _| gate.satisfy(tag));
            }
            CoordMsg::MutexRelease {
                req,
                instance,
                step,
            } => {
                let queue = self.mutexes.entry(req).or_default();
                if let Some((next, next_step)) = queue.release(instance, step) {
                    self.mutex_grant(req, next, next_step, ctx);
                }
            }
            CoordMsg::RollbackDep { instance, origin } => {
                self.rollback_to(instance, origin, true, ctx);
            }
        }
    }

    /// The actual message handler. [`Node::on_message`] journals the input
    /// and delegates here; [`Self::replay`] re-drives recorded inputs
    /// through here with a detached context.
    fn handle(&mut self, from: NodeId, msg: CentralMsg, ctx: &mut Ctx<CentralMsg>) {
        // Every input left for a retired instance is one its handler would
        // ignore (a duplicate start, a stale result, an abort of a finished
        // instance, …), so there is nothing to do — and nothing to re-create
        // its navigator for. A skipped install still counts as one.
        if let [Some(first), second] = subjects(&msg) {
            if self.retired(first) && second.is_none_or(|i| self.retired(i)) {
                if let CentralMsg::MigrateState { .. } = msg {
                    self.migrations_in += 1;
                }
                return;
            }
        }
        match msg {
            CentralMsg::WorkflowStart { instance, inputs } => {
                self.start_instance(instance, inputs, None, ctx)
            }
            CentralMsg::WorkflowChangeInputs {
                instance,
                new_inputs,
            } => self.change_inputs(instance, new_inputs, ctx),
            CentralMsg::WorkflowAbort { instance } => self.abort_instance(instance, ctx),
            CentralMsg::ExecResult {
                instance,
                step,
                attempt,
                outputs,
            } => self.on_exec_result(instance, step, attempt, outputs, ctx),
            CentralMsg::CompensateResult { instance, step, .. } => {
                self.apply_compensation(instance, step);
                self.inst(instance).comp_active = false;
                self.pump_comp_queue(instance, ctx);
                self.fire_rules(instance, ctx);
            }
            CentralMsg::StateProbeReply | CentralMsg::MigrateAck { .. } => {
                // The gather half of the §6 scatter-gather: the
                // deterministic chooser reads nothing from it. The source
                // of a migration let the instance go when it sent the slice.
            }
            CentralMsg::Coord(c) => self.on_coord(c, ctx),
            CentralMsg::ChildStart {
                child,
                inputs,
                parent,
                parent_step,
            } => self.start_instance(child, inputs, Some((parent, parent_step)), ctx),
            CentralMsg::ChildDone {
                parent,
                parent_step,
                outputs,
            } => self.on_child_done(parent, parent_step, outputs, ctx),
            CentralMsg::MigrateRequest { instance, target } => {
                self.on_migrate_request(instance, target, ctx)
            }
            CentralMsg::MigrateState { instance, records } => {
                self.on_migrate_state(from, instance, records, ctx)
            }
            CentralMsg::OwnerChanged { instance, owner } => {
                if self.instances.contains_key(&instance) || owner == self.index {
                    self.forwards.remove(&instance);
                } else {
                    self.forwards.insert(instance, owner);
                }
            }
            CentralMsg::ExecRequest { .. }
            | CentralMsg::StateProbe
            | CentralMsg::CompensateRequest { .. } => {
                // Agent-bound messages; an engine receiving one is a
                // routing bug surfaced by tests.
            }
        }
    }

    // ---- replay ---------------------------------------------------------------

    /// An engine with nothing but its identity: what a fail-stop crash
    /// leaves, and what a replay runs in.
    fn fresh(&self, index: u32) -> Engine {
        Engine::new(index, self.deployment.clone(), self.topo)
    }

    /// Re-drive `(from, payload)` command records through the handlers of
    /// this engine, which is fresh: count and index each one, add it to its
    /// instance's slice, handle it with a detached context — sends, timers
    /// and load were emitted when it was first handled — and retire what
    /// finished. A record that does not decode halts the engine.
    fn replay(&mut self, records: impl Iterator<Item = (u32, Bytes)>, ctx: &Ctx<CentralMsg>) {
        for (from, payload) in records {
            let Ok(msg) = CentralMsg::decode(&mut payload.clone()) else {
                self.halted = true;
                return;
            };
            self.delivered_msgs += 1;
            self.wal_index.push(Indexed::of(&msg));
            self.ingest_cmd(from, &msg, &payload);
            let subjects = subjects(&msg);
            self.handle(NodeId(from), msg, &mut Ctx::detached(ctx.now, ctx.self_id));
            self.retire_finished(subjects);
        }
    }

    /// Become `fresh`, keeping what survives a fail-stop crash: the WFDB
    /// (command and summary logs), the instrumentation (`terminal_times`,
    /// `clock`), and whether recovery ever failed. Whatever a replay into
    /// `fresh` stamped or journaled is dropped with it.
    fn take_over(&mut self, fresh: Engine) {
        let old = std::mem::replace(self, fresh);
        self.wal = old.wal;
        self.summary = old.summary;
        self.terminal_times = old.terminal_times;
        self.clock = old.clock;
        self.halted |= old.halted;
    }

    // ---- migration protocol (crew-shard) -----------------------------------

    /// Source side of a live migration: freeze is implicit in handler
    /// atomicity — between receiving the request and emitting the state
    /// transfer nothing else can touch the instance. Refusal (not hosted,
    /// not executing, bogus target) is silent: the balancer observes the
    /// outcome through load stats, not replies.
    fn on_migrate_request(&mut self, instance: InstanceId, target: u32, ctx: &mut Ctx<CentralMsg>) {
        if target == self.index
            || target >= self.topo.engines
            || self.status_of(instance) != Some(InstanceStatus::Executing)
        {
            return;
        }
        // The slice leaves with the entry.
        let records = (self.instances.remove(&instance)).map_or_else(Vec::new, |st| st.slice);
        // The gate travels with the instance (rebuilt from the slice at the
        // target); manager-side holder state stays put — the manager role
        // is placement-independent and never migrates.
        self.forwards.insert(instance, target);
        self.migrations_out += 1;
        ctx.send(
            self.topo.engine_node(target),
            CentralMsg::MigrateState { instance, records },
        );
    }

    /// Target side: replay the exported command slice into a fresh engine
    /// to rebuild the instance's volatile state, adopt what it built, then
    /// ack the source and advertise the new placement. Per-channel FIFO
    /// guarantees the slice lands before any traffic the source forwards
    /// afterwards.
    ///
    /// The fresh engine has index `engines`, so it owns no instance and
    /// manages no requirement: every effect of the replay on another
    /// instance or on a manager is a send, which the replay's detached
    /// context drops — the source and the managers saw the originals.
    fn on_migrate_state(
        &mut self,
        from: NodeId,
        instance: InstanceId,
        records: Vec<(u32, Vec<u8>)>,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        self.forwards.remove(&instance);
        let mut fresh = self.fresh(self.topo.engines);
        // Lent, so no install compiles rules the target already has.
        fresh.templates = std::mem::take(&mut self.templates);
        let slice = records
            .iter()
            .map(|(src, cmd)| (*src, Bytes::from(cmd.clone())));
        fresh.replay(slice, ctx);
        self.templates = std::mem::take(&mut fresh.templates);
        if fresh.halted {
            self.halted = true;
            return;
        }
        if let Some(mut st) = fresh.instances.remove(&instance) {
            if st.nav.gate.as_deref().is_some_and(Gate::holds_grant) {
                self.migrations_in_with_mutex += 1;
            }
            // The shipped records, not what the replay recorded: a
            // manager-bound record answered on the spot in `fresh`, which
            // recorded the grant it synthesized.
            st.slice = records;
            let status = st.status;
            self.instances.insert(instance, st);
            if let Some(status) = status {
                self.set_status(instance, status);
            }
        }
        self.migrations_in += 1;
        ctx.send(from, CentralMsg::MigrateAck { instance });
        // Advertise the new placement fleet-wide. Peers route
        // instance-bound traffic (manager decisions, ChildDone from child
        // hosts) via the static placement owner; without the broadcast
        // every such message would detour through that owner as a forward
        // — exactly the engine the balancer is usually trying to drain.
        // The source is skipped: dropping the instance left it a forwards
        // entry already.
        for e in 0..self.topo.engines {
            let node = self.topo.engine_node(e);
            if e == self.index || node == from {
                continue;
            }
            ctx.send(
                node,
                CentralMsg::OwnerChanged {
                    instance,
                    owner: self.index,
                },
            );
        }
    }
}

/// The instances the retirement guard reads `msg` as being about: the ones
/// it mentions, or the one a `MigrateState` installs or an `OwnerChanged`
/// re-homes.
fn subjects(msg: &CentralMsg) -> [Option<InstanceId>; 2] {
    match msg {
        CentralMsg::MigrateState { instance, .. } | CentralMsg::OwnerChanged { instance, .. } => {
            [Some(*instance), None]
        }
        _ => msg.mentions(),
    }
}

/// The command log compacts when it holds this many times the records the
/// last compaction kept…
const COMPACT_GROWTH: u64 = 4;
/// …and at least this many.
const COMPACT_MIN: u64 = 1024;

/// What compaction knows of one command record, fixed when it is journaled
/// so that deciding never decodes it: 8 bytes. The top two bits are the
/// kind; a record about one instance packs it below them (schema in 30
/// bits, serial in 32). A record about two instances is coordination, and
/// coordinated instances never retire, so it is always kept — as is a
/// record about none, or about an instance whose schema id needs more than
/// 30 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Indexed(u64);

impl Indexed {
    const KIND: u64 = 3 << 62;
    const SOLE: u64 = 0;
    const INSTALL: u64 = 1 << 62;
    const KEEP: Indexed = Indexed(2 << 62);
    /// Inert whatever has retired: a `StateProbeReply`, whose handler is
    /// empty. A compaction also marks the records it finds inert with it.
    const DROP: Indexed = Indexed(3 << 62);

    /// `msg`'s entry, read off the decoded message it is journaled from.
    fn of(msg: &CentralMsg) -> Indexed {
        let kind = match msg {
            CentralMsg::StateProbeReply => return Indexed::DROP,
            CentralMsg::MigrateState { .. } => Indexed::INSTALL,
            _ => Indexed::SOLE,
        };
        match subjects(msg) {
            [Some(i), None] if i.schema.0 < 1 << 30 => {
                Indexed(kind | u64::from(i.schema.0) << 32 | u64::from(i.serial))
            }
            _ => Indexed::KEEP,
        }
    }

    /// The one instance the record is about, and whether it installs it.
    fn subject(self) -> Option<(InstanceId, bool)> {
        let kind = self.0 & Self::KIND;
        (kind == Self::SOLE || kind == Self::INSTALL).then(|| {
            let schema = SchemaId((self.0 >> 32) as u32 & ((1 << 30) - 1));
            (
                InstanceId::new(schema, self.0 as u32),
                kind == Self::INSTALL,
            )
        })
    }
}

/// `msg`'s wire form, encoded once into the buffer the journal record
/// then owns (commands are a few dozen bytes).
fn encode_cmd(msg: &CentralMsg) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    msg.encode(&mut buf);
    buf.into()
}

impl Node<CentralMsg> for Engine {
    fn on_message(&mut self, from: NodeId, msg: CentralMsg, ctx: &mut Ctx<CentralMsg>) {
        if self.halted {
            // Fail-silent: a node whose log could not be recovered serves
            // nothing rather than serving from wrong (empty) state.
            return;
        }
        // Traffic for migrated-away instances is passed along unjournaled:
        // the current owner journals it on delivery, so each input is
        // recovered exactly once, at exactly one engine. Manager-bound
        // coordination is exempt — the manager role never migrates.
        if !msg.manager_bound() {
            let mentions = msg.mentions();
            let mut ids = mentions.into_iter().flatten();
            if mentions[0].is_some() && ids.clone().all(|i| !self.instances.contains_key(&i)) {
                if let Some(&e) = ids.find_map(|i| self.forwards.get(&i)) {
                    self.forwarded_msgs += 1;
                    ctx.send(self.topo.engine_node(e), msg);
                    return;
                }
            }
        }
        // Write-ahead command logging: journal the input *before* handling
        // it, so every volatile structure the handler mutates can be
        // re-derived by replaying the journal after a fail-stop crash.
        // One record and one flush per delivered message, the flush issued
        // before the simulator releases the handler's buffered sends.
        self.clock = ctx.now;
        self.delivered_msgs += 1;
        let payload = encode_cmd(&msg);
        self.ingest_cmd(from.0, &msg, &payload);
        self.wal
            .append_nosync(&DbOp::EngineInput {
                from: from.0,
                payload,
            })
            .expect("in-memory WAL append cannot fail");
        self.wal_index.push(Indexed::of(&msg));
        let subjects = subjects(&msg);
        self.handle(from, msg, ctx);
        self.retire_finished(subjects);
        self.wal.flush().expect("in-memory WAL flush cannot fail");
        self.compact_if_due();
    }

    fn on_crash(&mut self) {
        // Fail-stop: everything not on the WAL is gone.
        self.take_over(self.fresh(self.index));
    }

    fn on_recover(&mut self, ctx: &mut Ctx<CentralMsg>) {
        let (Some(retired), Some(records)) = (
            recover_for_node(&mut self.summary),
            recover_for_node(&mut self.wal),
        ) else {
            self.halted = true;
            return;
        };
        let mut fresh = self.fresh(self.index);
        // The summary log first: with their final rows back, the retired
        // instances are what the guard in `handle` skips, and the commands
        // compaction dropped are counted without being read.
        for record in retired {
            match record {
                DbOp::StatusChanged { instance, status } => {
                    fresh.retired.insert(instance, status);
                }
                DbOp::CommandsDropped { records, installs } => {
                    fresh.delivered_msgs += records;
                    fresh.migrations_in += installs;
                    fresh.wal_dropped += records;
                }
                _ => {}
            }
        }
        // An engine journals nothing else: a foreign record carries no
        // command, so it reads as one that does not decode.
        let commands = records.into_iter().map(|record| match record {
            DbOp::EngineInput { from, payload } => (from, Bytes::from(payload)),
            _ => (0, Bytes::new()),
        });
        fresh.replay(commands, ctx);
        self.take_over(fresh);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{AgentId, ItemKey, SchemaBuilder, SchemaId, Value};

    fn engine() -> Engine {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf1").inputs(1);
        let s = b.add_step("S1", "passthrough");
        b.configure(s, |d| d.eligible_agents = vec![AgentId(0)]);
        let deployment = Deployment::new([b.build().unwrap()]);
        Engine::new(0, Arc::new(deployment), Topology::new(1, 1))
    }

    fn start(e: &mut Engine, serial: u32) -> InstanceId {
        let instance = InstanceId::new(SchemaId(1), serial);
        let mut ctx = Ctx::detached(0, NodeId(1));
        e.on_message(
            NodeId::EXTERNAL,
            CentralMsg::WorkflowStart {
                instance,
                inputs: vec![(ItemKey::input(1), Value::Int(5))],
            },
            &mut ctx,
        );
        instance
    }

    #[test]
    fn replay_rebuilds_tables_and_state() {
        let mut e = engine();
        let inst = start(&mut e, 1);
        assert!(e.instances[&inst].pending_exec.contains_key(&StepId(1)));
        assert_eq!(e.status_of(inst), Some(InstanceStatus::Executing));
        let data = e.data_of(inst).cloned();
        assert_eq!(
            data.as_ref().and_then(|d| d.get(&ItemKey::input(1))),
            Some(&Value::Int(5))
        );

        e.on_crash();
        assert!(e.instances.is_empty());
        assert!(e.status_of(inst).is_none());
        assert!(e.data_of(inst).is_none());
        assert!(e.history_of(inst).is_none());

        let mut ctx = Ctx::detached(10, NodeId(1));
        e.on_recover(&mut ctx);
        assert!(!e.is_halted());
        // Volatile dispatch state is back, so the in-flight ExecResult the
        // simulator re-delivers after recovery will be accepted (not
        // re-dispatched, not dropped).
        assert!(e.instances[&inst].pending_exec.contains_key(&StepId(1)));
        assert_eq!(e.status_of(inst), Some(InstanceStatus::Executing));
        assert_eq!(e.data_of(inst).cloned(), data);
        assert_eq!(e.history_of(inst).unwrap().attempts(StepId(1)), 1);
    }

    /// ROADMAP's "WAL is a prefix of delivered inputs": the journal holds
    /// one `EngineInput` per delivered message, in delivery order, each a
    /// decodable `CentralMsg` — and no other record kind.
    #[test]
    fn wal_holds_exactly_the_delivered_inputs() {
        let mut e = engine();
        let inst = start(&mut e, 1);
        let result = CentralMsg::ExecResult {
            instance: inst,
            step: StepId(1),
            attempt: 1,
            outputs: Some(vec![Value::Int(5)]),
        };
        let mut ctx = Ctx::detached(1, NodeId(1));
        e.on_message(NodeId(0), result.clone(), &mut ctx);
        assert_eq!(e.status_of(inst), Some(InstanceStatus::Committed));

        let records = e.wal.recover().unwrap();
        assert_eq!(records.len() as u64, e.delivered_msgs);
        assert_eq!(e.wal_appended(), e.delivered_msgs);
        let inputs: Vec<(u32, CentralMsg)> = records
            .into_iter()
            .map(|r| match r {
                DbOp::EngineInput { from, payload } => {
                    let mut buf = Bytes::from(payload);
                    (from, CentralMsg::decode(&mut buf).expect("a CentralMsg"))
                }
                other => panic!("engine journaled a non-command record: {other:?}"),
            })
            .collect();
        assert_eq!(inputs[0].0, NodeId::EXTERNAL.0);
        assert!(matches!(inputs[0].1, CentralMsg::WorkflowStart { .. }));
        assert_eq!(inputs[1], (0, result));
    }

    /// A failed attempt leaves no trace in the event table: only the
    /// events a rule waits on are posted, and none waits on a failure.
    #[test]
    fn a_failed_attempt_posts_no_event() {
        let mut e = engine();
        let inst = start(&mut e, 1);
        let failed = CentralMsg::ExecResult {
            instance: inst,
            step: StepId(1),
            attempt: 1,
            outputs: None,
        };
        deliver(&mut e, failed);
        // The rollback to S1 dispatched its second attempt.
        assert_eq!(e.history_of(inst).unwrap().attempts(StepId(1)), 2);
        assert_eq!(
            e.instances[&inst].nav.rules.present_events_with_gens(),
            vec![(EventKind::WorkflowStart, 1)]
        );
    }

    /// A rollback drops the re-executions it invalidates that still wait
    /// on compensations, as it drops their dispatches in flight: S1 → S2 →
    /// S3, S1 and S2 always re-executing, S3 failing back to S2. While S2's
    /// compensation runs, an input change rolls back to S1, which
    /// invalidates S2. When the compensations drain, S1 alone is
    /// dispatched; S2 runs again only once S1's re-execution reaches it.
    #[test]
    fn a_rollback_drops_the_reexecutions_it_invalidates() {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf1").inputs(1);
        let [s1, s2, s3] = ["S1", "S2", "S3"].map(|name| b.add_step(name, "passthrough"));
        b.seq(s1, s2).seq(s2, s3);
        b.read(s1, ItemKey::input(1));
        b.on_failure_rollback_to(s3, s2);
        for s in [s1, s2, s3] {
            b.configure(s, |d| {
                d.eligible_agents = vec![AgentId(0)];
                d.compensation_program = Some("passthrough".into());
                d.reexec = crew_model::ReexecPolicy::Always;
            });
        }
        let deployment = Deployment::new([b.build().unwrap()]);
        let mut e = Engine::new(0, Arc::new(deployment), Topology::new(1, 1));
        let inst = start(&mut e, 1);
        deliver(&mut e, result(inst, 1));
        deliver(&mut e, result(inst, 2));
        let failed = CentralMsg::ExecResult {
            instance: inst,
            step: s3,
            attempt: 1,
            outputs: None,
        };
        deliver(&mut e, failed);
        assert_eq!(e.instances[&inst].reexec_after_comp, [s2]);
        let change = CentralMsg::WorkflowChangeInputs {
            instance: inst,
            new_inputs: vec![(ItemKey::input(1), Value::Int(6))],
        };
        deliver(&mut e, change);
        assert_eq!(e.instances[&inst].reexec_after_comp, [s1]);
        for step in [s2, s1] {
            let done = CentralMsg::CompensateResult {
                instance: inst,
                step,
                for_abort: false,
            };
            deliver(&mut e, done);
        }
        let dispatched: Vec<_> = e.instances[&inst].pending_exec.keys().copied().collect();
        assert_eq!(dispatched, [s1]);
    }

    /// Deliver `msg` to `e` from agent node 0.
    fn deliver(e: &mut Engine, msg: CentralMsg) {
        let mut ctx = Ctx::detached(1, NodeId(1));
        e.on_message(NodeId(0), msg, &mut ctx);
    }

    /// A successful first attempt of `step`.
    fn result(instance: InstanceId, step: u32) -> CentralMsg {
        CentralMsg::ExecResult {
            instance,
            step: StepId(step),
            attempt: 1,
            outputs: Some(vec![Value::Int(5)]),
        }
    }

    fn summary(e: &mut Engine) -> Vec<DbOp> {
        e.summary.recover().unwrap()
    }

    fn retired(instance: InstanceId, status: InstanceStatus) -> DbOp {
        DbOp::StatusChanged { instance, status }
    }

    /// A duplicate `WorkflowStart` for a finished instance (a retried
    /// front-end request) is journaled like every input, but finds the
    /// instance retired: it re-creates no entry and re-opens no slice —
    /// nothing would ever drop either again.
    #[test]
    fn duplicate_start_of_a_finished_instance_leaves_no_command_log() {
        let mut e = engine();
        let inst = start(&mut e, 1);
        let slice = |e: &Engine| e.instances.get(&inst).map(|st| st.slice.len());
        assert_eq!(slice(&e), Some(1), "the start");
        assert_eq!(e.movable_instances(), vec![inst]);
        deliver(&mut e, result(inst, 1));
        assert_eq!(e.status_of(inst), Some(InstanceStatus::Committed));
        assert_eq!(slice(&e), None);
        assert!(!e.instances.contains_key(&inst), "retired on commit");

        let journaled = e.wal_appended();
        assert_eq!(start(&mut e, 1), inst);
        assert_eq!(e.wal_appended(), journaled + 1, "journaled");
        assert_eq!(e.delivered_msgs, journaled + 1, "and counted");
        assert_eq!(slice(&e), None, "a slice nothing will drop");
        assert!(
            !e.instances.contains_key(&inst),
            "an entry nothing will drop"
        );
        assert_eq!(e.status_of(inst), Some(InstanceStatus::Committed));
        assert!(e.movable_instances().is_empty());
        assert_eq!(e.live_instances(), 0);
        assert_eq!(
            summary(&mut e),
            vec![retired(inst, InstanceStatus::Committed)]
        );
        e.check_tables();
    }

    /// A live instance with nothing in flight (a stall) has not finished:
    /// only a terminal status retires.
    #[test]
    fn a_live_instance_with_nothing_in_flight_stays_hosted() {
        let mut e = engine();
        let inst = start(&mut e, 1);
        e.instances.get_mut(&inst).unwrap().pending_exec.clear();
        e.retire_finished([Some(inst), None]);
        assert!(e.instances.contains_key(&inst));
        assert!(summary(&mut e).is_empty());
    }

    /// DESIGN §6g: a result that lands after an abort still applies — here
    /// of the instance's only step, so it commits the aborted instance — and
    /// the instance stays hosted until it has.
    #[test]
    fn an_abort_with_a_step_in_flight_retires_after_the_late_result() {
        let mut e = engine();
        let inst = start(&mut e, 1);
        deliver(&mut e, CentralMsg::WorkflowAbort { instance: inst });
        assert_eq!(e.status_of(inst), Some(InstanceStatus::Aborted));
        assert!(e.instances.contains_key(&inst), "its result is still due");
        assert!(summary(&mut e).is_empty());
        e.check_tables();

        deliver(&mut e, result(inst, 1));
        assert_eq!(
            e.status_of(inst),
            Some(InstanceStatus::Committed),
            "the late terminal result applied"
        );
        assert!(!e.instances.contains_key(&inst));
        assert_eq!(
            summary(&mut e),
            vec![retired(inst, InstanceStatus::Committed)]
        );
        e.check_tables();
    }

    /// An abort compensates one step at a time; the instance retires with
    /// the last `CompensateResult`, not before.
    #[test]
    fn an_abort_retires_after_its_last_compensation() {
        let mut e = {
            let mut b = SchemaBuilder::new(SchemaId(1), "wf1").inputs(1);
            let s: Vec<_> = (1..=4)
                .map(|i| b.add_step(format!("S{i}"), "passthrough"))
                .collect();
            b.seq(s[0], s[1]).seq(s[1], s[2]).seq(s[2], s[3]);
            b.default_agents(&[AgentId(0)]);
            for step in &s {
                b.configure(*step, |d| d.compensation_program = Some("undo".into()));
            }
            let deployment = Deployment::new([b.build().unwrap()]);
            Engine::new(0, Arc::new(deployment), Topology::new(1, 1))
        };
        let inst = start(&mut e, 1);
        deliver(&mut e, result(inst, 1));
        deliver(&mut e, result(inst, 2));
        // S3 executes; S2 then S1 compensate, in reverse execution order.
        deliver(&mut e, CentralMsg::WorkflowAbort { instance: inst });
        deliver(&mut e, result(inst, 3));
        for step in [2, 1] {
            assert!(e.instances.contains_key(&inst), "S{step} compensates");
            assert!(e.instances[&inst].comp_active);
            e.check_tables();
            deliver(
                &mut e,
                CentralMsg::CompensateResult {
                    instance: inst,
                    step: StepId(step),
                    for_abort: true,
                },
            );
        }
        assert_eq!(e.status_of(inst), Some(InstanceStatus::Aborted));
        assert!(!e.instances.contains_key(&inst));
        assert_eq!(
            summary(&mut e),
            vec![retired(inst, InstanceStatus::Aborted)]
        );
        e.check_tables();
    }

    /// Instances whose late inputs still need their state stay hosted
    /// after they commit: a relative order's decision and releases, a
    /// mutex's stray grant, a rollback dependency's partner, a nested
    /// workflow's `ChildDone` and its parent.
    #[test]
    fn coordinated_linked_and_nested_instances_never_retire() {
        let ss = |step| SchemaStep::new(SchemaId(1), StepId(step));
        let mutex = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "booth".into(),
                members: vec![ss(2)],
            }],
            ..CoordinationSpec::default()
        };
        let order = CoordinationSpec {
            relative_orders: vec![RelativeOrder {
                id: 0,
                conflict: "bin".into(),
                pairs: vec![(ss(1), ss(1)), (ss(2), ss(2))],
            }],
            ..CoordinationSpec::default()
        };
        let rollback = CoordinationSpec {
            rollback_dependencies: vec![RollbackDependency {
                id: 0,
                source: ss(2),
                dependent_schema: SchemaId(1),
                dependent_origin: StepId(1),
            }],
            ..CoordinationSpec::default()
        };
        let pair = [1, 2].map(|k| InstanceId::new(SchemaId(1), k));
        for (name, coordination, linked) in [
            ("mutex", mutex, false),
            ("relative order", order, true),
            ("rollback dependency", rollback, true),
        ] {
            let mut deployment = Deployment::new([linear(1, 3)]);
            deployment.coordination = coordination;
            if linked {
                deployment.ro_links.link(pair[0], pair[1]);
            }
            let mut run = CentralRun::new(deployment, 1, 1);
            for k in pair {
                assert_eq!(run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]), k);
            }
            run.run();
            let statuses = run.statuses();
            assert_eq!(statuses.len(), 2, "{name}");
            assert!(
                statuses.values().all(|s| *s == InstanceStatus::Committed),
                "{name}"
            );
            assert_eq!(run.engine(0).hosted_instances(), 2, "{name}");
        }

        let mut b = SchemaBuilder::new(SchemaId(2), "parent").inputs(1);
        let p1 = b.add_step("P1", "passthrough");
        let call = b.add_nested("Call", SchemaId(1));
        b.seq(p1, call);
        b.default_agents(&[AgentId(0)]);
        let mut run = CentralRun::new(Deployment::new([linear(1, 2), b.build().unwrap()]), 1, 1);
        run.start_instance(SchemaId(2), vec![(1, Value::Int(5))]);
        run.run();
        let statuses = run.statuses();
        assert_eq!(statuses.len(), 2, "parent and child");
        assert!(statuses.values().all(|s| *s == InstanceStatus::Committed));
        assert_eq!(run.engine(0).hosted_instances(), 2, "parent and child");
    }

    /// Retire, crash, recover, crash, recover: the final status comes back
    /// from the summary log, the replay skips every command of the retired
    /// instance (still counting them as delivered), and the summary log
    /// holds exactly one record for it.
    #[test]
    fn a_retired_instance_is_recovered_from_the_summary_log() {
        let mut e = engine();
        let done = start(&mut e, 1);
        deliver(&mut e, result(done, 1));
        let live = start(&mut e, 2);
        for crash in 1..=2 {
            e.on_crash();
            e.on_recover(&mut Ctx::detached(10, NodeId(1)));
            assert!(!e.is_halted());
            assert_eq!(
                e.status_of(done),
                Some(InstanceStatus::Committed),
                "crash {crash}"
            );
            assert!(e.terminal_times.contains_key(&done), "crash {crash}");
            assert!(!e.instances.contains_key(&done), "crash {crash}");
            assert!(
                e.instances[&live].pending_exec.contains_key(&StepId(1)),
                "crash {crash}"
            );
            assert_eq!(e.delivered_msgs, 3, "crash {crash}");
            assert_eq!(
                summary(&mut e),
                vec![retired(done, InstanceStatus::Committed)],
                "crash {crash}"
            );
            e.check_tables();
        }
    }

    #[test]
    fn unreadable_wal_halts_recovery() {
        let mut e = engine();
        start(&mut e, 1);
        e.wal.store_mut().fail_reads();
        e.on_crash();
        let mut ctx = Ctx::detached(10, NodeId(1));
        e.on_recover(&mut ctx);
        assert!(e.is_halted());
        // A halted engine ignores everything that follows.
        let inst2 = start(&mut e, 2);
        assert!(e.status_of(inst2).is_none());
    }

    // ---- live migration ----------------------------------------------------

    use crate::builder::CentralRun;
    use crew_model::{
        CoordinationSpec, MutualExclusion, RelativeOrder, RollbackDependency, SchemaStep,
    };

    fn linear(id: u32, steps: u32) -> crew_model::WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(id), format!("wf{id}")).inputs(1);
        let ids: Vec<_> = (0..steps)
            .map(|i| b.add_step(format!("S{}", i + 1), "passthrough"))
            .collect();
        for w in ids.windows(2) {
            b.seq(w[0], w[1]);
        }
        for s in &ids {
            b.configure(*s, |d| d.eligible_agents = vec![AgentId(0)]);
        }
        b.build().unwrap()
    }

    #[test]
    fn live_migration_mid_flight_commits_at_target() {
        let deployment = Deployment::new([linear(1, 4)]);
        let mut run = CentralRun::new(deployment, 1, 2);
        let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
        let src = run.topo.owner_engine(inst);
        let dst = 1 - src;
        run.migrate_instance_at(inst, dst, 3);
        run.run();
        assert_eq!(run.statuses().get(&inst), Some(&InstanceStatus::Committed));
        assert_eq!(run.engine(src).migrations_out, 1);
        assert_eq!(run.engine(dst).migrations_in, 1);
        assert!(
            run.engine(src).forwarded_msgs >= 1,
            "in-flight agent results must chase the instance"
        );
        assert!(
            run.engine(dst).terminal_times.contains_key(&inst),
            "completion is recorded at the target"
        );
        assert_eq!(
            run.engine(src).status_of(inst),
            None,
            "the source forgets the instance"
        );
    }

    #[test]
    fn stale_migrate_request_forwards_to_current_host() {
        // After src → dst, a second order addressed to the placement owner
        // (src) must chase the instance to dst, which then exports it back.
        let deployment = Deployment::new([linear(1, 6)]);
        let mut run = CentralRun::new(deployment, 1, 2);
        let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
        let src = run.topo.owner_engine(inst);
        let dst = 1 - src;
        run.migrate_instance_at(inst, dst, 3);
        run.migrate_instance_at(inst, src, 7);
        run.run();
        assert_eq!(run.statuses().get(&inst), Some(&InstanceStatus::Committed));
        assert_eq!(run.engine(src).migrations_out, 1);
        assert_eq!(run.engine(src).migrations_in, 1);
        assert_eq!(run.engine(dst).migrations_out, 1);
        assert_eq!(run.engine(dst).migrations_in, 1);
        assert!(
            run.engine(src).terminal_times.contains_key(&inst),
            "the instance returned home before committing"
        );
    }

    #[test]
    fn migrating_a_mutex_holder_keeps_exclusion_safe() {
        // Scan migration ticks until one lands inside the window where the
        // instance executes S2 holding the mutex — the sim is deterministic
        // per tick, so the scan is stable; the slow service cost widens the
        // window.
        let mut saw_holder_migration = false;
        for at in 1..60 {
            let mut deployment = Deployment::new([linear(1, 4)]);
            deployment.coordination = CoordinationSpec {
                mutual_exclusions: vec![MutualExclusion {
                    id: 0,
                    resource: "booth".into(),
                    members: vec![SchemaStep::new(SchemaId(1), StepId(2))],
                }],
                ..CoordinationSpec::default()
            };
            let mut run = CentralRun::new(deployment, 1, 2);
            run.sim.set_service_cost(run.topo.agent_node(AgentId(0)), 5);
            let a = run.start_instance(SchemaId(1), vec![(1, Value::Int(1))]);
            let b = run.start_instance(SchemaId(1), vec![(1, Value::Int(2))]);
            let src = run.topo.owner_engine(a);
            let dst = 1 - src;
            run.migrate_instance_at(a, dst, at);
            run.run();
            // Whatever the timing, exclusion safety must hold.
            let statuses = run.statuses();
            assert_eq!(
                statuses.get(&a),
                Some(&InstanceStatus::Committed),
                "at {at}"
            );
            assert_eq!(
                statuses.get(&b),
                Some(&InstanceStatus::Committed),
                "at {at}"
            );
            if run.engine(dst).migrations_in_with_mutex == 1 {
                saw_holder_migration = true;
                break;
            }
        }
        assert!(
            saw_holder_migration,
            "no migration tick caught the instance holding the mutex"
        );
    }

    /// A slice can hold a manager-bound record of the migrating instance:
    /// an acquire the instance's earlier host sent to engine 0 arrived
    /// after the instance had moved to engine 0, which manages the mutex,
    /// so engine 0 recorded the acquire and then the grant it answered
    /// with. Installing that slice at engine 1 rebuilds the instance —
    /// holding the grant, its second step dispatched — and leaves engine
    /// 1's own managers and instance table as they were.
    #[test]
    fn an_install_leaves_the_target_managers_alone() {
        let mut deployment = Deployment::new([linear(1, 3)]);
        deployment.coordination = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "booth".into(),
                members: vec![SchemaStep::new(SchemaId(1), StepId(2))],
            }],
            ..CoordinationSpec::default()
        };
        let topo = Topology::new(1, 2);
        let mut target = Engine::new(1, Arc::new(deployment), topo);
        let inst = InstanceId::new(SchemaId(1), 1);
        let (req, step) = (0, StepId(2));
        let source = topo.engine_node(0);
        let records = [
            (
                NodeId::EXTERNAL,
                CentralMsg::WorkflowStart {
                    instance: inst,
                    inputs: vec![(ItemKey::input(1), Value::Int(5))],
                },
            ),
            (topo.agent_node(AgentId(0)), result(inst, 1)),
            (
                topo.engine_node(1),
                CentralMsg::Coord(CoordMsg::MutexAcquire {
                    req,
                    instance: inst,
                    step,
                }),
            ),
            (
                source,
                CentralMsg::Coord(CoordMsg::MutexGrant {
                    req,
                    instance: inst,
                    step,
                }),
            ),
        ]
        .map(|(from, msg)| (from.0, encode_cmd(&msg)))
        .to_vec();
        let install = CentralMsg::MigrateState {
            instance: inst,
            records: records.clone(),
        };
        target.on_message(source, install, &mut Ctx::detached(5, topo.engine_node(1)));

        assert!(!target.is_halted());
        assert_eq!(target.status_of(inst), Some(InstanceStatus::Executing));
        assert_eq!(target.movable_instances(), vec![inst]);
        let st = &target.instances[&inst];
        assert_eq!(st.pending_exec, VecMap::from_iter([(step, 1)]));
        assert_eq!(st.nav.history.attempts(StepId(1)), 1);
        assert!(st.nav.gate.as_deref().is_some_and(Gate::holds_grant));
        assert_eq!(st.slice, records, "the shipped records, not the replay's");
        assert_eq!(
            (target.migrations_in, target.migrations_in_with_mutex),
            (1, 1)
        );
        target.check_tables();

        assert!(target.instances.keys().eq([&inst]), "no other instance");
        assert!(target.mutexes.is_empty(), "{:?}", target.mutexes);
        let ro = |a: &RoArbiter| format!("{a:?}");
        assert_eq!(ro(&target.ro), ro(&RoArbiter::default()));
    }

    /// Where `e`'s tables must agree on `inst`: its summary row (`want`),
    /// the summary table, the live count, the balancer's candidates, and the
    /// slice, which is held exactly while the instance executes.
    fn agree(e: &Engine, inst: InstanceId, want: Option<InstanceStatus>, when: &str) {
        e.check_tables();
        let executing = want == Some(InstanceStatus::Executing);
        assert_eq!(e.status_of(inst), want, "{when}");
        let rows: Vec<_> = e.statuses().collect();
        assert_eq!(rows, Vec::from_iter(want.map(|s| (inst, s))), "{when}");
        assert_eq!(e.live_instances(), u64::from(executing), "{when}");
        let movable = e.movable_instances();
        assert_eq!(movable, Vec::from_iter(executing.then_some(inst)), "{when}");
        if let Some(st) = e.instances.get(&inst) {
            assert_eq!(st.status, want, "{when}");
            assert_eq!(st.slice.is_empty(), !executing, "{when}: the slice");
        }
    }

    /// One instance's facts live in one entry: through start, migrate-out,
    /// install, abort with a step in flight, the late result that commits
    /// it, retirement, and a crash with recovery on either side of it,
    /// every view of the summary table agrees, the source keeps only a
    /// forward, and a terminal instance holds no slice.
    #[test]
    fn an_instance_keeps_its_row_and_slice_in_its_entry() {
        let deployment = Arc::new(Deployment::new([linear(1, 2)]));
        let topo = Topology::new(1, 2);
        let [mut source, mut target] = [0, 1].map(|e| Engine::new(e, deployment.clone(), topo));
        let inst = start(&mut source, 1);
        agree(&source, inst, Some(InstanceStatus::Executing), "started");

        let records = source.instances[&inst].slice.clone();
        let request = CentralMsg::MigrateRequest {
            instance: inst,
            target: 1,
        };
        source.on_message(NodeId::EXTERNAL, request, &mut Ctx::detached(2, NodeId(1)));
        agree(&source, inst, None, "migrated out");
        assert!(source.instances.is_empty() && source.retired.is_empty());
        assert_eq!(source.forwards, BTreeMap::from([(inst, 1)]));

        let install = CentralMsg::MigrateState {
            instance: inst,
            records: records.clone(),
        };
        let from = topo.engine_node(0);
        target.on_message(from, install, &mut Ctx::detached(3, topo.engine_node(1)));
        agree(&target, inst, Some(InstanceStatus::Executing), "installed");
        assert_eq!(target.instances[&inst].slice, records);
        target.on_crash();
        target.on_recover(&mut Ctx::detached(4, topo.engine_node(1)));
        agree(&target, inst, Some(InstanceStatus::Executing), "recovered");
        assert_eq!(target.instances[&inst].slice, records);

        deliver(&mut target, result(inst, 1));
        deliver(&mut target, CentralMsg::WorkflowAbort { instance: inst });
        agree(&target, inst, Some(InstanceStatus::Aborted), "aborted");
        assert!(target.instances.contains_key(&inst), "S2's result is due");

        deliver(&mut target, result(inst, 2));
        agree(&target, inst, Some(InstanceStatus::Committed), "retired");
        assert!(!target.instances.contains_key(&inst));
        target.on_crash();
        target.on_recover(&mut Ctx::detached(10, topo.engine_node(1)));
        assert!(!target.is_halted());
        agree(&target, inst, Some(InstanceStatus::Committed), "recovered");
        assert!(target.instances.is_empty());
    }

    #[test]
    fn target_crash_after_migration_recovers_the_instance() {
        // The MigrateState input record is journaled at the target, so a
        // crash after the hand-off replays the nested install and the
        // instance still commits exactly once.
        let deployment = Deployment::new([linear(1, 6)]);
        let mut run = CentralRun::new(deployment, 1, 2);
        let inst = run.start_instance(SchemaId(1), vec![(1, Value::Int(5))]);
        let src = run.topo.owner_engine(inst);
        let dst = 1 - src;
        run.migrate_instance_at(inst, dst, 3);
        run.sim
            .schedule_crash(run.topo.engine_node(dst), 7, Some(2));
        run.run();
        assert_eq!(run.statuses().get(&inst), Some(&InstanceStatus::Committed));
        assert_eq!(run.engine(dst).migrations_in, 1);
        assert!(run.engine(dst).terminal_times.contains_key(&inst));
        // Once more after it retired: the replay skips the install, and
        // still counts it.
        assert_eq!(run.engine(dst).hosted_instances(), 0);
        let t = run.sim.now();
        run.sim
            .schedule_crash(run.topo.engine_node(dst), t + 1, Some(2));
        run.run();
        assert_eq!(run.statuses().get(&inst), Some(&InstanceStatus::Committed));
        assert_eq!(run.engine(dst).migrations_in, 1);
        assert_eq!(run.engine(dst).hosted_instances(), 0);
    }

    // ---- command-log compaction --------------------------------------------

    /// Engine 0 of two: schema 1 is two standalone steps, schema 2 two
    /// steps under a relative order, with `pair` linked.
    fn compaction_engine(pair: [InstanceId; 2]) -> Engine {
        let ss = |step| SchemaStep::new(SchemaId(2), StepId(step));
        let mut deployment = Deployment::new([linear(1, 2), linear(2, 2)]);
        deployment.coordination = CoordinationSpec {
            relative_orders: vec![RelativeOrder {
                id: 0,
                conflict: "bin".into(),
                pairs: vec![(ss(1), ss(1)), (ss(2), ss(2))],
            }],
            ..CoordinationSpec::default()
        };
        deployment.ro_links.link(pair[0], pair[1]);
        Engine::new(0, Arc::new(deployment), Topology::new(1, 2))
    }

    /// Deliver `msg` from `from` to both engines.
    fn feed(engines: &mut [Engine; 2], from: NodeId, msg: CentralMsg) {
        for e in engines {
            e.on_message(from, msg.clone(), &mut Ctx::detached(1, NodeId(1)));
        }
    }

    /// Answer every dispatch of `instances` in flight, each with a probe
    /// reply beside its result, until none is left; `rounds` bounds it.
    fn answer(engines: &mut [Engine; 2], instances: &[InstanceId], rounds: usize) {
        for _ in 0..rounds {
            let due: Vec<(InstanceId, StepId, u32)> = (instances.iter())
                .filter_map(|i| Some((*i, engines[0].instances.get(i)?)))
                .flat_map(|(i, st)| st.pending_exec.iter().map(move |(s, a)| (i, *s, *a)))
                .collect();
            if due.is_empty() {
                return;
            }
            for (instance, step, attempt) in due {
                let reply = CentralMsg::StateProbeReply;
                feed(engines, NodeId(0), reply);
                let result = CentralMsg::ExecResult {
                    instance,
                    step,
                    attempt,
                    outputs: Some(vec![Value::Int(5)]),
                };
                feed(engines, NodeId(0), result);
            }
        }
    }

    /// Everything recovery must rebuild, `e` against its uncrashed twin.
    fn assert_same(e: &Engine, twin: &Engine, when: &str) {
        assert!(e.statuses().eq(twin.statuses()), "{when}");
        assert!(e.instances.keys().eq(twin.instances.keys()), "{when}");
        for (i, st) in &e.instances {
            let t = &twin.instances[i];
            assert_eq!(st.nav.data, t.nav.data, "{when}: {i}");
            let history = |st: &EngineInst| format!("{:?}", st.nav.history);
            assert_eq!(history(st), history(t), "{when}: {i}");
            assert_eq!(st.pending_exec, t.pending_exec, "{when}: {i}");
        }
        assert_eq!(e.delivered_msgs, twin.delivered_msgs, "{when}");
        assert_eq!(e.wal_appended(), twin.wal_appended(), "{when}");
        assert_eq!(e.migrations_in, twin.migrations_in, "{when}");
    }

    /// Compaction drops only what replay would skip: after two
    /// compactions — one dropping a retired migrated-in instance's install
    /// — a crashed engine recovers exactly the state of its uncrashed
    /// twin, coordinated pair and mid-flight instance included, and a
    /// second crash straight after recovery changes nothing.
    #[test]
    fn recovery_is_the_same_across_a_compaction() {
        let pair = [1001, 1002].map(|k| InstanceId::new(SchemaId(2), k));
        let mut engines = [compaction_engine(pair), compaction_engine(pair)];
        let start = |instance| CentralMsg::WorkflowStart {
            instance,
            inputs: vec![(ItemKey::input(1), Value::Int(5))],
        };
        for p in pair {
            feed(&mut engines, NodeId::EXTERNAL, start(p));
        }
        answer(&mut engines, &pair, 1);
        // Mid-flight for good: its second step is never answered.
        let mid = InstanceId::new(SchemaId(1), 900);
        feed(&mut engines, NodeId::EXTERNAL, start(mid));
        answer(&mut engines, &[mid], 1);
        let standalone = |k| InstanceId::new(SchemaId(1), k);
        for k in 1..=250 {
            feed(&mut engines, NodeId::EXTERNAL, start(standalone(k)));
            answer(&mut engines, &[standalone(k)], 4);
        }
        assert!(engines[0].wal_dropped() > 0, "a compaction ran");
        answer(&mut engines, &pair, 8);
        // Migrated in from engine 1 after its first step, then finished.
        let moved = InstanceId::new(SchemaId(1), 950);
        let records = [
            (NodeId::EXTERNAL, start(moved)),
            (NodeId(0), result(moved, 1)),
        ]
        .map(|(from, msg)| (from.0, encode_cmd(&msg)))
        .to_vec();
        let from = engines[0].topo.engine_node(1);
        feed(
            &mut engines,
            from,
            CentralMsg::MigrateState {
                instance: moved,
                records,
            },
        );
        answer(&mut engines, &[moved], 4);
        for k in 251..=500 {
            feed(&mut engines, NodeId::EXTERNAL, start(standalone(k)));
            answer(&mut engines, &[standalone(k)], 4);
        }
        let [e, twin] = &mut engines;
        let dropped = summary(e).into_iter().filter_map(|op| match op {
            DbOp::CommandsDropped { records, installs } => Some((records, installs)),
            _ => None,
        });
        let (records, installs) = dropped.fold((0, 0), |(r, i), (dr, di)| (r + dr, i + di));
        assert_eq!(records, e.wal_dropped());
        assert_eq!(installs, 1, "the retired install was dropped");
        assert_eq!(e.migrations_in, 1);
        assert_eq!(e.status_of(moved), Some(InstanceStatus::Committed));
        assert!(pair
            .iter()
            .all(|p| e.status_of(*p) == Some(InstanceStatus::Committed)));
        assert_eq!(
            e.hosted_instances(),
            3,
            "the pair and the mid-flight instance"
        );
        assert!(e.instances[&mid].pending_exec.contains_key(&StepId(2)));
        assert!(
            e.wal.appended() * 4 < e.wal_appended(),
            "the log holds what is live: {} of {} records",
            e.wal.appended(),
            e.wal_appended()
        );
        assert_same(e, twin, "before the crash");
        for crash in 1..=2 {
            e.on_crash();
            e.on_recover(&mut Ctx::detached(10, NodeId(1)));
            assert!(!e.is_halted());
            e.check_tables();
            assert_same(e, twin, &format!("after crash {crash}"));
        }
    }

    #[test]
    fn corrupt_command_record_halts_recovery() {
        let mut e = engine();
        start(&mut e, 1);
        // A record that frames fine but does not decode as a CentralMsg.
        e.wal
            .append(&DbOp::EngineInput {
                from: 0,
                payload: vec![250, 1, 2],
            })
            .unwrap();
        e.on_crash();
        let mut ctx = Ctx::detached(10, NodeId(1));
        e.on_recover(&mut ctx);
        assert!(e.is_halted());
    }
}
