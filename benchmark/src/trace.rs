//! The traced run: spans recorded from the benchmark's own files, around
//! the calls into each node.
//!
//! The run is built with the public builders, then its public `sim` field is
//! replaced by a simulation holding the same nodes in the same order, each
//! wrapped in [`Timed`]. No product crate is touched; spans *inside* an
//! engine or agent are a later issue.

use crate::hosttime::Checkpoints;
use crate::json::Json;
use crate::layers;
use crate::run::{check, sim_stats, sim_to_json, SimStats};
use crate::stats::weighted_median;
use crate::workloads::{changed_inputs, instance_inputs, Inputs, UserAction, Workload};
use crew_central::{AppAgent, CentralMsg, CentralRun, Engine};
use crew_core::{Architecture, CrashTarget, InstanceOutcome, RunReport};
use crew_distributed::{DistAgent, DistConfig, DistMsg, DistRun, FrontEnd, Outcome, SharedCtx};
use crew_model::{AgentId, InstanceId, RUN_HORIZON_TICKS};
use crew_simnet::{Classify, Ctx, Node, NodeId, Simulation, TimerId};
use crew_storage::{Decode, Encode, InstanceStatus};
use std::any::Any;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// At most this many of the messages a traced run delivers are kept as the
/// corpus for the isolated layer drives.
pub const SAMPLE_CAP: usize = 8_192;

/// Same event budget `WorkflowSystem::run` gives the simulator.
const MAX_EVENTS: u64 = 50_000_000;

pub const LAYER_RUN: &str = "run";
pub const LAYER_ENGINE: &str = "central.engine";
pub const LAYER_APPAGENT: &str = "central.appagent";
pub const LAYER_AGENT: &str = "distributed.agent";
pub const LAYER_FRONTEND: &str = "distributed.frontend";

/// Index of the run span in every recorder.
pub const RUN_SPAN: u32 = 0;

pub const KIND_TIMER: &str = "timer";
pub const KIND_RECOVER: &str = "recover";

/// One span: a named interval with the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: &'static str,
    /// Simulator node the span ran on; `None` for spans that are not a node
    /// callback.
    pub node: Option<u32>,
    /// Message kind for `on_message`, [`KIND_TIMER`] / [`KIND_RECOVER`] for
    /// the other callbacks, the layer name again for whole-phase spans.
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap here (the simulator
/// runs one callback at a time), so the covered part is the sum of their
/// durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Spans and the message sample of one traced run, shared by all its
/// [`Timed`] nodes. Kept in memory; written out when the process ends.
pub struct Recorder<M> {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(sender, message)` corpus: every `stride`-th delivered message.
    pub sample: Vec<(NodeId, M)>,
    stride: u64,
    seen: u64,
}

pub type SharedRecorder<M> = Arc<Mutex<Recorder<M>>>;

impl<M> Recorder<M> {
    /// A recorder whose first span ([`RUN_SPAN`]) is the run itself, the
    /// parent of every node span. `expected_events` (known from the
    /// untraced repetitions) sizes the span buffer up front and spreads the
    /// sample over the whole run.
    pub fn shared(expected_events: u64) -> SharedRecorder<M> {
        let mut spans = Vec::with_capacity(expected_events as usize + 16);
        spans.push(Span {
            layer: LAYER_RUN,
            node: None,
            kind: LAYER_RUN,
            start_ns: 0,
            end_ns: 0,
            parent: None,
        });
        Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            spans,
            sample: Vec::with_capacity(SAMPLE_CAP),
            stride: expected_events.div_ceil(SAMPLE_CAP as u64).max(1),
            seen: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn run_started(&mut self) {
        self.spans[RUN_SPAN as usize].start_ns = self.now_ns();
    }

    fn run_ended(&mut self) {
        self.spans[RUN_SPAN as usize].end_ns = self.now_ns();
    }

    /// The run span as instants, for clocks kept outside the recorder.
    pub fn run_interval(&self) -> (Instant, Instant) {
        let run = &self.spans[RUN_SPAN as usize];
        (
            self.epoch + Duration::from_nanos(run.start_ns),
            self.epoch + Duration::from_nanos(run.end_ns),
        )
    }
}

fn lock<M>(rec: &SharedRecorder<M>) -> std::sync::MutexGuard<'_, Recorder<M>> {
    rec.lock()
        .expect("recorder lock is only poisoned if a node callback panicked")
}

/// A node wrapper that forwards every callback and records a span around
/// `on_message` / `on_timer` / `on_recover`. `as_any` forwards to the inner
/// node, so `CentralRun::statuses()`, `engine_loads()`, `run_balanced_until`
/// and `DistRun::outcomes()` keep finding the concrete node types.
pub struct Timed<N, M> {
    inner: N,
    layer: &'static str,
    node: u32,
    rec: SharedRecorder<M>,
}

impl<N, M> Timed<N, M> {
    pub fn new(inner: N, layer: &'static str, node: u32, rec: &SharedRecorder<M>) -> Self {
        Timed {
            inner,
            layer,
            node,
            rec: rec.clone(),
        }
    }

    fn record(&self, kind: &'static str, started: Instant, ended: Instant) {
        let mut rec = lock(&self.rec);
        let start_ns = started.duration_since(rec.epoch).as_nanos() as u64;
        let end_ns = ended.duration_since(rec.epoch).as_nanos() as u64;
        rec.spans.push(Span {
            layer: self.layer,
            node: Some(self.node),
            kind,
            start_ns,
            end_ns,
            parent: Some(RUN_SPAN),
        });
    }
}

impl<M, N> Node<M> for Timed<N, M>
where
    M: Classify + Clone + Send + 'static,
    N: Node<M> + 'static,
{
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<M>) {
        let kind = msg.kind();
        {
            let mut rec = lock(&self.rec);
            if rec.seen.is_multiple_of(rec.stride) && rec.sample.len() < SAMPLE_CAP {
                rec.sample.push((from, msg.clone()));
            }
            rec.seen += 1;
        }
        let started = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.record(kind, started, Instant::now());
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Ctx<M>) {
        let started = Instant::now();
        self.inner.on_timer(timer, ctx);
        self.record(KIND_TIMER, started, Instant::now());
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<M>) {
        let started = Instant::now();
        self.inner.on_recover(ctx);
        self.record(KIND_RECOVER, started, Instant::now());
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// What a traced run hands back: the same report `WorkflowSystem::run`
/// would have built, plus the wall time of the run span.
pub struct Traced<M> {
    pub report: RunReport,
    pub recorder: Recorder<M>,
}

fn finish<M>(rec: SharedRecorder<M>, report: RunReport) -> Traced<M> {
    let recorder = Arc::try_unwrap(rec)
        .ok()
        .expect("the simulation holding the other recorder handles was dropped")
        .into_inner()
        .expect("recorder lock is only poisoned if a node callback panicked");
    Traced { report, recorder }
}

/// Mirror of `WorkflowSystem::run` for central / parallel control, over
/// [`Timed`] nodes. The run span covers what the timed call covers in an
/// untraced repetition: building the deployment's nodes, scheduling the
/// arrival train, the event loop, the report, and tearing the simulation
/// down again (a quarter of a gigabyte under distributed control).
pub fn run_central(inputs: &Inputs, expected_events: u64) -> Traced<CentralMsg> {
    let (agents, engines) = match inputs.arch {
        Architecture::Central { agents } => (agents, 1),
        Architecture::Parallel { agents, engines } => (agents, engines),
        Architecture::Distributed { .. } => unreachable!("run_central on a distributed workload"),
    };
    let rec = Recorder::<CentralMsg>::shared(expected_events);
    lock(&rec).run_started();

    let mut run = CentralRun::new_with_placement(
        inputs.deployment.clone(),
        agents,
        engines,
        inputs.placement,
    );
    let d = run.deployment.clone();
    let mut sim = Simulation::new(d.seed);
    for a in 0..agents {
        sim.add_node(Timed::new(
            AppAgent::new(d.registry.clone(), d.plan.clone(), d.seed),
            LAYER_APPAGENT,
            a,
            &rec,
        ));
    }
    for e in 0..engines {
        sim.add_node(Timed::new(
            Engine::new(e, d.clone(), run.topo),
            LAYER_ENGINE,
            agents + e,
            &rec,
        ));
    }
    run.sim = sim;

    for w in &inputs.crashes {
        let node = match w.target {
            CrashTarget::Agent(n) => NodeId(n),
            CrashTarget::Engine(n) => run.topo.engine_node(n),
        };
        run.sim.schedule_crash(node, w.at, w.down_for);
    }
    if let Some(plan) = &inputs.net_faults {
        run.sim.enable_net_faults(plan.clone());
    }
    for &(e, ticks) in &inputs.engine_service_costs {
        run.sim.set_service_cost(run.topo.engine_node(e), ticks);
    }
    let mut ids = Vec::new();
    let mut arrival_ticks = BTreeMap::new();
    for &(schema, at) in &inputs.starts {
        let id = run.start_instance_at(schema, instance_inputs(), at);
        arrival_ticks.insert(id, at);
        ids.push(id);
    }
    for &(index, at, action) in &inputs.actions {
        match action {
            UserAction::Abort => run.abort_instance_at(ids[index], at),
            UserAction::ChangeInputs => run.change_inputs_at(ids[index], changed_inputs(), at),
        }
    }
    run.sim.max_events = MAX_EVENTS;

    let events = match inputs.balancer {
        Some((interval, cfg)) if engines > 1 => {
            let p = crew_shard::Params::paper_mean();
            run.run_balanced_until(RUN_HORIZON_TICKS, interval, &cfg, &p);
            run.sim.delivered()
        }
        _ => run.sim.run_until(RUN_HORIZON_TICKS),
    };

    let statuses = run.statuses();
    let outcomes = ids
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
    let report = RunReport {
        outcomes,
        instances: ids.len() as u64,
        scheduler_nodes: run.engine_nodes(),
        events,
        virtual_time: run.sim.now(),
        arrival_ticks,
        completion_ticks: run.completion_times(),
        metrics: run.sim.metrics.clone(),
        engine_loads: run.engine_loads(),
    };
    drop(run);
    lock(&rec).run_ended();
    finish(rec, report)
}

/// Mirror of `WorkflowSystem::run` for distributed control, over [`Timed`]
/// nodes.
pub fn run_distributed(inputs: &Inputs, expected_events: u64) -> Traced<DistMsg> {
    let Architecture::Distributed { agents } = inputs.arch else {
        unreachable!("run_distributed on a central workload");
    };
    let rec = Recorder::<DistMsg>::shared(expected_events);
    lock(&rec).run_started();

    let mut run = DistRun::new(inputs.deployment.clone(), agents, DistConfig::default());
    let shared = SharedCtx {
        deployment: run.deployment.clone(),
        directory: run.directory.clone(),
        config: DistConfig::default(),
    };
    let mut sim = Simulation::new(run.deployment.seed);
    for a in 0..agents {
        sim.add_node(Timed::new(
            DistAgent::new(AgentId(a), shared.clone()),
            LAYER_AGENT,
            a,
            &rec,
        ));
    }
    sim.add_node(Timed::new(
        FrontEnd::new(shared),
        LAYER_FRONTEND,
        agents,
        &rec,
    ));
    run.sim = sim;

    for w in &inputs.crashes {
        let (CrashTarget::Agent(n) | CrashTarget::Engine(n)) = w.target;
        run.sim.schedule_crash(NodeId(n), w.at, w.down_for);
    }
    if let Some(plan) = &inputs.net_faults {
        run.sim.enable_net_faults(plan.clone());
    }
    let mut ids: Vec<InstanceId> = Vec::new();
    let mut arrival_ticks = BTreeMap::new();
    for &(schema, at) in &inputs.starts {
        let id = run.start_instance_at(schema, instance_inputs(), at);
        arrival_ticks.insert(id, at);
        ids.push(id);
    }
    for &(index, at, action) in &inputs.actions {
        match action {
            UserAction::Abort => run.abort_instance_at(ids[index], at),
            UserAction::ChangeInputs => run.change_inputs_at(ids[index], changed_inputs(), at),
        }
    }
    run.sim.max_events = MAX_EVENTS;

    let events = run.sim.run_until(RUN_HORIZON_TICKS);

    let raw = run.outcomes();
    let outcomes = ids
        .iter()
        .map(|&i| {
            let o = match raw.get(&i) {
                Some(Outcome::Committed) => InstanceOutcome::Committed,
                Some(Outcome::Aborted) => InstanceOutcome::Aborted,
                None => InstanceOutcome::Stalled,
            };
            (i, o)
        })
        .collect();
    let report = RunReport {
        outcomes,
        instances: ids.len() as u64,
        scheduler_nodes: run.agent_nodes(),
        events,
        virtual_time: run.sim.now(),
        arrival_ticks,
        completion_ticks: run.completion_times(),
        metrics: run.sim.metrics.clone(),
        engine_loads: Vec::new(),
    };
    drop(run);
    lock(&rec).run_ended();
    finish(rec, report)
}

/// What the traced child reports: the traced run's simulated statistics
/// (which must equal the untraced ones) and the per-layer values that come
/// from spans and isolated drives.
#[derive(Debug, Clone, Default)]
pub struct TracedResult {
    pub sim: SimStats,
    pub violations: Vec<String>,
    pub layers: BTreeMap<String, f64>,
}

impl TracedResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sim", sim_to_json(&self.sim)),
            ("violations", Json::strs(&self.violations)),
            (
                "layers",
                Json::obj(self.layers.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<TracedResult, String> {
        Ok(TracedResult {
            sim: j.get("sim").map(Json::num_map).unwrap_or_default(),
            violations: j.get("violations").map(Json::str_vec).unwrap_or_default(),
            layers: j.get("layers").map(Json::num_map).unwrap_or_default(),
        })
    }
}

/// The traced child alternates this many untraced and traced runs of the
/// same inputs, so that `trace.overhead_share` compares like with like: same
/// process, same seconds. (One traced run against the separate untraced
/// repetitions read anywhere from -0.09 to +0.32 on this box.) Spans and the
/// message sample come from the last pass.
const TRACED_PASSES: usize = 3;

/// The traced repetition, as run in its own child process: warm-up, the
/// traced passes, the span arithmetic, the isolated layer drives on the
/// sampled corpus, and the span file.
pub fn traced_repetition(
    workload: &Workload,
    seed: u64,
    instances: u32,
    expected_events: u64,
    out_dir: &Path,
) -> Result<TracedResult, String> {
    let warm = workload.inputs(seed, workload.small().min(instances));
    std::hint::black_box(warm.system().run(warm.scenario()));
    let inputs = workload.inputs(seed, instances);
    match inputs.arch {
        Architecture::Distributed { .. } => {
            let (traced, overhead) =
                traced_passes(&inputs, |i| run_distributed(i, expected_events));
            layer_report(workload, seed, &inputs, traced, overhead, out_dir)
        }
        _ => {
            let (traced, overhead) = traced_passes(&inputs, |i| run_central(i, expected_events));
            layer_report(workload, seed, &inputs, traced, overhead, out_dir)
        }
    }
}

/// [`TRACED_PASSES`] pairs of an untraced and a traced run of `inputs`:
/// the last traced one, and by how much tracing lengthened the run.
///
/// Each stretch of each pair gives one reading of traced ÷ untraced time
/// for the same work a second apart. The machine's disturbances (bursts of
/// a few tenths of a second, slow spells of several seconds) push single
/// readings either way by half; the median reading, weighted by how long
/// the stretch is, is what tracing costs.
fn traced_passes<M>(inputs: &Inputs, run: impl Fn(&Inputs) -> Traced<M>) -> (Traced<M>, f64) {
    let mut readings: Vec<(f64, f64)> = Vec::new();
    let mut last = None;
    for _ in 0..TRACED_PASSES {
        drop(last.take());
        // The checkpoint wrappers go into copies; the isolated drives get
        // the deployment as generated.
        let mut plain = inputs.clone();
        let checkpoints = Checkpoints::install(&mut plain.deployment.registry);
        let (system, scenario) = (plain.system(), plain.scenario());
        let started = Instant::now();
        let report = system.run(scenario);
        let untraced = checkpoints.stretches_s(started, Instant::now());
        drop(report);

        let mut timed = inputs.clone();
        let checkpoints = Checkpoints::install(&mut timed.deployment.registry);
        let pass = run(&timed);
        let (started, ended) = pass.recorder.run_interval();
        let traced = checkpoints.stretches_s(started, ended);
        assert_eq!(
            traced.len(),
            untraced.len(),
            "the traced and the untraced run reach the same checkpoints"
        );
        readings.extend(traced.iter().zip(&untraced).map(|(t, u)| (t / u, *u)));
        last = Some(pass);
    }
    let overhead_share = weighted_median(&mut readings) - 1.0;
    (last.expect("TRACED_PASSES > 0"), overhead_share)
}

fn layer_report<M>(
    workload: &Workload,
    seed: u64,
    inputs: &Inputs,
    traced: Traced<M>,
    overhead_share: f64,
    out_dir: &Path,
) -> Result<TracedResult, String>
where
    M: Encode + Decode + Clone + Send + 'static,
{
    let spans = &traced.recorder.spans;
    let run_ns = spans[RUN_SPAN as usize].duration_ns() as f64;
    let self_ns = self_times_ns(spans)[RUN_SPAN as usize] as f64;
    let events = traced.report.events.max(1) as f64;
    let per_msg = |t: &LayerTotals| {
        if t.msgs == 0 {
            0.0
        } else {
            t.msg_busy_s * 1e9 / t.msgs as f64
        }
    };
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_owned(), v);
    };
    put("trace.overhead_share", overhead_share);
    put("sim.self_s", self_ns / 1e9);
    put("sim.self_ns_per_event", self_ns / events);
    let mut node_ns = 0.0;
    for (prefix, layer) in [
        ("engine", LAYER_ENGINE),
        ("appagent", LAYER_APPAGENT),
        ("agent", LAYER_AGENT),
        ("frontend", LAYER_FRONTEND),
    ] {
        let t = layer_totals(spans, layer);
        node_ns += t.busy_s * 1e9;
        put(&format!("{prefix}.msgs"), t.msgs as f64);
        put(&format!("{prefix}.busy_s"), t.busy_s);
        if prefix != "frontend" {
            put(&format!("{prefix}.ns_per_msg"), per_msg(&t));
        }
        if prefix == "engine" {
            put("engine.recoveries", t.recoveries as f64);
            put(
                "engine.recover_ms_per_call",
                if t.recoveries == 0 {
                    0.0
                } else {
                    t.recover_s * 1e3 / t.recoveries as f64
                },
            );
        }
    }
    for (name, cost) in layers::drive(inputs, &traced.recorder.sample, &out_dir.join("tmp")) {
        put(name, cost);
    }

    let (_, mut violations) = check(workload, inputs, &traced.report, None);
    // The layers must account for the whole run span.
    if ((node_ns + self_ns) - run_ns).abs() > 0.01 * run_ns {
        violations.push(format!(
            "node spans ({node_ns} ns) + sim self time ({self_ns} ns) differ from the run span ({run_ns} ns) by more than 1%"
        ));
    }
    write_spans(
        &out_dir.join(format!("trace-{}.json", workload.name)),
        workload.name,
        seed,
        spans,
    )
    .map_err(|e| format!("cannot write the span file: {e}"))?;
    Ok(TracedResult {
        sim: sim_stats(inputs, &traced.report),
        violations,
        layers,
    })
}

/// Busy time and call counts of one layer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// `on_message` calls.
    pub msgs: u64,
    /// Seconds inside `on_message`.
    pub msg_busy_s: f64,
    /// Seconds inside any callback of the layer.
    pub busy_s: f64,
    pub recoveries: u64,
    pub recover_s: f64,
}

pub fn layer_totals(spans: &[Span], layer: &str) -> LayerTotals {
    let mut t = LayerTotals::default();
    for s in spans.iter().filter(|s| s.layer == layer) {
        let d = s.duration_ns() as f64 / 1e9;
        t.busy_s += d;
        match s.kind {
            KIND_RECOVER => {
                t.recoveries += 1;
                t.recover_s += d;
            }
            KIND_TIMER => {}
            _ => {
                t.msgs += 1;
                t.msg_busy_s += d;
            }
        }
    }
    t
}

/// Write the spans as one compact JSON document: string tables for layers
/// and kinds, then one row of numbers per span.
pub fn write_spans(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    fn index(table: &mut Vec<&'static str>, s: &'static str) -> usize {
        table.iter().position(|t| *t == s).unwrap_or_else(|| {
            table.push(s);
            table.len() - 1
        })
    }
    let mut layers: Vec<&'static str> = Vec::new();
    let mut kinds: Vec<&'static str> = Vec::new();
    let rows: Vec<(usize, usize)> = spans
        .iter()
        .map(|s| (index(&mut layers, s.layer), index(&mut kinds, s.kind)))
        .collect();
    let quoted = |t: &[&str]| {
        t.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let opt = |v: Option<u32>| v.map_or("null".to_owned(), |n| n.to_string());

    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"layers\":[{}],\"kinds\":[{}],",
        quoted(&layers),
        quoted(&kinds)
    )?;
    writeln!(
        out,
        "\"columns\":[\"id\",\"parent\",\"layer\",\"node\",\"kind\",\"start_ns\",\"end_ns\"],\"spans\":["
    )?;
    for (id, (s, (layer, kind))) in spans.iter().zip(rows).enumerate() {
        let sep = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "[{id},{},{layer},{},{kind},{},{}]{sep}",
            opt(s.parent),
            opt(s.node),
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer: "t",
            node: None,
            kind: "t",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_parent_minus_direct_children() {
        let spans = vec![
            span(0, 100, None),    // 0: root
            span(10, 40, Some(0)), // 1: child with its own children
            span(12, 20, Some(1)), // 2: grandchild
            span(25, 30, Some(1)), // 3: grandchild
            span(50, 70, Some(0)), // 4: leaf child
            span(80, 80, Some(0)), // 5: empty span
            span(200, 260, None),  // 6: second root, no children
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 17, 8, 5, 20, 0, 60]);
        assert_eq!(self_times_ns(&[]), Vec::<u64>::new());
    }

    #[test]
    fn self_time_never_underflows() {
        // Clock granularity can make children sum past the parent.
        let spans = vec![span(0, 10, None), span(0, 8, Some(0)), span(8, 12, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn timed_forwards_as_any_so_run_accessors_see_engines() {
        let w = workloads::find("central_steady").unwrap();
        let inputs = w.inputs(7, 40);
        let traced = run_central(&inputs, 1_000);
        // `statuses()` and `engine_loads()` downcast through `as_any`.
        assert_eq!(traced.report.outcomes.len(), 40);
        assert!(traced
            .report
            .outcomes
            .values()
            .all(|o| *o == InstanceOutcome::Committed));
        assert_eq!(traced.report.engine_loads.len(), 1);
        assert!(traced.report.engine_loads[0].delivered_msgs > 0);

        let engine = layer_totals(&traced.recorder.spans, LAYER_ENGINE);
        let agents = layer_totals(&traced.recorder.spans, LAYER_APPAGENT);
        assert_eq!(engine.msgs + agents.msgs, traced.report.events);
        assert!(!traced.recorder.sample.is_empty());
    }

    #[test]
    fn traced_run_equals_untraced_run() {
        for name in ["central_failures", "dist_failures", "parallel_degraded"] {
            let w = workloads::find(name).unwrap();
            let inputs = w.inputs(7, w.small());
            let untraced = inputs.system().run(inputs.scenario());
            let traced = match inputs.arch {
                Architecture::Distributed { .. } => run_distributed(&inputs, 10_000).report,
                _ => run_central(&inputs, 10_000).report,
            };
            assert_eq!(
                sim_stats(&inputs, &traced),
                sim_stats(&inputs, &untraced),
                "{name}"
            );
        }
    }
}
