//! Inside-node layers by isolated drive.
//!
//! Node spans stop at the node boundary, so the layers *inside* an engine or
//! agent (codec, WAL, reliable channel, rules, exec, shard) are costed by
//! timing their public entry points on the real message corpus a traced run
//! sampled. These are unit costs, not shares of the run; where a run count
//! exists the caller turns one into an estimated share (`wal.est_share`).

use crate::stats::spread;
use crate::workloads::{instance_inputs, Inputs};
use crew_core::{Architecture, BalancerConfig, EngineLoad, PlacementStrategy};
use crew_exec::{ocr_decide, FailurePlan, InstanceHistory, StepExecutor};
use crew_model::{DataEnv, InstanceId, ItemKey};
use crew_rules::{compile_schema, Action, EventKind, RuleSet};
use crew_shard::{plan_migrations, Params, Ring};
use crew_simnet::{Endpoint, NodeId, OutboxLog, RetransmitConfig, WalOutbox};
use crew_storage::{DbOp, Decode, Encode, FileStore, LogStore, Wal};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Each drive is timed this many times; the median pass is reported.
const PASSES: usize = 5;

/// Rules and exec drives run this many fault-free instances per pass, so a
/// pass lasts long enough for the clock to resolve.
const INSTANCES_PER_PASS: usize = 200;

/// Records per `FileStore` group commit.
const FILE_BATCH: usize = 64;

/// Median over [`PASSES`] passes of `body`'s time per item, in nanoseconds.
/// `prepare` builds each pass's fresh state outside the timed region.
fn ns_per_item<S>(items: usize, mut prepare: impl FnMut() -> S, mut body: impl FnMut(S)) -> f64 {
    let per_pass: Vec<f64> = (0..PASSES)
        .map(|_| {
            let state = prepare();
            let started = Instant::now();
            body(state);
            started.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    spread(&per_pass).median
}

/// Unit costs by per-layer metric name.
pub type Costs = BTreeMap<&'static str, f64>;

/// Drive every inside-node layer on `sample`, the `(sender, message)` corpus
/// of the workload's own message type. `scratch` is a directory inside the
/// checkout for the one file-backed measurement.
pub fn drive<M>(inputs: &Inputs, sample: &[(NodeId, M)], scratch: &Path) -> Costs
where
    M: Encode + Decode + Clone + Send + 'static,
{
    let mut costs = Costs::new();
    codec(sample, &mut costs);
    wal(sample, scratch, &mut costs);
    reliable(inputs, sample, &mut costs);
    rules(inputs, &mut costs);
    exec(inputs, &mut costs);
    shard(inputs, &mut costs);
    costs
}

fn codec<M: Encode + Decode>(sample: &[(NodeId, M)], costs: &mut Costs) {
    let n = sample.len();
    let encoded: Vec<_> = sample.iter().map(|(_, m)| m.to_bytes()).collect();
    let bytes: usize = encoded.iter().map(|b| b.len()).sum();
    costs.insert(
        "codec.encode_ns_per_msg",
        ns_per_item(
            n,
            || (),
            |()| {
                for (_, m) in sample {
                    black_box(m.to_bytes());
                }
            },
        ),
    );
    costs.insert(
        "codec.decode_ns_per_msg",
        ns_per_item(
            n,
            || encoded.clone(),
            |bufs| {
                for mut b in bufs {
                    black_box(M::decode(&mut b).expect("a message the codec just encoded"));
                }
            },
        ),
    );
    costs.insert(
        "codec.encoded_bytes_per_msg",
        bytes as f64 / n.max(1) as f64,
    );
}

/// The engine's journaling pattern on the sampled inputs: one
/// `DbOp::EngineInput` command record per delivered message, group-committed
/// by a flush; then the recovery scan over the same log.
fn wal<M: Encode>(sample: &[(NodeId, M)], scratch: &Path, costs: &mut Costs) {
    let records: Vec<DbOp> = sample
        .iter()
        .map(|(from, m)| DbOp::EngineInput {
            from: from.0,
            payload: m.to_bytes().to_vec(),
        })
        .collect();
    let n = records.len();
    let fill = |wal: &mut Wal<DbOp>| {
        for r in &records {
            wal.append_nosync(r).expect("in-memory append");
            wal.flush().expect("in-memory flush");
        }
    };
    costs.insert(
        "wal.append_ns_per_rec",
        ns_per_item(n, Wal::<DbOp>::in_memory, |mut wal| {
            fill(&mut wal);
            black_box(wal.appended());
        }),
    );
    let mut filled = Wal::<DbOp>::in_memory();
    fill(&mut filled);
    let log_bytes = filled.store_mut().read_all().expect("in-memory read").len();
    costs.insert("wal.bytes_per_rec", log_bytes as f64 / n.max(1) as f64);
    costs.insert(
        "wal.recover_ns_per_rec",
        ns_per_item(
            n,
            || (),
            |()| {
                black_box(filled.recover().expect("in-memory recover").len());
            },
        ),
    );
    costs.insert(
        "wal.file_flush_us_per_batch",
        file_group_commit_us(&records, scratch).unwrap_or(0.0),
    );
}

/// Median time of one [`FILE_BATCH`]-record `FileStore` group commit
/// (`append_batch`: one write, one `sync_data`), microseconds. An I/O error
/// (read-only checkout) yields `None`; the metric is informational.
fn file_group_commit_us(records: &[DbOp], scratch: &Path) -> Option<f64> {
    std::fs::create_dir_all(scratch).ok()?;
    let path = scratch.join(format!("wal-{}.log", std::process::id()));
    let result = (|| {
        let mut wal: Wal<DbOp, FileStore> = Wal::with_store(FileStore::open(&path).ok()?);
        let mut times = Vec::new();
        for batch in records.chunks(FILE_BATCH).take(16) {
            let started = Instant::now();
            wal.append_batch(batch).ok()?;
            times.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        (!times.is_empty()).then(|| spread(&times).median)
    })();
    let _ = std::fs::remove_file(&path);
    result
}

/// A quiet-link round trip per sampled message — `stage` at the sender,
/// `on_data` at the receiver, `on_ack` back at the sender, both endpoints on
/// a `WalOutbox` — and one `replay` of a half-acked channel log. Only for
/// workloads that install the transport; zero elsewhere, like the layer.
fn reliable<M>(inputs: &Inputs, sample: &[(NodeId, M)], costs: &mut Costs)
where
    M: Encode + Decode + Clone + Send + 'static,
{
    if inputs.net_faults.is_none() {
        costs.insert("reliable.roundtrip_ns_per_msg", 0.0);
        costs.insert("reliable.replay_us", 0.0);
        return;
    }
    let (a, b) = (NodeId(0), NodeId(1));
    let endpoint = || {
        let log: Box<dyn OutboxLog<M>> = Box::new(WalOutbox::<M>::new());
        Endpoint::new(log, RetransmitConfig::default())
    };
    costs.insert(
        "reliable.roundtrip_ns_per_msg",
        ns_per_item(
            sample.len(),
            || (endpoint(), endpoint()),
            |(mut sender, mut receiver)| {
                for (now, (_, m)) in sample.iter().enumerate() {
                    let now = now as u64;
                    let seq = sender.stage(b, m.clone(), now);
                    let outcome = receiver.on_data(a, seq, m.clone());
                    sender.on_ack(b, outcome.cum, now);
                    black_box(outcome.deliver.len());
                }
            },
        ),
    );
    let mut log = WalOutbox::<M>::without_checkpointing();
    for (seq, (_, m)) in sample.iter().enumerate() {
        log.log_send(b, seq as u64 + 1, m);
    }
    log.log_ack(b, sample.len() as u64 / 2);
    costs.insert(
        "reliable.replay_us",
        ns_per_item(
            1,
            || (),
            |()| {
                black_box(log.replay().outbox.len());
            },
        ) / 1e3,
    );
}

/// Rule compilation per schema, and `add_event` + `fire_ready` per event
/// over fault-free instances of the workload's own schemas.
fn rules(inputs: &Inputs, costs: &mut Costs) {
    let schemas: Vec<_> = inputs.deployment.schemas.values().collect();
    costs.insert(
        "rules.compile_us_per_schema",
        ns_per_item(
            schemas.len(),
            || (),
            |()| {
                for s in &schemas {
                    black_box(compile_schema(s).len());
                }
            },
        ) / 1e3,
    );

    let templates: Vec<_> = schemas.iter().map(|s| compile_schema(s)).collect();
    let env = start_env();
    let fresh = || -> Vec<RuleSet> {
        (0..INSTANCES_PER_PASS)
            .map(|k| {
                let mut rs = RuleSet::new();
                rs.add_rules(templates[k % templates.len()].iter().map(|t| &t.rule));
                rs
            })
            .collect()
    };
    // Every instance of a schema posts the same events; count them once.
    let events: usize = drive_rule_sets(fresh(), &env);
    costs.insert(
        "rules.fire_ns_per_event",
        ns_per_item(events, fresh, |sets| {
            black_box(drive_rule_sets(sets, &env));
        }),
    );
}

/// Navigate each rule set from `workflow.start` to quiescence, answering
/// every `StartStep` with that step's `step.done`. Returns events posted.
fn drive_rule_sets(sets: Vec<RuleSet>, env: &DataEnv) -> usize {
    let mut events = 0;
    for mut rs in sets {
        let mut next = vec![EventKind::WorkflowStart];
        while let Some(event) = next.pop() {
            rs.add_event(event);
            events += 1;
            for firing in rs.fire_ready(env) {
                if let Action::StartStep(step) = firing.action {
                    next.push(EventKind::StepDone(step));
                }
            }
        }
    }
    events
}

fn start_env() -> DataEnv {
    let mut env = DataEnv::new();
    for (slot, value) in instance_inputs() {
        env.set(ItemKey::input(slot), value);
    }
    env
}

/// `StepExecutor::execute` per step over fault-free instances, then
/// `ocr::decide` per step on the histories those executions left.
fn exec(inputs: &Inputs, costs: &mut Costs) {
    let d = &inputs.deployment;
    let executor = StepExecutor::new(d.registry.clone(), FailurePlan::none(), d.seed);
    let schemas: Vec<_> = d.schemas.values().collect();
    let instance = |k: usize| InstanceId::new(schemas[k % schemas.len()].id, k as u32 + 1);
    let steps: usize = (0..INSTANCES_PER_PASS)
        .map(|k| schemas[k % schemas.len()].step_count())
        .sum();
    let fresh = || -> Vec<(DataEnv, InstanceHistory)> {
        (0..INSTANCES_PER_PASS)
            .map(|_| (start_env(), InstanceHistory::new()))
            .collect()
    };
    let execute_all = |states: &mut [(DataEnv, InstanceHistory)]| {
        for (k, (env, history)) in states.iter_mut().enumerate() {
            let schema = schemas[k % schemas.len()];
            for &step in schema.topo_order() {
                let def = schema.step(step).expect("topo order lists schema steps");
                black_box(
                    executor
                        .execute(def, instance(k), env, history)
                        .expect("generated schemas use built-in programs"),
                );
            }
        }
    };
    costs.insert(
        "exec.execute_ns_per_step",
        ns_per_item(steps, fresh, |mut states| execute_all(&mut states)),
    );

    let mut executed = fresh();
    execute_all(&mut executed);
    costs.insert(
        "exec.ocr_decide_ns",
        ns_per_item(
            steps,
            || (),
            |()| {
                for (k, (env, history)) in executed.iter().enumerate() {
                    for def in schemas[k % schemas.len()].steps() {
                        black_box(ocr_decide(def, instance(k), history, env, &d.plan));
                    }
                }
            },
        ),
    );
}

/// Ring lookups over the workload's own instance ids and one balancer
/// planning round on a skewed fleet sample. Only for workloads placed by
/// the consistent-hash ring; zero elsewhere, like the layer.
fn shard(inputs: &Inputs, costs: &mut Costs) {
    let (PlacementStrategy::ConsistentHash { vnodes }, Architecture::Parallel { engines, .. }) =
        (inputs.placement, inputs.arch)
    else {
        costs.insert("shard.ring_owner_ns", 0.0);
        costs.insert("shard.plan_us", 0.0);
        return;
    };
    let ring = Ring::new(engines, inputs.deployment.seed, vnodes);
    let ids: Vec<InstanceId> = (0..inputs.starts.len())
        .map(|k| inputs.instance_id(k))
        .collect();
    costs.insert(
        "shard.ring_owner_ns",
        ns_per_item(
            ids.len(),
            || (),
            |()| {
                for &id in &ids {
                    black_box(ring.owner(id));
                }
            },
        ),
    );
    // Engine 0 backed up, the rest near idle: the planner has to rank, pair
    // and size moves rather than return early.
    let fleet: Vec<EngineLoad> = (0..engines)
        .map(|e| EngineLoad {
            engine: e,
            live_instances: if e == 0 { 400 } else { 10 + e as u64 },
            delivered_msgs: 1_000 + 37 * e as u64,
            wal_appends: 4_000,
            forwarded_msgs: 0,
            migrations_out: 0,
            migrations_in: 0,
        })
        .collect();
    let (params, cfg) = (Params::paper_mean(), BalancerConfig::default());
    const ROUNDS: usize = 1_000;
    costs.insert(
        "shard.plan_us",
        ns_per_item(
            ROUNDS,
            || (),
            |()| {
                for _ in 0..ROUNDS {
                    black_box(plan_migrations(black_box(&fleet), &params, &cfg).len());
                }
            },
        ) / 1e3,
    );
}
