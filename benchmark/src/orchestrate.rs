//! Running repetitions as fresh child processes and turning what they
//! report into metrics.
//!
//! Strictly sequential: one child alive at a time, each waited for before
//! the next starts, so repetitions never compete for the machine's cores.

use crate::hosttime::piecewise_fastest_s;
use crate::json::{self, Json};
use crate::metrics::{Kind, Metric, END_TO_END, PER_LAYER};
use crate::run::{RepResult, SimStats};
use crate::stats::{spread, Spread};
use crate::trace::TracedResult;
use crate::workloads::Workload;
use std::process::{Command, Stdio};

/// Run `benchmark run <workload> …` as a child, wait for it, and parse the
/// JSON object on the last line of its standard output.
fn child(workload: &Workload, seed: u64, instances: u32, extra: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("run")
        .arg(workload.name)
        .args(["--seed", &seed.to_string()])
        .args(["--instances", &instances.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child `run {}` ended with {}",
            workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("child `run {}` printed nothing", workload.name))?;
    json::parse(last)
}

/// Everything measured for one workload at one seed.
pub struct Collected {
    pub workload: &'static Workload,
    pub seed: u64,
    pub instances: u32,
    pub reps: Vec<RepResult>,
    pub traced: Option<TracedResult>,
}

/// One metric's value with the host spread behind it (host metrics only).
#[derive(Debug, Clone)]
pub struct Value {
    pub metric: &'static Metric,
    pub value: f64,
    /// Per-repetition quartiles, where the metric is a host measurement
    /// taken once per repetition.
    pub quartiles: Option<Spread>,
}

pub struct Summary {
    pub workload: &'static str,
    pub instances: u64,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub end_to_end: Vec<Value>,
    /// Present when a traced run was made.
    pub per_layer: Option<Vec<Value>>,
}

fn first_difference(a: &SimStats, b: &SimStats) -> Option<String> {
    a.iter()
        .find(|(k, v)| b.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v} vs {:?}", b.get(k)))
        .or_else(|| (a.len() != b.len()).then(|| "different statistic sets".to_owned()))
}

impl Collected {
    pub fn new(workload: &'static Workload, seed: u64, instances: u32) -> Self {
        Collected {
            workload,
            seed,
            instances,
            reps: Vec::new(),
            traced: None,
        }
    }

    /// One more untraced repetition; the first also runs the fault-free
    /// twin where the workload defines one.
    pub fn rep(&mut self) -> Result<(), String> {
        let extra: &[String] = if self.reps.is_empty() {
            &["--twin".to_owned()]
        } else {
            &[]
        };
        let line = child(self.workload, self.seed, self.instances, extra)?;
        self.reps.push(RepResult::from_json(&line)?);
        Ok(())
    }

    /// The traced run; needs at least one untraced repetition first.
    pub fn trace(&mut self) -> Result<(), String> {
        let events = self.reps.first().ok_or("trace before any repetition")?.sim["events"];
        let extra = ["--trace".to_owned(), (events as u64).to_string()];
        let line = child(self.workload, self.seed, self.instances, &extra)?;
        self.traced = Some(TracedResult::from_json(&line)?);
        Ok(())
    }

    pub fn summary(&self) -> Summary {
        let first = &self.reps[0];
        let sim = &first.sim;
        let n = first.instances as f64;
        let mut violations: Vec<String> = Vec::new();
        for (i, rep) in self.reps.iter().enumerate() {
            violations.extend(rep.violations.iter().map(|v| format!("rep {}: {v}", i + 1)));
            if let Some(diff) = first_difference(sim, &rep.sim) {
                violations.push(format!(
                    "rep {} disagrees with rep 1 on a simulated statistic ({diff})",
                    i + 1
                ));
            }
        }
        if let Some(t) = &self.traced {
            violations.extend(t.violations.iter().map(|v| format!("traced run: {v}")));
            if let Some(diff) = first_difference(sim, &t.sim) {
                violations.push(format!(
                    "traced run disagrees with the untraced runs on a simulated statistic ({diff})"
                ));
            }
        }

        let per_rep = |f: &dyn Fn(&RepResult) -> f64| -> Spread {
            spread(&self.reps.iter().map(f).collect::<Vec<f64>>())
        };
        // Host times are raw wall time, fastest repetition: interference only
        // ever adds to one. The run's is taken stretch by stretch; set-up's
        // is the fastest of the repetitions' medians (README "Protocol").
        let wall = per_rep(&|r| r.wall_s);
        let stretches: Vec<&[f64]> = self.reps.iter().map(|r| &r.stretches_s[..]).collect();
        let fastest_s = piecewise_fastest_s(&stretches).unwrap_or_else(|| {
            violations.push("repetitions reached different numbers of checkpoints".to_owned());
            wall.min
        });
        let rate = per_rep(&|r| r.instances as f64 / r.wall_s);
        let setup = per_rep(&|r| r.setup_s);
        let rss = per_rep(&|r| r.peak_rss_mb);
        let failed: u64 = self.reps.iter().map(|r| r.failed).sum();
        let attempted: u64 = self.reps.iter().map(|r| r.instances).sum();
        // The simulation is deterministic, so every repetition fails the
        // same instances; the first also ran the fault-free twin.
        let failed_share = (first.failed as f64 + 1.0) / (n + 1.0);

        let e2e_value = |name: &str| -> (f64, Option<Spread>) {
            match name {
                "setup_s" => (setup.min, Some(setup)),
                "inst_per_s" => (n / fastest_s, Some(rate)),
                "peak_rss_mb" => (rss.median, Some(rss)),
                "lat_p50_ticks" => (sim["lat_p50_ticks"], None),
                "lat_p99_ticks" => (sim["lat_p99_ticks"], None),
                "msgs_per_inst" => (sim["msgs"] / n, None),
                "bytes_per_inst" => (sim["bytes"] / n, None),
                "node_load_max_per_inst" => (sim["sched_load_max"] / n, None),
                "failed_share" => (failed_share, None),
                other => unreachable!("end-to-end metric {other} has no definition"),
            }
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|metric| {
                let (value, quartiles) = e2e_value(metric.name);
                Value {
                    metric,
                    value,
                    quartiles,
                }
            })
            .collect();

        let per_layer = self.traced.as_ref().map(|t| {
            // Engines schedule under central / parallel control, agents
            // under distributed control; the other side reads zero.
            let central = sim["engines"] > 0.0;
            let share = |max: f64, total: f64| if total > 0.0 { max / total } else { 0.0 };
            let frames = sim["transport_frames_sent"];
            let data = sim["transport_data_frames"];
            let cpu = per_rep(&|r| r.cpu_s);
            let (engine_side, agent_side) = if central { (1.0, 0.0) } else { (0.0, 1.0) };
            let sched_load = sim["sched_load_total"] / n;
            let sched_share = share(sim["sched_msgs_max"], sim["sched_msgs_total"]);
            let derived = |name: &str| -> Option<f64> {
                Some(match name {
                    "sim.events" => sim["events"],
                    "sim.events_per_inst" => sim["events"] / n,
                    "sim.virtual_ticks" => sim["virtual_ticks"],
                    "sim.drain_ticks" => sim["drain_ticks"],
                    "engine.wal_records" => sim["wal_records"],
                    "engine.load_units_per_inst" => engine_side * sched_load,
                    "engine.busiest_share" => engine_side * sched_share,
                    "agent.load_units_per_inst" => agent_side * sched_load,
                    "agent.busiest_share" => agent_side * sched_share,
                    "msgs.normal_per_inst" => sim["msgs_normal"] / n,
                    "msgs.input_change_per_inst" => sim["msgs_input_change"] / n,
                    "msgs.abort_per_inst" => sim["msgs_abort"] / n,
                    "msgs.failure_per_inst" => sim["msgs_failure"] / n,
                    "msgs.coord_per_inst" => sim["msgs_coord"] / n,
                    "msgs.control_per_inst" => sim["msgs_control"] / n,
                    "wal.est_share" => {
                        sim["wal_records"] * t.layers["wal.append_ns_per_rec"] / 1e9 / wall.median
                    }
                    "reliable.data_frames" => data,
                    "reliable.retransmissions" => sim["transport_retransmissions"],
                    "reliable.acks" => sim["transport_acks"],
                    "reliable.dup_suppressed" => sim["transport_dup_suppressed"],
                    "reliable.frames_per_msg" => share(frames, data),
                    "reliable.useful_ratio" => share(data, frames),
                    "shard.migrations" => sim["migrations"],
                    "shard.engine_skew" => {
                        if sim["migrations"] > 0.0 {
                            sim["engine_skew"]
                        } else {
                            0.0
                        }
                    }
                    "setup.build_deployment_s" => per_rep(&|r| r.build_deployment_s).min,
                    "setup.scenario_s" => per_rep(&|r| r.scenario_s).min,
                    "host.wall_s_min" => wall.min,
                    "host.wall_s_median" => wall.median,
                    "host.wall_s_q1" => wall.q1,
                    "host.wall_s_q3" => wall.q3,
                    "host.cpu_s_min" => cpu.min,
                    _ => return None,
                })
            };
            PER_LAYER
                .iter()
                .map(|metric| Value {
                    metric,
                    value: derived(metric.name).unwrap_or_else(|| {
                        *t.layers.get(metric.name).unwrap_or_else(|| {
                            unreachable!("per-layer metric {} has no definition", metric.name)
                        })
                    }),
                    quartiles: None,
                })
                .collect()
        });

        Summary {
            workload: self.workload.name,
            instances: first.instances,
            reps: self.reps.len(),
            attempted,
            failed,
            violations,
            end_to_end,
            per_layer,
        }
    }
}

impl Summary {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn metrics_json(values: &[Value], detailed: bool) -> Json {
        Json::obj(values.iter().map(|v| {
            let mut fields = vec![
                ("value", Json::Num(v.value)),
                ("unit", Json::str(v.metric.unit)),
            ];
            if detailed {
                fields.push(("kind", Json::str(v.metric.kind.as_str())));
                if let (Kind::Host, Some(q)) = (v.metric.kind, v.quartiles) {
                    fields.push(("rep_min", Json::Num(q.min)));
                    fields.push(("rep_q1", Json::Num(q.q1)));
                    fields.push(("rep_median", Json::Num(q.median)));
                    fields.push(("rep_q3", Json::Num(q.q3)));
                }
            }
            (v.metric.name, Json::obj(fields))
        }))
    }

    /// The one-line result the driver reads: end-to-end metrics with
    /// tracing off, per-layer metrics from a traced run.
    pub fn driver_line(&self, traced: bool) -> Json {
        let values = if traced {
            self.per_layer
                .as_deref()
                .expect("a traced summary carries per-layer metrics")
        } else {
            &self.end_to_end
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Summary::metrics_json(values, false)),
        ])
    }

    /// The workload's entry in the results file `all` writes.
    pub fn results_json(&self) -> Json {
        Json::obj([
            ("instances", Json::Num(self.instances as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("violations", Json::strs(&self.violations)),
            ("end_to_end", Summary::metrics_json(&self.end_to_end, true)),
            (
                "per_layer",
                Summary::metrics_json(self.per_layer.as_deref().unwrap_or_default(), true),
            ),
        ])
    }
}
