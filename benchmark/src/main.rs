//! The repo benchmark. See README.md beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one result line (the gate's interface)
//! benchmark all [--seed 42] [--reps 5] [--smoke] [--out PATH]
//! benchmark run <workload> --seed N --instances K [--twin | --trace EVENTS]   one repetition (child)
//! benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! benchmark manifest                                        print BENCHMARK.json from the catalogue
//! ```

mod compare;
mod hosttime;
mod json;
mod layers;
mod metrics;
mod orchestrate;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Kind, END_TO_END, PER_LAYER};
use orchestrate::{Collected, Summary, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// Seconds one gate run measures (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u64 = 15;

/// With `--trace 1` the untraced repetitions get this share of `--seconds`;
/// the rest is for the traced passes and the isolated layer drives.
const TRACED_REP_SHARE: f64 = 0.3;

/// Where span files, scratch files and the default results file go: inside
/// the benchmark's own directory, which is inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--key value` pairs, bare `--flag`s and positionals of one command line.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    /// `flags` names the options that take no value.
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                None => parsed.positional.push(arg.clone()),
                Some(key) if flags.contains(&key) => parsed.options.push((key.to_owned(), None)),
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    parsed.options.push((key.to_owned(), Some(value.clone())));
                }
            }
        }
        Ok(parsed)
    }

    fn has(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: bad number {v:?}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.number(key)?.ok_or(format!("--{key} is required"))
    }
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => cmd_all(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(first) if first.starts_with("--") => cmd_gate(&args),
        _ => Err("usage: benchmark --workload W --seed N --seconds S --trace 0|1 | all | run | compare | manifest (see README.md)".to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

/// The gate's interface: measure one workload for `--seconds` and print one
/// JSON result line last.
fn cmd_gate(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &[])?;
    let w = workload(args.value("workload").ok_or("--workload is required")?)?;
    let seed: u64 = args.required("seed")?;
    let seconds: f64 = args.required("seconds")?;
    let traced = match args.value("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };

    let budget = seconds * if traced { TRACED_REP_SHARE } else { 1.0 };
    let mut collected = Collected::new(w, seed, w.instances);
    let started = Instant::now();
    let mut slowest = Duration::ZERO;
    // Repeat for as long as one more repetition still fits the budget.
    loop {
        let rep_started = Instant::now();
        collected.rep()?;
        slowest = slowest.max(rep_started.elapsed());
        if (started.elapsed() + slowest).as_secs_f64() > budget {
            break;
        }
    }
    if traced {
        collected.trace()?;
    }
    let summary = collected.summary();
    for v in &summary.violations {
        eprintln!("benchmark: {}: {v}", w.name);
    }
    eprintln!(
        "benchmark: {} seed {seed}: {} repetitions of {} instances in {:.1} s{}",
        w.name,
        summary.reps,
        summary.instances,
        started.elapsed().as_secs_f64(),
        if traced { ", plus the traced run" } else { "" },
    );
    println!("{}", summary.driver_line(traced).render());
    Ok(ExitCode::SUCCESS)
}

/// One repetition in this process (the child side of every measurement).
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &["twin"])?;
    let name = args.positional.first().ok_or("run needs a workload name")?;
    let w = workload(name)?;
    let seed: u64 = args.number("seed")?.unwrap_or(42);
    let instances: u32 = args.number("instances")?.unwrap_or(w.instances);
    let line = match args.number::<u64>("trace")? {
        Some(expected_events) => {
            trace::traced_repetition(w, seed, instances, expected_events, &out_dir())?.to_json()
        }
        None => run::repetition(w, seed, instances, args.has("twin")).to_json(),
    };
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// Every workload: repetitions interleaved round-robin (rep 1 of all eight,
/// then rep 2 …) so machine drift hits all workloads alike, then one traced
/// run each. Prints every metric and writes the results file.
fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &["smoke"])?;
    let seed: u64 = args.number("seed")?.unwrap_or(42);
    let smoke = args.has("smoke");
    let reps: usize = if smoke {
        1
    } else {
        args.number("reps")?.unwrap_or(5)
    };
    if reps == 0 {
        return Err("--reps must be at least 1".to_owned());
    }
    let out = args
        .value("out")
        .map_or_else(|| out_dir().join("results.json"), PathBuf::from);

    let started = Instant::now();
    let mut collected: Vec<Collected> = WORKLOADS
        .iter()
        .map(|w| Collected::new(w, seed, if smoke { w.small() } else { w.instances }))
        .collect();
    for round in 1..=reps {
        for c in &mut collected {
            eprintln!("benchmark: rep {round}/{reps} of {}", c.workload.name);
            c.rep()?;
        }
    }
    for c in &mut collected {
        eprintln!("benchmark: traced run of {}", c.workload.name);
        c.trace()?;
    }

    let summaries: Vec<Summary> = collected.iter().map(Collected::summary).collect();
    println!(
        "seed {seed}, {reps} fresh-process repetition(s) per workload{}. Open loop: arrivals are scheduled in virtual time before the run, so generator lateness is 0 by construction. Host times are raw wall time from the fastest repetition - inst_per_s taken stretch by stretch (README \"Protocol\") - and peak_rss_mb is the median; whole-repetition q1/median/q3 beside them.",
        if smoke { ", smoke size (1/20)" } else { "" }
    );
    for s in &summaries {
        print_summary(s);
    }
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("smoke", Json::Bool(smoke)),
        ("scale_divisor", Json::Num(workloads::SCALE_DIVISOR as f64)),
        (
            "workloads",
            Json::obj(summaries.iter().map(|s| (s.workload, s.results_json()))),
        ),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;

    let wrong: Vec<&str> = summaries
        .iter()
        .filter(|s| !s.correct())
        .map(|s| s.workload)
        .collect();
    println!(
        "\nresults: {}   spans: {}/trace-<workload>.json   elapsed: {:.0} s",
        out.display(),
        out_dir().display(),
        started.elapsed().as_secs_f64()
    );
    if wrong.is_empty() {
        println!("all output checks passed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("OUTPUT CHECKS FAILED on: {}", wrong.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn print_summary(s: &Summary) {
    println!(
        "\n== {} - {} instances (= latency samples, {} beyond p99), {} repetition(s), {} of {} attempted instances failed",
        s.workload,
        s.instances,
        s.instances / 100,
        s.reps,
        s.failed,
        s.attempted
    );
    for v in &s.violations {
        println!("   CHECK FAILED: {v}");
    }
    let row = |v: &Value| {
        let spread = match (v.metric.kind, v.quartiles) {
            (Kind::Host, Some(q)) => {
                format!(
                    "   reps q1/median/q3 {:.6} / {:.6} / {:.6}",
                    q.q1, q.median, q.q3
                )
            }
            _ => String::new(),
        };
        println!(
            "   {:<30} {:>18.6} {:<16} {:<4}{spread}",
            v.metric.name,
            v.value,
            v.metric.unit,
            v.metric.kind.as_str()
        );
    };
    println!(" end to end");
    s.end_to_end.iter().for_each(row);
    if let Some(layers) = &s.per_layer {
        println!(" per layer (traced run + isolated drives)");
        layers.iter().for_each(row);
    }
}

/// `BENCHMARK.json`, generated from the catalogue; a test in `metrics` fails
/// when the committed file differs from this.
pub fn manifest() -> Json {
    let metric = |m: &metrics::Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}
