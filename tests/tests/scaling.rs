//! Host cost per instance must not grow with the length of the run.
//!
//! The paper's §6 cost model is per instance, and the simulated counters
//! reproduce that; this guards the *host* side of it, which the benchmark
//! gate — one fixed size per workload — cannot see. Each row runs one of
//! the benchmark's shapes at N and 16 N instances and fails if wall time
//! grows much faster than the run:
//!
//! - `parallel_coord`: shape P with me = 2, ro = 2, rd = 1, consecutive
//!   instances of paired schemas linked, 50 agents, 4 engines. With
//!   `partners_of` scanning every link the ratio was ≈ 50× (0.069 s →
//!   3.56 s); with the index it read ≈ 18× (0.057 s → 1.01 s), the
//!   remainder being allocator and cache effects of a 16× larger heap.
//!   On a 2-core host it spreads wide: eighteen release runs over two
//!   commits with the same parallel code read 15.2–26.0×. The 30× limit
//!   stays below the scan's ≈ 50×, but it is only 1.15× above the high
//!   end of that spread, so a loaded host can come close to it.
//! - `central_crash`: shape L under central control, engine 0 down for 200
//!   ticks every 1 000 ticks, so the number of recoveries grows with the
//!   run. While every recovery replayed the whole command log the ratio
//!   was 66–72× (1.65 s at 8 000 instances); with the log compacted to
//!   what is live it is 10–18× (0.29–0.34 s). The limit is 40×.
//! - `dist_steady`: shape L under distributed control, 12 agents, 200
//!   arrivals per 1 000 ticks. Each agent holds the tables of every
//!   instance it touched (§4.2), so a per-message lookup that costs more
//!   as an agent holds more shows here. With those tables in B-trees the
//!   ratio was 15–20× (0.57–0.79 s at 8 000 instances); hashed, it was
//!   15–20× (0.38–0.53 s). With an agent's instance entries 64 to a page
//!   it reads 14–20× (0.27–0.37 s) in five runs alternating with the
//!   hashed boxes' 17–20× (0.32–0.36 s); one of three runs of all three
//!   rows read 27.5× (0.42 s) on a shared 2-core host, so this row, too,
//!   can come close to its limit. The limit is 30×.
//!
//! Timing, so `#[ignore]`: CI runs it in release, alone, with
//! `--ignored --nocapture`.

use crew_core::{Architecture, CrashWindow, Scenario, WorkflowSystem};
use crew_model::{InstanceId, SchemaId, Value};
use crew_workload::{build_deployment, link_instances, SetupParams};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const N: u32 = 500;
const FACTOR: u32 = 16;

/// Start `instances` arrivals, one every `gap` ticks, round-robin over the
/// deployment's schemas; returns their ids.
fn arrivals(
    scenario: &mut Scenario,
    schemas: &[SchemaId],
    instances: u32,
    gap: u64,
) -> Vec<InstanceId> {
    (0..instances as usize)
        .map(|k| {
            let inputs = vec![(1, Value::Int(5)), (2, Value::Int(1))];
            let index = scenario.start_at(schemas[k % schemas.len()], inputs, (k as u64 + 1) * gap);
            scenario.instance_id(index)
        })
        .collect()
}

/// Wall time of `scenario` on `system`; every one of its `instances` must
/// end terminal.
fn timed(system: WorkflowSystem, scenario: Scenario, instances: u32) -> Duration {
    let started = Instant::now();
    let report = system.run(scenario);
    let wall = started.elapsed();
    assert_eq!(report.instances, instances as u64);
    assert!(
        report.all_terminal(),
        "{instances} instances: some never terminated"
    );
    wall
}

/// `parallel_coord`: 100 arrivals per 1000 ticks, run to quiescence.
fn parallel_coord(instances: u32) -> Duration {
    let setup = SetupParams {
        s: 15,
        c: 4,
        z: 50,
        a: 2,
        me: 2,
        ro: 2,
        rd: 1,
        r: 5,
        pf: 0.0,
        pi: 0.0,
        pa: 0.0,
        pr: 0.25,
        seed: 42,
    };
    let mut deployment = build_deployment(&setup, false);
    let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    let mut scenario = Scenario::new();
    let planned = arrivals(&mut scenario, &schemas, instances, 10);
    link_instances(&mut deployment, &planned);
    let system = WorkflowSystem::with_deployment(
        deployment,
        Architecture::Parallel {
            agents: 50,
            engines: 4,
        },
    );
    timed(system, scenario, instances)
}

/// Shape L on 12 agents: the schemas of the steady and crash workloads.
fn shape_l() -> SetupParams {
    SetupParams {
        z: 12,
        seed: 42,
        ..SetupParams::small()
    }
}

/// `central_crash`, made run-length-proportional: 200 arrivals per 1000
/// ticks, and engine 0 down for 200 ticks at every 1000th tick of the
/// arrival train.
fn central_crash(instances: u32) -> Duration {
    let deployment = build_deployment(&shape_l(), false);
    let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    let mut scenario = Scenario::new();
    arrivals(&mut scenario, &schemas, instances, 5);
    let train = instances as u64 * 5;
    for at in (1000..train).step_by(1000) {
        scenario.crash(CrashWindow::engine(0, at, Some(200)));
    }
    let system = WorkflowSystem::with_deployment(deployment, Architecture::Central { agents: 12 });
    timed(system, scenario, instances)
}

/// `dist_steady`: the steady workloads' shape L and arrival rate under
/// distributed control, run to quiescence.
fn dist_steady(instances: u32) -> Duration {
    let deployment = build_deployment(&shape_l(), false);
    let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    let mut scenario = Scenario::new();
    arrivals(&mut scenario, &schemas, instances, 5);
    let system =
        WorkflowSystem::with_deployment(deployment, Architecture::Distributed { agents: 12 });
    timed(system, scenario, instances)
}

/// Held by the row being timed: the harness runs tests on parallel
/// threads, and two timed rows must not share the host.
static ALONE: Mutex<()> = Mutex::new(());

/// Fail if [`FACTOR`]`·N` instances take `limit` times the wall of `N` or
/// more.
fn assert_scales(name: &str, wall: fn(u32) -> Duration, limit: f64) {
    let _alone = ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // Warm the allocator and page in the code before either timed run.
    wall(N / 5);
    let small = wall(N);
    let large = wall(FACTOR * N);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    println!(
        "scaling {name}: {N} instances {:.3} s, {} instances {:.3} s, ratio {ratio:.1} (limit {limit})",
        small.as_secs_f64(),
        FACTOR * N,
        large.as_secs_f64(),
    );
    assert!(
        ratio < limit,
        "{name}: {FACTOR}x the instances took {ratio:.1}x the wall time: a per-message cost grows with run length"
    );
}

#[test]
#[ignore = "timing: release build, run alone (see CI)"]
fn parallel_coord_wall_grows_with_the_run_not_its_square() {
    assert_scales("parallel_coord", parallel_coord, 30.0);
}

#[test]
#[ignore = "timing: release build, run alone (see CI)"]
fn central_crash_wall_grows_with_the_run_not_its_square() {
    assert_scales("central_crash", central_crash, 40.0);
}

#[test]
#[ignore = "timing: release build, run alone (see CI)"]
fn dist_steady_wall_grows_with_the_run_not_its_square() {
    assert_scales("dist_steady", dist_steady, 30.0);
}
