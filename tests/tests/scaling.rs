//! Host cost per instance must not grow with the length of the run.
//!
//! The paper's §6 cost model is per instance, and the simulated counters
//! reproduce that; this guards the *host* side of it, which the benchmark
//! gate — one fixed size per workload — cannot see. It runs the benchmark's
//! `parallel_coord` shape (shape P with me = 2, ro = 2, rd = 1, consecutive
//! instances of paired schemas linked, 50 agents, 4 engines) at N and 16 N
//! instances and fails if wall time grows much faster than the run.
//!
//! Sized from measurements: with `partners_of` scanning every link the
//! ratio was ≈ 50× (0.069 s → 3.56 s); with the index it is ≈ 18×
//! (0.057 s → 1.01 s), the remainder being allocator and cache effects of
//! a 16× larger heap. The 30× threshold leaves > 1.6× on both sides.
//!
//! Timing, so `#[ignore]`: CI runs it in release, alone, with
//! `--ignored --nocapture`.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_model::{InstanceId, SchemaId, Value};
use crew_workload::{build_deployment, link_instances, SetupParams};
use std::time::{Duration, Instant};

const N: u32 = 500;
const FACTOR: u32 = 16;
const MAX_WALL_RATIO: f64 = 30.0;

/// Wall time of `instances` arrivals, 100 per 1000 ticks, round-robin over
/// the four schemas, run to quiescence; every instance must be terminal.
fn wall(instances: u32) -> Duration {
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
    let mut planned: Vec<InstanceId> = Vec::new();
    for k in 0..instances as usize {
        let inputs = vec![(1, Value::Int(5)), (2, Value::Int(1))];
        let index = scenario.start_at(schemas[k % schemas.len()], inputs, (k as u64 + 1) * 10);
        planned.push(scenario.instance_id(index));
    }
    link_instances(&mut deployment, &planned);
    let system = WorkflowSystem::with_deployment(
        deployment,
        Architecture::Parallel {
            agents: 50,
            engines: 4,
        },
    );
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

#[test]
#[ignore = "timing: release build, run alone (see CI)"]
fn parallel_coord_wall_grows_with_the_run_not_its_square() {
    // Warm the allocator and page in the code before either timed run.
    wall(N / 5);
    let small = wall(N);
    let large = wall(FACTOR * N);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    println!(
        "scaling parallel_coord: {N} instances {:.3} s, {} instances {:.3} s, ratio {ratio:.1} (limit {MAX_WALL_RATIO})",
        small.as_secs_f64(),
        FACTOR * N,
        large.as_secs_f64(),
    );
    assert!(
        ratio < MAX_WALL_RATIO,
        "{FACTOR}x the instances took {ratio:.1}x the wall time: a per-message cost grows with run length"
    );
}
