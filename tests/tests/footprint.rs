//! What one workflow instance *holds*, as a budget that fails the build.
//!
//! The paper's §4.2 gives every instance its own small tables at the engine
//! and again at every agent it touches; per-instance state, not per-message
//! work, is what a long-lived deployment runs out of. This binary has its
//! own counting allocator, which counts per thread (so nothing another
//! thread allocates lands in a measurement). It runs 500 instances of the
//! benchmark's L shape — the `central_steady` / `dist_steady` inputs — to
//! quiescence under centralized and distributed control and checks the
//! bytes and heap blocks still live per instance (navigators, logs,
//! summaries — everything a node keeps) against a budget of the measured
//! value + 10 %, and that dropping the run returns every byte. Under
//! central control every instance has retired by then, so the engine must
//! host no navigator at all. The simulation is single-threaded and
//! deterministic, so the counts repeat exactly.

use crew_central::CentralRun;
use crew_distributed::{DistConfig, DistRun, Outcome};
use crew_model::{SchemaId, Value};
use crew_storage::InstanceStatus;
use crew_workload::{build_deployment, SetupParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (live bytes, live blocks) allocated by this thread. Per thread, so
    /// what the test harness's other threads allocate meanwhile (its
    /// output, its bookkeeping) never lands in a measurement; the runs
    /// measured are single-threaded. A const-initialized `Cell` of plain
    /// integers needs no destructor, so touching it allocates nothing.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

/// Add to this thread's counters. `try_with`: a thread may still free
/// after its thread-locals are gone, and that is no measurement's.
fn count(bytes: isize, blocks: isize) {
    let _ = LIVE.try_with(|live| {
        let (b, k) = live.get();
        live.set((b + bytes, k + blocks));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 0);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// (live bytes, live blocks) this thread holds right now.
fn live() -> (isize, isize) {
    LIVE.with(Cell::get)
}

const INSTANCES: u32 = 500;
const AGENTS: u32 = 12;

/// The benchmark's shape L: 2 sequential schemas × 6 steps, 12 agents, 2
/// eligible agents per step, no failures, no coordination.
fn shape_l() -> SetupParams {
    SetupParams {
        s: 6,
        c: 2,
        z: AGENTS,
        a: 2,
        seed: 42,
        ..SetupParams::small()
    }
}

/// Instance `k`'s schema and arrival tick: round-robin over the two
/// schemas at the steady workloads' 200 arrivals per 1000 ticks.
fn arrival(k: u32) -> (SchemaId, Vec<(u16, Value)>, u64) {
    let inputs = vec![(1, Value::Int(5)), (2, Value::Int(1))];
    (SchemaId(k % 2 + 1), inputs, (k as u64 + 1) * 5)
}

/// Live (bytes, blocks) per instance once `drive` has started
/// [`INSTANCES`] arrivals on the system `build` made and run them to
/// quiescence; `committed` counts the instances that committed.
fn footprint<R>(
    build: impl FnOnce() -> R,
    drive: impl FnOnce(&mut R),
    committed: impl FnOnce(&R) -> usize,
) -> (f64, f64) {
    let before = live();
    let mut run = build();
    let built = live();
    drive(&mut run);
    let quiescent = live();
    assert_eq!(committed(&run), INSTANCES as usize);
    drop(run);
    assert_eq!(
        live(),
        before,
        "teardown frees everything the run allocated"
    );
    let n = INSTANCES as f64;
    (
        (quiescent.0 - built.0) as f64 / n,
        (quiescent.1 - built.1) as f64 / n,
    )
}

fn central() -> (f64, f64) {
    footprint(
        || CentralRun::new(build_deployment(&shape_l(), false), AGENTS, 1),
        |run| {
            for (schema, inputs, at) in (0..INSTANCES).map(arrival) {
                run.start_instance_at(schema, inputs, at);
            }
            run.run();
            let hosted = run.engine(0).hosted_instances();
            assert_eq!(hosted, 0, "every finished instance retired");
        },
        |run| {
            let statuses = run.statuses().into_values();
            statuses.filter(|s| *s == InstanceStatus::Committed).count()
        },
    )
}

fn distributed() -> (f64, f64) {
    footprint(
        || {
            DistRun::new(
                build_deployment(&shape_l(), false),
                AGENTS,
                DistConfig::default(),
            )
        },
        |run| {
            for (schema, inputs, at) in (0..INSTANCES).map(arrival) {
                run.start_instance_at(schema, inputs, at);
            }
            run.run();
        },
        |run| {
            let outcomes = run.outcomes().into_values();
            outcomes.filter(|o| *o == Outcome::Committed).count()
        },
    )
}

#[test]
fn live_state_per_instance_stays_inside_its_budget() {
    // (control, now, live bytes and live blocks per instance when the
    // budget was set). The same test on the B-tree tables this layout
    // replaced read 9 556 B / 57.7 blocks and 36 835 B / 120.0 blocks.
    // Under central control every instance has retired at quiescence, so
    // its row is what a retired instance leaves: its summary row, its
    // terminal tick and its share of the summary log and of what the
    // compacted command log still holds (it read 4 096 B / 40.6 blocks
    // while the engine kept every navigator, 1 113 B / 0.4 blocks while
    // it kept every command). The distributed row read 12 223 B / 109.4
    // blocks while rules carried ids and labels and every navigator kept a
    // per-step index of them, and 11 100 B / 98.5 blocks while each agent
    // journaled an instance-creation record and every step output twice.
    let rows = [
        ("central", central(), (327.0, 0.4)),
        ("distributed", distributed(), (10_709.0, 98.5)),
    ];
    for (control, (bytes, blocks), _) in rows {
        println!("footprint {control:11} {bytes:7.0} live bytes/instance {blocks:6.1} live blocks/instance");
    }
    for (control, (bytes, blocks), (set_bytes, set_blocks)) in rows {
        let (max_bytes, max_blocks) = (set_bytes * 1.10, set_blocks * 1.10);
        assert!(
            bytes <= max_bytes && blocks <= max_blocks,
            "{control}: {bytes:.0} B / {blocks:.1} blocks live per instance, \
             budget {max_bytes:.0} B / {max_blocks:.1} blocks"
        );
    }
}
