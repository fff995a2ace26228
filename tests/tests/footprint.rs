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
//! summaries — everything a node keeps), and the allocator calls per
//! instance made while the instances ran and while the run was dropped,
//! against a budget of the measured value + 10 %, and that dropping the
//! run returns every byte. Under central control every instance has
//! retired by then, so the engine must host no navigator at all. The
//! simulation is single-threaded and deterministic, so the counts repeat
//! exactly. It also checks that a run holds its failure plan once, however
//! many agents read it.

use crew_central::CentralRun;
use crew_distributed::{DistConfig, DistRun, Outcome};
use crew_exec::{Deployment, FailurePlan};
use crew_model::{InstanceId, SchemaId, StepId, Value};
use crew_storage::InstanceStatus;
use crew_workload::{build_deployment, SetupParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What this thread's allocator calls have left live, and how many calls
/// of each kind it made.
#[derive(Clone, Copy)]
struct Ledger {
    bytes: isize,
    blocks: isize,
    allocs: u64,
    reallocs: u64,
    deallocs: u64,
}

impl Ledger {
    const ZERO: Ledger = Ledger {
        bytes: 0,
        blocks: 0,
        allocs: 0,
        reallocs: 0,
        deallocs: 0,
    };

    /// Allocator calls of every kind.
    fn calls(&self) -> u64 {
        self.allocs + self.reallocs + self.deallocs
    }
}

thread_local! {
    /// This thread's ledger. Per thread, so what the test harness's other
    /// threads allocate meanwhile (its output, its bookkeeping) never
    /// lands in a measurement; the runs measured are single-threaded. A
    /// const-initialized `Cell` of plain integers needs no destructor, so
    /// touching it allocates nothing.
    static LEDGER: Cell<Ledger> = const { Cell::new(Ledger::ZERO) };
}

/// Update this thread's ledger. `try_with`: a thread may still free after
/// its thread-locals are gone, and that is no measurement's.
fn count(update: impl FnOnce(&mut Ledger)) {
    let _ = LEDGER.try_with(|ledger| {
        let mut l = ledger.get();
        update(&mut l);
        ledger.set(l);
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|l| {
            l.bytes += layout.size() as isize;
            l.blocks += 1;
            l.allocs += 1;
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(|l| {
            l.bytes -= layout.size() as isize;
            l.blocks -= 1;
            l.deallocs += 1;
        });
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(|l| {
            l.bytes += new_size as isize - layout.size() as isize;
            l.reallocs += 1;
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// This thread's ledger right now.
fn ledger() -> Ledger {
    LEDGER.with(Cell::get)
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

/// Per instance: what is live at quiescence and the allocator calls it
/// took to get there and to free it.
#[derive(Clone, Copy)]
struct Footprint {
    bytes: f64,
    blocks: f64,
    /// Allocator calls (alloc, realloc and dealloc) while the instances ran.
    run_calls: f64,
    /// Allocator calls while the run was dropped.
    teardown_calls: f64,
}

/// The [`Footprint`] of [`INSTANCES`] arrivals once `drive` has started
/// them on the system `build` made and run them to quiescence;
/// `committed` counts the instances that committed.
fn footprint<R>(
    build: impl FnOnce() -> R,
    drive: impl FnOnce(&mut R),
    committed: impl FnOnce(&R) -> usize,
) -> Footprint {
    let before = ledger();
    let mut run = build();
    let built = ledger();
    drive(&mut run);
    let quiescent = ledger();
    assert_eq!(committed(&run), INSTANCES as usize);
    let counted = ledger();
    drop(run);
    let after = ledger();
    assert_eq!(
        (after.bytes, after.blocks),
        (before.bytes, before.blocks),
        "teardown frees everything the run allocated"
    );
    let n = INSTANCES as f64;
    Footprint {
        bytes: (quiescent.bytes - built.bytes) as f64 / n,
        blocks: (quiescent.blocks - built.blocks) as f64 / n,
        run_calls: (quiescent.calls() - built.calls()) as f64 / n,
        teardown_calls: (after.calls() - counted.calls()) as f64 / n,
    }
}

fn central() -> Footprint {
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

fn distributed() -> Footprint {
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
    // (control, now, live bytes, live blocks and allocator calls in the
    // run and at teardown per instance when the budget was set). The same test on the B-tree tables this layout
    // replaced read 9 556 B / 57.7 blocks and 36 835 B / 120.0 blocks.
    // Under central control every instance has retired at quiescence, so
    // its row is what a retired instance leaves: its summary row, its
    // terminal tick and its share of the summary log and of what the
    // compacted command log still holds (it read 4 096 B / 40.6 blocks
    // while the engine kept every navigator, 1 113 B / 0.4 blocks while
    // it kept every command); its run read 214.6 calls while the engine
    // grew an instance's tables one entry at a time instead of sizing them
    // from the schema. The distributed row read 12 223 B / 109.4
    // blocks while rules carried ids and labels and every navigator kept a
    // per-step index of them, 11 100 B / 98.5 blocks while each agent
    // journaled an instance-creation record and every step output twice,
    // and 10 709 B / 98.5 blocks (311.4 + 98.9 calls; central 221.6 + 0.7)
    // while every copy of a string value was an allocation of its own and
    // a packet merge grew each table once per item; 10 406 B / 62.1 blocks
    // (214.6 + 62.4 calls) while each agent kept its instances and summary
    // rows in B-trees, whose leaves are blocks of their own (the hash
    // tables read 10 420 B: their buckets are sized in powers of two, so
    // the bytes budget stayed at 10 402 B); and 10 420 B / 60.7 blocks
    // (213.6 + 61.0 calls) while each agent kept its summary rows in a
    // hashed table of their own beside its instances, and every instance
    // entry three polling tables for one wait; and 10 033 B / 60.7 blocks
    // (213.5 + 61.0 calls) while each agent kept every instance entry in a
    // block of its own, with four tables no fault-free run writes inline in
    // each (they are now boxed on first write, and the entries sit 64 to a
    // page). The teardown calls are the blocks a run leaves to free:
    // teardown time scales with them, about one cache miss per block.
    let rows = [
        ("central", central(), (327.0, 0.4, 191.6, 0.7)),
        ("distributed", distributed(), (9_370.0, 53.3, 206.1, 53.7)),
    ];
    for (control, f, _) in rows {
        println!(
            "footprint {control:11} {:7.0} live bytes/instance {:6.1} live blocks/instance \
             {:6.1} allocator calls/instance in the run {:6.1} at teardown",
            f.bytes, f.blocks, f.run_calls, f.teardown_calls
        );
    }
    for (control, f, (bytes, blocks, run_calls, teardown_calls)) in rows {
        let measured = [f.bytes, f.blocks, f.run_calls, f.teardown_calls];
        let budget = [bytes, blocks, run_calls, teardown_calls].map(|set| set * 1.10);
        assert!(
            measured.iter().zip(&budget).all(|(m, b)| m <= b),
            "{control}: per instance (live bytes, live blocks, run calls, teardown calls) \
             {measured:.1?} over the budget {budget:.1?}"
        );
    }
}

/// The live bytes `build` leaves, dropped before returning.
fn bytes_held<R>(build: impl FnOnce() -> R) -> isize {
    let before = ledger().bytes;
    let held = build();
    let bytes = ledger().bytes - before;
    drop(held);
    bytes
}

/// A run holds its failure plan and program registry once, in its one
/// deployment, however many nodes read them: 38 more agents over a plan
/// that scripts 2 000 failures add less than one copy of the plan under
/// central and under distributed control. (While every agent's executor
/// held a copy of its own, they added 38.)
#[test]
fn a_run_holds_its_plan_once() {
    let plan = (1..=2_000).fold(FailurePlan::none(), |plan, serial| {
        plan.fail_step(InstanceId::new(SchemaId(1), serial), StepId(1), 1)
    });
    let plan_bytes = bytes_held(|| plan.clone());
    let deployment = || Deployment {
        plan: plan.clone(),
        ..build_deployment(&shape_l(), false)
    };
    type Build<'a> = &'a dyn Fn(Deployment, u32) -> Box<dyn std::any::Any>;
    let builds: [(&str, Build); 2] = [
        ("central", &|d, agents| {
            Box::new(CentralRun::new(d, agents, 1))
        }),
        ("distributed", &|d, agents| {
            Box::new(DistRun::new(d, agents, DistConfig::default()))
        }),
    ];
    for (control, build) in builds {
        let [few, many] = [AGENTS, 50].map(|agents| {
            let d = deployment();
            bytes_held(|| build(d, agents))
        });
        println!(
            "plan {control:11} {plan_bytes} bytes; {AGENTS} agents hold {few}, 50 agents {many}"
        );
        assert!(
            many - few < plan_bytes,
            "{control}: 38 more agents hold {} more bytes, a plan is {plan_bytes}",
            many - few
        );
    }
}
