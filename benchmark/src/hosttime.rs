//! Host time on a noisy box: the timed run split into stretches at fixed
//! points of the computation, so that "fastest of N repetitions" can be
//! taken stretch by stretch.
//!
//! Interference on this box is one-sided (it only ever slows a run) and
//! comes in bursts of a tenth to a third of a second: inside one run the
//! same 256 step invocations take 3.0–3.2 ms when the machine is quiet and
//! 4.2–5.0 ms when it is not, switching several times per second. A whole
//! run is therefore almost never quiet from end to end, but each stretch of
//! it is quiet in some repetition (README "Protocol" has the measurements).
//! Nothing here scales or corrects a time: every number is raw wall time of
//! the product's own work.

use crew_exec::{Program, ProgramCtx, ProgramRegistry, StepFailure};
use crew_model::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A checkpoint every this many step-program invocations: 0.5–5 ms of run
/// between checkpoints, well under the length of a burst. On the same raw
/// repetitions a stride of 256 read about a tenth wider between windows.
const CHECKPOINT_STRIDE: u64 = 64;

/// Checkpoints at fixed points of the computation.
///
/// The simulation is deterministic, so the k-th step-program invocation
/// happens at the same point of the event sequence in every repetition.
/// Every [`CHECKPOINT_STRIDE`]-th one reads the clock; stretch k of one
/// repetition is then the same work as stretch k of any other.
///
/// The hook is an input, not a patch: `Deployment::registry` is public so
/// that callers can supply step programs, and `WorkflowSystem::run` stays
/// the timed call. Each registered program is wrapped to tick this counter
/// before it runs (one relaxed atomic add per step, one clock read per
/// stride).
#[derive(Default)]
pub struct Checkpoints {
    invocations: AtomicU64,
    reached: Mutex<Vec<Instant>>,
}

struct Checkpointed {
    inner: Arc<dyn Program>,
    clock: Arc<Checkpoints>,
}

impl Program for Checkpointed {
    fn run(&self, ctx: &ProgramCtx) -> Result<Vec<Value>, StepFailure> {
        // Relaxed: the count publishes nothing; the run is single-threaded.
        let invocation = self.clock.invocations.fetch_add(1, Ordering::Relaxed);
        if invocation.is_multiple_of(CHECKPOINT_STRIDE) {
            self.clock
                .reached
                .lock()
                .expect("poisoned only by a panic")
                .push(Instant::now());
        }
        self.inner.run(ctx)
    }

    fn compensate(&self, ctx: &ProgramCtx) {
        self.inner.compensate(ctx);
    }
}

impl Checkpoints {
    /// Wrap every program in `registry`.
    pub fn install(registry: &mut ProgramRegistry) -> Arc<Checkpoints> {
        let clock = Arc::new(Checkpoints::default());
        let names: Vec<String> = registry.names().map(str::to_owned).collect();
        for name in names {
            let inner = registry.get(&name).expect("name just listed").clone();
            let wrapped = Checkpointed {
                inner,
                clock: clock.clone(),
            };
            registry.register(name, wrapped);
        }
        clock
    }

    /// The run that lasted from `started` to `ended`, split at the
    /// checkpoints: start → first checkpoint, between checkpoints, last
    /// checkpoint → end. The stretches sum to the run's wall time.
    pub fn stretches_s(&self, started: Instant, ended: Instant) -> Vec<f64> {
        let reached = self.reached.lock().expect("poisoned only by a panic");
        let mut stretches = Vec::with_capacity(reached.len() + 1);
        let mut from = started;
        for &at in reached.iter().chain([&ended]) {
            stretches.push(at.duration_since(from).as_secs_f64());
            from = at;
        }
        stretches
    }
}

/// Wall time of the run with every stretch taken from the repetition in
/// which that stretch was fastest. `None` if the repetitions do not split
/// into the same number of stretches (they ran different computations).
pub fn piecewise_fastest_s(reps: &[&[f64]]) -> Option<f64> {
    let first = reps.first()?;
    if reps.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|k| reps.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_programs_still_run_and_stretches_tile_the_run() {
        let mut registry = ProgramRegistry::with_builtins();
        let checkpoints = Checkpoints::install(&mut registry);
        let ctx = ProgramCtx {
            instance: crew_model::InstanceId::new(crew_model::SchemaId(1), 1),
            step: crew_model::StepId(1),
            attempt: 1,
            seed: 0,
            inputs: vec![Some(Value::Int(7))],
        };
        let program = registry.get("passthrough").unwrap().clone();
        let started = Instant::now();
        for _ in 0..CHECKPOINT_STRIDE + 1 {
            assert_eq!(program.run(&ctx).unwrap(), vec![Value::Int(7)]);
        }
        let ended = Instant::now();
        // Invocations 0 and CHECKPOINT_STRIDE each reached a checkpoint.
        let stretches = checkpoints.stretches_s(started, ended);
        assert_eq!(stretches.len(), 3);
        let total: f64 = stretches.iter().sum();
        assert!((total - ended.duration_since(started).as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn piecewise_fastest_takes_each_stretch_where_it_was_quiet() {
        // Three stretches of 1 s of work; each repetition was disturbed in a
        // different one, so no whole run reads 3 s but every stretch does.
        let reps: [&[f64]; 3] = [&[1.5, 1.0, 1.0], &[1.0, 1.4, 1.0], &[1.0, 1.0, 1.6]];
        assert_eq!(piecewise_fastest_s(&reps), Some(3.0));
        // One repetition: its own wall time.
        assert_eq!(piecewise_fastest_s(&reps[..1]), Some(3.5));
        // A different number of checkpoints is a different computation.
        assert_eq!(piecewise_fastest_s(&[&[1.0, 1.0], &[1.0]]), None);
        assert_eq!(piecewise_fastest_s(&[]), None);
    }
}
