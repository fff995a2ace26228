//! Step programs: the "black boxes" a step executes.
//!
//! "The program associated with a step and the data that is accessed by the
//! step are not known to the WFMS" (§2). The run-times therefore interact
//! with programs only through this trait: hand over the declared inputs,
//! receive outputs (or a logical failure), and optionally invoke the
//! compensation program later. Programs must be deterministic functions of
//! `(inputs, instance, step, attempt, seed)` so that simulation runs are
//! reproducible.

use crate::hash;
use crew_model::{InstanceId, StepId, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Context passed to a program invocation.
#[derive(Debug, Clone)]
pub struct ProgramCtx {
    /// The workflow instance concerned.
    pub instance: InstanceId,
    /// The step this entry concerns.
    pub step: StepId,
    /// 1-based execution attempt of this step within the instance (bumped
    /// by OCR re-executions).
    pub attempt: u32,
    /// Run seed for deterministic internal draws.
    pub seed: u64,
    /// Values of the step's declared inputs, in declaration order; `None`
    /// where an input item had no value.
    pub inputs: Vec<Option<Value>>,
}

impl ProgramCtx {
    /// Input `i` as an integer, defaulting when absent/mistyped.
    pub fn int_input(&self, i: usize, default: i64) -> i64 {
        self.inputs
            .get(i)
            .and_then(|v| v.as_ref())
            .and_then(|v| v.as_int())
            .unwrap_or(default)
    }

    /// Deterministic per-invocation unit draw.
    pub fn unit_draw(&self, salt: u64) -> f64 {
        hash::unit_draw(
            self.seed,
            &[
                self.instance.schema.0 as u64,
                self.instance.serial as u64,
                self.step.0 as u64,
                self.attempt as u64,
                salt,
            ],
        )
    }
}

/// A logical step failure (an exception the workflow must handle — not an
/// agent crash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepFailure {
    /// Human-readable cause.
    pub reason: String,
}

impl StepFailure {
    /// Create a new, empty value.
    pub fn new(reason: impl Into<String>) -> Self {
        StepFailure {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step failed: {}", self.reason)
    }
}

impl std::error::Error for StepFailure {}

/// A step program. `run` produces the step's output slot values in order.
pub trait Program: Send + Sync {
    /// Execute the program.
    fn run(&self, ctx: &ProgramCtx) -> Result<Vec<Value>, StepFailure>;

    /// Undo the effects of a previous run. Most simulated programs carry
    /// their state in the data table, so the default is a no-op; programs
    /// with external effects (the inventory simulators) override this.
    fn compensate(&self, _ctx: &ProgramCtx) {}
}

/// Wrap a closure as a [`Program`].
pub struct FnProgram<F>(pub F);

impl<F> Program for FnProgram<F>
where
    F: Fn(&ProgramCtx) -> Result<Vec<Value>, StepFailure> + Send + Sync,
{
    fn run(&self, ctx: &ProgramCtx) -> Result<Vec<Value>, StepFailure> {
        (self.0)(ctx)
    }
}

/// Registry resolving program names (from [`crew_model::StepDef`]) to
/// implementations. Cheap to clone; registered programs are shared.
#[derive(Clone, Default)]
pub struct ProgramRegistry {
    programs: BTreeMap<String, Arc<dyn Program>>,
}

impl ProgramRegistry {
    /// Registry preloaded with the generic built-ins (see
    /// [`ProgramRegistry::with_builtins`] for the list).
    pub fn with_builtins() -> Self {
        let mut r = ProgramRegistry::default();
        // Copies its inputs to its outputs (padding with Int(0)).
        r.register(
            "passthrough",
            FnProgram(|ctx: &ProgramCtx| {
                Ok(ctx
                    .inputs
                    .iter()
                    .map(|v| v.clone().unwrap_or(Value::Int(0)))
                    .collect())
            }),
        );
        // Sums integer inputs into one output.
        r.register(
            "sum",
            FnProgram(|ctx: &ProgramCtx| {
                let total: i64 = (0..ctx.inputs.len()).map(|i| ctx.int_input(i, 0)).sum();
                Ok(vec![Value::Int(total)])
            }),
        );
        // Increments its first input — loop counters.
        r.register(
            "increment",
            FnProgram(|ctx: &ProgramCtx| Ok(vec![Value::Int(ctx.int_input(0, 0) + 1)])),
        );
        // Emits a constant marker plus the attempt number — lets tests see
        // whether a step was re-executed.
        r.register(
            "stamp",
            FnProgram(|ctx: &ProgramCtx| {
                Ok(vec![
                    format!("{}@{}", ctx.step, ctx.attempt).into(),
                    Value::Int(ctx.attempt as i64),
                ])
            }),
        );
        // Always fails — for failure-path tests.
        r.register(
            "always-fail",
            FnProgram(|_: &ProgramCtx| Err(StepFailure::new("unconditional"))),
        );
        r
    }

    /// Register (or replace) a program under `name`.
    pub fn register(&mut self, name: impl Into<String>, program: impl Program + 'static) {
        self.programs.insert(name.into(), Arc::new(program));
    }

    /// Value of `key`, if present.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Program>> {
        self.programs.get(name)
    }

    /// Names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.programs.keys().map(|s| s.as_str())
    }
}

impl fmt::Debug for ProgramRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramRegistry")
            .field("programs", &self.programs.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::SchemaId;

    fn ctx(inputs: Vec<Option<Value>>) -> ProgramCtx {
        ProgramCtx {
            instance: InstanceId::new(SchemaId(1), 1),
            step: StepId(2),
            attempt: 1,
            seed: 7,
            inputs,
        }
    }

    #[test]
    fn builtins_work() {
        let r = ProgramRegistry::with_builtins();
        let sum = r.get("sum").unwrap();
        let out = sum
            .run(&ctx(vec![Some(Value::Int(2)), Some(Value::Int(40))]))
            .unwrap();
        assert_eq!(out, vec![Value::Int(42)]);

        let inc = r.get("increment").unwrap();
        assert_eq!(
            inc.run(&ctx(vec![Some(Value::Int(4))])).unwrap(),
            vec![Value::Int(5)]
        );

        let stamp = r.get("stamp").unwrap();
        let out = stamp.run(&ctx(vec![])).unwrap();
        assert_eq!(out[0], Value::Str("S2@1".into()));

        assert!(r.get("always-fail").unwrap().run(&ctx(vec![])).is_err());
        assert!(r.get("nope").is_none());
    }

    #[test]
    fn passthrough_pads_missing() {
        let r = ProgramRegistry::with_builtins();
        let p = r.get("passthrough").unwrap();
        let out = p.run(&ctx(vec![Some(Value::Int(1)), None])).unwrap();
        assert_eq!(out, vec![Value::Int(1), Value::Int(0)]);
    }

    #[test]
    fn ctx_draw_depends_on_attempt() {
        let a = ctx(vec![]);
        let mut b = ctx(vec![]);
        b.attempt = 2;
        assert_ne!(a.unit_draw(0), b.unit_draw(0));
        assert_eq!(a.unit_draw(0), ctx(vec![]).unit_draw(0));
    }

    #[test]
    fn custom_registration_overrides() {
        let mut r = ProgramRegistry::with_builtins();
        r.register("sum", FnProgram(|_: &ProgramCtx| Ok(vec![Value::Int(-1)])));
        assert_eq!(
            r.get("sum").unwrap().run(&ctx(vec![])).unwrap(),
            vec![Value::Int(-1)]
        );
        assert!(r.names().any(|n| n == "stamp"));
    }
}
