//! The step executor: the piece of an agent that actually performs a step.
//!
//! It is the only code that consults the failure plan and calls a step or
//! compensation program, whichever architecture navigates the step. The
//! distributed agents run a whole step through [`StepExecutor::execute`]:
//! gather the declared inputs from the instance data table, run one
//! [attempt](StepExecutor::attempt) and record its [`StepOutcome`].
//! Compensation runs the step's compensation program and strips its
//! outputs from the data table. The application agents of central and
//! parallel control run only the program half ([`StepExecutor::attempt`]
//! and [`StepExecutor::run_compensation`]); their engine records the
//! outcome.
//!
//! The registry and the plan describe the run, not a node: an executor
//! reads them from the run's one [`Deployment`], which every node of the
//! run shares, so a node holds no copy of either.

use crate::deploy::{Deployment, RelOrderLinks};
use crate::failure::FailurePlan;
use crate::history::InstanceHistory;
use crate::nav::declared_outputs;
use crate::program::{Program, ProgramCtx, ProgramRegistry, StepFailure};
use crew_model::{CoordinationSpec, DataEnv, InstanceId, StepDef, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The result of one step execution attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Completed; outputs have been written to the caller's data table.
    Done {
        /// Attempt number that completed.
        attempt: u32,
        /// Output values written (slot order).
        outputs: Vec<Value>,
        /// Abstract instruction cost charged.
        cost: u64,
    },
    /// Logical failure (exception) — the failure-handling machinery takes
    /// over.
    Failed {
        /// Attempt.
        attempt: u32,
        /// Reason.
        reason: String,
    },
}

impl StepOutcome {
    /// Is done.
    pub fn is_done(&self) -> bool {
        matches!(self, StepOutcome::Done { .. })
    }
}

/// Errors that are bugs in the deployment rather than workflow exceptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The step names a program the registry does not know.
    UnknownProgram(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownProgram(p) => write!(f, "unknown program {p:?}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Stateless executor over a run's deployment: it runs the programs of
/// [`Deployment::registry`] under [`Deployment::plan`] and forwards
/// [`Deployment::seed`] to them.
#[derive(Debug, Clone)]
pub struct StepExecutor {
    deployment: Arc<Deployment>,
}

impl StepExecutor {
    /// The executor of a node of the run whose deployment is `deployment`.
    pub fn of(deployment: Arc<Deployment>) -> Self {
        StepExecutor { deployment }
    }

    /// An executor of `registry`'s programs under `plan` alone: a
    /// deployment with no schemas.
    pub fn new(registry: ProgramRegistry, plan: FailurePlan, seed: u64) -> Self {
        Self::of(Arc::new(Deployment {
            schemas: BTreeMap::new(),
            coordination: CoordinationSpec::default(),
            ro_links: RelOrderLinks::new(),
            registry,
            plan,
            seed,
        }))
    }

    /// The run seed forwarded to programs.
    pub fn seed(&self) -> u64 {
        self.deployment.seed
    }

    /// The deployment this executor reads.
    pub fn deployment(&self) -> &Arc<Deployment> {
        &self.deployment
    }

    /// The registered program `name`.
    pub fn program(&self, name: &str) -> Result<&dyn Program, ExecError> {
        match self.deployment.registry.get(name) {
            Some(program) => Ok(program.as_ref()),
            None => Err(ExecError::UnknownProgram(name.to_owned())),
        }
    }

    /// Run attempt `ctx.attempt` of `program` under the failure plan. The
    /// plan is asked first: an attempt it fails never calls the program.
    pub fn attempt(
        &self,
        program: &dyn Program,
        ctx: &ProgramCtx,
    ) -> Result<Vec<Value>, StepFailure> {
        if self
            .deployment
            .plan
            .step_fails(ctx.instance, ctx.step, ctx.attempt)
        {
            return Err(StepFailure::new("injected logical failure"));
        }
        program.run(ctx)
    }

    /// Run the compensation program `name`, skipping one the registry does
    /// not hold: its `compensate`, then its side-effect `run` with the
    /// output dropped. `ctx` is built only for a program that runs.
    pub fn run_compensation(&self, name: Option<&str>, ctx: impl FnOnce() -> ProgramCtx) {
        if let Some(program) = name.and_then(|name| self.deployment.registry.get(name)) {
            let ctx = ctx();
            program.compensate(&ctx);
            let _ = program.run(&ctx);
        }
    }

    /// Execute `def` for `instance`: allocates the attempt in `history`,
    /// reads inputs from `env`, runs one [attempt](Self::attempt), and on
    /// success writes outputs into `env` and the completion record into
    /// `history`.
    pub fn execute(
        &self,
        def: &StepDef,
        instance: InstanceId,
        env: &mut DataEnv,
        history: &mut InstanceHistory,
    ) -> Result<StepOutcome, ExecError> {
        let program = self.program(&def.program)?;
        let attempt = history.begin_attempt(def.id);
        let ctx = ProgramCtx {
            instance,
            step: def.id,
            attempt,
            seed: self.seed(),
            inputs: env.project(&def.inputs),
        };
        match self.attempt(program, &ctx) {
            Ok(outputs) => {
                for (key, v) in declared_outputs(def, &outputs) {
                    env.set(key, v.clone());
                }
                history.record_done(def.id, attempt, ctx.inputs, outputs.clone());
                Ok(StepOutcome::Done {
                    attempt,
                    outputs,
                    cost: def.cost,
                })
            }
            Err(StepFailure { reason }) => {
                history.record_failed(def.id);
                Ok(StepOutcome::Failed { attempt, reason })
            }
        }
    }

    /// Compensate `def`: runs the compensation program (if any), removes the
    /// step's outputs from `env`, and marks the record compensated. Returns
    /// the abstract cost charged.
    pub fn compensate(
        &self,
        def: &StepDef,
        instance: InstanceId,
        env: &mut DataEnv,
        history: &mut InstanceHistory,
        partial: bool,
    ) -> u64 {
        self.run_compensation(def.compensation_program.as_deref(), || ProgramCtx {
            instance,
            step: def.id,
            attempt: history.attempts(def.id),
            seed: self.seed(),
            inputs: env.project(&def.inputs),
        });
        env.clear_step_outputs(def.id);
        history.record_compensated(def.id);
        if partial {
            (def.compensation_cost() as f64 * crate::ocr::INCREMENTAL_FRACTION) as u64
        } else {
            def.compensation_cost()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{ItemKey, SchemaId, StepId, StepState};
    use std::sync::{Arc, Mutex};

    fn executor(plan: FailurePlan) -> StepExecutor {
        StepExecutor::new(ProgramRegistry::with_builtins(), plan, 42)
    }

    fn sum_step() -> StepDef {
        let mut def = StepDef::new(StepId(1), "Sum", "sum");
        def.inputs = vec![ItemKey::input(1), ItemKey::input(2)];
        def.output_slots = 1;
        def
    }

    fn inst() -> InstanceId {
        InstanceId::new(SchemaId(1), 1)
    }

    #[test]
    fn execute_writes_outputs_and_history() {
        let ex = executor(FailurePlan::none());
        let def = sum_step();
        let mut env = DataEnv::new();
        env.set(ItemKey::input(1), Value::Int(2));
        env.set(ItemKey::input(2), Value::Int(40));
        let mut h = InstanceHistory::new();
        let out = ex.execute(&def, inst(), &mut env, &mut h).unwrap();
        assert!(out.is_done());
        assert_eq!(
            env.get(&ItemKey::output(StepId(1), 1)),
            Some(&Value::Int(42))
        );
        assert_eq!(h.state(StepId(1)), StepState::Done);
        assert_eq!(h.record(StepId(1)).unwrap().inputs.len(), 2);
    }

    #[test]
    fn injected_failure_reported() {
        let plan = FailurePlan::none().fail_step(inst(), StepId(1), 1);
        let ex = executor(plan);
        let def = sum_step();
        let mut env = DataEnv::new();
        let mut h = InstanceHistory::new();
        let out = ex.execute(&def, inst(), &mut env, &mut h).unwrap();
        assert!(matches!(out, StepOutcome::Failed { attempt: 1, .. }));
        assert_eq!(h.state(StepId(1)), StepState::Failed);
        // Second attempt succeeds.
        let out = ex.execute(&def, inst(), &mut env, &mut h).unwrap();
        assert!(matches!(out, StepOutcome::Done { attempt: 2, .. }));
    }

    /// A program that journals each call it receives.
    struct Journaled(Arc<Mutex<Vec<&'static str>>>);

    impl Program for Journaled {
        fn run(&self, _: &ProgramCtx) -> Result<Vec<Value>, StepFailure> {
            self.0.lock().unwrap().push("run");
            Ok(vec![])
        }
        fn compensate(&self, _: &ProgramCtx) {
            self.0.lock().unwrap().push("compensate");
        }
    }

    /// The plan is asked before the program: an attempt it fails never
    /// calls the program, the next attempt calls it once, and a
    /// compensation calls `compensate`, then `run`.
    #[test]
    fn plan_is_checked_before_the_program_runs() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let mut registry = ProgramRegistry::default();
        registry.register("journaled", Journaled(calls.clone()));
        let plan = FailurePlan::none().fail_step(inst(), StepId(1), 1);
        let ex = StepExecutor::new(registry, plan, 42);
        let ctx = |attempt| ProgramCtx {
            instance: inst(),
            step: StepId(1),
            attempt,
            seed: 42,
            inputs: vec![],
        };
        let program = ex.program("journaled").unwrap();
        let failed = ex.attempt(program, &ctx(1));
        assert_eq!(failed, Err(StepFailure::new("injected logical failure")));
        assert!(calls.lock().unwrap().is_empty());
        assert_eq!(ex.attempt(program, &ctx(2)), Ok(vec![]));
        assert_eq!(*calls.lock().unwrap(), ["run"]);
        ex.run_compensation(Some("journaled"), || ctx(0));
        assert_eq!(*calls.lock().unwrap(), ["run", "compensate", "run"]);
        ex.run_compensation(Some("no-such-program"), || unreachable!());
        ex.run_compensation(None, || unreachable!());
        assert_eq!(calls.lock().unwrap().len(), 3);
    }

    #[test]
    fn unknown_program_is_a_deployment_error() {
        let ex = executor(FailurePlan::none());
        let def = StepDef::new(StepId(1), "X", "no-such-program");
        let mut env = DataEnv::new();
        let mut h = InstanceHistory::new();
        assert_eq!(
            ex.execute(&def, inst(), &mut env, &mut h),
            Err(ExecError::UnknownProgram("no-such-program".into()))
        );
    }

    #[test]
    fn program_failure_reported_as_logical() {
        let ex = executor(FailurePlan::none());
        let def = StepDef::new(StepId(1), "X", "always-fail");
        let mut env = DataEnv::new();
        let mut h = InstanceHistory::new();
        let out = ex.execute(&def, inst(), &mut env, &mut h).unwrap();
        assert!(matches!(out, StepOutcome::Failed { .. }));
    }

    #[test]
    fn compensate_strips_outputs() {
        let ex = executor(FailurePlan::none());
        let mut def = sum_step();
        def.compensation_program = Some("passthrough".into());
        def.compensation_cost = Some(50);
        let mut env = DataEnv::new();
        env.set(ItemKey::input(1), Value::Int(1));
        env.set(ItemKey::input(2), Value::Int(2));
        let mut h = InstanceHistory::new();
        ex.execute(&def, inst(), &mut env, &mut h).unwrap();
        assert!(env.get(&ItemKey::output(StepId(1), 1)).is_some());
        let cost = ex.compensate(&def, inst(), &mut env, &mut h, false);
        assert_eq!(cost, 50);
        assert!(env.get(&ItemKey::output(StepId(1), 1)).is_none());
        assert_eq!(h.state(StepId(1)), StepState::Compensated);
        // Partial compensation charges the fraction.
        ex.execute(&def, inst(), &mut env, &mut h).unwrap();
        let cost = ex.compensate(&def, inst(), &mut env, &mut h, true);
        assert_eq!(cost, (50.0 * crate::ocr::INCREMENTAL_FRACTION) as u64);
    }

    #[test]
    fn extra_outputs_beyond_declared_slots_dropped() {
        let ex = executor(FailurePlan::none());
        let mut def = StepDef::new(StepId(1), "Stamp", "stamp");
        def.output_slots = 1; // stamp produces 2 values
        let mut env = DataEnv::new();
        let mut h = InstanceHistory::new();
        ex.execute(&def, inst(), &mut env, &mut h).unwrap();
        assert!(env.get(&ItemKey::output(StepId(1), 1)).is_some());
        assert!(env.get(&ItemKey::output(StepId(1), 2)).is_none());
    }
}
