//! The step executor: the piece of an agent that actually performs a step.
//!
//! Both the centralized engine's application agents and the distributed
//! agents funnel step execution through [`StepExecutor::execute`]: gather
//! the declared inputs from the instance data table, consult the failure
//! plan, run the program, and report a [`StepOutcome`]. Compensation runs
//! the step's compensation program and strips its outputs from the data
//! table.

use crate::failure::FailurePlan;
use crate::history::InstanceHistory;
use crate::nav::declared_outputs;
use crate::program::{ProgramCtx, ProgramRegistry, StepFailure};
use crew_model::{DataEnv, InstanceId, StepDef, Value};

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

/// Stateless executor bundling the program registry and failure plan.
#[derive(Debug, Clone)]
pub struct StepExecutor {
    /// Registry.
    pub registry: ProgramRegistry,
    /// Plan.
    pub plan: FailurePlan,
    /// Run seed forwarded to programs.
    pub seed: u64,
}

impl StepExecutor {
    /// Create a new, empty value.
    pub fn new(registry: ProgramRegistry, plan: FailurePlan, seed: u64) -> Self {
        StepExecutor {
            registry,
            plan,
            seed,
        }
    }

    /// Execute `def` for `instance`: allocates the attempt in `history`,
    /// reads inputs from `env`, runs the program (unless the failure plan
    /// injects a failure), and on success writes outputs into `env` and the
    /// completion record into `history`.
    pub fn execute(
        &self,
        def: &StepDef,
        instance: InstanceId,
        env: &mut DataEnv,
        history: &mut InstanceHistory,
    ) -> Result<StepOutcome, ExecError> {
        let program = self
            .registry
            .get(&def.program)
            .ok_or_else(|| ExecError::UnknownProgram(def.program.clone()))?
            .clone();
        let attempt = history.begin_attempt(def.id);
        let inputs = env.project(&def.input_keys());

        if self.plan.step_fails(instance, def.id, attempt) {
            history.record_failed(def.id);
            return Ok(StepOutcome::Failed {
                attempt,
                reason: "injected logical failure".to_owned(),
            });
        }

        let ctx = ProgramCtx {
            instance,
            step: def.id,
            attempt,
            seed: self.seed,
            inputs: inputs.clone(),
        };
        match program.run(&ctx) {
            Ok(outputs) => {
                for (key, v) in declared_outputs(def, &outputs) {
                    env.set(key, v.clone());
                }
                history.record_done(def.id, attempt, inputs, outputs.clone());
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
        if let Some(name) = &def.compensation_program {
            if let Some(program) = self.registry.get(name) {
                let ctx = ProgramCtx {
                    instance,
                    step: def.id,
                    attempt: history.attempts(def.id),
                    seed: self.seed,
                    inputs: env.project(&def.input_keys()),
                };
                program.compensate(&ctx);
                // Compensation programs may also *run* side-effect logic.
                let _ = program.run(&ctx);
            }
        }
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
    use crew_model::{InputBinding, ItemKey, SchemaId, StepId, StepState};

    fn executor(plan: FailurePlan) -> StepExecutor {
        StepExecutor::new(ProgramRegistry::with_builtins(), plan, 42)
    }

    fn sum_step() -> StepDef {
        let mut def = StepDef::new(StepId(1), "Sum", "sum");
        def.inputs = vec![
            InputBinding {
                source: ItemKey::input(1),
            },
            InputBinding {
                source: ItemKey::input(2),
            },
        ];
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
