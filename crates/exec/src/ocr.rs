//! Opportunistic compensation and re-execution (OCR) — the decision
//! procedure of Figure 5.
//!
//! When rollback + re-execution revisits a step that already executed, OCR
//! evaluates the step's *compensation and re-execution condition* against
//! the current data table (including the recorded inputs of the previous
//! execution) and picks one of three courses:
//!
//! 1. **Reuse** — the previous execution's results suffice: no compensation,
//!    no re-execution; a `step.done` event is generated immediately.
//! 2. **Partial compensation + incremental re-execution** — undo and redo
//!    only the delta; costs a configurable fraction of a full run.
//! 3. **Complete compensation + complete re-execution** — the previous
//!    execution is useless in the new context.
//!
//! If the step belongs to a compensation dependent set, members of the set
//! that executed *after* it must be compensated first, in reverse execution
//! order — the hosts drive that via the `CompensateSet` protocol and then
//! apply the per-step decision below.

use crate::failure::FailurePlan;
use crate::history::InstanceHistory;
use crew_model::{CompensationKind, DataEnv, InstanceId, ReexecPolicy, StepDef, StepState};

/// Fraction of a full execution charged for an incremental re-execution
/// (and of a full compensation for a partial one). The paper leaves the
/// magnitude to the application; a quarter is a representative "savings are
/// considerable" setting and is swept by the ablation benches.
pub const INCREMENTAL_FRACTION: f64 = 0.25;

/// The outcome of the OCR decision for one revisited step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OcrDecision {
    /// Previous results are reused; emit `step.done` without running
    /// anything.
    Reuse,
    /// Compensate partially, then re-execute incrementally.
    PartialCompensateIncrementalReexec,
    /// Compensate completely, then re-execute from scratch.
    CompleteCompensateCompleteReexec,
    /// The step never executed (or was already compensated): execute
    /// normally; nothing to compensate.
    ExecuteFresh,
}

impl OcrDecision {
    /// Does this decision involve running the program (fully or
    /// incrementally)?
    pub fn reexecutes(self) -> bool {
        !matches!(self, OcrDecision::Reuse)
    }

    /// Does this decision involve compensating the previous execution?
    pub fn compensates(self) -> bool {
        matches!(
            self,
            OcrDecision::PartialCompensateIncrementalReexec
                | OcrDecision::CompleteCompensateCompleteReexec
        )
    }

    /// Abstract instruction cost of the decision given the step definition.
    pub fn cost(self, def: &StepDef) -> u64 {
        match self {
            OcrDecision::Reuse => 0,
            OcrDecision::PartialCompensateIncrementalReexec => {
                let comp = (def.compensation_cost() as f64 * INCREMENTAL_FRACTION) as u64;
                let run = (def.cost as f64 * INCREMENTAL_FRACTION) as u64;
                comp + run
            }
            OcrDecision::CompleteCompensateCompleteReexec => def.compensation_cost() + def.cost,
            OcrDecision::ExecuteFresh => def.cost,
        }
    }
}

/// Evaluate the OCR decision for a revisited `step`.
///
/// ```
/// use crew_exec::{ocr_decide, FailurePlan, InstanceHistory, OcrDecision};
/// use crew_model::{DataEnv, InstanceId, SchemaId, StepDef, StepId};
///
/// let def = StepDef::new(StepId(1), "S1", "p");
/// let inst = InstanceId::new(SchemaId(1), 1);
/// let mut history = InstanceHistory::new();
/// // Never executed: plain execution.
/// assert_eq!(
///     ocr_decide(&def, inst, &history, &DataEnv::new(), &FailurePlan::none()),
///     OcrDecision::ExecuteFresh
/// );
/// // Executed with unchanged (empty) inputs: reuse the previous result.
/// let a = history.begin_attempt(def.id);
/// history.record_done(def.id, a, vec![], vec![]);
/// assert_eq!(
///     ocr_decide(&def, inst, &history, &DataEnv::new(), &FailurePlan::none()),
///     OcrDecision::Reuse
/// );
/// ```
///
/// * `def` — the step definition (policy, compensation kind).
/// * `history` — the instance's execution history at the deciding node.
/// * `env` — the instance's current data table (new inputs already merged).
/// * `plan` — failure plan supplying the `pr` drift draw for workloads
///   whose input changes are not visible in the data table.
pub fn decide(
    def: &StepDef,
    instance: InstanceId,
    history: &InstanceHistory,
    env: &DataEnv,
    plan: &FailurePlan,
) -> OcrDecision {
    let record = match history.record(def.id) {
        Some(r) if r.state == StepState::Done => r,
        // Never completed (or compensated already): plain execution.
        _ => return OcrDecision::ExecuteFresh,
    };

    let needs_reexec = match &def.reexec {
        ReexecPolicy::Never => false,
        ReexecPolicy::Always => true,
        ReexecPolicy::IfInputsChanged => {
            let current = env.project(&def.inputs);
            current != record.inputs || plan.revisit_requires_reexec(instance, def.id)
        }
        ReexecPolicy::When(cond) => cond.eval_bool(env).unwrap_or(true),
    };

    if !needs_reexec {
        return OcrDecision::Reuse;
    }
    match def.compensation_kind {
        CompensationKind::Partial => OcrDecision::PartialCompensateIncrementalReexec,
        CompensationKind::Complete => OcrDecision::CompleteCompensateCompleteReexec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{Expr, ItemKey, SchemaId, StepId, Value};

    fn setup(policy: ReexecPolicy, comp: CompensationKind) -> (StepDef, InstanceId) {
        let mut def = StepDef::new(StepId(2), "S2", "p");
        def.reexec = policy;
        def.compensation_kind = comp;
        def.inputs = vec![ItemKey::input(1)];
        def.cost = 100;
        def.compensation_cost = Some(80);
        (def, InstanceId::new(SchemaId(1), 1))
    }

    fn history_done(def: &StepDef, input: i64) -> InstanceHistory {
        let mut h = InstanceHistory::new();
        let a = h.begin_attempt(def.id);
        h.record_done(
            def.id,
            a,
            vec![Some(Value::Int(input))],
            vec![Value::Int(0)],
        );
        h
    }

    fn env_with(input: i64) -> DataEnv {
        let mut e = DataEnv::new();
        e.set(ItemKey::input(1), Value::Int(input));
        e
    }

    #[test]
    fn fresh_when_no_record() {
        let (def, inst) = setup(ReexecPolicy::IfInputsChanged, CompensationKind::Complete);
        let h = InstanceHistory::new();
        assert_eq!(
            decide(&def, inst, &h, &env_with(1), &FailurePlan::none()),
            OcrDecision::ExecuteFresh
        );
    }

    #[test]
    fn fresh_when_already_compensated() {
        let (def, inst) = setup(ReexecPolicy::IfInputsChanged, CompensationKind::Complete);
        let mut h = history_done(&def, 1);
        h.record_compensated(def.id);
        assert_eq!(
            decide(&def, inst, &h, &env_with(1), &FailurePlan::none()),
            OcrDecision::ExecuteFresh
        );
    }

    #[test]
    fn reuse_when_inputs_unchanged() {
        let (def, inst) = setup(ReexecPolicy::IfInputsChanged, CompensationKind::Complete);
        let h = history_done(&def, 5);
        assert_eq!(
            decide(&def, inst, &h, &env_with(5), &FailurePlan::none()),
            OcrDecision::Reuse
        );
    }

    #[test]
    fn reexec_when_inputs_changed() {
        let (def, inst) = setup(ReexecPolicy::IfInputsChanged, CompensationKind::Complete);
        let h = history_done(&def, 5);
        assert_eq!(
            decide(&def, inst, &h, &env_with(6), &FailurePlan::none()),
            OcrDecision::CompleteCompensateCompleteReexec
        );
    }

    #[test]
    fn partial_when_step_declares_partial_compensation() {
        let (def, inst) = setup(ReexecPolicy::Always, CompensationKind::Partial);
        let h = history_done(&def, 5);
        assert_eq!(
            decide(&def, inst, &h, &env_with(5), &FailurePlan::none()),
            OcrDecision::PartialCompensateIncrementalReexec
        );
    }

    #[test]
    fn never_policy_always_reuses() {
        let (def, inst) = setup(ReexecPolicy::Never, CompensationKind::Complete);
        let h = history_done(&def, 5);
        assert_eq!(
            decide(&def, inst, &h, &env_with(999), &FailurePlan::none()),
            OcrDecision::Reuse
        );
    }

    #[test]
    fn custom_condition_policy() {
        let cond = Expr::gt(Expr::item(ItemKey::input(1)), Expr::lit(10));
        let (def, inst) = setup(ReexecPolicy::When(cond), CompensationKind::Complete);
        let h = history_done(&def, 5);
        assert_eq!(
            decide(&def, inst, &h, &env_with(11), &FailurePlan::none()),
            OcrDecision::CompleteCompensateCompleteReexec
        );
        assert_eq!(
            decide(&def, inst, &h, &env_with(9), &FailurePlan::none()),
            OcrDecision::Reuse
        );
    }

    #[test]
    fn custom_condition_error_falls_back_to_reexec() {
        // A condition over a missing item cannot prove reuse is safe:
        // default to re-execution (the conservative choice).
        let cond = Expr::gt(Expr::item(ItemKey::input(9)), Expr::lit(10));
        let (def, inst) = setup(ReexecPolicy::When(cond), CompensationKind::Complete);
        let h = history_done(&def, 5);
        assert_eq!(
            decide(&def, inst, &h, &env_with(5), &FailurePlan::none()),
            OcrDecision::CompleteCompensateCompleteReexec
        );
    }

    #[test]
    fn pr_drift_forces_reexec_despite_equal_inputs() {
        let (def, inst) = setup(ReexecPolicy::IfInputsChanged, CompensationKind::Complete);
        let h = history_done(&def, 5);
        let plan = FailurePlan::probabilistic(3, 0.0, 0.0, 0.0, 1.0);
        assert_eq!(
            decide(&def, inst, &h, &env_with(5), &plan),
            OcrDecision::CompleteCompensateCompleteReexec
        );
    }

    #[test]
    fn decision_costs() {
        let (def, _) = setup(ReexecPolicy::Always, CompensationKind::Complete);
        assert_eq!(OcrDecision::Reuse.cost(&def), 0);
        assert_eq!(OcrDecision::ExecuteFresh.cost(&def), 100);
        assert_eq!(
            OcrDecision::CompleteCompensateCompleteReexec.cost(&def),
            180
        );
        assert_eq!(
            OcrDecision::PartialCompensateIncrementalReexec.cost(&def),
            (80.0 * INCREMENTAL_FRACTION) as u64 + (100.0 * INCREMENTAL_FRACTION) as u64
        );
    }

    #[test]
    fn decision_predicates() {
        assert!(!OcrDecision::Reuse.reexecutes());
        assert!(!OcrDecision::Reuse.compensates());
        assert!(OcrDecision::ExecuteFresh.reexecutes());
        assert!(!OcrDecision::ExecuteFresh.compensates());
        assert!(OcrDecision::CompleteCompensateCompleteReexec.compensates());
        assert!(OcrDecision::PartialCompensateIncrementalReexec.compensates());
    }
}
