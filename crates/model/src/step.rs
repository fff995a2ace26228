//! Step definitions.
//!
//! A step is the unit of work in a workflow schema: it names a *program*
//! (a black box to the WFMS), declares the data items it reads and the
//! output slots it writes, lists the agents eligible to execute it, and —
//! for recovery — an optional compensation program plus an OCR policy.

use crate::expr::Expr;
use crate::ids::{AgentId, StepId};
use crate::value::ItemKey;

/// Whether the step's program changes shared resources. The paper
/// distinguishes *update* from *query* steps when recovering from a
/// predecessor-agent failure: a query step may simply be re-run at another
/// eligible agent, an update step must wait for the failed agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Update.
    Update,
    /// Query.
    Query,
}

/// Current state of one step within an instance: what the execution
/// history holds, what an agent journals in its step table and what it
/// answers a `StepStatus` poll with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepState {
    /// Never executed (or fully rolled back and forgotten).
    NotExecuted,
    /// Currently executing.
    Executing,
    /// Completed successfully.
    Done,
    /// Last attempt failed.
    Failed,
    /// Effects undone by compensation.
    Compensated,
}

/// How a step's effects are undone during rollback, mirroring the paper's
/// two compensation flavours (§3: "Two types of compensation are possible —
/// complete and partial").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompensationKind {
    /// Undo everything the step did; its outputs are removed from the data
    /// table and a re-execution starts from scratch.
    #[default]
    Complete,
    /// Undo only the delta relative to the new inputs; the matching
    /// re-execution is *incremental* and costs a fraction of a full run.
    Partial,
}

/// The *compensation and re-execution condition* of the OCR scheme. When a
/// rolled-back step is revisited, this policy — evaluated against the data
/// table including the inputs of the previous execution — decides the course
/// of action (paper §3 and Figure 5).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ReexecPolicy {
    /// Re-execute only when the step's declared inputs differ from those of
    /// its previous execution; otherwise the previous results are reused.
    /// This is the paper's headline case: "results from the previous
    /// execution of the steps can be re-used".
    #[default]
    IfInputsChanged,
    /// Always compensate and re-execute (Saga-like behaviour for this step).
    Always,
    /// Never re-execute on revisit: the previous results always suffice.
    Never,
    /// Custom condition over the data table: re-execute iff it is true.
    When(Expr),
}

/// A step definition within a workflow schema.
#[derive(Debug, Clone, PartialEq)]
pub struct StepDef {
    /// Stable identifier within its collection.
    pub id: StepId,
    /// Human-readable name ("CheckStock").
    pub name: String,
    /// Name of the program executed to perform the step. Programs are
    /// resolved by the execution substrate's program registry.
    pub program: String,
    /// Program run to compensate the step, if the step is compensatable.
    pub compensation_program: Option<String>,
    /// Update vs. query (see [`StepKind`]).
    pub kind: StepKind,
    /// Data items the step reads, in declaration order. They double as
    /// the schema's *data arcs*: every `ItemKey::output` source is an arc
    /// from its producer step to this one.
    pub inputs: Vec<ItemKey>,
    /// Number of output slots the step writes (`S<k>.O1 ..= S<k>.O<n>`).
    pub output_slots: u16,
    /// Agents eligible to execute this step (the paper's parameter `a`).
    /// Must be non-empty in a valid schema.
    pub eligible_agents: Vec<AgentId>,
    /// Abstract instruction cost of executing the program (the paper's `l`
    /// is the *navigation* load; this is the application work, reported
    /// separately by the metrics).
    pub cost: u64,
    /// Cost of complete compensation (defaults to `cost` if `None`).
    pub compensation_cost: Option<u64>,
    /// OCR policy for this step.
    pub reexec: ReexecPolicy,
    /// Compensation flavour used when this step *is* compensated.
    pub compensation_kind: CompensationKind,
    /// The `retry(N)` budget: in-place re-dispatches of a failed attempt on
    /// top of the first, before the paper's rollback protocol takes over.
    /// `None` is the paper's plain semantics.
    pub retry: Option<u32>,
}

impl StepDef {
    /// Minimal step: a named program with defaults everywhere else. The
    /// schema builder fills in ids and eligibility.
    pub fn new(id: StepId, name: impl Into<String>, program: impl Into<String>) -> Self {
        StepDef {
            id,
            name: name.into(),
            program: program.into(),
            compensation_program: None,
            kind: StepKind::Update,
            inputs: Vec::new(),
            output_slots: 1,
            eligible_agents: Vec::new(),
            cost: 100,
            compensation_cost: None,
            reexec: ReexecPolicy::default(),
            compensation_kind: CompensationKind::default(),
            retry: None,
        }
    }

    /// The item keys this step writes.
    pub fn output_keys(&self) -> Vec<ItemKey> {
        (1..=self.output_slots)
            .map(|slot| ItemKey::output(self.id, slot))
            .collect()
    }

    /// Effective cost of compensating the step completely.
    pub fn compensation_cost(&self) -> u64 {
        self.compensation_cost.unwrap_or(self.cost)
    }

    /// True if the step declares a way to undo itself.
    pub fn is_compensatable(&self) -> bool {
        self.compensation_program.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_keys_enumerate_slots() {
        let mut s = StepDef::new(StepId(2), "Reserve", "inventory.reserve");
        s.output_slots = 2;
        let keys = s.output_keys();
        assert_eq!(
            keys,
            vec![ItemKey::output(StepId(2), 1), ItemKey::output(StepId(2), 2)]
        );
    }

    #[test]
    fn compensation_cost_defaults_to_cost() {
        let mut s = StepDef::new(StepId(1), "X", "p");
        s.cost = 250;
        assert_eq!(s.compensation_cost(), 250);
        s.compensation_cost = Some(40);
        assert_eq!(s.compensation_cost(), 40);
    }

    #[test]
    fn compensatable_iff_program_present() {
        let mut s = StepDef::new(StepId(1), "X", "p");
        assert!(!s.is_compensatable());
        s.compensation_program = Some("p.undo".into());
        assert!(s.is_compensatable());
    }
}
