//! Shared helpers for the CREW integration test suite.
//!
//! The central utility is [`ExecLog`]: a program-side execution trace that
//! records `(instance, step, attempt)` in global execution order, letting
//! tests assert cross-instance ordering properties (relative ordering,
//! mutual-exclusion serialization, reverse-order compensation) that the
//! engines must enforce.

use crew_exec::{FnProgram, ProgramRegistry, StepFailure};
use crew_model::{InstanceId, StepId, Value};
use std::sync::{Arc, Mutex};

/// A shared, append-only execution trace fed by instrumented programs.
#[derive(Clone, Default)]
pub struct ExecLog {
    entries: Arc<Mutex<Vec<(InstanceId, StepId, u32)>>>,
}

impl ExecLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the instrumented program `name` into `registry`: it logs
    /// each run and outputs its attempt number.
    pub fn register(&self, registry: &mut ProgramRegistry, name: &str) {
        let entries = self.entries.clone();
        registry.register(
            name,
            FnProgram(move |ctx: &crew_exec::ProgramCtx| {
                entries
                    .lock()
                    .unwrap()
                    .push((ctx.instance, ctx.step, ctx.attempt));
                Ok(vec![Value::Int(ctx.attempt as i64)])
            }),
        );
    }

    /// Register a variant that fails on its first attempt (per instance).
    pub fn register_flaky(&self, registry: &mut ProgramRegistry, name: &str) {
        let entries = self.entries.clone();
        registry.register(
            name,
            FnProgram(move |ctx: &crew_exec::ProgramCtx| {
                entries
                    .lock()
                    .unwrap()
                    .push((ctx.instance, ctx.step, ctx.attempt));
                if ctx.attempt == 1 {
                    Err(StepFailure::new("flaky first attempt"))
                } else {
                    Ok(vec![Value::Int(ctx.attempt as i64)])
                }
            }),
        );
    }

    /// Snapshot of the trace.
    pub fn entries(&self) -> Vec<(InstanceId, StepId, u32)> {
        self.entries.lock().unwrap().clone()
    }

    /// Global position of the first execution of `(instance, step)`.
    pub fn position(&self, instance: InstanceId, step: StepId) -> Option<usize> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .position(|&(i, s, _)| i == instance && s == step)
    }

    /// Position of the *last* execution of `(instance, step)`.
    pub fn last_position(&self, instance: InstanceId, step: StepId) -> Option<usize> {
        let entries = self.entries.lock().unwrap();
        entries
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &(i, s, _))| i == instance && s == step)
            .map(|(idx, _)| idx)
    }

    /// How many times `(instance, step)` executed.
    pub fn count(&self, instance: InstanceId, step: StepId) -> usize {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .filter(|&&(i, s, _)| i == instance && s == step)
            .count()
    }

    /// Assert `(ia, sa)` executed (first) before `(ib, sb)`.
    pub fn assert_before(&self, ia: InstanceId, sa: StepId, ib: InstanceId, sb: StepId) {
        let pa = self
            .position(ia, sa)
            .unwrap_or_else(|| panic!("{ia}.{sa} never executed"));
        let pb = self
            .position(ib, sb)
            .unwrap_or_else(|| panic!("{ib}.{sb} never executed"));
        assert!(
            pa < pb,
            "{ia}.{sa} (#{pa}) should precede {ib}.{sb} (#{pb})"
        );
    }
}

/// Build a linear schema of `steps` steps, all running the instrumented
/// program `prog`, with eligibility spread over `agents` agents (one agent
/// per step, round-robin).
pub fn linear_logged_schema(
    id: u32,
    steps: u32,
    agents: u32,
    prog: &str,
) -> crew_model::WorkflowSchema {
    use crew_model::{AgentId, SchemaBuilder, SchemaId};
    let mut b = SchemaBuilder::new(SchemaId(id), format!("lin{id}")).inputs(1);
    let ids: Vec<_> = (0..steps)
        .map(|i| b.add_step(format!("S{}", i + 1), prog))
        .collect();
    for w in ids.windows(2) {
        b.seq(w[0], w[1]);
    }
    for (i, s) in ids.iter().enumerate() {
        let agent = AgentId(i as u32 % agents);
        b.configure(*s, |d| {
            d.eligible_agents = vec![agent];
            d.compensation_program = Some("passthrough".into());
        });
    }
    b.build().expect("valid linear schema")
}

/// A linear schema of `steps` steps running the instrumented program
/// `log`, step `i` (from 0) on agent `(agent_base + i) % 6`, each with a
/// `passthrough` compensation: two instances on bases 0 and 3 meet on
/// every agent of a six-agent system.
pub fn logged_linear(id: u32, steps: u32, agent_base: u32) -> crew_model::WorkflowSchema {
    use crew_model::{AgentId, SchemaBuilder, SchemaId};
    let mut b = SchemaBuilder::new(SchemaId(id), format!("wf{id}")).inputs(1);
    let ids: Vec<_> = (0..steps)
        .map(|i| b.add_step(format!("S{}", i + 1), "log"))
        .collect();
    for w in ids.windows(2) {
        b.seq(w[0], w[1]);
    }
    for (i, s) in ids.iter().enumerate() {
        b.configure(*s, |d| {
            d.eligible_agents = vec![AgentId((agent_base + i as u32) % 6)];
            d.compensation_program = Some("passthrough".into());
        });
    }
    b.build().unwrap()
}

/// A → B → C → D running `log`: A on agent 0, and each later step
/// eligible on agents 1, 2 and 3, so load-balanced selection has a choice
/// at every forward.
pub fn multi_eligible_schema() -> crew_model::WorkflowSchema {
    use crew_model::{AgentId, SchemaBuilder, SchemaId};
    let mut b = SchemaBuilder::new(SchemaId(1), "lb").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "log");
    let s3 = b.add_step("C", "log");
    let s4 = b.add_step("D", "log");
    b.seq(s1, s2).seq(s2, s3).seq(s3, s4);
    b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
    for s in [s2, s3, s4] {
        b.configure(s, |d| {
            d.eligible_agents = vec![AgentId(1), AgentId(2), AgentId(3)]
        });
    }
    b.build().unwrap()
}
