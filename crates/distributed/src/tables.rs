//! Tests of an agent's AGDB tables (§4.1): the instance data tables, the
//! step table and the coordination instance summary table, as
//! `DistAgent::on_recover` folds them back out of the agent's journal.
//!
//! No copy of the tables is kept: live, the agent's navigators hold them,
//! and a crash leaves only the log. Each test drives one agent with a
//! few messages, crashes it, recovers it and reads the tables back
//! through the agent's accessors.

#[cfg(test)]
mod tests {
    use crate::agent::DistAgent;
    use crate::msg::DistMsg;
    use crate::packet::WorkflowPacket;
    use crate::runtime::{Directory, DistConfig, SharedCtx};
    use crew_exec::{Deployment, FailurePlan, StepState};
    use crew_model::{
        AgentId, InstanceId, ItemKey, RetryPolicy, SchemaBuilder, SchemaId, StepId, Value,
    };
    use crew_simnet::{Ctx, Node, NodeId};
    use crew_storage::{DbOp, InstanceStatus};
    use std::sync::Arc;

    const S1: StepId = StepId(1);
    const S2: StepId = StepId(2);

    fn inst(n: u32) -> InstanceId {
        InstanceId::new(SchemaId(1), n)
    }

    /// One agent running S1 → S2, both on it with an in-place retry
    /// budget; S1 copies the workflow input into its output. `plan`
    /// scripts which attempts fail.
    fn agent(plan: FailurePlan) -> DistAgent {
        let mut b = SchemaBuilder::new(SchemaId(1), "wf1").inputs(1);
        let s1 = b.add_step("S1", "passthrough");
        let s2 = b.add_step("S2", "passthrough");
        b.seq(s1, s2);
        b.read(s1, ItemKey::input(1));
        for s in [s1, s2] {
            b.configure(s, |d| {
                d.eligible_agents = vec![AgentId(0)];
                d.policy.retry = Some(RetryPolicy::bounded(5));
            });
        }
        let mut deployment = Deployment::new([b.build().unwrap()]);
        deployment.plan = plan;
        let shared = SharedCtx {
            deployment: Arc::new(deployment),
            directory: Directory::new(1),
            config: DistConfig::default(),
        };
        DistAgent::new(AgentId(0), shared)
    }

    /// Deliver `msg` to `a`; what it sends is dropped.
    fn deliver(a: &mut DistAgent, msg: DistMsg) {
        a.on_message(NodeId(0), msg, &mut Ctx::detached(0, NodeId(0)));
    }

    fn start(a: &mut DistAgent, instance: InstanceId, input: i64) {
        let inputs = vec![(ItemKey::input(1), Value::Int(input))];
        let parent = None;
        deliver(
            a,
            DistMsg::WorkflowStart {
                instance,
                inputs,
                parent,
            },
        );
    }

    fn crash_and_recover(a: &mut DistAgent) {
        a.on_crash();
        assert!(
            a.history_of(inst(1)).is_none(),
            "a crash keeps only the log"
        );
        a.on_recover(&mut Ctx::detached(10, NodeId(0)));
        assert!(!a.is_halted());
    }

    /// A step's row as the step table holds it: state, attempt counter
    /// and, while it stands, the attempt and outputs of its execution.
    fn row(a: &DistAgent, instance: InstanceId, step: StepId) -> impl PartialEq + std::fmt::Debug {
        let history = a.history_of(instance).expect("instance known");
        let standing = history.record(step).map(|r| (r.attempt, r.outputs.clone()));
        (history.state(step), history.attempts(step), standing)
    }

    /// Data, step rows and the summary row all come back from the log.
    #[test]
    fn apply_builds_projection() {
        let mut a = agent(FailurePlan::none());
        start(&mut a, inst(1), 90);
        crash_and_recover(&mut a);

        let data = a.data_of(inst(1)).expect("instance table rebuilt");
        assert_eq!(data.get(&ItemKey::input(1)), Some(&Value::Int(90)));
        assert_eq!(data.get(&ItemKey::output(S1, 1)), Some(&Value::Int(90)));
        let history = a.history_of(inst(1)).unwrap();
        assert_eq!(history.state(S1), StepState::Done);
        assert_eq!(history.state(S2), StepState::Done);
        assert_eq!(a.instance_status(inst(1)), Some(InstanceStatus::Committed));
    }

    /// Folding the log rebuilds what applying the same facts live built:
    /// a step that failed and then completed reads as its last attempt.
    #[test]
    fn replay_equals_apply() {
        let mut a = agent(FailurePlan::none().fail_step(inst(1), S1, 1));
        start(&mut a, inst(1), 7);
        // The retry is a self-send the detached context drops.
        let (instance, step) = (inst(1), S1);
        deliver(&mut a, DistMsg::StepRetry { instance, step });
        let live = [S1, S2].map(|s| row(&a, inst(1), s));
        let data = a.data_of(inst(1)).cloned();

        crash_and_recover(&mut a);
        assert_eq!([S1, S2].map(|s| row(&a, inst(1), s)), live);
        assert_eq!(a.data_of(inst(1)).cloned(), data);
        let record = a.history_of(inst(1)).unwrap().record(S1).unwrap();
        assert_eq!(
            (record.state, record.attempt, &record.outputs[..]),
            (StepState::Done, 2, &[Value::Int(7)][..])
        );
    }

    /// The log survives recovery: an aborted instance's summary row and
    /// the coordinator's verdict come back after each of two crashes.
    #[test]
    fn wal_backed_recovery() {
        let mut a = agent(FailurePlan::none().fail_step(inst(1), S1, 1));
        start(&mut a, inst(1), 4);
        deliver(&mut a, DistMsg::WorkflowAbort { instance: inst(1) });
        assert_eq!(a.instance_status(inst(1)), Some(InstanceStatus::Aborted));
        let before = row(&a, inst(1), S1);

        for _ in 0..2 {
            crash_and_recover(&mut a);
            assert_eq!(a.instance_status(inst(1)), Some(InstanceStatus::Aborted));
            assert_eq!(row(&a, inst(1), S1), before);
            assert_eq!(
                a.data_of(inst(1)).unwrap().get(&ItemKey::input(1)),
                Some(&Value::Int(4))
            );
        }
    }

    /// An engine's command records in an agent's log are skipped by the
    /// fold: they create no instance and change no table.
    #[test]
    fn engine_input_is_not_a_table_op() {
        let mut a = agent(FailurePlan::none());
        start(&mut a, inst(1), 3);
        let data = a.data_of(inst(1)).cloned();
        let engine_records = [
            DbOp::EngineInput {
                from: 3,
                payload: vec![1, 2, 3],
            },
            DbOp::CommandsDropped {
                records: 2,
                installs: 0,
            },
        ];
        for op in &engine_records {
            a.wal.append(op).unwrap();
        }

        crash_and_recover(&mut a);
        assert_eq!(a.data_of(inst(1)).cloned(), data);
        assert_eq!(a.instance_status(inst(1)), Some(InstanceStatus::Committed));
        for n in [0, 2, 3] {
            assert!(a.history_of(inst(n)).is_none(), "instance {n} appeared");
        }
    }

    /// A purged instance stays gone after recovery; the others stay.
    #[test]
    fn purge_drops_instance_state() {
        let mut a = agent(FailurePlan::none());
        start(&mut a, inst(1), 1);
        // Instance 2 reaches this agent as a packet alone, so the agent is
        // no coordinator of it and purges it on the broadcast.
        let data = [(ItemKey::input(1), Value::Int(2))].into_iter().collect();
        let packet = WorkflowPacket::initial(inst(2), S1, data);
        deliver(&mut a, DistMsg::StepExecute { packet });
        assert!(a.history_of(inst(2)).is_some());
        let instances = vec![inst(2)];
        deliver(&mut a, DistMsg::PurgeBroadcast { instances });
        assert!(a.history_of(inst(2)).is_none());

        crash_and_recover(&mut a);
        assert!(a.history_of(inst(2)).is_none());
        assert!(a.data_of(inst(2)).is_none());
        assert_eq!(a.instance_status(inst(1)), Some(InstanceStatus::Committed));
    }
}
