//! Property tests over the simulator: per-channel FIFO delivery and
//! seed-determinism under arbitrary fan-outs; and over the channel log:
//! compaction never changes the state the log describes.

use crew_simnet::reliable::PersistedChannelState;
use crew_simnet::{Classify, Ctx, Mechanism, Node, NodeId, OutboxLog, Simulation, WalOutbox};
use proptest::prelude::*;
use std::any::Any;

#[derive(Debug, Clone)]
struct Seq(u32);

impl Classify for Seq {
    fn kind(&self) -> &'static str {
        "Seq"
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Normal
    }
}

/// Emits `count` numbered messages to `peer` on start.
struct Burster {
    peer: NodeId,
    count: u32,
}

impl Node<Seq> for Burster {
    fn on_start(&mut self, ctx: &mut Ctx<Seq>) {
        for i in 0..self.count {
            ctx.send(self.peer, Seq(i));
        }
    }
    fn on_message(&mut self, _: NodeId, _: Seq, _: &mut Ctx<Seq>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Records arrival order per sender.
#[derive(Default)]
struct Recorder {
    got: Vec<(NodeId, u32)>,
}

impl Node<Seq> for Recorder {
    fn on_message(&mut self, from: NodeId, msg: Seq, _: &mut Ctx<Seq>) {
        self.got.push((from, msg.0));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A replayed state as comparable data. A peer whose outbox is empty and a
/// peer with no outbox entry are the same state (a checkpoint drops the
/// empty ones).
type Comparable = (
    Vec<(NodeId, Vec<(u64, u64)>)>,
    Vec<(NodeId, u64)>,
    Vec<(NodeId, u64)>,
);

fn comparable(state: PersistedChannelState<u64>) -> Comparable {
    (
        state
            .outbox
            .into_iter()
            .filter(|(_, unacked)| !unacked.is_empty())
            .map(|(peer, unacked)| (peer, unacked.into_iter().collect()))
            .collect(),
        state.next_seq.into_iter().collect(),
        state.delivered.into_iter().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The self-compacting log and its never-compacting twin replay to the
    /// same state after any sequence of sends, acks and cursor advances —
    /// also when a replay (which rebuilds what compaction writes from)
    /// happens part-way.
    #[test]
    fn compaction_preserves_the_replayed_state(
        ops in proptest::collection::vec((0u8..4, 0u32..3, 1u64..12), 0..600),
        replay_at in 0usize..600,
    ) {
        let mut log = WalOutbox::<u64>::new();
        let mut twin = WalOutbox::<u64>::without_checkpointing();
        let mut next = [1u64; 3];
        let mut compacted = false;
        for (n, &(kind, peer, v)) in ops.iter().enumerate() {
            let before = log.log_len();
            let to = NodeId(peer);
            for l in [&mut log, &mut twin] {
                match kind {
                    // Fresh sends at twice the rate of acks, so outboxes
                    // both build up and drain.
                    0 | 1 => l.log_send(to, next[peer as usize], &(v * 1000 + n as u64)),
                    // Acks reach back `v` from the newest seq, so some
                    // trim nothing and some trim several.
                    2 => l.log_ack(to, next[peer as usize].saturating_sub(v)),
                    _ => l.log_delivered(to, v + n as u64 / 8),
                }
            }
            if kind < 2 {
                next[peer as usize] += 1;
            }
            compacted |= log.log_len() <= before;
            if n == replay_at {
                prop_assert_eq!(comparable(log.replay()), comparable(twin.replay()));
            }
        }
        prop_assert_eq!(twin.log_len(), ops.len() as u64);
        prop_assert!(compacted || ops.len() < 200, "{} ops never compacted", ops.len());
        prop_assert_eq!(comparable(log.replay()), comparable(twin.replay()));
    }

    /// Messages between one (sender, receiver) pair arrive in send order,
    /// for any seed and any number of interleaved senders.
    #[test]
    fn fifo_per_channel(seed in 0u64..5000, senders in 1u32..5, count in 1u32..20) {
        let mut sim = Simulation::new(seed);
        let recorder = NodeId(0);
        sim.add_node(Recorder::default());
        for _ in 0..senders {
            sim.add_node(Burster { peer: recorder, count });
        }
        sim.run();
        let rec = sim.node_as::<Recorder>(recorder).unwrap();
        prop_assert_eq!(rec.got.len() as u32, senders * count);
        // Per-sender subsequences are strictly increasing.
        for s in 1..=senders {
            let seq: Vec<u32> = rec
                .got
                .iter()
                .filter(|(f, _)| *f == NodeId(s))
                .map(|(_, v)| *v)
                .collect();
            prop_assert!(seq.windows(2).all(|w| w[0] < w[1]), "sender {s}: {seq:?}");
        }
    }

    /// Same seed ⇒ identical delivery schedule (virtual end time and total
    /// message count); different seeds may differ.
    #[test]
    fn seed_determinism(seed in 0u64..5000) {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let recorder = NodeId(0);
            sim.add_node(Recorder::default());
            sim.add_node(Burster { peer: recorder, count: 12 });
            sim.add_node(Burster { peer: recorder, count: 12 });
            sim.run();
            let rec = sim.node_as::<Recorder>(recorder).unwrap();
            (sim.now(), rec.got.clone().len(), format!("{:?}", rec.got))
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
