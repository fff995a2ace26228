//! Property tests over the simulator: per-channel FIFO delivery and
//! seed-determinism under arbitrary fan-outs.

use crew_simnet::{Classify, Ctx, Mechanism, Node, NodeId, Simulation};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
