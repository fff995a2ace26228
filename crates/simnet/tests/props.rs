//! Property tests over the simulator: per-channel FIFO delivery and
//! seed-determinism under arbitrary fan-outs; over the channel log:
//! compaction never changes the state the log describes; and over the
//! channel endpoint: its sequence-indexed outboxes answer exactly as a
//! reference endpoint that keeps every unacked message in a `BTreeMap`.

use crew_simnet::reliable::PersistedChannelState;
use crew_simnet::{
    Classify, Ctx, Endpoint, Mechanism, Node, NodeId, OutboxLog, RetransmitConfig, Simulation,
    WalOutbox,
};
use proptest::prelude::*;
use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

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

/// The channel endpoint as it was before its outboxes became
/// sequence-indexed: every unacked message held in a `BTreeMap` per peer,
/// trimmed with `retain`, cloned for each retransmission. The reference
/// the endpoint proptest compares against. Its log never compacts, so its
/// recovery folds every record ever written and owes nothing to the
/// mirror a checkpoint is written from.
struct ReferenceEndpoint {
    out: BTreeMap<NodeId, RefPeerOut>,
    inn: BTreeMap<NodeId, (u64, BTreeMap<u64, u64>)>,
    log: WalOutbox<u64>,
    cfg: RetransmitConfig,
    due: BTreeSet<(u64, NodeId)>,
}

struct RefPeerOut {
    next_seq: u64,
    unacked: BTreeMap<u64, u64>,
    rto: u64,
    next_retry_at: Option<u64>,
}

impl RefPeerOut {
    fn new(base_rto: u64) -> Self {
        RefPeerOut {
            next_seq: 1,
            unacked: BTreeMap::new(),
            rto: base_rto,
            next_retry_at: None,
        }
    }
}

type Resend = Vec<(NodeId, u64, u64)>;

impl ReferenceEndpoint {
    fn new(cfg: RetransmitConfig) -> Self {
        ReferenceEndpoint {
            out: BTreeMap::new(),
            inn: BTreeMap::new(),
            log: WalOutbox::without_checkpointing(),
            cfg,
            due: BTreeSet::new(),
        }
    }

    fn set_retry(
        due: &mut BTreeSet<(u64, NodeId)>,
        peer: NodeId,
        state: &mut RefPeerOut,
        at: Option<u64>,
    ) {
        if let Some(old) = state.next_retry_at.take() {
            due.remove(&(old, peer));
        }
        if let Some(t) = at {
            state.next_retry_at = Some(t);
            due.insert((t, peer));
        }
    }

    fn stage(&mut self, to: NodeId, msg: u64, now: u64) -> u64 {
        let base = self.cfg.base_rto;
        let peer = self.out.entry(to).or_insert_with(|| RefPeerOut::new(base));
        let seq = peer.next_seq;
        peer.next_seq += 1;
        self.log.log_send(to, seq, &msg);
        peer.unacked.insert(seq, msg);
        if peer.next_retry_at.is_none() {
            let at = now + peer.rto;
            Self::set_retry(&mut self.due, to, peer, Some(at));
        }
        seq
    }

    fn on_ack(&mut self, peer: NodeId, cum: u64, now: u64) {
        let Some(out) = self.out.get_mut(&peer) else {
            return;
        };
        let before = out.unacked.len();
        out.unacked.retain(|&s, _| s > cum);
        if out.unacked.len() < before {
            self.log.log_ack(peer, cum);
            out.rto = self.cfg.base_rto;
            let at = if out.unacked.is_empty() {
                None
            } else {
                Some(now + out.rto)
            };
            Self::set_retry(&mut self.due, peer, out, at);
        } else if out.unacked.is_empty() {
            Self::set_retry(&mut self.due, peer, out, None);
        }
    }

    /// `(delivered, duplicate, cum)`.
    fn on_data(&mut self, peer: NodeId, seq: u64, payload: u64) -> (Vec<u64>, bool, u64) {
        let (cum, pending) = self.inn.entry(peer).or_default();
        if seq <= *cum || pending.contains_key(&seq) {
            return (Vec::new(), true, *cum);
        }
        if seq != *cum + 1 {
            pending.insert(seq, payload);
            return (Vec::new(), false, *cum);
        }
        let mut deliver = vec![payload];
        *cum += 1;
        while let Some(next) = pending.remove(&(*cum + 1)) {
            deliver.push(next);
            *cum += 1;
        }
        let cum = *cum;
        self.log.log_delivered(peer, cum);
        (deliver, false, cum)
    }

    fn due_retransmits(&mut self, now: u64) -> Resend {
        let mut out = Vec::new();
        let due_now: Vec<(u64, NodeId)> = self
            .due
            .range(..=(now, NodeId(u32::MAX)))
            .copied()
            .collect();
        for (at, peer) in due_now {
            let Some(state) = self.out.get_mut(&peer) else {
                self.due.remove(&(at, peer));
                continue;
            };
            if state.unacked.is_empty() {
                Self::set_retry(&mut self.due, peer, state, None);
                continue;
            }
            for (&seq, &msg) in state.unacked.iter().take(self.cfg.burst) {
                out.push((peer, seq, msg));
            }
            state.rto = (state.rto * 2).min(self.cfg.max_rto);
            Self::set_retry(&mut self.due, peer, state, Some(now + state.rto));
        }
        out
    }

    fn next_wakeup(&self) -> Option<u64> {
        self.due.iter().next().map(|&(t, _)| t)
    }

    fn on_crash(&mut self) {
        self.out.clear();
        self.inn.clear();
        self.due.clear();
    }

    fn on_recover(&mut self, now: u64) -> Resend {
        let state = self.log.replay();
        let mut resend = Vec::new();
        for (peer, unacked) in state.outbox {
            let next_seq = state.next_seq.get(&peer).copied().unwrap_or(1);
            for (&seq, &msg) in unacked.iter().take(self.cfg.burst) {
                resend.push((peer, seq, msg));
            }
            let mut po = RefPeerOut {
                next_seq,
                unacked,
                rto: self.cfg.base_rto,
                next_retry_at: None,
            };
            if !po.unacked.is_empty() {
                Self::set_retry(&mut self.due, peer, &mut po, Some(now + self.cfg.base_rto));
            }
            self.out.insert(peer, po);
        }
        for (&peer, next) in &state.next_seq {
            self.out
                .entry(peer)
                .or_insert_with(|| RefPeerOut::new(self.cfg.base_rto))
                .next_seq = *next;
        }
        for (peer, cum) in state.delivered {
            self.inn.insert(peer, (cum, BTreeMap::new()));
        }
        resend
    }
}

/// A `WalOutbox` that notes when a checkpoint shortened its log.
struct Watched {
    log: WalOutbox<u64>,
    compacted: Rc<Cell<bool>>,
}

impl Watched {
    fn watch(&mut self, before: u64) {
        if self.log.log_len() <= before {
            self.compacted.set(true);
        }
    }
}

impl OutboxLog<u64> for Watched {
    fn log_send(&mut self, to: NodeId, seq: u64, payload: &u64) {
        self.log.log_send(to, seq, payload);
    }
    fn log_ack(&mut self, peer: NodeId, cum: u64) {
        let before = self.log.log_len();
        self.log.log_ack(peer, cum);
        self.watch(before);
    }
    fn log_delivered(&mut self, peer: NodeId, cum: u64) {
        let before = self.log.log_len();
        self.log.log_delivered(peer, cum);
        self.watch(before);
    }
    fn unacked(&self, to: NodeId, seq: u64) -> u64 {
        self.log.unacked(to, seq)
    }
    fn replay(&mut self) -> PersistedChannelState<u64> {
        self.log.replay()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The endpoint and the reference endpoint give the same answer to
    /// every call — assigned seqs, deliveries, duplicate flags, acks,
    /// retransmissions, recovery resends — and the same `next_wakeup`
    /// after it, over random sequences of stages, data frames, acks, retry
    /// firings and crash/recovery toward three peers. Acks trail the
    /// newest seq by a few, so outboxes drain and the log compacts.
    #[test]
    fn endpoint_answers_as_the_btreemap_reference(
        ops in proptest::collection::vec((0u8..12, 0u32..3, 0u64..6, 0u64..24), 1..400),
        burst in 1usize..5,
    ) {
        let cfg = RetransmitConfig { base_rto: 4, max_rto: 64, burst };
        let compacted = Rc::new(Cell::new(false));
        let log = Watched { log: WalOutbox::new(), compacted: compacted.clone() };
        let mut ep: Endpoint<u64> = Endpoint::new(Box::new(log), cfg);
        let mut reference = ReferenceEndpoint::new(cfg);
        let mut now = 0;
        // Newest seq staged toward, and delivery cursor from, each peer.
        let mut staged = [0u64; 3];
        let mut cum = [0u64; 3];
        for (n, &(kind, p, a, dt)) in ops.iter().enumerate() {
            now += dt;
            let peer = NodeId(p);
            let i = p as usize;
            match kind {
                0..=2 => {
                    let msg = n as u64;
                    let seq = ep.stage(peer, msg, now);
                    prop_assert_eq!(seq, reference.stage(peer, msg, now));
                    staged[i] = seq;
                }
                3..=5 => {
                    // `a` = 0 repeats the cursor, 1 is next, more opens a gap.
                    let seq = (cum[i] + a).max(1);
                    let payload = 1000 * u64::from(p) + seq;
                    let got = ep.on_data(peer, seq, payload);
                    let (deliver, duplicate, c) = reference.on_data(peer, seq, payload);
                    prop_assert_eq!(got.deliver.len(), deliver.len());
                    prop_assert_eq!((got.duplicate, got.cum), (duplicate, c));
                    prop_assert_eq!(got.deliver.into_iter().collect::<Vec<_>>(), deliver);
                    cum[i] = c;
                }
                6..=8 => {
                    let ack = (staged[i] + 1).saturating_sub(a);
                    ep.on_ack(peer, ack, now);
                    reference.on_ack(peer, ack, now);
                }
                9 | 10 => prop_assert_eq!(ep.due_retransmits(now), reference.due_retransmits(now)),
                _ => {
                    ep.on_crash();
                    reference.on_crash();
                    prop_assert_eq!(ep.next_wakeup(), None);
                    now += a;
                    prop_assert_eq!(ep.on_recover(now), reference.on_recover(now));
                }
            }
            prop_assert_eq!(ep.next_wakeup(), reference.next_wakeup(), "after op {}", n);
        }
        prop_assert!(compacted.get() || ops.len() < 300, "{} ops never compacted", ops.len());
    }

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
