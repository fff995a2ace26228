//! The reliable, exactly-once channel layer.
//!
//! When a [`NetFaultPlan`](crate::netfault::NetFaultPlan) is installed, the
//! simulator stops granting reliable FIFO delivery for free and instead
//! runs every inter-node message through a per-node [`Endpoint`]: the
//! persistent-messaging substrate (Exotica/FMQM in the paper, §4) built for
//! real. The protocol is the classic positive-ack scheme:
//!
//! - **Sequencing** — each sender keeps a per-peer sequence number; every
//!   logical message becomes a `Data { seq, .. }` frame.
//! - **Cumulative acks** — the receiver acknowledges the highest seq it has
//!   delivered contiguously; one ack covers everything before it.
//! - **Retransmission** — unacked frames are re-sent on a timer with capped
//!   exponential backoff (go-back-N with a burst cap).
//! - **Duplicate suppression / resequencing** — the receiver delivers each
//!   seq exactly once, in order, buffering out-of-order arrivals.
//! - **Durability** — the sender's outbox and the receiver's delivery
//!   cursor are persisted through the CREW write-ahead log
//!   ([`crew_storage::Wal`]), so a fail-stop crash loses neither undelivered
//!   messages nor the exactly-once guarantee.
//!
//! The endpoints are pure state machines; the simulator drives them and
//! owns all scheduling, so runs stay deterministic.

use crate::node::NodeId;
use bytes::{BufMut, BytesMut};
use crew_storage::{wire, Decode, Encode, MemStore, Wal};
use std::collections::{BTreeMap, BTreeSet};

wire! { struct NodeId(id) }

/// A wire frame of the channel protocol.
#[derive(Debug, Clone)]
pub enum Frame<M> {
    /// A sequenced application message.
    Data {
        /// Per-(sender, receiver) sequence number, from 1.
        seq: u64,
        /// True for retransmissions (observability only; receivers treat
        /// both identically).
        resend: bool,
        /// The logical message.
        payload: M,
    },
    /// Cumulative acknowledgement: every `Data` frame with `seq <= cum` has
    /// been delivered by the sender of this ack.
    Ack {
        /// Highest contiguously delivered sequence number.
        cum: u64,
    },
}

/// Retransmission tuning.
#[derive(Debug, Clone, Copy)]
pub struct RetransmitConfig {
    /// Initial retransmission timeout (virtual ticks).
    pub base_rto: u64,
    /// Backoff cap.
    pub max_rto: u64,
    /// Maximum unacked frames re-sent per peer per timer firing.
    pub burst: usize,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            base_rto: 16,
            max_rto: 256,
            burst: 8,
        }
    }
}

/// One WAL record of the channel: outbox appends, ack trims, and delivery
/// cursor advances.
#[derive(Debug, Clone, PartialEq)]
pub enum ChanRec<M> {
    /// A message was staged for `to` with sequence `seq`.
    Sent {
        /// Destination peer.
        to: NodeId,
        /// Assigned sequence number.
        seq: u64,
        /// The logical message.
        payload: M,
    },
    /// Peer `peer` cumulatively acked through `cum`.
    Acked {
        /// The acking peer.
        peer: NodeId,
        /// Acked prefix.
        cum: u64,
    },
    /// Messages from `peer` were delivered contiguously through `cum`.
    Delivered {
        /// The sending peer.
        peer: NodeId,
        /// Delivered prefix.
        cum: u64,
    },
    /// A compaction barrier: replay resets to exactly this snapshot and
    /// everything before the record is dead weight. The records that
    /// follow it re-stage the live (unacked) outbox, so recovery cost is
    /// O(live outbox), not O(every record ever sent).
    Checkpoint {
        /// Next sequence number per destination peer.
        next_seq: Vec<(NodeId, u64)>,
        /// Delivery cursor per sending peer.
        delivered: Vec<(NodeId, u64)>,
    },
}

wire! {
    enum ChanRec<M> {
        0 => Sent { to, seq, payload },
        1 => Acked { peer, cum },
        2 => Delivered { peer, cum },
        3 => Checkpoint { next_seq, delivered },
    }
}

/// Channel state reconstructed from a durable log after a crash.
#[derive(Debug)]
pub struct PersistedChannelState<M> {
    /// Unacked outbox per peer.
    pub outbox: BTreeMap<NodeId, BTreeMap<u64, M>>,
    /// Next sequence number to assign per peer.
    pub next_seq: BTreeMap<NodeId, u64>,
    /// Delivery cursor per sending peer.
    pub delivered: BTreeMap<NodeId, u64>,
}

// Manual impl: `derive` would wrongly require `M: Default`.
impl<M> Default for PersistedChannelState<M> {
    fn default() -> Self {
        PersistedChannelState {
            outbox: BTreeMap::new(),
            next_seq: BTreeMap::new(),
            delivered: BTreeMap::new(),
        }
    }
}

/// Durability backend of one endpoint. The log must survive the node's
/// fail-stop crash (its store lives outside the node's volatile state, like
/// the AGDB).
pub trait OutboxLog<M> {
    /// Record a staged send.
    fn log_send(&mut self, to: NodeId, seq: u64, payload: &M);
    /// Record an ack trim.
    fn log_ack(&mut self, peer: NodeId, cum: u64);
    /// Record a delivery-cursor advance.
    fn log_delivered(&mut self, peer: NodeId, cum: u64);
    /// Rebuild channel state after a crash.
    fn replay(&mut self) -> PersistedChannelState<M>;
}

/// No durability: channel state dies with the node, so a crashed endpoint
/// loses its outbox *and* its dedup cursors. The fake the endpoint's unit
/// tests substitute for a [`WalOutbox`]; the simulator never installs it.
#[derive(Debug, Default)]
pub struct VolatileOutbox;

impl<M> OutboxLog<M> for VolatileOutbox {
    fn log_send(&mut self, _to: NodeId, _seq: u64, _payload: &M) {}
    fn log_ack(&mut self, _peer: NodeId, _cum: u64) {}
    fn log_delivered(&mut self, _peer: NodeId, _cum: u64) {}
    fn replay(&mut self) -> PersistedChannelState<M> {
        PersistedChannelState::default()
    }
}

/// Fold a channel log into the state it describes. A
/// [`ChanRec::Checkpoint`] resets the fold to its snapshot, so only the
/// suffix after the last checkpoint contributes work.
fn fold_records<M>(records: Vec<ChanRec<M>>) -> PersistedChannelState<M> {
    let mut state = PersistedChannelState::default();
    for rec in records {
        match rec {
            ChanRec::Sent { to, seq, payload } => {
                state.outbox.entry(to).or_default().insert(seq, payload);
                let next = state.next_seq.entry(to).or_insert(1);
                *next = (*next).max(seq + 1);
            }
            ChanRec::Acked { peer, cum } => {
                if let Some(out) = state.outbox.get_mut(&peer) {
                    out.retain(|&s, _| s > cum);
                }
            }
            ChanRec::Delivered { peer, cum } => {
                let c = state.delivered.entry(peer).or_insert(0);
                *c = (*c).max(cum);
            }
            ChanRec::Checkpoint {
                next_seq,
                delivered,
            } => {
                state = PersistedChannelState::default();
                state.next_seq.extend(next_seq);
                state.delivered.extend(delivered);
            }
        }
    }
    state
}

/// Log length (in records) below which compaction is never attempted; the
/// constant overhead of a rewrite is not worth it for short logs.
const CHECKPOINT_MIN_RECORDS: u64 = 64;

/// An already-encoded payload: encodes as the bytes it holds, so a
/// `ChanRec<Encoded>` is byte-for-byte the `ChanRec<M>` it was taken from.
struct Encoded<'a>(&'a [u8]);

impl Encode for Encoded<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(self.0);
    }
}

/// WAL-backed durability over the in-memory store (simulation durability:
/// the log outlives the node's volatile state across crash/recover).
///
/// The log self-compacts: once it is mostly dead weight (fully-acked
/// `Sent` records, superseded cursor advances), it is rewritten as one
/// [`ChanRec::Checkpoint`] snapshot plus the live outbox, so both log
/// length and [`OutboxLog::replay`] cost stay O(live outbox) under
/// sustained fully-acked traffic instead of growing forever.
///
/// The state the log describes — what `fold_records` would make of it —
/// is mirrored as it is logged, so compaction writes the snapshot from
/// memory: the live path never reads the log back or decodes a record.
pub struct WalOutbox<M: Encode + Decode> {
    wal: Wal<ChanRec<M>, MemStore>,
    /// Unacked sends by `(destination peer, seq)`, each with its encoded
    /// payload (encoded once, for the log and the mirror both).
    live: BTreeMap<(NodeId, u64), Box<[u8]>>,
    /// Where `log_send` encodes a payload before copying it out at its
    /// exact size.
    scratch: BytesMut,
    /// Next sequence number per destination peer.
    next_seq: BTreeMap<NodeId, u64>,
    /// Delivery cursor per sending peer.
    delivered: BTreeMap<NodeId, u64>,
    checkpointing: bool,
}

impl<M: Encode + Decode> WalOutbox<M> {
    /// A fresh, empty log with checkpoint compaction enabled.
    pub fn new() -> Self {
        WalOutbox {
            wal: Wal::in_memory(),
            live: BTreeMap::new(),
            scratch: BytesMut::new(),
            next_seq: BTreeMap::new(),
            delivered: BTreeMap::new(),
            checkpointing: true,
        }
    }

    /// A fresh log that never compacts — the pre-checkpoint behaviour,
    /// kept measurable for the replay-cost before/after benchmark.
    pub fn without_checkpointing() -> Self {
        WalOutbox {
            checkpointing: false,
            ..WalOutbox::new()
        }
    }

    /// Current log length in records (tests and benchmarks).
    pub fn log_len(&self) -> u64 {
        self.wal.appended()
    }

    /// Compact when the log is at least `CHECKPOINT_MIN_RECORDS` long and
    /// mostly dead (less than a quarter of its records still live).
    fn maybe_checkpoint(&mut self) {
        if !self.checkpointing {
            return;
        }
        let len = self.wal.appended();
        if len < CHECKPOINT_MIN_RECORDS || len < 4 * self.live.len() as u64 {
            return;
        }
        self.wal.reset().expect("MemStore truncate cannot fail");
        let snapshot = ChanRec::Checkpoint {
            next_seq: self.next_seq.iter().map(|(&p, &s)| (p, s)).collect(),
            delivered: self.delivered.iter().map(|(&p, &c)| (p, c)).collect(),
        };
        let restaged = self.live.iter().map(|(&(to, seq), payload)| ChanRec::Sent {
            to,
            seq,
            payload: Encoded(payload),
        });
        self.wal
            .append_batch(std::iter::once(snapshot).chain(restaged))
            .expect("MemStore append cannot fail");
    }
}

impl<M: Encode + Decode> Default for WalOutbox<M> {
    fn default() -> Self {
        WalOutbox::new()
    }
}

impl<M: Encode + Decode> OutboxLog<M> for WalOutbox<M> {
    fn log_send(&mut self, to: NodeId, seq: u64, payload: &M) {
        self.scratch.clear();
        payload.encode(&mut self.scratch);
        let payload: Box<[u8]> = self.scratch[..].into();
        self.wal
            .append_view(&ChanRec::Sent {
                to,
                seq,
                payload: Encoded(&payload),
            })
            .expect("MemStore append cannot fail");
        self.live.insert((to, seq), payload);
        let next = self.next_seq.entry(to).or_insert(1);
        *next = (*next).max(seq + 1);
    }
    fn log_ack(&mut self, peer: NodeId, cum: u64) {
        self.wal
            .append(&ChanRec::<M>::Acked { peer, cum })
            .expect("MemStore append cannot fail");
        while let Some((&key, _)) = self.live.range((peer, 0)..=(peer, cum)).next() {
            self.live.remove(&key);
        }
        self.maybe_checkpoint();
    }
    fn log_delivered(&mut self, peer: NodeId, cum: u64) {
        self.wal
            .append(&ChanRec::<M>::Delivered { peer, cum })
            .expect("MemStore append cannot fail");
        let cursor = self.delivered.entry(peer).or_insert(0);
        *cursor = (*cursor).max(cum);
        self.maybe_checkpoint();
    }
    fn replay(&mut self) -> PersistedChannelState<M> {
        let state = fold_records(self.wal.recover().expect("MemStore read cannot fail"));
        // Rebuild the mirror: the log handle itself may be older than the
        // state it describes (it survives the owning node's crash).
        self.live.clear();
        for (&peer, outbox) in &state.outbox {
            for (&seq, payload) in outbox {
                self.live.insert((peer, seq), payload.to_bytes()[..].into());
            }
        }
        self.next_seq = state.next_seq.clone();
        self.delivered = state.delivered.clone();
        state
    }
}

#[derive(Debug)]
struct PeerOut<M> {
    next_seq: u64,
    unacked: BTreeMap<u64, M>,
    rto: u64,
    next_retry_at: Option<u64>,
}

impl<M> PeerOut<M> {
    fn new(base_rto: u64) -> Self {
        PeerOut {
            next_seq: 1,
            unacked: BTreeMap::new(),
            rto: base_rto,
            next_retry_at: None,
        }
    }
}

#[derive(Debug)]
struct PeerIn<M> {
    /// Highest contiguously delivered seq from this peer.
    cum: u64,
    /// Out-of-order arrivals awaiting the gap fill.
    pending: BTreeMap<u64, M>,
}

// Manual impl: `derive` would wrongly require `M: Default`.
impl<M> Default for PeerIn<M> {
    fn default() -> Self {
        PeerIn {
            cum: 0,
            pending: BTreeMap::new(),
        }
    }
}

/// Outcome of processing one `Data` frame.
#[derive(Debug)]
pub struct DataOutcome<M> {
    /// Messages to hand to the application, in order (possibly several when
    /// a gap fill releases buffered frames; empty for duplicates and gaps).
    pub deliver: Vec<M>,
    /// True when the frame had already been delivered (or buffered) before.
    pub duplicate: bool,
    /// Cumulative ack to report back to the sender.
    pub cum: u64,
}

/// Per-node channel endpoint: sender outboxes and receiver cursors toward
/// every peer.
pub struct Endpoint<M> {
    out: BTreeMap<NodeId, PeerOut<M>>,
    inn: BTreeMap<NodeId, PeerIn<M>>,
    log: Box<dyn OutboxLog<M>>,
    cfg: RetransmitConfig,
    /// Due-peer index: `(next_retry_at, peer)` for every armed peer, so
    /// [`Endpoint::due_retransmits`] and [`Endpoint::next_wakeup`] touch
    /// only due peers instead of scanning every outbox. Invariant:
    /// `out[p].next_retry_at == Some(t)` ⟺ `(t, p) ∈ due`.
    due: BTreeSet<(u64, NodeId)>,
    /// Virtual time of the earliest scheduled retry wake-up, if any (owned
    /// by the simulator's scheduler).
    pub(crate) armed: Option<u64>,
}

impl<M: Clone> Endpoint<M> {
    /// A fresh endpoint over `log`.
    pub fn new(log: Box<dyn OutboxLog<M>>, cfg: RetransmitConfig) -> Self {
        Endpoint {
            out: BTreeMap::new(),
            inn: BTreeMap::new(),
            log,
            cfg,
            due: BTreeSet::new(),
            armed: None,
        }
    }

    /// Move `peer`'s retry deadline to `at` (or disarm it with `None`),
    /// keeping the due index in lockstep with `next_retry_at`.
    fn set_retry(
        due: &mut BTreeSet<(u64, NodeId)>,
        peer: NodeId,
        state: &mut PeerOut<M>,
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

    /// Stage a message for `to`: assign a sequence number, persist it, arm
    /// the retry clock. Returns the assigned seq.
    pub fn stage(&mut self, to: NodeId, msg: M, now: u64) -> u64 {
        let base = self.cfg.base_rto;
        let peer = self.out.entry(to).or_insert_with(|| PeerOut::new(base));
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

    /// Process a cumulative ack from `peer`.
    pub fn on_ack(&mut self, peer: NodeId, cum: u64, now: u64) {
        let Some(out) = self.out.get_mut(&peer) else {
            return;
        };
        let before = out.unacked.len();
        out.unacked.retain(|&s, _| s > cum);
        if out.unacked.len() < before {
            self.log.log_ack(peer, cum);
            // Progress: reset the backoff.
            out.rto = self.cfg.base_rto;
            let at = if out.unacked.is_empty() {
                None
            } else {
                Some(now + out.rto)
            };
            Self::set_retry(&mut self.due, peer, out, at);
        } else if out.unacked.is_empty() {
            // Duplicate/stale cumulative ack with nothing in flight: make
            // sure the retry clock is not left armed for an empty outbox.
            Self::set_retry(&mut self.due, peer, out, None);
        }
    }

    /// Process a `Data` frame from `peer`.
    pub fn on_data(&mut self, peer: NodeId, seq: u64, payload: M) -> DataOutcome<M> {
        let inn = self.inn.entry(peer).or_default();
        if seq <= inn.cum || inn.pending.contains_key(&seq) {
            return DataOutcome {
                deliver: Vec::new(),
                duplicate: true,
                cum: inn.cum,
            };
        }
        if seq != inn.cum + 1 {
            inn.pending.insert(seq, payload);
            return DataOutcome {
                deliver: Vec::new(),
                duplicate: false,
                cum: inn.cum,
            };
        }
        let mut deliver = vec![payload];
        inn.cum += 1;
        while let Some(next) = inn.pending.remove(&(inn.cum + 1)) {
            deliver.push(next);
            inn.cum += 1;
        }
        let cum = inn.cum;
        self.log.log_delivered(peer, cum);
        DataOutcome {
            deliver,
            duplicate: false,
            cum,
        }
    }

    /// Frames due for retransmission at `now`: up to `burst` lowest unacked
    /// frames per due peer (go-back-N). Backs off the due peers. Cost is
    /// O(due peers), not O(all peers): only the due-index prefix up to
    /// `now` is visited.
    pub fn due_retransmits(&mut self, now: u64) -> Vec<(NodeId, u64, M)> {
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
                // Nothing left to resend: disarm instead of leaving a
                // stale deadline that `next_wakeup` keeps reporting.
                Self::set_retry(&mut self.due, peer, state, None);
                continue;
            }
            for (&seq, msg) in state.unacked.iter().take(self.cfg.burst) {
                out.push((peer, seq, msg.clone()));
            }
            state.rto = (state.rto * 2).min(self.cfg.max_rto);
            Self::set_retry(&mut self.due, peer, state, Some(now + state.rto));
        }
        out
    }

    /// Earliest retry deadline over all peers, if any frame is unacked —
    /// the first entry of the due index.
    pub fn next_wakeup(&self) -> Option<u64> {
        self.due.iter().next().map(|&(t, _)| t)
    }

    /// Fail-stop crash: volatile channel state is lost; the log survives.
    pub fn on_crash(&mut self) {
        self.out.clear();
        self.inn.clear();
        self.due.clear();
        self.armed = None;
    }

    /// Recovery: rebuild from the log and return the first `burst` unacked
    /// frames per peer for immediate retransmission. The remainder drain
    /// through the normal burst/RTO machinery — go-back-N resends the
    /// lowest unacked window each time the retry clock fires — so a node
    /// recovering with a large outbox does not flood the network.
    pub fn on_recover(&mut self, now: u64) -> Vec<(NodeId, u64, M)> {
        let state = self.log.replay();
        let mut resend = Vec::new();
        self.out.clear();
        self.inn.clear();
        self.due.clear();
        for (peer, unacked) in state.outbox {
            let next_seq = state.next_seq.get(&peer).copied().unwrap_or(1);
            for (&seq, msg) in unacked.iter().take(self.cfg.burst) {
                resend.push((peer, seq, msg.clone()));
            }
            let mut po = PeerOut {
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
                .or_insert_with(|| PeerOut::new(self.cfg.base_rto))
                .next_seq = *next;
        }
        for (peer, cum) in state.delivered {
            self.inn.insert(
                peer,
                PeerIn {
                    cum,
                    pending: BTreeMap::new(),
                },
            );
        }
        resend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint() -> Endpoint<u64> {
        Endpoint::new(
            Box::new(WalOutbox::<u64>::new()),
            RetransmitConfig::default(),
        )
    }

    #[test]
    fn in_order_delivery_and_acks() {
        let mut ep = endpoint();
        let o = ep.on_data(NodeId(1), 1, 10);
        assert_eq!(o.deliver, vec![10]);
        assert_eq!(o.cum, 1);
        assert!(!o.duplicate);
        let o = ep.on_data(NodeId(1), 2, 20);
        assert_eq!(o.deliver, vec![20]);
        assert_eq!(o.cum, 2);
    }

    #[test]
    fn duplicates_suppressed_and_reacked() {
        let mut ep = endpoint();
        ep.on_data(NodeId(1), 1, 10);
        let o = ep.on_data(NodeId(1), 1, 10);
        assert!(o.duplicate);
        assert!(o.deliver.is_empty());
        assert_eq!(o.cum, 1, "duplicate still re-acks the prefix");
    }

    #[test]
    fn gaps_buffer_until_filled() {
        let mut ep = endpoint();
        let o = ep.on_data(NodeId(1), 3, 30);
        assert!(o.deliver.is_empty());
        assert_eq!(o.cum, 0);
        let o = ep.on_data(NodeId(1), 2, 20);
        assert!(o.deliver.is_empty());
        let o = ep.on_data(NodeId(1), 1, 10);
        assert_eq!(o.deliver, vec![10, 20, 30], "gap fill releases in order");
        assert_eq!(o.cum, 3);
    }

    #[test]
    fn stage_ack_and_retransmit_cycle() {
        let mut ep = endpoint();
        assert_eq!(ep.stage(NodeId(2), 100, 0), 1);
        assert_eq!(ep.stage(NodeId(2), 200, 0), 2);
        assert_eq!(ep.next_wakeup(), Some(16));
        // Nothing due before the deadline.
        assert!(ep.due_retransmits(10).is_empty());
        let due = ep.due_retransmits(16);
        assert_eq!(due, vec![(NodeId(2), 1, 100), (NodeId(2), 2, 200)]);
        // Backoff doubled.
        assert_eq!(ep.next_wakeup(), Some(16 + 32));
        // Ack seq 1: only seq 2 remains; backoff resets.
        ep.on_ack(NodeId(2), 1, 20);
        let due = ep.due_retransmits(20 + 16);
        assert_eq!(due, vec![(NodeId(2), 2, 200)]);
        ep.on_ack(NodeId(2), 2, 60);
        assert_eq!(ep.next_wakeup(), None);
    }

    #[test]
    fn backoff_caps() {
        let mut ep = endpoint();
        ep.stage(NodeId(2), 1, 0);
        let mut now = 0;
        for _ in 0..12 {
            now = ep.next_wakeup().unwrap();
            ep.due_retransmits(now);
        }
        let gap = ep.next_wakeup().unwrap() - now;
        assert_eq!(gap, RetransmitConfig::default().max_rto);
    }

    #[test]
    fn crash_loses_volatile_state_recovery_rebuilds_from_wal() {
        let mut ep = endpoint();
        ep.stage(NodeId(2), 100, 0);
        ep.stage(NodeId(2), 200, 0);
        ep.stage(NodeId(3), 300, 0);
        ep.on_ack(NodeId(2), 1, 5);
        ep.on_data(NodeId(4), 1, 41);
        ep.on_data(NodeId(4), 2, 42);

        ep.on_crash();
        assert_eq!(ep.next_wakeup(), None);

        let resend = ep.on_recover(100);
        assert_eq!(
            resend,
            vec![(NodeId(2), 2, 200), (NodeId(3), 1, 300)],
            "only unacked frames retransmit"
        );
        // Sequence numbers continue, never restart.
        assert_eq!(ep.stage(NodeId(2), 999, 100), 3);
        // The delivery cursor survived: a retransmitted duplicate of seq 2
        // from peer 4 is still suppressed — exactly-once across the crash.
        let o = ep.on_data(NodeId(4), 2, 42);
        assert!(o.duplicate);
        assert_eq!(o.cum, 2);
    }

    #[test]
    fn volatile_outbox_loses_everything() {
        let mut ep: Endpoint<u64> =
            Endpoint::new(Box::new(VolatileOutbox), RetransmitConfig::default());
        ep.stage(NodeId(2), 100, 0);
        ep.on_crash();
        assert!(ep.on_recover(10).is_empty());
    }

    #[test]
    fn chanrec_roundtrip() {
        let recs = vec![
            ChanRec::Sent {
                to: NodeId(3),
                seq: 9,
                payload: 77u64,
            },
            ChanRec::Acked {
                peer: NodeId(1),
                cum: 4,
            },
            ChanRec::Delivered {
                peer: NodeId(2),
                cum: 6,
            },
            ChanRec::Checkpoint {
                next_seq: vec![(NodeId(1), 12), (NodeId(4), 3)],
                delivered: vec![(NodeId(2), 9)],
            },
        ];
        for rec in recs {
            let mut bytes = rec.to_bytes();
            let back = ChanRec::<u64>::decode(&mut bytes).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn recovery_resends_are_burst_paced() {
        // Regression: `on_recover` used to return *every* unacked frame,
        // flooding the network after a crash with a large outbox.
        let burst = RetransmitConfig::default().burst;
        let total = 3 * burst as u64;
        let mut ep = endpoint();
        for i in 1..=total {
            ep.stage(NodeId(2), i * 10, 0);
        }
        ep.on_crash();
        let resend = ep.on_recover(100);
        assert_eq!(resend.len(), burst, "recovery resends only one burst");
        let expect: Vec<(NodeId, u64, u64)> =
            (1..=burst as u64).map(|s| (NodeId(2), s, s * 10)).collect();
        assert_eq!(resend, expect, "the lowest unacked window goes first");
        // The rest drain through the normal RTO machinery.
        let base = RetransmitConfig::default().base_rto;
        assert_eq!(ep.next_wakeup(), Some(100 + base));
        // Acks for the first window advance the cursor; the next firing
        // resends the next burst-sized window.
        ep.on_ack(NodeId(2), burst as u64, 100 + 1);
        let due = ep.due_retransmits(ep.next_wakeup().unwrap());
        assert_eq!(due.len(), burst);
        assert_eq!(due[0].1, burst as u64 + 1);
    }

    #[test]
    fn empty_outbox_skip_clears_stale_deadline() {
        // Regression: a due peer with an empty outbox was skipped but its
        // `next_retry_at` survived, so `next_wakeup` kept reporting a
        // deadline that never fired useful work.
        let mut ep = endpoint();
        ep.stage(NodeId(2), 100, 0);
        // Force the pathological armed-but-empty state directly.
        let state = ep.out.get_mut(&NodeId(2)).unwrap();
        state.unacked.clear();
        assert_eq!(ep.next_wakeup(), Some(16));
        assert!(ep.due_retransmits(16).is_empty());
        assert_eq!(
            ep.next_wakeup(),
            None,
            "skipping an empty outbox must disarm its deadline"
        );
    }

    #[test]
    fn stale_ack_with_empty_outbox_disarms_clock() {
        // Regression: `on_ack` only touched the retry clock when the ack
        // trimmed something, so a duplicate/stale cumulative ack could
        // leave the clock armed over an empty outbox.
        let mut ep = endpoint();
        ep.stage(NodeId(2), 100, 0);
        let state = ep.out.get_mut(&NodeId(2)).unwrap();
        state.unacked.clear();
        assert_eq!(ep.next_wakeup(), Some(16));
        // Stale ack: cum 1 trims nothing (outbox already empty).
        ep.on_ack(NodeId(2), 1, 5);
        assert_eq!(ep.next_wakeup(), None);
        // And a stale ack on a live outbox must NOT disarm the clock.
        ep.stage(NodeId(2), 200, 20);
        ep.on_ack(NodeId(2), 1, 25);
        assert_eq!(ep.next_wakeup(), Some(36));
    }

    #[test]
    fn channel_log_stays_bounded_when_fully_acked() {
        // Regression: the channel log grew one record per send/ack forever,
        // so `replay` scanned every record ever sent. With checkpointing
        // the log length and replay cost are O(live outbox).
        let mut log = WalOutbox::<u64>::new();
        let mut unbounded = WalOutbox::<u64>::without_checkpointing();
        for i in 1..=1_000u64 {
            log.log_send(NodeId(2), i, &i);
            log.log_ack(NodeId(2), i);
            unbounded.log_send(NodeId(2), i, &i);
            unbounded.log_ack(NodeId(2), i);
        }
        assert_eq!(unbounded.log_len(), 2_000);
        assert!(
            log.log_len() < 2 * CHECKPOINT_MIN_RECORDS,
            "fully-acked traffic must not grow the log (len = {})",
            log.log_len()
        );
        // Both logs describe the same state.
        let a = log.replay();
        let b = unbounded.replay();
        assert!(a.outbox.values().all(|o| o.is_empty()) || a.outbox.is_empty());
        assert_eq!(a.next_seq, b.next_seq);
        assert_eq!(a.next_seq.get(&NodeId(2)), Some(&1_001));
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn recovery_is_exact_across_checkpoints() {
        // End-to-end: enough acked traffic to trigger compaction, then a
        // crash; recovery must still resend exactly the unacked frames,
        // continue sequence numbers, and keep delivery cursors.
        let mut ep = endpoint();
        for i in 1..=100u64 {
            ep.stage(NodeId(2), i, 0);
        }
        ep.on_data(NodeId(4), 1, 41);
        ep.on_ack(NodeId(2), 98, 5); // triggers a checkpoint (2 live / 100+)
        ep.on_crash();
        let resend = ep.on_recover(50);
        assert_eq!(resend, vec![(NodeId(2), 99, 99), (NodeId(2), 100, 100)]);
        assert_eq!(ep.stage(NodeId(2), 999, 50), 101, "seqs never restart");
        let o = ep.on_data(NodeId(4), 1, 41);
        assert!(o.duplicate, "delivery cursor survived the checkpoint");
    }
}
