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
//!   exponential backoff (go-back-N with a burst cap). An unacked message
//!   is held once, as the bytes its log record was made from, and a
//!   retransmission decodes it from them.
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
use bytes::{BufMut, Bytes, BytesMut};
use crew_storage::{wire, Decode, Encode, MemStore, Wal};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;

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

/// Durability backend of one endpoint, and the one place an unacked
/// message is held: the endpoint keeps sequence numbers only and asks the
/// log for a payload when it retransmits. The log must survive the node's
/// fail-stop crash (its store lives outside the node's volatile state, like
/// the AGDB).
pub trait OutboxLog<M> {
    /// Record a staged send. Sends to one peer are numbered consecutively
    /// from 1.
    fn log_send(&mut self, to: NodeId, seq: u64, payload: &M);
    /// Record an ack trim.
    fn log_ack(&mut self, peer: NodeId, cum: u64);
    /// Record a delivery-cursor advance.
    fn log_delivered(&mut self, peer: NodeId, cum: u64);
    /// The unacked message `seq` staged for `to`, for a retransmission.
    /// Panics if that message was never sent or is already acked.
    fn unacked(&self, to: NodeId, seq: u64) -> M;
    /// Rebuild channel state after a crash.
    fn replay(&mut self) -> PersistedChannelState<M>;
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

/// A payload read back from the log, still encoded: a view of the
/// recovered log image, taken without decoding `M`. The payload is the
/// last field of the one record that carries it (`Sent`), so it decodes
/// as the rest of its record.
struct Logged(Bytes);

impl Encode for Logged {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.0);
    }
}

impl Decode for Logged {
    fn decode(buf: &mut Bytes) -> Result<Self, crew_storage::CodecError> {
        Ok(Logged(buf.split_to(buf.len())))
    }
}

/// Decode the message `payload` holds.
fn decode_payload<M: Decode>(mut payload: Bytes) -> M {
    M::decode(&mut payload).expect("the log encoded this payload")
}

/// What a [`WalOutbox`] holds for one destination peer. Sends are numbered
/// consecutively and acks are cumulative, so the unacked seqs are always
/// the run `next_seq - live.len() .. next_seq`: an ack pops a prefix of
/// `live`, and a seq is an index into it.
struct PeerLog {
    /// Next sequence number to assign.
    next_seq: u64,
    /// The unacked payloads, encoded, oldest first.
    live: VecDeque<Box<[u8]>>,
}

impl PeerLog {
    /// Lowest unacked seq (`next_seq` when nothing is unacked).
    fn first(&self) -> u64 {
        self.next_seq - self.live.len() as u64
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
/// memory: the live path never reads the log back. The mirror is also the
/// only copy of an unacked message: `log_send` encodes it once, for the
/// record and the mirror both, and [`OutboxLog::unacked`] decodes a
/// retransmission from those bytes.
pub struct WalOutbox<M: Encode + Decode> {
    /// Read back with payloads left encoded: a recovery decodes only the
    /// unacked ones.
    wal: Wal<ChanRec<Logged>, MemStore>,
    /// Next seq and unacked payloads per destination peer.
    peers: BTreeMap<NodeId, PeerLog>,
    /// Unacked payloads over all peers.
    live: usize,
    /// Where `log_send` encodes a payload before copying it out at its
    /// exact size.
    scratch: BytesMut,
    /// Delivery cursor per sending peer.
    delivered: BTreeMap<NodeId, u64>,
    checkpointing: bool,
    /// The message type the logged payloads encode.
    message: PhantomData<M>,
}

impl<M: Encode + Decode> WalOutbox<M> {
    /// A fresh, empty log with checkpoint compaction enabled.
    pub fn new() -> Self {
        WalOutbox {
            wal: Wal::in_memory(),
            peers: BTreeMap::new(),
            live: 0,
            scratch: BytesMut::new(),
            delivered: BTreeMap::new(),
            checkpointing: true,
            message: PhantomData,
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
        if len < CHECKPOINT_MIN_RECORDS || len < 4 * self.live as u64 {
            return;
        }
        self.wal.reset().expect("MemStore truncate cannot fail");
        let snapshot = ChanRec::Checkpoint {
            next_seq: self.peers.iter().map(|(&p, l)| (p, l.next_seq)).collect(),
            delivered: self.delivered.iter().map(|(&p, &c)| (p, c)).collect(),
        };
        let restaged = self.peers.iter().flat_map(|(&to, l)| {
            (l.first()..)
                .zip(&l.live)
                .map(move |(seq, payload)| ChanRec::Sent {
                    to,
                    seq,
                    payload: Encoded(payload),
                })
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
        let peer = self.peers.entry(to).or_insert_with(|| PeerLog {
            next_seq: 1,
            live: VecDeque::new(),
        });
        assert_eq!(
            seq, peer.next_seq,
            "sends to {to} are numbered consecutively"
        );
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
        peer.live.push_back(payload);
        peer.next_seq += 1;
        self.live += 1;
    }
    fn log_ack(&mut self, peer: NodeId, cum: u64) {
        self.wal
            .append(&ChanRec::Acked { peer, cum })
            .expect("MemStore append cannot fail");
        if let Some(log) = self.peers.get_mut(&peer) {
            let first = log.first();
            if cum >= first {
                let acked = (cum - first).saturating_add(1).min(log.live.len() as u64);
                log.live.drain(..acked as usize);
                self.live -= acked as usize;
            }
        }
        self.maybe_checkpoint();
    }
    fn log_delivered(&mut self, peer: NodeId, cum: u64) {
        self.wal
            .append(&ChanRec::Delivered { peer, cum })
            .expect("MemStore append cannot fail");
        let cursor = self.delivered.entry(peer).or_insert(0);
        *cursor = (*cursor).max(cum);
        self.maybe_checkpoint();
    }
    fn unacked(&self, to: NodeId, seq: u64) -> M {
        let log = &self.peers[&to];
        decode_payload(Bytes::from(&log.live[(seq - log.first()) as usize][..]))
    }
    fn replay(&mut self) -> PersistedChannelState<M> {
        let logged = fold_records(self.wal.recover().expect("MemStore read cannot fail"));
        // Rebuild the mirror from the logged bytes: the log handle itself
        // may be older than the state it describes (it survives the owning
        // node's crash).
        self.peers.clear();
        self.live = 0;
        for (&peer, &next_seq) in &logged.next_seq {
            let live = VecDeque::new();
            self.peers.insert(peer, PeerLog { next_seq, live });
        }
        let mut outbox = BTreeMap::new();
        for (peer, unacked) in logged.outbox {
            let log = self
                .peers
                .get_mut(&peer)
                .expect("every peer sent to has a next seq");
            let mut decoded = BTreeMap::new();
            for (seq, Logged(payload)) in unacked {
                log.live.push_back(payload[..].into());
                decoded.insert(seq, decode_payload(payload));
            }
            debug_assert!(
                decoded.keys().copied().eq(log.first()..log.next_seq),
                "the unacked seqs to {peer} are the run before next_seq"
            );
            self.live += log.live.len();
            outbox.insert(peer, decoded);
        }
        self.delivered = logged.delivered.clone();
        PersistedChannelState {
            outbox,
            next_seq: logged.next_seq,
            delivered: logged.delivered,
        }
    }
}

/// Sender state toward one peer. The unacked seqs are the run
/// `first .. next_seq`; their payloads live in the endpoint's log.
#[derive(Debug)]
struct PeerOut {
    next_seq: u64,
    /// Lowest unacked seq (`next_seq` when nothing is unacked).
    first: u64,
    rto: u64,
    next_retry_at: Option<u64>,
}

impl PeerOut {
    fn new(base_rto: u64) -> Self {
        PeerOut {
            next_seq: 1,
            first: 1,
            rto: base_rto,
            next_retry_at: None,
        }
    }

    fn idle(&self) -> bool {
        self.first == self.next_seq
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

/// The messages one `Data` frame releases, in delivery order: the frame's
/// own payload when it was the next in sequence, then the buffered frames
/// its arrival unblocked. The common case, one message, allocates nothing.
#[derive(Debug)]
pub struct Released<M> {
    first: Option<M>,
    rest: Vec<M>,
}

impl<M> Released<M> {
    fn none() -> Self {
        Released {
            first: None,
            rest: Vec::new(),
        }
    }

    /// How many messages the frame released.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// True for a duplicate or a frame that opened or widened a gap.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }
}

impl<M> IntoIterator for Released<M> {
    type Item = M;
    type IntoIter = std::iter::Chain<std::option::IntoIter<M>, std::vec::IntoIter<M>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// Outcome of processing one `Data` frame.
#[derive(Debug)]
pub struct DataOutcome<M> {
    /// Messages to hand to the application, in order (possibly several when
    /// a gap fill releases buffered frames; empty for duplicates and gaps).
    pub deliver: Released<M>,
    /// True when the frame had already been delivered (or buffered) before.
    pub duplicate: bool,
    /// Cumulative ack to report back to the sender.
    pub cum: u64,
}

/// The state toward `peer` in a table indexed by node, grown on first use.
fn slot<T>(table: &mut Vec<T>, peer: NodeId, fresh: impl Fn() -> T) -> &mut T {
    let i = peer.index();
    if table.len() <= i {
        table.resize_with(i + 1, &fresh);
    }
    &mut table[i]
}

/// Per-node channel endpoint: sender outboxes and receiver cursors toward
/// every peer.
pub struct Endpoint<M> {
    /// Sender state per peer, indexed by node.
    out: Vec<PeerOut>,
    /// Receiver state per peer, indexed by node.
    inn: Vec<PeerIn<M>>,
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

impl<M> Endpoint<M> {
    /// A fresh endpoint over `log`.
    pub fn new(log: Box<dyn OutboxLog<M>>, cfg: RetransmitConfig) -> Self {
        Endpoint {
            out: Vec::new(),
            inn: Vec::new(),
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
        state: &mut PeerOut,
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
    /// the retry clock. Returns the assigned seq. The log keeps the only
    /// copy, so the caller keeps `msg` for the first transmission.
    pub fn stage(&mut self, to: NodeId, msg: impl Borrow<M>, now: u64) -> u64 {
        let base = self.cfg.base_rto;
        let peer = slot(&mut self.out, to, || PeerOut::new(base));
        let seq = peer.next_seq;
        peer.next_seq += 1;
        self.log.log_send(to, seq, msg.borrow());
        if peer.next_retry_at.is_none() {
            let at = now + peer.rto;
            Self::set_retry(&mut self.due, to, peer, Some(at));
        }
        seq
    }

    /// Process a cumulative ack from `peer`.
    pub fn on_ack(&mut self, peer: NodeId, cum: u64, now: u64) {
        let Some(out) = self.out.get_mut(peer.index()) else {
            return;
        };
        if !out.idle() && out.first <= cum {
            self.log.log_ack(peer, cum);
            out.first = cum.min(out.next_seq - 1) + 1;
            // Progress: reset the backoff.
            out.rto = self.cfg.base_rto;
            let at = (!out.idle()).then_some(now + out.rto);
            Self::set_retry(&mut self.due, peer, out, at);
        } else if out.idle() {
            // Duplicate/stale cumulative ack with nothing in flight: make
            // sure the retry clock is not left armed for an empty outbox.
            Self::set_retry(&mut self.due, peer, out, None);
        }
    }

    /// Process a `Data` frame from `peer`.
    pub fn on_data(&mut self, peer: NodeId, seq: u64, payload: M) -> DataOutcome<M> {
        let inn = slot(&mut self.inn, peer, PeerIn::default);
        if seq <= inn.cum || inn.pending.contains_key(&seq) {
            return DataOutcome {
                deliver: Released::none(),
                duplicate: true,
                cum: inn.cum,
            };
        }
        if seq != inn.cum + 1 {
            inn.pending.insert(seq, payload);
            return DataOutcome {
                deliver: Released::none(),
                duplicate: false,
                cum: inn.cum,
            };
        }
        inn.cum += 1;
        let mut rest = Vec::new();
        while let Some(next) = inn.pending.remove(&(inn.cum + 1)) {
            rest.push(next);
            inn.cum += 1;
        }
        let cum = inn.cum;
        self.log.log_delivered(peer, cum);
        DataOutcome {
            deliver: Released {
                first: Some(payload),
                rest,
            },
            duplicate: false,
            cum,
        }
    }

    /// Frames due for retransmission at `now`: up to `burst` lowest unacked
    /// frames per due peer (go-back-N), each decoded from the log. Backs
    /// off the due peers. Cost is O(due peers), not O(all peers): only the
    /// due-index prefix up to `now` is visited.
    pub fn due_retransmits(&mut self, now: u64) -> Vec<(NodeId, u64, M)> {
        let mut out = Vec::new();
        let due_now: Vec<(u64, NodeId)> = self
            .due
            .range(..=(now, NodeId(u32::MAX)))
            .copied()
            .collect();
        for (_, peer) in due_now {
            let state = &mut self.out[peer.index()];
            if state.idle() {
                // Nothing left to resend: disarm instead of leaving a
                // stale deadline that `next_wakeup` keeps reporting.
                Self::set_retry(&mut self.due, peer, state, None);
                continue;
            }
            let window = state.first..state.next_seq.min(state.first + self.cfg.burst as u64);
            out.extend(window.map(|seq| (peer, seq, self.log.unacked(peer, seq))));
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
        let base = self.cfg.base_rto;
        let mut resend = Vec::new();
        self.out.clear();
        self.inn.clear();
        self.due.clear();
        for (&peer, &next_seq) in &state.next_seq {
            let po = slot(&mut self.out, peer, || PeerOut::new(base));
            po.next_seq = next_seq;
            po.first = next_seq;
        }
        for (peer, unacked) in state.outbox {
            let po = slot(&mut self.out, peer, || PeerOut::new(base));
            po.first = po.next_seq - unacked.len() as u64;
            if !po.idle() {
                Self::set_retry(&mut self.due, peer, po, Some(now + base));
            }
            let window = unacked.into_iter().take(self.cfg.burst);
            resend.extend(window.map(|(seq, msg)| (peer, seq, msg)));
        }
        for (peer, cum) in state.delivered {
            slot(&mut self.inn, peer, PeerIn::default).cum = cum;
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

    fn released(o: DataOutcome<u64>) -> Vec<u64> {
        o.deliver.into_iter().collect()
    }

    #[test]
    fn in_order_delivery_and_acks() {
        let mut ep = endpoint();
        let o = ep.on_data(NodeId(1), 1, 10);
        assert_eq!(o.cum, 1);
        assert!(!o.duplicate);
        assert_eq!(released(o), vec![10]);
        let o = ep.on_data(NodeId(1), 2, 20);
        assert_eq!(o.cum, 2);
        assert_eq!(released(o), vec![20]);
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
        assert_eq!(o.cum, 3);
        assert_eq!(o.deliver.len(), 3);
        assert_eq!(released(o), vec![10, 20, 30], "gap fill releases in order");
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
        let state = &mut ep.out[2];
        state.first = state.next_seq;
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
        let state = &mut ep.out[2];
        state.first = state.next_seq;
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
