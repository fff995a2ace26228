//! A multi-threaded runtime driving the same [`Node`] implementations on
//! real OS threads with crossbeam channels.
//!
//! This is the "live" counterpart of the deterministic simulator: each node
//! runs on its own thread, messages flow through unbounded channels, and
//! the run ends when the deployment goes quiescent (nothing in flight and
//! no pending timer) or a node halts. The experiments use the simulator;
//! the examples use this runtime to show the protocols under genuine
//! concurrency.
//!
//! Timers are supported: a dedicated delay-queue thread holds a min-heap of
//! (deadline, node, timer) entries and delivers [`Node::on_timer`]
//! callbacks through the node's own channel when the wall clock reaches
//! them, so timer handlers are serialized with message handlers exactly as
//! under the simulator. A pending timer counts as in-flight work —
//! quiescence waits for it — which means protocols that re-arm periodic
//! timers never quiesce on their own; the wall-clock [`deadline`] bounds
//! every run regardless (`run` cannot block unboundedly).
//!
//! Quiescence detection is event-driven: the in-flight counter lives under
//! a mutex with a condvar that the last decrement notifies, replacing the
//! old 1 ms sleep-poll watchdog.
//!
//! [`deadline`]: ThreadedRuntime::set_deadline

use crate::metrics::{Classify, Metrics};
use crate::node::{Ctx, Node, NodeId, TimerId};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

enum Envelope<M> {
    Msg { from: NodeId, msg: M },
    Timer(TimerId),
    Shutdown,
}

enum TimerCmd {
    Arm { node: u32, at_ms: u64, id: TimerId },
    Shutdown,
}

#[derive(Default)]
struct Flight {
    in_flight: i64,
    halted: bool,
}

/// In-flight accounting shared by every node thread: +1 when a message is
/// enqueued or a timer armed, -1 after the corresponding handler (and its
/// consequent sends) finished. Zero ⇒ quiescent; the condvar wakes the
/// coordinating thread exactly when that happens.
struct FlightState {
    state: Mutex<Flight>,
    quiet: Condvar,
}

impl FlightState {
    fn new() -> Self {
        FlightState {
            state: Mutex::new(Flight::default()),
            quiet: Condvar::new(),
        }
    }

    fn add(&self, delta: i64) {
        let mut st = self.state.lock();
        st.in_flight += delta;
        if st.in_flight == 0 {
            self.quiet.notify_all();
        }
    }

    fn halt(&self) {
        let mut st = self.state.lock();
        st.halted = true;
        self.quiet.notify_all();
    }

    /// Block until quiescent, halted, or `deadline`; returns whether the
    /// run actually quiesced (as opposed to hitting the deadline).
    fn wait_quiesced(&self, deadline: Instant) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.in_flight == 0 || st.halted {
                return true;
            }
            if self.quiet.wait_until(&mut st, deadline).timed_out() {
                return st.in_flight == 0 || st.halted;
            }
        }
    }
}

/// The delay queue: fires armed timers into their node's mailbox when the
/// wall clock reaches them.
fn timer_thread<M: Send + 'static>(
    rx: Receiver<TimerCmd>,
    senders: Vec<Sender<Envelope<M>>>,
    start: Instant,
) {
    let mut heap: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
    loop {
        let now_ms = start.elapsed().as_millis() as u64;
        while let Some(&Reverse((at, node, id))) = heap.peek() {
            if at > now_ms {
                break;
            }
            heap.pop();
            if let Some(tx) = senders.get(node as usize) {
                let _ = tx.send(Envelope::Timer(TimerId(id)));
            }
        }
        let wait = match heap.peek() {
            Some(&Reverse((at, _, _))) => {
                let now_ms = start.elapsed().as_millis() as u64;
                Duration::from_millis(at.saturating_sub(now_ms).max(1))
            }
            None => Duration::from_millis(250),
        };
        match rx.recv_timeout(wait) {
            Ok(TimerCmd::Arm { node, at_ms, id }) => heap.push(Reverse((at_ms, node, id.0))),
            Ok(TimerCmd::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Runs a set of nodes on threads until quiescence (or the deadline).
pub struct ThreadedRuntime<M> {
    nodes: Vec<Box<dyn Node<M>>>,
    deadline: Duration,
}

impl<M: Classify + Clone + std::fmt::Debug + Send + 'static> Default for ThreadedRuntime<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Classify + Clone + std::fmt::Debug + Send + 'static> ThreadedRuntime<M> {
    /// Create a new, empty value.
    pub fn new() -> Self {
        ThreadedRuntime {
            nodes: Vec::new(),
            deadline: Duration::from_secs(30),
        }
    }

    /// Register a node; ids are assigned densely from 0 (matching the
    /// simulator, so deployments build identically for both runtimes).
    pub fn add_node(&mut self, node: impl Node<M> + 'static) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Box::new(node));
        id
    }

    /// Bound the whole run by wall-clock time (default 30 s). Deployments
    /// with periodic re-arming timers never quiesce on their own; this is
    /// what guarantees [`run`](Self::run) returns regardless.
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    /// Run the deployment: deliver `initial` external messages, then let
    /// the nodes exchange messages and timers until nothing is in flight
    /// (or the deadline passes). Returns the merged metrics and the nodes
    /// (for state inspection).
    pub fn run(self, initial: Vec<(NodeId, M)>) -> (Metrics, Vec<Box<dyn Node<M>>>) {
        let n = self.nodes.len();
        let mut senders: Vec<Sender<Envelope<M>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Envelope<M>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let flight = Arc::new(FlightState::new());
        let metrics = Arc::new(Mutex::new(Metrics::default()));
        let start = Instant::now();

        let (timer_tx, timer_rx) = unbounded();
        let timer_handle = {
            let senders = senders.clone();
            std::thread::spawn(move || timer_thread(timer_rx, senders, start))
        };

        let send_to = {
            let senders = senders.clone();
            let flight = flight.clone();
            move |from: NodeId, to: NodeId, msg: M| {
                if let Some(tx) = senders.get(to.index()) {
                    flight.add(1);
                    // Receiver threads only exit after Shutdown, so sends
                    // cannot fail while the run is live.
                    let _ = tx.send(Envelope::Msg { from, msg });
                }
            }
        };

        for (to, msg) in initial {
            send_to(NodeId::EXTERNAL, to, msg);
        }

        // One startup token per node: quiescence cannot be declared until
        // every node ran `on_start` and its sends/timers were counted.
        flight.add(n as i64);

        let mut handles = Vec::with_capacity(n);
        for (i, (mut node, rx)) in self.nodes.into_iter().zip(receivers).enumerate() {
            let id = NodeId(i as u32);
            let send_to = send_to.clone();
            let flight = flight.clone();
            let metrics = metrics.clone();
            let timer_tx = timer_tx.clone();
            handles.push(std::thread::spawn(move || {
                // on_start before consuming messages.
                let mut ctx = Ctx::new(0, id);
                node.on_start(&mut ctx);
                flush(id, ctx, &send_to, &metrics, &flight, &timer_tx);
                flight.add(-1); // release the startup token
                while let Ok(env) = rx.recv() {
                    match env {
                        Envelope::Shutdown => break,
                        Envelope::Msg { from, msg } => {
                            {
                                let mut m = metrics.lock();
                                m.record_message(
                                    msg.kind(),
                                    msg.mechanism(),
                                    msg.approx_size(),
                                    id,
                                );
                            }
                            let mut ctx = Ctx::new(start.elapsed().as_millis() as u64, id);
                            node.on_message(from, msg, &mut ctx);
                            flush(id, ctx, &send_to, &metrics, &flight, &timer_tx);
                            flight.add(-1);
                        }
                        Envelope::Timer(timer) => {
                            let mut ctx = Ctx::new(start.elapsed().as_millis() as u64, id);
                            node.on_timer(timer, &mut ctx);
                            flush(id, ctx, &send_to, &metrics, &flight, &timer_tx);
                            flight.add(-1);
                        }
                    }
                }
                node
            }));
        }

        flight.wait_quiesced(start + self.deadline);
        for tx in &senders {
            let _ = tx.send(Envelope::Shutdown);
        }
        let _ = timer_tx.send(TimerCmd::Shutdown);
        let nodes: Vec<Box<dyn Node<M>>> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        timer_handle.join().expect("timer thread panicked");
        let metrics = Arc::try_unwrap(metrics)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| arc.lock().clone());
        (metrics, nodes)
    }
}

fn flush<M: Classify + Clone + std::fmt::Debug + Send + 'static>(
    id: NodeId,
    ctx: Ctx<M>,
    send_to: &impl Fn(NodeId, NodeId, M),
    metrics: &Arc<Mutex<Metrics>>,
    flight: &Arc<FlightState>,
    timer_tx: &Sender<TimerCmd>,
) {
    metrics.lock().record_load(id, ctx.load);
    if ctx.halted {
        flight.halt();
    }
    for (to, msg) in ctx.sends {
        send_to(id, to, msg);
    }
    // `Ctx::set_timer` stores absolute fire times (now + delay, in ms under
    // this runtime). Armed timers count as in-flight until handled.
    for (at_ms, timer) in ctx.timers {
        flight.add(1);
        let _ = timer_tx.send(TimerCmd::Arm {
            node: id.0,
            at_ms,
            id: timer,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Mechanism;
    use std::any::Any;

    #[derive(Debug, Clone)]
    struct Token(u32);

    impl Classify for Token {
        fn kind(&self) -> &'static str {
            "Token"
        }
        fn mechanism(&self) -> Mechanism {
            Mechanism::Normal
        }
    }

    /// Passes a token around a ring `laps` times.
    struct RingNode {
        next: NodeId,
        seen: u32,
    }

    impl Node<Token> for RingNode {
        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Ctx<Token>) {
            self.seen += 1;
            ctx.add_load(1);
            if msg.0 > 0 {
                ctx.send(self.next, Token(msg.0 - 1));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn ring_runs_to_quiescence() {
        let mut rt = ThreadedRuntime::new();
        let n = 4u32;
        let hops = 20u32;
        for i in 0..n {
            rt.add_node(RingNode {
                next: NodeId((i + 1) % n),
                seen: 0,
            });
        }
        let (metrics, nodes) = rt.run(vec![(NodeId(0), Token(hops))]);
        assert_eq!(metrics.total_messages as u32, hops + 1);
        let total_seen: u32 = nodes
            .iter()
            .map(|b| b.as_any().downcast_ref::<RingNode>().unwrap().seen)
            .sum();
        assert_eq!(total_seen, hops + 1);
        let total_load: u64 = metrics.load_by_node.values().sum();
        assert_eq!(total_load as u32, hops + 1);
    }

    #[test]
    fn empty_initial_terminates() {
        let mut rt = ThreadedRuntime::new();
        rt.add_node(RingNode {
            next: NodeId(0),
            seen: 0,
        });
        let (metrics, _) = rt.run(vec![]);
        assert_eq!(metrics.total_messages, 0);
    }

    /// Arms a one-shot timer on start and sends one message when it fires.
    struct TimerNode {
        peer: NodeId,
        fired: u32,
        got: u32,
    }

    impl Node<Token> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            ctx.set_timer(5, TimerId(7));
        }
        fn on_message(&mut self, _from: NodeId, _msg: Token, _ctx: &mut Ctx<Token>) {
            self.got += 1;
        }
        fn on_timer(&mut self, timer: TimerId, ctx: &mut Ctx<Token>) {
            assert_eq!(timer, TimerId(7));
            self.fired += 1;
            ctx.send(self.peer, Token(0));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_and_quiesce() {
        let mut rt = ThreadedRuntime::new();
        rt.add_node(TimerNode {
            peer: NodeId(1),
            fired: 0,
            got: 0,
        });
        rt.add_node(TimerNode {
            peer: NodeId(0),
            fired: 0,
            got: 0,
        });
        let (metrics, nodes) = rt.run(vec![]);
        for node in &nodes {
            let t = node.as_any().downcast_ref::<TimerNode>().unwrap();
            assert_eq!(t.fired, 1);
            assert_eq!(t.got, 1);
        }
        assert_eq!(metrics.total_messages, 2);
    }

    /// Re-arms its timer forever: the deployment never quiesces, so only
    /// the deadline ends the run.
    struct EternalNode {
        fired: u32,
    }

    impl Node<Token> for EternalNode {
        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            ctx.set_timer(1, TimerId(1));
        }
        fn on_message(&mut self, _from: NodeId, _msg: Token, _ctx: &mut Ctx<Token>) {}
        fn on_timer(&mut self, _timer: TimerId, ctx: &mut Ctx<Token>) {
            self.fired += 1;
            ctx.set_timer(1, TimerId(1));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn deadline_bounds_rearming_timers() {
        let mut rt = ThreadedRuntime::new();
        rt.add_node(EternalNode { fired: 0 });
        rt.set_deadline(Duration::from_millis(200));
        let begin = Instant::now();
        let (_, nodes) = rt.run(vec![]);
        assert!(begin.elapsed() < Duration::from_secs(10), "run was bounded");
        let node = nodes[0].as_any().downcast_ref::<EternalNode>().unwrap();
        assert!(node.fired >= 1, "periodic timer fired at least once");
    }
}
