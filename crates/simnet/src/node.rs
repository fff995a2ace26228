//! The sans-io node abstraction.
//!
//! Every party in a CREW deployment — central engine, parallel engines,
//! application agents, distributed agents, the front-end database — is a
//! [`Node`]: a state machine that consumes one message at a time and emits
//! messages, timer requests and load through a [`Ctx`]. Because nodes never
//! touch real I/O, the same implementations run unchanged under the
//! deterministic discrete-event [`Simulation`](crate::sim::Simulation) and
//! in unit tests that drive their callbacks directly.

use std::any::Any;
use std::fmt;

/// Identifies a node within one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The pseudo-node external clients send from (the administrative
    /// front end's upstream user).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);

    /// Index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "ext")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Identifies a timer a node set for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Output collector handed to node callbacks.
#[derive(Debug)]
pub struct Ctx<M> {
    /// Virtual time (simulation ticks).
    pub now: u64,
    /// The node being invoked.
    pub self_id: NodeId,
    pub(crate) sends: Vec<(NodeId, M)>,
    pub(crate) timers: Vec<(u64, TimerId)>,
    pub(crate) load: u64,
    pub(crate) halted: bool,
}

impl<M> Ctx<M> {
    pub(crate) fn new(now: u64, self_id: NodeId) -> Self {
        Ctx {
            now,
            self_id,
            sends: Vec::new(),
            timers: Vec::new(),
            load: 0,
            halted: false,
        }
    }

    /// A free-standing context whose outputs the caller discards. Used for
    /// WAL replay during recovery — a replaying node must rebuild state
    /// without re-issuing sends, timers, or load — and by unit tests that
    /// drive node callbacks directly, outside a runtime.
    pub fn detached(now: u64, self_id: NodeId) -> Self {
        Ctx::new(now, self_id)
    }

    /// Send `msg` to `to`. Delivery is reliable and in-order per
    /// (sender, receiver) pair — the paper assumes persistent messaging à la
    /// Exotica/FMQM.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Request a timer callback `delay` ticks from now.
    pub fn set_timer(&mut self, delay: u64, id: TimerId) {
        self.timers.push((self.now + delay, id));
    }

    /// Charge abstract instructions to this node — the paper's load metric
    /// (`l` units of navigation work, program costs, etc.).
    pub fn add_load(&mut self, instructions: u64) {
        self.load += instructions;
    }

    /// Ask the runtime to stop the whole deployment (used by test drivers
    /// when a terminal condition is observed).
    pub fn halt(&mut self) {
        self.halted = true;
    }
}

/// A deployment participant. `M` is the deployment's message type.
pub trait Node<M> {
    /// Invoked once before any message is delivered.
    fn on_start(&mut self, _ctx: &mut Ctx<M>) {}

    /// Invoked for each delivered message.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<M>);

    /// Invoked when a timer set via [`Ctx::set_timer`] expires.
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut Ctx<M>) {}

    /// Invoked when the runtime crashes this node (fail-stop). State the
    /// node considers volatile should be dropped here; persistent state
    /// (its AGDB) survives.
    fn on_crash(&mut self) {}

    /// Invoked when the node recovers; buffered messages are delivered
    /// afterwards.
    fn on_recover(&mut self, _ctx: &mut Ctx<M>) {}

    /// Downcasting hook so tests and drivers can inspect concrete node
    /// state after a run.
    fn as_any(&self) -> &dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId::EXTERNAL.to_string(), "ext");
    }

    #[test]
    fn ctx_collects_outputs() {
        let mut ctx: Ctx<&'static str> = Ctx::new(10, NodeId(1));
        ctx.send(NodeId(2), "hello");
        ctx.set_timer(5, TimerId(9));
        ctx.add_load(70);
        ctx.add_load(30);
        assert_eq!(ctx.sends.len(), 1);
        assert_eq!(ctx.timers, vec![(15, TimerId(9))]);
        assert_eq!(ctx.load, 100);
        assert!(!ctx.halted);
        ctx.halt();
        assert!(ctx.halted);
    }
}
