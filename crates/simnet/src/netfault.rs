//! Deterministic network fault injection.
//!
//! The paper's distributed-control protocols assume "messages are reliably
//! delivered between agents" (§4) via a persistent-messaging substrate. A
//! [`NetFaultPlan`] removes that free reliability: it turns a seed plus
//! drop/duplicate/reorder probabilities — or explicitly scripted events —
//! into deterministic per-wire-frame decisions, mirroring the design of
//! `crew_exec::FailurePlan` for logical step failures. The reliable channel
//! layer ([`crate::reliable`]) then has to win it back.
//!
//! Every draw is keyed by `(seed, from, to, wire-frame counter, salt)`
//! where the wire-frame counter numbers physical transmissions on a
//! directed link from 1 — retransmissions of a dropped frame get fresh
//! draws, so a lossy link cannot deterministically swallow the same message
//! forever. The draws of one frame share the key prefix, so
//! [`NetFaultPlan::frame`] mixes it once and each salt adds one round.

use crate::node::NodeId;
use crew_exec::hash;
use std::collections::BTreeSet;

// Each fault class's salt, mixed as `hash::combine` mixes a key part.
const SALT_DROP: u64 = hash::mix64(0x4E7D);
const SALT_DUP: u64 = hash::mix64(0x4E7A);
const SALT_REORDER: u64 = hash::mix64(0x4E70);
/// Keys the reorder delay, once the reorder draw has hit.
const SALT_REORDER_DELAY: u64 = hash::mix64(0x4E70 ^ 0xFF);

/// A scripted link partition: frames on the (bidirectional) link between
/// `a` and `b` are dropped while `from_tick <= now < until_tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCut {
    /// One endpoint of the cut link.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First tick of the outage (inclusive).
    pub from_tick: u64,
    /// End of the outage (exclusive). Use a finite value unless the run is
    /// deliberately a stall test: a never-healing cut keeps retransmission
    /// timers alive until the horizon.
    pub until_tick: u64,
}

impl LinkCut {
    fn covers(&self, x: NodeId, y: NodeId, now: u64) -> bool {
        let on_link = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        on_link && now >= self.from_tick && now < self.until_tick
    }
}

/// Deterministic source of injected network faults.
///
/// Mirrors [`crew_exec::FailurePlan`]: probabilities for stochastic
/// workloads, `BTreeSet`s of scripted events for exact tests, all keyed by
/// one seed so identical runs reproduce identical fault patterns.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Seed keying every probabilistic draw.
    pub seed: u64,
    /// Probability that a wire frame is dropped.
    pub p_drop: f64,
    /// Probability that a wire frame is duplicated (a second copy is
    /// delivered with an independent latency draw).
    pub p_dup: f64,
    /// Probability that a wire frame is reordered: it is held back by an
    /// extra latency in `[1, reorder_extra]`, letting later sends overtake
    /// it.
    pub p_reorder: f64,
    /// Maximum extra delay of a reordered frame.
    pub reorder_extra: u64,
    /// Scripted link partitions.
    pub cuts: Vec<LinkCut>,
    /// Scripted drops: `(from, to, wire-frame counter)` triples that are
    /// dropped regardless of `p_drop`. Wire frames on a directed link are
    /// numbered from 1 in transmission order (including retransmissions
    /// and acks).
    pub scripted_drops: BTreeSet<(u32, u32, u64)>,
}

impl NetFaultPlan {
    /// A plan that never injects anything (the reliable channel still runs,
    /// so this isolates pure protocol overhead).
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// A plan with the given probabilities, default reorder window, no
    /// scripted events.
    pub fn probabilistic(seed: u64, p_drop: f64, p_dup: f64, p_reorder: f64) -> Self {
        NetFaultPlan {
            seed,
            p_drop,
            p_dup,
            p_reorder,
            reorder_extra: 6,
            ..NetFaultPlan::default()
        }
    }

    /// Script a partition of the link between `a` and `b` during
    /// `[from_tick, until_tick)`.
    pub fn cut(mut self, a: NodeId, b: NodeId, from_tick: u64, until_tick: u64) -> Self {
        self.cuts.push(LinkCut {
            a,
            b,
            from_tick,
            until_tick,
        });
        self
    }

    /// Script the drop of the `wire_frame`-th transmission (1-based) on the
    /// directed link `from → to`.
    pub fn drop_frame(mut self, from: NodeId, to: NodeId, wire_frame: u64) -> Self {
        self.scripted_drops.insert((from.0, to.0, wire_frame));
        self
    }

    /// Override the reorder window.
    pub fn with_reorder_extra(mut self, reorder_extra: u64) -> Self {
        self.reorder_extra = reorder_extra;
        self
    }

    /// Is the link `from → to` partitioned at `now`?
    pub fn partitioned(&self, from: NodeId, to: NodeId, now: u64) -> bool {
        self.cuts.iter().any(|c| c.covers(from, to, now))
    }

    /// The fault draws of the `wire_frame`-th transmission on the directed
    /// link `from → to`.
    pub fn frame(&self, from: NodeId, to: NodeId, wire_frame: u64) -> FrameFaults<'_> {
        FrameFaults {
            plan: self,
            from,
            to,
            wire_frame,
            key: hash::combine(self.seed, &[from.0 as u64, to.0 as u64, wire_frame]),
        }
    }

    /// True when the plan can never perturb a frame (no probabilities, no
    /// scripted drops, no cuts).
    pub fn is_quiet(&self) -> bool {
        self.p_drop == 0.0
            && self.p_dup == 0.0
            && self.p_reorder == 0.0
            && self.cuts.is_empty()
            && self.scripted_drops.is_empty()
    }
}

/// The fault draws of one wire frame. `key` is
/// `combine(seed, [from, to, wire_frame])`; a salted draw is
/// `mix64(key ^ mix64(salt))`, which is `combine(seed, [from, to,
/// wire_frame, salt])` bit for bit, at one mixing round instead of nine
/// (the salts are mixed at compile time).
#[derive(Debug)]
pub struct FrameFaults<'a> {
    plan: &'a NetFaultPlan,
    from: NodeId,
    to: NodeId,
    wire_frame: u64,
    key: u64,
}

impl FrameFaults<'_> {
    /// The frame's draw under `salt`, with probability `p`.
    fn hits(&self, salt: u64, p: f64) -> bool {
        p > 0.0 && hash::unit(self.salted(salt)) < p
    }

    /// The frame's key word under an already-mixed `salt`.
    fn salted(&self, salt: u64) -> u64 {
        hash::mix64(self.key ^ salt)
    }

    /// Should the frame be dropped?
    pub fn drops(&self) -> bool {
        let link = (self.from.0, self.to.0, self.wire_frame);
        self.plan.scripted_drops.contains(&link) || self.hits(SALT_DROP, self.plan.p_drop)
    }

    /// Should the frame be duplicated?
    pub fn duplicates(&self) -> bool {
        self.hits(SALT_DUP, self.plan.p_dup)
    }

    /// Extra delay (0 = not reordered) injected into the frame.
    pub fn reorder_delay(&self) -> u64 {
        let extra = self.plan.reorder_extra;
        if extra == 0 || !self.hits(SALT_REORDER, self.plan.p_reorder) {
            return 0;
        }
        1 + self.salted(SALT_REORDER_DELAY) % extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_quiet() {
        let p = NetFaultPlan::none();
        assert!(p.is_quiet());
        for w in 1..200 {
            assert!(!p.frame(NodeId(0), NodeId(1), w).drops());
            assert!(!p.frame(NodeId(0), NodeId(1), w).duplicates());
            assert_eq!(p.frame(NodeId(0), NodeId(1), w).reorder_delay(), 0);
        }
        assert!(!p.partitioned(NodeId(0), NodeId(1), 5));
    }

    #[test]
    fn scripted_drop_fires_exactly_once_per_frame() {
        let p = NetFaultPlan::none().drop_frame(NodeId(2), NodeId(3), 1);
        assert!(!p.is_quiet());
        assert!(p.frame(NodeId(2), NodeId(3), 1).drops());
        assert!(
            !p.frame(NodeId(2), NodeId(3), 2).drops(),
            "retransmission survives"
        );
        assert!(!p.frame(NodeId(3), NodeId(2), 1).drops(), "directed link");
    }

    #[test]
    fn cuts_are_bidirectional_and_windowed() {
        let p = NetFaultPlan::none().cut(NodeId(0), NodeId(1), 10, 20);
        assert!(p.partitioned(NodeId(0), NodeId(1), 10));
        assert!(p.partitioned(NodeId(1), NodeId(0), 19));
        assert!(!p.partitioned(NodeId(0), NodeId(1), 9));
        assert!(!p.partitioned(NodeId(0), NodeId(1), 20), "heals");
        assert!(!p.partitioned(NodeId(0), NodeId(2), 15), "other links fine");
    }

    #[test]
    fn probabilistic_rates_roughly_match() {
        let p = NetFaultPlan::probabilistic(11, 0.1, 0.05, 0.2);
        let n = 4000u64;
        let drops = (1..=n)
            .filter(|&w| p.frame(NodeId(0), NodeId(1), w).drops())
            .count();
        let dups = (1..=n)
            .filter(|&w| p.frame(NodeId(0), NodeId(1), w).duplicates())
            .count();
        let reorders = (1..=n)
            .filter(|&w| p.frame(NodeId(0), NodeId(1), w).reorder_delay() > 0)
            .count();
        assert!((250..550).contains(&drops), "p_drop {drops}");
        assert!((100..320).contains(&dups), "p_dup {dups}");
        assert!((600..1000).contains(&reorders), "p_reorder {reorders}");
    }

    #[test]
    fn draws_are_deterministic_and_per_frame() {
        let p = NetFaultPlan::probabilistic(7, 0.5, 0.5, 0.5);
        for w in 1..100 {
            assert_eq!(
                p.frame(NodeId(1), NodeId(2), w).drops(),
                p.frame(NodeId(1), NodeId(2), w).drops()
            );
        }
        // Different frames on the same link draw independently.
        let distinct: std::collections::BTreeSet<bool> = (1..40)
            .map(|w| p.frame(NodeId(1), NodeId(2), w).drops())
            .collect();
        assert_eq!(distinct.len(), 2, "both outcomes occur");
    }

    #[test]
    fn reorder_delay_bounded() {
        let p = NetFaultPlan::probabilistic(3, 0.0, 0.0, 1.0).with_reorder_extra(4);
        for w in 1..200 {
            let d = p.frame(NodeId(0), NodeId(1), w).reorder_delay();
            assert!((1..=4).contains(&d), "delay {d} within window");
        }
    }

    /// The keyed draws equal the four-part `hash` draws a frame's faults
    /// are specified by, over a grid of links and wire frames and a spread
    /// of plans.
    #[test]
    fn keyed_draws_equal_the_four_part_draws() {
        let plans = [
            NetFaultPlan::probabilistic(42, 0.05, 0.05, 0.1),
            NetFaultPlan::probabilistic(7, 0.5, 0.3, 0.9).with_reorder_extra(11),
            NetFaultPlan::probabilistic(u64::MAX, 1.0, 1.0, 1.0).with_reorder_extra(1),
            NetFaultPlan::probabilistic(3, 0.2, 0.0, 0.4).with_reorder_extra(0),
        ];
        let nodes = [0, 1, 2, 5, u32::MAX];
        let mut hits = [0; 3];
        for plan in &plans {
            for from in nodes {
                for to in nodes {
                    for wf in (1..60).chain([u64::MAX]) {
                        let key = |salt| [from as u64, to as u64, wf, salt];
                        let drops = hash::draw(plan.seed, &key(0x4E7D), plan.p_drop);
                        let dups = hash::draw(plan.seed, &key(0x4E7A), plan.p_dup);
                        let delay = if plan.reorder_extra == 0
                            || !hash::draw(plan.seed, &key(0x4E70), plan.p_reorder)
                        {
                            0
                        } else {
                            1 + hash::combine(plan.seed, &key(0x4E70 ^ 0xFF)) % plan.reorder_extra
                        };
                        let f = plan.frame(NodeId(from), NodeId(to), wf);
                        assert_eq!(
                            (f.drops(), f.duplicates(), f.reorder_delay()),
                            (drops, dups, delay),
                            "seed {} link {from} -> {to} frame {wf}",
                            plan.seed
                        );
                        hits[0] += usize::from(drops);
                        hits[1] += usize::from(dups);
                        hits[2] += usize::from(delay > 1);
                    }
                }
            }
        }
        assert!(hits.iter().all(|&n| n > 100), "every draw hits: {hits:?}");
    }
}
