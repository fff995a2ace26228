//! The coordination managers: every coordination decision, made once.
//!
//! The paper's coordination building blocks are mutual exclusion and
//! relative order (§3, Figure 2), enforced by events between the rule sets
//! of the instances involved (§5.1). As with navigation, §6 lets the
//! architectures differ only in *who holds the state and who is told*, so
//! the managers that decide them live here, next to [`crate::InstanceNav`]:
//! [`MutexQueue`] is one mutual exclusion's manager (a holder plus a FIFO
//! queue) and [`RoArbiter`] the relative-order arbiter (the first claim for
//! a linked pair decides which side leads). Each answers with a value —
//! "grant this entry", "this claim made side k the leader" — and never
//! sends, journals or reads a clock. The central engine and the distributed
//! agent hold them and turn the answers into messages; the guards that make
//! a step wait for an answer stay in each shell.

use crew_model::{InstanceId, RelativeOrder, StepId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// For requirement `r` and linked pair `(mine, partner)`: which side `mine`
/// plays (0 = first components, 1 = second), or `None` if `mine` does not
/// participate against `partner`.
pub fn ro_side(r: &RelativeOrder, mine: InstanceId, partner: InstanceId) -> Option<u8> {
    let (a, b) = r.pairs.first()?;
    let (a_schema, b_schema) = (a.schema, b.schema);
    if mine.schema == a_schema && partner.schema == b_schema {
        // Same-schema requirements disambiguate by serial: the lower serial
        // takes side 0.
        if a_schema == b_schema && mine.serial > partner.serial {
            return Some(1);
        }
        Some(0)
    } else if mine.schema == b_schema && partner.schema == a_schema {
        Some(1)
    } else {
        None
    }
}

/// Canonical (side-0 instance, side-1 instance) ordering of a linked pair.
pub fn ro_canonical(
    mine: InstanceId,
    partner: InstanceId,
    my_side: u8,
) -> (InstanceId, InstanceId) {
    if my_side == 0 {
        (mine, partner)
    } else {
        (partner, mine)
    }
}

/// The conflicting steps of `r`, pair by pair (the index is the pair
/// number `k`): `side`'s step, then the other side's.
pub fn ro_steps(r: &RelativeOrder, side: u8) -> impl Iterator<Item = (StepId, StepId)> + '_ {
    r.pairs.iter().map(move |(x, y)| {
        if side == 0 {
            (x.step, y.step)
        } else {
            (y.step, x.step)
        }
    })
}

/// One mutual exclusion's manager: the `(instance, step)` holding the
/// resource and the requests waiting for it, first come first served.
#[derive(Debug, Default)]
pub struct MutexQueue {
    holder: Option<(InstanceId, StepId)>,
    waiting: VecDeque<(InstanceId, StepId)>,
}

impl MutexQueue {
    /// `step` of `instance` asks for the resource. `true`: grant it now —
    /// the resource was free, or the holder asks again because a rollback
    /// voided the grant it was sent. Otherwise the request waits its turn;
    /// one already waiting is not queued twice.
    pub fn acquire(&mut self, instance: InstanceId, step: StepId) -> bool {
        let entry = (instance, step);
        match self.holder {
            None => {
                self.holder = Some(entry);
                true
            }
            Some(holder) => {
                if holder != entry && !self.waiting.contains(&entry) {
                    self.waiting.push_back(entry);
                }
                holder == entry
            }
        }
    }

    /// `step` of `instance` gives the resource back, or withdraws its
    /// request: a waiting request of the releaser is dropped too, so an
    /// aborted instance is never granted later. Returns the next holder to
    /// grant when the releaser held the resource and someone was waiting.
    pub fn release(&mut self, instance: InstanceId, step: StepId) -> Option<(InstanceId, StepId)> {
        let entry = (instance, step);
        self.waiting.retain(|&w| w != entry);
        if self.holder != Some(entry) {
            return None;
        }
        self.holder = self.waiting.pop_front();
        self.holder
    }
}

/// A relative-order decision: which side of a linked pair leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoLeader {
    /// The relative-order requirement.
    pub req: u32,
    /// The side-0 instance of the pair (see [`ro_canonical`]).
    pub a: InstanceId,
    /// The side-1 instance of the pair.
    pub b: InstanceId,
    /// The leading side: 0 (`a`) or 1 (`b`).
    pub side: u8,
}

/// The relative-order arbiter: the leading side per requirement and linked
/// pair. A manager decides through [`Self::claim`]; an owner that only
/// hears the decision mirrors it with [`Self::record`].
#[derive(Debug, Default)]
pub struct RoArbiter {
    leaders: BTreeMap<(u32, InstanceId, InstanceId), u8>,
}

impl RoArbiter {
    /// Manager role: `claimant`, linked with `partner`, is ready to run its
    /// first conflicting step of `order`. The first claim for the pair
    /// decides that the claimant's side leads; every later claim, from
    /// either side, returns `None`, as does a claim `order` does not bind.
    pub fn claim(
        &mut self,
        order: &RelativeOrder,
        claimant: InstanceId,
        partner: InstanceId,
    ) -> Option<RoLeader> {
        let side = ro_side(order, claimant, partner)?;
        let (a, b) = ro_canonical(claimant, partner, side);
        match self.leaders.entry((order.id, a, b)) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => {
                slot.insert(side);
                Some(RoLeader {
                    req: order.id,
                    a,
                    b,
                    side,
                })
            }
        }
    }

    /// Owner role: mirror a decision the manager announced.
    pub fn record(&mut self, decision: RoLeader) {
        let RoLeader { req, a, b, side } = decision;
        self.leaders.insert((req, a, b), side);
    }

    /// The leading side of canonical pair `(a, b)` under `req`, once
    /// decided.
    pub fn leader(&self, req: u32, a: InstanceId, b: InstanceId) -> Option<u8> {
        self.leaders.get(&(req, a, b)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{SchemaId, SchemaStep};
    use proptest::prelude::*;

    fn inst(serial: u32) -> InstanceId {
        InstanceId::new(SchemaId(1), serial)
    }

    fn at(schema: u32, serial: u32) -> InstanceId {
        InstanceId::new(SchemaId(schema), serial)
    }

    /// Relative order `id` over `pairs`, each `[schema, step]` of side 0
    /// then of side 1.
    fn order(id: u32, pairs: &[[u32; 4]]) -> RelativeOrder {
        let ss = |schema, step| SchemaStep::new(SchemaId(schema), StepId(step));
        RelativeOrder {
            id,
            conflict: "r".into(),
            pairs: pairs
                .iter()
                .map(|&[sx, x, sy, y]| (ss(sx, x), ss(sy, y)))
                .collect(),
        }
    }

    #[test]
    fn ro_side_follows_schema_then_serial() {
        let cross = order(0, &[[1, 2, 2, 5], [1, 3, 2, 6]]);
        let same = order(0, &[[1, 2, 1, 4]]);
        let steps = |r, side| {
            ro_steps(r, side)
                .map(|(mine, _)| mine.0)
                .collect::<Vec<_>>()
        };
        // (requirement, mine, partner) → (side, my steps)
        let cases = [
            (&cross, at(1, 9), at(2, 1), Some((0, vec![2, 3]))),
            (&cross, at(2, 1), at(1, 9), Some((1, vec![5, 6]))),
            (&cross, at(3, 1), at(1, 9), None),
            (&same, at(1, 1), at(1, 2), Some((0, vec![2]))),
            (&same, at(1, 2), at(1, 1), Some((1, vec![4]))),
        ];
        for (r, mine, partner, expected) in cases {
            let side = ro_side(r, mine, partner);
            assert_eq!(
                side.map(|s| (s, steps(r, s))),
                expected,
                "{mine} vs {partner}"
            );
            if let Some(side) = side {
                let (a, b) = ro_canonical(mine, partner, side);
                assert_eq!(ro_canonical(partner, mine, 1 - side), (a, b));
                // The partner's steps are the other side's, pair by pair.
                let partner_steps: Vec<_> = ro_steps(r, side).map(|(_, p)| p).collect();
                let other: Vec<_> = ro_steps(r, 1 - side).map(|(s, _)| s).collect();
                assert_eq!(partner_steps, other);
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Acquire(u32, u32),
        Release(u32, u32),
    }

    /// Apply `ops` to a fresh queue; each acquire reports whether it was
    /// granted, each release the entry it handed over to.
    fn drive(ops: &[Op]) -> Vec<String> {
        let mut q = MutexQueue::default();
        ops.iter()
            .map(|&op| match op {
                Op::Acquire(i, s) => format!("{}", q.acquire(inst(i), StepId(s))),
                Op::Release(i, s) => match q.release(inst(i), StepId(s)) {
                    Some((i, s)) => format!("{}.{}", i.serial, s.0),
                    None => "-".into(),
                },
            })
            .collect()
    }

    #[test]
    fn mutex_queue_decisions() {
        use Op::*;
        let cases: [(&str, Vec<Op>, Vec<&str>); 5] = [
            (
                "grants in request order",
                vec![
                    Acquire(1, 1),
                    Acquire(2, 1),
                    Acquire(3, 1),
                    Release(1, 1),
                    Release(2, 1),
                    Release(3, 1),
                ],
                vec!["true", "false", "false", "2.1", "3.1", "-"],
            ),
            (
                "a release by the holder hands over to the next entry",
                vec![Acquire(1, 1), Acquire(1, 2), Release(1, 1)],
                vec!["true", "false", "1.2"],
            ),
            (
                "a release by a queued entry de-queues it without a grant",
                vec![
                    Acquire(1, 1),
                    Acquire(2, 1),
                    Acquire(3, 1),
                    Release(2, 1),
                    Release(1, 1),
                    Release(3, 1),
                ],
                vec!["true", "false", "false", "-", "3.1", "-"],
            ),
            (
                "a duplicate acquire is queued once",
                vec![
                    Acquire(1, 1),
                    Acquire(2, 1),
                    Acquire(2, 1),
                    Release(1, 1),
                    Release(2, 1),
                ],
                vec!["true", "false", "false", "2.1", "-"],
            ),
            (
                "the holder asking again is granted again",
                vec![Acquire(1, 1), Acquire(2, 1), Acquire(1, 1), Release(1, 1)],
                vec!["true", "false", "true", "2.1"],
            ),
        ];
        for (name, ops, expected) in cases {
            assert_eq!(drive(&ops), expected, "{name}");
        }
    }

    #[test]
    fn first_claim_wins_and_the_mirror_agrees() {
        let r = order(7, &[[1, 2, 2, 2], [1, 4, 2, 4]]);
        let (x, y) = (at(1, 1), at(2, 2));
        let mut manager = RoArbiter::default();
        assert_eq!(manager.leader(7, x, y), None);
        let decided = manager.claim(&r, y, x);
        let expected = RoLeader {
            req: 7,
            a: x,
            b: y,
            side: 1,
        };
        assert_eq!(decided, Some(expected), "the claimant's side leads");
        assert_eq!(manager.claim(&r, x, y), None, "the partner's claim is late");
        assert_eq!(manager.claim(&r, y, x), None, "a repeated claim is late");
        assert_eq!(manager.leader(7, x, y), Some(1));
        assert_eq!(manager.claim(&r, at(3, 1), x), None, "not bound by r");

        let mut owner = RoArbiter::default();
        owner.record(expected);
        assert_eq!(owner.leader(7, x, y), manager.leader(7, x, y));
        assert_eq!(owner.leader(8, x, y), None, "per requirement");
        assert_eq!(
            owner.claim(&r, x, y),
            None,
            "an owner that heard it decides nothing"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random acquire/release sequences against a naive reference: a
        /// `Vec` of the requests waiting, in arrival order. Never two
        /// holders, grants in request order, and a released entry is
        /// never granted afterwards unless it asks again.
        #[test]
        fn mutex_queue_matches_a_vec_reference(
            ops in proptest::collection::vec((any::<bool>(), 0u32..3, 1u32..3), 0..40),
        ) {
            let mut q = MutexQueue::default();
            let mut holder: Option<(InstanceId, StepId)> = None;
            let mut waiting: Vec<(InstanceId, StepId)> = Vec::new();
            let mut released: Vec<(InstanceId, StepId)> = Vec::new();
            for (acquire, i, s) in ops {
                let entry = (inst(i), StepId(s));
                if acquire {
                    released.retain(|&r| r != entry);
                    let granted = q.acquire(entry.0, entry.1);
                    let free_or_mine = holder.is_none_or(|h| h == entry);
                    prop_assert_eq!(granted, free_or_mine, "a second holder, or a lost grant");
                    if granted {
                        holder = Some(entry);
                    } else if !waiting.contains(&entry) {
                        waiting.push(entry);
                    }
                } else {
                    let next = q.release(entry.0, entry.1);
                    waiting.retain(|&w| w != entry);
                    released.push(entry);
                    if holder == Some(entry) {
                        let expected = (!waiting.is_empty()).then(|| waiting.remove(0));
                        prop_assert_eq!(next, expected, "grants in request order");
                        holder = next;
                    } else {
                        prop_assert_eq!(next, None, "only the holder hands over");
                    }
                    if let Some(n) = next {
                        prop_assert!(!released.contains(&n), "a released entry was granted");
                    }
                }
            }
        }
    }
}
