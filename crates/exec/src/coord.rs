//! Coordination, decided once: the managers and the guards.
//!
//! The paper's coordination building blocks are mutual exclusion and
//! relative order (§3, Figure 2), enforced by events between the rule sets
//! of the instances involved (§5.1). As with navigation, §6 lets the
//! architectures differ only in *who holds the state and who is told*, so
//! both halves of coordination live here, next to [`crate::InstanceNav`]:
//!
//! - the managers: [`MutexQueue`] is one mutual exclusion's manager (a
//!   holder plus a FIFO queue) and [`RoArbiter`] the relative-order arbiter
//!   (the first claim for a linked pair decides which side leads);
//! - the guards: [`Gate`] is what one instance's steps wait on — the
//!   releases of the orders they lag in, the grants of the mutexes they are
//!   members of — and what they owe their partners when they complete.
//!
//! Each answers with a value — "grant this entry", "this claim made side k
//! the leader", "send this claim, then ask again", "retry these steps" —
//! and never sends, journals or reads a clock. The central engine and the
//! distributed agent hold them and turn the answers into messages.

use crate::deploy::Deployment;
use crate::hash::combine;
use crew_model::{InstanceId, RelativeOrder, StepId, VecMap, VecSet};
use std::collections::{BTreeSet, VecDeque};

const KIND_RO_GUARD: u64 = 1;
const KIND_MUTEX_GRANT: u64 = 2;

/// The tag of the guard of pair `k` of relative order `req` between the
/// canonical pair `(a, b)` on `side`: released by the decision on the
/// leading side, by the leader's completion of its step `k` on the lagging
/// side. Both sides derive it independently, so it is a pure hash of the
/// requirement, the pair index, the side and the two instances.
pub fn ro_guard(req: u32, k: usize, side: u8, a: InstanceId, b: InstanceId) -> u64 {
    let [a0, a1, b0, b1] = [a.schema.0, a.serial, b.schema.0, b.serial].map(u64::from);
    combine(
        KIND_RO_GUARD,
        &[req.into(), k as u64, side.into(), a0, a1, b0, b1],
    )
}

/// The tag of mutual exclusion `req`'s grant to `step` of `instance`.
pub fn mutex_grant(req: u32, instance: InstanceId, step: StepId) -> u64 {
    let parts = [req, instance.schema.0, instance.serial, step.0].map(u64::from);
    combine(KIND_MUTEX_GRANT, &parts)
}

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

/// The relative-order arbiter: the linked pairs, per requirement, whose
/// leading side [`Self::claim`] has decided.
#[derive(Debug, Default)]
pub struct RoArbiter {
    decided: BTreeSet<(u32, InstanceId, InstanceId)>,
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
        self.decided.insert((order.id, a, b)).then_some(RoLeader {
            req: order.id,
            a,
            b,
            side,
        })
    }
}

/// One thing a step waits on, keyed by its tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Guard {
    tag: u64,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A relative-order guard; pair 0's carries the claim `(req, partner)`
    /// that asks the arbiter to decide the pair.
    Order(Option<(u32, InstanceId)>),
    /// Mutual exclusion `req`'s grant.
    Grant(u32),
}

/// A step that did not pass its check: whether an order guard holds it,
/// and whether its shell is still sending what the check asked for (and
/// will check again) or has parked it until an answer retries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wait {
    on_order: bool,
    asking: bool,
}

/// A message a shell sends to a manager on the gate's behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Claim the lead of relative order `.0` against partner `.1`.
    Claim(u32, InstanceId),
    /// Ask mutual exclusion `.0`'s manager for the resource for step `.1`.
    Acquire(u32, StepId),
    /// Give mutual exclusion `.0`'s resource back (or withdraw the request)
    /// for step `.1`.
    Release(u32, StepId),
}

/// A release a leading step owes its lagging partner once it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obligation {
    /// The relative order.
    pub req: u32,
    /// The pair index.
    pub k: usize,
    /// The lagging instance.
    pub partner: InstanceId,
    /// The lagging step the release lets run.
    pub partner_step: StepId,
    /// The tag of the lagging step's guard.
    pub tag: u64,
}

/// The gate's verdict on a step that is about to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every guard holds: run it.
    Go,
    /// Send these requests, then check again unless the step is no longer
    /// [`Gate::asking`]: a manager on this node may answer on the spot.
    Send(Vec<Request>),
    /// Nothing left to ask: the step is parked until an answer retries it.
    Parked,
}

/// What an answer, a decision or a completion asks of the shell, in the
/// order to do it: retry the steps, emit the releases owed, send the
/// requests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Wake {
    /// Parked steps to start again.
    pub retry: Vec<StepId>,
    /// Releases to send to lagging partners.
    pub emit: Vec<Obligation>,
    /// Requests to send to managers.
    pub send: Vec<Request>,
}

impl Wake {
    /// Nothing to do.
    pub fn is_empty(&self) -> bool {
        self.retry.is_empty() && self.emit.is_empty() && self.send.is_empty()
    }
}

/// The coordination guard of one instance, over the steps a node holds.
///
/// Three rules hold for every shell (DESIGN §6g):
/// 1. an order guard, once satisfied, stays satisfied;
/// 2. the step parked on a grant consumes it; a grant no step asked for is
///    handed back at once; a held grant is released when its step
///    completes or the instance aborts;
/// 3. a rollback unparks the steps it invalidates; they wait again when
///    their rule re-fires.
///
/// A step whose shell is still sending its requests is retried by a
/// release, which the agent's arbiter sends on the spot to release the
/// leader's own guard; a decision or a grant that answers it on the spot
/// is picked up by the shell's re-check.
#[derive(Debug, Default)]
pub struct Gate {
    /// The guards of each held step that has any, order guards first.
    guards: VecMap<StepId, Vec<Guard>>,
    /// Order guards released and grants held.
    met: VecSet<u64>,
    /// Pair-0 guards whose pair is known to be decided: no claim needed.
    decided: VecSet<u64>,
    /// Claims and acquires sent for the current waits.
    asked: VecSet<u64>,
    /// Steps that did not pass their check.
    waiting: VecMap<StepId, Wait>,
    /// Releases owed, per leading step, in the order they were learned.
    owed: Vec<(StepId, Obligation)>,
    /// The instance aborted: what it owes is paid at once.
    aborted: bool,
}

impl Gate {
    /// The guards of `instance`'s steps that `holds` accepts: one per
    /// relative order, linked partner and pair naming the step (pair 0's
    /// carries the claim), then one per mutual exclusion naming it. `None`
    /// when no held step has a guard. This is the paper's
    /// `AddPrecondition`, done once: no guard is added later.
    pub fn wire(
        deployment: &Deployment,
        instance: InstanceId,
        holds: impl Fn(StepId) -> bool,
    ) -> Option<Box<Gate>> {
        let mut gate = Gate::default();
        let mut add = |step, tag, kind| {
            if holds(step) {
                let guards = gate.guards.entry(step).or_default();
                guards.push(Guard { tag, kind });
            }
        };
        let coordination = &deployment.coordination;
        let partners = deployment.ro_links.partners_of(instance);
        for r in &coordination.relative_orders {
            for partner in partners.clone() {
                let Some(side) = ro_side(r, instance, partner) else {
                    continue;
                };
                let (a, b) = ro_canonical(instance, partner, side);
                for (k, (step, _)) in ro_steps(r, side).enumerate() {
                    let claim = (k == 0).then_some((r.id, partner));
                    add(step, ro_guard(r.id, k, side, a, b), Kind::Order(claim));
                }
            }
        }
        for m in &coordination.mutual_exclusions {
            for member in m.members.iter().filter(|s| s.schema == instance.schema) {
                let tag = mutex_grant(m.id, instance, member.step);
                add(member.step, tag, Kind::Grant(m.id));
            }
        }
        (!gate.guards.is_empty()).then(|| Box::new(gate))
    }

    /// May `step` run? Returns the verdict and the number of guards
    /// examined (the engine charges one navigation load per guard). The
    /// order guards are examined first, up to the first that does not
    /// hold; it asks for a claim when it is pair 0's, not yet claimed in
    /// this wait and not known to be decided. Only once every order guard
    /// holds are the grants examined, each asked for once per wait.
    pub fn check(&mut self, step: StepId) -> (usize, Verdict) {
        let guards = self.guards.get(&step).map_or(&[][..], Vec::as_slice);
        let (mut examined, mut send, mut on_order) = (0, Vec::new(), None);
        for &Guard { tag, kind } in guards {
            examined += 1;
            if self.met.contains(&tag) {
                continue;
            }
            // A claim only while the pair may be undecided; every request
            // once per wait.
            let ask = match kind {
                Kind::Order(claim) => claim
                    .filter(|_| !self.decided.contains(&tag))
                    .map(|(req, partner)| Request::Claim(req, partner)),
                Kind::Grant(req) => Some(Request::Acquire(req, step)),
            };
            send.extend(ask.filter(|_| self.asked.insert(tag)));
            on_order = Some(matches!(kind, Kind::Order(_)));
            if on_order == Some(true) {
                break;
            }
        }
        let Some(on_order) = on_order else {
            self.unpark([step]);
            return (examined, Verdict::Go);
        };
        let asking = !send.is_empty();
        self.waiting.insert(step, Wait { on_order, asking });
        let verdict = if asking {
            Verdict::Send(send)
        } else {
            Verdict::Parked
        };
        (examined, verdict)
    }

    /// Whether `step`'s shell is still sending what its check asked for:
    /// no answer has retried it since.
    pub fn asking(&self, step: StepId) -> bool {
        self.waiting.get(&step).is_some_and(|w| w.asking)
    }

    /// The steps waiting on an order guard that `retry` accepts, no longer
    /// waiting.
    fn retry_ordered(&mut self, retry: impl Fn(Wait) -> bool) -> Vec<StepId> {
        let waits = self.waiting.iter().filter(|(_, &w)| w.on_order && retry(w));
        let steps: Vec<StepId> = waits.map(|(&s, _)| s).collect();
        self.waiting.retain(|s, _| !steps.contains(s));
        steps
    }

    /// A release or a grant arrived for guard `tag`. A release satisfies
    /// the order guard for good and retries every step waiting on an order
    /// guard. A grant is held when its step asked for it in this wait — the
    /// step is retried if it is parked and its last grant is met — and is
    /// handed back otherwise, unless it is already held.
    pub fn satisfy(&mut self, tag: u64) -> Wake {
        let mut wake = Wake::default();
        let found = self.guards.iter().find_map(|(&step, guards)| {
            let guard = guards.iter().find(|g| g.tag == tag)?;
            Some((step, guard.kind))
        });
        match found {
            None => {}
            Some((_, Kind::Order(_))) => {
                self.met.insert(tag);
                wake.retry = self.retry_ordered(|_| true);
            }
            Some((step, Kind::Grant(req))) => {
                if self.asked.remove(&tag) {
                    self.met.insert(tag);
                    let all_met = self.guards[&step].iter().all(|g| self.met.contains(&g.tag));
                    let parked = self.waiting.get(&step).is_some_and(|w| !w.asking);
                    if all_met && parked {
                        self.waiting.remove(&step);
                        wake.retry.push(step);
                    }
                } else if !self.met.contains(&tag) {
                    wake.send.push(Request::Release(req, step));
                }
            }
        }
        wake
    }

    /// `me` learned that `decision` decided its pair under `order`: no more
    /// claims for it. On the leading side the leader's guards are
    /// satisfied and its releases owed to the lagger are installed (see
    /// [`Self::oblige`]). Every step parked on an order guard is retried.
    pub fn decide(
        &mut self,
        order: &RelativeOrder,
        decision: RoLeader,
        me: InstanceId,
        done: impl Fn(StepId) -> bool,
    ) -> Wake {
        let RoLeader { req, a, b, side } = decision;
        let mine = u8::from(me != a);
        self.decided.insert(ro_guard(req, 0, mine, a, b));
        let mut wake = Wake::default();
        if mine == side {
            for (k, (step, _)) in ro_steps(order, mine).enumerate() {
                self.met.insert(ro_guard(req, k, mine, a, b));
                wake.emit
                    .extend(self.oblige(order, decision, step, &done).emit);
            }
        }
        wake.retry = self.retry_ordered(|wait| !wait.asking);
        wake
    }

    /// The leader of `decision` owes the lagger the release of the pair
    /// whose leading step is `step`, once `step` completes: emitted at
    /// once when the obligation is new and `step` already completed or the
    /// instance aborted.
    pub fn oblige(
        &mut self,
        order: &RelativeOrder,
        decision: RoLeader,
        step: StepId,
        done: impl Fn(StepId) -> bool,
    ) -> Wake {
        let RoLeader { req, a, b, side } = decision;
        let mut pairs = ro_steps(order, side).enumerate();
        let Some((k, (_, partner_step))) = pairs.find(|(_, (s, _))| *s == step) else {
            return Wake::default();
        };
        let partner = if side == 0 { b } else { a };
        let tag = ro_guard(req, k, 1 - side, a, b);
        let owed = Obligation {
            req,
            k,
            partner,
            partner_step,
            tag,
        };
        let mut wake = Wake::default();
        if !self.owed.contains(&(step, owed)) {
            self.owed.push((step, owed));
            if self.aborted || done(step) {
                wake.emit.push(owed);
            }
        }
        wake
    }

    /// `step` completed: the releases it owes, and the grants it held,
    /// which go back to their managers.
    pub fn done(&mut self, step: StepId) -> Wake {
        let mut wake = Wake::default();
        let owed = self.owed.iter().filter(|(s, _)| *s == step);
        wake.emit = owed.map(|&(_, o)| o).collect();
        for guard in self.guards.get(&step).into_iter().flatten() {
            if let Kind::Grant(req) = guard.kind {
                if self.met.remove(&guard.tag) {
                    wake.send.push(Request::Release(req, step));
                }
            }
        }
        wake
    }

    /// A rollback invalidated `steps`: their waits end, and what they
    /// asked for is forgotten (a grant that answers it is handed back).
    /// Their rules re-fire and check again.
    pub fn unpark(&mut self, steps: impl IntoIterator<Item = StepId>) {
        for step in steps {
            self.waiting.remove(&step);
            for guard in self.guards.get(&step).into_iter().flatten() {
                self.asked.remove(&guard.tag);
            }
        }
    }

    /// The instance aborted: nothing waits any more, no grant is held (the
    /// shell withdraws the instance from every mutex it names), and every
    /// release owed is paid now or, when learned later, at once
    /// ([`Self::owed_by_abort`]): an aborted workflow imposes no order.
    pub fn abort(&mut self) {
        self.aborted = true;
        self.waiting.clear();
        self.asked.clear();
        for guard in self.guards.values().flatten() {
            if matches!(guard.kind, Kind::Grant(_)) {
                self.met.remove(&guard.tag);
            }
        }
    }

    /// The releases an aborted instance pays: those owed by leading steps
    /// that did not complete (a completed one paid when it completed).
    pub fn owed_by_abort(&self, done: impl Fn(StepId) -> bool) -> Wake {
        let unpaid = self.owed.iter().filter(|(step, _)| !done(*step));
        Wake {
            emit: unpaid.map(|&(_, owed)| owed).collect(),
            ..Wake::default()
        }
    }

    /// Whether any grant is held.
    pub fn holds_grant(&self) -> bool {
        let mut guards = self.guards.values().flatten();
        guards.any(|g| matches!(g.kind, Kind::Grant(_)) && self.met.contains(&g.tag))
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
    fn first_claim_wins() {
        let r = order(7, &[[1, 2, 2, 2], [1, 4, 2, 4]]);
        let (x, y) = (at(1, 1), at(2, 2));
        let mut manager = RoArbiter::default();
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
        assert_eq!(manager.claim(&r, at(3, 1), x), None, "not bound by r");
        let other = order(8, &[[1, 2, 2, 2]]);
        let first = manager.claim(&other, x, y).map(|d| (d.req, d.side));
        assert_eq!(first, Some((8, 0)), "per requirement");
    }

    #[test]
    fn tags_distinct_across_parameters() {
        let (a, b) = (at(1, 1), at(2, 1));
        let t1 = ro_guard(0, 1, 0, a, b);
        assert_eq!(t1, ro_guard(0, 1, 0, a, b), "deterministic");
        assert_ne!(t1, ro_guard(0, 1, 1, a, b), "side matters");
        assert_ne!(t1, ro_guard(0, 2, 0, a, b), "pair index matters");
        assert_ne!(t1, ro_guard(1, 1, 0, a, b), "requirement matters");
        assert_ne!(t1, ro_guard(0, 1, 0, a, at(2, 2)), "instances matter");
        assert_ne!(
            mutex_grant(0, a, StepId(1)),
            mutex_grant(0, a, StepId(2)),
            "step matters for mutex"
        );
        assert_ne!(
            t1,
            mutex_grant(0, a, StepId(1)),
            "kinds partition the space"
        );
    }

    /// Instance `x` (serial 1) of S1 → S2 → S3 linked with `y` (serial 2):
    /// relative order 0 over (S1, S1) and (S2, S2), so `x` is side 0;
    /// mutual exclusion 1 over S2 and S3, mutual exclusion 2 over S2.
    fn gate_fixture() -> (Deployment, InstanceId, InstanceId) {
        use crew_model::{AgentId, CoordinationSpec, MutualExclusion, SchemaBuilder};
        let mut b = SchemaBuilder::new(SchemaId(1), "wf").inputs(1);
        let s = [(); 3].map(|_| b.add_step("S", "passthrough"));
        b.seq(s[0], s[1]).seq(s[1], s[2]);
        b.default_agents(&[AgentId(0)]);
        let mut dep = Deployment::new([b.build().expect("valid schema")]);
        let ss = |step| SchemaStep::new(SchemaId(1), StepId(step));
        dep.coordination = CoordinationSpec {
            mutual_exclusions: vec![
                MutualExclusion {
                    id: 1,
                    resource: "m".into(),
                    members: vec![ss(2), ss(3)],
                },
                MutualExclusion {
                    id: 2,
                    resource: "n".into(),
                    members: vec![ss(2)],
                },
            ],
            relative_orders: vec![order(0, &[[1, 1, 1, 1], [1, 2, 1, 2]])],
            ..CoordinationSpec::default()
        };
        let (x, y) = (inst(1), inst(2));
        dep.ro_links.link(x, y);
        (dep, x, y)
    }

    #[derive(Debug, Clone, Copy)]
    enum GateOp {
        Check(u32),
        /// The release of `x`'s pair-`k` guard.
        Release(usize),
        /// Mutual exclusion `req`'s grant to `x`'s step.
        Grant(u32, u32),
        /// The pair is decided; `x` leads when the side is 0.
        Decide(u8),
        Done(u32),
        Unpark(u32),
        /// `x` leads: owe `y` the release of `x`'s step `s`, with `s` done
        /// or not.
        Oblige(u32, bool),
        Satisfy(u64),
        Abort,
        /// What the aborted gate pays, these steps completed.
        OwedByAbort(&'static [u32]),
    }

    fn render_wake(w: Wake) -> String {
        let mut out = Vec::new();
        out.extend(w.retry.iter().map(|s| format!("retry {s}")));
        out.extend(w.emit.iter().map(|o| format!("emit {}", o.partner_step)));
        out.extend(w.send.iter().map(|r| match r {
            Request::Release(_, step) => format!("release {step}"),
            other => format!("{other:?}"),
        }));
        if out.is_empty() {
            "-".into()
        } else {
            out.join(", ")
        }
    }

    /// Apply `ops` to `x`'s gate, each rendered as the shell would read it.
    fn drive_gate(ops: &[GateOp]) -> Vec<String> {
        let (dep, x, y) = gate_fixture();
        let order = dep.relative_order(0).expect("order 0").clone();
        let mut gate = Gate::wire(&dep, x, |_| true).expect("x has guards");
        let tag = |k: usize, side: u8| ro_guard(0, k, side, x, y);
        ops.iter()
            .map(|&op| match op {
                GateOp::Check(s) => match gate.check(StepId(s)) {
                    (n, Verdict::Go) => format!("go {n}"),
                    (n, Verdict::Parked) => format!("parked {n}"),
                    (n, Verdict::Send(r)) => {
                        let kinds: Vec<_> = r
                            .iter()
                            .map(|r| match r {
                                Request::Claim(..) => "claim",
                                Request::Acquire(..) => "acquire",
                                Request::Release(..) => "release",
                            })
                            .collect();
                        format!("send {n}: {}", kinds.join(" "))
                    }
                },
                GateOp::Release(k) => render_wake(gate.satisfy(tag(k, 0))),
                GateOp::Grant(req, s) => render_wake(gate.satisfy(mutex_grant(req, x, StepId(s)))),
                GateOp::Decide(side) => {
                    let decision = RoLeader {
                        req: 0,
                        a: x,
                        b: y,
                        side,
                    };
                    render_wake(gate.decide(&order, decision, x, |_| false))
                }
                GateOp::Done(s) => render_wake(gate.done(StepId(s))),
                GateOp::Unpark(s) => {
                    gate.unpark([StepId(s)]);
                    "-".into()
                }
                GateOp::Oblige(s, done) => {
                    let leads = RoLeader {
                        req: 0,
                        a: x,
                        b: y,
                        side: 0,
                    };
                    render_wake(gate.oblige(&order, leads, StepId(s), |_| done))
                }
                GateOp::Satisfy(t) => render_wake(gate.satisfy(t)),
                GateOp::Abort => {
                    gate.abort();
                    "-".into()
                }
                GateOp::OwedByAbort(done) => {
                    render_wake(gate.owed_by_abort(|s| done.contains(&s.0)))
                }
            })
            .collect()
    }

    #[test]
    fn gate_decisions() {
        use GateOp::*;
        let (dep, x, y) = gate_fixture();
        let pair_1 = ro_guard(0, 1, 0, x, y);
        let cases: Vec<(&str, Vec<GateOp>, Vec<&str>)> =
            vec![
            (
                "a pair-0 guard claims once per wait",
                vec![Check(1), Check(1), Unpark(1), Check(1)],
                vec!["send 1: claim", "parked 1", "-", "send 1: claim"],
            ),
            (
                "no claim once the pair is known to be decided",
                vec![Decide(1), Check(1)],
                vec!["-", "parked 1"],
            ),
            (
                "a decision on the spot is picked up by the re-check",
                vec![Check(1), Decide(0), Check(1)],
                vec!["send 1: claim", "-", "go 1"],
            ),
            (
                "a release retries every step waiting on an order guard, asking or parked",
                vec![Check(1), Check(2), Release(0)],
                vec!["send 1: claim", "parked 1", "retry S1, retry S2"],
            ),
            (
                "an order guard, once released, stays released",
                vec![Release(0), Check(1), Check(1)],
                vec!["-", "go 1", "go 1"],
            ),
            (
                "acquire only after every order guard holds",
                vec![Check(2), Release(1), Check(2), Check(2)],
                vec!["parked 1", "retry S2", "send 3: acquire acquire", "parked 3"],
            ),
            (
                "the step parked on grants consumes them, retried at the last, released when done",
                vec![
                    Release(1),
                    Check(2),
                    Check(2),
                    Grant(1, 2),
                    Grant(2, 2),
                    Check(2),
                    Done(2),
                ],
                vec![
                    "-",
                    "send 3: acquire acquire",
                    "parked 3",
                    "-",
                    "retry S2",
                    "go 3",
                    "release S2, release S2",
                ],
            ),
            (
                "a grant on the spot is held for the re-check",
                vec![Check(3), Grant(1, 3), Check(3), Grant(1, 3)],
                vec!["send 1: acquire", "-", "go 1", "-"],
            ),
            (
                "a grant no step asked for is handed back",
                vec![Grant(1, 3), Done(3)],
                vec!["release S3", "-"],
            ),
            (
                "a rollback unparks: the grant that answers the old wait goes back",
                vec![Check(3), Check(3), Unpark(3), Grant(1, 3), Check(3)],
                vec!["send 1: acquire", "parked 1", "-", "release S3", "send 1: acquire"],
            ),
            (
                "an abort drops what waits and what is held",
                vec![Check(3), Grant(1, 3), Abort, Done(3), Grant(1, 3)],
                vec!["send 1: acquire", "-", "-", "-", "release S3"],
            ),
            (
                "the leader owes the lagger its pair releases",
                vec![Decide(0), Done(1), Done(3), Done(2)],
                vec!["-", "emit S1", "-", "emit S2"],
            ),
            (
                "an obligation installed after its step completed is emitted at once",
                vec![Oblige(2, true), Oblige(2, true), Oblige(1, false), Done(1)],
                vec!["emit S2", "-", "-", "emit S1"],
            ),
            (
                "an aborted leader pays what its uncompleted steps owe",
                vec![Decide(0), Done(1), Abort, OwedByAbort(&[1])],
                vec!["-", "emit S1", "-", "emit S2"],
            ),
            (
                "an obligation an aborted leader learns is paid at once",
                vec![Abort, Decide(0), Oblige(1, false)],
                vec!["-", "emit S1, emit S2", "-"],
            ),
            (
                "satisfying a parked step's order guard retries it; a tag no guard has does nothing",
                vec![Check(2), Satisfy(7), Satisfy(pair_1), Satisfy(pair_1)],
                vec!["parked 1", "-", "retry S2", "-"],
            ),
        ];
        for (name, ops, expected) in cases {
            assert_eq!(drive_gate(&ops), expected, "{name}");
        }
        // A gate over S1 alone leaves S3 unguarded; a node that holds
        // nothing gets no gate.
        let mut gate = Gate::wire(&dep, x, |s| s == StepId(1)).expect("S1 is held");
        assert_eq!(gate.check(StepId(3)), (0, Verdict::Go), "S3 is not held");
        assert!(
            Gate::wire(&dep, inst(3), |_| false).is_none(),
            "nothing held"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random check/satisfy/decide/done/unpark sequences on the
        /// fixture's gate against a naive reference of `Vec`s — the guards
        /// met, the steps parked or asking, and what each step asked for in
        /// its current wait. `Go` never comes with an unmet guard, no
        /// request goes out twice in one wait, a grant retries a parked step
        /// exactly when it meets the step's last guard, and a release
        /// retries every step waiting on an order guard.
        #[test]
        fn gate_matches_a_vec_reference(
            ops in proptest::collection::vec((0u8..6, 1u32..4), 0..60),
        ) {
            let (dep, x, y) = gate_fixture();
            let order = dep.relative_order(0).expect("order 0").clone();
            let mut gate = Gate::wire(&dep, x, |_| true).expect("x has guards");
            let ro = |k: usize| ro_guard(0, k, 0, x, y);
            let grant = |req: u32, s: u32| mutex_grant(req, x, StepId(s));
            // (tag, order guard?) per step, order guards first.
            let guards = |s: u32| match s {
                1 => vec![(ro(0), true)],
                2 => vec![(ro(1), true), (grant(1, 2), false), (grant(2, 2), false)],
                _ => vec![(grant(1, 3), false)],
            };
            let mut met: Vec<u64> = Vec::new();
            let mut decided = false;
            // (step, waits on an order guard, asking)
            let mut waiting: Vec<(u32, bool, bool)> = Vec::new();
            let mut sent: Vec<(u32, Request)> = Vec::new();
            for (op, step) in ops {
                let unmet: Vec<(u64, bool)> =
                    guards(step).into_iter().filter(|(t, _)| !met.contains(t)).collect();
                let held = |met: &Vec<u64>, s: u32| guards(s).iter().all(|(t, _)| met.contains(t));
                match op {
                    0 => {
                        let (_, verdict) = gate.check(StepId(step));
                        waiting.retain(|w| w.0 != step);
                        match verdict {
                            Verdict::Go => {
                                prop_assert!(unmet.is_empty(), "Go with an unmet guard");
                                sent.retain(|(s, _)| *s != step);
                            }
                            verdict => {
                                prop_assert!(!unmet.is_empty(), "held back with every guard met");
                                let asking = matches!(verdict, Verdict::Send(_));
                                if let Verdict::Send(requests) = verdict {
                                    for r in requests {
                                        prop_assert!(!sent.contains(&(step, r)), "{:?} twice in one wait", r);
                                        prop_assert!(!(decided && matches!(r, Request::Claim(..))), "a claim after the decision");
                                        sent.push((step, r));
                                    }
                                }
                                waiting.push((step, unmet[0].1, asking));
                            }
                        }
                    }
                    1 => {
                        let tag = ro((step % 2) as usize);
                        let wake = gate.satisfy(tag);
                        if !met.contains(&tag) {
                            met.push(tag);
                        }
                        let mut retried = wake.retry.iter().map(|s| s.0).collect::<Vec<_>>();
                        retried.sort();
                        let mut expected: Vec<u32> = waiting.iter().filter(|w| w.1).map(|w| w.0).collect();
                        expected.sort();
                        prop_assert_eq!(retried, expected, "a release retries every step waiting on an order guard");
                        waiting.retain(|w| !w.1);
                    }
                    2 => {
                        let (req, s) = [(2, 2), (1, 2), (1, 3)][step as usize - 1];
                        let tag = grant(req, s);
                        let wake = gate.satisfy(tag);
                        let acquire = Request::Acquire(req, StepId(s));
                        let asked = sent.contains(&(s, acquire));
                        if met.contains(&tag) {
                            prop_assert_eq!(wake, Wake::default(), "a held grant again");
                        } else if asked && waiting.iter().any(|w| w.0 == s) {
                            met.push(tag);
                            sent.retain(|r| *r != (s, acquire));
                            let parked = waiting.iter().any(|w| w.0 == s && !w.2);
                            let last = parked && held(&met, s);
                            prop_assert_eq!(wake.retry.clone(), if last { vec![StepId(s)] } else { vec![] },
                                "a grant retries its parked step exactly when it meets the last guard");
                            prop_assert!(wake.send.is_empty());
                            if last {
                                waiting.retain(|w| w.0 != s);
                            }
                        } else {
                            prop_assert_eq!(wake.send, vec![Request::Release(req, StepId(s))], "an unasked grant goes back");
                            prop_assert!(wake.retry.is_empty());
                        }
                    }
                    3 => {
                        let side = (step % 2) as u8;
                        let wake = gate.decide(&order, RoLeader { req: 0, a: x, b: y, side }, x, |_| false);
                        decided = true;
                        if side == 0 {
                            for tag in [ro(0), ro(1)] {
                                if !met.contains(&tag) {
                                    met.push(tag);
                                }
                            }
                        }
                        let mut retried = wake.retry.iter().map(|s| s.0).collect::<Vec<_>>();
                        retried.sort();
                        let mut expected: Vec<u32> = waiting.iter().filter(|w| w.1 && !w.2).map(|w| w.0).collect();
                        expected.sort();
                        prop_assert_eq!(retried, expected, "a decision retries the steps parked on an order guard");
                        waiting.retain(|w| !w.1 || w.2);
                    }
                    4 => {
                        let wake = gate.done(StepId(step));
                        let releases: Vec<Request> = [1, 2]
                            .into_iter()
                            .filter(|&req| guards(step).contains(&(grant(req, step), false)))
                            .filter(|&req| met.contains(&grant(req, step)))
                            .map(|req| Request::Release(req, StepId(step)))
                            .collect();
                        prop_assert_eq!(wake.send, releases, "the grants it held go back");
                        let grants: Vec<u64> = guards(step).iter().filter(|g| !g.1).map(|g| g.0).collect();
                        met.retain(|t| !grants.contains(t));
                    }
                    _ => {
                        gate.unpark([StepId(step)]);
                        waiting.retain(|w| w.0 != step);
                        sent.retain(|(s, _)| *s != step);
                    }
                }
                for s in 1..4 {
                    let asking = waiting.iter().any(|w| w.0 == s && w.2);
                    prop_assert_eq!(gate.asking(StepId(s)), asking, "S{} asking", s);
                }
            }
        }

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
