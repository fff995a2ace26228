//! Pass 2: cross-workflow deadlock over the coordination spec (§3, KR98).
//!
//! Coordination requirements make steps of linked concurrent instances
//! wait for each other: a mutex member waits for the current holder, the
//! lagging side of a relative order waits for the leader's matching pair
//! step. Those waits compose with each schema's own control order into a
//! static *may-wait-for* graph; a cycle means a reachable interleaving
//! wedges both instances until the simulation horizon expires
//! (`Stalled`).
//!
//! Relative-order leadership goes to whichever instance reaches its first
//! pair step first, so the pass enumerates leadership assignments and
//! reports the first one whose graph has a cycle a run can reach. Not
//! every cycle is reachable: a control-order wait and a first-pair wait
//! both point at a step that was *reached* before the waiting one, so a
//! cycle of those alone is an arrival order that contradicts itself (two
//! single-pair orders crossing between the same instances elect
//! consistently and commit). A reachable cycle needs a wait that can hold
//! back a step already reached: a later pair of a relative order, or a
//! mutex grant. Mutexes are step-scoped (released when the member
//! completes), so a *single* mutex never deadlocks; but a step belonging to
//! two mutexes acquires them concurrently and holds partial grants while
//! waiting, which is hold-and-wait: two such steps (or two linked
//! instances of one) can be granted the locks in opposite orders and
//! wedge.
//!
//! A requirement naming a step no schema defines is refused before any
//! run (`Deployment::validate`) and by the LAWS compiler; the pass skips
//! it, so hand-built specs lint without panicking.

use crate::{CoordKind, Diagnostic, LintId};
use crew_model::{CoordinationSpec, RelativeOrder, SchemaId, SchemaStep, WorkflowSchema};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Beyond this many relative orders, assignment enumeration (2^n) is
/// skipped; each requirement is still checked individually.
const MAX_ENUMERATED_ORDERS: usize = 10;

/// Run the pass over the full spec.
pub fn run(schemas: &[WorkflowSchema], spec: &CoordinationSpec, out: &mut Vec<Diagnostic>) {
    let by_id: BTreeMap<SchemaId, &WorkflowSchema> = schemas.iter().map(|s| (s.id, s)).collect();
    let known = |ss: &SchemaStep| {
        by_id
            .get(&ss.schema)
            .is_some_and(|s| s.step(ss.step).is_some())
    };

    // --- Mutexes: hold-and-wait. -----------------------------------------
    let mut mutexes_of: BTreeMap<SchemaStep, Vec<u32>> = BTreeMap::new();
    for m in &spec.mutual_exclusions {
        for member in m.members.iter().filter(|s| known(s)) {
            let ids = mutexes_of.entry(*member).or_default();
            if !ids.contains(&m.id) {
                ids.push(m.id);
            }
        }
    }
    for (ss, mutexes) in &mutexes_of {
        if mutexes.len() < 2 {
            continue;
        }
        let names: Vec<String> = spec
            .mutual_exclusions
            .iter()
            .filter(|m| mutexes.contains(&m.id))
            .map(|m| format!("`{}`", m.resource))
            .collect();
        out.push(
            Diagnostic::new(
                LintId::MutexHoldAndWait,
                format!(
                    "step {}/{} belongs to {} mutexes ({}): members acquire all \
                     their mutexes concurrently and hold partial grants while \
                     waiting, so linked instances can be granted them in opposite \
                     orders and deadlock",
                    ss.schema,
                    ss.step,
                    mutexes.len(),
                    names.join(", ")
                ),
            )
            .at_coord(CoordKind::Mutex, mutexes[0])
            .at_step(ss.schema, ss.step),
        );
    }

    // --- Relative orders: shape checks. ---------------------------------
    let mut sane_orders = Vec::new();
    for r in &spec.relative_orders {
        if r.pairs.is_empty() || !r.pairs.iter().all(|(a, b)| known(a) && known(b)) {
            continue;
        }
        let sides: [Vec<SchemaStep>; 2] = [
            r.pairs.iter().map(|p| p.0).collect(),
            r.pairs.iter().map(|p| p.1).collect(),
        ];
        // Leadership is per instance, and the run-times read a side's
        // schema off its first pair: a side drawn from several schemas is
        // enforced as if every step belonged to that one, so the declared
        // order is not the one kept. A side MAY pair a schema with itself
        // — that is the paper's own scenario (two linked instances of one
        // workflow racing for the same resources).
        let mut mixed = false;
        for (side, steps) in sides.iter().enumerate() {
            if steps.windows(2).any(|w| w[0].schema != w[1].schema) {
                out.push(
                    Diagnostic::new(
                        LintId::RelativeOrderSchemaMixed,
                        format!(
                            "relative order {} (`{}`) draws side {side} from more than \
                             one workflow: leadership is per instance, so the side \
                             must stay within one schema",
                            r.id, r.conflict
                        ),
                    )
                    .at_coord(CoordKind::Order, r.id),
                );
                mixed = true;
            }
        }
        if mixed {
            continue;
        }
        // A later pair's step waits for the leadership decision, which
        // only a first-pair step can trigger. When on *both* sides such a
        // step precedes the first pair's, each instance blocks before it
        // can trigger the decision; one such side alone is harmless (the
        // other side decides).
        let before_first = |steps: &[SchemaStep]| {
            let schema = by_id[&steps[0].schema];
            steps[1..]
                .iter()
                .copied()
                .find(|s| schema.is_ancestor(s.step, steps[0].step))
        };
        if let (Some(x), Some(y)) = (before_first(&sides[0]), before_first(&sides[1])) {
            out.push(
                Diagnostic::new(
                    LintId::RelativeOrderPairsInverted,
                    format!(
                        "relative order {} (`{}`): on both sides a later pair's step \
                         ({}/{}, {}/{}) precedes the first pair's ({}/{}, {}/{}): each \
                         linked instance blocks there waiting for a leadership \
                         decision only a first-pair step can make",
                        r.id,
                        r.conflict,
                        x.schema,
                        x.step,
                        y.schema,
                        y.step,
                        sides[0][0].schema,
                        sides[0][0].step,
                        sides[1][0].schema,
                        sides[1][0].step
                    ),
                )
                .at_coord(CoordKind::Order, r.id)
                .at_step(x.schema, x.step),
            );
            continue;
        }
        sane_orders.push(r);
    }

    // --- Wait-for graph under every leadership assignment. ---------------
    deadlock_scan(&by_id, &sane_orders, &mutexes_of, out);
}

/// A step of one of the two virtual linked instances the scan models.
/// The tag distinguishes the instances, so a schema paired with itself in
/// a relative order (two linked instances of one workflow) gets two
/// separate copies of its steps instead of a bogus self-cycle.
type InstStep = (SchemaStep, u8);

/// The may-wait-for graph: `(waiting, awaited)` edges, each flagged `true`
/// when the awaited step was necessarily reached before the waiting one (a
/// control-order or first-pair wait), so that a cycle of flagged edges
/// alone is unreachable.
type WaitFor = BTreeMap<(InstStep, InstStep), bool>;

fn add_wait(edges: &mut WaitFor, from: InstStep, to: InstStep, reached_first: bool) {
    *edges.entry((from, to)).or_insert(reached_first) |= reached_first;
}

/// Enumerate relative-order leadership assignments and look for a
/// reachable cycle in the may-wait-for graph. Nodes are the
/// coordination-mentioned steps of two virtual linked instances; edges
/// point from a waiting step to the step it waits on.
fn deadlock_scan(
    by_id: &BTreeMap<SchemaId, &WorkflowSchema>,
    orders: &[&RelativeOrder],
    mutexes_of: &BTreeMap<SchemaStep, Vec<u32>>,
    out: &mut Vec<Diagnostic>,
) {
    let mut base: BTreeSet<SchemaStep> = BTreeSet::new();
    for r in orders {
        for (a, b) in &r.pairs {
            base.insert(*a);
            base.insert(*b);
        }
    }
    for (ss, mutexes) in mutexes_of {
        if mutexes.len() >= 2 {
            base.insert(*ss);
        }
    }
    if base.is_empty() {
        return;
    }

    // Fixed edges: intra-instance control order (a later step waits for
    // every earlier one of the same instance) and mutual hold-and-wait
    // between steps of *different* instances sharing two or more mutexes.
    let mut fixed = WaitFor::new();
    for &u in &base {
        for &v in &base {
            if u.schema == v.schema && u != v && by_id[&u.schema].is_ancestor(u.step, v.step) {
                for t in 0..2u8 {
                    add_wait(&mut fixed, (v, t), (u, t), true);
                }
            }
        }
    }
    for (&s, ms) in mutexes_of {
        for (&t, mt) in mutexes_of {
            let shared = ms.iter().filter(|m| mt.contains(m)).count();
            if shared < 2 {
                continue;
            }
            for ts in 0..2u8 {
                for tt in 0..2u8 {
                    // Same schema + same tag is the same instance: its own
                    // control order serializes the acquisitions.
                    if (s, ts) == (t, tt) || (s.schema == t.schema && ts == tt) {
                        continue;
                    }
                    add_wait(&mut fixed, (s, ts), (t, tt), false);
                }
            }
        }
    }

    let n = orders.len().min(MAX_ENUMERATED_ORDERS);
    for mask in 0..(1u32 << n) {
        let mut edges = fixed.clone();
        for (i, r) in orders.iter().enumerate().take(n) {
            let leader_first = mask & (1 << i) == 0;
            for (k, (a, b)) in r.pairs.iter().enumerate() {
                // The lagger's first pair step waits for a leader that got
                // there first; a later pair can hold it back regardless.
                let reached_first = k == 0;
                if a.schema == b.schema {
                    // Two instances of one schema: side 0 is tag 0, side 1
                    // is tag 1, and leadership picks which one leads.
                    let (lead, lag) = if leader_first {
                        ((*a, 0u8), (*b, 1u8))
                    } else {
                        ((*b, 1u8), (*a, 0u8))
                    };
                    add_wait(&mut edges, lag, lead, reached_first);
                } else {
                    // Different schemas: any instance of the lagging
                    // schema may wait on any instance of the leader.
                    let (lead, lag) = if leader_first { (*a, *b) } else { (*b, *a) };
                    for tl in 0..2u8 {
                        for tg in 0..2u8 {
                            add_wait(&mut edges, (lag, tg), (lead, tl), reached_first);
                        }
                    }
                }
            }
        }
        if let Some(cycle) = reachable_cycle(&edges) {
            let path: Vec<String> = cycle
                .iter()
                .map(|(ss, tag)| format!("{}/{}@i{tag}", ss.schema, ss.step))
                .collect();
            let orientation: Vec<String> = orders
                .iter()
                .enumerate()
                .take(n)
                .map(|(i, r)| {
                    let side = if mask & (1 << i) == 0 { 0 } else { 1 };
                    format!("order {} led by side {side}", r.id)
                })
                .collect();
            out.push(
                Diagnostic::new(
                    LintId::CoordinationDeadlock,
                    format!(
                        "static wait-for cycle {} under a reachable coordination \
                         outcome ({}): linked concurrent instances wedge until the \
                         horizon expires",
                        path.join(" -> "),
                        if orientation.is_empty() {
                            "mutex grant race".to_string()
                        } else {
                            orientation.join(", ")
                        }
                    ),
                )
                .at_step(cycle[0].0.schema, cycle[0].0.step),
            );
            return; // One witness is enough.
        }
    }
}

/// A cycle through at least one wait that is not [`WaitFor`]-flagged, as
/// a node path with the closing node repeated at the end.
fn reachable_cycle(edges: &WaitFor) -> Option<Vec<InstStep>> {
    edges
        .iter()
        .filter(|(_, &reached_first)| !reached_first)
        .find_map(|(&(from, to), _)| {
            let back = path(edges, to, from)?;
            Some([vec![from], back].concat())
        })
}

/// The shortest path `from` →* `to` (both ends included), breadth-first.
fn path(edges: &WaitFor, from: InstStep, to: InstStep) -> Option<Vec<InstStep>> {
    let mut parent: BTreeMap<InstStep, InstStep> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![to];
            while let Some(&p) = parent.get(&path[path.len() - 1]) {
                path.push(p);
            }
            path.reverse();
            return Some(path);
        }
        for &(_, next) in edges.keys().filter(|(f, _)| *f == n) {
            if next != from && !parent.contains_key(&next) {
                parent.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{MutualExclusion, RollbackDependency, SchemaBuilder, StepId};

    fn linear(id: u32, steps: u32) -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(id), format!("wf{id}")).inputs(1);
        let ids: Vec<StepId> = (0..steps)
            .map(|i| b.add_step(format!("S{}", i + 1), "p"))
            .collect();
        for w in ids.windows(2) {
            b.seq(w[0], w[1]);
        }
        b.build().unwrap()
    }

    fn ss(schema: u32, step: u32) -> SchemaStep {
        SchemaStep::new(SchemaId(schema), StepId(step))
    }

    fn order(id: u32, pairs: Vec<(SchemaStep, SchemaStep)>) -> RelativeOrder {
        RelativeOrder {
            id,
            conflict: format!("c{id}"),
            pairs,
        }
    }

    fn orders(orders: Vec<RelativeOrder>) -> CoordinationSpec {
        CoordinationSpec {
            relative_orders: orders,
            ..CoordinationSpec::default()
        }
    }

    fn run_pass(schemas: &[WorkflowSchema], spec: &CoordinationSpec) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        run(schemas, spec, &mut out);
        out
    }

    fn ids(out: &[Diagnostic]) -> Vec<LintId> {
        out.iter().map(|d| d.id).collect()
    }

    #[test]
    fn single_mutex_and_order_are_clean() {
        let spec = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "dock".into(),
                members: vec![ss(1, 2), ss(2, 2)],
            }],
            relative_orders: vec![order(1, vec![(ss(1, 1), ss(2, 1)), (ss(1, 3), ss(2, 3))])],
            ..CoordinationSpec::default()
        };
        let out = run_pass(&[linear(1, 3), linear(2, 3)], &spec);
        assert!(out.is_empty(), "{out:?}");
    }

    /// An unknown member is refused at deployment, not here: the pass
    /// skips it, so `lint` never panics on a hand-built spec.
    #[test]
    fn unknown_step_is_skipped() {
        let spec = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "dock".into(),
                members: vec![ss(1, 9), ss(2, 1)],
            }],
            relative_orders: vec![order(1, vec![(ss(3, 1), ss(2, 1))])],
            ..CoordinationSpec::default()
        };
        let out = run_pass(&[linear(1, 2), linear(2, 2)], &spec);
        assert!(out.is_empty(), "{out:?}");
    }

    /// A member listed twice is one membership, not a hazard.
    #[test]
    fn duplicate_member_is_skipped() {
        let spec = CoordinationSpec {
            mutual_exclusions: vec![MutualExclusion {
                id: 0,
                resource: "dock".into(),
                members: vec![ss(1, 1), ss(1, 1)],
            }],
            ..CoordinationSpec::default()
        };
        let out = run_pass(&[linear(1, 2)], &spec);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn step_in_two_mutexes_is_hold_and_wait() {
        let spec = CoordinationSpec {
            mutual_exclusions: vec![
                MutualExclusion {
                    id: 0,
                    resource: "m1".into(),
                    members: vec![ss(1, 2), ss(2, 2)],
                },
                MutualExclusion {
                    id: 1,
                    resource: "m2".into(),
                    members: vec![ss(1, 2), ss(2, 2)],
                },
            ],
            ..CoordinationSpec::default()
        };
        let out = run_pass(&[linear(1, 3), linear(2, 3)], &spec);
        let got = ids(&out);
        assert!(got.contains(&LintId::MutexHoldAndWait), "{out:?}");
        // Two steps sharing both mutexes also close a wait-for cycle.
        assert!(got.contains(&LintId::CoordinationDeadlock), "{out:?}");
    }

    /// Both sides' first pair step (S3) comes after their second (S1):
    /// each instance blocks at S1 for a decision only S3 could make.
    #[test]
    fn inverted_pairs_are_an_error() {
        let spec = orders(vec![order(
            0,
            vec![(ss(1, 3), ss(2, 3)), (ss(1, 1), ss(2, 1))],
        )]);
        let out = run_pass(&[linear(1, 3), linear(2, 3)], &spec);
        assert_eq!(ids(&out), vec![LintId::RelativeOrderPairsInverted]);
    }

    /// Only side A is inverted: side B's first pair step comes first in
    /// its own workflow, so B's instance makes the decision and both run.
    #[test]
    fn one_inverted_side_is_clean() {
        let spec = orders(vec![order(
            0,
            vec![(ss(1, 3), ss(2, 1)), (ss(1, 1), ss(2, 3))],
        )]);
        let out = run_pass(&[linear(1, 3), linear(2, 3)], &spec);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn mixed_schema_side_is_an_error() {
        let spec = orders(vec![order(
            0,
            vec![(ss(1, 1), ss(2, 1)), (ss(3, 1), ss(2, 2))],
        )]);
        let out = run_pass(&[linear(1, 2), linear(2, 2), linear(3, 2)], &spec);
        assert!(
            ids(&out).contains(&LintId::RelativeOrderSchemaMixed),
            "{out:?}"
        );
    }

    #[test]
    fn self_paired_schema_orders_two_instances() {
        // The paper's own scenario: two linked instances of ONE workflow,
        // kept in arrival order at their conflicting steps. Legal & clean.
        let spec = CoordinationSpec {
            relative_orders: vec![order(0, vec![(ss(1, 1), ss(1, 1)), (ss(1, 3), ss(1, 3))])],
            mutual_exclusions: vec![MutualExclusion {
                id: 1,
                resource: "dock".into(),
                members: vec![ss(1, 2)],
            }],
            ..CoordinationSpec::default()
        };
        let out = run_pass(&[linear(1, 3)], &spec);
        assert!(out.is_empty(), "{out:?}");
    }

    /// Two instances of one schema whose single step sits in two mutexes:
    /// each instance can grab one lock and wait for the other.
    #[test]
    fn self_double_mutex_deadlocks_two_instances() {
        let spec = CoordinationSpec {
            mutual_exclusions: vec![
                MutualExclusion {
                    id: 0,
                    resource: "m1".into(),
                    members: vec![ss(1, 1)],
                },
                MutualExclusion {
                    id: 1,
                    resource: "m2".into(),
                    members: vec![ss(1, 1)],
                },
            ],
            ..CoordinationSpec::default()
        };
        let out = run_pass(&[linear(1, 2)], &spec);
        let got = ids(&out);
        assert!(got.contains(&LintId::MutexHoldAndWait), "{out:?}");
        assert!(got.contains(&LintId::CoordinationDeadlock), "{out:?}");
    }

    /// Crossed same-schema orders: instance 1 leads order 0 by running S1
    /// before instance 2 reaches S2, instance 2 leads order 1 the same
    /// way, and then each one's S3 waits on a later pair of the other.
    #[test]
    fn crossed_self_orders_deadlock() {
        let spec = orders(vec![
            order(0, vec![(ss(1, 1), ss(1, 2)), (ss(1, 3), ss(1, 3))]),
            order(1, vec![(ss(1, 2), ss(1, 1)), (ss(1, 3), ss(1, 4))]),
        ]);
        let out = run_pass(&[linear(1, 4)], &spec);
        assert_eq!(ids(&out), vec![LintId::CoordinationDeadlock]);
    }

    /// Two relative orders crossing between two schemas: each instance
    /// leads one order from its first step, and the later pairs then make
    /// WF1.S3 wait for WF2.S4 while WF2.S3 waits for WF1.S3.
    #[test]
    fn crossed_orders_deadlock() {
        let spec = orders(vec![
            order(0, vec![(ss(1, 1), ss(2, 2)), (ss(1, 3), ss(2, 3))]),
            order(1, vec![(ss(2, 1), ss(1, 2)), (ss(2, 4), ss(1, 3))]),
        ]);
        let out = run_pass(&[linear(1, 4), linear(2, 4)], &spec);
        assert_eq!(ids(&out), vec![LintId::CoordinationDeadlock]);
    }

    /// Crossed single-pair orders close a wait-for cycle only under
    /// leaderships that contradict the order the instances arrived in,
    /// so no run reaches it.
    #[test]
    fn single_pair_crossings_are_clean() {
        let cross = orders(vec![
            order(0, vec![(ss(1, 2), ss(2, 1))]),
            order(1, vec![(ss(2, 2), ss(1, 1))]),
        ]);
        let out = run_pass(&[linear(1, 2), linear(2, 2)], &cross);
        assert!(out.is_empty(), "{out:?}");
        let same = orders(vec![
            order(0, vec![(ss(1, 2), ss(1, 1))]),
            order(1, vec![(ss(1, 2), ss(1, 1))]),
        ]);
        let out = run_pass(&[linear(1, 2)], &same);
        assert!(out.is_empty(), "{out:?}");
    }

    /// A rollback dependency raises nothing: a dependency-caused rollback
    /// does not propagate further, so even a cycle of them is one level.
    #[test]
    fn one_way_rollback_dependency_is_clean() {
        let spec = CoordinationSpec {
            rollback_dependencies: vec![RollbackDependency {
                id: 0,
                source: ss(1, 1),
                dependent_schema: SchemaId(2),
                dependent_origin: StepId(1),
            }],
            ..CoordinationSpec::default()
        };
        let out = run_pass(&[linear(1, 2), linear(2, 2)], &spec);
        assert!(out.is_empty(), "{out:?}");
    }
}
