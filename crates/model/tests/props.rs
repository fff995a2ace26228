//! Property tests over schema construction and derived structures, and of
//! the per-instance table containers against the B-trees they stand in for.

use crew_model::{
    DataEnv, Expr, ItemKey, SchemaBuilder, SchemaError, SchemaId, StepId, Value, VecMap, VecSet,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Build a random layered DAG: `layers` layers of 1..=3 steps; every step
/// gets one incoming arc from a random step of the previous layer (plus
/// AND-join fan-in sometimes). Returns the builder output.
fn random_layered(
    layer_sizes: &[u8],
    joins: &[bool],
) -> Result<crew_model::WorkflowSchema, SchemaError> {
    let mut b = SchemaBuilder::new(SchemaId(1), "rand").inputs(1);
    let start = b.add_step("start", "p");
    let mut prev = vec![start];
    for (li, &n) in layer_sizes.iter().enumerate() {
        let n = n.clamp(1, 3) as usize;
        let joined = joins.get(li).copied().unwrap_or(false) && prev.len() > 1;
        let mut layer = Vec::new();
        if joined {
            // One AND-join step consuming the whole previous layer.
            let s = b.add_step(format!("L{li}J"), "p");
            b.and_join(prev.clone(), s);
            layer.push(s);
        } else if prev.len() == 1 && n > 1 {
            // Fan out from the single predecessor.
            let heads: Vec<StepId> = (0..n)
                .map(|k| b.add_step(format!("L{li}N{k}"), "p"))
                .collect();
            b.and_split(prev[0], heads.clone());
            layer = heads;
        } else {
            // One-to-one continuation of the first predecessor.
            let s = b.add_step(format!("L{li}S"), "p");
            b.seq(prev[0], s);
            // Other predecessors continue independently (open branches).
            layer.push(s);
            for p in prev.iter().skip(1) {
                let t = b.add_step(format!("L{li}T{p}"), "p");
                b.seq(*p, t);
                layer.push(t);
            }
        }
        prev = layer;
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every random layered DAG builds, and the derived structures hold
    /// their invariants: topo order respects all forward arcs, terminals
    /// have no outgoing forward arcs, ancestors are transitive along arcs,
    /// and the invalidation set of the start step is everything else.
    #[test]
    fn derived_structures_sound(
        layer_sizes in proptest::collection::vec(1u8..4, 1..5),
        joins in proptest::collection::vec(any::<bool>(), 0..5),
    ) {
        let schema = random_layered(&layer_sizes, &joins).expect("valid construction");
        // Topological order respects arcs.
        let pos: std::collections::BTreeMap<StepId, usize> = schema
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        for arc in schema.arcs() {
            if !arc.loop_back {
                prop_assert!(pos[&arc.from] < pos[&arc.to]);
                prop_assert!(schema.is_ancestor(arc.from, arc.to));
            }
        }
        // Terminals have no outgoing forward arcs and cover all sinks.
        for &t in schema.terminal_steps() {
            prop_assert_eq!(schema.forward_outgoing(t).count(), 0);
        }
        let sink_count = schema
            .steps()
            .filter(|d| schema.forward_outgoing(d.id).count() == 0)
            .count();
        prop_assert_eq!(schema.terminal_steps().len(), sink_count);
        // Rollback from the start invalidates every other step.
        let inv = schema.invalidation_set(schema.start_step());
        prop_assert_eq!(inv.len(), schema.step_count() - 1);
    }

    /// Expressions survive arbitrary nesting without stack issues at the
    /// depths workflows use, and referenced_items is exactly the leaf set.
    #[test]
    fn expr_referenced_items_exact(depth in 0usize..40, slot in 1u16..5) {
        let mut e = Expr::item(ItemKey::input(slot));
        for i in 0..depth {
            e = Expr::and(e, Expr::gt(Expr::item(ItemKey::input(slot)), Expr::lit(i as i64)));
        }
        prop_assert_eq!(e.referenced_items(), vec![ItemKey::input(slot)]);
    }

    /// Any sequence of table operations leaves a `VecMap` indistinguishable
    /// from a `BTreeMap` given the same sequence: same return value at
    /// every step, same length, same entries in the same order.
    #[test]
    fn vecmap_is_a_btreemap(
        ops in proptest::collection::vec((0u8..10, 0u16..24, any::<u32>()), 0..80),
    ) {
        let mut map: VecMap<u16, u32> = VecMap::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0 | 1 => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                2 => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                3 => {
                    *map.entry(k).or_default() += 1;
                    *model.entry(k).or_default() += 1;
                }
                4 => {
                    let got = *map.entry(k).and_modify(|x| *x ^= v).or_insert(v);
                    let want = *model.entry(k).and_modify(|x| *x ^= v).or_insert(v);
                    prop_assert_eq!(got, want);
                }
                5 => {
                    map.retain(|key, x| { *x = x.wrapping_add(1); (key ^ k) % 3 != 0 });
                    model.retain(|key, x| { *x = x.wrapping_add(1); (key ^ k) % 3 != 0 });
                }
                6 => {
                    let batch = [(k, v), (k / 2, v / 2), (k + 1, !v)];
                    map.extend(batch);
                    model.extend(batch);
                }
                7 => {
                    if let Some(x) = map.get_mut(&k) { *x = v }
                    if let Some(x) = model.get_mut(&k) { *x = v }
                    map.values_mut().for_each(|x| *x = x.rotate_left(1));
                    model.values_mut().for_each(|x| *x = x.rotate_left(1));
                }
                8 => {
                    // A packet-shaped batch: distinct keys, some held and
                    // some not, room made for the missing ones first.
                    let batch: BTreeMap<u16, u32> = [(k, v), (k / 2, v / 2), (k + 1, !v)].into();
                    let room = map.capacity();
                    map.reserve_missing(batch.keys());
                    for (&key, &x) in &batch {
                        prop_assert_eq!(map.insert(key, x), model.insert(key, x));
                    }
                    prop_assert_eq!(map.capacity(), room.max(map.len()), "grown once, exactly");
                }
                _ if v % 8 == 0 => {
                    map.clear();
                    model.clear();
                }
                _ => {}
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            prop_assert_eq!(map.get(&k), model.get(&k));
            prop_assert_eq!(map.contains_key(&k), model.contains_key(&k));
            prop_assert!(map.iter().eq(model.iter()));
            prop_assert!(map.keys().eq(model.keys()));
            prop_assert!(map.values().eq(model.values()));
            prop_assert!((&map).into_iter().eq(&model));
        }
        let rebuilt: VecMap<u16, u32> = model.clone().into_iter().rev().collect();
        prop_assert_eq!(&rebuilt, &map);
        prop_assert!(map.into_iter().eq(model));
    }

    /// A packet merge into a data table, against the `BTreeMap` it stands
    /// in for: the same random sets, removals and merges leave the same
    /// items in the same order, and each merge grows the table at most
    /// once, to exactly what it holds.
    #[test]
    fn dataenv_merge_is_a_btreemap_extend(
        ops in proptest::collection::vec((0u8..4, 0u16..6, 0u16..4, any::<i64>()), 0..60),
    ) {
        let key = |scope: u16, slot: u16| match scope {
            0 => ItemKey::input(slot),
            s => ItemKey::output(StepId(u32::from(s)), slot),
        };
        let mut env = DataEnv::new();
        let mut model: BTreeMap<ItemKey, Value> = BTreeMap::new();
        for (op, scope, slot, v) in ops {
            let k = key(scope, slot);
            match op {
                0 => {
                    env.set(k, Value::Int(v));
                    model.insert(k, Value::Int(v));
                }
                1 => prop_assert_eq!(env.remove(&k), model.remove(&k)),
                _ => {
                    let packet: DataEnv = (0..=slot)
                        .map(|s| (key(scope, s), Value::Int(v ^ i64::from(s))))
                        .chain([(key(0, slot), Value::from(v.to_string()))])
                        .collect();
                    let room = env.capacity();
                    env.merge_from(&packet);
                    model.extend(packet);
                    prop_assert_eq!(env.capacity(), room.max(env.len()), "grown once, exactly");
                }
            }
            prop_assert_eq!(env.len(), model.len());
            prop_assert!(env.iter().eq(model.iter()));
        }
    }

    /// The same for `VecSet` against `BTreeSet`.
    #[test]
    fn vecset_is_a_btreeset(
        ops in proptest::collection::vec((0u8..6, 0u16..24), 0..80),
    ) {
        let mut set: VecSet<u16> = VecSet::new();
        let mut model: BTreeSet<u16> = BTreeSet::new();
        for (op, k) in ops {
            match op {
                0 | 1 => prop_assert_eq!(set.insert(k), model.insert(k)),
                2 => prop_assert_eq!(set.remove(&k), model.remove(&k)),
                3 => {
                    set.retain(|x| (x ^ k) % 3 != 0);
                    model.retain(|x| (x ^ k) % 3 != 0);
                }
                4 => {
                    set.extend([k, k / 2, k + 1]);
                    model.extend([k, k / 2, k + 1]);
                }
                _ if k % 8 == 0 => {
                    set.clear();
                    model.clear();
                }
                _ => {}
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.contains(&k), model.contains(&k));
            prop_assert!(set.iter().eq(model.iter()));
            prop_assert!((&set).into_iter().eq(&model));
        }
        let rebuilt: VecSet<u16> = model.iter().rev().copied().collect();
        prop_assert_eq!(&rebuilt, &set);
        prop_assert!(set.into_iter().eq(model));
    }
}
