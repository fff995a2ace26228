//! Property-based tests over the core data structures and the end-to-end
//! pipeline: random schemas commit under every architecture; weights,
//! codecs and expressions hold their invariants.

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_exec::Weight;
use crew_model::{DataEnv, ItemKey, SchemaId, StepId, Value};
use crew_storage::{crc32, Decode, Encode};
use crew_workload::{generate, GenConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated schema (arbitrary structure mix) is valid and commits
    /// under all three architectures.
    #[test]
    fn random_schemas_commit_everywhere(
        steps in 1u32..20,
        parallel in 0.0f64..1.0,
        xor in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let cfg = GenConfig {
            steps,
            parallel_prob: parallel,
            xor_prob: xor,
            compensatable_frac: 0.5,
            comp_set_steps: 0,
            rollback_depth: 0,
            policy_frac: 0.0,
            seed,
        };
        let mut schema = generate(SchemaId(1), &cfg);
        let ids: Vec<StepId> = schema.steps().map(|d| d.id).collect();
        for (i, s) in ids.iter().enumerate() {
            schema.set_eligible_agents(*s, vec![crew_model::AgentId(i as u32 % 4)]);
        }
        for arch in [
            Architecture::Central { agents: 4 },
            Architecture::Distributed { agents: 4 },
        ] {
            let system = WorkflowSystem::new([schema.clone()], arch);
            let mut scenario = Scenario::new();
            scenario.start(SchemaId(1), vec![(1, Value::Int(seed as i64 % 40)), (2, Value::Int(1))]);
            let report = system.run(scenario);
            prop_assert_eq!(report.committed(), 1, "{:?} seed={} steps={}", arch, seed, steps);
        }
    }

    /// Any generated schema — including ones with rollback specs,
    /// compensation sets and random failure policies — is free of
    /// Error-level lint findings: the generator only emits specs the
    /// static verifier accepts (policies are valid by construction).
    #[test]
    fn random_schemas_lint_error_free(
        steps in 1u32..24,
        parallel in 0.0f64..1.0,
        xor in 0.0f64..1.0,
        comp_frac in 0.0f64..1.0,
        comp_set_steps in 0u32..4,
        rollback_depth in 0u32..4,
        policy_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let cfg = GenConfig {
            steps,
            parallel_prob: parallel,
            xor_prob: xor,
            compensatable_frac: comp_frac,
            comp_set_steps,
            rollback_depth,
            policy_frac,
            seed,
        };
        let schema = generate(SchemaId(1), &cfg);
        let diags = crew_lint::lint(&[schema], &crew_model::CoordinationSpec::default());
        prop_assert!(
            crew_lint::is_clean(&diags),
            "seed={} steps={} r={}: {:?}",
            seed, steps, rollback_depth, diags
        );
    }

    /// Weight algebra: splitting into k parts and rejoining yields the
    /// original weight; nested splits preserve unity.
    #[test]
    fn weight_split_rejoin_identity(k in 1u64..12, j in 1u64..12) {
        let part = Weight::ONE.split(k);
        let mut sum = Weight::ZERO;
        for _ in 0..k {
            sum = sum.plus(part);
        }
        prop_assert!(sum.is_one());

        // Nested: split one branch again.
        let inner = part.split(j);
        let mut inner_sum = Weight::ZERO;
        for _ in 0..j {
            inner_sum = inner_sum.plus(inner);
        }
        prop_assert_eq!(inner_sum, part);
    }

    /// Storage codec: values round-trip bit-exactly.
    #[test]
    fn value_codec_round_trip(v in value_strategy()) {
        let bytes = v.to_bytes();
        let mut buf = bytes.clone();
        let back = Value::decode(&mut buf).unwrap();
        // NaN-free strategy ⇒ PartialEq is an equivalence here.
        prop_assert_eq!(back, v);
        prop_assert_eq!(buf.len(), 0);
    }

    /// CRC-32 detects any single-bit flip.
    #[test]
    fn crc_detects_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..64), bit in 0usize..8, idx_seed in any::<u64>()) {
        let idx = (idx_seed as usize) % data.len();
        let mut flipped = data.clone();
        flipped[idx] ^= 1 << bit;
        prop_assert_ne!(crc32(&data), crc32(&flipped));
    }

    /// Expression evaluation is total over generated environments: it
    /// returns Ok or a structured error, never panics; and `Defined` is
    /// consistent with the environment.
    #[test]
    fn expr_eval_total(x in -100i64..100, y in -100i64..100, slot in 1u16..4) {
        let mut env = DataEnv::new();
        env.set(ItemKey::input(slot), Value::Int(x));
        let e = crew_model::Expr::and(
            crew_model::Expr::Defined(ItemKey::input(slot)),
            crew_model::Expr::gt(
                crew_model::Expr::item(ItemKey::input(slot)),
                crew_model::Expr::lit(y),
            ),
        );
        let r = e.eval_bool(&env).unwrap();
        prop_assert_eq!(r, x > y);
        // Unknown slot: Defined guard short-circuits to false.
        let e2 = crew_model::Expr::and(
            crew_model::Expr::Defined(ItemKey::input(slot + 10)),
            crew_model::Expr::gt(
                crew_model::Expr::item(ItemKey::input(slot + 10)),
                crew_model::Expr::lit(y),
            ),
        );
        prop_assert!(!e2.eval_bool(&env).unwrap());
    }

    /// DataEnv merge is idempotent and last-writer-wins.
    #[test]
    fn dataenv_merge_laws(vals in proptest::collection::vec((1u16..8, -50i64..50), 0..16)) {
        let mut a = DataEnv::new();
        let mut b = DataEnv::new();
        for (i, (slot, v)) in vals.iter().enumerate() {
            if i % 2 == 0 {
                a.set(ItemKey::input(*slot), Value::Int(*v));
            } else {
                b.set(ItemKey::input(*slot), Value::Int(*v));
            }
        }
        let mut merged = a.clone();
        merged.merge_from(&b);
        let mut twice = merged.clone();
        twice.merge_from(&b);
        prop_assert_eq!(&merged, &twice, "idempotent");
        for (k, v) in b.iter() {
            prop_assert_eq!(merged.get(k), Some(v), "b wins");
        }
    }
}

/// Strategy for NaN-free values.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,24}".prop_map(|s: String| Value::Str(s.into())),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Deterministic fleet property (non-proptest, heavier): N random schemas,
/// M instances each, everything commits and the message totals match
/// across two identical runs.
#[test]
fn fleet_determinism() {
    let mut schemas = Vec::new();
    for id in 1..=3u32 {
        let mut s = generate(
            SchemaId(id),
            &GenConfig {
                steps: 8,
                seed: id as u64,
                ..GenConfig::default()
            },
        );
        let ids: Vec<StepId> = s.steps().map(|d| d.id).collect();
        for (i, sid) in ids.iter().enumerate() {
            s.set_eligible_agents(*sid, vec![crew_model::AgentId(i as u32 % 6)]);
        }
        schemas.push(s);
    }
    let run = || {
        let system = WorkflowSystem::new(schemas.clone(), Architecture::Distributed { agents: 6 });
        let mut scenario = Scenario::new();
        for id in 1..=3u32 {
            for _ in 0..5 {
                scenario.start(SchemaId(id), vec![(1, Value::Int(7)), (2, Value::Int(3))]);
            }
        }
        let r = system.run(scenario);
        assert_eq!(r.committed(), 15);
        (r.metrics.total_messages, r.virtual_time)
    };
    assert_eq!(run(), run());
}
