//! Robustness properties: WAL recovery under arbitrary corruption, LAWS
//! parsing of arbitrary input, and the WFDB operation codec.

use crew_model::{InstanceId, ItemKey, SchemaId, Value};
use crew_storage::{DbOp, Decode, Encode, Wal};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The WAL's recovery never panics and never yields records that were
    /// not appended, no matter where the log is cut or which byte is
    /// flipped.
    #[test]
    fn wal_recovery_is_prefix_safe(
        n in 1usize..20,
        cut in 0usize..4096,
        flip_at in 0usize..4096,
        flip_bit in 0u8..8,
        do_flip in any::<bool>(),
    ) {
        let ops: Vec<DbOp> = (0..n)
            .map(|i| DbOp::DataWritten {
                instance: InstanceId::new(SchemaId(1), i as u32),
                key: ItemKey::input(1),
                value: Value::Int(i as i64),
            })
            .collect();
        let mut wal: Wal<DbOp> = Wal::in_memory();
        for op in &ops {
            wal.append(op).unwrap();
        }
        // Rebuild a store with a truncated/corrupted copy of the bytes.
        let mut raw = {
            use crew_storage::LogStore;
            wal.store_mut().read_all().unwrap()
        };
        let cut = cut.min(raw.len());
        raw.truncate(cut);
        if do_flip && !raw.is_empty() {
            let i = flip_at % raw.len();
            raw[i] ^= 1 << flip_bit;
        }
        let mut store = crew_storage::MemStore::default();
        {
            use crew_storage::LogStore;
            store.append(&raw).unwrap();
        }
        let mut damaged: Wal<DbOp, crew_storage::MemStore> = Wal::with_store(store);
        let recovered = damaged.recover().unwrap();
        // Every recovered record is a prefix element of what was written
        // (CRC may reject earlier records after a flip, truncating there).
        prop_assert!(recovered.len() <= ops.len());
        for (got, want) in recovered.iter().zip(ops.iter()) {
            prop_assert_eq!(got, want);
        }
    }

    /// The LAWS pipeline is total: arbitrary input never panics; it either
    /// parses+compiles or reports a structured error.
    #[test]
    fn laws_never_panics(src in "[ -~\\n]{0,200}") {
        let _ = crew_laws::parse_and_compile(&src);
    }

    /// Structured fuzz closer to the grammar: keyword soup.
    #[test]
    fn laws_keyword_soup_never_panics(words in proptest::collection::vec(
        prop_oneof![
            Just("workflow"), Just("step"), Just("flow"), Just("parallel"),
            Just("choice"), Just("loop"), Just("coordination"), Just("mutex"),
            Just("order"), Just("rollback"), Just("{"), Just("}"), Just("("),
            Just(")"), Just(";"), Just("->"), Just("A"), Just("\"x\""), Just("1"),
            Just("when"), Just("otherwise"), Just("before"), Just("id"),
        ], 0..40)) {
        let src = words.join(" ");
        let _ = crew_laws::parse_and_compile(&src);
    }

    /// Codec round trip for DbOp over generated inputs.
    #[test]
    fn dbop_codec_round_trip(serial in 0u32..1000, slot in 1u16..9, v in -1000i64..1000) {
        let op = DbOp::DataWritten {
            instance: InstanceId::new(SchemaId(2), serial),
            key: ItemKey::input(slot),
            value: Value::Int(v),
        };
        let mut bytes = op.to_bytes();
        prop_assert_eq!(DbOp::decode(&mut bytes).unwrap(), op);
    }
}
