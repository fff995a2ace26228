//! Property tests over the rule engine: firing discipline under arbitrary
//! event sequences, invalidation/reset laws, and packet-merge semantics.

use crew_model::{DataEnv, StepId};
use crew_rules::{Action, EventKind, Rule, RuleSet};
use proptest::prelude::*;

fn ev(i: u8) -> EventKind {
    EventKind::StepDone(StepId(i as u32 % 5 + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A rule never fires more times than the minimum occurrence count of
    /// its trigger events (each firing consumes one occurrence of each).
    #[test]
    fn firings_bounded_by_occurrences(seq in proptest::collection::vec(0u8..10, 0..60)) {
        let mut rs = RuleSet::new();
        let trigger = vec![ev(0), ev(1)];
        rs.add_rule(Rule::new(trigger.clone(), Action::StartStep(StepId(9))));
        let mut fired = 0u32;
        let mut counts = [0u32; 2];
        for e in seq {
            let kind = ev(e);
            rs.add_event(kind);
            for (i, t) in trigger.iter().enumerate() {
                if *t == kind {
                    counts[i] += 1;
                }
            }
            fired += rs.fire_ready(&DataEnv::new()).len() as u32;
        }
        prop_assert!(fired <= counts[0].min(counts[1]),
            "fired {fired}, occurrences {counts:?}");
    }

    /// merge_event is monotone and idempotent: replaying any prefix of
    /// merges leaves the table identical to the direct application.
    #[test]
    fn merge_event_idempotent(gens in proptest::collection::vec((0u8..4, 1u32..6), 0..30)) {
        let mut a = RuleSet::new();
        let mut b = RuleSet::new();
        for (e, g) in &gens {
            a.merge_event(ev(*e), *g);
            b.merge_event(ev(*e), *g);
            b.merge_event(ev(*e), *g); // replay
        }
        for e in 0u8..4 {
            prop_assert_eq!(a.event_state(ev(e)), b.event_state(ev(e)));
        }
    }

    /// Invalidate/revalidate round trip: after invalidation the event is
    /// absent; a merge at the same generation re-establishes it and lets
    /// dependent rules fire exactly once more.
    #[test]
    fn invalidate_then_merge_fires_once(gen in 1u32..5) {
        let mut rs = RuleSet::new();
        rs.add_rule(Rule::new(vec![ev(0)], Action::StartStep(StepId(9))));
        for _ in 0..gen {
            rs.add_event(ev(0));
        }
        let first = rs.fire_ready(&DataEnv::new()).len();
        prop_assert_eq!(first, 1, "one firing per sweep regardless of pending gens");
        rs.invalidate_event(ev(0));
        prop_assert!(!rs.has_event(ev(0)));
        prop_assert!(rs.fire_ready(&DataEnv::new()).is_empty());
        // Re-establish at the same generation (a packet re-delivery).
        prop_assert!(rs.merge_event(ev(0), gen));
        prop_assert_eq!(rs.fire_ready(&DataEnv::new()).len(), 1);
        prop_assert!(rs.fire_ready(&DataEnv::new()).is_empty());
    }
}
