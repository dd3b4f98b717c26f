//! Property-based tests for the scenario interner: the v2 protocol's
//! claim that repeated `set`/`dists` payloads skip re-validation is only
//! sound if *equal* payloads always share one validated allocation and
//! *unequal* payloads never do, for any payload — not just the literals
//! the unit tests pin.

use cc_engine::ScenarioInterner;
use proptest::prelude::*;
use std::sync::Arc;

/// Paths whose validation rule accepts any positive integer literal, so
/// every generated payload validates.
const PATHS: [&str; 5] = [
    "grid.intensity",
    "device.lifetime",
    "fab.node_nm",
    "fleet.scale",
    "fleet.building_amortization_years",
];

/// One generated `set` payload: distinct in-order paths with positive
/// integer values.
fn payload() -> impl Strategy<Value = Vec<(String, String)>> {
    (
        proptest::collection::vec(any::<bool>(), PATHS.len()..PATHS.len() + 1),
        proptest::collection::vec(1u32..10_000, PATHS.len()..PATHS.len() + 1),
    )
        .prop_map(|(picks, values)| {
            PATHS
                .iter()
                .zip(picks)
                .zip(values)
                .filter(|((_, pick), _)| *pick)
                .map(|((path, _), value)| (path.to_string(), value.to_string()))
                .collect()
        })
}

/// Optional distribution bindings riding along with the sets.
fn dists() -> impl Strategy<Value = Vec<String>> {
    any::<bool>().prop_map(|with| {
        if with {
            vec!["fab.node_nm ~ triangular(5,7,10)".to_string()]
        } else {
            Vec::new()
        }
    })
}

proptest! {
    #[test]
    fn equal_payloads_validate_once_and_share(sets in payload(), dists in dists()) {
        let interner = ScenarioInterner::new(64);
        let first = interner.resolve(&sets, &dists).unwrap();
        let second = interner.resolve(&sets, &dists).unwrap();
        prop_assert!(
            Arc::ptr_eq(&first, &second),
            "identical payloads must share one allocation"
        );
        // Exactly one validation (the miss), however many re-sightings.
        prop_assert_eq!(interner.counters(), (1, 1));
    }

    #[test]
    fn unequal_payloads_never_share(a in payload(), b in payload(), dists in dists()) {
        prop_assume!(a != b);
        let interner = ScenarioInterner::new(64);
        let left = interner.resolve(&a, &dists).unwrap();
        let right = interner.resolve(&b, &dists).unwrap();
        prop_assert!(
            !Arc::ptr_eq(&left, &right),
            "distinct payloads must not alias"
        );
        // Two validations, no hits: nothing was reused.
        prop_assert_eq!(interner.counters(), (0, 2));
    }

    #[test]
    fn dists_are_part_of_the_payload_identity(sets in payload()) {
        let interner = ScenarioInterner::new(64);
        let bare = interner.resolve(&sets, &[]).unwrap();
        let bound = interner
            .resolve(&sets, &["fleet.growth ~ uniform(1.1,1.5)".to_string()])
            .unwrap();
        prop_assert!(!Arc::ptr_eq(&bare, &bound));
        prop_assert_eq!(bound.bindings.len(), 1);
        prop_assert_eq!(bare.bindings.len(), 0);
    }
}
