//! Property-based tests for the sweep grammar and dependency patterns.
//!
//! [`SweepSpec::parse`] feeds the daemon's interner and the CLI alike, and
//! its expansion is canonical: for any spec that parsed, re-parsing the
//! explicit list `path=v1,v2,…` of its values reproduces it.
//! [`ScenarioPath`] matching decides which scenario fields participate in
//! dedup fingerprints, so its wildcard semantics get the same treatment,
//! probed against every row of the real field table.

use cc_report::scenario::deps::FIELDS;
use cc_report::{ScenarioPath, SweepSpec};
use proptest::prelude::*;

/// Numeric paths whose validation rule accepts every positive integer
/// below 10000 (the strategies' bound), so any such literal is an accepted
/// sweep value.
const POSITIVE_PATHS: [&str; 4] = [
    "grid.intensity",
    "device.lifetime",
    "fleet.scale",
    "fleet.building_amortization_years",
];

/// Declared-dependency patterns: every section wildcard plus exact leaves.
const PATTERNS: [&str; 8] = [
    "grid.*",
    "device.*",
    "fab.*",
    "fleet.*",
    "mc.*",
    "grid.intensity",
    "fab.node_nm",
    "fleet.growth",
];

/// The explicit-list form `path=v1,v2,…` of a parsed spec.
fn list_text(spec: &SweepSpec) -> String {
    format!("{}={}", spec.path, spec.values.join(","))
}

proptest! {
    #[test]
    fn list_specs_round_trip(
        path_index in 0..POSITIVE_PATHS.len(),
        values in proptest::collection::vec(1u32..10_000, 1..6),
    ) {
        let path = POSITIVE_PATHS[path_index];
        let rendered: Vec<String> = values.iter().map(u32::to_string).collect();
        let text = format!("{path}={}", rendered.join(","));
        let spec = SweepSpec::parse(&text).unwrap();
        prop_assert_eq!(&spec.path, path);
        prop_assert_eq!(&spec.values, &rendered);
        // Re-parsing the compact list text reproduces the spec.
        prop_assert_eq!(SweepSpec::parse(&list_text(&spec)).unwrap(), spec);
    }

    #[test]
    fn whitespace_around_list_values_is_immaterial(
        path_index in 0..POSITIVE_PATHS.len(),
        values in proptest::collection::vec(1u32..10_000, 1..6),
    ) {
        let path = POSITIVE_PATHS[path_index];
        let compact: Vec<String> = values.iter().map(u32::to_string).collect();
        let padded = format!(" {path} = {} ", compact.join(" , "));
        let spec = SweepSpec::parse(&padded).unwrap();
        prop_assert_eq!(spec.values, compact);
    }

    #[test]
    fn range_specs_round_trip_through_their_expansion(
        path_index in 0..POSITIVE_PATHS.len(),
        start in 1u32..500,
        span in 1u32..400,
        step in 1u32..100,
    ) {
        let path = POSITIVE_PATHS[path_index];
        let text = format!("{path}={start}..{}/{step}", start + span);
        let spec = SweepSpec::parse(&text).unwrap();
        // Inclusive start, stepping while within the end.
        prop_assert_eq!(spec.values.len(), (span / step) as usize + 1);
        prop_assert_eq!(&spec.values[0], &start.to_string());
        prop_assert_eq!(SweepSpec::parse(&list_text(&spec)).unwrap(), spec);
    }

    #[test]
    fn wildcards_cover_exactly_their_section(
        pattern_index in 0..PATTERNS.len(),
        field_index in 0..FIELDS.len(),
    ) {
        let pattern = PATTERNS[pattern_index];
        let field = FIELDS[field_index].path;
        let path = ScenarioPath::of(pattern);
        prop_assert_eq!(path.as_str(), pattern);
        prop_assert_eq!(path.to_string(), pattern);
        let expected = match pattern.strip_suffix(".*") {
            Some(section) => {
                field.split_once('.').is_some_and(|(s, _)| s == section)
            }
            None => pattern == field,
        };
        prop_assert_eq!(path.matches(field), expected);
        // A wildcard never matches its bare section name, and an exact
        // pattern always matches itself.
        match pattern.strip_suffix(".*") {
            Some(section) => prop_assert!(!path.matches(section)),
            None => prop_assert!(path.matches(pattern)),
        }
    }
}
