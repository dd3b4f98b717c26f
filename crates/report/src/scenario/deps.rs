//! Scenario-dependency metadata: which scenario fields an experiment reads.
//!
//! Most experiments read *nothing* from the scenario — they regenerate a
//! disclosed dataset verbatim — and produce bit-identical output at every
//! point of a sweep. Declaring each experiment's dependency set makes that
//! knowledge first-class:
//!
//! * a **[`ScenarioPath`]** names one declared dependency — either a single
//!   canonical field (`fab.node_nm`) or a whole section (`fleet.*`);
//! * **[`FIELDS`]** is the canonical registry of every settable dotted path
//!   (type, aliases, paper default via
//!   [`Scenario::field_value`](crate::Scenario::field_value), validation
//!   rule), generated from the one-row-per-field table in
//!   `scenario/fields.rs` — the single source of truth behind the generated
//!   `docs/scenario-reference.md`;
//! * **[`dependency_fingerprint`]** hashes only the declared fields of a
//!   scenario, so a sweep runner can dedupe (experiment × point) jobs across
//!   axes the experiment ignores ([`dedup_groups`]);
//! * a **[`ReadTracker`]** attached to a tracking
//!   [`RunContext`](crate::RunContext) records the fields an experiment
//!   *actually* read, so a test (`declared_deps_match_actual_reads` in
//!   `cc_core::experiments`) fails any declaration that disagrees with the
//!   code.
//!
//! The honesty contract: an experiment's output must be a pure function of
//! the fields its declared paths match. Tracked accessors enforce it —
//! whole-scenario access (`RunContext::scenario`, which returns a
//! [`ScenarioView`]) counts as reading *every* field, so experiments that
//! want a small dependency set must go through the typed accessors.

pub use super::fields::{resolve, FieldInfo, ScenarioView, FIELDS};
use core::fmt::{self, Write as _};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// One declared scenario dependency: a canonical dotted field path
/// (`"grid.intensity"`) or a section wildcard (`"fleet.*"`) covering every
/// semantic field in the section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioPath(&'static str);

impl ScenarioPath {
    /// Wraps a pattern. `const` so dependency sets can live in `static`
    /// registry entries.
    #[must_use]
    pub const fn of(pattern: &'static str) -> Self {
        Self(pattern)
    }

    /// The pattern text.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        self.0
    }

    /// Whether this pattern covers the canonical field `field`
    /// (`fleet.*` matches `fleet.growth`; `fab.node_nm` matches itself).
    #[must_use]
    pub fn matches(self, field: &str) -> bool {
        match self.0.strip_suffix(".*") {
            Some(section) => field
                .strip_prefix(section)
                .is_some_and(|rest| rest.starts_with('.')),
            None => self.0 == field,
        }
    }
}

impl core::fmt::Display for ScenarioPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.0)
    }
}

/// The canonical semantic field rows covered by `deps`, in [`FIELDS`]
/// order. Wildcards expand to every semantic field of their section;
/// non-semantic fields (`name`, `grid.source`) never appear.
#[must_use]
pub fn expand(deps: &[ScenarioPath]) -> Vec<&'static FieldInfo> {
    FIELDS
        .iter()
        .filter(|f| f.semantic && deps.iter().any(|d| d.matches(f.path)))
        .collect()
}

/// Read access to the scenario sections, without requiring an owned
/// [`Scenario`](crate::Scenario). Implemented by `Scenario` itself and by
/// [`ScenarioOverlay`](crate::ScenarioOverlay), whose sections resolve
/// delta-first against a shared base. Fingerprinting and dedup are generic
/// over this trait, so the sweep machinery can hash copy-on-write points
/// without materializing full scenarios.
pub trait FieldSource {
    /// Borrows every section, resolved.
    fn view(&self) -> ScenarioView<'_>;
}

/// FNV-1a accumulator behind `fmt::Write`: fingerprinting streams field
/// values straight out of the formatter into the hash, with an explicit
/// [`Self::separator`] between byte strings so the stream hashes
/// byte-identically to the historical buffered form (every string was
/// followed by one `0x00` terminator).
struct FnvWriter {
    hash: u64,
}

impl FnvWriter {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;

    fn new() -> Self {
        Self {
            hash: Self::OFFSET_BASIS,
        }
    }

    fn step(&mut self, byte: u8) {
        self.hash ^= u64::from(byte);
        self.hash = self.hash.wrapping_mul(Self::PRIME);
    }

    /// The `0x00` terminator hashed after every byte string, keeping
    /// `("ab", "c")` distinct from `("a", "bc")`.
    fn separator(&mut self) {
        self.step(0);
    }
}

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.step(b);
        }
        Ok(())
    }
}

/// Hashes the pre-expanded `fields` of `source`: each row's canonical path
/// and value text, written straight into the hash by the row itself.
/// Equal to [`dependency_fingerprint`] over deps whose [`expand`] is
/// `fields`, so callers fingerprinting one dependency set many times can
/// expand it once.
#[must_use]
pub fn fingerprint_fields<S: FieldSource>(source: &S, fields: &[&FieldInfo]) -> u64 {
    let view = source.view();
    let mut writer = FnvWriter::new();
    for field in fields {
        writer
            .write_str(field.path)
            .expect("the FNV writer is infallible");
        writer.separator();
        field
            .write_value(view, &mut writer)
            .expect("the FNV writer is infallible");
        writer.separator();
    }
    writer.hash
}

/// Hashes only the scenario fields covered by `deps` (canonical path and
/// value text, FNV-1a). Two scenarios that agree on every declared field
/// fingerprint identically — the property the sweep cache keys on. Empty
/// `deps` hash identically for *every* scenario: a scenario-independent
/// experiment runs once per sweep. Generic over [`FieldSource`], so both
/// owned scenarios and copy-on-write overlays fingerprint without cloning.
#[must_use]
pub fn dependency_fingerprint<S: FieldSource>(source: &S, deps: &[ScenarioPath]) -> u64 {
    fingerprint_fields(source, &expand(deps))
}

/// Groups scenario indices by [`dependency_fingerprint`], preserving
/// first-occurrence order: each inner vec's first element is the
/// representative (the point that actually runs), the rest are cache reuses.
/// The dependency expansion is hoisted out of the per-scenario loop, so a
/// full-suite sweep pays for it once per experiment, not once per point.
#[must_use]
pub fn dedup_groups<S: FieldSource>(sources: &[&S], deps: &[ScenarioPath]) -> Vec<Vec<usize>> {
    let fields = expand(deps);
    let mut order: Vec<u64> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (index, source) in sources.iter().enumerate() {
        let fp = fingerprint_fields(*source, &fields);
        match order.iter().position(|&seen| seen == fp) {
            Some(at) => groups[at].push(index),
            None => {
                order.push(fp);
                groups.push(vec![index]);
            }
        }
    }
    groups
}

/// Records which canonical scenario fields an experiment read, via the
/// typed accessors of a tracking [`RunContext`](crate::RunContext).
/// Thread-safe so a tracked context can cross a scoped-thread boundary.
#[derive(Debug, Default)]
pub struct ReadTracker {
    reads: Mutex<BTreeSet<&'static str>>,
}

impl ReadTracker {
    /// Records one canonical field read.
    pub fn record(&self, field: &'static str) {
        self.reads
            .lock()
            .expect("no panics under lock")
            .insert(field);
    }

    /// The recorded reads, sorted.
    #[must_use]
    pub fn reads(&self) -> Vec<&'static str> {
        self.reads
            .lock()
            .expect("no panics under lock")
            .iter()
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn paths(deps: &[ScenarioPath]) -> Vec<&'static str> {
        expand(deps).iter().map(|f| f.path).collect()
    }

    #[test]
    fn wildcards_match_sections_and_leaves_match_exactly() {
        let fleet = ScenarioPath::of("fleet.*");
        assert!(fleet.matches("fleet.growth"));
        assert!(fleet.matches("fleet.renewable_ramp"));
        assert!(!fleet.matches("fab.node_nm"));
        assert!(!fleet.matches("fleet"));
        let node = ScenarioPath::of("fab.node_nm");
        assert!(node.matches("fab.node_nm"));
        assert!(!node.matches("fab.yield_factor"));
        assert_eq!(node.to_string(), "fab.node_nm");
    }

    #[test]
    fn expansion_covers_sections_and_skips_labels() {
        assert_eq!(
            paths(&[ScenarioPath::of("grid.*")]),
            ["grid.intensity", "grid.renewable_fraction", "grid.regions"],
            "grid.source is a label, not a semantic field"
        );
        assert_eq!(expand(&[ScenarioPath::of("fleet.*")]).len(), 13);
        assert_eq!(paths(&[]), Vec::<&str>::new());
        // Expansion follows FIELDS order regardless of declaration order.
        assert_eq!(
            paths(&[ScenarioPath::of("mc.*"), ScenarioPath::of("device.*")]),
            [
                "device.lifetime",
                "device.soc_budget_share",
                "mc.seed",
                "mc.samples"
            ]
        );
    }

    #[test]
    fn distribution_eligibility_covers_exactly_the_semantic_floats() {
        let eligible: Vec<&str> = FIELDS
            .iter()
            .filter(|f| f.distribution_eligible())
            .map(|f| f.path)
            .collect();
        assert_eq!(
            eligible,
            [
                "grid.intensity",
                "grid.renewable_fraction",
                "device.lifetime",
                "device.soc_budget_share",
                "fab.node_nm",
                "fab.yield_factor",
                "fab.renewable_share",
                "fleet.scale",
                "fleet.deferrable",
                "fleet.growth",
                "fleet.pue",
                "fleet.construction_kt",
                "fleet.building_amortization_years",
            ]
        );
    }

    #[test]
    fn every_semantic_field_has_a_value_and_unknown_paths_do_not() {
        let s = Scenario::paper_defaults();
        for field in FIELDS {
            assert!(
                s.field_value(field.path).is_some(),
                "missing value for {}",
                field.path
            );
        }
        assert_eq!(s.field_value("grid.intensity").unwrap(), "380.0");
        assert_eq!(s.field_value("fleet.initial_servers").unwrap(), "60000");
        assert_eq!(
            s.field_value("fleet.renewable_ramp").unwrap(),
            "0.05,0.1,0.2,0.35,0.6,0.85,1.0"
        );
        assert!(s.field_value("grid.nope").is_none());
    }

    #[test]
    fn mix_and_sku_participate_in_fleet_fingerprints() {
        let deps = [ScenarioPath::of("fleet.*")];
        let base = Scenario::paper_defaults();
        let mut storage = base.clone();
        storage.set("fleet.sku", "storage").unwrap();
        assert_ne!(
            dependency_fingerprint(&base, &deps),
            dependency_fingerprint(&storage, &deps)
        );
        let mut mixed = base.clone();
        mixed.set("fleet.mix", "web:0.7,ai-training:0.3").unwrap();
        assert_ne!(
            dependency_fingerprint(&base, &deps),
            dependency_fingerprint(&mixed, &deps)
        );
        assert_eq!(
            mixed.field_value("fleet.mix").unwrap(),
            "web:0.7,ai-training:0.3"
        );
    }

    #[test]
    fn regions_and_sites_participate_in_fingerprints() {
        let base = Scenario::paper_defaults();
        let mut placed = base.clone();
        placed.set("fleet.sites[pnw].weight", "0.3").unwrap();
        assert_ne!(
            dependency_fingerprint(&base, &[ScenarioPath::of("fleet.sites")]),
            dependency_fingerprint(&placed, &[ScenarioPath::of("fleet.sites")])
        );
        assert_eq!(
            placed.field_value("fleet.sites").unwrap(),
            "main@default:0.7,pnw@pnw:0.3"
        );
        let mut traced = base.clone();
        traced.set("grid.region.pnw.trace", "flat(24)").unwrap();
        assert_ne!(
            dependency_fingerprint(&base, &[ScenarioPath::of("grid.regions")]),
            dependency_fingerprint(&traced, &[ScenarioPath::of("grid.regions")])
        );
        let value = traced.field_value("grid.regions").unwrap();
        assert!(value.starts_with("pnw:24.0,"), "{value}");
    }

    #[test]
    fn fingerprint_ignores_undeclared_fields() {
        let deps = [ScenarioPath::of("fab.node_nm")];
        let base = Scenario::paper_defaults();
        let mut other_axis = base.clone();
        other_axis.set("fleet.growth", "1.9").unwrap();
        other_axis.set("name", "elsewhere").unwrap();
        // Points that differ only in ignored fields fingerprint identically.
        assert_eq!(
            dependency_fingerprint(&base, &deps),
            dependency_fingerprint(&other_axis, &deps)
        );
        // A declared field moving changes the fingerprint.
        let mut moved = base.clone();
        moved.set("fab.node_nm", "7").unwrap();
        assert_ne!(
            dependency_fingerprint(&base, &deps),
            dependency_fingerprint(&moved, &deps)
        );
    }

    #[test]
    fn empty_deps_fingerprint_is_scenario_invariant() {
        let base = Scenario::paper_defaults();
        let mut wild = base.clone();
        for (k, v) in [
            ("grid.intensity", "11"),
            ("device.lifetime", "9"),
            ("fleet.growth", "1.01"),
            ("mc.seed", "999"),
        ] {
            wild.set(k, v).unwrap();
        }
        assert_eq!(
            dependency_fingerprint(&base, &[]),
            dependency_fingerprint(&wild, &[])
        );
    }

    #[test]
    fn fingerprints_do_not_collide_across_field_boundaries() {
        // The separator byte keeps ("fab.node_nm", "7") distinct from any
        // concatenation ambiguity with neighboring fields.
        let deps = [ScenarioPath::of("device.*")];
        let mut a = Scenario::paper_defaults();
        a.set("device.lifetime", "3.5").unwrap();
        let mut b = Scenario::paper_defaults();
        b.set("device.soc_budget_share", "0.35").unwrap();
        assert_ne!(
            dependency_fingerprint(&a, &deps),
            dependency_fingerprint(&b, &deps)
        );
    }

    #[test]
    fn dedup_groups_share_points_across_ignored_axes() {
        let base = Scenario::paper_defaults();
        let mut g15 = base.clone();
        g15.set("fleet.growth", "1.5").unwrap();
        let mut g15_other_name = g15.clone();
        g15_other_name.set("name", "b").unwrap();
        let scenarios = [&base, &g15, &g15_other_name];

        // Independent of the swept axis: one group of three.
        assert_eq!(dedup_groups(&scenarios, &[]), [vec![0, 1, 2]]);
        // Dependent on it: base alone, the two growth-1.5 points shared.
        assert_eq!(
            dedup_groups(&scenarios, &[ScenarioPath::of("fleet.*")]),
            [vec![0], vec![1, 2]]
        );
    }

    #[test]
    fn tracker_records_deduplicated_sorted_reads() {
        let t = ReadTracker::default();
        t.record("mc.seed");
        t.record("grid.intensity");
        t.record("mc.seed");
        assert_eq!(t.reads(), ["grid.intensity", "mc.seed"]);
    }
}
