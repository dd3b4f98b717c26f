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
//!   (type, aliases, paper default via [`Scenario::field_value`], validation
//!   rule) — the single source of truth behind the generated
//!   `docs/scenario-reference.md`;
//! * **[`dependency_fingerprint`]** hashes only the declared fields of a
//!   scenario, so a sweep runner can dedupe (experiment × point) jobs across
//!   axes the experiment ignores ([`dedup_groups`]);
//! * a **[`ReadTracker`]** attached to a tracking
//!   [`RunContext`](crate::RunContext) records the fields an experiment
//!   *actually* read, so CI can fail any declaration that disagrees with the
//!   code.
//!
//! The honesty contract: an experiment's output must be a pure function of
//! the fields its declared paths match. Tracked accessors enforce it — raw
//! [`Scenario`] access (`RunContext::scenario`, `RunContext::is_paper`)
//! counts as reading *every* field, so experiments that want a small
//! dependency set must go through the typed accessors.

use super::{DeviceParams, FabParams, FleetParams, GridParams, McParams, Scenario};
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

/// Metadata for one settable scenario field: the canonical dotted path, its
/// accepted aliases, type, one-line description and validation rule.
///
/// `semantic` distinguishes fields the *models* can read (part of dependency
/// fingerprints) from labeling/convenience fields: `name` only tags
/// artifacts, and `grid.source` is resolved into `grid.intensity` at set
/// time, so neither can change an experiment's numbers on its own.
#[derive(Debug, Clone, Copy)]
pub struct FieldInfo {
    /// Canonical dotted path (`grid.intensity`).
    pub path: &'static str,
    /// Accepted alias paths (`grid.intensity_g_per_kwh`).
    pub aliases: &'static [&'static str],
    /// Human-readable type (`f64`, `u32`, `string`, `list of f64`).
    pub ty: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// Human-readable validation rule enforced by [`Scenario::validate`].
    pub validation: &'static str,
    /// Whether the field participates in dependency fingerprints.
    pub semantic: bool,
}

impl FieldInfo {
    /// Whether the field can be bound to a distribution
    /// (`path ~ triangular(…)`) in a Monte-Carlo run: only semantic
    /// real-valued fields qualify — integer, string and list fields have no
    /// meaningful continuous sample space, and non-semantic fields cannot
    /// change any experiment's numbers.
    #[must_use]
    pub fn distribution_eligible(&self) -> bool {
        self.semantic && self.ty == "f64"
    }
}

/// Every settable scenario field, in canonical (TOML) order. The single
/// source of truth for `--set` documentation, dependency expansion and the
/// generated scenario reference.
pub const FIELDS: [FieldInfo; 25] = [
    FieldInfo {
        path: "name",
        aliases: &[],
        ty: "string",
        doc: "Human-readable scenario name; appears in artifact metadata only",
        validation: "any string",
        semantic: false,
    },
    FieldInfo {
        path: "grid.intensity",
        aliases: &["grid.intensity_g_per_kwh"],
        ty: "f64",
        doc: "Operational grid carbon intensity in g CO2e/kWh",
        validation: "in (0, 10000]",
        semantic: true,
    },
    FieldInfo {
        path: "grid.source",
        aliases: &[],
        ty: "string",
        doc: "Energy-source label; setting it resolves grid.intensity to the Table II value",
        validation: "must name a Table II energy source (case-insensitive)",
        semantic: false,
    },
    FieldInfo {
        path: "grid.renewable_fraction",
        aliases: &[],
        ty: "f64",
        doc: "Fraction of operational energy covered by renewable purchases",
        validation: "in [0, 1]",
        semantic: true,
    },
    FieldInfo {
        path: "grid.regions",
        aliases: &[],
        ty: "trace map",
        doc: "Named grid regions with 24-hour intensity traces; per-region specs \
              (`solar(night,noon)`, `flat(v)`, inline list, `*.csv`) are settable via \
              `grid.region.<name>.trace` and resolve at set time (see docs/GRID-TRACES.md)",
        validation: "unique non-empty names; 24 finite non-negative hourly values each",
        semantic: true,
    },
    FieldInfo {
        path: "device.lifetime",
        aliases: &["device.lifetime_years"],
        ty: "f64",
        doc: "Assumed device lifetime in years",
        validation: "finite and > 0",
        semantic: true,
    },
    FieldInfo {
        path: "device.soc_budget_share",
        aliases: &[],
        ty: "f64",
        doc: "Share of a device's production carbon attributed to its SoC",
        validation: "in (0, 1]",
        semantic: true,
    },
    FieldInfo {
        path: "fab.node_nm",
        aliases: &["fab.node"],
        ty: "f64",
        doc: "Featured process node in nanometres",
        validation: "> 0",
        semantic: true,
    },
    FieldInfo {
        path: "fab.yield_factor",
        aliases: &[],
        ty: "f64",
        doc: "Multiplier on the baseline defect density (1.0 = 0.1 /cm2)",
        validation: "finite and > 0",
        semantic: true,
    },
    FieldInfo {
        path: "fab.renewable_share",
        aliases: &[],
        ty: "f64",
        doc: "Share of fab electricity from renewables",
        validation: "in [0, 1]",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.scale",
        aliases: &[],
        ty: "f64",
        doc: "Demand multiplier applied to fleet-sizing experiments",
        validation: "finite and > 0",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.sku",
        aliases: &[],
        ty: "string",
        doc: "Server SKU of a pure (single-SKU) fleet; a non-empty fleet.mix overrides it",
        validation: "one of: web, storage, ai-training",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.mix",
        aliases: &[],
        ty: "weighted list",
        doc: "Weighted fleet composition (`web:0.7,ai-training:0.3`); one SKU's weight is \
              sweepable via `fleet.mix[<sku>]`, which renormalizes the rest",
        validation: "known SKUs, no duplicates, weights >= 0 summing to 1; empty = pure fleet.sku",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.sites",
        aliases: &[],
        ty: "weighted list",
        doc: "Multi-site fleet composition (`main@default:0.7,pnw@hydro:0.3`); one site's \
              share is sweepable via `fleet.sites[<site>].weight` (renormalizing the rest) \
              and its region settable via `fleet.sites[<site>].region`",
        validation: "unique names, weights >= 0 summing to 1, regions configured or builtin; \
                     empty = one `main` site in the `default` region",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.deferrable",
        aliases: &[],
        ty: "f64",
        doc: "Fraction of fleet IT energy that is deferrable batch work the carbon-aware \
              scheduler may move across hours and sites",
        validation: "in [0, 1]",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.initial_servers",
        aliases: &[],
        ty: "u64",
        doc: "Servers in service in the facility's first simulated year",
        validation: ">= 1",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.growth",
        aliases: &[],
        ty: "f64",
        doc: "Annual server-fleet growth factor (1.0 = flat fleet)",
        validation: "finite and > 0",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.pue",
        aliases: &[],
        ty: "f64",
        doc: "Power usage effectiveness of the facility",
        validation: "finite and >= 1.0",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.renewable_ramp",
        aliases: &["fleet.ramp"],
        ty: "list of f64",
        doc: "Renewable (PPA) coverage fraction per simulated year; last value holds",
        validation: "non-empty, every value in [0, 1]",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.construction_kt",
        aliases: &["fleet.construction"],
        ty: "f64",
        doc: "Total construction embodied carbon in kt CO2e",
        validation: "finite and >= 0",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.building_amortization_years",
        aliases: &["fleet.building_amortization"],
        ty: "f64",
        doc: "Building-amortization window in years over which construction carbon is spread",
        validation: "finite and > 0",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.start_year",
        aliases: &[],
        ty: "u16",
        doc: "Calendar year the facility enters service (shifts the year axis)",
        validation: "in 1900..=2100",
        semantic: true,
    },
    FieldInfo {
        path: "fleet.horizon_years",
        aliases: &["fleet.horizon"],
        ty: "u32",
        doc: "Simulated planning horizon in years",
        validation: "in 1..=200",
        semantic: true,
    },
    FieldInfo {
        path: "mc.seed",
        aliases: &[],
        ty: "u64",
        doc: "Base RNG seed for the Monte-Carlo experiment",
        validation: "any",
        semantic: true,
    },
    FieldInfo {
        path: "mc.samples",
        aliases: &[],
        ty: "u32",
        doc: "Monte-Carlo trials per propagated headline",
        validation: "in 1..=1000000",
        semantic: true,
    },
];

/// The canonical semantic fields covered by `deps`, in [`FIELDS`] order.
/// Wildcards expand to every semantic field of their section; non-semantic
/// fields (`name`, `grid.source`) never appear.
#[must_use]
pub fn expand(deps: &[ScenarioPath]) -> Vec<&'static str> {
    FIELDS
        .iter()
        .filter(|f| f.semantic && deps.iter().any(|d| d.matches(f.path)))
        .map(|f| f.path)
        .collect()
}

/// Read access to the scenario sections, without requiring an owned
/// [`Scenario`]. Implemented by `Scenario` itself and by
/// [`ScenarioOverlay`](crate::ScenarioOverlay), whose sections resolve
/// delta-first against a shared base. Fingerprinting and dedup are generic
/// over this trait, so the sweep machinery can hash copy-on-write points
/// without materializing full scenarios.
pub trait FieldSource {
    /// The scenario name (labeling only — never fingerprinted).
    fn name(&self) -> &str;
    /// Operational-energy parameters.
    fn grid(&self) -> &GridParams;
    /// Device parameters.
    fn device(&self) -> &DeviceParams;
    /// Fab parameters.
    fn fab(&self) -> &FabParams;
    /// Fleet parameters.
    fn fleet(&self) -> &FleetParams;
    /// Monte-Carlo parameters.
    fn mc(&self) -> &McParams;
}

impl FieldSource for Scenario {
    fn name(&self) -> &str {
        &self.name
    }
    fn grid(&self) -> &GridParams {
        &self.grid
    }
    fn device(&self) -> &DeviceParams {
        &self.device
    }
    fn fab(&self) -> &FabParams {
        &self.fab
    }
    fn fleet(&self) -> &FleetParams {
        &self.fleet
    }
    fn mc(&self) -> &McParams {
        &self.mc
    }
}

/// Writes the canonical string form of the field at `path` into `out` —
/// the exact text [`Scenario::field_value`] returns, but streamed, so
/// fingerprinting allocates no intermediate `String` per field. Returns
/// `None` when `path` names no canonical field.
fn write_field_value<S: FieldSource>(
    source: &S,
    path: &str,
    out: &mut impl fmt::Write,
) -> Option<()> {
    let result = match path {
        "name" => out.write_str(source.name()),
        "grid.intensity" => write!(out, "{:?}", source.grid().intensity_g_per_kwh),
        "grid.source" => out.write_str(source.grid().source.as_deref().unwrap_or_default()),
        "grid.renewable_fraction" => write!(out, "{:?}", source.grid().renewable_fraction),
        "grid.regions" => write_regions(&source.grid().regions, out),
        "device.lifetime" => write!(out, "{:?}", source.device().lifetime_years),
        "device.soc_budget_share" => write!(out, "{:?}", source.device().soc_budget_share),
        "fab.node_nm" => write!(out, "{:?}", source.fab().node_nm),
        "fab.yield_factor" => write!(out, "{:?}", source.fab().yield_factor),
        "fab.renewable_share" => write!(out, "{:?}", source.fab().renewable_share),
        "fleet.scale" => write!(out, "{:?}", source.fleet().scale),
        "fleet.sku" => out.write_str(&source.fleet().sku),
        "fleet.mix" => write_mix(&source.fleet().mix, out),
        "fleet.sites" => write_sites(&source.fleet().sites, out),
        "fleet.deferrable" => write!(out, "{:?}", source.fleet().deferrable),
        "fleet.initial_servers" => write!(out, "{}", source.fleet().initial_servers),
        "fleet.growth" => write!(out, "{:?}", source.fleet().growth),
        "fleet.pue" => write!(out, "{:?}", source.fleet().pue),
        "fleet.renewable_ramp" => write_ramp(&source.fleet().renewable_ramp, out),
        "fleet.construction_kt" => write!(out, "{:?}", source.fleet().construction_kt),
        "fleet.building_amortization_years" => {
            write!(out, "{:?}", source.fleet().building_amortization_years)
        }
        "fleet.start_year" => write!(out, "{}", source.fleet().start_year),
        "fleet.horizon_years" => write!(out, "{}", source.fleet().horizon_years),
        "mc.seed" => write!(out, "{}", source.mc().seed),
        "mc.samples" => write!(out, "{}", source.mc().samples),
        _ => return None,
    };
    result.expect("field-value sinks are infallible");
    Some(())
}

/// Streams the canonical `sku:weight,…` mix text (same bytes as
/// `format_mix`).
fn write_mix(mix: &[(String, f64)], out: &mut impl fmt::Write) -> fmt::Result {
    for (i, (name, w)) in mix.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{name}:{w:?}")?;
    }
    Ok(())
}

/// Streams the canonical comma-joined ramp text (same bytes as
/// `format_ramp`).
fn write_ramp(ramp: &[f64], out: &mut impl fmt::Write) -> fmt::Result {
    for (i, v) in ramp.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{v:?}")?;
    }
    Ok(())
}

/// Streams the canonical `name:h0,…,h23;…` region text (same bytes as
/// `format_regions`).
fn write_regions(regions: &[super::RegionParams], out: &mut impl fmt::Write) -> fmt::Result {
    for (i, region) in regions.iter().enumerate() {
        if i > 0 {
            out.write_char(';')?;
        }
        write!(out, "{}:", region.name)?;
        write_ramp(&region.hours, out)?;
    }
    Ok(())
}

/// Streams the canonical `name@region:weight,…` site text (same bytes as
/// `format_sites`).
fn write_sites(sites: &[super::SiteParams], out: &mut impl fmt::Write) -> fmt::Result {
    for (i, site) in sites.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{}@{}:{:?}", site.name, site.region, site.weight)?;
    }
    Ok(())
}

impl Scenario {
    /// The canonical string form of the field at `path` (canonical paths
    /// only — aliases are accepted by [`Scenario::set`], not here). This is
    /// the value text dependency fingerprints hash and the generated
    /// reference documents as the paper default.
    #[must_use]
    pub fn field_value(&self, path: &str) -> Option<String> {
        let mut out = String::new();
        write_field_value(self, path, &mut out)?;
        Some(out)
    }
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

/// Hashes the pre-expanded canonical `fields` of `source`.
fn fingerprint_fields<S: FieldSource>(source: &S, fields: &[&'static str]) -> u64 {
    let mut writer = FnvWriter::new();
    for field in fields {
        writer
            .write_str(field)
            .expect("the FNV writer is infallible");
        writer.separator();
        write_field_value(source, field, &mut writer).expect("expand yields canonical fields");
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
    /// A tracker with no recorded reads.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

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
            expand(&[ScenarioPath::of("grid.*")]),
            ["grid.intensity", "grid.renewable_fraction", "grid.regions"],
            "grid.source is a label, not a semantic field"
        );
        assert_eq!(expand(&[ScenarioPath::of("fleet.*")]).len(), 13);
        assert_eq!(expand(&[]), Vec::<&str>::new());
        // Expansion follows FIELDS order regardless of declaration order.
        assert_eq!(
            expand(&[ScenarioPath::of("mc.*"), ScenarioPath::of("device.*")]),
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
        let t = ReadTracker::new();
        t.record("mc.seed");
        t.record("grid.intensity");
        t.record("mc.seed");
        assert_eq!(t.reads(), ["grid.intensity", "mc.seed"]);
    }
}
