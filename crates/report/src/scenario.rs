//! Scenario parameters and the experiment run context.
//!
//! The paper's headline conclusion — computing's carbon footprint is shifting
//! from operational (opex) to embodied (capex) emissions — is a function of a
//! handful of scenario parameters: how dirty the operational grid is, how
//! long hardware lives, how the fab is powered, how large the fleet is. A
//! [`Scenario`] captures exactly those knobs; a [`RunContext`] carries one
//! scenario (plus typed accessors) into every [`crate::Experiment::run`]
//! call. [`Scenario::paper_defaults`] pins the values Gupta et al. used, so
//! the default context regenerates the paper verbatim while any other
//! scenario answers a "what if?".
//!
//! Scenarios load from a small TOML subset (tables, `key = value` pairs
//! with number/string/bool values, `#` comments) so they can live in
//! version-controlled files, and every field is addressable by a dotted path
//! (`grid.intensity`) for one-off command-line overrides. Every field is
//! one row of the table in `scenario/fields.rs`, which defines the section
//! structs, [`Scenario`] and [`ScenarioOverlay`]; this module holds the
//! hand-written parts that hang off rows.

pub mod deps;
mod fields;
pub mod mc;
pub mod sweep;
pub mod trace;

pub use fields::{
    DeviceParams, FabParams, FleetParams, GridParams, McParams, Scenario, ScenarioOverlay,
};

use cc_data::energy_sources::EnergySource;
use cc_units::{CarbonIntensity, TimeSpan};
use deps::{FieldSource, ReadTracker, ScenarioView};
use fields::{FieldType, SectionsMut};
use std::path::Path;
use std::sync::Arc;

/// Carbon intensity assumed for renewable power purchases when blending
/// `grid.renewable_fraction` into the effective operational intensity
/// (wind, Table II).
pub const RENEWABLE_PPA_G_PER_KWH: f64 = 11.0;

/// Server SKU names a fleet may be composed of (`fleet.sku` /
/// `fleet.mix`). These mirror the `cc_dcsim::ServerConfig` catalog — a
/// cross-crate test in `cc_core` keeps the two lists agreeing — so the
/// scenario layer can validate fleet compositions without depending on the
/// simulator crate.
pub const KNOWN_SKUS: [&str; 3] = ["web", "storage", "ai-training"];

/// Tolerance when checking that `fleet.mix` weights sum to 1.
pub const MIX_WEIGHT_TOLERANCE: f64 = 1e-6;

/// One named grid region: a time-resolved carbon-intensity trace.
///
/// The hours are stored **resolved** — whatever spec form the user wrote
/// (parametric generator, inline list, CSV file) is evaluated at set time,
/// so scenarios stay hermetic and fingerprint by value. See
/// `docs/GRID-TRACES.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionParams {
    /// Region name, referenced by [`SiteParams::region`].
    pub name: String,
    /// Exactly 24 hourly carbon intensities in g CO₂e/kWh (hour 0 =
    /// midnight local time).
    pub hours: Vec<f64>,
}

/// One site of a multi-site fleet: a share of the fleet placed in a grid
/// region.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteParams {
    /// Site name (appears in `ext-scheduler` series and tables).
    pub name: String,
    /// Grid region the site draws power from — a [`GridParams::regions`]
    /// entry or a [`trace::BUILTIN_REGIONS`] name.
    pub region: String,
    /// Share of the fleet hosted at this site (weights sum to 1).
    pub weight: f64,
}
impl FleetParams {
    /// The effective fleet composition: [`Self::mix`] when non-empty,
    /// otherwise a pure fleet of [`Self::sku`] at weight 1.
    #[must_use]
    pub fn composition(&self) -> Vec<(String, f64)> {
        if self.mix.is_empty() {
            vec![(self.sku.clone(), 1.0)]
        } else {
            self.mix.clone()
        }
    }

    /// Sets one SKU's weight in the composition, rescaling every other
    /// entry proportionally so the weights keep summing to 1. An empty mix
    /// starts from the pure [`Self::sku`] fleet, so
    /// `set_mix_weight("ai-training", 0.3)` on the paper defaults yields
    /// `web:0.7,ai-training:0.3`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] when `weight` lies outside `[0, 1]`, or
    /// when the remaining entries carry no weight to rescale (e.g. setting
    /// the only SKU's weight below 1), which would leave the weights unable
    /// to sum to 1.
    pub fn set_mix_weight(&mut self, sku: &str, weight: f64) -> Result<(), ScenarioError> {
        self.mix = set_weight(
            ("fleet.mix", "SKU"),
            self.composition(),
            |(name, w)| (name.as_str(), w),
            (sku, weight),
            || (sku.to_string(), 0.0),
        )?;
        Ok(())
    }

    /// The effective multi-site composition: [`Self::sites`] when non-empty,
    /// otherwise a single site `main` in the `default` region at weight 1.
    #[must_use]
    pub fn site_composition(&self) -> Vec<SiteParams> {
        if self.sites.is_empty() {
            vec![SiteParams {
                name: "main".to_string(),
                region: "default".to_string(),
                weight: 1.0,
            }]
        } else {
            self.sites.clone()
        }
    }

    /// Sets one site's fleet share, rescaling every other site
    /// proportionally so the weights keep summing to 1 — the multi-site
    /// analogue of [`Self::set_mix_weight`]. An empty site list starts from
    /// the single `main@default` site, and a site introduced this way is
    /// placed in the region of the same name, so
    /// `set_site_weight("hydro", 0.3)` on the paper defaults yields
    /// `main@default:0.7,hydro@hydro:0.3`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] when `weight` lies outside `[0, 1]`, or
    /// when the remaining sites carry no weight to rescale.
    pub fn set_site_weight(&mut self, site: &str, weight: f64) -> Result<(), ScenarioError> {
        self.sites = set_weight(
            ("fleet.sites", "site"),
            self.site_composition(),
            |s| (s.name.as_str(), &mut s.weight),
            (site, weight),
            || SiteParams {
                name: site.to_string(),
                region: site.to_string(),
                weight: 0.0,
            },
        )?;
        Ok(())
    }

    /// Re-points one site at a grid region, materializing the default
    /// composition first. A site not yet in the composition is added at
    /// weight 0 so `.region` and `.weight` assignments commute.
    pub fn set_site_region(&mut self, site: &str, region: &str) {
        let mut sites = self.site_composition();
        match sites.iter_mut().find(|s| s.name == site) {
            Some(s) => s.region = region.to_string(),
            None => sites.push(SiteParams {
                name: site.to_string(),
                region: region.to_string(),
                weight: 0.0,
            }),
        }
        self.sites = sites;
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Setting, parsing and validating a scenario:
///
/// ```
/// use cc_report::Scenario;
///
/// let mut wind = Scenario::paper_defaults();
/// wind.set("name", "wind-grid").unwrap();
/// wind.set("grid.intensity", "11").unwrap();
/// wind.set("device.lifetime", "4").unwrap();
/// wind.validate().unwrap();
/// let toml = "name = \"wind-grid\"\n\
///             [grid]\nintensity_g_per_kwh = 11\n\
///             [device]\nlifetime_years = 4\n";
/// assert_eq!(Scenario::from_toml(toml).unwrap(), wind);
/// ```
impl Scenario {
    /// Sets one field by its dotted path, parsing `value` as the field's
    /// type. This backs both the TOML reader and `--set key=value` command
    /// line overrides.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownKey`] for an unrecognized path and
    /// [`ScenarioError::InvalidValue`] when `value` does not parse.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        fields::set(self, key, value)
    }

    /// Parses a scenario from the TOML subset of scenario files:
    /// `[section]` tables, `key = value` pairs, `#` comments. Unlisted fields
    /// keep their paper-default values; unknown keys are rejected so typos
    /// cannot silently run the wrong scenario. Within a file, an explicitly
    /// written intensity wins over `grid.source` in either line order.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for malformed lines, plus the [`Self::set`]
    /// errors for unknown keys or unparsable values.
    pub fn from_toml(text: &str) -> Result<Self, ScenarioError> {
        Self::parse_toml(text, None)
    }

    /// Like [`Self::from_toml`] for the text of a scenario file in `dir`:
    /// a relative `.csv` path in a `grid.region.<name>.trace` line resolves
    /// against `dir`, so the file loads the same from any working
    /// directory. (`--set` trace paths stay relative to the working
    /// directory.)
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::from_toml`].
    pub fn from_toml_in(text: &str, dir: &Path) -> Result<Self, ScenarioError> {
        Self::parse_toml(text, Some(dir))
    }

    /// The TOML reader behind [`Self::from_toml`] and
    /// [`Self::from_toml_in`]; `dir` rebases relative trace file paths.
    fn parse_toml(text: &str, dir: Option<&Path>) -> Result<Self, ScenarioError> {
        let mut scenario = Self::paper_defaults();
        // Every `(path, value)` line in file order.
        let mut lines: Vec<(String, String)> = Vec::new();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(ScenarioError::Parse {
                        line: line_no,
                        message: "unterminated table header".to_string(),
                    });
                };
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ScenarioError::Parse {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let path = if section.is_empty() {
                key.trim().to_string()
            } else {
                format!("{section}.{}", key.trim())
            };
            let trace_file = dir
                .filter(|_| path.starts_with("grid.region.") && path.ends_with(".trace"))
                .and_then(|dir| trace::rebase_trace_file(value.trim(), dir));
            scenario.set(&path, trace_file.as_deref().unwrap_or(value.trim()))?;
            lines.push((path, value.trim().to_string()));
        }
        // Within a file, an explicitly written intensity wins over the
        // source's Table II value regardless of line order (a file is a
        // declaration, not a sequence of overrides); the source then stays
        // an informational label.
        if lines.iter().any(|(k, _)| k == "grid.source") {
            if let Some((key, value)) = lines
                .iter()
                .rev()
                .find(|(k, _)| deps::resolve(k).is_some_and(|f| f.path == "grid.intensity"))
            {
                scenario.set(key, value)?;
            }
        }
        Ok(scenario)
    }

    /// Checks every parameter is physically sensible.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] naming the first offending field, or
    /// [`ScenarioError::UnknownSource`] for a `grid.source` label naming no
    /// Table II energy source.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        fields::validate(self.view())
    }

    /// The canonical string form of the field at `path` (canonical paths
    /// only — aliases are accepted by [`Scenario::set`], not here). This is
    /// the value text dependency fingerprints hash and the generated
    /// reference documents as the paper default.
    #[must_use]
    pub fn field_value(&self, path: &str) -> Option<String> {
        let field = deps::FIELDS.iter().find(|f| f.path == path)?;
        let mut out = String::new();
        field
            .write_value(self.view(), &mut out)
            .expect("writing to a String cannot fail");
        Some(out)
    }
}

/// The `grid.source` rule: the label must name a Table II energy source.
fn validate_source(view: ScenarioView<'_>) -> Result<(), ScenarioError> {
    match &view.grid.source {
        Some(source) if lookup_energy_source(source).is_none() => {
            Err(ScenarioError::UnknownSource(source.clone()))
        }
        _ => Ok(()),
    }
}

/// Checks that the SKU a fleet `field` names is one of [`KNOWN_SKUS`].
fn known_sku(field: &str, name: &str) -> Result<(), ScenarioError> {
    if KNOWN_SKUS.contains(&name) {
        return Ok(());
    }
    Err(ScenarioError::Invalid(format!(
        "{field} names unknown server SKU `{name}` (known: {})",
        KNOWN_SKUS.join(", ")
    )))
}

/// The `fleet.sku` rule: one of [`KNOWN_SKUS`].
fn validate_sku(view: ScenarioView<'_>) -> Result<(), ScenarioError> {
    known_sku("fleet.sku", &view.fleet.sku)
}

/// The largest fleet a facility projection may reach: about ten times
/// every server in the world.
const MAX_PROJECTED_SERVERS: f64 = 1e9;

/// The `fleet.growth` rule's text; its three clauses are also the messages
/// a failing value is rejected with.
pub(super) const GROWTH_RULE: &str = "fleet.growth must be finite and positive; \
     fleet.initial_servers * max(1, fleet.growth)^(fleet.horizon_years - 1) \
     must be finite and at most 1e9 servers; \
     fleet.initial_servers * min(1, fleet.growth)^(fleet.horizon_years - 1) \
     must be at least 1 server";

/// The `fleet.growth` rule: a finite, positive factor whose projected
/// fleet stays finite and within [`MAX_PROJECTED_SERVERS`] at its peak and
/// keeps at least one server at its trough. A bound on growth alone would
/// not do: a modest factor over a long horizon from a large start still
/// saturates the facility's server count, and a shrinking one over a long
/// horizon empties it.
fn validate_growth(view: ScenarioView<'_>) -> Result<(), ScenarioError> {
    let mut clauses = GROWTH_RULE.split("; ");
    let mut clause = || clauses.next().expect("three clauses");
    let (positive, ceiling, floor) = (clause(), clause(), clause());
    let fleet = view.fleet;
    if !(fleet.growth.is_finite() && fleet.growth > 0.0) {
        return Err(ScenarioError::Invalid(positive.to_string()));
    }
    let years = f64::from(fleet.horizon_years.saturating_sub(1));
    let projected = |factor: f64| fleet.initial_servers as f64 * factor.powf(years);
    let peak = projected(fleet.growth.max(1.0));
    if !(peak.is_finite() && peak <= MAX_PROJECTED_SERVERS) {
        return Err(ScenarioError::Invalid(format!("{ceiling}, got {peak:.3e}")));
    }
    let trough = projected(fleet.growth.min(1.0));
    if trough < 1.0 {
        return Err(ScenarioError::Invalid(format!("{floor}, got {trough:.3e}")));
    }
    Ok(())
}

/// Sets member `name`'s weight in the composition `members` (a member it
/// lacks joins at weight 0, built by `add`), rescaling every other member
/// proportionally so the weights keep summing to 1. `member` reads a
/// member's name and weight; `path` (`fleet.mix`, `fleet.sites`) and
/// `noun` (`SKU`, `site`) name the list in errors.
fn set_weight<T>(
    (path, noun): (&str, &str),
    mut members: Vec<T>,
    member: impl Fn(&mut T) -> (&str, &mut f64),
    (name, weight): (&str, f64),
    add: impl FnOnce() -> T,
) -> Result<Vec<T>, ScenarioError> {
    if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
        // Rejecting here names the assignment the user actually made;
        // rescaling first would surface as a negative weight on some
        // *other* member at validation time.
        return Err(ScenarioError::Invalid(format!(
            "{path}[{name}] weight must lie in [0, 1], got {weight}"
        )));
    }
    if !members.iter_mut().any(|m| member(m).0 == name) {
        members.push(add());
    }
    let others: f64 = members
        .iter_mut()
        .map(&member)
        .filter(|(other, _)| *other != name)
        .map(|(_, w)| *w)
        .sum();
    if others == 0.0 && weight != 1.0 {
        let list = path.trim_start_matches("fleet.");
        return Err(ScenarioError::Invalid(format!(
            "{path}[{name}] = {weight} leaves no other {noun} weight to rescale \
             (the {list} must keep summing to 1)"
        )));
    }
    for (other, w) in members.iter_mut().map(&member) {
        if other == name {
            *w = weight;
        } else if others > 0.0 {
            *w *= (1.0 - weight) / others;
        }
    }
    Ok(members)
}

/// The rule every weighted composition shares: each member named once,
/// with a finite non-negative weight, and the weights summing to 1 within
/// [`MIX_WEIGHT_TOLERANCE`]. `member` reads a member's name and weight;
/// `first` and `last` are the list's own checks on a member, run before
/// and after the shared ones; `path` and `noun` name the list in errors.
/// An empty list passes untouched.
fn validate_weights<T>(
    (path, noun): (&str, &str),
    members: &[T],
    member: impl Fn(&T) -> (&str, f64),
    first: impl Fn(&T) -> Result<(), ScenarioError>,
    last: impl Fn(&T) -> Result<(), ScenarioError>,
) -> Result<(), ScenarioError> {
    let mut sum = 0.0;
    for (i, item) in members.iter().enumerate() {
        first(item)?;
        let (name, weight) = member(item);
        if members[..i].iter().any(|prior| member(prior).0 == name) {
            return Err(ScenarioError::Invalid(format!(
                "{path} lists {noun} `{name}` more than once"
            )));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(ScenarioError::Invalid(format!(
                "{path} weight for `{name}` must be finite and non-negative, got {weight}"
            )));
        }
        last(item)?;
        sum += weight;
    }
    if !members.is_empty() && (sum - 1.0).abs() > MIX_WEIGHT_TOLERANCE {
        return Err(ScenarioError::Invalid(format!(
            "{path} weights must sum to 1, got {sum}"
        )));
    }
    Ok(())
}

/// The `fleet.mix` rule: known SKU names only, no duplicates, finite
/// non-negative weights summing to 1 within [`MIX_WEIGHT_TOLERANCE`].
fn validate_mix(view: ScenarioView<'_>) -> Result<(), ScenarioError> {
    validate_weights(
        ("fleet.mix", "SKU"),
        &view.fleet.mix,
        |(name, weight)| (name.as_str(), *weight),
        |(name, _)| known_sku("fleet.mix", name),
        |_| Ok(()),
    )
}

/// The `grid.regions` rule: every configured region carries a physical
/// 24-hour trace under a unique non-empty name.
fn validate_grid_regions(view: ScenarioView<'_>) -> Result<(), ScenarioError> {
    let regions = &view.grid.regions;
    for (i, region) in regions.iter().enumerate() {
        if region.name.is_empty() {
            return Err(ScenarioError::Invalid(
                "grid.regions lists a region with an empty name".to_string(),
            ));
        }
        if regions[..i].iter().any(|r| r.name == region.name) {
            return Err(ScenarioError::Invalid(format!(
                "grid.regions lists region `{}` more than once",
                region.name
            )));
        }
        if region.hours.len() != 24 {
            return Err(ScenarioError::Invalid(format!(
                "grid.region.{}.trace must resolve to 24 hourly values, got {}",
                region.name,
                region.hours.len()
            )));
        }
        if !region.hours.iter().all(|h| h.is_finite() && *h >= 0.0) {
            return Err(ScenarioError::Invalid(format!(
                "grid.region.{}.trace must hold finite non-negative intensities",
                region.name
            )));
        }
    }
    Ok(())
}

/// The `fleet.sites` rule: unique non-empty site names, finite
/// non-negative weights summing to 1 within [`MIX_WEIGHT_TOLERANCE`], and
/// every referenced region either configured in `grid.regions` or a
/// [`trace::BUILTIN_REGIONS`] name.
fn validate_sites(view: ScenarioView<'_>) -> Result<(), ScenarioError> {
    let named = |site: &SiteParams| {
        if site.name.is_empty() {
            return Err(ScenarioError::Invalid(
                "fleet.sites lists a site with an empty name".to_string(),
            ));
        }
        Ok(())
    };
    let region = |site: &SiteParams| {
        let configured = view.grid.regions.iter().any(|r| r.name == site.region);
        if !configured && trace::builtin_region_trace(&site.region).is_none() {
            return Err(ScenarioError::Invalid(format!(
                "fleet.sites[{}] names region `{}` with no grid.region.{}.trace \
                 entry (builtin regions: {})",
                site.name,
                site.region,
                site.region,
                trace::BUILTIN_REGIONS.join(", ")
            )));
        }
        Ok(())
    };
    validate_weights(
        ("fleet.sites", "site"),
        &view.fleet.sites,
        |site| (site.name.as_str(), site.weight),
        named,
        region,
    )
}

/// Sets one element of a list field through its bracket path:
/// `grid.region.<name>.trace`, `fleet.mix[<sku>]` and
/// `fleet.sites[<site>]` / `.weight` / `.region`. These paths are not
/// table rows, so they accept no distribution binding.
fn set_bracket(target: &mut dyn SectionsMut, key: &str, value: &str) -> Result<(), ScenarioError> {
    let unknown = || ScenarioError::UnknownKey(key.to_string());
    fn named(name: &str) -> Option<&str> {
        Some(name.trim()).filter(|n| !n.is_empty())
    }
    if let Some(name) = key
        .strip_prefix("grid.region.")
        .and_then(|rest| rest.strip_suffix(".trace"))
    {
        let name = named(name).ok_or_else(unknown)?;
        let hours = trace::parse_trace_spec(key, value)?;
        let regions = &mut target.grid().regions;
        match regions.iter_mut().find(|r| r.name == name) {
            Some(region) => region.hours = hours,
            None => regions.push(RegionParams {
                name: name.to_string(),
                hours,
            }),
        }
        Ok(())
    } else if let Some(sku) = key
        .strip_prefix("fleet.mix[")
        .and_then(|rest| rest.strip_suffix(']'))
    {
        let sku = named(sku).ok_or_else(unknown)?;
        target.fleet().set_mix_weight(sku, f64::parse(key, value)?)
    } else if let Some((site, field)) = key
        .strip_prefix("fleet.sites[")
        .and_then(|rest| rest.split_once(']'))
    {
        let site = named(site).ok_or_else(unknown)?;
        match field {
            "" | ".weight" => target
                .fleet()
                .set_site_weight(site, f64::parse(key, value)?),
            ".region" => {
                target.fleet().set_site_region(site, unquote(value).trim());
                Ok(())
            }
            _ => Err(unknown()),
        }
    } else {
        Err(unknown())
    }
}

/// Errors from scenario parsing, overrides and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A dotted path that names no scenario field.
    UnknownKey(String),
    /// A value that does not parse as the field's type.
    InvalidValue {
        /// The offending path.
        key: String,
        /// The raw value text.
        value: String,
    },
    /// A malformed TOML line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A parameter outside its physical range.
    Invalid(String),
    /// A `grid.source` label naming no Table II energy source.
    UnknownSource(String),
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownKey(key) => write!(f, "unknown scenario key `{key}`"),
            Self::InvalidValue { key, value } => {
                write!(f, "invalid value `{value}` for scenario key `{key}`")
            }
            Self::Parse { line, message } => write!(f, "scenario TOML line {line}: {message}"),
            Self::Invalid(message) => write!(f, "invalid scenario: {message}"),
            Self::UnknownSource(source) => {
                let names: Vec<String> = EnergySource::ALL
                    .into_iter()
                    .map(|s| s.name().to_lowercase())
                    .collect();
                write!(
                    f,
                    "unknown energy source `{source}` (known: {})",
                    names.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Overwrites `grid.intensity_g_per_kwh` with the Table II intensity of the
/// named `grid.source` (case-insensitive); a no-op when no source is set.
/// This is the `grid.source` row's set hook, so it takes a bare grid
/// section and copy-on-write overlays resolve a `grid.source` assignment
/// without a full scenario in hand.
///
/// # Errors
///
/// [`ScenarioError::UnknownSource`] when the name matches no Table II row.
fn resolve_energy_source_in(grid: &mut GridParams) -> Result<(), ScenarioError> {
    let Some(source) = &grid.source else {
        return Ok(());
    };
    let matched =
        lookup_energy_source(source).ok_or_else(|| ScenarioError::UnknownSource(source.clone()))?;
    grid.intensity_g_per_kwh = matched.carbon_intensity().as_g_per_kwh();
    Ok(())
}

/// Finds the Table II energy source matching `name`, case-insensitively.
fn lookup_energy_source(name: &str) -> Option<EnergySource> {
    let wanted = name.to_lowercase();
    EnergySource::ALL
        .into_iter()
        .find(|s| s.name().to_lowercase() == wanted)
}

/// Strips one layer of surrounding double quotes from a TOML basic string
/// and unescapes `\"`, `\\`, `\n`, `\r` and `\t`. Unquoted input is
/// returned verbatim.
fn unquote(value: &str) -> String {
    let value = value.trim();
    let Some(inner) = value
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
    else {
        return value.to_string();
    };
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Removes a `#` comment, respecting double-quoted strings (including
/// `\"` escapes inside them).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

impl PartialEq for ScenarioOverlay {
    /// Overlays compare by *resolved* values, not delta shape: a pristine
    /// overlay equals one whose delta restates the base verbatim.
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl ScenarioOverlay {
    /// Renames the point (labeling only — the name is never fingerprinted).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = Some(name.into());
    }

    /// Sets one field by its dotted path — the overlay analogue of
    /// [`Scenario::set`] — cloning only the touched section into the delta.
    ///
    /// # Errors
    ///
    /// The same [`Scenario::set`] errors: [`ScenarioError::UnknownKey`] for
    /// an unrecognized path, [`ScenarioError::InvalidValue`] when `value`
    /// does not parse.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        fields::set(self, key, value)
    }

    /// [`Scenario::validate`] over the resolved sections.
    ///
    /// # Errors
    ///
    /// The same [`Scenario::validate`] errors for unphysical parameters.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        fields::validate(self.view())
    }
}

/// The context every experiment runs in: one scenario, held as a
/// copy-on-write [`ScenarioOverlay`], plus typed accessors for the
/// quantities the models consume.
///
/// A context built by [`Self::tracking`] additionally records every
/// canonical scenario field the typed accessors touch, which is how the
/// `declared_deps_match_actual_reads` test in `cc_core::experiments`
/// verifies each experiment's declared dependency set
/// ([`deps::ScenarioPath`]) against its actual reads. Whole-scenario access
/// through [`Self::scenario`] counts as reading *every* semantic field — an
/// experiment wanting a small dependency set must stay on the typed
/// accessors.
#[derive(Debug, Clone)]
pub struct RunContext {
    overlay: ScenarioOverlay,
    tracker: Option<Arc<ReadTracker>>,
}

impl Default for RunContext {
    fn default() -> Self {
        Self::paper()
    }
}

impl PartialEq for RunContext {
    /// Contexts compare by (resolved) scenario; whether reads are being
    /// tracked is an observation concern, not an identity one.
    fn eq(&self, other: &Self) -> bool {
        self.overlay == other.overlay
    }
}

impl RunContext {
    /// Records one canonical field read (no-op without a tracker).
    fn record(&self, field: &'static str) {
        if let Some(tracker) = &self.tracker {
            tracker.record(field);
        }
    }

    /// Records a read of every semantic field (whole-scenario access).
    fn record_all(&self) {
        if let Some(tracker) = &self.tracker {
            for field in deps::FIELDS.iter().filter(|f| f.semantic) {
                tracker.record(field.path);
            }
        }
    }
    /// A context running the given scenario.
    ///
    /// # Panics
    ///
    /// Panics when the scenario fails [`Scenario::validate`] — constructing
    /// the context is the last moment an unphysical parameter can be named
    /// precisely; deeper in the models it would surface as an opaque solver
    /// panic. Use [`Self::try_new`] to handle the error instead.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        Self::try_new(scenario).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A context running the given scenario, rejecting invalid parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`Scenario::validate`] error for unphysical parameters.
    pub fn try_new(scenario: Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        Ok(Self {
            overlay: ScenarioOverlay::new(Arc::new(scenario)),
            tracker: None,
        })
    }

    /// A context running a copy-on-write sweep point directly — no owned
    /// scenario clone is made. This is how the sweep grid turns a
    /// [`sweep::ScenarioPoint`] into a runnable context.
    ///
    /// # Errors
    ///
    /// Returns the [`Scenario::validate`] error for unphysical parameters.
    pub fn try_from_overlay(overlay: ScenarioOverlay) -> Result<Self, ScenarioError> {
        overlay.validate()?;
        Ok(Self {
            overlay,
            tracker: None,
        })
    }

    /// A context that records every canonical scenario field the typed
    /// accessors read, returned alongside its [`ReadTracker`]. This is the
    /// instrument behind the dependency-declaration test
    /// (`declared_deps_match_actual_reads` in `cc_core::experiments`): run
    /// an experiment under a tracking context and compare
    /// [`ReadTracker::reads`] with the expansion of its declared paths.
    ///
    /// # Errors
    ///
    /// Returns the [`Scenario::validate`] error for unphysical parameters.
    pub fn tracking(scenario: Scenario) -> Result<(Self, Arc<ReadTracker>), ScenarioError> {
        let mut ctx = Self::try_new(scenario)?;
        let tracker = Arc::new(ReadTracker::new());
        ctx.tracker = Some(Arc::clone(&tracker));
        Ok((ctx, tracker))
    }

    /// The context reproducing the paper exactly.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(Scenario::paper_defaults())
    }

    /// The whole scenario, as the overlay's borrowed view. Counts as reading
    /// every semantic field when tracking: whole-scenario access gives no
    /// visibility into which fields the caller consumed.
    #[must_use]
    pub fn scenario(&self) -> ScenarioView<'_> {
        self.record_all();
        self.overlay.view()
    }

    /// Whether the operational-grid parameters (intensity and renewable
    /// fraction) match the paper defaults. Reads only those two fields, so
    /// grid-labeled output stays cacheable across non-grid sweep axes.
    #[must_use]
    pub fn grid_is_paper(&self) -> bool {
        self.record("grid.intensity");
        self.record("grid.renewable_fraction");
        let paper = Scenario::paper_defaults();
        let grid = self.overlay.grid();
        grid.intensity_g_per_kwh == paper.grid.intensity_g_per_kwh
            && grid.renewable_fraction == paper.grid.renewable_fraction
    }

    /// Whether the fleet/facility parameters match the paper's Prineville
    /// configuration. Reads only the `fleet.*` fields.
    #[must_use]
    pub fn fleet_is_paper(&self) -> bool {
        self.record_fleet();
        *self.overlay.fleet() == Scenario::paper_defaults().fleet
    }

    /// Whether the *raw* grid intensity matches the paper default. Reads
    /// only `grid.intensity` — for paths (the facility model) that consume
    /// the unblended intensity and ignore the renewable fraction.
    #[must_use]
    pub fn grid_intensity_is_paper(&self) -> bool {
        self.record("grid.intensity");
        self.overlay.grid().intensity_g_per_kwh
            == Scenario::paper_defaults().grid.intensity_g_per_kwh
    }

    /// Records every `fleet.*` semantic field, derived from the canonical
    /// registry so a new fleet field cannot leave this list behind.
    fn record_fleet(&self) {
        for field in deps::expand(&[deps::ScenarioPath::of("fleet.*")]) {
            self.record(field.path);
        }
    }

    /// The raw operational grid intensity.
    #[must_use]
    pub fn grid_intensity(&self) -> CarbonIntensity {
        self.record("grid.intensity");
        CarbonIntensity::from_g_per_kwh(self.overlay.grid().intensity_g_per_kwh)
    }

    /// The configured grid regions (time-resolved intensity traces). May be
    /// empty: site regions then resolve against the builtin catalog
    /// ([`trace::builtin_region_trace`]).
    #[must_use]
    pub fn grid_regions(&self) -> &[RegionParams] {
        self.record("grid.regions");
        &self.overlay.grid().regions
    }

    /// The operational intensity after blending the renewable fraction at
    /// [`RENEWABLE_PPA_G_PER_KWH`].
    #[must_use]
    pub fn effective_grid_intensity(&self) -> CarbonIntensity {
        self.record("grid.renewable_fraction");
        self.grid_intensity().blend(
            CarbonIntensity::from_g_per_kwh(RENEWABLE_PPA_G_PER_KWH),
            1.0 - self.overlay.grid().renewable_fraction,
        )
    }

    /// The assumed device lifetime.
    #[must_use]
    pub fn device_lifetime(&self) -> TimeSpan {
        self.record("device.lifetime");
        TimeSpan::from_years(self.overlay.device().lifetime_years)
    }

    /// The SoC share of device production carbon.
    #[must_use]
    pub fn soc_budget_share(&self) -> f64 {
        self.record("device.soc_budget_share");
        self.overlay.device().soc_budget_share
    }

    /// The featured fab node in nanometres.
    #[must_use]
    pub fn fab_node_nm(&self) -> f64 {
        self.record("fab.node_nm");
        self.overlay.fab().node_nm
    }

    /// The defect-density multiplier.
    #[must_use]
    pub fn fab_yield_factor(&self) -> f64 {
        self.record("fab.yield_factor");
        self.overlay.fab().yield_factor
    }

    /// The renewable share of fab electricity.
    #[must_use]
    pub fn fab_renewable_share(&self) -> f64 {
        self.record("fab.renewable_share");
        self.overlay.fab().renewable_share
    }

    /// The fleet demand multiplier.
    #[must_use]
    pub fn fleet_scale(&self) -> f64 {
        self.record("fleet.scale");
        self.overlay.fleet().scale
    }

    /// The full fleet/facility parameter block. Returning the whole struct
    /// counts as reading every `fleet.*` field.
    #[must_use]
    pub fn fleet(&self) -> &FleetParams {
        self.record_fleet();
        self.overlay.fleet()
    }

    /// The facility planning horizon in whole years.
    #[must_use]
    pub fn fleet_horizon_years(&self) -> usize {
        self.record("fleet.horizon_years");
        self.overlay.fleet().horizon_years as usize
    }

    /// The Monte-Carlo base seed.
    #[must_use]
    pub fn mc_seed(&self) -> u64 {
        self.record("mc.seed");
        self.overlay.mc().seed
    }

    /// The Monte-Carlo trial count.
    #[must_use]
    pub fn mc_samples(&self) -> u32 {
        self.record("mc.samples");
        self.overlay.mc().samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper defaults with `sets` applied in order through
    /// [`Scenario::set`].
    fn with(sets: &[(&str, &str)]) -> Scenario {
        let mut s = Scenario::paper_defaults();
        for (key, value) in sets {
            s.set(key, value).unwrap();
        }
        s
    }

    #[test]
    fn toml_round_trips_paper_defaults() {
        // An empty file and a file restating paper values both load as the
        // paper defaults.
        assert_eq!(Scenario::from_toml("").unwrap(), Scenario::paper_defaults());
        let restated = r#"
            name = "paper"

            [grid]
            intensity_g_per_kwh = 380.0
            renewable_fraction = 0.0

            [device]
            lifetime_years = 3.0

            [fleet]
            sku = "web"
            renewable_ramp = "0.05,0.1,0.2,0.35,0.6,0.85,1.0"
            initial_servers = 60000

            [mc]
            seed = 10
        "#;
        assert_eq!(
            Scenario::from_toml(restated).unwrap(),
            Scenario::paper_defaults()
        );
    }

    #[test]
    fn toml_round_trips_custom_scenario() {
        let text = r#"
            name = "green-fab"
            [grid]
            intensity_g_per_kwh = 50.0
            source = "hydropower"
            renewable_fraction = 0.5
            [device]
            lifetime_years = 4.5
            [fab]
            renewable_share = 0.9
            [fleet]
            scale = 10.0
            [mc]
            seed = 99
            samples = 5000
        "#;
        let s = with(&[
            ("name", "green-fab"),
            ("grid.source", "hydropower"),
            ("grid.intensity", "50"),
            ("grid.renewable_fraction", "0.5"),
            ("device.lifetime", "4.5"),
            ("fab.renewable_share", "0.9"),
            ("fleet.scale", "10"),
            ("mc.seed", "99"),
            ("mc.samples", "5000"),
        ]);
        assert_eq!(Scenario::from_toml(text).unwrap(), s);
    }

    #[test]
    fn partial_toml_keeps_paper_defaults() {
        let s = Scenario::from_toml("[grid]\nintensity_g_per_kwh = 50 # BPA hydro\n").unwrap();
        assert_eq!(s.grid.intensity_g_per_kwh, 50.0);
        assert_eq!(s.device.lifetime_years, 3.0);
        assert_eq!(s.mc.samples, 20_000);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert!(matches!(
            Scenario::from_toml("[grid]\nintesnity = 50\n"),
            Err(ScenarioError::UnknownKey(_))
        ));
        assert!(matches!(
            Scenario::from_toml("[grid]\nintensity_g_per_kwh = dirty\n"),
            Err(ScenarioError::InvalidValue { .. })
        ));
        assert!(matches!(
            Scenario::from_toml("just some words\n"),
            Err(ScenarioError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            Scenario::from_toml("[grid\nintensity = 1\n"),
            Err(ScenarioError::Parse { .. })
        ));
    }

    #[test]
    fn dotted_set_overrides_every_section() {
        let mut s = Scenario::paper_defaults();
        for (key, value) in [
            ("grid.intensity", "11"),
            ("grid.renewable_fraction", "0.25"),
            ("device.lifetime", "5"),
            ("device.soc_budget_share", "0.6"),
            ("fab.node", "5"),
            ("fab.yield_factor", "2"),
            ("fab.renewable_share", "1.0"),
            ("fleet.scale", "3"),
            ("fleet.initial_servers", "5000"),
            ("fleet.growth", "1.4"),
            ("fleet.pue", "1.5"),
            ("fleet.renewable_ramp", "0,0.5,1"),
            ("fleet.deferrable", "0.35"),
            ("fleet.construction_kt", "80"),
            ("fleet.building_amortization", "15"),
            ("fleet.start_year", "2021"),
            ("fleet.horizon", "10"),
            ("mc.seed", "77"),
            ("mc.samples", "1000"),
        ] {
            s.set(key, value).unwrap();
        }
        assert_eq!(s.grid.intensity_g_per_kwh, 11.0);
        assert_eq!(s.device.lifetime_years, 5.0);
        assert_eq!(s.fab.node_nm, 5.0);
        assert_eq!(s.fleet.initial_servers, 5_000);
        assert_eq!(s.fleet.growth, 1.4);
        assert_eq!(s.fleet.pue, 1.5);
        assert_eq!(s.fleet.renewable_ramp, vec![0.0, 0.5, 1.0]);
        assert_eq!(s.fleet.deferrable, 0.35);
        assert_eq!(s.fleet.construction_kt, 80.0);
        assert_eq!(s.fleet.building_amortization_years, 15.0);
        assert_eq!(s.fleet.start_year, 2021);
        assert_eq!(s.fleet.horizon_years, 10);
        assert_eq!(s.mc.seed, 77);
        assert_eq!(s.mc.samples, 1_000);
        s.validate().unwrap();
        assert_eq!(
            s.set("nope.key", "1"),
            Err(ScenarioError::UnknownKey("nope.key".to_string()))
        );
    }

    #[test]
    fn regions_and_sites_round_trip_through_toml_and_set() {
        let mut s = Scenario::paper_defaults();
        s.set("grid.region.pnw.trace", "flat(24)").unwrap();
        s.set("grid.region.sunny.trace", "solar(380,120)").unwrap();
        s.set("fleet.sites", "main@default:0.6,pnw@pnw:0.4")
            .unwrap();
        s.validate().unwrap();
        assert_eq!(s.grid.regions.len(), 2);
        assert_eq!(s.grid.regions[0].hours, vec![24.0; 24]);
        assert_eq!(s.fleet.sites[1].region, "pnw");
        // A file sets the same regions by list or per region table.
        let back = Scenario::from_toml(
            r#"
            [grid]
            regions = "pnw:flat(24)"
            region.sunny.trace = "solar(380,120)"
            [fleet]
            sites = "main@default:0.6,pnw@pnw:0.4"
        "#,
        )
        .unwrap();
        assert_eq!(back, s);
        // Re-assigning an existing region replaces its trace in place.
        s.set("grid.region.pnw.trace", "flat(30)").unwrap();
        assert_eq!(s.grid.regions.len(), 2);
        assert_eq!(s.grid.regions[0].hours, vec![30.0; 24]);
    }

    #[test]
    fn site_bracket_paths_set_weight_and_region() {
        // A site introduced by weight starts from the main@default fleet and
        // lands in the region of its own name.
        let mut s = Scenario::paper_defaults();
        s.set("fleet.sites[hydro].weight", "0.3").unwrap();
        s.validate().unwrap();
        assert_eq!(s.fleet.sites.len(), 2);
        assert_eq!(s.fleet.sites[0].name, "main");
        assert!((s.fleet.sites[0].weight - 0.7).abs() < 1e-12);
        assert_eq!(s.fleet.sites[1].region, "hydro");
        assert_eq!(s.fleet.sites[1].weight, 0.3);
        // Bare bracket form is the weight; `.region` re-points the site.
        s.set("fleet.sites[hydro]", "0.5").unwrap();
        assert_eq!(s.fleet.sites[1].weight, 0.5);
        s.set("fleet.sites[hydro].region", "wind").unwrap();
        assert_eq!(s.fleet.sites[1].region, "wind");
        s.validate().unwrap();
        // `.region` on a fresh site materializes it at weight 0 so the two
        // assignments commute.
        let mut fresh = Scenario::paper_defaults();
        fresh.set("fleet.sites[aux].region", "solar").unwrap();
        fresh.set("fleet.sites[aux].weight", "0.2").unwrap();
        assert_eq!(fresh.fleet.sites[1].region, "solar");
        assert_eq!(fresh.fleet.sites[1].weight, 0.2);
        fresh.validate().unwrap();
        // Unknown bracket suffixes stay unknown keys.
        assert!(matches!(
            fresh.set("fleet.sites[aux].nope", "1"),
            Err(ScenarioError::UnknownKey(_))
        ));
        assert!(matches!(
            fresh.set("fleet.sites[].weight", "1"),
            Err(ScenarioError::UnknownKey(_))
        ));
    }

    #[test]
    fn validation_rejects_broken_regions_and_sites() {
        // A site naming neither a configured nor a builtin region.
        let mut s = Scenario::paper_defaults();
        s.set("fleet.sites", "main@default:0.5,far@mars:0.5")
            .unwrap();
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("mars") && m.contains("builtin")
        ));
        // Configuring the region fixes it.
        s.set("grid.region.mars.trace", "flat(500)").unwrap();
        s.validate().unwrap();
        // Weights must sum to 1.
        let mut lop = Scenario::paper_defaults();
        lop.set("fleet.sites", "a@default:0.5,b@default:0.2")
            .unwrap();
        assert!(matches!(
            lop.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("sum to 1")
        ));
        // Duplicate site and region names are rejected.
        let mut dup = Scenario::paper_defaults();
        dup.set("fleet.sites", "a@default:0.5,a@default:0.5")
            .unwrap();
        assert!(matches!(
            dup.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("more than once")
        ));
        let mut dup_region = Scenario::paper_defaults();
        dup_region.grid.regions = vec![
            RegionParams {
                name: "x".to_string(),
                hours: vec![1.0; 24],
            },
            RegionParams {
                name: "x".to_string(),
                hours: vec![2.0; 24],
            },
        ];
        assert!(matches!(
            dup_region.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("more than once")
        ));
        // Traces must be physical and hourly.
        let mut neg = Scenario::paper_defaults();
        neg.grid.regions = vec![RegionParams {
            name: "bad".to_string(),
            hours: vec![-1.0; 24],
        }];
        assert!(matches!(
            neg.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("non-negative")
        ));
        let mut short = Scenario::paper_defaults();
        short.grid.regions = vec![RegionParams {
            name: "bad".to_string(),
            hours: vec![1.0; 7],
        }];
        assert!(matches!(
            short.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("24 hourly values")
        ));
        // The new scalar fields have range checks too.
        for (key, value, needle) in [
            ("fleet.deferrable", "1.5", "[0, 1]"),
            ("fleet.building_amortization_years", "0", "at least 1"),
            ("fleet.building_amortization_years", "1e-300", "at least 1"),
            ("fleet.start_year", "1492", "1900..=2100"),
        ] {
            let mut bad = Scenario::paper_defaults();
            bad.set(key, value).unwrap();
            assert!(
                matches!(bad.validate(), Err(ScenarioError::Invalid(m)) if m.contains(needle)),
                "{key}"
            );
        }
    }

    #[test]
    fn validation_rejects_unphysical_parameters() {
        let mut s = Scenario::paper_defaults();
        s.validate().unwrap();
        s.grid.renewable_fraction = 1.5;
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid(_))));
        s = Scenario::paper_defaults();
        s.device.lifetime_years = 0.0;
        assert!(s.validate().is_err());
        s = Scenario::paper_defaults();
        s.grid.intensity_g_per_kwh = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn grid_intensity_and_mc_samples_are_bounded() {
        let check = |key: &str, value: &str| {
            let mut s = Scenario::paper_defaults();
            s.set(key, value).unwrap();
            s.validate()
        };
        check("grid.intensity", "10000").unwrap();
        check("mc.samples", "1").unwrap();
        let max = mc::MonteCarloMatrix::MAX_SAMPLES;
        check("mc.samples", &max.to_string()).unwrap();
        for (key, value) in [
            ("grid.intensity", "10000.001"),
            ("grid.intensity", "inf"),
            ("mc.samples", "0"),
            ("mc.samples", &(max + 1).to_string()),
        ] {
            assert!(
                matches!(check(key, value), Err(ScenarioError::Invalid(m)) if m.starts_with(key)),
                "{key}={value}"
            );
        }
        // The documented rule names the same cap the check enforces.
        let rule = deps::FIELDS
            .iter()
            .find(|f| f.path == "mc.samples")
            .unwrap();
        assert_eq!(rule.validation, format!("mc.samples must lie in 1..={max}"));
    }

    #[test]
    fn fleet_params_round_trip_and_reject_unphysical_values() {
        // The ramp loads from a quoted list.
        let s = with(&[
            ("name", "capacity"),
            ("fleet.initial_servers", "5000"),
            ("fleet.growth", "1.18"),
            ("fleet.pue", "1.4"),
            ("fleet.renewable_ramp", "0,0.25,0.5,1"),
            ("fleet.construction_kt", "42.5"),
            ("fleet.horizon_years", "12"),
        ]);
        s.validate().unwrap();
        assert_eq!(s.fleet.renewable_ramp, vec![0.0, 0.25, 0.5, 1.0]);
        let back = Scenario::from_toml(
            r#"
            name = "capacity"
            [fleet]
            initial_servers = 5000
            growth = 1.18
            pue = 1.4
            renewable_ramp = "0.0,0.25,0.5,1.0"
            construction_kt = 42.5
            horizon_years = 12
        "#,
        )
        .unwrap();
        assert_eq!(back, s);

        // PUE below 1 is unphysical (cooling cannot generate energy).
        let mut bad = Scenario::paper_defaults();
        bad.set("fleet.pue", "0.9").unwrap();
        assert!(matches!(bad.validate(), Err(ScenarioError::Invalid(m)) if m.contains("pue")));

        // Growth must be strictly positive.
        for growth in ["0", "-0.5", "nan"] {
            let mut bad = Scenario::paper_defaults();
            bad.set("fleet.growth", growth).unwrap();
            assert!(bad.validate().is_err(), "growth {growth} must be rejected");
        }

        // An empty ramp leaves the facility with no renewable trajectory.
        let mut bad = Scenario::paper_defaults();
        bad.set("fleet.renewable_ramp", "\"\"").unwrap();
        assert!(
            matches!(bad.validate(), Err(ScenarioError::Invalid(m)) if m.contains("ramp")),
            "empty ramp must be rejected"
        );
        // Coverage beyond 100% is rejected too.
        let mut bad = Scenario::paper_defaults();
        bad.set("fleet.ramp", "0.5,1.5").unwrap();
        assert!(bad.validate().is_err());
        // A non-numeric ramp element fails at set time.
        let mut s = Scenario::paper_defaults();
        assert!(matches!(
            s.set("fleet.renewable_ramp", "0.1,high,1"),
            Err(ScenarioError::InvalidValue { .. })
        ));

        // Degenerate fleets are rejected.
        let mut bad = Scenario::paper_defaults();
        bad.set("fleet.initial_servers", "0").unwrap();
        assert!(bad.validate().is_err());
        let mut bad = Scenario::paper_defaults();
        bad.set("fleet.horizon_years", "0").unwrap();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fleet_mix_round_trips_through_toml_and_set() {
        let s = Scenario::from_toml(
            "name = \"ai-buildout\"\n[fleet]\nmix = \"web:0.7,ai-training:0.3\"\n",
        )
        .unwrap();
        s.validate().unwrap();
        assert_eq!(s.name, "ai-buildout");
        assert_eq!(
            s.fleet.mix,
            vec![("web".to_string(), 0.7), ("ai-training".to_string(), 0.3)]
        );

        // --set style: the whole composition in one assignment.
        let by_set = with(&[
            ("name", "ai-buildout"),
            ("fleet.mix", "web:0.7,ai-training:0.3"),
        ]);
        assert_eq!(by_set, s);
        by_set.validate().unwrap();

        // A quoted value (the TOML form) parses identically.
        let mut quoted = Scenario::paper_defaults();
        quoted
            .set("fleet.mix", "\"web:0.7,ai-training:0.3\"")
            .unwrap();
        assert_eq!(quoted.fleet.mix, s.fleet.mix);

        // fleet.sku loads from a file and defaults to the paper's web SKU.
        assert_eq!(Scenario::paper_defaults().fleet.sku, "web");
        let storage = Scenario::from_toml("[fleet]\nsku = \"storage\"\n").unwrap();
        storage.validate().unwrap();
        assert_eq!(storage, with(&[("fleet.sku", "storage")]));
    }

    #[test]
    fn fleet_mix_bracket_paths_set_one_weight_and_renormalize() {
        // On the paper defaults (pure web) the complement goes to web.
        let mut s = Scenario::paper_defaults();
        s.set("fleet.mix[ai-training]", "0.3").unwrap();
        assert_eq!(
            s.fleet.mix,
            vec![("web".to_string(), 0.7), ("ai-training".to_string(), 0.3)]
        );
        s.validate().unwrap();

        // Weight 0 keeps the pure fleet's numbers exact (web stays at 1.0).
        let mut zero = Scenario::paper_defaults();
        zero.set("fleet.mix[ai-training]", "0").unwrap();
        assert_eq!(
            zero.fleet.mix,
            vec![("web".to_string(), 1.0), ("ai-training".to_string(), 0.0)]
        );
        zero.validate().unwrap();

        // Re-setting an existing entry rescales the others proportionally.
        let mut s = Scenario::paper_defaults();
        s.set("fleet.mix", "web:0.5,storage:0.25,ai-training:0.25")
            .unwrap();
        s.set("fleet.mix[ai-training]", "0.5").unwrap();
        let weight = |s: &Scenario, name: &str| {
            s.fleet
                .mix
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, w)| *w)
                .unwrap()
        };
        assert!((weight(&s, "ai-training") - 0.5).abs() < 1e-12);
        assert!((weight(&s, "web") - 1.0 / 3.0).abs() < 1e-12);
        assert!((weight(&s, "storage") - 1.0 / 6.0).abs() < 1e-12);
        s.validate().unwrap();

        // Setting the only SKU below full weight cannot renormalize.
        let mut stuck = Scenario::paper_defaults();
        assert!(matches!(
            stuck.set("fleet.mix[web]", "0.5"),
            Err(ScenarioError::Invalid(_))
        ));
        // Out-of-range weights are rejected at set time, naming the SKU the
        // user actually assigned (not whichever other SKU would have gone
        // negative after rescaling).
        let mut over = Scenario::paper_defaults();
        let err = over.set("fleet.mix[ai-training]", "1.5").unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Invalid(m) if m.contains("fleet.mix[ai-training]")),
            "got {err:?}"
        );
        assert!(over.set("fleet.mix[ai-training]", "-0.1").is_err());
        // An empty bracket name is an unknown key, not a silent no-op.
        assert!(matches!(
            Scenario::paper_defaults().set("fleet.mix[]", "0.5"),
            Err(ScenarioError::UnknownKey(_))
        ));
    }

    #[test]
    fn fleet_mix_validation_rejects_bad_compositions() {
        let invalid = |key: &str, value: &str| {
            let mut s = Scenario::paper_defaults();
            s.set(key, value).unwrap();
            match s.validate() {
                Err(ScenarioError::Invalid(message)) => message,
                other => panic!("{key}={value} must fail validation, got {other:?}"),
            }
        };
        // Unknown SKU names, in both the pure field and the mix.
        assert!(invalid("fleet.sku", "mainframe").contains("unknown server SKU"));
        assert!(invalid("fleet.mix", "web:0.5,mainframe:0.5").contains("mainframe"));
        // Negative weights.
        assert!(invalid("fleet.mix", "web:1.5,ai-training:-0.5").contains("non-negative"));
        // Weights that don't sum to 1 (outside tolerance).
        assert!(invalid("fleet.mix", "web:0.5,ai-training:0.4").contains("sum to 1"));
        // Duplicate SKUs.
        assert!(invalid("fleet.mix", "web:0.5,web:0.5").contains("more than once"));
        // Within tolerance passes.
        let mut ok = Scenario::paper_defaults();
        ok.set("fleet.mix", "web:0.3333333,ai-training:0.6666667")
            .unwrap();
        ok.validate().unwrap();
        // Malformed pairs fail at set time.
        let mut s = Scenario::paper_defaults();
        assert!(matches!(
            s.set("fleet.mix", "web-0.5"),
            Err(ScenarioError::InvalidValue { .. })
        ));
        assert!(matches!(
            s.set("fleet.mix", "web:heavy"),
            Err(ScenarioError::InvalidValue { .. })
        ));
        assert!(matches!(
            s.set("fleet.mix", ":0.5"),
            Err(ScenarioError::InvalidValue { .. })
        ));
    }

    #[test]
    fn paper_fleet_defaults_pin_the_prineville_facility() {
        let fleet = Scenario::paper_defaults().fleet;
        assert_eq!(fleet.initial_servers, 60_000);
        assert_eq!(fleet.growth, 1.28);
        assert_eq!(fleet.pue, 1.10);
        assert_eq!(fleet.construction_kt, 150.0);
        assert_eq!(fleet.horizon_years, 7);
        assert_eq!(fleet.renewable_ramp.len(), 7);
        assert_eq!(*fleet.renewable_ramp.last().unwrap(), 1.0);
    }

    #[test]
    fn contexts_reject_unphysical_scenarios() {
        let mut s = Scenario::paper_defaults();
        s.grid.intensity_g_per_kwh = 0.0;
        assert!(matches!(
            RunContext::try_new(s.clone()),
            Err(ScenarioError::Invalid(_))
        ));
        let result = std::panic::catch_unwind(|| RunContext::new(s));
        assert!(
            result.is_err(),
            "RunContext::new must reject invalid scenarios"
        );
    }

    #[test]
    fn context_accessors_blend_and_convert() {
        let paper = Scenario::paper_defaults();
        let ctx = RunContext::paper();
        assert_eq!(ctx.scenario(), paper.view());
        assert_eq!(ctx.grid_intensity().as_g_per_kwh(), 380.0);
        assert_eq!(ctx.effective_grid_intensity(), ctx.grid_intensity());
        assert_eq!(ctx.device_lifetime().as_days().round(), 1096.0);

        let half_green = RunContext::new(with(&[("grid.renewable_fraction", "0.5")]));
        assert_ne!(half_green.scenario(), paper.view());
        let blended = half_green.effective_grid_intensity().as_g_per_kwh();
        assert!((blended - (0.5 * 380.0 + 0.5 * 11.0)).abs() < 1e-12);
    }

    #[test]
    fn names_with_quotes_and_backslashes_round_trip() {
        for (quoted, name) in [
            (r#""a \"b\" c""#, r#"a "b" c"#),
            (r#""back\\slash""#, r"back\slash"),
            (r#""mix \\\" end""#, r#"mix \" end"#),
            (r##""has # hash" # a comment"##, "has # hash"),
            (r#""multi\nline\tname""#, "multi\nline\tname"),
        ] {
            let back = Scenario::from_toml(&format!("name = {quoted}\n")).unwrap();
            assert_eq!(back.name, name, "read: {quoted}");
            assert_eq!(back, with(&[("name", name)]));
        }
    }

    #[test]
    fn large_mc_seeds_serialize_losslessly() {
        let seed = (1u64 << 53) + 1;
        let s = with(&[("mc.seed", &seed.to_string())]);
        assert_eq!(s.mc.seed, seed);
        assert!(s
            .view()
            .to_json()
            .render()
            .contains(&format!("\"seed\":{seed}")));
        let text = format!("[mc]\nseed = {seed}\n");
        assert_eq!(Scenario::from_toml(&text).unwrap().mc.seed, seed);
    }

    #[test]
    fn energy_sources_resolve_in_the_library() {
        // `set` resolves the Table II intensity, so library users match the
        // CLI without any CLI-side lookup.
        let mut s = Scenario::paper_defaults();
        s.set("grid.source", "wind").unwrap();
        assert_eq!(s.grid.intensity_g_per_kwh, 11.0);
        // A later explicit intensity wins, strictly in call order.
        s.set("grid.intensity", "100").unwrap();
        assert_eq!(s.grid.intensity_g_per_kwh, 100.0);
        // Unknown names fail at set time, naming the known sources.
        let err = s.set("grid.source", "unobtainium").unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownSource(_)));
        assert!(err.to_string().contains("wind"));
        // Names match case-insensitively.
        let hydro = with(&[("grid.source", "Hydropower")]);
        assert_eq!(hydro.grid.intensity_g_per_kwh, 24.0);
        // Directly-poked unknown sources are caught by validate.
        let mut poked = Scenario::paper_defaults();
        poked.grid.source = Some("dark-matter".to_string());
        assert!(matches!(
            poked.validate(),
            Err(ScenarioError::UnknownSource(_))
        ));
    }

    #[test]
    fn toml_pinned_intensity_beats_source_in_any_order() {
        // Intensity written before the source line still wins: a file is a
        // declaration, not an override sequence.
        let s =
            Scenario::from_toml("[grid]\nintensity_g_per_kwh = 200\nsource = \"wind\"\n").unwrap();
        assert_eq!(s.grid.intensity_g_per_kwh, 200.0);
        let s =
            Scenario::from_toml("[grid]\nsource = \"wind\"\nintensity_g_per_kwh = 200\n").unwrap();
        assert_eq!(s.grid.intensity_g_per_kwh, 200.0);
        // Without a pinned intensity the source decides.
        let s = Scenario::from_toml("[grid]\nsource = \"coal\"\n").unwrap();
        assert_eq!(s.grid.intensity_g_per_kwh, 820.0);
    }

    #[test]
    fn tracking_contexts_record_typed_reads() {
        let (ctx, tracker) = RunContext::tracking(Scenario::paper_defaults()).unwrap();
        assert!(tracker.reads().is_empty());
        let _ = ctx.effective_grid_intensity();
        let _ = ctx.mc_seed();
        assert_eq!(
            tracker.reads(),
            ["grid.intensity", "grid.renewable_fraction", "mc.seed"]
        );
        let _ = ctx.fleet();
        assert!(tracker.reads().contains(&"fleet.renewable_ramp"));
        // Whole-scenario access reads everything semantic.
        let _ = ctx.scenario();
        assert_eq!(
            tracker.reads().len(),
            deps::FIELDS.iter().filter(|f| f.semantic).count()
        );
        // Untracked contexts record nothing and still compare by scenario.
        let plain = RunContext::paper();
        let _ = plain.mc_seed();
        assert_eq!(plain, ctx);
    }

    #[test]
    fn sectional_paper_checks_read_only_their_sections() {
        let (ctx, tracker) = RunContext::tracking(Scenario::paper_defaults()).unwrap();
        assert!(ctx.grid_is_paper());
        assert_eq!(
            tracker.reads(),
            ["grid.intensity", "grid.renewable_fraction"]
        );
        assert!(ctx.fleet_is_paper());
        // grid.intensity + grid.renewable_fraction + the thirteen fleet
        // fields.
        assert_eq!(tracker.reads().len(), 15);

        // A non-grid change leaves the grid paper-like but not the fleet.
        let mut s = Scenario::paper_defaults();
        s.set("fleet.growth", "1.9").unwrap();
        let ctx = RunContext::new(s);
        assert!(ctx.grid_is_paper());
        assert!(!ctx.fleet_is_paper());
        let windy = RunContext::new(with(&[("grid.intensity", "11")]));
        assert!(!windy.grid_is_paper());
        assert!(windy.fleet_is_paper());
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert_eq!(
            ScenarioError::UnknownKey("x.y".to_string()).to_string(),
            "unknown scenario key `x.y`"
        );
        assert!(ScenarioError::Parse {
            line: 3,
            message: "m".to_string()
        }
        .to_string()
        .contains("line 3"));
    }
}
