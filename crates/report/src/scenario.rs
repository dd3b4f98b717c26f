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
//! Scenarios round-trip through a small TOML subset (tables, `key = value`
//! pairs with number/string/bool values, `#` comments) so they can live in
//! version-controlled files, and every field is addressable by a dotted path
//! (`grid.intensity`) for one-off command-line overrides.

pub mod deps;
pub mod mc;
pub mod sweep;
pub mod trace;

use crate::json::JsonValue;
use cc_data::energy_sources::EnergySource;
use cc_units::{CarbonIntensity, TimeSpan};
use deps::ReadTracker;
use std::sync::{Arc, OnceLock};

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

/// Operational-energy parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GridParams {
    /// Grid carbon intensity in g CO₂e/kWh (paper baseline: the 380 g/kWh
    /// average US grid, Table III).
    pub intensity_g_per_kwh: f64,
    /// Optional energy-source label (`"wind"`, `"coal"`, …). Setting it via
    /// [`Scenario::set`] or the builder resolves it to an intensity from the
    /// Table II dataset ([`Scenario::resolve_energy_source`]); the models
    /// only read `intensity_g_per_kwh`.
    pub source: Option<String>,
    /// Fraction of operational energy covered by renewable purchases,
    /// blended at [`RENEWABLE_PPA_G_PER_KWH`].
    pub renewable_fraction: f64,
    /// Named grid regions with time-resolved intensity traces, used by the
    /// multi-site scheduler (`ext-scheduler`). Configured per region via
    /// `grid.region.<name>.trace = "<spec>"` — see [`trace::parse_trace_spec`]
    /// for the spec grammar — or wholesale via `grid.regions`
    /// (`"name:h0,…,h23;…"`). Regions named after a
    /// [`trace::BUILTIN_REGIONS`] entry need no configuration.
    pub regions: Vec<RegionParams>,
}

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

/// Device parameters for the amortization analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceParams {
    /// Assumed device lifetime in years (paper: 3-year smartphone lifetime).
    pub lifetime_years: f64,
    /// Share of a device's production carbon attributed to its SoC (paper:
    /// one half, via Fig 5's integrated-circuit share).
    pub soc_budget_share: f64,
}

/// Fab parameters for the manufacturing-side experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct FabParams {
    /// Featured process node in nanometres (paper: the projected 3 nm fab).
    pub node_nm: f64,
    /// Multiplier on the baseline defect density (1.0 = the models'
    /// 0.1 /cm²); >1 models a worse-yielding fab.
    pub yield_factor: f64,
    /// Share of fab electricity from renewables (paper: TSMC's 20% target).
    pub renewable_share: f64,
}

/// Datacenter-fleet parameters: everything `cc_dcsim::Facility` needs to
/// simulate a warehouse-scale facility over a planning horizon. The paper
/// defaults pin the Prineville-like facility behind Fig 2 (left), so the
/// default scenario replays the disclosed trajectory while any other fleet
/// answers a capacity-planning question ("at what growth does construction
/// carbon overtake operations?").
#[derive(Debug, Clone, PartialEq)]
pub struct FleetParams {
    /// Demand multiplier applied to fleet-sizing experiments (scales the
    /// initial server count of the facility model).
    pub scale: f64,
    /// Server SKU of a pure (single-SKU) fleet — one of [`KNOWN_SKUS`]. The
    /// paper's facility deploys web servers; a non-empty [`Self::mix`]
    /// overrides this with a weighted composition.
    pub sku: String,
    /// Weighted fleet composition as `(sku, weight)` pairs (weights sum
    /// to 1). Empty means a pure fleet of [`Self::sku`]. Settable as
    /// `fleet.mix = "web:0.7,ai-training:0.3"` or per-SKU via
    /// `fleet.mix[ai-training] = 0.3` (which renormalizes the rest).
    pub mix: Vec<(String, f64)>,
    /// Multi-site fleet composition as weighted `(site, region)` placements
    /// (weights sum to 1). Empty means one site named `main` in the
    /// `default` region. Settable as
    /// `fleet.sites = "main@default:0.7,pnw@hydro:0.3"` or per-site via
    /// `fleet.sites[pnw].weight = 0.3` / `fleet.sites[pnw].region = "hydro"`
    /// (weight assignment renormalizes the other sites; a site first named
    /// that way starts in the region of the same name).
    pub sites: Vec<SiteParams>,
    /// Fraction of fleet IT energy that is deferrable batch work the
    /// carbon-aware scheduler may move across hours and sites
    /// (`ext-scheduler`).
    pub deferrable: f64,
    /// Servers in service in the facility's first simulated year.
    pub initial_servers: u64,
    /// Annual server-fleet growth factor (1.0 = flat fleet).
    pub growth: f64,
    /// Power usage effectiveness of the facility (>= 1).
    pub pue: f64,
    /// Renewable (PPA) coverage fraction per simulated year; the last value
    /// holds for every later year. This is the facility's renewable-ramp
    /// slope knob.
    pub renewable_ramp: Vec<f64>,
    /// Total construction embodied carbon in kt CO₂e (amortized by the
    /// facility model over [`Self::building_amortization_years`]).
    pub construction_kt: f64,
    /// Building-amortization window in years over which construction carbon
    /// is spread (paper: a 20-year building life).
    pub building_amortization_years: f64,
    /// Calendar year the facility enters service (paper: Prineville's
    /// 2013 expansion). Shifts the year axis of fleet experiments.
    pub start_year: u16,
    /// Simulated planning horizon in years.
    pub horizon_years: u32,
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
        if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
            // Rejecting here names the assignment the user actually made;
            // rescaling first would surface as a negative weight on some
            // *other* SKU at validation time.
            return Err(ScenarioError::Invalid(format!(
                "fleet.mix[{sku}] weight must lie in [0, 1], got {weight}"
            )));
        }
        let mut mix = self.composition();
        if !mix.iter().any(|(name, _)| name == sku) {
            mix.push((sku.to_string(), 0.0));
        }
        let others: f64 = mix
            .iter()
            .filter(|(name, _)| name != sku)
            .map(|(_, w)| w)
            .sum();
        if others == 0.0 && weight != 1.0 {
            return Err(ScenarioError::Invalid(format!(
                "fleet.mix[{sku}] = {weight} leaves no other SKU weight to rescale \
                 (the mix must keep summing to 1)"
            )));
        }
        for (name, w) in &mut mix {
            if name == sku {
                *w = weight;
            } else if others > 0.0 {
                *w *= (1.0 - weight) / others;
            }
        }
        self.mix = mix;
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
        if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
            return Err(ScenarioError::Invalid(format!(
                "fleet.sites[{site}] weight must lie in [0, 1], got {weight}"
            )));
        }
        let mut sites = self.site_composition();
        if !sites.iter().any(|s| s.name == site) {
            sites.push(SiteParams {
                name: site.to_string(),
                region: site.to_string(),
                weight: 0.0,
            });
        }
        let others: f64 = sites
            .iter()
            .filter(|s| s.name != site)
            .map(|s| s.weight)
            .sum();
        if others == 0.0 && weight != 1.0 {
            return Err(ScenarioError::Invalid(format!(
                "fleet.sites[{site}] = {weight} leaves no other site weight to rescale \
                 (the sites must keep summing to 1)"
            )));
        }
        for s in &mut sites {
            if s.name == site {
                s.weight = weight;
            } else if others > 0.0 {
                s.weight *= (1.0 - weight) / others;
            }
        }
        self.sites = sites;
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

/// Monte-Carlo parameters for `ext-mc`.
#[derive(Debug, Clone, PartialEq)]
pub struct McParams {
    /// Base RNG seed; an experiment deriving several streams offsets it.
    pub seed: u64,
    /// Trials per propagated headline.
    pub samples: u32,
}

/// A complete experiment scenario: every model parameter the paper fixed,
/// made explicit.
///
/// ```
/// use cc_report::Scenario;
///
/// let wind = Scenario::builder()
///     .name("wind-grid")
///     .grid_intensity(11.0)
///     .lifetime_years(4.0)
///     .build();
/// let toml = wind.to_toml();
/// assert_eq!(Scenario::from_toml(&toml).unwrap(), wind);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (appears in artifacts).
    pub name: String,
    /// Operational-energy parameters.
    pub grid: GridParams,
    /// Device parameters.
    pub device: DeviceParams,
    /// Fab parameters.
    pub fab: FabParams,
    /// Fleet parameters.
    pub fleet: FleetParams,
    /// Monte-Carlo parameters.
    pub mc: McParams,
}

impl Default for Scenario {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

impl Scenario {
    /// The exact parameter values the paper's evaluation used.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            name: "paper".to_string(),
            grid: GridParams {
                intensity_g_per_kwh: 380.0,
                source: None,
                renewable_fraction: 0.0,
                regions: Vec::new(),
            },
            device: DeviceParams {
                lifetime_years: 3.0,
                soc_budget_share: 0.5,
            },
            fab: FabParams {
                node_nm: 3.0,
                yield_factor: 1.0,
                renewable_share: 0.2,
            },
            fleet: FleetParams {
                scale: 1.0,
                sku: "web".to_string(),
                mix: Vec::new(),
                sites: Vec::new(),
                deferrable: 0.2,
                initial_servers: 60_000,
                growth: 1.28,
                pue: 1.10,
                renewable_ramp: vec![0.05, 0.10, 0.20, 0.35, 0.60, 0.85, 1.0],
                construction_kt: 150.0,
                building_amortization_years: 20.0,
                start_year: 2013,
                horizon_years: 7,
            },
            mc: McParams {
                seed: 10,
                samples: 20_000,
            },
        }
    }

    /// Starts a builder seeded with the paper defaults.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Self::paper_defaults(),
        }
    }

    /// Sets one field by its dotted path, parsing `value` as the field's
    /// type. This backs both the TOML reader and `--set key=value` command
    /// line overrides.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownKey`] for an unrecognized path and
    /// [`ScenarioError::InvalidValue`] when `value` does not parse.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        if key == "name" {
            self.name = unquote(value);
            return Ok(());
        }
        // Dispatch on the section prefix so each arm borrows only its own
        // section — the same per-section setters back [`ScenarioOverlay::set`],
        // which clones just the touched section into its delta.
        match key.split_once('.').map(|(section, _)| section) {
            Some("grid") => set_grid_field(&mut self.grid, key, value),
            Some("device") => set_device_field(&mut self.device, key, value),
            Some("fab") => set_fab_field(&mut self.fab, key, value),
            Some("fleet") => set_fleet_field(&mut self.fleet, key, value),
            Some("mc") => set_mc_field(&mut self.mc, key, value),
            _ => Err(ScenarioError::UnknownKey(key.to_string())),
        }
    }

    /// Parses a scenario from the TOML subset written by [`Self::to_toml`]:
    /// `[section]` tables, `key = value` pairs, `#` comments. Unlisted fields
    /// keep their paper-default values; unknown keys are rejected so typos
    /// cannot silently run the wrong scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for malformed lines, plus the [`Self::set`]
    /// errors for unknown keys or unparsable values.
    pub fn from_toml(text: &str) -> Result<Self, ScenarioError> {
        Self::from_toml_keys(text).map(|(scenario, _)| scenario)
    }

    /// Like [`Self::from_toml`], additionally returning the dotted paths the
    /// file explicitly set — callers resolving defaults (e.g. the CLI turning
    /// `grid.source` into an intensity) need to know whether the file pinned
    /// `grid.intensity` itself.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::from_toml`].
    pub fn from_toml_keys(text: &str) -> Result<(Self, Vec<String>), ScenarioError> {
        let mut scenario = Self::paper_defaults();
        let mut keys = Vec::new();
        let mut values = Vec::new();
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
            scenario.set(&path, value.trim())?;
            keys.push(path);
            values.push(value.trim().to_string());
        }
        // Within a file, an explicitly written intensity wins over the
        // source's Table II value regardless of line order (a file is a
        // declaration, not a sequence of overrides); the source then stays
        // an informational label.
        if keys.iter().any(|k| k == "grid.source") {
            if let Some(last_pinned) = keys
                .iter()
                .zip(&values)
                .rev()
                .find(|(k, _)| *k == "grid.intensity" || *k == "grid.intensity_g_per_kwh")
            {
                scenario.set(last_pinned.0, last_pinned.1)?;
            }
        }
        Ok((scenario, keys))
    }

    /// Serializes the scenario to canonical TOML (parseable by
    /// [`Self::from_toml`]).
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = {}\n\n", quote(&self.name)));
        out.push_str("[grid]\n");
        out.push_str(&format!(
            "intensity_g_per_kwh = {:?}\n",
            self.grid.intensity_g_per_kwh
        ));
        if let Some(source) = &self.grid.source {
            out.push_str(&format!("source = {}\n", quote(source)));
        }
        out.push_str(&format!(
            "renewable_fraction = {:?}\n",
            self.grid.renewable_fraction
        ));
        if !self.grid.regions.is_empty() {
            out.push_str(&format!(
                "regions = {}\n",
                quote(&format_regions(&self.grid.regions))
            ));
        }
        out.push_str("\n[device]\n");
        out.push_str(&format!(
            "lifetime_years = {:?}\n",
            self.device.lifetime_years
        ));
        out.push_str(&format!(
            "soc_budget_share = {:?}\n",
            self.device.soc_budget_share
        ));
        out.push_str("\n[fab]\n");
        out.push_str(&format!("node_nm = {:?}\n", self.fab.node_nm));
        out.push_str(&format!("yield_factor = {:?}\n", self.fab.yield_factor));
        out.push_str(&format!(
            "renewable_share = {:?}\n",
            self.fab.renewable_share
        ));
        out.push_str("\n[fleet]\n");
        out.push_str(&format!("scale = {:?}\n", self.fleet.scale));
        out.push_str(&format!("sku = {}\n", quote(&self.fleet.sku)));
        if !self.fleet.mix.is_empty() {
            out.push_str(&format!("mix = {}\n", quote(&format_mix(&self.fleet.mix))));
        }
        if !self.fleet.sites.is_empty() {
            out.push_str(&format!(
                "sites = {}\n",
                quote(&format_sites(&self.fleet.sites))
            ));
        }
        out.push_str(&format!("deferrable = {:?}\n", self.fleet.deferrable));
        out.push_str(&format!(
            "initial_servers = {}\n",
            self.fleet.initial_servers
        ));
        out.push_str(&format!("growth = {:?}\n", self.fleet.growth));
        out.push_str(&format!("pue = {:?}\n", self.fleet.pue));
        out.push_str(&format!(
            "renewable_ramp = {}\n",
            quote(&format_ramp(&self.fleet.renewable_ramp))
        ));
        out.push_str(&format!(
            "construction_kt = {:?}\n",
            self.fleet.construction_kt
        ));
        out.push_str(&format!(
            "building_amortization_years = {:?}\n",
            self.fleet.building_amortization_years
        ));
        out.push_str(&format!("start_year = {}\n", self.fleet.start_year));
        out.push_str(&format!("horizon_years = {}\n", self.fleet.horizon_years));
        out.push_str("\n[mc]\n");
        out.push_str(&format!("seed = {}\n", self.mc.seed));
        out.push_str(&format!("samples = {}\n", self.mc.samples));
        out
    }

    /// The scenario as a JSON object (for `--json` artifacts).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", JsonValue::from(self.name.as_str())),
            (
                "grid",
                JsonValue::object([
                    (
                        "intensity_g_per_kwh",
                        JsonValue::from(self.grid.intensity_g_per_kwh),
                    ),
                    (
                        "source",
                        self.grid
                            .source
                            .as_deref()
                            .map_or(JsonValue::Null, JsonValue::from),
                    ),
                    (
                        "renewable_fraction",
                        JsonValue::from(self.grid.renewable_fraction),
                    ),
                    (
                        "regions",
                        JsonValue::array(self.grid.regions.iter().map(|r| {
                            JsonValue::object([
                                ("name", JsonValue::from(r.name.as_str())),
                                (
                                    "hours",
                                    JsonValue::array(r.hours.iter().map(|&h| JsonValue::from(h))),
                                ),
                            ])
                        })),
                    ),
                ]),
            ),
            (
                "device",
                JsonValue::object([
                    (
                        "lifetime_years",
                        JsonValue::from(self.device.lifetime_years),
                    ),
                    (
                        "soc_budget_share",
                        JsonValue::from(self.device.soc_budget_share),
                    ),
                ]),
            ),
            (
                "fab",
                JsonValue::object([
                    ("node_nm", JsonValue::from(self.fab.node_nm)),
                    ("yield_factor", JsonValue::from(self.fab.yield_factor)),
                    ("renewable_share", JsonValue::from(self.fab.renewable_share)),
                ]),
            ),
            (
                "fleet",
                JsonValue::object([
                    ("scale", JsonValue::from(self.fleet.scale)),
                    ("sku", JsonValue::from(self.fleet.sku.as_str())),
                    (
                        "mix",
                        JsonValue::object(
                            self.fleet
                                .mix
                                .iter()
                                .map(|(name, w)| (name.clone(), JsonValue::from(*w))),
                        ),
                    ),
                    (
                        "sites",
                        JsonValue::array(self.fleet.sites.iter().map(|s| {
                            JsonValue::object([
                                ("name", JsonValue::from(s.name.as_str())),
                                ("region", JsonValue::from(s.region.as_str())),
                                ("weight", JsonValue::from(s.weight)),
                            ])
                        })),
                    ),
                    ("deferrable", JsonValue::from(self.fleet.deferrable)),
                    (
                        "initial_servers",
                        JsonValue::Integer(self.fleet.initial_servers),
                    ),
                    ("growth", JsonValue::from(self.fleet.growth)),
                    ("pue", JsonValue::from(self.fleet.pue)),
                    (
                        "renewable_ramp",
                        JsonValue::array(
                            self.fleet
                                .renewable_ramp
                                .iter()
                                .map(|&v| JsonValue::from(v)),
                        ),
                    ),
                    (
                        "construction_kt",
                        JsonValue::from(self.fleet.construction_kt),
                    ),
                    (
                        "building_amortization_years",
                        JsonValue::from(self.fleet.building_amortization_years),
                    ),
                    (
                        "start_year",
                        JsonValue::Integer(u64::from(self.fleet.start_year)),
                    ),
                    (
                        "horizon_years",
                        JsonValue::Integer(u64::from(self.fleet.horizon_years)),
                    ),
                ]),
            ),
            (
                "mc",
                JsonValue::object([
                    ("seed", JsonValue::Integer(self.mc.seed)),
                    ("samples", JsonValue::Integer(u64::from(self.mc.samples))),
                ]),
            ),
        ])
    }

    /// Overwrites `grid.intensity_g_per_kwh` with the Table II intensity of
    /// the named `grid.source` (case-insensitive). A no-op when no source is
    /// set. [`Self::set`] calls this automatically; it is public so code
    /// mutating the fields directly can opt into the same resolution the CLI
    /// performs.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownSource`] when the name matches no Table II
    /// row.
    pub fn resolve_energy_source(&mut self) -> Result<(), ScenarioError> {
        resolve_energy_source_in(&mut self.grid)
    }

    /// Checks every parameter is physically sensible.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] naming the first offending field, or
    /// [`ScenarioError::UnknownSource`] for a `grid.source` label naming no
    /// Table II energy source.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        validate_parts(&self.grid, &self.device, &self.fab, &self.fleet, &self.mc)
    }
}

/// [`Scenario::validate`] over bare sections, so copy-on-write overlays
/// validate their resolved views without materializing a scenario.
fn validate_parts(
    grid: &GridParams,
    device: &DeviceParams,
    fab: &FabParams,
    fleet: &FleetParams,
    mc: &McParams,
) -> Result<(), ScenarioError> {
    if let Some(source) = &grid.source {
        if lookup_energy_source(source).is_none() {
            return Err(ScenarioError::UnknownSource(source.clone()));
        }
    }
    validate_fleet_composition(fleet)?;
    validate_grid_regions(grid)?;
    validate_sites(grid, fleet)?;
    let checks: [(&str, bool); 18] = [
        (
            // The cap is over 10x the dirtiest Table II source. Without it,
            // values near f64::MAX overflow ext-mc's triangular sampling.
            "grid.intensity must lie in (0, 10000] g/kWh",
            grid.intensity_g_per_kwh > 0.0 && grid.intensity_g_per_kwh <= 10_000.0,
        ),
        (
            "grid.renewable_fraction must lie in [0, 1]",
            (0.0..=1.0).contains(&grid.renewable_fraction),
        ),
        (
            "device.lifetime_years must be finite and positive",
            device.lifetime_years.is_finite() && device.lifetime_years > 0.0,
        ),
        (
            "device.soc_budget_share must lie in (0, 1]",
            device.soc_budget_share > 0.0 && device.soc_budget_share <= 1.0,
        ),
        ("fab.node_nm must be positive", fab.node_nm > 0.0),
        (
            "fab.yield_factor must be finite and positive",
            fab.yield_factor.is_finite() && fab.yield_factor > 0.0,
        ),
        (
            "fab.renewable_share must lie in [0, 1]",
            (0.0..=1.0).contains(&fab.renewable_share),
        ),
        (
            "fleet.scale must be finite and positive",
            fleet.scale.is_finite() && fleet.scale > 0.0,
        ),
        (
            "fleet.initial_servers must be at least 1",
            fleet.initial_servers >= 1,
        ),
        (
            "fleet.growth must be finite and positive",
            fleet.growth.is_finite() && fleet.growth > 0.0,
        ),
        (
            "fleet.pue must be finite and at least 1.0",
            fleet.pue.is_finite() && fleet.pue >= 1.0,
        ),
        (
            "fleet.renewable_ramp must be non-empty with every value in [0, 1]",
            !fleet.renewable_ramp.is_empty()
                && fleet.renewable_ramp.iter().all(|v| (0.0..=1.0).contains(v)),
        ),
        (
            "fleet.deferrable must lie in [0, 1]",
            fleet.deferrable.is_finite() && (0.0..=1.0).contains(&fleet.deferrable),
        ),
        (
            "fleet.construction_kt must be finite and non-negative",
            fleet.construction_kt.is_finite() && fleet.construction_kt >= 0.0,
        ),
        (
            "fleet.building_amortization_years must be finite and positive",
            fleet.building_amortization_years.is_finite()
                && fleet.building_amortization_years > 0.0,
        ),
        (
            "fleet.start_year must lie in 1900..=2100",
            (1900..=2100).contains(&fleet.start_year),
        ),
        (
            "fleet.horizon_years must lie in 1..=200",
            (1..=200).contains(&fleet.horizon_years),
        ),
        (
            "mc.samples must lie in 1..=1000000",
            (1..=mc::MonteCarloMatrix::MAX_SAMPLES).contains(&(mc.samples as usize)),
        ),
    ];
    for (message, ok) in checks {
        if !ok {
            return Err(ScenarioError::Invalid(message.to_string()));
        }
    }
    Ok(())
}

/// Checks `fleet.sku` and `fleet.mix` describe a deployable fleet:
/// known SKU names only, no duplicates, finite non-negative weights
/// summing to 1 within [`MIX_WEIGHT_TOLERANCE`].
fn validate_fleet_composition(fleet: &FleetParams) -> Result<(), ScenarioError> {
    let known = |name: &str| KNOWN_SKUS.contains(&name);
    let unknown = |field: &str, name: &str| {
        ScenarioError::Invalid(format!(
            "{field} names unknown server SKU `{name}` (known: {})",
            KNOWN_SKUS.join(", ")
        ))
    };
    if !known(&fleet.sku) {
        return Err(unknown("fleet.sku", &fleet.sku));
    }
    let mut sum = 0.0;
    for (i, (name, weight)) in fleet.mix.iter().enumerate() {
        if !known(name) {
            return Err(unknown("fleet.mix", name));
        }
        if fleet.mix[..i].iter().any(|(prior, _)| prior == name) {
            return Err(ScenarioError::Invalid(format!(
                "fleet.mix lists SKU `{name}` more than once"
            )));
        }
        if !weight.is_finite() || *weight < 0.0 {
            return Err(ScenarioError::Invalid(format!(
                "fleet.mix weight for `{name}` must be finite and non-negative, got {weight}"
            )));
        }
        sum += weight;
    }
    if !fleet.mix.is_empty() && (sum - 1.0).abs() > MIX_WEIGHT_TOLERANCE {
        return Err(ScenarioError::Invalid(format!(
            "fleet.mix weights must sum to 1, got {sum}"
        )));
    }
    Ok(())
}

/// Checks every configured grid region carries a physical 24-hour trace:
/// unique non-empty names, exactly 24 finite non-negative hourly values.
fn validate_grid_regions(grid: &GridParams) -> Result<(), ScenarioError> {
    for (i, region) in grid.regions.iter().enumerate() {
        if region.name.is_empty() {
            return Err(ScenarioError::Invalid(
                "grid.regions lists a region with an empty name".to_string(),
            ));
        }
        if grid.regions[..i].iter().any(|r| r.name == region.name) {
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

/// Checks `fleet.sites` describes a placeable multi-site fleet: unique
/// non-empty site names, finite non-negative weights summing to 1 within
/// [`MIX_WEIGHT_TOLERANCE`], and every referenced region either configured
/// in `grid.regions` or a [`trace::BUILTIN_REGIONS`] name.
fn validate_sites(grid: &GridParams, fleet: &FleetParams) -> Result<(), ScenarioError> {
    let mut sum = 0.0;
    for (i, site) in fleet.sites.iter().enumerate() {
        if site.name.is_empty() {
            return Err(ScenarioError::Invalid(
                "fleet.sites lists a site with an empty name".to_string(),
            ));
        }
        if fleet.sites[..i].iter().any(|s| s.name == site.name) {
            return Err(ScenarioError::Invalid(format!(
                "fleet.sites lists site `{}` more than once",
                site.name
            )));
        }
        if !site.weight.is_finite() || site.weight < 0.0 {
            return Err(ScenarioError::Invalid(format!(
                "fleet.sites weight for `{}` must be finite and non-negative, got {}",
                site.name, site.weight
            )));
        }
        let configured = grid.regions.iter().any(|r| r.name == site.region);
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
        sum += site.weight;
    }
    if !fleet.sites.is_empty() && (sum - 1.0).abs() > MIX_WEIGHT_TOLERANCE {
        return Err(ScenarioError::Invalid(format!(
            "fleet.sites weights must sum to 1, got {sum}"
        )));
    }
    Ok(())
}

/// Fluent construction of a [`Scenario`], starting from the paper defaults.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the scenario name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.scenario.name = name.into();
        self
    }

    /// Sets the operational grid intensity (g CO₂e/kWh).
    #[must_use]
    pub fn grid_intensity(mut self, g_per_kwh: f64) -> Self {
        self.scenario.grid.intensity_g_per_kwh = g_per_kwh;
        self
    }

    /// Labels the operational energy source. A recognized Table II name also
    /// resolves to its intensity (a later [`Self::grid_intensity`] call still
    /// wins); an unrecognized name is kept and rejected by
    /// [`Scenario::validate`].
    #[must_use]
    pub fn energy_source(mut self, source: impl Into<String>) -> Self {
        self.scenario.grid.source = Some(source.into());
        let _ = self.scenario.resolve_energy_source();
        self
    }

    /// Sets the renewable-purchase fraction of operational energy.
    #[must_use]
    pub fn renewable_fraction(mut self, fraction: f64) -> Self {
        self.scenario.grid.renewable_fraction = fraction;
        self
    }

    /// Adds (or replaces) a named grid region with 24 hourly intensities
    /// (g CO₂e/kWh).
    #[must_use]
    pub fn grid_region(mut self, name: impl Into<String>, hours: Vec<f64>) -> Self {
        let name = name.into();
        let regions = &mut self.scenario.grid.regions;
        match regions.iter_mut().find(|r| r.name == name) {
            Some(r) => r.hours = hours,
            None => regions.push(RegionParams { name, hours }),
        }
        self
    }

    /// Sets the device lifetime in years.
    #[must_use]
    pub fn lifetime_years(mut self, years: f64) -> Self {
        self.scenario.device.lifetime_years = years;
        self
    }

    /// Sets the SoC share of device production carbon.
    #[must_use]
    pub fn soc_budget_share(mut self, share: f64) -> Self {
        self.scenario.device.soc_budget_share = share;
        self
    }

    /// Sets the featured fab process node (nm).
    #[must_use]
    pub fn fab_node_nm(mut self, nm: f64) -> Self {
        self.scenario.fab.node_nm = nm;
        self
    }

    /// Sets the defect-density multiplier.
    #[must_use]
    pub fn fab_yield_factor(mut self, factor: f64) -> Self {
        self.scenario.fab.yield_factor = factor;
        self
    }

    /// Sets the renewable share of fab electricity.
    #[must_use]
    pub fn fab_renewable_share(mut self, share: f64) -> Self {
        self.scenario.fab.renewable_share = share;
        self
    }

    /// Sets the fleet demand multiplier.
    #[must_use]
    pub fn fleet_scale(mut self, scale: f64) -> Self {
        self.scenario.fleet.scale = scale;
        self
    }

    /// Sets the server SKU of a pure fleet (one of
    /// [`KNOWN_SKUS`]; unknown names are rejected by
    /// [`Scenario::validate`]).
    #[must_use]
    pub fn fleet_sku(mut self, sku: impl Into<String>) -> Self {
        self.scenario.fleet.sku = sku.into();
        self
    }

    /// Sets the weighted fleet composition as `(sku, weight)` pairs
    /// (weights must sum to 1; an empty mix means a pure
    /// [`Self::fleet_sku`] fleet).
    #[must_use]
    pub fn fleet_mix(mut self, mix: Vec<(String, f64)>) -> Self {
        self.scenario.fleet.mix = mix;
        self
    }

    /// Sets the multi-site fleet composition (weights must sum to 1; an
    /// empty list means the single `main@default` site).
    #[must_use]
    pub fn fleet_sites(mut self, sites: Vec<SiteParams>) -> Self {
        self.scenario.fleet.sites = sites;
        self
    }

    /// Sets the deferrable share of fleet IT energy.
    #[must_use]
    pub fn fleet_deferrable(mut self, share: f64) -> Self {
        self.scenario.fleet.deferrable = share;
        self
    }

    /// Sets the facility's first-year server count.
    #[must_use]
    pub fn fleet_initial_servers(mut self, servers: u64) -> Self {
        self.scenario.fleet.initial_servers = servers;
        self
    }

    /// Sets the annual server-fleet growth factor.
    #[must_use]
    pub fn fleet_growth(mut self, factor: f64) -> Self {
        self.scenario.fleet.growth = factor;
        self
    }

    /// Sets the facility power usage effectiveness.
    #[must_use]
    pub fn fleet_pue(mut self, pue: f64) -> Self {
        self.scenario.fleet.pue = pue;
        self
    }

    /// Sets the renewable coverage ramp (fraction per simulated year; the
    /// last value holds thereafter).
    #[must_use]
    pub fn fleet_renewable_ramp(mut self, ramp: Vec<f64>) -> Self {
        self.scenario.fleet.renewable_ramp = ramp;
        self
    }

    /// Sets the facility construction embodied carbon in kt CO₂e.
    #[must_use]
    pub fn fleet_construction_kt(mut self, kt: f64) -> Self {
        self.scenario.fleet.construction_kt = kt;
        self
    }

    /// Sets the building-amortization window in years.
    #[must_use]
    pub fn fleet_building_amortization_years(mut self, years: f64) -> Self {
        self.scenario.fleet.building_amortization_years = years;
        self
    }

    /// Sets the facility's first simulated calendar year.
    #[must_use]
    pub fn fleet_start_year(mut self, year: u16) -> Self {
        self.scenario.fleet.start_year = year;
        self
    }

    /// Sets the simulated planning horizon in years.
    #[must_use]
    pub fn fleet_horizon_years(mut self, years: u32) -> Self {
        self.scenario.fleet.horizon_years = years;
        self
    }

    /// Sets the Monte-Carlo base seed.
    #[must_use]
    pub fn mc_seed(mut self, seed: u64) -> Self {
        self.scenario.mc.seed = seed;
        self
    }

    /// Sets the Monte-Carlo trial count.
    #[must_use]
    pub fn mc_samples(mut self, samples: u32) -> Self {
        self.scenario.mc.samples = samples;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> Scenario {
        self.scenario
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

/// Parses `value` as an `f64`, naming `key` on failure.
fn f64_of(key: &str, value: &str) -> Result<f64, ScenarioError> {
    value
        .trim()
        .parse()
        .map_err(|_| ScenarioError::InvalidValue {
            key: key.to_string(),
            value: value.to_string(),
        })
}

/// Parses `value` as a `u64`, naming `key` on failure.
fn u64_of(key: &str, value: &str) -> Result<u64, ScenarioError> {
    value
        .trim()
        .parse()
        .map_err(|_| ScenarioError::InvalidValue {
            key: key.to_string(),
            value: value.to_string(),
        })
}

/// [`Scenario::resolve_energy_source`] over a bare grid section, so
/// copy-on-write overlays resolve a `grid.source` assignment without a full
/// scenario in hand.
fn resolve_energy_source_in(grid: &mut GridParams) -> Result<(), ScenarioError> {
    let Some(source) = &grid.source else {
        return Ok(());
    };
    let matched =
        lookup_energy_source(source).ok_or_else(|| ScenarioError::UnknownSource(source.clone()))?;
    grid.intensity_g_per_kwh = matched.carbon_intensity().as_g_per_kwh();
    Ok(())
}

/// The `grid.*` arm of [`Scenario::set`], over the bare section.
fn set_grid_field(grid: &mut GridParams, key: &str, value: &str) -> Result<(), ScenarioError> {
    match key {
        "grid.intensity" | "grid.intensity_g_per_kwh" => {
            grid.intensity_g_per_kwh = f64_of(key, value)?;
        }
        "grid.source" => {
            let v = unquote(value);
            grid.source = if v.is_empty() { None } else { Some(v) };
            // Resolving here (not in the CLI) means library users setting
            // `grid.source = "wind"` get the Table II intensity too. A
            // later `set("grid.intensity", …)` still wins: overrides
            // apply strictly in call order.
            resolve_energy_source_in(grid)?;
        }
        "grid.renewable_fraction" => grid.renewable_fraction = f64_of(key, value)?,
        "grid.regions" => grid.regions = parse_regions(key, value)?,
        _ if key.starts_with("grid.region.") && key.ends_with(".trace") => {
            let name = key["grid.region.".len()..key.len() - ".trace".len()].trim();
            if name.is_empty() {
                return Err(ScenarioError::UnknownKey(key.to_string()));
            }
            let hours = trace::parse_trace_spec(key, value)?;
            match grid.regions.iter_mut().find(|r| r.name == name) {
                Some(region) => region.hours = hours,
                None => grid.regions.push(RegionParams {
                    name: name.to_string(),
                    hours,
                }),
            }
        }
        _ => return Err(ScenarioError::UnknownKey(key.to_string())),
    }
    Ok(())
}

/// The `device.*` arm of [`Scenario::set`], over the bare section.
fn set_device_field(
    device: &mut DeviceParams,
    key: &str,
    value: &str,
) -> Result<(), ScenarioError> {
    match key {
        "device.lifetime" | "device.lifetime_years" => {
            device.lifetime_years = f64_of(key, value)?;
        }
        "device.soc_budget_share" => device.soc_budget_share = f64_of(key, value)?,
        _ => return Err(ScenarioError::UnknownKey(key.to_string())),
    }
    Ok(())
}

/// The `fab.*` arm of [`Scenario::set`], over the bare section.
fn set_fab_field(fab: &mut FabParams, key: &str, value: &str) -> Result<(), ScenarioError> {
    match key {
        "fab.node" | "fab.node_nm" => fab.node_nm = f64_of(key, value)?,
        "fab.yield_factor" => fab.yield_factor = f64_of(key, value)?,
        "fab.renewable_share" => fab.renewable_share = f64_of(key, value)?,
        _ => return Err(ScenarioError::UnknownKey(key.to_string())),
    }
    Ok(())
}

/// The `fleet.*` arm of [`Scenario::set`], over the bare section.
fn set_fleet_field(fleet: &mut FleetParams, key: &str, value: &str) -> Result<(), ScenarioError> {
    match key {
        "fleet.scale" => fleet.scale = f64_of(key, value)?,
        "fleet.sku" => fleet.sku = unquote(value),
        "fleet.mix" => fleet.mix = parse_mix(key, value)?,
        _ if key.starts_with("fleet.mix[") && key.ends_with(']') => {
            let sku = key["fleet.mix[".len()..key.len() - 1].trim();
            if sku.is_empty() {
                return Err(ScenarioError::UnknownKey(key.to_string()));
            }
            fleet.set_mix_weight(sku, f64_of(key, value)?)?;
        }
        "fleet.sites" => fleet.sites = parse_sites(key, value)?,
        _ if key.starts_with("fleet.sites[") => {
            let rest = &key["fleet.sites[".len()..];
            let (name, field) = rest
                .split_once(']')
                .ok_or_else(|| ScenarioError::UnknownKey(key.to_string()))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(ScenarioError::UnknownKey(key.to_string()));
            }
            match field {
                "" | ".weight" => fleet.set_site_weight(name, f64_of(key, value)?)?,
                ".region" => fleet.set_site_region(name, unquote(value).trim()),
                _ => return Err(ScenarioError::UnknownKey(key.to_string())),
            }
        }
        "fleet.deferrable" => fleet.deferrable = f64_of(key, value)?,
        "fleet.initial_servers" => fleet.initial_servers = u64_of(key, value)?,
        "fleet.growth" => fleet.growth = f64_of(key, value)?,
        "fleet.pue" => fleet.pue = f64_of(key, value)?,
        "fleet.renewable_ramp" | "fleet.ramp" => {
            fleet.renewable_ramp = parse_ramp(key, value)?;
        }
        "fleet.construction_kt" | "fleet.construction" => {
            fleet.construction_kt = f64_of(key, value)?;
        }
        "fleet.building_amortization_years" | "fleet.building_amortization" => {
            fleet.building_amortization_years = f64_of(key, value)?;
        }
        "fleet.start_year" => {
            fleet.start_year =
                u16::try_from(u64_of(key, value)?).map_err(|_| ScenarioError::InvalidValue {
                    key: key.to_string(),
                    value: value.to_string(),
                })?;
        }
        "fleet.horizon_years" | "fleet.horizon" => {
            fleet.horizon_years =
                u32::try_from(u64_of(key, value)?).map_err(|_| ScenarioError::InvalidValue {
                    key: key.to_string(),
                    value: value.to_string(),
                })?;
        }
        _ => return Err(ScenarioError::UnknownKey(key.to_string())),
    }
    Ok(())
}

/// The `mc.*` arm of [`Scenario::set`], over the bare section.
fn set_mc_field(mc: &mut McParams, key: &str, value: &str) -> Result<(), ScenarioError> {
    match key {
        "mc.seed" => mc.seed = u64_of(key, value)?,
        "mc.samples" => {
            mc.samples =
                u32::try_from(u64_of(key, value)?).map_err(|_| ScenarioError::InvalidValue {
                    key: key.to_string(),
                    value: value.to_string(),
                })?;
        }
        _ => return Err(ScenarioError::UnknownKey(key.to_string())),
    }
    Ok(())
}

/// Parses a renewable-ramp value: comma-separated coverage fractions,
/// optionally TOML-quoted (`"0.05,0.1,1.0"`). Range checking happens in
/// [`Scenario::validate`]; this only requires every element to be a number.
fn parse_ramp(key: &str, value: &str) -> Result<Vec<f64>, ScenarioError> {
    let invalid = || ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    };
    let text = unquote(value);
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|part| part.trim().parse::<f64>().map_err(|_| invalid()))
        .collect()
}

/// Parses a fleet-mix value: comma-separated `sku:weight` pairs, optionally
/// TOML-quoted (`"web:0.7,ai-training:0.3"`). An empty string is the empty
/// mix (a pure `fleet.sku` fleet). SKU-name and weight-sum checking happens
/// in [`Scenario::validate`]; this only requires the `name:number` shape.
fn parse_mix(key: &str, value: &str) -> Result<Vec<(String, f64)>, ScenarioError> {
    let invalid = || ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    };
    let text = unquote(value);
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|part| {
            let (name, weight) = part.split_once(':').ok_or_else(invalid)?;
            let name = name.trim();
            if name.is_empty() {
                return Err(invalid());
            }
            let weight: f64 = weight.trim().parse().map_err(|_| invalid())?;
            Ok((name.to_string(), weight))
        })
        .collect()
}

/// Canonical text form of a fleet mix, parseable by [`parse_mix`].
fn format_mix(mix: &[(String, f64)]) -> String {
    mix.iter()
        .map(|(name, w)| format!("{name}:{w:?}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a `grid.regions` value: semicolon-separated `name:trace-spec`
/// entries, optionally TOML-quoted. Each spec goes through
/// [`trace::parse_trace_spec`], so the canonical resolved form
/// (`name:h0,…,h23;…`) and the generator shorthands both parse. An empty
/// string is the empty region list.
fn parse_regions(key: &str, value: &str) -> Result<Vec<RegionParams>, ScenarioError> {
    let invalid = || ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    };
    let text = unquote(value);
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(';')
        .map(|part| {
            let (name, spec) = part.split_once(':').ok_or_else(invalid)?;
            let name = name.trim();
            if name.is_empty() {
                return Err(invalid());
            }
            Ok(RegionParams {
                name: name.to_string(),
                hours: trace::parse_trace_spec(key, spec)?,
            })
        })
        .collect()
}

/// Canonical text form of the grid regions, parseable by [`parse_regions`].
fn format_regions(regions: &[RegionParams]) -> String {
    regions
        .iter()
        .map(|r| {
            let hours = r
                .hours
                .iter()
                .map(|h| format!("{h:?}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("{}:{hours}", r.name)
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses a `fleet.sites` value: comma-separated `name@region:weight`
/// triples, optionally TOML-quoted. An empty string is the empty site list
/// (the single `main@default` site). Region existence and weight-sum
/// checking happens in [`Scenario::validate`].
fn parse_sites(key: &str, value: &str) -> Result<Vec<SiteParams>, ScenarioError> {
    let invalid = || ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    };
    let text = unquote(value);
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|part| {
            let (name, rest) = part.split_once('@').ok_or_else(invalid)?;
            let (region, weight) = rest.rsplit_once(':').ok_or_else(invalid)?;
            let (name, region) = (name.trim(), region.trim());
            if name.is_empty() || region.is_empty() {
                return Err(invalid());
            }
            Ok(SiteParams {
                name: name.to_string(),
                region: region.to_string(),
                weight: weight.trim().parse().map_err(|_| invalid())?,
            })
        })
        .collect()
}

/// Canonical text form of the fleet sites, parseable by [`parse_sites`].
fn format_sites(sites: &[SiteParams]) -> String {
    sites
        .iter()
        .map(|s| format!("{}@{}:{:?}", s.name, s.region, s.weight))
        .collect::<Vec<_>>()
        .join(",")
}

/// Canonical text form of a renewable ramp, parseable by [`parse_ramp`].
fn format_ramp(ramp: &[f64]) -> String {
    ramp.iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Finds the Table II energy source matching `name`, case-insensitively.
fn lookup_energy_source(name: &str) -> Option<EnergySource> {
    let wanted = name.to_lowercase();
    EnergySource::ALL
        .into_iter()
        .find(|s| s.name().to_lowercase() == wanted)
}

/// Quotes a TOML basic string, escaping backslashes and double quotes (the
/// only escapes [`Scenario`] fields can need).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Inverse of [`quote`]: strips one layer of surrounding double quotes and
/// unescapes `\"` and `\\`. Unquoted input is returned verbatim.
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

/// A copy-on-write view over a shared base [`Scenario`]: untouched sections
/// resolve to the base's, a touched section is cloned once into the
/// overlay's delta and edited there. Sweep expansion builds one overlay per
/// point, so a 10k-point matrix allocates 10k small deltas (typically one
/// section each) instead of 10k full scenario clones.
///
/// Resolution order is always **delta → base**, per section: a section is
/// either wholly owned by the delta (because some field in it was set) or
/// wholly the base's — there is no field-level merging, which keeps reads
/// branch-cheap and the semantics identical to "clone the scenario, then
/// `set`".
#[derive(Debug, Clone)]
pub struct ScenarioOverlay {
    base: Arc<Scenario>,
    name: Option<String>,
    grid: Option<GridParams>,
    device: Option<DeviceParams>,
    fab: Option<FabParams>,
    fleet: Option<FleetParams>,
    mc: Option<McParams>,
}

impl PartialEq for ScenarioOverlay {
    /// Overlays compare by *resolved* values, not delta shape: a pristine
    /// overlay equals one whose delta restates the base verbatim.
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.grid() == other.grid()
            && self.device() == other.device()
            && self.fab() == other.fab()
            && self.fleet() == other.fleet()
            && self.mc() == other.mc()
    }
}

impl ScenarioOverlay {
    /// A pristine overlay: every read resolves to `base`.
    #[must_use]
    pub fn new(base: Arc<Scenario>) -> Self {
        Self {
            base,
            name: None,
            grid: None,
            device: None,
            fab: None,
            fleet: None,
            mc: None,
        }
    }

    /// The shared base scenario the overlay resolves against.
    #[must_use]
    pub fn base(&self) -> &Arc<Scenario> {
        &self.base
    }

    /// Whether the overlay carries no delta at all, so every read — and a
    /// [`Self::materialize`] — is exactly the base.
    #[must_use]
    pub fn is_pristine(&self) -> bool {
        self.name.is_none()
            && self.grid.is_none()
            && self.device.is_none()
            && self.fab.is_none()
            && self.fleet.is_none()
            && self.mc.is_none()
    }

    /// The resolved scenario name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.name.as_deref().unwrap_or(&self.base.name)
    }

    /// The resolved operational-energy parameters.
    #[must_use]
    pub fn grid(&self) -> &GridParams {
        self.grid.as_ref().unwrap_or(&self.base.grid)
    }

    /// The resolved device parameters.
    #[must_use]
    pub fn device(&self) -> &DeviceParams {
        self.device.as_ref().unwrap_or(&self.base.device)
    }

    /// The resolved fab parameters.
    #[must_use]
    pub fn fab(&self) -> &FabParams {
        self.fab.as_ref().unwrap_or(&self.base.fab)
    }

    /// The resolved fleet parameters.
    #[must_use]
    pub fn fleet(&self) -> &FleetParams {
        self.fleet.as_ref().unwrap_or(&self.base.fleet)
    }

    /// The resolved Monte-Carlo parameters.
    #[must_use]
    pub fn mc(&self) -> &McParams {
        self.mc.as_ref().unwrap_or(&self.base.mc)
    }

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
        if key == "name" {
            self.name = Some(unquote(value));
            return Ok(());
        }
        let base = &self.base;
        match key.split_once('.').map(|(section, _)| section) {
            Some("grid") => set_grid_field(
                self.grid.get_or_insert_with(|| base.grid.clone()),
                key,
                value,
            ),
            Some("device") => set_device_field(
                self.device.get_or_insert_with(|| base.device.clone()),
                key,
                value,
            ),
            Some("fab") => {
                set_fab_field(self.fab.get_or_insert_with(|| base.fab.clone()), key, value)
            }
            Some("fleet") => set_fleet_field(
                self.fleet.get_or_insert_with(|| base.fleet.clone()),
                key,
                value,
            ),
            Some("mc") => set_mc_field(self.mc.get_or_insert_with(|| base.mc.clone()), key, value),
            _ => Err(ScenarioError::UnknownKey(key.to_string())),
        }
    }

    /// Clones the resolved view out into an owned [`Scenario`].
    #[must_use]
    pub fn materialize(&self) -> Scenario {
        Scenario {
            name: self.name.clone().unwrap_or_else(|| self.base.name.clone()),
            grid: self.grid.clone().unwrap_or_else(|| self.base.grid.clone()),
            device: self
                .device
                .clone()
                .unwrap_or_else(|| self.base.device.clone()),
            fab: self.fab.clone().unwrap_or_else(|| self.base.fab.clone()),
            fleet: self
                .fleet
                .clone()
                .unwrap_or_else(|| self.base.fleet.clone()),
            mc: self.mc.clone().unwrap_or_else(|| self.base.mc.clone()),
        }
    }

    /// [`Scenario::validate`] over the resolved sections.
    ///
    /// # Errors
    ///
    /// The same [`Scenario::validate`] errors for unphysical parameters.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        validate_parts(
            self.grid(),
            self.device(),
            self.fab(),
            self.fleet(),
            self.mc(),
        )
    }
}

impl deps::FieldSource for ScenarioOverlay {
    fn name(&self) -> &str {
        ScenarioOverlay::name(self)
    }
    fn grid(&self) -> &GridParams {
        ScenarioOverlay::grid(self)
    }
    fn device(&self) -> &DeviceParams {
        ScenarioOverlay::device(self)
    }
    fn fab(&self) -> &FabParams {
        ScenarioOverlay::fab(self)
    }
    fn fleet(&self) -> &FleetParams {
        ScenarioOverlay::fleet(self)
    }
    fn mc(&self) -> &McParams {
        ScenarioOverlay::mc(self)
    }
}

/// The context every experiment runs in: one scenario plus typed accessors
/// for the quantities the models consume.
///
/// A context built by [`Self::tracking`] additionally records every
/// canonical scenario field the typed accessors touch, which is how CI
/// verifies each experiment's declared dependency set
/// ([`deps::ScenarioPath`]) against its actual reads. Raw scenario access
/// ([`Self::scenario`], [`Self::is_paper`]) counts as reading *every*
/// semantic field — an experiment wanting a small dependency set must stay
/// on the typed accessors.
#[derive(Debug)]
pub struct RunContext {
    overlay: ScenarioOverlay,
    /// Lazily materialized owned scenario backing the `&Scenario` return of
    /// [`Self::scenario`]. Typed accessors never pay for it; a context whose
    /// overlay is pristine never pays for it either (raw access borrows the
    /// shared base directly).
    materialized: OnceLock<Scenario>,
    tracker: Option<Arc<ReadTracker>>,
}

impl Clone for RunContext {
    fn clone(&self) -> Self {
        Self {
            overlay: self.overlay.clone(),
            materialized: OnceLock::new(),
            tracker: self.tracker.clone(),
        }
    }
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

    /// Records a read of every semantic field (raw scenario access).
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
            materialized: OnceLock::new(),
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
            materialized: OnceLock::new(),
            tracker: None,
        })
    }

    /// A context that records every canonical scenario field the typed
    /// accessors read, returned alongside its [`ReadTracker`]. This is the
    /// instrument behind the dependency-declaration CI check: run an
    /// experiment under a tracking context and compare
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

    /// The underlying scenario. Counts as reading every semantic field when
    /// tracking: raw access gives no visibility into which fields the caller
    /// consumed. For a sweep-point context this materializes (once, lazily)
    /// an owned scenario from the overlay; typed accessors never do.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        self.record_all();
        if self.overlay.is_pristine() {
            self.overlay.base().as_ref()
        } else {
            self.materialized.get_or_init(|| self.overlay.materialize())
        }
    }

    /// Whether this context runs the unmodified paper scenario (used to
    /// label artifacts and keep paper-anchor notes honest). Compares — and
    /// therefore reads — every field; experiments with narrow dependency
    /// sets should use [`Self::grid_is_paper`] / [`Self::fleet_is_paper`]
    /// instead.
    #[must_use]
    pub fn is_paper(&self) -> bool {
        self.record_all();
        let paper = Scenario::paper_defaults();
        self.overlay.name() == paper.name
            && *self.overlay.grid() == paper.grid
            && *self.overlay.device() == paper.device
            && *self.overlay.fab() == paper.fab
            && *self.overlay.fleet() == paper.fleet
            && *self.overlay.mc() == paper.mc
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
            self.record(field);
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

    #[test]
    fn toml_round_trips_paper_defaults() {
        let s = Scenario::paper_defaults();
        let parsed = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(parsed, s);
        // A second emit is byte-identical: canonical form.
        assert_eq!(parsed.to_toml(), s.to_toml());
    }

    #[test]
    fn toml_round_trips_custom_scenario() {
        let s = Scenario::builder()
            .name("green-fab")
            .grid_intensity(50.0)
            .energy_source("hydropower")
            .renewable_fraction(0.5)
            .lifetime_years(4.5)
            .fab_renewable_share(0.9)
            .fleet_scale(10.0)
            .mc_seed(99)
            .mc_samples(5_000)
            .build();
        assert_eq!(Scenario::from_toml(&s.to_toml()).unwrap(), s);
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
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_toml(), s.to_toml());
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
            ("fleet.building_amortization_years", "0", "positive"),
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
        assert_eq!(rule.validation, format!("in 1..={max}"));
    }

    #[test]
    fn fleet_params_round_trip_and_reject_unphysical_values() {
        // The ramp serializes as a quoted list and round-trips through TOML.
        let s = Scenario::builder()
            .name("capacity")
            .fleet_initial_servers(5_000)
            .fleet_growth(1.18)
            .fleet_pue(1.4)
            .fleet_renewable_ramp(vec![0.0, 0.25, 0.5, 1.0])
            .fleet_construction_kt(42.5)
            .fleet_horizon_years(12)
            .build();
        s.validate().unwrap();
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
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
        let s = Scenario::builder()
            .name("ai-buildout")
            .fleet_mix(vec![
                ("web".to_string(), 0.7),
                ("ai-training".to_string(), 0.3),
            ])
            .build();
        s.validate().unwrap();
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_toml(), s.to_toml());

        // --set style: the whole composition in one assignment.
        let mut by_set = Scenario::paper_defaults();
        by_set.set("fleet.mix", "web:0.7,ai-training:0.3").unwrap();
        assert_eq!(by_set.fleet.mix, s.fleet.mix);
        by_set.validate().unwrap();

        // A quoted value (the TOML form) parses identically.
        let mut quoted = Scenario::paper_defaults();
        quoted
            .set("fleet.mix", "\"web:0.7,ai-training:0.3\"")
            .unwrap();
        assert_eq!(quoted.fleet.mix, s.fleet.mix);

        // fleet.sku round-trips and defaults to the paper's web SKU.
        assert_eq!(Scenario::paper_defaults().fleet.sku, "web");
        let mut storage = Scenario::paper_defaults();
        storage.set("fleet.sku", "storage").unwrap();
        storage.validate().unwrap();
        assert_eq!(
            Scenario::from_toml(&storage.to_toml()).unwrap().fleet.sku,
            "storage"
        );
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
        let ctx = RunContext::paper();
        assert!(ctx.is_paper());
        assert_eq!(ctx.grid_intensity().as_g_per_kwh(), 380.0);
        assert_eq!(ctx.effective_grid_intensity(), ctx.grid_intensity());
        assert_eq!(ctx.device_lifetime().as_days().round(), 1096.0);

        let half_green = RunContext::new(Scenario::builder().renewable_fraction(0.5).build());
        assert!(!half_green.is_paper());
        let blended = half_green.effective_grid_intensity().as_g_per_kwh();
        assert!((blended - (0.5 * 380.0 + 0.5 * 11.0)).abs() < 1e-12);
    }

    #[test]
    fn names_with_quotes_and_backslashes_round_trip() {
        for name in [
            r#"a "b" c"#,
            r"back\slash",
            r#"mix \" end"#,
            "has # hash",
            "multi\nline\tname",
        ] {
            let s = Scenario::builder().name(name).build();
            let back = Scenario::from_toml(&s.to_toml()).unwrap();
            assert_eq!(back.name, name, "emitted: {}", s.to_toml());
            assert_eq!(back, s);
        }
    }

    #[test]
    fn large_mc_seeds_serialize_losslessly() {
        let seed = (1u64 << 53) + 1;
        let s = Scenario::builder().mc_seed(seed).build();
        assert!(s.to_json().render().contains(&format!("\"seed\":{seed}")));
        assert_eq!(Scenario::from_toml(&s.to_toml()).unwrap().mc.seed, seed);
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
        // The builder resolves too.
        let hydro = Scenario::builder().energy_source("Hydropower").build();
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
        // Raw scenario access reads everything semantic.
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
        let windy = RunContext::new(Scenario::builder().grid_intensity(11.0).build());
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
