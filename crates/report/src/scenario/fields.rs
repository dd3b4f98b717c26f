//! The scenario-field table: every settable field written once.
//!
//! One [`scenario_fields!`] invocation lists each field as a row, and the
//! macro derives everything else a field needs: the section structs and
//! [`Scenario`] itself, the paper defaults, the [`FIELDS`] registry, the
//! dotted-path setter shared by [`Scenario::set`] and
//! [`ScenarioOverlay::set`], the canonical value text behind fingerprints
//! and [`Scenario::field_value`], the JSON form of a [`ScenarioView`] and
//! the per-field validation checks. Per-type text and JSON formats live
//! behind [`FieldType`].
//!
//! Hand-written code hangs off the rows where a field needs more than its
//! type: `grid.source` resolution (a row hook), the bracket paths
//! (`grid.region.<n>.trace`, `fleet.mix[<sku>]`, `fleet.sites[<site>]…`) and
//! the composite validators of the list fields.

use super::{
    resolve_energy_source_in, trace, unquote, validate_grid_regions, validate_growth, validate_mix,
    validate_sites, validate_sku, validate_source, RegionParams, ScenarioError, SiteParams,
    GROWTH_RULE,
};
use crate::json::JsonValue;
use core::fmt;
use std::sync::Arc;

/// How one field type parses its `--set`/TOML text, writes its canonical
/// value text (the bytes fingerprints hash) and serializes to JSON.
pub(crate) trait FieldType: Sized {
    /// The type name the scenario reference documents.
    const NAME: &'static str;

    /// Parses a `--set`/TOML value, naming `key` on failure.
    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError>;

    /// Writes the canonical value text.
    fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result;

    /// The value as JSON.
    fn json(&self) -> JsonValue;
}

/// The `InvalidValue` error for `value` at `key`.
fn invalid(key: &str, value: &str) -> ScenarioError {
    ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    }
}

impl FieldType for f64 {
    const NAME: &'static str = "f64";

    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        value.trim().parse().map_err(|_| invalid(key, value))
    }

    fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(out, "{self:?}")
    }

    fn json(&self) -> JsonValue {
        JsonValue::from(*self)
    }
}

/// Unsigned integers parse through `u64`, so an out-of-range value is an
/// invalid value rather than a wrapped one.
macro_rules! integer_field_type {
    ($($t:ty),*) => {$(
        impl FieldType for $t {
            const NAME: &'static str = stringify!($t);

            fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
                let wide: Option<u64> = value.trim().parse().ok();
                wide.and_then(|n| Self::try_from(n).ok())
                    .ok_or_else(|| invalid(key, value))
            }

            fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result {
                write!(out, "{self}")
            }

            fn json(&self) -> JsonValue {
                JsonValue::Integer(u64::from(*self))
            }
        }
    )*};
}

integer_field_type!(u16, u32, u64);

impl FieldType for String {
    const NAME: &'static str = "string";

    fn parse(_key: &str, value: &str) -> Result<Self, ScenarioError> {
        Ok(unquote(value))
    }

    fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_str(self)
    }

    fn json(&self) -> JsonValue {
        JsonValue::from(self.as_str())
    }
}

/// An optional label: the empty string unsets it.
impl FieldType for Option<String> {
    const NAME: &'static str = "string";

    fn parse(_key: &str, value: &str) -> Result<Self, ScenarioError> {
        let text = unquote(value);
        Ok((!text.is_empty()).then_some(text))
    }

    fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_str(self.as_deref().unwrap_or_default())
    }

    fn json(&self) -> JsonValue {
        self.as_deref().map_or(JsonValue::Null, JsonValue::from)
    }
}

/// Parses a list value, optionally TOML-quoted: empty text is the empty
/// list, otherwise every `sep`-separated item goes through `item`. Range
/// and consistency checks belong to validation; parsing only requires each
/// item's shape.
fn parse_list<T>(
    value: &str,
    sep: char,
    item: impl FnMut(&str) -> Result<T, ScenarioError>,
) -> Result<Vec<T>, ScenarioError> {
    let text = unquote(value);
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(sep).map(item).collect()
}

/// Writes `items` separated by `sep`, each through `item`.
fn write_list<T>(
    out: &mut dyn fmt::Write,
    items: &[T],
    sep: char,
    mut item: impl FnMut(&mut dyn fmt::Write, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.write_char(sep)?;
        }
        item(out, x)?;
    }
    Ok(())
}

/// A renewable ramp: comma-separated coverage fractions.
impl FieldType for Vec<f64> {
    const NAME: &'static str = "list of f64";

    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        parse_list(value, ',', |part| {
            part.trim().parse().map_err(|_| invalid(key, value))
        })
    }

    fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_list(out, self, ',', |out, v| v.write_value(out))
    }

    fn json(&self) -> JsonValue {
        JsonValue::array(self.iter().map(|&v| JsonValue::from(v)))
    }
}

/// A fleet mix: comma-separated `sku:weight` pairs.
impl FieldType for Vec<(String, f64)> {
    const NAME: &'static str = "weighted list";

    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        parse_list(value, ',', |part| {
            let (name, weight) = part.split_once(':').ok_or_else(|| invalid(key, value))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(invalid(key, value));
            }
            let weight = weight.trim().parse().map_err(|_| invalid(key, value))?;
            Ok((name.to_string(), weight))
        })
    }

    fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_list(out, self, ',', |out, (name, w)| write!(out, "{name}:{w:?}"))
    }

    fn json(&self) -> JsonValue {
        JsonValue::object(
            self.iter()
                .map(|(name, w)| (name.clone(), JsonValue::from(*w))),
        )
    }
}

/// Grid regions: semicolon-separated `name:trace-spec` entries, each spec
/// resolved by [`trace::parse_trace_spec`] (so the canonical `name:h0,…,h23`
/// form and the generator shorthands both parse).
impl FieldType for Vec<RegionParams> {
    const NAME: &'static str = "trace map";

    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        parse_list(value, ';', |part| {
            let (name, spec) = part.split_once(':').ok_or_else(|| invalid(key, value))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(invalid(key, value));
            }
            Ok(RegionParams {
                name: name.to_string(),
                hours: trace::parse_trace_spec(key, spec)?,
            })
        })
    }

    fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_list(out, self, ';', |out, region| {
            write!(out, "{}:", region.name)?;
            region.hours.write_value(out)
        })
    }

    fn json(&self) -> JsonValue {
        JsonValue::array(self.iter().map(|r| {
            JsonValue::object([
                ("name", JsonValue::from(r.name.as_str())),
                ("hours", r.hours.json()),
            ])
        }))
    }
}

/// Fleet sites: comma-separated `name@region:weight` triples.
impl FieldType for Vec<SiteParams> {
    const NAME: &'static str = "weighted list";

    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        parse_list(value, ',', |part| {
            let shape = part
                .split_once('@')
                .and_then(|(name, rest)| Some((name.trim(), rest.rsplit_once(':')?)));
            let Some((name, (region, weight))) = shape else {
                return Err(invalid(key, value));
            };
            let region = region.trim();
            if name.is_empty() || region.is_empty() {
                return Err(invalid(key, value));
            }
            Ok(SiteParams {
                name: name.to_string(),
                region: region.to_string(),
                weight: weight.trim().parse().map_err(|_| invalid(key, value))?,
            })
        })
    }

    fn write_value(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_list(out, self, ',', |out, s| {
            write!(out, "{}@{}:{:?}", s.name, s.region, s.weight)
        })
    }

    fn json(&self) -> JsonValue {
        JsonValue::array(self.iter().map(|s| {
            JsonValue::object([
                ("name", JsonValue::from(s.name.as_str())),
                ("region", JsonValue::from(s.region.as_str())),
                ("weight", JsonValue::from(s.weight)),
            ])
        }))
    }
}

/// A field's validation rule. Its text is what the scenario reference
/// documents and, for a [`Rule::Check`], exactly the message a failing
/// value is rejected with.
pub(crate) enum Rule<T> {
    /// Every value parses into a valid field.
    Any(&'static str),
    /// A check on the value alone.
    Check(&'static str, fn(&T) -> bool),
    /// A composite validator that also reads other fields and words its
    /// own messages.
    With(
        &'static str,
        fn(ScenarioView<'_>) -> Result<(), ScenarioError>,
    ),
}

impl<T> Rule<T> {
    const fn text(&self) -> &'static str {
        match self {
            Self::Any(text) | Self::Check(text, _) | Self::With(text, _) => text,
        }
    }

    // Always inlined: the generated `validate` applies every row's constant
    // rule, which then folds into a direct check. As a call, validation
    // took about twice as long.
    #[inline(always)]
    fn apply(&self, value: &T, view: ScenarioView<'_>) -> Result<(), ScenarioError> {
        match self {
            Self::Any(_) => Ok(()),
            Self::Check(text, ok) if !ok(value) => Err(ScenarioError::Invalid((*text).to_string())),
            Self::Check(..) => Ok(()),
            Self::With(_, validate) => validate(view),
        }
    }
}

/// The `Rule::Check` of fields that must be finite and positive.
fn finite_positive(v: &f64) -> bool {
    v.is_finite() && *v > 0.0
}

/// The `Rule::Check` of fractions, which lie in `[0, 1]`.
fn unit_interval(v: &f64) -> bool {
    (0.0..=1.0).contains(v)
}

/// Metadata and behaviour of one settable scenario field: the canonical
/// dotted path, its accepted aliases, type, one-line description and
/// validation rule, plus the row's setter and value writer.
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
    /// The validation rule enforced by [`Scenario::validate`]; for a
    /// single-value check, exactly the message a failing value reports.
    pub validation: &'static str,
    /// Whether the field participates in dependency fingerprints.
    pub semantic: bool,
    set: fn(&mut dyn SectionsMut, &str, &str) -> Result<(), ScenarioError>,
    write: fn(ScenarioView<'_>, &mut dyn fmt::Write) -> fmt::Result,
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

    /// Writes the field's canonical value text out of `view`.
    pub(crate) fn write_value(
        &self,
        view: ScenarioView<'_>,
        out: &mut dyn fmt::Write,
    ) -> fmt::Result {
        (self.write)(view, out)
    }
}

/// The row a dotted path (canonical or alias) names, or `None` for bracket
/// paths and unknown keys.
#[must_use]
pub fn resolve(path: &str) -> Option<&'static FieldInfo> {
    FIELDS
        .iter()
        .find(|f| f.path == path || f.aliases.contains(&path))
}

/// Sets one field by its dotted path: a row's own setter, else a bracket
/// path.
pub(super) fn set(
    target: &mut dyn SectionsMut,
    key: &str,
    value: &str,
) -> Result<(), ScenarioError> {
    match resolve(key) {
        Some(field) => (field.set)(target, key, value),
        None => super::set_bracket(target, key, value),
    }
}

/// Defines the scenario from one row per field.
///
/// The invocation starts with the `name` field's default and doc, then
/// lists each section as `section: Struct { rows }` under the section
/// struct's doc comment. Each row reads
///
/// ```text
/// field: Type = default => "canonical.path" ["alias", …] kind "doc",
///     rule[, then hook];
/// ```
///
/// * `field: Type` — the Rust field in the section struct; `Type` must
///   implement [`FieldType`], which fixes the parse, value-text and JSON
///   forms and the documented type name.
/// * `default` — the paper's value, used by [`Scenario::paper_defaults`].
/// * `"canonical.path"` — the dotted path of `--set`, sweeps,
///   fingerprints and the reference; the aliases are extra `--set` paths.
///   The TOML and JSON key is the Rust field name, and `section.field`
///   must be the path or an alias so a scenario file can set the field
///   under its JSON key.
/// * `kind` — `semantic` for fields the models read (they enter dependency
///   fingerprints), `label` for fields that cannot move a number.
/// * `"doc"` — the field's rustdoc.
/// * `rule` — a [`Rule`]: its text is the documented validation and, for a
///   `Rule::Check`, the error message.
/// * `then hook` — optional `fn(&mut Section) -> Result<(), ScenarioError>`
///   run after every set of the field.
macro_rules! scenario_fields {
    (
        name: $name_default:expr, $name_doc:literal;
        $(
            $(#[$section_meta:meta])*
            $sec:ident: $Sec:ident {
                $(
                    $field:ident: $ty:ty = $default:expr => $path:literal [$($alias:literal),*]
                        $kind:ident $doc:literal,
                        $rule:expr
                        $(, then $hook:path)?;
                )*
            }
        )*
    ) => {
        $(
            $(#[$section_meta])*
            #[derive(Debug, Clone, PartialEq)]
            pub struct $Sec {
                $(
                    #[doc = $doc]
                    pub $field: $ty,
                )*
            }
        )*

        /// A complete experiment scenario: every model parameter the paper
        /// fixed, made explicit.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Scenario {
            #[doc = $name_doc]
            pub name: String,
            $(
                #[doc = concat!("The `", stringify!($sec), "` section.")]
                pub $sec: $Sec,
            )*
        }

        /// Borrowed read access to every scenario section, however the
        /// sections are stored (see [`super::deps::FieldSource`]).
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct ScenarioView<'a> {
            /// The scenario name.
            pub name: &'a str,
            $(
                #[doc = concat!("The `", stringify!($sec), "` section.")]
                pub $sec: &'a $Sec,
            )*
        }

        /// A copy-on-write view over a shared base [`Scenario`]: untouched
        /// sections resolve to the base's, a touched section is cloned once
        /// into the overlay's delta and edited there. Sweep expansion builds
        /// one overlay per point, so a 10k-point matrix allocates 10k small
        /// deltas (typically one section each) instead of 10k full scenario
        /// clones.
        ///
        /// Resolution order is always **delta → base**, per section: a
        /// section is either wholly owned by the delta (because some field
        /// in it was set) or wholly the base's — there is no field-level
        /// merging, which keeps reads branch-cheap and the semantics
        /// identical to "clone the scenario, then `set`".
        #[derive(Debug, Clone)]
        pub struct ScenarioOverlay {
            pub(super) base: Arc<Scenario>,
            pub(super) name: Option<String>,
            $(pub(super) $sec: Option<$Sec>,)*
        }

        impl ScenarioOverlay {
            /// A pristine overlay: every read resolves to `base`.
            #[must_use]
            pub fn new(base: Arc<Scenario>) -> Self {
                Self { base, name: None, $($sec: None,)* }
            }

            /// The resolved scenario name.
            #[must_use]
            pub fn name(&self) -> &str {
                self.name.as_deref().unwrap_or(&self.base.name)
            }

            $(
                #[doc = concat!("The resolved `", stringify!($sec), "` section.")]
                #[must_use]
                pub fn $sec(&self) -> &$Sec {
                    self.$sec.as_ref().unwrap_or(&self.base.$sec)
                }
            )*
        }

        impl super::deps::FieldSource for Scenario {
            fn view(&self) -> ScenarioView<'_> {
                ScenarioView { name: &self.name, $($sec: &self.$sec,)* }
            }
        }

        impl super::deps::FieldSource for ScenarioOverlay {
            fn view(&self) -> ScenarioView<'_> {
                ScenarioView { name: self.name(), $($sec: self.$sec(),)* }
            }
        }

        /// Mutable access to the scenario sections: owned fields on a
        /// [`Scenario`], copy-on-write deltas on a [`ScenarioOverlay`]. Every
        /// row's setter writes through it, so both share one setter per field.
        pub(crate) trait SectionsMut {
            fn name(&mut self) -> &mut String;
            $(fn $sec(&mut self) -> &mut $Sec;)*
        }

        impl SectionsMut for Scenario {
            fn name(&mut self) -> &mut String {
                &mut self.name
            }
            $(fn $sec(&mut self) -> &mut $Sec {
                &mut self.$sec
            })*
        }

        impl SectionsMut for ScenarioOverlay {
            fn name(&mut self) -> &mut String {
                let base = &self.base;
                self.name.get_or_insert_with(|| base.name.clone())
            }
            $(fn $sec(&mut self) -> &mut $Sec {
                let base = &self.base;
                self.$sec.get_or_insert_with(|| base.$sec.clone())
            })*
        }

        impl Scenario {
            /// The exact parameter values the paper's evaluation used.
            #[must_use]
            pub fn paper_defaults() -> Self {
                Self {
                    name: $name_default,
                    $($sec: $Sec { $($field: $default,)* },)*
                }
            }
        }

        impl ScenarioView<'_> {
            /// The scenario as a JSON object (for `--json` artifacts).
            #[must_use]
            pub fn to_json(&self) -> JsonValue {
                JsonValue::object([
                    ("name", JsonValue::from(self.name)),
                    $((
                        stringify!($sec),
                        JsonValue::object([$((stringify!($field), self.$sec.$field.json()),)*]),
                    ),)*
                ])
            }
        }

        /// Every settable scenario field, in canonical (TOML) order. The
        /// single source of truth for `--set` parsing and documentation,
        /// dependency expansion and fingerprints, validation and the
        /// generated scenario reference.
        pub const FIELDS: [FieldInfo; 1 + [$($(stringify!($field),)*)*].len()] = [
            FieldInfo {
                path: "name",
                aliases: &[],
                ty: <String as FieldType>::NAME,
                validation: "any string",
                semantic: false,
                set: |target, key, value| {
                    *target.name() = FieldType::parse(key, value)?;
                    Ok(())
                },
                write: |view, out| out.write_str(view.name),
            },
            $($(
                FieldInfo {
                    path: $path,
                    aliases: &[$($alias),*],
                    ty: <$ty as FieldType>::NAME,
                    validation: Rule::<$ty>::text(&$rule),
                    semantic: scenario_fields!(@semantic $kind),
                    set: |target, key, value| {
                        target.$sec().$field = FieldType::parse(key, value)?;
                        $($hook(target.$sec())?;)?
                        Ok(())
                    },
                    write: |view, out| view.$sec.$field.write_value(out),
                },
            )*)*
        ];

        /// Runs every row's validation rule, in table order.
        pub(super) fn validate(view: ScenarioView<'_>) -> Result<(), ScenarioError> {
            $($(Rule::<$ty>::apply(&$rule, &view.$sec.$field, view)?;)*)*
            Ok(())
        }
    };
    (@semantic semantic) => { true };
    (@semantic label) => { false };
}

scenario_fields! {
    name: "paper".to_string(), "Human-readable scenario name; appears in artifact metadata only";

    /// Operational-energy parameters.
    grid: GridParams {
        // The cap is over 10x the dirtiest Table II source. Without it,
        // values near f64::MAX overflow ext-mc's triangular sampling. The
        // floor sits below the cleanest (wind, 11); near-zero values drove
        // fig10's break-even days and ext-mc's band to `inf`.
        intensity_g_per_kwh: f64 = cc_data::US_GRID_G_PER_KWH => "grid.intensity" ["grid.intensity_g_per_kwh"]
            semantic "Operational grid carbon intensity in g CO2e/kWh",
            Rule::Check("grid.intensity must lie in [1, 10000] g/kWh", |v| (1.0..=10_000.0).contains(v));
        source: Option<String> = None => "grid.source" []
            label "Energy-source label; setting it resolves grid.intensity to the Table II value",
            Rule::With("must name a Table II energy source (case-insensitive)", validate_source),
            then resolve_energy_source_in;
        renewable_fraction: f64 = 0.0 => "grid.renewable_fraction" []
            semantic "Fraction of operational energy covered by renewable purchases",
            Rule::Check("grid.renewable_fraction must lie in [0, 1]", unit_interval);
        regions: Vec<RegionParams> = Vec::new() => "grid.regions" []
            semantic "Named grid regions with 24-hour intensity traces; per-region specs \
                      (`solar(night,noon)`, `flat(v)`, inline list, `*.csv`) are settable via \
                      `grid.region.<name>.trace` and resolve at set time (see docs/GRID-TRACES.md)",
            Rule::With(
                "unique non-empty names; 24 finite non-negative hourly values each",
                validate_grid_regions,
            );
    }

    /// Device parameters for the amortization analyses.
    device: DeviceParams {
        lifetime_years: f64 = 3.0 => "device.lifetime" ["device.lifetime_years"]
            semantic "Assumed device lifetime in years",
            Rule::Check("device.lifetime_years must be finite and positive", finite_positive);
        soc_budget_share: f64 = 0.5 => "device.soc_budget_share" []
            semantic "Share of a device's production carbon attributed to its SoC",
            Rule::Check("device.soc_budget_share must lie in (0, 1]", |v| *v > 0.0 && *v <= 1.0);
    }

    /// Fab parameters for the manufacturing-side experiments.
    fab: FabParams {
        node_nm: f64 = 3.0 => "fab.node_nm" ["fab.node"]
            semantic "Featured process node in nanometres",
            Rule::Check("fab.node_nm must be finite and positive", finite_positive);
        yield_factor: f64 = 1.0 => "fab.yield_factor" []
            semantic "Multiplier on the baseline defect density (1.0 = 0.1 /cm2)",
            Rule::Check("fab.yield_factor must lie in (0, 100]", |v| *v > 0.0 && *v <= 100.0);
        renewable_share: f64 = 0.2 => "fab.renewable_share" []
            semantic "Share of fab electricity from renewables",
            Rule::Check("fab.renewable_share must lie in [0, 1]", unit_interval);
    }

    /// Datacenter-fleet parameters: everything `cc_dcsim::Facility` needs to
    /// simulate a warehouse-scale facility over a planning horizon. The
    /// paper defaults pin the Prineville-like facility behind Fig 2 (left),
    /// so the default scenario replays the disclosed trajectory while any
    /// other fleet answers a capacity-planning question ("at what growth
    /// does construction carbon overtake operations?").
    fleet: FleetParams {
        scale: f64 = 1.0 => "fleet.scale" []
            semantic "Demand multiplier applied to fleet-sizing experiments",
            Rule::Check("fleet.scale must lie in (0, 1000000]", |v| *v > 0.0 && *v <= 1e6);
        sku: String = "web".to_string() => "fleet.sku" []
            semantic "Server SKU of a pure (single-SKU) fleet; a non-empty fleet.mix overrides it",
            Rule::With("one of: web, storage, ai-training", validate_sku);
        mix: Vec<(String, f64)> = Vec::new() => "fleet.mix" []
            semantic "Weighted fleet composition (`web:0.7,ai-training:0.3`); one SKU's weight is \
                      sweepable via `fleet.mix[<sku>]`, which renormalizes the rest",
            Rule::With(
                "known SKUs, no duplicates, weights >= 0 summing to 1; empty = pure fleet.sku",
                validate_mix,
            );
        sites: Vec<SiteParams> = Vec::new() => "fleet.sites" []
            semantic "Multi-site fleet composition (`main@default:0.7,pnw@hydro:0.3`); one site's \
                      share is sweepable via `fleet.sites[<site>].weight` (renormalizing the rest) \
                      and its region settable via `fleet.sites[<site>].region`",
            Rule::With(
                "unique names, weights >= 0 summing to 1, regions configured or builtin; \
                 empty = one `main` site in the `default` region",
                validate_sites,
            );
        deferrable: f64 = 0.2 => "fleet.deferrable" []
            semantic "Fraction of fleet IT energy that is deferrable batch work the carbon-aware \
                      scheduler may move across hours and sites",
            Rule::Check("fleet.deferrable must lie in [0, 1]", unit_interval);
        initial_servers: u64 = 60_000 => "fleet.initial_servers" []
            semantic "Servers in service in the facility's first simulated year",
            Rule::Check("fleet.initial_servers must be at least 1", |v| *v >= 1);
        growth: f64 = 1.28 => "fleet.growth" []
            semantic "Annual server-fleet growth factor (1.0 = flat fleet)",
            Rule::With(GROWTH_RULE, validate_growth);
        pue: f64 = 1.10 => "fleet.pue" []
            semantic "Power usage effectiveness of the facility",
            Rule::Check("fleet.pue must lie in [1, 10]", |v| (1.0..=10.0).contains(v));
        renewable_ramp: Vec<f64> = vec![0.05, 0.10, 0.20, 0.35, 0.60, 0.85, 1.0]
            => "fleet.renewable_ramp" ["fleet.ramp"]
            semantic "Renewable (PPA) coverage fraction per simulated year; last value holds",
            Rule::Check(
                "fleet.renewable_ramp must be non-empty with every value in [0, 1]",
                |v| !v.is_empty() && v.iter().all(unit_interval),
            );
        construction_kt: f64 = 150.0 => "fleet.construction_kt" ["fleet.construction"]
            semantic "Total construction embodied carbon in kt CO2e",
            Rule::Check(
                "fleet.construction_kt must lie in [0, 1000000] kt CO2e",
                |v| (0.0..=1e6).contains(v),
            );
        building_amortization_years: f64 = 20.0
            => "fleet.building_amortization_years" ["fleet.building_amortization"]
            semantic "Building-amortization window in years over which construction carbon is spread",
            Rule::Check(
                "fleet.building_amortization_years must be finite and at least 1",
                |v| v.is_finite() && *v >= 1.0,
            );
        start_year: u16 = 2013 => "fleet.start_year" []
            semantic "Calendar year the facility enters service (shifts the year axis)",
            Rule::Check("fleet.start_year must lie in 1900..=2100", |v| (1900..=2100).contains(v));
        horizon_years: u32 = 7 => "fleet.horizon_years" ["fleet.horizon"]
            semantic "Simulated planning horizon in years",
            Rule::Check("fleet.horizon_years must lie in 1..=200", |v| (1..=200).contains(v));
    }

    /// Monte-Carlo parameters for `ext-mc`.
    mc: McParams {
        seed: u64 = 10 => "mc.seed" []
            semantic "Base RNG seed for the Monte-Carlo experiment",
            Rule::Any("any");
        samples: u32 = 20_000 => "mc.samples" []
            semantic "Monte-Carlo trials per propagated headline",
            Rule::Check("mc.samples must lie in 1..=1000000", |v| {
                (1..=super::mc::MonteCarloMatrix::MAX_SAMPLES).contains(&(*v as usize))
            });
    }
}
