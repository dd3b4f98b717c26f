//! Scenario sweeps: matrix expansion and cross-scenario comparison.
//!
//! The paper's central observation is that carbon conclusions *flip* as the
//! scenario moves — a break-even that amortizes on the US grid never does on
//! wind. One scenario per invocation cannot show that; a sweep can. This
//! module turns `--sweep grid.intensity=10..800/100` strings into
//! [`SweepSpec`]s, expands the cartesian product of several specs over a base
//! [`Scenario`] into a lazily-generated [`ScenarioMatrix`] of labeled
//! [`ScenarioPoint`]s, and diffs one summary scalar across the points into a
//! [`Comparison`] artifact (table + JSON).

use super::{Scenario, ScenarioError, ScenarioOverlay};
use crate::experiment::ScalarThreshold;
use crate::json::JsonValue;
use crate::table::Table;
use cc_analysis::{crossover, stats};
use cc_data::energy_sources::EnergySource;
use std::collections::HashSet;
use std::sync::Arc;

/// One swept dimension: a dotted scenario path plus the values it takes.
///
/// Parsed from the `--sweep` grammar:
///
/// * range — `grid.intensity=10..800/100` (inclusive start, stepping until
///   the end; `/step` optional, defaulting to a quarter of the span, i.e.
///   five evenly spaced points),
/// * explicit list — `device.lifetime=2,3,4`, values parsed as the field's
///   type (so `grid.source=wind,coal` works),
/// * named source list — `grid.source=@sources` (all eight Table II
///   energy-source names) or `grid.intensity=@sources` (their intensities).
///
/// ```
/// use cc_report::SweepSpec;
///
/// let spec = SweepSpec::parse("grid.intensity=10..800/100").unwrap();
/// assert_eq!(spec.path, "grid.intensity");
/// assert_eq!(spec.values.len(), 8); // 10, 110, …, 710
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// The dotted scenario path being swept (`grid.intensity`).
    pub path: String,
    /// The values the path takes, as text for [`Scenario::set`];
    /// [`ScenarioMatrix::new`] applies and validates each over the run's
    /// base.
    pub values: Vec<String>,
}

impl SweepSpec {
    /// Parses a `path=values` sweep specification into its value list. The
    /// values are not applied here: a value valid over one base may be
    /// invalid over another, so [`ScenarioMatrix::new`] sets and validates
    /// each over the run's own base, where an unknown path or a wrongly
    /// typed value is reported.
    ///
    /// # Errors
    ///
    /// [`SweepError`] describing exactly which part of the spec is malformed,
    /// including a value list that names one value twice (each point writes
    /// one artifact named after its value).
    pub fn parse(text: &str) -> Result<Self, SweepError> {
        let malformed = |message: String| SweepError::Malformed {
            spec: text.to_string(),
            message,
        };
        let Some((path, values_text)) = text.split_once('=') else {
            return Err(malformed(
                "expected `path=values`, e.g. `grid.intensity=10..800/100`".to_string(),
            ));
        };
        let path = path.trim().to_string();
        let values_text = values_text.trim();
        if path.is_empty() {
            return Err(malformed("empty scenario path".to_string()));
        }
        if values_text.is_empty() {
            return Err(malformed("no values given".to_string()));
        }

        let values = if let Some(range) = values_text.find("..").map(|dots| {
            let (start, rest) = values_text.split_at(dots);
            (start, &rest[2..])
        }) {
            let (start_text, rest) = range;
            let (end_text, step_text) = match rest.split_once('/') {
                Some((end, step)) => (end, Some(step)),
                None => (rest, None),
            };
            let parse_num = |what: &str, s: &str| -> Result<f64, SweepError> {
                s.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| {
                        malformed(format!("{what} `{}` is not a finite number", s.trim()))
                    })
            };
            let start = parse_num("range start", start_text)?;
            let end = parse_num("range end", end_text)?;
            if end < start {
                return Err(malformed(format!("range end {end} is below start {start}")));
            }
            let step = match step_text {
                Some(s) => {
                    let step = parse_num("range step", s)?;
                    if step <= 0.0 {
                        return Err(malformed(format!("range step {step} must be positive")));
                    }
                    step
                }
                // No explicit step: five evenly spaced points (or a single
                // point for a degenerate start..start range).
                None if end > start => (end - start) / 4.0,
                None => 1.0,
            };
            let span = (end - start).max(1.0);
            let mut values = Vec::new();
            let mut i = 0u32;
            loop {
                let x = step.mul_add(f64::from(i), start);
                if x > end + 1e-9 * span {
                    break;
                }
                values.push(format_value(x));
                if values.len() > 10_000 {
                    return Err(malformed(
                        "range expands to more than 10000 points".to_string(),
                    ));
                }
                i += 1;
            }
            values
        } else if let Some(name) = values_text.strip_prefix('@') {
            match name {
                "sources" | "table2" => {
                    if path == "grid.source" {
                        EnergySource::ALL
                            .into_iter()
                            .map(|s| s.name().to_lowercase())
                            .collect()
                    } else if path.starts_with("grid.intensity") {
                        EnergySource::ALL
                            .into_iter()
                            .map(|s| format_value(s.carbon_intensity().as_g_per_kwh()))
                            .collect()
                    } else {
                        return Err(malformed(format!(
                            "named list `@{name}` only applies to grid.source or grid.intensity"
                        )));
                    }
                }
                other => {
                    return Err(malformed(format!(
                        "unknown named list `@{other}` (known: @sources)"
                    )))
                }
            }
        } else {
            let values: Vec<String> = values_text
                .split(',')
                .map(|v| v.trim().to_string())
                .collect();
            if values.iter().any(String::is_empty) {
                return Err(malformed("list has an empty element".to_string()));
            }
            values
        };
        let mut seen = HashSet::with_capacity(values.len());
        if let Some(repeat) = values.iter().find(|v| !seen.insert(v.as_str())) {
            return Err(malformed(format!(
                "value `{repeat}` is listed more than once"
            )));
        }
        Ok(Self { path, values })
    }
}

/// Formats a range point compactly (`710`, not `710.0000000000`), absorbing
/// accumulated floating-point noise like `0.30000000000000004`. Also the
/// canonical text for Monte-Carlo draws (`super::mc`), so sampled
/// assignments fingerprint and round-trip exactly like swept ones.
pub(crate) fn format_value(v: f64) -> String {
    let s = format!("{v:.10}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// One point of an expanded matrix: a copy-on-write overlay over the shared
/// base scenario plus the assignments that produced it. The overlay carries
/// only the swept sections as a delta, so expanding a 10k-point matrix
/// allocates 10k small deltas, not 10k full scenario clones.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPoint {
    /// Position in matrix expansion order (first spec slowest).
    pub index: usize,
    /// `key=value` assignments joined with `,` — the point's display label.
    /// Empty for the single point of a sweep-less matrix.
    pub label: String,
    /// The `(path, value)` assignments applied on top of the base scenario.
    pub assignments: Vec<(String, String)>,
    /// The applied scenario as a delta over the shared base (name suffixed
    /// with the label).
    pub overlay: ScenarioOverlay,
}

impl ScenarioPoint {
    /// The point's label, falling back to the scenario name when no sweep is
    /// active.
    #[must_use]
    pub fn display_label(&self) -> &str {
        if self.label.is_empty() {
            self.overlay.name()
        } else {
            &self.label
        }
    }

    /// The point as a JSON object (`index`, `label`, `assignments`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("index", JsonValue::Integer(self.index as u64)),
            ("label", JsonValue::from(self.display_label())),
            (
                "assignments",
                JsonValue::object(
                    self.assignments
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str()))),
                ),
            ),
        ])
    }
}

/// The cartesian product of sweep specs over a base scenario, expanded
/// lazily: points are materialized one at a time by [`Self::points`], so a
/// large grid costs memory proportional to one scenario, not the whole
/// product.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    base: Arc<Scenario>,
    specs: Vec<SweepSpec>,
}

impl ScenarioMatrix {
    /// The largest grid a matrix will expand: per-spec caps multiply, so the
    /// product — not the individual spec — is what needs bounding before a
    /// runner allocates per-point state (contexts, per-job scalar slots).
    pub const MAX_POINTS: usize = 10_000;

    /// Builds a matrix, probing every assignment against the base so that an
    /// invalid combination of base and sweep value is rejected up front.
    ///
    /// # Errors
    ///
    /// [`SweepError`] when any spec value fails to apply to (or validate
    /// against) the base scenario, when two specs sweep the same path (the
    /// later one would silently win at every point), or when the grid
    /// exceeds [`Self::MAX_POINTS`].
    pub fn new(base: Scenario, specs: Vec<SweepSpec>) -> Result<Self, SweepError> {
        let base = Arc::new(base);
        let mut points = 1usize;
        for (i, spec) in specs.iter().enumerate() {
            if spec.values.is_empty() {
                return Err(SweepError::Malformed {
                    spec: spec.path.clone(),
                    message: "spec has no values".to_string(),
                });
            }
            if specs[..i].iter().any(|prior| prior.path == spec.path) {
                return Err(SweepError::DuplicatePath(spec.path.clone()));
            }
            points = points
                .checked_mul(spec.values.len())
                .filter(|&n| n <= Self::MAX_POINTS)
                .ok_or(SweepError::TooLarge {
                    max: Self::MAX_POINTS,
                })?;
            for value in &spec.values {
                // Probing through an overlay clones only the touched
                // section, not the whole base scenario.
                let mut probe = ScenarioOverlay::new(Arc::clone(&base));
                probe.set(&spec.path, value).map_err(SweepError::Scenario)?;
                probe.validate().map_err(SweepError::Scenario)?;
            }
        }
        Ok(Self { base, specs })
    }

    /// The sweep specs, in nesting order (first varies slowest).
    #[must_use]
    pub fn specs(&self) -> &[SweepSpec] {
        &self.specs
    }

    /// Number of grid points (1 for a sweep-less matrix).
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.iter().map(|s| s.values.len()).product()
    }

    /// A matrix always has at least one point, so this is always `false`;
    /// provided for `len`/`is_empty` symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether more than one point exists (i.e. a sweep is actually active).
    #[must_use]
    pub fn is_sweep(&self) -> bool {
        self.len() > 1
    }

    /// Lazily iterates the grid points in row-major order: the *last* spec
    /// varies fastest, so `--sweep a=1,2 --sweep b=x,y` yields
    /// `a=1,b=x`, `a=1,b=y`, `a=2,b=x`, `a=2,b=y`.
    pub fn points(&self) -> impl Iterator<Item = ScenarioPoint> + '_ {
        (0..self.len()).map(|index| self.point(index))
    }

    /// Materializes the grid point at `index` (expansion order).
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`. Assignments cannot fail: every value was
    /// validated against the base in [`Self::new`].
    #[must_use]
    pub fn point(&self, index: usize) -> ScenarioPoint {
        assert!(index < self.len(), "point {index} out of range");
        let mut overlay = ScenarioOverlay::new(Arc::clone(&self.base));
        let mut assignments = Vec::with_capacity(self.specs.len());
        let mut label = String::new();
        // Row-major decode without a digits buffer: the first spec has the
        // largest stride (varies slowest), the last a stride of 1.
        let mut stride = self.len();
        for spec in &self.specs {
            stride /= spec.values.len();
            let value = &spec.values[(index / stride) % spec.values.len()];
            overlay
                .set(&spec.path, value)
                .expect("matrix assignments were validated at construction");
            if !label.is_empty() {
                label.push(',');
            }
            label.push_str(&spec.path);
            label.push('=');
            label.push_str(value);
            assignments.push((spec.path.clone(), value.clone()));
        }
        if !label.is_empty() {
            overlay.set_name(format!("{}[{label}]", self.base.name));
        }
        ScenarioPoint {
            index,
            label,
            assignments,
            overlay,
        }
    }
}

/// One row of a [`Comparison`]: a grid point's label and the metric value it
/// produced (`None` when the experiment attached no summary scalar there).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// The point's display label.
    pub label: String,
    /// The point's numeric position along the swept axis, when the sweep
    /// has a single numeric dimension (enables crossover analysis).
    pub x: Option<f64>,
    /// The metric value at that point, if any.
    pub value: Option<f64>,
}

/// A located threshold crossing: the swept-axis position where a
/// comparison's metric crosses its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossing {
    /// Position along the swept axis.
    pub at: f64,
    /// The human-readable sentence sweep reports print (e.g.
    /// `fig10: breakeven-days crosses 365 (one-year amortization) at
    /// grid.intensity ≈ 352`).
    pub line: String,
}

/// A cross-scenario diff of one metric over the points of a sweep: the
/// artifact that answers "where does the conclusion flip?" without opening
/// every per-point artifact.
///
/// The first point carrying a value is the baseline; every row reports its
/// delta and ratio against it, and [`Self::summary`] digests the spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The experiment key the metric comes from (`fig10`).
    pub experiment: String,
    /// The metric (summary-scalar) name being diffed.
    pub metric: String,
    /// The metric's unit label.
    pub unit: String,
    /// The swept dotted path, when the sweep has exactly one numeric
    /// dimension (the x-axis of crossover analysis).
    pub axis: Option<String>,
    /// The metric's decision threshold, when the experiment declared one on
    /// its summary scalar.
    pub threshold: Option<ScalarThreshold>,
    /// One row per grid point, in expansion order.
    pub rows: Vec<ComparisonRow>,
}

impl Comparison {
    /// An empty comparison for `experiment`'s `metric`.
    #[must_use]
    pub fn new(
        experiment: impl Into<String>,
        metric: impl Into<String>,
        unit: impl Into<String>,
    ) -> Self {
        Self {
            experiment: experiment.into(),
            metric: metric.into(),
            unit: unit.into(),
            axis: None,
            threshold: None,
            rows: Vec::new(),
        }
    }

    /// Declares the swept axis (a dotted scenario path) enabling crossover
    /// analysis over rows pushed with [`Self::push_at`].
    #[must_use]
    pub fn with_axis(mut self, axis: impl Into<String>) -> Self {
        self.axis = Some(axis.into());
        self
    }

    /// Declares the metric's decision threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: ScalarThreshold) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Appends one grid point's value.
    pub fn push(&mut self, label: impl Into<String>, value: Option<f64>) -> &mut Self {
        self.rows.push(ComparisonRow {
            label: label.into(),
            x: None,
            value,
        });
        self
    }

    /// Appends one grid point's value at a numeric position along the swept
    /// axis (the form crossover analysis consumes).
    pub fn push_at(&mut self, label: impl Into<String>, x: f64, value: Option<f64>) -> &mut Self {
        self.rows.push(ComparisonRow {
            label: label.into(),
            x: Some(x),
            value,
        });
        self
    }

    /// Where the metric crosses its declared threshold along the swept
    /// axis, via [`cc_analysis::crossover`] over the piecewise-linear
    /// interpolation of the rows. Empty without an axis, a threshold, or a
    /// bracketing pair of adjacent points.
    #[must_use]
    pub fn crossings(&self) -> Vec<Crossing> {
        let (Some(axis), Some(threshold)) = (&self.axis, &self.threshold) else {
            return Vec::new();
        };
        let mut points: Vec<(f64, f64)> = self
            .rows
            .iter()
            .filter_map(|r| Some((r.x?, r.value?)))
            .collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
        crossover::piecewise_crossings(&points, threshold.value)
            .into_iter()
            .map(|at| Crossing {
                at,
                line: format!(
                    "{}: {} crosses {} {} ({}) at {} ≈ {}",
                    self.experiment,
                    self.metric,
                    display_value(threshold.value),
                    self.unit,
                    threshold.label,
                    axis,
                    display_value(at),
                ),
            })
            .collect()
    }

    /// The baseline: the first row carrying a value.
    #[must_use]
    pub fn baseline(&self) -> Option<f64> {
        self.rows.iter().find_map(|r| r.value)
    }

    /// Summary statistics over the rows that carry values.
    #[must_use]
    pub fn summary(&self) -> Option<stats::Summary> {
        let values: Vec<f64> = self.rows.iter().filter_map(|r| r.value).collect();
        stats::summarize(&values)
    }

    /// The comparison as a table: point, value, delta and ratio vs baseline.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "Point".to_string(),
            format!("{} ({})", self.metric, self.unit),
            "Delta vs first".to_string(),
            "Ratio".to_string(),
        ]);
        let baseline = self.baseline();
        for row in &self.rows {
            let (value, delta, ratio) = match (row.value, baseline) {
                (Some(v), Some(b)) => {
                    let ratio = safe_ratio(v, b);
                    (
                        display_value(v),
                        display_signed(v - b),
                        if ratio.is_finite() {
                            format!("{}x", display_value(ratio))
                        } else {
                            "-".to_string()
                        },
                    )
                }
                (Some(v), None) => (display_value(v), "-".to_string(), "-".to_string()),
                (None, _) => ("n/a".to_string(), "-".to_string(), "-".to_string()),
            };
            t.row([row.label.clone(), value, delta, ratio]);
        }
        t
    }

    /// The comparison as a JSON object, including per-row deltas/ratios and
    /// the summary digest.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let baseline = self.baseline();
        JsonValue::object([
            ("experiment", JsonValue::from(self.experiment.as_str())),
            ("metric", JsonValue::from(self.metric.as_str())),
            ("unit", JsonValue::from(self.unit.as_str())),
            (
                "axis",
                self.axis
                    .as_deref()
                    .map_or(JsonValue::Null, JsonValue::from),
            ),
            (
                "threshold",
                self.threshold
                    .as_ref()
                    .map_or(JsonValue::Null, ScalarThreshold::to_json),
            ),
            (
                "crossings",
                JsonValue::array(self.crossings().into_iter().map(|c| {
                    JsonValue::object([
                        ("at", JsonValue::from(c.at)),
                        ("line", JsonValue::from(c.line.as_str())),
                    ])
                })),
            ),
            (
                "baseline",
                baseline.map_or(JsonValue::Null, JsonValue::from),
            ),
            (
                "rows",
                JsonValue::array(self.rows.iter().map(|row| {
                    JsonValue::object([
                        ("label", JsonValue::from(row.label.as_str())),
                        ("x", row.x.map_or(JsonValue::Null, JsonValue::from)),
                        ("value", row.value.map_or(JsonValue::Null, JsonValue::from)),
                        (
                            "delta",
                            match (row.value, baseline) {
                                (Some(v), Some(b)) => JsonValue::from(v - b),
                                _ => JsonValue::Null,
                            },
                        ),
                        (
                            "ratio",
                            match (row.value, baseline) {
                                (Some(v), Some(b)) => JsonValue::from(safe_ratio(v, b)),
                                _ => JsonValue::Null,
                            },
                        ),
                    ])
                })),
            ),
            (
                "stats",
                self.summary().map_or(JsonValue::Null, |s| {
                    JsonValue::object([
                        ("n", JsonValue::Integer(s.n as u64)),
                        ("mean", JsonValue::from(s.mean)),
                        ("stddev", JsonValue::from(s.stddev)),
                        ("min", JsonValue::from(s.min)),
                        ("max", JsonValue::from(s.max)),
                        (
                            "spread_ratio",
                            s.spread_ratio().map_or(JsonValue::Null, JsonValue::from),
                        ),
                    ])
                }),
            ),
        ])
    }
}

/// `v / b`, with a zero baseline mapping to NaN (rendered as `null`/`-`).
fn safe_ratio(v: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        v / b
    }
}

/// Human-facing table cell: at most 4 decimals, trailing zeros trimmed (the
/// JSON artifact keeps full precision). Shared with the Monte-Carlo banded
/// headlines (`super::mc`).
pub(crate) fn display_value(v: f64) -> String {
    let s = format!("{v:.4}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// [`display_value`] with an explicit sign, for delta cells.
fn display_signed(v: f64) -> String {
    if v.is_sign_negative() && v != 0.0 {
        display_value(v)
    } else {
        format!("+{}", display_value(v))
    }
}

/// Errors from sweep-spec parsing and matrix construction.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec text itself is malformed.
    Malformed {
        /// The offending spec, verbatim.
        spec: String,
        /// What is wrong with it.
        message: String,
    },
    /// A value failed to apply to the scenario (unknown path, wrong type,
    /// out of physical range).
    Scenario(ScenarioError),
    /// Two specs sweep the same dotted path.
    DuplicatePath(String),
    /// The cartesian product exceeds [`ScenarioMatrix::MAX_POINTS`].
    TooLarge {
        /// The grid-size cap that was exceeded.
        max: usize,
    },
    /// A Monte-Carlo draw failed to apply to, or validate in, its sampled
    /// point ([`super::mc::MonteCarloMatrix::point`]).
    Sample {
        /// The sample's index.
        index: usize,
        /// The binding that drew the value, as `path ~ spec`.
        binding: String,
        /// The drawn value's canonical text.
        value: String,
        /// Why the point rejected it.
        error: ScenarioError,
    },
}

impl core::fmt::Display for SweepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Malformed { spec, message } => {
                write!(f, "invalid sweep `{spec}`: {message}")
            }
            Self::Scenario(e) => write!(f, "invalid sweep: {e}"),
            Self::DuplicatePath(path) => {
                write!(f, "invalid sweep: `{path}` is swept more than once")
            }
            Self::TooLarge { max } => {
                write!(f, "invalid sweep: grid exceeds {max} points")
            }
            Self::Sample {
                index,
                binding,
                value,
                error,
            } => write!(
                f,
                "Monte-Carlo sample {index} of `{binding}` drew {value}: {error}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::deps::FieldSource;

    #[test]
    fn range_form_expands_inclusively() {
        let spec = SweepSpec::parse("grid.intensity=10..800/100").unwrap();
        assert_eq!(spec.path, "grid.intensity");
        assert_eq!(
            spec.values,
            ["10", "110", "210", "310", "410", "510", "610", "710"]
        );
        // An end that lands exactly on a step is included.
        let spec = SweepSpec::parse("grid.intensity=100..400/100").unwrap();
        assert_eq!(spec.values, ["100", "200", "300", "400"]);
        // Fractional steps don't accumulate float noise in labels.
        let spec = SweepSpec::parse("fab.renewable_share=0..0.4/0.1").unwrap();
        assert_eq!(spec.values, ["0", "0.1", "0.2", "0.3", "0.4"]);
    }

    #[test]
    fn stepless_range_yields_five_points() {
        let spec = SweepSpec::parse("device.lifetime=1..5").unwrap();
        assert_eq!(spec.values, ["1", "2", "3", "4", "5"]);
        let degenerate = SweepSpec::parse("device.lifetime=3..3").unwrap();
        assert_eq!(degenerate.values, ["3"]);
    }

    #[test]
    fn list_and_named_source_forms() {
        let spec = SweepSpec::parse("grid.intensity=50, 380 ,700").unwrap();
        assert_eq!(spec.values, ["50", "380", "700"]);
        let sources = SweepSpec::parse("grid.source=@sources").unwrap();
        assert_eq!(sources.values.len(), 8);
        assert!(sources.values.contains(&"wind".to_string()));
        assert!(sources.values.contains(&"coal".to_string()));
        let intensities = SweepSpec::parse("grid.intensity=@sources").unwrap();
        assert!(intensities.values.contains(&"820".to_string()));
        assert!(intensities.values.contains(&"11".to_string()));
        // Single-value "list" is a one-point sweep.
        let single = SweepSpec::parse("fleet.scale=2").unwrap();
        assert_eq!(single.values, ["2"]);
    }

    #[test]
    fn invalid_specs_fail_with_clear_messages() {
        let err = |text: &str| SweepSpec::parse(text).unwrap_err().to_string();
        assert!(err("grid.intensity").contains("path=values"));
        assert!(err("grid.intensity=").contains("no values"));
        assert!(err("=1,2").contains("empty scenario path"));
        assert!(err("grid.intensity=800..10/100").contains("below start"));
        assert!(err("grid.intensity=10..800/0").contains("must be positive"));
        assert!(err("grid.intensity=10..xyz").contains("not a finite number"));
        assert!(err("grid.intensity=1,,3").contains("empty element"));
        assert!(err("device.lifetime=@sources").contains("only applies"));
        assert!(err("grid.source=@nope").contains("known: @sources"));
    }

    #[test]
    fn repeated_values_are_rejected() {
        let err = |text: &str| SweepSpec::parse(text).unwrap_err().to_string();
        assert!(err("grid.intensity=50,50").contains("value `50` is listed more than once"));
        assert!(err("grid.source=wind,coal,wind").contains("`wind` is listed more than once"));
        // Range points that format to one label repeat too.
        assert!(err("grid.intensity=1..1.00000000001/0.000000000001").contains("more than once"));
        // Distinct values, and the named lists, still parse.
        assert!(SweepSpec::parse("grid.intensity=50,500").is_ok());
        assert!(SweepSpec::parse("grid.intensity=@sources").is_ok());
    }

    #[test]
    fn two_spec_matrix_expands_row_major_with_labels() {
        let specs = vec![
            SweepSpec::parse("grid.intensity=100,200").unwrap(),
            SweepSpec::parse("device.lifetime=3,4,5").unwrap(),
        ];
        let matrix = ScenarioMatrix::new(Scenario::paper_defaults(), specs).unwrap();
        assert_eq!(matrix.len(), 6);
        assert!(matrix.is_sweep());
        assert!(!matrix.is_empty());
        let points: Vec<ScenarioPoint> = matrix.points().collect();
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "grid.intensity=100,device.lifetime=3",
                "grid.intensity=100,device.lifetime=4",
                "grid.intensity=100,device.lifetime=5",
                "grid.intensity=200,device.lifetime=3",
                "grid.intensity=200,device.lifetime=4",
                "grid.intensity=200,device.lifetime=5",
            ]
        );
        assert_eq!(points[4].overlay.grid().intensity_g_per_kwh, 200.0);
        assert_eq!(points[4].overlay.device().lifetime_years, 4.0);
        assert_eq!(
            points[4].overlay.name(),
            "paper[grid.intensity=200,device.lifetime=4]"
        );
        assert_eq!(points[4].index, 4);
        for p in &points {
            p.overlay.validate().unwrap();
            // The delta carries only the touched sections; the rest resolve
            // to the shared base.
            assert_eq!(p.overlay.fleet(), &Scenario::paper_defaults().fleet);
        }
        // The point resolves to exactly what clone-then-set builds.
        let mut by_hand = Scenario::paper_defaults();
        by_hand.set("grid.intensity", "200").unwrap();
        by_hand.set("device.lifetime", "4").unwrap();
        by_hand.name = "paper[grid.intensity=200,device.lifetime=4]".to_string();
        assert_eq!(points[4].overlay.view(), by_hand.view());
    }

    #[test]
    fn sweepless_matrix_is_the_base_point() {
        let matrix = ScenarioMatrix::new(Scenario::paper_defaults(), Vec::new()).unwrap();
        assert_eq!(matrix.len(), 1);
        assert!(!matrix.is_sweep());
        let p = matrix.point(0);
        assert!(p.label.is_empty());
        assert_eq!(p.display_label(), "paper");
        assert_eq!(p.overlay.view(), Scenario::paper_defaults().view());
        assert!(p.to_json().render().contains(r#""label":"paper""#));
    }

    #[test]
    fn matrix_rejects_values_invalid_against_the_base() {
        // 0 parses as f64 but fails physical validation.
        let specs = vec![SweepSpec {
            path: "grid.intensity".to_string(),
            values: vec!["380".to_string(), "0".to_string()],
        }];
        let err = ScenarioMatrix::new(Scenario::paper_defaults(), specs).unwrap_err();
        assert!(err.to_string().contains("grid.intensity"));
        let empty = vec![SweepSpec {
            path: "grid.intensity".to_string(),
            values: Vec::new(),
        }];
        assert!(ScenarioMatrix::new(Scenario::paper_defaults(), empty).is_err());
        // An unknown path, a wrongly typed value and an out-of-range value
        // are all reported by the matrix, not by `SweepSpec::parse`.
        let err = |text: &str| {
            let spec = SweepSpec::parse(text).unwrap();
            ScenarioMatrix::new(Scenario::paper_defaults(), vec![spec])
                .unwrap_err()
                .to_string()
        };
        assert!(err("grid.nope=1,2").contains("unknown scenario key"));
        assert!(err("grid.intensity=dirty,clean").contains("invalid value"));
        assert!(err("grid.renewable_fraction=0.5,2").contains("renewable_fraction"));
        assert!(err("grid.source=wind,unobtainium").contains("unknown energy source"));
    }

    #[test]
    fn matrix_accepts_values_valid_over_its_own_base() {
        // Each sweep fails over the paper defaults but holds over its base.
        for (set, sweep) in [
            (
                ("fleet.mix", "web:0.5,storage:0.5"),
                "fleet.mix[web]=0.3,0.7",
            ),
            (("fleet.horizon_years", "2"), "fleet.growth=30,40"),
        ] {
            let spec = || vec![SweepSpec::parse(sweep).unwrap()];
            assert!(ScenarioMatrix::new(Scenario::paper_defaults(), spec()).is_err());
            let mut base = Scenario::paper_defaults();
            base.set(set.0, set.1).unwrap();
            let matrix = ScenarioMatrix::new(base, spec()).unwrap();
            assert_eq!(matrix.len(), 2, "{sweep}");
        }
    }

    #[test]
    fn matrix_rejects_duplicate_paths_and_oversized_grids() {
        let dup = vec![
            SweepSpec::parse("grid.intensity=50,380").unwrap(),
            SweepSpec::parse("grid.intensity=700,800").unwrap(),
        ];
        let err = ScenarioMatrix::new(Scenario::paper_defaults(), dup).unwrap_err();
        assert!(matches!(err, SweepError::DuplicatePath(_)));
        assert!(err.to_string().contains("more than once"));

        // 5000 x 5000 points overflows the grid cap long before any
        // per-point state is allocated.
        let huge = vec![
            SweepSpec::parse("grid.intensity=1..5000/1").unwrap(),
            SweepSpec::parse("device.lifetime=1..5000/1").unwrap(),
        ];
        let err = ScenarioMatrix::new(Scenario::paper_defaults(), huge).unwrap_err();
        assert!(matches!(err, SweepError::TooLarge { .. }));
        assert!(err
            .to_string()
            .contains(&ScenarioMatrix::MAX_POINTS.to_string()));
    }

    #[test]
    fn zero_baseline_renders_dash_ratios() {
        let mut c = Comparison::new("x", "m", "u");
        c.push("a", Some(0.0)).push("b", Some(5.0));
        let t = c.to_table();
        assert_eq!(t.rows()[1][3], "-", "NaN ratio must not leak into cells");
        assert!(c.to_json().render().contains(r#""ratio":null"#));
    }

    #[test]
    fn source_sweep_points_resolve_intensities() {
        let specs = vec![SweepSpec::parse("grid.source=wind,coal").unwrap()];
        let matrix = ScenarioMatrix::new(Scenario::paper_defaults(), specs).unwrap();
        let points: Vec<ScenarioPoint> = matrix.points().collect();
        assert_eq!(points[0].overlay.grid().intensity_g_per_kwh, 11.0);
        assert_eq!(points[1].overlay.grid().intensity_g_per_kwh, 820.0);
    }

    #[test]
    fn comparison_diffs_against_the_first_value() {
        let mut c = Comparison::new("fig10", "breakeven-days", "days");
        c.push("grid.intensity=380", Some(350.0))
            .push("grid.intensity=50", Some(2660.0))
            .push("grid.intensity=700", Some(190.0))
            .push("grid.intensity=0", None);
        assert_eq!(c.baseline(), Some(350.0));
        let t = c.to_table();
        assert_eq!(t.rows().len(), 4);
        assert_eq!(t.rows()[1][2], "+2310");
        assert_eq!(t.rows()[1][3], "7.6x");
        assert_eq!(t.rows()[3][1], "n/a");
        let s = c.summary().unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 190.0);
        assert_eq!(s.max, 2660.0);
        let json = c.to_json().render();
        assert!(json.contains(r#""experiment":"fig10""#));
        assert!(json.contains(r#""baseline":350.0"#));
        assert!(json.contains(r#""spread_ratio":14.0"#));
        // The valueless row carries nulls, not omissions.
        assert!(json.contains(
            r#"{"label":"grid.intensity=0","x":null,"value":null,"delta":null,"ratio":null}"#
        ));
    }

    #[test]
    fn crossings_locate_the_threshold_on_the_swept_axis() {
        let mut c = Comparison::new("fig10", "breakeven-days", "days")
            .with_axis("grid.intensity")
            .with_threshold(ScalarThreshold {
                value: 365.0,
                label: "one-year amortization".to_string(),
            });
        // Break-even days fall as the grid gets dirtier.
        c.push_at("grid.intensity=100", 100.0, Some(1330.0))
            .push_at("grid.intensity=400", 400.0, Some(332.5))
            .push_at("grid.intensity=700", 700.0, Some(190.0));
        let crossings = c.crossings();
        assert_eq!(crossings.len(), 1);
        // Linear interpolation between (100, 1330) and (400, 332.5).
        let expect = 100.0 + 300.0 * (1330.0 - 365.0) / (1330.0 - 332.5);
        assert!((crossings[0].at - expect).abs() < 1e-6, "{crossings:?}");
        assert!(crossings[0]
            .line
            .contains("breakeven-days crosses 365 days"));
        assert!(crossings[0].line.contains("one-year amortization"));
        assert!(crossings[0].line.contains("grid.intensity ≈"));
        let json = c.to_json().render();
        assert!(json.contains(r#""axis":"grid.intensity""#));
        assert!(json.contains(r#""crossings":[{"at":"#));
        assert!(json.contains("crosses 365 days"));
    }

    #[test]
    fn crossings_require_axis_threshold_and_bracketing() {
        // No axis/threshold: no crossings, and JSON carries explicit nulls.
        let mut plain = Comparison::new("x", "m", "u");
        plain
            .push_at("a", 1.0, Some(0.0))
            .push_at("b", 2.0, Some(10.0));
        assert!(plain.crossings().is_empty());
        assert!(plain.to_json().render().contains(r#""crossings":[]"#));

        // Axis + threshold but the metric never brackets it.
        let mut flat = Comparison::new("x", "m", "u")
            .with_axis("fleet.growth")
            .with_threshold(ScalarThreshold {
                value: 100.0,
                label: "never".to_string(),
            });
        flat.push_at("a", 1.0, Some(1.0))
            .push_at("b", 2.0, Some(2.0));
        assert!(flat.crossings().is_empty());

        // Rows without numeric positions (label-only sweeps) are skipped.
        let mut labeled = Comparison::new("x", "m", "u")
            .with_axis("grid.source")
            .with_threshold(ScalarThreshold {
                value: 5.0,
                label: "t".to_string(),
            });
        labeled.push("wind", Some(0.0)).push("coal", Some(10.0));
        assert!(labeled.crossings().is_empty());
    }

    #[test]
    fn empty_comparison_is_well_formed() {
        let c = Comparison::new("fig10", "m", "u");
        assert_eq!(c.baseline(), None);
        assert_eq!(c.summary(), None);
        assert!(c.to_table().rows().is_empty());
        assert!(c.to_json().render().contains(r#""stats":null"#));
    }

    #[test]
    fn format_value_is_compact() {
        assert_eq!(format_value(710.0), "710");
        assert_eq!(format_value(0.1 + 0.2), "0.3");
        assert_eq!(format_value(-2.5), "-2.5");
        assert_eq!(format_value(0.0), "0");
    }
}
