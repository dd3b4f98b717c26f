//! Monte-Carlo scenario sampling: distributions over scenario fields.
//!
//! A value sweep ([`super::sweep::ScenarioMatrix`]) walks a field over a
//! handful of chosen points; a Monte-Carlo matrix draws it from a
//! *distribution* — `fab.node_nm ~ triangular(5,7,10)` — and pumps
//! thousands of sampled scenario points through the same overlay,
//! fingerprint and cache machinery. Each sampled point is an ordinary
//! [`ScenarioPoint`]: a copy-on-write overlay whose assignments carry the
//! canonical text of the drawn values, so dependency fingerprints, disk
//! caching and byte-reproducibility all work exactly as they do for value
//! sweeps.
//!
//! Sampling is deterministic and *order-free*: point `i` derives its own
//! RNG stream from `(seed, i)` (splitmix-mixed so streams never overlap),
//! which makes `point(i)` a pure function — the same seed yields the same
//! 10⁴ scenarios whether they are generated by one thread or sixteen, in
//! any order.

use super::deps::{resolve, FieldInfo};
use super::sweep::{display_value, format_value, ScenarioPoint, SweepError};
use super::{Scenario, ScenarioError, ScenarioOverlay};
use crate::experiment::ScalarThreshold;
use crate::json::JsonValue;
use crate::table::Table;
use cc_analysis::dist::DistSpec;
use cc_analysis::rng::{Rng, SplitMix64};
use cc_analysis::stats::BandedSummary;
use std::sync::Arc;

/// One sampled dimension: a dotted scenario path bound to a distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistBinding {
    /// The dotted scenario path being sampled (`fab.node_nm`).
    pub path: String,
    /// The distribution its values are drawn from.
    pub spec: DistSpec,
}

impl DistBinding {
    /// Parses a `path ~ dist(args)` binding (whitespace around the `~` is
    /// optional): `fab.node_nm ~ triangular(5,7,10)`.
    ///
    /// # Errors
    ///
    /// [`SweepError::Malformed`] naming the offending part of the binding.
    pub fn parse(text: &str) -> Result<Self, SweepError> {
        let malformed = |message: String| SweepError::Malformed {
            spec: text.to_string(),
            message,
        };
        let Some((path, spec_text)) = text.split_once('~') else {
            return Err(malformed(
                "expected `path ~ distribution`, e.g. `fab.node_nm ~ triangular(5,7,10)`"
                    .to_string(),
            ));
        };
        let path = path.trim().to_string();
        if path.is_empty() {
            return Err(malformed("empty scenario path".to_string()));
        }
        let spec = DistSpec::parse(spec_text).map_err(|e| malformed(e.to_string()))?;
        Ok(Self { path, spec })
    }

    /// The canonical `path ~ spec` text of the binding.
    #[must_use]
    pub fn display(&self) -> String {
        format!("{} ~ {}", self.path, self.spec)
    }
}

/// A Monte-Carlo expansion of distribution bindings over a base scenario:
/// `samples` scenario points, each drawing every bound field once from its
/// distribution with a per-point deterministic RNG stream.
///
/// ```
/// use cc_report::{MonteCarloMatrix, Scenario, DistBinding};
///
/// let binding = DistBinding::parse("fab.node_nm ~ triangular(5,7,10)").unwrap();
/// let mc = MonteCarloMatrix::new(Scenario::paper_defaults(), vec![binding], 1000, 7).unwrap();
/// assert_eq!(mc.len(), 1000);
/// let p = mc.point(42).unwrap();
/// let node: f64 = p.assignments[0].1.parse().unwrap();
/// assert!((5.0..=10.0).contains(&node));
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarloMatrix {
    base: Arc<Scenario>,
    bindings: Vec<DistBinding>,
    samples: usize,
    seed: u64,
}

impl MonteCarloMatrix {
    /// The largest sample count a matrix accepts. Streaming statistics keep
    /// memory flat, so the cap only bounds wall-clock time.
    pub const MAX_SAMPLES: usize = 1_000_000;

    /// Builds a matrix, probing each binding's central value (mode,
    /// midpoint or mean) against the base scenario so an unknown path, a
    /// field that accepts no distribution or a centrally-invalid
    /// distribution is rejected before any sampling.
    ///
    /// # Errors
    ///
    /// [`SweepError`] when there are no bindings, a path is bound twice,
    /// `samples` is 0 or exceeds [`Self::MAX_SAMPLES`], a path does not
    /// resolve to a [`FieldInfo::distribution_eligible`] field, or a
    /// central value fails to apply to (or validate against) the base
    /// scenario.
    pub fn new(
        base: Scenario,
        bindings: Vec<DistBinding>,
        samples: usize,
        seed: u64,
    ) -> Result<Self, SweepError> {
        if bindings.is_empty() {
            return Err(SweepError::Malformed {
                spec: String::new(),
                message: "a Monte-Carlo run needs at least one `path ~ distribution` binding"
                    .to_string(),
            });
        }
        if samples == 0 || samples > Self::MAX_SAMPLES {
            return Err(SweepError::Malformed {
                spec: format!("--samples {samples}"),
                message: format!("sample count must lie in 1..={}", Self::MAX_SAMPLES),
            });
        }
        let base = Arc::new(base);
        for (i, binding) in bindings.iter().enumerate() {
            if bindings[..i].iter().any(|prior| prior.path == binding.path) {
                return Err(SweepError::DuplicatePath(binding.path.clone()));
            }
            let mut probe = ScenarioOverlay::new(Arc::clone(&base));
            let applied = probe.set(&binding.path, &format_value(binding.spec.central()));
            if let Err(unknown @ ScenarioError::UnknownKey(_)) = applied {
                return Err(SweepError::Scenario(unknown));
            }
            // Bracket paths set fine but are not rows, so they are not
            // eligible either.
            if !resolve(&binding.path).is_some_and(FieldInfo::distribution_eligible) {
                return Err(SweepError::Malformed {
                    spec: binding.display(),
                    message: format!(
                        "`{}` accepts no distribution: only `f64`-typed semantic fields \
                         accept a binding (the Dist? column of the scenario reference)",
                        binding.path
                    ),
                });
            }
            applied.map_err(SweepError::Scenario)?;
            probe.validate().map_err(SweepError::Scenario)?;
        }
        Ok(Self {
            base,
            bindings,
            samples,
            seed,
        })
    }

    /// The base scenario every sampled point starts from.
    #[must_use]
    pub fn base(&self) -> &Scenario {
        self.base.as_ref()
    }

    /// The distribution bindings, in declaration order.
    #[must_use]
    pub fn bindings(&self) -> &[DistBinding] {
        &self.bindings
    }

    /// Number of sampled points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples
    }

    /// A matrix always has at least one sample; provided for `len` symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The base RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Materializes sampled point `index`. Pure in `(seed, index)`: points
    /// can be generated in any order, on any thread, with identical
    /// results.
    ///
    /// # Errors
    ///
    /// [`SweepError::Sample`] naming the sample and drawn value when a
    /// draw lands outside the field's physical range (possible for
    /// unbounded `normal` tails — tighten `sigma` or switch to a bounded
    /// family).
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn point(&self, index: usize) -> Result<ScenarioPoint, SweepError> {
        assert!(index < self.samples, "sample {index} out of range");
        // Derive an independent stream per point: splitmix-mix the
        // (seed, index) pair so consecutive points' state sequences never
        // overlap even though each point draws only a few values.
        let stream = SplitMix64::seed_from_u64(
            self.seed
                .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        )
        .next_u64();
        let mut rng = SplitMix64::seed_from_u64(stream);

        let mut overlay = ScenarioOverlay::new(Arc::clone(&self.base));
        let mut assignments = Vec::with_capacity(self.bindings.len());
        let mut label = String::new();
        for binding in &self.bindings {
            let drawn = binding.spec.sample(&mut rng);
            // The canonical value text — not the f64 — is what the overlay,
            // the fingerprint and the artifact metadata all see, so a
            // sample is reproducible from its assignments alone.
            let value = format_value(drawn);
            let sample_error = |error| SweepError::Sample {
                index,
                binding: binding.display(),
                value: value.clone(),
                error,
            };
            overlay.set(&binding.path, &value).map_err(sample_error)?;
            overlay.validate().map_err(sample_error)?;
            if !label.is_empty() {
                label.push(',');
            }
            label.push_str(&binding.path);
            label.push('=');
            label.push_str(&value);
            assignments.push((binding.path.clone(), value));
        }
        overlay.set_name(format!("{}[mc#{index}]", self.base.name));
        Ok(ScenarioPoint {
            index,
            label,
            assignments,
            overlay,
        })
    }

    /// The matrix's sampling parameters as a JSON object
    /// (`samples`, `seed`, `dists`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("samples", JsonValue::Integer(self.samples as u64)),
            ("seed", JsonValue::Integer(self.seed)),
            (
                "dists",
                JsonValue::array(self.bindings.iter().map(|b| {
                    JsonValue::object([
                        ("path", JsonValue::from(b.path.as_str())),
                        ("spec", JsonValue::from(b.spec.to_string().as_str())),
                    ])
                })),
            ),
        ])
    }
}

/// The distribution of one experiment metric over a Monte-Carlo matrix:
/// the streaming-statistics analogue of a [`super::sweep::Comparison`].
/// Instead of per-point rows (which would buffer the whole sample) it
/// carries the eight-number [`BandedSummary`] digest and renders as a
/// confidence-banded headline.
#[derive(Debug, Clone, PartialEq)]
pub struct McComparison {
    /// The experiment key the metric comes from (`ext-facility`).
    pub experiment: String,
    /// The metric (summary-scalar) name being digested.
    pub metric: String,
    /// The metric's unit label.
    pub unit: String,
    /// The metric's decision threshold, when the experiment declared one.
    pub threshold: Option<ScalarThreshold>,
    /// Streaming digest of the metric across every sampled point.
    pub stats: BandedSummary,
}

impl McComparison {
    /// The one-line banded headline:
    /// `ext-facility: cumulative-breakeven-year 2014.6, 90% CI ±0.8 year
    /// (p05 2013.8, p95 2015.4; n=10000)`.
    #[must_use]
    pub fn banded_line(&self) -> String {
        format!(
            "{}: {} {}, 90% CI ±{} {} (p05 {}, p95 {}; n={})",
            self.experiment,
            self.metric,
            display_value(self.stats.mean),
            display_value(self.stats.ci90_half_width()),
            self.unit,
            display_value(self.stats.p05),
            display_value(self.stats.p95),
            self.stats.n,
        )
    }

    /// The digest as a two-column table (statistic, value).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "Statistic".to_string(),
            format!("{} ({})", self.metric, self.unit),
        ]);
        let s = &self.stats;
        for (name, value) in [
            ("mean", s.mean),
            ("stddev", s.stddev),
            ("min", s.min),
            ("p05", s.p05),
            ("p50", s.p50),
            ("p95", s.p95),
            ("max", s.max),
            // ASCII label: the table pads by byte length, and a `±` would
            // skew the column.
            ("90% CI half-width", s.ci90_half_width()),
        ] {
            t.row([name.to_string(), display_value(value)]);
        }
        t.row(["n".to_string(), s.n.to_string()]);
        t
    }

    /// The comparison as a JSON object, full precision.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let s = &self.stats;
        JsonValue::object([
            ("experiment", JsonValue::from(self.experiment.as_str())),
            ("metric", JsonValue::from(self.metric.as_str())),
            ("unit", JsonValue::from(self.unit.as_str())),
            (
                "threshold",
                self.threshold
                    .as_ref()
                    .map_or(JsonValue::Null, ScalarThreshold::to_json),
            ),
            (
                "stats",
                JsonValue::object([
                    ("n", JsonValue::Integer(s.n)),
                    ("mean", JsonValue::from(s.mean)),
                    ("stddev", JsonValue::from(s.stddev)),
                    ("min", JsonValue::from(s.min)),
                    ("max", JsonValue::from(s.max)),
                    ("p05", JsonValue::from(s.p05)),
                    ("p50", JsonValue::from(s.p50)),
                    ("p95", JsonValue::from(s.p95)),
                    ("ci90_half_width", JsonValue::from(s.ci90_half_width())),
                ]),
            ),
            ("line", JsonValue::from(self.banded_line().as_str())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binding(text: &str) -> DistBinding {
        DistBinding::parse(text).unwrap()
    }

    #[test]
    fn binding_parses_with_and_without_spaces() {
        let spaced = binding("fab.node_nm ~ triangular(5,7,10)");
        assert_eq!(spaced.path, "fab.node_nm");
        assert_eq!(spaced.spec.to_string(), "triangular(5,7,10)");
        assert_eq!(spaced, binding("fab.node_nm~triangular(5,7,10)"));
        assert_eq!(spaced.display(), "fab.node_nm ~ triangular(5,7,10)");
    }

    #[test]
    fn binding_rejects_malformed_input() {
        let err = |text: &str| DistBinding::parse(text).unwrap_err().to_string();
        assert!(err("fab.node_nm").contains("path ~ distribution"));
        assert!(err("~ uniform(1,2)").contains("empty scenario path"));
        assert!(err("fab.node_nm ~ parabola(1,2)").contains("unknown distribution"));
        assert!(err("fab.node_nm ~ uniform(2,1)").contains("low < high"));
    }

    #[test]
    fn matrix_validates_paths_and_sample_counts() {
        let b = || vec![binding("fleet.growth ~ uniform(1.2,1.4)")];
        let base = Scenario::paper_defaults;
        assert!(MonteCarloMatrix::new(base(), b(), 100, 7).is_ok());
        let err = MonteCarloMatrix::new(base(), Vec::new(), 100, 7).unwrap_err();
        assert!(err.to_string().contains("at least one"));
        let err = MonteCarloMatrix::new(base(), b(), 0, 7).unwrap_err();
        assert!(err.to_string().contains("1..="));
        let err =
            MonteCarloMatrix::new(base(), b(), MonteCarloMatrix::MAX_SAMPLES + 1, 7).unwrap_err();
        assert!(err.to_string().contains("1..="));
        let dup = vec![
            binding("fleet.growth ~ uniform(1.2,1.4)"),
            binding("fleet.growth ~ uniform(1.0,1.1)"),
        ];
        assert!(matches!(
            MonteCarloMatrix::new(base(), dup, 100, 7),
            Err(SweepError::DuplicatePath(_))
        ));
        // Unknown path and non-numeric field fail at construction.
        let err = MonteCarloMatrix::new(base(), vec![binding("grid.nope ~ uniform(1,2)")], 10, 7);
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("unknown scenario key"));
        // Only rows marked Dist? accept a binding: labels, integers and
        // bracket paths are refused up front, naming the rule.
        for path in [
            "name",
            "grid.source",
            "mc.seed",
            "fleet.initial_servers",
            "grid.region.x.trace",
            "fleet.mix[ai-training]",
            "fleet.sites[pnw].weight",
        ] {
            let bound = binding(&format!("{path} ~ uniform(0.1,0.3)"));
            let err = MonteCarloMatrix::new(base(), vec![bound], 20, 7).unwrap_err();
            assert!(
                err.to_string().contains(
                    "accepts no distribution: only `f64`-typed semantic fields accept a binding"
                ),
                "{path}: {err}"
            );
        }
        // Aliases resolve to their (eligible) row.
        let alias = vec![binding("fab.node ~ uniform(5,7)")];
        assert!(MonteCarloMatrix::new(base(), alias, 10, 7).is_ok());
        // Centrally-invalid distribution fails before sampling.
        let err =
            MonteCarloMatrix::new(base(), vec![binding("fleet.pue ~ uniform(0.1,0.2)")], 10, 7);
        assert!(err.unwrap_err().to_string().contains("pue"));
    }

    #[test]
    fn points_are_pure_in_seed_and_index() {
        let mc = MonteCarloMatrix::new(
            Scenario::paper_defaults(),
            vec![
                binding("fab.node_nm ~ triangular(5,7,10)"),
                binding("fleet.growth ~ uniform(1.2,1.4)"),
            ],
            1000,
            7,
        )
        .unwrap();
        // Same (seed, index) twice: identical point, regardless of what was
        // generated in between.
        let a = mc.point(999).unwrap();
        let _ = mc.point(3).unwrap();
        let b = mc.point(999).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.label, b.label);
        assert_eq!(a.overlay.name(), "paper[mc#999]");
        // Different indices draw different values.
        assert_ne!(a.assignments, mc.point(3).unwrap().assignments);
        // A different seed moves every point.
        let other = MonteCarloMatrix::new(
            Scenario::paper_defaults(),
            vec![
                binding("fab.node_nm ~ triangular(5,7,10)"),
                binding("fleet.growth ~ uniform(1.2,1.4)"),
            ],
            1000,
            8,
        )
        .unwrap();
        assert_ne!(a.assignments, other.point(999).unwrap().assignments);
    }

    #[test]
    fn adjacent_points_do_not_share_draw_streams() {
        // With two bound fields, a naive `seed + index` stream would make
        // point i's second draw equal point i+1's first. The mixed stream
        // seed must prevent that. Both fields share one range (the largest
        // growth the default fleet's projection bound admits), so a leaked
        // stream would show as equal values.
        let mc = MonteCarloMatrix::new(
            Scenario::paper_defaults(),
            vec![
                binding("fab.node_nm ~ uniform(1,5)"),
                binding("fleet.growth ~ uniform(1,5)"),
            ],
            100,
            0,
        )
        .unwrap();
        for i in 0..99 {
            let here = mc.point(i).unwrap();
            let next = mc.point(i + 1).unwrap();
            assert_ne!(
                here.assignments[1].1,
                next.assignments[0].1,
                "point {i} leaks its stream into point {}",
                i + 1
            );
        }
    }

    #[test]
    fn sampled_points_stay_in_bounds_and_validate() {
        let mc = MonteCarloMatrix::new(
            Scenario::paper_defaults(),
            vec![binding("fleet.growth ~ triangular(1.1,1.28,1.5)")],
            500,
            42,
        )
        .unwrap();
        for i in 0..500 {
            let p = mc.point(i).unwrap();
            assert_eq!(p.index, i);
            let growth = p.overlay.fleet().growth;
            assert!((1.1..=1.5).contains(&growth), "sample {i}: {growth}");
            p.overlay.validate().unwrap();
            // Only the swept section is cloned into the delta.
            assert_eq!(p.overlay.grid(), &mc.base().grid);
        }
    }

    #[test]
    fn out_of_range_draw_is_a_clear_error() {
        // normal(3, 40) puts most of its mass outside fab.node_nm > 0.
        let mc = MonteCarloMatrix::new(
            Scenario::paper_defaults(),
            vec![binding("fab.node_nm ~ normal(3,40)")],
            200,
            1,
        )
        .unwrap();
        let err = (0..200)
            .find_map(|i| mc.point(i).err())
            .expect("some draw must land below zero");
        let text = err.to_string();
        assert!(text.contains("sample"), "{text}");
        assert!(text.contains("node_nm"), "{text}");
    }

    #[test]
    fn mc_comparison_renders_banded_line_table_and_json() {
        let c = McComparison {
            experiment: "ext-facility".to_string(),
            metric: "cumulative-breakeven-year".to_string(),
            unit: "year".to_string(),
            threshold: None,
            stats: BandedSummary {
                n: 10_000,
                mean: 2014.6,
                stddev: 0.49,
                min: 2013.2,
                max: 2016.1,
                p05: 2013.8,
                p50: 2014.6,
                p95: 2015.4,
            },
        };
        let line = c.banded_line();
        assert_eq!(
            line,
            "ext-facility: cumulative-breakeven-year 2014.6, 90% CI ±0.8 year \
             (p05 2013.8, p95 2015.4; n=10000)"
        );
        let t = c.to_table();
        assert_eq!(t.rows().len(), 9);
        let json = c.to_json().render();
        assert!(json.contains(r#""experiment":"ext-facility""#));
        assert!(json.contains(r#""p95":2015.4"#));
        assert!(json.contains(r#""n":10000"#));
        assert!(json.contains(r#""ci90_half_width":"#));
    }

    #[test]
    fn matrix_json_carries_sampling_parameters() {
        let mc = MonteCarloMatrix::new(
            Scenario::paper_defaults(),
            vec![binding("fab.node_nm ~ triangular(5,7,10)")],
            10_000,
            7,
        )
        .unwrap();
        let json = mc.to_json().render();
        assert_eq!(
            json,
            r#"{"samples":10000,"seed":7,"dists":[{"path":"fab.node_nm","spec":"triangular(5,7,10)"}]}"#
        );
    }
}
