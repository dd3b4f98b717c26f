//! The streaming Monte-Carlo runner.
//!
//! Where the grid runner ([`crate::grid`]) walks an enumerated scenario
//! matrix and keeps every point's artifact, the Monte-Carlo runner pumps
//! `samples` *drawn* scenario points ([`MonteCarloMatrix::point`]) through
//! the same fingerprint → cache → model pipeline and keeps only streaming
//! digests: one [`StreamingStats`] accumulator per (experiment, metric),
//! so memory stays flat whether a run draws 10³ or 10⁶ samples.
//!
//! Determinism is the load-bearing property. `point(i)` is pure in
//! `(seed, i)`, so the sampled scenarios are identical however the worker
//! threads interleave — but the accumulators (Welford + P² quantiles) are
//! *order-sensitive*, so workers hand their finished sample values to a
//! reorder buffer that feeds the accumulators strictly in sample order.
//! The result: byte-identical statistics for the same seed across any
//! `--jobs` value, and across one-shot versus served runs.
//!
//! The cache earns its keep here: samples only perturb the fields named by
//! the distribution bindings, so experiments whose declared dependencies
//! don't include a sampled field collapse to a handful of distinct
//! fingerprints — often one — and the runner answers thousands of samples
//! from a single model run.

use crate::{counts, Engine, EngineError, Tally};
use cc_analysis::stats::StreamingStats;
use cc_core::experiments::Entry;
use cc_report::{McComparison, MonteCarloMatrix, RunContext, ScalarThreshold};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Knobs for one Monte-Carlo run.
#[derive(Clone, Copy, Debug)]
pub struct McConfig {
    /// Worker threads pulling sample indices (clamped to the sample count).
    pub jobs: usize,
    /// Run the models for every sample instead of deduplicating through
    /// the engine's fingerprint cache.
    pub no_cache: bool,
}

/// Errors surfaced by a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McError {
    /// An experiment's scalar coverage broke (no summary scalar, or a
    /// metric missing at one sampled point).
    Engine(EngineError),
    /// A sampled point failed to apply or validate — typically an
    /// unbounded `normal` tail drawing outside the field's physical range.
    Sample(String),
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Engine(e) => e.fmt(f),
            Self::Sample(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for McError {}

/// What one Monte-Carlo run produced.
#[derive(Debug)]
pub struct McResult {
    /// One banded digest per (experiment, tracked metric): the experiment's
    /// summary scalar plus every scalar carrying a decision threshold, in
    /// entry order.
    pub comparisons: Vec<McComparison>,
    /// Per-entry samples in which any part of the experiment missed the
    /// in-memory cache (with `no_cache`, every sample). Deterministic for a
    /// given engine state: each distinct part fingerprint is computed
    /// exactly once.
    pub run_counts: Vec<usize>,
    /// Per-entry samples in which this process computed any part fresh
    /// (misses the disk cache could not answer).
    pub disk_runs: Vec<usize>,
    /// Per-entry samples in which every part that missed the in-memory
    /// cache was answered by the persistent on-disk cache.
    pub disk_hits: Vec<usize>,
    /// Part lookups answered from resident artifacts.
    pub hits: u64,
    /// Part lookups that computed (or disk-loaded) a fresh artifact.
    pub misses: u64,
    /// Part lookups deduplicated against another in-flight computation.
    pub inflight_dedups: u64,
}

/// One tracked metric: the summary scalar or a thresholded secondary.
struct MetricSpec {
    name: String,
    unit: String,
    threshold: Option<ScalarThreshold>,
}

/// Reorder buffer between out-of-order sample completion and the
/// order-sensitive accumulators: workers hand in `(sample index, values)`,
/// and every value whose predecessors have all arrived is pushed into its
/// accumulator, buffering only the gap.
struct Collector {
    next: usize,
    pending: BTreeMap<usize, Vec<f64>>,
    stats: Vec<StreamingStats>,
}

impl Collector {
    fn complete(&mut self, index: usize, values: Vec<f64>) {
        self.pending.insert(index, values);
        while let Some(values) = self.pending.remove(&self.next) {
            for (slot, value) in self.stats.iter_mut().zip(values) {
                slot.push(value);
            }
            self.next += 1;
        }
    }
}

impl Engine {
    /// Pumps every sampled point of `matrix` through the selected
    /// experiments on up to `config.jobs` worker threads, digesting each
    /// tracked metric into a [`McComparison`].
    ///
    /// Sample 0 doubles as the probe that fixes each experiment's tracked
    /// metrics (its summary scalar plus any thresholded scalars — the same
    /// rule as [`crate::grid::build_comparisons`]); the remaining samples
    /// stream through the fingerprint cache and the reorder buffer.
    ///
    /// # Errors
    ///
    /// [`McError::Sample`] when a drawn value fails scenario validation,
    /// [`McError::Engine`] when an experiment's scalar coverage breaks.
    pub fn run_mc(
        &self,
        entries: &[&'static Entry],
        matrix: &MonteCarloMatrix,
        config: &McConfig,
    ) -> Result<McResult, McError> {
        let samples = matrix.len();
        // Every output comes through the engine's read-through pipeline
        // (`Engine::obtain`), so disk caches and resident daemons warm
        // Monte-Carlo runs too.
        let tally = Tally::new(entries.len());

        // Probe with sample 0: fix each experiment's tracked metrics and
        // collect the first sample's values while we're at it.
        let sample_error = |index: usize, e: &dyn std::fmt::Display| {
            McError::Sample(format!("sample {index}: {e}"))
        };
        let probe = matrix
            .point(0)
            .map_err(|e| McError::Sample(e.to_string()))?;
        let probe_context =
            RunContext::try_from_overlay(probe.overlay.clone()).map_err(|e| sample_error(0, &e))?;
        let mut metric_specs: Vec<Vec<MetricSpec>> = Vec::with_capacity(entries.len());
        let mut first_values = Vec::new();
        for (entry_idx, entry) in entries.iter().enumerate() {
            let output = self.obtain(
                entry_idx,
                entry,
                &probe.overlay,
                &probe_context,
                config.no_cache,
                &tally,
            );
            if output.scalars.is_empty() {
                return Err(McError::Engine(EngineError::MissingSummaryScalar {
                    key: entry.key,
                }));
            }
            let specs: Vec<MetricSpec> = output
                .scalars
                .iter()
                .enumerate()
                .filter(|(i, scalar)| *i == 0 || scalar.threshold.is_some())
                .map(|(_, scalar)| MetricSpec {
                    name: scalar.name.clone(),
                    unit: scalar.unit.clone(),
                    threshold: scalar.threshold.clone(),
                })
                .collect();
            first_values.extend(
                specs
                    .iter()
                    .map(|spec| output.scalars.iter().find(|s| s.name == spec.name))
                    .map(|scalar| scalar.expect("spec names come from these scalars").value),
            );
            metric_specs.push(specs);
        }

        let collector = Mutex::new(Collector {
            next: 0,
            pending: BTreeMap::new(),
            stats: vec![StreamingStats::new(); first_values.len()],
        });
        collector
            .lock()
            .expect("no panics under lock")
            .complete(0, first_values);

        // One sample end to end: draw the point, run (or fetch) every
        // experiment, pull out the tracked metric values in flat
        // (entry-major, metric-minor) order.
        let process = |index: usize| -> Result<Vec<f64>, McError> {
            let point = matrix
                .point(index)
                .map_err(|e| McError::Sample(e.to_string()))?;
            let context = RunContext::try_from_overlay(point.overlay.clone())
                .map_err(|e| sample_error(index, &e))?;
            let mut values = Vec::new();
            for (entry_idx, entry) in entries.iter().enumerate() {
                let output = self.obtain(
                    entry_idx,
                    entry,
                    &point.overlay,
                    &context,
                    config.no_cache,
                    &tally,
                );
                for spec in &metric_specs[entry_idx] {
                    let scalar = output
                        .scalars
                        .iter()
                        .find(|s| s.name == spec.name)
                        .ok_or_else(|| {
                            McError::Engine(EngineError::MissingScalarAtPoint {
                                key: entry.key,
                                metric: spec.name.clone(),
                                point: point.display_label().to_string(),
                            })
                        })?;
                    values.push(scalar.value);
                }
            }
            Ok(values)
        };

        // Workers pull sample indices off a shared cursor; the first error
        // (lowest sample index wins, for a stable diagnostic) raises the
        // stop flag and the run drains.
        let next_sample = AtomicUsize::new(1);
        let stop = AtomicBool::new(false);
        let error: Mutex<Option<(usize, McError)>> = Mutex::new(None);
        let work = || loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let index = next_sample.fetch_add(1, Ordering::Relaxed);
            if index >= samples {
                break;
            }
            match process(index) {
                Ok(values) => collector
                    .lock()
                    .expect("no panics under lock")
                    .complete(index, values),
                Err(e) => {
                    let mut slot = error.lock().expect("no panics under lock");
                    if slot.as_ref().is_none_or(|(prior, _)| index < *prior) {
                        *slot = Some((index, e));
                    }
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        };
        let workers = config.jobs.clamp(1, samples);
        if workers <= 1 {
            work();
        } else {
            let work = &work;
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }
        if let Some((_, e)) = error.into_inner().expect("no panics under lock") {
            return Err(e);
        }

        let collector = collector.into_inner().expect("no panics under lock");
        debug_assert_eq!(collector.next, samples, "every sample accumulated");
        let mut stats = collector.stats.into_iter();
        let mut comparisons = Vec::new();
        for (entry_idx, entry) in entries.iter().enumerate() {
            for spec in &metric_specs[entry_idx] {
                let digest = stats.next().expect("one accumulator per metric");
                let summary = digest.summary().expect("at least one sample");
                comparisons.push(McComparison {
                    experiment: entry.key.to_string(),
                    metric: spec.name.clone(),
                    unit: spec.unit.clone(),
                    threshold: spec.threshold.clone(),
                    stats: summary,
                });
            }
        }
        Ok(McResult {
            comparisons,
            run_counts: counts(tally.runs),
            disk_runs: counts(tally.disk_runs),
            disk_hits: counts(tally.disk_hits),
            hits: tally.hits.into_inner(),
            misses: tally.misses.into_inner(),
            inflight_dedups: tally.dedups.into_inner(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::experiments;
    use cc_report::{DistBinding, Scenario};

    fn matrix(bindings: &[&str], samples: usize, seed: u64) -> MonteCarloMatrix {
        let bindings = bindings
            .iter()
            .map(|b| DistBinding::parse(b).expect("valid binding"))
            .collect();
        MonteCarloMatrix::new(Scenario::paper_defaults(), bindings, samples, seed)
            .expect("valid matrix")
    }

    fn entry(key: &str) -> Vec<&'static Entry> {
        vec![experiments::find_entry(key).expect("known key")]
    }

    #[test]
    fn statistics_are_identical_across_job_counts() {
        let entries = entry("ext-facility");
        let mc = matrix(&["fleet.growth ~ uniform(1.2,1.4)"], 200, 7);
        let serial = Engine::new()
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 1,
                    no_cache: false,
                },
            )
            .expect("serial run");
        let parallel = Engine::new()
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 4,
                    no_cache: false,
                },
            )
            .expect("parallel run");
        assert_eq!(serial.comparisons, parallel.comparisons);
        assert_eq!(serial.run_counts, parallel.run_counts);
        assert_eq!(serial.misses, parallel.misses);
        // The sampled axis moves the model: the band has real width.
        let stats = &serial.comparisons[0].stats;
        assert_eq!(stats.n, 200);
        assert!(stats.ci90_half_width() > 0.0, "{stats:?}");
    }

    #[test]
    fn samples_outside_declared_dependencies_share_one_run() {
        // ext-facility never reads fab.node_nm, so every sampled point
        // fingerprints identically: one model run, the rest cache hits.
        let entries = entry("ext-facility");
        let mc = matrix(&["fab.node_nm ~ triangular(5,7,10)"], 50, 7);
        let engine = Engine::new();
        let result = engine
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 2,
                    no_cache: false,
                },
            )
            .expect("mc run");
        assert_eq!(result.run_counts, vec![1]);
        assert_eq!(result.misses, 1);
        assert_eq!(result.hits + result.inflight_dedups, 49);
        // Constant metric: a zero-width band is the honest answer.
        assert_eq!(result.comparisons[0].stats.ci90_half_width(), 0.0);
    }

    #[test]
    fn grid_independent_parts_run_once_per_mc_run() {
        // ext-mc's Fig 11 and Fig 14 parts read only `mc.*`: sample 0
        // computes all three parts, every later sample recomputes only the
        // Fig 10 part and hits the other two. The entry still counts as run
        // at every sample, so the footer reads `50 runs, 0 reuses`.
        let entries = entry("ext-mc");
        let mc = matrix(&["grid.intensity ~ uniform(50,700)"], 50, 7);
        let result = Engine::new()
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 1,
                    no_cache: false,
                },
            )
            .expect("mc run");
        assert_eq!(result.misses, 52);
        assert_eq!(result.hits, 98);
        assert_eq!(result.inflight_dedups, 0);
        assert_eq!(result.run_counts, vec![50]);
        assert_eq!(result.disk_runs, vec![50]);
    }

    #[test]
    fn out_of_range_draws_surface_as_sample_errors() {
        let entries = entry("ext-facility");
        let mc = matrix(&["fab.node_nm ~ normal(3,40)"], 200, 1);
        let err = Engine::new()
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 2,
                    no_cache: false,
                },
            )
            .expect_err("most normal(3,40) mass is out of range");
        assert!(matches!(err, McError::Sample(_)), "{err:?}");
        assert!(err.to_string().contains("sample"), "{err}");
    }

    #[test]
    fn no_cache_runs_the_model_per_sample() {
        let entries = entry("ext-facility");
        let mc = matrix(&["fab.node_nm ~ triangular(5,7,10)"], 8, 3);
        let engine = Engine::new();
        let result = engine
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 1,
                    no_cache: true,
                },
            )
            .expect("mc run");
        assert_eq!(result.run_counts, vec![8]);
        assert_eq!(result.hits + result.misses + result.inflight_dedups, 0);
        assert_eq!(engine.stats().entries, 0);
    }
}
