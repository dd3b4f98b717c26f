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
//! *order-sensitive*. The samples therefore run on the engine's ordered
//! worker loop, the one the grid runner uses: threads pull sample indices
//! off a shared cursor, and its reorder buffer feeds each sample's values
//! to the accumulators strictly in sample order. The result:
//! byte-identical statistics for the same seed across any `--jobs` value,
//! and across one-shot versus served runs.
//!
//! The cache earns its keep here: samples only perturb the fields named by
//! the distribution bindings, so experiments whose declared dependencies
//! don't include a sampled field collapse to a handful of distinct
//! fingerprints — often one — and the runner answers thousands of samples
//! from a single model run.

use crate::{tracked_metrics, Engine, EngineError, RunCounts, Tally};
use cc_analysis::stats::StreamingStats;
use cc_core::experiments::Entry;
use cc_report::{
    ExperimentOutput, McComparison, MonteCarloMatrix, RunContext, Scalar, ScenarioPoint,
};
use std::ops::Deref;

/// Knobs for one Monte-Carlo run.
#[derive(Clone, Copy, Debug)]
pub struct McConfig {
    /// Worker threads pulling sample indices (clamped to the sample count).
    pub jobs: usize,
    /// Run the models for every sample instead of deduplicating through
    /// the engine's fingerprint cache.
    pub no_cache: bool,
}

/// What one Monte-Carlo run produced. Derefs to its [`RunCounts`].
#[derive(Debug)]
pub struct McResult {
    /// One banded digest per (experiment, tracked metric): the experiment's
    /// summary scalar plus every scalar carrying a decision threshold, in
    /// entry order.
    pub comparisons: Vec<McComparison>,
    /// The run's counts; `run_counts` counts the samples in which some
    /// part missed the resident cache, deterministic for a given engine
    /// state (each distinct part fingerprint is computed exactly once).
    pub counts: RunCounts,
}

impl Deref for McResult {
    type Target = RunCounts;

    fn deref(&self) -> &RunCounts {
        &self.counts
    }
}

impl Engine {
    /// Pumps every sampled point of `matrix` through the selected
    /// experiments on up to `config.jobs` worker threads, digesting each
    /// tracked metric into a [`McComparison`].
    ///
    /// Sample 0 doubles as the probe that fixes each experiment's tracked
    /// metrics (the same rule as [`crate::grid::build_comparisons`]); the
    /// remaining samples stream through the fingerprint cache and the
    /// ordered worker loop.
    ///
    /// # Errors
    ///
    /// [`EngineError::Sample`] when a drawn value fails scenario
    /// validation (the lowest failing sample's), and the missing-scalar
    /// errors when an experiment's scalar coverage breaks.
    pub fn run_mc(
        &self,
        entries: &[&'static Entry],
        matrix: &MonteCarloMatrix,
        config: &McConfig,
    ) -> Result<McResult, EngineError> {
        // Every output comes through the engine's read-through pipeline
        // (`Engine::obtain`), so disk caches and resident daemons warm
        // Monte-Carlo runs too.
        let tally = Tally::new(entries.len());

        // One sample end to end: draw the point, then run (or fetch) every
        // experiment and hand its output to `each`, in entry order.
        type Each<'a> =
            dyn FnMut(usize, &ScenarioPoint, &ExperimentOutput) -> Result<(), EngineError> + 'a;
        let sample = |index: usize, each: &mut Each<'_>| {
            let point = matrix
                .point(index)
                .map_err(|e| EngineError::Sample(e.to_string()))?;
            let context = RunContext::try_from_overlay(point.overlay.clone())
                .map_err(|e| EngineError::Sample(format!("sample {index}: {e}")))?;
            for (entry_idx, entry) in entries.iter().enumerate() {
                let overlay = &point.overlay;
                let output =
                    self.obtain(entry_idx, entry, overlay, &context, config.no_cache, &tally);
                each(entry_idx, &point, &output)?;
            }
            Ok(())
        };

        // Probe with sample 0: fix each experiment's tracked metrics (their
        // values are sample 0's).
        let mut metrics: Vec<Vec<Scalar>> = Vec::with_capacity(entries.len());
        sample(0, &mut |entry_idx, _, output| {
            if output.scalars.is_empty() {
                let key = entries[entry_idx].key;
                return Err(EngineError::MissingSummaryScalar { key });
            }
            metrics.push(tracked_metrics(&output.scalars).cloned().collect());
            Ok(())
        })?;
        let mut stats = vec![StreamingStats::new(); metrics.iter().map(Vec::len).sum()];
        let mut accumulate = |values: Vec<f64>| {
            for (slot, value) in stats.iter_mut().zip(values) {
                slot.push(value);
            }
        };
        accumulate(metrics.iter().flatten().map(|m| m.value).collect());

        // Every later sample's tracked metric values, in flat (entry-major,
        // metric-minor) order.
        crate::ordered(
            1..matrix.len(),
            config.jobs,
            |index, emit: &dyn Fn(usize, Vec<f64>)| {
                let mut values = Vec::new();
                sample(index, &mut |entry_idx, point, output| {
                    for metric in &metrics[entry_idx] {
                        let scalar = output
                            .scalars
                            .iter()
                            .find(|s| s.name == metric.name)
                            .ok_or_else(|| EngineError::MissingScalarAtPoint {
                                key: entries[entry_idx].key,
                                metric: metric.name.clone(),
                                point: point.display_label().to_string(),
                            })?;
                        values.push(scalar.value);
                    }
                    Ok(())
                })?;
                emit(index, values);
                Ok(())
            },
            accumulate,
        )?;

        let mut stats = stats.into_iter();
        let mut comparisons = Vec::new();
        for (entry, tracked) in entries.iter().zip(metrics) {
            for metric in tracked {
                let digest = stats.next().expect("one accumulator per metric");
                comparisons.push(McComparison {
                    experiment: entry.key.to_string(),
                    metric: metric.name,
                    unit: metric.unit,
                    threshold: metric.threshold,
                    stats: digest.summary().expect("at least one sample"),
                });
            }
        }
        Ok(McResult {
            comparisons,
            counts: tally.finish(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineError as McError;
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
