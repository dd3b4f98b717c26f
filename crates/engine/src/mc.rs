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
//! worker loop, the one the grid runner uses, in blocks of consecutive
//! samples: threads claim a block off a shared cursor, run its samples in
//! order and emit one flat value vector for it, and the loop's reorder
//! buffer feeds the blocks to the accumulators strictly in order. The
//! block length is a fixed rule of the sample count and `jobs`
//! (`samples / (8·jobs)`, clamped to 1..=64, with `jobs` capped at
//! [`crate::MAX_JOBS`] as the worker loop caps it), so the claim and the
//! buffer's lock are paid once per block, not once per sample. The
//! result: byte-identical statistics for the same seed across any
//! `--jobs` value, and across one-shot versus served runs.
//!
//! The cache earns its keep here: samples only perturb the fields named by
//! the distribution bindings, so experiments whose declared dependencies
//! don't include a sampled field collapse to a handful of distinct
//! fingerprints — often one — and the runner answers thousands of samples
//! from a single model run.
//!
//! A per-run plan, built before sample 0, keeps that constant work out of
//! the sample loop: each binding resolves to its canonical field row, and
//! each part's deps are expanded once. A part that reads no bound field
//! gets one fixed fingerprint, taken from the base scenario; the others
//! keep their expanded rows and are hashed per sample. Every sample still
//! looks each part up in the resident cache, so hits, misses and run
//! counts are exactly those of hashing every part at every sample.

use crate::{tracked_metrics, Engine, EngineError, PartFingerprints, RunCounts, Tally};
use cc_analysis::stats::StreamingStats;
use cc_core::experiments::{Entry, Part};
use cc_report::scenario::deps::{expand, fingerprint_fields, resolve, FieldInfo};
use cc_report::{
    McComparison, MonteCarloMatrix, RunContext, Scalar, ScenarioOverlay, ScenarioPoint,
};
use std::ops::Deref;
use std::sync::atomic::AtomicBool;

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

/// How a Monte-Carlo run fingerprints one part, fixed before sample 0.
enum PartKey {
    /// The part reads no bound field, so every sample fingerprints it like
    /// the base scenario: the fingerprint, taken once.
    Fixed(u64),
    /// The part reads a bound field: its expanded deps, hashed per sample.
    Sampled(Vec<&'static FieldInfo>),
}

/// The run plan: one [`PartKey`] per part of each selected entry.
///
/// A fixed fingerprint is exact because only distribution-eligible `f64`
/// rows can be bound, and setting one changes no other field (the only
/// set hook belongs to the label `grid.source`): a sampled point agrees
/// with the base on every field it does not bind.
fn plan(entries: &[&'static Entry], matrix: &MonteCarloMatrix) -> Vec<Vec<PartKey>> {
    let bound: Vec<&str> = matrix
        .bindings()
        .iter()
        .map(|b| resolve(&b.path).expect("a matrix binds table rows").path)
        .collect();
    let key = |part: &Part| {
        let fields = expand(part.deps);
        if fields.iter().any(|f| bound.contains(&f.path)) {
            PartKey::Sampled(fields)
        } else {
            PartKey::Fixed(fingerprint_fields(matrix.base(), &fields))
        }
    };
    entries
        .iter()
        .map(|entry| entry.parts().iter().map(key).collect())
        .collect()
}

/// One entry's part fingerprints at one sampled point, as the plan gives
/// them.
struct SampleFingerprints<'a> {
    keys: &'a [PartKey],
    overlay: &'a ScenarioOverlay,
}

impl PartFingerprints for SampleFingerprints<'_> {
    fn fingerprint(&self, index: usize, _part: &'static Part) -> u64 {
        match &self.keys[index] {
            PartKey::Fixed(fingerprint) => *fingerprint,
            PartKey::Sampled(fields) => fingerprint_fields(self.overlay, fields),
        }
    }
}

/// Consecutive samples one worker claims at a time: about eight blocks
/// per thread keep the threads balanced, and up to 64 samples share one
/// claim and one reorder-buffer handoff. Threads are counted as the worker
/// loop counts them, capped at [`crate::MAX_JOBS`].
fn block_len(samples: usize, jobs: usize) -> usize {
    (samples / (crate::workers(jobs) * 8)).clamp(1, 64)
}

impl Engine {
    /// Pumps every sampled point of `matrix` through the selected
    /// experiments on up to `config.jobs` worker threads, digesting each
    /// tracked metric into a [`McComparison`].
    ///
    /// Sample 0 doubles as the probe that fixes each experiment's tracked
    /// metrics (the same rule as [`crate::grid::build_comparisons`]); the
    /// remaining samples stream through the fingerprint cache and the
    /// ordered worker loop in blocks of consecutive samples.
    ///
    /// # Errors
    ///
    /// [`EngineError::Sample`] when a drawn value fails scenario
    /// validation (the lowest failing sample's), the missing-scalar
    /// errors when an experiment's scalar coverage breaks, and
    /// [`EngineError::Cancelled`] when the engine was stopped mid-run.
    pub fn run_mc(
        &self,
        entries: &[&'static Entry],
        matrix: &MonteCarloMatrix,
        config: &McConfig,
    ) -> Result<McResult, EngineError> {
        self.mc(&[&self.stopped], entries, matrix, config)
    }

    /// [`Self::run_mc`], ended between blocks by any of the `halt` flags
    /// ([`EngineError::Cancelled`]).
    pub(crate) fn mc(
        &self,
        halt: &[&AtomicBool],
        entries: &[&'static Entry],
        matrix: &MonteCarloMatrix,
        config: &McConfig,
    ) -> Result<McResult, EngineError> {
        // Every output comes through the engine's read-through pipeline
        // (`Engine::obtain`), so disk caches and resident daemons warm
        // Monte-Carlo runs too.
        let tally = Tally::new(entries.len());
        let plan = plan(entries, matrix);

        // One sample end to end: draw the point, then run (or fetch) every
        // experiment and hand its scalars to `each`, in entry order.
        type Each<'a> = dyn FnMut(usize, &ScenarioPoint, &[Scalar]) -> Result<(), EngineError> + 'a;
        let sample = |index: usize, each: &mut Each<'_>| {
            let point = matrix
                .point(index)
                .map_err(|e| EngineError::Sample(e.to_string()))?;
            let context = RunContext::try_from_overlay(point.overlay.clone())
                .map_err(|e| EngineError::Sample(format!("sample {index}: {e}")))?;
            for (entry_idx, (entry, keys)) in entries.iter().zip(&plan).enumerate() {
                let fingerprints = SampleFingerprints {
                    keys,
                    overlay: &point.overlay,
                };
                let output = self.obtain(
                    entry_idx,
                    entry,
                    &fingerprints,
                    &context,
                    config.no_cache,
                    false,
                    &tally,
                );
                each(entry_idx, &point, output.scalars())?;
            }
            Ok(())
        };

        // Probe with sample 0: fix each experiment's tracked metrics (their
        // values are sample 0's).
        let mut metrics: Vec<Vec<Scalar>> = Vec::with_capacity(entries.len());
        sample(0, &mut |entry_idx, _, scalars| {
            if scalars.is_empty() {
                let key = entries[entry_idx].key;
                return Err(EngineError::MissingSummaryScalar { key });
            }
            metrics.push(tracked_metrics(scalars).cloned().collect());
            Ok(())
        })?;
        let mut stats = vec![StreamingStats::new(); metrics.iter().map(Vec::len).sum()];
        // One sample's values, in flat (entry-major, metric-minor) order.
        let width = stats.len().max(1);
        let mut accumulate = |values: &[f64]| {
            for sample in values.chunks(width) {
                for (slot, &value) in stats.iter_mut().zip(sample) {
                    slot.push(value);
                }
            }
        };
        accumulate(
            &metrics
                .iter()
                .flatten()
                .map(|m| m.value)
                .collect::<Vec<_>>(),
        );

        // The later samples in blocks of consecutive indices: a worker
        // runs its block in sample order and emits the block's values
        // flat, so the accumulators still see every sample in order, and
        // the lowest failing block's first failure is the lowest failing
        // sample.
        let samples = matrix.len();
        let block = block_len(samples, config.jobs);
        crate::ordered(
            halt,
            0..(samples - 1).div_ceil(block),
            config.jobs,
            |unit, emit: &dyn Fn(usize, Vec<f64>)| {
                let start = 1 + unit * block;
                let mut values = Vec::new();
                for index in start..(start + block).min(samples) {
                    sample(index, &mut |entry_idx, point, scalars| {
                        for metric in &metrics[entry_idx] {
                            let scalar = scalars
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
                }
                emit(unit, values);
                Ok(())
            },
            |values| accumulate(&values),
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
    use cc_report::scenario::deps::FIELDS;
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
    fn block_length_counts_capped_worker_threads() {
        assert_eq!(block_len(100_000, 1), 64);
        assert_eq!(block_len(1_000, 4), 31);
        assert_eq!(block_len(10, 4), 1);
        // A huge `jobs` sizes blocks for the capped thread count, not for
        // threads the loop never starts.
        assert_eq!(
            block_len(10_000, 100_000),
            block_len(10_000, crate::MAX_JOBS)
        );
        assert_eq!(block_len(10_000, crate::MAX_JOBS), 19);
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

    fn config(jobs: usize, no_cache: bool) -> McConfig {
        McConfig { jobs, no_cache }
    }

    #[test]
    fn plan_fingerprints_match_uncached_runs_for_every_eligible_field() {
        // A part whose fixed fingerprint were wrong would replay sample 0's
        // output at every sample and digest differently from a run that
        // recomputes everything. ext-mc's inner propagation is kept small;
        // 64 samples make blocks of 8 at one job and of 2 at four.
        let entries: Vec<&'static Entry> = experiments::entries().iter().collect();
        let mut base = Scenario::paper_defaults();
        base.set("mc.samples", "500").unwrap();
        for field in FIELDS.iter().filter(|f| f.distribution_eligible()) {
            let default: f64 = base.field_value(field.path).unwrap().parse().unwrap();
            // Through an alias where the row has one: the plan must match
            // the bound field by its canonical row.
            let path = field.aliases.last().unwrap_or(&field.path);
            let binding = format!("{path} ~ uniform({default},{})", default * 1.1 + 0.05);
            let binding = DistBinding::parse(&binding).unwrap();
            let mc = MonteCarloMatrix::new(base.clone(), vec![binding], 64, 7).unwrap();
            let uncached = Engine::new()
                .run_mc(&entries, &mc, &config(1, true))
                .expect("uncached run");
            for jobs in [1, 4] {
                let cached = Engine::new()
                    .run_mc(&entries, &mc, &config(jobs, false))
                    .expect("cached run");
                assert_eq!(
                    cached.comparisons, uncached.comparisons,
                    "{} jobs {jobs}",
                    field.path
                );
            }
        }
    }

    #[test]
    fn a_failing_run_reports_the_lowest_failing_sample_at_any_job_count() {
        // Rare failures, the first one past the first block of samples.
        let entries = entry("ext-facility");
        let mc = matrix(&["fab.node_nm ~ normal(30,12)"], 2000, 7);
        let (lowest, expected) = (0..mc.len())
            .find_map(|i| mc.point(i).err().map(|e| (i, e.to_string())))
            .expect("some draw lands below zero");
        assert!(lowest > 2 * block_len(mc.len(), 4), "sample {lowest}");
        for jobs in [1, 4] {
            let err = Engine::new()
                .run_mc(&entries, &mc, &config(jobs, false))
                .expect_err("a draw is out of range");
            assert_eq!(err, McError::Sample(expected.clone()), "jobs {jobs}");
        }
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
