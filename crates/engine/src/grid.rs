//! The streaming (scenario-point × experiment) grid runner.
//!
//! The grid is first compressed into [`WorkGroup`]s — one per distinct
//! `(experiment, dependency fingerprint)` — then handed to the engine's
//! ordered worker loop, the one [`crate::mc`] runs on too: up to `jobs`
//! threads pull groups off a shared atomic cursor. Each group runs its
//! models at most once (and, through the engine's shared cache, possibly
//! zero times); every member point's artifact is the shared output
//! wrapped in that point's own metadata, and the loop's reorder buffer
//! delivers it to the caller's sink in grid order.
//!
//! Rendering is memoized along the artifact's pieces
//! ([`crate::artifact`]): a group with several members renders its
//! output body once for all of them — a JSON body into the cached output
//! itself ([`CachedOutput::json`]), where later runs that hit the entry
//! find it too, and a disk hit arrives holding its stored text, so a warm
//! pass copies bodies instead of rendering them; each point of a
//! multi-experiment run renders its `point`/`scenario` piece once for
//! every experiment (a per-point `OnceLock`), each experiment of a sweep
//! renders its head once, and [`GridJob::artifact`] splices the job's
//! pieces together. A piece only one job uses is written straight into
//! that job's artifact, and nothing renders until a renderer asks, so a
//! renderer that builds its own text pays for none of it.
//!
//! The renderer runs *on the worker threads* (rendering large tables is
//! real work worth parallelizing); the sink runs under the reorder
//! buffer's lock, strictly in job order — exactly the contract the
//! historical CLI had, so its stdout stays byte-identical.

use crate::artifact::{write_artifact, Format, Shared};
use crate::{tracked_metrics, CachedOutput, Engine, EngineError, RunCounts, Tally};
use cc_core::experiments::Entry;
use cc_report::{
    dedup_groups, Comparison, Experiment, RunContext, Scalar, ScenarioMatrix, ScenarioOverlay,
    ScenarioPoint,
};
use std::ops::Deref;
use std::sync::atomic::AtomicBool;
use std::sync::OnceLock;

/// Knobs for one grid run.
#[derive(Clone, Copy, Debug)]
pub struct GridConfig {
    /// Worker threads (clamped to the number of work groups).
    pub jobs: usize,
    /// Run every (experiment × point) job even when the experiment's
    /// declared scenario dependencies say the output is identical across
    /// points. Also bypasses the engine's resident cache — `--no-cache`
    /// promises a model run per grid cell.
    pub no_cache: bool,
    /// Output format handed to the renderer.
    pub format: Format,
}

/// One unit of scheduled work: an experiment plus every grid point sharing
/// one dependency fingerprint. The first point is the representative whose
/// context actually runs the models; the remaining points reuse the output
/// (their declared-dependency fields are identical, so so is the output).
pub struct WorkGroup {
    /// Index into the selected-entries slice.
    pub entry_idx: usize,
    /// Grid points sharing the representative's fingerprint.
    pub point_idxs: Vec<usize>,
}

/// Groups the (experiment × point) grid by dependency fingerprint. With
/// `no_cache` every job is its own group, restoring one model run per grid
/// cell.
#[must_use]
pub fn build_groups(
    entries: &[&'static Entry],
    points: &[ScenarioPoint],
    no_cache: bool,
) -> Vec<WorkGroup> {
    let overlays: Vec<&ScenarioOverlay> = points.iter().map(|p| &p.overlay).collect();
    let mut groups = Vec::new();
    for (entry_idx, entry) in entries.iter().enumerate() {
        if no_cache {
            groups.extend((0..points.len()).map(|point_idx| WorkGroup {
                entry_idx,
                point_idxs: vec![point_idx],
            }));
        } else {
            groups.extend(
                dedup_groups(&overlays, entry.deps())
                    .into_iter()
                    .map(|point_idxs| WorkGroup {
                        entry_idx,
                        point_idxs,
                    }),
            );
        }
    }
    groups
}

/// Everything a renderer needs for one (experiment × point) artifact.
pub struct GridJob<'a> {
    /// The experiment's registry entry.
    pub entry: &'static Entry,
    /// Index of `entry` in the selected slice.
    pub entry_idx: usize,
    /// Index of `point` in the grid.
    pub point_idx: usize,
    /// The sweep point this artifact belongs to.
    pub point: &'a ScenarioPoint,
    /// The point's run context (scenario included).
    pub context: &'a RunContext,
    /// The entry again, as a trait object. The engine reads `entry`; this
    /// stays for the benchmark harness's replay (`perfbench/`) until
    /// ROADMAP direction 5 deletes it.
    pub experiment: &'a dyn Experiment,
    /// The computed or loaded (possibly cache-shared) output. It derefs to
    /// the [`cc_report::ExperimentOutput`], which parses a disk hit's body.
    pub output: &'a CachedOutput,
    /// Whether the grid has more than one point (artifacts carry point
    /// metadata only when sweeping).
    pub sweeping: bool,
    /// Output format from the [`GridConfig`].
    pub format: Format,
    /// The pieces of the artifact other jobs share.
    pub(crate) shared: Shared<'a>,
}

impl GridJob<'_> {
    /// The job's artifact in its [`Format`]: the pieces it shares with
    /// other jobs (a work group's output, a point's scenario) rendered once
    /// per run, the rest in place; byte-identical to
    /// [`render_artifact`](crate::artifact::render_artifact) on the job's
    /// fields.
    #[must_use]
    pub fn artifact(&self) -> String {
        let mut text = String::new();
        write_artifact(&mut text, self);
        text
    }
}

/// What one grid run produced, beyond the streamed artifacts. Derefs to
/// its [`RunCounts`].
pub struct GridResult {
    /// Per-job scalar lists, indexed `entry_idx * npoints + point_idx`; the
    /// first scalar is the experiment's summary.
    pub scalars: Vec<Vec<Scalar>>,
    /// The run's counts; `run_counts` is the per-entry work-group plan.
    pub counts: RunCounts,
    /// Whether the engine was stopped ([`Engine::stop`]) before every
    /// group ran: the sink and `scalars` then end at the first skipped job.
    pub cancelled: bool,
}

impl Deref for GridResult {
    type Target = RunCounts;

    fn deref(&self) -> &RunCounts {
        &self.counts
    }
}

impl Engine {
    /// Runs the (experiment × point) grid on up to `config.jobs` worker
    /// threads, one model run per [`WorkGroup`] at most — repeats are
    /// answered from the engine's resident cache (unless `no_cache`), and
    /// concurrent grids racing on a fingerprint compute it exactly once.
    ///
    /// `render` turns each job into output lines *on the worker thread*;
    /// `sink` receives those lines strictly in grid order
    /// (`entry_idx * npoints + point_idx`). A stopped engine
    /// ([`Engine::stop`]) starts no further group and reports the run
    /// [`GridResult::cancelled`].
    pub fn run_grid<R, S>(
        &self,
        entries: &[&'static Entry],
        points: &[ScenarioPoint],
        contexts: &[RunContext],
        config: &GridConfig,
        render: R,
        sink: S,
    ) -> GridResult
    where
        R: Fn(&GridJob<'_>) -> Vec<String> + Sync,
        S: Fn(String) + Sync,
    {
        self.grid(
            &[&self.stopped],
            entries,
            points,
            contexts,
            config,
            render,
            sink,
        )
    }

    /// [`Self::run_grid`], ended between groups by any of the `halt`
    /// flags.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn grid<R, S>(
        &self,
        halt: &[&AtomicBool],
        entries: &[&'static Entry],
        points: &[ScenarioPoint],
        contexts: &[RunContext],
        config: &GridConfig,
        render: R,
        sink: S,
    ) -> GridResult
    where
        R: Fn(&GridJob<'_>) -> Vec<String> + Sync,
        S: Fn(String) + Sync,
    {
        let npoints = points.len();
        let sweeping = npoints > 1;
        let groups = build_groups(entries, points, config.no_cache);
        let mut plan = vec![0usize; entries.len()];
        for group in &groups {
            plan[group.entry_idx] += 1;
        }
        let tally = Tally::new(entries.len());
        let mut scalars = Vec::with_capacity(entries.len() * npoints);
        // A piece gets a memo only when several artifacts share it: an
        // entry's head when the grid has several points, a point's piece
        // when it has several experiments, and (below) a work group's body
        // when the group has several members — for JSON, the cached output.
        let memos = |shared: bool, n: usize| -> Vec<OnceLock<String>> {
            let n = if shared { n } else { 0 };
            (0..n).map(|_| OnceLock::new()).collect()
        };
        let heads = memos(sweeping, entries.len());
        let point_pieces = memos(entries.len() > 1, npoints);

        // One group per work unit: obtain its output (cache or fresh run),
        // then render every member point's artifact (the group's shared
        // pieces plus the point's own) and emit its lines and scalars under
        // the job's grid index.
        // No group fails, so the loop errs only when a halt flag rose.
        let outcome = crate::ordered(
            halt,
            0..groups.len(),
            config.jobs,
            |unit, emit: &dyn Fn(usize, (Vec<String>, Vec<Scalar>))| {
                let group = &groups[unit];
                let entry = entries[group.entry_idx];
                let representative = group.point_idxs[0];
                let output = self.obtain(
                    group.entry_idx,
                    entry,
                    &points[representative].overlay,
                    &contexts[representative],
                    config.no_cache,
                    config.format != Format::Json,
                    &tally,
                );
                let shared = group.point_idxs.len() > 1;
                let body = (shared && config.format != Format::Json).then(OnceLock::new);
                for &point_idx in &group.point_idxs {
                    let job = GridJob {
                        entry,
                        entry_idx: group.entry_idx,
                        point_idx,
                        point: &points[point_idx],
                        context: &contexts[point_idx],
                        experiment: entry,
                        output: &output,
                        sweeping,
                        format: config.format,
                        shared: Shared {
                            head: heads.get(group.entry_idx),
                            point: point_pieces.get(point_idx),
                            body: body.as_ref(),
                            keep_json: shared,
                        },
                    };
                    let lines = render(&job);
                    emit(
                        group.entry_idx * npoints + point_idx,
                        (lines, output.scalars().to_vec()),
                    );
                }
                Ok(())
            },
            |(lines, job_scalars)| {
                for line in lines {
                    sink(line);
                }
                scalars.push(job_scalars);
            },
        );

        GridResult {
            scalars,
            counts: RunCounts {
                run_counts: plan,
                ..tally.finish()
            },
            cancelled: outcome.is_err(),
        }
    }
}

/// `1 run`, `7 reuses`: exact counts with naive pluralization.
#[must_use]
pub fn count(n: usize, noun: &str) -> String {
    if n == 1 {
        format!("{n} {noun}")
    } else {
        format!("{n} {noun}s")
    }
}

/// The dependency plan for the selected experiments over the grid points:
/// declared dependency paths plus how many model runs (and cache reuses)
/// the grid needs — without running anything. One string per output line,
/// byte-identical to the historical `repro --explain` stdout.
#[must_use]
pub fn explain_lines(
    entries: &[&'static Entry],
    points: &[ScenarioPoint],
    no_cache: bool,
) -> Vec<String> {
    let npoints = points.len();
    let overlays: Vec<&ScenarioOverlay> = points.iter().map(|p| &p.overlay).collect();
    let mut lines = vec![format!(
        "dependency plan — {} x {} = {}",
        count(entries.len(), "experiment"),
        count(npoints, "point"),
        count(entries.len() * npoints, "job"),
    )];
    let mut total_runs = 0usize;
    for entry in entries {
        let runs = if no_cache {
            npoints
        } else {
            dedup_groups(&overlays, entry.deps()).len()
        };
        total_runs += runs;
        let deps = if entry.is_scenario_independent() {
            "(scenario-independent)".to_string()
        } else {
            format!(
                "deps: {}",
                entry
                    .deps()
                    .iter()
                    .map(|d| d.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        lines.push(format!(
            "  {:13} {:>9}, {:>9}   {}",
            entry.key,
            count(runs, "run"),
            count(npoints - runs, "reuse"),
            deps
        ));
    }
    lines.push(format!(
        "total: {}, {}",
        count(total_runs, "run"),
        count(entries.len() * npoints - total_runs, "reuse"),
    ));
    lines
}

/// The cache footer for a sweep: per-experiment and total run/reuse counts,
/// byte-identical to the historical CLI footer.
#[must_use]
pub fn footer_lines(
    entries: &[&'static Entry],
    npoints: usize,
    run_counts: &[usize],
) -> Vec<String> {
    let mut footer: Vec<String> = entries
        .iter()
        .zip(run_counts)
        .map(|(entry, &runs)| {
            format!(
                "cache: {}: {}, {}",
                entry.key,
                count(runs, "run"),
                count(npoints - runs, "reuse")
            )
        })
        .collect();
    let total_runs: usize = run_counts.iter().sum();
    footer.push(format!(
        "cache: total: {}, {}",
        count(total_runs, "run"),
        count(entries.len() * npoints - total_runs, "reuse")
    ));
    footer
}

/// The persistent-cache footer: how many work groups each experiment had to
/// recompute this process versus how many were answered straight from the
/// on-disk cache. Printed only when a `--cache-dir` is active, after the
/// in-memory cache footer.
#[must_use]
pub fn disk_footer_lines(
    entries: &[&'static Entry],
    disk_runs: &[usize],
    disk_hits: &[usize],
) -> Vec<String> {
    let mut footer: Vec<String> = entries
        .iter()
        .enumerate()
        .map(|(entry_idx, entry)| {
            format!(
                "disk: {}: {}, {}",
                entry.key,
                count(disk_runs[entry_idx], "recompute"),
                count(disk_hits[entry_idx], "disk hit")
            )
        })
        .collect();
    footer.push(format!(
        "disk: total: {}, {}",
        count(disk_runs.iter().sum(), "recompute"),
        count(disk_hits.iter().sum(), "disk hit")
    ));
    footer
}

/// Builds the comparisons for each experiment from the scalar grid: the
/// experiment's summary scalar diffed across every sweep point, plus one
/// comparison per *additional* scalar carrying a decision threshold (a
/// secondary crossover metric, e.g. ext-facility's cumulative break-even
/// riding alongside its annual one). With a single numeric sweep dimension
/// each comparison also carries the axis (and the scalar's threshold, when
/// declared), enabling crossover analysis.
///
/// A missing scalar is a hard error: every experiment in the registry
/// declares a summary scalar, so a gap would silently hollow out the
/// comparison's spread statistics.
pub fn build_comparisons(
    entries: &[&'static Entry],
    points: &[ScenarioPoint],
    scalars: &[Vec<Scalar>],
    matrix: &ScenarioMatrix,
) -> Result<Vec<Comparison>, EngineError> {
    let npoints = points.len();
    // The crossover x-axis: the swept path, when exactly one dimension is
    // swept and every value on it is numeric.
    let axis: Option<&str> = match matrix.specs() {
        [spec] if spec.values.iter().all(|v| v.parse::<f64>().is_ok()) => Some(spec.path.as_str()),
        _ => None,
    };
    let mut comparisons = Vec::new();
    for (entry_idx, entry) in entries.iter().enumerate() {
        let per_point = &scalars[entry_idx * npoints..(entry_idx + 1) * npoints];
        let reference = per_point
            .iter()
            .find(|s| !s.is_empty())
            .ok_or(EngineError::MissingSummaryScalar { key: entry.key })?;
        for metric in tracked_metrics(reference) {
            let mut comparison = Comparison::new(entry.key, &metric.name, &metric.unit);
            if let Some(axis) = axis {
                comparison = comparison.with_axis(axis);
            }
            if let Some(threshold) = &metric.threshold {
                comparison = comparison.with_threshold(threshold.clone());
            }
            for (point, point_scalars) in points.iter().zip(per_point) {
                let scalar = point_scalars
                    .iter()
                    .find(|s| s.name == metric.name)
                    .ok_or_else(|| EngineError::MissingScalarAtPoint {
                        key: entry.key,
                        metric: metric.name.clone(),
                        point: point.display_label().to_string(),
                    })?;
                let x = axis.and_then(|_| {
                    point
                        .assignments
                        .first()
                        .and_then(|(_, v)| v.parse::<f64>().ok())
                });
                match x {
                    Some(x) => comparison.push_at(point.display_label(), x, Some(scalar.value)),
                    None => comparison.push(point.display_label(), Some(scalar.value)),
                };
            }
            comparisons.push(comparison);
        }
    }
    Ok(comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::render_artifact;
    use cc_core::experiments;
    use cc_report::ScenarioMatrix;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn grid(
        keys: &[&str],
        sweeps: &[&str],
    ) -> (
        Vec<&'static Entry>,
        ScenarioMatrix,
        Vec<ScenarioPoint>,
        Vec<RunContext>,
    ) {
        let entries: Vec<&'static Entry> = keys
            .iter()
            .map(|k| experiments::find_entry(k).expect("known key"))
            .collect();
        let sweeps = sweeps
            .iter()
            .map(|s| cc_report::SweepSpec::parse(s).expect("valid sweep"))
            .collect();
        let matrix =
            ScenarioMatrix::new(cc_report::Scenario::paper_defaults(), sweeps).expect("matrix");
        let points: Vec<ScenarioPoint> = matrix.points().collect();
        let contexts: Vec<RunContext> = points
            .iter()
            .map(|p| RunContext::try_from_overlay(p.overlay.clone()).expect("valid scenario"))
            .collect();
        (entries, matrix, points, contexts)
    }

    #[test]
    fn repeated_grid_is_served_from_cache() {
        let engine = Engine::new();
        let (entries, _matrix, points, contexts) =
            grid(&["fig10"], &["grid.intensity=100,300,500"]);
        let config = GridConfig {
            jobs: 1,
            no_cache: false,
            format: Format::Json,
        };
        let render = |job: &GridJob<'_>| vec![format!("{}#{}", job.entry.key, job.point_idx)];
        let sink = |_line: String| {};
        let first = engine.run_grid(&entries, &points, &contexts, &config, render, sink);
        assert_eq!(first.misses, 3);
        assert_eq!(first.hits, 0);
        assert_eq!(first.run_counts, vec![3]);
        let second = engine.run_grid(&entries, &points, &contexts, &config, render, |_l| {});
        assert_eq!(second.hits, 3, "second identical grid is all cache hits");
        assert_eq!(second.misses, 0);
        // The footer's plan counts are cache-independent by design.
        assert_eq!(second.run_counts, vec![3]);
        assert_eq!(first.scalars, second.scalars);
    }

    #[test]
    fn no_cache_bypasses_the_resident_cache() {
        let engine = Engine::new();
        let (entries, _matrix, points, contexts) = grid(&["fig05"], &["grid.intensity=100,300"]);
        let config = GridConfig {
            jobs: 2,
            no_cache: true,
            format: Format::Text,
        };
        let result = engine.run_grid(
            &entries,
            &points,
            &contexts,
            &config,
            |_j| Vec::new(),
            |_l| {},
        );
        // fig05 is scenario-independent: dedup would run it once, no-cache
        // runs it per point, and neither touches the resident cache.
        assert_eq!(result.run_counts, vec![2]);
        assert_eq!(result.hits + result.misses + result.inflight_dedups, 0);
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn sink_receives_lines_in_grid_order_under_parallelism() {
        let engine = Engine::new();
        let (entries, _matrix, points, contexts) =
            grid(&["fig05", "fig10"], &["grid.intensity=100,200,300,400"]);
        let config = GridConfig {
            jobs: 4,
            no_cache: false,
            format: Format::Text,
        };
        let order = Mutex::new(Vec::new());
        engine.run_grid(
            &entries,
            &points,
            &contexts,
            &config,
            |job| vec![format!("{}:{}", job.entry_idx, job.point_idx)],
            |line| order.lock().unwrap().push(line),
        );
        let order = order.into_inner().unwrap();
        let expected: Vec<String> = (0..2)
            .flat_map(|e| (0..4).map(move |p| format!("{e}:{p}")))
            .collect();
        assert_eq!(order, expected, "reorder buffer preserves grid order");
    }

    #[test]
    fn spliced_artifacts_match_the_reference_for_every_entry_and_format() {
        let all: Vec<&str> = experiments::entries().iter().map(|e| e.key).collect();
        assert_eq!(all.len(), 26);
        let engine = Engine::new();
        // Paper defaults (no `point` member) and a sweep (`point` members).
        // Under the sweep the full registry shares each point's piece and
        // most outputs; fig10 alone shares its output but no point piece,
        // and fig02 alone (one group per point) shares nothing.
        let selections = [&all[..], &["fig10"][..], &["fig02"][..]];
        for (sweeps, keys) in [&[][..], &["fleet.growth=1.0,1.3"][..]]
            .into_iter()
            .flat_map(|sweeps| selections.map(|keys| (sweeps, keys)))
        {
            let (entries, _matrix, points, contexts) = grid(keys, sweeps);
            for format in [Format::Text, Format::Markdown, Format::Csv, Format::Json] {
                let config = GridConfig {
                    jobs: 2,
                    no_cache: false,
                    format,
                };
                let checked = AtomicUsize::new(0);
                engine.run_grid(
                    &entries,
                    &points,
                    &contexts,
                    &config,
                    |job| {
                        let point = job.sweeping.then_some(job.point);
                        let whole = render_artifact(
                            job.entry,
                            job.experiment,
                            job.output,
                            job.context,
                            point,
                            job.format,
                        );
                        assert!(job.artifact() == whole, "{} {format:?}", job.entry.key);
                        checked.fetch_add(1, Ordering::Relaxed);
                        Vec::new()
                    },
                    |_| {},
                );
                assert_eq!(checked.into_inner(), keys.len() * points.len());
            }
        }
    }

    #[test]
    fn a_full_suite_sweep_sinks_the_per_job_reference_lines() {
        let keys: Vec<&str> = experiments::entries().iter().map(|e| e.key).collect();
        let sweeps = ["fleet.growth=1.0,1.25,1.5"];
        // The reference: every job run on its own and rendered whole.
        let (entries, _matrix, points, contexts) = grid(&keys, &sweeps);
        let reference: Vec<String> = entries
            .iter()
            .flat_map(|&entry| {
                points.iter().zip(&contexts).map(move |(point, context)| {
                    let output = entry.run(context);
                    render_artifact(entry, entry, &output, context, Some(point), Format::Json)
                })
            })
            .collect();
        for no_cache in [false, true] {
            for jobs in [1, 4] {
                let config = GridConfig {
                    jobs,
                    no_cache,
                    format: Format::Json,
                };
                let engine = Engine::new();
                let sunk = Mutex::new(Vec::new());
                engine.run_grid(
                    &entries,
                    &points,
                    &contexts,
                    &config,
                    |job| vec![job.artifact()],
                    |line| sunk.lock().unwrap().push(line),
                );
                let sunk = sunk.into_inner().unwrap();
                assert!(sunk == reference, "jobs {jobs}, no_cache {no_cache}");
            }
        }
    }

    #[test]
    fn comparisons_carry_axis_and_error_on_missing_scalars() {
        let (entries, matrix, points, _contexts) = grid(&["fig10"], &["grid.intensity=100,300"]);
        // Hollow scalar grid: every point empty → summary-scalar error.
        let empty: Vec<Vec<Scalar>> = vec![Vec::new(); 2];
        let err = build_comparisons(&entries, &points, &empty, &matrix).unwrap_err();
        assert_eq!(err, EngineError::MissingSummaryScalar { key: "fig10" });
        assert!(err.to_string().contains("produced no summary scalar"));
    }
}
