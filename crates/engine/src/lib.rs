//! # cc-engine
//!
//! The resident experiment-execution engine behind both the one-shot
//! `repro` CLI and the long-running `repro serve` daemon.
//!
//! [`Engine`] owns the shared state a sweep service needs:
//!
//! * a **sharded, content-addressed fingerprint→artifact cache**
//!   ([`cache::ShardedCache`]) keyed on `(part key,
//!   dependency_fingerprint)` per experiment part — repeated and
//!   overlapping requests are answered from resident [`CachedOutput`]s,
//!   and concurrent requests racing on the same fingerprint compute it
//!   exactly once;
//! * monotonic counters surfaced as an [`EngineStats`] snapshot.
//!
//! Both front ends resolve a request into a [`protocol::ResolvedRun`] and
//! hand it to one executor, [`Engine::execute`], which picks a driver and
//! returns the run's [`Report`] plus its [`RunCounts`]; the callers only
//! render:
//!
//! * [`Engine::run_grid`] walks an *enumerated* scenario matrix, streaming
//!   one artifact per (experiment × point) job in grid order; a sweep's
//!   summary scalars become [`grid::build_comparisons`]'s comparisons;
//! * [`Engine::run_mc`] pumps a *sampled* [`cc_report::MonteCarloMatrix`]
//!   through the same fingerprint/cache pipeline, digesting each tracked
//!   metric into streaming statistics (Welford mean/variance, P² quantile
//!   markers) so a million-sample uncertainty run holds no per-sample
//!   state.
//!
//! Both drivers run on one ordered worker loop: up to `jobs` scoped
//! threads pull work units off an atomic cursor, and a reorder buffer
//! hands their results on strictly in order — artifact lines to the
//! caller's sink in grid order, sample values to the order-sensitive
//! accumulators in sample order. A grid's unit is one work group; a
//! Monte-Carlo run's is a block of consecutive samples, so the cursor
//! and the buffer's lock are paid once per block. That makes stdout and
//! the Monte-Carlo digests byte-reproducible across any `--jobs` value
//! and across one-shot versus served runs. [`Engine::stop`] ends every
//! run's loop between units, so a stopped daemon cancels its runs, and a
//! run's own cancel flag ([`Engine::execute`]) ends just that run's.
//!
//! Both drivers look every part up through one read-through path,
//! `Engine::obtain`, which takes each part's dependency fingerprint from
//! the caller: the grid hashes its representative point's overlay, and a
//! Monte-Carlo run's plan hands over a fingerprint it took once per run
//! for every part that reads no sampled field.
//!
//! The surrounding modules carry everything else the two front-ends share:
//! [`artifact`] renders per-point artifacts, cross-scenario comparison
//! reports and Monte-Carlo digests byte-identically to the historical CLI,
//! [`protocol`] defines the newline-delimited-JSON request/response
//! vocabulary (specified normatively in `docs/PROTOCOL.md`), and
//! [`server`] is the `std::net::TcpListener` daemon loop.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod grid;
pub mod intern;
pub mod mc;
pub mod persist;
pub mod protocol;
pub mod server;

pub use artifact::{Format, Report};
pub use cache::{CachedOutput, Outcome, ShardedCache};
pub use grid::{GridConfig, GridJob, GridResult};
pub use intern::ScenarioInterner;
pub use mc::{McConfig, McResult};
pub use persist::DiskCache;
pub use server::{ServeLog, Server};

use cc_core::experiments::{Entry, Part};
use cc_report::{ExperimentOutput, JsonValue, RunContext, Scalar, ScenarioOverlay};
use grid::build_comparisons;
use protocol::ResolvedRun;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default total cache capacity (entries across all shards). Each entry is
/// one part's output at one fingerprint — tables and series, and for a
/// disk hit or a shared body their JSON text — so even a few thousand stay
/// cheap; the bound exists so a long-lived daemon sweeping many axes
/// cannot grow without limit.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The most worker threads one run starts, whatever its `jobs` asks for.
/// Outputs are byte-identical at any `jobs`, so the cap changes no output;
/// it keeps a huge `--jobs` from asking the OS for that many threads.
pub const MAX_JOBS: usize = 64;

/// The worker threads a run's `jobs` stands for: at least one, at most
/// [`MAX_JOBS`]. Both drivers size their work by it — the grid's worker
/// loop and the Monte-Carlo block length.
pub(crate) fn workers(jobs: usize) -> usize {
    jobs.clamp(1, MAX_JOBS)
}

/// The resident execution engine: the sharded artifact cache plus
/// engine-level counters. One `Engine` is shared (via `Arc`) by every
/// connection of a `repro serve` daemon; the CLI builds a throwaway one per
/// invocation.
pub struct Engine {
    cache: ShardedCache,
    disk: Option<DiskCache>,
    intern: ScenarioInterner,
    requests: AtomicU64,
    stopped: AtomicBool,
}

impl Engine {
    /// An engine with the [`DEFAULT_CACHE_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An engine whose cache holds at most `capacity` artifacts.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            cache: ShardedCache::new(capacity),
            disk: None,
            intern: ScenarioInterner::new(intern::DEFAULT_INTERN_CAPACITY),
            requests: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
        }
    }

    /// Attaches a persistent on-disk artifact cache. The grid runner reads
    /// through it on in-memory misses and writes freshly computed artifacts
    /// back, so fingerprints survive process restarts.
    #[must_use]
    pub fn with_disk(mut self, disk: DiskCache) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The attached persistent cache, when one was configured.
    #[must_use]
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The shared fingerprint→artifact cache.
    #[must_use]
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// The shared payload→validated-scenario interner. The daemon resolves
    /// protocol requests through it so repeated `set`/`dists` payloads
    /// skip re-validation.
    #[must_use]
    pub fn interner(&self) -> &ScenarioInterner {
        &self.intern
    }

    /// Stops every run on this engine, now and from now on: each run's
    /// worker loop starts no further work unit, and a run that skipped
    /// units returns [`EngineError::Cancelled`]. A unit already running
    /// finishes, so nothing partial is cached or written to disk. The
    /// daemon stops its engine on `shutdown`.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Relaxed);
    }

    /// Counts one served request (a CLI invocation or one protocol `run`).
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Executes one resolved run: the one executor behind one-shot `repro`
    /// and every daemon `run`. Counts the request, then runs the
    /// Monte-Carlo driver when the run binds distributions and the grid
    /// driver otherwise, building a sweep's comparisons from the grid's
    /// scalars. `config` carries the run's `jobs` and `no_cache`; `render`
    /// and `sink` stream the grid's artifacts as in [`Self::run_grid`]
    /// (a Monte-Carlo run streams none). Raising `cancel` ends the run
    /// between work units as [`Self::stop`] does, but only this run: the
    /// daemon raises it once the run's client is gone.
    ///
    /// # Errors
    ///
    /// [`EngineError::Sample`] when a drawn value fails validation; the
    /// missing-scalar errors when an experiment's scalar coverage breaks;
    /// [`EngineError::Cancelled`] when the engine was stopped or `cancel`
    /// raised mid-run. Artifacts already streamed stay streamed.
    pub fn execute<'run, R, S>(
        &self,
        run: &'run ResolvedRun,
        config: &GridConfig,
        cancel: &AtomicBool,
        render: R,
        sink: S,
    ) -> Result<Execution<'run>, EngineError>
    where
        R: Fn(&GridJob<'_>) -> Vec<String> + Sync,
        S: Fn(String) + Sync,
    {
        self.count_request();
        let halt = [&self.stopped, cancel];
        if let Some(matrix) = &run.mc {
            let config = McConfig {
                jobs: config.jobs,
                no_cache: config.no_cache,
            };
            let result = self.mc(&halt, &run.entries, matrix, &config)?;
            return Ok(Execution {
                report: Some(Report::Mc(matrix, result.comparisons)),
                counts: result.counts,
            });
        }
        let result = self.grid(
            &halt,
            &run.entries,
            &run.points,
            &run.contexts,
            config,
            render,
            sink,
        );
        if result.cancelled {
            return Err(EngineError::Cancelled);
        }
        let report = if run.matrix.is_sweep() {
            let comparisons =
                build_comparisons(&run.entries, &run.points, &result.scalars, &run.matrix)?;
            Some(Report::Sweep(&run.matrix, comparisons))
        } else {
            None
        };
        Ok(Execution {
            report,
            counts: result.counts,
        })
    }

    /// A point-in-time snapshot of the engine's counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let (hits, misses, inflight_dedups, evictions) = self.cache.counters();
        let (intern_hits, intern_misses) = self.intern.counters();
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits,
            misses,
            inflight_dedups,
            evictions,
            entries: self.cache.entries(),
            intern_hits,
            intern_misses,
        }
    }
}

/// What one grid or Monte-Carlo run's lookups through [`Engine::obtain`]
/// added up to. Per-entry counts are indexed like the run's entries.
pub(crate) struct Tally {
    /// Entry lookups in which some part missed the resident cache.
    pub(crate) runs: Vec<AtomicUsize>,
    /// Entry lookups in which some part was computed fresh.
    pub(crate) disk_runs: Vec<AtomicUsize>,
    /// Entry lookups in which every part that missed the resident cache
    /// loaded from disk.
    pub(crate) disk_hits: Vec<AtomicUsize>,
    /// Part lookups answered from resident artifacts.
    pub(crate) hits: AtomicU64,
    /// Part lookups that computed (or disk-loaded) a fresh artifact.
    pub(crate) misses: AtomicU64,
    /// Part lookups that waited on another in-flight computation.
    pub(crate) dedups: AtomicU64,
}

impl Tally {
    pub(crate) fn new(entries: usize) -> Self {
        let zeros = || (0..entries).map(|_| AtomicUsize::new(0)).collect();
        Self {
            runs: zeros(),
            disk_runs: zeros(),
            disk_hits: zeros(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dedups: AtomicU64::new(0),
        }
    }

    /// The final counts.
    pub(crate) fn finish(self) -> RunCounts {
        RunCounts {
            run_counts: counts(self.runs),
            disk_runs: counts(self.disk_runs),
            disk_hits: counts(self.disk_hits),
            hits: self.hits.into_inner(),
            misses: self.misses.into_inner(),
            inflight_dedups: self.dedups.into_inner(),
        }
    }
}

/// The final values of per-entry counters.
pub(crate) fn counts(counters: Vec<AtomicUsize>) -> Vec<usize> {
    counters.into_iter().map(AtomicUsize::into_inner).collect()
}

/// What one grid or Monte-Carlo run's lookups added up to: the cache
/// footers' per-entry counts (indexed like the run's entries) and the
/// `done` line's part-lookup counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCounts {
    /// Per-entry model runs. For a grid, one per work group — the plan,
    /// deliberately independent of cache outcomes so a warm and a cold
    /// cache print identical footers. For a Monte-Carlo run, the samples
    /// in which some part missed the resident cache (with `no_cache`,
    /// every sample).
    pub run_counts: Vec<usize>,
    /// Per-entry lookups in which this process computed some part fresh
    /// (a miss the disk cache could not answer): the disk footer's "N
    /// recomputes".
    pub disk_runs: Vec<usize>,
    /// Per-entry lookups in which every part that missed the resident
    /// cache was answered by the on-disk cache. Always zero without one.
    pub disk_hits: Vec<usize>,
    /// Part lookups answered from resident artifacts.
    pub hits: u64,
    /// Part lookups that computed (or disk-loaded) a fresh artifact.
    pub misses: u64,
    /// Part lookups deduplicated against another in-flight computation.
    pub inflight_dedups: u64,
}

/// What [`Engine::execute`] returns.
pub struct Execution<'run> {
    /// The whole-run report: a sweep's comparisons or a Monte-Carlo run's
    /// digests. `None` for a single-point grid, whose artifacts are its
    /// whole output.
    pub report: Option<Report<'run>>,
    /// The run's lookup and model-run counts.
    pub counts: RunCounts,
}

/// The metrics a run tracks across points or samples: the summary scalar
/// (the first) plus every other scalar carrying a decision threshold.
pub(crate) fn tracked_metrics(scalars: &[Scalar]) -> impl Iterator<Item = &Scalar> {
    scalars
        .iter()
        .enumerate()
        .filter(|(i, scalar)| *i == 0 || scalar.threshold.is_some())
        .map(|(_, scalar)| scalar)
}

/// The reorder buffer between out-of-order completion and in-order
/// delivery: items are handed in by key, and every item whose
/// predecessors have all arrived goes to `deliver`, buffering only the
/// gap.
struct ReorderBuffer<T, D> {
    next: usize,
    pending: BTreeMap<usize, T>,
    deliver: D,
}

impl<T, D: FnMut(T)> ReorderBuffer<T, D> {
    fn complete(&mut self, key: usize, item: T) {
        self.pending.insert(key, item);
        while let Some(item) = self.pending.remove(&self.next) {
            (self.deliver)(item);
            self.next += 1;
        }
    }
}

/// The ordered worker loop both drivers share. At most `jobs` scoped
/// threads — never more than [`MAX_JOBS`] or the number of units, and
/// the calling thread alone at one — pull the work units in
/// `units` off one atomic cursor and call `work(unit, emit)`; each call
/// may `emit(key, item)` any number of items, and `deliver` receives them
/// strictly in key order, counting up from `units.start`.
///
/// The first failing unit stops the cursor and the loop drains. Units are
/// handed out in increasing order, so every unit below a failed one has
/// run: the error returned is that of the lowest failing unit, however
/// the threads interleave. Any of the `halt` flags (the engine's
/// [`Engine::stop`] flag, and a served run's cancel flag) ends the loop
/// the same way between units; a loop that skipped units then returns
/// [`EngineError::Cancelled`], and one that ran them all reports as
/// before.
fn ordered<T, W, D>(
    halt: &[&AtomicBool],
    units: Range<usize>,
    jobs: usize,
    work: W,
    deliver: D,
) -> Result<(), EngineError>
where
    T: Send,
    W: Fn(usize, &dyn Fn(usize, T)) -> Result<(), EngineError> + Sync,
    D: FnMut(T) + Send,
{
    let buffer = Mutex::new(ReorderBuffer {
        next: units.start,
        pending: BTreeMap::new(),
        deliver,
    });
    let emit = |key: usize, item: T| {
        buffer
            .lock()
            .expect("no panics under lock")
            .complete(key, item);
    };
    let cursor = AtomicUsize::new(units.start);
    let stop = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, EngineError)>> = Mutex::new(None);
    let worker = || {
        while !stop.load(Ordering::Relaxed) && !halt.iter().any(|f| f.load(Ordering::Relaxed)) {
            let unit = cursor.fetch_add(1, Ordering::Relaxed);
            if unit >= units.end {
                break;
            }
            if let Err(e) = work(unit, &emit) {
                let mut slot = failure.lock().expect("no panics under lock");
                if slot.as_ref().is_none_or(|(prior, _)| unit < *prior) {
                    *slot = Some((unit, e));
                }
                stop.store(true, Ordering::Relaxed);
            }
        }
    };
    let threads = workers(jobs).min(units.len().max(1));
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    match failure.into_inner().expect("no panics under lock") {
        Some((_, e)) => Err(e),
        None if cursor.into_inner() < units.end => Err(EngineError::Cancelled),
        None => Ok(()),
    }
}

/// Where a lookup's output came from. Ordered so that an entry's source is
/// the greatest of its parts' sources.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    /// The resident cache, or another lookup's in-flight computation.
    Resident,
    /// The disk cache.
    Disk,
    /// A fresh model run.
    Computed,
}

/// Where [`Engine::obtain`] takes each part's dependency fingerprint from.
/// A scenario overlay hashes every part's own deps on each call; a
/// Monte-Carlo run plan ([`mc`]) answers the parts that read no sampled
/// field from fingerprints it took once per run.
pub(crate) trait PartFingerprints {
    /// The fingerprint of `part`, the entry's `index`-th part.
    fn fingerprint(&self, index: usize, part: &'static Part) -> u64;
}

impl PartFingerprints for ScenarioOverlay {
    fn fingerprint(&self, _index: usize, part: &'static Part) -> u64 {
        part.fingerprint(self)
    }
}

impl Engine {
    /// One entry's output at one scenario point: the read-through pipeline
    /// every driver shares. Each of the entry's parts is looked up in the
    /// resident cache under the fingerprint `fingerprints` gives it; a miss
    /// consults the disk cache (file `{part key}-{fp}.json`) before
    /// computing, and writes back what it computed. A one-part entry's
    /// cached `Arc` is returned as is; the parts of a larger entry are
    /// joined in order with [`ExperimentOutput::append`].
    ///
    /// A disk hit keeps its body as text unless `parse` says the caller
    /// reads the whole output (a non-JSON format) or the entry joins
    /// parts; then a body that does not parse is a miss.
    ///
    /// Counting: `hits`, `misses` and `dedups` count part lookups. The
    /// per-entry counts count this call once: in `runs` when any part
    /// missed the resident cache, in `disk_runs` when any part was
    /// computed, and in `disk_hits` when every part that missed loaded
    /// from disk. With `no_cache` the whole experiment runs, counted in
    /// `runs` only, and no fingerprint is taken.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obtain<F: PartFingerprints + ?Sized>(
        &self,
        entry_idx: usize,
        entry: &'static Entry,
        fingerprints: &F,
        context: &RunContext,
        no_cache: bool,
        parse: bool,
        tally: &Tally,
    ) -> Arc<CachedOutput> {
        if no_cache {
            tally.runs[entry_idx].fetch_add(1, Ordering::Relaxed);
            return Arc::new(entry.run(context).into());
        }
        let parse = parse || entry.parts().len() > 1;
        let mut parts = entry.parts().iter().enumerate().map(|(index, part)| {
            let fingerprint = fingerprints.fingerprint(index, part);
            self.lookup(part, fingerprint, context, parse, tally)
        });
        let (first, mut source) = parts.next().expect("every entry has at least one part");
        let mut joined: Option<ExperimentOutput> = None;
        for (next, next_source) in parts {
            joined
                .get_or_insert_with(|| first.output().clone())
                .append(next.output());
            source = source.max(next_source);
        }
        let output = joined.map_or(first, |joined| Arc::new(joined.into()));
        let per_entry = match source {
            Source::Resident => return output,
            Source::Disk => &tally.disk_hits,
            Source::Computed => &tally.disk_runs,
        };
        per_entry[entry_idx].fetch_add(1, Ordering::Relaxed);
        tally.runs[entry_idx].fetch_add(1, Ordering::Relaxed);
        output
    }

    /// One part under its `fingerprint` through the resident cache, then
    /// the disk cache (parsing the body when `parse`), then its model.
    fn lookup(
        &self,
        part: &'static Part,
        fingerprint: u64,
        context: &RunContext,
        parse: bool,
        tally: &Tally,
    ) -> (Arc<CachedOutput>, Source) {
        let mut source = Source::Resident;
        let (output, outcome) = self.cache.get_or_compute((part.key, fingerprint), || {
            let disk = self.disk();
            if let Some(stored) = disk.and_then(|d| d.load_entry(part.key, fingerprint, parse)) {
                source = Source::Disk;
                return stored;
            }
            let fresh = CachedOutput::from((part.run)(context));
            if let Some(disk) = disk {
                disk.store_entry(part.key, fingerprint, &fresh);
            }
            source = Source::Computed;
            fresh
        });
        match outcome {
            Outcome::Hit => tally.hits.fetch_add(1, Ordering::Relaxed),
            Outcome::Miss => tally.misses.fetch_add(1, Ordering::Relaxed),
            Outcome::InflightDedup => tally.dedups.fetch_add(1, Ordering::Relaxed),
        };
        (output, source)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot of the engine's monotonic counters, exposed to the `stats`
/// protocol request and to perfbench's traced replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests served (CLI invocations or protocol `run` requests).
    pub requests: u64,
    /// Part lookups answered from a resident artifact.
    pub hits: u64,
    /// Part lookups that computed (and inserted) a fresh artifact.
    pub misses: u64,
    /// Lookups that waited on another request's in-flight computation
    /// instead of recomputing.
    pub inflight_dedups: u64,
    /// Resident artifacts dropped to keep the cache within capacity.
    pub evictions: u64,
    /// Part artifacts currently resident.
    pub entries: u64,
    /// Request payloads whose validated scenario was reused from the
    /// interner instead of being re-validated.
    pub intern_hits: u64,
    /// Request payloads validated (and interned) for the first time.
    pub intern_misses: u64,
}

impl EngineStats {
    /// The snapshot as a JSON object (protocol `stats` response payload).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("requests", JsonValue::Integer(self.requests)),
            ("hits", JsonValue::Integer(self.hits)),
            ("misses", JsonValue::Integer(self.misses)),
            ("inflight_dedups", JsonValue::Integer(self.inflight_dedups)),
            ("evictions", JsonValue::Integer(self.evictions)),
            ("entries", JsonValue::Integer(self.entries)),
            ("intern_hits", JsonValue::Integer(self.intern_hits)),
            ("intern_misses", JsonValue::Integer(self.intern_misses)),
        ])
    }
}

/// Errors surfaced by engine orchestration (as opposed to request-shape
/// errors, which live in [`protocol::ProtocolError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An experiment produced no summary scalar, so the sweep comparison
    /// cannot cover it.
    MissingSummaryScalar {
        /// The experiment's registry key.
        key: &'static str,
    },
    /// An experiment lacked a named scalar at one sweep point or sample.
    MissingScalarAtPoint {
        /// The experiment's registry key.
        key: &'static str,
        /// The missing scalar's name.
        metric: String,
        /// The sweep point's or sample's display label.
        point: String,
    },
    /// A Monte-Carlo sample failed to apply or validate — typically an
    /// unbounded `normal` tail drawing outside the field's physical range.
    Sample(String),
    /// The engine was stopped ([`Engine::stop`]) before the run finished.
    Cancelled,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingSummaryScalar { key } => write!(
                f,
                "experiment `{key}` produced no summary scalar; sweep comparisons \
                 require full scalar coverage"
            ),
            Self::MissingScalarAtPoint { key, metric, point } => write!(
                f,
                "experiment `{key}` produced no `{metric}` scalar at point `{point}`"
            ),
            Self::Sample(message) => f.write_str(message),
            Self::Cancelled => f.write_str("the engine stopped before the run finished"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_report::Scenario;

    /// Every semantic field off its paper default (the scenario the
    /// registry's read-tracking test also uses), so no scenario branch of
    /// any part goes unchecked.
    fn perturbed() -> Scenario {
        let mut s = Scenario::paper_defaults();
        for (key, value) in [
            ("name", "perturbed"),
            ("grid.intensity", "52"),
            ("grid.renewable_fraction", "0.25"),
            ("grid.regions", "coastal:300,100"),
            ("device.lifetime", "4.5"),
            ("device.soc_budget_share", "0.6"),
            ("fab.node_nm", "7"),
            ("fab.yield_factor", "1.5"),
            ("fab.renewable_share", "0.5"),
            ("fleet.scale", "2"),
            ("fleet.sku", "storage"),
            ("fleet.mix", "web:0.6,ai-training:0.4"),
            ("fleet.sites", "main@default:0.6,green@solar:0.4"),
            ("fleet.deferrable", "0.35"),
            ("fleet.initial_servers", "30000"),
            ("fleet.growth", "1.1"),
            ("fleet.pue", "1.3"),
            ("fleet.renewable_ramp", "0,0.5,1"),
            ("fleet.construction_kt", "100"),
            ("fleet.building_amortization_years", "15"),
            ("fleet.start_year", "2021"),
            ("fleet.horizon_years", "5"),
            ("mc.seed", "7"),
            ("mc.samples", "500"),
        ] {
            s.set(key, value).unwrap();
        }
        s
    }

    #[test]
    fn worker_threads_are_capped() {
        assert_eq!(workers(0), 1);
        assert_eq!(workers(4), 4);
        assert_eq!(workers(MAX_JOBS), MAX_JOBS);
        assert_eq!(workers(100_000), MAX_JOBS);
        assert_eq!(workers(usize::MAX), MAX_JOBS);
    }

    #[test]
    fn ordered_delivers_in_key_order_and_fails_at_the_lowest_unit() {
        for jobs in [1, 4] {
            let mut delivered = Vec::new();
            let result = ordered(
                &[],
                0..200,
                jobs,
                |unit, emit: &dyn Fn(usize, usize)| {
                    if unit % 50 == 49 {
                        return Err(EngineError::Sample(unit.to_string()));
                    }
                    emit(unit, unit);
                    Ok(())
                },
                |item| delivered.push(item),
            );
            assert_eq!(result, Err(EngineError::Sample("49".into())), "jobs {jobs}");
            assert_eq!(delivered, (0..49).collect::<Vec<_>>(), "jobs {jobs}");
        }
    }

    #[test]
    fn ordered_stops_between_units_and_cancels_only_a_short_run() {
        // The flag rises during unit `at`: that unit finishes, the loop
        // starts no other, and only a loop with units left is cancelled.
        for (at, expected) in [(10, Err(EngineError::Cancelled)), (199, Ok(()))] {
            let stopped = AtomicBool::new(false);
            let mut delivered = Vec::new();
            let result = ordered(
                &[&stopped],
                0..200,
                1,
                |unit, emit: &dyn Fn(usize, usize)| {
                    if unit == at {
                        stopped.store(true, Ordering::Relaxed);
                    }
                    emit(unit, unit);
                    Ok(())
                },
                |item| delivered.push(item),
            );
            assert_eq!(result, expected, "stopped at {at}");
            assert_eq!(delivered, (0..=at).collect::<Vec<_>>(), "stopped at {at}");
        }
    }

    #[test]
    fn assembled_outputs_match_the_whole_run_cold_warm_and_from_disk() {
        let entries = cc_core::experiments::entries();
        for scenario in [Scenario::paper_defaults(), perturbed()] {
            let dir = std::env::temp_dir().join(format!(
                "cc-engine-parts-{}-{}",
                scenario.name,
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let overlay = ScenarioOverlay::new(Arc::new(scenario.clone()));
            let context = RunContext::try_new(scenario).unwrap();
            let engine = Engine::new().with_disk(DiskCache::open(&dir).unwrap());
            let reloaded = Engine::new().with_disk(DiskCache::open(&dir).unwrap());
            let tally = Tally::new(entries.len());
            for (idx, entry) in entries.iter().enumerate() {
                let whole = entry.run(&context).to_json().render();
                // Cold (computed), warm (resident), then a fresh engine
                // reading every part back from disk.
                for engine in [&engine, &engine, &reloaded] {
                    let output =
                        engine.obtain(idx, entry, &overlay, &context, false, false, &tally);
                    assert_eq!(output.json(), whole, "{}", entry.key);
                    assert_eq!(output.to_json().render(), whole, "{}", entry.key);
                }
            }
            assert_eq!(counts(tally.runs), vec![2; entries.len()]);
            assert_eq!(counts(tally.disk_runs), vec![1; entries.len()]);
            assert_eq!(counts(tally.disk_hits), vec![1; entries.len()]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
