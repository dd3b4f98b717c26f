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
//!   overlapping requests are answered from resident [`ExperimentOutput`]s,
//!   and concurrent requests racing on the same fingerprint compute it
//!   exactly once;
//! * the streaming **(scenario-point × experiment) grid runner**
//!   ([`Engine::run_grid`]): workers pull fingerprint-deduplicated work
//!   groups off a shared queue, artifacts stream out the moment they
//!   complete, and a reorder buffer keeps the output in grid order;
//! * monotonic counters surfaced as an [`EngineStats`] snapshot.
//!
//! Two execution drivers sit on top of that state:
//!
//! * [`Engine::run_grid`] walks an *enumerated* scenario matrix, streaming
//!   one artifact per (experiment × point) job in grid order;
//! * [`Engine::run_mc`] pumps a *sampled* [`cc_report::MonteCarloMatrix`]
//!   through the same fingerprint/cache pipeline, digesting each tracked
//!   metric into streaming statistics (Welford mean/variance, P² quantile
//!   markers) so a million-sample uncertainty run holds no per-sample
//!   state. A reorder buffer feeds the order-sensitive accumulators
//!   strictly in sample order, making the digests byte-reproducible for a
//!   given seed across any `--jobs` value and across one-shot versus
//!   served runs.
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

pub use artifact::Format;
pub use cache::{Outcome, ShardedCache};
pub use grid::{GridConfig, GridJob, GridResult};
pub use intern::{InternedScenario, ScenarioInterner};
pub use mc::{McConfig, McError, McResult};
pub use persist::DiskCache;
pub use server::{ServeLog, Server};

use cc_core::experiments::{Entry, Part};
use cc_report::{ExperimentOutput, JsonValue, RunContext, Scalar, ScenarioOverlay};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default total cache capacity (entries across all shards). Each entry is
/// one `ExperimentOutput` — tables and series for one experiment at one
/// fingerprint — so even a few thousand stay cheap; the bound exists so a
/// long-lived daemon sweeping many axes cannot grow without limit.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The resident execution engine: the sharded artifact cache plus
/// engine-level counters. One `Engine` is shared (via `Arc`) by every
/// connection of a `repro serve` daemon; the CLI builds a throwaway one per
/// invocation.
pub struct Engine {
    cache: ShardedCache,
    disk: Option<DiskCache>,
    intern: ScenarioInterner,
    requests: AtomicU64,
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

    /// Counts one served request (a CLI invocation or one protocol `run`).
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
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
}

/// The final values of per-entry counters.
pub(crate) fn counts(counters: Vec<AtomicUsize>) -> Vec<usize> {
    counters.into_iter().map(AtomicUsize::into_inner).collect()
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

impl Engine {
    /// One entry's output at one scenario point: the read-through pipeline
    /// every driver shares. Each of the entry's parts is fingerprinted on
    /// its own deps and looked up in the resident cache; a miss consults
    /// the disk cache (file `{part key}-{fp}.json`) before computing, and
    /// writes back what it computed. The parts are then joined in order
    /// with [`ExperimentOutput::append`]; a one-part entry's cached `Arc`
    /// is returned as is.
    ///
    /// Counting: `hits`, `misses` and `dedups` count part lookups. The
    /// per-entry counts count this call once: in `runs` when any part
    /// missed the resident cache, in `disk_runs` when any part was
    /// computed, and in `disk_hits` when every part that missed loaded
    /// from disk. With `no_cache` the whole experiment runs, counted in
    /// `runs` only.
    pub(crate) fn obtain(
        &self,
        entry_idx: usize,
        entry: &'static Entry,
        overlay: &ScenarioOverlay,
        context: &RunContext,
        no_cache: bool,
        tally: &Tally,
    ) -> Arc<ExperimentOutput> {
        if no_cache {
            tally.runs[entry_idx].fetch_add(1, Ordering::Relaxed);
            return Arc::new(entry.build().run(context));
        }
        let (first, rest) = entry
            .parts()
            .split_first()
            .expect("every entry has at least one part");
        let (mut output, mut source) = self.lookup(first, overlay, context, tally);
        for part in rest {
            let (next, next_source) = self.lookup(part, overlay, context, tally);
            Arc::make_mut(&mut output).append(&next);
            source = source.max(next_source);
        }
        let per_entry = match source {
            Source::Resident => return output,
            Source::Disk => &tally.disk_hits,
            Source::Computed => &tally.disk_runs,
        };
        per_entry[entry_idx].fetch_add(1, Ordering::Relaxed);
        tally.runs[entry_idx].fetch_add(1, Ordering::Relaxed);
        output
    }

    /// One part through the resident cache, then the disk cache, then
    /// its model.
    fn lookup(
        &self,
        part: &'static Part,
        overlay: &ScenarioOverlay,
        context: &RunContext,
        tally: &Tally,
    ) -> (Arc<ExperimentOutput>, Source) {
        let fingerprint = part.fingerprint(overlay);
        let mut source = Source::Resident;
        let (output, outcome) = self.cache.get_or_compute((part.key, fingerprint), || {
            if let Some(stored) = self.disk().and_then(|d| d.load(part.key, fingerprint)) {
                source = Source::Disk;
                return stored;
            }
            let fresh = (part.run)(context);
            if let Some(disk) = self.disk() {
                disk.store(part.key, fingerprint, &fresh);
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
    /// An experiment lacked a named scalar at one sweep point.
    MissingScalarAtPoint {
        /// The experiment's registry key.
        key: &'static str,
        /// The missing scalar's name.
        metric: String,
        /// The sweep point's display label.
        point: String,
    },
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
        }
    }
}

impl std::error::Error for EngineError {}

/// Re-exported so front-ends can hold grid scalars without importing
/// `cc_report` themselves.
pub type ScalarGrid = Vec<Vec<Scalar>>;

/// Convenience alias used across the grid runner and cache.
pub type Output = ExperimentOutput;

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
                let whole = entry.build().run(&context).render_json();
                // Cold (computed), warm (resident), then a fresh engine
                // reading every part back from disk.
                for engine in [&engine, &engine, &reloaded] {
                    let output = engine.obtain(idx, entry, &overlay, &context, false, &tally);
                    assert_eq!(output.render_json(), whole, "{}", entry.key);
                }
            }
            assert_eq!(counts(tally.runs), vec![2; entries.len()]);
            assert_eq!(counts(tally.disk_runs), vec![1; entries.len()]);
            assert_eq!(counts(tally.disk_hits), vec![1; entries.len()]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
