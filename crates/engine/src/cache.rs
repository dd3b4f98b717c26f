//! The sharded, content-addressed fingerprint→artifact cache.
//!
//! Every experiment part's output is a pure function of its declared
//! scenario fields (`Part::deps`, verified by the read-tracking test
//! `declared_deps_match_actual_reads` in `cc_core::experiments`), so
//! a `(part key, dependency_fingerprint)` pair addresses the output
//! *content* — not the request that produced it. The cache exploits that
//! purity in three ways:
//!
//! * **sharding** — keys hash onto [`SHARDS`] independent mutex-protected
//!   maps, so concurrent requests only contend when they land on the same
//!   shard, not on one global lock;
//! * **inflight dedup** — two requests racing on the same fingerprint
//!   compute it exactly once: the second finds a pending slot and
//!   blocks on its condvar until the first finishes (or abandons);
//! * **bounded memory** — each shard evicts its oldest resident entries
//!   beyond a per-shard capacity, counting evictions so the stats surface
//!   makes cache pressure visible.
//!
//! A computation that panics never poisons the cache: a completion guard
//! removes the pending slot on unwind and wakes every waiter, which then
//! retries from scratch.
//!
//! An entry is a [`CachedOutput`]: a computed output, or a disk hit kept as
//! its stored scalars and rendered JSON text, parsed only on demand.

use cc_report::{ExperimentOutput, JsonValue, Scalar};
use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of independent cache shards. A power of two so the shard index is
/// a cheap mask of the key hash.
pub const SHARDS: usize = 16;

/// Cache key: a part's stable key (the experiment's registry key for a
/// one-part entry) plus the dependency fingerprint of the scenario
/// restricted to the part's declared fields. The fingerprint alone is not
/// enough — two parts declaring the same dependency set fingerprint
/// identically but produce different output.
pub type CacheKey = (&'static str, u64);

/// One part's output as the cache holds it. A computed output is held as
/// is. A disk hit ([`crate::DiskCache`]) holds the stored scalars and the
/// stored `output` JSON text, and parses the text only when something
/// reads more than the scalars — a non-JSON format, or ext-mc's join of
/// its parts; a JSON artifact splices the text as its body
/// ([`Self::json`]). Derefs to the output, parsing it on first use.
pub struct CachedOutput {
    /// The output; for a disk hit, parsed from `json` on first use.
    output: OnceLock<ExperimentOutput>,
    /// The rendered `output` JSON: set at load for a disk hit, and on
    /// first [`Self::json`] for a computed output.
    json: OnceLock<String>,
    /// A disk hit's scalars, parsed at load. `None` for a computed output,
    /// which reads its own.
    stored_scalars: Option<Vec<Scalar>>,
}

impl CachedOutput {
    /// A disk hit: the stored scalars and `output` JSON text, unparsed.
    pub(crate) fn stored(scalars: Vec<Scalar>, json: String) -> Self {
        Self {
            output: OnceLock::new(),
            json: OnceLock::from(json),
            stored_scalars: Some(scalars),
        }
    }

    /// The output's scalars, without parsing a disk hit's body.
    #[must_use]
    pub fn scalars(&self) -> &[Scalar] {
        match &self.stored_scalars {
            Some(scalars) => scalars,
            None => &self.output().scalars,
        }
    }

    /// The output, parsed from a disk hit's body on first use.
    ///
    /// # Panics
    ///
    /// When a disk hit's body is not an output. The disk cache only hands
    /// out bodies whose digest matches what its store wrote, and the
    /// engine's drivers parse a body they will read when they load it,
    /// taking one that does not parse as a miss, so they never panic here.
    #[must_use]
    pub fn output(&self) -> &ExperimentOutput {
        self.parse()
            .expect("a stored body whose digest matches parses")
    }

    /// The output, parsed from a disk hit's body on first use; `None` when
    /// that body is not an output.
    pub(crate) fn parse(&self) -> Option<&ExperimentOutput> {
        if let Some(output) = self.output.get() {
            return Some(output);
        }
        let text = self.json.get()?;
        let parsed = ExperimentOutput::from_json(&JsonValue::parse(text).ok()?)?;
        Some(self.output.get_or_init(|| parsed))
    }

    /// The output, parsed from a disk hit's body if need be; `None` when
    /// that body is not an output.
    pub(crate) fn into_output(self) -> Option<ExperimentOutput> {
        self.parse()?;
        self.output.into_inner()
    }

    /// The output rendered as JSON: a disk hit's stored text, or the
    /// computed output's rendering, made once and kept.
    #[must_use]
    pub fn json(&self) -> &str {
        self.json.get_or_init(|| self.output().to_json().render())
    }

    /// Appends the output's JSON to `out`: the kept text when there is
    /// one; otherwise rendered, and kept for later readers when `keep`.
    pub(crate) fn write_json(&self, out: &mut String, keep: bool) {
        match self.json.get() {
            Some(text) => out.push_str(text),
            None if keep => out.push_str(self.json()),
            None => self.output().to_json().write(out),
        }
    }
}

impl From<ExperimentOutput> for CachedOutput {
    fn from(output: ExperimentOutput) -> Self {
        Self {
            output: OnceLock::from(output),
            json: OnceLock::new(),
            stored_scalars: None,
        }
    }
}

impl Deref for CachedOutput {
    type Target = ExperimentOutput;

    fn deref(&self) -> &ExperimentOutput {
        self.output()
    }
}

/// How a [`ShardedCache::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from a resident entry.
    Hit,
    /// Computed by this call and inserted.
    Miss,
    /// Another in-flight computation of the same key was awaited.
    InflightDedup,
}

/// State of one cached computation: finished, or in flight with waiters
/// parked on the condvar.
enum Slot {
    Ready(Arc<CachedOutput>),
    Pending(Arc<Inflight>),
}

/// Rendezvous between the computing thread and any deduplicated waiters.
#[derive(Default)]
struct Inflight {
    state: Mutex<PendingState>,
    done: Condvar,
}

#[derive(Default)]
enum PendingState {
    #[default]
    Waiting,
    Done(Arc<CachedOutput>),
    /// The computing thread unwound; waiters must retry.
    Abandoned,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Slot>,
    /// Resident keys in insertion order — the eviction queue. Only `Ready`
    /// entries are listed; pending slots are never evicted.
    resident: VecDeque<CacheKey>,
}

/// The sharded cache plus its monotonic counters.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_dedups: AtomicU64,
    evictions: AtomicU64,
}

/// Removes the pending slot and wakes waiters if the computing thread
/// unwinds before completing (panic safety: waiters retry instead of
/// blocking forever on a slot nobody will fill).
struct PendingGuard<'a> {
    cache: &'a ShardedCache,
    key: CacheKey,
    inflight: Arc<Inflight>,
    completed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        let mut shard = self.cache.shard(self.key);
        if matches!(shard.map.get(&self.key), Some(Slot::Pending(_))) {
            shard.map.remove(&self.key);
        }
        drop(shard);
        *self.inflight.state.lock().expect("no panics under lock") = PendingState::Abandoned;
        self.inflight.done.notify_all();
    }
}

impl ShardedCache {
    /// A cache holding at most `capacity` entries in total, spread evenly
    /// over [`SHARDS`] shards (minimum one entry per shard).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_dedups: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks the shard owning `key`. The experiment key pointer is stable
    /// (`&'static`), so hashing the name bytes plus the fingerprint gives a
    /// stable shard index.
    fn shard(&self, key: CacheKey) -> std::sync::MutexGuard<'_, Shard> {
        let mut hash = key.1 ^ 0x9e37_79b9_7f4a_7c15;
        for &b in key.0.as_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let index = (hash as usize) & (SHARDS - 1);
        self.shards[index].lock().expect("no panics under lock")
    }

    /// Returns the output for `key`, computing it with `compute` on a miss.
    /// Concurrent callers with the same key run `compute` exactly once; the
    /// rest block until the result lands and report
    /// [`Outcome::InflightDedup`].
    pub fn get_or_compute<T: Into<CachedOutput>>(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> T,
    ) -> (Arc<CachedOutput>, Outcome) {
        loop {
            let inflight = {
                let mut shard = self.shard(key);
                match shard.map.get(&key) {
                    Some(Slot::Ready(output)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (Arc::clone(output), Outcome::Hit);
                    }
                    Some(Slot::Pending(inflight)) => Some(Arc::clone(inflight)),
                    None => {
                        let inflight = Arc::new(Inflight::default());
                        shard.map.insert(key, Slot::Pending(Arc::clone(&inflight)));
                        drop(shard);
                        return self.compute_pending(key, inflight, compute);
                    }
                }
            };
            if let Some(inflight) = inflight {
                let mut state = inflight.state.lock().expect("no panics under lock");
                loop {
                    match &*state {
                        PendingState::Done(output) => {
                            self.inflight_dedups.fetch_add(1, Ordering::Relaxed);
                            return (Arc::clone(output), Outcome::InflightDedup);
                        }
                        // The computing thread unwound — retry from the top.
                        PendingState::Abandoned => break,
                        PendingState::Waiting => {
                            state = inflight.done.wait(state).expect("no panics under lock");
                        }
                    }
                }
            }
        }
    }

    /// Runs `compute` for a freshly inserted pending slot, publishes the
    /// result and wakes waiters.
    fn compute_pending<T: Into<CachedOutput>>(
        &self,
        key: CacheKey,
        inflight: Arc<Inflight>,
        compute: impl FnOnce() -> T,
    ) -> (Arc<CachedOutput>, Outcome) {
        let mut guard = PendingGuard {
            cache: self,
            key,
            inflight,
            completed: false,
        };
        let output = Arc::new(compute().into());
        {
            let mut shard = self.shard(key);
            shard.map.insert(key, Slot::Ready(Arc::clone(&output)));
            shard.resident.push_back(key);
            while shard.resident.len() > self.capacity_per_shard {
                // The oldest resident entry goes; skip keys whose slot was
                // re-evicted and recomputed (stale queue entries).
                let Some(oldest) = shard.resident.pop_front() else {
                    break;
                };
                if oldest == key {
                    // Never evict the entry being published; re-queue it.
                    shard.resident.push_back(oldest);
                    continue;
                }
                if matches!(shard.map.get(&oldest), Some(Slot::Ready(_))) {
                    shard.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        guard.completed = true;
        *guard.inflight.state.lock().expect("no panics under lock") =
            PendingState::Done(Arc::clone(&output));
        guard.inflight.done.notify_all();
        self.misses.fetch_add(1, Ordering::Relaxed);
        (output, Outcome::Miss)
    }

    /// Effective total capacity: the per-shard bound times [`SHARDS`].
    /// At least the capacity requested at construction (rounded up so
    /// every shard holds at least one entry).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * SHARDS
    }

    /// Number of resident (ready) entries across every shard.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().expect("no panics under lock");
                shard
                    .map
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count() as u64
            })
            .sum()
    }

    /// Monotonic counters: `(hits, misses, inflight_dedups, evictions)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.inflight_dedups.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
impl CachedOutput {
    /// Whether the output has been parsed (a computed output always has).
    pub(crate) fn is_parsed(&self) -> bool {
        self.output.get().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn output(value: f64) -> ExperimentOutput {
        let mut out = ExperimentOutput::new();
        out.scalar("probe", "unit", value);
        out
    }

    #[test]
    fn hit_after_miss_returns_the_same_allocation() {
        let cache = ShardedCache::new(64);
        let (first, outcome) = cache.get_or_compute(("fig01", 7), || output(1.0));
        assert_eq!(outcome, Outcome::Miss);
        let (second, outcome) = cache.get_or_compute(("fig01", 7), || output(2.0));
        assert_eq!(outcome, Outcome::Hit);
        assert!(
            Arc::ptr_eq(&first, &second),
            "hits share the computed value"
        );
        assert_eq!(second.scalars[0].value, 1.0, "hit must not recompute");
        assert_eq!(cache.counters(), (1, 1, 0, 0));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn same_fingerprint_different_experiment_does_not_collide() {
        let cache = ShardedCache::new(64);
        cache.get_or_compute(("fig01", 7), || output(1.0));
        let (other, outcome) = cache.get_or_compute(("fig02", 7), || output(2.0));
        assert_eq!(outcome, Outcome::Miss);
        assert_eq!(other.scalars[0].value, 2.0);
    }

    #[test]
    fn racing_threads_compute_exactly_once() {
        const THREADS: usize = 8;
        let cache = ShardedCache::new(64);
        let computes = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let (out, outcome) = cache.get_or_compute(("ext-mc", 42), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Hold the computation open long enough that the
                            // other racers reliably observe the pending slot.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            output(9.0)
                        });
                        assert_eq!(out.scalars[0].value, 9.0);
                        outcome
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        let misses = outcomes.iter().filter(|o| **o == Outcome::Miss).count();
        assert_eq!(misses, 1);
        // Every other racer either waited on the in-flight slot or arrived
        // after publication (a plain hit) — none recomputed.
        let (hits, m, dedups, _) = cache.counters();
        assert_eq!(m, 1);
        assert_eq!(hits + dedups, (THREADS - 1) as u64);
    }

    #[test]
    fn capacity_bounds_residency_and_counts_evictions() {
        // Capacity 16 over 16 shards: one resident entry per shard, so
        // filling any one shard with two keys evicts the older one.
        let cache = ShardedCache::new(16);
        for fp in 0..64 {
            cache.get_or_compute(("fig05", fp), || output(fp as f64));
        }
        let (_, misses, _, evictions) = cache.counters();
        assert_eq!(misses, 64);
        assert!(evictions > 0, "64 keys over 16 slots must evict");
        assert_eq!(cache.entries() + evictions, 64);
        // An evicted key recomputes (miss), a resident one hits.
        let before = cache.counters().1;
        cache.get_or_compute(("fig05", 0), || output(0.0));
        cache.get_or_compute(("fig05", 63), || output(63.0));
        let after = cache.counters();
        assert!(after.1 >= before, "counters stay monotonic");
    }

    #[test]
    fn panicking_computation_abandons_the_slot_without_poisoning() {
        let cache = ShardedCache::new(64);
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    cache.get_or_compute(("fig09", 1), || -> ExperimentOutput {
                        panic!("model exploded")
                    })
                })
                .join()
        });
        assert!(
            result.is_err(),
            "the panic propagates to the computing thread"
        );
        // The slot was abandoned, not left pending: a fresh call computes.
        let (out, outcome) = cache.get_or_compute(("fig09", 1), || output(5.0));
        assert_eq!(outcome, Outcome::Miss);
        assert_eq!(out.scalars[0].value, 5.0);
    }
}
