//! Interning of validated request scenarios.
//!
//! Every `run` request rebuilds the same pipeline: paper defaults, apply
//! the `set` overrides in order, validate the whole scenario, parse the
//! `dists` bindings. A daemon replaying sweeps sees the *same* payload
//! thousands of times, and validation — registry lookups, per-field range
//! checks, cross-field invariants — is pure: identical payloads always
//! produce an identical validated scenario. The [`ScenarioInterner`]
//! exploits that purity by keying the validated result on the verbatim
//! `(sets, dists)` payload, so a repeated payload skips validation
//! entirely and every in-flight request sharing it holds the same
//! allocation.
//!
//! Only *successful* validations are interned. A failing payload is
//! re-validated (and re-rejected) every time it is seen — error paths are
//! cold by construction, and caching rejections would let a client fill
//! the table with garbage.
//!
//! The table is bounded ([`DEFAULT_INTERN_CAPACITY`] via
//! [`crate::Engine`]) with FIFO eviction, mirroring the artifact cache's
//! policy: a long-lived daemon sweeping many distinct payloads cannot
//! grow it without limit.

use crate::protocol::{scenario_error, ProtocolError};
use cc_report::{DistBinding, Scenario};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on interned payloads. Each entry is one validated
/// `Scenario` plus its parsed bindings — small, but client-controlled, so
/// the table must not grow without limit.
pub const DEFAULT_INTERN_CAPACITY: usize = 256;

/// A validated base scenario plus its parsed distribution bindings — the
/// payload-derived half of a resolved `run` request, shareable across
/// requests that carry the identical `set`/`dists` payload.
#[derive(Debug)]
pub struct InternedScenario {
    /// The base scenario (paper defaults for the interner), overrides
    /// applied, validated.
    pub scenario: Scenario,
    /// The parsed `dists` bindings, in request order.
    pub bindings: Vec<DistBinding>,
    /// Non-sweep artifact texts, keyed by experiment registry key. A
    /// non-sweep artifact is a pure function of the validated payload and
    /// the experiment, so its (large) JSON text is interned right next to
    /// the validation it already shares. Bounded by the registry size,
    /// and evicted with the payload itself.
    rendered: Mutex<HashMap<&'static str, Arc<str>>>,
}

impl InternedScenario {
    /// Builds (and fully validates) one payload over the base `scenario`:
    /// applies every `set` override in order, so a later override wins,
    /// validates the result, then parses every `dists` binding.
    pub fn build(
        mut scenario: Scenario,
        sets: &[(String, String)],
        dists: &[String],
    ) -> Result<Self, ProtocolError> {
        for (key, value) in sets {
            scenario.set(key, value).map_err(|e| scenario_error(&e))?;
        }
        scenario.validate().map_err(|e| scenario_error(&e))?;
        let bindings = dists
            .iter()
            .map(|text| {
                DistBinding::parse(text)
                    .map_err(|e| ProtocolError::new("invalid-sweep", e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            scenario,
            bindings,
            rendered: Mutex::new(HashMap::new()),
        })
    }

    /// The artifact text for experiment `key` against this payload, built
    /// (and cached) on first sight. Concurrent first sightings may both
    /// run `build`; the bytes are identical by purity, so whichever
    /// publishes first wins and the racer's copy is used once and dropped.
    pub fn rendered_artifact(&self, key: &'static str, build: impl FnOnce() -> String) -> Arc<str> {
        if let Some(hit) = self.rendered.lock().expect("no panics under lock").get(key) {
            return Arc::clone(hit);
        }
        // Render outside the lock: a large artifact must not stall other
        // workers' lookups.
        let built: Arc<str> = build().into();
        self.rendered
            .lock()
            .expect("no panics under lock")
            .entry(key)
            .or_insert_with(|| Arc::clone(&built));
        built
    }
}

/// Length-prefixed encoding of the verbatim payload: unambiguous for any
/// key/value content (a separator character appearing *in* a value cannot
/// collide with the separator between values).
fn intern_key(sets: &[(String, String)], dists: &[String]) -> String {
    let mut key = String::new();
    for (k, v) in sets {
        let _ = write!(key, "s{}:{k}{}:{v}", k.len(), v.len());
    }
    for d in dists {
        let _ = write!(key, "d{}:{d}", d.len());
    }
    key
}

#[derive(Default)]
struct InternerState {
    map: HashMap<String, Arc<InternedScenario>>,
    /// Interned keys in insertion order — the FIFO eviction queue.
    order: VecDeque<String>,
}

/// The bounded payload→validated-scenario table plus its counters.
pub struct ScenarioInterner {
    state: Mutex<InternerState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ScenarioInterner {
    /// An interner holding at most `capacity` validated payloads
    /// (minimum one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(InternerState::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the validated scenario for this `(sets, dists)` payload,
    /// building it on first sight. Identical payloads share one
    /// allocation; a validation failure is returned (and re-validated on
    /// the next sighting), never interned.
    pub fn resolve(
        &self,
        sets: &[(String, String)],
        dists: &[String],
    ) -> Result<Arc<InternedScenario>, ProtocolError> {
        let key = intern_key(sets, dists);
        if let Some(interned) = self
            .state
            .lock()
            .expect("no panics under lock")
            .map
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(interned));
        }
        // Validate outside the lock: concurrent distinct payloads must not
        // serialize on each other's validation.
        let built = Arc::new(InternedScenario::build(
            Scenario::paper_defaults(),
            sets,
            dists,
        )?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock().expect("no panics under lock");
        if let Some(existing) = state.map.get(&key) {
            // A racer on the same payload published first; share its copy.
            return Ok(Arc::clone(existing));
        }
        state.map.insert(key.clone(), Arc::clone(&built));
        state.order.push_back(key);
        while state.order.len() > self.capacity {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            state.map.remove(&oldest);
        }
        Ok(built)
    }

    /// Monotonic counters: `(hits, misses)`. A miss is one full payload
    /// validation that was then interned; rejected payloads count as
    /// neither.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Payloads currently interned.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.state.lock().expect("no panics under lock").map.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn identical_payloads_validate_once_and_share_the_allocation() {
        let interner = ScenarioInterner::new(16);
        let payload = sets(&[("grid.intensity", "300")]);
        let dists = vec!["fab.node_nm ~ triangular(5,7,10)".to_string()];
        let first = interner.resolve(&payload, &dists).expect("valid payload");
        let second = interner.resolve(&payload, &dists).expect("valid payload");
        assert!(Arc::ptr_eq(&first, &second), "hit shares the allocation");
        assert_eq!(interner.counters(), (1, 1));
        assert_eq!(interner.entries(), 1);
    }

    #[test]
    fn distinct_payloads_never_share() {
        let interner = ScenarioInterner::new(16);
        let a = interner
            .resolve(&sets(&[("grid.intensity", "300")]), &[])
            .expect("valid");
        let b = interner
            .resolve(&sets(&[("grid.intensity", "301")]), &[])
            .expect("valid");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(interner.counters(), (0, 2));
    }

    #[test]
    fn payload_keys_cannot_alias_across_boundaries() {
        // ("a","bc") vs ("ab","c") and a set/dist split must key apart.
        let interner = ScenarioInterner::new(16);
        assert_ne!(
            intern_key(&sets(&[("a", "bc")]), &[]),
            intern_key(&sets(&[("ab", "c")]), &[])
        );
        assert_ne!(
            intern_key(&[], &["ab".to_string()]),
            intern_key(&sets(&[("a", "b")]), &[])
        );
        drop(interner);
    }

    #[test]
    fn rejections_are_not_interned() {
        let interner = ScenarioInterner::new(16);
        let bad = sets(&[("grid.wattage", "5")]);
        assert_eq!(
            interner.resolve(&bad, &[]).expect_err("rejected").category,
            "unknown-field"
        );
        assert_eq!(interner.entries(), 0);
        assert_eq!(interner.counters(), (0, 0));
    }

    #[test]
    fn capacity_bounds_the_table() {
        let interner = ScenarioInterner::new(2);
        for value in ["100", "200", "300", "400"] {
            interner
                .resolve(&sets(&[("grid.intensity", value)]), &[])
                .expect("valid");
        }
        assert_eq!(interner.entries(), 2);
        // The newest payload is still interned.
        interner
            .resolve(&sets(&[("grid.intensity", "400")]), &[])
            .expect("valid");
        assert_eq!(interner.counters().0, 1, "recent payload hits");
    }
}
