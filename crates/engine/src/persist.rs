//! The persistent on-disk artifact cache.
//!
//! The in-memory [`crate::cache::ShardedCache`] only lives as long as its
//! process; this module gives fingerprints a life across restarts. Every
//! artifact is written to `<cache-dir>/<code fingerprint>/` as one small
//! text file keyed the same way as the resident cache — `(part key,
//! dependency fingerprint)` — so a re-run of a full-suite sweep after a
//! one-field scenario change recomputes only the dedup groups whose
//! declared dependencies actually moved, even in a fresh process.
//!
//! Layout and safety properties:
//!
//! * **code fingerprinting** — entries live under a directory named by a
//!   hash of the on-disk format version, the crate version and the bytes
//!   of every workspace `crates/*/src` file (hashed by the engine's
//!   `build.rs`), so artifacts produced by different model code are never
//!   replayed (they simply sit in a sibling directory nobody reads);
//! * **versioned headers** — each entry opens with a header line repeating
//!   the format version, code fingerprint, experiment key and dependency
//!   fingerprint; a header that does not match what the reader expects is
//!   treated as absent;
//! * **corruption is a miss** — truncated files, invalid JSON and
//!   shape-mismatched payloads all make [`DiskCache::load`] return `None`;
//!   the grid runner then recomputes and overwrites the bad entry;
//! * **atomic publication** — writes go to a process-unique temp file and
//!   are `rename`d into place, so concurrent processes sharing one cache
//!   directory never observe partial entries.

use cc_report::{ExperimentOutput, JsonValue};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk entry format version. Bump on any layout or header change: old
/// entries become unreadable (treated as misses) instead of misparsed.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fingerprint of the *code* that produced an artifact: the cache
/// format version, the workspace crate version and the hash of every
/// workspace source file. Entries are stored under a directory named by
/// this hash, so any source edit or entry-format change orphans stale
/// artifacts instead of serving them.
#[must_use]
pub fn code_fingerprint() -> u64 {
    let hash = fnv(0xcbf2_9ce4_8422_2325, &CACHE_FORMAT_VERSION.to_le_bytes());
    let hash = fnv(fnv(hash, &[0]), env!("CARGO_PKG_VERSION").as_bytes());
    fnv(fnv(hash, &[0]), env!("CC_SOURCE_HASH").as_bytes())
}

/// A persistent artifact cache rooted at one directory. Cheap to open (one
/// `create_dir_all`), safe to share between threads and between processes
/// pointing at the same directory.
pub struct DiskCache {
    /// `<cache-dir>/<code fingerprint>` — where this binary's entries live.
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache rooted at `dir`. Entries land in
    /// a per-code-fingerprint subdirectory, so one root can serve many
    /// binary versions without cross-talk.
    ///
    /// # Errors
    ///
    /// The underlying `create_dir_all` error when the directory cannot be
    /// created (permissions, a file in the way, …).
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().join(format!("{:016x}", code_fingerprint()));
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    /// The directory holding this binary's entries.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file for one `(part key, dependency fingerprint)`.
    fn entry_path(&self, key: &str, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{key}-{fingerprint:016x}.json"))
    }

    /// The header line every entry opens with. Load compares it verbatim:
    /// any drift — version, code fingerprint, key, dependency fingerprint —
    /// makes the entry invisible rather than half-trusted.
    fn header(key: &str, fingerprint: u64) -> String {
        format!(
            "cc-cache v{CACHE_FORMAT_VERSION} code={:016x} key={key} fp={fingerprint:016x}",
            code_fingerprint()
        )
    }

    /// Loads the artifact stored for `(key, fingerprint)`, or `None` when
    /// the entry is absent, truncated, corrupt, or carries a mismatched
    /// header — every failure mode is a plain miss, never an error.
    #[must_use]
    pub fn load(&self, key: &str, fingerprint: u64) -> Option<ExperimentOutput> {
        let loaded = fs::read_to_string(self.entry_path(key, fingerprint))
            .ok()
            .and_then(|text| {
                let (header, body) = text.split_once('\n')?;
                if header != Self::header(key, fingerprint) {
                    return None;
                }
                ExperimentOutput::from_json(&JsonValue::parse(body.trim_end()).ok()?)
            });
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Writes the artifact for `(key, fingerprint)`, replacing any previous
    /// entry. Publication is atomic (temp file + rename), and failures are
    /// deliberately swallowed: a read-only or full disk degrades the cache
    /// to a no-op instead of failing the run that computed the artifact.
    pub fn store(&self, key: &str, fingerprint: u64, output: &ExperimentOutput) {
        let tmp = self.dir.join(format!(
            ".{key}-{fingerprint:016x}.tmp-{}",
            std::process::id()
        ));
        let write = |path: &Path| -> std::io::Result<()> {
            let mut file = fs::File::create(path)?;
            writeln!(file, "{}", Self::header(key, fingerprint))?;
            writeln!(file, "{}", output.to_json().render())?;
            file.sync_all()
        };
        if write(&tmp).is_ok() && fs::rename(&tmp, self.entry_path(key, fingerprint)).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Monotonic counters: `(hits, misses, stores)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cc-persist-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn output(value: f64) -> ExperimentOutput {
        let mut out = ExperimentOutput::new();
        out.scalar("probe", "unit", value).note("anchor");
        out
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_dir("round-trip");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.load("fig10", 7), None, "cold cache misses");
        cache.store("fig10", 7, &output(1.5));
        assert_eq!(cache.load("fig10", 7), Some(output(1.5)));
        // A different fingerprint or key is a separate entry.
        assert_eq!(cache.load("fig10", 8), None);
        assert_eq!(cache.load("fig11", 7), None);
        assert_eq!(cache.counters(), (1, 3, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_cache_sees_prior_entries() {
        let dir = temp_dir("reopen");
        DiskCache::open(&dir)
            .unwrap()
            .store("fig05", 42, &output(2.0));
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.load("fig05", 42), Some(output(2.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupt_entries_are_misses() {
        let dir = temp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store("fig13", 3, &output(9.0));
        let path = cache.dir().join(format!("fig13-{:016x}.json", 3));
        // Truncate mid-JSON: header intact, body cut short.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - text.len() / 2]).unwrap();
        assert_eq!(cache.load("fig13", 3), None, "truncated entry is a miss");
        // Valid JSON, wrong shape.
        let header = text.split_once('\n').unwrap().0;
        fs::write(&path, format!("{header}\n{{\"tables\":0}}\n")).unwrap();
        assert_eq!(cache.load("fig13", 3), None, "shape mismatch is a miss");
        // Empty file (no header line at all).
        fs::write(&path, "").unwrap();
        assert_eq!(cache.load("fig13", 3), None, "empty entry is a miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_header_is_ignored() {
        let dir = temp_dir("header");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store("fig02", 11, &output(4.0));
        let path = cache.dir().join(format!("fig02-{:016x}.json", 11));
        let body = fs::read_to_string(&path)
            .unwrap()
            .split_once('\n')
            .unwrap()
            .1
            .to_string();
        // An entry written by a hypothetical older format version: the
        // payload is perfectly valid JSON, but the header disagrees.
        fs::write(
            &path,
            format!(
                "cc-cache v0 code={:016x} key=fig02 fp={:016x}\n{body}",
                code_fingerprint(),
                11
            ),
        )
        .unwrap();
        assert_eq!(cache.load("fig02", 11), None, "old version is invisible");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_overwrites_bad_entries() {
        let dir = temp_dir("overwrite");
        let cache = DiskCache::open(&dir).unwrap();
        let path = cache.dir().join(format!("ext-mc-{:016x}.json", 5));
        fs::write(&path, "garbage").unwrap();
        assert_eq!(cache.load("ext-mc", 5), None);
        cache.store("ext-mc", 5, &output(7.0));
        assert_eq!(cache.load("ext-mc", 5), Some(output(7.0)));
        let _ = fs::remove_dir_all(&dir);
    }
}
