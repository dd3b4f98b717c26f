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
//! * **digested payloads** — the second line holds the FNV-1a digest and
//!   byte length of the rest of the file: the part's scalars (one line,
//!   as an output holding only them) and its rendered `output` JSON, byte
//!   for byte. A load checks both and parses only the scalars line; the
//!   body stays text ([`CachedOutput`]), which a JSON artifact splices
//!   as is, and is parsed only when something reads more than the
//!   scalars;
//! * **corruption is a miss** — truncated files, a digest or length that
//!   does not match, and scalars that do not parse all make a load return
//!   `None` (one changed byte always changes an FNV-1a digest); the grid
//!   runner then recomputes and overwrites the bad entry;
//! * **atomic publication, no fsync** — writes go to a process-unique
//!   temp file and are `rename`d into place, so concurrent processes
//!   sharing one cache directory never observe partial entries. A store
//!   does not `fsync`: a cache needs its entries whole, not durable, and
//!   an entry torn by a crash or power loss fails its digest and loads as
//!   a miss.

use crate::cache::CachedOutput;
use cc_report::{ExperimentOutput, JsonValue, Scalar};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk entry format version. Bump on any layout or header change: old
/// entries become unreadable (treated as misses) instead of misparsed.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`. Also the sharded cache's
/// shard hash.
pub(crate) fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest line for an entry's `payload`: its FNV-1a digest and length.
fn digest_line(payload: &str) -> String {
    format!(
        "fnv={:016x} len={}",
        fnv(FNV_BASIS, payload.as_bytes()),
        payload.len()
    )
}

/// The scalars line: an output holding only `scalars`, so that
/// [`ExperimentOutput::from_json`] reads it back.
fn scalars_json(scalars: &[Scalar]) -> JsonValue {
    let none = || JsonValue::array([]);
    JsonValue::object([
        ("tables", none()),
        ("series", none()),
        (
            "scalars",
            JsonValue::array(scalars.iter().map(Scalar::to_json)),
        ),
        ("notes", none()),
    ])
}

/// The fingerprint of the *code* that produced an artifact: the cache
/// format version, the workspace crate version and the hash of every
/// workspace source file. Entries are stored under a directory named by
/// this hash, so any source edit or entry-format change orphans stale
/// artifacts instead of serving them.
#[must_use]
pub fn code_fingerprint() -> u64 {
    let hash = fnv(FNV_BASIS, &CACHE_FORMAT_VERSION.to_le_bytes());
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

    /// Loads the artifact stored for `(key, fingerprint)`, parsed whole,
    /// or `None` when the entry is absent, truncated, corrupt, or carries
    /// a mismatched header — every failure mode is a plain miss, never an
    /// error.
    #[must_use]
    pub fn load(&self, key: &str, fingerprint: u64) -> Option<ExperimentOutput> {
        self.load_entry(key, fingerprint, true)
            .and_then(CachedOutput::into_output)
    }

    /// Loads the entry stored for `(key, fingerprint)` with its body kept
    /// as text, or `None` as for [`Self::load`]. With `parse`, the body is
    /// parsed too, and a body that is not an output is a miss.
    pub(crate) fn load_entry(
        &self,
        key: &str,
        fingerprint: u64,
        parse: bool,
    ) -> Option<CachedOutput> {
        let loaded = self
            .read(key, fingerprint)
            .filter(|entry| !parse || entry.parse().is_some());
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Reads and checks one entry: the header, the digest line against the
    /// rest of the file, then the scalars line. The body is not parsed.
    fn read(&self, key: &str, fingerprint: u64) -> Option<CachedOutput> {
        let mut text = fs::read_to_string(self.entry_path(key, fingerprint)).ok()?;
        let (header, rest) = text.split_once('\n')?;
        let (digest, payload) = rest.split_once('\n')?;
        if header != Self::header(key, fingerprint) || digest != digest_line(payload) {
            return None;
        }
        let (scalars, body) = payload.split_once('\n')?;
        let scalars = ExperimentOutput::from_json(&JsonValue::parse(scalars).ok()?)?.scalars;
        let body_len = body.strip_suffix('\n')?.len();
        // Keep the body alone, in the buffer the file was read into.
        let start = text.len() - body.len();
        text.truncate(start + body_len);
        text.drain(..start);
        Some(CachedOutput::stored(scalars, text))
    }

    /// Writes the artifact for `(key, fingerprint)`, replacing any previous
    /// entry. Publication is atomic (temp file + rename), and failures are
    /// deliberately swallowed: a read-only or full disk degrades the cache
    /// to a no-op instead of failing the run that computed the artifact.
    pub fn store(&self, key: &str, fingerprint: u64, output: &ExperimentOutput) {
        self.write(
            key,
            fingerprint,
            &output.scalars,
            &output.to_json().render(),
        );
    }

    /// [`Self::store`] for a cache entry, whose rendered body it keeps.
    pub(crate) fn store_entry(&self, key: &str, fingerprint: u64, entry: &CachedOutput) {
        self.write(key, fingerprint, entry.scalars(), entry.json());
    }

    /// Publishes one entry: the header, the digest line, then the payload
    /// (the scalars line and the body, each ending in a newline).
    fn write(&self, key: &str, fingerprint: u64, scalars: &[Scalar], body: &str) {
        let mut payload = scalars_json(scalars).render();
        payload.push('\n');
        payload.push_str(body);
        payload.push('\n');
        let head = format!(
            "{}\n{}\n",
            Self::header(key, fingerprint),
            digest_line(&payload)
        );
        let tmp = self.dir.join(format!(
            ".{key}-{fingerprint:016x}.tmp-{}",
            std::process::id()
        ));
        let write = |path: &Path| -> std::io::Result<()> {
            let mut file = fs::File::create(path)?;
            file.write_all(head.as_bytes())?;
            file.write_all(payload.as_bytes())
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
        let path = cache.entry_path("fig13", 3);
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
        let path = cache.entry_path("fig02", 11);
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
        let path = cache.entry_path("ext-mc", 5);
        fs::write(&path, "garbage").unwrap();
        assert_eq!(cache.load("ext-mc", 5), None);
        cache.store("ext-mc", 5, &output(7.0));
        assert_eq!(cache.load("ext-mc", 5), Some(output(7.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The entry file for `(key, fingerprint)` and its text.
    fn entry_text(cache: &DiskCache, key: &str, fingerprint: u64) -> (PathBuf, String) {
        let path = cache.entry_path(key, fingerprint);
        let text = fs::read_to_string(&path).unwrap();
        (path, text)
    }

    #[test]
    fn v2_entries_hold_a_digest_the_scalars_and_the_rendered_body() {
        let dir = temp_dir("layout");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store("fig10", 7, &output(1.5));
        let (_, text) = entry_text(&cache, "fig10", 7);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert_eq!(lines[0], DiskCache::header("fig10", 7));
        assert!(lines[0].starts_with("cc-cache v2 "), "{}", lines[0]);
        let payload = &text[lines[0].len() + lines[1].len() + 2..];
        assert_eq!(lines[1], digest_line(payload));
        assert_eq!(
            ExperimentOutput::from_json(&JsonValue::parse(lines[2]).unwrap())
                .unwrap()
                .scalars,
            output(1.5).scalars
        );
        assert_eq!(lines[3], output(1.5).to_json().render());
        // A load keeps the body as text, byte for byte, and parses only
        // the scalars.
        let loaded = cache.load_entry("fig10", 7, false).unwrap();
        assert_eq!(loaded.json(), lines[3]);
        assert_eq!(loaded.scalars(), &output(1.5).scalars[..]);
        assert!(!loaded.is_parsed());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn edited_bodies_and_scalars_are_misses() {
        let dir = temp_dir("edited");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store("fig13", 3, &output(9.0));
        let (path, text) = entry_text(&cache, "fig13", 3);
        let lines: Vec<&str> = text.lines().collect();
        let body_start = text.len() - lines[3].len() - 1;
        let scalars_start = body_start - lines[2].len() - 1;
        // One byte changed in place, the length kept: in the body's
        // number, then in the scalars line's number.
        for (at, what) in [
            (body_start + lines[3].find("9.0").unwrap(), "body"),
            (scalars_start + lines[2].find("9.0").unwrap(), "scalars"),
        ] {
            let mut bytes = text.clone().into_bytes();
            bytes[at] = b'8';
            fs::write(&path, &bytes).unwrap();
            assert!(cache.load_entry("fig13", 3, false).is_none(), "{what}");
            assert_eq!(cache.load("fig13", 3), None, "{what}");
        }
        // A body whose digest matches but which is not an output: a miss
        // for a reader that parses it.
        let forged = format!("{}\n\"not an output\"\n", lines[2]);
        fs::write(
            &path,
            format!("{}\n{}\n{forged}", lines[0], digest_line(&forged)),
        )
        .unwrap();
        assert!(cache.load_entry("fig13", 3, true).is_none());
        assert_eq!(cache.load("fig13", 3), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_line_boundary_is_a_miss() {
        let dir = temp_dir("boundaries");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store("fig05", 1, &output(2.5));
        let (path, text) = entry_text(&cache, "fig05", 1);
        let ends: Vec<usize> = text.match_indices('\n').map(|(i, _)| i).collect();
        assert_eq!(ends.len(), 4);
        for &end in &ends[..3] {
            // Cut just before and just after each line's newline.
            for cut in [end, end + 1] {
                fs::write(&path, &text[..cut]).unwrap();
                assert!(
                    cache.load_entry("fig05", 1, false).is_none(),
                    "cut at {cut}"
                );
            }
        }
        // The final newline is part of the digested payload too.
        fs::write(&path, &text[..text.len() - 1]).unwrap();
        assert!(cache.load_entry("fig05", 1, false).is_none());
        fs::write(&path, &text).unwrap();
        assert!(cache.load_entry("fig05", 1, false).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v1_layout_entry_is_a_miss() {
        let dir = temp_dir("v1");
        let cache = DiskCache::open(&dir).unwrap();
        let path = cache.entry_path("fig02", 11);
        let body = output(4.0).to_json().render();
        // Format v1: the header, then the output JSON; no digest line.
        let v1_header = DiskCache::header("fig02", 11).replacen("v2", "v1", 1);
        for header in [v1_header, DiskCache::header("fig02", 11)] {
            fs::write(&path, format!("{header}\n{body}\n")).unwrap();
            assert!(cache.load_entry("fig02", 11, false).is_none(), "{header}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_json_grid_run_splices_disk_hits_without_parsing_them() {
        use crate::{Engine, Format, GridConfig, GridJob};
        let dir = temp_dir("splice");
        let entries = [cc_core::experiments::find_entry("fig10").unwrap()];
        assert_eq!(entries[0].parts().len(), 1);
        let matrix = cc_report::ScenarioMatrix::new(
            cc_report::Scenario::paper_defaults(),
            vec![cc_report::SweepSpec::parse("grid.intensity=100,300").unwrap()],
        )
        .unwrap();
        let points: Vec<_> = matrix.points().collect();
        let contexts: Vec<_> = points
            .iter()
            .map(|p| cc_report::RunContext::try_from_overlay(p.overlay.clone()).unwrap())
            .collect();
        let config = GridConfig {
            jobs: 1,
            no_cache: false,
            format: Format::Json,
        };
        let run = |engine: &Engine, check: &(dyn Fn(&GridJob<'_>) + Sync)| {
            let lines = std::sync::Mutex::new(Vec::new());
            engine.run_grid(
                &entries,
                &points,
                &contexts,
                &config,
                |job| {
                    check(job);
                    vec![job.artifact()]
                },
                |line| lines.lock().unwrap().push(line),
            );
            lines.into_inner().unwrap()
        };
        let cold = run(
            &Engine::new().with_disk(DiskCache::open(&dir).unwrap()),
            &|_| {},
        );
        let warm_engine = Engine::new().with_disk(DiskCache::open(&dir).unwrap());
        let warm = run(&warm_engine, &|job| assert!(!job.output.is_parsed()));
        assert_eq!(warm, cold);
        assert_eq!(warm_engine.disk().unwrap().counters().0, 2, "both loaded");
        // Nor did writing the artifacts parse them.
        for (point, context) in points.iter().zip(&contexts) {
            let fingerprint = entries[0].parts()[0].fingerprint(&point.overlay);
            let (output, outcome) = warm_engine
                .cache()
                .get_or_compute(("fig10", fingerprint), || {
                    (entries[0].parts()[0].run)(context)
                });
            assert_eq!(outcome, crate::Outcome::Hit);
            assert!(!output.is_parsed());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
