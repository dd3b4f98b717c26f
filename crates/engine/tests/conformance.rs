//! Protocol-v2 conformance suite: golden NDJSON transcripts pinned
//! against `docs/PROTOCOL.md`.
//!
//! Each file under `tests/transcripts/` is one scripted conversation with
//! a fresh in-process daemon:
//!
//! ```text
//! # comment            — ignored
//! !queue-depth 0       — server knob, must precede the first exchange
//! > {"op":"hello"}     — raw line sent to the server (not necessarily JSON)
//! < {"type":"hello",…} — expected response, matched strictly
//! ```
//!
//! Expected lines are matched with **ordered, exact key sets**: the
//! response must carry exactly the pattern's keys in the pattern's order,
//! so an accidental extra field (or a stray `id` on a v1-style response)
//! fails the pin. The string `"*"` is a wildcard value (used for bulky
//! artifact payloads and human-readable messages).
//!
//! A second test parses the normative enumerations out of
//! `docs/PROTOCOL.md` (operation headers, response-kind and
//! error-category tables) and asserts three-way agreement between the
//! document, the code's canonical constants, and the transcripts'
//! coverage — so the spec, the implementation and the golden files cannot
//! drift apart silently.

use cc_engine::protocol::{ERROR_CATEGORIES, OPS, PROTOCOL_VERSION};
use cc_engine::{Engine, Server};
use cc_report::JsonValue;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn transcripts_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts")
}

fn protocol_doc() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/PROTOCOL.md");
    std::fs::read_to_string(&path).expect("docs/PROTOCOL.md is readable")
}

fn transcript_files() -> Vec<(String, String)> {
    let dir = transcripts_dir();
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("tests/transcripts/ exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "txt"))
        .map(|path| {
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).expect("readable transcript");
            (name, text)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no transcripts in {}", dir.display());
    files
}

/// Strict pattern match: objects must carry exactly the pattern's keys in
/// the pattern's order, arrays the pattern's length; `"*"` matches any
/// value.
fn matches(pattern: &JsonValue, actual: &JsonValue) -> bool {
    match (pattern, actual) {
        (JsonValue::String(s), _) if s == "*" => true,
        (JsonValue::Object(p), JsonValue::Object(a)) => {
            p.len() == a.len()
                && p.iter()
                    .zip(a.iter())
                    .all(|((pk, pv), (ak, av))| pk == ak && matches(pv, av))
        }
        (JsonValue::Array(p), JsonValue::Array(a)) => {
            p.len() == a.len() && p.iter().zip(a.iter()).all(|(pv, av)| matches(pv, av))
        }
        _ => pattern == actual,
    }
}

/// Plays one transcript against a fresh daemon configured by its
/// directives.
fn run_transcript(name: &str, text: &str) {
    let mut max_jobs = 4usize;
    let mut queue_depth = cc_engine::server::DEFAULT_QUEUE_DEPTH;
    let mut cache_capacity = None;
    let mut exchanges_started = false;
    // First pass for directives only, so the server is fully configured
    // before it binds.
    for (number, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if let Some(directive) = line.strip_prefix('!') {
            assert!(
                !exchanges_started,
                "{name}:{}: directive after first exchange",
                number + 1
            );
            let (key, value) = directive
                .split_once(' ')
                .unwrap_or_else(|| panic!("{name}:{}: malformed directive", number + 1));
            let value: usize = value
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{name}:{}: non-numeric directive", number + 1));
            match key {
                "max-jobs" => max_jobs = value,
                "queue-depth" => queue_depth = value,
                "cache-capacity" => cache_capacity = Some(value),
                other => panic!("{name}:{}: unknown directive `{other}`", number + 1),
            }
        } else if line.starts_with('>') || line.starts_with('<') {
            exchanges_started = true;
        }
    }

    let engine = match cache_capacity {
        Some(capacity) => Arc::new(Engine::with_capacity(capacity)),
        None => Arc::new(Engine::new()),
    };
    let server = Server::bind("127.0.0.1:0", engine, max_jobs)
        .expect("bind conformance server")
        .queue_depth(queue_depth);
    let addr = server.local_addr().expect("local addr");
    let daemon = std::thread::spawn(move || server.run());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut shut_down = false;

    for (number, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') || line.starts_with('!') {
            continue;
        }
        if let Some(request) = line.strip_prefix('>') {
            let request = request.strip_prefix(' ').unwrap_or(request);
            writeln!(stream, "{request}").expect("send request");
            if let Ok(value) = JsonValue::parse(request) {
                if value.get("op").and_then(JsonValue::as_str) == Some("shutdown") {
                    shut_down = true;
                }
            }
        } else if let Some(expected) = line.strip_prefix('<') {
            let expected = expected.strip_prefix(' ').unwrap_or(expected);
            let pattern = JsonValue::parse(expected)
                .unwrap_or_else(|e| panic!("{name}:{}: bad pattern: {e:?}", number + 1));
            let mut response = String::new();
            reader
                .read_line(&mut response)
                .unwrap_or_else(|e| panic!("{name}:{}: read failed: {e}", number + 1));
            assert!(
                !response.is_empty(),
                "{name}:{}: server closed the connection",
                number + 1
            );
            let actual = JsonValue::parse(response.trim_end())
                .unwrap_or_else(|e| panic!("{name}:{}: unparsable response: {e:?}", number + 1));
            assert!(
                matches(&pattern, &actual),
                "{name}:{}: response mismatch\n  expected {expected}\n  got      {}",
                number + 1,
                response.trim_end()
            );
        } else {
            panic!(
                "{name}:{}: unrecognized transcript line `{line}`",
                number + 1
            );
        }
    }

    if !shut_down {
        writeln!(stream, r#"{{"op":"shutdown"}}"#).expect("send shutdown");
        let mut bye = String::new();
        reader.read_line(&mut bye).expect("read bye");
    }
    daemon
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
}

#[test]
fn golden_transcripts_replay_byte_for_byte() {
    for (name, text) in transcript_files() {
        run_transcript(&name, &text);
    }
}

/// Everything the transcripts exercise, collected statically.
struct Coverage {
    ops: BTreeSet<String>,
    kinds: BTreeSet<String>,
    categories: BTreeSet<String>,
}

fn transcript_coverage() -> Coverage {
    let mut coverage = Coverage {
        ops: BTreeSet::new(),
        kinds: BTreeSet::new(),
        categories: BTreeSet::new(),
    };
    for (_, text) in transcript_files() {
        for line in text.lines() {
            let line = line.trim_end();
            if let Some(request) = line.strip_prefix("> ") {
                if let Ok(value) = JsonValue::parse(request) {
                    // Unknown ops are deliberately present (they pin the
                    // malformed-request category) but are not coverage.
                    if let Some(op) = value.get("op").and_then(JsonValue::as_str) {
                        if OPS.contains(&op) {
                            coverage.ops.insert(op.to_string());
                        }
                    }
                }
            } else if let Some(expected) = line.strip_prefix("< ") {
                let pattern = JsonValue::parse(expected).expect("patterns are valid JSON");
                if let Some(kind) = pattern.get("type").and_then(JsonValue::as_str) {
                    coverage.kinds.insert(kind.to_string());
                }
                if let Some(category) = pattern.get("error").and_then(JsonValue::as_str) {
                    if category != "*" {
                        coverage.categories.insert(category.to_string());
                    }
                }
            }
        }
    }
    coverage
}

/// The enumerations `docs/PROTOCOL.md` declares normative.
struct DocEnums {
    ops: BTreeSet<String>,
    kinds: BTreeSet<String>,
    categories: BTreeSet<String>,
}

/// First backticked token of a markdown table row (`| \`x\` | … |`).
fn table_cell(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("| `")?;
    rest.split('`').next()
}

/// Backticked names from the first column of the markdown table inside
/// one `## section` (rows after the `|---` separator).
fn section_table(doc: &str, section: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut in_section = false;
    let mut past_separator = false;
    for line in doc.lines() {
        if let Some(header) = line.strip_prefix("## ") {
            in_section = header.trim() == section;
            past_separator = false;
            continue;
        }
        if !in_section {
            continue;
        }
        if line.starts_with("|---") {
            past_separator = true;
            continue;
        }
        if past_separator {
            match table_cell(line) {
                Some(name) => {
                    names.insert(name.to_string());
                }
                None => past_separator = false,
            }
        }
    }
    assert!(!names.is_empty(), "no table found under `## {section}`");
    names
}

fn doc_enums(doc: &str) -> DocEnums {
    let ops = doc
        .lines()
        .filter_map(|line| line.strip_prefix("### `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect::<BTreeSet<_>>();
    DocEnums {
        ops,
        kinds: section_table(doc, "Response kinds"),
        categories: section_table(doc, "Error categories"),
    }
}

fn as_set(items: &[&str]) -> BTreeSet<String> {
    items.iter().map(|s| s.to_string()).collect()
}

#[test]
fn protocol_doc_matches_code_and_transcripts_cover_it() {
    let doc = protocol_doc();
    assert!(
        doc.lines()
            .next()
            .is_some_and(|title| title.contains(&format!("version {PROTOCOL_VERSION}"))),
        "PROTOCOL.md title must state the protocol version"
    );
    let enums = doc_enums(&doc);
    assert_eq!(enums.ops, as_set(&OPS), "doc operations drifted from code");
    assert_eq!(
        enums.categories,
        as_set(&ERROR_CATEGORIES),
        "doc error categories drifted from code"
    );

    let coverage = transcript_coverage();
    assert_eq!(
        coverage.ops, enums.ops,
        "transcripts must exercise every documented operation"
    );
    assert_eq!(
        coverage.kinds, enums.kinds,
        "transcripts must pin every documented response kind"
    );
    assert_eq!(
        coverage.categories, enums.categories,
        "transcripts must pin every documented error category"
    );
}
