//! End-to-end tests for `repro serve` and `repro client`: daemon lifecycle,
//! protocol error handling, cross-request caching, and byte-identity of
//! served artifacts against the one-shot CLI.

use cc_report::JsonValue;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `repro serve` on an OS-assigned port and reads the bound
    /// address off its `listening on <addr>` stdout line.
    fn start() -> Self {
        Self::start_with(&[])
    }

    /// Like [`Daemon::start`], with extra `serve` options appended.
    fn start_with(extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "4"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn repro serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read listen banner");
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Self { child, addr }
    }

    fn connect(&self) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (reader, stream)
    }

    /// Sends one request line and collects responses through the terminal
    /// line (`done`/`error`/`stats`/`bye`).
    fn request(
        reader: &mut BufReader<TcpStream>,
        stream: &mut TcpStream,
        line: &str,
    ) -> Vec<JsonValue> {
        writeln!(stream, "{line}").expect("send request");
        let mut responses = Vec::new();
        loop {
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            assert!(!response.is_empty(), "daemon closed the connection");
            let value =
                JsonValue::parse(response.trim_end()).expect("every response line is valid JSON");
            let kind = value
                .get("type")
                .and_then(JsonValue::as_str)
                .expect("every response carries a type")
                .to_string();
            responses.push(value);
            if matches!(kind.as_str(), "done" | "error" | "stats" | "bye") {
                return responses;
            }
        }
    }

    /// Graceful shutdown; waits for the daemon to exit cleanly.
    fn shutdown(mut self) {
        let (mut reader, mut stream) = self.connect();
        let bye = Self::request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        assert_eq!(bye[0].get("type").and_then(JsonValue::as_str), Some("bye"));
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon must exit cleanly");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt and braces: don't leak a daemon if an assertion fired.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn client(addr: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["client", "--addr", addr])
        .args(args)
        .output()
        .expect("run repro client")
}

#[test]
fn protocol_errors_leave_the_daemon_and_cache_untouched() {
    let daemon = Daemon::start();
    let (mut reader, mut stream) = daemon.connect();

    // Every malformed request yields one structured error on the same
    // still-open connection.
    for (line, category) in [
        ("{definitely not json", "malformed-request"),
        (r#"{"op":"launch"}"#, "malformed-request"),
        (
            r#"{"op":"run","experiments":["fig99"]}"#,
            "unknown-experiment",
        ),
        (
            r#"{"op":"run","experiments":["fig10"],"set":{"grid.wattage":5}}"#,
            "unknown-field",
        ),
        (
            r#"{"op":"run","experiments":["fig10"],"set":{"grid.intensity":"emerald"}}"#,
            "invalid-value",
        ),
        (
            r#"{"op":"run","experiments":["fig10"],"set":{"grid.renewable_fraction":2}}"#,
            "invalid-scenario",
        ),
        // Accepted, these would abort the daemon or overflow ext-mc.
        (
            r#"{"op":"run","experiments":["ext-mc"],"set":{"mc.samples":4294967295}}"#,
            "invalid-scenario",
        ),
        (
            r#"{"op":"run","experiments":["ext-mc"],"set":{"grid.intensity":1e308}}"#,
            "invalid-scenario",
        ),
        (
            r#"{"op":"run","experiments":["ext-die"],"set":{"fab.node_nm":"inf"}}"#,
            "invalid-scenario",
        ),
        // Accepted, these would panic a model or print `inf` cells.
        (
            r#"{"op":"run","experiments":["ext-sched"],"set":{"fleet.scale":1e300}}"#,
            "invalid-scenario",
        ),
        (
            r#"{"op":"run","experiments":["ext-facility"],"set":{"fleet.pue":1e300}}"#,
            "invalid-scenario",
        ),
        (
            r#"{"op":"run","experiments":["ext-facility"],"set":{"fleet.construction_kt":1e300}}"#,
            "invalid-scenario",
        ),
        (
            r#"{"op":"run","experiments":["fig10"],"sweep":["grid.intensity=800..10/100"]}"#,
            "invalid-sweep",
        ),
        // Only Dist?-eligible fields accept a distribution.
        (
            r#"{"op":"run","experiments":["fig10"],"dists":["name ~ uniform(1,2)"],"samples":5}"#,
            "invalid-sweep",
        ),
    ] {
        let responses = Daemon::request(&mut reader, &mut stream, line);
        assert_eq!(responses.len(), 1, "one error line per bad request");
        assert_eq!(
            responses[0].get("error").and_then(JsonValue::as_str),
            Some(category),
            "request: {line}"
        );
        assert!(
            responses[0]
                .get("message")
                .and_then(JsonValue::as_str)
                .is_some_and(|m| !m.is_empty()),
            "errors carry a human-readable message"
        );
    }

    // None of the rejects computed anything or counted as a served run.
    let stats = Daemon::request(&mut reader, &mut stream, r#"{"op":"stats"}"#);
    let stats = stats[0].get("stats").expect("stats payload");
    assert_eq!(stats.get("requests").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(stats.get("misses").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(stats.get("entries").and_then(JsonValue::as_u64), Some(0));

    // The same connection still serves a valid request afterwards.
    let responses = Daemon::request(
        &mut reader,
        &mut stream,
        r#"{"op":"run","experiments":["fig05"]}"#,
    );
    let kinds: Vec<&str> = responses
        .iter()
        .filter_map(|r| r.get("type").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(kinds, ["artifact", "done"]);

    daemon.shutdown();
}

#[test]
fn repeated_sweeps_hit_the_resident_cache() {
    let daemon = Daemon::start();
    let (mut reader, mut stream) = daemon.connect();
    let run = r#"{"op":"run","experiments":["fig10","ext-die"],"sweep":["device.lifetime=2..4/1"],"jobs":2}"#;

    let first = Daemon::request(&mut reader, &mut stream, run);
    let done = first.last().expect("done line");
    let cache = done.get("cache").expect("cache summary");
    assert_eq!(cache.get("hits").and_then(JsonValue::as_u64), Some(0));
    let first_misses = cache.get("misses").and_then(JsonValue::as_u64).unwrap();
    assert!(first_misses >= 1, "a cold cache computes");

    // A second identical sweep — from a *different* connection — is served
    // entirely from the shared cache.
    let (mut reader2, mut stream2) = daemon.connect();
    let second = Daemon::request(&mut reader2, &mut stream2, run);
    let done = second.last().expect("done line");
    let cache = done.get("cache").expect("cache summary");
    assert_eq!(
        cache.get("misses").and_then(JsonValue::as_u64),
        Some(0),
        "repeat sweep must be all hits"
    );
    assert_eq!(
        cache.get("hits").and_then(JsonValue::as_u64),
        Some(first_misses)
    );

    // Responses are byte-identical across the two passes (minus nothing —
    // the artifact stream is deterministic and cache-invisible).
    let render = |responses: &[JsonValue]| -> Vec<String> {
        responses
            .iter()
            .filter(|r| r.get("type").and_then(JsonValue::as_str) == Some("artifact"))
            .map(JsonValue::render)
            .collect()
    };
    assert_eq!(render(&first), render(&second));

    daemon.shutdown();
}

#[test]
fn served_artifacts_byte_match_the_one_shot_cli() {
    let daemon = Daemon::start();
    let dir = std::env::temp_dir().join(format!("cc-serve-diff-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let served_dir = dir.join("served");
    let cli_dir = dir.join("cli");

    // Same sweep through the daemon (via `repro client --out`) and through
    // the one-shot CLI.
    let sweep = "grid.intensity=50,380,700";
    let out = client(
        &daemon.addr,
        &[
            "--experiment",
            "fig10",
            "--sweep",
            sweep,
            "--jobs",
            "2",
            "--out",
            served_dir.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(r#""type":"done""#),
        "client prints the done line: {stdout}"
    );

    let cli = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--experiment",
            "fig10",
            "--sweep",
            sweep,
            "--jobs",
            "2",
            "--json",
            "--out",
            cli_dir.to_str().unwrap(),
        ])
        .output()
        .expect("run one-shot repro");
    assert!(cli.status.success());

    let mut names: Vec<String> = std::fs::read_dir(&served_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "comparison.json",
            "fig10@grid.intensity-380.json",
            "fig10@grid.intensity-50.json",
            "fig10@grid.intensity-700.json",
        ]
    );
    for name in &names {
        let served = std::fs::read(served_dir.join(name)).unwrap();
        let one_shot = std::fs::read(cli_dir.join(name)).unwrap();
        assert_eq!(served, one_shot, "`{name}` must be byte-identical");
    }

    std::fs::remove_dir_all(&dir).ok();
    daemon.shutdown();
}

#[test]
fn client_surfaces_server_rejections() {
    let daemon = Daemon::start();
    // The error category maps to a stable exit code (unknown-experiment=11)
    // so scripts can branch on the rejection kind without parsing stderr.
    let out = client(&daemon.addr, &["--experiment", "fig99"]);
    assert_eq!(out.status.code(), Some(11));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown-experiment"), "{stderr}");
    assert!(stderr.contains("fig99"));

    let out = client(
        &daemon.addr,
        &["--experiment", "fig10", "--sweep", "grid.intensity=10.."],
    );
    assert_eq!(out.status.code(), Some(16), "invalid-sweep exit code");

    // Stats round-trips through the client too.
    let out = client(&daemon.addr, &["--stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stats = JsonValue::parse(stdout.trim()).expect("stats line is JSON");
    assert_eq!(stats.get("type").and_then(JsonValue::as_str), Some("stats"));

    // Hello reports the protocol version and the server's limits.
    let out = client(&daemon.addr, &["--hello"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let hello = JsonValue::parse(stdout.trim()).expect("hello line is JSON");
    assert_eq!(hello.get("type").and_then(JsonValue::as_str), Some("hello"));
    assert_eq!(hello.get("version").and_then(JsonValue::as_u64), Some(2));

    daemon.shutdown();
}

#[test]
fn daemon_survives_an_abruptly_dropped_connection() {
    let daemon = Daemon::start();
    {
        // Half a request, then hang up.
        let (_reader, mut stream) = daemon.connect();
        stream.write_all(b"{\"op\":\"ru").expect("partial write");
        drop(stream);
    }
    // The daemon still answers.
    let (mut reader, mut stream) = daemon.connect();
    let responses = Daemon::request(
        &mut reader,
        &mut stream,
        r#"{"op":"run","experiments":["fig05"]}"#,
    );
    assert_eq!(
        responses
            .last()
            .and_then(|r| r.get("type"))
            .and_then(JsonValue::as_str),
        Some("done")
    );
    daemon.shutdown();
}

#[test]
fn oversized_request_line_is_rejected_and_its_connection_closed() {
    use cc_engine::server::MAX_FRAME_BYTES;
    let daemon = Daemon::start();
    {
        let (mut reader, mut stream) = daemon.connect();
        // A daemon without the cap would wait forever for the newline.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("set read timeout");
        // A line of exactly the cap, newline included, is still read.
        let stats = r#"{"op":"stats"}"#;
        let padded = stats.to_string() + &" ".repeat(MAX_FRAME_BYTES - 1 - stats.len());
        let responses = Daemon::request(&mut reader, &mut stream, &padded);
        assert_eq!(
            responses[0].get("type").and_then(JsonValue::as_str),
            Some("stats")
        );
        // One byte more, with no newline in sight: one anonymous
        // malformed-request error, then EOF.
        stream
            .write_all(&vec![b' '; MAX_FRAME_BYTES + 1])
            .expect("oversized write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read error line");
        let error = JsonValue::parse(line.trim_end()).expect("error line is JSON");
        assert_eq!(error.get("type").and_then(JsonValue::as_str), Some("error"));
        assert_eq!(
            error.get("error").and_then(JsonValue::as_str),
            Some("malformed-request")
        );
        assert!(error.get("id").is_none(), "{line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("read EOF"), 0, "{line}");
    }
    // The daemon still serves other connections.
    let (mut reader, mut stream) = daemon.connect();
    let responses = Daemon::request(
        &mut reader,
        &mut stream,
        r#"{"op":"run","experiments":["fig05"]}"#,
    );
    assert_eq!(
        responses
            .last()
            .and_then(|r| r.get("type"))
            .and_then(JsonValue::as_str),
        Some("done")
    );
    daemon.shutdown();
}

#[test]
fn daemon_and_one_shot_cli_share_the_disk_cache_format() {
    // An artifact computed inside the daemon must be replayable by the
    // one-shot CLI from the same `--cache-dir` (and vice versa): both sides
    // speak one on-disk entry format, keyed the same way.
    let dir = std::env::temp_dir().join(format!("cc-serve-disk-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache_dir = dir.join("cache");
    std::fs::create_dir_all(&cache_dir).unwrap();

    // The daemon computes fig05 once and persists it.
    let daemon = Daemon::start_with(&["--cache-dir", cache_dir.to_str().unwrap()]);
    let (mut reader, mut stream) = daemon.connect();
    let responses = Daemon::request(
        &mut reader,
        &mut stream,
        r#"{"op":"run","experiments":["fig05"]}"#,
    );
    assert_eq!(
        responses
            .last()
            .and_then(|r| r.get("type"))
            .and_then(JsonValue::as_str),
        Some("done")
    );
    daemon.shutdown();

    // A fresh one-shot sweep replays the daemon-written entry: fig05 is
    // scenario-independent, so its dependency fingerprint matches across
    // the daemon's paper-defaults run and every point of this sweep — the
    // disk footer must report a hit, not a recompute.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--sweep",
            "fleet.growth=1.0,1.5",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--json",
            "fig05",
        ])
        .output()
        .expect("run one-shot repro");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("disk: fig05: 0 recomputes, 1 disk hit"),
        "one-shot must replay the daemon's entry: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_requires_an_addr_and_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve"])
        .output()
        .expect("run repro serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--daemonize"])
        .output()
        .expect("run repro serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown serve option"));
}

#[test]
fn served_mc_comparison_byte_matches_the_one_shot_cli() {
    let daemon = Daemon::start();
    let dir = std::env::temp_dir().join(format!("cc-serve-mc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let served_dir = dir.join("served");
    let cli_dir = dir.join("cli");

    // Same sampled run through the daemon (via `repro client --out`) and
    // through the one-shot CLI: the seed pins the sample stream, so the
    // banded comparison artifact must agree byte for byte.
    let binding = "fleet.growth ~ uniform(1.2,1.4)";
    let out = client(
        &daemon.addr,
        &[
            "--experiment",
            "ext-facility",
            "--set",
            binding,
            "--samples",
            "300",
            "--seed",
            "7",
            "--jobs",
            "2",
            "--out",
            served_dir.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(r#""samples":300"#),
        "the done line confirms the server ran a Monte-Carlo request: {stdout}"
    );

    let cli = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--experiment",
            "ext-facility",
            "--set",
            binding,
            "--samples",
            "300",
            "--seed",
            "7",
            "--jobs",
            "1",
            "--json",
            "--out",
            cli_dir.to_str().unwrap(),
        ])
        .output()
        .expect("run one-shot repro");
    assert!(
        cli.status.success(),
        "one-shot failed: {}",
        String::from_utf8_lossy(&cli.stderr)
    );

    let served = std::fs::read(served_dir.join("mc-comparison.json")).unwrap();
    let one_shot = std::fs::read(cli_dir.join("mc-comparison.json")).unwrap();
    assert_eq!(
        served, one_shot,
        "served and one-shot Monte-Carlo artifacts must be byte-identical"
    );

    std::fs::remove_dir_all(&dir).ok();
    daemon.shutdown();
}
