//! End-to-end tests for `repro serve` and `repro client`: daemon lifecycle,
//! protocol error handling, cross-request caching, and byte-identity of
//! served artifacts against the one-shot CLI.

mod common;
use cc_report::JsonValue;
use common::{same_trees, scratch};
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
    /// line (`done`/`error`/`stats`/`bye`/`hello`).
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
            if matches!(kind.as_str(), "done" | "error" | "stats" | "bye" | "hello") {
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
            r#"{"op":"run","experiments":["ext-hetero"],"set":{"fleet.scale":1e300}}"#,
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
    let dir = scratch("serve-diff");

    // Each run shape — a sweep, a single point, a Monte-Carlo run, a sweep
    // valid only over its `--set` base, a multi-entry sweep — through the
    // daemon (via `repro client --out`)
    // and through the one-shot CLI (`--json --out`). The single point is
    // spelled with a positional key, as the client shares the one-shot
    // parser; the Monte-Carlo seed pins the sample stream, so its banded
    // digests must agree byte for byte. fig10 sweeps each point in its own
    // work group, while under a `fleet.growth` sweep most figures share
    // one output across both points, so the last run splices one rendered
    // output into several artifacts.
    let sweep = [
        "--experiment",
        "fig10",
        "--sweep",
        "grid.intensity=50,380,700",
    ];
    let positional = ["fig05", "--tag", "figure", "--set", "grid.intensity=50"];
    let mc = [
        "--experiment",
        "ext-facility",
        "--set",
        "fleet.growth ~ uniform(1.2,1.4)",
        "--samples",
        "300",
        "--seed",
        "7",
    ];
    // Over the paper's pure web fleet `fleet.mix[web]=0.3` has no other SKU
    // to rescale; over this base it does.
    let mix = [
        "--experiment",
        "ext-facility",
        "--set",
        "fleet.mix=web:0.5,storage:0.5",
        "--sweep",
        "fleet.mix[web]=0.3,0.7",
    ];
    let shared = ["--tag", "figure", "--sweep", "fleet.growth=1.1,1.3"];
    let mut trees = Vec::new();
    for (i, run) in [&sweep[..], &positional[..], &mc[..], &mix[..], &shared[..]]
        .into_iter()
        .enumerate()
    {
        let served_dir = dir.join(format!("served-{i}"));
        let cli_dir = dir.join(format!("cli-{i}"));
        let out = client(
            &daemon.addr,
            &[run, &["--jobs", "2", "--out", served_dir.to_str().unwrap()]].concat(),
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
        if run == mc {
            assert!(
                stdout.contains(r#""samples":300"#),
                "the done line confirms the server ran a Monte-Carlo request: {stdout}"
            );
        }

        let cli = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(run)
            .args(["--jobs", "2", "--json", "--out", cli_dir.to_str().unwrap()])
            .output()
            .expect("run one-shot repro");
        assert!(cli.status.success());
        let files = same_trees(&[&served_dir, &cli_dir]);
        trees.push(files.into_iter().map(|(name, _)| name).collect::<Vec<_>>());
    }
    let mut figures: Vec<String> = (1..=15)
        .flat_map(|n| ["1.1", "1.3"].map(|g| format!("fig{n:02}@fleet.growth-{g}.json")))
        .chain(["comparison.json".to_string()])
        .collect();
    figures.sort();
    assert_eq!(trees.pop(), Some(figures));
    assert_eq!(
        trees,
        [
            &[
                "comparison.json",
                "fig10@grid.intensity-380.json",
                "fig10@grid.intensity-50.json",
                "fig10@grid.intensity-700.json",
            ][..],
            &["fig05.json"][..],
            &["mc-comparison.json"][..],
            &[
                "comparison.json",
                "ext-facility@fleet.mix-web--0.3.json",
                "ext-facility@fleet.mix-web--0.7.json",
            ][..],
        ]
    );

    std::fs::remove_dir_all(&dir).ok();
    daemon.shutdown();
}

#[test]
fn racing_clients_compute_each_sweep_point_once() {
    let daemon = Daemon::start();
    let dir = scratch("serve-race");
    let sweep = [
        "--experiment",
        "fig10",
        "--sweep",
        "grid.intensity=50,380,700",
    ];
    let served = |name: &str| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["client", "--addr", &daemon.addr])
            .args(sweep)
            .args(["--jobs", "2", "--out"])
            .arg(dir.join(name))
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn repro client")
    };
    // Two clients race on a cold cache, then a third replays the sweep
    // entirely from the resident cache.
    for client in [served("a"), served("b")] {
        assert!(client.wait_with_output().unwrap().status.success());
    }
    let replay = served("c").wait_with_output().unwrap();
    assert!(replay.status.success());
    let done = String::from_utf8(replay.stdout).unwrap();
    let all_hits = r#""cache":{"hits":3,"misses":0,"inflight_dedups":0}"#;
    assert!(done.contains(all_hits), "{done}");
    // Across the racers and the replay: one compute per sweep point.
    let stats = String::from_utf8(client(&daemon.addr, &["--stats"]).stdout).unwrap();
    assert!(stats.contains(r#""misses":3,"#), "{stats}");

    let one_shot = dir.join("one-shot");
    let cli = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(sweep)
        .args(["--jobs", "2", "--json", "--out", one_shot.to_str().unwrap()])
        .output()
        .expect("run one-shot repro");
    assert!(cli.status.success());
    for name in ["a", "b", "c"] {
        same_trees(&[&dir.join(name), &one_shot]);
    }
    std::fs::remove_dir_all(&dir).ok();
    daemon.shutdown();
}

#[test]
fn shutdown_ends_a_long_client_run_with_the_cancelled_exit_code() {
    let mut daemon = Daemon::start();
    // A Monte-Carlo run of many minutes, still in flight at `--shutdown`.
    let long = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["client", "--addr", &daemon.addr, "ext-mc"])
        .args(["--set", "grid.intensity ~ uniform(100,700)"])
        .args(["--samples", "200000"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro client");
    let (mut reader, mut stream) = daemon.connect();
    while Daemon::request(&mut reader, &mut stream, r#"{"op":"stats"}"#)[0]
        .get("stats")
        .and_then(|s| s.get("requests"))
        .and_then(JsonValue::as_u64)
        == Some(0)
    {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(client(&daemon.addr, &["--shutdown"]).status.success());
    // The daemon exits within 2 s of `bye`.
    let bye = std::time::Instant::now();
    while daemon.child.try_wait().expect("poll daemon").is_none() {
        let late = bye.elapsed() > std::time::Duration::from_secs(2);
        assert!(!late, "daemon still running 2 s after shutdown");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(daemon.child.wait().expect("reap daemon").success());
    // The run's client exits with `cancelled`'s code: 10 + its index.
    let long = long.wait_with_output().expect("reap client");
    let stderr = String::from_utf8_lossy(&long.stderr);
    assert_eq!(long.status.code(), Some(18), "{stderr}");
    assert!(stderr.contains("cancelled"), "{stderr}");
}

#[test]
fn memoized_artifacts_byte_match_the_one_shot_cli_under_either_routing() {
    let daemon = Daemon::start();
    let (mut reader, mut stream) = daemon.connect();
    // One payload per routing, each sent twice: the first request misses
    // the payload's artifact memo and the second replays its text. Every
    // served payload must be one-shot `--json`'s bytes, spliced in raw
    // right after the routing fields.
    for (id, intensity) in [(None, "50"), (Some("memo"), "700")] {
        let set = format!("grid.intensity={intensity}");
        let one_shot = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fig05", "fig10", "--set", &set, "--json"])
            .output()
            .expect("run one-shot repro");
        assert!(one_shot.status.success());
        let one_shot = String::from_utf8(one_shot.stdout).unwrap();
        let route = id.map_or(String::new(), |id| format!(r#","id":"{id}""#));
        let request = format!(
            r#"{{"op":"run"{route},"experiments":["fig05","fig10"],"set":{{"grid.intensity":{intensity}}}}}"#
        );
        for _ in 0..2 {
            writeln!(stream, "{request}").expect("send request");
            for (key, expected) in ["fig05", "fig10"].into_iter().zip(one_shot.lines()) {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read artifact line");
                let head = format!(
                    r#"{{"type":"artifact"{route},"key":"{key}","name":"{key}.json","artifact":"#
                );
                let payload = line
                    .trim_end()
                    .strip_prefix(&head)
                    .and_then(|rest| rest.strip_suffix('}'))
                    .unwrap_or_else(|| panic!("unexpected artifact line {line}"));
                assert!(payload == expected, "{key} at {set}, id {id:?}");
            }
            let mut done = String::new();
            reader.read_line(&mut done).expect("read done line");
            assert!(
                done.starts_with(&format!(r#"{{"type":"done"{route},"#)),
                "{done}"
            );
        }
    }
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
    // A sweep that repeats a value would write one artifact file twice.
    let out = client(
        &daemon.addr,
        &["--experiment", "fig10", "--sweep", "grid.intensity=50,50"],
    );
    assert_eq!(out.status.code(), Some(16), "repeated sweep value");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("listed more than once"));

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
fn client_refuses_artifact_names_that_leave_the_out_dir() {
    let root = scratch("client-unsafe-names");
    let out_dir = root.join("out");
    let absolute = root.join("absolute.json").to_string_lossy().into_owned();
    for name in ["../escape.json", &absolute, "sub/escape.json", "..", ""] {
        let shown = format!("{name:?}");
        let name = name.to_string();
        // A one-response fake server: it reads the request line and answers
        // with one artifact under `name`.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept client");
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).unwrap();
            let artifact = JsonValue::object([
                ("type", JsonValue::from("artifact")),
                ("name", JsonValue::from(name.as_str())),
                (
                    "artifact",
                    JsonValue::object([("escaped", JsonValue::from(true))]),
                ),
            ]);
            writeln!(&stream, "{artifact}").unwrap();
        });
        let out = client(&addr, &["fig10", "--out", out_dir.to_str().unwrap()]);
        server.join().unwrap();
        assert_eq!(out.status.code(), Some(2), "name {shown}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unsafe artifact name"), "{stderr}");
        assert_eq!(
            std::fs::read_dir(&out_dir).unwrap().count(),
            0,
            "name {shown}"
        );
        assert!(!root.join("escape.json").exists(), "name {shown}");
        assert!(!root.join("absolute.json").exists(), "name {shown}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Caps the daemon's descriptors `spare` above its lowest free one. (A
/// `ulimit` set before start leaves the fill to a race with descriptors
/// the daemon opens in passing.)
#[cfg(target_os = "linux")]
fn cap_descriptors(pid: u32, spare: usize) {
    let used: std::collections::BTreeSet<usize> = std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("list the daemon's descriptors")
        .map(|entry| {
            let name = entry.expect("descriptor entry").file_name();
            name.to_str().and_then(|n| n.parse().ok()).expect("numeric")
        })
        .collect();
    let limit = (0..).find(|fd| !used.contains(fd)).expect("a free slot") + spare;
    let prlimit = Command::new("prlimit")
        .args([format!("--pid={pid}"), format!("--nofile={limit}:{limit}")])
        .status()
        .expect("run prlimit (util-linux)");
    assert!(prlimit.success(), "prlimit failed");
}

/// The CPU time process `pid` spends in the 2 s that start 0.5 s from
/// now: utime + stime, in clock ticks (USER_HZ, 100 per second).
#[cfg(target_os = "linux")]
fn cpu_ticks_from_half_a_second_on(pid: u32) -> u64 {
    let cpu_ticks = || -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
        let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
            .split(' ')
            .collect();
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
    };
    std::thread::sleep(std::time::Duration::from_millis(500));
    let before = cpu_ticks();
    std::thread::sleep(std::time::Duration::from_secs(2));
    cpu_ticks() - before
}

/// Out of file descriptors, `accept` fails while the connection waits in
/// the backlog. The accept loop must back off and log once, not spin a
/// core retrying.
#[cfg(target_os = "linux")]
#[test]
fn accept_failures_back_off_when_file_descriptors_run_out() {
    let mut daemon = Daemon::start();
    let pid = daemon.child.id();
    let held: Vec<_> = (0..4)
        .map(|_| {
            let (mut reader, mut stream) = daemon.connect();
            Daemon::request(&mut reader, &mut stream, r#"{"op":"stats"}"#);
            (reader, stream)
        })
        .collect();
    // No free descriptor: the daemon's next `accept` fails with EMFILE.
    cap_descriptors(pid, 0);
    // These wait in the backlog: every `accept` now fails.
    let pending: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(&daemon.addr).expect("connect"))
        .collect();

    // A core spinning on `accept` spends about 200 ticks in 2 s.
    let spent = cpu_ticks_from_half_a_second_on(pid);
    assert!(spent < 50, "{spent} CPU ticks in 2 s");

    let mut stderr = daemon.child.stderr.take().expect("piped stderr");
    daemon.child.kill().expect("kill daemon");
    daemon.child.wait().expect("reap daemon");
    drop((held, pending));
    let mut log = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut log).expect("read log");
    assert_eq!(log.matches("accept failed").count(), 1, "{log}");
}

/// Idle connections cost the daemon one reader thread each: sixteen of
/// them leave it the accept loop, sixteen readers and its pool of at most
/// eight workers.
#[cfg(target_os = "linux")]
#[test]
fn idle_connections_hold_one_thread_each() {
    let daemon = Daemon::start_with(&["--jobs", "2"]);
    let held: Vec<_> = (0..16)
        .map(|_| {
            let (mut reader, mut stream) = daemon.connect();
            Daemon::request(&mut reader, &mut stream, r#"{"op":"hello"}"#);
            (reader, stream)
        })
        .collect();
    let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id()))
        .expect("read the daemon's status");
    let threads: usize = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line");
    assert!(threads <= 1 + 16 + 8, "{threads} threads");
    drop(held);
    daemon.shutdown();
}

/// A client that closes its socket mid-sweep cancels the sweep: the
/// daemon's next write fails, and the run stops at its next work unit,
/// tagged or untagged.
#[cfg(target_os = "linux")]
#[test]
fn a_sweep_stops_once_its_client_has_closed() {
    use std::io::Read as _;
    let daemon = Daemon::start_with(&["--jobs", "2"]);
    let sweep = r#""sweep":["fleet.growth=1.0..5.0/0.001"],"no_cache":true"#;
    for id in ["", r#""id":"t","#] {
        let (mut reader, mut stream) = daemon.connect();
        writeln!(stream, r#"{{"op":"run",{id}{sweep}}}"#).expect("send");
        let mut head = vec![0; 64 << 10];
        reader.read_exact(&mut head).expect("read the first 64 KiB");
        drop((reader, stream));
        let spent = cpu_ticks_from_half_a_second_on(daemon.child.id());
        // A core still computing the sweep spends about 200 ticks in 2 s.
        assert!(spent < 20, "{id}: {spent} CPU ticks in 2 s");
    }
    daemon.shutdown();
}

/// With one descriptor left, `accept` takes it and cloning the socket
/// for the connection's reader fails: the daemon closes the connection
/// and logs one event naming the peer and the OS error.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_socket_clone_is_logged_with_its_peer() {
    let mut daemon = Daemon::start();
    let (mut reader, mut stream) = daemon.connect();
    Daemon::request(&mut reader, &mut stream, r#"{"op":"stats"}"#);
    cap_descriptors(daemon.child.id(), 1);
    let dropped = TcpStream::connect(&daemon.addr).expect("connect");
    let peer = dropped.local_addr().expect("local address");
    dropped
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("set read timeout");
    let mut line = String::new();
    let read = BufReader::new(&dropped).read_line(&mut line);
    assert_eq!(read.expect("read EOF"), 0, "no response line: {line}");

    let mut stderr = daemon.child.stderr.take().expect("piped stderr");
    daemon.child.kill().expect("kill daemon");
    daemon.child.wait().expect("reap daemon");
    drop((reader, stream));
    let mut log = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut log).expect("read log");
    let event = format!("serve: connection from {peer} dropped: cannot clone its socket (");
    let events: Vec<&str> = log.lines().filter(|l| l.starts_with(&event)).collect();
    assert_eq!(events.len(), 1, "{log}");
    assert!(events[0].ends_with("(os error 24))"), "EMFILE: {log}");
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
    let dir = scratch("serve-disk");
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
    let dir = scratch("serve-mc");
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
            "200",
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
        stdout.contains(r#""samples":200"#),
        "the done line confirms the server ran a Monte-Carlo request: {stdout}"
    );

    let cli = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--experiment",
            "ext-facility",
            "--set",
            binding,
            "--samples",
            "200",
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
