//! Regenerates the paper's figures and tables from the models, under any
//! scenario — or a whole matrix of scenarios.
//!
//! ```text
//! repro fig10                                  # paper scenario, text output
//! repro --scenario green.toml fig10            # custom scenario file
//! repro --set grid.intensity=50 fig10          # one-off overrides
//! repro --tag mobile --json                    # tag-filtered, JSON to stdout
//! repro --jobs 8 --json --out out/             # full suite, in parallel,
//!                                              # one artifact file per key
//! repro --experiment fig10 \
//!       --sweep grid.intensity=10..800/100 \
//!       --jobs 4 --json --out out/             # scenario sweep: one artifact
//!                                              # per grid point, plus a
//!                                              # cross-scenario comparison
//! repro serve --addr 127.0.0.1:7878            # resident sweep-as-a-service
//!                                              # daemon (NDJSON over TCP)
//! repro client --addr 127.0.0.1:7878 fig10 \
//!       --sweep grid.intensity=100,300 \
//!       --out out/                             # drive a daemon from the CLI
//! ```
//!
//! One-shot `repro` and `repro client` share one flag parser, which fills
//! the daemon's own [`RunRequest`]: one-shot resolves it in-process with
//! [`RunRequest::resolve_from`] over the `--scenario` file (or the paper
//! defaults), exactly as `repro serve` resolves a `run` line, and the
//! client sends its [`RunRequest::to_json`] line. `--scenario`, `--list`,
//! `--explain`, `--markdown`/`--csv`/`--json` and `--cache-dir` are
//! one-shot only; `--addr`, `--hello`, `--stats` and `--shutdown` are
//! client only.
//!
//! With `--sweep`, the runner expands the cartesian product of all sweep
//! specs over the base scenario and schedules the full (scenario-point ×
//! experiment) grid on a streaming work-queue: workers pull jobs, artifacts
//! are written to `--out` the moment they complete (a small reorder buffer
//! keeps stdout in grid order), and each point's summary scalar feeds the
//! comparison report emitted at the end.
//!
//! All execution routes through [`cc_engine`]: the work-queue dedupes jobs
//! through each experiment's declared scenario-dependency set, so
//! (experiment × point) jobs whose dependency fingerprints agree share one
//! model run, scenario-independent experiments execute once per sweep and
//! partially-dependent ones skip axes they ignore. `--no-cache` restores
//! the one-run-per-job behavior, `--explain` prints the dedup plan without
//! running anything, and a sweep's footer reports the per-experiment
//! run/reuse counts. `repro serve` keeps the same engine resident behind a
//! TCP listener, so repeated and overlapping requests are answered from its
//! sharded fingerprint→artifact cache.

use cc_core::experiments::{self, Entry, Tag};
use cc_engine::artifact::{artifact_file_name, head_fields};
use cc_engine::grid::{disk_footer_lines, explain_lines, footer_lines};
use cc_engine::protocol::{RunRequest, ERROR_CATEGORIES};
use cc_engine::{DiskCache, Engine, Format, GridConfig, GridJob, RunCounts, Server};
use cc_report::{JsonValue, Scenario};
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn print_usage() {
    eprintln!("usage: repro [options] [<experiment-key>...]");
    eprintln!(
        "       repro serve --addr <host:port> [--jobs <n>] [--cache-capacity <n>] \
         [--cache-dir <dir>] [--queue-depth <n>] [--log <file>]"
    );
    eprintln!("       repro client --addr <host:port> [options] [<experiment-key>...]");
    eprintln!("       repro client --addr <host:port> --hello | --stats | --shutdown");
    eprintln!();
    eprintln!("options (all drive `repro client` too, except those marked one-shot):");
    eprintln!("  --list               list selected experiment keys and exit (one-shot)");
    eprintln!("  --tag <tag>          filter experiments by tag (repeatable, AND-ed)");
    eprintln!("  --experiment <key>   select an experiment (repeatable; same as a");
    eprintln!("                       positional key)");
    eprintln!("  --scenario <file>    load scenario parameters from a TOML file (one-shot)");
    eprintln!("  --set <key>=<value>  override one scenario field (repeatable),");
    eprintln!("                       e.g. --set grid.intensity=50 --set device.lifetime=5");
    eprintln!("                       a `~` binds a distribution instead (Monte-Carlo):");
    eprintln!("                         --set 'fab.node_nm ~ triangular(5,7,10)'");
    eprintln!("                         --set 'fleet.growth ~ uniform(1.2,1.4)'");
    eprintln!("                         --set 'grid.intensity ~ normal(350,40)'");
    eprintln!("  --sweep <key>=<spec> sweep one scenario field over many values");
    eprintln!("                       (repeatable; specs multiply into a matrix):");
    eprintln!("                         range  --sweep grid.intensity=10..800/100");
    eprintln!("                         list   --sweep device.lifetime=2,3,4");
    eprintln!("                         named  --sweep grid.source=@sources");
    eprintln!("                       (a `~` spec binds a distribution, like --set)");
    eprintln!("  --samples <n>        draw n Monte-Carlo samples (max 1000000) over the");
    eprintln!("                       bound distributions and report streaming banded");
    eprintln!("                       statistics (mean, stddev, p05/p50/p95, 90% CI)");
    eprintln!("  --seed <n>           RNG seed for --samples (default 0); the same seed");
    eprintln!("                       is byte-reproducible at any --jobs value");
    eprintln!("  --markdown | --csv | --json   output format (default: text; one-shot)");
    eprintln!("  --out <dir>          write one artifact file per experiment (and per");
    eprintln!("                       sweep point) into <dir>, streamed as they finish");
    eprintln!("  --jobs <n>           run the (point x experiment) grid on n worker");
    eprintln!("                       threads (default 1; capped at 64)");
    eprintln!("  --no-cache           run every (experiment x point) job even when the");
    eprintln!("                       experiment's declared scenario dependencies say");
    eprintln!("                       the output is identical across points");
    eprintln!("  --cache-dir <dir>    persist computed artifacts under <dir>, keyed on");
    eprintln!("                       (code fingerprint x dependency fingerprint); a");
    eprintln!("                       later run recomputes only the work groups whose");
    eprintln!("                       declared scenario fields changed (one-shot)");
    eprintln!("  --explain            print each experiment's scenario dependencies and");
    eprintln!("                       the sweep's run/reuse plan, without running");
    eprintln!("                       (one-shot)");
    eprintln!();
    eprintln!("serve mode: a resident daemon speaking newline-delimited JSON over TCP");
    eprintln!("  (protocol v2: request ids multiplex many in-flight requests per");
    eprintln!("  connection; `batch` submits a whole sweep in one frame; a request");
    eprintln!("  past the queue depth, or a connection past 64, is answered with a");
    eprintln!("  structured `overloaded` error). every connection shares one engine,");
    eprintln!("  so artifacts computed for one client are cache hits for every other,");
    eprintln!("  and one worker pool. `--jobs` caps per-request parallelism and the");
    eprintln!("  pool's size, `--queue-depth` caps in-flight multiplexed requests per");
    eprintln!("  connection; bind port 0 to let the OS pick (the chosen address is");
    eprintln!("  printed as `listening on <addr>`). the operational log goes to stderr");
    eprintln!("  by default, or to `--log <file>` — never into the working directory.");
    eprintln!();
    eprintln!("client mode: sends the run the options describe to the daemon at");
    eprintln!("  `--addr` (`--hello`, `--stats` or `--shutdown` send that op instead)");
    eprintln!("  and writes the streamed artifacts to `--out`, byte-identical to");
    eprintln!("  one-shot `--json --out` files, or prints them. exit code 0 on");
    eprintln!("  success; a server rejection maps the error category to a stable");
    eprintln!("  exit code:");
    for row in ERROR_CATEGORIES.chunks(3) {
        let codes: Vec<String> = row
            .iter()
            .map(|category| format!("{category}={}", category_exit_code(category)))
            .collect();
        eprintln!("    {}", codes.join(", "));
    }
    eprintln!("  other client failures exit 2.");
    eprintln!();
    let tags: Vec<&str> = Tag::ALL.iter().map(|t| t.name()).collect();
    eprintln!("tags: {}", tags.join(", "));
    eprintln!();
    eprintln!("keys:");
    for e in experiments::entries() {
        eprintln!("  {:10}  {} — {}", e.key, e.title(), e.description());
    }
}

/// Prints a line to stdout, exiting quietly when the reader has gone away
/// (`repro --list | head` must not panic on the broken pipe).
fn emit(line: impl std::fmt::Display) {
    let stdout = std::io::stdout();
    if writeln!(stdout.lock(), "{line}").is_err() {
        std::process::exit(0);
    }
}

fn fail(message: &str) -> ! {
    eprintln!("repro: {message}");
    eprintln!("(run `repro --help` for usage)");
    std::process::exit(2);
}

/// Which front end a command line drives.
enum Mode {
    OneShot,
    Client,
}

/// Flags only one-shot `repro` reads.
const ONE_SHOT_ONLY: [&str; 7] = [
    "--scenario",
    "--list",
    "--explain",
    "--markdown",
    "--csv",
    "--json",
    "--cache-dir",
];

/// Flags only `repro client` reads.
const CLIENT_ONLY: [&str; 4] = ["--addr", "--stats", "--hello", "--shutdown"];

/// One parsed command line: the [`RunRequest`] both front ends share, plus
/// the flags of one mode.
struct Cli {
    request: RunRequest,
    out_dir: Option<PathBuf>,
    // One-shot only.
    scenario_file: Option<String>,
    list: bool,
    explain: bool,
    format: Format,
    cache_dir: Option<PathBuf>,
    // Client only: the daemon address, and a `hello`/`stats`/`shutdown`
    // op sent instead of the run.
    addr: Option<String>,
    control: Option<&'static str>,
}

fn value_of(flag: &str, args: &mut dyn Iterator<Item = String>) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
}

/// Parses a `--flag` value that must be a positive integer.
fn positive(flag: &str, value: &str) -> usize {
    value
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| fail(&format!("{flag} expects a positive integer, got `{value}`")))
}

/// The one flag parser of both run front ends: every run flag fills
/// `request`, and a flag of the other mode is rejected.
fn parse_args(mode: Mode, mut args: impl Iterator<Item = String>) -> Cli {
    let mut cli = Cli {
        request: RunRequest::default(),
        out_dir: None,
        scenario_file: None,
        list: false,
        explain: false,
        format: Format::Text,
        cache_dir: None,
        addr: None,
        control: None,
    };
    let (foreign, owner, unknown) = match mode {
        Mode::OneShot => (&CLIENT_ONLY[..], "`repro client`", "unknown option"),
        Mode::Client => (
            &ONE_SHOT_ONLY[..],
            "one-shot `repro`",
            "unknown client option",
        ),
    };
    let mut controls = Vec::new();
    while let Some(arg) = args.next() {
        if foreign.contains(&arg.as_str()) {
            fail(&format!("`{arg}` only applies to {owner}"));
        }
        let request = &mut cli.request;
        match arg.as_str() {
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            "--experiment" => request.keys.push(value_of("--experiment", &mut args)),
            "--tag" => request.tags.push(value_of("--tag", &mut args)),
            // A `~` in a --set/--sweep value binds a distribution instead of
            // a scalar or an enumerated sweep — the Monte-Carlo front door.
            // Checked before the `=` split: `fab.node_nm ~ triangular(5,7,10)`
            // has no `=` at all.
            "--set" => {
                let pair = value_of("--set", &mut args);
                if pair.contains('~') {
                    request.dists.push(pair);
                    continue;
                }
                let Some((key, value)) = pair.split_once('=') else {
                    fail(&format!("--set expects key=value, got `{pair}`"));
                };
                request
                    .sets
                    .push((key.trim().to_string(), value.trim().to_string()));
            }
            "--sweep" => {
                let spec = value_of("--sweep", &mut args);
                if spec.contains('~') {
                    request.dists.push(spec);
                } else {
                    request.sweeps.push(spec);
                }
            }
            "--samples" => {
                request.samples = Some(positive("--samples", &value_of("--samples", &mut args)));
            }
            "--seed" => {
                let n = value_of("--seed", &mut args);
                request.seed = Some(n.parse().unwrap_or_else(|_| {
                    fail(&format!("--seed expects a non-negative integer, got `{n}`"))
                }));
            }
            "--jobs" => request.jobs = Some(positive("--jobs", &value_of("--jobs", &mut args))),
            "--no-cache" => request.no_cache = true,
            "--out" => cli.out_dir = Some(PathBuf::from(value_of("--out", &mut args))),
            "--scenario" => cli.scenario_file = Some(value_of("--scenario", &mut args)),
            "--list" => cli.list = true,
            "--explain" => cli.explain = true,
            "--markdown" => cli.format = Format::Markdown,
            "--csv" => cli.format = Format::Csv,
            "--json" => cli.format = Format::Json,
            "--cache-dir" => {
                cli.cache_dir = Some(PathBuf::from(value_of("--cache-dir", &mut args)))
            }
            "--addr" => cli.addr = Some(value_of("--addr", &mut args)),
            "--hello" | "--stats" | "--shutdown" => controls.push(arg),
            // `cargo repro -- fig10` forwards the `--` separator; accept it.
            "--" => {}
            flag if flag.starts_with('-') => fail(&format!("{unknown} `{flag}`")),
            key => request.keys.push(key.to_string()),
        }
    }
    // One op per connection: `--hello` wins over `--stats` over
    // `--shutdown`.
    cli.control = ["hello", "stats", "shutdown"]
        .into_iter()
        .find(|op| controls.iter().any(|flag| flag[2..] == **op));
    cli
}

/// Opens the persistent cache at `dir`, exiting with a diagnostic when the
/// directory cannot be created.
fn open_disk_cache(dir: &Path) -> DiskCache {
    DiskCache::open(dir)
        .unwrap_or_else(|e| fail(&format!("cannot open cache dir `{}`: {e}", dir.display())))
}

/// Creates the `--out` directory, when one was given.
fn create_out_dir(out_dir: Option<&Path>) {
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(&format!("cannot create `{}`: {e}", dir.display())));
    }
}

/// Writes one output file, returning the `wrote <path>` line to report.
fn write_file(path: &Path, contents: &str) -> String {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| fail(&format!("cannot write `{}`: {e}", path.display())));
    format!("wrote {}", path.display())
}

/// `repro serve`: bind the listener, print the chosen address (port 0 is
/// resolved by the OS) and serve until a client sends `{"op":"shutdown"}`.
fn serve_main(mut args: impl Iterator<Item = String>) {
    let mut addr: Option<String> = None;
    let mut jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut capacity = cc_engine::DEFAULT_CACHE_CAPACITY;
    let mut cache_dir: Option<PathBuf> = None;
    let mut queue_depth = cc_engine::server::DEFAULT_QUEUE_DEPTH;
    let mut log_file: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(value_of("--addr", &mut args)),
            "--jobs" => jobs = positive("--jobs", &value_of("--jobs", &mut args)),
            "--cache-capacity" => {
                capacity = positive("--cache-capacity", &value_of("--cache-capacity", &mut args));
            }
            "--cache-dir" => cache_dir = Some(PathBuf::from(value_of("--cache-dir", &mut args))),
            // Queue depth 0 is allowed: a drill server that rejects every
            // multiplexed request with `overloaded`.
            "--queue-depth" => {
                let n = value_of("--queue-depth", &mut args);
                queue_depth = n.parse().ok().unwrap_or_else(|| {
                    fail(&format!(
                        "--queue-depth expects a non-negative integer, got `{n}`"
                    ))
                });
            }
            "--log" => log_file = Some(PathBuf::from(value_of("--log", &mut args))),
            flag => fail(&format!("unknown serve option `{flag}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| fail("serve requires --addr <host:port>"));
    let mut engine = Engine::with_capacity(capacity);
    if let Some(dir) = &cache_dir {
        // The daemon and the one-shot CLI share the same on-disk format, so
        // artifacts computed by either warm the other.
        engine = engine.with_disk(open_disk_cache(dir));
    }
    let engine = Arc::new(engine);
    // The operational log defaults to stderr — a daemon must not drop a
    // `serve.log` into whatever directory it happened to start from.
    let log = match &log_file {
        None => cc_engine::ServeLog::to_stderr(),
        Some(path) => cc_engine::ServeLog::to_file(path)
            .unwrap_or_else(|e| fail(&format!("cannot open log `{}`: {e}", path.display()))),
    };
    let server = Server::bind(&addr, engine, jobs)
        .unwrap_or_else(|e| fail(&format!("cannot bind `{addr}`: {e}")))
        .queue_depth(queue_depth)
        .log_to(log);
    let local = server
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("cannot read bound address: {e}")));
    emit(format_args!("listening on {local}"));
    server
        .run()
        .unwrap_or_else(|e| fail(&format!("serve failed: {e}")));
}

/// Maps a server error category onto a stable exit code — 10 plus its
/// index in [`ERROR_CATEGORIES`] — so scripted callers (and the stress
/// suite) can tell `overloaded` from `invalid-sweep` without parsing
/// stderr. Unknown categories fall back to the generic failure code 2.
fn category_exit_code(category: &str) -> i32 {
    ERROR_CATEGORIES
        .iter()
        .position(|&known| known == category)
        .map_or(2, |index| 10 + index as i32)
}

/// `repro client`: send the command line's [`RunRequest`] (or its
/// `hello`/`stats`/`shutdown` op) and stream the responses — artifacts to
/// `--out` files (byte-identical to one-shot `repro --json --out`
/// artifacts) or raw to stdout. A server rejection exits with the
/// category's [`category_exit_code`].
fn client_main(cli: Cli) {
    let addr = cli
        .addr
        .unwrap_or_else(|| fail("client requires --addr <host:port>"));
    let request = match cli.control {
        Some(op) => JsonValue::object([("op", JsonValue::from(op))]),
        None => cli.request.to_json(),
    };
    create_out_dir(cli.out_dir.as_deref());

    let stream = std::net::TcpStream::connect(&addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to `{addr}`: {e}")));
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| fail(&format!("cannot clone connection: {e}")));
    writeln!(writer, "{request}").unwrap_or_else(|e| fail(&format!("cannot send request: {e}")));

    for line in std::io::BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| fail(&format!("connection lost: {e}")));
        let response =
            JsonValue::parse(&line).unwrap_or_else(|e| fail(&format!("unparseable response: {e}")));
        match response.get("type").and_then(JsonValue::as_str) {
            Some("artifact") | Some("comparison") => {
                let payload = response
                    .get("artifact")
                    .or_else(|| response.get("comparison"))
                    .unwrap_or_else(|| fail("response is missing its payload"));
                match &cli.out_dir {
                    // Re-rendering the parsed payload reproduces the server's
                    // bytes exactly (the JSON renderer is round-trip stable),
                    // which in turn match one-shot `repro --json --out` files.
                    Some(dir) => {
                        let name = response
                            .get("name")
                            .and_then(JsonValue::as_str)
                            .unwrap_or_else(|| fail("response is missing its artifact name"));
                        emit(write_file(&dir.join(name), &payload.render()));
                    }
                    None => emit(payload.render()),
                }
            }
            Some("done") | Some("stats") | Some("hello") => {
                emit(line);
                return;
            }
            Some("bye") => return,
            Some("error") => {
                let category = response
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("error");
                let message = response
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("(no message)");
                eprintln!("repro: server rejected the request: {category}: {message}");
                if let Some(ms) = response.get("retry_after_ms").and_then(JsonValue::as_u64) {
                    eprintln!("repro: server advises retrying after {ms} ms");
                }
                std::process::exit(category_exit_code(category));
            }
            _ => fail(&format!("unexpected response `{line}`")),
        }
    }
    fail("server closed the connection before finishing the response");
}

/// The cache footer of a sweep or Monte-Carlo run: how the dependency
/// dedup compressed its `cells` (points or samples) per experiment, plus —
/// with `--cache-dir` — what this process really recomputed versus what the
/// warm cache dir answered. Not part of any artifact (a cached and an
/// uncached run write byte-identical files), kept off stdout in JSON mode
/// so JSON consumers can parse stdout, and suppressed with `--no-cache`.
fn emit_footer(cli: &Cli, entries: &[&'static Entry], cells: usize, counts: &RunCounts) {
    if cli.request.no_cache {
        return;
    }
    let mut footer = footer_lines(entries, cells, &counts.run_counts);
    if cli.cache_dir.is_some() {
        footer.extend(disk_footer_lines(
            entries,
            &counts.disk_runs,
            &counts.disk_hits,
        ));
    }
    for line in footer {
        if cli.format == Format::Json {
            eprintln!("{line}");
        } else {
            emit(line);
        }
    }
}

/// One-shot `repro`: resolve the command line's [`RunRequest`] over the
/// `--scenario` file (or the paper defaults) exactly as the daemon
/// resolves a `run` line, then list, explain, sample or run it.
fn one_shot_main(cli: Cli) {
    let base = match &cli.scenario_file {
        None => Scenario::paper_defaults(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read scenario `{path}`: {e}")));
            let dir = Path::new(path).parent().unwrap_or(Path::new(""));
            Scenario::from_toml_in(&text, dir)
                .unwrap_or_else(|e| fail(&format!("scenario `{path}`: {e}")))
        }
    };
    let resolve = |base| {
        cli.request
            .resolve_from(base)
            .unwrap_or_else(|e| fail(&e.message))
    };

    if cli.list {
        // An empty selection lists nothing; any other request must resolve
        // in full, so `--list` rejects whatever a run would reject.
        let selected = match cli.request.select() {
            Ok(entries) if entries.is_empty() => entries,
            _ => resolve(base).entries,
        };
        if cli.format == Format::Json {
            emit(JsonValue::array(selected.iter().map(|e| {
                JsonValue::object(head_fields(e, e.build().as_ref()))
            })));
        } else {
            for entry in selected {
                emit(entry.key);
            }
        }
        return;
    }

    let run = resolve(base);
    if cli.explain {
        if run.mc.is_some() {
            fail("--explain does not apply to Monte-Carlo runs");
        }
        for line in explain_lines(&run.entries, &run.points, cli.request.no_cache) {
            emit(line);
        }
        return;
    }
    create_out_dir(cli.out_dir.as_deref());

    // A throwaway engine: the CLI is one request against a cold in-memory
    // cache (possibly warmed lazily from `--cache-dir`). The run/reuse
    // accounting comes from the dependency plan (group counts), so the
    // footer is identical to what a resident engine would print.
    let mut engine = Engine::new();
    if let Some(dir) = &cli.cache_dir {
        engine = engine.with_disk(open_disk_cache(dir));
    }
    let config = GridConfig {
        jobs: cli.request.jobs.unwrap_or(1),
        no_cache: cli.request.no_cache,
        format: cli.format,
    };
    // Renders one artifact on the worker thread, streaming it to `--out`
    // the moment the job finishes (not after the whole grid drains); the
    // returned lines reach stdout in grid order via the engine's reorder
    // buffer.
    let render = |job: &GridJob<'_>| {
        let artifact = job.artifact();
        match &cli.out_dir {
            None => vec![artifact],
            Some(dir) => {
                let point = job.sweeping.then_some(job.point);
                let name = artifact_file_name(job.entry.key, point, job.format);
                vec![write_file(&dir.join(name), &artifact)]
            }
        }
    };
    let execution = engine
        .execute(&run, &config, &AtomicBool::new(false), render, emit)
        .unwrap_or_else(|e| fail(&e.to_string()));

    // A sweep's comparison or a Monte-Carlo run's banded digests, on
    // stdout or into `--out`, then the cache footer.
    if let Some(report) = &execution.report {
        let text = report.render(cli.format);
        match &cli.out_dir {
            None => emit(text),
            Some(dir) => emit(write_file(&dir.join(report.file_name(cli.format)), &text)),
        }
        emit_footer(&cli, &run.entries, report.cells(), &execution.counts);
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("serve") => serve_main(args.skip(1)),
        Some("client") => client_main(parse_args(Mode::Client, args.skip(1))),
        _ => one_shot_main(parse_args(Mode::OneShot, args)),
    }
}
