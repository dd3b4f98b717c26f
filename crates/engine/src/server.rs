//! The `repro serve` daemon: a `std::net::TcpListener` loop speaking the
//! newline-delimited-JSON [`crate::protocol`], version 2.
//!
//! One reader thread per connection, plus a small per-connection worker
//! pool for multiplexed requests; every connection shares one [`Engine`],
//! so artifacts computed for one client are cache hits for every other,
//! and two clients racing on the same fingerprint compute it exactly once
//! (the cache's inflight dedup). A request that fails validation produces
//! one structured `error` line and leaves the connection open — client
//! bugs must not kill the daemon or poison the cache.
//!
//! **Multiplexing.** An id-tagged `run`/`batch` request is admitted to a
//! bounded per-connection work queue and executed by the pool, so many
//! requests can be in flight at once and complete out of submission
//! order. Every response line echoes the request's id, and all lines
//! funnel through one serialized line writer — lines of different
//! requests interleave, but each line is intact and each request's own
//! lines keep their order. A request without an id keeps the v1
//! contract: the reader executes it inline, serially, with no id echo.
//!
//! **Backpressure.** The work queue bounds queued-plus-executing
//! multiplexed requests. When it is full the request is rejected
//! immediately with a structured `overloaded` error carrying an advisory
//! `retry_after_ms` — the daemon never buffers unbounded work, and the
//! client learns in one round trip instead of stalling.
//!
//! Shutdown is cooperative: a `shutdown` request is acknowledged with
//! `{"type":"bye"}`, the accept loop's stop flag is raised, the engine is
//! stopped ([`Engine::stop`]), and a loopback self-connect unblocks
//! `accept` so the listener thread can observe the flag and drain. Every
//! run in flight or still queued ends at its next work unit with one
//! `cancelled` error, so a long run cannot hold the daemon open.

use crate::artifact::{artifact_file_name, write_artifact, Format};
use crate::grid::{GridConfig, GridJob};
use crate::protocol::{
    parse_frame, ProtocolError, Request, RequestId, ResolvedRun, RunRequest, OPS, PROTOCOL_VERSION,
};
use crate::{Engine, EngineError, RunCounts};
use cc_report::JsonValue;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default bound on queued-plus-executing multiplexed requests per
/// connection. Beyond it the daemon answers `overloaded` instead of
/// buffering more work.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// The longest request line the daemon reads, newline included: 1 MiB.
/// A longer line gets one anonymous `malformed-request` error and the
/// connection is closed, so a client that never sends a newline cannot
/// grow the reader's buffer without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The longest one socket write may block. A client that stops reading
/// fills the socket buffers; past this the write fails and latches like
/// any other write error, so the connection's handler thread cannot block
/// forever and hold the daemon open after `shutdown`.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The pause after a failed `accept` (e.g. out of file descriptors). The
/// pending connection stays in the backlog, so retrying at once would spin
/// a core until a descriptor frees up.
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// Worker threads per connection are capped independently of `max_jobs`
/// (which bounds *within*-request parallelism): the pool exists for
/// out-of-order completion, not throughput, so a handful is plenty.
const MAX_POOL_THREADS: usize = 8;

/// The resident sweep service: a bound listener plus the shared engine.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    max_jobs: usize,
    /// Worker threads per connection with a non-zero queue depth.
    pool_threads: usize,
    queue_depth: usize,
    log: Option<Arc<ServeLog>>,
    shutdown: Arc<AtomicBool>,
}

/// A line-oriented operational log for the daemon: connection lifecycle,
/// overload rejections and shutdown. Defaults to stderr so a daemon never
/// drops files into its working directory; `repro serve --log PATH`
/// redirects it.
pub struct ServeLog {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl ServeLog {
    /// A log writing to the process's stderr.
    #[must_use]
    pub fn to_stderr() -> Self {
        Self {
            sink: Mutex::new(Box::new(std::io::stderr())),
        }
    }

    /// A log appending to `path`.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self {
            sink: Mutex::new(Box::new(file)),
        })
    }

    /// Writes one `serve: `-prefixed event line. Logging failures are
    /// swallowed — an unwritable log must not take the daemon down.
    pub fn event(&self, message: &str) {
        let mut sink = self.sink.lock().expect("no panics under lock");
        let _ = writeln!(sink, "serve: {message}");
        let _ = sink.flush();
    }
}

/// Serialized, buffered writer half of one connection: lines reach the
/// socket when the connection goes idle ([`LineWriter::flush`]). Write
/// failures latch: once the client is gone, or has not read for
/// [`WRITE_TIMEOUT`], the rest of the response stream is dropped silently
/// (the computation still completes and warms the shared cache).
struct LineWriter {
    writer: Mutex<(BufWriter<TcpStream>, bool)>,
}

impl LineWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            writer: Mutex::new((BufWriter::new(stream), false)),
        }
    }

    fn send(&self, line: &str) {
        let mut guard = self.writer.lock().expect("no panics under lock");
        let (writer, failed) = &mut *guard;
        if *failed {
            return;
        }
        if writeln!(writer, "{line}").is_err() {
            *failed = true;
        }
    }

    /// Pushes buffered response lines to the socket. Called when the
    /// connection goes idle (reader out of pipelined input, work queue
    /// drained) rather than after every line: a depth-N burst wakes the
    /// client once, not once per response line — on a loaded host the
    /// per-line wakeups, not the request processing, dominate serve
    /// latency.
    fn flush(&self) {
        let mut guard = self.writer.lock().expect("no panics under lock");
        let (writer, failed) = &mut *guard;
        if *failed {
            return;
        }
        if writer.flush().is_err() {
            *failed = true;
        }
    }
}

/// Routing tag for response lines: the request's echoed id, plus the
/// sub-run index inside a `batch`. Written immediately after `"type"` so
/// v1-style (untagged) responses stay byte-identical to protocol v1.
#[derive(Clone, Copy, Default)]
struct Route<'a> {
    id: Option<&'a RequestId>,
    run: Option<u64>,
}

impl Route<'_> {
    /// Writes a response line straight into a `String`: `{"type":KIND`,
    /// then `id` and `run` when present, then `fields`, every value
    /// through [`JsonValue::write`]. The closing brace is left off.
    fn open(&self, kind: &str, fields: &[(&str, JsonValue)]) -> String {
        let mut line = format!("{{\"type\":\"{kind}\"");
        let mut field = |name: &str, value: &JsonValue| {
            line.push_str(",\"");
            line.push_str(name);
            line.push_str("\":");
            value.write(&mut line);
        };
        if let Some(id) = self.id {
            field("id", &id.to_json());
        }
        if let Some(run) = self.run {
            field("run", &JsonValue::Integer(run));
        }
        for (name, value) in fields {
            field(name, value);
        }
        line
    }

    /// A whole response line: [`Self::open`], closed.
    fn line(&self, kind: &str, fields: &[(&str, JsonValue)]) -> String {
        let mut line = self.open(kind, fields);
        line.push('}');
        line
    }

    /// The `artifact` response line for one grid job: the experiment key,
    /// the file name the CLI would have written, and the job's artifact —
    /// the bytes one-shot `repro --json` prints — copied from `memo` when
    /// the payload's memo holds it, written in place otherwise.
    fn artifact(&self, job: &GridJob<'_>, memo: Option<&str>) -> String {
        let point = job.sweeping.then_some(job.point);
        let name = artifact_file_name(job.entry.key, point, Format::Json);
        let fields = [
            ("key", JsonValue::from(job.entry.key)),
            ("name", JsonValue::from(name)),
        ];
        let mut line = self.open("artifact", &fields);
        line.push_str(",\"artifact\":");
        match memo {
            Some(artifact) => line.push_str(artifact),
            None => write_artifact(&mut line, job),
        }
        line.push('}');
        line
    }

    fn error(&self, error: &ProtocolError) -> String {
        self.line(
            "error",
            &[
                ("error", JsonValue::from(error.category)),
                ("message", JsonValue::from(error.message.as_str())),
            ],
        )
    }
}

/// One admitted multiplexed request.
struct Job {
    id: RequestId,
    work: Work,
}

enum Work {
    Run(RunRequest),
    Batch(Vec<RunRequest>),
}

/// The bounded per-connection work queue: `queued + executing` never
/// exceeds `capacity`, and submissions beyond that fail fast so the
/// reader can answer `overloaded` without blocking.
struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    executing: usize,
    closed: bool,
}

impl WorkQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admits `job`, or reports how many requests were already in flight
    /// when the queue was full.
    fn try_submit(&self, job: Job) -> Result<(), usize> {
        let mut state = self.state.lock().expect("no panics under lock");
        let in_flight = state.jobs.len() + state.executing;
        if in_flight >= self.capacity {
            return Err(in_flight);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained, so admitted work always completes.
    fn next(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("no panics under lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.executing += 1;
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("no panics under lock");
        }
    }

    /// Marks one job done. `true` when the queue went idle (nothing
    /// queued, nothing executing) — the last finisher's signal to flush
    /// buffered response lines to the client.
    fn finish(&self) -> bool {
        let mut state = self.state.lock().expect("no panics under lock");
        state.executing -= 1;
        state.executing == 0 && state.jobs.is_empty()
    }

    fn close(&self) {
        self.state.lock().expect("no panics under lock").closed = true;
        self.ready.notify_all();
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` to let the OS
    /// pick) and wires the shared engine behind it. `max_jobs` caps the
    /// per-request `jobs` field so one client cannot oversubscribe the
    /// host; it is itself clamped to 1..=[`crate::MAX_JOBS`], the most
    /// worker threads a run starts, so `hello` reports the real cap.
    pub fn bind(addr: &str, engine: Arc<Engine>, max_jobs: usize) -> std::io::Result<Self> {
        let max_jobs = crate::workers(max_jobs);
        // Workers beyond the hardware parallelism only add wakeups and
        // context switches, so clamp by it too — with a floor of two, so a
        // long-running job can never head-of-line-block a short one even on
        // a single-core host.
        let hardware =
            std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            engine,
            max_jobs,
            pool_threads: max_jobs.min(MAX_POOL_THREADS).min(hardware.max(2)).max(1),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            log: None,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Caps queued-plus-executing multiplexed requests per connection.
    /// Zero admits nothing: every id-tagged `run`/`batch` is answered
    /// `overloaded` (useful for overload drills and benchmarks).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Attaches an operational log.
    #[must_use]
    pub fn log_to(mut self, log: ServeLog) -> Self {
        self.log = Some(Arc::new(log));
        self
    }

    /// The bound address — callers binding port `0` read the real port
    /// here.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client sends `{"op":"shutdown"}`. Blocks
    /// the calling thread; every accepted connection gets its own handler
    /// thread, all joined before this returns.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        std::thread::scope(|scope| {
            let mut accept_failing = false;
            for stream in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(e) => {
                        // One log line per run of failures, not per retry.
                        if !accept_failing {
                            if let Some(log) = self.log.as_deref() {
                                log.event(&format!(
                                    "accept failed ({e}); retrying every {} ms",
                                    ACCEPT_RETRY.as_millis()
                                ));
                            }
                        }
                        accept_failing = true;
                        std::thread::sleep(ACCEPT_RETRY);
                        continue;
                    }
                };
                accept_failing = false;
                let server = &self;
                scope.spawn(move || {
                    let log = server.log.as_deref();
                    let peer = stream.peer_addr().ok();
                    if let (Some(log), Some(peer)) = (log, peer) {
                        log.event(&format!("connection from {peer}"));
                    }
                    handle_connection(server, stream, addr);
                    if let (Some(log), Some(peer)) = (log, peer) {
                        log.event(&format!("connection closed ({peer})"));
                    }
                });
            }
        });
        if let Some(log) = self.log.as_deref() {
            log.event("shutdown complete");
        }
        Ok(())
    }
}

/// Everything one connection's reader and workers share.
struct Connection<'a> {
    engine: &'a Engine,
    writer: &'a LineWriter,
    max_jobs: usize,
    queue_depth: usize,
    log: Option<&'a ServeLog>,
}

/// Reads requests off one connection line by line until EOF or shutdown,
/// dispatching id-tagged work to the pool and handling everything else
/// inline.
///
/// The socket reads on a short timeout so an idle connection notices the
/// daemon-wide shutdown flag and drains: `Server::run` joins every handler
/// thread, and a client that holds its connection open across a shutdown
/// must not pin the daemon alive. Partial lines survive a timeout tick —
/// `read_line` appends to the same buffer on the next attempt.
fn handle_connection(server: &Server, stream: TcpStream, addr: SocketAddr) {
    let log = server.log.as_deref();
    let reader = match stream.try_clone() {
        Ok(reader) => reader,
        Err(e) => {
            if let Some(log) = log {
                let peer = stream
                    .peer_addr()
                    .map_or_else(|_| "an unknown peer".to_string(), |p| p.to_string());
                log.event(&format!(
                    "connection from {peer} dropped: cannot clone its socket ({e})"
                ));
            }
            return;
        }
    };
    // Responses reach the socket as small writes, one per idle point;
    // without TCP_NODELAY, Nagle holds every write after the first until
    // the client ACKs, adding ~40 ms per write.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = reader.set_read_timeout(Some(Duration::from_millis(200)));
    let writer = LineWriter::new(stream);
    let queue_depth = server.queue_depth;
    let connection = Connection {
        engine: &server.engine,
        writer: &writer,
        max_jobs: server.max_jobs,
        queue_depth,
        log,
    };
    let queue = WorkQueue::new(queue_depth);
    // No queue, no pool: a zero-depth connection rejects all multiplexed
    // work in the reader, so workers would never see a job.
    let pool = if queue_depth == 0 {
        0
    } else {
        server.pool_threads
    };
    std::thread::scope(|scope| {
        for _ in 0..pool {
            scope.spawn(|| {
                while let Some(job) = queue.next() {
                    execute_job(&connection, &job);
                    if queue.finish() {
                        connection.writer.flush();
                    }
                }
            });
        }
        read_loop(&connection, reader, &queue, &server.shutdown, addr);
        // EOF or shutdown: release anything the reader buffered (the
        // terminal `bye` in particular), stop admitting, let the pool
        // drain what was already accepted, then the scope joins the
        // workers.
        connection.writer.flush();
        queue.close();
    });
    // Late worker output (jobs that finished after the reader left but
    // before the queue reported idle) must still reach the client.
    writer.flush();
}

fn read_loop(
    connection: &Connection<'_>,
    reader: TcpStream,
    queue: &WorkQueue,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    let writer = connection.writer;
    let mut reader = BufReader::new(reader);
    let mut buffer = String::new();
    loop {
        // Out of pipelined input: push buffered responses before blocking
        // so a serial client sees its reply immediately, while a burst of
        // buffered requests keeps the cork in and batches its output.
        if !reader.buffer().contains(&b'\n') {
            writer.flush();
        }
        // Read at most one byte past the cap, counting what a timed-out
        // read already left in the buffer, so no line grows it unbounded.
        let room = (MAX_FRAME_BYTES + 1 - buffer.len()) as u64;
        match (&mut reader).take(room).read_line(&mut buffer) {
            Ok(0) => break,
            Ok(_) if buffer.len() > MAX_FRAME_BYTES => {
                let error = ProtocolError::new(
                    "malformed-request",
                    format!("request line exceeds {MAX_FRAME_BYTES} bytes"),
                );
                writer.send(&Route::default().error(&error));
                break;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        // Parse in place and clear — the buffer's allocation is reused for
        // every request line on this connection instead of being handed off
        // (and reallocated) per line.
        if buffer.trim().is_empty() {
            buffer.clear();
            continue;
        }
        let frame = parse_frame(&buffer);
        buffer.clear();
        let frame = match frame {
            Err(rejected) => {
                let route = Route {
                    id: rejected.id.as_ref(),
                    run: None,
                };
                writer.send(&route.error(&rejected.error));
                continue;
            }
            Ok(frame) => frame,
        };
        let route = Route {
            id: frame.id.as_ref(),
            run: None,
        };
        match frame.request {
            Request::Hello => writer.send(&hello_line(connection, &route)),
            Request::Stats => {
                let line = route.line("stats", &[("stats", connection.engine.stats().to_json())]);
                writer.send(&line);
            }
            Request::Shutdown => {
                writer.send(&route.line("bye", &[]));
                if let Some(log) = connection.log {
                    log.event("shutdown requested");
                }
                shutdown.store(true, Ordering::SeqCst);
                // In-flight runs on every connection end with `cancelled`
                // instead of holding the daemon open until they finish.
                connection.engine.stop();
                // Unblock the accept loop so it can observe the flag.
                let _ = TcpStream::connect(addr);
                return;
            }
            Request::Run(request) => match frame.id {
                // v1 contract: no id means serial, inline execution.
                None => handle_run(connection, &request, Route::default()),
                Some(id) => submit(
                    connection,
                    queue,
                    Job {
                        id,
                        work: Work::Run(request),
                    },
                ),
            },
            Request::Batch(runs) => match frame.id {
                None => handle_batch(connection, &runs, None),
                Some(id) => submit(
                    connection,
                    queue,
                    Job {
                        id,
                        work: Work::Batch(runs),
                    },
                ),
            },
        }
    }
}

/// Admits one multiplexed job or answers `overloaded` without blocking.
fn submit(connection: &Connection<'_>, queue: &WorkQueue, job: Job) {
    let id = job.id.clone();
    if let Err(in_flight) = queue.try_submit(job) {
        let retry_after_ms = retry_after_ms(in_flight);
        if let Some(log) = connection.log {
            log.event(&format!(
                "overloaded: rejected request {id} ({in_flight} in flight, retry in {retry_after_ms} ms)"
            ));
        }
        let route = Route {
            id: Some(&id),
            run: None,
        };
        let line = route.line(
            "error",
            &[
                ("error", JsonValue::from("overloaded")),
                (
                    "message",
                    JsonValue::from(format!(
                        "work queue full ({in_flight} requests in flight); retry after the advisory delay"
                    )),
                ),
                ("retry_after_ms", JsonValue::Integer(retry_after_ms)),
            ],
        );
        connection.writer.send(&line);
    }
}

/// Advisory client back-off, scaled by how much work was in flight at
/// rejection time: deliberately simple and deterministic (the conformance
/// transcripts pin it for an empty queue).
fn retry_after_ms(in_flight: usize) -> u64 {
    (10 * (in_flight as u64 + 1)).min(1000)
}

fn execute_job(connection: &Connection<'_>, job: &Job) {
    let route = Route {
        id: Some(&job.id),
        run: None,
    };
    match &job.work {
        Work::Run(request) => handle_run(connection, request, route),
        Work::Batch(runs) => handle_batch(connection, runs, Some(&job.id)),
    }
}

/// The `hello` negotiation response: protocol version plus the server's
/// operational limits, so clients can size their pipelines.
fn hello_line(connection: &Connection<'_>, route: &Route<'_>) -> String {
    route.line(
        "hello",
        &[
            ("version", JsonValue::Integer(PROTOCOL_VERSION)),
            ("max_jobs", JsonValue::Integer(connection.max_jobs as u64)),
            (
                "queue_depth",
                JsonValue::Integer(connection.queue_depth as u64),
            ),
            (
                "cache_capacity",
                JsonValue::Integer(connection.engine.cache().capacity() as u64),
            ),
            (
                "ops",
                JsonValue::Array(OPS.iter().map(|&op| JsonValue::from(op)).collect()),
            ),
        ],
    )
}

/// The `runs` and `cache` fields of a `done` line, summed over the
/// counts of its runs.
fn counted(counts: &[RunCounts]) -> [(&'static str, JsonValue); 2] {
    let sum = |field: fn(&RunCounts) -> u64| JsonValue::Integer(counts.iter().map(field).sum());
    [
        ("runs", sum(|c| c.run_counts.iter().sum::<usize>() as u64)),
        (
            "cache",
            JsonValue::object([
                ("hits", sum(|c| c.hits)),
                ("misses", sum(|c| c.misses)),
                ("inflight_dedups", sum(|c| c.inflight_dedups)),
            ]),
        ),
    ]
}

/// Validates and executes one `run` request, streaming artifact lines in
/// grid order, then the report (when sweeping or sampling) and the
/// terminal `done` line — all tagged with the request's route.
fn handle_run(connection: &Connection<'_>, request: &RunRequest, route: Route<'_>) {
    let resolved = match request.resolve_with(Some(connection.engine.interner())) {
        Ok(resolved) => resolved,
        Err(error) => {
            connection.writer.send(&route.error(&error));
            return;
        }
    };
    match stream(connection, request, &resolved, route) {
        Err(error) => connection.writer.send(&route.error(&error)),
        Ok(counts) => {
            let mut rest: Vec<(&str, JsonValue)> = vec![(
                "experiments",
                JsonValue::Integer(resolved.entries.len() as u64),
            )];
            if let Some(mc) = &resolved.mc {
                rest.push(("samples", JsonValue::Integer(mc.len() as u64)));
                rest.push(("seed", JsonValue::Integer(mc.seed())));
            } else {
                rest.push(("points", JsonValue::Integer(resolved.points.len() as u64)));
            }
            rest.extend(counted(&[counts]));
            connection.writer.send(&route.line("done", &rest));
        }
    }
}

/// Validates every sub-run up front (all-or-nothing), then executes them
/// in order, tagging each sub-run's lines with its `run` index and
/// terminating the whole batch with one aggregate `done`.
fn handle_batch(connection: &Connection<'_>, runs: &[RunRequest], id: Option<&RequestId>) {
    let route = |index: usize| Route {
        id,
        run: Some(index as u64),
    };
    let mut resolved = Vec::with_capacity(runs.len());
    for (index, run) in runs.iter().enumerate() {
        match run.resolve_with(Some(connection.engine.interner())) {
            Ok(r) => resolved.push(r),
            Err(error) => {
                connection.writer.send(&route(index).error(&error));
                return;
            }
        }
    }
    let mut counts = Vec::with_capacity(runs.len());
    for (index, (run, res)) in runs.iter().zip(&resolved).enumerate() {
        match stream(connection, run, res, route(index)) {
            Ok(run_counts) => counts.push(run_counts),
            Err(error) => {
                connection.writer.send(&route(index).error(&error));
                return;
            }
        }
    }
    let experiments = resolved.iter().map(|r| r.entries.len() as u64).sum();
    let mut rest = vec![
        ("batch", JsonValue::Integer(runs.len() as u64)),
        ("experiments", JsonValue::Integer(experiments)),
    ];
    rest.extend(counted(&counts));
    connection
        .writer
        .send(&Route { id, run: None }.line("done", &rest));
}

/// Runs one resolved run through [`Engine::execute`], rendering its
/// artifacts and report as response lines on `route`. Returns the run's
/// counts for the caller's `done` line, or the error for its terminal
/// `error` line.
fn stream(
    connection: &Connection<'_>,
    request: &RunRequest,
    resolved: &ResolvedRun,
    route: Route<'_>,
) -> Result<RunCounts, ProtocolError> {
    let config = GridConfig {
        jobs: request.jobs.unwrap_or(1).min(connection.max_jobs),
        no_cache: request.no_cache,
        format: Format::Json,
    };
    // A non-sweep artifact is a pure function of the interned payload and
    // the entry, so its text is kept in the payload's memo and replayed
    // payloads skip rendering it. Sweep artifacts embed per-point data and
    // `no_cache` promises a fresh pipeline, so both are written in place.
    let render = |job: &GridJob<'_>| {
        let memo = (!job.sweeping && !request.no_cache).then(|| {
            resolved
                .base
                .rendered_artifact(job.entry.key, || job.artifact())
        });
        vec![route.artifact(job, memo.as_deref())]
    };
    let writer = connection.writer;
    let execution = connection
        .engine
        .execute(resolved, &config, render, |line| writer.send(&line))
        .map_err(|error| {
            let category = match error {
                EngineError::Cancelled => "cancelled",
                _ => "invalid-scenario",
            };
            ProtocolError::new(category, error.to_string())
        })?;
    // A Monte-Carlo report is the run's only output line: a
    // million-sample run must not stream a million envelopes.
    if let Some(report) = &execution.report {
        let line = route.line(
            "comparison",
            &[
                ("name", JsonValue::from(report.file_name(Format::Json))),
                ("comparison", report.to_json()),
            ],
        );
        writer.send(&line);
    }
    Ok(execution.counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (reader, stream)
    }

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
            let value = JsonValue::parse(response.trim_end()).expect("responses are valid JSON");
            let kind = value
                .get("type")
                .and_then(JsonValue::as_str)
                .expect("responses carry a type")
                .to_string();
            responses.push(value);
            if matches!(kind.as_str(), "done" | "error" | "stats" | "bye" | "hello") {
                return responses;
            }
        }
    }

    #[test]
    fn serves_runs_stats_and_errors_on_one_connection() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 4).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());
        let (mut reader, mut stream) = connect(addr);

        // Protocol errors are structured responses, not dropped connections.
        let bad = request(&mut reader, &mut stream, "{not json");
        assert_eq!(
            bad[0].get("error").and_then(JsonValue::as_str),
            Some("malformed-request")
        );
        let bad = request(
            &mut reader,
            &mut stream,
            r#"{"op":"run","experiments":["fig99"]}"#,
        );
        assert_eq!(
            bad[0].get("error").and_then(JsonValue::as_str),
            Some("unknown-experiment")
        );
        assert_eq!(engine.stats().misses, 0, "rejected requests never compute");

        // A sweep run streams artifacts, a comparison, then done.
        let run =
            r#"{"op":"run","experiments":["fig05"],"sweep":["grid.intensity=100,300"],"jobs":2}"#;
        let responses = request(&mut reader, &mut stream, run);
        let kinds: Vec<&str> = responses
            .iter()
            .filter_map(|r| r.get("type").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(kinds, ["artifact", "artifact", "comparison", "done"]);
        assert_eq!(
            responses[0].get("name").and_then(JsonValue::as_str),
            Some("fig05@grid.intensity-100.json")
        );
        // v1-style responses never grow an `id` field.
        assert_eq!(responses[0].get("id"), None);
        let done = responses.last().expect("done line");
        // fig05 is scenario-independent: two points, one model run.
        assert_eq!(done.get("runs").and_then(JsonValue::as_u64), Some(1));

        // The identical request is answered from the shared cache, and its
        // payload from the interner.
        let responses = request(&mut reader, &mut stream, run);
        let done = responses.last().expect("done line");
        let cache = done.get("cache").expect("cache summary");
        assert_eq!(cache.get("misses").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(cache.get("hits").and_then(JsonValue::as_u64), Some(1));

        // Stats reflects both served runs, and the interner's reuse.
        let stats = request(&mut reader, &mut stream, r#"{"op":"stats"}"#);
        let stats = stats[0].get("stats").expect("stats payload");
        assert_eq!(stats.get("requests").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(stats.get("entries").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            stats.get("intern_hits").and_then(JsonValue::as_u64),
            Some(1),
            "the repeated payload skipped re-validation"
        );

        // Cooperative shutdown: bye, then the daemon thread drains.
        let bye = request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        assert_eq!(bye[0].get("type").and_then(JsonValue::as_str), Some("bye"));
        daemon
            .join()
            .expect("daemon thread joins")
            .expect("daemon exits cleanly");
    }

    #[test]
    fn serves_monte_carlo_runs_with_banded_digests() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 4).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());
        let (mut reader, mut stream) = connect(addr);

        let run = r#"{"op":"run","experiments":["ext-facility"],
            "dists":["fleet.growth ~ uniform(1.2,1.4)"],"samples":50,"seed":7,"jobs":2}"#
            .replace('\n', " ");
        let responses = request(&mut reader, &mut stream, &run);
        let kinds: Vec<&str> = responses
            .iter()
            .filter_map(|r| r.get("type").and_then(JsonValue::as_str))
            .collect();
        // No per-sample artifact lines: one comparison, then done.
        assert_eq!(kinds, ["comparison", "done"]);
        let comparison = responses[0].get("comparison").expect("payload");
        assert_eq!(
            responses[0].get("name").and_then(JsonValue::as_str),
            Some("mc-comparison.json")
        );
        let digests = comparison
            .get("comparisons")
            .and_then(JsonValue::as_array)
            .expect("digest list");
        assert!(!digests.is_empty());
        let n = digests[0]
            .get("stats")
            .and_then(|s| s.get("n"))
            .and_then(JsonValue::as_u64);
        assert_eq!(n, Some(50));
        let done = responses.last().expect("done line");
        assert_eq!(done.get("samples").and_then(JsonValue::as_u64), Some(50));
        assert_eq!(done.get("seed").and_then(JsonValue::as_u64), Some(7));

        // A sampling error is a structured response, not a dead daemon.
        let bad = request(
            &mut reader,
            &mut stream,
            r#"{"op":"run","experiments":["ext-facility"],"dists":["fab.node_nm ~ normal(3,40)"],"samples":200}"#,
        );
        assert_eq!(
            bad[0].get("error").and_then(JsonValue::as_str),
            Some("invalid-scenario")
        );
        assert_eq!(
            bad[0].get("message").and_then(JsonValue::as_str),
            Some(
                "Monte-Carlo sample 1 of `fab.node_nm ~ normal(3,40)` drew -20.7626882153: \
                 invalid scenario: fab.node_nm must be finite and positive"
            )
        );

        request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }

    #[test]
    fn concurrent_identical_sweeps_compute_each_fingerprint_once() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 4).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());

        let run =
            r#"{"op":"run","experiments":["fig10"],"sweep":["grid.intensity=100,300"],"jobs":2}"#;
        let clients: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let (mut reader, mut stream) = connect(addr);
                    let responses = request(&mut reader, &mut stream, run);
                    let done = responses.last().expect("done line").clone();
                    let cache = done.get("cache").expect("cache summary");
                    (
                        cache.get("hits").and_then(JsonValue::as_u64).unwrap(),
                        cache.get("misses").and_then(JsonValue::as_u64).unwrap(),
                        cache
                            .get("inflight_dedups")
                            .and_then(JsonValue::as_u64)
                            .unwrap(),
                    )
                })
            })
            .collect();
        let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();

        // Two clients × two points raced on two fingerprints: exactly two
        // model runs total, however the hits/dedups split fell.
        let stats = engine.stats();
        assert_eq!(stats.misses, 2, "each fingerprint computed exactly once");
        assert_eq!(stats.hits + stats.inflight_dedups, 2);
        let total: u64 = outcomes.iter().map(|(h, m, d)| h + m + d).sum();
        assert_eq!(total, 4, "every lookup accounted for");

        let (mut reader, mut stream) = connect(addr);
        request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }

    #[test]
    fn hello_reports_version_and_limits() {
        let engine = Arc::new(Engine::with_capacity(32));
        let server = Server::bind("127.0.0.1:0", engine, 4)
            .expect("bind")
            .queue_depth(5);
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());
        let (mut reader, mut stream) = connect(addr);

        let hello = request(&mut reader, &mut stream, r#"{"op":"hello","id":"h"}"#);
        assert_eq!(
            hello[0].get("version").and_then(JsonValue::as_u64),
            Some(PROTOCOL_VERSION)
        );
        assert_eq!(hello[0].get("id").and_then(JsonValue::as_str), Some("h"));
        assert_eq!(
            hello[0].get("max_jobs").and_then(JsonValue::as_u64),
            Some(4)
        );
        assert_eq!(
            hello[0].get("queue_depth").and_then(JsonValue::as_u64),
            Some(5)
        );
        let ops: Vec<&str> = hello[0]
            .get("ops")
            .and_then(JsonValue::as_array)
            .expect("ops list")
            .iter()
            .filter_map(JsonValue::as_str)
            .collect();
        assert_eq!(ops, OPS);

        request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }

    #[test]
    fn the_jobs_cap_is_clamped_to_the_worker_limit() {
        let engine = Arc::new(Engine::with_capacity(32));
        for (asked, cap) in [(0, 1), (4, 4), (100_000, crate::MAX_JOBS)] {
            let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), asked).expect("bind");
            assert_eq!(server.max_jobs, cap, "--jobs {asked}");
        }
    }

    #[test]
    fn pipelined_ids_multiplex_and_pair_responses() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", engine, 4).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());
        let (mut reader, mut stream) = connect(addr);

        // Write a burst of id-tagged requests without reading, then drain:
        // every response line must carry one of our ids, and every id must
        // terminate exactly once.
        const DEPTH: usize = 12;
        for i in 0..DEPTH {
            writeln!(
                stream,
                r#"{{"op":"run","id":{i},"experiments":["fig05"],"jobs":2}}"#
            )
            .expect("send");
        }
        let mut terminated = [0usize; DEPTH];
        let mut lines = 0usize;
        while terminated.iter().sum::<usize>() < DEPTH {
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            let value = JsonValue::parse(response.trim_end()).expect("valid JSON");
            let id = value
                .get("id")
                .and_then(JsonValue::as_u64)
                .expect("every line carries an id") as usize;
            assert!(id < DEPTH);
            lines += 1;
            match value.get("type").and_then(JsonValue::as_str) {
                Some("artifact") => {}
                Some("done") => terminated[id] += 1,
                other => panic!("unexpected response kind {other:?}"),
            }
        }
        assert!(terminated.iter().all(|&t| t == 1), "each id done once");
        assert_eq!(lines, DEPTH * 2, "one artifact + one done per request");

        request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }

    #[test]
    fn batches_validate_atomically_and_aggregate_done() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 4).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());
        let (mut reader, mut stream) = connect(addr);

        // One bad element rejects the whole batch before anything runs.
        let bad = request(
            &mut reader,
            &mut stream,
            r#"{"op":"batch","id":"b0","runs":[{"experiments":["fig05"]},{"experiments":["fig99"]}]}"#,
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(
            bad[0].get("error").and_then(JsonValue::as_str),
            Some("unknown-experiment")
        );
        assert_eq!(bad[0].get("run").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(engine.stats().misses, 0, "nothing ran");

        // A good batch tags artifacts with run indices and aggregates done.
        let responses = request(
            &mut reader,
            &mut stream,
            r#"{"op":"batch","id":"b1","runs":[{"experiments":["fig05"]},{"experiments":["fig10"]}]}"#,
        );
        let kinds: Vec<&str> = responses
            .iter()
            .filter_map(|r| r.get("type").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(kinds, ["artifact", "artifact", "done"]);
        assert_eq!(responses[0].get("run").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(responses[1].get("run").and_then(JsonValue::as_u64), Some(1));
        let done = responses.last().expect("done");
        assert_eq!(done.get("id").and_then(JsonValue::as_str), Some("b1"));
        assert_eq!(done.get("batch").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(done.get("experiments").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(done.get("runs").and_then(JsonValue::as_u64), Some(2));

        request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }

    #[test]
    fn shutdown_cancels_in_flight_runs_and_returns_promptly() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(server.run()));

        // Two runs far too long to finish: an untagged one on a client
        // that stays connected (executed inline by its reader) and a
        // tagged one on a client that disconnects (executed by its pool).
        let long = r#""experiments":["ext-mc"],"dists":["grid.intensity ~ uniform(100,700)"],"samples":100000"#;
        let (mut reader, mut stream) = connect(addr);
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("set timeout");
        writeln!(stream, r#"{{"op":"run",{long}}}"#).expect("send");
        let (_, mut abandoned) = connect(addr);
        writeln!(abandoned, r#"{{"op":"run","id":"gone",{long}}}"#).expect("send");
        while engine.stats().requests < 2 {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        drop(abandoned);

        let (mut control, mut control_stream) = connect(addr);
        let bye = request(&mut control, &mut control_stream, r#"{"op":"shutdown"}"#);
        assert_eq!(bye[0].get("type").and_then(JsonValue::as_str), Some("bye"));

        // The connected client gets exactly one line, `cancelled`, then
        // the daemon closes the connection.
        let mut line = String::new();
        reader.read_line(&mut line).expect("read the cancellation");
        let cancelled = JsonValue::parse(line.trim_end()).expect("valid JSON");
        assert_eq!(
            cancelled.get("error").and_then(JsonValue::as_str),
            Some("cancelled"),
            "{line}"
        );
        assert_eq!(cancelled.get("id"), None, "an untagged run stays untagged");
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("read EOF"), 0, "{line}");

        returned
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("Server::run returns within 10 s of shutdown")
            .expect("daemon exits cleanly");
        assert_eq!(engine.stats().requests, 2);
    }

    #[test]
    fn a_half_closed_client_still_gets_every_line_through_done() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());

        // A tagged sweep and a tagged MC run (both on the pool), then an
        // untagged MC run (inline on the reader), then the write side is
        // shut: EOF reaches the reader before the tagged runs finish.
        let mc = r#""experiments":["ext-facility"],"dists":["fleet.growth ~ uniform(1.2,1.4)"],"seed":7"#;
        let (reader, mut stream) = connect(addr);
        writeln!(
            stream,
            r#"{{"op":"run","id":"s","experiments":["fig10"],"sweep":["grid.intensity=100,300"]}}"#
        )
        .expect("send sweep");
        writeln!(stream, r#"{{"op":"run","id":"m",{mc},"samples":2000}}"#).expect("send mc");
        writeln!(stream, r#"{{"op":"run",{mc},"samples":200}}"#).expect("send mc");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");

        let mut done = Vec::new();
        for line in reader.lines() {
            let line = line.expect("read to EOF");
            let value = JsonValue::parse(&line).expect("valid JSON");
            let kind = value.get("type").and_then(JsonValue::as_str);
            assert_ne!(kind, Some("error"), "{line}");
            if kind == Some("done") {
                let id = value.get("id").and_then(JsonValue::as_str);
                done.push(id.map(str::to_string));
            }
        }
        done.sort();
        assert_eq!(done, [None, Some("m".into()), Some("s".into())]);

        let (mut control, mut control_stream) = connect(addr);
        request(&mut control, &mut control_stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }

    #[test]
    fn a_client_that_stops_reading_cannot_hold_the_daemon_open() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(server.run()));

        // Untagged full-suite sweeps, about 1.25 MB of responses each, on
        // a connection that never reads: far more than the socket buffers
        // hold, so the daemon's writes block.
        const RUNS: u64 = 12;
        let (_unread, mut stream) = connect(addr);
        for _ in 0..RUNS {
            writeln!(
                stream,
                r#"{{"op":"run","sweep":["fleet.growth=1.0..2.0/0.05"]}}"#
            )
            .expect("send");
        }
        // The reader runs untagged requests one at a time; once its count
        // stops moving short of RUNS, it is stuck in a write.
        let mut last = (0, std::time::Instant::now());
        loop {
            let requests = engine.stats().requests;
            assert!(requests < RUNS, "every response fit in the socket buffers");
            if requests != last.0 {
                last = (requests, std::time::Instant::now());
            } else if requests > 1 && last.1.elapsed() > Duration::from_secs(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        let (mut control, mut control_stream) = connect(addr);
        let bye = request(&mut control, &mut control_stream, r#"{"op":"shutdown"}"#);
        assert_eq!(bye[0].get("type").and_then(JsonValue::as_str), Some("bye"));
        returned
            .recv_timeout(WRITE_TIMEOUT + Duration::from_secs(10))
            .expect("Server::run returns within the write timeout of shutdown")
            .expect("daemon exits cleanly");
    }

    #[test]
    fn zero_depth_queue_rejects_with_retry_after() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", engine, 4)
            .expect("bind")
            .queue_depth(0);
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());
        let (mut reader, mut stream) = connect(addr);

        let rejected = request(
            &mut reader,
            &mut stream,
            r#"{"op":"run","id":"r","experiments":["fig05"]}"#,
        );
        assert_eq!(
            rejected[0].get("error").and_then(JsonValue::as_str),
            Some("overloaded")
        );
        assert_eq!(rejected[0].get("id").and_then(JsonValue::as_str), Some("r"));
        assert_eq!(
            rejected[0]
                .get("retry_after_ms")
                .and_then(JsonValue::as_u64),
            Some(10)
        );

        // v1 (un-tagged) requests bypass the queue entirely and still run.
        let ok = request(
            &mut reader,
            &mut stream,
            r#"{"op":"run","experiments":["fig05"]}"#,
        );
        assert_eq!(
            ok.last().unwrap().get("type").and_then(JsonValue::as_str),
            Some("done")
        );

        request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }
}
