//! The `repro serve` daemon: a `std::net::TcpListener` loop speaking the
//! newline-delimited-JSON [`crate::protocol`], version 2.
//!
//! One reader thread per connection, at most `MAX_CONNECTIONS` (64) of them,
//! and one worker pool for the whole daemon; every connection shares one
//! [`Engine`], so artifacts computed for one client are cache hits for
//! every other, and two clients racing on the same fingerprint compute it
//! exactly once (the cache's inflight dedup). A request that fails
//! validation produces one structured `error` line and leaves the
//! connection open — client bugs must not kill the daemon or poison the
//! cache.
//!
//! **Execution.** Every `run`/`batch` executes on the pool. Each
//! connection queues its requests in its own lane, and the workers take
//! one request at a time from the lanes in turn, so a deep pipeline on one
//! connection cannot starve another. An id-tagged request is admitted to
//! its lane, many can be in flight at once, and they complete out of
//! submission order. Every response line echoes the request's id, and all
//! of a connection's lines funnel through one serialized line writer —
//! lines of different requests interleave, but each line is intact and
//! each request's own lines keep their order. A request without an id
//! keeps the v1 contract: the reader queues it and waits for it before
//! reading on, so untagged requests run serially, with no id echo.
//!
//! **Backpressure.** A connection's queued-plus-executing requests are
//! bounded: past the queue depth an id-tagged request is rejected
//! immediately with a structured `overloaded` error carrying an advisory
//! `retry_after_ms`, and past `MAX_CONNECTIONS` a new connection gets
//! one such line and is closed — the daemon never buffers unbounded work
//! or starts unbounded threads, and the client learns in one round trip
//! instead of stalling. The daemon's threads are the accept loop, one
//! reader per connection and the pool's workers, each running at most
//! `max_jobs` threads for its request.
//!
//! **Cancellation.** A write that fails — the client is gone, or has not
//! read for `WRITE_TIMEOUT` — ends the connection's output and raises
//! its runs' cancel flag ([`Engine::execute`]): they stop at their next
//! work unit. Shutdown is cooperative: a `shutdown` request is
//! acknowledged with `{"type":"bye"}`, the accept loop's stop flag is
//! raised, the engine is stopped ([`Engine::stop`]), and a loopback
//! self-connect unblocks `accept` so the listener thread can observe the
//! flag and drain. Every run in flight or still queued ends at its next
//! work unit with one `cancelled` error, so a long run cannot hold the
//! daemon open.

use crate::artifact::{artifact_file_name, write_artifact, Format};
use crate::grid::{GridConfig, GridJob};
use crate::protocol::{
    parse_frame, ProtocolError, Request, RequestId, ResolvedRun, RunRequest, OPS, PROTOCOL_VERSION,
};
use crate::{Engine, EngineError, RunCounts};
use cc_report::JsonValue;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default bound on queued-plus-executing multiplexed requests per
/// connection. Beyond it the daemon answers `overloaded` instead of
/// buffering more work.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// The longest request line the daemon reads, newline included: 1 MiB.
/// A longer line gets one anonymous `malformed-request` error and the
/// connection is closed, so a client that never sends a newline cannot
/// grow the reader's buffer without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The most connections the daemon serves at once, each with its reader
/// thread. A connection past it gets one untagged `overloaded` line and is
/// closed.
const MAX_CONNECTIONS: usize = 64;

/// The longest one response line or flush may take to reach the socket.
/// A client that stops reading fills the socket buffers; past this the
/// write fails like any other write error, so no pool worker waits on one
/// client for longer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The pause after a failed `accept` (e.g. out of file descriptors). The
/// pending connection stays in the backlog, so retrying at once would spin
/// a core until a descriptor frees up.
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// The most workers the daemon's pool holds, whatever `max_jobs` (which
/// bounds *within*-request parallelism) is. Each may start `max_jobs`
/// threads for the request it runs, so this and [`MAX_CONNECTIONS`] bound
/// the daemon's threads.
const MAX_POOL_THREADS: usize = 8;

/// The resident sweep service: a bound listener plus the shared engine.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    max_jobs: usize,
    /// Worker threads of the daemon's pool.
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
/// socket when the connection goes idle ([`LineWriter::flush`]). The first
/// failed write — the client is gone, or a line or flush did not reach
/// the socket within [`WRITE_TIMEOUT`] — raises `failed` and shuts the
/// socket down; the rest of the response stream is dropped, and since
/// `failed` is the cancel flag of every run on the connection, those runs
/// stop at their next work unit.
struct LineWriter {
    writer: Mutex<BufWriter<Socket>>,
    failed: AtomicBool,
}

impl LineWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            writer: Mutex::new(BufWriter::new(Socket(stream, Instant::now()))),
            failed: AtomicBool::new(false),
        }
    }

    fn send(&self, line: &str) {
        self.write(|writer| writeln!(writer, "{line}"));
    }

    /// Pushes buffered response lines to the socket. Called when the
    /// connection goes idle (reader out of pipelined input, no request in
    /// flight) rather than after every line: a depth-N burst wakes the
    /// client once, not once per response line — on a loaded host the
    /// per-line wakeups, not the request processing, dominate serve
    /// latency.
    fn flush(&self) {
        self.write(BufWriter::flush);
    }

    fn write(&self, op: impl FnOnce(&mut BufWriter<Socket>) -> std::io::Result<()>) {
        let mut writer = self.writer.lock().expect("no panics under lock");
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        writer.get_mut().1 = Instant::now() + WRITE_TIMEOUT;
        if op(&mut writer).is_err() {
            self.failed.store(true, Ordering::Relaxed);
            // Later writes, the buffer's last flush on drop included, then
            // fail at once instead of blocking again.
            let _ = writer.get_ref().0.shutdown(Shutdown::Both);
        }
    }
}

/// A connection's socket and the deadline of the [`LineWriter`] call
/// writing to it: a socket write waits at most until the deadline, so a
/// client that reads a trickle cannot stretch one call past
/// [`WRITE_TIMEOUT`].
struct Socket(TcpStream, Instant);

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let left = self.1.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.0.set_write_timeout(Some(left))?;
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
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

    /// An `overloaded` error: `full` says what was full, and the advisory
    /// delay scales with the `in_flight` count it reports.
    fn overloaded(&self, full: &str, in_flight: usize) -> String {
        self.line(
            "error",
            &[
                ("error", JsonValue::from("overloaded")),
                (
                    "message",
                    JsonValue::from(format!("{full}; retry after the advisory delay")),
                ),
                (
                    "retry_after_ms",
                    JsonValue::Integer(retry_after_ms(in_flight)),
                ),
            ],
        )
    }
}

/// One connection's state, shared by its reader and its requests on the
/// pool. The last of them to let go drops the writer, which closes the
/// socket: a connection closes once its reader has left and its lane is
/// empty.
struct Connection {
    writer: LineWriter,
    /// Queued-plus-executing requests.
    in_flight: AtomicUsize,
}

/// One `run` or `batch` request queued on the pool.
struct Job {
    connection: Arc<Connection>,
    /// `None` for an untagged request.
    id: Option<RequestId>,
    work: Work,
    /// An untagged request's reader waits for this signal.
    done: Option<mpsc::Sender<()>>,
}

enum Work {
    Run(RunRequest),
    Batch(Vec<RunRequest>),
}

/// The daemon's worker pool: one lane of queued jobs per connection with
/// work waiting, served in turn — a worker takes the front lane's first
/// job and puts the lane back at the end while it still holds jobs.
#[derive(Default)]
struct Pool {
    lanes: Mutex<Lanes>,
    ready: Condvar,
}

#[derive(Default)]
struct Lanes {
    /// The non-empty lanes in serving order, at most one per connection.
    waiting: VecDeque<VecDeque<Job>>,
    closed: bool,
}

impl Pool {
    /// Queues `job` at the end of its connection's lane.
    fn submit(&self, job: Job) {
        let mut lanes = self.lanes.lock().expect("no panics under lock");
        let same = |lane: &&mut VecDeque<Job>| Arc::ptr_eq(&lane[0].connection, &job.connection);
        match lanes.waiting.iter_mut().find(same) {
            Some(lane) => lane.push_back(job),
            None => lanes.waiting.push_back(VecDeque::from([job])),
        }
        drop(lanes);
        self.ready.notify_one();
    }

    /// Blocks for the next job in turn; `None` once the pool is closed
    /// *and* drained, so admitted work always completes.
    fn next(&self) -> Option<Job> {
        let mut lanes = self.lanes.lock().expect("no panics under lock");
        loop {
            if let Some(mut lane) = lanes.waiting.pop_front() {
                let job = lane.pop_front().expect("waiting lanes are non-empty");
                if !lane.is_empty() {
                    lanes.waiting.push_back(lane);
                }
                return Some(job);
            }
            if lanes.closed {
                return None;
            }
            lanes = self.ready.wait(lanes).expect("no panics under lock");
        }
    }

    fn close(&self) {
        self.lanes.lock().expect("no panics under lock").closed = true;
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
        // Four workers per core the daemon may use (the lesser of
        // `max_jobs` and the hardware parallelism), so the OS shares each
        // core among several requests and a short one need not wait for a
        // long one. On a 2-core host, serve-mixed's p50 was ~40% slower at
        // two workers per core than at four.
        let hardware =
            std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            engine,
            max_jobs,
            pool_threads: (4 * max_jobs.min(hardware)).min(MAX_POOL_THREADS),
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
    /// the calling thread; starts the worker pool and one reader thread
    /// per accepted connection, and joins them all before it returns.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        let pool = Pool::default();
        std::thread::scope(|scope| {
            for _ in 0..self.pool_threads {
                scope.spawn(|| {
                    while let Some(job) = pool.next() {
                        self.run_job(job);
                    }
                });
            }
            let mut readers = Vec::new();
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
                            self.event(&format!(
                                "accept failed ({e}); retrying every {} ms",
                                ACCEPT_RETRY.as_millis()
                            ));
                        }
                        accept_failing = true;
                        std::thread::sleep(ACCEPT_RETRY);
                        continue;
                    }
                };
                accept_failing = false;
                readers.retain(|reader: &std::thread::ScopedJoinHandle<()>| !reader.is_finished());
                let peer = stream
                    .peer_addr()
                    .map_or_else(|_| "an unknown peer".to_string(), |p| p.to_string());
                if readers.len() >= MAX_CONNECTIONS {
                    refuse(stream);
                    self.event(&format!(
                        "connection from {peer} refused: {MAX_CONNECTIONS} connections open"
                    ));
                    continue;
                }
                let (server, pool) = (&self, &pool);
                readers.push(scope.spawn(move || {
                    server.event(&format!("connection from {peer}"));
                    server.handle_connection(pool, stream, &peer, addr);
                    server.event(&format!("connection closed ({peer})"));
                }));
            }
            // With every reader gone nothing more is queued: the workers
            // drain the lanes and exit. A reader's panic is raised once they
            // have (the scope raises those of the readers pruned above).
            let mut panic = None;
            for reader in readers {
                panic = reader.join().err().or(panic);
            }
            pool.close();
            if let Some(panic) = panic {
                std::panic::resume_unwind(panic);
            }
        });
        self.event("shutdown complete");
        Ok(())
    }

    fn event(&self, message: &str) {
        if let Some(log) = self.log.as_deref() {
            log.event(message);
        }
    }

    /// Reads requests off one connection line by line until EOF or
    /// shutdown, queuing `run`/`batch` requests on the pool and answering
    /// everything else itself.
    ///
    /// The socket reads on a short timeout so an idle connection notices
    /// the daemon-wide shutdown flag and drains: `Server::run` joins every
    /// reader, and a client that holds its connection open across a
    /// shutdown must not pin the daemon alive. Partial lines survive a
    /// timeout tick — `read_line` appends to the same buffer on the next
    /// attempt.
    fn handle_connection(&self, pool: &Pool, stream: TcpStream, peer: &str, addr: SocketAddr) {
        let reader = match stream.try_clone() {
            Ok(reader) => reader,
            Err(e) => {
                self.event(&format!(
                    "connection from {peer} dropped: cannot clone its socket ({e})"
                ));
                return;
            }
        };
        // Responses reach the socket as small writes, one per idle point;
        // without TCP_NODELAY, Nagle holds every write after the first until
        // the client ACKs, adding ~40 ms per write.
        let _ = stream.set_nodelay(true);
        let _ = reader.set_read_timeout(Some(Duration::from_millis(200)));
        let connection = Arc::new(Connection {
            writer: LineWriter::new(stream),
            in_flight: AtomicUsize::new(0),
        });
        self.read_loop(pool, &connection, reader, addr);
        // EOF or shutdown: release anything the reader buffered (the
        // terminal `bye` in particular). Requests still queued keep the
        // connection open; the last of them to finish closes it.
        connection.writer.flush();
    }

    fn read_loop(
        &self,
        pool: &Pool,
        connection: &Arc<Connection>,
        reader: TcpStream,
        addr: SocketAddr,
    ) {
        let writer = &connection.writer;
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
                    if self.shutdown.load(Ordering::SeqCst) {
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
                Request::Hello => writer.send(&self.hello_line(&route)),
                Request::Stats => {
                    let line = route.line("stats", &[("stats", self.engine.stats().to_json())]);
                    writer.send(&line);
                }
                Request::Shutdown => {
                    writer.send(&route.line("bye", &[]));
                    self.event("shutdown requested");
                    self.shutdown.store(true, Ordering::SeqCst);
                    // In-flight runs on every connection end with `cancelled`
                    // instead of holding the daemon open until they finish.
                    self.engine.stop();
                    // Unblock the accept loop so it can observe the flag.
                    let _ = TcpStream::connect(addr);
                    return;
                }
                Request::Run(request) => {
                    self.submit(pool, connection, frame.id, Work::Run(request))
                }
                Request::Batch(runs) => self.submit(pool, connection, frame.id, Work::Batch(runs)),
            }
        }
    }

    /// Queues one `run`/`batch` on the connection's lane. A tagged request
    /// past the connection's queue depth is answered `overloaded` at once
    /// instead; an untagged one is always queued.
    fn submit(&self, pool: &Pool, connection: &Arc<Connection>, id: Option<RequestId>, work: Work) {
        let in_flight = connection.in_flight.load(Ordering::Relaxed);
        let (done, finished) = match &id {
            Some(id) if in_flight >= self.queue_depth => {
                let route = Route {
                    id: Some(id),
                    run: None,
                };
                let full = format!("work queue full ({in_flight} requests in flight)");
                connection.writer.send(&route.overloaded(&full, in_flight));
                self.event(&format!(
                    "overloaded: rejected request {id} ({in_flight} in flight, retry in {} ms)",
                    retry_after_ms(in_flight)
                ));
                return;
            }
            Some(_) => (None, None),
            None => {
                let (done, finished) = mpsc::channel();
                (Some(done), Some(finished))
            }
        };
        connection.in_flight.fetch_add(1, Ordering::AcqRel);
        pool.submit(Job {
            connection: Arc::clone(connection),
            id,
            work,
            done,
        });
        // v1's serial order: the reader waits for an untagged request to
        // finish before it reads the next line.
        if let Some(finished) = finished {
            let _ = finished.recv();
        }
    }

    /// Runs one job on a pool worker. The connection's last request in
    /// flight pushes the buffered lines to the client.
    fn run_job(&self, job: Job) {
        let writer = &job.connection.writer;
        match &job.work {
            Work::Run(request) => self.handle_run(
                writer,
                request,
                Route {
                    id: job.id.as_ref(),
                    run: None,
                },
            ),
            Work::Batch(runs) => self.handle_batch(writer, runs, job.id.as_ref()),
        }
        // AcqRel: the finisher that takes the count to zero flushes the
        // lines every other finisher sent before its own decrement.
        if job.connection.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            writer.flush();
        }
        if let Some(done) = &job.done {
            let _ = done.send(());
        }
    }

    /// The `hello` negotiation response: protocol version plus the server's
    /// operational limits, so clients can size their pipelines.
    fn hello_line(&self, route: &Route<'_>) -> String {
        route.line(
            "hello",
            &[
                ("version", JsonValue::Integer(PROTOCOL_VERSION)),
                ("max_jobs", JsonValue::Integer(self.max_jobs as u64)),
                ("queue_depth", JsonValue::Integer(self.queue_depth as u64)),
                (
                    "cache_capacity",
                    JsonValue::Integer(self.engine.cache().capacity() as u64),
                ),
                (
                    "ops",
                    JsonValue::Array(OPS.iter().map(|&op| JsonValue::from(op)).collect()),
                ),
            ],
        )
    }

    /// Validates and executes one `run` request, streaming artifact lines in
    /// grid order, then the report (when sweeping or sampling) and the
    /// terminal `done` line — all tagged with the request's route.
    fn handle_run(&self, writer: &LineWriter, request: &RunRequest, route: Route<'_>) {
        let resolved = match request.resolve_with(Some(self.engine.interner())) {
            Ok(resolved) => resolved,
            Err(error) => {
                writer.send(&route.error(&error));
                return;
            }
        };
        match self.stream(writer, request, &resolved, route) {
            Err(error) => writer.send(&route.error(&error)),
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
                writer.send(&route.line("done", &rest));
            }
        }
    }

    /// Validates every sub-run up front (all-or-nothing), then executes them
    /// in order, tagging each sub-run's lines with its `run` index and
    /// terminating the whole batch with one aggregate `done`.
    fn handle_batch(&self, writer: &LineWriter, runs: &[RunRequest], id: Option<&RequestId>) {
        let route = |index: usize| Route {
            id,
            run: Some(index as u64),
        };
        let mut resolved = Vec::with_capacity(runs.len());
        for (index, run) in runs.iter().enumerate() {
            match run.resolve_with(Some(self.engine.interner())) {
                Ok(r) => resolved.push(r),
                Err(error) => {
                    writer.send(&route(index).error(&error));
                    return;
                }
            }
        }
        let mut counts = Vec::with_capacity(runs.len());
        for (index, (run, res)) in runs.iter().zip(&resolved).enumerate() {
            match self.stream(writer, run, res, route(index)) {
                Ok(run_counts) => counts.push(run_counts),
                Err(error) => {
                    writer.send(&route(index).error(&error));
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
        writer.send(&Route { id, run: None }.line("done", &rest));
    }

    /// Runs one resolved run through [`Engine::execute`], rendering its
    /// artifacts and report as response lines on `route`. The writer's
    /// failure flag is the run's cancel flag. Returns the run's counts for
    /// the caller's `done` line, or the error for its terminal `error`
    /// line.
    fn stream(
        &self,
        writer: &LineWriter,
        request: &RunRequest,
        resolved: &ResolvedRun,
        route: Route<'_>,
    ) -> Result<RunCounts, ProtocolError> {
        let config = GridConfig {
            jobs: request.jobs.unwrap_or(1).min(self.max_jobs),
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
        let execution = self
            .engine
            .execute(resolved, &config, &writer.failed, render, |line| {
                writer.send(&line);
            })
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
}

/// Answers a connection past [`MAX_CONNECTIONS`] with one untagged
/// `overloaded` line; dropping the stream then closes it. The line fits
/// the new socket's empty send buffer, so the write cannot block the
/// accept loop.
fn refuse(mut stream: TcpStream) {
    let full = format!("connection limit reached ({MAX_CONNECTIONS} connections open)");
    let line = Route::default().overloaded(&full, MAX_CONNECTIONS);
    let _ = writeln!(stream, "{line}");
}

/// Advisory client back-off, scaled by how much work was in flight at
/// rejection time: deliberately simple and deterministic (the conformance
/// transcripts pin it for an empty queue).
fn retry_after_ms(in_flight: usize) -> u64 {
    (10 * (in_flight as u64 + 1)).min(1000)
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

        // Two runs far too long to finish, both on the pool: an untagged
        // one on a client that stays connected (its reader waits for it)
        // and a tagged one on a client that disconnects.
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

        // A tagged sweep and a tagged MC run, then an untagged MC run (its
        // reader waits for it), then the write side is shut before the
        // runs finish.
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

        // v1 (untagged) requests skip the depth check and still run.
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

    #[test]
    fn connections_past_the_cap_get_one_overloaded_line_and_eof() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", engine, 2).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());
        let hello = r#"{"op":"hello"}"#;
        let mut open: Vec<_> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let (mut reader, mut stream) = connect(addr);
                request(&mut reader, &mut stream, hello);
                (reader, stream)
            })
            .collect();

        let (refused, _stream) = connect(addr);
        let lines: Vec<String> = refused.lines().map(|l| l.expect("read to EOF")).collect();
        assert_eq!(lines.len(), 1, "{lines:?}");
        let line = JsonValue::parse(&lines[0]).expect("valid JSON");
        assert_eq!(line.get("id"), None);
        assert_eq!(
            line.get("error").and_then(JsonValue::as_str),
            Some("overloaded")
        );
        assert_eq!(
            line.get("retry_after_ms").and_then(JsonValue::as_u64),
            Some(retry_after_ms(MAX_CONNECTIONS))
        );

        // Every connection under the cap is still served.
        let run = r#"{"op":"run","experiments":["fig05"]}"#;
        for (reader, stream) in &mut open {
            let responses = request(reader, stream, run);
            let last = responses.last().expect("a terminal line");
            assert_eq!(last.get("type").and_then(JsonValue::as_str), Some("done"));
        }
        // A closed connection frees its slot once its reader has left.
        open.pop();
        let (mut reader, mut stream) = loop {
            let (mut reader, mut stream) = connect(addr);
            let answer = request(&mut reader, &mut stream, hello);
            if answer[0].get("type").and_then(JsonValue::as_str) == Some("hello") {
                break (reader, stream);
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }

    #[test]
    fn the_pool_serves_connections_in_turn() {
        let engine = Arc::new(Engine::new());
        // `max_jobs` 1: a pool of four workers on any host.
        let server = Server::bind("127.0.0.1:0", engine, 1).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());

        // Connection A pipelines sixteen uncached full-suite sweeps; its
        // reader thread counts their `done` lines.
        const DEPTH: usize = 16;
        let (mut a_reader, mut a_stream) = connect(addr);
        for i in 0..DEPTH {
            writeln!(
                a_stream,
                r#"{{"op":"run","id":{i},"sweep":["grid.intensity=100..500/100"],"no_cache":true}}"#
            )
            .expect("send");
        }
        let mut first = String::new();
        a_reader.read_line(&mut first).expect("A's first line");
        let a_done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&a_done);
        let a = std::thread::spawn(move || {
            for line in a_reader.lines() {
                let line = line.expect("read A");
                let done = line.starts_with(r#"{"type":"done""#);
                if done && counter.fetch_add(1, Ordering::SeqCst) + 1 == DEPTH {
                    return;
                }
            }
        });

        // B's one run takes its turn after at most a job or two of A's,
        // not after A's whole pipeline.
        let (mut b_reader, mut b_stream) = connect(addr);
        let b = request(
            &mut b_reader,
            &mut b_stream,
            r#"{"op":"run","id":"b","experiments":["fig10"],"sweep":["grid.intensity=150,250"],"no_cache":true}"#,
        );
        let a_before_b = a_done.load(Ordering::SeqCst);
        assert_eq!(
            b.last()
                .and_then(|l| l.get("type"))
                .and_then(JsonValue::as_str),
            Some("done")
        );
        assert!(
            a_before_b < 8,
            "{a_before_b} of A's runs finished before B's"
        );

        a.join().expect("A's reader");
        request(&mut b_reader, &mut b_stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }

    #[test]
    fn a_client_that_stops_reading_delays_others_by_at_most_the_write_timeout() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());

        // Tagged full-suite sweeps, about 1.25 MB of responses each, on a
        // connection that never reads. The sweep is computed once first,
        // so they are cache hits: the pool's workers stop only to write,
        // and they block once the socket buffers are full.
        const RUNS: u64 = 12;
        let sweep = r#""sweep":["fleet.growth=1.0..2.0/0.05"]"#;
        let (mut reader, mut stream) = connect(addr);
        request(
            &mut reader,
            &mut stream,
            &format!(r#"{{"op":"run",{sweep}}}"#),
        );
        let (_unread, mut unread) = connect(addr);
        for i in 0..RUNS {
            writeln!(unread, r#"{{"op":"run","id":{i},{sweep}}}"#).expect("send");
        }
        let mut last = (1, std::time::Instant::now());
        loop {
            let requests = engine.stats().requests;
            assert!(requests <= RUNS, "every response fit in the socket buffers");
            if requests != last.0 {
                last = (requests, std::time::Instant::now());
            } else if requests > 1 && last.1.elapsed() > Duration::from_secs(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        let started = std::time::Instant::now();
        let run = request(
            &mut reader,
            &mut stream,
            r#"{"op":"run","id":"b","experiments":["fig05"]}"#,
        );
        let waited = started.elapsed();
        assert_eq!(
            run.last()
                .and_then(|l| l.get("type"))
                .and_then(JsonValue::as_str),
            Some("done")
        );
        assert!(
            waited < WRITE_TIMEOUT + Duration::from_secs(3),
            "another connection's run waited {waited:?}"
        );

        request(&mut reader, &mut stream, r#"{"op":"shutdown"}"#);
        daemon.join().expect("join").expect("clean exit");
    }
}
