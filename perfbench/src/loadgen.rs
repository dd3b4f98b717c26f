//! The `serve-mixed` load generator: drives a running `repro serve` daemon
//! over loopback with the seeded request mix of [`crate::mix`].
//!
//! [`mix::CONNS`] connections (one per core of the two-core host), each
//! running two phases on a fresh connection:
//!
//! * **open loop** — Poisson arrivals at `rate / CONNS` per connection,
//!   regardless of completions up to [`WINDOW`] outstanding requests.
//!   Latency counts from each request's *due*
//!   time, so a stall charges every request queued behind it; how late the
//!   generator itself sent is reported separately as lag. Each connection
//!   has a sender thread (sleeps until shortly before the due time, then
//!   spins) and a receiver thread blocked in `read`, which timestamps
//!   responses as they arrive. The standard library has no `poll`, and a
//!   socket read timeout is rounded up to a kernel tick (milliseconds), so
//!   one thread cannot both wait for the next due time and for responses
//!   precisely.
//! * **closed loop** — [`INFLIGHT`] requests outstanding per connection, on
//!   one thread; each completion sends the next. Reports completions per
//!   second.
//!
//! The first `skip_secs` of each phase run but are not recorded, so the
//! daemon's caches are in their steady state when measuring starts.
//!
//! A request succeeds when its terminal line is `done`; an `error` line
//! (including `overloaded`) or no terminal line within the drain timeout is
//! a failure. [`SAMPLES_PER_CLASS`] requests per class on the first
//! connection are sampled:
//! their artifact payloads are written to disk, with the equivalent one-shot
//! `repro` arguments, so the caller can diff them against one-shot output.

use crate::mix::{self, Class, Request, Stream};
use cc_report::JsonValue;
use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

pub struct Config {
    pub addr: String,
    pub seed: u64,
    /// Open-loop arrivals per second, summed over connections.
    pub rate: f64,
    pub open_secs: f64,
    pub closed_secs: f64,
    /// Leading part of each phase that runs but is not recorded, so the
    /// daemon's caches reach their steady state first.
    pub skip_secs: f64,
    /// Where sampled payloads are saved.
    pub sample_dir: PathBuf,
}

/// Requests outstanding per connection in the closed loop.
const INFLIGHT: usize = 8;
/// Most requests an open-loop connection keeps outstanding: half the
/// daemon's default queue depth. After a stall of the host (either side),
/// the requests that fell due meanwhile wait here, charged as latency from
/// their due time and as lag, instead of arriving as one burst that the
/// daemon rejects `overloaded`. The daemon counts a request in flight
/// until its worker finishes, at most a worker per core after the client
/// saw `done`, so the margin is ample.
const WINDOW: usize = cc_engine::server::DEFAULT_QUEUE_DEPTH / 2;
/// Requests per class whose payloads are saved for the one-shot diff.
const SAMPLES_PER_CLASS: usize = 2;

/// A sender wakes this long before a due time and spins the rest: a
/// sleep overshoots by the kernel's timer slack.
const SPIN: Duration = Duration::from_micros(100);
/// How long a phase waits for outstanding requests after it stops sending.
const DRAIN: Duration = Duration::from_secs(10);

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Splits a byte stream into newline-terminated lines.
#[derive(Default)]
struct Lines {
    buf: Vec<u8>,
    start: usize,
    scan: usize,
}

impl Lines {
    /// Pops the next complete line (without its newline).
    fn next_line(&mut self) -> Option<Vec<u8>> {
        let from = self.scan.max(self.start);
        match self.buf[from..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let end = from + pos;
                let line = self.buf[self.start..end].to_vec();
                self.start = end + 1;
                self.scan = self.start;
                Some(line)
            }
            None => {
                self.buf.drain(..self.start);
                self.start = 0;
                self.scan = self.buf.len();
                None
            }
        }
    }
}

/// Reads response lines until EOF, or until `on_line` returns `false`;
/// `on_line` gets each line and the time its bytes arrived. A read that
/// times out calls `on_idle`, which may end the loop too.
fn read_lines(
    stream: &mut TcpStream,
    mut on_line: impl FnMut(&[u8], Instant) -> io::Result<bool>,
    mut on_idle: impl FnMut() -> bool,
) -> io::Result<()> {
    let mut lines = Lines::default();
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if on_idle() {
                    continue;
                }
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let now = Instant::now();
        lines.buf.extend_from_slice(&chunk[..n]);
        while let Some(line) = lines.next_line() {
            if !on_line(&line, now)? {
                return Ok(());
            }
        }
    }
}

fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The `"type"` of a response line: the daemon renders it first.
fn response_type(line: &[u8]) -> &[u8] {
    let rest = line.strip_prefix(b"{\"type\":\"").unwrap_or(b"");
    let end = rest.iter().position(|&b| b == b'"').unwrap_or(0);
    &rest[..end]
}

/// The numeric `"id"` of a response line: the daemon renders it right
/// after the type.
fn response_id(line: &[u8]) -> Option<u64> {
    let head = &line[..line.len().min(64)];
    let at = head.windows(6).position(|w| w == b",\"id\":")? + 6;
    let digits: &[u8] = &head[at..];
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

struct Pending {
    due: Instant,
    /// Whether the request falls in the recorded part of its phase.
    record: bool,
    class: Class,
    sample: Option<PathBuf>,
    bytes: u64,
}

/// What one phase observed, summed over connections.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    pub done: u64,
    pub failed: u64,
    pub overloaded: u64,
    /// Completions inside the phase's recorded window.
    pub in_window: u64,
    pub latency_ms: Vec<f64>,
    pub class_latency_ms: [Vec<f64>; 4],
    pub lag_ms: Vec<f64>,
    pub response_bytes: u64,
    /// Recorded completions, the base of `response_bytes`.
    pub responses: u64,
    pub write_errors: Vec<String>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.done += other.done;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
        self.in_window += other.in_window;
        self.latency_ms.extend(other.latency_ms);
        for (mine, theirs) in self.class_latency_ms.iter_mut().zip(other.class_latency_ms) {
            mine.extend(theirs);
        }
        self.lag_ms.extend(other.lag_ms);
        self.response_bytes += other.response_bytes;
        self.responses += other.responses;
        self.write_errors.extend(other.write_errors);
    }

    /// Handles one response line; completions inside `window` count as
    /// in-window. Returns whether the line ended its request.
    fn handle(
        &mut self,
        line: &[u8],
        now: Instant,
        window: (Instant, Instant),
        pending: &mut HashMap<u64, Pending>,
    ) -> bool {
        let Some(id) = response_id(line) else {
            self.failed += 1;
            return false;
        };
        let Some(request) = pending.get_mut(&id) else {
            self.failed += 1;
            return false;
        };
        request.bytes += line.len() as u64 + 1;
        match response_type(line) {
            b"artifact" | b"comparison" => {
                if let Some(dir) = &request.sample {
                    if let Err(e) = save_payload(line, dir) {
                        self.write_errors.push(e);
                    }
                }
                false
            }
            b"done" => {
                let request = pending.remove(&id).expect("looked up above");
                self.done += 1;
                if request.record {
                    let ms = now.duration_since(request.due).as_secs_f64() * 1e3;
                    self.latency_ms.push(ms);
                    self.class_latency_ms[request.class.index()].push(ms);
                    self.response_bytes += request.bytes;
                    self.responses += 1;
                }
                if window.0 <= now && now <= window.1 {
                    self.in_window += 1;
                }
                true
            }
            b"error" => {
                pending.remove(&id);
                self.failed += 1;
                let head = &line[..line.len().min(96)];
                if head.windows(12).any(|w| w == b"\"overloaded\"") {
                    self.overloaded += 1;
                }
                true
            }
            _ => false,
        }
    }
}

/// Writes a sampled artifact or comparison payload exactly as `repro
/// client --out` would: the payload re-rendered, under the response's name.
fn save_payload(line: &[u8], dir: &std::path::Path) -> Result<(), String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    let value = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let name = value
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("response without a name")?;
    let payload = value
        .get("artifact")
        .or_else(|| value.get("comparison"))
        .ok_or("response without a payload")?;
    std::fs::write(dir.join(name), payload.render()).map_err(|e| e.to_string())
}

/// Picks the sampled requests: the first few of each class on connection 0.
struct Sampler {
    dir: Option<PathBuf>,
    taken: [usize; 4],
    records: Vec<JsonValue>,
}

impl Sampler {
    fn take(&mut self, request: &Request, id: u64) -> io::Result<Option<PathBuf>> {
        let Some(root) = &self.dir else {
            return Ok(None);
        };
        let slot = &mut self.taken[request.class.index()];
        if *slot >= SAMPLES_PER_CLASS {
            return Ok(None);
        }
        *slot += 1;
        let dir = root.join(id.to_string());
        std::fs::create_dir_all(&dir)?;
        self.records.push(JsonValue::object([
            ("id", JsonValue::Integer(id)),
            ("class", JsonValue::from(request.class.name())),
            ("dir", JsonValue::from(dir.display().to_string())),
            (
                "argv",
                JsonValue::array(request.argv.iter().map(|a| JsonValue::from(a.as_str()))),
            ),
        ]));
        Ok(Some(dir))
    }
}

/// Fails every request still outstanding after the drain timeout.
fn abandon(phase: &mut Phase, pending: &mut HashMap<u64, Pending>) {
    phase.failed += pending.len() as u64;
    pending.clear();
}

struct Client<'a> {
    addr: &'a str,
    stream: Stream,
    keys: &'a [&'static str],
    next_id: u64,
}

impl Client<'_> {
    fn next(&mut self) -> (u64, Request) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.stream.take(self.keys))
    }

    /// Open loop on a fresh connection: this thread sends on schedule, a
    /// second one receives.
    fn open_loop(&mut self, secs: f64, skip: f64, sampler: &mut Sampler) -> io::Result<Phase> {
        let mut writer = connect(self.addr)?;
        let mut reader = writer.try_clone()?;
        let pending: Mutex<HashMap<u64, Pending>> = Mutex::new(HashMap::new());
        let start = Instant::now();
        let recorded = start + Duration::from_secs_f64(skip);
        let end = start + Duration::from_secs_f64(secs);
        let far = end + DRAIN;
        std::thread::scope(|scope| {
            let receiver = scope.spawn(|| {
                let mut phase = Phase::default();
                let read = read_lines(
                    &mut reader,
                    |line, now| {
                        let mut pending = pending.lock().expect("no panics under lock");
                        phase.handle(line, now, (recorded, far), &mut pending);
                        Ok(true)
                    },
                    || true,
                );
                read.map(|()| phase)
            });
            let (mut sent, mut lag_ms) = (0u64, Vec::new());
            let send = (|| -> io::Result<()> {
                loop {
                    let due = start + Duration::from_secs_f64(self.stream.next_due());
                    if due >= end {
                        return Ok(());
                    }
                    sleep_until(due);
                    while pending.lock().expect("no panics under lock").len() >= WINDOW {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    let now = Instant::now();
                    let (id, request) = self.next();
                    let sample = sampler.take(&request, id)?;
                    pending.lock().expect("no panics under lock").insert(
                        id,
                        Pending {
                            due,
                            record: due >= recorded,
                            class: request.class,
                            sample,
                            bytes: 0,
                        },
                    );
                    writer.write_all(request.line(id).as_bytes())?;
                    sent += 1;
                    if due >= recorded {
                        lag_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                    }
                }
            })();
            while Instant::now() < far && !pending.lock().expect("no panics under lock").is_empty()
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            // End of input: the daemon drains what it accepted, then closes.
            let _ = writer.shutdown(std::net::Shutdown::Both);
            let mut phase = receiver.join().expect("receiver thread panicked")?;
            send?;
            abandon(
                &mut phase,
                &mut pending.lock().expect("no panics under lock"),
            );
            phase.sent = sent;
            phase.lag_ms = lag_ms;
            Ok(phase)
        })
    }

    /// Closed loop on a fresh connection, on this thread: [`INFLIGHT`]
    /// outstanding requests, each completion sending the next.
    fn closed_loop(&mut self, secs: f64, skip: f64) -> io::Result<Phase> {
        let mut stream = connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let mut writer = stream.try_clone()?;
        let mut phase = Phase::default();
        let mut pending = HashMap::new();
        let start = Instant::now();
        let recorded = start + Duration::from_secs_f64(skip);
        let end = start + Duration::from_secs_f64(secs);
        let mut send = |pending: &mut HashMap<u64, Pending>, phase: &mut Phase| {
            let now = Instant::now();
            let (id, request) = self.next();
            pending.insert(
                id,
                Pending {
                    due: now,
                    record: now >= recorded,
                    class: request.class,
                    sample: None,
                    bytes: 0,
                },
            );
            phase.sent += 1;
            writer.write_all(request.line(id).as_bytes())
        };
        for _ in 0..INFLIGHT {
            send(&mut pending, &mut phase)?;
        }
        let pending = std::cell::RefCell::new(pending);
        let phase = std::cell::RefCell::new(phase);
        read_lines(
            &mut stream,
            |line, now| {
                let mut pending = pending.borrow_mut();
                let mut phase = phase.borrow_mut();
                if phase.handle(line, now, (recorded, end), &mut pending) && Instant::now() < end {
                    send(&mut pending, &mut phase)?;
                }
                Ok(!pending.is_empty())
            },
            || Instant::now() < end + DRAIN,
        )?;
        let mut phase = phase.into_inner();
        abandon(&mut phase, &mut pending.into_inner());
        Ok(phase)
    }

    /// Sends `requests` one at a time, each after the previous completed.
    fn serial(&mut self, requests: &[Request]) -> io::Result<Phase> {
        let mut stream = connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let mut writer = stream.try_clone()?;
        let far = Instant::now() + DRAIN * 100;
        let mut phase = Phase::default();
        let mut pending = HashMap::new();
        for request in requests {
            let id = self.next_id;
            self.next_id += 1;
            let sent = Instant::now();
            pending.insert(
                id,
                Pending {
                    due: sent,
                    record: true,
                    class: request.class,
                    sample: None,
                    bytes: 0,
                },
            );
            writer.write_all(request.line(id).as_bytes())?;
            phase.sent += 1;
            read_lines(
                &mut stream,
                |line, now| {
                    phase.handle(line, now, (sent, far), &mut pending);
                    Ok(!pending.is_empty())
                },
                || sent.elapsed() < DRAIN,
            )?;
            abandon(&mut phase, &mut pending);
        }
        Ok(phase)
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted values;
/// `0.0` for an empty set.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn phase_json(phase: &Phase, secs: f64) -> JsonValue {
    let number = |key: &str, value: f64| (key.to_string(), JsonValue::Number(value));
    let mut fields = vec![
        ("sent".to_string(), JsonValue::Integer(phase.sent)),
        ("done".to_string(), JsonValue::Integer(phase.done)),
        ("failed".to_string(), JsonValue::Integer(phase.failed)),
        (
            "overloaded".to_string(),
            JsonValue::Integer(phase.overloaded),
        ),
        number("p50_ms", percentile(&phase.latency_ms, 0.5)),
        number("p99_ms", percentile(&phase.latency_ms, 0.99)),
        number("lag_p99_ms", percentile(&phase.lag_ms, 0.99)),
        number("rps", phase.in_window as f64 / secs),
        number(
            "bytes_per_response",
            phase.response_bytes as f64 / phase.responses.max(1) as f64,
        ),
        (
            "write_errors".to_string(),
            JsonValue::array(
                phase
                    .write_errors
                    .iter()
                    .map(|e| JsonValue::from(e.as_str())),
            ),
        ),
    ];
    for class in Class::ALL {
        let latencies = &phase.class_latency_ms[class.index()];
        fields.push(number(
            &format!("{}_p50_ms", class.name()),
            percentile(latencies, 0.5),
        ));
        fields.push((
            format!("{}_n", class.name()),
            JsonValue::Integer(latencies.len() as u64),
        ));
    }
    JsonValue::object(fields)
}

/// Runs both phases on [`mix::CONNS`] connections and summarizes them as
/// JSON.
pub fn run(cfg: &Config) -> io::Result<JsonValue> {
    let keys = mix::keys();
    let barrier = Barrier::new(mix::CONNS);
    type ConnResult = io::Result<(Phase, Phase, Vec<JsonValue>)>;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mix::CONNS)
            .map(|c| {
                let (keys, barrier) = (&keys, &barrier);
                scope.spawn(move || -> ConnResult {
                    let mut client = Client {
                        addr: &cfg.addr,
                        stream: Stream::new(cfg.seed, c, cfg.rate / mix::CONNS as f64),
                        keys,
                        next_id: (c as u64) << 40,
                    };
                    let mut sampler = Sampler {
                        dir: (c == 0).then(|| cfg.sample_dir.clone()),
                        taken: [0; 4],
                        records: Vec::new(),
                    };
                    barrier.wait();
                    let open = client.open_loop(cfg.open_secs, cfg.skip_secs, &mut sampler);
                    barrier.wait();
                    let closed = client.closed_loop(cfg.closed_secs, cfg.skip_secs)?;
                    Ok((open?, closed, sampler.records))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let (mut open, mut closed, mut samples) = (Phase::default(), Phase::default(), Vec::new());
    for result in results {
        let (o, c, s) = result?;
        open.merge(o);
        closed.merge(c);
        samples.extend(s);
    }
    Ok(JsonValue::object([
        ("open", phase_json(&open, cfg.open_secs - cfg.skip_secs)),
        (
            "closed",
            phase_json(&closed, cfg.closed_secs - cfg.skip_secs),
        ),
        ("samples", JsonValue::Array(samples)),
    ]))
}

/// Sends the warm-up requests serially on one connection.
pub fn warmup(addr: &str) -> io::Result<JsonValue> {
    let keys = mix::keys();
    let mut client = Client {
        addr,
        stream: Stream::new(0, 0, 1.0),
        keys: &keys,
        next_id: 1,
    };
    let phase = client.serial(&mix::warmup(&keys))?;
    Ok(JsonValue::object([
        ("sent", JsonValue::Integer(phase.sent)),
        ("done", JsonValue::Integer(phase.done)),
        ("failed", JsonValue::Integer(phase.failed)),
    ]))
}
