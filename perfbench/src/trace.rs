//! A minimal span recorder for the traced replay.
//!
//! Spans are opened around calls into each layer's public functions from
//! the benchmark's own code (nothing inside the program is instrumented).
//! Each span has a name, start, end, parent span and a tag (the sample or
//! request id it belongs to). Self time — the span's duration minus the
//! part its child spans cover — is aggregated per name as spans close, and
//! the first [`RAW_SPAN_CAP`] raw spans are kept in memory and written out
//! when the run ends (a full Monte-Carlo replay closes millions of spans;
//! keeping all of them would cost hundreds of megabytes).
//!
//! The recorder is thread-local: the replay is single-threaded, and the
//! engine's render closures (which must be `Sync`) can open spans without
//! capturing anything.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write as _;
use std::time::Instant;

/// A span name: the layer-stage label plus a sub-label (the experiment key
/// for model compute, empty otherwise).
pub type Name = (&'static str, &'static str);

const RAW_SPAN_CAP: usize = 20_000;

/// The Fx multiply-rotate hash. Aggregates are updated on every span close,
/// and the replay of mc-collapse closes about 6.8M spans per round. There,
/// on a 2-core Xeon, the tracing overhead (`trace.overhead_share`) was
/// +32–44% with this hasher and address keys, +53–59% with address keys and
/// the default SipHash, and +99–104% with a `HashMap` or `BTreeMap` keyed
/// by the name text.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Aggregates keyed by the names' addresses and lengths, which are cheaper
/// to hash and compare than the text. Equal literals may sit at different
/// addresses, so [`take`] merges entries whose text is equal.
type AccMap = HashMap<[usize; 4], (Name, Acc), BuildHasherDefault<FxHasher>>;

fn key(name: Name) -> [usize; 4] {
    [
        name.0.as_ptr() as usize,
        name.0.len(),
        name.1.as_ptr() as usize,
        name.1.len(),
    ]
}

/// Aggregated calls, total and self nanoseconds for one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct Acc {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    parent: u64,
    name: Name,
    tag: u64,
    start: Instant,
    child_ns: u64,
}

struct Record {
    id: u64,
    parent: u64,
    name: Name,
    tag: u64,
    start_ns: u64,
    end_ns: u64,
}

struct State {
    origin: Instant,
    stack: Vec<Open>,
    acc: AccMap,
    raw: Vec<Record>,
    next_id: u64,
    dropped: u64,
    enabled: bool,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        origin: Instant::now(),
        stack: Vec::new(),
        acc: AccMap::default(),
        raw: Vec::new(),
        next_id: 1,
        dropped: 0,
        enabled: true,
    });
}

/// Closes its span when dropped. Not `Send`: spans live on one thread.
pub struct Guard {
    active: bool,
    _thread_bound: std::marker::PhantomData<*const ()>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        STATE.with(|state| {
            let mut state = state.borrow_mut();
            let open = state.stack.pop().expect("guards close in stack order");
            let total = end.duration_since(open.start).as_nanos() as u64;
            if let Some(parent) = state.stack.last_mut() {
                parent.child_ns += total;
            }
            let (_, acc) = state
                .acc
                .entry(key(open.name))
                .or_insert((open.name, Acc::default()));
            acc.calls += 1;
            acc.total_ns += total;
            acc.self_ns += total.saturating_sub(open.child_ns);
            if state.raw.len() < RAW_SPAN_CAP {
                let start_ns = open.start.duration_since(state.origin).as_nanos() as u64;
                state.raw.push(Record {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    tag: open.tag,
                    start_ns,
                    end_ns: start_ns + total,
                });
            } else {
                state.dropped += 1;
            }
        });
    }
}

/// Switches span recording on or off for this thread. While off, spans
/// cost one thread-local check, so the untraced path can run the same code.
pub fn enable(on: bool) {
    STATE.with(|state| state.borrow_mut().enabled = on);
}

/// Opens a span; it closes when the returned guard drops.
pub fn span(name: Name, tag: u64) -> Guard {
    let active = STATE.with(|state| {
        let mut state = state.borrow_mut();
        if !state.enabled {
            return false;
        }
        let id = state.next_id;
        state.next_id += 1;
        let parent = state.stack.last().map_or(0, |open| open.id);
        state.stack.push(Open {
            id,
            parent,
            name,
            tag,
            start: Instant::now(),
            child_ns: 0,
        });
        true
    });
    Guard {
        active,
        _thread_bound: std::marker::PhantomData,
    }
}

/// Runs `f` inside a span.
pub fn timed<T>(name: Name, tag: u64, f: impl FnOnce() -> T) -> T {
    let _guard = span(name, tag);
    f()
}

/// Takes (and resets) the per-name aggregates accumulated so far.
pub fn take() -> HashMap<Name, Acc> {
    let entries = STATE.with(|state| std::mem::take(&mut state.borrow_mut().acc));
    let mut merged: HashMap<Name, Acc> = HashMap::new();
    for (name, acc) in entries.into_values() {
        let slot = merged.entry(name).or_default();
        slot.calls += acc.calls;
        slot.total_ns += acc.total_ns;
        slot.self_ns += acc.self_ns;
    }
    merged
}

/// Writes the retained raw spans as JSON lines; returns `(written, dropped)`.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<(usize, u64)> {
    STATE.with(|state| {
        let state = state.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &state.raw {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"sub\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.id, r.parent, r.name.0, r.name.1, r.tag, r.start_ns, r.end_ns
            )?;
        }
        out.flush()?;
        Ok((state.raw.len(), state.dropped))
    })
}
