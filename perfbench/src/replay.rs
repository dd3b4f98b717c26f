//! The traced run: replays one workload in process, on the workload's own
//! inputs, with a span around every call into a layer's public functions.
//!
//! Each *round* times the untraced path first, then the traced replay of
//! the same work, and checks the replay's output bytes against the
//! reference the caller made with the real `repro` binary. Rounds repeat
//! until the time budget is spent; every metric is the median over rounds.
//!
//! * `grid` (suite-sweep): one cold pass (fresh cache dir) and one warm pass
//!   (same dir). Untraced: `Engine::run_grid` with a render closure that
//!   writes files, as `repro` does. Traced: the same pipeline spelled out —
//!   dedup groups, fingerprint, cache, disk load/store, model run, render,
//!   file write — mirroring `run_grid`'s per-group body.
//! * `mc` (mc-model, mc-collapse): one Monte-Carlo run. Untraced:
//!   `Engine::run_mc` at one job. Traced: the sample cursor, draw, context,
//!   fingerprint, cache, model run, the ordered collector and accumulation
//!   per sample, mirroring `run_mc`'s per-sample body.
//! * `serve` (serve-mixed): the request lines the load generator sends,
//!   through frame parsing, interned resolution, the grid or Monte-Carlo
//!   driver and response rendering, as the daemon's handler does. Untraced
//!   and traced rounds run the same code with spans switched off and on.
//!
//! Every replay is single-threaded, so self times sum to wall time.

use crate::mix::{self, Stream};
use crate::trace::{self, Acc, Name};
use cc_analysis::stats::StreamingStats;
use cc_core::experiments::{self, Entry, Tag};
use cc_engine::artifact::{
    artifact_file_name, artifact_json, comparison_json, mc_comparison_json, render_artifact,
    render_comparisons, render_mc_comparisons,
};
use cc_engine::grid::{build_comparisons, build_groups};
use cc_engine::protocol::{parse_frame, Request};
use cc_engine::{DiskCache, Engine, EngineStats, Format, GridConfig, GridJob, McConfig};
use cc_report::{
    DistBinding, JsonValue, McComparison, MonteCarloMatrix, RunContext, Scalar, Scenario,
    ScenarioMatrix, ScenarioPoint, SweepSpec,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

type Tree = BTreeMap<String, Vec<u8>>;
pub type Metrics = BTreeMap<String, f64>;

const ROOT: Name = ("replay", "");

/// What one round measured.
struct Round {
    acc: HashMap<Name, Acc>,
    untraced_ns: u64,
    /// Counts and counters read off the engine and the replay.
    counts: Metrics,
}

/// The traced run's result: median metrics, the layer table, and how many
/// outputs were checked and how many failed.
pub struct Report {
    pub metrics: Metrics,
    pub layers: Vec<(String, f64, f64)>,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The registry entries matching `tags` (all of them when empty).
pub fn select(tags: &[String]) -> Result<Vec<&'static Entry>, String> {
    let tags: Vec<Tag> = tags
        .iter()
        .map(|t| Tag::parse(t).ok_or_else(|| format!("unknown tag `{t}`")))
        .collect::<Result<_, _>>()?;
    Ok(experiments::with_tags(&tags))
}

/// The layer (module) each span name is charged to.
fn layer_of(name: Name) -> &'static str {
    match name.0 {
        "scenario.resolve" | "context.materialize" => "report::scenario",
        "sweep.expand" => "report::scenario::sweep",
        "mc.draw" => "report::scenario::mc",
        "deps.fingerprint" | "deps.dedup" => "report::scenario::deps",
        "compute" | "core.build" => "core::experiments",
        "cache.lookup" => "engine::cache",
        "disk.open" | "disk.load" | "disk.store" => "engine::persist",
        "engine.grid" => "engine::grid",
        "engine.mc" => "engine::mc",
        "mc.accumulate" => "analysis::stats",
        "render.artifact" | "render.comparison" => "engine::artifact",
        "protocol.parse" => "engine::protocol",
        "intern.resolve" => "engine::intern",
        "io.write" => "repro front-end (file writes)",
        _ => "(replay glue and span bookkeeping)",
    }
}

fn get(acc: &HashMap<Name, Acc>, stage: &'static str) -> Acc {
    acc.get(&(stage, "")).copied().unwrap_or_default()
}

/// Mean self time per call, in `unit_ns` units (1e3 for µs, 1 for ns).
fn per_call(acc: &HashMap<Name, Acc>, stage: &'static str, unit_ns: f64) -> f64 {
    let a = get(acc, stage);
    if a.calls == 0 {
        0.0
    } else {
        a.self_ns as f64 / a.calls as f64 / unit_ns
    }
}

/// Derives one round's per-layer metrics from its spans and counters.
fn round_metrics(round: &Round) -> Metrics {
    let acc = &round.acc;
    let mut m = round.counts.clone();
    let traced_ns = get(acc, ROOT.0).total_ns;
    let resolve = if get(acc, "intern.resolve").calls > 0 {
        "intern.resolve"
    } else {
        "scenario.resolve"
    };
    m.insert("scenario.resolve_us".into(), per_call(acc, resolve, 1e3));
    for (metric, stage) in [
        ("sweep.expand_us", "sweep.expand"),
        ("deps.dedup_us", "deps.dedup"),
        ("mc.draw_us", "mc.draw"),
        ("context.materialize_us", "context.materialize"),
        ("disk.load_us", "disk.load"),
        ("disk.store_us", "disk.store"),
        ("render.artifact_us", "render.artifact"),
        ("render.comparison_us", "render.comparison"),
        ("io.write_us", "io.write"),
        ("protocol.parse_us", "protocol.parse"),
    ] {
        m.insert(metric.into(), per_call(acc, stage, 1e3));
    }
    m.insert(
        "deps.fingerprint_ns".into(),
        per_call(acc, "deps.fingerprint", 1.0),
    );
    m.insert(
        "deps.fingerprints".into(),
        get(acc, "deps.fingerprint").calls as f64,
    );
    m.insert(
        "render.artifacts".into(),
        get(acc, "render.artifact").calls as f64,
    );
    m.insert("io.files".into(), get(acc, "io.write").calls as f64);
    let pushes = m.remove("mc.pushes").unwrap_or(0.0);
    let accumulate = get(acc, "mc.accumulate").self_ns as f64;
    m.insert(
        "mc.accumulate_ns".into(),
        if pushes > 0.0 {
            accumulate / pushes
        } else {
            0.0
        },
    );

    let (mut runs, mut compute_ns) = (0u64, 0u64);
    for (name, a) in acc {
        if name.0 == "compute" {
            runs += a.calls;
            compute_ns += a.self_ns;
            m.insert(
                format!("compute.{}_us", name.1),
                a.self_ns as f64 / a.calls as f64 / 1e3,
            );
        }
    }
    m.insert("compute.runs".into(), runs as f64);
    m.insert("compute.self_ms".into(), ms(compute_ns));
    let share = |ns: u64| {
        if traced_ns == 0 {
            0.0
        } else {
            ns as f64 / traced_ns as f64
        }
    };
    m.insert("compute.share".into(), share(compute_ns));

    let layer_ns: u64 = acc
        .iter()
        .filter(|(name, _)| **name != ROOT)
        .map(|(_, a)| a.self_ns)
        .sum();
    let untraced_ns = round.untraced_ns.max(1) as f64;
    m.insert("trace.layer_sum_ms".into(), ms(layer_ns));
    m.insert("trace.traced_ms".into(), ms(traced_ns));
    m.insert("trace.untraced_ms".into(), ms(round.untraced_ns));
    m.insert(
        "trace.remainder_share".into(),
        1.0 - layer_ns as f64 / untraced_ns,
    );
    m.insert(
        "trace.overhead_share".into(),
        traced_ns as f64 / untraced_ns - 1.0,
    );
    m
}

/// Self time per layer: `(layer, self ms, share of traced time)`.
fn layer_table(acc: &HashMap<Name, Acc>) -> Vec<(String, f64, f64)> {
    let traced_ns = get(acc, ROOT.0).total_ns.max(1) as f64;
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, a) in acc {
        *by_layer.entry(layer_of(*name)).or_default() += a.self_ns;
    }
    let mut rows: Vec<(String, f64, f64)> = by_layer
        .into_iter()
        .map(|(layer, ns)| (layer.to_string(), ms(ns), ns as f64 / traced_ns))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Repeats `round` until `seconds` are spent (at least once) and reduces
/// the rounds to median metrics; the layer table is the median round's.
fn drive(
    seconds: f64,
    mut round: impl FnMut(usize, &mut Checks) -> Result<Round, String>,
) -> Result<Report, String> {
    let mut checks = Checks::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < budget {
        trace::take();
        rounds.push(round(rounds.len(), &mut checks)?);
    }
    let per_round: Vec<Metrics> = rounds.iter().map(round_metrics).collect();
    let mut keys = BTreeSet::new();
    for m in &per_round {
        keys.extend(m.keys().cloned());
    }
    let metrics: Metrics = keys
        .into_iter()
        .map(|k| {
            let values = per_round
                .iter()
                .map(|m| m.get(&k).copied().unwrap_or(0.0))
                .collect();
            (k, median(values))
        })
        .collect();
    let traced = |r: &Round| get(&r.acc, ROOT.0).total_ns;
    let mut order: Vec<&Round> = rounds.iter().collect();
    order.sort_by_key(|r| traced(r));
    let layers = layer_table(&order[order.len() / 2].acc);
    Ok(Report {
        metrics,
        layers,
        rounds: rounds.len(),
        attempted: checks.attempted,
        failed: checks.failed,
        errors: checks.errors,
    })
}

fn engine_counts(m: &mut Metrics, before: EngineStats, after: EngineStats) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let dedups = after.inflight_dedups - before.inflight_dedups;
    let lookups = hits + misses + dedups;
    *m.entry("cache.hits".into()).or_default() += hits as f64;
    *m.entry("cache.misses".into()).or_default() += misses as f64;
    *m.entry("cache.inflight_dedups".into()).or_default() += dedups as f64;
    *m.entry("cache.evictions".into()).or_default() += (after.evictions - before.evictions) as f64;
    *m.entry("cache.lookups".into()).or_default() += lookups as f64;
}

fn finish_cache_counts(m: &mut Metrics) {
    let lookups = m.remove("cache.lookups").unwrap_or(0.0);
    let hits = m.get("cache.hits").copied().unwrap_or(0.0);
    m.insert(
        "cache.hit_ratio".into(),
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
}

// ---------------------------------------------------------------- grid ---

/// Inputs of the suite-sweep replay.
pub struct GridInputs {
    pub entries: Vec<&'static Entry>,
    pub sweeps: Vec<String>,
    pub reference: PathBuf,
    pub work: PathBuf,
}

fn read_tree(dir: &Path) -> std::io::Result<Tree> {
    let mut tree = Tree::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        tree.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path())?,
        );
    }
    Ok(tree)
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => stack.push(entry.path()),
                Ok(meta) => total += meta.len(),
                Err(_) => {}
            }
        }
    }
    total
}

fn write_file(path: &Path, bytes: &str) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

fn base_scenario() -> Result<Scenario, String> {
    let scenario = Scenario::paper_defaults();
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(scenario)
}

fn base_matrix(scenario: Scenario, sweeps: &[String]) -> Result<ScenarioMatrix, String> {
    let specs = sweeps
        .iter()
        .map(|s| SweepSpec::parse(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    ScenarioMatrix::new(scenario, specs).map_err(|e| e.to_string())
}

/// One pass exactly as `repro --json --out --cache-dir` runs it, untraced.
fn grid_pass_untraced(g: &GridInputs, cache: &Path, out: &Path) -> Result<(), String> {
    let matrix = base_matrix(base_scenario()?, &g.sweeps)?;
    let points: Vec<ScenarioPoint> = matrix.points().collect();
    let contexts = points
        .iter()
        .map(|p| RunContext::try_from_overlay(p.overlay.clone()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let engine = Engine::new().with_disk(DiskCache::open(cache).map_err(|e| e.to_string())?);
    let config = GridConfig {
        jobs: 1,
        no_cache: false,
        format: Format::Json,
    };
    let render = |job: &GridJob<'_>| {
        let point = job.sweeping.then_some(job.point);
        let artifact = render_artifact(
            job.entry,
            job.experiment,
            job.output,
            job.context,
            point,
            job.format,
        );
        let path = out.join(artifact_file_name(job.entry.key, point, job.format));
        std::fs::write(&path, &artifact).expect("artifact write");
        Vec::new()
    };
    let result = engine.run_grid(&g.entries, &points, &contexts, &config, render, |_| {});
    if matrix.is_sweep() {
        let comparisons = build_comparisons(&g.entries, &points, &result.scalars, &matrix)
            .map_err(|e| e.to_string())?;
        let report = render_comparisons(&comparisons, &matrix, Format::Json);
        write_file(&out.join("comparison.json"), &report)?;
    }
    Ok(())
}

/// The same pass spelled out call by call, with spans. Returns the number
/// of files written.
fn grid_pass_traced(
    g: &GridInputs,
    cache: &Path,
    out: &Path,
    tag: u64,
    m: &mut Metrics,
) -> Result<usize, String> {
    let _root = trace::span(ROOT, tag);
    let scenario = trace::timed(("scenario.resolve", ""), tag, base_scenario)?;
    let matrix = trace::timed(("sweep.expand", ""), tag, || {
        base_matrix(scenario, &g.sweeps)
    })?;
    let points: Vec<ScenarioPoint> =
        trace::timed(("sweep.expand", ""), tag, || matrix.points().collect());
    let contexts = points
        .iter()
        .map(|p| {
            trace::timed(("context.materialize", ""), tag, || {
                RunContext::try_from_overlay(p.overlay.clone())
            })
            .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let disk = trace::timed(("disk.open", ""), tag, || DiskCache::open(cache))
        .map_err(|e| e.to_string())?;
    let engine = Engine::new();
    let before = engine.stats();
    let groups = trace::timed(("deps.dedup", ""), tag, || {
        build_groups(&g.entries, &points, false)
    });
    let npoints = points.len();
    let sweeping = npoints > 1;
    let mut scalars: Vec<Vec<Scalar>> = vec![Vec::new(); g.entries.len() * npoints];
    let mut computed = BTreeSet::new();
    let (mut render_bytes, mut io_bytes, mut runs, mut files) = (0usize, 0usize, 0usize, 0usize);
    for group in &groups {
        let entry = g.entries[group.entry_idx];
        let experiment = trace::timed(("core.build", ""), tag, || entry.build());
        let representative = group.point_idxs[0];
        let fingerprint = trace::timed(("deps.fingerprint", ""), tag, || {
            entry.fingerprint(&points[representative].overlay)
        });
        let (output, _) = trace::timed(("cache.lookup", ""), tag, || {
            engine.cache().get_or_compute((entry.key, fingerprint), || {
                if let Some(stored) =
                    trace::timed(("disk.load", ""), tag, || disk.load(entry.key, fingerprint))
                {
                    return stored;
                }
                runs += 1;
                computed.insert((entry.key, fingerprint));
                let fresh = trace::timed(("compute", entry.key), tag, || {
                    experiment.run(&contexts[representative])
                });
                trace::timed(("disk.store", ""), tag, || {
                    disk.store(entry.key, fingerprint, &fresh);
                });
                fresh
            })
        });
        for &point_idx in &group.point_idxs {
            let point = sweeping.then_some(&points[point_idx]);
            let artifact = trace::timed(("render.artifact", ""), tag, || {
                render_artifact(
                    entry,
                    experiment.as_ref(),
                    &output,
                    &contexts[point_idx],
                    point,
                    Format::Json,
                )
            });
            render_bytes += artifact.len();
            let path = out.join(artifact_file_name(entry.key, point, Format::Json));
            trace::timed(("io.write", ""), tag, || write_file(&path, &artifact))?;
            io_bytes += artifact.len();
            files += 1;
            scalars[group.entry_idx * npoints + point_idx] = output.scalars.clone();
        }
    }
    if matrix.is_sweep() {
        let report = trace::timed(("render.comparison", ""), tag, || {
            build_comparisons(&g.entries, &points, &scalars, &matrix)
                .map(|c| render_comparisons(&c, &matrix, Format::Json))
                .map_err(|e| e.to_string())
        })?;
        render_bytes += report.len();
        trace::timed(("io.write", ""), tag, || {
            write_file(&out.join("comparison.json"), &report)
        })?;
        io_bytes += report.len();
        files += 1;
    }
    drop(_root);
    engine_counts(m, before, engine.stats());
    let (disk_hits, _, stores) = disk.counters();
    *m.entry("disk.hits".into()).or_default() += disk_hits as f64;
    *m.entry("disk.stores".into()).or_default() += stores as f64;
    *m.entry("render.bytes".into()).or_default() += render_bytes as f64;
    *m.entry("io.bytes".into()).or_default() += io_bytes as f64;
    *m.entry("cache.wasted_recomputes".into()).or_default() += (runs - computed.len()) as f64;
    Ok(files)
}

/// suite-sweep: cold + warm pass per round. Output directories are reused
/// (files overwritten) and every pass pair gets a new cache directory, so
/// nothing is deleted while measuring: on a virtual machine's shared disk,
/// deleting thousands of files makes the next passes' file writes slow and
/// erratic.
pub fn grid(g: &GridInputs, seconds: f64) -> Result<Report, String> {
    let reference = read_tree(&g.reference).map_err(|e| format!("reference tree: {e}"))?;
    let work = &g.work;
    let dir = |name: &str| -> Result<PathBuf, String> {
        let path = work.join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    };
    let (untraced_cold, untraced_warm) = (dir("untraced-cold")?, dir("untraced-warm")?);
    let (cold, warm) = (dir("cold")?, dir("warm")?);
    drive(seconds, |index, checks| {
        trace::enable(false);
        let cache = dir(&format!("untraced-cache{index}"))?;
        let start = Instant::now();
        grid_pass_untraced(g, &cache, &untraced_cold)?;
        grid_pass_untraced(g, &cache, &untraced_warm)?;
        let untraced_ns = elapsed_ns(start);
        trace::enable(true);
        let cache = dir(&format!("cache{index}"))?;
        let mut counts = Metrics::new();
        let tag = index as u64 * 2;
        let cold_files = grid_pass_traced(g, &cache, &cold, tag, &mut counts)?;
        counts.insert("disk.bytes".into(), dir_bytes(&cache) as f64);
        let warm_files = grid_pass_traced(g, &cache, &warm, tag + 1, &mut counts)?;
        finish_cache_counts(&mut counts);
        for (label, out, files) in [("cold", &cold, cold_files), ("warm", &warm, warm_files)] {
            let tree = read_tree(out).map_err(|e| e.to_string())?;
            checks.check(files == reference.len() && tree == reference, || {
                format!("round {index}: traced {label} pass wrote {files} files; tree differs from the repro reference")
            });
        }
        Ok(Round {
            acc: trace::take(),
            untraced_ns,
            counts,
        })
    })
}

// ------------------------------------------------------------------ mc ---

/// Inputs of the Monte-Carlo replay.
pub struct McInputs {
    pub entries: Vec<&'static Entry>,
    pub bindings: Vec<String>,
    pub samples: usize,
    pub seed: u64,
    pub reference: PathBuf,
}

fn mc_matrix(mc: &McInputs) -> Result<MonteCarloMatrix, String> {
    let scenario = base_scenario()?;
    let bindings = mc
        .bindings
        .iter()
        .map(|b| DistBinding::parse(b).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    MonteCarloMatrix::new(scenario, bindings, mc.samples, mc.seed).map_err(|e| e.to_string())
}

/// One run exactly as `repro --samples --jobs 1` runs it, untraced.
fn mc_untraced(mc: &McInputs) -> Result<String, String> {
    let matrix = mc_matrix(mc)?;
    let result = Engine::new()
        .run_mc(
            &mc.entries,
            &matrix,
            &McConfig {
                jobs: 1,
                no_cache: false,
            },
        )
        .map_err(|e| e.to_string())?;
    Ok(render_mc_comparisons(
        &result.comparisons,
        &matrix,
        Format::Json,
    ))
}

/// `run_mc`'s reorder buffer: samples are handed in by index and pushed
/// into the accumulators strictly in sample order.
struct Collector {
    next: usize,
    pending: BTreeMap<usize, Vec<f64>>,
    stats: Vec<StreamingStats>,
    pushes: u64,
}

impl Collector {
    fn complete(&mut self, index: usize, values: Vec<f64>) {
        self.pending.insert(index, values);
        while let Some(values) = self.pending.remove(&self.next) {
            trace::timed(("mc.accumulate", ""), index as u64, || {
                for (slot, &value) in self.stats.iter_mut().zip(&values) {
                    slot.push(value);
                }
            });
            self.pushes += values.len() as u64;
            self.next += 1;
        }
    }
}

/// The same run spelled out sample by sample, with spans. The ordered
/// collector runs in an `engine.mc` span, as `run_mc` hands each sample's
/// values to it under its lock.
fn mc_traced(mc: &McInputs, m: &mut Metrics) -> Result<String, String> {
    let _root = trace::span(ROOT, 0);
    let matrix = trace::timed(("scenario.resolve", ""), 0, || mc_matrix(mc))?;
    let engine = Engine::new();
    let before = engine.stats();
    let mut computed = BTreeSet::new();
    let mut runs = 0usize;
    // Per entry: the tracked metric names (summary scalar plus thresholded
    // scalars), fixed by sample 0 as in `run_mc`.
    let mut specs: Vec<Vec<(String, String, Option<cc_report::ScalarThreshold>)>> = Vec::new();
    let collector = Mutex::new(Collector {
        next: 0,
        pending: BTreeMap::new(),
        stats: Vec::new(),
        pushes: 0,
    });
    let next_sample = AtomicUsize::new(0);
    loop {
        let index = next_sample.fetch_add(1, Ordering::Relaxed);
        if index >= matrix.len() {
            break;
        }
        let tag = index as u64;
        let point = trace::timed(("mc.draw", ""), tag, || matrix.point(index))
            .map_err(|e| e.to_string())?;
        let context = trace::timed(("context.materialize", ""), tag, || {
            RunContext::try_from_overlay(point.overlay.clone())
        })
        .map_err(|e| format!("sample {index}: {e}"))?;
        let mut values = Vec::new();
        for (entry_idx, entry) in mc.entries.iter().enumerate() {
            let fingerprint = trace::timed(("deps.fingerprint", ""), tag, || {
                entry.fingerprint(&point.overlay)
            });
            let (output, _) = trace::timed(("cache.lookup", ""), tag, || {
                engine.cache().get_or_compute((entry.key, fingerprint), || {
                    runs += 1;
                    computed.insert((entry.key, fingerprint));
                    trace::timed(("compute", entry.key), tag, || entry.build().run(&context))
                })
            });
            if index == 0 {
                specs.push(
                    output
                        .scalars
                        .iter()
                        .enumerate()
                        .filter(|(i, s)| *i == 0 || s.threshold.is_some())
                        .map(|(_, s)| (s.name.clone(), s.unit.clone(), s.threshold.clone()))
                        .collect(),
                );
            }
            for (name, _, _) in &specs[entry_idx] {
                let scalar = output
                    .scalars
                    .iter()
                    .find(|s| &s.name == name)
                    .ok_or_else(|| format!("{}: no `{name}` at sample {index}", entry.key))?;
                values.push(scalar.value);
            }
        }
        trace::timed(("engine.mc", ""), tag, || {
            let mut collector = collector.lock().expect("no panics under lock");
            if index == 0 {
                collector.stats = vec![StreamingStats::new(); values.len()];
            }
            collector.complete(index, values);
        });
    }
    let collector = collector.into_inner().expect("no panics under lock");
    let report = trace::timed(("render.comparison", ""), 0, || {
        let mut digests = collector.stats.iter();
        let mut comparisons = Vec::new();
        for (entry, entry_specs) in mc.entries.iter().zip(&specs) {
            for (name, unit, threshold) in entry_specs {
                let digest = digests.next().expect("one accumulator per metric");
                comparisons.push(McComparison {
                    experiment: entry.key.to_string(),
                    metric: name.clone(),
                    unit: unit.clone(),
                    threshold: threshold.clone(),
                    stats: digest.summary().expect("at least one sample"),
                });
            }
        }
        render_mc_comparisons(&comparisons, &matrix, Format::Json)
    });
    drop(_root);
    engine_counts(m, before, engine.stats());
    m.insert("mc.pushes".into(), collector.pushes as f64);
    m.insert(
        "cache.wasted_recomputes".into(),
        (runs - computed.len()) as f64,
    );
    Ok(report)
}

/// mc-model / mc-collapse: untraced at one job, then traced.
pub fn mc(mc: &McInputs, seconds: f64) -> Result<Report, String> {
    let reference = std::fs::read_to_string(&mc.reference)
        .map_err(|e| format!("reference `{}`: {e}", mc.reference.display()))?;
    drive(seconds, |index, checks| {
        trace::enable(false);
        let start = Instant::now();
        let untraced = mc_untraced(mc)?;
        let untraced_ns = elapsed_ns(start);
        trace::enable(true);
        let mut counts = Metrics::new();
        let traced = mc_traced(mc, &mut counts)?;
        finish_cache_counts(&mut counts);
        for (label, report) in [("untraced", &untraced), ("traced", &traced)] {
            checks.check(*report == reference, || {
                format!("round {index}: {label} mc-comparison differs from the repro reference")
            });
        }
        Ok(Round {
            acc: trace::take(),
            untraced_ns,
            counts,
        })
    })
}

// --------------------------------------------------------------- serve ---

/// Inputs of the serve-mixed replay.
pub struct ServeInputs {
    pub seed: u64,
    pub rate: f64,
    /// Requests per round.
    pub requests: usize,
}

fn envelope(kind: &str, fields: Vec<(&str, JsonValue)>) -> String {
    let mut all = vec![("type", JsonValue::from(kind))];
    all.extend(fields);
    JsonValue::object(all).render()
}

/// Handles one request line as the daemon's handler does, minus the
/// socket: parse, resolve through the interner, run the grid or
/// Monte-Carlo driver, render every response line.
fn serve_line(engine: &Engine, line: &str, tag: u64, bytes: &AtomicU64) -> Result<(), String> {
    let frame = trace::timed(("protocol.parse", ""), tag, || parse_frame(line))
        .map_err(|e| e.error.to_string())?;
    let Request::Run(run) = frame.request else {
        return Err("the mix sends only `run` requests".into());
    };
    let resolved = trace::timed(("intern.resolve", ""), tag, || {
        run.resolve_with(Some(engine.interner()))
    })
    .map_err(|e| e.to_string())?;
    engine.count_request();
    if let Some(matrix) = &resolved.mc {
        let config = McConfig {
            jobs: 1,
            no_cache: run.no_cache,
        };
        let result = trace::timed(("engine.mc", ""), tag, || {
            engine.run_mc(&resolved.entries, matrix, &config)
        })
        .map_err(|e| e.to_string())?;
        let text = trace::timed(("render.comparison", ""), tag, || {
            envelope(
                "comparison",
                vec![
                    ("name", JsonValue::from("mc-comparison.json")),
                    (
                        "comparison",
                        mc_comparison_json(&result.comparisons, matrix),
                    ),
                ],
            )
        });
        bytes.fetch_add(text.len() as u64, Ordering::Relaxed);
        return Ok(());
    }
    let config = GridConfig {
        jobs: 1,
        no_cache: run.no_cache,
        format: Format::Json,
    };
    let render = |job: &GridJob<'_>| {
        let artifact = || {
            let point = job.sweeping.then_some(job.point);
            envelope(
                "artifact",
                vec![
                    ("key", JsonValue::from(job.entry.key)),
                    (
                        "name",
                        JsonValue::from(artifact_file_name(job.entry.key, point, Format::Json)),
                    ),
                    (
                        "artifact",
                        artifact_json(job.entry, job.experiment, job.output, job.context, point),
                    ),
                ],
            )
        };
        let len = trace::timed(("render.artifact", ""), tag, || {
            if job.sweeping || run.no_cache {
                artifact().len()
            } else {
                resolved
                    .base
                    .rendered_artifact(job.entry.key, artifact)
                    .len()
            }
        });
        bytes.fetch_add(len as u64, Ordering::Relaxed);
        Vec::new()
    };
    let result = trace::timed(("engine.grid", ""), tag, || {
        engine.run_grid(
            &resolved.entries,
            &resolved.points,
            &resolved.contexts,
            &config,
            render,
            |_| {},
        )
    });
    if resolved.matrix.is_sweep() {
        let text = trace::timed(("render.comparison", ""), tag, || {
            build_comparisons(
                &resolved.entries,
                &resolved.points,
                &result.scalars,
                &resolved.matrix,
            )
            .map(|c| {
                envelope(
                    "comparison",
                    vec![
                        ("name", JsonValue::from("comparison.json")),
                        ("comparison", comparison_json(&c, &resolved.matrix)),
                    ],
                )
            })
            .map_err(|e| e.to_string())
        })?;
        bytes.fetch_add(text.len() as u64, Ordering::Relaxed);
    }
    Ok(())
}

fn warm_engine() -> Result<Engine, String> {
    let engine = Engine::new();
    let bytes = AtomicU64::new(0);
    for (i, request) in mix::warmup(&mix::keys()).iter().enumerate() {
        serve_line(&engine, &request.line(i as u64), 0, &bytes)?;
    }
    Ok(engine)
}

/// serve-mixed: the next `requests` lines of the load generator's arrival
/// streams per round, untraced on one warmed engine, traced on another.
pub fn serve(s: &ServeInputs, seconds: f64) -> Result<Report, String> {
    let keys = mix::keys();
    let per_conn = s.rate / mix::CONNS as f64;
    let mut streams: Vec<Stream> = (0..mix::CONNS)
        .map(|c| Stream::new(s.seed, c, per_conn))
        .collect();
    trace::enable(false);
    let untraced_engine = warm_engine()?;
    let traced_engine = warm_engine()?;
    drive(seconds, |index, checks| {
        let lines: Vec<String> = mix::arrivals(&mut streams, &keys, s.requests)
            .iter()
            .enumerate()
            .map(|(i, r)| r.line((index * s.requests + i) as u64))
            .collect();
        trace::enable(false);
        let sink = AtomicU64::new(0);
        let start = Instant::now();
        for (i, line) in lines.iter().enumerate() {
            let result = serve_line(&untraced_engine, line, i as u64, &sink);
            checks.check(result.is_ok(), || {
                format!("untraced request {i}: {result:?}")
            });
        }
        let untraced_ns = elapsed_ns(start);
        black_box(sink.load(Ordering::Relaxed));

        trace::enable(true);
        let mut counts = Metrics::new();
        let before = traced_engine.stats();
        let bytes = AtomicU64::new(0);
        {
            let _root = trace::span(ROOT, index as u64);
            for (i, line) in lines.iter().enumerate() {
                let result = serve_line(&traced_engine, line, i as u64, &bytes);
                checks.check(result.is_ok(), || format!("traced request {i}: {result:?}"));
            }
        }
        let after = traced_engine.stats();
        engine_counts(&mut counts, before, after);
        finish_cache_counts(&mut counts);
        let intern_hits = (after.intern_hits - before.intern_hits) as f64;
        let intern_all = intern_hits + (after.intern_misses - before.intern_misses) as f64;
        counts.insert(
            "intern.hit_ratio".into(),
            if intern_all > 0.0 {
                intern_hits / intern_all
            } else {
                0.0
            },
        );
        counts.insert("render.bytes".into(), bytes.load(Ordering::Relaxed) as f64);
        Ok(Round {
            acc: trace::take(),
            untraced_ns,
            counts,
        })
    })
}
