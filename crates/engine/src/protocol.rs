//! The newline-delimited-JSON protocol spoken by `repro serve`.
//!
//! One request per line, one or more response lines per request, every
//! line a single JSON document. Five operations (protocol version
//! [`PROTOCOL_VERSION`]):
//!
//! ```text
//! {"op":"hello"}
//! {"op":"run","id":1,"experiments":["fig10"],"sweep":["grid.intensity=10..800/100"],"jobs":4}
//! {"op":"batch","id":"sweep-a","runs":[{"experiments":["fig05"]},{"experiments":["fig10"]}]}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! **Request ids (v2).** Any request may carry a client-chosen `id` — a
//! string or a non-negative integer — which the server echoes verbatim on
//! every response line the request produces. Id-tagged `run`/`batch`
//! requests are *multiplexed*: the server may interleave response lines of
//! different in-flight requests on one connection, and complete them out
//! of submission order. Requests without an `id` keep the v1 contract:
//! they are processed serially in submission order and their responses
//! carry no `id` field, so v1 clients work against a v2 server unchanged.
//!
//! A `run` request selects experiments by key and/or tag (both optional —
//! neither selects the full registry, as the CLI does), applies `--set`
//! style overrides from `"set"`, expands `"sweep"` specs into a scenario
//! matrix, and streams back one `artifact` line per (experiment × point)
//! job in grid order, a `comparison` line when sweeping, and a terminal
//! `done` line carrying the request's cache outcome. A `run` carrying
//! `"dists"` bindings (with `"samples"` and optionally `"seed"`) is a
//! Monte-Carlo sampling run instead: no per-sample artifact lines, one
//! `comparison` line holding the banded digests, then `done`. A `batch`
//! submits a whole sweep of runs in one frame: every element of `"runs"`
//! is validated up front (all-or-nothing), response lines carry a `run`
//! index alongside the batch's `id`, and one aggregate `done` terminates
//! the batch. Every field override and sweep path is validated against
//! the canonical `FIELDS` registry before anything runs; a request that
//! fails validation produces a single structured `error` line and leaves
//! the daemon (and its cache) untouched.
//!
//! The full wire contract — operations, response kinds, error categories
//! and the sampling fields — is specified normatively in
//! `docs/PROTOCOL.md`. The [`OPS`] and [`ERROR_CATEGORIES`] constants are
//! the canonical in-code enumeration; the conformance suite cross-checks
//! them against the document so the two cannot drift, and checks that the
//! golden transcripts pin every response kind the document lists.
//!
//! Request parsing is deliberately strict about shape — unknown `op`
//! values, non-string experiment keys, or a non-object `set` are
//! [`ProtocolError`]s, not silent defaults — so client bugs surface as
//! structured errors instead of empty responses.

use crate::intern::{InternedScenario, ScenarioInterner};
use cc_core::experiments::{self, Entry, Tag};
use cc_report::{
    JsonValue, MonteCarloMatrix, RunContext, Scenario, ScenarioError, ScenarioMatrix,
    ScenarioPoint, SweepSpec,
};
use std::sync::Arc;

/// The protocol version this build speaks, reported by the `hello` op.
/// Version 2 added request ids (multiplexing), `hello`, `batch` and the
/// `overloaded` backpressure error; every v1 request remains valid.
pub const PROTOCOL_VERSION: u64 = 2;

/// Every operation, exactly as `docs/PROTOCOL.md` enumerates them.
pub const OPS: [&str; 5] = ["hello", "run", "batch", "stats", "shutdown"];

/// Every error category, exactly as `docs/PROTOCOL.md` enumerates them.
pub const ERROR_CATEGORIES: [&str; 9] = [
    "malformed-request",
    "unknown-experiment",
    "unknown-tag",
    "unknown-field",
    "invalid-value",
    "invalid-scenario",
    "invalid-sweep",
    "overloaded",
    "cancelled",
];

/// A structured protocol error: a stable machine-readable category plus a
/// human-readable message. The daemon renders it as
/// `{"type":"error","error":CATEGORY,"message":MESSAGE}`, tagged with the
/// request's id when it carried one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable category, one of [`ERROR_CATEGORIES`]: `malformed-request`,
    /// `unknown-experiment`, `unknown-tag`, `unknown-field`,
    /// `invalid-value`, `invalid-scenario`, `invalid-sweep`, `overloaded`
    /// or `cancelled`.
    pub category: &'static str,
    /// What went wrong, for humans.
    pub message: String,
}

impl ProtocolError {
    pub(crate) fn new(category: &'static str, message: impl Into<String>) -> Self {
        Self {
            category,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.category, self.message)
    }
}

/// Maps a scenario-application failure onto a protocol error category:
/// the category distinguishes "no such field" from "value didn't parse"
/// from "value out of physical range" so clients can react precisely.
pub(crate) fn scenario_error(e: &ScenarioError) -> ProtocolError {
    let category = match e {
        ScenarioError::UnknownKey(_) => "unknown-field",
        ScenarioError::InvalidValue { .. } | ScenarioError::UnknownSource(_) => "invalid-value",
        ScenarioError::Parse { .. } | ScenarioError::Invalid(_) => "invalid-scenario",
    };
    ProtocolError::new(category, e.to_string())
}

/// A client-chosen request id: a JSON string or non-negative integer,
/// echoed verbatim on every response line the request produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestId {
    /// A string id (`"id":"sweep-7"`).
    Text(String),
    /// A non-negative integer id (`"id":42`).
    Number(u64),
}

impl RequestId {
    /// The id as the JSON value the server echoes back.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            Self::Text(s) => JsonValue::from(s.as_str()),
            Self::Number(n) => JsonValue::Integer(*n),
        }
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Text(s) => write!(f, "{s}"),
            Self::Number(n) => write!(f, "{n}"),
        }
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Report the protocol version and the server's operational limits.
    Hello,
    /// Run experiments over a (possibly one-point) scenario matrix.
    Run(RunRequest),
    /// Run several `run` payloads submitted in one frame.
    Batch(Vec<RunRequest>),
    /// Return the engine's [`crate::EngineStats`] snapshot.
    Stats,
    /// Stop the daemon after acknowledging.
    Shutdown,
}

/// One request line, parsed: the optional client id plus the request.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The client-chosen id, echoed on every response to this request.
    /// `None` means a v1-style request: serial processing, no id echo.
    pub id: Option<RequestId>,
    /// The request itself.
    pub request: Request,
}

/// A rejected request line: the error plus the id it should be billed to,
/// when one could still be recovered from the malformed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// The request's id, when the frame parsed far enough to carry one.
    pub id: Option<RequestId>,
    /// What was wrong with the line.
    pub error: ProtocolError,
}

impl FrameError {
    fn anonymous(error: ProtocolError) -> Self {
        Self { id: None, error }
    }
}

/// One run, as both front ends state it: the daemon parses it from a
/// `run` payload, the CLI fills it from its flags. One-shot `repro`
/// resolves it in-process via [`RunRequest::resolve_from`]; `repro
/// client` sends its [`RunRequest::to_json`] line. Each field names its
/// wire field and the CLI flag that fills it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRequest {
    /// `experiments`: keys, positional or from repeated `--experiment`.
    pub keys: Vec<String>,
    /// `tags`: tag names from repeated `--tag`, AND-ed.
    pub tags: Vec<String>,
    /// `set`: scenario overrides from repeated `--set`, in order.
    pub sets: Vec<(String, String)>,
    /// `sweep`: sweep specs from repeated `--sweep`, in order.
    pub sweeps: Vec<String>,
    /// `dists`: distribution bindings (`path ~ dist(args)`, a `--set` or
    /// `--sweep` with a `~`), in order. Non-empty turns the run into a
    /// Monte-Carlo sampling run.
    pub dists: Vec<String>,
    /// `samples`: Monte-Carlo sample count (`--samples`; required with
    /// `dists`).
    pub samples: Option<usize>,
    /// `seed`: Monte-Carlo RNG seed (`--seed`; defaults to 0).
    pub seed: Option<u64>,
    /// `jobs`: worker threads for this request's grid (`--jobs`;
    /// server-clamped).
    pub jobs: Option<usize>,
    /// `no_cache`: one model run per grid cell, bypassing the cache
    /// (`--no-cache`).
    pub no_cache: bool,
}

/// A fully validated `run` request, ready for [`crate::Engine::execute`].
pub struct ResolvedRun {
    /// Selected experiments, in registry order for tag selections and
    /// request order for explicit keys.
    pub entries: Vec<&'static Entry>,
    /// The expanded scenario matrix.
    pub matrix: ScenarioMatrix,
    /// The matrix's points, materialized.
    pub points: Vec<ScenarioPoint>,
    /// One validated run context per point.
    pub contexts: Vec<RunContext>,
    /// When set, the request is a Monte-Carlo sampling run:
    /// [`crate::Engine::execute`] routes it through
    /// [`crate::Engine::run_mc`] instead of the grid runner, for one-shot
    /// and served runs alike, and `matrix`/`points`/`contexts` hold only
    /// the base scenario's single point.
    pub mc: Option<MonteCarloMatrix>,
    /// The validated payload this run resolved from — shared with every
    /// other in-flight request carrying the identical `set`/`dists`
    /// payload when an interner resolved it. The server keeps each
    /// non-sweep artifact's text in its memo
    /// ([`InternedScenario::rendered_artifact`]).
    pub base: Arc<InternedScenario>,
}

/// Coerces a JSON scalar into the text form `Scenario::set` parses. JSON
/// numbers arrive as `f64`/`u64`; scenario fields expect the token the user
/// would have typed, so integral values render without a fraction.
fn value_text(value: &JsonValue) -> Result<String, ProtocolError> {
    match value {
        JsonValue::String(s) => Ok(s.clone()),
        JsonValue::Integer(n) => Ok(n.to_string()),
        JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => Ok(format!("{}", *n as i64)),
        JsonValue::Number(n) => Ok(format!("{n:?}")),
        JsonValue::Bool(b) => Ok(b.to_string()),
        other => Err(ProtocolError::new(
            "malformed-request",
            format!("scenario values must be scalars, got {}", kind(other)),
        )),
    }
}

fn kind(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Integer(_) | JsonValue::Number(_) => "a number",
        JsonValue::String(_) => "a string",
        JsonValue::Array(_) => "an array",
        JsonValue::Object(_) => "an object",
    }
}

/// Extracts a `["a","b"]` field as strings; `None` if absent.
fn string_list(request: &JsonValue, field: &str) -> Result<Vec<String>, ProtocolError> {
    let Some(value) = request.get(field) else {
        return Ok(Vec::new());
    };
    let items = value.as_array().ok_or_else(|| {
        ProtocolError::new(
            "malformed-request",
            format!("`{field}` must be an array of strings"),
        )
    })?;
    items
        .iter()
        .map(|item| {
            item.as_str().map(str::to_string).ok_or_else(|| {
                ProtocolError::new(
                    "malformed-request",
                    format!("`{field}` must contain only strings"),
                )
            })
        })
        .collect()
}

/// Parses one request line into a [`Frame`]. A rejected line still
/// reports the id it carried whenever the JSON parsed far enough to
/// recover one, so multiplexing clients can bill the error to the right
/// in-flight request.
pub fn parse_frame(line: &str) -> Result<Frame, FrameError> {
    let value = JsonValue::parse(line).map_err(|e| {
        FrameError::anonymous(ProtocolError::new("malformed-request", e.to_string()))
    })?;
    if value.as_object().is_none() {
        return Err(FrameError::anonymous(ProtocolError::new(
            "malformed-request",
            "a request must be a JSON object",
        )));
    }
    let id = parse_id(&value).map_err(FrameError::anonymous)?;
    let fail = |error| FrameError {
        id: id.clone(),
        error,
    };
    let op = value.get("op").and_then(JsonValue::as_str).ok_or_else(|| {
        fail(ProtocolError::new(
            "malformed-request",
            "missing string field `op`",
        ))
    })?;
    let request = match op {
        "hello" => Request::Hello,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "run" => Request::Run(parse_run_body(&value).map_err(&fail)?),
        "batch" => {
            let runs = value.get("runs").ok_or_else(|| {
                fail(ProtocolError::new(
                    "malformed-request",
                    "`batch` requires a `runs` array",
                ))
            })?;
            let items = runs.as_array().ok_or_else(|| {
                fail(ProtocolError::new(
                    "malformed-request",
                    "`runs` must be an array of run objects",
                ))
            })?;
            if items.is_empty() {
                return Err(fail(ProtocolError::new(
                    "malformed-request",
                    "`runs` must not be empty",
                )));
            }
            let runs = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    if item.as_object().is_none() {
                        return Err(ProtocolError::new(
                            "malformed-request",
                            format!("`runs[{i}]` must be a run object"),
                        ));
                    }
                    parse_run_body(item).map_err(|e| {
                        ProtocolError::new(e.category, format!("runs[{i}]: {}", e.message))
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(&fail)?;
            Request::Batch(runs)
        }
        other => {
            return Err(fail(ProtocolError::new(
                "malformed-request",
                format!("unknown op `{other}`"),
            )))
        }
    };
    Ok(Frame { id, request })
}

/// Extracts the optional `id` field: a string or a non-negative integer.
fn parse_id(value: &JsonValue) -> Result<Option<RequestId>, ProtocolError> {
    match value.get("id") {
        None => Ok(None),
        Some(JsonValue::String(s)) => Ok(Some(RequestId::Text(s.clone()))),
        Some(JsonValue::Integer(n)) => Ok(Some(RequestId::Number(*n))),
        Some(other) => Err(ProtocolError::new(
            "malformed-request",
            format!(
                "`id` must be a string or a non-negative integer, got {}",
                kind(other)
            ),
        )),
    }
}

/// Parses the body of one `run` payload — either a whole `run` request
/// or one element of a `batch`'s `runs` array. [`RunRequest::to_json`]
/// is its exact inverse.
fn parse_run_body(value: &JsonValue) -> Result<RunRequest, ProtocolError> {
    let keys = string_list(value, "experiments")?;
    let tags = string_list(value, "tags")?;
    let sweeps = string_list(value, "sweep")?;
    let dists = string_list(value, "dists")?;
    let samples = match value.get("samples") {
        None => None,
        Some(samples) => Some(
            samples
                .as_u64()
                .map(|n| n as usize)
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    ProtocolError::new("malformed-request", "`samples` must be a positive integer")
                })?,
        ),
    };
    let seed = match value.get("seed") {
        None => None,
        Some(seed) => Some(seed.as_u64().ok_or_else(|| {
            ProtocolError::new("malformed-request", "`seed` must be a non-negative integer")
        })?),
    };
    let sets = match value.get("set") {
        None => Vec::new(),
        Some(set) => {
            let pairs = set.as_object().ok_or_else(|| {
                ProtocolError::new("malformed-request", "`set` must be an object")
            })?;
            pairs
                .iter()
                .map(|(key, v)| Ok((key.clone(), value_text(v)?)))
                .collect::<Result<Vec<_>, ProtocolError>>()?
        }
    };
    let jobs = match value.get("jobs") {
        None => None,
        Some(jobs) => Some(
            jobs.as_u64()
                .map(|n| n as usize)
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    ProtocolError::new("malformed-request", "`jobs` must be a positive integer")
                })?,
        ),
    };
    let no_cache = match value.get("no_cache") {
        None => false,
        Some(flag) => flag.as_bool().ok_or_else(|| {
            ProtocolError::new("malformed-request", "`no_cache` must be a boolean")
        })?,
    };
    Ok(RunRequest {
        keys,
        tags,
        sets,
        sweeps,
        dists,
        samples,
        seed,
        jobs,
        no_cache,
    })
}

impl RunRequest {
    /// The `run` request line for this payload — the exact inverse of
    /// [`parse_frame`]'s `run` parsing. Fields at their defaults are
    /// omitted; `set` values travel as the strings the CLI read.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let strings = |items: &[String]| {
            JsonValue::array(items.iter().map(|item| JsonValue::from(item.as_str())))
        };
        let mut fields = vec![("op", JsonValue::from("run"))];
        for (field, items) in [
            ("experiments", &self.keys),
            ("tags", &self.tags),
            ("sweep", &self.sweeps),
            ("dists", &self.dists),
        ] {
            if !items.is_empty() {
                fields.push((field, strings(items)));
            }
        }
        if !self.sets.is_empty() {
            let set = self
                .sets
                .iter()
                .map(|(k, v)| (k.as_str(), JsonValue::from(v.as_str())));
            fields.push(("set", JsonValue::object(set)));
        }
        let counts = [
            ("samples", self.samples.map(|n| n as u64)),
            ("seed", self.seed),
            ("jobs", self.jobs.map(|n| n as u64)),
        ];
        for (field, count) in counts {
            if let Some(n) = count {
                fields.push((field, JsonValue::Integer(n)));
            }
        }
        if self.no_cache {
            fields.push(("no_cache", JsonValue::Bool(true)));
        }
        JsonValue::object(fields)
    }

    /// The selected experiments — explicit keys in request order (each
    /// must carry every requested tag), else every entry carrying all the
    /// tags, in registry order. May be empty; [`Self::resolve_with`]
    /// rejects an empty selection, a `--list` prints it.
    pub fn select(&self) -> Result<Vec<&'static Entry>, ProtocolError> {
        let tags: Vec<Tag> = self
            .tags
            .iter()
            .map(|name| {
                Tag::parse(name).ok_or_else(|| {
                    ProtocolError::new("unknown-tag", format!("unknown tag `{name}`"))
                })
            })
            .collect::<Result<_, _>>()?;
        if self.keys.is_empty() {
            return Ok(experiments::with_tags(&tags));
        }
        self.keys
            .iter()
            .map(|key| {
                let entry = experiments::find_entry(key).ok_or_else(|| {
                    ProtocolError::new("unknown-experiment", format!("unknown experiment `{key}`"))
                })?;
                // An explicitly named key that fails the tag filter is a
                // contradiction in the request, not something to drop.
                if let Some(&missing) = tags.iter().find(|&&t| !entry.has_tag(t)) {
                    return Err(ProtocolError::new(
                        "unknown-experiment",
                        format!("experiment `{key}` does not carry tag `{missing}`"),
                    ));
                }
                Ok(entry)
            })
            .collect()
    }

    /// Validates the request against the experiment registry and the
    /// canonical scenario `FIELDS`, with `base` (paper defaults, or the
    /// CLI's `--scenario` file) under the `set` overrides, expanding it
    /// into entries, a matrix, points and run contexts. Nothing runs here
    /// — a failing request is rejected before it can touch the engine or
    /// its cache.
    pub fn resolve_from(&self, base: Scenario) -> Result<ResolvedRun, ProtocolError> {
        self.resolve_on(|| InternedScenario::build(base, &self.sets, &self.dists).map(Arc::new))
    }

    /// [`Self::resolve_from`] the paper defaults, with an optional
    /// [`ScenarioInterner`]: when one is supplied, a repeated
    /// `set`/`dists` payload reuses the interned validated base scenario
    /// instead of re-validating it, so a daemon replaying identical
    /// scenarios skips the per-request validation cost entirely.
    pub fn resolve_with(
        &self,
        interner: Option<&ScenarioInterner>,
    ) -> Result<ResolvedRun, ProtocolError> {
        match interner {
            Some(interner) => self.resolve_on(|| interner.resolve(&self.sets, &self.dists)),
            None => self.resolve_from(Scenario::paper_defaults()),
        }
    }

    /// The resolver proper, over a validated base payload `base` yields.
    fn resolve_on(
        &self,
        base: impl FnOnce() -> Result<Arc<InternedScenario>, ProtocolError>,
    ) -> Result<ResolvedRun, ProtocolError> {
        let entries = self.select()?;
        if entries.is_empty() {
            return Err(ProtocolError::new(
                "unknown-experiment",
                "no experiments match the given keys/tags",
            ));
        }
        let base = base()?;

        // Monte-Carlo sampling and enumerated sweeps are mutually
        // exclusive: a sampled axis has no fixed point labels for a grid.
        // Each rule names the wire field and the CLI flag, so one message
        // serves both front ends.
        let mc = if self.dists.is_empty() {
            if self.samples.is_some() || self.seed.is_some() {
                return Err(ProtocolError::new(
                    "invalid-sweep",
                    "`samples` (--samples) and `seed` (--seed) require at least one \
                     `dists` binding (--set 'path ~ dist(...)')",
                ));
            }
            None
        } else {
            if !self.sweeps.is_empty() {
                return Err(ProtocolError::new(
                    "invalid-sweep",
                    "`dists` bindings (--set 'path ~ dist(...)') cannot be combined \
                     with `sweep` value sweeps (--sweep)",
                ));
            }
            let samples = self.samples.ok_or_else(|| {
                ProtocolError::new(
                    "invalid-sweep",
                    "`dists` bindings (--set 'path ~ dist(...)') require a `samples` \
                     count (--samples <n>)",
                )
            })?;
            Some(
                MonteCarloMatrix::new(
                    base.scenario.clone(),
                    base.bindings.clone(),
                    samples,
                    self.seed.unwrap_or(0),
                )
                .map_err(|e| ProtocolError::new("invalid-sweep", e.to_string()))?,
            )
        };

        let sweeps: Vec<SweepSpec> = self
            .sweeps
            .iter()
            .map(|spec| {
                SweepSpec::parse(spec)
                    .map_err(|e| ProtocolError::new("invalid-sweep", e.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let matrix = ScenarioMatrix::new(base.scenario.clone(), sweeps)
            .map_err(|e| ProtocolError::new("invalid-sweep", e.to_string()))?;
        let points: Vec<ScenarioPoint> = matrix.points().collect();
        let contexts: Vec<RunContext> = points
            .iter()
            .map(|p| {
                RunContext::try_from_overlay(p.overlay.clone()).map_err(|e| scenario_error(&e))
            })
            .collect::<Result<_, _>>()?;

        Ok(ResolvedRun {
            entries,
            matrix,
            points,
            contexts,
            mc,
            base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request a line parses to, with any id dropped.
    fn request(line: &str) -> Result<Request, ProtocolError> {
        parse_frame(line).map(|f| f.request).map_err(|e| e.error)
    }

    #[test]
    fn parses_the_three_operations() {
        assert_eq!(request(r#"{"op":"stats"}"#), Ok(Request::Stats));
        assert_eq!(request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
        let run = request(
            r#"{"op":"run","experiments":["fig10"],"tags":["mobile"],
                "set":{"grid.intensity":50,"device.lifetime":"3"},
                "sweep":["grid.intensity=100,300"],"jobs":4,"no_cache":true}"#,
        )
        .expect("valid run request");
        let Request::Run(run) = run else {
            panic!("expected a run request");
        };
        assert_eq!(run.keys, ["fig10"]);
        assert_eq!(run.tags, ["mobile"]);
        assert_eq!(
            run.sets,
            [
                ("grid.intensity".to_string(), "50".to_string()),
                ("device.lifetime".to_string(), "3".to_string()),
            ]
        );
        assert_eq!(run.sweeps, ["grid.intensity=100,300"]);
        assert_eq!(run.jobs, Some(4));
        assert!(run.no_cache);
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        for line in [
            "{oops",
            "[]",
            "{}",
            r#"{"op":"dance"}"#,
            r#"{"op":"run","jobs":0}"#,
        ] {
            let err = request(line).expect_err("must be rejected");
            assert_eq!(err.category, "malformed-request", "line: {line}");
        }
    }

    fn rejection(request: &RunRequest) -> ProtocolError {
        request
            .resolve_with(None)
            .err()
            .expect("request must be rejected")
    }

    #[test]
    fn resolve_validates_against_the_registries() {
        let unknown = RunRequest {
            keys: vec!["fig99".into()],
            ..RunRequest::default()
        };
        assert_eq!(rejection(&unknown).category, "unknown-experiment");

        let bad_tag = RunRequest {
            tags: vec!["quantum".into()],
            ..RunRequest::default()
        };
        assert_eq!(rejection(&bad_tag).category, "unknown-tag");

        let bad_field = RunRequest {
            keys: vec!["fig10".into()],
            sets: vec![("grid.wattage".into(), "5".into())],
            ..RunRequest::default()
        };
        assert_eq!(rejection(&bad_field).category, "unknown-field");

        let bad_value = RunRequest {
            keys: vec!["fig10".into()],
            sets: vec![("grid.intensity".into(), "emerald".into())],
            ..RunRequest::default()
        };
        assert_eq!(rejection(&bad_value).category, "invalid-value");

        let bad_range = RunRequest {
            keys: vec!["fig10".into()],
            sets: vec![("grid.intensity".into(), "-5".into())],
            ..RunRequest::default()
        };
        let err = rejection(&bad_range);
        assert!(
            err.category == "invalid-scenario" || err.category == "invalid-value",
            "out-of-range value maps to a validation category, got {}",
            err.category
        );

        let bad_sweep = RunRequest {
            keys: vec!["fig10".into()],
            sweeps: vec!["grid.intensity=10..".into()],
            ..RunRequest::default()
        };
        assert_eq!(rejection(&bad_sweep).category, "invalid-sweep");
    }

    #[test]
    fn resolve_expands_a_valid_sweep() {
        let request = RunRequest {
            keys: vec!["fig10".into()],
            sweeps: vec!["grid.intensity=100,300,500".into()],
            ..RunRequest::default()
        };
        let resolved = request.resolve_with(None).expect("valid request");
        assert_eq!(resolved.entries.len(), 1);
        assert_eq!(resolved.points.len(), 3);
        assert_eq!(resolved.contexts.len(), 3);
        assert!(resolved.matrix.is_sweep());
    }

    #[test]
    fn monte_carlo_requests_parse_and_resolve() {
        let run = request(
            r#"{"op":"run","experiments":["ext-facility"],
                "dists":["fab.node_nm ~ triangular(5,7,10)"],"samples":100,"seed":7}"#,
        )
        .expect("valid mc request");
        let Request::Run(run) = run else {
            panic!("expected a run request");
        };
        assert_eq!(run.dists, ["fab.node_nm ~ triangular(5,7,10)"]);
        assert_eq!(run.samples, Some(100));
        assert_eq!(run.seed, Some(7));
        let resolved = run.resolve_with(None).expect("valid mc request resolves");
        let mc = resolved.mc.expect("mc matrix present");
        assert_eq!(mc.len(), 100);
        assert_eq!(mc.seed(), 7);
        assert_eq!(resolved.points.len(), 1, "base scenario point only");

        // Seed defaults to 0 when absent.
        let request = RunRequest {
            keys: vec!["ext-facility".into()],
            dists: vec!["fab.node_nm ~ triangular(5,7,10)".into()],
            samples: Some(10),
            ..RunRequest::default()
        };
        let resolved = request
            .resolve_with(None)
            .expect("seedless mc request resolves");
        assert_eq!(resolved.mc.expect("mc matrix").seed(), 0);
    }

    #[test]
    fn monte_carlo_requests_validate_their_shape() {
        for line in [
            r#"{"op":"run","samples":0}"#,
            r#"{"op":"run","samples":"many"}"#,
            r#"{"op":"run","seed":"lucky"}"#,
            r#"{"op":"run","dists":"not-a-list"}"#,
        ] {
            let err = request(line).expect_err("must be rejected");
            assert_eq!(err.category, "malformed-request", "line: {line}");
        }
        let base = RunRequest {
            keys: vec!["ext-facility".into()],
            ..RunRequest::default()
        };
        // samples/seed without dists.
        let orphan = RunRequest {
            samples: Some(100),
            ..base.clone()
        };
        assert_eq!(rejection(&orphan).category, "invalid-sweep");
        // dists without samples.
        let uncounted = RunRequest {
            dists: vec!["fab.node_nm ~ triangular(5,7,10)".into()],
            ..base.clone()
        };
        assert_eq!(rejection(&uncounted).category, "invalid-sweep");
        // dists combined with a sweep.
        let mixed = RunRequest {
            dists: vec!["fab.node_nm ~ triangular(5,7,10)".into()],
            samples: Some(10),
            sweeps: vec!["grid.intensity=100,300".into()],
            ..base.clone()
        };
        assert_eq!(rejection(&mixed).category, "invalid-sweep");
        // A malformed binding.
        let garbled = RunRequest {
            dists: vec!["fab.node_nm ~ parabola(1,2)".into()],
            samples: Some(10),
            ..base
        };
        assert_eq!(rejection(&garbled).category, "invalid-sweep");
    }

    #[test]
    fn frames_carry_optional_ids() {
        let frame = parse_frame(r#"{"op":"stats","id":"abc"}"#).expect("valid frame");
        assert_eq!(frame.id, Some(RequestId::Text("abc".into())));
        assert_eq!(frame.request, Request::Stats);
        let frame = parse_frame(r#"{"op":"hello","id":42}"#).expect("valid frame");
        assert_eq!(frame.id, Some(RequestId::Number(42)));
        assert_eq!(frame.request, Request::Hello);
        let frame = parse_frame(r#"{"op":"shutdown"}"#).expect("valid frame");
        assert_eq!(frame.id, None);

        // A malformed op still reports the id it was billed to.
        let err = parse_frame(r#"{"op":"dance","id":7}"#).expect_err("rejected");
        assert_eq!(err.id, Some(RequestId::Number(7)));
        assert_eq!(err.error.category, "malformed-request");
        // A bad id is itself malformed, and anonymous.
        let err = parse_frame(r#"{"op":"stats","id":[1]}"#).expect_err("rejected");
        assert_eq!(err.id, None);
        assert_eq!(err.error.category, "malformed-request");
        let err = parse_frame(r#"{"op":"stats","id":-4}"#).expect_err("rejected");
        assert_eq!(err.error.category, "malformed-request");
    }

    #[test]
    fn batch_frames_parse_and_validate_shape() {
        let frame = parse_frame(
            r#"{"op":"batch","id":"b","runs":[{"experiments":["fig05"]},{"experiments":["fig10"],"jobs":2}]}"#,
        )
        .expect("valid batch");
        let Request::Batch(runs) = frame.request else {
            panic!("expected a batch request");
        };
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].keys, ["fig05"]);
        assert_eq!(runs[1].jobs, Some(2));

        for line in [
            r#"{"op":"batch"}"#,
            r#"{"op":"batch","runs":"all"}"#,
            r#"{"op":"batch","runs":[]}"#,
            r#"{"op":"batch","runs":[7]}"#,
        ] {
            let err = parse_frame(line).expect_err("rejected");
            assert_eq!(err.error.category, "malformed-request", "line: {line}");
        }
        // A bad element names its index.
        let err = parse_frame(r#"{"op":"batch","runs":[{"jobs":0}]}"#).expect_err("rejected");
        assert!(err.error.message.starts_with("runs[0]:"), "{}", err.error);
    }

    #[test]
    fn canonical_enumerations_are_distinct() {
        for list in [&OPS[..], &ERROR_CATEGORIES[..]] {
            let unique: std::collections::BTreeSet<_> = list.iter().collect();
            assert_eq!(unique.len(), list.len());
        }
    }

    #[test]
    fn run_requests_round_trip_through_their_json_line() {
        let full = RunRequest {
            keys: vec!["fig10".into(), "ext-facility".into()],
            tags: vec!["figure".into()],
            sets: vec![
                ("grid.intensity".into(), "50".into()),
                ("grid.source".into(), "coal".into()),
            ],
            sweeps: vec!["device.lifetime=2,3".into()],
            dists: vec!["fleet.growth ~ uniform(1.2,1.4)".into()],
            samples: Some(200),
            seed: Some(u64::MAX),
            jobs: Some(4),
            no_cache: true,
        };
        for request in [full, RunRequest::default()] {
            let line = request.to_json().render();
            let frame = parse_frame(&line).expect("a to_json line parses");
            assert_eq!(frame.request, Request::Run(request), "line: {line}");
        }
        // Defaults are omitted from the wire, not spelled out.
        assert_eq!(RunRequest::default().to_json().render(), r#"{"op":"run"}"#);
    }

    #[test]
    fn json_scalars_coerce_to_cli_value_tokens() {
        assert_eq!(value_text(&JsonValue::from("coal")).unwrap(), "coal");
        assert_eq!(value_text(&JsonValue::Integer(60000)).unwrap(), "60000");
        assert_eq!(value_text(&JsonValue::Number(3.0)).unwrap(), "3");
        assert_eq!(value_text(&JsonValue::Number(0.35)).unwrap(), "0.35");
        assert_eq!(value_text(&JsonValue::Bool(true)).unwrap(), "true");
        assert!(value_text(&JsonValue::Array(Vec::new())).is_err());
    }
}
