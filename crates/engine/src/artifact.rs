//! Artifact rendering shared by the CLI and the server.
//!
//! Both front-ends must emit byte-identical artifacts for the same
//! (experiment × scenario-point) job — `served_artifacts_byte_match_the_one_shot_cli`
//! and `racing_clients_compute_each_sweep_point_once` in
//! `crates/bench/tests/serve.rs` diff daemon output against one-shot
//! `repro` runs file for file — so the artifact layout lives here, once.
//!
//! A JSON artifact is one object in three pieces, each fixed by fewer
//! inputs than the whole: the *head* (`key`, `title`, `description`,
//! `tags`) by the experiment, the *point* piece (`point` when sweeping,
//! then `scenario`) by the sweep point, and the *body* (`output`) by the
//! experiment's output. The other formats never show the point, so their
//! body is the whole artifact. [`crate::Engine::run_grid`] renders each
//! shared piece once — a JSON body once per cached output, which a disk
//! hit holds already as stored text ([`crate::CachedOutput`]), another
//! format's body once per work group, a point's piece once for every
//! experiment — and splices the pieces into every artifact
//! ([`crate::GridJob::artifact`]); the daemon writes that
//! same text into its `artifact` response line, from the interned
//! payload's memo when it holds it. [`artifact_json`] and
//! [`render_artifact`] build the whole artifact from the same field lists
//! in one go: they are the reference form the spliced text is tested
//! against byte for byte. `JsonValue::render` is deterministic and
//! round-trip stable, which is what makes the client's re-rendered files
//! match the CLI's bytes exactly.

use crate::grid::GridJob;
use cc_core::experiments::Entry;
use cc_report::{
    Comparison, ExperimentOutput, JsonValue, McComparison, MonteCarloMatrix, RunContext,
    ScenarioMatrix, ScenarioPoint,
};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Output format for artifacts and comparison reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Format {
    /// ASCII tables and charts (default).
    Text,
    /// Markdown sections.
    Markdown,
    /// CSV with `#` comment headers.
    Csv,
    /// One JSON document per artifact.
    Json,
}

impl Format {
    /// File extension for `--out` artifact files.
    #[must_use]
    pub fn extension(self) -> &'static str {
        match self {
            Self::Text => "txt",
            Self::Markdown => "md",
            Self::Csv => "csv",
            Self::Json => "json",
        }
    }
}

/// The members that identify the experiment, which every JSON artifact
/// opens with: `key`, `title`, `description` and `tags`. `repro --list
/// --json` lists them as one object per entry.
#[must_use]
pub fn head_fields(entry: &Entry) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("key", JsonValue::from(entry.key)),
        ("title", JsonValue::from(entry.id().to_string())),
        ("description", JsonValue::from(entry.description())),
        (
            "tags",
            JsonValue::array(entry.tags.iter().map(|t| JsonValue::from(t.name()))),
        ),
    ]
}

/// The members that describe the point: the sweep-point metadata when
/// sweeping, then the full scenario.
fn point_fields(ctx: &RunContext, point: Option<&ScenarioPoint>) -> Vec<(&'static str, JsonValue)> {
    let mut fields = Vec::with_capacity(2);
    if let Some(point) = point {
        fields.push(("point", point.to_json()));
    }
    fields.push(("scenario", ctx.scenario().to_json()));
    fields
}

/// The JSON artifact for one (experiment × scenario-point) job, as a value:
/// experiment identity and tags, the sweep-point metadata when sweeping,
/// the full scenario, and the experiment output.
///
/// `_experiment` is not read: `entry` is the experiment. The parameter
/// stays only for the benchmark harness's replay (`perfbench/`), which
/// ROADMAP direction 5 deletes.
#[must_use]
pub fn artifact_json(
    entry: &Entry,
    _experiment: &Entry,
    output: &ExperimentOutput,
    ctx: &RunContext,
    point: Option<&ScenarioPoint>,
) -> JsonValue {
    let mut fields = head_fields(entry);
    fields.extend(point_fields(ctx, point));
    fields.push(("output", output.to_json()));
    JsonValue::object(fields)
}

/// Renders one (experiment × scenario-point) artifact from an
/// already-computed output, whole: the reference form of the text
/// [`crate::GridJob::artifact`] assembles from shared pieces.
///
/// Like [`artifact_json`], it reads the experiment from `entry`; the
/// `experiment` parameter stays only for the benchmark harness's replay
/// (`perfbench/`), which ROADMAP direction 5 deletes.
#[must_use]
pub fn render_artifact(
    entry: &Entry,
    experiment: &Entry,
    output: &ExperimentOutput,
    ctx: &RunContext,
    point: Option<&ScenarioPoint>,
    format: Format,
) -> String {
    match format {
        Format::Json => artifact_json(entry, experiment, output, ctx, point).render(),
        _ => {
            let mut text = String::new();
            write_body(&mut text, entry, output, format);
            text
        }
    }
}

/// Where [`write_artifact`] takes the pieces a grid job shares with other
/// jobs from. A piece with a memo is rendered into it once, by whichever
/// job gets there first, and copied into every sharer's artifact; a piece
/// without one belongs to this job alone and is written in place. A JSON
/// body's memo is the job's cached output itself
/// ([`crate::CachedOutput::json`]).
#[derive(Clone, Copy)]
pub(crate) struct Shared<'a> {
    /// The head, shared by every point of the experiment.
    pub(crate) head: Option<&'a OnceLock<String>>,
    /// The point piece, shared by every experiment at the point.
    pub(crate) point: Option<&'a OnceLock<String>>,
    /// A non-JSON body, shared by the members of a work group.
    pub(crate) body: Option<&'a OnceLock<String>>,
    /// Whether the body is shared by the members of a work group. A
    /// shared JSON body is kept with the job's cached output, for them and
    /// for later runs that hit the entry; one a single job uses is written
    /// in place unless the output already holds it.
    pub(crate) keep_json: bool,
}

/// Appends a grid job's artifact to `out`: for JSON the head
/// (`{"key":…,"tags":[…]`), the point piece (`,"point":…,"scenario":…`),
/// then `,"output":` and the body (the output's JSON, copied when the
/// output already holds it) and the closing brace; for the other formats,
/// which never show the point or scenario, the body alone — the whole
/// artifact. Byte-identical to [`render_artifact`] on the job's fields.
pub(crate) fn write_artifact(out: &mut String, job: &GridJob<'_>) {
    let shared = job.shared;
    if job.format != Format::Json {
        let body = |out: &mut String| write_body(out, job.entry, job.output, job.format);
        return piece(out, shared.body, body);
    }
    piece(out, shared.head, |out| {
        JsonValue::object(head_fields(job.entry)).write(out);
        out.pop();
    });
    piece(out, shared.point, |out| {
        let start = out.len();
        JsonValue::object(point_fields(job.context, job.sweeping.then_some(job.point))).write(out);
        out.pop();
        out.replace_range(start..=start, ",");
    });
    out.push_str(",\"output\":");
    job.output.write_json(out, shared.keep_json);
    out.push('}');
}

/// Appends one piece to `out`: from its memo when it has one (rendering
/// it there first if no sharer has yet), written in place otherwise.
fn piece(out: &mut String, memo: Option<&OnceLock<String>>, write: impl FnOnce(&mut String)) {
    match memo {
        Some(memo) => out.push_str(memo.get_or_init(|| {
            let mut text = String::new();
            write(&mut text);
            text
        })),
        None => write(out),
    }
}

/// Appends the piece only the experiment and its output fix: the rendered
/// `output` object for JSON, and the whole artifact for the other formats.
fn write_body(out: &mut String, entry: &Entry, output: &ExperimentOutput, format: Format) {
    let (id, description) = (entry.id(), entry.description());
    let _ = match format {
        Format::Text => write!(
            out,
            "==============================================================\n\
             {id} — {description}\n\
             ==============================================================\n\
             {}",
            output.render()
        ),
        Format::Markdown => write!(
            out,
            "## {id} — {description}\n\n{}",
            output.render_markdown()
        ),
        Format::Csv => write!(out, "# {id} — {description}\n{}", output.render_csv()),
        Format::Json => {
            output.to_json().write(out);
            Ok(())
        }
    };
}

/// The cross-scenario comparison report, as a JSON value: the sweep specs,
/// point count, and every comparison.
#[must_use]
pub fn comparison_json(comparisons: &[Comparison], matrix: &ScenarioMatrix) -> JsonValue {
    JsonValue::object([
        (
            "sweep",
            JsonValue::array(matrix.specs().iter().map(|spec| {
                JsonValue::object([
                    ("path", JsonValue::from(spec.path.as_str())),
                    (
                        "values",
                        JsonValue::array(spec.values.iter().map(|v| JsonValue::from(v.as_str()))),
                    ),
                ])
            })),
        ),
        ("points", JsonValue::Integer(matrix.len() as u64)),
        (
            "comparisons",
            JsonValue::array(comparisons.iter().map(Comparison::to_json)),
        ),
    ])
}

/// Renders the cross-scenario comparison report in the selected format.
#[must_use]
pub fn render_comparisons(
    comparisons: &[Comparison],
    matrix: &ScenarioMatrix,
    format: Format,
) -> String {
    match format {
        Format::Json => comparison_json(comparisons, matrix).render(),
        Format::Markdown => {
            let mut out = String::from("# Cross-scenario comparison\n");
            for c in comparisons {
                out.push_str(&format!(
                    "\n## {} — {} ({})\n\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.to_table().to_markdown()
                ));
                if let Some(s) = c.summary() {
                    out.push_str(&format!(
                        "\nspread: min {:.4}, max {:.4}, mean {:.4}{}\n",
                        s.min,
                        s.max,
                        s.mean,
                        s.spread_ratio()
                            .map_or(String::new(), |r| format!(", {r:.2}x min..max")),
                    ));
                }
                for crossing in c.crossings() {
                    out.push_str(&format!("\ncrossing: {}\n", crossing.line));
                }
            }
            out
        }
        Format::Csv => {
            let mut out = String::new();
            for c in comparisons {
                out.push_str(&format!(
                    "# comparison: {} — {} ({})\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.to_table().to_csv()
                ));
                for crossing in c.crossings() {
                    out.push_str(&format!("# crossing: {}\n", crossing.line));
                }
            }
            out
        }
        Format::Text => {
            let mut out = format!(
                "==============================================================\n\
                 Cross-scenario comparison — {} sweep point(s)\n\
                 ==============================================================\n",
                matrix.len()
            );
            for c in comparisons {
                out.push_str(&format!(
                    "\n{} — {} ({})\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.to_table().render()
                ));
                if let Some(s) = c.summary() {
                    out.push_str(&format!(
                        "spread: min {:.4}, max {:.4}, mean {:.4}{}\n",
                        s.min,
                        s.max,
                        s.mean,
                        s.spread_ratio()
                            .map_or(String::new(), |r| format!(" ({r:.2}x min..max)")),
                    ));
                }
                for crossing in c.crossings() {
                    out.push_str(&format!("crossing: {}\n", crossing.line));
                }
            }
            out
        }
    }
}

/// The Monte-Carlo comparison report, as a JSON value: the sampling
/// parameters (`samples`, `seed`, `dists`) and one banded digest per
/// (experiment, tracked metric).
#[must_use]
pub fn mc_comparison_json(comparisons: &[McComparison], matrix: &MonteCarloMatrix) -> JsonValue {
    JsonValue::object([
        ("mc", matrix.to_json()),
        (
            "comparisons",
            JsonValue::array(comparisons.iter().map(McComparison::to_json)),
        ),
    ])
}

/// Renders the Monte-Carlo comparison report in the selected format: the
/// sampling parameters, then each metric's confidence-banded headline and
/// digest table.
#[must_use]
pub fn render_mc_comparisons(
    comparisons: &[McComparison],
    matrix: &MonteCarloMatrix,
    format: Format,
) -> String {
    let sampled = |prefix: &str| {
        matrix
            .bindings()
            .iter()
            .map(|b| format!("{prefix}sampled: {}\n", b.display()))
            .collect::<String>()
    };
    match format {
        Format::Json => mc_comparison_json(comparisons, matrix).render(),
        Format::Markdown => {
            let mut out = format!(
                "# Monte-Carlo comparison\n\n- samples: {}\n- seed: {}\n",
                matrix.len(),
                matrix.seed()
            );
            for binding in matrix.bindings() {
                out.push_str(&format!("- sampled: `{}`\n", binding.display()));
            }
            for c in comparisons {
                out.push_str(&format!(
                    "\n## {} — {} ({})\n\n{}\n\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.banded_line(),
                    c.to_table().to_markdown()
                ));
            }
            out
        }
        Format::Csv => {
            let mut out = format!(
                "# mc: samples={}, seed={}\n{}",
                matrix.len(),
                matrix.seed(),
                sampled("# ")
            );
            for c in comparisons {
                out.push_str(&format!(
                    "# comparison: {} — {} ({})\n# {}\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.banded_line(),
                    c.to_table().to_csv()
                ));
            }
            out
        }
        Format::Text => {
            let mut out = format!(
                "==============================================================\n\
                 Monte-Carlo comparison — {} samples, seed {}\n\
                 ==============================================================\n\
                 {}",
                matrix.len(),
                matrix.seed(),
                sampled("")
            );
            for c in comparisons {
                out.push_str(&format!("\n{}\n{}", c.banded_line(), c.to_table().render()));
            }
            out
        }
    }
}

/// A run's whole-run report, as [`crate::Engine::execute`] returns it,
/// with the matrix it renders against.
pub enum Report<'run> {
    /// A sweep's cross-scenario comparisons.
    Sweep(&'run ScenarioMatrix, Vec<Comparison>),
    /// A Monte-Carlo run's banded digests.
    Mc(&'run MonteCarloMatrix, Vec<McComparison>),
}

impl Report<'_> {
    /// The report's file name: `comparison.<ext>` or `mc-comparison.<ext>`.
    #[must_use]
    pub fn file_name(&self, format: Format) -> String {
        let stem = match self {
            Self::Sweep(..) => "comparison",
            Self::Mc(..) => "mc-comparison",
        };
        format!("{stem}.{}", format.extension())
    }

    /// The points or samples the report covers.
    #[must_use]
    pub fn cells(&self) -> usize {
        match self {
            Self::Sweep(matrix, _) => matrix.len(),
            Self::Mc(matrix, _) => matrix.len(),
        }
    }

    /// The report as a JSON value (the daemon's `comparison` payload).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            Self::Sweep(matrix, comparisons) => comparison_json(comparisons, matrix),
            Self::Mc(matrix, comparisons) => mc_comparison_json(comparisons, matrix),
        }
    }

    /// The report rendered in `format`.
    #[must_use]
    pub fn render(&self, format: Format) -> String {
        match self {
            Self::Sweep(matrix, comparisons) => render_comparisons(comparisons, matrix, format),
            Self::Mc(matrix, comparisons) => render_mc_comparisons(comparisons, matrix, format),
        }
    }
}

/// Replaces filename-hostile characters in a sweep-point label.
#[must_use]
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// The artifact filename for one job: `fig10@label.json` when sweeping,
/// `fig10.json` otherwise.
#[must_use]
pub fn artifact_file_name(key: &str, point: Option<&ScenarioPoint>, format: Format) -> String {
    match point {
        Some(point) => format!("{key}@{}.{}", sanitize(&point.label), format.extension()),
        None => format!("{key}.{}", format.extension()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_follow_the_cli_convention() {
        assert_eq!(
            artifact_file_name("fig10", None, Format::Json),
            "fig10.json"
        );
        assert_eq!(artifact_file_name("fig10", None, Format::Csv), "fig10.csv");
    }

    #[test]
    fn sanitize_keeps_filename_safe_characters() {
        assert_eq!(sanitize("grid.intensity=50"), "grid.intensity-50");
        assert_eq!(sanitize("a b/c"), "a-b-c");
    }

    #[test]
    fn mc_report_renders_in_every_format() {
        let matrix = MonteCarloMatrix::new(
            cc_report::Scenario::paper_defaults(),
            vec![cc_report::DistBinding::parse("fab.node_nm ~ triangular(5,7,10)").unwrap()],
            10_000,
            7,
        )
        .unwrap();
        let comparisons = vec![McComparison {
            experiment: "ext-facility".to_string(),
            metric: "cumulative-breakeven-year".to_string(),
            unit: "year".to_string(),
            threshold: None,
            stats: cc_analysis::stats::BandedSummary {
                n: 10_000,
                mean: 2014.6,
                stddev: 0.49,
                min: 2013.2,
                max: 2016.1,
                p05: 2013.8,
                p50: 2014.6,
                p95: 2015.4,
            },
        }];
        let text = render_mc_comparisons(&comparisons, &matrix, Format::Text);
        assert!(text.contains("Monte-Carlo comparison — 10000 samples, seed 7"));
        assert!(text.contains("sampled: fab.node_nm ~ triangular(5,7,10)"));
        assert!(text.contains("90% CI ±0.8 year"));
        let md = render_mc_comparisons(&comparisons, &matrix, Format::Markdown);
        assert!(md.contains("# Monte-Carlo comparison"));
        assert!(md.contains("- seed: 7"));
        let csv = render_mc_comparisons(&comparisons, &matrix, Format::Csv);
        assert!(csv.starts_with("# mc: samples=10000, seed=7\n"));
        let json = render_mc_comparisons(&comparisons, &matrix, Format::Json);
        let parsed = JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed
                .get("mc")
                .and_then(|m| m.get("seed"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
        assert!(json.contains(r#""p95":2015.4"#));
    }
}
