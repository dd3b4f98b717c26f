//! What an experiment produces: every paper figure/table, keyed by an
//! [`ExperimentId`], yields an [`ExperimentOutput`] of tables, typed series,
//! summary scalars and commentary.

use crate::json::JsonValue;
use crate::series::Series;
use crate::table::Table;

/// Identifier of a paper artifact being reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExperimentId {
    /// A numbered figure.
    Figure(u8),
    /// A numbered table (1 = Table I, …).
    Table(u8),
    /// A named extension experiment (not in the paper's evaluation).
    Extension(&'static str),
}

/// Formats `n` as a roman numeral (any `u8`; `0` stays `"0"` since roman
/// numerals have no zero).
fn roman(n: u8) -> String {
    if n == 0 {
        return "0".to_string();
    }
    const DIGITS: [(u8, &str); 9] = [
        (100, "C"),
        (90, "XC"),
        (50, "L"),
        (40, "XL"),
        (10, "X"),
        (9, "IX"),
        (5, "V"),
        (4, "IV"),
        (1, "I"),
    ];
    let mut n = n;
    let mut out = String::new();
    for (value, digit) in DIGITS {
        while n >= value {
            out.push_str(digit);
            n -= value;
        }
    }
    out
}

impl core::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Figure(n) => write!(f, "Figure {n}"),
            Self::Table(n) => write!(f, "Table {}", roman(*n)),
            Self::Extension(name) => write!(f, "Extension `{name}`"),
        }
    }
}

/// A decision threshold attached to a [`Scalar`]: the value at which the
/// experiment's conclusion flips, plus a label saying what flips. Sweep
/// comparisons use it to report *where along the swept axis* the scalar
/// crosses the threshold ("construction overtakes operations at growth ≈
/// 1.18").
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarThreshold {
    /// The threshold value, in the scalar's unit.
    pub value: f64,
    /// What crossing the threshold means (e.g. `"one-year amortization"`).
    pub label: String,
}

impl ScalarThreshold {
    /// The threshold as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("value", JsonValue::from(self.value)),
            ("label", JsonValue::from(self.label.as_str())),
        ])
    }
}

/// A named headline number with a unit — the single value a cross-scenario
/// comparison report diffs for this experiment (e.g. Fig 10's MobileNet-v3
/// CPU break-even days). The first scalar an experiment attaches is its
/// summary scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalar {
    /// Scalar name (unique within one experiment output).
    pub name: String,
    /// Unit label (e.g. `"days"`, `"kg CO2e"`).
    pub unit: String,
    /// The value.
    pub value: f64,
    /// Optional decision threshold for sweep crossover analysis.
    pub threshold: Option<ScalarThreshold>,
}

impl Scalar {
    /// The scalar as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", JsonValue::from(self.name.as_str())),
            ("unit", JsonValue::from(self.unit.as_str())),
            ("value", JsonValue::from(self.value)),
            (
                "threshold",
                self.threshold
                    .as_ref()
                    .map_or(JsonValue::Null, ScalarThreshold::to_json),
            ),
        ])
    }
}

/// The output of running an experiment: named tables, typed series, summary
/// scalars, plus free-form notes recording paper-vs-measured anchors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentOutput {
    /// Titled tables, in presentation order.
    pub tables: Vec<(String, Table)>,
    /// Typed series artifacts, in presentation order.
    pub series: Vec<Series>,
    /// Named headline numbers; the first is the experiment's summary scalar.
    pub scalars: Vec<Scalar>,
    /// Commentary lines: what the paper reports vs what this run measured.
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Creates an empty output.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a titled table.
    pub fn table(&mut self, title: impl Into<String>, table: Table) -> &mut Self {
        self.tables.push((title.into(), table));
        self
    }

    /// Adds a typed series.
    pub fn series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Adds a commentary line.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Adds a named scalar; the first one added becomes the experiment's
    /// summary scalar.
    pub fn scalar(
        &mut self,
        name: impl Into<String>,
        unit: impl Into<String>,
        value: f64,
    ) -> &mut Self {
        self.scalars.push(Scalar {
            name: name.into(),
            unit: unit.into(),
            value,
            threshold: None,
        });
        self
    }

    /// Adds a named scalar carrying a decision threshold: sweep comparisons
    /// report where along the swept axis the scalar crosses it.
    pub fn scalar_with_threshold(
        &mut self,
        name: impl Into<String>,
        unit: impl Into<String>,
        value: f64,
        threshold: f64,
        threshold_label: impl Into<String>,
    ) -> &mut Self {
        self.scalars.push(Scalar {
            name: name.into(),
            unit: unit.into(),
            value,
            threshold: Some(ScalarThreshold {
                value: threshold,
                label: threshold_label.into(),
            }),
        });
        self
    }

    /// Appends `part` in order: the rows of a table whose title is already
    /// present extend that table, and every other table, series, scalar and
    /// note follows this output's own. Assembling an experiment's parts this
    /// way reproduces the output of running it whole.
    pub fn append(&mut self, part: &Self) {
        for (title, table) in &part.tables {
            match self.tables.iter_mut().find(|(t, _)| t == title) {
                Some((_, existing)) => {
                    for row in table.rows() {
                        existing.row(row.iter().cloned());
                    }
                }
                None => self.tables.push((title.clone(), table.clone())),
            }
        }
        self.series.extend_from_slice(&part.series);
        self.scalars.extend_from_slice(&part.scalars);
        self.notes.extend_from_slice(&part.notes);
    }

    /// Renders everything as Markdown (tables become GFM tables, notes a
    /// bullet list; series are artifact data and are skipped).
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        for (title, table) in &self.tables {
            out.push_str("### ");
            out.push_str(title);
            out.push_str("\n\n");
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        for scalar in &self.scalars {
            out.push_str(&format!(
                "- **{}**: {} {}\n",
                scalar.name, scalar.value, scalar.unit
            ));
        }
        for note in &self.notes {
            out.push_str("- ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// Renders every table as CSV, separated by blank lines (notes are
    /// emitted as `# ` comment lines).
    #[must_use]
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        for (title, table) in &self.tables {
            out.push_str("# ");
            out.push_str(title);
            out.push('\n');
            out.push_str(&table.to_csv());
            out.push('\n');
        }
        for scalar in &self.scalars {
            out.push_str(&format!(
                "# scalar: {},{},{}\n",
                scalar.name, scalar.value, scalar.unit
            ));
        }
        for note in &self.notes {
            out.push_str("# note: ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// The output as a JSON object: `tables`, `series`, `notes`.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "tables",
                JsonValue::array(self.tables.iter().map(|(title, table)| {
                    JsonValue::object([
                        ("title", JsonValue::from(title.as_str())),
                        (
                            "header",
                            JsonValue::array(
                                table.header().iter().map(|h| JsonValue::from(h.as_str())),
                            ),
                        ),
                        (
                            "rows",
                            JsonValue::array(table.rows().iter().map(|row| {
                                JsonValue::array(
                                    row.iter().map(|cell| JsonValue::from(cell.as_str())),
                                )
                            })),
                        ),
                    ])
                })),
            ),
            (
                "series",
                JsonValue::array(self.series.iter().map(Series::to_json)),
            ),
            (
                "scalars",
                JsonValue::array(self.scalars.iter().map(Scalar::to_json)),
            ),
            (
                "notes",
                JsonValue::array(self.notes.iter().map(|n| JsonValue::from(n.as_str()))),
            ),
        ])
    }

    /// Reconstructs an output from [`Self::to_json`]'s object shape — the
    /// exact inverse: `from_json(&out.to_json()) == Some(out)` for every
    /// finite output. Any structural mismatch (missing key, wrong type)
    /// yields `None`; the persistent cache treats that as a corrupt entry,
    /// i.e. a miss.
    #[must_use]
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        fn strings(value: &JsonValue) -> Option<Vec<String>> {
            value
                .as_array()?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect()
        }
        let mut output = Self::new();
        for table in value.get("tables")?.as_array()? {
            let mut t = Table::new(strings(table.get("header")?)?);
            for row in table.get("rows")?.as_array()? {
                t.row(strings(row)?);
            }
            let title = table.get("title")?.as_str()?.to_string();
            output.tables.push((title, t));
        }
        for series in value.get("series")?.as_array()? {
            let mut s = Series::new(
                series.get("name")?.as_str()?,
                series.get("x_label")?.as_str()?,
                series.get("y_label")?.as_str()?,
            );
            for point in series.get("points")?.as_array()? {
                let x = point.get("x")?.as_f64()?;
                let y = point.get("y")?.as_f64()?;
                match point.get("label")? {
                    JsonValue::Null => s.push(x, y),
                    label => s.push_labeled(x, label.as_str()?, y),
                };
            }
            output.series.push(s);
        }
        for scalar in value.get("scalars")?.as_array()? {
            let threshold = match scalar.get("threshold")? {
                JsonValue::Null => None,
                threshold => Some(ScalarThreshold {
                    value: threshold.get("value")?.as_f64()?,
                    label: threshold.get("label")?.as_str()?.to_string(),
                }),
            };
            output.scalars.push(Scalar {
                name: scalar.get("name")?.as_str()?.to_string(),
                unit: scalar.get("unit")?.as_str()?.to_string(),
                value: scalar.get("value")?.as_f64()?,
                threshold,
            });
        }
        for note in value.get("notes")?.as_array()? {
            output.notes.push(note.as_str()?.to_string());
        }
        Some(output)
    }

    /// Renders everything to text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, table) in &self.tables {
            out.push_str(title);
            out.push('\n');
            out.push_str(&table.render());
            out.push('\n');
        }
        for scalar in &self.scalars {
            out.push_str(&format!(
                "scalar: {} = {} {}\n",
                scalar.name, scalar.value, scalar.unit
            ));
        }
        for note in &self.notes {
            out.push_str("note: ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_roman_numerals_for_tables() {
        assert_eq!(ExperimentId::Table(4).to_string(), "Table IV");
        assert_eq!(ExperimentId::Figure(10).to_string(), "Figure 10");
        assert_eq!(ExperimentId::Extension("x").to_string(), "Extension `x`");
    }

    #[test]
    fn roman_numerals_beyond_the_paper_range() {
        for (n, expect) in [
            (0, "0"),
            (1, "I"),
            (4, "IV"),
            (6, "VI"),
            (9, "IX"),
            (14, "XIV"),
            (40, "XL"),
            (99, "XCIX"),
            (148, "CXLVIII"),
            (255, "CCLV"),
        ] {
            assert_eq!(
                ExperimentId::Table(n).to_string(),
                format!("Table {expect}")
            );
        }
    }

    #[test]
    fn markdown_and_csv_renderings() {
        let mut out = ExperimentOutput::new();
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        out.table("T", t).note("n");
        let md = out.render_markdown();
        assert!(md.contains("### T"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("- n"));
        let csv = out.render_csv();
        assert!(csv.contains("# T"));
        assert!(csv.contains("a,b"));
        assert!(csv.contains("# note: n"));
    }

    #[test]
    fn output_renders_tables_and_notes() {
        let mut out = ExperimentOutput::new();
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        out.table("My table", t)
            .note("paper: 2.7x; measured: 2.70x");
        let text = out.render();
        assert!(text.contains("My table"));
        assert!(text.contains("note: paper"));
    }

    #[test]
    fn scalars_render_everywhere_and_first_is_summary() {
        let mut out = ExperimentOutput::new();
        out.scalar("breakeven-days", "days", 350.0)
            .scalar("breakeven-images", "images", 5e9);
        assert_eq!(out.scalars.first().unwrap().name, "breakeven-days");
        assert_eq!(out.scalars[1].value, 5e9);
        assert!(out.render().contains("scalar: breakeven-days = 350 days"));
        assert!(out
            .render_markdown()
            .contains("**breakeven-days**: 350 days"));
        assert!(out
            .render_csv()
            .contains("# scalar: breakeven-days,350,days"));
        assert!(out.to_json().render().contains(
            r#""scalars":[{"name":"breakeven-days","unit":"days","value":350.0,"threshold":null}"#
        ));
    }

    #[test]
    fn thresholds_attach_and_serialize() {
        let mut out = ExperimentOutput::new();
        out.scalar_with_threshold(
            "breakeven-days",
            "days",
            350.0,
            365.0,
            "one-year amortization",
        );
        let scalar = out.scalars.first().unwrap();
        let threshold = scalar.threshold.as_ref().unwrap();
        assert_eq!(threshold.value, 365.0);
        assert!(out
            .to_json()
            .render()
            .contains(r#""threshold":{"value":365.0,"label":"one-year amortization"}"#));
    }

    #[test]
    fn from_json_inverts_to_json_exactly() {
        let mut out = ExperimentOutput::new();
        let mut t = Table::new(["device", "kg CO2e"]);
        t.row(["cpu", "18.2"]).row(["dsp", "3.4"]);
        let mut s = Series::new("trend", "year", "kg");
        s.push(2020.0, 5.5).push_labeled(2021.0, "cpu", 6.25);
        out.table("Embodied", t)
            .series(s)
            .scalar("breakeven-days", "days", 350.0)
            .scalar_with_threshold("ratio", "x", 1.28, 1.0, "parity")
            .note("paper: 2.7x; measured: 2.70x");
        let round_tripped = ExperimentOutput::from_json(&out.to_json()).unwrap();
        assert_eq!(round_tripped, out);
        // And the re-rendered JSON is byte-identical (floats via `{:?}`).
        assert_eq!(round_tripped.to_json().render(), out.to_json().render());
    }

    #[test]
    fn append_extends_same_titled_tables_and_keeps_part_order() {
        let mut whole = ExperimentOutput::new();
        let mut t = Table::new(["claim", "median"]);
        t.row(["a", "1"]).row(["b", "2"]);
        whole.table("Headlines", t).scalar("a", "x", 1.0).note("n");

        let mut first = ExperimentOutput::new();
        let mut t = Table::new(["claim", "median"]);
        t.row(["a", "1"]);
        first.table("Headlines", t).scalar("a", "x", 1.0);
        let mut second = ExperimentOutput::new();
        let mut t = Table::new(["claim", "median"]);
        t.row(["b", "2"]);
        second.table("Headlines", t).note("n");

        first.append(&second);
        assert_eq!(first, whole);
        assert_eq!(first.to_json().render(), whole.to_json().render());
        // A new title becomes a new table after the existing ones.
        let mut other = ExperimentOutput::new();
        other.table("Other", Table::new(["k"]));
        first.append(&other);
        assert_eq!(first.tables.len(), 2);
        assert_eq!(first.tables[1].0, "Other");
    }

    #[test]
    fn from_json_rejects_malformed_shapes() {
        use crate::json::JsonValue;
        for bad in [
            "null",
            "{}",
            r#"{"tables":[],"series":[],"scalars":[],"notes":null}"#,
            r#"{"tables":[{"title":"T"}],"series":[],"scalars":[],"notes":[]}"#,
            r#"{"tables":[],"series":[],"scalars":[{"name":"s","unit":"u","value":"oops","threshold":null}],"notes":[]}"#,
        ] {
            let value = JsonValue::parse(bad).unwrap();
            assert!(ExperimentOutput::from_json(&value).is_none(), "`{bad}`");
        }
    }

    #[test]
    fn output_json_includes_tables_series_and_notes() {
        let mut out = ExperimentOutput::new();
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        let mut s = Series::new("trend", "year", "kg");
        s.push(2020.0, 5.0);
        out.table("T", t).series(s).note("anchor");
        let json = out.to_json().render();
        assert!(json.contains(r#""title":"T""#));
        assert!(json.contains(r#""name":"trend""#));
        assert!(json.contains(r#""notes":["anchor"]"#));
        assert_eq!(out.series[0].points.len(), 1);
    }
}
