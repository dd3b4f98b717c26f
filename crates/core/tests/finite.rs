//! Every accepted input yields finite numbers: a walk over the numeric
//! rows of the scenario `FIELDS` table.
//!
//! Each numeric row is set, one row at a time, to every value of a fixed
//! ladder spanning zero, the subnormal edge, fractions, unity and the
//! largest magnitudes. Every value the validator accepts runs each
//! experiment whose declared dependencies cover the row, and no scalar,
//! series point or table cell of the output may be infinite or NaN.

use cc_core::experiments::entries;
use cc_report::scenario::deps::FIELDS;
use cc_report::{ExperimentOutput, RunContext, Scenario};

const LADDER: [&str; 8] = ["0", "1e-300", "1e-9", "0.5", "1", "2", "1e6", "1e300"];

/// The field types whose values are numbers.
const NUMERIC: [&str; 4] = ["f64", "u16", "u32", "u64"];

/// Whether a rendered cell shows a non-finite number: `NaN` anywhere
/// (`NaN%` included), or an `inf` token, possibly signed or suffixed with
/// a unit mark (`inf%`, `-infx`) — but not a word such as `inference`.
fn shows_non_finite(cell: &str) -> bool {
    cell.contains("NaN")
        || cell
            .split(|c: char| c.is_whitespace() || "(),/=:%".contains(c))
            .map(|token| token.trim_start_matches(['-', '+']))
            .any(|token| token == "inf" || token == "infx")
}

/// Every non-finite number in `output`, described.
fn non_finite(output: &ExperimentOutput) -> Vec<String> {
    let mut found = Vec::new();
    for scalar in &output.scalars {
        if !scalar.value.is_finite() {
            found.push(format!("scalar `{}` = {}", scalar.name, scalar.value));
        }
    }
    for series in &output.series {
        for point in &series.points {
            if !(point.x.is_finite() && point.y.is_finite()) {
                found.push(format!(
                    "series `{}` point ({}, {})",
                    series.name, point.x, point.y
                ));
            }
        }
    }
    for (title, table) in &output.tables {
        for row in std::iter::once(table.header()).chain(table.rows().iter().map(Vec::as_slice)) {
            for cell in row.iter().filter(|cell| shows_non_finite(cell)) {
                found.push(format!("table `{title}` cell `{cell}`"));
            }
        }
    }
    found
}

#[test]
fn the_cell_check_tells_numbers_from_words() {
    for cell in ["inf", "-inf", "NaN%", "inf%", "2.0x (infx)", "a / inf"] {
        assert!(shows_non_finite(cell), "{cell}");
    }
    for cell in [
        "inference",
        "Simulated Pixel 3 inference",
        "1.5x",
        "-3.2%",
        "info",
    ] {
        assert!(!shows_non_finite(cell), "{cell}");
    }
}

#[test]
fn every_accepted_numeric_field_value_yields_finite_outputs() {
    let mut runs = 0;
    let mut failures = Vec::new();
    for field in FIELDS.iter().filter(|f| NUMERIC.contains(&f.ty)) {
        let covering: Vec<_> = entries()
            .iter()
            .filter(|entry| entry.deps().iter().any(|dep| dep.matches(field.path)))
            .collect();
        for value in LADDER {
            let mut scenario = Scenario::paper_defaults();
            if scenario.set(field.path, value).is_err() {
                continue;
            }
            let Ok(context) = RunContext::try_new(scenario) else {
                continue;
            };
            for entry in &covering {
                runs += 1;
                let output = entry.build().run(&context);
                failures.extend(
                    non_finite(&output)
                        .into_iter()
                        .map(|what| format!("{}={value}: {}: {what}", field.path, entry.key)),
                );
            }
        }
    }
    assert!(runs > 100, "the walk ran only {runs} experiments");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
