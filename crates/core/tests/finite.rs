//! Every accepted input yields finite numbers: a walk over the numeric
//! rows of the scenario `FIELDS` table.
//!
//! Each numeric row is set, one row at a time, to every value of a fixed
//! ladder spanning zero, the subnormal edge, fractions, unity and the
//! largest magnitudes. Every value the validator accepts runs each
//! experiment whose declared dependencies cover the row; no scalar or
//! series point may be infinite or NaN, nor may the printed text (table
//! titles and cells, scalars, notes) show one. Every experiment also runs
//! at the paper defaults, which is what one that does not read the row
//! prints, so a whole-suite run at each ladder value is covered.

use cc_core::experiments::entries;
use cc_report::scenario::deps::FIELDS;
use cc_report::{ExperimentOutput, RunContext, Scenario};

const LADDER: [&str; 10] = [
    "0", "1e-300", "1e-9", "0.3", "0.5", "1", "2", "100", "1e6", "1e300",
];

/// The field types whose values are numbers.
const NUMERIC: [&str; 4] = ["f64", "u16", "u32", "u64"];

/// Whether rendered text shows a non-finite number: `NaN` anywhere
/// (`NaN%`, `NaNx` included), or an `inf` or `nan` word in any case, also
/// with the `x` unit mark (`-infx`), but not a word such as `inference`.
/// It flags every line `grep -wiE 'NaN|inf'` does.
fn shows_non_finite(text: &str) -> bool {
    text.contains("NaN")
        || text
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|word| {
                ["inf", "infx", "nan"]
                    .iter()
                    .any(|bad| word.eq_ignore_ascii_case(bad))
            })
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
    for line in output
        .render()
        .lines()
        .filter(|line| shows_non_finite(line))
    {
        found.push(format!("printed line `{line}`"));
    }
    found
}

#[test]
fn the_cell_check_tells_numbers_from_words() {
    for cell in ["inf", "-inf", "NaN%", "inf%", "2.0x (infx)", "a / inf"] {
        assert!(shows_non_finite(cell), "{cell}");
    }
    // Any case, next to any punctuation, as `grep -wi` matches.
    for cell in ["inf..Inf", "nan;"] {
        assert!(shows_non_finite(cell), "{cell}");
    }
    for cell in [
        "inference",
        "Simulated Pixel 3 inference",
        "1.5x",
        "-3.2%",
        "info",
        "infinite",
        "nano",
    ] {
        assert!(!shows_non_finite(cell), "{cell}");
    }
}

#[test]
fn every_accepted_numeric_field_value_yields_finite_outputs() {
    let mut runs = 0;
    let mut failures = Vec::new();
    let defaults = RunContext::new(Scenario::paper_defaults());
    for entry in entries() {
        runs += 1;
        for what in non_finite(&entry.run(&defaults)) {
            failures.push(format!("paper defaults: {}: {what}", entry.key));
        }
    }
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
                let output = entry.run(&context);
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
