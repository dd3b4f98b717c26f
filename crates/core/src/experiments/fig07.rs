//! Figure 7: emissions across iPhone, Apple Watch and iPad generations.

use cc_lca::generational::Family;
use cc_report::{table::num, ExperimentOutput, RunContext, Series, Table};

/// Reproduces Fig 7.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut iphone_rise_pp = 0.0;
    for family in Family::fig7_families() {
        let mut t = Table::new([
            "Generation",
            "Year",
            "Total (kg)",
            "Manufacturing share",
            "Manufacturing (kg)",
            "Use (kg)",
        ]);
        for d in family.records() {
            t.row([
                d.name.to_string(),
                d.year.to_string(),
                num(d.total_kg, 0),
                format!("{:.0}%", d.production_share * 100.0),
                num(d.production().as_kg(), 1),
                num(d.use_phase().as_kg(), 1),
            ]);
        }
        out.table(format!("{} generations", family.name), t);

        let share = family.manufacturing_share_series();
        out.series(Series::from_pairs(
            format!(
                "manufacturing-share-{}",
                family.name.to_lowercase().replace(' ', "-")
            ),
            "year",
            "manufacturing share",
            share.iter().map(|(y, v)| (f64::from(y), v)),
        ));
        let (first, last) = (
            share.values().next().unwrap_or(0.0),
            share.values().last().unwrap_or(0.0),
        );
        if family.name.contains("iPhone") {
            iphone_rise_pp = (last - first) * 100.0;
        }
        out.note(format!(
            "{}: manufacturing share {:.0}% -> {:.0}%",
            family.name,
            first * 100.0,
            last * 100.0
        ));
    }
    out.scalar("iphone-manufacturing-share-rise", "pp", iphone_rise_pp);
    out.note("paper anchors: iPhone 40%->75% (3GS->XR), Watch 60%->75%, iPad 60%->75%");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_family_tables() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables.len(), 3);
        assert!(out.tables[0].0.contains("iPhone"));
    }

    #[test]
    fn share_notes_show_increase() {
        let out = run(&RunContext::paper());
        for note in out.notes.iter().take(3) {
            let (a, b) = note
                .rsplit_once("share ")
                .unwrap()
                .1
                .split_once(" -> ")
                .unwrap();
            let first: f64 = a.trim_end_matches('%').parse().unwrap();
            let last: f64 = b.trim_end_matches('%').parse().unwrap();
            assert!(last > first, "{note}");
        }
    }
}
