//! Figure 6: carbon breakdown and absolute footprint across device
//! categories.

use cc_lca::inventory;
use cc_report::{table::num, ExperimentOutput, RunContext, Table};

/// Reproduces Fig 6.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let summaries = inventory::all_categories();

    let mut top = Table::new([
        "Category",
        "Power model",
        "Devices",
        "Manufacturing share (mean +/- std)",
        "Use share (mean +/- std)",
    ]);
    for s in &summaries {
        top.row([
            s.category.to_string(),
            if s.category.is_battery_operated() {
                "battery".to_string()
            } else {
                "always connected".to_string()
            },
            s.count.to_string(),
            format!(
                "{:.0}% +/- {:.0}%",
                s.manufacturing_share_mean * 100.0,
                s.manufacturing_share_std * 100.0
            ),
            format!(
                "{:.0}% +/- {:.0}%",
                s.use_share_mean * 100.0,
                s.use_share_std * 100.0
            ),
        ]);
    }
    out.table("Breakdown by category (Fig 6 top)", top);

    let mut bottom = Table::new([
        "Category",
        "Total (kg CO2e, mean)",
        "Manufacturing (kg, mean)",
        "Use (kg, mean)",
    ]);
    for s in &summaries {
        bottom.row([
            s.category.to_string(),
            num(s.total_mean.as_kg(), 0),
            num(s.manufacturing_mean.as_kg(), 0),
            num(s.use_mean.as_kg(), 0),
        ]);
    }
    out.table("Absolute footprint by category (Fig 6 bottom)", bottom);

    let battery: Vec<_> = summaries
        .iter()
        .filter(|s| s.category.is_battery_operated())
        .collect();
    let avg_mfg: f64 = battery
        .iter()
        .map(|s| s.manufacturing_share_mean)
        .sum::<f64>()
        / battery.len() as f64;
    out.scalar("battery-manufacturing-share", "%", avg_mfg * 100.0);
    out.note(format!(
        "paper: manufacturing ~75% for battery-powered devices; measured {:.0}%",
        avg_mfg * 100.0
    ));
    out.note("paper: always-connected devices (speakers, desktops, consoles) are use-dominated");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_categories_in_both_panels() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables[0].1.len(), 8);
        assert_eq!(out.tables[1].1.len(), 8);
    }

    #[test]
    fn battery_manufacturing_share_is_about_75_percent() {
        let out = run(&RunContext::paper());
        let note = &out.notes[0];
        let measured: f64 = note
            .rsplit_once("measured ")
            .unwrap()
            .1
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!((measured - 70.0).abs() < 8.0, "measured {measured}%");
    }
}
