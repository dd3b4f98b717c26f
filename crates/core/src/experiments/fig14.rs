//! Figure 14: TSMC wafer-manufacturing carbon vs renewable-energy scaling.

use cc_fab::wafer::{WaferFootprint, FIG14_FACTORS};
use cc_report::{ExperimentOutput, RunContext, Series, Table};

/// Reproduces Fig 14 by sweeping the wafer model.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let wafer = WaferFootprint::tsmc_300mm();

    let mut header: Vec<String> = vec!["Renewable factor".into(), "Total (normalized)".into()];
    header.extend(wafer.components().map(|(l, _, _)| l.to_string()));
    let mut t = Table::new(header);
    let base_total = wafer.total();
    let mut normalized = Series::new(
        "wafer-total-normalized",
        "renewable factor",
        "fraction of baseline",
    );
    for &factor in &FIG14_FACTORS {
        let scaled = wafer.with_renewable_scaling(factor);
        normalized.push(factor, scaled.total() / base_total);
        let mut row = vec![
            format!("{factor:.0}x"),
            format!("{:.3}", scaled.total() / base_total),
        ];
        for (_, carbon, _) in scaled.components() {
            row.push(format!("{:.1}%", 100.0 * (carbon / base_total)));
        }
        t.row(row);
    }
    out.table(
        "Wafer footprint vs renewable scaling (shares of baseline)",
        t,
    );
    out.series(normalized);

    let reduction = base_total / wafer.with_renewable_scaling(64.0).total();
    out.scalar("reduction-at-64x", "x", reduction);
    out.note(format!(
        "paper: a 64x boost in renewable energy reduces overall wafer carbon ~2.7x; \
         measured {reduction:.2}x"
    ));
    out.note(format!(
        "baseline energy share {:.0}% (paper: over 63%)",
        100.0 * (wafer.energy_carbon() / wafer.total())
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_sweep_rows() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables[0].1.len(), 7);
    }

    #[test]
    fn reduction_note_matches_paper() {
        let out = run(&RunContext::paper());
        let measured: f64 = out.notes[0]
            .rsplit_once("measured ")
            .unwrap()
            .1
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!((measured - 2.7).abs() < 0.1, "{measured}");
    }
}
