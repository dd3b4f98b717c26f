//! Figure 1: projected growth of global ICT energy consumption.

use cc_data::ict::{self, Scenario, Segment};
use cc_report::{table::num, ExperimentOutput, RunContext, Series, Table};

/// Reproduces Fig 1's optimistic and expected ICT-energy projections.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    for scenario in Scenario::ALL {
        let mut t = Table::new([
            "Year",
            "Consumer (TWh)",
            "Networking (TWh)",
            "Datacenter (TWh)",
            "Total (TWh)",
            "Share of global demand",
        ]);
        let totals = ict::total_twh(scenario);
        for (i, year) in ict::YEARS.iter().enumerate() {
            let consumer = ict::segment_twh(scenario, Segment::ConsumerDevices)[i];
            let network = ict::segment_twh(scenario, Segment::Networking)[i];
            let dc = ict::segment_twh(scenario, Segment::Datacenter)[i];
            let share = totals[i] / ict::GLOBAL_DEMAND_TWH[i];
            t.row([
                year.to_string(),
                num(consumer, 0),
                num(network, 0),
                num(dc, 0),
                num(totals[i], 0),
                format!("{:.1}%", share * 100.0),
            ]);
        }
        out.table(format!("{scenario} ICT energy projections"), t);
        out.series(Series::from_pairs(
            format!("total-twh-{}", scenario.to_string().to_lowercase()),
            "year",
            "TWh",
            ict::YEARS
                .iter()
                .zip(&totals)
                .map(|(&y, &v)| (f64::from(y), v)),
        ));
    }
    let opt_2030 = ict::total_twh(Scenario::Optimistic)[4] / ict::GLOBAL_DEMAND_TWH[4];
    let exp_2030 = ict::total_twh(Scenario::Expected)[4] / ict::GLOBAL_DEMAND_TWH[4];
    out.scalar("expected-2030-demand-share", "%", exp_2030 * 100.0);
    out.note(format!(
        "paper: 7% of global demand by 2030 (optimistic); measured {:.1}%",
        opt_2030 * 100.0
    ));
    out.note(format!(
        "paper: 20% of global demand by 2030 (expected); measured {:.1}%",
        exp_2030 * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_two_scenario_tables_with_five_years() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables.len(), 2);
        for (_, table) in &out.tables {
            assert_eq!(table.len(), 5);
        }
        assert_eq!(out.notes.len(), 2);
    }

    #[test]
    fn shares_hit_paper_anchors() {
        let out = run(&RunContext::paper());
        // The last row of each table carries the 2030 share.
        let opt_share = out.tables[0].1.rows().last().unwrap()[5].clone();
        assert!(
            opt_share.starts_with("6.") || opt_share.starts_with("7."),
            "{opt_share}"
        );
        let exp_share = out.tables[1].1.rows().last().unwrap()[5].clone();
        assert!(exp_share.starts_with("20"), "{exp_share}");
    }
}
