//! Table III: global carbon efficiency of energy production.

use cc_data::grids::Region;
use cc_report::{table::num, ExperimentOutput, RunContext, Table};

/// Reproduces Table III.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut t = Table::new(["Geographic average", "g CO2e/kWh", "Dominant source"]);
    for region in Region::ALL {
        t.row([
            region.to_string(),
            num(region.carbon_intensity().as_g_per_kwh(), 0),
            region.dominant_source().unwrap_or("-").to_string(),
        ]);
    }
    out.table(
        "Table III: global carbon efficiency of energy production",
        t,
    );
    let spread = Region::ALL
        .iter()
        .map(|r| r.carbon_intensity().as_g_per_kwh())
        .fold(f64::NEG_INFINITY, f64::max)
        / Region::ALL
            .iter()
            .map(|r| r.carbon_intensity().as_g_per_kwh())
            .fold(f64::INFINITY, f64::min);
    out.scalar("dirtiest-to-cleanest-grid-spread", "x", spread);
    out.note("the US average (380 g/kWh) is the baseline for the Fig 10 break-even analysis");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_regions_with_us_at_380() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.rows().len(), 9);
        let us = t.rows().iter().find(|r| r[0] == "United States").unwrap();
        assert_eq!(us[1], "380");
    }
}
