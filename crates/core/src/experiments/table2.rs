//! Table II: carbon efficiency of energy sources.

use cc_data::energy_sources::EnergySource;
use cc_report::{table::num, ExperimentOutput, RunContext, Table};

/// Reproduces Table II.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut t = Table::new([
        "Source",
        "Carbon intensity (g CO2e/kWh)",
        "Energy payback (months)",
    ]);
    for source in EnergySource::ALL {
        t.row([
            source.to_string(),
            num(source.carbon_intensity().as_g_per_kwh(), 0),
            num(source.energy_payback().as_months(), 0),
        ]);
    }
    out.table("Table II: carbon efficiency of energy sources", t);
    let spread = EnergySource::Coal.carbon_intensity() / EnergySource::Wind.carbon_intensity();
    out.scalar("coal-to-wind-spread", "x", spread);
    out.note(format!(
        "coal-to-wind intensity spread {spread:.0}x (the paper's 'up to 70x improvement' bound)"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_sources_ordered() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.len(), 8);
        assert_eq!(t.rows()[0][0], "Coal");
        assert_eq!(t.rows()[7][0], "Wind");
    }
}
