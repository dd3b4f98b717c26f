//! Extension: fleet heterogeneity / specialization (Section VI, systems).

use cc_dcsim::heterogeneity::{provision, SkuCapability};
use cc_report::{table::num, ExperimentOutput, RunContext, Table};
use cc_units::CarbonIntensity;

/// Compares general-purpose and accelerator fleets across grids and demand
/// scales.
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut scenario_advantage = f64::NAN;
    let mut t = Table::new([
        "Grid",
        "Demand (units)",
        "General total (t/yr)",
        "Accelerator total (t/yr)",
        "Advantage",
        "Accel capex share",
    ]);
    // Row block one is the scenario grid (the paper's US 380 g/kWh by
    // default); block two is the all-wind endpoint for contrast.
    let scenario_g = ctx.effective_grid_intensity().as_g_per_kwh();
    let scenario_label = format!(
        "{} {:.0}",
        if ctx.grid_is_paper() {
            "US"
        } else {
            "Scenario"
        },
        scenario_g
    );
    for (grid_name, g) in [(scenario_label.as_str(), scenario_g), ("Wind 11", 11.0)] {
        for demand in [
            1_000.0 * ctx.fleet_scale(),
            10_000.0 * ctx.fleet_scale(),
            100_000.0 * ctx.fleet_scale(),
        ] {
            let grid = CarbonIntensity::from_g_per_kwh(g);
            let (_, general) = provision(&SkuCapability::general_purpose(), demand, grid, 1.1);
            let (_, special) = provision(&SkuCapability::accelerator(), demand, grid, 1.1);
            if grid_name != "Wind 11" && scenario_advantage.is_nan() {
                // Headline: the specialization advantage at the smallest
                // demand tier on the scenario grid.
                scenario_advantage = general.total() / special.total();
            }
            t.row([
                grid_name.to_string(),
                num(demand, 0),
                num(general.total().as_tonnes(), 0),
                num(special.total().as_tonnes(), 0),
                format!("{:.1}x", general.total() / special.total()),
                format!("{:.0}%", 100.0 * (special.capex_per_year / special.total())),
            ]);
        }
    }
    out.table("Specialization comparison", t);
    out.scalar("specialization-advantage", "x", scenario_advantage);
    out.note(
        "on a green grid the accelerator's remaining advantage is embodied carbon: \
         fewer boxes for the same work — heterogeneity as a capex lever",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rows_all_with_advantage_above_one() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.len(), 6);
        for row in t.rows() {
            let adv: f64 = row[4].trim_end_matches('x').parse().unwrap();
            assert!(adv > 1.0, "{row:?}");
        }
    }

    #[test]
    fn capex_share_rises_on_wind() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        let us_share: f64 = t.rows()[1][5].trim_end_matches('%').parse().unwrap();
        let wind_share: f64 = t.rows()[4][5].trim_end_matches('%').parse().unwrap();
        assert!(wind_share > us_share);
    }
}
