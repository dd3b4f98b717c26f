//! Extension: annual fab decarbonization (Section VI, devices &
//! manufacturing) — the 3 nm fab across renewable-electricity shares, down
//! to its Scope 1 process floor.

use cc_fab::FabModel;
use cc_report::{table::num, ExperimentOutput, RunContext, Series, Table};

/// Sweeps renewable coverage for the paper's projected 3 nm fab.
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut t = Table::new([
        "Renewable share",
        "Scope 1 (Mt/yr)",
        "Scope 2 (Mt/yr)",
        "Total (Mt/yr)",
        "Per wafer (kg)",
    ]);
    let mut totals = Series::new("fab-total", "renewable share", "Mt CO2e/yr");
    let mut shares = vec![0.0, 0.2, 0.5, 0.8, 1.0];
    // Make sure the scenario's own share appears as a sweep point.
    if !shares
        .iter()
        .any(|&s| (s - ctx.fab_renewable_share()).abs() < 1e-12)
    {
        shares.push(ctx.fab_renewable_share());
        shares.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    for share in shares {
        let fab = FabModel::tsmc_3nm_2025().with_renewable_share(share);
        totals.push(share, fab.annual_carbon().as_mt());
        t.row([
            format!("{:.0}%", share * 100.0),
            num(fab.scope1().as_mt(), 2),
            num(fab.scope2().as_mt(), 2),
            num(fab.annual_carbon().as_mt(), 2),
            num(fab.carbon_per_wafer().as_kg(), 0),
        ]);
    }
    out.table("3 nm fab annual footprint vs renewable coverage", t);
    out.series(totals);
    let at_scenario = FabModel::tsmc_3nm_2025().with_renewable_share(ctx.fab_renewable_share());
    out.scalar(
        "annual-carbon-at-scenario-share",
        "Mt CO2e/yr",
        at_scenario.annual_carbon().as_mt(),
    );
    out.note(format!(
        "scenario fab.renewable_share = {:.0}%: {:.2} Mt/yr ({:.0} kg per wafer)",
        ctx.fab_renewable_share() * 100.0,
        at_scenario.annual_carbon().as_mt(),
        at_scenario.carbon_per_wafer().as_kg()
    ));
    out.note(
        "paper anchors: 7.7 TWh/yr projected demand; TSMC's renewable target covers 20% of \
         fab electricity; even at 100% renewables, Scope 1 process emissions remain",
    );
    let fab0 = FabModel::tsmc_3nm_2025().with_renewable_share(0.0);
    let fab100 = FabModel::tsmc_3nm_2025().with_renewable_share(1.0);
    out.note(format!(
        "full renewables cut the fab total {:.1}x; the floor is PFC/chemical Scope 1",
        fab0.annual_carbon() / fab100.annual_carbon()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope1_is_constant_across_rows() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.rows().len(), 5);
        let s1: Vec<&String> = t.rows().iter().map(|r| &r[1]).collect();
        assert!(s1.windows(2).all(|w| w[0] == w[1]), "{s1:?}");
    }

    #[test]
    fn totals_fall_monotonically() {
        let out = run(&RunContext::paper());
        let totals: Vec<f64> = out.tables[0]
            .1
            .rows()
            .iter()
            .map(|r| r[3].parse().unwrap())
            .collect();
        for pair in totals.windows(2) {
            assert!(pair[1] < pair[0]);
        }
    }
}
