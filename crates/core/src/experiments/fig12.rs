//! Figure 12: Facebook's 2019 Scope 3 category breakdown.

use cc_report::{table::num, ExperimentOutput, RunContext, Table};
use cc_units::CarbonMass;

/// Reproduces Fig 12.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let scope3 = CarbonMass::from_mt(
        cc_data::corporate::year_of(&cc_data::corporate::FACEBOOK, 2019)
            .expect("2019 in series")
            .scope3_mt,
    );
    let mut t = Table::new(["Category", "Share", "Mt CO2e", "Capex-related"]);
    let mut capex_share = 0.0;
    for cat in cc_data::corporate::FACEBOOK_2019_SCOPE3 {
        if cat.is_capex {
            capex_share += cat.share;
        }
        t.row([
            cat.label.to_string(),
            format!("{:.0}%", cat.share * 100.0),
            num((scope3 * cat.share).as_mt(), 2),
            if cat.is_capex { "yes" } else { "no" }.to_string(),
        ]);
    }
    out.table("Facebook 2019 Scope 3 breakdown", t);
    out.scalar("capex-related-scope3-share", "%", capex_share * 100.0);
    out.note(format!(
        "paper: construction and hardware (capital goods) account for up to 48% of Scope 3; \
         capex-related categories total {:.0}%",
        capex_share * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_categories_with_capital_goods_at_48() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.rows().len(), 4);
        assert_eq!(t.rows()[0][0], "Capital goods");
        assert_eq!(t.rows()[0][1], "48%");
    }
}
