//! Figure 11: Facebook and Google carbon footprints by scope over time.

use cc_ghg::{CorporateInventory, Scope2Method};
use cc_report::{table::num, ExperimentOutput, RunContext, Series, Table};

fn series_table(name: &str, series: &[cc_data::corporate::ScopeYear]) -> Table {
    let mut t = Table::new([
        format!("{name} year"),
        "Scope 1 (Mt)".to_string(),
        "Scope 2 location (Mt)".to_string(),
        "Scope 2 market (Mt)".to_string(),
        "Scope 3 (Mt)".to_string(),
    ]);
    for y in series {
        t.row([
            y.year.to_string(),
            num(y.scope1_mt, 3),
            num(y.scope2_location_mt, 2),
            num(y.scope2_market_mt, 3),
            num(y.scope3_mt, 2),
        ]);
    }
    t
}

/// Reproduces Fig 11.
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    out.table(
        "Facebook carbon footprint",
        series_table("Facebook", &cc_data::corporate::FACEBOOK),
    );
    out.table(
        "Google carbon footprint",
        series_table("Google", &cc_data::corporate::GOOGLE),
    );

    // The modeled counterpart: the scenario's facility, booked through
    // the same scope taxonomy the disclosures use. Under the paper
    // defaults this is the Prineville fleet, so the model's final-year
    // Scope 3 : market Scope 2 ratio lands in the disclosed regime.
    let years = super::ext_facility::simulate_from_context(ctx);
    let mut modeled = Table::new([
        "Model year".to_string(),
        "Scope 2 location (kt)".to_string(),
        "Scope 2 market (kt)".to_string(),
        "Scope 3 (kt)".to_string(),
    ]);
    for y in &years {
        let inv = y.inventory();
        modeled.row([
            y.year.to_string(),
            num(inv.scope2(Scope2Method::LocationBased).as_kt(), 1),
            num(inv.scope2(Scope2Method::MarketBased).as_kt(), 1),
            num(inv.scope3().as_kt(), 1),
        ]);
    }
    out.table("Modeled facility inventory (scenario fleet)", modeled);
    let last = years.last().expect("horizon >= 1").inventory();
    let modeled_ratio = last.scope3() / last.scope2(Scope2Method::MarketBased);
    out.scalar("modeled-scope3-vs-scope2-market", "x", modeled_ratio);
    for (name, data) in [
        ("facebook", &cc_data::corporate::FACEBOOK[..]),
        ("google", &cc_data::corporate::GOOGLE[..]),
    ] {
        out.series(Series::from_pairs(
            format!("{name}-scope3"),
            "year",
            "Mt CO2e",
            data.iter().map(|y| (f64::from(y.year), y.scope3_mt)),
        ));
    }

    let fb2019 = CorporateInventory::from_scope_year(
        cc_data::corporate::year_of(&cc_data::corporate::FACEBOOK, 2019).unwrap(),
    );
    let gg2018 = CorporateInventory::from_scope_year(
        cc_data::corporate::year_of(&cc_data::corporate::GOOGLE, 2018).unwrap(),
    );
    out.note(format!(
        "paper: Facebook 2019 Scope 3 is 23x market Scope 2; measured {:.1}x",
        fb2019.scope3() / fb2019.scope2(Scope2Method::MarketBased)
    ));
    out.note(format!(
        "paper: Google 2018 Scope 3 is 21x market Scope 2 (14 Mt vs 684 kt); measured {:.1}x",
        gg2018.scope3() / gg2018.scope2(Scope2Method::MarketBased)
    ));
    let gg2017 = cc_data::corporate::year_of(&cc_data::corporate::GOOGLE, 2017).unwrap();
    out.note(format!(
        "paper: Google Scope 3 jumped ~5x in 2018 after the hardware-disclosure change; \
         measured {:.1}x",
        gg2018.scope3().as_mt() / gg2017.scope3_mt
    ));
    out.note(
        "paper: market-based Scope 2 falls after ~2013 renewable procurement even as \
         location-based (energy) rises",
    );
    out.note(format!(
        "modeled facility: final-year Scope 3 is {modeled_ratio:.1}x market Scope 2 — the \
         same capex-dominated shape the disclosures show"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disclosed_tables_plus_modeled_inventory() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0].1.rows().len(), 6);
        assert_eq!(out.tables[1].1.rows().len(), 6);
        // The modeled panel spans the paper-default 7-year horizon.
        assert_eq!(out.tables[2].1.rows().len(), 7);
    }

    #[test]
    fn modeled_ratio_is_capex_dominated_and_scenario_sensitive() {
        let paper = run(&RunContext::paper());
        let ratio = paper.scalars.first().unwrap();
        assert_eq!(ratio.name, "modeled-scope3-vs-scope2-market");
        assert!(ratio.value > 10.0, "modeled ratio {}", ratio.value);

        // Without the renewable ramp the modeled facility stays
        // opex-dominated, so the ratio collapses.
        let mut brown = cc_report::Scenario::paper_defaults();
        brown.set("fleet.renewable_ramp", "0").unwrap();
        let out = run(&RunContext::new(brown));
        assert!(out.scalars.first().unwrap().value < ratio.value / 5.0);
    }

    #[test]
    fn ratio_notes_match_paper_band() {
        let out = run(&RunContext::paper());
        assert!(out.notes[0].contains("23.0x") || out.notes[0].contains("23.1x"));
        assert!(out.notes[1].contains("20.") || out.notes[1].contains("21."));
    }
}
