//! A data-center operator's view: grow a facility, procure renewables, watch
//! the footprint shift from opex to capex — then claw back more carbon with
//! carbon-aware scheduling.
//!
//! Run with `cargo run --example datacenter_renewable_transition`.

use chasing_carbon::dcsim::{Facility, MultiSiteScheduler, ServerConfig, SitePlan};
use chasing_carbon::prelude::*;

fn main() {
    // A hyperscale facility: web + AI fleets, US grid, wind PPAs ramping to
    // 100% coverage over six years.
    let mut facility = Facility::builder(2019, ServerConfig::ai_training())
        .initial_servers(8_000)
        .server_growth(1.5) // the paper: AI fleets grew 4x in <2 years
        .pue(1.11)
        .construction(CarbonMass::from_kt(180.0))
        .renewable_ramp(vec![0.10, 0.30, 0.55, 0.80, 0.95, 1.0])
        .build();

    println!("year  servers  energy      opex(market)      capex           capex share");
    for year in facility.simulate(6) {
        println!(
            "{}  {:>7}  {:>10}  {:>16}  {:>14}  {}",
            year.year,
            year.servers,
            format!("{:.0} GWh", year.energy.as_gwh()),
            year.market_carbon.to_string(),
            year.capex_carbon.to_string(),
            Ratio::from_fraction(year.capex_carbon / (year.capex_carbon + year.market_carbon))
        );
    }

    println!(
        "\nEven with 100% renewable coverage the footprint keeps growing — embodied carbon \
         from the expanding AI fleet (the paper's Takeaway 7)."
    );

    // Carbon-aware scheduling: shift the nightly training jobs into the
    // solar window (Section VI extension) — a one-site fleet on a solar grid.
    let trace = IntensityTrace::solar_day(380.0, 120.0);
    let sites = [SitePlan {
        name: "solar".to_string(),
        trace,
        base_load: [Energy::from_kwh(40_000.0); 24],
        hourly_capacity: Energy::from_kwh(90_000.0),
        deferrable: Energy::from_kwh(300_000.0),
    }];
    let scheduler = MultiSiteScheduler::default();
    let uniform = scheduler.static_placement(&sites);
    let aware = scheduler.carbon_aware(&sites);
    let avoided = uniform.total_carbon - aware.total_carbon;
    println!(
        "\nCarbon-aware batch scheduling on a solar-shaped grid: {} -> {} per day \
         ({avoided} avoided)",
        uniform.total_carbon, aware.total_carbon,
    );
}
