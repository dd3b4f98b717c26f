//! A data-center operator's view: grow a facility, procure renewables, watch
//! the footprint shift from opex to capex — then claw back more carbon with
//! carbon-aware scheduling.
//!
//! This example is the only caller of `CorporateInventory::capex_share`
//! (with `CorporateInventory::total`) and `FleetSchedule::deferrable_carbon`;
//! no registry experiment uses them.
//!
//! Run with `cargo run --example datacenter_renewable_transition`.

use chasing_carbon::dcsim::{Facility, FleetSchedule, MultiSiteScheduler, ServerConfig, SitePlan};
use chasing_carbon::ghg::Scope2Method;
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
        let inv = year.inventory();
        println!(
            "{}  {:>7}  {:>10}  {:>16}  {:>14}  {}",
            year.year,
            year.servers,
            format!("{:.0} GWh", year.energy.as_gwh()),
            year.market_carbon.to_string(),
            year.capex_carbon.to_string(),
            inv.capex_share(Scope2Method::MarketBased)
        );
    }

    println!(
        "\nEven with 100% renewable coverage the footprint keeps growing — embodied carbon \
         from the expanding AI fleet (the paper's Takeaway 7)."
    );

    // Carbon-aware scheduling: shift the nightly training jobs into the
    // solar window (Section VI extension) — a one-site fleet on a solar grid.
    let trace = IntensityTrace::solar_day(380.0, 120.0);
    let sites = [SitePlan::flat("solar", trace, 40.0, 300.0, 90.0)];
    let scheduler = MultiSiteScheduler::default();
    let uniform = scheduler.static_placement(&sites);
    let aware = scheduler.carbon_aware(&sites);
    let batch = |s: &FleetSchedule| s.deferrable_carbon(&sites, scheduler.migration_overhead);
    let cut = 1.0 - batch(&aware) / batch(&uniform);
    println!(
        "\nCarbon-aware batch scheduling on a solar-shaped grid: {} -> {} per day \
         ({:.0}% cut in batch-attributable carbon)",
        uniform.total_carbon,
        aware.total_carbon,
        cut * 100.0
    );
}
