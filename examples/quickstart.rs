//! Quickstart: compute and decompose the carbon footprint of a device.
//!
//! This example is the only caller of `UsePhase::on_grid`; no registry
//! experiment uses it.
//!
//! Run with `cargo run --example quickstart`.

use chasing_carbon::core::CarbonDecomposition;
use chasing_carbon::lca::{Footprint, UsePhase};
use chasing_carbon::prelude::*;

fn main() {
    // 1. Pull a published product LCA from the embedded dataset.
    let iphone11 = chasing_carbon::data::devices::find("iPhone 11").expect("dataset");
    let footprint = Footprint::from_product_lca(iphone11);
    println!("iPhone 11 life-cycle footprint: {footprint}");

    // 2. The paper's lens: opex vs capex.
    let decomposition = CarbonDecomposition::from_footprint(&footprint);
    println!("decomposition: {decomposition}");
    println!(
        "capex dominates? {} (capex/opex = {:.1}x)",
        decomposition.is_capex_dominated(),
        decomposition.capex_to_opex()
    );

    // 3. Build a footprint for your own device with the builder API:
    //    a 5 W always-on edge box with 30 kg of manufacturing carbon,
    //    operated for 4 years on the average US grid.
    let use_model = UsePhase::builder(Power::from_watts(5.0))
        .lifetime(TimeSpan::from_years(4.0))
        .grid(chasing_carbon::data::us_grid_intensity())
        .build();
    let edge_box = Footprint::builder()
        .production(CarbonMass::from_kg(30.0))
        .transport(CarbonMass::from_kg(2.0))
        .use_phase(use_model.lifetime_carbon())
        .end_of_life(CarbonMass::from_kg(0.5))
        .build();
    println!("\ncustom edge box: {edge_box}");

    // 4. What if the same box ran on wind power? (Table II)
    let wind = chasing_carbon::data::energy_sources::EnergySource::Wind.carbon_intensity();
    let green = edge_box.with_use_phase(use_model.on_grid(wind).lifetime_carbon());
    println!("same box on wind: {green}");
    println!(
        "lesson of the paper: greening the energy moved the footprint from {} to {} capex-dominated",
        edge_box.capex_share(),
        green.capex_share()
    );

    // 5. Re-run a whole paper experiment under your own scenario: Fig 10's
    //    break-even analysis on a hydro grid with a 5-year lifetime.
    let hydro = Scenario::builder()
        .name("hydro-5yr")
        .grid_intensity(24.0)
        .lifetime_years(5.0)
        .build();
    let fig10 = chasing_carbon::core::experiments::find_entry("fig10").expect("registry");
    let out = fig10.run(&RunContext::new(hydro));
    println!("\nFig 10 under `hydro-5yr`:");
    for note in &out.notes {
        println!("  note: {note}");
    }
}
