//! Quickstart: decompose the carbon footprint of a device, then re-run a
//! paper experiment under your own scenario.
//!
//! Run with `cargo run --example quickstart`.

use chasing_carbon::core::decomposition::CarbonDecomposition;
use chasing_carbon::lca::Footprint;
use chasing_carbon::prelude::*;

fn main() {
    // 1. Pull a published product LCA from the embedded dataset.
    let iphone11 = chasing_carbon::data::devices::find("iPhone 11").expect("dataset");
    let footprint = Footprint::from_product_lca(iphone11);
    // 2. The paper's lens: opex vs capex.
    let decomposition = CarbonDecomposition::from_footprint(&footprint);
    println!("iPhone 11 life-cycle footprint: {}", decomposition.total());
    println!(
        "decomposition: opex {} ({}) / capex {} ({})",
        footprint.opex(),
        decomposition.opex_share(),
        footprint.capex(),
        decomposition.capex_share()
    );
    println!(
        "capex/opex = {:.1}x",
        decomposition.capex_share() / decomposition.opex_share()
    );

    // 3. Re-run a whole paper experiment under your own scenario: Fig 10's
    //    break-even analysis on a hydro grid with a 5-year lifetime.
    //    Every field is set by its dotted path, as `repro --set` does.
    let mut hydro = Scenario::paper_defaults();
    for (key, value) in [
        ("name", "hydro-5yr"),
        ("grid.intensity", "24"),
        ("device.lifetime", "5"),
    ] {
        hydro
            .set(key, value)
            .expect("a known field and a valid value");
    }
    let fig10 = chasing_carbon::core::experiments::find_entry("fig10").expect("registry");
    let out = fig10.run(&RunContext::new(hydro));
    println!("\nFig 10 under `hydro-5yr`:");
    for note in &out.notes {
        println!("  note: {note}");
    }
}
