//! A fab operator's view: what combination of renewable electricity and PFC
//! abatement decarbonizes a wafer, and what a chip's embodied carbon looks
//! like per die.
//!
//! This example is the only caller of `cc_fab::abatement`; no registry
//! experiment uses it.
//!
//! Run with `cargo run --example fab_decarbonization`.

use chasing_carbon::fab::{abatement, DieModel, ProcessNode, WaferFootprint};

fn main() {
    let wafer = WaferFootprint::tsmc_300mm();
    println!("baseline 300 mm wafer: {wafer}");
    for (label, carbon, is_energy) in wafer.components() {
        println!(
            "  {:<28} {:>14}  {}",
            label,
            carbon.to_string(),
            if is_energy {
                "(scales with grid)"
            } else {
                "(process)"
            }
        );
    }

    // Fig 14's sweep plus the PFC-abatement lever the paper points at.
    println!("\nrenewables x  +PFC abatement 90%  total vs baseline");
    for factor in [1.0, 4.0, 16.0, 64.0] {
        let renewables_only = wafer.with_renewable_scaling(factor);
        let both = abatement::decarbonize(&wafer, factor, 0.9);
        println!(
            "  {factor:>4.0}x        {:>18}  {:.3} -> {:.3}",
            both.total().to_string(),
            renewables_only.total() / wafer.total(),
            both.total() / wafer.total()
        );
    }

    // Die-level embodied carbon: the provisioning decision in kg CO2e.
    println!("\nper-die embodied carbon (mobile SoC, 94 mm2):");
    for node in [
        ProcessNode::N14,
        ProcessNode::N10,
        ProcessNode::N7,
        ProcessNode::N5,
    ] {
        let die = DieModel::new(node, 94.0).expect("valid die");
        println!(
            "  {node}: yield {:.0}%, {:.0} good dies/wafer, {} per die",
            die.yield_fraction() * 100.0,
            die.good_dies_per_wafer(),
            die.embodied_carbon()
        );
    }

    // And the same SoC from a fab powered by Taiwanese grid vs wind.
    let taiwan = chasing_carbon::data::grids::Region::Taiwan.carbon_intensity();
    let wind = chasing_carbon::data::energy_sources::EnergySource::Wind.carbon_intensity();
    let base = DieModel::new(ProcessNode::N7, 94.0).expect("valid die");
    let green = base.clone().with_fab_grid(taiwan, wind);
    println!(
        "\nsame die, fab on wind instead of the Taiwanese grid: {} -> {} ({:.2}x)",
        base.embodied_carbon(),
        green.embodied_carbon(),
        base.embodied_carbon() / green.embodied_carbon()
    );
}
