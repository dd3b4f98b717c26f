//! A fab operator's view: how far renewable electricity decarbonizes a
//! wafer, and what a chip's embodied carbon looks like per die.
//!
//! Run with `cargo run --example fab_decarbonization`.

use chasing_carbon::fab::wafer::WaferFootprint;
use chasing_carbon::fab::{DieModel, ProcessNode};

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

    // Fig 14's sweep: process emissions floor the reduction.
    println!("\nrenewables x  wafer total       vs baseline");
    for factor in [1.0, 4.0, 16.0, 64.0] {
        let renewables = wafer.with_renewable_scaling(factor);
        println!(
            "  {factor:>4.0}x       {:>14}  {:.3}",
            renewables.total().to_string(),
            renewables.total() / wafer.total()
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

    // And a 7 nm wafer from a fab powered by Taiwanese grid vs wind: the
    // per-die reduction is the wafer's, since the die count is unchanged.
    let taiwan = chasing_carbon::data::grids::Region::Taiwan.carbon_intensity();
    let wind = chasing_carbon::data::energy_sources::EnergySource::Wind.carbon_intensity();
    let base = WaferFootprint::for_node(ProcessNode::N7);
    let green = base.with_renewable_scaling(taiwan / wind);
    println!(
        "\n7 nm wafer, fab on wind instead of the Taiwanese grid: {} -> {} ({:.2}x)",
        base.total(),
        green.total(),
        base.total() / green.total()
    );
}
