//! The Fig 10 workflow as a user would run it: simulate mobile AI inference
//! and ask how long the SoC's manufacturing carbon takes to amortize.
//!
//! Run with `cargo run --example mobile_inference_amortization`.

use chasing_carbon::data::ai_models::CnnModel;
use chasing_carbon::lca::AmortizationAnalysis;
use chasing_carbon::prelude::*;
use chasing_carbon::socsim::{ExecutionModel, Network, UnitKind};

fn main() {
    let model = ExecutionModel::pixel3();

    // The SoC manufacturing budget: half the Pixel 3's production carbon
    // (the paper's Fig 5-derived assumption).
    let pixel3 = chasing_carbon::data::devices::find("Pixel 3").expect("dataset");
    let soc_budget = pixel3.production() * 0.5;
    let grid = chasing_carbon::data::us_grid_intensity();
    let analysis = AmortizationAnalysis::new(soc_budget, grid);
    println!("SoC manufacturing budget: {soc_budget} on a {grid} grid");
    println!("break-even operational energy: {}\n", soc_budget / grid);

    for cnn in CnnModel::FIG9 {
        let network = Network::build(cnn);
        println!("{network}");
        for unit in UnitKind::ALL {
            let report = model.run(&network, unit).expect("pixel3 units");
            let be = analysis
                .breakeven(report.energy, report.latency)
                .expect("positive energy");
            let lifetime = TimeSpan::from_years(3.0);
            println!(
                "  {unit}: {:.1} ms, {:.1} mJ/image -> breakeven {:.2e} images, {:.0} days{}",
                report.latency.as_millis(),
                report.energy.as_joules() * 1e3,
                be.operations,
                be.days,
                if be.exceeds(lifetime) {
                    "  (beyond 3-year lifetime!)"
                } else {
                    ""
                }
            );
        }
        println!();
    }
    println!(
        "The paper's takeaway: the more efficient the algorithm/hardware, the longer the \
         manufacturing carbon takes to amortize — for MobileNet-class models the break-even \
         exceeds the device's lifetime, so manufacturing dominates."
    );
}
