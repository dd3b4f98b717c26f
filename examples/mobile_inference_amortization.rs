//! The Fig 10 workflow as a user would run it: simulate mobile AI inference,
//! measure its energy with the simulated power monitor, and ask how long the
//! SoC's manufacturing carbon takes to amortize.
//!
//! This example is the only caller of `AmortizationAnalysis::breakeven_energy`;
//! no registry experiment uses it.
//!
//! Run with `cargo run --example mobile_inference_amortization`.

use chasing_carbon::data::ai_models::CnnModel;
use chasing_carbon::lca::AmortizationAnalysis;
use chasing_carbon::prelude::*;
use chasing_carbon::socsim::{ExecutionModel, Network, PowerMonitor, UnitKind};

fn main() {
    let model = ExecutionModel::pixel3();
    let monitor = PowerMonitor::monsoon();

    // The SoC manufacturing budget: half the Pixel 3's production carbon
    // (the paper's Fig 5-derived assumption).
    let pixel3 = chasing_carbon::data::devices::find("Pixel 3").expect("dataset");
    let soc_budget = pixel3.production() * 0.5;
    let analysis = AmortizationAnalysis::new(soc_budget, chasing_carbon::data::us_grid_intensity());
    println!(
        "SoC manufacturing budget: {soc_budget} on a {} grid",
        chasing_carbon::data::us_grid_intensity()
    );
    println!(
        "break-even operational energy: {}\n",
        analysis.breakeven_energy()
    );

    for cnn in CnnModel::FIG9 {
        let network = Network::build(cnn);
        println!("{network}");
        for unit in UnitKind::ALL {
            let report = model.run(&network, unit).expect("pixel3 units");

            // Measure energy the way the authors did: sample the power trace
            // with the (simulated) Monsoon at 5 kHz over repeated runs.
            let static_power = model.soc().unit(unit).expect("unit").static_power();
            let measured = monitor.measure_energy(&report, static_power, 200);

            let be = analysis
                .breakeven(measured, report.latency)
                .expect("positive energy");
            let lifetime = TimeSpan::from_years(3.0);
            println!(
                "  {unit}: {:.1} ms, measured {:.1} mJ/image -> breakeven {:.2e} images, {:.0} days{}",
                report.latency.as_millis(),
                measured.as_joules() * 1e3,
                be.operations,
                be.days,
                if be.exceeds(lifetime) { "  (beyond 3-year lifetime!)" } else { "" }
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
