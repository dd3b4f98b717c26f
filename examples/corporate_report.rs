//! A corporate-sustainability workflow: simulate a data-center operator's
//! year, roll it into a GHG Protocol disclosure, and propagate input
//! uncertainty into the headline ratio.
//!
//! This example is the only caller of `cc_ghg::reporting` (and, through it,
//! of `CorporateInventory::scope1`); no registry experiment uses them.
//!
//! Run with `cargo run --example corporate_report`.

use chasing_carbon::analysis::uncertainty::{propagate, Triangular};
use chasing_carbon::dcsim::{Facility, ServerConfig};
use chasing_carbon::ghg::reporting::SustainabilityReport;
use chasing_carbon::prelude::*;

fn main() {
    // Simulate the operator's fleet for five years.
    let mut facility = Facility::builder(2022, ServerConfig::storage())
        .initial_servers(50_000)
        .server_growth(1.2)
        .pue(1.12)
        .construction(CarbonMass::from_kt(200.0))
        .renewable_ramp(vec![0.4, 0.6, 0.8, 0.95, 1.0])
        .build();
    let years = facility.simulate(5);

    // Publish a disclosure for each year, the way Fig 11's sources do.
    for year in &years {
        let report =
            SustainabilityReport::from_inventory("ExampleCorp", year.year, &year.inventory());
        println!("{report}\n");
    }

    // How robust is the final-year capex/opex headline to input uncertainty?
    let last = years.last().expect("simulated years");
    let capex = last.capex_carbon.as_tonnes();
    let opex = last.market_carbon.as_tonnes();
    let inputs = [
        Triangular::around(capex, 0.30), // embodied-carbon factors are coarse
        Triangular::around(opex, 0.15),  // metered energy is better known
    ];
    let summary = propagate(&inputs, 20_000, 2026, |x| x[0] / x[1]);
    println!(
        "capex/opex ratio: median {:.0}x (90% band {:.0}x..{:.0}x) — \
         capex dominance survives +/-30% embodied-carbon uncertainty",
        summary.p50, summary.p05, summary.p95
    );
}
