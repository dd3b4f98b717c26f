//! Cross-crate pipeline tests: data flows that span three or more crates,
//! exactly as a downstream user would compose them.

use chasing_carbon::data::ai_models::CnnModel;
use chasing_carbon::fab::{DieModel, ProcessNode};
use chasing_carbon::ghg::Scope2Method;
use chasing_carbon::lca::{AmortizationAnalysis, Footprint, UsePhase};
use chasing_carbon::prelude::*;
use chasing_carbon::socsim::{ExecutionModel, Network, PowerMonitor, UnitKind};

/// socsim → monitor → lca: the measured (sampled) energy and the analytical
/// energy must lead to break-even estimates within a few percent.
#[test]
fn measured_and_analytical_breakeven_agree() {
    let model = ExecutionModel::pixel3();
    let report = model
        .run(&Network::build(CnnModel::MobileNetV2), UnitKind::Gpu)
        .unwrap();
    let static_power = model.soc().unit(UnitKind::Gpu).unwrap().static_power();
    let measured = PowerMonitor::monsoon().measure_energy(&report, static_power, 300);

    let analysis = AmortizationAnalysis::new(
        CarbonMass::from_kg(25.0),
        chasing_carbon::data::us_grid_intensity(),
    );
    let analytic = analysis.breakeven(report.energy, report.latency).unwrap();
    let sampled = analysis.breakeven(measured, report.latency).unwrap();
    let rel = (sampled.operations / analytic.operations - 1.0).abs();
    assert!(rel < 0.05, "breakeven mismatch {rel}");
}

/// fab → lca: build a phone footprint whose IC production comes from the die
/// model, and check the decomposition responds to fab greening.
#[test]
fn die_model_feeds_device_footprint() {
    let soc = DieModel::new(ProcessNode::N10, 94.0).unwrap();
    let dram = DieModel::new(ProcessNode::N14, 60.0).unwrap();
    let ics = soc.embodied_carbon() + dram.embodied_carbon() * 2.0;

    let use_model = UsePhase::builder(Power::from_watts(1.2))
        .utilization(Ratio::from_percent(20.0))
        .lifetime(TimeSpan::from_years(3.0))
        .build();
    let phone = Footprint::builder()
        .production(ics + CarbonMass::from_kg(30.0)) // ICs + rest of BOM
        .transport(CarbonMass::from_kg(3.0))
        .use_phase(use_model.lifetime_carbon())
        .end_of_life(CarbonMass::from_kg(1.0))
        .build();
    assert!(phone.capex_share().as_percent() > 60.0);

    // Greener fab -> smaller production term, all else equal.
    let taiwan = chasing_carbon::data::grids::Region::Taiwan.carbon_intensity();
    let wind = chasing_carbon::data::energy_sources::EnergySource::Wind.carbon_intensity();
    let green_soc = DieModel::new(ProcessNode::N10, 94.0)
        .unwrap()
        .with_fab_grid(taiwan, wind);
    assert!(green_soc.embodied_carbon() < soc.embodied_carbon() * 0.5);
}

/// dcsim → ghg → core: a simulated facility's inventory decomposes like the
/// corporate reports the paper analyzes.
#[test]
fn facility_inventory_matches_reported_shape() {
    let years = chasing_carbon::dcsim::prineville::simulate();
    let last = years.last().unwrap();
    let inv = last.inventory();
    let d =
        chasing_carbon::core::CarbonDecomposition::from_inventory(&inv, Scope2Method::MarketBased);
    assert!(d.is_capex_dominated());
    // And under the location-based counterfactual, opex is much larger.
    let counterfactual = chasing_carbon::core::CarbonDecomposition::from_inventory(
        &inv,
        Scope2Method::LocationBased,
    );
    assert!(counterfactual.opex() > d.opex() * 10.0);
}

/// units → everything: quantities survive a full route through the stack
/// without unit errors (type-checked, but verify magnitudes too).
#[test]
fn end_to_end_magnitudes_are_sane() {
    // One inference on the DSP emits well under a gram of CO2e.
    let model = ExecutionModel::pixel3();
    let r = model
        .run(&Network::build(CnnModel::MobileNetV3), UnitKind::Dsp)
        .unwrap();
    let per_inference = r.energy * chasing_carbon::data::us_grid_intensity();
    assert!(per_inference.as_grams() < 0.01);
    // A wafer is hundreds of kg; a die is under a kg; a phone tens of kg;
    // a data-center year is kilotonnes.
    assert!(
        chasing_carbon::fab::WaferFootprint::tsmc_300mm()
            .total()
            .as_kg()
            > 100.0
    );
    assert!(
        DieModel::new(ProcessNode::N7, 100.0)
            .unwrap()
            .embodied_carbon()
            .as_kg()
            < 5.0
    );
    let prineville = chasing_carbon::dcsim::prineville::simulate();
    assert!(prineville.last().unwrap().capex_carbon.as_kt() > 1.0);
}

/// report layer: every experiment's tables render and export to CSV with
/// consistent column counts.
#[test]
fn experiment_tables_are_rectangular() {
    let ctx = chasing_carbon::prelude::RunContext::paper();
    for e in chasing_carbon::core::experiments::entries() {
        let out = e.run(&ctx);
        for (title, table) in &out.tables {
            let cols = table.header().len();
            for row in table.rows() {
                assert_eq!(row.len(), cols, "{title}: ragged row");
            }
            let csv = table.to_csv();
            assert_eq!(csv.lines().count(), table.len() + 1, "{title}: bad CSV");
        }
    }
}
