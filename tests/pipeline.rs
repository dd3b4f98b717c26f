//! Cross-crate pipeline tests: data flows that span three or more crates,
//! exactly as a downstream user would compose them.

use chasing_carbon::core::decomposition::CarbonDecomposition;
use chasing_carbon::core::experiments::ext_facility::simulate_from_context;
use chasing_carbon::data::ai_models::CnnModel;
use chasing_carbon::fab::wafer::WaferFootprint;
use chasing_carbon::fab::{DieModel, ProcessNode};
use chasing_carbon::ghg::Scope2Method;
use chasing_carbon::prelude::*;
use chasing_carbon::socsim::{ExecutionModel, Network, UnitKind};

/// fab → core: decompose a phone whose IC production comes from the die
/// model, and check the production term responds to fab greening.
#[test]
fn die_model_feeds_device_footprint() {
    let soc = DieModel::new(ProcessNode::N10, 94.0).unwrap();
    let dram = DieModel::new(ProcessNode::N14, 60.0).unwrap();
    let ics = soc.embodied_carbon() + dram.embodied_carbon() * 2.0;

    // ICs + rest of BOM, transport and end-of-life.
    let capex = ics + CarbonMass::from_kg(30.0 + 3.0 + 1.0);
    // 1.2 W at 20% utilization for three years on the US grid.
    let use_energy = Power::from_watts(1.2 * 0.2) * TimeSpan::from_years(3.0);
    let opex = use_energy * chasing_carbon::data::us_grid_intensity();
    let phone = CarbonDecomposition::new(opex, capex);
    assert!(phone.capex_share().as_percent() > 60.0);

    // Greener fab -> smaller production term, all else equal: per-die
    // carbon is the wafer's over an unchanged die count.
    let taiwan = chasing_carbon::data::grids::Region::Taiwan.carbon_intensity();
    let wind = chasing_carbon::data::energy_sources::EnergySource::Wind.carbon_intensity();
    let wafer = WaferFootprint::for_node(ProcessNode::N10);
    let green = wafer.with_renewable_scaling(taiwan / wind);
    assert!(green.total() < wafer.total() * 0.5);
}

/// dcsim → ghg → core: a simulated facility's inventory decomposes like the
/// corporate reports the paper analyzes.
#[test]
fn facility_inventory_matches_reported_shape() {
    let years = simulate_from_context(&RunContext::paper());
    let inv = years.last().unwrap().inventory();
    // A facility reports no Scope 1: opex is Scope 2, capex Scope 3.
    let market = inv.scope2(Scope2Method::MarketBased);
    let d = CarbonDecomposition::new(market, inv.scope3());
    assert!(d.capex_share().as_fraction() > 0.5);
    // And under the location-based counterfactual, opex is much larger.
    assert!(inv.scope2(Scope2Method::LocationBased) > market * 10.0);
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
    assert!(WaferFootprint::tsmc_300mm().total().as_kg() > 100.0);
    assert!(
        DieModel::new(ProcessNode::N7, 100.0)
            .unwrap()
            .embodied_carbon()
            .as_kg()
            < 5.0
    );
    let prineville = simulate_from_context(&RunContext::paper());
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
            assert_eq!(
                csv.lines().count(),
                table.rows().len() + 1,
                "{title}: bad CSV"
            );
        }
    }
}
