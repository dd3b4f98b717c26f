//! Integration tests for the Section VI extension modules, exercised
//! together the way the paper's "future directions" section frames them.

use chasing_carbon::data::ai_models::CnnModel;
use chasing_carbon::lca::{lifetime, transport::FreightMode, transport::ShippingRoute, Footprint};
use chasing_carbon::prelude::*;
use chasing_carbon::socsim::{batch, dvfs, ExecutionModel, Network, Soc, UnitKind};

/// Longer lifetime + greener grid together: the two opex/capex levers
/// compose the way the paper argues they must.
#[test]
fn lifetime_extension_and_greening_compose() {
    let phone =
        Footprint::from_product_lca(chasing_carbon::data::devices::find("iPhone 11").unwrap());
    let assessed = TimeSpan::from_years(3.0);
    let base = lifetime::annualize(&phone, assessed, assessed).total_per_year();

    // Greening cuts opex; extension cuts capex. Together they beat either.
    let greened = phone.with_use_phase(phone.use_phase() * (11.0 / 380.0));
    let green_only = lifetime::annualize(&greened, assessed, assessed).total_per_year();
    let extend_only =
        lifetime::annualize(&phone, assessed, TimeSpan::from_years(5.0)).total_per_year();
    let both = lifetime::annualize(&greened, assessed, TimeSpan::from_years(5.0)).total_per_year();
    assert!(green_only < base);
    assert!(extend_only < base);
    assert!(both < green_only && both < extend_only);
    // For a capex-dominated device, extension is the bigger single lever.
    assert!(extend_only < green_only);
}

/// Sea freight vs air freight changes a phone's transport phase by an order
/// of magnitude — and the footprint API composes with the route model.
#[test]
fn freight_mode_swap_shrinks_transport_phase() {
    let air = ShippingRoute::new(0.5)
        .leg(FreightMode::Air, 11_000.0)
        .leg(FreightMode::Road, 800.0);
    let sea = ShippingRoute::new(0.5)
        .leg(FreightMode::Sea, 19_000.0)
        .leg(FreightMode::Rail, 1_200.0)
        .leg(FreightMode::Road, 300.0);
    let make = |transport: CarbonMass| {
        Footprint::builder()
            .production(CarbonMass::from_kg(59.0))
            .transport(transport)
            .use_phase(CarbonMass::from_kg(10.5))
            .end_of_life(CarbonMass::from_kg(1.5))
            .build()
    };
    let by_air = make(air.carbon());
    let by_sea = make(sea.carbon());
    assert!(by_air.transport() / by_sea.transport() > 10.0);
    assert!(by_sea.total() < by_air.total());
}

/// DVFS and batching both reduce energy per image on the same simulator, and
/// their effects are measurable through the public API.
#[test]
fn dvfs_and_batching_reduce_energy_per_image() {
    let model = ExecutionModel::pixel3();
    let network = Network::build(CnnModel::MobileNetV2);
    let nominal = model.run(&network, UnitKind::Cpu).unwrap();

    // DVFS: the energy-optimal point is cheaper than nominal.
    let cpu = *model.soc().unit(UnitKind::Cpu).unwrap();
    let scales: Vec<f64> = (3..=15).map(|i| f64::from(i) / 10.0).collect();
    let sweep = dvfs::sweep(&cpu, &network, &scales);
    let min_energy = sweep.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
    assert!(min_energy < nominal.energy.as_joules());

    // Batching: 32 images amortize weight traffic.
    let batched = batch::run_batch(&model, &network, UnitKind::Cpu, 32).unwrap();
    assert!(batched.energy_per_image() < nominal.energy);
}

/// A custom SoC built through the public API runs the whole Fig 10 pipeline.
#[test]
fn custom_soc_through_full_pipeline() {
    let mut npu = *ExecutionModel::pixel3().soc().unit(UnitKind::Dsp).unwrap();
    npu.peak_gmacs_per_s = 2_000.0; // a dedicated NPU
    npu.pj_per_mac = 5.0;
    let soc = Soc::new("hypothetical-npu", vec![npu]);
    let model = ExecutionModel::new(soc);
    let report = model
        .run(&Network::build(CnnModel::MobileNetV3), UnitKind::Dsp)
        .unwrap();

    let analysis = chasing_carbon::lca::AmortizationAnalysis::new(
        CarbonMass::from_kg(25.0),
        chasing_carbon::data::us_grid_intensity(),
    );
    let be = analysis.breakeven(report.energy, report.latency).unwrap();
    // Ever-more-efficient hardware pushes break-even ever further out:
    // the NPU needs (far) more images than the DSP.
    let dsp_report = ExecutionModel::pixel3()
        .run(&Network::build(CnnModel::MobileNetV3), UnitKind::Dsp)
        .unwrap();
    let dsp_be = analysis
        .breakeven(dsp_report.energy, dsp_report.latency)
        .unwrap();
    assert!(be.operations > dsp_be.operations);
}

/// The Monte-Carlo experiment, fab model and scheduler all run end to end
/// from the registry.
#[test]
fn extension_experiments_run_from_registry() {
    for key in [
        "ext-scheduler",
        "ext-die",
        "ext-dvfs",
        "ext-hetero",
        "ext-fab",
        "ext-mc",
    ] {
        let e = chasing_carbon::core::experiments::find_entry(key)
            .unwrap_or_else(|| panic!("{key} missing from registry"));
        let out = e.run(&RunContext::paper());
        assert!(!out.tables.is_empty(), "{key} produced no tables");
    }
}

/// `ext-mc`'s Fig 10 break-even median at three grid intensities, pinned to
/// the bits the sequential (pre-memo) propagation produced. An outer
/// Monte-Carlo run's cached and uncached passes both read the column memo,
/// so only a pin can catch a memo that changes the draws.
#[test]
fn ext_mc_breakeven_median_is_pinned_across_grid_intensities() {
    for (grid, bits) in [
        ("50", 0x4222_a95d_dddb_d8a5_u64),
        ("380", 0x41f3_a4ce_98b1_85ba),
        ("700", 0x41e5_53d8_fd8d_89e0),
    ] {
        let mut scenario = Scenario::paper_defaults();
        scenario.set("grid.intensity", grid).unwrap();
        let out = chasing_carbon::core::experiments::find_entry("ext-mc")
            .unwrap()
            .run(&RunContext::new(scenario));
        let median = out.find_scalar("fig10-breakeven-median").unwrap().value;
        assert_eq!(
            median.to_bits(),
            bits,
            "grid {grid}: {median:e} vs {:e}",
            f64::from_bits(bits)
        );
    }
}
