//! Integration tests asserting the paper's headline numbers across the whole
//! stack — every takeaway and contribution, regenerated from the models.

use chasing_carbon::core::experiments;
use chasing_carbon::core::CarbonDecomposition;
use chasing_carbon::ghg::Scope2Method;
use chasing_carbon::lca::Footprint;
use chasing_carbon::prelude::{Experiment, RunContext};

#[test]
fn contribution_1_iphone_manufacturing_share_49_to_86() {
    let gs = chasing_carbon::data::devices::find("iPhone 3GS").unwrap();
    let i11 = chasing_carbon::data::devices::find("iPhone 11").unwrap();
    assert!((gs.capex_share().as_percent() - 49.0).abs() < 0.5);
    assert!((i11.capex_share().as_percent() - 86.0).abs() < 0.5);
}

#[test]
fn contribution_2_pixel3_amortization_takes_years() {
    // "efficiently amortizing the manufacturing carbon footprint of a Google
    // Pixel 3 ... requires continuously running MobileNet image-
    // classification inference for three years — beyond the typical
    // smartphone lifetime."
    use chasing_carbon::data::ai_models::CnnModel;
    use chasing_carbon::lca::AmortizationAnalysis;
    use chasing_carbon::socsim::{ExecutionModel, Network, UnitKind};

    let pixel3 = chasing_carbon::data::devices::find("Pixel 3").unwrap();
    let ctx = RunContext::paper();
    let analysis = AmortizationAnalysis::new(
        pixel3.production() * ctx.soc_budget_share(),
        ctx.effective_grid_intensity(),
    );
    let model = ExecutionModel::pixel3();
    let best = model
        .run(&Network::build(CnnModel::MobileNetV3), UnitKind::Dsp)
        .unwrap();
    let be = analysis.breakeven(best.energy, best.latency).unwrap();
    // Best-efficiency path: around (or beyond) the three-year lifetime.
    assert!(be.days > 1_000.0, "days {}", be.days);
}

#[test]
fn contribution_3_facebook_capex_23x_opex() {
    let fb = chasing_carbon::ghg::CorporateInventory::from_scope_year(
        chasing_carbon::data::corporate::year_of(&chasing_carbon::data::corporate::FACEBOOK, 2019)
            .unwrap(),
    );
    let ratio = fb.scope3() / fb.scope2(Scope2Method::MarketBased);
    assert!((ratio - 23.0).abs() < 0.5);
}

#[test]
fn takeaway_1_ics_exceed_product_use_at_apple() {
    let ics = chasing_carbon::data::corporate::APPLE_2019_BREAKDOWN[0];
    assert_eq!(ics.label, "Integrated circuits");
    let product_use = chasing_carbon::data::corporate::apple_2019_group_share("Product Use");
    assert!(ics.share > product_use);
}

#[test]
fn takeaway_2_battery_vs_always_connected() {
    use chasing_carbon::data::devices::Category;
    let phones = chasing_carbon::lca::inventory::summarize(Category::Phone).unwrap();
    let consoles = chasing_carbon::lca::inventory::summarize(Category::GameConsole).unwrap();
    assert!(phones.manufacturing_share_mean > 0.60);
    assert!(consoles.use_share_mean > 0.60);
}

#[test]
fn takeaway_3_footprint_scales_with_capability() {
    use chasing_carbon::data::devices::Category;
    let summaries = chasing_carbon::lca::inventory::all_categories();
    let by = |c: Category| {
        summaries
            .iter()
            .find(|s| s.category == c)
            .unwrap()
            .total_mean
    };
    assert!(by(Category::Wearable) < by(Category::Phone));
    assert!(by(Category::Phone) < by(Category::Laptop));
    assert!(by(Category::Laptop) < by(Category::GameConsole));
}

#[test]
fn takeaway_7_capex_dominates_cloud_providers() {
    for (series, year) in [
        (&chasing_carbon::data::corporate::FACEBOOK[..], 2019),
        (&chasing_carbon::data::corporate::GOOGLE[..], 2018),
    ] {
        let inv = chasing_carbon::ghg::CorporateInventory::from_scope_year(
            chasing_carbon::data::corporate::year_of(series, year).unwrap(),
        );
        let d = CarbonDecomposition::from_inventory(&inv, Scope2Method::MarketBased);
        assert!(d.is_capex_dominated());
        assert!(d.capex_to_opex() > 10.0);
    }
}

#[test]
fn takeaway_9_renewables_flip_chip_vendor_breakdowns() {
    // Intel at 60% use on the US grid becomes >80% manufacturing on wind:
    // scale the use share by wind/US intensity and renormalize.
    let wind = chasing_carbon::data::energy_sources::EnergySource::Wind
        .carbon_intensity()
        .as_g_per_kwh();
    let scale = wind / chasing_carbon::data::US_GRID_G_PER_KWH;
    let raw: Vec<f64> = chasing_carbon::data::corporate::INTEL_LIFECYCLE
        .iter()
        .map(|c| {
            if c.scales_with_use_energy {
                c.share * scale
            } else {
                c.share
            }
        })
        .collect();
    let total: f64 = raw.iter().sum();
    let use_share = raw[0] / total;
    assert!(use_share < 0.20, "HW-use share on wind: {use_share}");
}

#[test]
fn takeaway_10_fab_renewables_bounded_by_process_emissions() {
    let wafer = chasing_carbon::fab::WaferFootprint::tsmc_300mm();
    let max_reduction = wafer.total() / wafer.process_carbon();
    // Even infinite renewable scaling cannot beat ~2.8x: process emissions floor it.
    assert!(max_reduction < 3.0);
    let at64 = wafer.total() / wafer.with_renewable_scaling(64.0).total();
    assert!((at64 - 2.7).abs() < 0.1);
}

#[test]
fn all_experiments_render_nonempty_reports() {
    let ctx = RunContext::paper();
    for e in experiments::entries() {
        let out = e.run(&ctx);
        let text = out.render();
        assert!(text.len() > 40, "{} rendered almost nothing", e.id());
    }
}

#[test]
fn footprints_from_dataset_are_internally_consistent() {
    for d in chasing_carbon::data::devices::iter() {
        let fp = Footprint::from_product_lca(d);
        assert!((fp.total() / d.total() - 1.0).abs() < 1e-9, "{}", d.name);
        let share_sum = fp.capex_share().as_fraction() + fp.opex_share().as_fraction();
        assert!((share_sum - 1.0).abs() < 1e-9, "{}", d.name);
    }
}

/// The scenario satellite: `Scenario::paper_defaults()` must regenerate the
/// paper's Fig 10 anchors exactly — same break-even numbers the seed
/// hard-coded before the experiment API took a `RunContext`.
#[test]
fn paper_default_scenario_reproduces_fig10_anchors() {
    use chasing_carbon::prelude::Scenario;
    use chasing_carbon::report::FieldSource;

    let defaults = Scenario::paper_defaults();
    assert_eq!(defaults.grid.intensity_g_per_kwh, 380.0); // Table III US average
    assert_eq!(defaults.device.lifetime_years, 3.0); // §III-C smartphone lifetime
    assert_eq!(defaults.device.soc_budget_share, 0.5); // Fig 5 IC share assumption
    defaults.validate().unwrap();

    let ctx = RunContext::new(defaults);
    assert_eq!(ctx.scenario(), Scenario::paper_defaults().view());
    let out = chasing_carbon::core::experiments::find_entry("fig10")
        .unwrap()
        .run(&ctx);
    // Paper: MobileNet v3 CPU ~350 days, DSP ~1200 days (beyond lifetime).
    let days = out.find_series("breakeven-days").unwrap();
    let cpu = days.y_for("MobileNet v3/CPU").unwrap();
    let dsp = days.y_for("MobileNet v3/DSP").unwrap();
    assert!((250.0..500.0).contains(&cpu), "CPU days {cpu}");
    assert!(dsp > 900.0, "DSP days {dsp}");
}

/// A custom scenario must actually change the answers: that is the point of
/// the redesign.
#[test]
fn custom_scenario_changes_fig10_breakeven() {
    use chasing_carbon::prelude::Scenario;

    let paper = chasing_carbon::core::experiments::find_entry("fig10")
        .unwrap()
        .run(&RunContext::paper());
    let mut hydro = Scenario::paper_defaults();
    hydro.set("name", "hydro-5yr").unwrap();
    hydro.set("grid.intensity", "24").unwrap();
    hydro.set("device.lifetime", "5").unwrap();
    let custom = chasing_carbon::core::experiments::find_entry("fig10")
        .unwrap()
        .run(&RunContext::new(hydro));
    let p = paper.find_series("breakeven-days").unwrap();
    let c = custom.find_series("breakeven-days").unwrap();
    assert_eq!(p.len(), c.len());
    for (pp, cc) in p.points.iter().zip(&c.points) {
        assert!(
            cc.y > pp.y * 10.0,
            "cleaner grid must stretch break-even: {pp:?} vs {cc:?}"
        );
    }
}
