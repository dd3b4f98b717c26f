//! Figure 10: break-even between manufacturing and operational carbon on a
//! Pixel 3, end to end through the simulator.
//!
//! Pipeline: `cc-socsim` produces per-inference energy and latency for each
//! CNN × unit; the SoC manufacturing budget is the scenario's share of the
//! Pixel 3's production footprint (the paper assumed one half, via Fig 5's IC
//! share); the `cc-lca` amortization solver converts both into break-even
//! images and days on the scenario's grid (paper: the 380 g CO₂e/kWh average
//! US grid). Grid intensity, SoC budget share and device lifetime all come
//! from the [`RunContext`], so `repro --scenario` re-answers the figure under
//! any assumptions.

use cc_data::ai_models::CnnModel;
use cc_lca::AmortizationAnalysis;
use cc_report::{table::num, ExperimentOutput, RunContext, Series, Table};
use cc_socsim::UnitKind;
#[cfg(test)]
use cc_socsim::{ExecutionModel, Network};
#[cfg(test)]
use cc_units::TimeSpan;

/// The Pixel 3 SoC manufacturing budget: `share` of the device's production
/// carbon (the paper used one half).
#[must_use]
pub fn pixel3_soc_budget(share: f64) -> cc_units::CarbonMass {
    let pixel3 = cc_data::devices::find("Pixel 3").expect("device dataset");
    pixel3.production() * share
}

/// Reproduces Fig 10.
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    // The execution model and built networks are scenario-independent, so
    // a sweep shares one cached copy across all grid points and threads.
    let inputs = super::inputs::shared();
    let model = inputs.pixel3();
    let analysis = AmortizationAnalysis::new(
        pixel3_soc_budget(ctx.soc_budget_share()),
        ctx.effective_grid_intensity(),
    );
    let lifetime = ctx.device_lifetime();

    let mut t = Table::new([
        "Network".to_string(),
        "Unit".to_string(),
        "Breakeven images".to_string(),
        "Breakeven days (continuous)".to_string(),
        format!("Beyond {}-yr lifetime?", lifetime.as_years()),
    ]);
    let mut days_series = Series::new("breakeven-days", "network x unit index", "days");
    let mut mnv3 = Vec::new();
    for &(cnn, ref network) in inputs.networks() {
        for report in model.run_all_units(network) {
            let be = analysis
                .breakeven(report.energy, report.latency)
                .expect("positive per-inference energy");
            if cnn == CnnModel::MobileNetV3 {
                mnv3.push((report.unit, be));
            }
            days_series.push_labeled(
                days_series.len() as f64,
                format!("{cnn}/{}", report.unit),
                be.days,
            );
            t.row([
                cnn.to_string(),
                report.unit.to_string(),
                format!("{:.2e}", be.operations),
                num(be.days, 0),
                if be.exceeds(lifetime) { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    // The title states the two knobs that shape the table; it must not
    // embed the scenario *name* (per-sweep-point labels would defeat the
    // cache without changing any number).
    out.table(
        format!(
            "Break-even on Pixel 3 (SoC budget {}, grid {})",
            analysis.manufacturing(),
            ctx.effective_grid_intensity()
        ),
        t,
    );
    out.series(days_series);

    let cpu = mnv3.iter().find(|(u, _)| *u == UnitKind::Cpu).unwrap().1;
    let dsp = mnv3.iter().find(|(u, _)| *u == UnitKind::Dsp).unwrap().1;
    // The figure's headline, as sweep-comparable scalars: how long the
    // efficient-network/CPU case takes to amortize the SoC's embodied
    // carbon, and the images it implies.
    out.scalar_with_threshold(
        "mobilenet-v3-cpu-breakeven",
        "days",
        cpu.days,
        365.0,
        "one-year amortization",
    );
    out.scalar(
        "mobilenet-v3-cpu-breakeven-images",
        "images",
        cpu.operations,
    );
    out.scalar("mobilenet-v3-dsp-breakeven", "days", dsp.days);
    out.note(format!(
        "paper: MobileNet v3 CPU ~5e9 images / ~350 days; measured {:.1e} images / {:.0} days",
        cpu.operations, cpu.days
    ));
    out.note(format!(
        "paper: MobileNet v3 DSP ~1e10 images / ~1200 days (beyond the ~1100-day lifetime); \
         measured {:.1e} images / {:.0} days",
        dsp.operations, dsp.days
    ));
    out.note(
        "known paper inconsistency: the stated 1.5x/2.2x DSP improvements cannot yield both \
         10e9 images and 1200 days; this reproduction preserves the days-based headline",
    );
    out.note(format!(
        "scale: the ImageNet training set is {} images",
        cc_data::ai_models::IMAGENET_TRAIN_IMAGES
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakeven(cnn: CnnModel, unit: UnitKind) -> cc_lca::Breakeven {
        let model = ExecutionModel::pixel3();
        let report = model.run(&Network::build(cnn), unit).unwrap();
        AmortizationAnalysis::new(pixel3_soc_budget(0.5), cc_data::us_grid_intensity())
            .breakeven(report.energy, report.latency)
            .unwrap()
    }

    #[test]
    fn resnet_and_inception_need_hundreds_of_millions_of_images() {
        let resnet = breakeven(CnnModel::ResNet50, UnitKind::Cpu);
        let inception = breakeven(CnnModel::InceptionV3, UnitKind::Cpu);
        // Paper: 200M and 150M respectively. Same order of magnitude, with
        // Inception needing fewer (it burns more energy per image).
        assert!(
            resnet.operations > 1e8 && resnet.operations < 1e9,
            "{}",
            resnet.operations
        );
        assert!(inception.operations < resnet.operations);
    }

    #[test]
    fn mobilenet_v3_cpu_is_billions_of_images_and_about_a_year() {
        let be = breakeven(CnnModel::MobileNetV3, UnitKind::Cpu);
        assert!(
            be.operations > 3e9 && be.operations < 9e9,
            "{}",
            be.operations
        );
        assert!(be.days > 250.0 && be.days < 500.0, "{}", be.days);
    }

    #[test]
    fn dsp_pushes_breakeven_beyond_lifetime() {
        let be = breakeven(CnnModel::MobileNetV3, UnitKind::Dsp);
        assert!(
            be.exceeds(TimeSpan::from_years(3.0)) || be.days > 900.0,
            "DSP days {}",
            be.days
        );
        let cpu = breakeven(CnnModel::MobileNetV3, UnitKind::Cpu);
        assert!(
            be.days > cpu.days * 2.0,
            "DSP should lengthen amortization substantially"
        );
    }

    #[test]
    fn soc_budget_is_about_25_kg() {
        assert!((pixel3_soc_budget(0.5).as_kg() - 24.85).abs() < 0.5);
    }

    #[test]
    fn greener_grid_lengthens_breakeven() {
        use cc_report::Scenario;
        let paper = run(&RunContext::paper());
        let mut wind = Scenario::paper_defaults();
        wind.set("name", "wind").unwrap();
        wind.set("grid.intensity", "11").unwrap();
        let wind = run(&RunContext::new(wind));
        let p = paper.find_series("breakeven-days").unwrap();
        let w = wind.find_series("breakeven-days").unwrap();
        // On an 11 g/kWh grid every break-even horizon stretches ~35x.
        for (pp, wp) in p.points.iter().zip(&w.points) {
            assert!(wp.y > pp.y * 20.0, "{:?} {:?}", pp, wp);
        }
    }

    #[test]
    fn breakeven_images_dwarf_imagenet() {
        let be = breakeven(CnnModel::MobileNetV3, UnitKind::Cpu);
        assert!(be.operations > 100.0 * cc_data::ai_models::IMAGENET_TRAIN_IMAGES as f64);
    }
}
