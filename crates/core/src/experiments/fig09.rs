//! Figure 9: inference latency and energy for four CNNs on CPU/GPU/DSP,
//! simulated on the Pixel-3-class SoC.

use cc_data::ai_models::CnnModel;
use cc_report::{table::num, ExperimentOutput, RunContext, Table};
use cc_socsim::UnitKind;
#[cfg(test)]
use cc_socsim::{ExecutionModel, Network};

/// Reproduces Fig 9 by running the SoC simulator.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let inputs = super::inputs::shared();
    let model = inputs.pixel3();

    let mut t = Table::new([
        "Network",
        "Unit",
        "Latency (ms)",
        "Energy (mJ)",
        "Throughput (img/s)",
        "Avg power (W)",
    ]);
    for &(cnn, ref network) in inputs.networks() {
        for report in model.run_all_units(network) {
            t.row([
                cnn.to_string(),
                report.unit.to_string(),
                num(report.latency.as_millis(), 2),
                num(report.energy.as_joules() * 1e3, 1),
                num(report.throughput_ips(), 0),
                num(report.average_power().as_watts(), 1),
            ]);
        }
    }
    out.table("Simulated Pixel 3 inference (batch 1, 224x224)", t);

    // The paper's annotated ratios.
    let lat = |cnn: CnnModel, unit: UnitKind| {
        let network = inputs.network(cnn).expect("FIG9 network is cached");
        model.run(network, unit).expect("pixel3 has all units")
    };
    let algo_speedup = lat(CnnModel::InceptionV3, UnitKind::Cpu).latency
        / lat(CnnModel::MobileNetV2, UnitKind::Cpu).latency;
    let hw_speedup = lat(CnnModel::MobileNetV2, UnitKind::Cpu).latency
        / lat(CnnModel::MobileNetV2, UnitKind::Dsp).latency;
    let algo_energy = lat(CnnModel::InceptionV3, UnitKind::Cpu).energy
        / lat(CnnModel::MobileNetV3, UnitKind::Cpu).energy;
    let hw_energy = lat(CnnModel::MobileNetV3, UnitKind::Cpu).energy
        / lat(CnnModel::MobileNetV3, UnitKind::Dsp).energy;
    out.scalar("algorithmic-speedup", "x", algo_speedup);
    out.note(format!(
        "paper: ~17x algorithmic speedup (Inception v3 -> MobileNet v2, CPU); measured {algo_speedup:.1}x"
    ));
    out.note(format!(
        "paper: ~3x hardware speedup (MobileNet v2, CPU -> DSP); measured {hw_speedup:.1}x"
    ));
    out.note(format!(
        "paper: ~30-36x algorithmic energy improvement; measured {algo_energy:.0}x"
    ));
    out.note(format!(
        "paper: ~2x hardware energy improvement (CPU -> DSP); measured {hw_energy:.1}x"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_rows_four_notes() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables[0].1.rows().len(), 12);
        assert_eq!(out.notes.len(), 4);
    }

    #[test]
    fn mobilenets_beat_classics_on_every_unit() {
        let model = ExecutionModel::pixel3();
        for unit in UnitKind::ALL {
            let heavy = model
                .run(&Network::build(CnnModel::InceptionV3), unit)
                .unwrap();
            let light = model
                .run(&Network::build(CnnModel::MobileNetV3), unit)
                .unwrap();
            assert!(light.latency < heavy.latency);
            assert!(light.energy < heavy.energy);
        }
    }
}
