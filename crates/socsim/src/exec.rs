//! Roofline execution model: per-layer latency and energy on a compute unit.
//!
//! Per layer, latency is `max(compute time, memory time)` — the classic
//! roofline — where compute time uses the unit's effective (utilization-
//! scaled) throughput for the layer's kernel class, and memory time moves
//! weights plus activations at the unit's element width over its bandwidth.
//! Dynamic energy charges every MAC and every byte; static energy charges
//! the unit's base power for the whole latency.

use crate::network::{Layer, Network};
use crate::soc::{ComputeUnit, Soc, UnitKind};
use cc_units::{Energy, Power, TimeSpan};

/// Per-layer simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: &'static str,
    /// Layer latency.
    pub latency: TimeSpan,
    /// Whether the layer was memory-bound (memory time exceeded compute
    /// time).
    pub memory_bound: bool,
    /// Dynamic energy (MACs + traffic).
    pub dynamic_energy: Energy,
}

/// End-to-end simulation output for one inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// The unit the inference ran on.
    pub unit: UnitKind,
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerReport>,
    /// End-to-end latency.
    pub latency: TimeSpan,
    /// Total energy (dynamic + static).
    pub energy: Energy,
}

impl InferenceReport {
    /// Inference throughput, images per second.
    #[must_use]
    pub fn throughput_ips(&self) -> f64 {
        1.0 / self.latency.as_seconds()
    }

    /// Average device power over the inference.
    #[must_use]
    pub fn average_power(&self) -> Power {
        self.energy / self.latency
    }
}

/// The execution model: an SoC plus dispatch logic.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionModel {
    soc: Soc,
}

impl ExecutionModel {
    /// Creates a model over an SoC.
    #[must_use]
    pub fn new(soc: Soc) -> Self {
        Self { soc }
    }

    /// The paper's testbed: Snapdragon 845.
    #[must_use]
    pub fn pixel3() -> Self {
        Self::new(Soc::snapdragon_845())
    }

    /// The underlying SoC.
    #[must_use]
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Simulates one single-image inference of `network` on `unit`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownUnit`] when the SoC lacks the unit.
    pub fn run(&self, network: &Network, unit: UnitKind) -> Result<InferenceReport, ExecError> {
        let hw = self.soc.unit(unit).ok_or(ExecError::UnknownUnit { unit })?;
        let layers: Vec<LayerReport> = network
            .layers()
            .iter()
            .map(|l| Self::run_layer(hw, l))
            .collect();
        let latency: TimeSpan = layers
            .iter()
            .map(|l| l.latency)
            .fold(TimeSpan::ZERO, |acc, t| acc + t);
        let dynamic: Energy = layers
            .iter()
            .map(|l| l.dynamic_energy)
            .fold(Energy::ZERO, |acc, e| acc + e);
        let energy = dynamic + hw.static_power() * latency;
        Ok(InferenceReport {
            unit,
            layers,
            latency,
            energy,
        })
    }

    fn run_layer(hw: &ComputeUnit, layer: &Layer) -> LayerReport {
        let effective_gmacs = hw.effective_gmacs(layer.kind.is_depthwise());
        let compute_s = if layer.gmacs > 0.0 {
            layer.gmacs / effective_gmacs
        } else {
            0.0
        };
        let bytes = (layer.weight_melems + layer.act_melems) * 1e6 * hw.element_bytes;
        let memory_s = bytes / (hw.mem_bw_gbps * 1e9);
        let latency_s = compute_s.max(memory_s);
        let dynamic_j = layer.gmacs * 1e9 * hw.pj_per_mac * 1e-12 + bytes * hw.pj_per_byte * 1e-12;
        LayerReport {
            name: layer.name,
            latency: TimeSpan::from_seconds(latency_s),
            memory_bound: memory_s > compute_s,
            dynamic_energy: Energy::from_joules(dynamic_j),
        }
    }

    /// Runs a network on every unit of the SoC (a Fig 9 column group).
    pub fn run_all_units(&self, network: &Network) -> Vec<InferenceReport> {
        UnitKind::ALL
            .iter()
            .filter_map(|&u| self.run(network, u).ok())
            .collect()
    }
}

/// Errors from [`ExecutionModel::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The SoC has no unit of the requested kind.
    UnknownUnit {
        /// The requested unit.
        unit: UnitKind,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownUnit { unit } => write!(f, "soc has no {unit} unit"),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_data::ai_models::CnnModel;

    fn pixel3() -> ExecutionModel {
        ExecutionModel::pixel3()
    }

    fn run(model: CnnModel, unit: UnitKind) -> InferenceReport {
        pixel3().run(&Network::build(model), unit).unwrap()
    }

    #[test]
    fn mobilenet_v2_is_roughly_17x_faster_than_inception_on_cpu() {
        let inception = run(CnnModel::InceptionV3, UnitKind::Cpu);
        let mnv2 = run(CnnModel::MobileNetV2, UnitKind::Cpu);
        let speedup = inception.latency / mnv2.latency;
        assert!(
            speedup > 12.0 && speedup < 20.0,
            "paper: 17x, got {speedup:.1}x"
        );
    }

    #[test]
    fn dsp_speeds_up_mobilenets_over_cpu() {
        for model in [CnnModel::MobileNetV2, CnnModel::MobileNetV3] {
            let cpu = run(model, UnitKind::Cpu);
            let dsp = run(model, UnitKind::Dsp);
            let speedup = cpu.latency / dsp.latency;
            assert!(speedup > 1.4 && speedup < 3.5, "{model}: {speedup:.1}x");
        }
    }

    #[test]
    fn energy_improves_by_more_than_an_order_of_magnitude_algorithmically() {
        let inception = run(CnnModel::InceptionV3, UnitKind::Cpu);
        let mnv3 = run(CnnModel::MobileNetV3, UnitKind::Cpu);
        let improvement = inception.energy / mnv3.energy;
        assert!(
            improvement > 15.0 && improvement < 40.0,
            "paper: ~30-36x, got {improvement:.0}x"
        );
    }

    #[test]
    fn dsp_cuts_energy_over_cpu() {
        let cpu = run(CnnModel::MobileNetV3, UnitKind::Cpu);
        let dsp = run(CnnModel::MobileNetV3, UnitKind::Dsp);
        let improvement = cpu.energy / dsp.energy;
        assert!(
            improvement > 2.0 && improvement < 8.0,
            "paper: >=2x, got {improvement:.1}x"
        );
    }

    #[test]
    fn mobilenet_v3_cpu_anchors_fig10() {
        // ~6 ms and ~45 mJ per image on CPU make the Fig 10 break-even land
        // at ~5e9 images / ~1 year of continuous operation.
        let r = run(CnnModel::MobileNetV3, UnitKind::Cpu);
        let ms = r.latency.as_millis();
        let mj = r.energy.as_joules() * 1e3;
        assert!(ms > 4.0 && ms < 9.0, "latency {ms} ms");
        assert!(mj > 30.0 && mj < 60.0, "energy {mj} mJ");
    }

    #[test]
    fn device_power_is_phone_like() {
        for model in CnnModel::FIG9 {
            for unit in UnitKind::ALL {
                let r = run(model, unit);
                let w = r.average_power().as_watts();
                assert!(w > 0.5 && w < 12.0, "{model} on {unit}: {w} W");
            }
        }
    }

    #[test]
    fn latency_is_sum_of_layers() {
        let r = run(CnnModel::ResNet50, UnitKind::Gpu);
        let sum: f64 = r.layers.iter().map(|l| l.latency.as_seconds()).sum();
        assert!((sum - r.latency.as_seconds()).abs() < 1e-12);
        assert_eq!(r.layers.len(), 8);
    }

    #[test]
    fn pool_layers_are_memory_bound() {
        let r = run(CnnModel::ResNet50, UnitKind::Cpu);
        let pool = r.layers.iter().find(|l| l.name == "pool1").unwrap();
        assert!(pool.memory_bound);
    }

    #[test]
    fn throughput_and_power_accessors() {
        let r = run(CnnModel::MobileNetV1, UnitKind::Dsp);
        assert!((r.throughput_ips() - 1.0 / r.latency.as_seconds()).abs() < 1e-9);
    }

    #[test]
    fn run_all_units_covers_the_soc() {
        let reports = pixel3().run_all_units(&Network::build(CnnModel::MobileNetV2));
        assert_eq!(reports.len(), 3);
    }

    #[test]
    fn unknown_unit_errors() {
        let soc = Soc::new(
            "cpu-only",
            vec![*Soc::snapdragon_845().unit(UnitKind::Cpu).unwrap()],
        );
        let model = ExecutionModel::new(soc);
        let err = model
            .run(&Network::build(CnnModel::MobileNetV1), UnitKind::Dsp)
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::UnknownUnit {
                unit: UnitKind::Dsp
            }
        );
        assert!(err.to_string().contains("DSP"));
    }
}
