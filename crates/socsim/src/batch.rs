//! Batched inference.
//!
//! The paper measures batch-1 latency (the mobile-interactive case), but its
//! data-center discussion (DeepRecSys, Takeaway 7's AI fleets) is about
//! batched serving. Batching amortizes weight traffic: weights are fetched
//! once per batch while per-image compute and activation traffic scale with
//! batch size — so throughput rises and energy per image falls, with
//! diminishing returns once layers turn compute-bound.

use crate::exec::{ExecError, ExecutionModel};
use crate::network::Network;
use crate::soc::UnitKind;
use cc_units::{Energy, TimeSpan};

/// Result of a batched run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// The unit used.
    pub unit: UnitKind,
    /// Batch size.
    pub batch: u32,
    /// Latency for the whole batch.
    pub batch_latency: TimeSpan,
    /// Energy for the whole batch.
    pub batch_energy: Energy,
}

impl BatchReport {
    /// Throughput in images per second.
    #[must_use]
    pub fn throughput_ips(&self) -> f64 {
        f64::from(self.batch) / self.batch_latency.as_seconds()
    }

    /// Energy per image.
    #[must_use]
    pub fn energy_per_image(&self) -> Energy {
        self.batch_energy / f64::from(self.batch)
    }
}

/// Runs a batched inference on `unit`.
///
/// # Errors
///
/// Returns [`ExecError`] when the SoC lacks the unit; panics on a zero batch.
///
/// # Panics
///
/// Panics when `batch == 0`.
pub fn run_batch(
    model: &ExecutionModel,
    network: &Network,
    unit: UnitKind,
    batch: u32,
) -> Result<BatchReport, ExecError> {
    assert!(batch > 0, "batch size must be at least 1");
    let hw = *model
        .soc()
        .unit(unit)
        .ok_or(ExecError::UnknownUnit { unit })?;

    // Build a batch-equivalent network: MACs and activations scale by the
    // batch; weights are loaded once.
    let mut batched = network.clone();
    let b = f64::from(batch);
    for layer in batched.layers_mut() {
        layer.gmacs *= b;
        layer.act_melems *= b;
        // weight_melems unchanged: fetched once per batch.
    }
    let soc = crate::soc::Soc::new("batch", vec![hw]);
    let report = ExecutionModel::new(soc).run(&batched, unit)?;
    Ok(BatchReport {
        unit,
        batch,
        batch_latency: report.latency,
        batch_energy: report.energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_data::ai_models::CnnModel;

    fn model() -> ExecutionModel {
        ExecutionModel::pixel3()
    }

    #[test]
    fn batch_one_matches_single_inference() {
        let net = Network::build(CnnModel::MobileNetV2);
        let single = model().run(&net, UnitKind::Gpu).unwrap();
        let batch = run_batch(&model(), &net, UnitKind::Gpu, 1).unwrap();
        assert!((batch.batch_latency / single.latency - 1.0).abs() < 1e-12);
        assert!((batch.batch_energy / single.energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batching_improves_throughput_and_energy_per_image() {
        let net = Network::build(CnnModel::MobileNetV3);
        let b1 = run_batch(&model(), &net, UnitKind::Dsp, 1).unwrap();
        let b16 = run_batch(&model(), &net, UnitKind::Dsp, 16).unwrap();
        assert!(b16.throughput_ips() > b1.throughput_ips());
        assert!(b16.energy_per_image() < b1.energy_per_image());
    }

    #[test]
    fn returns_diminish_at_large_batches() {
        let net = Network::build(CnnModel::MobileNetV3);
        let b16 = run_batch(&model(), &net, UnitKind::Dsp, 16).unwrap();
        let b256 = run_batch(&model(), &net, UnitKind::Dsp, 256).unwrap();
        let gain_16_to_256 = b256.throughput_ips() / b16.throughput_ips();
        let b1 = run_batch(&model(), &net, UnitKind::Dsp, 1).unwrap();
        let gain_1_to_16 = b16.throughput_ips() / b1.throughput_ips();
        assert!(
            gain_1_to_16 > gain_16_to_256,
            "{gain_1_to_16} vs {gain_16_to_256}"
        );
    }

    #[test]
    fn interactive_latency_grows_with_batch() {
        let net = Network::build(CnnModel::ResNet50);
        let b1 = run_batch(&model(), &net, UnitKind::Cpu, 1).unwrap();
        let b8 = run_batch(&model(), &net, UnitKind::Cpu, 8).unwrap();
        assert!(b8.batch_latency > b1.batch_latency * 6.0);
        // Per image, the batch still amortizes below one interactive run.
        assert!(b8.batch_latency / 8.0 <= b1.batch_latency);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn rejects_zero_batch() {
        let net = Network::build(CnnModel::MobileNetV1);
        let _ = run_batch(&model(), &net, UnitKind::Cpu, 0);
    }
}
