//! A simulated Monsoon-style power monitor.
//!
//! The paper measured device energy "on a Monsoon power monitor": the
//! instrument samples instantaneous power at high frequency and the energy is
//! the integral of the trace. This module reproduces that measurement
//! pipeline over a simulated inference: the execution model's per-layer
//! power profile is sampled at the monitor's rate with Gaussian measurement
//! noise, then integrated back to energy. Tests verify the sampled estimate
//! converges to the analytical energy — the same sanity check one performs
//! on the physical instrument.

use crate::exec::InferenceReport;
use cc_analysis::rng::{Rng, SplitMix64};
use cc_units::{Energy, Power, TimeSpan};

/// A sampled power trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    sample_period: TimeSpan,
    samples_w: Vec<f64>,
}

impl PowerTrace {
    /// Integrates the trace to energy (rectangle rule, like the instrument).
    #[must_use]
    pub fn energy(&self) -> Energy {
        let joules: f64 = self
            .samples_w
            .iter()
            .map(|w| w * self.sample_period.as_seconds())
            .sum();
        Energy::from_joules(joules)
    }
}

/// The simulated instrument.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMonitor {
    sample_rate_hz: f64,
    noise_sigma_w: f64,
    seed: u64,
}

impl PowerMonitor {
    /// A Monsoon HV power monitor: 5 kHz sampling, ±50 mW noise.
    #[must_use]
    pub fn monsoon() -> Self {
        Self {
            sample_rate_hz: 5_000.0,
            noise_sigma_w: 0.05,
            seed: 0x6d6f6e736f6f6e,
        }
    }

    /// Samples the power profile of `runs` back-to-back inferences.
    ///
    /// The profile is piecewise constant per layer: static power plus the
    /// layer's dynamic energy spread over its latency — exactly what the
    /// execution model asserts the device does.
    #[must_use]
    pub fn sample(&self, report: &InferenceReport, static_power: Power, runs: u32) -> PowerTrace {
        let period_s = 1.0 / self.sample_rate_hz;
        // Build the per-layer (duration, power) profile once.
        let profile: Vec<(f64, f64)> = report
            .layers
            .iter()
            .filter(|l| l.latency > TimeSpan::ZERO)
            .map(|l| {
                let s = l.latency.as_seconds();
                (
                    s,
                    static_power.as_watts() + l.dynamic_energy.as_joules() / s,
                )
            })
            .collect();
        let run_s: f64 = profile.iter().map(|&(d, _)| d).sum();
        let total_s = run_s * f64::from(runs);
        let n = (total_s / period_s).ceil() as usize;

        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let t = (i as f64 + 0.5) * period_s;
            let t_in_run = t % run_s;
            let mut acc = 0.0;
            let mut power = profile.last().map_or(0.0, |&(_, p)| p);
            for &(d, p) in &profile {
                acc += d;
                if t_in_run < acc {
                    power = p;
                    break;
                }
            }
            // Box-Muller Gaussian noise.
            let u1: f64 = rng.next_f64().max(1e-12);
            let u2: f64 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
            samples.push((power + z * self.noise_sigma_w).max(0.0));
        }
        PowerTrace {
            sample_period: TimeSpan::from_seconds(period_s),
            samples_w: samples,
        }
    }

    /// Measures per-inference energy: samples `runs` inferences and divides
    /// the integrated energy by the run count — the authors' procedure for
    /// amortizing trigger jitter.
    #[must_use]
    pub fn measure_energy(
        &self,
        report: &InferenceReport,
        static_power: Power,
        runs: u32,
    ) -> Energy {
        self.sample(report, static_power, runs).energy() / f64::from(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionModel;
    use crate::network::Network;
    use crate::soc::UnitKind;
    use cc_data::ai_models::CnnModel;

    fn cpu_report() -> (InferenceReport, Power) {
        let model = ExecutionModel::pixel3();
        let report = model
            .run(&Network::build(CnnModel::MobileNetV3), UnitKind::Cpu)
            .unwrap();
        let static_power = model.soc().unit(UnitKind::Cpu).unwrap().static_power();
        (report, static_power)
    }

    #[test]
    fn sampled_energy_converges_to_analytical() {
        let (report, static_power) = cpu_report();
        let monitor = PowerMonitor::monsoon();
        let measured = monitor.measure_energy(&report, static_power, 500);
        let rel = (measured / report.energy - 1.0).abs();
        assert!(rel < 0.03, "sampled vs analytical differ by {rel:.3}");
    }

    #[test]
    fn noiseless_monitor_is_nearly_exact() {
        let (report, static_power) = cpu_report();
        let monitor = PowerMonitor {
            sample_rate_hz: 1_000_000.0,
            noise_sigma_w: 0.0,
            seed: 7,
        };
        let measured = monitor.measure_energy(&report, static_power, 10);
        let rel = (measured / report.energy - 1.0).abs();
        assert!(rel < 0.005, "rel err {rel}");
    }

    #[test]
    fn trace_statistics_are_sane() {
        let (report, static_power) = cpu_report();
        let trace = PowerMonitor::monsoon().sample(&report, static_power, 100);
        let samples = &trace.samples_w;
        assert!(!samples.is_empty());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let peak = samples.iter().copied().fold(0.0, f64::max);
        assert!(peak >= mean);
        assert!(mean > static_power.as_watts());
        assert!((trace.sample_period.as_seconds() - 0.0002).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (report, static_power) = cpu_report();
        let a = PowerMonitor::monsoon().sample(&report, static_power, 50);
        let b = PowerMonitor::monsoon().sample(&report, static_power, 50);
        assert_eq!(a, b);
    }
}
