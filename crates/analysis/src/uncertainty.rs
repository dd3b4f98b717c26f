//! Monte-Carlo uncertainty propagation.
//!
//! The paper's inputs are disclosed with coarse precision (shares to a few
//! percent, intensities as national averages). This module propagates
//! triangular input distributions through an arbitrary model function and
//! summarizes the output spread — the error bars Fig 6 hints at with its
//! "one standard deviation" whiskers.

use crate::rng::{Rng, SplitMix64};

/// A triangular distribution `(low, mode, high)` — the standard choice for
/// expert-elicited LCA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    /// Lower bound.
    pub low: f64,
    /// Most likely value.
    pub mode: f64,
    /// Upper bound.
    pub high: f64,
}

impl Triangular {
    /// Creates a distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `low <= mode <= high`.
    #[must_use]
    pub fn new(low: f64, mode: f64, high: f64) -> Self {
        assert!(low <= mode && mode <= high, "require low <= mode <= high");
        Self { low, mode, high }
    }

    /// A symmetric ±`rel` relative band around `mode`.
    #[must_use]
    pub fn around(mode: f64, rel: f64) -> Self {
        let half = mode.abs() * rel;
        Self::new(mode - half, mode, mode + half)
    }

    /// Draws one sample by inverse-CDF.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        if self.high == self.low {
            return self.mode;
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        let fc = (self.mode - self.low) / (self.high - self.low);
        if u < fc {
            self.low + (u * (self.high - self.low) * (self.mode - self.low)).sqrt()
        } else {
            self.high - ((1.0 - u) * (self.high - self.low) * (self.high - self.mode)).sqrt()
        }
    }

    /// Analytical mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        (self.low + self.mode + self.high) / 3.0
    }
}

/// Summary of a Monte-Carlo output sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// Runs `trials` Monte-Carlo evaluations of `model` over the given input
/// distributions and summarizes the output.
///
/// `model` receives one sampled value per input, in order. Deterministic for
/// a fixed `seed`.
///
/// The percentiles are nearest-rank order statistics: `pXX` is the output
/// of rank `round((trials - 1) · XX/100)` in ascending [`f64::total_cmp`]
/// order, so `-0.0` ranks below `+0.0`. They are found by selection in
/// O(`trials`) rather than by a full sort: `p50` partitions the outputs, and
/// `p05` and `p95` are then selected within the lower and upper partitions.
/// Each equals, bit for bit, the entry of that rank in the sorted outputs.
/// `mean` and `std` (the `n - 1` sample deviation, 0 for one trial) are
/// summed in draw order.
///
/// # Panics
///
/// Panics when `trials == 0` or `inputs` is empty.
pub fn propagate(
    inputs: &[Triangular],
    trials: u32,
    seed: u64,
    model: impl Fn(&[f64]) -> f64,
) -> McSummary {
    assert!(trials > 0, "need at least one trial");
    assert!(!inputs.is_empty(), "need at least one input");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut outputs: Vec<f64> = Vec::with_capacity(trials as usize);
    let mut draws = vec![0.0; inputs.len()];
    for _ in 0..trials {
        for (d, dist) in draws.iter_mut().zip(inputs) {
            *d = dist.sample(&mut rng);
        }
        outputs.push(model(&draws));
    }
    let n = outputs.len();
    let mean = outputs.iter().sum::<f64>() / n as f64;
    let var = outputs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n.max(2) - 1) as f64;

    let rank = |p: f64| ((n - 1) as f64 * p).round() as usize;
    let (i05, i50, i95) = (rank(0.05), rank(0.50), rank(0.95));
    let (lower, &mut p50, upper) = outputs.select_nth_unstable_by(i50, f64::total_cmp);
    // Ranks coincide for small `n`; the partitions are then empty.
    let p05 = if i05 < i50 {
        *lower.select_nth_unstable_by(i05, f64::total_cmp).1
    } else {
        p50
    };
    let p95 = if i95 > i50 {
        *upper
            .select_nth_unstable_by(i95 - i50 - 1, f64::total_cmp)
            .1
    } else {
        p50
    };
    McSummary {
        mean,
        std: var.sqrt(),
        p05,
        p50,
        p95,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_sampling_matches_analytical_mean() {
        let dist = Triangular::new(10.0, 20.0, 40.0);
        let summary = propagate(&[dist], 20_000, 7, |x| x[0]);
        assert!((summary.mean - dist.mean()).abs() < 0.2, "{}", summary.mean);
        assert!(summary.p05 >= 10.0 && summary.p95 <= 40.0);
        assert!(summary.p05 < summary.p50 && summary.p50 < summary.p95);
    }

    #[test]
    fn degenerate_distribution_is_exact() {
        let dist = Triangular::new(5.0, 5.0, 5.0);
        let summary = propagate(&[dist], 100, 1, |x| x[0]);
        assert_eq!(summary.mean, 5.0);
        assert_eq!(summary.std, 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let dist = Triangular::around(100.0, 0.2);
        let a = propagate(&[dist], 1_000, 42, |x| x[0]);
        let b = propagate(&[dist], 1_000, 42, |x| x[0]);
        assert_eq!(a, b);
        let c = propagate(&[dist], 1_000, 43, |x| x[0]);
        assert_ne!(a, c);
    }

    #[test]
    fn breakeven_uncertainty_band() {
        // Fig 10 with uncertain inputs: SoC budget +/-20%, grid +/-15%,
        // energy per image +/-25%. Breakeven = budget / (energy * grid).
        let inputs = [
            Triangular::around(24_850.0, 0.20), // g CO2e
            Triangular::around(380.0, 0.15),    // g/kWh
            Triangular::around(0.0447, 0.25),   // J/image
        ];
        let summary = propagate(&inputs, 10_000, 99, |x| {
            let budget_g = x[0];
            let grid = x[1];
            let e_kwh = x[2] / 3.6e6;
            budget_g / (e_kwh * grid)
        });
        // The central estimate stays at ~5e9 images and the 90% band stays
        // within the same order of magnitude: the paper's conclusion is
        // robust to disclosure-level uncertainty.
        assert!(summary.p50 > 3e9 && summary.p50 < 8e9, "{}", summary.p50);
        assert!(summary.p95 / summary.p05 < 4.0);
    }

    #[test]
    #[should_panic(expected = "low <= mode")]
    fn rejects_disordered_bounds() {
        let _ = Triangular::new(2.0, 1.0, 3.0);
    }
}
