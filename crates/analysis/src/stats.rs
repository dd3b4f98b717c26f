//! Summary-statistics helpers, buffered and streaming.
//!
//! The buffered half ([`mean`], [`stddev`], [`summarize`]) serves small
//! in-memory value sets: Fig 6's "one standard deviation of manufacturing
//! and operational-use breakdowns" and the per-sweep [`Summary`] digests.
//!
//! The streaming half serves Monte-Carlo sweeps, where 10⁴–10⁶ sampled
//! model outputs must be digested without buffering the sample:
//! [`Welford`] maintains mean/variance in O(1) state, [`P2Quantile`] runs
//! the P² marker algorithm (Jain & Chlamtac, CACM 1985) for a single
//! quantile in O(1) state, and [`StreamingStats`] bundles both with
//! min/max into the n/mean/stddev/min/max/p05/p50/p95 digest behind every
//! confidence-banded comparison line. Both accumulators are
//! order-sensitive by construction, so callers that need byte-identical
//! output across thread counts must push values in a deterministic order
//! (the engine's Monte-Carlo driver reorders samples by index before
//! pushing).

/// Arithmetic mean. Returns `None` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Sample standard deviation (n − 1 denominator). Returns `None` with fewer
/// than two values.
#[must_use]
pub fn stddev(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    Some(var.sqrt())
}

/// Mean and sample standard deviation in one pass-friendly call; the
/// deviation is 0 for singletons.
#[must_use]
pub fn mean_std(values: &[f64]) -> Option<(f64, f64)> {
    let m = mean(values)?;
    Some((m, stddev(values).unwrap_or(0.0)))
}

/// Smallest and largest value. Returns `None` for an empty slice; any NaN
/// poisons both extremes (`f64::min`/`max` would silently skip NaN, leaving
/// the extremes inconsistent with a NaN mean — so it is checked explicitly).
#[must_use]
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let first = *values.first()?;
    if values.iter().any(|v| v.is_nan()) {
        return Some((f64::NAN, f64::NAN));
    }
    Some(
        values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

/// Five-number digest of a value set, used by cross-scenario comparison
/// reports to say how much a sweep actually moved a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarized.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for singletons).
    pub stddev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// `max / min`, the headline "this knob moves the answer N×" number.
    /// `None` when the minimum is zero or the ratio is not finite.
    #[must_use]
    pub fn spread_ratio(&self) -> Option<f64> {
        let ratio = self.max / self.min;
        ratio.is_finite().then_some(ratio)
    }
}

/// Summarizes a value set. Returns `None` for an empty slice.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let (mean, stddev) = mean_std(values)?;
    let (min, max) = min_max(values)?;
    Some(Summary {
        n: values.len(),
        mean,
        stddev,
        min,
        max,
    })
}

/// Welford's online mean/variance accumulator: numerically stable
/// single-pass mean and sample variance in three words of state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one value in.
    pub fn push(&mut self, value: f64) {
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of values folded in so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `None` while empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance (n − 1 denominator); 0 for a singleton, `None`
    /// while empty — matching the buffered [`mean_std`] convention.
    #[must_use]
    pub fn variance(&self) -> Option<f64> {
        match self.n {
            0 => None,
            1 => Some(0.0),
            n => Some(self.m2 / (n - 1) as f64),
        }
    }

    /// Sample standard deviation; see [`Self::variance`].
    #[must_use]
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

/// Streaming single-quantile estimator: the P² algorithm (Jain &
/// Chlamtac, CACM 1985). Five markers track the running quantile with
/// parabolic interpolation; memory stays O(1) no matter how many values
/// stream through. Exact for the first five observations (sorted buffer),
/// approximate after — well within the Monte-Carlo sampling noise the
/// confidence bands already carry.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights `q_i` once initialized (first five values, sorted).
    heights: [f64; 5],
    /// Actual marker positions `n_i` (1-indexed observation counts).
    positions: [f64; 5],
    /// Desired marker positions `n'_i`.
    desired: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// An estimator for the `p`-quantile (`0 < p < 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "require 0 < p < 1");
        Self {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            count: 0,
        }
    }

    /// Folds one value in.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let n = self.count as usize;
        if n <= 5 {
            // Initialization: keep the first five observations sorted.
            let mut i = n - 1;
            self.heights[i] = value;
            while i > 0 && self.heights[i - 1] > self.heights[i] {
                self.heights.swap(i - 1, i);
                i -= 1;
            }
            return;
        }

        // Locate the cell k with q_k <= value < q_{k+1}, clamping into the
        // extremes when the value falls outside the current markers.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            (0..4)
                .rfind(|&i| self.heights[i] <= value)
                .expect("heights[0] <= value")
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        let increments = [0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0];
        for (d, inc) in self.desired.iter_mut().zip(increments) {
            *d += inc;
        }

        // Adjust the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let step_up = d >= 1.0 && self.positions[i + 1] - self.positions[i] > 1.0;
            let step_down = d <= -1.0 && self.positions[i - 1] - self.positions[i] < -1.0;
            if !(step_up || step_down) {
                continue;
            }
            let d = d.signum();
            let parabolic = self.parabolic(i, d);
            self.heights[i] = if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1]
            {
                parabolic
            } else {
                self.linear(i, d)
            };
            self.positions[i] += d;
        }
    }

    /// Piecewise-parabolic (P²) height update for marker `i` moving by `d`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabolic prediction leaves the bracket.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate; `None` while empty. Exact below six
    /// observations (interpolated from the sorted buffer), P² after.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        let n = self.count as usize;
        match n {
            0 => None,
            1..=5 => {
                // Exact linear-interpolated quantile over the sorted prefix.
                let rank = self.p * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let frac = rank - lo as f64;
                Some(self.heights[lo] * (1.0 - frac) + self.heights[hi.min(n - 1)] * frac)
            }
            _ => Some(self.heights[2]),
        }
    }
}

/// Eight-number digest of a streamed sample: the [`Summary`] five plus
/// the 5th/50th/95th percentile estimates that frame a 90% confidence
/// band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandedSummary {
    /// Number of values streamed.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for singletons).
    pub stddev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// 5th-percentile estimate.
    pub p05: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
}

impl BandedSummary {
    /// Half-width of the central 90% interval, `(p95 − p05) / 2` — the
    /// "±0.8 yr" in a banded headline. Zero when the output does not vary.
    #[must_use]
    pub fn ci90_half_width(&self) -> f64 {
        (self.p95 - self.p05) / 2.0
    }
}

/// Streaming digest accumulator: Welford mean/variance, running min/max
/// and P² estimates at the 5th, 50th and 95th percentiles — everything a
/// confidence-banded comparison reports, in O(1) memory.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingStats {
    welford: Welford,
    min: f64,
    max: f64,
    p05: P2Quantile,
    p50: P2Quantile,
    p95: P2Quantile,
}

impl StreamingStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            welford: Welford::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            p05: P2Quantile::new(0.05),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
        }
    }

    /// Folds one value in.
    pub fn push(&mut self, value: f64) {
        self.welford.push(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.p05.push(value);
        self.p50.push(value);
        self.p95.push(value);
    }

    /// The digest; `None` while empty.
    #[must_use]
    pub fn summary(&self) -> Option<BandedSummary> {
        Some(BandedSummary {
            n: self.welford.count(),
            mean: self.welford.mean()?,
            stddev: self.welford.stddev()?,
            min: self.min,
            max: self.max,
            p05: self.p05.estimate()?,
            p50: self.p50.estimate()?,
            p95: self.p95.estimate()?,
        })
    }
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(stddev(&[1.0]), None);
        let sd = stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((sd - 2.138).abs() < 1e-3);
        assert_eq!(mean_std(&[5.0]), Some((5.0, 0.0)));
    }

    #[test]
    fn summarize_digests_a_sweep() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(min_max(&[]), None);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        let s = summarize(&[350.0, 700.0, 1400.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 350.0);
        assert_eq!(s.max, 1400.0);
        assert!((s.mean - 816.666).abs() < 1e-2);
        assert!((s.spread_ratio().unwrap() - 4.0).abs() < 1e-12);
        let single = summarize(&[5.0]).unwrap();
        assert_eq!(single.stddev, 0.0);
        let zero_min = summarize(&[0.0, 1.0]).unwrap();
        assert_eq!(zero_min.spread_ratio(), None);
        // NaN poisons the extremes, keeping them consistent with the mean.
        let (lo, hi) = min_max(&[f64::NAN, 5.0, 2.0]).unwrap();
        assert!(lo.is_nan() && hi.is_nan());
    }

    #[test]
    fn welford_matches_buffered_stats() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.stddev(), None);
        for v in values {
            w.push(v);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean().unwrap() - mean(&values).unwrap()).abs() < 1e-12);
        assert!((w.stddev().unwrap() - stddev(&values).unwrap()).abs() < 1e-12);
        let mut single = Welford::new();
        single.push(5.0);
        assert_eq!(single.stddev(), Some(0.0));
    }

    #[test]
    fn p2_is_exact_for_small_samples() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        for v in [9.0, 1.0, 5.0] {
            q.push(v);
        }
        assert_eq!(q.estimate(), Some(5.0));
        let mut q25 = P2Quantile::new(0.25);
        for v in [4.0, 1.0, 2.0, 3.0] {
            q25.push(v);
        }
        // Exact interpolated 25th percentile of {1,2,3,4} at rank 0.75.
        assert_eq!(q25.estimate(), Some(1.75));
    }

    #[test]
    fn p2_tracks_exact_quantiles_at_scale() {
        // A deterministic low-discrepancy stream over (0, 1): the exact
        // p-quantile of the underlying uniform is p itself.
        let golden = 0.618_033_988_749_895_f64;
        for p in [0.05, 0.5, 0.95] {
            let mut q = P2Quantile::new(p);
            for i in 0..100_000u64 {
                q.push((i as f64 * golden).fract());
            }
            let got = q.estimate().unwrap();
            assert!((got - p).abs() < 0.01, "P2({p}) = {got}");
        }
    }

    #[test]
    #[should_panic(expected = "0 < p < 1")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn streaming_stats_digest_a_stream() {
        let mut s = StreamingStats::new();
        assert_eq!(s.summary(), None);
        let golden = 0.618_033_988_749_895_f64;
        for i in 0..50_000u64 {
            s.push(10.0 + (i as f64 * golden).fract());
        }
        let d = s.summary().unwrap();
        assert_eq!(d.n, 50_000);
        assert!((d.mean - 10.5).abs() < 1e-3);
        // U(10, 11): stddev = 1/sqrt(12) ≈ 0.2887.
        assert!((d.stddev - 0.2887).abs() < 1e-3);
        assert!(d.min >= 10.0 && d.max < 11.0);
        assert!((d.p05 - 10.05).abs() < 0.01);
        assert!((d.p50 - 10.5).abs() < 0.01);
        assert!((d.p95 - 10.95).abs() < 0.01);
        assert!((d.ci90_half_width() - 0.45).abs() < 0.01);
    }

    #[test]
    fn streaming_stats_constant_stream_has_zero_band() {
        let mut s = StreamingStats::new();
        for _ in 0..1000 {
            s.push(2014.6);
        }
        let d = s.summary().unwrap();
        assert_eq!(d.mean, 2014.6);
        assert_eq!(d.stddev, 0.0);
        assert_eq!(d.ci90_half_width(), 0.0);
        assert_eq!((d.min, d.max), (2014.6, 2014.6));
    }
}
