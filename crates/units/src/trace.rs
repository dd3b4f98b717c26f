//! Time-resolved carbon intensity: a 24-hour grid trace.

use crate::CarbonIntensity;

/// A day of hourly grid carbon intensity, the time-resolved counterpart of a
/// single [`CarbonIntensity`] scalar.
///
/// Traces are always stored on a canonical 24-slot hourly grid (slot `h`
/// covers `[h:00, h+1:00)` local time). Inputs sampled at a different
/// resolution are resampled on construction by [`Self::from_hourly`] with
/// linear interpolation, so downstream consumers (the carbon-aware scheduler,
/// experiments, artifacts) never deal with variable-resolution data.
///
/// ```
/// use cc_units::IntensityTrace;
///
/// let flat = IntensityTrace::flat(380.0);
/// assert_eq!(flat.g_per_kwh(13), 380.0);
/// let solar = IntensityTrace::solar_day(380.0, 120.0);
/// assert!(solar.g_per_kwh(13) < solar.g_per_kwh(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntensityTrace {
    hours: [f64; 24],
}

impl IntensityTrace {
    /// A constant trace: every hour at `g_per_kwh`.
    #[must_use]
    pub fn flat(g_per_kwh: f64) -> Self {
        Self {
            hours: [g_per_kwh; 24],
        }
    }

    /// Builds a trace from `samples.len()` evenly spaced samples over the
    /// day, resampling onto the 24-hour grid with linear interpolation.
    ///
    /// The samples describe a periodic day: sample `i` sits at hour
    /// `i * 24 / n`, and interpolation past the last sample wraps to the
    /// first. Exactly 24 samples pass through unchanged. Returns `None` for
    /// an empty slice.
    #[must_use]
    pub fn from_hourly(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        if n == 24 {
            let mut hours = [0.0; 24];
            hours.copy_from_slice(samples);
            return Some(Self { hours });
        }
        let mut hours = [0.0; 24];
        #[allow(clippy::cast_precision_loss)]
        let step = n as f64 / 24.0;
        for (h, slot) in hours.iter_mut().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let pos = h as f64 * step;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let lo = pos.floor() as usize % n;
            let hi = (lo + 1) % n;
            #[allow(clippy::cast_precision_loss)]
            let frac = pos - pos.floor();
            *slot = samples[lo] + (samples[hi] - samples[lo]) * frac;
        }
        Some(Self { hours })
    }

    /// A parametric solar-heavy day: `night` g/kWh off-peak with a cosine
    /// dip to `noon` g/kWh at 13:00, daylight spanning hours 7–18.
    ///
    /// `solar_day(380.0, 120.0)` reproduces the workspace's historical
    /// hardcoded solar grid shape exactly.
    #[must_use]
    pub fn solar_day(night: f64, noon: f64) -> Self {
        let mut hours = [night; 24];
        for (h, slot) in hours.iter_mut().enumerate().take(19).skip(7) {
            #[allow(clippy::cast_precision_loss)]
            let x = (h as f64 - 13.0) / 6.0;
            let dip = 0.5 * (1.0 + (core::f64::consts::PI * x).cos());
            *slot = night - (night - noon) * dip;
        }
        Self { hours }
    }

    /// The intensity at hour `h` (wrapping past 23), as a raw g/kWh value.
    #[must_use]
    pub fn g_per_kwh(&self, h: usize) -> f64 {
        self.hours[h % 24]
    }

    /// The intensity at hour `h` (wrapping past 23), as a typed quantity.
    #[must_use]
    pub fn at(&self, h: usize) -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(self.g_per_kwh(h))
    }

    /// The full hourly grid.
    #[must_use]
    pub fn hours(&self) -> &[f64; 24] {
        &self.hours
    }

    /// Simple (unweighted) daily mean intensity in g/kWh.
    #[must_use]
    pub fn daily_mean(&self) -> f64 {
        self.hours.iter().sum::<f64>() / 24.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_and_raw_round_trip() {
        let t = IntensityTrace::flat(42.0);
        assert_eq!(t.hours(), &[42.0; 24]);
        assert_eq!(t.daily_mean(), 42.0);
        assert_eq!(IntensityTrace::from_hourly(&[42.0; 24]), Some(t));
        assert_eq!(t.at(3).as_g_per_kwh(), 42.0);
        // Hour indexing wraps.
        assert_eq!(t.g_per_kwh(27), t.g_per_kwh(3));
    }

    #[test]
    fn solar_day_matches_the_historical_shape() {
        // The pre-trace scheduler hardcoded 380 off-peak with a cosine dip
        // of depth 260 centered on 13:00 over hours 7..19.
        let t = IntensityTrace::solar_day(380.0, 120.0);
        for h in 0..24 {
            let expect = if (7..19).contains(&h) {
                #[allow(clippy::cast_precision_loss)]
                let x = (h as f64 - 13.0) / 6.0;
                380.0 - 260.0 * 0.5 * (1.0 + (core::f64::consts::PI * x).cos())
            } else {
                380.0
            };
            assert_eq!(t.g_per_kwh(h), expect, "hour {h}");
        }
        assert_eq!(t.g_per_kwh(13), 120.0);
    }

    #[test]
    fn from_hourly_identity_at_native_resolution() {
        let mut samples = [0.0; 24];
        for (i, s) in samples.iter_mut().enumerate() {
            *s = i as f64 * 10.0;
        }
        let t = IntensityTrace::from_hourly(&samples).unwrap();
        assert_eq!(t.hours(), &samples);
    }

    #[test]
    fn from_hourly_resamples_coarse_and_fine_inputs() {
        // Two samples: 100 at 00:00, 300 at 12:00, wrapping back to 100.
        let t = IntensityTrace::from_hourly(&[100.0, 300.0]).unwrap();
        assert_eq!(t.g_per_kwh(0), 100.0);
        assert_eq!(t.g_per_kwh(12), 300.0);
        assert!((t.g_per_kwh(6) - 200.0).abs() < 1e-9);
        // Interpolation past the last sample wraps toward the first.
        assert!((t.g_per_kwh(18) - 200.0).abs() < 1e-9);

        // 48 half-hourly samples of a flat profile stay flat.
        let fine = IntensityTrace::from_hourly(&[55.0; 48]).unwrap();
        assert_eq!(fine.hours(), &[55.0; 24]);

        assert!(IntensityTrace::from_hourly(&[]).is_none());
    }
}
