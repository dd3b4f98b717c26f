//! The [`Power`] quantity.

quantity! {
    /// An instantaneous rate of energy use, stored canonically in watts.
    ///
    /// ```
    /// use cc_units::{Power, TimeSpan};
    ///
    /// // The paper's Monsoon measurements are device power over an inference.
    /// let p = Power::from_watts(4.2);
    /// let e = p * TimeSpan::from_seconds(0.006);
    /// assert!((e.as_joules() - 0.0252).abs() < 1e-12);
    /// ```
    Power, watts, "Power"
}

impl Power {
    /// Creates a power from watts.
    #[must_use]
    pub fn from_watts(watts: f64) -> Self {
        Self { watts }
    }

    /// Power in watts.
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.watts
    }

    /// Power in milliwatts.
    #[must_use]
    pub fn as_milliwatts(self) -> f64 {
        self.watts * 1e3
    }

    /// Power in kilowatts.
    #[must_use]
    pub fn as_kilowatts(self) -> f64 {
        self.watts / 1e3
    }

    /// Power in megawatts.
    #[must_use]
    pub fn as_megawatts(self) -> f64 {
        self.watts / 1e6
    }
}

/// `Power * TimeSpan = Energy`.
impl core::ops::Mul<crate::TimeSpan> for Power {
    type Output = crate::Energy;

    fn mul(self, rhs: crate::TimeSpan) -> crate::Energy {
        crate::Energy::from_joules(self.watts * rhs.as_seconds())
    }
}

/// `TimeSpan * Power = Energy` (commutes).
impl core::ops::Mul<Power> for crate::TimeSpan {
    type Output = crate::Energy;

    fn mul(self, rhs: Power) -> crate::Energy {
        rhs * self
    }
}

impl core::fmt::Display for Power {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let w = self.watts.abs();
        if w >= 1e6 {
            write!(f, "{:.3} MW", self.as_megawatts())
        } else if w >= 1e3 {
            write!(f, "{:.3} kW", self.as_kilowatts())
        } else if w >= 1.0 {
            write!(f, "{:.3} W", self.watts)
        } else {
            write!(f, "{:.3} mW", self.as_milliwatts())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeSpan;

    #[test]
    fn conversions() {
        assert_eq!(Power::from_watts(1_500.0).as_kilowatts(), 1.5);
    }

    #[test]
    fn power_times_time_commutes() {
        let p = Power::from_watts(310.0);
        let t = TimeSpan::from_hours(2.0);
        assert_eq!(p * t, t * p);
        assert!(((p * t).as_kwh() - 0.62).abs() < 1e-12);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Power::from_watts(30e6).to_string(), "30.000 MW");
        assert_eq!(Power::from_watts(1_200.0).to_string(), "1.200 kW");
        assert_eq!(Power::from_watts(4.5).to_string(), "4.500 W");
        assert_eq!(Power::from_watts(0.25).to_string(), "250.000 mW");
    }
}
