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
}

/// `Power * TimeSpan = Energy`.
impl core::ops::Mul<crate::TimeSpan> for Power {
    type Output = crate::Energy;

    fn mul(self, rhs: crate::TimeSpan) -> crate::Energy {
        crate::Energy::from_joules(self.watts * rhs.as_seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeSpan;

    #[test]
    fn conversions() {
        assert_eq!(
            (Power::from_watts(1_500.0) * TimeSpan::from_hours(1.0)).as_kwh(),
            1.5
        );
    }
}
