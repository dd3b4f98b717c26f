//! The dimensionless [`Ratio`] quantity.

quantity! {
    /// A dimensionless ratio or share, stored as a plain fraction
    /// (`1.0` = 100%).
    ///
    /// Used throughout the workspace for breakdown fractions ("manufacturing
    /// accounts for 74% of Apple's emissions"), efficiency factors (PUE is a
    /// ratio ≥ 1) and utilization.
    ///
    /// ```
    /// use cc_units::Ratio;
    ///
    /// let manufacturing = Ratio::from_fraction(0.74);
    /// assert!((manufacturing.as_fraction() - 0.74).abs() < 1e-12);
    /// assert_eq!(manufacturing.to_string(), "74.0%");
    /// ```
    Ratio, fraction, "Ratio"
}

impl Ratio {
    /// Creates a ratio from a fraction (`0.74` = 74%).
    #[must_use]
    pub fn from_fraction(fraction: f64) -> Self {
        Self { fraction }
    }

    /// The ratio as a fraction.
    #[must_use]
    pub fn as_fraction(self) -> f64 {
        self.fraction
    }

    /// The ratio as a percentage.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.fraction * 100.0
    }
}

/// `Ratio * Ratio = Ratio` (compose shares).
impl core::ops::Mul for Ratio {
    type Output = Self;

    fn mul(self, rhs: Self) -> Self {
        Self {
            fraction: self.fraction * rhs.fraction,
        }
    }
}

impl core::fmt::Display for Ratio {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1}%", self.as_percent())
    }
}

/// Scaling any quantity by a `Ratio` is scaling by its fraction.
macro_rules! ratio_scales {
    ($($q:ty),*) => {$(
        impl core::ops::Mul<Ratio> for $q {
            type Output = $q;
            fn mul(self, rhs: Ratio) -> $q {
                self * rhs.as_fraction()
            }
        }

        impl core::ops::Mul<$q> for Ratio {
            type Output = $q;
            fn mul(self, rhs: $q) -> $q {
                rhs * self.as_fraction()
            }
        }
    )*};
}

ratio_scales!(
    crate::Energy,
    crate::Power,
    crate::CarbonMass,
    crate::CarbonIntensity,
    crate::TimeSpan
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CarbonMass;

    #[test]
    fn scales_other_quantities() {
        let total = CarbonMass::from_kg(72.0); // iPhone 11 total LCA
        let mfg = total * Ratio::from_fraction(0.79);
        assert!((mfg.as_kg() - 56.88).abs() < 1e-9);
        assert_eq!(Ratio::from_fraction(0.5) * total, total * 0.5);
    }

    #[test]
    fn composition() {
        // half of production, production is 74% of total => 37% of total.
        let ics = Ratio::from_fraction(0.5) * Ratio::from_fraction(0.74);
        assert!((ics.as_percent() - 37.0).abs() < 1e-9);
    }
}
