//! The [`Energy`] quantity.

quantity! {
    /// An amount of energy, stored canonically in joules.
    ///
    /// Energy is the quantity that links operational activity to carbon:
    /// multiplying an [`Energy`](crate::Energy) by a
    /// [`CarbonIntensity`](crate::CarbonIntensity) yields the
    /// [`CarbonMass`](crate::CarbonMass) emitted to generate it (the paper's
    /// Scope 2 / opex pathway).
    ///
    /// ```
    /// use cc_units::Energy;
    ///
    /// let e = Energy::from_kwh(1.0);
    /// assert_eq!(e.as_joules(), 3.6e6);
    /// assert_eq!(Energy::from_kwh(1e6).as_gwh(), 1.0);
    /// ```
    Energy, joules, "Energy"
}

/// Joules per kilowatt-hour.
pub(crate) const JOULES_PER_KWH: f64 = 3.6e6;

impl Energy {
    /// Creates an energy from joules.
    #[must_use]
    pub fn from_joules(joules: f64) -> Self {
        Self { joules }
    }

    /// Creates an energy from kilowatt-hours.
    #[must_use]
    pub fn from_kwh(kwh: f64) -> Self {
        Self {
            joules: kwh * JOULES_PER_KWH,
        }
    }

    /// Energy in joules.
    #[must_use]
    pub fn as_joules(self) -> f64 {
        self.joules
    }

    /// Energy in kilowatt-hours.
    #[must_use]
    pub fn as_kwh(self) -> f64 {
        self.joules / JOULES_PER_KWH
    }

    /// Energy in megawatt-hours.
    #[must_use]
    pub fn as_mwh(self) -> f64 {
        self.as_kwh() / 1e3
    }

    /// Energy in gigawatt-hours.
    #[must_use]
    pub fn as_gwh(self) -> f64 {
        self.as_kwh() / 1e6
    }
}

/// `Energy / TimeSpan = Power` (average power over the span).
impl core::ops::Div<crate::TimeSpan> for Energy {
    type Output = crate::Power;

    fn div(self, rhs: crate::TimeSpan) -> crate::Power {
        crate::Power::from_watts(self.joules / rhs.as_seconds())
    }
}

/// `Energy * CarbonIntensity = CarbonMass` (the Scope 2 conversion).
impl core::ops::Mul<crate::CarbonIntensity> for Energy {
    type Output = crate::CarbonMass;

    fn mul(self, rhs: crate::CarbonIntensity) -> crate::CarbonMass {
        crate::CarbonMass::from_grams(self.as_kwh() * rhs.as_g_per_kwh())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CarbonIntensity, Power, TimeSpan};

    #[test]
    fn unit_conversions_round_trip() {
        let e = Energy::from_kwh(7.7e9); // 3 nm fab annual demand (paper §II)
        assert!((e.as_gwh() - 7_700.0).abs() < 1e-6);
    }

    #[test]
    fn energy_power_time_algebra() {
        let p = Power::from_watts(730.0); // Mac Pro 2 TDP, Table IV
        let t = TimeSpan::from_hours(10.0);
        let e = p * t;
        assert!((e.as_kwh() - 7.3).abs() < 1e-9);
        assert!((e / t).as_watts() - 730.0 < 1e-9);
    }

    #[test]
    fn scope2_conversion() {
        // 1 kWh on the Indian grid (725 g/kWh, Table III) emits 725 g CO2e.
        let carbon = Energy::from_kwh(1.0) * CarbonIntensity::from_g_per_kwh(725.0);
        assert!((carbon.as_grams() - 725.0).abs() < 1e-9);
    }

    #[test]
    fn sum_and_scaling() {
        let total: Energy = [1.0, 2.0, 3.0].iter().map(|&k| Energy::from_kwh(k)).sum();
        assert!((total.as_kwh() - 6.0).abs() < 1e-12);
        assert_eq!((total * 2.0).as_kwh(), 12.0);
        assert_eq!((total / 2.0).as_kwh(), 3.0);
        assert!((total / Energy::from_kwh(3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_energy_behaves() {
        let e = -Energy::from_kwh(1.0);
        assert!(e < Energy::ZERO);
        assert_eq!(-e, Energy::from_kwh(1.0));
    }
}
