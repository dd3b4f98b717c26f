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
    /// assert_eq!(Energy::from_gwh(1_000.0).as_twh(), 1.0);
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

    /// Creates an energy from megawatt-hours.
    #[must_use]
    pub fn from_mwh(mwh: f64) -> Self {
        Self::from_kwh(mwh * 1e3)
    }

    /// Creates an energy from gigawatt-hours.
    #[must_use]
    pub fn from_gwh(gwh: f64) -> Self {
        Self::from_kwh(gwh * 1e6)
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

    /// Energy in terawatt-hours.
    #[must_use]
    pub fn as_twh(self) -> f64 {
        self.as_kwh() / 1e9
    }
}

/// `Energy / TimeSpan = Power` (average power over the span).
impl core::ops::Div<crate::TimeSpan> for Energy {
    type Output = crate::Power;

    fn div(self, rhs: crate::TimeSpan) -> crate::Power {
        crate::Power::from_watts(self.joules / rhs.as_seconds())
    }
}

/// `Energy / Power = TimeSpan` (how long the power level can be sustained).
impl core::ops::Div<crate::Power> for Energy {
    type Output = crate::TimeSpan;

    fn div(self, rhs: crate::Power) -> crate::TimeSpan {
        crate::TimeSpan::from_seconds(self.joules / rhs.as_watts())
    }
}

/// `Energy * CarbonIntensity = CarbonMass` (the Scope 2 conversion).
impl core::ops::Mul<crate::CarbonIntensity> for Energy {
    type Output = crate::CarbonMass;

    fn mul(self, rhs: crate::CarbonIntensity) -> crate::CarbonMass {
        crate::CarbonMass::from_grams(self.as_kwh() * rhs.as_g_per_kwh())
    }
}

impl core::fmt::Display for Energy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let kwh = self.as_kwh().abs();
        if kwh >= 1e9 {
            write!(f, "{:.3} TWh", self.as_twh())
        } else if kwh >= 1e6 {
            write!(f, "{:.3} GWh", self.as_gwh())
        } else if kwh >= 1e3 {
            write!(f, "{:.3} MWh", self.as_mwh())
        } else if kwh >= 1.0 {
            write!(f, "{:.3} kWh", self.as_kwh())
        } else {
            write!(f, "{:.3} J", self.as_joules())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CarbonIntensity, Power, TimeSpan};

    #[test]
    fn unit_conversions_round_trip() {
        let e = Energy::from_kwh(7.7e9); // 3 nm fab annual demand (paper §II)
        assert!((e.as_twh() - 7.7).abs() < 1e-9);
        assert_eq!(Energy::from_mwh(1.0), Energy::from_kwh(1_000.0));
        assert_eq!(Energy::from_gwh(1.0), Energy::from_mwh(1_000.0));
    }

    #[test]
    fn energy_power_time_algebra() {
        let p = Power::from_watts(730.0); // Mac Pro 2 TDP, Table IV
        let t = TimeSpan::from_hours(10.0);
        let e = p * t;
        assert!((e.as_kwh() - 7.3).abs() < 1e-9);
        assert!((e / t).as_watts() - 730.0 < 1e-9);
        assert!(((e / p).as_hours() - 10.0).abs() < 1e-9);
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
    fn display_scales() {
        assert_eq!(Energy::from_gwh(1_500.0).to_string(), "1.500 TWh");
        assert_eq!(Energy::from_gwh(2.0).to_string(), "2.000 GWh");
        assert_eq!(Energy::from_mwh(3.0).to_string(), "3.000 MWh");
        assert_eq!(Energy::from_kwh(4.0).to_string(), "4.000 kWh");
        assert_eq!(Energy::from_joules(5.0).to_string(), "5.000 J");
    }

    #[test]
    fn negative_energy_behaves() {
        let e = -Energy::from_kwh(1.0);
        assert!(e < Energy::ZERO);
        assert_eq!(e.abs(), Energy::from_kwh(1.0));
    }
}
