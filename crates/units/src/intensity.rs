//! The [`CarbonIntensity`] quantity.

quantity! {
    /// Carbon emitted per unit of energy generated, stored canonically in
    /// grams of CO₂e per kilowatt-hour.
    ///
    /// This is the quantity that distinguishes "brown" from "green" energy in
    /// the paper: coal emits 820 g CO₂e/kWh while wind emits 11 g CO₂e/kWh —
    /// "up to 30× fewer GHG emissions" (§II, Table II). It is the single knob
    /// turned in Figs 13 and 14.
    ///
    /// ```
    /// use cc_units::CarbonIntensity;
    ///
    /// let coal = CarbonIntensity::from_g_per_kwh(820.0);
    /// let wind = CarbonIntensity::from_g_per_kwh(11.0);
    /// assert!((coal / wind - 74.5).abs() < 0.1);
    /// ```
    CarbonIntensity, g_per_kwh, "CarbonIntensity"
}

impl CarbonIntensity {
    /// Creates an intensity from grams of CO₂e per kilowatt-hour.
    #[must_use]
    pub fn from_g_per_kwh(g_per_kwh: f64) -> Self {
        Self { g_per_kwh }
    }

    /// Intensity in grams of CO₂e per kilowatt-hour.
    #[must_use]
    pub fn as_g_per_kwh(self) -> f64 {
        self.g_per_kwh
    }

    /// Blends two intensities with the given share of `self`
    /// (`share` in `[0, 1]`): the effective intensity of an energy mix.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `share` is outside `[0, 1]`.
    #[must_use]
    pub fn blend(self, other: Self, share_of_self: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&share_of_self),
            "share must be in [0, 1]"
        );
        Self {
            g_per_kwh: self.g_per_kwh * share_of_self + other.g_per_kwh * (1.0 - share_of_self),
        }
    }
}

/// `CarbonIntensity * Energy = CarbonMass` (commutes with the `Energy` impl).
impl core::ops::Mul<crate::Energy> for CarbonIntensity {
    type Output = crate::CarbonMass;

    fn mul(self, rhs: crate::Energy) -> crate::CarbonMass {
        rhs * self
    }
}

impl core::fmt::Display for CarbonIntensity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1} g CO2e/kWh", self.g_per_kwh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Energy;

    #[test]
    fn multiplication_commutes() {
        let e = Energy::from_kwh(10.0);
        let i = CarbonIntensity::from_g_per_kwh(41.0); // solar, Table II
        assert_eq!(e * i, i * e);
        assert!(((e * i).as_grams() - 410.0).abs() < 1e-9);
    }

    #[test]
    fn blending_energy_mixes() {
        // 80% wind (11) + 20% gas (490) = 106.8 g/kWh.
        let wind = CarbonIntensity::from_g_per_kwh(11.0);
        let gas = CarbonIntensity::from_g_per_kwh(490.0);
        let mix = wind.blend(gas, 0.8);
        assert!((mix.as_g_per_kwh() - 106.8).abs() < 1e-9);
        // Degenerate blends return the endpoints.
        assert_eq!(wind.blend(gas, 1.0), wind);
        assert_eq!(wind.blend(gas, 0.0), gas);
    }

    #[test]
    fn display() {
        assert_eq!(
            CarbonIntensity::from_g_per_kwh(380.0).to_string(),
            "380.0 g CO2e/kWh"
        );
    }
}
