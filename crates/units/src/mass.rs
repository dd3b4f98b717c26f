//! The [`CarbonMass`] quantity.

quantity! {
    /// A mass of emitted greenhouse gas, in CO₂-equivalents, stored
    /// canonically in grams.
    ///
    /// The paper spans twelve orders of magnitude of this quantity: from the
    /// fraction of a gram emitted per mobile inference up to Apple's 25
    /// **million metric tons** annual footprint, so the type provides
    /// constructors and accessors across that whole range.
    ///
    /// ```
    /// use cc_units::CarbonMass;
    ///
    /// let apple_2019 = CarbonMass::from_mt(25.0);
    /// assert_eq!(apple_2019.as_tonnes(), 25_000_000.0);
    /// ```
    CarbonMass, grams, "CarbonMass"
}

impl CarbonMass {
    /// Creates a carbon mass from grams of CO₂e.
    #[must_use]
    pub fn from_grams(grams: f64) -> Self {
        Self { grams }
    }

    /// Creates a carbon mass from kilograms of CO₂e (product LCAs).
    #[must_use]
    pub fn from_kg(kg: f64) -> Self {
        Self { grams: kg * 1e3 }
    }

    /// Creates a carbon mass from kilotonnes (thousand metric tons) of CO₂e.
    #[must_use]
    pub fn from_kt(kt: f64) -> Self {
        Self { grams: kt * 1e9 }
    }

    /// Creates a carbon mass from million metric tons of CO₂e
    /// (corporate-inventory scale).
    #[must_use]
    pub fn from_mt(mt: f64) -> Self {
        Self { grams: mt * 1e12 }
    }

    /// Carbon mass in grams of CO₂e.
    #[must_use]
    pub fn as_grams(self) -> f64 {
        self.grams
    }

    /// Carbon mass in kilograms of CO₂e.
    #[must_use]
    pub fn as_kg(self) -> f64 {
        self.grams / 1e3
    }

    /// Carbon mass in metric tons of CO₂e.
    #[must_use]
    pub fn as_tonnes(self) -> f64 {
        self.grams / 1e6
    }

    /// Carbon mass in kilotonnes of CO₂e.
    #[must_use]
    pub fn as_kt(self) -> f64 {
        self.grams / 1e9
    }

    /// Carbon mass in million metric tons of CO₂e.
    #[must_use]
    pub fn as_mt(self) -> f64 {
        self.grams / 1e12
    }
}

impl core::fmt::Display for CarbonMass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let g = self.grams.abs();
        if g >= 1e12 {
            write!(f, "{:.3} Mt CO2e", self.as_mt())
        } else if g >= 1e9 {
            write!(f, "{:.3} kt CO2e", self.as_kt())
        } else if g >= 1e6 {
            write!(f, "{:.3} t CO2e", self.as_tonnes())
        } else if g >= 1e3 {
            write!(f, "{:.3} kg CO2e", self.as_kg())
        } else {
            write!(f, "{:.3} g CO2e", self.grams)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CarbonIntensity, Energy};

    #[test]
    fn conversions() {
        assert_eq!(CarbonMass::from_kg(1.0).as_grams(), 1e3);
        assert_eq!(CarbonMass::from_kg(1e3).as_tonnes(), 1.0);
        assert_eq!(CarbonMass::from_kt(1.0).as_tonnes(), 1e3);
        assert_eq!(CarbonMass::from_mt(1.0).as_kt(), 1e3);
    }

    #[test]
    fn fig10_breakeven_energy() {
        // 25 kg CO2e of SoC manufacturing amortized on the US grid buys
        // 25_000 g / 380 g/kWh ~= 65.8 kWh of operational energy.
        let budget = CarbonMass::from_kg(25.0);
        let grid = CarbonIntensity::from_g_per_kwh(380.0);
        let emitted = Energy::from_kwh(65.789) * grid;
        assert!((emitted.as_kg() - budget.as_kg()).abs() < 0.01);
    }

    #[test]
    fn effective_intensity_from_totals() {
        let emitted = Energy::from_kwh(100.0) * CarbonIntensity::from_g_per_kwh(41.0);
        let g_per_kwh = emitted.as_grams() / Energy::from_kwh(100.0).as_kwh();
        assert!((g_per_kwh - 41.0).abs() < 1e-9);
    }

    #[test]
    fn display_scales() {
        assert_eq!(CarbonMass::from_mt(25.0).to_string(), "25.000 Mt CO2e");
        assert_eq!(CarbonMass::from_kt(684.0).to_string(), "684.000 kt CO2e");
        assert_eq!(CarbonMass::from_kg(1_900.0).to_string(), "1.900 t CO2e");
        assert_eq!(CarbonMass::from_kg(66.0).to_string(), "66.000 kg CO2e");
        assert_eq!(CarbonMass::from_grams(0.5).to_string(), "0.500 g CO2e");
    }

    #[test]
    fn recycling_credit_is_negative() {
        let credit = CarbonMass::from_kg(-2.0);
        let total = CarbonMass::from_kg(70.0) + credit;
        assert_eq!(total, CarbonMass::from_kg(68.0));
    }
}
