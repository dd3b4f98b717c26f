//! Transport-phase model: mode- and distance-based shipping emissions.
//!
//! Vendor LCAs report transport as a lump share (see
//! [`cc_data::devices`]); this module provides the forward model for
//! *designing* a logistics chain: emissions = Σ (mass × distance ×
//! mode intensity). Mode intensities are standard logistics factors in
//! g CO₂e per tonne-kilometre.

use cc_units::CarbonMass;

/// A freight mode with its carbon intensity per tonne-kilometre.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreightMode {
    /// Air freight (~500 g CO₂e/t-km) — how launch-window consumer
    /// electronics actually ship.
    Air,
    /// Container ship (~15 g CO₂e/t-km).
    Sea,
    /// Rail (~30 g CO₂e/t-km).
    Rail,
    /// Heavy truck (~100 g CO₂e/t-km).
    Road,
}

impl FreightMode {
    /// Mode intensity in g CO₂e per tonne-kilometre.
    #[must_use]
    pub fn g_per_tonne_km(self) -> f64 {
        match self {
            Self::Air => 500.0,
            Self::Sea => 15.0,
            Self::Rail => 30.0,
            Self::Road => 100.0,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Air => "air",
            Self::Sea => "sea",
            Self::Rail => "rail",
            Self::Road => "road",
        }
    }
}

impl core::fmt::Display for FreightMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One leg of a shipping route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteLeg {
    /// Freight mode for this leg.
    pub mode: FreightMode,
    /// Distance in kilometres.
    pub distance_km: f64,
}

/// A multi-leg shipping route for a product of a given shipped mass.
///
/// ```
/// use cc_lca::transport::{FreightMode, ShippingRoute};
///
/// // A phone (with packaging, 0.4 kg) flown from Shenzhen to the US,
/// // then trucked to the customer:
/// let route = ShippingRoute::new(0.4)
///     .leg(FreightMode::Air, 11_000.0)
///     .leg(FreightMode::Road, 800.0);
/// let carbon = route.carbon();
/// assert!(carbon.as_kg() > 2.0 && carbon.as_kg() < 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShippingRoute {
    shipped_mass_kg: f64,
    legs: Vec<RouteLeg>,
}

impl ShippingRoute {
    /// Starts a route for a product shipping at `shipped_mass_kg`
    /// (product + packaging).
    ///
    /// # Panics
    ///
    /// Panics if the mass is not strictly positive.
    #[must_use]
    pub fn new(shipped_mass_kg: f64) -> Self {
        assert!(shipped_mass_kg > 0.0, "shipped mass must be positive");
        Self {
            shipped_mass_kg,
            legs: Vec::new(),
        }
    }

    /// Adds a leg (consuming builder: routes are usually literals).
    #[must_use]
    pub fn leg(mut self, mode: FreightMode, distance_km: f64) -> Self {
        self.legs.push(RouteLeg { mode, distance_km });
        self
    }

    /// Transport carbon for one unit.
    #[must_use]
    pub fn carbon(&self) -> CarbonMass {
        let tonnes = self.shipped_mass_kg / 1_000.0;
        let grams: f64 = self
            .legs
            .iter()
            .map(|l| tonnes * l.distance_km * l.mode.g_per_tonne_km())
            .sum();
        CarbonMass::from_grams(grams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn air_dominates_mixed_routes() {
        let route = ShippingRoute::new(0.4)
            .leg(FreightMode::Air, 11_000.0)
            .leg(FreightMode::Road, 800.0);
        let air_only = ShippingRoute::new(0.4).leg(FreightMode::Air, 11_000.0);
        assert!(air_only.carbon() / route.carbon() > 0.95);
    }

    #[test]
    fn sea_is_an_order_of_magnitude_cleaner_than_air() {
        let air = ShippingRoute::new(0.4).leg(FreightMode::Air, 11_000.0);
        let sea = ShippingRoute::new(0.4).leg(FreightMode::Sea, 18_000.0);
        assert!(air.carbon() / sea.carbon() > 10.0);
    }

    #[test]
    fn consistent_with_vendor_lca_magnitudes() {
        // iPhone transport per vendor LCA: ~5% of 75 kg ~= 3.75 kg. An
        // air-freighted phone should land in the same ballpark.
        let route = ShippingRoute::new(0.6)
            .leg(FreightMode::Air, 11_000.0)
            .leg(FreightMode::Road, 1_000.0);
        let kg = route.carbon().as_kg();
        assert!(kg > 1.0 && kg < 6.0, "{kg}");
    }

    #[test]
    fn scales_linearly_with_units_and_mass() {
        let route = ShippingRoute::new(1.0).leg(FreightMode::Rail, 1_000.0);
        let heavy = ShippingRoute::new(2.0).leg(FreightMode::Rail, 1_000.0);
        assert!((heavy.carbon() / route.carbon() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "shipped mass")]
    fn rejects_zero_mass() {
        let _ = ShippingRoute::new(0.0);
    }

    #[test]
    fn empty_route_is_zero_carbon() {
        assert!(ShippingRoute::new(1.0).carbon().is_zero());
    }
}
