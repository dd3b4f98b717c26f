//! Fleet heterogeneity: specialized hardware vs general-purpose fleets.
//!
//! Section VI: "Our work enables systems researchers to consider how
//! heterogeneity can reduce carbon footprint by reducing overall hardware
//! resources in the data center." The model here serves a fixed workload
//! (abstract "serving units") with either a homogeneous general-purpose fleet
//! or a mix that includes accelerators, and compares yearly opex + amortized
//! capex carbon.

use crate::server::ServerConfig;
use cc_units::{CarbonIntensity, CarbonMass, Energy, TimeSpan};

/// A server SKU annotated with how many workload units one box serves.
#[derive(Debug, Clone, PartialEq)]
pub struct SkuCapability {
    /// The hardware.
    pub sku: ServerConfig,
    /// Serving capacity in abstract workload units per server.
    pub units_per_server: f64,
}

impl SkuCapability {
    /// Wraps a plain catalog SKU at 1 workload unit per server — the form
    /// [`crate::FleetMix`] composes facility fleets from.
    #[must_use]
    pub fn of(sku: ServerConfig) -> Self {
        Self {
            sku,
            units_per_server: 1.0,
        }
    }

    /// A general-purpose CPU server: 1 unit each.
    #[must_use]
    pub fn general_purpose() -> Self {
        Self::of(ServerConfig::web())
    }

    /// An inference accelerator: ~10 units each at 4× the power and ~3× the
    /// embodied carbon (the specialization bargain).
    #[must_use]
    pub fn accelerator() -> Self {
        Self {
            sku: ServerConfig {
                name: "accelerator".into(),
                average_power_w: 1_000.0,
                embodied_kg: 3_300.0,
                lifetime_years: 3.0,
            },
            units_per_server: 10.0,
        }
    }
}

/// A provisioned fleet slice: a SKU and a server count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSlice {
    /// The SKU with its capability.
    pub capability: SkuCapability,
    /// Provisioned servers.
    pub servers: f64,
}

impl FleetSlice {
    /// IT + overhead energy this slice consumes in one year at the given
    /// PUE. Shared by [`provision`] and the facility simulation, so the two
    /// models price a slice identically.
    #[must_use]
    pub fn annual_energy(&self, pue: f64) -> Energy {
        self.capability.sku.average_power() * self.servers * TimeSpan::from_years(1.0) * pue
    }

    /// Yearly carbon of this slice on `grid`: operational energy plus
    /// lifetime-amortized embodied carbon.
    #[must_use]
    pub fn yearly_carbon(&self, grid: CarbonIntensity, pue: f64) -> FleetCarbon {
        FleetCarbon {
            opex_per_year: self.annual_energy(pue) * grid,
            capex_per_year: self.capability.sku.embodied_per_year() * self.servers,
        }
    }
}

/// Yearly carbon cost of a fleet: operational plus amortized embodied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetCarbon {
    /// Operational (energy) carbon per year.
    pub opex_per_year: CarbonMass,
    /// Amortized embodied carbon per year.
    pub capex_per_year: CarbonMass,
}

impl FleetCarbon {
    /// Total yearly carbon.
    #[must_use]
    pub fn total(&self) -> CarbonMass {
        self.opex_per_year + self.capex_per_year
    }
}

/// Provisions a homogeneous fleet of `capability` to serve `demand_units`,
/// then prices its yearly carbon on `grid` at the given PUE.
///
/// # Panics
///
/// Panics when demand is negative or PUE < 1.
#[must_use]
pub fn provision(
    capability: &SkuCapability,
    demand_units: f64,
    grid: CarbonIntensity,
    pue: f64,
) -> (FleetSlice, FleetCarbon) {
    assert!(demand_units >= 0.0, "demand must be non-negative");
    assert!(pue >= 1.0, "PUE is a multiplier >= 1");
    let slice = FleetSlice {
        capability: capability.clone(),
        servers: (demand_units / capability.units_per_server).ceil(),
    };
    let carbon = slice.yearly_carbon(grid, pue);
    (slice, carbon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us() -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(380.0)
    }

    /// A general-purpose fleet against an accelerator fleet for the same
    /// demand: `(general, specialized)` yearly carbon.
    fn specialization_comparison(
        demand_units: f64,
        grid: CarbonIntensity,
        pue: f64,
    ) -> (FleetCarbon, FleetCarbon) {
        let (_, general) = provision(&SkuCapability::general_purpose(), demand_units, grid, pue);
        let (_, special) = provision(&SkuCapability::accelerator(), demand_units, grid, pue);
        (general, special)
    }

    #[test]
    fn provisioning_rounds_up() {
        let (slice, _) = provision(&SkuCapability::accelerator(), 95.0, us(), 1.1);
        assert_eq!(slice.servers, 10.0);
        let (slice, _) = provision(&SkuCapability::accelerator(), 101.0, us(), 1.1);
        assert_eq!(slice.servers, 11.0);
    }

    #[test]
    fn specialization_wins_at_scale() {
        // 10,000 units: 10,000 CPU boxes vs 1,000 accelerators.
        let (general, special) = specialization_comparison(10_000.0, us(), 1.1);
        assert!(special.opex_per_year < general.opex_per_year * 0.5);
        assert!(special.capex_per_year < general.capex_per_year * 0.5);
        assert!(special.total() < general.total() * 0.5);
    }

    #[test]
    fn specialization_advantage_shrinks_on_green_grids() {
        // On a near-zero grid the opex advantage vanishes; only the embodied
        // (capex) advantage remains — the paper's point that renewable energy
        // refocuses optimization on manufacturing.
        let wind = CarbonIntensity::from_g_per_kwh(11.0);
        let (general, special) = specialization_comparison(10_000.0, wind, 1.1);
        let advantage = general.total() / special.total();
        let (general_us, special_us) = specialization_comparison(10_000.0, us(), 1.1);
        let advantage_us = general_us.total() / special_us.total();
        // Still a win, but the capex ratio (1100*10 / 3300/3yr...) dominates.
        assert!(advantage > 1.0);
        // On wind, capex dominates both fleets' totals.
        assert!(special.capex_per_year > special.opex_per_year);
        assert!(general.capex_per_year > general.opex_per_year);
        // Sanity: both advantages are in the same ballpark (embodied-driven).
        assert!(advantage / advantage_us < 1.5 && advantage_us / advantage < 1.5);
    }

    #[test]
    fn tiny_demand_pays_a_granularity_penalty() {
        // 1 unit of demand still provisions a whole accelerator.
        let (general, special) = specialization_comparison(1.0, us(), 1.1);
        assert!(special.total() > general.total());
    }

    #[test]
    #[should_panic(expected = "demand")]
    fn rejects_negative_demand() {
        let _ = provision(&SkuCapability::general_purpose(), -1.0, us(), 1.1);
    }
}
