//! Renewable-energy procurement: power-purchase-agreement (PPA) portfolios
//! and the resulting market-based carbon intensity.
//!
//! "Around 2013, Facebook and Google began procuring renewable energy to
//! reduce operational carbon emissions. These purchases decreased their
//! operational carbon output even though their energy consumption continued
//! to increase" (§IV-B).

use cc_data::energy_sources::EnergySource;
use cc_units::{CarbonIntensity, CarbonMass, Energy};

/// One power purchase agreement: a yearly energy volume from one source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ppa {
    /// Contracted generation source.
    pub source: EnergySource,
    /// Contracted annual energy.
    pub annual_energy: Energy,
}

/// A portfolio of PPAs held against a location grid.
///
/// ```
/// use cc_ghg::PpaPortfolio;
/// use cc_data::energy_sources::EnergySource;
/// use cc_units::{Energy, CarbonIntensity};
///
/// let mut portfolio = PpaPortfolio::new(CarbonIntensity::from_g_per_kwh(380.0));
/// portfolio.contract(EnergySource::Wind, Energy::from_kwh(3e8));
/// portfolio.contract(EnergySource::Solar, Energy::from_kwh(1e8));
///
/// // A 500 GWh/year facility: 400 GWh covered, 100 GWh residual grid.
/// let demand = Energy::from_kwh(5e8);
/// let g_per_kwh = portfolio.market_carbon(demand).as_grams() / demand.as_kwh();
/// assert!(g_per_kwh < 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PpaPortfolio {
    grid: CarbonIntensity,
    contracts: Vec<Ppa>,
}

impl PpaPortfolio {
    /// Creates an empty portfolio against the given location grid.
    #[must_use]
    pub fn new(grid: CarbonIntensity) -> Self {
        Self {
            grid,
            contracts: Vec::new(),
        }
    }

    /// Adds a contract.
    pub fn contract(&mut self, source: EnergySource, annual_energy: Energy) -> &mut Self {
        self.contracts.push(Ppa {
            source,
            annual_energy,
        });
        self
    }

    /// Total contracted annual energy.
    #[must_use]
    pub fn contracted_energy(&self) -> Energy {
        self.contracts.iter().map(|p| p.annual_energy).sum()
    }

    /// Market-based carbon for an annual `demand`: contracted energy at the
    /// contracted sources' intensities (allocated proportionally when
    /// over-subscribed), residual demand at the location grid.
    #[must_use]
    pub fn market_carbon(&self, demand: Energy) -> CarbonMass {
        let contracted = self.contracted_energy();
        if demand <= Energy::ZERO {
            return CarbonMass::ZERO;
        }
        // Scale contract allocation down if contracts exceed demand.
        let alloc = if contracted > demand {
            demand / contracted
        } else {
            1.0
        };
        let green: CarbonMass = self
            .contracts
            .iter()
            .map(|p| (p.annual_energy * alloc) * p.source.carbon_intensity())
            .sum();
        let residual = (demand - contracted * alloc).max(Energy::ZERO);
        green + residual * self.grid
    }

    /// Location-based carbon for `demand`: everything at the location grid.
    #[must_use]
    pub fn location_carbon(&self, demand: Energy) -> CarbonMass {
        demand.max(Energy::ZERO) * self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us_portfolio() -> PpaPortfolio {
        PpaPortfolio::new(CarbonIntensity::from_g_per_kwh(380.0))
    }

    #[test]
    fn empty_portfolio_is_location_based() {
        let p = us_portfolio();
        let demand = Energy::from_kwh(1e8);
        assert_eq!(p.market_carbon(demand), p.location_carbon(demand));
        assert_eq!(p.market_carbon(demand).as_grams() / demand.as_kwh(), 380.0);
        assert_eq!(p.contracted_energy(), Energy::ZERO);
    }

    #[test]
    fn full_wind_coverage_approaches_zero() {
        let mut p = us_portfolio();
        p.contract(EnergySource::Wind, Energy::from_kwh(1e8));
        let demand = Energy::from_kwh(1e8);
        assert!((p.market_carbon(demand).as_grams() / demand.as_kwh() - 11.0).abs() < 1e-9);
        // Location-based is unchanged: the gap is the Fig 11 green-vs-red gap.
        assert!(p.location_carbon(demand) / p.market_carbon(demand) > 30.0);
    }

    #[test]
    fn partial_coverage_blends() {
        let mut p = us_portfolio();
        p.contract(EnergySource::Solar, Energy::from_kwh(5e7));
        let demand = Energy::from_kwh(1e8);
        // 50% at 41, 50% at 380 => 210.5.
        assert!((p.market_carbon(demand).as_grams() / demand.as_kwh() - 210.5).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_does_not_go_negative() {
        let mut p = us_portfolio();
        p.contract(EnergySource::Wind, Energy::from_kwh(5e8));
        let demand = Energy::from_kwh(1e8);
        assert!((p.market_carbon(demand).as_grams() / demand.as_kwh() - 11.0).abs() < 1e-9);
        assert!(p.market_carbon(demand) >= CarbonMass::ZERO);
    }

    #[test]
    fn mixed_portfolio_weights_by_energy() {
        let mut p = us_portfolio();
        p.contract(EnergySource::Wind, Energy::from_kwh(3e8));
        p.contract(EnergySource::Solar, Energy::from_kwh(1e8));
        let demand = Energy::from_kwh(4e8);
        // (300*11 + 100*41) / 400 = 18.5 g/kWh.
        assert!((p.market_carbon(demand).as_grams() / demand.as_kwh() - 18.5).abs() < 1e-9);
        assert_eq!(p.contracted_energy(), Energy::from_kwh(4e8));
    }

    #[test]
    fn zero_demand_is_harmless() {
        let p = us_portfolio();
        assert_eq!(p.market_carbon(Energy::ZERO), CarbonMass::ZERO);
    }
}
