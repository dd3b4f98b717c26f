//! The paper's headline abstraction: any system's carbon footprint split
//! into opex- and capex-related emissions, with the comparisons the paper
//! makes (shares, ratios, what-if grids).

use cc_units::{CarbonMass, Ratio};

/// An opex/capex carbon decomposition.
///
/// This is deliberately the *lowest*-resolution view — two numbers — because
/// it is the paper's unit of argument: "In 2019 ... capex- and supply-chain-
/// related activities accounted for 23× more carbon emissions than
/// opex-related activities at Facebook."
///
/// ```
/// use cc_core::decomposition::CarbonDecomposition;
/// use cc_units::CarbonMass;
///
/// let iphone11 = CarbonDecomposition::new(
///     CarbonMass::from_kg(10.5), // opex
///     CarbonMass::from_kg(64.5), // capex
/// );
/// assert!((iphone11.capex_share().as_percent() - 86.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CarbonDecomposition {
    opex: CarbonMass,
    capex: CarbonMass,
}

impl CarbonDecomposition {
    /// Creates a decomposition from opex and capex carbon.
    #[must_use]
    pub fn new(opex: CarbonMass, capex: CarbonMass) -> Self {
        Self { opex, capex }
    }

    /// From a life-cycle footprint.
    #[must_use]
    pub fn from_footprint(fp: &cc_lca::Footprint) -> Self {
        Self {
            opex: fp.opex(),
            capex: fp.capex(),
        }
    }

    /// Total carbon.
    #[must_use]
    pub fn total(&self) -> CarbonMass {
        self.opex + self.capex
    }

    /// Capex share of total.
    #[must_use]
    pub fn capex_share(&self) -> Ratio {
        Ratio::from_fraction(self.capex / self.total())
    }

    /// Opex share of total.
    #[must_use]
    pub fn opex_share(&self) -> Ratio {
        Ratio::from_fraction(self.opex / self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_ratio() {
        let d = CarbonDecomposition::new(CarbonMass::from_mt(0.25), CarbonMass::from_mt(5.75));
        // The paper's "23×": capex over opex.
        assert!((d.capex_share() / d.opex_share() - 23.0).abs() < 1e-9);
        assert!(d.capex_share().as_fraction() > 0.5);
        assert!((d.capex_share().as_fraction() + d.opex_share().as_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_footprint_and_inventory_agree_with_sources() {
        let lca = cc_data::devices::find("iPhone 3GS").unwrap();
        let d = CarbonDecomposition::from_footprint(&cc_lca::Footprint::from_product_lca(lca));
        assert!((d.capex_share().as_percent() - 49.0).abs() < 0.5);
        assert!(d.capex_share().as_fraction() < 0.5);

        // Opex is Scope 1 + market-based Scope 2; capex is Scope 3.
        let fb = cc_data::corporate::year_of(&cc_data::corporate::FACEBOOK, 2019).unwrap();
        let opex = CarbonMass::from_mt(fb.scope1_mt + fb.scope2_market_mt);
        let d = CarbonDecomposition::new(opex, CarbonMass::from_mt(fb.scope3_mt));
        assert!((d.capex_share() / d.opex_share() - 19.46).abs() < 0.1);
    }
}
