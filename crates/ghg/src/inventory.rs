//! Corporate GHG inventories: per-scope totals with location- and
//! market-based Scope 2. In the paper's terms, Scope 1 + Scope 2 is opex
//! and Scope 3 capex.

use cc_units::CarbonMass;

/// Which Scope 2 accounting method to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope2Method {
    /// Location-based: the local grid's average mix ("often a mix of brown
    /// and green sources").
    LocationBased,
    /// Market-based: the energy the company "purposefully chose or
    /// contracted — typically solar, hydroelectric, wind".
    MarketBased,
}

/// One reporting period of a corporate GHG inventory.
///
/// ```
/// use cc_ghg::{CorporateInventory, Scope2Method};
/// use cc_units::CarbonMass;
///
/// // Facebook 2019 (Fig 11).
/// let fb = CorporateInventory::builder()
///     .scope2_location(CarbonMass::from_mt(2.2))
///     .scope2_market(CarbonMass::from_mt(0.252))
///     .scope3(CarbonMass::from_mt(5.8))
///     .build();
/// let ratio = fb.scope3() / fb.scope2(Scope2Method::MarketBased);
/// assert!((ratio - 23.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CorporateInventory {
    scope1: CarbonMass,
    scope2_location: CarbonMass,
    scope2_market: CarbonMass,
    scope3: CarbonMass,
}

impl CorporateInventory {
    /// Starts a builder with all scopes zero.
    #[must_use]
    pub fn builder() -> CorporateInventoryBuilder {
        CorporateInventoryBuilder::default()
    }

    /// Creates an inventory from a `cc-data` scope-series year.
    #[must_use]
    pub fn from_scope_year(year: &cc_data::corporate::ScopeYear) -> Self {
        Self {
            scope1: CarbonMass::from_mt(year.scope1_mt),
            scope2_location: CarbonMass::from_mt(year.scope2_location_mt),
            scope2_market: CarbonMass::from_mt(year.scope2_market_mt),
            scope3: CarbonMass::from_mt(year.scope3_mt),
        }
    }

    /// Scope 2 emissions under the requested method.
    #[must_use]
    pub fn scope2(&self, method: Scope2Method) -> CarbonMass {
        match method {
            Scope2Method::LocationBased => self.scope2_location,
            Scope2Method::MarketBased => self.scope2_market,
        }
    }

    /// Scope 3 emissions.
    #[must_use]
    pub fn scope3(&self) -> CarbonMass {
        self.scope3
    }
}

impl core::fmt::Display for CorporateInventory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "S1 {} | S2 loc {} / mkt {} | S3 {}",
            self.scope1, self.scope2_location, self.scope2_market, self.scope3
        )
    }
}

/// Builder for [`CorporateInventory`].
#[derive(Debug, Clone, Default)]
pub struct CorporateInventoryBuilder {
    inventory: CorporateInventory,
}

impl CorporateInventoryBuilder {
    /// Sets location-based Scope 2 emissions.
    pub fn scope2_location(&mut self, carbon: CarbonMass) -> &mut Self {
        self.inventory.scope2_location = carbon;
        self
    }

    /// Sets market-based Scope 2 emissions.
    pub fn scope2_market(&mut self, carbon: CarbonMass) -> &mut Self {
        self.inventory.scope2_market = carbon;
        self
    }

    /// Sets Scope 3 emissions.
    pub fn scope3(&mut self, carbon: CarbonMass) -> &mut Self {
        self.inventory.scope3 = carbon;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(&self) -> CorporateInventory {
        self.inventory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb2019() -> CorporateInventory {
        CorporateInventory::from_scope_year(
            cc_data::corporate::year_of(&cc_data::corporate::FACEBOOK, 2019).unwrap(),
        )
    }

    #[test]
    fn scope_accessors() {
        let inv = fb2019();
        assert!((inv.scope3().as_mt() - 5.8).abs() < 1e-12);
        assert!(inv.scope2(Scope2Method::LocationBased) > inv.scope2(Scope2Method::MarketBased));
    }

    #[test]
    fn opex_capex_rollup() {
        let inv = fb2019();
        // Opex is Scope 1 + Scope 2; capex is Scope 3.
        let opex = |m| inv.scope1 + inv.scope2(m);
        assert!((opex(Scope2Method::MarketBased).as_mt() - 0.298).abs() < 1e-9);
        assert_eq!(inv.scope3().as_mt(), 5.8);
        let capex_share = |m| inv.scope3() / (opex(m) + inv.scope3());
        // Capex dominates overwhelmingly under market-based accounting.
        assert!(capex_share(Scope2Method::MarketBased) > 0.90);
        // And less so under the location-based counterfactual.
        assert!(capex_share(Scope2Method::LocationBased) < capex_share(Scope2Method::MarketBased));
    }

    #[test]
    fn renewable_savings_positive_for_green_buyers() {
        let inv = fb2019();
        // Avoided Scope 2 from renewable procurement: location - market.
        let savings =
            inv.scope2(Scope2Method::LocationBased) - inv.scope2(Scope2Method::MarketBased);
        assert!(savings > CarbonMass::ZERO);
        assert!((savings.as_mt() - (2.2 - 0.252)).abs() < 1e-9);
    }

    #[test]
    fn builder_round_trip() {
        let inv = CorporateInventory::builder()
            .scope2_location(CarbonMass::from_mt(5.0))
            .scope2_market(CarbonMass::from_mt(0.684))
            .scope3(CarbonMass::from_mt(14.0))
            .build();
        let ratio = inv.scope3() / inv.scope2(Scope2Method::MarketBased);
        assert!((ratio - 20.47).abs() < 0.1, "Google 2018: ~21x");
        assert!(inv.to_string().contains("S3"));
    }
}
