//! The fifteen GHG Protocol Scope 3 categories, with the paper's
//! capex/opex interpretation for technology companies.

/// A GHG Protocol Scope 3 category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope3Cat {
    /// 1. Purchased goods and services.
    PurchasedGoods,
    /// 2. Capital goods (servers, infrastructure, construction).
    CapitalGoods,
    /// 3. Fuel- and energy-related activities.
    FuelAndEnergy,
    /// 4. Upstream transportation and distribution.
    UpstreamTransport,
    /// 5. Waste generated in operations.
    Waste,
    /// 6. Business travel.
    BusinessTravel,
    /// 7. Employee commuting.
    Commuting,
    /// 8. Upstream leased assets.
    UpstreamLeased,
    /// 9. Downstream transportation and distribution.
    DownstreamTransport,
    /// 10. Processing of sold products.
    Processing,
    /// 11. Use of sold products (a mobile vendor's downstream opex).
    UseOfSoldProducts,
    /// 12. End-of-life treatment of sold products.
    EndOfLife,
    /// 13. Downstream leased assets.
    DownstreamLeased,
    /// 14. Franchises.
    Franchises,
    /// 15. Investments.
    Investments,
}

impl Scope3Cat {
    /// All fifteen categories in protocol order.
    pub const ALL: [Self; 15] = [
        Self::PurchasedGoods,
        Self::CapitalGoods,
        Self::FuelAndEnergy,
        Self::UpstreamTransport,
        Self::Waste,
        Self::BusinessTravel,
        Self::Commuting,
        Self::UpstreamLeased,
        Self::DownstreamTransport,
        Self::Processing,
        Self::UseOfSoldProducts,
        Self::EndOfLife,
        Self::DownstreamLeased,
        Self::Franchises,
        Self::Investments,
    ];

    /// Whether the category is upstream (1–8) or downstream (9–15) in the
    /// protocol's taxonomy (Fig 3).
    #[must_use]
    pub fn is_upstream(self) -> bool {
        matches!(
            self,
            Self::PurchasedGoods
                | Self::CapitalGoods
                | Self::FuelAndEnergy
                | Self::UpstreamTransport
                | Self::Waste
                | Self::BusinessTravel
                | Self::Commuting
                | Self::UpstreamLeased
        )
    }

    /// Human-readable label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::PurchasedGoods => "Purchased goods and services",
            Self::CapitalGoods => "Capital goods",
            Self::FuelAndEnergy => "Fuel- and energy-related activities",
            Self::UpstreamTransport => "Upstream transportation",
            Self::Waste => "Waste generated in operations",
            Self::BusinessTravel => "Business travel",
            Self::Commuting => "Employee commuting",
            Self::UpstreamLeased => "Upstream leased assets",
            Self::DownstreamTransport => "Downstream transportation",
            Self::Processing => "Processing of sold products",
            Self::UseOfSoldProducts => "Use of sold products",
            Self::EndOfLife => "End-of-life treatment of sold products",
            Self::DownstreamLeased => "Downstream leased assets",
            Self::Franchises => "Franchises",
            Self::Investments => "Investments",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_categories_numbered_in_order() {
        assert_eq!(Scope3Cat::ALL.len(), 15);
        assert_eq!(Scope3Cat::ALL[0], Scope3Cat::PurchasedGoods);
        assert_eq!(Scope3Cat::ALL[1], Scope3Cat::CapitalGoods);
        assert_eq!(Scope3Cat::ALL[14], Scope3Cat::Investments);
    }

    #[test]
    fn display() {
        assert_eq!(Scope3Cat::CapitalGoods.name(), "Capital goods");
    }

    #[test]
    fn upstream_split_is_eight_seven() {
        let upstream = Scope3Cat::ALL.iter().filter(|c| c.is_upstream()).count();
        assert_eq!(upstream, 8);
    }
}
