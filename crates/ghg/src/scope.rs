//! GHG Protocol scopes (Fig 3) and their meaning for the three kinds of
//! technology company in Table I.

/// The three GHG Protocol emission scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// Direct emissions: fuel combustion, refrigerants, and — dominant for
    /// chip manufacturers — burning PFCs, chemicals and gases.
    Scope1,
    /// Indirect emissions from purchased energy and heat.
    Scope2,
    /// All other supply-chain emissions, upstream (capital and purchased
    /// goods, construction) and downstream (use and recycling of sold goods).
    Scope3,
}

/// The three company archetypes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompanyKind {
    /// Semiconductor manufacturer (Intel, TSMC, GlobalFoundries).
    ChipManufacturer,
    /// Mobile-device vendor (Apple, Google, Huawei).
    MobileVendor,
    /// Data-center operator (Facebook, Google, Microsoft).
    DatacenterOperator,
}

impl CompanyKind {
    /// All archetypes, in Table I row order.
    pub const ALL: [Self; 3] = [
        Self::ChipManufacturer,
        Self::MobileVendor,
        Self::DatacenterOperator,
    ];

    /// The salient emissions for a scope, per Table I.
    #[must_use]
    pub fn salient_emissions(self, scope: Scope) -> &'static str {
        match (self, scope) {
            (Self::ChipManufacturer, Scope::Scope1) => "Burning PFCs, chemicals, gases",
            (Self::ChipManufacturer, Scope::Scope2) => "Energy for fabrication",
            (Self::ChipManufacturer, Scope::Scope3) => "Raw materials, hardware use",
            (Self::MobileVendor, Scope::Scope1) => "Natural gas, diesel",
            (Self::MobileVendor, Scope::Scope2) => "Energy for offices",
            (Self::MobileVendor, Scope::Scope3) => "Chip manufacturing, hardware use",
            (Self::DatacenterOperator, Scope::Scope1) => "Natural gas, diesel",
            (Self::DatacenterOperator, Scope::Scope2) => "Energy for data centers",
            (Self::DatacenterOperator, Scope::Scope3) => {
                "Server-hardware manufacturing, construction"
            }
        }
    }

    /// Human-readable label, matching Table I.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ChipManufacturer => "Chip manufacturer",
            Self::MobileVendor => "Mobile-device vendor",
            Self::DatacenterOperator => "Data-center operator",
        }
    }
}

impl core::fmt::Display for CompanyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_is_fully_populated() {
        for kind in CompanyKind::ALL {
            for scope in [Scope::Scope1, Scope::Scope2, Scope::Scope3] {
                assert!(!kind.salient_emissions(scope).is_empty());
            }
        }
    }

    #[test]
    fn pfcs_belong_to_chip_manufacturers() {
        assert!(CompanyKind::ChipManufacturer
            .salient_emissions(Scope::Scope1)
            .contains("PFCs"));
    }

    #[test]
    fn labels() {
        assert_eq!(
            CompanyKind::DatacenterOperator.to_string(),
            "Data-center operator"
        );
    }
}
