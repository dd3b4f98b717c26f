//! Corporate GHG inventories and breakdowns.
//!
//! Digitized from the sustainability reports the paper cites (Apple 2019,
//! Facebook 2019, Google 2019, Intel 2020, AMD 2020).
//!
//! ## Reconstruction anchors
//!
//! * Apple FY2019: total 25 Mt CO₂e; manufacturing 74% of total; product use
//!   19%; integrated circuits ≈ 33% of total; full hardware life cycle > 98%
//!   (Fig 5, Takeaway 1).
//! * Google 2018: Scope 3 = 14.0 Mt = 21× Scope 2 (market) = 684 kt; Scope 3
//!   grew ≈ 5× from 2017 after a hardware-disclosure change, while energy
//!   consumption grew only ≈ 30% (Fig 11, §IV-A).
//! * Facebook 2019: Scope 3 = 5.8 Mt = 23× Scope 2 (market) = 252 kt
//!   (Fig 11, Contribution 3).
//! * Facebook 2018 opex/capex pies (Fig 2): with renewables (market-based
//!   Scope 2), capex ≈ 82%; with the location-based counterfactual and
//!   pre-disclosure Scope 3, opex ≈ 65%.
//! * Facebook 2019 Scope 3 categories: capital goods 48%, purchased goods
//!   39%, travel 10%, other 3% (Fig 12).
//! * Intel: ≈ 60% of life-cycle emissions from hardware use on the US grid;
//!   only 9.7% of fab energy is non-renewable. AMD: ≈ 45% from hardware use
//!   (Fig 13, Takeaway 9).

use cc_units::CarbonMass;

// ---------------------------------------------------------------------------
// Apple FY2019 (Fig 5)
// ---------------------------------------------------------------------------

/// One slice of Apple's FY2019 footprint (share of the company total).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppleSlice {
    /// Slice label as shown in Fig 5.
    pub label: &'static str,
    /// Top-level group (`"Manufacturing"`, `"Product Use"`, …).
    pub group: &'static str,
    /// Share of Apple's total footprint, as a fraction.
    pub share: f64,
}

/// Apple's total FY2019 footprint: 25 million metric tons CO₂e.
#[must_use]
pub fn apple_2019_total() -> CarbonMass {
    CarbonMass::from_mt(25.0)
}

/// Apple FY2019 footprint breakdown (Fig 5). Shares sum to 1.
///
/// Manufacturing sums to 0.74, product use to 0.19, and integrated circuits
/// alone are 0.33 — the three shares the paper quotes.
pub const APPLE_2019_BREAKDOWN: [AppleSlice; 16] = [
    AppleSlice {
        label: "Integrated circuits",
        group: "Manufacturing",
        share: 0.33,
    },
    AppleSlice {
        label: "Boards & flexes",
        group: "Manufacturing",
        share: 0.10,
    },
    AppleSlice {
        label: "Aluminum",
        group: "Manufacturing",
        share: 0.09,
    },
    AppleSlice {
        label: "Displays",
        group: "Manufacturing",
        share: 0.07,
    },
    AppleSlice {
        label: "Electronics",
        group: "Manufacturing",
        share: 0.05,
    },
    AppleSlice {
        label: "Assembly",
        group: "Manufacturing",
        share: 0.04,
    },
    AppleSlice {
        label: "Steel",
        group: "Manufacturing",
        share: 0.03,
    },
    AppleSlice {
        label: "Other manufacturing",
        group: "Manufacturing",
        share: 0.03,
    },
    AppleSlice {
        label: "iOS device use",
        group: "Product Use",
        share: 0.11,
    },
    AppleSlice {
        label: "macOS active use",
        group: "Product Use",
        share: 0.04,
    },
    AppleSlice {
        label: "macOS idle use",
        group: "Product Use",
        share: 0.02,
    },
    AppleSlice {
        label: "Other product use",
        group: "Product Use",
        share: 0.02,
    },
    AppleSlice {
        label: "Product transport",
        group: "Transport",
        share: 0.05,
    },
    AppleSlice {
        label: "Corporate facilities",
        group: "Facilities",
        share: 0.013,
    },
    AppleSlice {
        label: "Recycling",
        group: "End-of-life",
        share: 0.004,
    },
    AppleSlice {
        label: "Business travel",
        group: "Facilities",
        share: 0.003,
    },
];

/// Sum of the shares for one Fig 5 group.
#[must_use]
pub fn apple_2019_group_share(group: &str) -> f64 {
    APPLE_2019_BREAKDOWN
        .iter()
        .filter(|s| s.group == group)
        .map(|s| s.share)
        .sum()
}

// ---------------------------------------------------------------------------
// Facebook & Google scope series (Fig 11)
// ---------------------------------------------------------------------------

/// One year of a corporate GHG inventory, in million metric tons CO₂e.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScopeYear {
    /// Reporting year.
    pub year: u16,
    /// Scope 1 (direct) emissions, Mt CO₂e.
    pub scope1_mt: f64,
    /// Scope 2 location-based (grid counterfactual), Mt CO₂e.
    pub scope2_location_mt: f64,
    /// Scope 2 market-based (after renewable procurement), Mt CO₂e.
    pub scope2_market_mt: f64,
    /// Scope 3 (supply chain), Mt CO₂e.
    pub scope3_mt: f64,
}

/// Facebook's inventory, 2014–2019. The 2018 entry reflects the year the
/// hardware-footprint disclosure practice changed (see Fig 11 annotation);
/// [`FACEBOOK_2018_SCOPE3_LEGACY_MT`] preserves the pre-change comparable.
pub const FACEBOOK: [ScopeYear; 6] = [
    ScopeYear {
        year: 2014,
        scope1_mt: 0.010,
        scope2_location_mt: 0.36,
        scope2_market_mt: 0.28,
        scope3_mt: 0.45,
    },
    ScopeYear {
        year: 2015,
        scope1_mt: 0.013,
        scope2_location_mt: 0.48,
        scope2_market_mt: 0.33,
        scope3_mt: 0.62,
    },
    ScopeYear {
        year: 2016,
        scope1_mt: 0.017,
        scope2_location_mt: 0.72,
        scope2_market_mt: 0.41,
        scope3_mt: 0.86,
    },
    ScopeYear {
        year: 2017,
        scope1_mt: 0.022,
        scope2_location_mt: 1.04,
        scope2_market_mt: 0.60,
        scope3_mt: 1.20,
    },
    ScopeYear {
        year: 2018,
        scope1_mt: 0.036,
        scope2_location_mt: 1.55,
        scope2_market_mt: 0.39,
        scope3_mt: 2.00,
    },
    ScopeYear {
        year: 2019,
        scope1_mt: 0.046,
        scope2_location_mt: 2.20,
        scope2_market_mt: 0.252,
        scope3_mt: 5.80,
    },
];

/// Facebook's 2018 Scope 3 under the pre-change disclosure practice, used by
/// the Fig 2 "without renewables" pie (Mt CO₂e).
pub const FACEBOOK_2018_SCOPE3_LEGACY_MT: f64 = 0.86;

/// Google's inventory, 2013–2018. The 2018 Scope 3 jump is the
/// hardware-footprint disclosure change the paper discusses.
pub const GOOGLE: [ScopeYear; 6] = [
    ScopeYear {
        year: 2013,
        scope1_mt: 0.02,
        scope2_location_mt: 1.60,
        scope2_market_mt: 1.10,
        scope3_mt: 2.00,
    },
    ScopeYear {
        year: 2014,
        scope1_mt: 0.03,
        scope2_location_mt: 1.90,
        scope2_market_mt: 0.90,
        scope3_mt: 2.20,
    },
    ScopeYear {
        year: 2015,
        scope1_mt: 0.04,
        scope2_location_mt: 2.30,
        scope2_market_mt: 0.70,
        scope3_mt: 2.40,
    },
    ScopeYear {
        year: 2016,
        scope1_mt: 0.05,
        scope2_location_mt: 2.90,
        scope2_market_mt: 0.60,
        scope3_mt: 2.60,
    },
    ScopeYear {
        year: 2017,
        scope1_mt: 0.07,
        scope2_location_mt: 3.80,
        scope2_market_mt: 0.65,
        scope3_mt: 2.80,
    },
    ScopeYear {
        year: 2018,
        scope1_mt: 0.08,
        scope2_location_mt: 5.00,
        scope2_market_mt: 0.684,
        scope3_mt: 14.00,
    },
];

/// Looks a year up in a scope series.
#[must_use]
pub fn year_of(series: &[ScopeYear], year: u16) -> Option<&ScopeYear> {
    series.iter().find(|y| y.year == year)
}

// ---------------------------------------------------------------------------
// Facebook Scope 3 categories (Fig 12)
// ---------------------------------------------------------------------------

/// One category of Facebook's 2019 Scope 3 emissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scope3Category {
    /// Category label (GHG Protocol category grouping used by Fig 12).
    pub label: &'static str,
    /// Share of Scope 3 total.
    pub share: f64,
    /// Whether the paper classifies the category as capex-related.
    pub is_capex: bool,
}

/// Facebook 2019 Scope 3 breakdown (Fig 12): capital goods (hardware,
/// infrastructure, construction) 48%, purchased goods 39%, travel 10%,
/// other 3%.
pub const FACEBOOK_2019_SCOPE3: [Scope3Category; 4] = [
    Scope3Category {
        label: "Capital goods",
        share: 0.48,
        is_capex: true,
    },
    Scope3Category {
        label: "Purchased goods",
        share: 0.39,
        is_capex: true,
    },
    Scope3Category {
        label: "Travel",
        share: 0.10,
        is_capex: false,
    },
    Scope3Category {
        label: "Other",
        share: 0.03,
        is_capex: false,
    },
];

// ---------------------------------------------------------------------------
// Intel / AMD life-cycle shares (Fig 13)
// ---------------------------------------------------------------------------

/// One component of a chip vendor's reported product-life-cycle footprint,
/// at the baseline (US average) grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleComponent {
    /// Component label as in Fig 13.
    pub label: &'static str,
    /// Share of the baseline life-cycle total.
    pub share: f64,
    /// Whether the component scales with the carbon intensity of the energy
    /// that powers hardware *use* (the quantity swept in Fig 13).
    pub scales_with_use_energy: bool,
}

/// Intel's reported life-cycle breakdown at the US-grid baseline (Fig 13,
/// top). Hardware use is ≈ 60% of the total; fab energy is mostly renewable
/// already (only 9.7% non-renewable), so "indirect emission" is small.
pub const INTEL_LIFECYCLE: [LifecycleComponent; 7] = [
    LifecycleComponent {
        label: "HW use",
        share: 0.60,
        scales_with_use_energy: true,
    },
    LifecycleComponent {
        label: "Direct emission",
        share: 0.15,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "Raw materials",
        share: 0.08,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "Indirect emission",
        share: 0.05,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "HW transport",
        share: 0.04,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "Travel",
        share: 0.03,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "Other",
        share: 0.05,
        scales_with_use_energy: false,
    },
];

/// AMD's reported life-cycle breakdown at the US-grid baseline (Fig 13,
/// bottom). Hardware use is ≈ 45%; raw materials & manufacturing dominate
/// the rest (AMD is fabless, so manufacturing shows up as purchased goods).
pub const AMD_LIFECYCLE: [LifecycleComponent; 6] = [
    LifecycleComponent {
        label: "HW use",
        share: 0.45,
        scales_with_use_energy: true,
    },
    LifecycleComponent {
        label: "Raw materials & manufacturing",
        share: 0.40,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "HW transport",
        share: 0.05,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "Travel",
        share: 0.04,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "Indirect emission",
        share: 0.04,
        scales_with_use_energy: false,
    },
    LifecycleComponent {
        label: "Other",
        share: 0.02,
        scales_with_use_energy: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apple_shares_sum_to_one() {
        let total: f64 = APPLE_2019_BREAKDOWN.iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn apple_paper_anchors() {
        assert!((apple_2019_group_share("Manufacturing") - 0.74).abs() < 1e-9);
        assert!((apple_2019_group_share("Product Use") - 0.19).abs() < 1e-9);
        // ICs alone exceed all of product use (Takeaway 1).
        let ics = APPLE_2019_BREAKDOWN[0].share;
        assert_eq!(APPLE_2019_BREAKDOWN[0].label, "Integrated circuits");
        assert!((ics - 0.33).abs() < 1e-9);
        assert!(ics > apple_2019_group_share("Product Use"));
        // Hardware life cycle (everything but facilities/travel) > 98%.
        let lifecycle = 1.0 - apple_2019_group_share("Facilities");
        assert!(lifecycle > 0.98);
        assert_eq!(apple_2019_total().as_tonnes(), 25_000_000.0);
    }

    #[test]
    fn google_2018_anchors() {
        let y2018 = year_of(&GOOGLE, 2018).unwrap();
        let ratio = y2018.scope3_mt / y2018.scope2_market_mt;
        assert!((ratio - 20.5).abs() < 1.0, "paper: 21x, got {ratio}");
        assert_eq!(y2018.scope3_mt, 14.0);
        assert!((y2018.scope2_market_mt - 0.684).abs() < 1e-9);
        // Disclosure change: 5x jump from 2017.
        let y2017 = year_of(&GOOGLE, 2017).unwrap();
        assert!((y2018.scope3_mt / y2017.scope3_mt - 5.0).abs() < 0.1);
    }

    #[test]
    fn facebook_2019_anchors() {
        let y = year_of(&FACEBOOK, 2019).unwrap();
        let ratio = y.scope3_mt / y.scope2_market_mt;
        assert!((ratio - 23.0).abs() < 0.5, "paper: 23x, got {ratio}");
        assert_eq!(y.scope3_mt, 5.8);
    }

    #[test]
    fn facebook_2018_pie_anchors() {
        // Fig 2 bottom-right pies.
        let y = year_of(&FACEBOOK, 2018).unwrap();
        // With renewables: opex = S1 + market S2 vs capex = S3.
        let opex = y.scope1_mt + y.scope2_market_mt;
        let capex_share = y.scope3_mt / (y.scope3_mt + opex);
        assert!((capex_share - 0.82).abs() < 0.01, "capex {capex_share}");
        // Without renewables: opex = S1 + location S2 vs the pre-disclosure
        // Scope 3 comparable.
        let opex_loc = y.scope1_mt + y.scope2_location_mt;
        let opex_share = opex_loc / (opex_loc + FACEBOOK_2018_SCOPE3_LEGACY_MT);
        assert!((opex_share - 0.65).abs() < 0.01, "opex {opex_share}");
    }

    #[test]
    fn operational_carbon_decreases_while_footprint_grows() {
        // Takeaway 8: market-based Scope 2 falls even as location-based
        // (a proxy for energy consumed) rises.
        let first = &FACEBOOK[0];
        let last = &FACEBOOK[FACEBOOK.len() - 1];
        assert!(last.scope2_location_mt > first.scope2_location_mt * 3.0);
        assert!(last.scope2_market_mt < first.scope2_market_mt * 1.0);
    }

    #[test]
    fn scope_series_are_sorted_by_year() {
        for series in [&FACEBOOK[..], &GOOGLE[..]] {
            for pair in series.windows(2) {
                assert!(pair[0].year < pair[1].year);
            }
        }
    }

    #[test]
    fn fb_scope3_categories_sum_to_one() {
        let total: f64 = FACEBOOK_2019_SCOPE3.iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let capital = FACEBOOK_2019_SCOPE3
            .iter()
            .find(|c| c.label == "Capital goods")
            .unwrap();
        assert!((capital.share - 0.48).abs() < 1e-9);
        assert!(capital.is_capex);
    }

    #[test]
    fn intel_amd_lifecycle_shares() {
        let intel: f64 = INTEL_LIFECYCLE.iter().map(|c| c.share).sum();
        assert!((intel - 1.0).abs() < 1e-9);
        let amd: f64 = AMD_LIFECYCLE.iter().map(|c| c.share).sum();
        assert!((amd - 1.0).abs() < 1e-9);
        // Takeaway 9 anchors: use shares at the baseline grid.
        assert!((INTEL_LIFECYCLE[0].share - 0.60).abs() < 1e-9);
        assert!((AMD_LIFECYCLE[0].share - 0.45).abs() < 1e-9);
        // Exactly one component scales with use energy in each table.
        assert_eq!(
            INTEL_LIFECYCLE
                .iter()
                .filter(|c| c.scales_with_use_energy)
                .count(),
            1
        );
        assert_eq!(
            AMD_LIFECYCLE
                .iter()
                .filter(|c| c.scales_with_use_energy)
                .count(),
            1
        );
    }

    #[test]
    fn opex_capex_accessors() {
        let y = year_of(&FACEBOOK, 2019).unwrap();
        // Opex per the paper is Scope 1 + market-based Scope 2; capex is
        // Scope 3.
        assert!((y.scope1_mt + y.scope2_market_mt - 0.298).abs() < 1e-9);
        assert_eq!(y.scope3_mt, 5.8);
        assert!(year_of(&FACEBOOK, 1999).is_none());
    }
}
