//! Hardware-lifetime extension analysis.
//!
//! Fig 15 lists "Reliability (longer lifetime)" as a cross-stack lever:
//! embodied carbon is a one-time cost, so keeping hardware in service longer
//! amortizes it over more useful years. This module annualizes footprints
//! and compares replacement cadences.

use crate::footprint::Footprint;
use cc_units::{CarbonMass, TimeSpan};

/// Annualized view of a footprint at a given service lifetime: embodied
/// (capex) carbon is spread across the lifetime while operational carbon is
/// charged at its yearly rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnualizedFootprint {
    /// Capex carbon per year of service.
    pub capex_per_year: CarbonMass,
    /// Opex carbon per year of service.
    pub opex_per_year: CarbonMass,
}

impl AnnualizedFootprint {
    /// Total carbon per year of service.
    #[must_use]
    pub fn total_per_year(&self) -> CarbonMass {
        self.capex_per_year + self.opex_per_year
    }
}

/// Annualizes `footprint` (whose use phase was assessed over
/// `assessed_lifetime`) for an actual service life of `actual_lifetime`.
///
/// The capex phases amortize over the actual lifetime; the opex rate is the
/// assessed use-phase carbon divided by the assessed lifetime (operation per
/// year does not change when you keep the device longer).
///
/// # Panics
///
/// Panics when either lifetime is non-positive.
#[must_use]
pub fn annualize(
    footprint: &Footprint,
    assessed_lifetime: TimeSpan,
    actual_lifetime: TimeSpan,
) -> AnnualizedFootprint {
    assert!(
        assessed_lifetime.as_years() > 0.0,
        "assessed lifetime must be positive"
    );
    assert!(
        actual_lifetime.as_years() > 0.0,
        "actual lifetime must be positive"
    );
    AnnualizedFootprint {
        capex_per_year: footprint.capex() / actual_lifetime.as_years(),
        opex_per_year: footprint.use_phase() / assessed_lifetime.as_years(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iphone11() -> Footprint {
        Footprint::from_product_lca(cc_data::devices::find("iPhone 11").unwrap())
    }

    #[test]
    fn longer_life_cuts_annualized_total() {
        let fp = iphone11();
        let assessed = TimeSpan::from_years(3.0);
        let three = annualize(&fp, assessed, TimeSpan::from_years(3.0));
        let five = annualize(&fp, assessed, TimeSpan::from_years(5.0));
        assert!(five.total_per_year() < three.total_per_year());
        // Opex per year is unchanged; only capex amortization improves.
        assert_eq!(three.opex_per_year, five.opex_per_year);
        assert!((three.capex_per_year / five.capex_per_year - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn iphone_extension_saves_about_a_third() {
        // 86% capex device: going 3 -> 5 years cuts annualized carbon by
        // capex*(1/3 - 1/5)/total_rate ~= 33%.
        let fp = iphone11();
        let assessed = TimeSpan::from_years(3.0);
        let base = annualize(&fp, assessed, assessed).total_per_year();
        let saved = base - annualize(&fp, assessed, TimeSpan::from_years(5.0)).total_per_year();
        let frac = saved / base;
        assert!(frac > 0.30 && frac < 0.40, "saved fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "actual lifetime")]
    fn rejects_zero_lifetime() {
        let _ = annualize(&iphone11(), TimeSpan::from_years(3.0), TimeSpan::ZERO);
    }
}
