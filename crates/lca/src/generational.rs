//! Generational trend analysis (Fig 7).
//!
//! Tracks how the manufacturing share and the absolute totals evolve across
//! product generations of one family (iPhones, Apple Watches, iPads).

use cc_analysis::series::YearSeries;
use cc_data::devices::{self, ProductLca};

/// A named device family with its generations in release order.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family label (Fig 7 panel title).
    pub name: &'static str,
    /// Device names, oldest first. Each must exist in [`cc_data::devices`].
    pub members: Vec<&'static str>,
}

impl Family {
    /// The iPhone generations tracked by Fig 7 (2008's 3GS to 2018's XR,
    /// plus the 2019 iPhone 11 used by Fig 2).
    #[must_use]
    pub fn iphone() -> Self {
        Self {
            name: "iPhone",
            members: vec![
                "iPhone 3GS",
                "iPhone 4",
                "iPhone 4S",
                "iPhone 5S",
                "iPhone 6s",
                "iPhone 7",
                "iPhone X",
                "iPhone XR",
                "iPhone 11",
            ],
        }
    }

    /// The Apple Watch generations tracked by Fig 7 (Series 1 to Series 5).
    #[must_use]
    pub fn apple_watch() -> Self {
        Self {
            name: "Apple Watch",
            members: vec![
                "Apple Watch Series 1",
                "Apple Watch Series 2",
                "Apple Watch Series 3",
                "Apple Watch Series 4",
                "Apple Watch Series 5",
            ],
        }
    }

    /// The iPad generations tracked by Fig 7 (Gen 2 to Gen 7).
    #[must_use]
    pub fn ipad() -> Self {
        Self {
            name: "iPad",
            members: vec![
                "iPad (2nd gen)",
                "iPad (3rd gen)",
                "iPad (5th gen)",
                "iPad (6th gen)",
                "iPad (7th gen)",
            ],
        }
    }

    /// The three families of Fig 7.
    #[must_use]
    pub fn fig7_families() -> Vec<Self> {
        vec![Self::iphone(), Self::apple_watch(), Self::ipad()]
    }

    /// Resolves members to LCA records, skipping unknown names.
    #[must_use]
    pub fn records(&self) -> Vec<&'static ProductLca> {
        self.members
            .iter()
            .filter_map(|n| devices::find(n))
            .collect()
    }

    /// Manufacturing share per generation year (Fig 7 top panel).
    #[must_use]
    pub fn manufacturing_share_series(&self) -> YearSeries {
        self.records()
            .iter()
            .map(|d| (d.year, d.production_share))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Last-over-first growth of `value` across a family's generations
    /// (the Fig 7 bottom-panel markers).
    fn growth(family: &Family, value: impl Fn(&ProductLca) -> f64) -> f64 {
        let series: YearSeries = family
            .records()
            .iter()
            .map(|d| (d.year, value(d)))
            .collect();
        let values: Vec<f64> = series.values().collect();
        values[values.len() - 1] / values[0]
    }

    #[test]
    fn all_families_resolve_fully() {
        for family in Family::fig7_families() {
            assert_eq!(
                family.records().len(),
                family.members.len(),
                "{} has unresolved members",
                family.name
            );
        }
    }

    #[test]
    fn manufacturing_share_rises_across_generations() {
        // Takeaway 4, for all three families. The trend is upward overall;
        // individual generations may dip slightly (the LCD iPhone XR sits
        // below the OLED iPhone X), so only small reversals are tolerated.
        for family in Family::fig7_families() {
            let values: Vec<f64> = family.manufacturing_share_series().values().collect();
            let growth = values[values.len() - 1] / values[0];
            assert!(growth > 1.2, "{}: growth {growth}", family.name);
            for pair in values.windows(2) {
                assert!(
                    pair[1] >= pair[0] - 0.06,
                    "{}: share dips too far ({} -> {})",
                    family.name,
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn iphone_share_spans_40_to_79_percent() {
        let series = Family::iphone().manufacturing_share_series();
        let first = series.values().next().unwrap();
        let last = series.values().last().unwrap();
        assert!((first - 0.40).abs() < 0.01);
        assert!(last > 0.74);
    }

    #[test]
    fn ipad_totals_fall_while_iphone_totals_rise() {
        // Fig 7 bottom: "The absolute carbon output for iPads decreased over
        // time, while for iPhones and Watches it increased."
        let total = |d: &ProductLca| d.total_kg;
        assert!(growth(&Family::ipad(), total) < 1.0);
        assert!(growth(&Family::iphone(), total) > 1.0);
        assert!(growth(&Family::apple_watch(), total) > 1.0);
    }

    #[test]
    fn iphone_use_carbon_falls_as_manufacturing_rises() {
        // "as carbon from operational use decreased, the manufacturing
        // contribution increased".
        let family = Family::iphone();
        let use_growth = growth(&family, |d| d.use_phase().as_kg());
        let mfg_growth = growth(&family, |d| d.production().as_kg());
        assert!(use_growth < 1.0, "use growth {use_growth}");
        assert!(mfg_growth > 2.0, "mfg growth {mfg_growth}");
    }
}
