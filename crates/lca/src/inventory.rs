//! Category-level aggregation across device fleets (Fig 6).

use cc_analysis::stats;
use cc_data::devices::{self, Category, ProductLca};
use cc_units::CarbonMass;

/// Summary of one device category: mean breakdown shares (with spread) and
/// mean absolute footprints — the two panels of Fig 6.
#[derive(Debug, Clone, PartialEq)]
pub struct CategorySummary {
    /// The category.
    pub category: Category,
    /// Number of devices aggregated.
    pub count: usize,
    /// Mean manufacturing (production) share of total, as a fraction.
    pub manufacturing_share_mean: f64,
    /// Sample standard deviation of the manufacturing share.
    pub manufacturing_share_std: f64,
    /// Mean use-phase share of total, as a fraction.
    pub use_share_mean: f64,
    /// Sample standard deviation of the use share.
    pub use_share_std: f64,
    /// Mean total footprint.
    pub total_mean: CarbonMass,
    /// Mean manufacturing footprint.
    pub manufacturing_mean: CarbonMass,
    /// Mean use-phase footprint.
    pub use_mean: CarbonMass,
}

/// Summarizes one category over the embedded dataset.
///
/// Returns `None` for a category with no devices.
#[must_use]
pub fn summarize(category: Category) -> Option<CategorySummary> {
    summarize_devices(category, devices::in_category(category))
}

/// Summarizes an explicit device list (exposed for tests and what-if fleets).
#[must_use]
pub fn summarize_devices<'a>(
    category: Category,
    items: impl Iterator<Item = &'a ProductLca>,
) -> Option<CategorySummary> {
    let list: Vec<&ProductLca> = items.collect();
    if list.is_empty() {
        return None;
    }
    let mfg_shares: Vec<f64> = list.iter().map(|d| d.production_share).collect();
    let use_shares: Vec<f64> = list.iter().map(|d| d.use_share).collect();
    let totals: Vec<f64> = list.iter().map(|d| d.total_kg).collect();
    let mfgs: Vec<f64> = list.iter().map(|d| d.production().as_kg()).collect();
    let uses: Vec<f64> = list.iter().map(|d| d.use_phase().as_kg()).collect();

    let (mfg_mean, mfg_std) = stats::mean_std(&mfg_shares)?;
    let (use_mean, use_std) = stats::mean_std(&use_shares)?;
    Some(CategorySummary {
        category,
        count: list.len(),
        manufacturing_share_mean: mfg_mean,
        manufacturing_share_std: mfg_std,
        use_share_mean: use_mean,
        use_share_std: use_std,
        total_mean: CarbonMass::from_kg(stats::mean(&totals)?),
        manufacturing_mean: CarbonMass::from_kg(stats::mean(&mfgs)?),
        use_mean: CarbonMass::from_kg(stats::mean(&uses)?),
    })
}

/// Summaries for every category with at least one device, in Fig 6 order.
#[must_use]
pub fn all_categories() -> Vec<CategorySummary> {
    Category::ALL.iter().filter_map(|&c| summarize(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_category_is_populated() {
        assert_eq!(all_categories().len(), Category::ALL.len());
    }

    #[test]
    fn battery_categories_are_manufacturing_dominated() {
        for summary in all_categories() {
            if summary.category.is_battery_operated() {
                assert!(
                    summary.manufacturing_share_mean > 0.55,
                    "{}: {}",
                    summary.category,
                    summary.manufacturing_share_mean
                );
            } else {
                assert!(
                    summary.use_share_mean > 0.40,
                    "{}: {}",
                    summary.category,
                    summary.use_share_mean
                );
            }
        }
    }

    #[test]
    fn laptops_exceed_phones_in_absolute_terms() {
        // Fig 6 bottom: footprint scales with platform capability.
        let phones = summarize(Category::Phone).unwrap();
        let laptops = summarize(Category::Laptop).unwrap();
        assert!(laptops.total_mean > phones.total_mean * 2.0);
        assert!(laptops.manufacturing_mean > phones.manufacturing_mean * 2.0);
    }

    #[test]
    fn consoles_have_largest_totals() {
        let consoles = summarize(Category::GameConsole).unwrap();
        for summary in all_categories() {
            assert!(consoles.total_mean >= summary.total_mean);
        }
    }

    #[test]
    fn empty_category_summarizes_to_none() {
        assert!(summarize_devices(Category::Phone, core::iter::empty()).is_none());
    }

    #[test]
    fn fleet_footprint_sums() {
        let fleet: crate::Footprint = devices::in_category(Category::Wearable)
            .map(crate::Footprint::from_product_lca)
            .sum();
        let manual: f64 = devices::in_category(Category::Wearable)
            .map(|d| d.total_kg)
            .sum();
        assert!((fleet.total().as_kg() - manual).abs() < 1e-9);
    }

    #[test]
    fn spread_is_reported() {
        let phones = summarize(Category::Phone).unwrap();
        assert!(phones.count >= 10);
        assert!(phones.manufacturing_share_std > 0.0);
        assert!(phones.use_share_std > 0.0);
    }
}
