//! Annual fab model: a fab's yearly output, energy and carbon.
//!
//! Anchors from the paper: a 3 nm fab is "predicted to consume up to 7.7
//! billion kilowatt-hours annually"; TSMC's renewable target covers 20% of
//! fab electricity; Intel already sources all but 9.7% of fab energy from
//! renewables.

use crate::node::ProcessNode;
use crate::wafer::WaferFootprint;
use cc_data::energy_sources::EnergySource;
use cc_units::{CarbonIntensity, CarbonMass, Energy};

/// A fab operating one process node for a year.
#[derive(Debug, Clone, PartialEq)]
pub struct FabModel {
    node: ProcessNode,
    annual_energy: Energy,
    grid: CarbonIntensity,
    renewable_share: f64,
    renewable_intensity: CarbonIntensity,
    wafer: WaferFootprint,
}

impl FabModel {
    /// Creates a fab at `node` consuming `annual_energy`, on `grid`, with a
    /// fraction of electricity from renewables (wind-class intensity).
    ///
    /// # Panics
    ///
    /// Panics when the renewable share is outside `[0, 1]`.
    #[must_use]
    pub fn new(
        node: ProcessNode,
        annual_energy: Energy,
        grid: CarbonIntensity,
        renewable_share: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&renewable_share),
            "renewable share must be within [0, 1]"
        );
        Self {
            node,
            annual_energy,
            grid,
            renewable_share,
            renewable_intensity: EnergySource::Wind.carbon_intensity(),
            wafer: WaferFootprint::tsmc_300mm(),
        }
    }

    /// The TSMC-2025-target 3 nm fab: 7.7 TWh/yr on the Taiwanese grid with
    /// 20% renewable coverage.
    #[must_use]
    pub fn tsmc_3nm_2025() -> Self {
        Self::new(
            ProcessNode::N3,
            cc_data::fab::fab_3nm_annual_energy(),
            cc_data::grids::Region::Taiwan.carbon_intensity(),
            cc_data::fab::TSMC_RENEWABLE_TARGET,
        )
    }

    /// Wafer starts per year this energy budget sustains at the node.
    #[must_use]
    pub fn wafers_per_year(&self) -> f64 {
        self.node.wafers_per_year_at(self.annual_energy)
    }

    /// Effective electricity intensity after the renewable blend.
    #[must_use]
    pub fn effective_intensity(&self) -> CarbonIntensity {
        self.renewable_intensity
            .blend(self.grid, self.renewable_share)
    }

    /// Scope 2: electricity carbon for the year.
    #[must_use]
    pub fn scope2(&self) -> CarbonMass {
        self.annual_energy * self.effective_intensity()
    }

    /// Scope 1: process (PFC, chemicals, gases) carbon for the year, scaled
    /// from the per-wafer process footprint.
    #[must_use]
    pub fn scope1(&self) -> CarbonMass {
        self.wafer.process_carbon() * self.wafers_per_year()
    }

    /// Total annual fab carbon.
    #[must_use]
    pub fn annual_carbon(&self) -> CarbonMass {
        self.scope1() + self.scope2()
    }

    /// Carbon per wafer start at this fab's energy mix.
    #[must_use]
    pub fn carbon_per_wafer(&self) -> CarbonMass {
        self.annual_carbon() / self.wafers_per_year()
    }

    /// A copy with a different renewable share (for target sweeps).
    ///
    /// # Panics
    ///
    /// Panics when the share is outside `[0, 1]`.
    #[must_use]
    pub fn with_renewable_share(mut self, share: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&share),
            "renewable share must be within [0, 1]"
        );
        self.renewable_share = share;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsmc_3nm_magnitudes() {
        let fab = FabModel::tsmc_3nm_2025();
        let wafers = fab.wafers_per_year();
        assert!(wafers > 1.5e6 && wafers < 3.0e6);
        // Annual carbon: millions of tonnes scale for a giga-fab on a coal
        // heavy grid.
        let mt = fab.annual_carbon().as_mt();
        assert!(mt > 1.0 && mt < 10.0, "annual {mt} Mt");
    }

    #[test]
    fn renewables_cut_scope2_not_scope1() {
        let dirty = FabModel::tsmc_3nm_2025().with_renewable_share(0.0);
        let clean = FabModel::tsmc_3nm_2025().with_renewable_share(1.0);
        assert_eq!(dirty.scope1(), clean.scope1());
        assert!(dirty.scope2() / clean.scope2() > 30.0);
        assert!(clean.annual_carbon() < dirty.annual_carbon());
    }

    #[test]
    fn twenty_percent_target_is_a_modest_cut() {
        let base = FabModel::tsmc_3nm_2025().with_renewable_share(0.0);
        let target = FabModel::tsmc_3nm_2025(); // 20%
        let cut = 1.0 - target.scope2() / base.scope2();
        // 20% coverage with wind vs the Taiwanese grid: ~19.6% scope-2 cut.
        assert!((cut - 0.196).abs() < 0.01, "cut {cut}");
    }

    #[test]
    fn per_wafer_carbon_is_consistent() {
        let fab = FabModel::tsmc_3nm_2025();
        let per_wafer = fab.carbon_per_wafer();
        let recomposed = per_wafer * fab.wafers_per_year();
        assert!((recomposed / fab.annual_carbon() - 1.0).abs() < 1e-9);
        // Hundreds of kg to ~1.5 t per advanced wafer.
        assert!(per_wafer.as_kg() > 100.0 && per_wafer.as_kg() < 3_000.0);
    }

    #[test]
    #[should_panic(expected = "renewable share")]
    fn rejects_bad_share() {
        let _ = FabModel::tsmc_3nm_2025().with_renewable_share(1.5);
    }
}
