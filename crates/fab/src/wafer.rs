//! Per-wafer carbon footprint and the Fig 14 renewable-energy sweep.

use crate::node::ProcessNode;
use cc_units::CarbonMass;

/// The process node the digitized TSMC baseline corresponds to. TSMC's
/// sustainability disclosures the paper draws on describe the ~2019 fleet,
/// whose leading logic output was 10 nm-class; [`WaferFootprint::for_node`]
/// scales the electricity component relative to this node.
pub const BASELINE_NODE: ProcessNode = ProcessNode::N10;

/// A per-wafer carbon footprint decomposed into the Fig 14 components.
///
/// The electricity component scales with the carbon intensity of the energy
/// powering the fab; the process components (PFC and diffusive emissions,
/// chemicals and gases, raw wafers, bulk gases) do not.
///
/// ```
/// use cc_fab::WaferFootprint;
///
/// let wafer = WaferFootprint::tsmc_300mm();
/// let greened = wafer.with_renewable_scaling(64.0);
/// let reduction = wafer.total() / greened.total();
/// assert!((reduction - 2.7).abs() < 0.1); // the paper's headline number
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaferFootprint {
    components: Vec<(String, CarbonMass, bool)>,
}

impl WaferFootprint {
    /// Creates an empty footprint.
    #[must_use]
    pub fn new() -> Self {
        Self {
            components: Vec::new(),
        }
    }

    /// The TSMC 300 mm wafer baseline digitized in
    /// [`cc_data::fab::TSMC_WAFER`], at the absolute anchor
    /// [`cc_data::fab::TSMC_WAFER_BASELINE_KG`].
    #[must_use]
    pub fn tsmc_300mm() -> Self {
        let total = cc_data::fab::TSMC_WAFER_BASELINE_KG;
        let mut fp = Self::new();
        for c in cc_data::fab::TSMC_WAFER {
            fp.add_component(c.label, CarbonMass::from_kg(total * c.share), c.is_energy);
        }
        fp
    }

    /// A node-specific wafer baseline: the TSMC composition with the
    /// electricity components scaled by the node's per-wafer energy relative
    /// to [`BASELINE_NODE`] (process emissions — PFCs, chemicals, raw wafers
    /// — are recipe-driven and kept constant). This is what makes a
    /// `fab.node_nm` sweep move per-die carbon: an EUV-class 3 nm wafer
    /// carries ~2.4× the electricity carbon of the 10 nm baseline.
    #[must_use]
    pub fn for_node(node: ProcessNode) -> Self {
        let scale = node.energy_per_wafer() / BASELINE_NODE.energy_per_wafer();
        let mut fp = Self::new();
        for (label, carbon, is_energy) in Self::tsmc_300mm().components() {
            fp.add_component(
                label,
                if is_energy { carbon * scale } else { carbon },
                is_energy,
            );
        }
        fp
    }

    /// Adds a component; `is_energy` marks electricity-driven emissions that
    /// scale with grid intensity.
    pub fn add_component(
        &mut self,
        label: impl Into<String>,
        carbon: CarbonMass,
        is_energy: bool,
    ) -> &mut Self {
        self.components.push((label.into(), carbon, is_energy));
        self
    }

    /// Iterates over `(label, carbon, is_energy)` components.
    pub fn components(&self) -> impl Iterator<Item = (&str, CarbonMass, bool)> + '_ {
        self.components.iter().map(|(l, c, e)| (l.as_str(), *c, *e))
    }

    /// Total per-wafer carbon.
    #[must_use]
    pub fn total(&self) -> CarbonMass {
        self.components.iter().map(|(_, c, _)| *c).sum()
    }

    /// Electricity-driven carbon.
    #[must_use]
    pub fn energy_carbon(&self) -> CarbonMass {
        self.components
            .iter()
            .filter(|(_, _, e)| *e)
            .map(|(_, c, _)| *c)
            .sum()
    }

    /// Process (non-electricity) carbon.
    #[must_use]
    pub fn process_carbon(&self) -> CarbonMass {
        self.total() - self.energy_carbon()
    }

    /// A copy with the electricity components' carbon divided by `factor`
    /// (the Fig 14 x-axis: 1×, 2×, …, 64× greener electricity).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    #[must_use]
    pub fn with_renewable_scaling(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "renewable scaling factor must be positive");
        Self {
            components: self
                .components
                .iter()
                .map(|(l, c, e)| (l.clone(), if *e { *c / factor } else { *c }, *e))
                .collect(),
        }
    }
}

impl Default for WaferFootprint {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Display for WaferFootprint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "wafer {} ({} energy)",
            self.total(),
            self.energy_carbon()
        )
    }
}

/// The scaling factors Fig 14 plots.
pub const FIG14_FACTORS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_composition() {
        let wafer = WaferFootprint::tsmc_300mm();
        assert!((wafer.total().as_kg() - 450.0).abs() < 1e-9);
        let energy_share = wafer.energy_carbon() / wafer.total();
        assert!(energy_share > 0.63 && energy_share < 0.66);
        assert_eq!(wafer.components().count(), 6);
    }

    #[test]
    fn process_carbon_is_invariant_under_scaling() {
        let wafer = WaferFootprint::tsmc_300mm();
        let greened = wafer.with_renewable_scaling(32.0);
        assert_eq!(wafer.process_carbon(), greened.process_carbon());
        assert!((wafer.energy_carbon() / greened.energy_carbon() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_is_monotone_decreasing_with_floor() {
        let wafer = WaferFootprint::tsmc_300mm();
        // Fig 14: the footprint, normalized to the baseline, at each factor.
        let sweep: Vec<f64> = FIG14_FACTORS
            .iter()
            .map(|&f| wafer.with_renewable_scaling(f).total() / wafer.total())
            .collect();
        assert_eq!(sweep[0], 1.0);
        for pair in sweep.windows(2) {
            assert!(pair[1] < pair[0]);
        }
        // Floor: process emissions bound the reduction.
        let floor = wafer.process_carbon() / wafer.total();
        assert!(sweep[sweep.len() - 1] > floor);
    }

    #[test]
    fn headline_2_7x_at_64x() {
        let wafer = WaferFootprint::tsmc_300mm();
        let reduction = wafer.total() / wafer.with_renewable_scaling(64.0).total();
        assert!((reduction - 2.7).abs() < 0.1, "got {reduction}");
    }

    #[test]
    fn node_baseline_scales_energy_only() {
        let base = WaferFootprint::for_node(BASELINE_NODE);
        assert_eq!(base, WaferFootprint::tsmc_300mm());
        let n3 = WaferFootprint::for_node(ProcessNode::N3);
        let n28 = WaferFootprint::for_node(ProcessNode::N28);
        // Process emissions are recipe-driven, not node-driven
        // (process_carbon is a subtraction, so compare within float noise).
        assert!((n3.process_carbon().as_kg() - base.process_carbon().as_kg()).abs() < 1e-9);
        assert!((n28.process_carbon().as_kg() - base.process_carbon().as_kg()).abs() < 1e-9);
        // Electricity carbon follows the per-wafer energy ladder.
        let expected = ProcessNode::N3.energy_per_wafer() / BASELINE_NODE.energy_per_wafer();
        assert!((n3.energy_carbon() / base.energy_carbon() - expected).abs() < 1e-12);
        assert!(n28.total() < base.total());
        assert!(n3.total() > base.total());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_factor() {
        let _ = WaferFootprint::tsmc_300mm().with_renewable_scaling(0.0);
    }

    #[test]
    fn custom_footprint() {
        let mut wafer = WaferFootprint::new();
        wafer
            .add_component("Energy", CarbonMass::from_kg(70.0), true)
            .add_component("PFC", CarbonMass::from_kg(30.0), false);
        assert_eq!(wafer.total(), CarbonMass::from_kg(100.0));
        let halved = wafer.with_renewable_scaling(2.0);
        assert_eq!(halved.total(), CarbonMass::from_kg(65.0));
        assert!(wafer.to_string().contains("wafer"));
    }
}
