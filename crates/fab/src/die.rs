//! Die-level embodied carbon: wafer footprint → per-chip footprint via die
//! area and yield.
//!
//! This is the forward extension the paper calls for ("architectural
//! optimizations can directly reduce CO₂ output by judiciously provisioning
//! resources"), and the modeling step the ACT follow-on work standardized.

use crate::node::ProcessNode;
use crate::wafer::WaferFootprint;
use cc_units::CarbonMass;

/// Usable area of a 300 mm wafer in mm² (πr² with edge exclusion).
const WAFER_AREA_MM2: f64 = 70_000.0;

/// Per-die embodied-carbon model.
///
/// ```
/// use cc_fab::{DieModel, ProcessNode};
///
/// // A ~100 mm2 mobile SoC on a 10 nm-class process:
/// let model = DieModel::new(ProcessNode::N10, 100.0).unwrap();
/// let per_die = model.embodied_carbon();
/// assert!(per_die.as_kg() > 0.3 && per_die.as_kg() < 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DieModel {
    die_area_mm2: f64,
    defect_density_per_cm2: f64,
    wafer: WaferFootprint,
}

impl DieModel {
    /// Creates a model for a die of `die_area_mm2` on `node`, using the
    /// node-specific wafer baseline ([`WaferFootprint::for_node`]: the TSMC
    /// composition with electricity scaled by the node's per-wafer energy)
    /// and a defect density of 0.1 /cm².
    ///
    /// # Errors
    ///
    /// Returns [`DieModelError`] when the area is non-positive or exceeds the
    /// usable wafer area.
    pub fn new(node: ProcessNode, die_area_mm2: f64) -> Result<Self, DieModelError> {
        if !(die_area_mm2 > 0.0 && die_area_mm2 <= WAFER_AREA_MM2) {
            return Err(DieModelError::InvalidArea { die_area_mm2 });
        }
        Ok(Self {
            die_area_mm2,
            defect_density_per_cm2: 0.1,
            wafer: WaferFootprint::for_node(node),
        })
    }

    /// Overrides the defect density (defects per cm²).
    ///
    /// # Errors
    ///
    /// Returns [`DieModelError`] for negative densities.
    pub fn with_defect_density(mut self, d0: f64) -> Result<Self, DieModelError> {
        if d0 < 0.0 {
            return Err(DieModelError::InvalidDefectDensity { d0 });
        }
        self.defect_density_per_cm2 = d0;
        Ok(self)
    }

    /// Poisson yield model: `Y = exp(−A·D0)`.
    #[must_use]
    pub fn yield_fraction(&self) -> f64 {
        let area_cm2 = self.die_area_mm2 / 100.0;
        (-area_cm2 * self.defect_density_per_cm2).exp()
    }

    /// Candidate dies per wafer (area ratio; scribe lines folded into the
    /// usable-area constant).
    #[must_use]
    pub fn dies_per_wafer(&self) -> f64 {
        WAFER_AREA_MM2 / self.die_area_mm2
    }

    /// Good dies per wafer after yield.
    #[must_use]
    pub fn good_dies_per_wafer(&self) -> f64 {
        self.dies_per_wafer() * self.yield_fraction()
    }

    /// Embodied carbon per good die.
    #[must_use]
    pub fn embodied_carbon(&self) -> CarbonMass {
        self.wafer.total() / self.good_dies_per_wafer()
    }
}

/// Errors from [`DieModel`] construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DieModelError {
    /// Die area was non-positive or larger than a wafer.
    InvalidArea {
        /// The offending area.
        die_area_mm2: f64,
    },
    /// Defect density was negative.
    InvalidDefectDensity {
        /// The offending density.
        d0: f64,
    },
}

impl core::fmt::Display for DieModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidArea { die_area_mm2 } => {
                write!(f, "invalid die area {die_area_mm2} mm^2")
            }
            Self::InvalidDefectDensity { d0 } => {
                write!(f, "invalid defect density {d0} /cm^2")
            }
        }
    }
}

impl std::error::Error for DieModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_dies_cost_more_carbon() {
        // Table IV's lesson at the die level: scale-up silicon carries a
        // superlinear embodied cost (yield decays with area).
        let small = DieModel::new(ProcessNode::N7, 80.0).unwrap();
        let large = DieModel::new(ProcessNode::N7, 320.0).unwrap();
        let ratio = large.embodied_carbon() / small.embodied_carbon();
        assert!(ratio > 4.0, "4x area should cost >4x carbon, got {ratio}");
    }

    #[test]
    fn yield_behaviour() {
        let m = DieModel::new(ProcessNode::N7, 100.0).unwrap();
        let y = m.yield_fraction();
        assert!((y - (-0.1f64).exp()).abs() < 1e-12);
        let perfect = m.clone().with_defect_density(0.0).unwrap();
        assert_eq!(perfect.yield_fraction(), 1.0);
        assert!(perfect.embodied_carbon() < m.embodied_carbon());
    }

    #[test]
    fn greener_fab_floors_at_process_emissions() {
        // Per-die carbon is the wafer's over the same yielded die count, so
        // the die-level reduction is the wafer-level one.
        let wafer = WaferFootprint::for_node(ProcessNode::N5);
        let taiwan = cc_data::grids::Region::Taiwan.carbon_intensity();
        let wind = cc_data::energy_sources::EnergySource::Wind.carbon_intensity();
        let reduction = wafer.total() / wafer.with_renewable_scaling(taiwan / wind).total();
        // 583/11 = 53x greener electricity. At 5 nm the electricity share is
        // larger than the 10 nm baseline's 64% (2600 vs 1450 kWh/wafer), so
        // the overall reduction lands near 4x rather than Fig 14's 2.7x.
        assert!(reduction > 3.5 && reduction < 4.4, "got {reduction}");
    }

    #[test]
    fn node_choice_moves_per_die_carbon() {
        // The same die area at an advanced node embodies more carbon per
        // yielded die: more electricity per wafer, identical yield math.
        let per_die = |node| {
            DieModel::new(node, 100.0)
                .unwrap()
                .embodied_carbon()
                .as_kg()
        };
        assert!(per_die(ProcessNode::N3) > per_die(ProcessNode::N10));
        assert!(per_die(ProcessNode::N10) > per_die(ProcessNode::N28));
        // Electricity roughly doubles from 10 nm to 3 nm, the total less so
        // (process emissions are constant).
        let ratio = per_die(ProcessNode::N3) / per_die(ProcessNode::N10);
        assert!(ratio > 1.5 && ratio < 2.1, "got {ratio}");
    }

    #[test]
    fn invalid_inputs_error() {
        assert!(DieModel::new(ProcessNode::N7, 0.0).is_err());
        assert!(DieModel::new(ProcessNode::N7, 1e9).is_err());
        let err = DieModel::new(ProcessNode::N7, -5.0).unwrap_err();
        assert!(err.to_string().contains("die area"));
        assert!(DieModel::new(ProcessNode::N7, 100.0)
            .unwrap()
            .with_defect_density(-1.0)
            .is_err());
    }

    #[test]
    fn zero_carbon_electricity_keeps_process_floor() {
        let wafer = WaferFootprint::for_node(ProcessNode::N5);
        let fp = wafer.with_renewable_scaling(1e12);
        assert!(fp.energy_carbon().as_kg() < 1e-9);
        assert!((fp.process_carbon() / wafer.process_carbon() - 1.0).abs() < 1e-9);
        assert!(fp.process_carbon() > CarbonMass::ZERO);
    }

    #[test]
    fn accessors() {
        let m = DieModel::new(ProcessNode::N10, 94.0).unwrap();
        assert!(m.dies_per_wafer() > 700.0);
        assert!(m.good_dies_per_wafer() < m.dies_per_wafer());
    }
}
