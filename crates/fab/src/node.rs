//! Process-node energy ladder.
//!
//! The paper notes that fab energy demand rises with node advancement
//! ("next-generation manufacturing in a 3nm fab predicted to consume up to
//! 7.7 billion kilowatt-hours annually"). This module models per-wafer
//! electricity by node so the die model can scale embodied carbon with
//! technology generation.

use cc_units::Energy;

/// A logic process node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcessNode {
    /// 28 nm planar.
    N28,
    /// 14 nm FinFET.
    N14,
    /// 10 nm FinFET.
    N10,
    /// 7 nm FinFET (the Snapdragon-855 era; Pixel-3-class SoCs are 10 nm).
    N7,
    /// 5 nm FinFET.
    N5,
    /// 3 nm (the fab the paper's 7.7 TWh/yr projection refers to).
    N3,
}

impl ProcessNode {
    /// All nodes, oldest first.
    pub const ALL: [Self; 6] = [
        Self::N28,
        Self::N14,
        Self::N10,
        Self::N7,
        Self::N5,
        Self::N3,
    ];

    /// Nominal feature size in nanometres.
    #[must_use]
    pub fn nanometres(self) -> f64 {
        match self {
            Self::N28 => 28.0,
            Self::N14 => 14.0,
            Self::N10 => 10.0,
            Self::N7 => 7.0,
            Self::N5 => 5.0,
            Self::N3 => 3.0,
        }
    }

    /// Electricity per 300 mm wafer. Industry estimates run from below
    /// 1 MWh/wafer at mature planar nodes to several MWh at EUV nodes; the
    /// ladder below grows ~1.35× per step, consistent with the paper's
    /// "energy demand is expected to rise" trajectory.
    #[must_use]
    pub fn energy_per_wafer(self) -> Energy {
        let kwh = match self {
            Self::N28 => 800.0,
            Self::N14 => 1_100.0,
            Self::N10 => 1_450.0,
            Self::N7 => 1_950.0,
            Self::N5 => 2_600.0,
            Self::N3 => 3_500.0,
        };
        Energy::from_kwh(kwh)
    }

    /// Wafer starts per year a 7.7 TWh/yr fab could sustain at this node.
    #[must_use]
    pub fn wafers_per_year_at(self, annual_energy: Energy) -> f64 {
        annual_energy / self.energy_per_wafer()
    }
}

impl core::fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} nm", self.nanometres())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_rises_monotonically_with_node_advance() {
        for pair in ProcessNode::ALL.windows(2) {
            assert!(pair[1].energy_per_wafer() > pair[0].energy_per_wafer());
            assert!(pair[1].nanometres() < pair[0].nanometres());
        }
    }

    #[test]
    fn fab_3nm_capacity_is_about_2m_wafers() {
        let wafers = ProcessNode::N3.wafers_per_year_at(cc_data::fab::fab_3nm_annual_energy());
        assert!(wafers > 1.5e6 && wafers < 3.0e6, "wafers {wafers}");
    }

    #[test]
    fn display() {
        assert_eq!(ProcessNode::N3.to_string(), "3 nm");
    }
}
