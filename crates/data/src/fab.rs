//! TSMC wafer-manufacturing footprint composition (Fig 14).
//!
//! ## Reconstruction anchors
//!
//! * "Energy consumption ... produces over 63% of the emissions from
//!   manufacturing 12-inch wafers at TSMC" (§II).
//! * "nearly 30% of emissions from manufacturing 12-inch wafers are due to
//!   PFCs, chemicals, and gases" (§II).
//! * "a 64× boost in renewable energy reduces the overall carbon output by
//!   roughly 2.7×" (§V, Fig 14).
//! * "next-generation manufacturing in a 3nm fab predicted to consume up to
//!   7.7 billion kilowatt-hours annually"; TSMC's renewable target is 20% of
//!   fab electricity (§II, §V).

use cc_units::Energy;

/// One component of the per-wafer carbon footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferComponent {
    /// Component label as in Fig 14's legend.
    pub label: &'static str,
    /// Share of the baseline per-wafer footprint.
    pub share: f64,
    /// Whether the component is electricity (and thus scales with grid
    /// carbon intensity in the renewable sweep).
    pub is_energy: bool,
}

/// TSMC 12-inch (300 mm) wafer footprint composition at the baseline energy
/// source. Shares sum to 1.
///
/// Energy is 64% (paper: "over 63%"); PFC & diffusive plus chemicals & gases
/// total 29% (paper: "nearly 30%").
pub const TSMC_WAFER: [WaferComponent; 6] = [
    WaferComponent {
        label: "Energy",
        share: 0.64,
        is_energy: true,
    },
    WaferComponent {
        label: "PFC & diffusive emissions",
        share: 0.17,
        is_energy: false,
    },
    WaferComponent {
        label: "Chemicals & gases",
        share: 0.12,
        is_energy: false,
    },
    WaferComponent {
        label: "Wafers",
        share: 0.03,
        is_energy: false,
    },
    WaferComponent {
        label: "Bulk gas",
        share: 0.03,
        is_energy: false,
    },
    WaferComponent {
        label: "Other",
        share: 0.01,
        is_energy: false,
    },
];

/// Absolute baseline footprint of one 300 mm wafer at an advanced node, in
/// kg CO₂e. Industry LCAs place a 300 mm logic wafer in the high hundreds of
/// kg CO₂e; this constant anchors absolute per-die numbers in `cc-fab` and
/// cancels out of every ratio Fig 14 reports.
pub const TSMC_WAFER_BASELINE_KG: f64 = 450.0;

/// Annual electricity demand projected for a 3 nm fab: 7.7 TWh.
#[must_use]
pub fn fab_3nm_annual_energy() -> Energy {
    Energy::from_kwh(7.7e9)
}

/// TSMC's stated renewable-electricity target for its fabs (20%).
pub const TSMC_RENEWABLE_TARGET: f64 = 0.20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = TSMC_WAFER.iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn energy_share_matches_paper() {
        let energy: f64 = TSMC_WAFER
            .iter()
            .filter(|c| c.is_energy)
            .map(|c| c.share)
            .sum();
        assert!(energy > 0.63, "paper: energy is over 63%");
        assert!(energy < 0.66);
    }

    #[test]
    fn pfc_chemicals_near_30_percent() {
        let pfc_chem: f64 = TSMC_WAFER
            .iter()
            .filter(|c| c.label.contains("PFC") || c.label.contains("Chemicals"))
            .map(|c| c.share)
            .sum();
        assert!(
            (pfc_chem - 0.29).abs() < 0.02,
            "paper: nearly 30%, got {pfc_chem}"
        );
    }

    #[test]
    fn renewable_64x_gives_2_7x_reduction() {
        // The headline arithmetic of Fig 14, straight from the shares.
        let energy: f64 = TSMC_WAFER
            .iter()
            .filter(|c| c.is_energy)
            .map(|c| c.share)
            .sum();
        let rest = 1.0 - energy;
        let scaled_total = rest + energy / 64.0;
        let reduction = 1.0 / scaled_total;
        assert!(
            (reduction - 2.7).abs() < 0.1,
            "paper: ~2.7x, got {reduction}"
        );
    }

    #[test]
    fn fab_3nm_energy() {
        assert!((fab_3nm_annual_energy().as_gwh() - 7_700.0).abs() < 1e-6);
    }
}
