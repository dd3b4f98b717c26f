//! PFC abatement modeling.
//!
//! Beyond greening electricity, fabs cut the process side of the wafer
//! footprint by abating perfluorocarbons ("nearly 30% of emissions from
//! manufacturing 12-inch wafers are due to PFCs, chemicals, and gases").
//! Point-of-use combustion/plasma abatement destroys a large fraction of PFC
//! emissions; this module applies such a destruction efficiency to the PFC
//! component of a [`WaferFootprint`].

use crate::wafer::WaferFootprint;

/// Applies PFC abatement with the given destruction efficiency (fraction of
/// PFC-and-diffusive carbon removed) to a wafer footprint.
///
/// Components whose label contains `"PFC"` are scaled; everything else is
/// untouched.
///
/// # Panics
///
/// Panics if `destruction_efficiency` is outside `[0, 1]`.
#[must_use]
pub fn abate_pfc(wafer: &WaferFootprint, destruction_efficiency: f64) -> WaferFootprint {
    assert!(
        (0.0..=1.0).contains(&destruction_efficiency),
        "destruction efficiency must be within [0, 1]"
    );
    let mut out = WaferFootprint::new();
    for (label, carbon, is_energy) in wafer.components() {
        let scaled = if label.contains("PFC") {
            carbon * (1.0 - destruction_efficiency)
        } else {
            carbon
        };
        out.add_component(label, scaled, is_energy);
    }
    out
}

/// Combined decarbonization: renewable electricity scaling plus PFC
/// abatement. Returns the resulting wafer footprint.
#[must_use]
pub fn decarbonize(
    wafer: &WaferFootprint,
    renewable_factor: f64,
    pfc_destruction: f64,
) -> WaferFootprint {
    abate_pfc(
        &wafer.with_renewable_scaling(renewable_factor),
        pfc_destruction,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abatement_only_touches_pfc() {
        let wafer = WaferFootprint::tsmc_300mm();
        let abated = abate_pfc(&wafer, 0.9);
        assert_eq!(wafer.energy_carbon(), abated.energy_carbon());
        let removed = wafer.total() - abated.total();
        // PFC & diffusive is 17% of a 450 kg wafer; 90% destroyed.
        assert!((removed.as_kg() - 450.0 * 0.17 * 0.9).abs() < 1e-6);
    }

    #[test]
    fn zero_efficiency_is_identity() {
        let wafer = WaferFootprint::tsmc_300mm();
        assert_eq!(abate_pfc(&wafer, 0.0).total(), wafer.total());
    }

    #[test]
    fn combined_beats_either_alone() {
        let wafer = WaferFootprint::tsmc_300mm();
        let renewables_only = wafer.with_renewable_scaling(64.0).total();
        let abatement_only = abate_pfc(&wafer, 0.9).total();
        let both = decarbonize(&wafer, 64.0, 0.9).total();
        assert!(both < renewables_only);
        assert!(both < abatement_only);
        // Combined recipe exceeds the paper's 2.7x electricity-only bound.
        assert!(wafer.total() / both > 3.5);
    }

    #[test]
    #[should_panic(expected = "destruction efficiency")]
    fn rejects_bad_efficiency() {
        let _ = abate_pfc(&WaferFootprint::tsmc_300mm(), 1.5);
    }
}
