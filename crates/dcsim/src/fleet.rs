//! Mixed-SKU fleet composition.
//!
//! The paper's facility analysis fixes a single web-server SKU, but its
//! central question — when does embodied carbon pay for itself — changes
//! qualitatively with fleet composition: storage- and AI-heavy fleets shift
//! the opex/capex balance per server. A [`FleetMix`] is a weighted set of
//! [`ServerConfig`]s (weights summing to 1) that the [`crate::Facility`]
//! model deploys in proportion every simulated year, reusing the
//! [`SkuCapability`] type the heterogeneity model provisions with. A pure
//! mix reproduces the single-SKU arithmetic exactly, so the paper-default
//! web fleet replays the disclosed Prineville trajectory bit for bit.

use crate::heterogeneity::SkuCapability;
use crate::server::ServerConfig;
use cc_units::{CarbonMass, Power};

/// A weighted composition of server SKUs deployed in fixed proportion.
///
/// ```
/// use cc_dcsim::{FleetMix, ServerConfig};
///
/// let mix = FleetMix::weighted(vec![
///     (ServerConfig::web(), 0.7),
///     (ServerConfig::ai_training(), 0.3),
/// ]);
/// let pure = FleetMix::pure(ServerConfig::web());
/// assert!(mix.average_power() > pure.average_power());
/// assert_eq!((mix.slices().len(), pure.slices().len()), (2, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMix {
    slices: Vec<(SkuCapability, f64)>,
}

impl FleetMix {
    /// A single-SKU fleet (weight 1). The arithmetic of a pure mix is
    /// bit-identical to using the SKU directly.
    #[must_use]
    pub fn pure(sku: ServerConfig) -> Self {
        Self {
            slices: vec![(SkuCapability::of(sku), 1.0)],
        }
    }

    /// A weighted composition.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty, a weight is negative or non-finite, or
    /// the weights do not sum to 1 (within 1e-6) — the scenario layer
    /// validates user input before a mix is ever built, so a violation here
    /// is a programming error.
    #[must_use]
    pub fn weighted(parts: Vec<(ServerConfig, f64)>) -> Self {
        assert!(!parts.is_empty(), "a fleet mix needs at least one SKU");
        assert!(
            parts.iter().all(|(_, w)| w.is_finite() && *w >= 0.0),
            "mix weights must be finite and non-negative"
        );
        let sum: f64 = parts.iter().map(|(_, w)| w).sum();
        assert!(
            (sum - 1.0).abs() <= 1e-6,
            "mix weights must sum to 1, got {sum}"
        );
        Self {
            slices: parts
                .into_iter()
                .map(|(sku, w)| (SkuCapability::of(sku), w))
                .collect(),
        }
    }

    /// The weighted SKUs, in composition order.
    #[must_use]
    pub fn slices(&self) -> &[(SkuCapability, f64)] {
        &self.slices
    }

    /// Composition-weighted average IT power per server.
    #[must_use]
    pub fn average_power(&self) -> Power {
        self.slices.iter().fold(Power::ZERO, |acc, (cap, w)| {
            acc + cap.sku.average_power() * *w
        })
    }

    /// Composition-weighted embodied carbon per server.
    #[must_use]
    pub fn embodied_per_server(&self) -> CarbonMass {
        self.slices.iter().fold(CarbonMass::ZERO, |acc, (cap, w)| {
            acc + cap.sku.embodied() * *w
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_mix_matches_the_sku_exactly() {
        let web = ServerConfig::web();
        let mix = FleetMix::pure(web.clone());
        // Bit-for-bit: multiplying by the 1.0 weight must not perturb the
        // single-SKU arithmetic the Prineville replay depends on.
        assert_eq!(mix.average_power(), web.average_power());
        assert_eq!(mix.embodied_per_server(), web.embodied());
        assert_eq!(mix.slices().len(), 1);
    }

    #[test]
    fn weighted_mix_interpolates_power_and_embodied() {
        let mix = FleetMix::weighted(vec![
            (ServerConfig::web(), 0.5),
            (ServerConfig::ai_training(), 0.5),
        ]);
        let mid_w = 0.5 * (250.0 + 1500.0);
        let mid_kg = 0.5 * (1_100.0 + 4_500.0);
        assert!((mix.average_power().as_watts() - mid_w).abs() < 1e-9);
        assert!((mix.embodied_per_server().as_kg() - mid_kg).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_entries_are_inert() {
        let mix = FleetMix::weighted(vec![
            (ServerConfig::web(), 1.0),
            (ServerConfig::ai_training(), 0.0),
        ]);
        assert_eq!(mix.average_power(), ServerConfig::web().average_power());
        assert_eq!(
            mix.slices().len(),
            2,
            "a zero-weight slice still appears in breakdowns"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_weights_not_summing_to_one() {
        let _ = FleetMix::weighted(vec![(ServerConfig::web(), 0.5)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weights() {
        let _ = FleetMix::weighted(vec![
            (ServerConfig::web(), 1.5),
            (ServerConfig::ai_training(), -0.5),
        ]);
    }
}
