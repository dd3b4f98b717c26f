//! The [`Footprint`] type: a life-cycle carbon footprint split across the
//! four phases, with opex/capex accessors.

use crate::phase::{ExpenditureClass, LifecyclePhase};
use cc_units::{CarbonMass, Ratio};

/// A complete life-cycle footprint: carbon per phase.
///
/// Construct from a published LCA record with [`Footprint::from_product_lca`].
///
/// ```
/// use cc_lca::Footprint;
///
/// let iphone11 = cc_data::devices::find("iPhone 11").unwrap();
/// let fp = Footprint::from_product_lca(iphone11);
/// assert!((fp.total().as_kg() - 75.0).abs() < 1e-9);
/// assert!(fp.capex_share().as_percent() > 85.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Footprint {
    production: CarbonMass,
    transport: CarbonMass,
    use_phase: CarbonMass,
    end_of_life: CarbonMass,
}

impl Footprint {
    /// Creates a footprint from a published product LCA record.
    #[must_use]
    pub fn from_product_lca(lca: &cc_data::devices::ProductLca) -> Self {
        Self {
            production: lca.production(),
            transport: lca.transport(),
            use_phase: lca.use_phase(),
            end_of_life: lca.end_of_life(),
        }
    }

    /// Carbon for one phase.
    #[must_use]
    pub fn phase(&self, phase: LifecyclePhase) -> CarbonMass {
        match phase {
            LifecyclePhase::Production => self.production,
            LifecyclePhase::Transport => self.transport,
            LifecyclePhase::Use => self.use_phase,
            LifecyclePhase::EndOfLife => self.end_of_life,
        }
    }

    /// Total life-cycle carbon.
    #[must_use]
    pub fn total(&self) -> CarbonMass {
        self.production + self.transport + self.use_phase + self.end_of_life
    }

    /// Carbon for one expenditure class (opex = use; capex = the rest).
    #[must_use]
    pub fn by_class(&self, class: ExpenditureClass) -> CarbonMass {
        LifecyclePhase::ALL
            .iter()
            .filter(|p| p.expenditure_class() == class)
            .map(|&p| self.phase(p))
            .sum()
    }

    /// Opex (use-phase) carbon.
    #[must_use]
    pub fn opex(&self) -> CarbonMass {
        self.by_class(ExpenditureClass::Opex)
    }

    /// Capex (production + transport + end-of-life) carbon.
    #[must_use]
    pub fn capex(&self) -> CarbonMass {
        self.by_class(ExpenditureClass::Capex)
    }

    /// Capex share of the total.
    #[must_use]
    pub fn capex_share(&self) -> Ratio {
        Ratio::from_fraction(self.capex() / self.total())
    }

    /// Opex share of the total.
    #[must_use]
    pub fn opex_share(&self) -> Ratio {
        Ratio::from_fraction(self.opex() / self.total())
    }

    /// Element-wise sum of two footprints (fleet aggregation).
    #[must_use]
    pub fn combined(&self, other: &Self) -> Self {
        Self {
            production: self.production + other.production,
            transport: self.transport + other.transport,
            use_phase: self.use_phase + other.use_phase,
            end_of_life: self.end_of_life + other.end_of_life,
        }
    }
}

impl core::ops::Add for Footprint {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        self.combined(&rhs)
    }
}

impl core::iter::Sum for Footprint {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |acc, f| acc + f)
    }
}

impl core::fmt::Display for Footprint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "total {} (capex {}, opex {})",
            self.total(),
            self.capex_share(),
            self.opex_share()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iphone11ish() -> Footprint {
        Footprint {
            production: CarbonMass::from_kg(59.25),
            transport: CarbonMass::from_kg(3.75),
            use_phase: CarbonMass::from_kg(10.5),
            end_of_life: CarbonMass::from_kg(1.5),
        }
    }

    #[test]
    fn totals_and_classes() {
        let fp = iphone11ish();
        assert_eq!(fp.total(), CarbonMass::from_kg(75.0));
        assert_eq!(fp.opex(), CarbonMass::from_kg(10.5));
        assert_eq!(fp.capex(), CarbonMass::from_kg(64.5));
        assert!((fp.capex_share().as_percent() - 86.0).abs() < 1e-9);
        assert!((fp.opex_share().as_percent() - 14.0).abs() < 1e-9);
        // The Fig 7 "manufacturing" fraction excludes transport and EOL.
        let production = fp.phase(LifecyclePhase::Production) / fp.total();
        assert!((production * 100.0 - 79.0).abs() < 1e-9);
    }

    #[test]
    fn from_product_lca_matches_record() {
        let lca = cc_data::devices::find("iPhone 11").unwrap();
        let fp = Footprint::from_product_lca(lca);
        assert!((fp.total() / lca.total() - 1.0).abs() < 1e-12);
        let capex = lca.production_share + lca.transport_share + lca.eol_share;
        assert!((fp.capex_share().as_fraction() - capex).abs() < 1e-12);
    }

    #[test]
    fn sum_aggregates_fleets() {
        let fleet: Footprint = (0..3).map(|_| iphone11ish()).sum();
        assert_eq!(fleet.total(), CarbonMass::from_kg(225.0));
        // Shares are scale-invariant.
        assert!((fleet.capex_share().as_percent() - 86.0).abs() < 1e-9);
    }

    #[test]
    fn with_use_phase_swaps_grid() {
        let greened = Footprint {
            use_phase: CarbonMass::from_kg(0.5),
            ..iphone11ish()
        };
        assert!(greened.capex_share().as_percent() > 98.0);
        let production = |fp: Footprint| fp.phase(LifecyclePhase::Production);
        assert_eq!(production(greened), production(iphone11ish()));
    }

    #[test]
    fn negative_eol_credit() {
        let fp = Footprint {
            production: CarbonMass::from_kg(50.0),
            transport: CarbonMass::from_kg(5.0),
            use_phase: CarbonMass::from_kg(10.0),
            end_of_life: CarbonMass::from_kg(-2.0),
        };
        assert_eq!(fp.total(), CarbonMass::from_kg(63.0));
        assert_eq!(fp.capex(), CarbonMass::from_kg(53.0));
    }

    #[test]
    fn iphone_extension_saves_about_a_third() {
        // 86% capex device: going 3 -> 5 years amortizes capex over more
        // years while opex per year stays put, cutting annualized carbon by
        // capex*(1/3 - 1/5)/total_rate ~= 33%.
        let fp = Footprint::from_product_lca(cc_data::devices::find("iPhone 11").unwrap());
        let per_year = |years: f64| fp.capex() / years + fp.opex() / 3.0;
        let base = per_year(3.0);
        let frac = (base - per_year(5.0)) / base;
        assert!(frac > 0.30 && frac < 0.40, "saved fraction {frac}");
    }

    #[test]
    fn display() {
        let s = iphone11ish().to_string();
        assert!(s.contains("capex"), "{s}");
    }
}
