//! Global ICT energy projections, 2010–2030 (Fig 1).
//!
//! The paper reproduces Andrae & Edler's optimistic and expected projections
//! of electricity use across consumer devices, networking and data centers.
//!
//! ## Reconstruction anchors
//!
//! * "On the basis of even optimistic estimates in 2015, ICT accounted for up
//!   to 5% of global energy demand. In fact, data centers alone accounted for
//!   1% of this demand."
//! * "By 2030, ICT is projected to account for 7% of global energy demand"
//!   (optimistic) and 20% (expected).

/// An ICT segment tracked by Fig 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Consumer devices (PCs, phones, TVs, home entertainment).
    ConsumerDevices,
    /// Wired and wireless networks.
    Networking,
    /// Data centers.
    Datacenter,
}

impl Segment {
    /// All segments in Fig 1 legend order.
    pub const ALL: [Self; 3] = [Self::ConsumerDevices, Self::Networking, Self::Datacenter];
}

/// Projection scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Andrae & Edler "best case": efficiency gains mostly offset demand
    /// growth; ICT reaches ~7% of global demand by 2030.
    Optimistic,
    /// Andrae & Edler "expected case": ICT reaches ~20% of global demand by
    /// 2030.
    Expected,
}

impl Scenario {
    /// Both scenarios, optimistic first as in Fig 1 (top).
    pub const ALL: [Self; 2] = [Self::Optimistic, Self::Expected];

    /// Human-readable label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Optimistic => "Optimistic",
            Self::Expected => "Expected",
        }
    }
}

impl core::fmt::Display for Scenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sample years of the digitized projection curves.
pub const YEARS: [u16; 5] = [2010, 2015, 2020, 2025, 2030];

/// Projected global electricity demand (all sectors) at [`YEARS`], in TWh.
pub const GLOBAL_DEMAND_TWH: [f64; 5] = [21_000.0, 22_500.0, 25_000.0, 27_500.0, 30_000.0];

/// Projected ICT electricity use at [`YEARS`] per segment, in TWh.
///
/// Optimistic totals reach 5.3% of global demand in 2015 and 6.7% in 2030;
/// expected totals reach 20% of global demand in 2030.
#[must_use]
pub fn segment_twh(scenario: Scenario, segment: Segment) -> [f64; 5] {
    match (scenario, segment) {
        (Scenario::Optimistic, Segment::ConsumerDevices) => [500.0, 550.0, 520.0, 480.0, 450.0],
        (Scenario::Optimistic, Segment::Networking) => [250.0, 350.0, 450.0, 550.0, 650.0],
        (Scenario::Optimistic, Segment::Datacenter) => [200.0, 290.0, 400.0, 600.0, 900.0],
        (Scenario::Expected, Segment::ConsumerDevices) => [550.0, 700.0, 900.0, 1_100.0, 1_400.0],
        (Scenario::Expected, Segment::Networking) => [300.0, 500.0, 900.0, 1_500.0, 2_300.0],
        (Scenario::Expected, Segment::Datacenter) => [250.0, 400.0, 800.0, 1_500.0, 2_300.0],
    }
}

/// Total ICT electricity use at [`YEARS`] for a scenario, in TWh.
#[must_use]
pub fn total_twh(scenario: Scenario) -> [f64; 5] {
    let mut total = [0.0; 5];
    for segment in Segment::ALL {
        for (t, s) in total.iter_mut().zip(segment_twh(scenario, segment)) {
            *t += s;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimistic_2015_share_is_about_5_percent() {
        let total = total_twh(Scenario::Optimistic)[1];
        let share = total / GLOBAL_DEMAND_TWH[1];
        assert!(share > 0.045 && share < 0.055, "share {share}");
    }

    #[test]
    fn optimistic_2030_share_is_about_7_percent() {
        let total = total_twh(Scenario::Optimistic)[4];
        let share = total / GLOBAL_DEMAND_TWH[4];
        assert!((share - 0.07).abs() < 0.005, "share {share}");
    }

    #[test]
    fn expected_2030_share_is_about_20_percent() {
        let total = total_twh(Scenario::Expected)[4];
        let share = total / GLOBAL_DEMAND_TWH[4];
        assert!((share - 0.20).abs() < 0.005, "share {share}");
    }

    #[test]
    fn datacenters_alone_about_1_percent_in_2015() {
        let dc = segment_twh(Scenario::Optimistic, Segment::Datacenter)[1];
        let share = dc / GLOBAL_DEMAND_TWH[1];
        assert!(share > 0.009 && share < 0.016, "share {share}");
    }

    #[test]
    fn expected_dominates_optimistic_everywhere() {
        for segment in Segment::ALL {
            let opt = segment_twh(Scenario::Optimistic, segment);
            let exp = segment_twh(Scenario::Expected, segment);
            for (o, e) in opt.iter().zip(exp.iter()) {
                assert!(e >= o, "{segment:?}: expected {e} < optimistic {o}");
            }
        }
    }

    #[test]
    fn expected_totals_grow_monotonically() {
        let totals = total_twh(Scenario::Expected);
        for pair in totals.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }
}
