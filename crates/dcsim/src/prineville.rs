//! The Prineville scenario: Facebook's Oregon data center, 2013–2019
//! (Fig 2, left).
//!
//! "Between 2013 and 2019, as the facility expanded, the energy consumption
//! monotonically increased. On the other hand, the carbon emissions started
//! decreasing in 2017. By 2019, the data center's operational carbon output
//! reached nearly zero."

use crate::facility::{Facility, FacilityYear};
use crate::server::ServerConfig;
use cc_units::CarbonMass;

/// Builds the Prineville-like facility: a growing fleet on the US grid with
/// a renewable ramp that reaches 100% coverage in 2019.
#[must_use]
pub fn facility() -> Facility {
    Facility::builder(2013, ServerConfig::web())
        .initial_servers(60_000)
        .server_growth(1.28)
        .pue(1.10) // Facebook's Prineville is a flagship-efficiency site.
        .construction(CarbonMass::from_kt(150.0))
        // Renewable coverage per year 2013..2019: procurement starts around
        // 2013, accelerates after 2016, reaches ~100% by 2019.
        .renewable_ramp(vec![0.05, 0.10, 0.20, 0.35, 0.60, 0.85, 1.0])
        .build()
}

/// Runs the 2013–2019 simulation.
#[must_use]
pub fn simulate() -> Vec<FacilityYear> {
    facility().simulate(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_rises_monotonically() {
        let years = simulate();
        assert_eq!(years.first().unwrap().year, 2013);
        assert_eq!(years.last().unwrap().year, 2019);
        for pair in years.windows(2) {
            assert!(pair[1].energy > pair[0].energy);
        }
    }

    #[test]
    fn operational_carbon_peaks_then_falls_to_near_zero() {
        let years = simulate();
        let peak_idx = years
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.market_carbon.partial_cmp(&b.1.market_carbon).unwrap())
            .unwrap()
            .0;
        let peak_year = years[peak_idx].year;
        assert!((2015..=2017).contains(&peak_year), "peak at {peak_year}");
        // 2019 operational carbon is "nearly zero": <10% of the peak.
        let last = years.last().unwrap();
        assert!(
            last.market_carbon / years[peak_idx].market_carbon < 0.10,
            "2019 carbon should be near zero"
        );
    }

    #[test]
    fn capex_dominates_by_2019() {
        let last = simulate().pop().unwrap();
        let capex_share = last.capex_carbon / (last.capex_carbon + last.market_carbon);
        assert!(capex_share > 0.75, "capex share {capex_share}");
    }
}
