//! Property-based tests for the data-center simulator.

use cc_dcsim::{Facility, MultiSiteScheduler, ServerConfig, SitePlan};
use cc_units::{CarbonMass, Energy, IntensityTrace};
use proptest::prelude::*;

/// Builds a statically feasible fleet from raw per-site parameters:
/// `(base MWh/h, deferrable MWh/day, burst headroom factor, trace kind)`.
fn fleet_from(params: &[(f64, f64, f64, u8)]) -> Vec<SitePlan> {
    params
        .iter()
        .enumerate()
        .map(|(i, &(base, deferrable, burst, kind))| {
            let trace = match kind % 3 {
                0 => IntensityTrace::flat(24.0 + base * 10.0),
                1 => IntensityTrace::solar_day(380.0, 120.0),
                _ => IntensityTrace::solar_day(490.0, 38.0),
            };
            // Capacity covers the uniform split plus a burst margin, so the
            // static baseline is always feasible.
            let capacity = base + deferrable / 24.0 * (1.0 + burst);
            SitePlan::flat(format!("site{i}"), trace, base, deferrable, capacity)
        })
        .collect()
}

proptest! {
    /// Energy and fleet size are monotone non-decreasing for growth >= 1.
    #[test]
    fn growth_implies_monotone_energy(
        initial in 100u64..100_000,
        growth in 1.0..1.6f64,
        years in 2usize..12,
    ) {
        let mut facility = Facility::builder(2010, ServerConfig::web())
            .initial_servers(initial)
            .server_growth(growth)
            .build();
        let sim = facility.simulate(years);
        prop_assert_eq!(sim.len(), years);
        for pair in sim.windows(2) {
            prop_assert!(pair[1].energy >= pair[0].energy);
            prop_assert!(pair[1].servers >= pair[0].servers);
        }
    }

    /// Market carbon never exceeds location carbon for green-source ramps.
    #[test]
    fn market_bounded_by_location(
        coverage in proptest::collection::vec(0.0..=1.0f64, 1..8),
        growth in 0.8..1.5f64,
    ) {
        let mut facility = Facility::builder(2010, ServerConfig::storage())
            .initial_servers(10_000)
            .server_growth(growth)
            .renewable_ramp(coverage.clone())
            .build();
        for year in facility.simulate(coverage.len()) {
            prop_assert!(year.market_carbon <= year.location_carbon + CarbonMass::from_grams(1.0));
            prop_assert!(year.capex_carbon >= CarbonMass::ZERO);
        }
    }

    /// Higher PUE means proportionally higher energy, with carbon following.
    #[test]
    fn pue_scales_operational_terms(pue in 1.0..2.0f64) {
        let run = |p: f64| {
            Facility::builder(2010, ServerConfig::web())
                .initial_servers(1_000)
                .pue(p)
                .build()
                .simulate(1)
                .pop()
                .unwrap()
        };
        let base = run(1.0);
        let scaled = run(pue);
        let e_ratio = scaled.energy / base.energy;
        prop_assert!((e_ratio - pue).abs() < 1e-9);
        let c_ratio = scaled.location_carbon / base.location_carbon;
        prop_assert!((c_ratio - pue).abs() < 1e-9);
        // Capex is untouched by PUE.
        prop_assert_eq!(scaled.capex_carbon, base.capex_carbon);
    }

    /// Fleet placement conserves deferrable energy and never exceeds any
    /// site's hourly capacity, for both the baseline and the aware plan.
    #[test]
    fn fleet_placement_conserves_energy_within_capacity(
        params in proptest::collection::vec(
            (0.1..4.0f64, 0.0..30.0f64, 0.2..3.0f64, 0u8..3),
            1..5,
        ),
        overhead in 0.0..0.3f64,
    ) {
        let sites = fleet_from(&params);
        let sched = MultiSiteScheduler::with_overhead(overhead);
        let budget: Energy = sites.iter().map(|s| s.deferrable).sum();
        for schedule in [sched.static_placement(&sites), sched.carbon_aware(&sites)] {
            let placed: Energy = schedule.placement.iter().flatten().copied().sum();
            prop_assert!((placed - budget).abs() <= Energy::from_joules(1.0) + budget * 1e-9);
            for (s, site) in sites.iter().enumerate() {
                for h in 0..24 {
                    let used = site.base_load[h] + schedule.placement[s][h];
                    prop_assert!(used <= site.hourly_capacity + Energy::from_joules(1.0));
                }
            }
        }
    }

    /// Carbon-aware placement never loses to the static baseline.
    #[test]
    fn avoided_carbon_is_never_negative(
        params in proptest::collection::vec(
            (0.1..4.0f64, 0.0..30.0f64, 0.2..3.0f64, 0u8..3),
            1..5,
        ),
        overhead in 0.0..0.5f64,
    ) {
        let sites = fleet_from(&params);
        let sched = MultiSiteScheduler::with_overhead(overhead);
        prop_assert!(sched.avoided_carbon(&sites) >= CarbonMass::ZERO);
    }

    /// With nothing deferrable, carbon-aware scheduling IS static placement.
    #[test]
    fn zero_deferrable_fleet_matches_static_placement(
        params in proptest::collection::vec(
            (0.1..4.0f64, 0.2..3.0f64, 0u8..3),
            1..5,
        ),
    ) {
        let zeroed: Vec<(f64, f64, f64, u8)> =
            params.iter().map(|&(base, burst, kind)| (base, 0.0, burst, kind)).collect();
        let sites = fleet_from(&zeroed);
        let sched = MultiSiteScheduler::default();
        prop_assert_eq!(sched.carbon_aware(&sites), sched.static_placement(&sites));
        prop_assert_eq!(sched.avoided_carbon(&sites), CarbonMass::ZERO);
    }
}
