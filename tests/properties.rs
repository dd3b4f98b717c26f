//! Cross-crate property-based tests: invariants that must hold for *any*
//! input, not just the paper's datasets.

use chasing_carbon::analysis::pareto::{frontier, Point};
use chasing_carbon::core::decomposition::CarbonDecomposition;
use chasing_carbon::lca::AmortizationAnalysis;
use chasing_carbon::prelude::*;
use proptest::prelude::*;

fn mass() -> impl Strategy<Value = f64> {
    0.0..1e6f64
}

proptest! {
    /// Opex (use) + capex (production, transport, end-of-life) always
    /// reconstruct the phase total, and the shares always sum to one for
    /// non-degenerate footprints.
    #[test]
    fn decomposition_conserves_mass(p in mass(), t in mass(), u in mass(), e in mass()) {
        prop_assume!(p + t + u + e > 1e-9);
        let kg = CarbonMass::from_kg;
        let d = CarbonDecomposition::new(kg(u), kg(p) + kg(t) + kg(e));
        let total = p + t + u + e;
        prop_assert!((d.total().as_kg() - total).abs() <= total * 1e-12);
        let share_sum = d.capex_share().as_fraction() + d.opex_share().as_fraction();
        prop_assert!((share_sum - 1.0).abs() < 1e-9);
    }

    /// Greening the grid can only shrink use-phase carbon, never the capex
    /// phases, so the capex share is monotone in grid intensity.
    #[test]
    fn capex_share_monotone_in_grid_intensity(
        p in 1.0..1e4f64,
        watts in 0.1..1e3f64,
        g1 in 1.0..1000.0f64,
        g2 in 1.0..1000.0f64,
    ) {
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        // An always-on device over three years: use-phase carbon is its
        // energy at the grid's intensity.
        let energy = Power::from_watts(watts) * TimeSpan::from_years(3.0);
        let make = |g: f64| {
            let opex = energy * CarbonIntensity::from_g_per_kwh(g);
            CarbonDecomposition::new(opex, CarbonMass::from_kg(p))
        };
        let clean = make(lo);
        let dirty = make(hi);
        prop_assert!(clean.capex_share().as_fraction() >= dirty.capex_share().as_fraction() - 1e-12);
    }

    /// Break-even counts scale linearly with the manufacturing budget and
    /// inversely with per-operation energy.
    #[test]
    fn breakeven_scaling_laws(
        budget in 1.0..1e3f64,
        energy_j in 1e-3..10.0f64,
        k in 2.0..10.0f64,
    ) {
        let grid = CarbonIntensity::from_g_per_kwh(380.0);
        let base = AmortizationAnalysis::new(CarbonMass::from_kg(budget), grid)
            .breakeven(Energy::from_joules(energy_j), TimeSpan::from_seconds(0.005))
            .unwrap();
        let double_budget = AmortizationAnalysis::new(CarbonMass::from_kg(budget * k), grid)
            .breakeven(Energy::from_joules(energy_j), TimeSpan::from_seconds(0.005))
            .unwrap();
        prop_assert!((double_budget.operations / base.operations - k).abs() < 1e-6);
        let efficient = AmortizationAnalysis::new(CarbonMass::from_kg(budget), grid)
            .breakeven(Energy::from_joules(energy_j / k), TimeSpan::from_seconds(0.005))
            .unwrap();
        prop_assert!((efficient.operations / base.operations - k).abs() < 1e-6);
    }

    /// No point on a Pareto frontier is dominated by any input point, and
    /// adding points never shrinks the best achievable benefit.
    #[test]
    fn pareto_frontier_is_undominated(
        points in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..40),
    ) {
        let pts: Vec<Point<usize>> = points
            .iter()
            .enumerate()
            .map(|(i, &(b, c))| Point::new(b, c, i))
            .collect();
        let front = frontier(&pts);
        prop_assert!(!front.is_empty());
        for f in &front {
            for p in &pts {
                prop_assert!(!p.dominates(f), "frontier point dominated");
            }
        }
        // Frontier contains the global best-benefit point.
        let best = pts.iter().map(|p| p.benefit).fold(f64::MIN, f64::max);
        prop_assert!(front.iter().any(|p| (p.benefit - best).abs() < 1e-12));
    }

    /// The wafer renewable sweep is monotone decreasing and floored by
    /// process emissions for any composition.
    #[test]
    fn wafer_sweep_monotone(energy_kg in 1.0..500.0f64, process_kg in 1.0..500.0f64) {
        let mut wafer = chasing_carbon::fab::wafer::WaferFootprint::new();
        wafer.add_component("Energy", CarbonMass::from_kg(energy_kg), true);
        wafer.add_component("Process", CarbonMass::from_kg(process_kg), false);
        let mut last = f64::INFINITY;
        for factor in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            let total = wafer.with_renewable_scaling(factor).total().as_kg();
            prop_assert!(total <= last + 1e-12);
            prop_assert!(total >= process_kg);
            last = total;
        }
    }

    /// PPA portfolios: market-based carbon never exceeds location-based for
    /// green contracts.
    #[test]
    fn ppa_market_never_exceeds_location(
        demand_gwh in 0.1..1e3f64,
        contracted_gwh in 0.0..2e3f64,
    ) {
        let mut p = chasing_carbon::ghg::PpaPortfolio::new(
            CarbonIntensity::from_g_per_kwh(380.0),
        );
        p.contract(
            chasing_carbon::data::energy_sources::EnergySource::Wind,
            Energy::from_kwh(contracted_gwh * 1e6),
        );
        let demand = Energy::from_kwh(demand_gwh * 1e6);
        prop_assert!(p.market_carbon(demand) <= p.location_carbon(demand) + CarbonMass::from_grams(1e-3));
    }
}
