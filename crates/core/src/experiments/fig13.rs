//! Figure 13: Intel and AMD life-cycle carbon breakdowns as hardware
//! operation shifts to greener energy sources.
//!
//! The model: each vendor reports a life-cycle composition at the baseline
//! (average US) grid. The hardware-use component scales with the carbon
//! intensity of the energy source powering operation; every other component
//! is manufacturing/logistics and does not. The figure sweeps sources from
//! the world average down to wind.

use cc_data::corporate::LifecycleComponent;
use cc_data::energy_sources::EnergySource;
use cc_data::grids::Region;
use cc_report::{ExperimentOutput, RunContext, Series, Table};

/// The x-axis of Fig 13: "increasingly green" energy sources.
#[must_use]
pub fn sweep_points() -> Vec<(&'static str, f64)> {
    let mut points = vec![
        ("World Avg", Region::World.carbon_intensity().as_g_per_kwh()),
        ("Coal", EnergySource::Coal.carbon_intensity().as_g_per_kwh()),
        ("Gas", EnergySource::Gas.carbon_intensity().as_g_per_kwh()),
        (
            "America Avg",
            Region::UnitedStates.carbon_intensity().as_g_per_kwh(),
        ),
        (
            "Biomass",
            EnergySource::Biomass.carbon_intensity().as_g_per_kwh(),
        ),
        (
            "Solar",
            EnergySource::Solar.carbon_intensity().as_g_per_kwh(),
        ),
        (
            "Geothermal",
            EnergySource::Geothermal.carbon_intensity().as_g_per_kwh(),
        ),
        (
            "Hydropower",
            EnergySource::Hydropower.carbon_intensity().as_g_per_kwh(),
        ),
        (
            "Nuclear",
            EnergySource::Nuclear.carbon_intensity().as_g_per_kwh(),
        ),
        ("Wind", EnergySource::Wind.carbon_intensity().as_g_per_kwh()),
    ];
    // Keep the figure's left-to-right ordering (it is not strictly sorted,
    // matching the paper's axis): World, Coal, Gas, America, then greens.
    points.shrink_to_fit();
    points
}

/// Re-normalized life-cycle shares when hardware use runs on a source of
/// intensity `g_per_kwh`, relative to the 380 g/kWh baseline.
#[must_use]
pub fn rescaled_shares(
    baseline: &[LifecycleComponent],
    g_per_kwh: f64,
) -> Vec<(&'static str, f64)> {
    let scale = g_per_kwh / cc_data::US_GRID_G_PER_KWH;
    let raw: Vec<(&'static str, f64)> = baseline
        .iter()
        .map(|c| {
            (
                c.label,
                if c.scales_with_use_energy {
                    c.share * scale
                } else {
                    c.share
                },
            )
        })
        .collect();
    let total: f64 = raw.iter().map(|&(_, v)| v).sum();
    raw.into_iter().map(|(l, v)| (l, v / total)).collect()
}

fn vendor_table(
    baseline: &[LifecycleComponent],
    extra_points: &[(&'static str, f64)],
) -> (Table, Series, f64, f64) {
    let mut header: Vec<String> = vec!["Energy source".into(), "g CO2e/kWh".into()];
    header.extend(baseline.iter().map(|c| c.label.to_string()));
    let mut t = Table::new(header);
    let mut hw_use = Series::new("hw-use-share", "g CO2e/kWh", "share of life cycle");
    let mut hw_use_baseline = 0.0;
    let mut hw_use_wind = 0.0;
    let mut points = sweep_points();
    points.extend_from_slice(extra_points);
    for (label, g) in points {
        let shares = rescaled_shares(baseline, g);
        let mut row = vec![label.to_string(), format!("{g:.0}")];
        for (component, share) in &shares {
            row.push(format!("{:.0}%", share * 100.0));
            if *component == "HW use" {
                hw_use.push_labeled(g, label, *share);
                if label == "America Avg" {
                    hw_use_baseline = *share;
                }
                if label == "Wind" {
                    hw_use_wind = *share;
                }
            }
        }
        t.row(row);
    }
    (t, hw_use, hw_use_baseline, hw_use_wind)
}

/// Reproduces Fig 13.
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    // Scenarios with a non-paper *grid* contribute their own grid as an
    // extra sweep point, so the figure answers "where does *my* grid
    // land?". Only the grid fields decide — the figure ignores the rest
    // of the scenario, and declaring that keeps it cacheable across
    // non-grid sweep axes.
    let extra: Vec<(&'static str, f64)> = if ctx.grid_is_paper() {
        Vec::new()
    } else {
        vec![(
            "Scenario grid",
            ctx.effective_grid_intensity().as_g_per_kwh(),
        )]
    };
    let (intel, mut intel_series, intel_base, intel_wind) =
        vendor_table(&cc_data::corporate::INTEL_LIFECYCLE, &extra);
    out.table("Intel life-cycle breakdown by energy source", intel);
    intel_series.name = "intel-hw-use-share".to_string();
    out.series(intel_series);
    let (amd, mut amd_series, amd_base, amd_wind) =
        vendor_table(&cc_data::corporate::AMD_LIFECYCLE, &extra);
    out.table("AMD life-cycle breakdown by energy source", amd);
    amd_series.name = "amd-hw-use-share".to_string();
    out.series(amd_series);

    // The headline scalar tracks the scenario: the HW-use share of
    // Intel's life cycle on the *effective* scenario grid.
    let intel_scenario_use = rescaled_shares(
        &cc_data::corporate::INTEL_LIFECYCLE,
        ctx.effective_grid_intensity().as_g_per_kwh(),
    )
    .iter()
    .find(|(l, _)| *l == "HW use")
    .map_or(0.0, |(_, v)| *v);
    out.scalar("intel-hw-use-share", "%", intel_scenario_use * 100.0);
    out.note(format!(
        "paper: ~60% of Intel's and ~45% of AMD's life-cycle emissions are hardware use on \
         the US grid; measured {:.0}% / {:.0}%",
        intel_base * 100.0,
        amd_base * 100.0
    ));
    out.note(format!(
        "paper: with solar/wind, over 80% of emissions come from manufacturing; measured \
         manufacturing-side shares {:.0}% (Intel) / {:.0}% (AMD) on wind",
        (1.0 - intel_wind) * 100.0,
        (1.0 - amd_wind) * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_shares_recover_reported_values() {
        let shares = rescaled_shares(&cc_data::corporate::INTEL_LIFECYCLE, 380.0);
        let hw_use = shares.iter().find(|(l, _)| *l == "HW use").unwrap().1;
        assert!((hw_use - 0.60).abs() < 1e-9);
        let total: f64 = shares.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wind_pushes_manufacturing_above_80_percent() {
        for baseline in [
            &cc_data::corporate::INTEL_LIFECYCLE[..],
            &cc_data::corporate::AMD_LIFECYCLE[..],
        ] {
            let shares = rescaled_shares(baseline, 11.0);
            let hw_use = shares.iter().find(|(l, _)| *l == "HW use").unwrap().1;
            assert!(hw_use < 0.20, "use share on wind {hw_use}");
        }
    }

    #[test]
    fn coal_increases_use_share_above_baseline() {
        let shares = rescaled_shares(&cc_data::corporate::INTEL_LIFECYCLE, 820.0);
        let hw_use = shares.iter().find(|(l, _)| *l == "HW use").unwrap().1;
        assert!(hw_use > 0.60);
    }

    #[test]
    fn sweep_has_ten_points() {
        assert_eq!(sweep_points().len(), 10);
        let out = run(&RunContext::paper());
        assert_eq!(out.tables[0].1.len(), 10);
        assert_eq!(out.tables[1].1.len(), 10);
    }
}
