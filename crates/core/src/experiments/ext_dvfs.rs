//! Extension: DVFS energy/latency trade-off and its effect on the Fig 10
//! break-even (Section VI, architecture).

use cc_data::ai_models::CnnModel;
use cc_lca::AmortizationAnalysis;
use cc_report::{table::num, ExperimentOutput, RunContext, Series, Table};
use cc_socsim::{dvfs, Network, Soc, UnitKind};
use cc_units::{Energy, TimeSpan};

/// Sweeps CPU frequency scales for MobileNet v3 and reports latency, energy
/// and the resulting manufacturing break-even.
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let cpu = *Soc::snapdragon_845().unit(UnitKind::Cpu).expect("cpu");
    let network = Network::build(CnnModel::MobileNetV3);
    let scales = [0.4, 0.6, 0.8, 1.0, 1.2, 1.4];
    let analysis = AmortizationAnalysis::new(
        crate::experiments::fig10::pixel3_soc_budget(ctx.soc_budget_share()),
        ctx.effective_grid_intensity(),
    );

    let mut t = Table::new([
        "Frequency scale",
        "Latency (ms)",
        "Energy (mJ)",
        "Breakeven images",
        "Breakeven days",
    ]);
    let mut energy_series = Series::new("energy-per-image", "frequency scale", "mJ");
    let mut days_series = Series::new("breakeven-days", "frequency scale", "days");
    for (scale, latency_s, energy_j) in dvfs::sweep(&cpu, &network, &scales) {
        let be = analysis
            .breakeven(
                Energy::from_joules(energy_j),
                TimeSpan::from_seconds(latency_s),
            )
            .expect("positive energy");
        energy_series.push(scale, energy_j * 1e3);
        days_series.push(scale, be.days);
        t.row([
            format!("{scale:.1}x"),
            num(latency_s * 1e3, 2),
            num(energy_j * 1e3, 1),
            format!("{:.2e}", be.operations),
            num(be.days, 0),
        ]);
    }
    out.table("MobileNet v3 on the Pixel 3 CPU under DVFS", t);

    let opt = dvfs::energy_optimal_scale(&cpu, &network, &scales).expect("nonempty sweep");
    // Headline: break-even days at the energy-optimal operating point —
    // the best case DVFS can make for amortization under this scenario.
    let optimal_days = scales
        .iter()
        .position(|&s| (s - opt).abs() < 1e-9)
        .and_then(|i| days_series.points.get(i))
        .map_or(f64::NAN, |p| p.y);
    out.series(energy_series).series(days_series);
    out.scalar("energy-optimal-breakeven", "days", optimal_days);
    out.note(format!(
        "energy-optimal operating point: {opt:.1}x nominal frequency — downclocking saves \
         energy per image, which *lengthens* amortization (the paper's efficiency paradox)"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_sweep_rows() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables[0].1.rows().len(), 6);
    }

    #[test]
    fn lower_frequency_means_more_breakeven_days() {
        let out = run(&RunContext::paper());
        let days: Vec<f64> = out.tables[0]
            .1
            .rows()
            .iter()
            .map(|r| r[4].parse().unwrap())
            .collect();
        // 0.4x (slow, efficient) needs more days to amortize than 1.4x.
        assert!(days[0] > days[5], "{days:?}");
    }
}
