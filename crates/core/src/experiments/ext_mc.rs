//! Extension: Monte-Carlo robustness of the paper's headline claims under
//! disclosure-level input uncertainty.
//!
//! Each headline is its own registry *part* ([`super::Part`]): the Fig 10
//! break-even reads the grid and the device, while the Fig 11 ratio and the
//! Fig 14 reduction read only `mc.*`. The engine caches each part under its
//! own dependency fingerprint, so an outer Monte-Carlo run over a grid field
//! reruns only the Fig 10 propagation per sample. Within it, `propagate`'s
//! column memo serves the unchanged SoC-budget and energy-per-image draws,
//! so each sample draws only its grid column afresh.

use cc_analysis::uncertainty::{propagate, Triangular};
use cc_report::{table::num, Experiment, ExperimentId, ExperimentOutput, RunContext, Table};

/// Propagates triangular input uncertainty through three headline results:
/// the Fig 10 break-even, the Fig 11 capex/opex ratio, and the Fig 14 wafer
/// reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtMonteCarlo;

const TITLE: &str = "Headline robustness under triangular input uncertainty";

/// The part output holding one row of the shared headline table.
fn headline(cells: [String; 3], survives: bool) -> ExperimentOutput {
    let mut t = Table::new(["Headline", "Median", "90% band", "Claim survives?"]);
    let [name, median, band] = cells;
    t.row([
        name,
        median,
        band,
        (if survives { "yes" } else { "no" }).to_string(),
    ]);
    let mut out = ExperimentOutput::new();
    out.table(TITLE, t);
    out
}

/// Part `ext-mc.fig10`: MobileNet v3 CPU break-even images, with budget
/// +/-20%, grid +/-15% and energy/image +/-25%. Carries the summary scalar.
#[must_use]
pub fn fig10_breakeven(ctx: &RunContext) -> ExperimentOutput {
    let soc_budget = super::fig10::pixel3_soc_budget(ctx.soc_budget_share()).as_grams();
    let be = propagate(
        &[
            Triangular::around(soc_budget, 0.20),
            Triangular::around(ctx.effective_grid_intensity().as_g_per_kwh(), 0.15),
            Triangular::around(0.0447, 0.25),
        ],
        ctx.mc_samples(),
        ctx.mc_seed(),
        |x| x[0] / ((x[2] / 3.6e6) * x[1]),
    );
    let survives = be.p05 > 10.0 * cc_data::ai_models::IMAGENET_TRAIN_IMAGES as f64;
    let mut out = headline(
        [
            "Fig 10 break-even (images)".to_string(),
            format!("{:.1e}", be.p50),
            format!("{:.1e}..{:.1e}", be.p05, be.p95),
        ],
        survives,
    );
    out.scalar("fig10-breakeven-median", "images", be.p50);
    out
}

/// Part `ext-mc.fig11`: Facebook capex/opex ratio with +/-30% Scope 3
/// (embodied factors are coarse) and +/-10% Scope 2 (metered energy).
#[must_use]
pub fn fig11_capex_opex(ctx: &RunContext) -> ExperimentOutput {
    let fb = cc_data::corporate::year_of(&cc_data::corporate::FACEBOOK, 2019).unwrap();
    let ratio = propagate(
        &[
            Triangular::around(fb.scope3_mt, 0.30),
            Triangular::around(fb.scope1_mt + fb.scope2_market_mt, 0.10),
        ],
        ctx.mc_samples(),
        ctx.mc_seed().wrapping_add(1),
        |x| x[0] / x[1],
    );
    headline(
        [
            "Fig 11 capex/opex ratio".to_string(),
            num(ratio.p50, 1),
            format!("{}..{}", num(ratio.p05, 1), num(ratio.p95, 1)),
        ],
        ratio.p05 > 10.0,
    )
}

/// Part `ext-mc.fig14`: wafer reduction at 64x with the energy share known
/// only to +/-5 percentage points, plus the closing note.
#[must_use]
pub fn fig14_wafer_reduction(ctx: &RunContext) -> ExperimentOutput {
    let reduction = propagate(
        &[Triangular::new(0.59, 0.64, 0.69)],
        ctx.mc_samples(),
        ctx.mc_seed().wrapping_add(2),
        |x| 1.0 / ((1.0 - x[0]) + x[0] / 64.0),
    );
    let mut out = headline(
        [
            "Fig 14 reduction at 64x".to_string(),
            format!("{}x", num(reduction.p50, 2)),
            format!("{}x..{}x", num(reduction.p05, 2), num(reduction.p95, 2)),
        ],
        reduction.p05 > 2.0 && reduction.p95 < 3.5,
    );
    out.note(
        "all three headlines survive disclosure-level uncertainty: the paper's conclusions \
         are not artifacts of point estimates",
    );
    out
}

impl Experiment for ExtMonteCarlo {
    fn id(&self) -> ExperimentId {
        ExperimentId::Extension("mc")
    }

    fn description(&self) -> &'static str {
        "Monte-Carlo robustness of the headline claims under input uncertainty"
    }

    /// The assembly of the three parts, in registry order.
    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let mut out = fig10_breakeven(ctx);
        out.append(&fig11_capex_opex(ctx));
        out.append(&fig14_wafer_reduction(ctx));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claims_survive() {
        let out = ExtMonteCarlo.run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.len(), 3);
        for row in t.rows() {
            assert_eq!(row[3], "yes", "{row:?}");
        }
    }
}
