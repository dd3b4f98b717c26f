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
use cc_report::{table::num, ExperimentOutput, RunContext, Table};

const TITLE: &str = "Headline robustness under triangular input uncertainty";

/// The Fig 11 claim: Facebook's capex/opex ratio stays above this.
const CAPEX_OPEX_FLOOR: f64 = 10.0;

/// The Fig 14 claim: greener fab electricity at 64x cuts the wafer
/// footprint by a factor inside this band (paper: ~2.7x).
const REDUCTION_BAND: (f64, f64) = (2.0, 3.5);

/// The fab electricity share of the wafer footprint, known only to +/-5
/// percentage points.
const ENERGY_SHARE: Triangular = Triangular {
    low: 0.59,
    mode: 0.64,
    high: 0.69,
};

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
/// +/-20%, grid +/-15% and energy/image +/-25%. Carries the summary scalar
/// and, when this claim survives, the closing note: the Fig 11 and Fig 14
/// claims survive at every seed and sample count (their input bands cannot
/// carry them past their thresholds), so this row decides whether all three
/// do.
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
    if survives {
        out.note(
            "all three headlines survive disclosure-level uncertainty: the paper's conclusions \
             are not artifacts of point estimates",
        );
    }
    out
}

/// Fig 11's inputs: Facebook's 2019 Scope 3 +/-30% (embodied factors are
/// coarse), then its Scope 1 + 2 +/-10% (metered energy).
fn fig11_inputs() -> [Triangular; 2] {
    let fb = cc_data::corporate::year_of(&cc_data::corporate::FACEBOOK, 2019).unwrap();
    [
        Triangular::around(fb.scope3_mt, 0.30),
        Triangular::around(fb.scope1_mt + fb.scope2_market_mt, 0.10),
    ]
}

/// The wafer footprint reduction at 64x greener electricity, given the
/// electricity share `x[0]`.
fn reduction_at_64x(x: &[f64]) -> f64 {
    1.0 / ((1.0 - x[0]) + x[0] / 64.0)
}

/// Part `ext-mc.fig11`: the Facebook capex/opex ratio.
#[must_use]
pub fn fig11_capex_opex(ctx: &RunContext) -> ExperimentOutput {
    let ratio = propagate(
        &fig11_inputs(),
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
        ratio.p05 > CAPEX_OPEX_FLOOR,
    )
}

/// Part `ext-mc.fig14`: the wafer reduction at 64x.
#[must_use]
pub fn fig14_wafer_reduction(ctx: &RunContext) -> ExperimentOutput {
    let reduction = propagate(
        &[ENERGY_SHARE],
        ctx.mc_samples(),
        ctx.mc_seed().wrapping_add(2),
        reduction_at_64x,
    );
    headline(
        [
            "Fig 14 reduction at 64x".to_string(),
            format!("{}x", num(reduction.p50, 2)),
            format!("{}x..{}x", num(reduction.p05, 2), num(reduction.p95, 2)),
        ],
        reduction.p05 > REDUCTION_BAND.0 && reduction.p95 < REDUCTION_BAND.1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_report::Scenario;

    fn ext_mc(ctx: &RunContext) -> ExperimentOutput {
        super::super::find_entry("ext-mc").unwrap().run(ctx)
    }

    const NOTE: &str = "all three headlines survive";

    #[test]
    fn all_claims_survive() {
        let out = ext_mc(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.rows().len(), 3);
        for row in t.rows() {
            assert_eq!(row[3], "yes", "{row:?}");
        }
        assert_eq!(out.notes.len(), 1);
        assert!(out.notes[0].starts_with(NOTE));
    }

    #[test]
    fn fig11_and_fig14_claims_hold_across_their_whole_input_bands() {
        // Every sampled ratio lies at or above its worst corner, low
        // Scope 3 over high Scope 1 + 2 (0.7/1.1 of the point value), so
        // no percentile can fall below the floor.
        let [scope3, operational] = fig11_inputs();
        let worst = scope3.low / operational.high;
        assert!(worst > CAPEX_OPEX_FLOOR, "{worst}");
        assert!((12.0..13.0).contains(&worst), "{worst}");
        // The reduction rises with the share, so the band's ends bound it.
        let (low, high) = (
            reduction_at_64x(&[ENERGY_SHARE.low]),
            reduction_at_64x(&[ENERGY_SHARE.high]),
        );
        assert!(low > REDUCTION_BAND.0 && high < REDUCTION_BAND.1);
        assert_eq!((num(low, 2), num(high, 2)), ("2.39".into(), "3.12".into()));
    }

    #[test]
    fn the_closing_note_needs_the_fig10_claim_to_survive() {
        let mut probe = Scenario::paper_defaults();
        probe.set("grid.intensity", "10000").unwrap();
        probe.set("device.soc_budget_share", "0.01").unwrap();
        let out = ext_mc(&RunContext::new(probe));
        let verdicts: Vec<&str> = out.tables[0]
            .1
            .rows()
            .iter()
            .map(|r| r[3].as_str())
            .collect();
        assert_eq!(verdicts, ["no", "yes", "yes"]);
        assert!(
            out.notes.iter().all(|n| !n.contains(NOTE)),
            "{:?}",
            out.notes
        );
    }
}
