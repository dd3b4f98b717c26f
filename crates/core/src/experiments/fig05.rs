//! Figure 5: Apple's FY2019 carbon-emission breakdown.

use cc_data::corporate::{apple_2019_group_share, apple_2019_total, APPLE_2019_BREAKDOWN};
use cc_report::{table::num, ExperimentOutput, RunContext, Table};

/// Reproduces Fig 5.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let total = apple_2019_total();
    let mut t = Table::new(["Slice", "Group", "Share", "Mt CO2e"]);
    for slice in APPLE_2019_BREAKDOWN {
        t.row([
            slice.label.to_string(),
            slice.group.to_string(),
            format!("{:.1}%", slice.share * 100.0),
            num((total * slice.share).as_mt(), 2),
        ]);
    }
    out.table("Apple FY2019 breakdown (total 25 Mt CO2e)", t);

    let manufacturing = apple_2019_group_share("Manufacturing");
    let product_use = apple_2019_group_share("Product Use");
    let ics = APPLE_2019_BREAKDOWN[0].share;
    out.scalar("manufacturing-share", "%", manufacturing * 100.0);
    out.note(format!(
        "paper: manufacturing 74% / use 19%; measured {:.0}% / {:.0}%",
        manufacturing * 100.0,
        product_use * 100.0
    ));
    out.note(format!(
        "paper: integrated circuits (~33%) alone exceed all product use; measured ICs {:.0}% {} use {:.0}%",
        ics * 100.0,
        if ics > product_use { ">" } else { "<=" },
        product_use * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_slices_and_anchor_notes() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables[0].1.rows().len(), 16);
        assert!(out.notes[1].contains('>'));
    }
}
