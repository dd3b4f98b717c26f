//! Figure 3: the GHG Protocol scope taxonomy.

use cc_report::{ExperimentOutput, RunContext, Table};

/// Reproduces Fig 3's scope taxonomy as a structured table.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut t = Table::new(["Scope", "Direction", "Example activities"]);
    t.row([
        "Scope 1",
        "direct",
        "Offices and facilities; raw-material combustion",
    ]);
    t.row(["Scope 2", "indirect", "Purchased energy"]);
    for cat in cc_ghg::categories::Scope3Cat::ALL {
        t.row([
            "Scope 3".to_string(),
            if cat.is_upstream() {
                "upstream".to_string()
            } else {
                "downstream".to_string()
            },
            cat.name().to_string(),
        ]);
    }
    out.table("GHG Protocol emission scopes", t);
    out.scalar(
        "scope3-categories",
        "categories",
        cc_ghg::categories::Scope3Cat::ALL.len() as f64,
    );
    out.note("structural figure: taxonomy reproduced from cc-ghg's scope and category model");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_scope3_categories() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.len(), 2 + 15);
        let upstream = t.rows().iter().filter(|r| r[1] == "upstream").count();
        assert_eq!(upstream, 8);
    }
}
