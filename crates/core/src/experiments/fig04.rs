//! Figure 4: the hardware life cycle and its opex/capex classification.

use cc_lca::{ExpenditureClass, LifecyclePhase};
use cc_report::{ExperimentOutput, RunContext, Table};

/// Reproduces Fig 4's life-cycle/classification mapping.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut t = Table::new(["Phase", "Class", "Personal computing", "Datacenter"]);
    let personal = [
        "Procure materials, integrated circuits, packaging, assembly",
        "Transport final product to consumer",
        "Utilization, hardware lifetime, battery efficiency",
        "Some raw materials reused",
    ];
    let datacenter = [
        "Procure materials, ICs, datacenter construction, packaging, assembly",
        "Transport hardware and equipment to be assembled on site",
        "Utilization, hardware lifetime, PUE",
        "Some raw materials reused",
    ];
    for (i, phase) in LifecyclePhase::ALL.iter().enumerate() {
        t.row([
            phase.to_string(),
            phase.expenditure_class().to_string(),
            personal[i].to_string(),
            datacenter[i].to_string(),
        ]);
    }
    out.table("Hardware life cycle (Fig 4)", t);
    let opex_phases = LifecyclePhase::ALL
        .iter()
        .filter(|p| p.expenditure_class() == ExpenditureClass::Opex)
        .count();
    out.scalar(
        "capex-phase-share",
        "%",
        100.0 * (LifecyclePhase::ALL.len() - opex_phases) as f64 / LifecyclePhase::ALL.len() as f64,
    );
    out.note("only the use phase is opex-related; all other phases aggregate into capex");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_phases_one_opex() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.rows().len(), 4);
        let opex_rows = t.rows().iter().filter(|r| r[1] == "Opex").count();
        assert_eq!(opex_rows, 1);
    }
}
