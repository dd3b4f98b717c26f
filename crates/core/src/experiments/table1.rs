//! Table I: salient Scope 1/2/3 emissions by company archetype.

use cc_ghg::scope::{CompanyKind, Scope};
use cc_report::{ExperimentOutput, RunContext, Table};

/// Reproduces Table I.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut t = Table::new(["Technology company", "Scope 1", "Scope 2", "Scope 3"]);
    for kind in CompanyKind::ALL {
        t.row([
            kind.to_string(),
            kind.salient_emissions(Scope::Scope1).to_string(),
            kind.salient_emissions(Scope::Scope2).to_string(),
            kind.salient_emissions(Scope::Scope3).to_string(),
        ]);
    }
    out.table("Table I: GHG Protocol scopes by company type", t);
    out.scalar(
        "company-archetypes",
        "archetypes",
        CompanyKind::ALL.len() as f64,
    );
    out.note(
        "Scope 1 dominates operational output only for chip manufacturers \
         (PFCs, chemicals, gases)",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_archetypes() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.len(), 3);
        assert!(t.rows()[0][1].contains("PFCs"));
    }
}
