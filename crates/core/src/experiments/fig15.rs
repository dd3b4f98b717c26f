//! Figure 15: cross-stack research directions for reducing carbon.

use cc_report::{Experiment, ExperimentId, ExperimentOutput, RunContext, Table};

/// Reproduces Fig 15's taxonomy, cross-referencing the modules in this
/// workspace that implement each direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig15ResearchDirections;

impl Experiment for Fig15ResearchDirections {
    fn id(&self) -> ExperimentId {
        ExperimentId::Figure(15)
    }

    fn description(&self) -> &'static str {
        "Cross-layer optimization opportunities across the computing stack"
    }

    fn run(&self, _ctx: &RunContext) -> ExperimentOutput {
        let mut out = ExperimentOutput::new();
        let mut t = Table::new(["Stack layer", "Opportunity", "Modelled in this repo by"]);
        t.row([
            "Applications/Algorithms",
            "Operational energy minimization (leaner models)",
            "cc-socsim networks: MobileNet family vs ResNet/Inception",
        ]);
        t.row([
            "Runtime systems",
            "Carbon-aware load balancing / scheduling workloads",
            "cc-dcsim::scheduler (ext-scheduler)",
        ]);
        t.row([
            "Systems",
            "Scale down hardware; datacenter heterogeneity",
            "Table IV experiment; cc-dcsim server SKUs",
        ]);
        t.row([
            "Compilers",
            "Energy-aware code generation",
            "(out of scope: no compiler substrate in the paper's evaluation)",
        ]);
        t.row([
            "Architecture",
            "Specialized hardware; judicious provisioning",
            "cc-socsim DSP path; Fig 9/10 experiments",
        ]);
        t.row([
            "Circuits",
            "Lower-footprint circuit design; reliability (longer lifetime)",
            "cc-lca amortization lifetime sensitivity",
        ]);
        t.row([
            "Devices & Manufacturing",
            "Greener fabs; yield; PFC abatement",
            "cc-fab: wafer sweep, die model, abatement",
        ]);
        let modelled = t
            .rows()
            .iter()
            .filter(|r| !r[2].starts_with("(out of scope"))
            .count();
        out.table("Research directions (Fig 15)", t);
        out.scalar("stack-layers-modelled", "layers", modelled as f64);
        out.note("structural figure: the mapping doubles as this repository's coverage index");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_seven_stack_layers() {
        let out = Fig15ResearchDirections.run(&RunContext::paper());
        assert_eq!(out.tables[0].1.len(), 7);
    }
}
