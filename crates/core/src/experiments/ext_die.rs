//! Extension: die-level embodied carbon across process nodes and die sizes
//! (the ACT-style forward model).

use cc_fab::{DieModel, ProcessNode};

/// The process node closest (by nanometres) to the scenario's `fab.node_nm`.
fn nearest_node(node_nm: f64) -> ProcessNode {
    ProcessNode::ALL
        .into_iter()
        .min_by(|a, b| {
            (a.nanometres() - node_nm)
                .abs()
                .partial_cmp(&(b.nanometres() - node_nm).abs())
                .expect("node distances are finite")
        })
        .expect("ProcessNode::ALL is non-empty")
}
use cc_report::{table::num, ExperimentOutput, RunContext, Table};

/// Sweeps die area and node, showing how provisioning decisions translate to
/// embodied carbon ("judiciously provisioning resources, scaling down
/// hardware").
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut t = Table::new([
        "Node",
        "Die area (mm2)",
        "Yield",
        "Good dies/wafer",
        "Embodied (kg CO2e/die)",
    ]);
    // The models' baseline defect density is 0.1 /cm²; the scenario's
    // yield factor scales it (a >1 factor models a worse-yielding fab).
    let d0 = 0.1 * ctx.fab_yield_factor();
    for node in [
        ProcessNode::N14,
        ProcessNode::N10,
        ProcessNode::N7,
        ProcessNode::N5,
    ] {
        for area in [50.0, 100.0, 200.0, 400.0] {
            let m = DieModel::new(node, area)
                .expect("valid area")
                .with_defect_density(d0)
                .expect("non-negative defect density");
            t.row([
                node.to_string(),
                num(area, 0),
                format!("{:.0}%", m.yield_fraction() * 100.0),
                num(m.good_dies_per_wafer(), 0),
                num(m.embodied_carbon().as_kg(), 2),
            ]);
        }
    }
    out.table(
        format!("Embodied carbon per die (node-scaled TSMC wafer baseline, D0 = {d0:.2} /cm2)"),
        t,
    );
    out.note(
        "embodied carbon grows superlinearly with die area because yield decays \
         exponentially — the quantitative case for the paper's 'scale down hardware'",
    );
    // The scenario's featured node, at a Pixel-3-class 100 mm2 SoC die.
    // The wafer baseline is node-specific (electricity scales with the
    // node's per-wafer energy), so sweeping `fab.node_nm` moves this
    // scalar — the load-bearing knob a sweep comparison diffs.
    let featured = nearest_node(ctx.fab_node_nm());
    let featured_die = DieModel::new(featured, 100.0)
        .expect("100 mm2 fits the wafer")
        .with_defect_density(d0)
        .expect("non-negative defect density");
    out.scalar(
        "featured-node-per-die-carbon",
        "kg CO2e",
        featured_die.embodied_carbon().as_kg(),
    );
    out.note(format!(
        "scenario fab.node = {} nm (nearest modeled node {featured}): a 100 mm2 die \
         embodies {:.2} kg CO2e at {:.0}% yield, from a {:.1} MWh/wafer process \
         (electricity carbon scales with the node's per-wafer energy; process \
         emissions are recipe-driven and constant)",
        ctx.fab_node_nm(),
        featured_die.embodied_carbon().as_kg(),
        featured_die.yield_fraction() * 100.0,
        featured.energy_per_wafer().as_kwh() / 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_rows_with_superlinear_area_cost() {
        let out = run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.rows().len(), 16);
        // Within one node, 8x area must cost more than 8x carbon.
        let small: f64 = t.rows()[0][4].parse().unwrap();
        let large: f64 = t.rows()[3][4].parse().unwrap();
        assert!(large / small > 8.0, "{large} / {small}");
    }

    #[test]
    fn node_sweep_moves_the_per_die_scalar() {
        use cc_report::Scenario;
        let scalar_at = |node_nm: &str| {
            let mut s = Scenario::paper_defaults();
            s.set("fab.node_nm", node_nm).unwrap();
            run(&RunContext::new(s))
                .scalars
                .iter()
                .find(|sc| sc.name == "featured-node-per-die-carbon")
                .expect("ext-die exposes a summary scalar")
                .value
        };
        // fab.node_nm is load-bearing: advancing the featured node raises
        // per-die carbon through the node's per-wafer electricity.
        assert!(scalar_at("3") > scalar_at("7"));
        assert!(scalar_at("7") > scalar_at("28"));
    }
}
