//! Figure 8: performance vs manufacturing-carbon Pareto frontier by phone
//! generation.

use cc_analysis::pareto::{benefit_shift, frontier, Point};
use cc_data::phone_perf;
use cc_report::{table::num, ExperimentOutput, RunContext, Table};

fn cohort_points(year: u16) -> Vec<Point<&'static str>> {
    phone_perf::cohort(year)
        .map(|p| Point::new(p.throughput_ips, p.manufacturing().as_kg(), p.device))
        .collect()
}

/// Reproduces Fig 8.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();

    let mut points = Table::new([
        "Device",
        "Vendor",
        "Year",
        "Throughput (img/s)",
        "Manufacturing (kg CO2e)",
    ]);
    for p in &phone_perf::ALL {
        let lca = p.lca();
        points.row([
            p.device.to_string(),
            lca.vendor.tag().to_string(),
            lca.year.to_string(),
            num(p.throughput_ips, 0),
            num(p.manufacturing().as_kg(), 1),
        ]);
    }
    out.table("Measurement points", points);

    let front2017 = frontier(&cohort_points(2017));
    let front2019 = frontier(&cohort_points(2019));
    for (year, front) in [(2017, &front2017), (2019, &front2019)] {
        let mut t = Table::new(["Device", "Throughput (img/s)", "Manufacturing (kg CO2e)"]);
        for p in front {
            t.row([p.tag.to_string(), num(p.benefit, 0), num(p.cost, 1)]);
        }
        out.table(format!("Pareto frontier, devices through {year}"), t);
    }

    let shift = benefit_shift(&front2017, &front2019);
    out.scalar("frontier-benefit-shift", "x", shift);
    out.note(format!(
        "paper: frontier shifted primarily right (more performance, similar carbon); \
         measured mean benefit shift {shift:.1}x at matched carbon budgets"
    ));
    out.note(
        "paper anchors: iPhone 11 Pro 75 img/s @ 66 kg; Pixel 3a 20 img/s @ 45 kg; \
         iPhone 11 doubles iPhone X throughput at slightly lower carbon",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_2019_extends_beyond_2017() {
        let f17 = frontier(&cohort_points(2017));
        let f19 = frontier(&cohort_points(2019));
        let best17 = f17.iter().map(|p| p.benefit).fold(0.0, f64::max);
        let best19 = f19.iter().map(|p| p.benefit).fold(0.0, f64::max);
        assert!(
            best19 > best17 * 1.8,
            "2019 frontier should roughly double peak throughput"
        );
    }

    #[test]
    fn output_has_points_and_two_frontiers() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0].1.len(), phone_perf::ALL.len());
    }

    #[test]
    fn shift_exceeds_one() {
        let f17 = frontier(&cohort_points(2017));
        let f19 = frontier(&cohort_points(2019));
        assert!(benefit_shift(&f17, &f19) > 1.2);
    }
}
