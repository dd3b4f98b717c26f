//! Design-space exploration on the Fig 8 Pareto frontier: where do today's
//! phones sit, and what would a "scale-down" design (the paper's Section VI
//! ask) do to the frontier?
//!
//! Run with `cargo run --example device_pareto`.

use chasing_carbon::analysis::pareto::{benefit_shift, frontier, Point};
use chasing_carbon::data::phone_perf;

fn main() {
    // Published devices.
    let points: Vec<Point<String>> = phone_perf::ALL
        .iter()
        .map(|p| {
            Point::new(
                p.throughput_ips,
                p.manufacturing().as_kg(),
                p.device.to_string(),
            )
        })
        .collect();

    let front2017 = frontier(
        &points
            .iter()
            .filter(|p| {
                phone_perf::ALL
                    .iter()
                    .any(|q| q.device == p.tag && q.year() <= 2017)
            })
            .cloned()
            .collect::<Vec<_>>(),
    );
    let front2019 = frontier(&points);

    println!("2019 Pareto frontier (throughput vs manufacturing CO2e):");
    for p in &front2019 {
        println!(
            "  {:<22} {:>5.0} img/s  {:>5.1} kg CO2e",
            p.tag, p.benefit, p.cost
        );
    }
    println!(
        "\nfrontier shift 2017 -> 2019: {:.1}x more throughput at matched carbon budgets",
        benefit_shift(&front2017, &front2019)
    );

    // The paper: "moving the Pareto frontier down is also important".
    // A hypothetical scale-down design: iPhone-X-class throughput from a
    // leaner SoC and smaller BOM at 38 kg of manufacturing carbon.
    let mut with_scale_down = points.clone();
    with_scale_down.push(Point::new(35.0, 38.0, "scale-down concept".to_string()));
    let new_front = frontier(&with_scale_down);
    println!("\nfrontier after adding a scale-down design:");
    for p in &new_front {
        println!(
            "  {:<22} {:>5.0} img/s  {:>5.1} kg CO2e",
            p.tag, p.benefit, p.cost
        );
    }
    let concept_on_front = new_front.iter().any(|p| p.tag == "scale-down concept");
    println!(
        "\nthe concept {} the frontier — same performance tier, lower embodied carbon",
        if concept_on_front { "joins" } else { "misses" }
    );
}
