//! Property-based tests for the SoC simulator: invariants that must hold for
//! arbitrary (well-formed) hardware and workloads, not just the calibrated
//! Snapdragon 845.

use cc_socsim::{dvfs, ExecutionModel, Layer, LayerKind, Network, Soc, UnitKind};
use proptest::prelude::*;

/// A random but physically sensible compute unit.
fn unit_strategy() -> impl Strategy<Value = cc_socsim::ComputeUnit> {
    (
        10.0..500.0f64, // peak GMAC/s
        2.0..50.0f64,   // mem BW GB/s
        0.2..0.9f64,    // dense utilization
        0.05..0.19f64,  // depthwise utilization
        10.0..500.0f64, // pJ/MAC
        5.0..200.0f64,  // pJ/byte
        0.2..3.0f64,    // static W
    )
        .prop_map(
            |(peak, bw, dense, dw, pj_mac, pj_byte, static_w)| cc_socsim::ComputeUnit {
                kind: UnitKind::Cpu,
                peak_gmacs_per_s: peak,
                mem_bw_gbps: bw,
                dense_utilization: dense,
                depthwise_utilization: dw.min(dense),
                pj_per_mac: pj_mac,
                pj_per_byte: pj_byte,
                static_power_w: static_w,
                element_bytes: 4.0,
            },
        )
}

/// A random small network.
fn network_strategy() -> impl Strategy<Value = Vec<(f64, f64, f64, bool)>> {
    proptest::collection::vec(
        (0.001..2.0f64, 0.001..30.0f64, 0.001..30.0f64, any::<bool>()),
        1..12,
    )
}

fn build_network(layers: &[(f64, f64, f64, bool)]) -> Network {
    let built: Vec<Layer> = layers
        .iter()
        .map(|&(gmacs, w, a, dw)| Layer {
            name: "synthetic",
            kind: if dw {
                LayerKind::Depthwise
            } else {
                LayerKind::Standard
            },
            gmacs,
            weight_melems: w,
            act_melems: a,
        })
        .collect();
    Network {
        model: cc_data::ai_models::CnnModel::MobileNetV1,
        layers: built,
    }
}

proptest! {
    /// Latency and energy are strictly positive and finite for any workload.
    #[test]
    fn outputs_are_positive_and_finite(
        unit in unit_strategy(),
        layers in network_strategy(),
    ) {
        let net = build_network(&layers);
        let model = ExecutionModel::new(Soc::new("prop", vec![unit]));
        let r = model.run(&net, UnitKind::Cpu).unwrap();
        prop_assert!(r.latency.as_seconds() > 0.0);
        prop_assert!(r.latency.as_seconds().is_finite());
        prop_assert!(r.energy.as_joules() > 0.0);
        prop_assert!(r.energy.as_joules().is_finite());
        prop_assert!(r.average_power().as_watts() >= unit.static_power_w - 1e-9);
    }

    /// Doubling every layer's work at least doubles nothing-downward:
    /// latency and dynamic energy are monotone in the workload.
    #[test]
    fn monotone_in_workload(
        unit in unit_strategy(),
        layers in network_strategy(),
    ) {
        let small = build_network(&layers);
        let doubled: Vec<(f64, f64, f64, bool)> = layers
            .iter()
            .map(|&(g, w, a, d)| (g * 2.0, w * 2.0, a * 2.0, d))
            .collect();
        let large = build_network(&doubled);
        let model = ExecutionModel::new(Soc::new("prop", vec![unit]));
        let rs = model.run(&small, UnitKind::Cpu).unwrap();
        let rl = model.run(&large, UnitKind::Cpu).unwrap();
        prop_assert!(rl.latency >= rs.latency);
        prop_assert!(rl.energy >= rs.energy);
        // Exactly 2x latency (both roofline terms scale linearly).
        let ratio = rl.latency / rs.latency;
        prop_assert!((ratio - 2.0).abs() < 1e-9, "latency ratio {ratio}");
    }

    /// A faster unit (same energy coefficients) is never slower.
    #[test]
    fn faster_unit_is_not_slower(
        unit in unit_strategy(),
        layers in network_strategy(),
        speedup in 1.0..4.0f64,
    ) {
        let net = build_network(&layers);
        let mut fast = unit;
        fast.peak_gmacs_per_s *= speedup;
        fast.mem_bw_gbps *= speedup;
        let slow_model = ExecutionModel::new(Soc::new("slow", vec![unit]));
        let fast_model = ExecutionModel::new(Soc::new("fast", vec![fast]));
        let rs = slow_model.run(&net, UnitKind::Cpu).unwrap();
        let rf = fast_model.run(&net, UnitKind::Cpu).unwrap();
        prop_assert!(rf.latency <= rs.latency);
    }

    /// DVFS: latency is non-increasing in frequency; dynamic-dominated
    /// workloads get cheaper when downclocked.
    #[test]
    fn dvfs_latency_monotone(
        unit in unit_strategy(),
        layers in network_strategy(),
        s1 in 0.3..1.5f64,
        s2 in 0.3..1.5f64,
    ) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let net = build_network(&layers);
        let pts = dvfs::sweep(&unit, &net, &[lo, hi]);
        prop_assert!(pts[0].1 >= pts[1].1 - 1e-12, "lower frequency must not be faster");
    }
}
