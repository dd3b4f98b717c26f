//! Property-based tests for [`DistSpec`]: `Display` is documented as the
//! canonical round-trippable text (`docs/PROTOCOL.md` echoes it and served
//! requests intern on it), so `parse ∘ to_string` must be the identity on
//! every representable spec, not just the handful of literals the unit
//! tests pin.
//!
//! Also checks [`propagate`]'s selection-based percentiles against a
//! sort-and-index reference over the very outputs the model returned.

use cc_analysis::dist::DistSpec;
use cc_analysis::uncertainty::{propagate, Triangular};
use proptest::prelude::*;
use std::cell::RefCell;

/// Arbitrary but bounded magnitudes; the parser only requires finiteness.
fn param() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

/// Non-negative widths used to build ordered bounds.
fn width() -> impl Strategy<Value = f64> {
    0.0..1e5f64
}

/// A positive triangular distribution, collapsed to `low == mode == high`
/// (which consumes no random draw) when `flat`.
fn triangular(low: f64, d1: f64, d2: f64, flat: bool) -> Triangular {
    if flat {
        Triangular::new(low, low, low)
    } else {
        Triangular::new(low, low + d1, low + d1 + d2)
    }
}

/// Runs `propagate` and compares its summary with a reference built from
/// the outputs the model returned: a full sort, then indexing at the
/// nearest ranks `round((n - 1) · p)`.
fn check_against_sorted_reference(inputs: &[Triangular], trials: u32, seed: u64, model: usize) {
    let outputs = RefCell::new(Vec::new());
    let summary = propagate(inputs, trials, seed, |x| {
        let y = match model {
            0 => x[0],
            1 => x[0] * x[1],
            2 => x[0] / x[1],
            // Coarse rounding makes many ties.
            _ => (x[0] / 50.0).round(),
        };
        outputs.borrow_mut().push(y);
        y
    });
    let mut sorted = outputs.into_inner();
    assert_eq!(sorted.len(), trials as usize);
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("positive outputs are never NaN"));
    let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
    let case = format!("trials {trials}, seed {seed}, model {model}, inputs {inputs:?}");
    assert_eq!(summary.p05.to_bits(), pct(0.05).to_bits(), "p05: {case}");
    assert_eq!(summary.p50.to_bits(), pct(0.50).to_bits(), "p50: {case}");
    assert_eq!(summary.p95.to_bits(), pct(0.95).to_bits(), "p95: {case}");
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    assert!(
        (summary.mean - mean).abs() <= 1e-12 * mean.abs(),
        "mean {} vs sorted-order {mean}: {case}",
        summary.mean
    );
}

proptest! {
    #[test]
    fn triangular_round_trips(low in param(), d1 in width(), d2 in width()) {
        let mode = low + d1;
        let high = mode + d2;
        // Tiny widths can round away entirely (1e6 + 1e-12 == 1e6); the
        // parser rightly rejects low == high, so skip those draws.
        prop_assume!(low < high);
        let spec = DistSpec::Triangular { low, mode, high };
        prop_assert_eq!(DistSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn uniform_round_trips(low in param(), d in width()) {
        let high = low + d;
        prop_assume!(low < high);
        let spec = DistSpec::Uniform { low, high };
        prop_assert_eq!(DistSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn normal_round_trips(mu in param(), sigma in 1e-6..1e6f64) {
        let spec = DistSpec::Normal { mu, sigma };
        prop_assert_eq!(DistSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn parsing_ignores_interior_whitespace(low in param(), d in width()) {
        let high = low + d;
        prop_assume!(low < high);
        let spec = DistSpec::Uniform { low, high };
        let padded = format!("  uniform ( {low} , {high} )  ");
        prop_assert_eq!(DistSpec::parse(&padded).unwrap(), spec);
    }

    #[test]
    fn central_lies_inside_bounded_supports(low in param(), d1 in width(), d2 in width()) {
        let mode = low + d1;
        let high = mode + d2;
        prop_assume!(low < high);
        let tri = DistSpec::Triangular { low, mode, high };
        prop_assert!(tri.central() >= low && tri.central() <= high);
        let uni = DistSpec::Uniform { low, high };
        prop_assert!(uni.central() >= low && uni.central() <= high);
    }

    #[test]
    fn propagate_percentiles_equal_the_sorted_reference(
        low0 in 1e-3..1e3f64, d0 in 0.0..1e3f64, e0 in 0.0..1e3f64, flat0 in any::<bool>(),
        low1 in 1e-3..1e3f64, d1 in 0.0..1e3f64, e1 in 0.0..1e3f64, flat1 in any::<bool>(),
        seed in 0u64..u64::MAX,
        model in 0usize..4,
        large in 65u32..25_000,
    ) {
        let inputs = [triangular(low0, d0, e0, flat0), triangular(low1, d1, e1, flat1)];
        for trials in (1..=64).chain([large, 20_000]) {
            check_against_sorted_reference(&inputs, trials, seed, model);
        }
    }
}
