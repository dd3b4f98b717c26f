//! Property-based tests for [`DistSpec`]: `Display` is documented as the
//! canonical round-trippable text (`docs/PROTOCOL.md` echoes it and served
//! requests intern on it), so `parse ∘ to_string` must be the identity on
//! every representable spec, not just the handful of literals the unit
//! tests pin.
//!
//! Also checks [`propagate`]'s selection-based percentiles against a
//! sort-and-index reference over the very outputs the model returned, and
//! its memoized, jump-ahead draws against a sequential reference that walks
//! the random stream trial by trial, whatever the column memo holds.

use cc_analysis::dist::DistSpec;
use cc_analysis::rng::{Rng, SplitMix64};
use cc_analysis::uncertainty::{propagate, McSummary, Triangular};
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

/// `propagate` without its column memo: one generator walked trial by
/// trial and input by input through [`Triangular::quantile`] (a degenerate
/// input draws nothing and is its mode), the outputs summed in order and
/// sorted for the nearest-rank percentiles.
fn sequential_reference(
    inputs: &[Triangular],
    trials: u32,
    seed: u64,
    model: impl Fn(&[f64]) -> f64,
) -> McSummary {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut outputs = Vec::with_capacity(trials as usize);
    let mut draws = vec![0.0; inputs.len()];
    for _ in 0..trials {
        for (d, dist) in draws.iter_mut().zip(inputs) {
            *d = if dist.high == dist.low {
                dist.mode
            } else {
                dist.quantile(rng.gen_range(0.0..1.0))
            };
        }
        outputs.push(model(&draws));
    }
    let n = outputs.len();
    let mean = outputs.iter().sum::<f64>() / n as f64;
    let var = outputs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n.max(2) - 1) as f64;
    outputs.sort_by(f64::total_cmp);
    let pct = |p: f64| outputs[((n - 1) as f64 * p).round() as usize];
    McSummary {
        mean,
        std: var.sqrt(),
        p05: pct(0.05),
        p50: pct(0.50),
        p95: pct(0.95),
    }
}

/// The models the memo checks run: `ext-mc`'s break-even over three
/// inputs, and ones that read every input however many there are.
fn memo_model(model: usize) -> impl Fn(&[f64]) -> f64 {
    move |x: &[f64]| match model {
        0 if x.len() == 3 => x[0] / ((x[2] / 3.6e6) * x[1]),
        0 | 1 => x.iter().product(),
        2 => x[0] / x.iter().sum::<f64>(),
        // Coarse rounding makes many ties.
        _ => (x.iter().sum::<f64>() / 50.0).round(),
    }
}

/// Asserts that `propagate` equals the sequential reference bit for bit in
/// every summary field.
fn check_against_sequential(inputs: &[Triangular], trials: u32, seed: u64, model: usize) {
    let bits = |s: McSummary| [s.mean, s.std, s.p05, s.p50, s.p95].map(f64::to_bits);
    let got = propagate(inputs, trials, seed, memo_model(model));
    let want = sequential_reference(inputs, trials, seed, memo_model(model));
    assert_eq!(
        bits(got),
        bits(want),
        "trials {trials}, seed {seed}, model {model}, inputs {inputs:?}: {got:?} vs {want:?}"
    );
}

/// Inputs shaped like `ext-mc`'s Fig 10 break-even at one grid intensity.
fn fig10_inputs(grid: f64) -> [Triangular; 3] {
    [
        Triangular::around(12_425.0, 0.20),
        Triangular::around(grid, 0.15),
        Triangular::around(0.0447, 0.25),
    ]
}

/// Shared columns, then a moved input, then the same inputs again after
/// more than the memo's 256 columns have passed through it: every answer
/// equals the sequential reference.
#[test]
fn memoized_propagation_matches_the_sequential_reference_through_eviction() {
    for grid in [50.0, 380.0, 700.0, 380.0] {
        check_against_sequential(&fig10_inputs(grid), 2_000, 10, 0);
    }
    // Flood the memo with short distinct columns so the ones above go.
    let flat = Triangular::new(3.0, 3.0, 3.0);
    for seed in 0..300 {
        check_against_sequential(&[Triangular::around(5.0, 0.1), flat], 3, seed, 1);
    }
    check_against_sequential(&fig10_inputs(380.0), 2_000, 10, 0);
}

/// Threads racing on overlapping memo keys all get the reference answers.
#[test]
fn concurrent_propagations_match_the_sequential_reference() {
    let grids = [120.0, 380.0, 640.0];
    let reference: Vec<McSummary> = grids
        .iter()
        .map(|&g| sequential_reference(&fig10_inputs(g), 3_000, 77, memo_model(0)))
        .collect();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for thread in 0..4 {
            let (reference, start) = (&reference, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..6 {
                    let i = (thread + round) % grids.len();
                    let got = propagate(&fig10_inputs(grids[i]), 3_000, 77, memo_model(0));
                    assert_eq!(got, reference[i], "thread {thread}, round {round}");
                }
            });
        }
    });
}

proptest! {
    #[test]
    fn propagate_matches_the_sequential_reference(
        low0 in 1e-3..1e3f64, d0 in 0.0..1e3f64, e0 in 0.0..1e3f64, flat0 in any::<bool>(),
        low1 in 1e-3..1e3f64, d1 in 0.0..1e3f64, e1 in 0.0..1e3f64, flat1 in any::<bool>(),
        low2 in 1e-3..1e3f64, d2 in 0.0..1e3f64, flat2 in any::<bool>(),
        count in 1usize..5,
        seed in 0u64..u64::MAX,
        trials in 1u32..1_500,
        model in 0usize..4,
    ) {
        let all = [
            triangular(low0, d0, e0, flat0),
            triangular(low1, d1, e1, flat1),
            triangular(low2, d2, d0, flat2),
            triangular(low2, e1, d2, false),
        ];
        let mut inputs = all[..count].to_vec();
        // Fresh columns, then the same ones from the memo.
        check_against_sequential(&inputs, trials, seed, model);
        check_against_sequential(&inputs, trials, seed, model);
        // One input moves; the others keep their columns.
        inputs[count - 1] = triangular(low1 * 1.5, e0, d1, flat0);
        check_against_sequential(&inputs, trials, seed, model);
        // A new seed or trial count shares no column.
        check_against_sequential(&inputs, trials, seed.wrapping_add(1), model);
        check_against_sequential(&inputs, trials + 1, seed, model);
        // Flattening the first input changes the stride and positions of
        // the rest, whose own parameters stay the same.
        inputs[0] = triangular(low0, 0.0, 0.0, true);
        check_against_sequential(&inputs, trials, seed, model);
    }

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
