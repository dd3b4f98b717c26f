//! Monte-Carlo uncertainty propagation.
//!
//! The paper's inputs are disclosed with coarse precision (shares to a few
//! percent, intensities as national averages). This module propagates
//! triangular input distributions through an arbitrary model function and
//! summarizes the output spread — the error bars Fig 6 hints at with its
//! "one standard deviation" whiskers.
//!
//! # The column memo
//!
//! [`propagate`] draws one *column* per uncertain input: that input's value
//! in every trial. A column depends on exactly five things: the seed, the
//! trial count, the number of inputs that draw (the stride of the shared
//! random stream), the input's position among them and its own
//! `(low, mode, high)`. It never depends on the other inputs. Callers that
//! repeat a propagation with one input moved, such as an outer Monte-Carlo
//! run over `grid.intensity` rerunning `ext-mc`'s Fig 10 break-even, would
//! otherwise redraw the unchanged columns every time. A process-wide memo
//! keyed by those five things keeps recent columns and evicts the least
//! recently used first. Its size is a constant bound: at most 1 Mi values
//! (8 MiB) in at most 256 columns. It is a pure cache: every summary is bit
//! for bit what drawing afresh gives, whatever the memo holds, and no
//! setting changes it.

use crate::rng::{Rng, SplitMix64};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A triangular distribution `(low, mode, high)` — the standard choice for
/// expert-elicited LCA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    /// Lower bound.
    pub low: f64,
    /// Most likely value.
    pub mode: f64,
    /// Upper bound.
    pub high: f64,
}

impl Triangular {
    /// Creates a distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `low <= mode <= high`.
    #[must_use]
    pub fn new(low: f64, mode: f64, high: f64) -> Self {
        assert!(low <= mode && mode <= high, "require low <= mode <= high");
        Self { low, mode, high }
    }

    /// A symmetric ±`rel` relative band around `mode`.
    #[must_use]
    pub fn around(mode: f64, rel: f64) -> Self {
        let half = mode.abs() * rel;
        Self::new(mode - half, mode, mode + half)
    }

    /// Draws one sample by inverse-CDF.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        if self.high == self.low {
            return self.mode;
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        let fc = (self.mode - self.low) / (self.high - self.low);
        if u < fc {
            self.low + (u * (self.high - self.low) * (self.mode - self.low)).sqrt()
        } else {
            self.high - ((1.0 - u) * (self.high - self.low) * (self.high - self.mode)).sqrt()
        }
    }
}

/// Summary of a Monte-Carlo output sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// Runs `trials` Monte-Carlo evaluations of `model` over the given input
/// distributions and summarizes the output.
///
/// `model` receives one sampled value per input, in order. Deterministic for
/// a fixed `seed`: the inputs draw from one [`SplitMix64`] stream, trial by
/// trial and input by input, and a degenerate input (`high == low`) draws
/// nothing and is its `mode`. The draws are read from the module's column
/// memo, which computes a missing column by jumping straight to each of its
/// draws; the memo never changes a result.
///
/// The percentiles are nearest-rank order statistics: `pXX` is the output
/// of rank `round((trials - 1) · XX/100)` in ascending [`f64::total_cmp`]
/// order, so `-0.0` ranks below `+0.0`. They are found by selection in
/// O(`trials`) rather than by a full sort: `p50` partitions the outputs, and
/// `p05` and `p95` are then selected within the lower and upper partitions.
/// Selection runs on integer keys that order as [`f64::total_cmp`] does.
/// Each percentile equals, bit for bit, the entry of that rank in the sorted
/// outputs. `mean` and `std` (the `n - 1` sample deviation, 0 for one
/// trial) are summed in draw order.
///
/// # Panics
///
/// Panics when `trials == 0` or `inputs` is empty.
pub fn propagate(
    inputs: &[Triangular],
    trials: u32,
    seed: u64,
    model: impl Fn(&[f64]) -> f64,
) -> McSummary {
    assert!(trials > 0, "need at least one trial");
    assert!(!inputs.is_empty(), "need at least one input");
    let n = trials as usize;
    let stride = inputs.iter().filter(|d| d.high != d.low).count();
    let mut position = 0;
    let owned: Vec<Column> = inputs
        .iter()
        .map(|dist| {
            if dist.high == dist.low {
                return Arc::new(vec![dist.mode; n]);
            }
            let key = ColumnKey {
                seed,
                trials,
                stride,
                position,
                dist: [dist.low, dist.mode, dist.high].map(f64::to_bits),
            };
            position += 1;
            column(dist, key)
        })
        .collect();
    let columns: Vec<&[f64]> = owned.iter().map(|c| c.as_slice()).collect();

    let mut keys: Vec<i64> = Vec::with_capacity(n);
    // A fixed-size row lets the compiler unroll the gather and drop the
    // model's bounds checks for the input counts callers use.
    let sum = match columns.len() {
        1 => evaluate([0.0; 1], &columns, &model, &mut keys),
        2 => evaluate([0.0; 2], &columns, &model, &mut keys),
        3 => evaluate([0.0; 3], &columns, &model, &mut keys),
        len => evaluate(vec![0.0; len], &columns, &model, &mut keys),
    };
    let mean = sum / n as f64;
    let var = keys
        .iter()
        .map(|&k| (from_order_key(k) - mean).powi(2))
        .sum::<f64>()
        / (n.max(2) - 1) as f64;

    let rank = |p: f64| ((n - 1) as f64 * p).round() as usize;
    let (i05, i50, i95) = (rank(0.05), rank(0.50), rank(0.95));
    let (lower, &mut k50, upper) = keys.select_nth_unstable(i50);
    // Ranks coincide for small `n`; the partitions are then empty.
    let k05 = if i05 < i50 {
        *lower.select_nth_unstable(i05).1
    } else {
        k50
    };
    let k95 = if i95 > i50 {
        *upper.select_nth_unstable(i95 - i50 - 1).1
    } else {
        k50
    };
    McSummary {
        mean,
        std: var.sqrt(),
        p05: from_order_key(k05),
        p50: from_order_key(k50),
        p95: from_order_key(k95),
    }
}

/// Evaluates `model` trial by trial, reading input `j`'s value from
/// `columns[j]` into `row`. Pushes each output's [`order_key`] onto `keys`
/// and returns the outputs' sum in trial order, starting from `-0.0` as
/// [`Iterator::sum`] does.
fn evaluate(
    mut row: impl AsMut<[f64]>,
    columns: &[&[f64]],
    model: &impl Fn(&[f64]) -> f64,
    keys: &mut Vec<i64>,
) -> f64 {
    let mut sum = -0.0;
    for trial in 0..columns[0].len() {
        let draws = row.as_mut();
        for (draw, column) in draws.iter_mut().zip(columns) {
            *draw = column[trial];
        }
        let y = model(draws);
        sum += y;
        keys.push(order_key(y));
    }
    sum
}

/// `v`'s bits as an integer whose order is [`f64::total_cmp`]'s: negative
/// values have every bit below the sign flipped.
fn order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The inverse of [`order_key`] (the flip keeps the sign bit, so it undoes
/// itself).
fn from_order_key(key: i64) -> f64 {
    f64::from_bits(order_key(f64::from_bits(key as u64)) as u64)
}

/// The most draws the column memo retains over all its columns: 1 Mi
/// values (8 MiB). At the default 20,000 trials that is about fifty
/// columns, so the columns repeated propagations share stay resident while
/// each call's moved column passes through. Above about 350,000 trials a
/// three-input propagation outgrows it and redraws every call.
const MEMO_CAPACITY: usize = 1 << 20;

/// The most columns the memo keeps, whatever their length, so that a run
/// of tiny propagations cannot make its lookups long.
const MEMO_COLUMNS: usize = 256;

/// Everything one column of draws depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColumnKey {
    seed: u64,
    trials: u32,
    /// Inputs that draw, i.e. draws per trial.
    stride: usize,
    /// This input's position among them.
    position: usize,
    /// The bits of `(low, mode, high)`.
    dist: [u64; 3],
}

/// One input's draws, trial by trial. A `Vec` behind the `Arc`: the draw
/// loop collects into a `Vec` faster than straight into an `Arc<[f64]>`.
type Column = Arc<Vec<f64>>;

/// Columns in least-recently-used-first order: at most `max_columns` of
/// them, holding `retained` values in total, never more than `capacity`.
#[derive(Debug)]
struct ColumnMemo {
    capacity: usize,
    max_columns: usize,
    columns: Vec<(ColumnKey, Column)>,
    retained: usize,
}

impl ColumnMemo {
    const fn new(capacity: usize, max_columns: usize) -> Self {
        Self {
            capacity,
            max_columns,
            columns: Vec::new(),
            retained: 0,
        }
    }

    /// The column under `key`, which becomes the most recently used.
    fn get(&mut self, key: &ColumnKey) -> Option<Column> {
        let at = self.columns.iter().position(|(k, _)| k == key)?;
        let entry = self.columns.remove(at);
        let column = Arc::clone(&entry.1);
        self.columns.push(entry);
        Some(column)
    }

    /// Keeps `column` under `key` as the most recently used column and
    /// evicts the least recently used ones beyond either bound. A column
    /// larger than the whole capacity is not kept, and a key another thread
    /// stored first keeps its (identical) column.
    fn insert(&mut self, key: ColumnKey, column: &Column) {
        if column.len() > self.capacity || self.get(&key).is_some() {
            return;
        }
        self.retained += column.len();
        self.columns.push((key, Arc::clone(column)));
        while self.retained > self.capacity || self.columns.len() > self.max_columns {
            let (_, evicted) = self.columns.remove(0);
            self.retained -= evicted.len();
        }
    }
}

/// The process-wide column memo.
static MEMO: Mutex<ColumnMemo> = Mutex::new(ColumnMemo::new(MEMO_CAPACITY, MEMO_COLUMNS));

/// Locks the memo. No memo update can panic partway through, so a lock
/// poisoned by a panic elsewhere (say, a failed test assertion while the
/// guard was held) still guards a valid memo.
fn memo() -> MutexGuard<'static, ColumnMemo> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The column `key` names, from the memo or drawn (outside the lock) and
/// stored there.
fn column(dist: &Triangular, key: ColumnKey) -> Column {
    if let Some(column) = memo().get(&key) {
        return column;
    }
    let column = draw_column(dist, &key);
    memo().insert(key, &column);
    column
}

/// Draws `dist`'s column by jumping over the other inputs' draws. Each
/// value is bit for bit what [`Triangular::sample`] returns at that point
/// of the walked stream: the same operations in the same order, with the
/// constants hoisted and the branch taken by bit masks, since the side of
/// the mode a draw falls on is a coin flip no predictor learns (`a - s` is
/// exactly `a + -s`). `sample` keeps its own plain form as the reference
/// the property tests hold this one to.
fn draw_column(dist: &Triangular, key: &ColumnKey) -> Column {
    let Triangular { low, mode, high } = *dist;
    let (width, rise, fall) = (high - low, mode - low, high - mode);
    let fc = rise / width;
    let gap = key.stride as u64 - 1;
    let mut rng = SplitMix64::seed_from_u64(key.seed);
    rng.jump(key.position as u64);
    // `a` where `mask` is all ones, `b` where it is zero.
    let pick = |mask: u64, a: f64, b: f64| f64::from_bits(a.to_bits() & mask | b.to_bits() & !mask);
    (0..key.trials)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            rng.jump(gap);
            let below_mode = 0u64.wrapping_sub(u64::from(u < fc));
            let root = (pick(below_mode, u, 1.0 - u) * width * pick(below_mode, rise, fall)).sqrt();
            let sign = !below_mode & (1 << 63);
            pick(below_mode, low, high) + f64::from_bits(root.to_bits() ^ sign)
        })
        .collect::<Vec<f64>>()
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_sampling_matches_analytical_mean() {
        let dist = Triangular::new(10.0, 20.0, 40.0);
        let summary = propagate(&[dist], 20_000, 7, |x| x[0]);
        assert!(
            (summary.mean - (10.0 + 20.0 + 40.0) / 3.0).abs() < 0.2,
            "{}",
            summary.mean
        );
        assert!(summary.p05 >= 10.0 && summary.p95 <= 40.0);
        assert!(summary.p05 < summary.p50 && summary.p50 < summary.p95);
    }

    #[test]
    fn degenerate_distribution_is_exact() {
        let dist = Triangular::new(5.0, 5.0, 5.0);
        let summary = propagate(&[dist], 100, 1, |x| x[0]);
        assert_eq!(summary.mean, 5.0);
        assert_eq!(summary.std, 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let dist = Triangular::around(100.0, 0.2);
        let a = propagate(&[dist], 1_000, 42, |x| x[0]);
        let b = propagate(&[dist], 1_000, 42, |x| x[0]);
        assert_eq!(a, b);
        let c = propagate(&[dist], 1_000, 43, |x| x[0]);
        assert_ne!(a, c);
    }

    #[test]
    fn breakeven_uncertainty_band() {
        // Fig 10 with uncertain inputs: SoC budget +/-20%, grid +/-15%,
        // energy per image +/-25%. Breakeven = budget / (energy * grid).
        let inputs = [
            Triangular::around(24_850.0, 0.20), // g CO2e
            Triangular::around(380.0, 0.15),    // g/kWh
            Triangular::around(0.0447, 0.25),   // J/image
        ];
        let summary = propagate(&inputs, 10_000, 99, |x| {
            let budget_g = x[0];
            let grid = x[1];
            let e_kwh = x[2] / 3.6e6;
            budget_g / (e_kwh * grid)
        });
        // The central estimate stays at ~5e9 images and the 90% band stays
        // within the same order of magnitude: the paper's conclusion is
        // robust to disclosure-level uncertainty.
        assert!(summary.p50 > 3e9 && summary.p50 < 8e9, "{}", summary.p50);
        assert!(summary.p95 / summary.p05 < 4.0);
    }

    /// A memo key told apart by `seed` alone.
    fn key(seed: u64) -> ColumnKey {
        ColumnKey {
            seed,
            trials: 4,
            stride: 1,
            position: 0,
            dist: [0; 3],
        }
    }

    fn seeds(memo: &ColumnMemo) -> Vec<u64> {
        memo.columns.iter().map(|(k, _)| k.seed).collect()
    }

    #[test]
    fn memo_evicts_the_least_recently_used_within_both_bounds() {
        let mut memo = ColumnMemo::new(10, 3);
        let column = |len: usize| Arc::new(vec![0.0; len]);
        memo.insert(key(1), &column(4));
        memo.insert(key(2), &column(4));
        assert!(memo.get(&key(1)).is_some());
        // 12 values exceed 10: the least recently used (2) goes.
        memo.insert(key(3), &column(4));
        assert_eq!(seeds(&memo), [1, 3]);
        assert_eq!(memo.retained, 8);
        // Re-inserting a held key only touches it.
        memo.insert(key(1), &column(4));
        assert_eq!(seeds(&memo), [3, 1]);
        // A fourth column exceeds three columns, however short.
        memo.insert(key(4), &column(1));
        memo.insert(key(5), &column(1));
        assert_eq!(seeds(&memo), [1, 4, 5]);
        assert_eq!(memo.retained, 6);
        // A column longer than the whole capacity is never kept.
        memo.insert(key(6), &column(11));
        assert!(memo.get(&key(6)).is_none());
        assert_eq!(memo.retained, 6);
    }

    #[test]
    fn memo_never_exceeds_its_constant_bound() {
        let dist = Triangular::around(100.0, 0.2);
        // Enough distinct columns to overflow the column bound.
        for seed in 0..MEMO_COLUMNS as u64 + 8 {
            let _ = propagate(&[dist], 3, seed, |x| x[0]);
            let memo = memo();
            let held: usize = memo.columns.iter().map(|(_, c)| c.len()).sum();
            assert_eq!(memo.retained, held);
            assert!(memo.retained <= MEMO_CAPACITY, "{}", memo.retained);
            assert!(memo.columns.len() <= MEMO_COLUMNS);
        }
    }

    #[test]
    #[should_panic(expected = "low <= mode")]
    fn rejects_disordered_bounds() {
        let _ = Triangular::new(2.0, 1.0, 3.0);
    }
}
