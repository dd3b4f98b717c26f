//! Deterministic random numbers for Monte-Carlo models.
//!
//! The workspace builds in offline environments, so instead of the `rand`
//! crate this module provides a splitmix64 generator behind a minimal [`Rng`]
//! trait. Sequences are fully determined by the seed, which is what the
//! experiment layer requires for reproducible `ext-mc` runs.

use std::ops::Range;

/// Minimal uniform-random source used by the uncertainty machinery.
pub trait Rng {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[range.start, range.end)`.
    fn gen_range(&mut self, range: Range<f64>) -> f64 {
        range.start + self.next_f64() * (range.end - range.start)
    }
}

/// Sebastiano Vigna's splitmix64: tiny state, passes BigCrush, and — unlike
/// `StdRng` — stable across toolchain upgrades, so seeded experiment output
/// never shifts under a compiler bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// splitmix64's state increment (the golden-ratio constant γ).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl SplitMix64 {
    /// Creates a generator from a seed (API-compatible with
    /// `rand::SeedableRng::seed_from_u64`).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Skips the next `draws` outputs in O(1). The state only ever moves by
    /// γ per output, so output `p` of a generator seeded with `s` is the
    /// mix of `s + (p + 1)·γ`: jumping there and calling
    /// [`Rng::next_u64`] returns bit for bit what walking would.
    pub fn jump(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(GAMMA.wrapping_mul(draws));
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        let mut c = SplitMix64::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn jump_matches_walking() {
        for seed in [0, 7, u64::MAX] {
            let mut walked = SplitMix64::seed_from_u64(seed);
            let outputs: Vec<u64> = (0..40).map(|_| walked.next_u64()).collect();
            for (p, &expected) in outputs.iter().enumerate() {
                let mut jumped = SplitMix64::seed_from_u64(seed);
                jumped.jump(p as u64);
                assert_eq!(jumped.next_u64(), expected, "seed {seed}, output {p}");
            }
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.gen_range(2.0..5.0);
            assert!((2.0..5.0).contains(&v));
            sum += v;
        }
        // Mean of U(2, 5) is 3.5; 10k samples land well within ±0.1.
        assert!((sum / 10_000.0 - 3.5).abs() < 0.1);
    }
}
