//! # cc-analysis
//!
//! Generic analysis machinery for carbon-footprint studies — the layer the
//! domain models and the sweep engine share, with no domain knowledge of
//! its own:
//!
//! * [`stats`] — summary statistics behind every sweep comparison's digest:
//!   buffered (n/mean/stddev/min/max, spread ratio) and streaming (Welford
//!   mean/variance, P² quantiles) for Monte-Carlo scale;
//! * [`dist`] — parsed `triangular`/`uniform`/`normal` distribution specs
//!   (`fab.node_nm ~ triangular(5,7,10)`) with single-draw inverse-CDF
//!   sampling;
//! * [`crossover`] — piecewise-linear break-even search, the engine behind
//!   "crosses 2017 at fleet.growth ≈ 1.47" lines;
//! * [`pareto`] — Pareto-frontier extraction for the Fig 8 efficiency
//!   analyses;
//! * [`series`] — the year-indexed series behind the Fig 11 generational
//!   trend;
//! * [`uncertainty`] / [`rng`] — triangular-distribution Monte-Carlo
//!   propagation on a deterministic splitmix64 generator (seeded from the
//!   scenario, so `ext-mc` is reproducible).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossover;
pub mod dist;
pub mod pareto;
pub mod rng;
pub mod series;
pub mod stats;
pub mod uncertainty;
