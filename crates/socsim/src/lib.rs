//! # cc-socsim
//!
//! An analytical mobile-SoC inference simulator standing in for the paper's
//! physical testbed (a Google Pixel 3 with a Qualcomm Snapdragon 845,
//! measured by a Monsoon high-voltage power monitor).
//!
//! The simulator has three layers:
//!
//! 1. [`soc`] — a hardware description: compute units (CPU cluster, GPU,
//!    DSP) with peak throughput, memory bandwidth, dynamic energy per
//!    operation/byte and static power.
//! 2. [`network`] — CNN workloads as layer graphs (ResNet-50, Inception v3,
//!    MobileNet v1/v2/v3) with per-layer MACs, weight and activation traffic.
//! 3. [`exec`] — a roofline execution model producing per-layer and
//!    end-to-end latency and energy.
//!
//! Calibration (unit utilizations and power levels) is chosen so the headline
//! ratios of Figs 9 and 10 hold; `EXPERIMENTS.md` records paper-vs-measured
//! for each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dvfs;
pub mod exec;
pub mod network;
pub mod soc;

pub use exec::{ExecutionModel, InferenceReport, LayerReport};
pub use network::{Layer, LayerKind, Network};
pub use soc::{ComputeUnit, Soc, UnitKind};
