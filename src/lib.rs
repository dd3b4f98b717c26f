//! # chasing-carbon
//!
//! A reproduction of *Chasing Carbon: The Elusive Environmental Footprint of
//! Computing* (Gupta et al., HPCA 2021) as a production-quality Rust
//! workspace: a carbon-footprint modeling and accounting framework for
//! computer systems, plus simulators for every substrate the paper measured.
//!
//! This facade crate re-exports the workspace crates under stable names:
//!
//! * [`units`] — typed physical quantities (energy, power, carbon, intensity)
//! * [`data`] — curated industry datasets digitized from the paper
//! * [`analysis`] — Pareto frontiers, crossover analysis, streaming statistics
//! * [`lca`] — life-cycle assessment with opex/capex decomposition
//! * [`ghg`] — GHG Protocol Scope 1/2/3 corporate accounting
//! * [`fab`] — wafer manufacturing and die-level embodied carbon
//! * [`socsim`] — mobile SoC inference performance/energy simulator
//! * [`dcsim`] — warehouse-scale data-center simulator
//! * [`report`] — tables, series, scenarios and the experiment abstraction
//! * [`core`] — the opex/capex footprint API and all paper experiments
//! * [`engine`] — the resident execution engine: sharded artifact cache,
//!   grid runner and the `repro serve` protocol/daemon
//!
//! ## Quickstart
//!
//! ```
//! use chasing_carbon::prelude::*;
//!
//! // The footprint of an iPhone 11 over its lifetime, from the embedded LCA:
//! let phone = chasing_carbon::data::devices::find("iPhone 11").unwrap();
//! let footprint = chasing_carbon::lca::Footprint::from_product_lca(phone);
//! assert!(footprint.capex_share().as_percent() > 80.0);
//! ```
#![forbid(unsafe_code)]

pub use cc_analysis as analysis;
pub use cc_core as core;
pub use cc_data as data;
pub use cc_dcsim as dcsim;
pub use cc_engine as engine;
pub use cc_fab as fab;
pub use cc_ghg as ghg;
pub use cc_lca as lca;
pub use cc_report as report;
pub use cc_socsim as socsim;
pub use cc_units as units;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use cc_report::{
        Comparison, Experiment, RunContext, Scenario, ScenarioMatrix, Series, SweepSpec,
    };
    pub use cc_units::prelude::*;
}
