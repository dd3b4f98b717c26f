//! # cc-report
//!
//! Presentation layer for the reproduction: ASCII tables, CSV/JSON emission,
//! typed series artifacts, scenario parameters and the
//! [`Experiment`] abstraction keyed by the paper's figure/table ids.
//!
//! The scenario API is what turns the workspace from a fixed paper replay
//! into a modeling tool: a [`Scenario`] makes every assumption the paper
//! baked in (grid intensity, device lifetime, fab powering, fleet scale)
//! explicit and overridable, and a [`RunContext`] carries one scenario into
//! every experiment run. The [`scenario::deps`] module makes the *reverse*
//! mapping first-class: every settable dotted path is described by canonical
//! field metadata, experiments declare which fields they read
//! ([`ScenarioPath`]), tracking contexts verify those declarations against
//! actual reads, and [`dependency_fingerprint`] keys the sweep runner's
//! per-point result cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod json;
pub mod scenario;
pub mod series;
pub mod table;

pub use experiment::{Experiment, ExperimentId, ExperimentOutput, Scalar, ScalarThreshold};
pub use json::{JsonParseError, JsonValue};
pub use scenario::deps::{
    dedup_groups, dependency_fingerprint, FieldSource, ReadTracker, ScenarioPath,
};
pub use scenario::mc::{DistBinding, McComparison, MonteCarloMatrix};
pub use scenario::sweep::{
    Comparison, ComparisonRow, Crossing, ScenarioMatrix, ScenarioPoint, SweepError, SweepSpec,
};
pub use scenario::trace::{builtin_region_trace, BUILTIN_REGIONS};
pub use scenario::{
    FleetParams, RegionParams, RunContext, Scenario, ScenarioError, ScenarioOverlay, SiteParams,
};
pub use series::{Series, SeriesPoint};
pub use table::Table;
