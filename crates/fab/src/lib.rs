//! # cc-fab
//!
//! Semiconductor-fab carbon modeling: the per-wafer footprint composition the
//! paper analyzes for TSMC (Fig 14), renewable-electricity scaling, a
//! process-node energy ladder, and a die-level embodied-carbon model
//! (area/yield) — the forward extension that became the ACT line of
//! work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod die;
pub mod fabsim;
pub mod node;
pub mod wafer;

pub use die::DieModel;
pub use fabsim::FabModel;
pub use node::ProcessNode;
