//! # cc-core
//!
//! The paper's contribution as a library: the opex/capex carbon-footprint
//! decomposition API ([`decomposition`]) and the full set of experiments
//! regenerating every figure and table of the paper ([`experiments`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomposition;
pub mod experiments;
