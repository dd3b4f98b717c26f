//! # cc-lca
//!
//! Life-cycle assessment (LCA) for computer systems with the paper's
//! opex/capex decomposition: production, transport, use and end-of-life
//! phases (Fig 4), manufacturing amortization (Fig 10) and generational
//! trend analysis (Fig 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amortization;
pub mod footprint;
pub mod generational;
pub mod inventory;
pub mod phase;

pub use amortization::{AmortizationAnalysis, Breakeven};
pub use footprint::Footprint;
pub use phase::{ExpenditureClass, LifecyclePhase};
