//! # cc-ghg
//!
//! GHG Protocol corporate carbon accounting, as the paper describes it in
//! §II-A: Scope 1 (direct), Scope 2 (purchased energy, with location- and
//! market-based variants) and Scope 3 (upstream/downstream supply chain),
//! plus renewable-procurement (PPA) portfolios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod categories;
pub mod inventory;
pub mod renewables;
pub mod scope;

pub use inventory::{CorporateInventory, CorporateInventoryBuilder, Scope2Method};
pub use renewables::PpaPortfolio;
