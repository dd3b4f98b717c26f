//! # cc-dcsim
//!
//! A warehouse-scale data-center simulator: server fleets with PUE overhead,
//! year-by-year energy demand, renewable (PPA) procurement, construction and
//! hardware embodied carbon, and a carbon-aware batch scheduler implementing
//! the Section VI research direction. The paper-default fleet is the
//! Prineville-like facility behind Fig 2 (left).
//!
//! * [`facility`] — the scenario-driven facility model: simulate any fleet
//!   description over a planning horizon ([`Facility`] / [`FacilityYear`],
//!   with a per-SKU breakdown per year); `ext-facility`, `fig02` and
//!   `fig11` all route through it.
//! * [`fleet`] — mixed-SKU fleet composition ([`FleetMix`]): weighted
//!   server SKUs deployed in proportion, sharing the heterogeneity slice
//!   math.
//! * [`server`] — per-SKU power/embodied-carbon descriptions and the SKU
//!   catalog.
//! * [`scheduler`] — carbon-aware placement of deferrable load across hours
//!   and sites against per-region intensity traces (`ext-scheduler`).
//! * [`heterogeneity`] — general-purpose vs accelerator provisioning
//!   (`ext-hetero`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod facility;
pub mod fleet;
pub mod heterogeneity;
pub mod scheduler;
pub mod server;

pub use facility::{Facility, FacilityYear, SkuYear};
pub use fleet::FleetMix;
pub use scheduler::{FleetSchedule, MultiSiteScheduler, SitePlan};
pub use server::ServerConfig;
