//! **Hayat** — harnessing dark silicon and variability for aging
//! deceleration and balancing (reproduction of Gnad et al., DAC 2015).
//!
//! Hayat is a run-time system for manycore chips under a dark-silicon
//! constraint: at any instant a fraction of the cores must stay power-gated
//! to respect thermal limits. Instead of treating those dark cores as a
//! loss, Hayat *chooses* which cores go dark (the **Dark Core Map**) and
//! which cores run which threads so that
//!
//! * the chip's peak temperature stays below `T_safe` (fewer DTM events),
//! * NBTI-induced aging is decelerated (cooler cores age slower), and
//! * aging is balanced across cores while high-frequency cores are
//!   preserved for when they are actually needed,
//!
//! all while meeting every thread's minimum-frequency (throughput)
//! requirement under core-to-core process variations.
//!
//! This crate combines the substrates (`hayat-variation`, `hayat-thermal`,
//! `hayat-aging`, `hayat-power`, `hayat-workload`) into:
//!
//! * [`DarkCoreMap`] — explicit dark-core patterns plus the
//!   variation-and-temperature-aware optimizer of Section II,
//! * [`ThreadMapping`] — the `m(i,j,k)` assignment with the paper's
//!   constraints (Eq. 4/5),
//! * [`HayatPolicy`] — Algorithm 1 with the Eq. 9 weighting function,
//! * [`VaaPolicy`] — the extended state-of-the-art baseline of Section VI,
//! * [`DtmController`] — thermal-emergency migration/throttling,
//! * [`SimulationEngine`] — the accelerated-aging loop of Fig. 4
//!   (fine-grained transient simulation upscaled to multi-month epochs),
//! * [`Campaign`] — the 25-chip evaluation harness behind Figs. 7–11.
//!
//! # Quickstart
//!
//! ```
//! use hayat::{ChipSystem, HayatPolicy, SimulationConfig, SimulationEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SimulationConfig::quick_demo();
//! let system = ChipSystem::paper_chip(0, &config)?;
//! let mut engine = SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config);
//! let metrics = engine.run();
//! assert!(metrics.final_health_mean() <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcm;
mod dtm;
mod mapping;
pub mod metrics;
mod policy;
pub mod sensors;
pub mod sim;
mod system;

pub use crate::dcm::DarkCoreMap;
pub use crate::dtm::{DtmController, DtmEvent, DtmOutcome};
pub use crate::mapping::ThreadMapping;
pub use crate::metrics::{EpochRecord, RunMetrics};
pub use crate::policy::exhaustive::{objective, ExhaustivePolicy};
pub use crate::policy::hayat::{HayatConfig, HayatPolicy};
#[doc(hidden)]
pub use crate::policy::hayat::{HayatReference, SearchPath};
pub use crate::policy::simple::{CoolestFirstPolicy, FixedDcmPolicy, RandomPolicy};
pub use crate::policy::vaa::VaaPolicy;
pub use crate::policy::{
    power_vector, predict_mapping_temperatures, Policy, PolicyContext, PolicyScratch,
};
pub use crate::sim::batch::ChipBatch;
pub use crate::sim::campaign::{Campaign, CampaignResult, CampaignSummary, PolicyKind};
pub use crate::sim::config::{Batch, Jobs, SimulationConfig};
pub use crate::sim::engine::SimulationEngine;
pub use crate::sim::executor::{
    DynError, ExecutorError, ExecutorOptions, GateSite, InFlightState, ProgressFrame,
    ProgressOptions, RunDescriptor, RunUpdate,
};
pub use crate::sim::fleet::{
    fleet_stats_from_runs, observe_run, run_observations, FleetAccumulator, FLEET_SERIES,
    LIFETIME_FMAX_FRACTION,
};
pub use crate::sim::snapshot::{EngineSnapshot, RestoreError};
pub use crate::system::{BuildSystemError, ChipSystem};
