//! Compact thermal-simulation substrate for the Hayat reproduction
//! (HotSpot-equivalent).
//!
//! The paper couples its Gem5/McPAT traces to HotSpot \[20\] "as a library"
//! for closed-loop transient thermal simulation. This crate implements the
//! same modeling formalism from scratch: an equivalent RC network with
//!
//! * one **silicon node per core** (heat injected here),
//! * one **spreader node per core** (lateral heat spreading layer),
//! * a single lumped **sink node** coupled to ambient.
//!
//! Adjacent silicon nodes and adjacent spreader nodes are connected by
//! lateral conductances; each silicon node connects vertically to its
//! spreader node, every spreader node to the sink, and the sink to the
//! ambient. Darkened (power-gated) cores inject only their residual gated
//! leakage, which is how dark silicon buys thermal headroom.
//!
//! Three services are exposed:
//!
//! * [`steady_state`] — the equilibrium temperature map for a constant power
//!   vector (Fig. 2 d/g/k/n of the paper),
//! * [`TransientSimulator`] — time integration for the closed-loop
//!   fine-grained simulation inside an aging epoch (Fig. 4), with a
//!   selectable [`Integrator`]: unconditionally stable backward Euler
//!   (one banded Cholesky solve per control period) or the explicit
//!   forward-Euler oracle. Its network and factors live in a
//!   [`ThermalModel`] that every chip of a campaign shares,
//! * [`ThermalPredictor`] — the paper's lightweight online predictor (\[27\]):
//!   offline-learned per-thread spatial thermal footprints, superposed at
//!   run time with a temperature-dependent-leakage correction.
//!
//! # Example
//!
//! ```
//! use hayat_floorplan::Floorplan;
//! use hayat_thermal::{steady_state, ThermalConfig};
//! use hayat_units::Watts;
//!
//! let fp = Floorplan::paper_8x8();
//! let cfg = ThermalConfig::paper();
//! // One hot core, everything else idle.
//! let mut power = vec![Watts::new(0.019); fp.core_count()];
//! power[27] = Watts::new(8.0);
//! let temps = steady_state(&fp, &cfg, &power);
//! assert!(temps.max() > cfg.ambient);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batched;
mod config;
mod integrator;
mod model;
mod predictor;
mod profile;
mod rc_model;
mod steady;
mod transient;

pub use crate::batched::{BatchLane, BatchedTransient};
pub use crate::config::ThermalConfig;
pub use crate::integrator::Integrator;
pub use crate::model::ThermalModel;
pub use crate::predictor::{PredictorModel, ThermalPredictor, ThreadFootprint};
pub use crate::profile::TemperatureMap;
pub use crate::rc_model::RcNetwork;
pub use crate::steady::{steady_state, steady_state_on};
pub use crate::transient::{TransientSimulator, TransientSnapshot};
