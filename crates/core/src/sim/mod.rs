//! The accelerated-aging simulation machinery (Fig. 4).

pub mod campaign;
pub mod config;
pub mod engine;
pub mod executor;
pub mod fleet;
pub mod snapshot;
mod window;
