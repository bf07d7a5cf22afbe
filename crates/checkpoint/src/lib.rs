//! Crash-safe checkpoint/resume for Hayat aging campaigns.
//!
//! A decade-scale campaign (Figs. 7–11 of the paper) multiplies chips ×
//! policies × 40 epochs of RC-thermal transients; on a shared machine
//! that is hours of work an OOM kill can erase. This crate makes the
//! campaign durable without touching the simulation math:
//!
//! * [`ShardedCheckpointer`] — drives a [`hayat::Campaign`] with durable
//!   progress in a checkpoint directory: sealed fixed-size shards of
//!   completed runs, a small tail rewritten every N epochs and at every
//!   chip-run boundary, and a manifest that commits them. The tail holds
//!   (mid-chip) the engine's full mutable state — core healths and ages,
//!   thermal node temperatures, duty-cycle accumulators, DTM throttle
//!   state, and the exact RNG streams. Every file is written atomically
//!   (tmp file + fsync + rename) so a crash never leaves a torn file.
//!   Resume skips completed runs and re-enters a partially aged chip
//!   mid-decade. A v1 single-file checkpoint from an earlier build is
//!   resumed read-only: its progress continues in a sibling
//!   `<file>.shards/` directory.
//! * [`FailPoint`] — a fault-injection hook (armed in code or via the
//!   `HAYAT_FAILPOINT` env var) that errors, panics, or hard-kills the
//!   process at a chosen epoch or chip boundary; the integration tests
//!   use it to prove a killed-and-resumed campaign is bit-identical to
//!   an uninterrupted one under every policy.
//!
//! The vendored `serde_json` prints floats with shortest-round-trip
//! digits and parses them correctly rounded, so a JSON checkpoint loses
//! no bits — which is what makes the bit-identical resume guarantee
//! testable rather than approximate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod failpoint;
mod runner;
mod shard;

pub use crate::checkpoint::{config_hash, CheckpointError, InFlightRun};
pub use crate::failpoint::{FailMode, FailPoint, InjectedFailure};
pub use crate::runner::{DEFAULT_EVERY_EPOCHS, FAILPOINT_CHIP, FAILPOINT_EPOCH};
pub use crate::shard::{
    ShardManifest, ShardTail, ShardedCheckpointer, DEFAULT_SHARD_RUNS, SHARD_FORMAT_VERSION,
};
