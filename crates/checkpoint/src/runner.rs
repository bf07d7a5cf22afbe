//! Shared constants of the checkpointed campaign driver and the mapping of
//! executor failures back to checkpoint errors.

use crate::checkpoint::CheckpointError;
use crate::failpoint::InjectedFailure;
use hayat::{ExecutorError, RestoreError};

/// Default checkpoint cadence: one durable write per this many epochs
/// (2 simulated years at the paper's 3-month epochs), in addition to the
/// unconditional write at every chip-run boundary.
pub const DEFAULT_EVERY_EPOCHS: usize = 8;

/// Fail-point site checked once per chip×policy job, before the run
/// starts (arm with `HAYAT_FAILPOINT=campaign.chip:<n>:<mode>`).
pub const FAILPOINT_CHIP: &str = "campaign.chip";

/// Fail-point site checked once per aging epoch across the whole
/// campaign, before the epoch runs (arm with
/// `HAYAT_FAILPOINT=campaign.epoch:<n>:<mode>`).
pub const FAILPOINT_EPOCH: &str = "campaign.epoch";

/// Translates executor failures back into checkpoint errors: worker panics
/// map to [`CheckpointError::WorkerPanic`], and boxed gate/sink errors are
/// downcast back to the concrete types this crate fed in (checkpoint-write,
/// injected-fault, and in-flight-restore errors).
pub(crate) fn checkpoint_error(error: ExecutorError) -> CheckpointError {
    match error {
        ExecutorError::WorkerPanic {
            kind,
            chip,
            message,
        } => CheckpointError::WorkerPanic {
            policy: kind,
            chip,
            message,
        },
        ExecutorError::RunAborted { source, .. } | ExecutorError::SinkAborted { source } => {
            let source = match source.downcast::<CheckpointError>() {
                Ok(concrete) => return *concrete,
                Err(source) => source,
            };
            let source = match source.downcast::<InjectedFailure>() {
                Ok(concrete) => return CheckpointError::Injected(*concrete),
                Err(source) => source,
            };
            match source.downcast::<RestoreError>() {
                Ok(concrete) => CheckpointError::Restore(*concrete),
                Err(source) => CheckpointError::Corrupt(format!("campaign aborted: {source}")),
            }
        }
    }
}
