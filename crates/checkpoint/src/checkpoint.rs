//! The v1 single-file checkpoint (read only, migrated on resume by
//! [`ShardedCheckpointer`](crate::ShardedCheckpointer)), the in-flight run
//! record shared with the sharded format, and the checkpoint error type.

use crate::failpoint::InjectedFailure;
use hayat::{EngineSnapshot, PolicyKind, RestoreError, RunMetrics, SimulationConfig};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// The v1 single-file format version this build reads. Loading rejects
/// any other version — in particular files whose fields this build would
/// silently drop.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// A v1 single-file checkpoint: the whole campaign's progress in one JSON
/// file. Earlier builds wrote it; this build only reads it, and
/// [`ShardedCheckpointer`](crate::ShardedCheckpointer) maps it onto a
/// manifest plus tail when it resumes one.
///
/// The immutable campaign inputs (chip population, thermal predictor,
/// aging table) are *not* stored: they are deterministically rebuilt from
/// the [`SimulationConfig`], and `config_hash` guards against resuming
/// under a different one. What is stored is exactly the irreplaceable
/// progress: every completed run's [`RunMetrics`], and — when a run was
/// interrupted mid-chip — the partially-aged engine state to re-enter it.
#[derive(Debug, PartialEq, Deserialize)]
pub(crate) struct CampaignCheckpoint {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// FNV-1a hash of the canonical JSON of the campaign's
    /// [`SimulationConfig`]; resume refuses a mismatch.
    pub config_hash: u64,
    /// Checkpoint cadence the interrupted run used, in epochs; resume
    /// keeps the same cadence.
    pub every_epochs: usize,
    /// The requested policy list, in order (jobs run policy-major).
    pub policies: Vec<PolicyKind>,
    /// Completed runs, in job order: `policies[0]` chips `0..n`, then
    /// `policies[1]`, …
    pub completed: Vec<RunMetrics>,
    /// The interrupted mid-chip run, if the crash happened inside one.
    pub in_flight: Option<InFlightRun>,
}

/// A run interrupted between aging epochs: the metrics accumulated so far
/// plus the engine state needed to run the remaining epochs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InFlightRun {
    /// The policy of the interrupted run.
    pub policy: PolicyKind,
    /// The chip index of the interrupted run.
    pub chip: usize,
    /// Run header plus the epochs completed before the snapshot.
    pub partial: RunMetrics,
    /// Mutable engine state at the snapshot's epoch boundary.
    pub engine: EngineSnapshot,
}

/// Everything that can go wrong saving, loading, or resuming a checkpoint.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The checkpoint file is not valid checkpoint JSON.
    Corrupt(String),
    /// The file's format version differs from the one this build reads —
    /// e.g. it was written by a newer build of this crate.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The checkpoint was written under a different [`SimulationConfig`].
    ConfigMismatch {
        /// Hash of the config the campaign was built with.
        expected: u64,
        /// Hash stored in the checkpoint.
        found: u64,
    },
    /// The checkpoint records more progress than the campaign has jobs —
    /// it belongs to a different policy list or chip count.
    ProgressOutOfRange {
        /// Jobs the campaign defines.
        jobs: usize,
        /// Completed runs recorded in the checkpoint.
        completed: usize,
    },
    /// The in-flight engine state does not fit the campaign's engines.
    Restore(RestoreError),
    /// A [`crate::FailPoint`] fired in error mode — the injected fault the
    /// crash-recovery tests drive.
    Injected(InjectedFailure),
    /// A worker thread panicked mid-campaign. The pool shut down cleanly
    /// and the checkpoint directory still holds the last durable state, so
    /// the campaign is resumable.
    WorkerPanic {
        /// Policy of the panicking run.
        policy: PolicyKind,
        /// Chip index of the panicking run.
        chip: usize,
        /// The panic payload, rendered to a string.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O failed at {}: {source}", path.display())
            }
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format v{found} is not supported (this build \
                 reads v{supported}); it was probably written by a newer build"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was written under a different simulation config \
                 (hash {found:#018x}, campaign has {expected:#018x})"
            ),
            CheckpointError::ProgressOutOfRange { jobs, completed } => write!(
                f,
                "checkpoint records {completed} completed runs but the \
                 campaign only has {jobs} jobs — wrong policy list or chip count"
            ),
            CheckpointError::Restore(e) => write!(f, "in-flight state does not fit: {e}"),
            CheckpointError::Injected(e) => write!(f, "{e}"),
            CheckpointError::WorkerPanic {
                policy,
                chip,
                message,
            } => write!(
                f,
                "worker panicked running {} on chip {chip} \
                 (checkpoint remains resumable): {message}",
                policy.name()
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Restore(e) => Some(e),
            CheckpointError::Injected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RestoreError> for CheckpointError {
    fn from(e: RestoreError) -> Self {
        CheckpointError::Restore(e)
    }
}

impl From<InjectedFailure> for CheckpointError {
    fn from(e: InjectedFailure) -> Self {
        CheckpointError::Injected(e)
    }
}

/// A stable fingerprint of a [`SimulationConfig`]: FNV-1a over its
/// canonical JSON. Two configs hash equal iff they serialize identically,
/// which is exactly the precondition for a checkpoint to be resumable
/// (every derived artifact — population, predictor, aging table, workload
/// mixes — is a pure function of the config).
#[must_use]
pub fn config_hash(config: &SimulationConfig) -> u64 {
    let json = serde_json::to_string(config).expect("SimulationConfig always serializes");
    fnv1a(json.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl CampaignCheckpoint {
    /// Loads and structurally validates a v1 checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read,
    /// [`CheckpointError::Corrupt`] when it is not checkpoint JSON, and
    /// [`CheckpointError::VersionMismatch`] when it was written in a
    /// different format version (forward versions are rejected, not
    /// best-effort parsed).
    pub(crate) fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        // Check the version before full deserialization so a future
        // format with renamed fields still reports the right error.
        let probe: VersionProbe =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        if probe.version != FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: probe.version,
                supported: FORMAT_VERSION,
            });
        }
        serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt(e.to_string()))
    }
}

/// Checks a checkpoint's stored config hash `found` against the config of
/// the campaign about to resume it.
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`] when the campaign was built from a
/// different configuration.
pub(crate) fn validate_config(
    found: u64,
    config: &SimulationConfig,
) -> Result<(), CheckpointError> {
    let expected = config_hash(config);
    if found != expected {
        return Err(CheckpointError::ConfigMismatch { expected, found });
    }
    Ok(())
}

#[derive(Deserialize)]
struct VersionProbe {
    version: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> RunMetrics {
        RunMetrics {
            policy: "VAA".into(),
            chip_id: 0,
            dark_fraction: 0.5,
            ambient_kelvin: 318.15,
            initial_avg_fmax_ghz: 3.4,
            initial_chip_fmax_ghz: 3.9,
            final_health_std: 0.01,
            epochs: Vec::new(),
        }
    }

    /// The text of a v1 checkpoint for `config` as earlier builds wrote it:
    /// one completed run (realistic without a full sim), nothing in flight.
    fn v1_json(version: u32, config: &SimulationConfig) -> String {
        let run = serde_json::to_string(&sample_run()).unwrap();
        format!(
            r#"{{"version":{version},"config_hash":{},"every_epochs":4,"policies":["Vaa","Hayat"],"completed":[{run}],"in_flight":null}}"#,
            config_hash(config)
        )
    }

    #[test]
    fn round_trips_through_json() {
        let config = SimulationConfig::quick_demo();
        let ckpt: CampaignCheckpoint =
            serde_json::from_str(&v1_json(FORMAT_VERSION, &config)).unwrap();
        assert_eq!(
            ckpt,
            CampaignCheckpoint {
                version: FORMAT_VERSION,
                config_hash: config_hash(&config),
                every_epochs: 4,
                policies: vec![PolicyKind::Vaa, PolicyKind::Hayat],
                completed: vec![sample_run()],
                in_flight: None,
            }
        );
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("hayat_ckpt_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let json = v1_json(FORMAT_VERSION, &SimulationConfig::quick_demo());
        std::fs::write(&path, &json).unwrap();
        let loaded = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, serde_json::from_str(&json).unwrap());
        assert_eq!(loaded.completed, [sample_run()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forward_versions_are_rejected() {
        let dir = std::env::temp_dir().join("hayat_ckpt_version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.ckpt");
        let json = v1_json(FORMAT_VERSION + 1, &SimulationConfig::quick_demo());
        std::fs::write(&path, json).unwrap();
        match CampaignCheckpoint::load(&path) {
            Err(CheckpointError::VersionMismatch { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_are_reported_not_panicked() {
        let dir = std::env::temp_dir().join("hayat_ckpt_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.ckpt");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(
            CampaignCheckpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            CampaignCheckpoint::load(&dir.join("missing.ckpt")),
            Err(CheckpointError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_hash_tracks_config_changes() {
        let a = SimulationConfig::quick_demo();
        let mut b = SimulationConfig::quick_demo();
        assert_eq!(config_hash(&a), config_hash(&b));
        b.workload_seed ^= 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        let ckpt: CampaignCheckpoint = serde_json::from_str(&v1_json(FORMAT_VERSION, &a)).unwrap();
        assert!(validate_config(ckpt.config_hash, &a).is_ok());
        assert!(matches!(
            validate_config(ckpt.config_hash, &b),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::VersionMismatch {
            found: 9,
            supported: FORMAT_VERSION,
        };
        assert!(e.to_string().contains("newer build"));
        let e = CheckpointError::ProgressOutOfRange {
            jobs: 4,
            completed: 9,
        };
        assert!(e.to_string().contains("9 completed"));
    }
}
