//! Sharded checkpoints: durable campaign progress split across many small
//! files so write cost stays O(shard), not O(campaign).
//!
//! A single file holding the whole campaign would rewrite *every* completed
//! run on each save — O(completed runs) of JSON per checkpoint, which at
//! fleet scale (10⁵ runs) turns the durable write into the campaign
//! bottleneck long before the simulations do. A checkpoint is therefore a
//! directory:
//!
//! * **Sealed shards** (`shard-00000.json`, `shard-00001.json`, …) — fixed
//!   runs-per-shard segments of the canonical run order (policy-major, then
//!   chip index). Once written, never rewritten.
//! * **Tail** (`tail.json`) — the open segment: completed runs past the
//!   last sealed shard, plus the optional in-flight engine snapshot. This
//!   is the only file rewritten at checkpoint cadence, and it never holds
//!   more than one shard's worth of runs.
//! * **Manifest** (`manifest.json`) — the commit point: format version,
//!   config fingerprint, policy list, shard capacity, and the sealed-shard
//!   count. Tiny and rewritten only when a shard seals.
//!
//! **Ownership rule:** exactly one writer — the executor's owner thread.
//! Workers never touch the checkpoint directory; they publish completed
//! runs over the executor channel and the owner merges them into canonical
//! order (the same discipline `FleetAccumulator` uses) before anything is
//! persisted. Shards are therefore canonical-order *segments*, not
//! per-worker files: that is what keeps the on-disk state — like every
//! other campaign output — byte-identical for any `--jobs` value.
//!
//! Every file is written atomically (tmp + fsync + rename). A seal is the
//! sequence *shard file → cleared tail → manifest*. A crash before the tail
//! write leaves a harmless orphan shard (re-written identically after
//! resume). A crash after it leaves a tail that starts past the orphan
//! shard; loading counts the orphan as sealed. Every loaded run is checked
//! against its slot in the canonical order, so no interleaving can shift,
//! drop or double-count a run, and any other mismatch is reported as
//! corrupt.
//!
//! **v1 files.** Earlier builds wrote the whole campaign to one JSON file
//! (format v1). Resuming a path that is a regular file reads it as v1 and
//! never writes it: its runs and in-flight snapshot become the tail of a
//! fresh manifest in the sibling directory `<file>.shards/`, which holds
//! all further progress. Once that manifest exists, later resumes of the
//! same path continue from it.

use crate::checkpoint::{
    config_hash, validate_config, CampaignCheckpoint, CheckpointError, InFlightRun,
};
use crate::failpoint::FailPoint;
use crate::runner::{DEFAULT_EVERY_EPOCHS, FAILPOINT_CHIP, FAILPOINT_EPOCH};
use hayat::{
    Campaign, CampaignResult, DynError, ExecutorOptions, FleetAccumulator, GateSite, InFlightState,
    Jobs, PolicyKind, ProgressOptions, RunDescriptor, RunMetrics, RunUpdate,
};
use hayat_telemetry::{NullRecorder, Recorder, RecorderExt};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The sharded-checkpoint format version. Loading rejects every other
/// version — in particular manifests from newer builds.
pub const SHARD_FORMAT_VERSION: u32 = 1;

/// Default runs per sealed shard. Checkpoint write cost is O(this), so it
/// bounds both the tail rewrite and the worst-case work re-run after the
/// narrow seal-window crash.
pub const DEFAULT_SHARD_RUNS: usize = 256;

/// The commit point of a sharded checkpoint directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Format version ([`SHARD_FORMAT_VERSION`] when written by this build).
    pub version: u32,
    /// FNV-1a hash of the campaign's canonical config JSON.
    pub config_hash: u64,
    /// Checkpoint cadence in epochs.
    pub every_epochs: usize,
    /// The requested policy list, in canonical (policy-major) order.
    pub policies: Vec<PolicyKind>,
    /// Capacity of every sealed shard, in runs.
    pub shard_runs: usize,
    /// Number of sealed (immutable, full) shard files the manifest vouches
    /// for. Files beyond this count are uncommitted orphans.
    pub sealed: usize,
}

/// The mutable open segment of a sharded checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardTail {
    /// Completed runs past the last sealed shard (fewer than the shard
    /// capacity, except transiently inside a seal).
    pub completed: Vec<RunMetrics>,
    /// The interrupted mid-chip run, if any.
    pub in_flight: Option<InFlightRun>,
}

/// Path layout and atomic file I/O of one checkpoint directory.
#[derive(Clone)]
struct ShardStore {
    dir: PathBuf,
}

impl ShardStore {
    /// The directory that takes over from the v1 checkpoint file `file`:
    /// `<file>.shards`.
    fn v1_successor(file: &Path) -> Self {
        let mut dir = file.as_os_str().to_owned();
        dir.push(".shards");
        ShardStore {
            dir: PathBuf::from(dir),
        }
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn tail_path(&self) -> PathBuf {
        self.dir.join("tail.json")
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index:05}.json"))
    }

    /// Serializes `value` to `path` atomically (tmp + fsync + rename).
    fn save_json<T: Serialize>(&self, path: &Path, value: &T) -> Result<u64, CheckpointError> {
        let io_err = |source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        };
        let json = serde_json::to_string(value).expect("checkpoint structs always serialize");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
            file.write_all(json.as_bytes()).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        std::fs::rename(&tmp, path).map_err(io_err)?;
        Ok(json.len() as u64)
    }

    fn load_json<T: Deserialize>(&self, path: &Path) -> Result<T, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        serde_json::from_str(&text)
            .map_err(|e| CheckpointError::Corrupt(format!("{}: {e}", path.display())))
    }

    /// Loads the directory's durable state for `campaign`: the manifest,
    /// the runs of its sealed shards in canonical order, and the tail.
    ///
    /// Every run must sit in its canonical slot of the campaign's grid.
    /// The one tolerated mismatch is a seal interrupted after its tail
    /// write: the tail then starts past the manifest's count, and the
    /// uncounted shard files on disk up to it are counted as sealed (more
    /// than one when an earlier resume counted one and did not yet
    /// commit it).
    fn load(
        &self,
        campaign: &Campaign,
    ) -> Result<(ShardManifest, Vec<RunMetrics>, ShardTail), CheckpointError> {
        let mut manifest: ShardManifest = self.load_json(&self.manifest_path())?;
        if manifest.version != SHARD_FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: manifest.version,
                supported: SHARD_FORMAT_VERSION,
            });
        }
        validate_config(manifest.config_hash, campaign.config())?;
        if manifest.shard_runs == 0 {
            return Err(CheckpointError::Corrupt(
                "manifest declares zero-capacity shards".to_owned(),
            ));
        }
        let grid = campaign.grid(&manifest.policies);
        let mut sealed: Vec<RunMetrics> = Vec::new();
        for shard in 0..manifest.sealed {
            self.load_shard(shard, &manifest, &grid, &mut sealed)?;
        }
        let tail: ShardTail = self.load_json(&self.tail_path())?;
        while !starts_at(&tail, &grid, sealed.len()) && self.shard_path(manifest.sealed).is_file() {
            self.load_shard(manifest.sealed, &manifest, &grid, &mut sealed)?;
            manifest.sealed += 1;
        }
        in_canonical_slots("tail", &tail.completed, &grid, sealed.len())?;
        Ok((manifest, sealed, tail))
    }

    /// Appends sealed shard `shard` to `sealed` after checking that it is
    /// full and holds the next runs of `grid`.
    fn load_shard(
        &self,
        shard: usize,
        manifest: &ShardManifest,
        grid: &[RunDescriptor],
        sealed: &mut Vec<RunMetrics>,
    ) -> Result<(), CheckpointError> {
        let runs: Vec<RunMetrics> = self.load_json(&self.shard_path(shard))?;
        if runs.len() != manifest.shard_runs {
            return Err(CheckpointError::Corrupt(format!(
                "sealed shard {shard} holds {} runs, manifest promises {}",
                runs.len(),
                manifest.shard_runs
            )));
        }
        in_canonical_slots(&format!("shard {shard}"), &runs, grid, sealed.len())?;
        sealed.extend(runs);
        Ok(())
    }
}

/// Whether `tail` continues the grid at slot `base`: its first run, or with
/// no runs its in-flight snapshot, belongs there. An empty tail fits
/// anywhere.
fn starts_at(tail: &ShardTail, grid: &[RunDescriptor], base: usize) -> bool {
    let slot = grid.get(base).map(|d| (d.kind, d.chip));
    match (tail.completed.first(), &tail.in_flight) {
        (Some(run), _) => slot.is_some_and(|(kind, chip)| is_run_of(run, kind, chip)),
        (None, Some(state)) => slot == Some((state.policy, state.chip)),
        (None, None) => true,
    }
}

/// Checks that `runs` fill grid slots `base..` in order.
fn in_canonical_slots(
    what: &str,
    runs: &[RunMetrics],
    grid: &[RunDescriptor],
    base: usize,
) -> Result<(), CheckpointError> {
    for (offset, run) in runs.iter().enumerate() {
        let slot = base + offset;
        if !grid
            .get(slot)
            .is_some_and(|d| is_run_of(run, d.kind, d.chip))
        {
            return Err(CheckpointError::Corrupt(format!(
                "{what} holds run ({}, chip {}) where canonical slot {slot} belongs",
                run.policy, run.chip_id
            )));
        }
    }
    Ok(())
}

fn is_run_of(run: &RunMetrics, kind: PolicyKind, chip: usize) -> bool {
    run.policy == kind.name() && run.chip_id == chip
}

/// Reads the v1 checkpoint file at `path` for `campaign` as a manifest with
/// nothing sealed plus a tail holding all of its progress.
fn load_v1(
    path: &Path,
    campaign: &Campaign,
    shard_runs: usize,
) -> Result<(ShardManifest, ShardTail), CheckpointError> {
    let v1 = CampaignCheckpoint::load(path)?;
    validate_config(v1.config_hash, campaign.config())?;
    let manifest = ShardManifest {
        version: SHARD_FORMAT_VERSION,
        config_hash: v1.config_hash,
        every_epochs: v1.every_epochs,
        policies: v1.policies,
        shard_runs,
        sealed: 0,
    };
    let tail = ShardTail {
        completed: v1.completed,
        in_flight: v1.in_flight,
    };
    Ok((manifest, tail))
}

/// Drives a [`Campaign`] with durable progress: the tail is written
/// atomically every N epochs and at every chip-run boundary, so a crash
/// at *any* instant loses at most the epochs since the last write, and
/// [`resume`](Self::resume) replays none of the completed work. Each
/// durable write touches O(shard capacity) bytes, never O(campaign).
///
/// Jobs run on the parallel executor ([`Campaign::execute`]), but only the
/// owner thread writes: it merges completed runs into canonical order and
/// persists the contiguous completed prefix plus at most one in-flight
/// snapshot. A run finishing *ahead* of an unfinished earlier run waits in
/// memory, so a crash re-runs at most `jobs - 1` such runs — and the
/// on-disk state, like the result, is the same for any worker count.
///
/// # Example
///
/// A campaign interrupted by an injected fault and resumed from its
/// checkpoint produces exactly the result of an uninterrupted run:
///
/// ```
/// use hayat::sim::campaign::PolicyKind;
/// use hayat::{Campaign, SimulationConfig};
/// use hayat_checkpoint::{FailMode, FailPoint, ShardedCheckpointer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut config = SimulationConfig::quick_demo();
/// config.chip_count = 2;
/// config.transient_window_seconds = 0.05;
/// let campaign = Campaign::new(config)?;
/// let dir = std::env::temp_dir().join("doctest_sharded_ckpt");
///
/// let interrupted = ShardedCheckpointer::new(&dir)
///     .every(1)
///     .shard_runs(1)
///     .with_failpoint(FailPoint::armed("campaign.epoch", 5, FailMode::Error))
///     .run(&campaign, &[PolicyKind::Hayat]);
/// assert!(interrupted.is_err(), "the fault fired mid-campaign");
///
/// let resumed = ShardedCheckpointer::new(&dir).resume(&campaign)?;
/// assert_eq!(resumed, campaign.run(&[PolicyKind::Hayat]));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
pub struct ShardedCheckpointer {
    store: ShardStore,
    shard_runs: usize,
    every_epochs: Option<usize>,
    jobs: Jobs,
    recorder: Arc<dyn Recorder>,
    failpoint: Arc<FailPoint>,
    fleet: Option<Arc<Mutex<FleetAccumulator>>>,
    progress: Option<ProgressOptions>,
}

impl ShardedCheckpointer {
    /// A checkpointer writing into directory `dir` (created on first run)
    /// with the default cadence and shard capacity, no telemetry, and
    /// fault injection disarmed. To resume a v1 checkpoint file, pass the
    /// file's path.
    #[must_use]
    pub fn new(dir: impl AsRef<Path>) -> Self {
        ShardedCheckpointer {
            store: ShardStore {
                dir: dir.as_ref().to_path_buf(),
            },
            shard_runs: DEFAULT_SHARD_RUNS,
            every_epochs: None,
            jobs: Jobs::auto(),
            recorder: Arc::new(NullRecorder),
            failpoint: Arc::new(FailPoint::disarmed()),
            fleet: None,
            progress: None,
        }
    }

    /// Whether the path holds a committed checkpoint to resume: a v1 file,
    /// or a directory with a manifest. A directory without one (a fresh run
    /// stopped before its first manifest write) holds no committed progress,
    /// so a caller starts the campaign fresh in it instead.
    #[must_use]
    pub fn has_checkpoint(&self) -> bool {
        self.store.dir.is_file() || self.store.manifest_path().is_file()
    }

    /// Sets the runs-per-shard capacity (default [`DEFAULT_SHARD_RUNS`]).
    /// On resume the capacity comes from the manifest, except for a v1
    /// file, whose successor directory takes this one.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    #[must_use]
    pub fn shard_runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "shard capacity must be at least one run");
        self.shard_runs = runs;
        self
    }

    /// Sets the worker-thread count (default: all hardware threads). The
    /// result and the resumability contract are identical for every count.
    #[must_use]
    pub const fn jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the checkpoint cadence in epochs (plus the unconditional
    /// write at chip-run boundaries). On [`resume`](Self::resume) an
    /// explicit cadence overrides the one stored in the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    #[must_use]
    pub fn every(mut self, epochs: usize) -> Self {
        assert!(epochs > 0, "checkpoint cadence must be at least one epoch");
        self.every_epochs = Some(epochs);
        self
    }

    /// Attaches a telemetry sink: `checkpoint.write` spans,
    /// `checkpoint.{writes,bytes_written,shards_sealed}` counters, and on
    /// resume a `campaign.resume` span plus `campaign.runs_skipped` /
    /// `campaign.epochs_skipped`, on top of what the engines emit.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Arms fault injection at the [`FAILPOINT_CHIP`] / [`FAILPOINT_EPOCH`]
    /// sites. Pass a shared `Arc` to keep one hit count across several
    /// checkpointers (e.g. `fig7_10`'s two dark-fraction campaigns).
    #[must_use]
    pub fn with_failpoint(mut self, failpoint: impl Into<Arc<FailPoint>>) -> Self {
        self.failpoint = failpoint.into();
        self
    }

    /// Attaches a streaming [`FleetAccumulator`] fed at the canonical-order
    /// merge point (pre-folded with the durable prefix on resume), so its
    /// summary is byte-identical across worker counts and crash/resume.
    #[must_use]
    pub fn with_fleet(mut self, fleet: Arc<Mutex<FleetAccumulator>>) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Enables live progress frames.
    #[must_use]
    pub fn with_progress(mut self, progress: ProgressOptions) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Runs the campaign from scratch with durable progress, collecting
    /// the full result. For fleets, prefer
    /// [`run_streamed`](Self::run_streamed).
    ///
    /// # Errors
    ///
    /// See [`run_streamed`](Self::run_streamed).
    pub fn run(
        &self,
        campaign: &Campaign,
        policies: &[PolicyKind],
    ) -> Result<CampaignResult, CheckpointError> {
        collect(campaign, |sink| self.run_streamed(campaign, policies, sink))
    }

    /// Resumes from the checkpoint, collecting the full result. For
    /// fleets, prefer [`resume_streamed`](Self::resume_streamed).
    ///
    /// # Errors
    ///
    /// See [`resume_streamed`](Self::resume_streamed).
    pub fn resume(&self, campaign: &Campaign) -> Result<CampaignResult, CheckpointError> {
        collect(campaign, |sink| self.resume_streamed(campaign, sink))
    }

    /// The fleet path: runs the campaign with durable progress and hands
    /// every completed run to `sink` in canonical order, holding at most
    /// one shard of runs in memory. Returns the number of runs delivered.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when a durable write fails,
    /// [`CheckpointError::Injected`] when an armed [`FailPoint`] fires, and
    /// [`CheckpointError::WorkerPanic`]; the directory then holds the last
    /// durable state. Sink errors surface as [`CheckpointError::Corrupt`].
    pub fn run_streamed(
        &self,
        campaign: &Campaign,
        policies: &[PolicyKind],
        sink: impl FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<u64, CheckpointError> {
        let manifest = ShardManifest {
            version: SHARD_FORMAT_VERSION,
            config_hash: config_hash(campaign.config()),
            every_epochs: self.every_epochs.unwrap_or(DEFAULT_EVERY_EPOCHS),
            policies: policies.to_vec(),
            shard_runs: self.shard_runs,
            sealed: 0,
        };
        let tail = ShardTail {
            completed: Vec::new(),
            in_flight: None,
        };
        self.start(&self.store, campaign, manifest, tail, sink)
    }

    /// Resumes a campaign: the durable prefix is replayed to `sink` (and the
    /// fleet accumulator) in canonical order, an interrupted mid-chip run
    /// re-enters its engine snapshot, and the rest runs with checkpointing
    /// still active. Returns the number of runs delivered (replayed +
    /// fresh). A regular file is read as a v1 checkpoint and left
    /// untouched; progress goes to `<file>.shards/` (see the module docs).
    ///
    /// # Errors
    ///
    /// Everything [`run_streamed`](Self::run_streamed) reports, plus
    /// [`CheckpointError::Io`] for a missing checkpoint and
    /// `VersionMismatch` / `ConfigMismatch` / `ProgressOutOfRange` /
    /// `Corrupt` for checkpoints that don't fit the campaign.
    pub fn resume_streamed(
        &self,
        campaign: &Campaign,
        sink: impl FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<u64, CheckpointError> {
        let _resume_span = self.recorder.span("campaign.resume");
        let v1_file = self.store.dir.is_file();
        let store = if v1_file {
            ShardStore::v1_successor(&self.store.dir)
        } else {
            self.store.clone()
        };
        let migrate = v1_file && !store.manifest_path().exists();
        let (mut manifest, sealed, tail) = if migrate {
            let (manifest, tail) = load_v1(&self.store.dir, campaign, self.shard_runs)?;
            (manifest, Vec::new(), tail)
        } else {
            store.load(campaign)?
        };
        if let Some(every) = self.every_epochs {
            manifest.every_epochs = every;
        }
        self.recorder.counter(
            "campaign.runs_skipped",
            (sealed.len() + tail.completed.len()) as u64,
        );
        if let Some(in_flight) = &tail.in_flight {
            self.recorder.counter(
                "campaign.epochs_skipped",
                in_flight.engine.next_epoch as u64,
            );
        }
        // A migrated v1 prefix arrives as an oversized tail; the drive loop
        // seals it.
        if migrate {
            self.start(&store, campaign, manifest, tail, sink)
        } else {
            self.drive(&store, campaign, manifest, sealed, tail, sink)
        }
    }

    /// Commits `manifest` and `tail` as the state of `store` — tail first,
    /// then the manifest, whose write is the commit point — and drives the
    /// campaign from there.
    fn start(
        &self,
        store: &ShardStore,
        campaign: &Campaign,
        manifest: ShardManifest,
        tail: ShardTail,
        sink: impl FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<u64, CheckpointError> {
        std::fs::create_dir_all(&store.dir).map_err(|source| CheckpointError::Io {
            path: store.dir.clone(),
            source,
        })?;
        store.save_json(&store.tail_path(), &tail)?;
        store.save_json(&store.manifest_path(), &manifest)?;
        self.drive(store, campaign, manifest, Vec::new(), tail, sink)
    }

    /// The shared fresh/resume loop. `sealed` (the runs of the manifest's
    /// sealed shards) and `tail.completed` carry the already durable
    /// canonical prefix; `sink` sees every run of the campaign exactly
    /// once, in canonical order.
    fn drive(
        &self,
        store: &ShardStore,
        campaign: &Campaign,
        mut manifest: ShardManifest,
        sealed: Vec<RunMetrics>,
        mut tail: ShardTail,
        mut sink: impl FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<u64, CheckpointError> {
        let epoch_count = campaign.config().epoch_count();
        let grid: Vec<(PolicyKind, usize)> = manifest
            .policies
            .iter()
            .flat_map(|&kind| (0..campaign.chip_count()).map(move |chip| (kind, chip)))
            .collect();
        let mut done = sealed.len() + tail.completed.len();
        if done > grid.len() {
            return Err(CheckpointError::ProgressOutOfRange {
                jobs: grid.len(),
                completed: done,
            });
        }

        // Replay the durable prefix to the sink and the fleet accumulator,
        // then seal whatever full shards the tail holds (a migrated v1
        // prefix).
        for (index, run) in sealed.iter().chain(&tail.completed).enumerate() {
            if let Some(fleet) = &self.fleet {
                fleet
                    .lock()
                    .expect("fleet accumulator lock")
                    .observe_completed(index, run);
            }
            sink(index, run).map_err(sink_error)?;
        }
        drop(sealed);
        self.seal_full_shards(store, &mut manifest, &mut tail)?;

        let in_flight = tail.in_flight.take();
        if let Some(state) = &in_flight {
            if grid.get(done) != Some(&(state.policy, state.chip))
                || state.engine.next_epoch > epoch_count
            {
                return Err(CheckpointError::Corrupt(format!(
                    "in-flight run ({:?}, chip {}) at epoch {} does not \
                     match the campaign's job order",
                    state.policy, state.chip, state.engine.next_epoch
                )));
            }
        }
        let resume_state = in_flight.map(|state| InFlightState {
            index: done,
            partial: state.partial,
            snapshot: state.engine,
        });
        let descriptors: Vec<RunDescriptor> = grid
            .iter()
            .enumerate()
            .skip(done)
            .map(|(index, &(kind, chip))| RunDescriptor { index, kind, chip })
            .collect();

        let failpoint = Arc::clone(&self.failpoint);
        let gate = move |site: GateSite, _run: &RunDescriptor| -> Result<(), DynError> {
            let site = match site {
                GateSite::Run => FAILPOINT_CHIP,
                GateSite::Epoch => FAILPOINT_EPOCH,
            };
            failpoint.check(site).map_err(|e| Box::new(e) as DynError)
        };
        let options = ExecutorOptions {
            jobs: self.jobs,
            snapshot_every: Some(manifest.every_epochs.max(1)),
            gate: Some(&gate),
            progress: self.progress.clone(),
        };

        let mut pending: BTreeMap<usize, RunMetrics> = BTreeMap::new();
        let mut snapshots: BTreeMap<usize, InFlightRun> = BTreeMap::new();
        let outcome = campaign.execute(
            &descriptors,
            resume_state,
            &options,
            &self.recorder,
            |update| -> Result<(), DynError> {
                match update {
                    RunUpdate::Progress {
                        index,
                        partial,
                        snapshot,
                    } => {
                        let (policy, chip) = grid[index];
                        snapshots.insert(
                            index,
                            InFlightRun {
                                policy,
                                chip,
                                partial,
                                engine: *snapshot,
                            },
                        );
                        if index == done {
                            tail.in_flight = snapshots.get(&index).cloned();
                            self.save_tail(store, &tail).map_err(DynError::from)?;
                        }
                    }
                    RunUpdate::Completed { index, metrics } => {
                        if let Some(fleet) = &self.fleet {
                            fleet
                                .lock()
                                .expect("fleet accumulator lock")
                                .observe_completed(index, &metrics);
                        }
                        snapshots.remove(&index);
                        pending.insert(index, *metrics);
                        let before = done;
                        while let Some(metrics) = pending.remove(&done) {
                            sink(done, &metrics)?;
                            tail.completed.push(metrics);
                            done += 1;
                        }
                        if done != before {
                            // The snapshot goes in first, so the tail a
                            // seal writes never carries a finished run's.
                            tail.in_flight = snapshots.get(&done).cloned();
                            self.seal_full_shards(store, &mut manifest, &mut tail)
                                .map_err(DynError::from)?;
                            self.save_tail(store, &tail).map_err(DynError::from)?;
                        }
                    }
                }
                Ok(())
            },
        );
        if let Err(error) = outcome {
            return Err(crate::runner::checkpoint_error(error));
        }
        debug_assert_eq!(done, grid.len());
        Ok(done as u64)
    }

    /// Seals every full shard the tail holds: *shard file → cleared tail →
    /// manifest*, each write atomic. The manifest write is the commit.
    fn seal_full_shards(
        &self,
        store: &ShardStore,
        manifest: &mut ShardManifest,
        tail: &mut ShardTail,
    ) -> Result<(), CheckpointError> {
        while tail.completed.len() >= manifest.shard_runs {
            let rest = tail.completed.split_off(manifest.shard_runs);
            let shard: Vec<RunMetrics> = std::mem::replace(&mut tail.completed, rest);
            store.save_json(&store.shard_path(manifest.sealed), &shard)?;
            self.save_tail(store, tail)?;
            manifest.sealed += 1;
            store.save_json(&store.manifest_path(), manifest)?;
            self.recorder.counter("checkpoint.shards_sealed", 1);
        }
        Ok(())
    }

    fn save_tail(&self, store: &ShardStore, tail: &ShardTail) -> Result<(), CheckpointError> {
        let _write_span = self.recorder.span("checkpoint.write");
        let bytes = store.save_json(&store.tail_path(), tail)?;
        self.recorder.counter("checkpoint.writes", 1);
        self.recorder.counter("checkpoint.bytes_written", bytes);
        Ok(())
    }
}

/// Gathers every run a streamed drive delivers into a [`CampaignResult`].
fn collect(
    campaign: &Campaign,
    stream: impl FnOnce(
        &mut dyn FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<u64, CheckpointError>,
) -> Result<CampaignResult, CheckpointError> {
    let mut runs = Vec::new();
    stream(&mut |_, metrics| {
        runs.push(metrics.clone());
        Ok(())
    })?;
    Ok(CampaignResult {
        runs,
        dark_fraction: campaign.config().dark_fraction,
    })
}

/// Wraps a sink failure that is not already a checkpoint error.
fn sink_error(source: DynError) -> CheckpointError {
    match source.downcast::<CheckpointError>() {
        Ok(concrete) => *concrete,
        Err(source) => CheckpointError::Corrupt(format!("run sink aborted: {source}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hayat::SimulationConfig;

    fn tiny_campaign(chips: usize) -> Campaign {
        let mut config = SimulationConfig::quick_demo();
        config.chip_count = chips;
        config.years = 0.5;
        config.epoch_years = 0.25;
        config.transient_window_seconds = 0.05;
        Campaign::new(config).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hayat_shard_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn read_json<T: Deserialize>(dir: &Path, name: &str) -> T {
        serde_json::from_str(&std::fs::read_to_string(dir.join(name)).unwrap()).unwrap()
    }

    /// Rewrites the manifest of `dir` after applying `edit` to it.
    fn edit_manifest(dir: &Path, edit: impl FnOnce(&mut ShardManifest)) {
        let mut manifest: ShardManifest = read_json(dir, "manifest.json");
        edit(&mut manifest);
        std::fs::write(
            dir.join("manifest.json"),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn sharded_run_matches_plain_campaign() {
        let campaign = tiny_campaign(3);
        let dir = temp_dir("plain");
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let sharded = ShardedCheckpointer::new(&dir)
            .shard_runs(2)
            .run(&campaign, &policies)
            .unwrap();
        assert_eq!(sharded, campaign.run(&policies));
        // 6 runs at capacity 2: three sealed shards, empty tail.
        let manifest: ShardManifest = read_json(&dir, "manifest.json");
        assert_eq!(manifest.sealed, 3);
        let tail: ShardTail = read_json(&dir, "tail.json");
        assert!(tail.completed.is_empty());
        assert!(tail.in_flight.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_sharded_campaign_resumes_bit_identically() {
        let campaign = tiny_campaign(2);
        let dir = temp_dir("resume");
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let interrupted = ShardedCheckpointer::new(&dir)
            .every(1)
            .shard_runs(1)
            .jobs(Jobs::serial())
            .with_failpoint(FailPoint::armed(
                FAILPOINT_EPOCH,
                5,
                crate::failpoint::FailMode::Error,
            ))
            .run(&campaign, &policies);
        assert!(matches!(interrupted, Err(CheckpointError::Injected(_))));

        let resumed = ShardedCheckpointer::new(&dir).resume(&campaign).unwrap();
        assert_eq!(resumed, campaign.run(&policies));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_sink_sees_every_run_once_in_canonical_order() {
        let campaign = tiny_campaign(2);
        let dir = temp_dir("streamed");
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let mut indices = Vec::new();
        let total = ShardedCheckpointer::new(&dir)
            .shard_runs(3)
            .run_streamed(&campaign, &policies, |index, _| {
                indices.push(index);
                Ok(())
            })
            .unwrap();
        assert_eq!(total, 4);
        assert_eq!(indices, vec![0, 1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_replays_prefix_then_continues() {
        let campaign = tiny_campaign(2);
        let dir = temp_dir("replay");
        let policies = [PolicyKind::Hayat];
        let interrupted = ShardedCheckpointer::new(&dir)
            .every(1)
            .shard_runs(1)
            .jobs(Jobs::serial())
            .with_failpoint(FailPoint::armed(
                FAILPOINT_CHIP,
                1,
                crate::failpoint::FailMode::Error,
            ))
            .run(&campaign, &policies);
        assert!(interrupted.is_err());

        let mut streamed = Vec::new();
        let total = ShardedCheckpointer::new(&dir)
            .resume_streamed(&campaign, |index, run| {
                streamed.push((index, run.clone()));
                Ok(())
            })
            .unwrap();
        assert_eq!(total, 2);
        let plain = campaign.run(&policies);
        assert_eq!(
            streamed,
            plain.runs.iter().cloned().enumerate().collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forward_manifest_versions_are_rejected() {
        let campaign = tiny_campaign(1);
        let dir = temp_dir("version");
        ShardedCheckpointer::new(&dir)
            .run(&campaign, &[PolicyKind::Hayat])
            .unwrap();
        edit_manifest(&dir, |manifest| manifest.version = SHARD_FORMAT_VERSION + 1);
        assert!(matches!(
            ShardedCheckpointer::new(&dir).resume(&campaign),
            Err(CheckpointError::VersionMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let campaign = tiny_campaign(1);
        let dir = temp_dir("config");
        ShardedCheckpointer::new(&dir)
            .run(&campaign, &[PolicyKind::Hayat])
            .unwrap();
        let other = tiny_campaign(2);
        assert!(matches!(
            ShardedCheckpointer::new(&dir).resume(&other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_shard_from_a_seal_crash_is_harmless() {
        // Simulate the crash window between the shard write and the
        // manifest commit: an orphan shard file exists but the manifest
        // doesn't count it. Resume must ignore it and still produce the
        // uninterrupted result.
        let campaign = tiny_campaign(2);
        let dir = temp_dir("orphan");
        let policies = [PolicyKind::Hayat];
        ShardedCheckpointer::new(&dir)
            .shard_runs(1)
            .run(&campaign, &policies)
            .unwrap();
        // Rewind the manifest by one sealed shard, leaving shard-00001 an
        // orphan; its runs vanish from the durable prefix.
        edit_manifest(&dir, |manifest| manifest.sealed -= 1);

        let resumed = ShardedCheckpointer::new(&dir).resume(&campaign).unwrap();
        assert_eq!(resumed, campaign.run(&policies));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The state a kill between a seal's tail and manifest writes leaves:
    /// a `shard_runs(2)` campaign stopped with one sealed shard and one
    /// run in the tail, its manifest rewound by one shard.
    fn seal_window(name: &str) -> (Campaign, PathBuf) {
        let campaign = tiny_campaign(3);
        let dir = temp_dir(name);
        let interrupted = ShardedCheckpointer::new(&dir)
            .shard_runs(2)
            .jobs(Jobs::serial())
            .with_failpoint(FailPoint::armed(
                FAILPOINT_CHIP,
                4,
                crate::failpoint::FailMode::Error,
            ))
            .run(&campaign, &[PolicyKind::Vaa, PolicyKind::Hayat]);
        assert!(matches!(interrupted, Err(CheckpointError::Injected(_))));
        let tail: ShardTail = read_json(&dir, "tail.json");
        assert!(!tail.completed.is_empty());
        edit_manifest(&dir, |manifest| {
            assert_eq!(manifest.sealed, 1);
            manifest.sealed = 0;
        });
        (campaign, dir)
    }

    #[test]
    fn seal_crash_after_the_tail_write_resumes_into_the_right_slots() {
        // The tail's run must land after the uncounted shard, not in its
        // slots.
        let (campaign, dir) = seal_window("seal_window");
        let resumed = ShardedCheckpointer::new(&dir).resume(&campaign).unwrap();
        assert_eq!(resumed, campaign.run(&[PolicyKind::Vaa, PolicyKind::Hayat]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_out_of_their_canonical_slots_are_corrupt() {
        // Without the uncounted shard on disk, the tail cannot be placed:
        // refuse it rather than shift it.
        let (campaign, dir) = seal_window("misplaced");
        std::fs::remove_file(dir.join("shard-00000.json")).unwrap();
        assert!(matches!(
            ShardedCheckpointer::new(&dir).resume(&campaign),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
