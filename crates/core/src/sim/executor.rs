//! The parallel campaign executor: a scoped worker pool with a deterministic
//! merge.
//!
//! Every `(chip, policy)` cell of a campaign grid is an independent
//! simulation, so the decade-scale evaluation (Figs. 7–11: 25 chips ×
//! 2 policies × 2 dark budgets) parallelizes perfectly. This module supplies
//! the one shared engine for that fan-out:
//!
//! * **Work queue** — workers pull batch-granular claims from one shared
//!   [`AtomicUsize`] cursor; `fetch_add` hands claims out in canonical order,
//!   so no claim is ever run twice and an idle worker always takes the next
//!   unstarted one.
//! * **Owner-thread merge** — workers publish [`RunUpdate`]s over a channel
//!   to the *calling* thread, which owns the single mutable sink (the
//!   in-memory result vector, or the [`ShardedCheckpointer`] in
//!   `hayat-checkpoint`). All result mutation and checkpoint I/O stays
//!   single-threaded by construction.
//! * **Determinism** — each run is seeded and single-threaded internally, and
//!   results are indexed by canonical grid position (policy-major, then chip
//!   index), so campaign output is byte-identical for any worker count.
//! * **Telemetry** — each worker records into its own
//!   [`hayat_telemetry::BufferRecorder`], replayed into the
//!   campaign's sink in worker order after the pool joins: recorded streams
//!   are scheduling-independent too.
//! * **Failure containment** — a panicking worker is caught
//!   ([`std::panic::catch_unwind`]), the pool is stopped via a shared flag,
//!   and the panic surfaces as [`ExecutorError::WorkerPanic`] instead of a
//!   hang or abort.
//!
//! [`ShardedCheckpointer`]: ../../../hayat_checkpoint/struct.ShardedCheckpointer.html

use crate::metrics::RunMetrics;
use crate::sim::batch::ChipBatch;
use crate::sim::campaign::{Campaign, PolicyKind};
use crate::sim::engine::SimulationEngine;
use crate::sim::snapshot::EngineSnapshot;
use hayat_telemetry::{BufferRecorder, NullRecorder, Recorder, RecorderExt, SpanContext};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use crate::sim::config::Jobs;

/// Boxed error type accepted from gates and sinks; the executor carries it
/// through unchanged so callers can downcast their own error types back out.
pub type DynError = Box<dyn std::error::Error + Send + Sync>;

/// One cell of the campaign grid, tagged with its canonical position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDescriptor {
    /// Canonical grid position (policy-major, then chip index). Results are
    /// merged by this index, which is what makes parallel output identical
    /// to serial output.
    pub index: usize,
    /// Policy to instantiate for this run.
    pub kind: PolicyKind,
    /// Chip index within the campaign's population.
    pub chip: usize,
}

/// Resume state for one descriptor: a partially aged engine captured at an
/// epoch boundary. The worker that pulls the matching descriptor restores it
/// and continues from `snapshot.next_epoch`.
#[derive(Debug, Clone)]
pub struct InFlightState {
    /// Grid position of the partially completed run.
    pub index: usize,
    /// Metrics accumulated before the snapshot was taken.
    pub partial: RunMetrics,
    /// The engine state at the epoch boundary.
    pub snapshot: EngineSnapshot,
}

/// Where a [gate](ExecutorOptions::gate) is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateSite {
    /// Once before each run starts.
    Run,
    /// Once before each epoch of each run.
    Epoch,
}

/// What workers publish to the owner thread, in completion order.
#[derive(Debug)]
pub enum RunUpdate {
    /// A cadence snapshot of a still-running descriptor (emitted only when
    /// [`ExecutorOptions::snapshot_every`] is set). The checkpointer
    /// persists these for the run at the head of the completed prefix.
    Progress {
        /// Grid position of the run.
        index: usize,
        /// Metrics accumulated so far (epochs `0..snapshot.next_epoch`).
        partial: RunMetrics,
        /// Engine state at the epoch boundary.
        snapshot: Box<EngineSnapshot>,
    },
    /// A descriptor ran to completion.
    Completed {
        /// Grid position of the run.
        index: usize,
        /// The finished run.
        metrics: Box<RunMetrics>,
    },
}

/// One live progress frame, emitted by the executor's owner thread as
/// runs complete.
///
/// Throughput and ETA are wall-clock derived, so frames are *not* part of
/// the deterministic campaign output — they go to stderr or a separate
/// JSONL sink, never into result files.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgressFrame {
    /// Runs completed so far (within this execution).
    pub completed: usize,
    /// Total runs this execution will perform.
    pub total: usize,
    /// Wall-clock seconds since the pool started.
    pub elapsed_seconds: f64,
    /// Completed runs per wall-clock second.
    pub runs_per_second: f64,
    /// Estimated seconds until the last run completes (0 when done).
    pub eta_seconds: f64,
}

impl ProgressFrame {
    /// Builds a frame from the owner thread's counters.
    #[must_use]
    fn at(completed: usize, total: usize, elapsed: Duration) -> Self {
        let elapsed_seconds = elapsed.as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let runs_per_second = if elapsed_seconds > 0.0 {
            completed as f64 / elapsed_seconds
        } else {
            0.0
        };
        #[allow(clippy::cast_precision_loss)]
        let eta_seconds = if runs_per_second > 0.0 {
            total.saturating_sub(completed) as f64 / runs_per_second
        } else {
            0.0
        };
        ProgressFrame {
            completed,
            total,
            elapsed_seconds,
            runs_per_second,
            eta_seconds,
        }
    }

    /// Renders the one-line human form printed to stderr.
    #[must_use]
    pub fn render(&self) -> String {
        #[allow(clippy::cast_precision_loss)]
        let percent = if self.total > 0 {
            100.0 * self.completed as f64 / self.total as f64
        } else {
            100.0
        };
        format!(
            "campaign progress: {}/{} runs ({percent:.1}%), {:.2} runs/s, eta {:.1} s",
            self.completed, self.total, self.runs_per_second, self.eta_seconds
        )
    }
}

/// Live-progress reporting knobs (see [`ExecutorOptions::progress`]).
#[derive(Clone)]
pub struct ProgressOptions {
    /// Minimum wall-clock gap between frames ([`Duration::ZERO`] emits one
    /// frame per completed run; the final frame is always emitted).
    pub every: Duration,
    /// Where frames go. The sink runs on the owner thread; an `Arc` so the
    /// same options clone into the checkpointer's nested drivers.
    pub sink: Arc<dyn Fn(&ProgressFrame) + Send + Sync>,
}

impl ProgressOptions {
    /// Frames rendered to stderr, throttled to one per `every`.
    #[must_use]
    pub fn stderr(every: Duration) -> Self {
        ProgressOptions {
            every,
            sink: Arc::new(|frame| eprintln!("{}", frame.render())),
        }
    }
}

impl std::fmt::Debug for ProgressOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressOptions")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// Tuning knobs for [`Campaign::execute`]. The default is a full-width
/// pool ([`Jobs::auto`]) with no snapshots, no gate, and no progress
/// reporting.
#[derive(Default)]
pub struct ExecutorOptions<'a> {
    /// Worker-thread count (capped at the number of descriptors).
    pub jobs: Jobs,
    /// Emit a [`RunUpdate::Progress`] snapshot every this many epochs
    /// (never after the final epoch — completion sends
    /// [`RunUpdate::Completed`] instead). `None` disables snapshots.
    pub snapshot_every: Option<usize>,
    /// Optional abort gate consulted before each run and each epoch — the
    /// checkpointer routes its fault-injection failpoints through this. An
    /// `Err` stops the pool and surfaces as [`ExecutorError::RunAborted`].
    #[allow(clippy::type_complexity)]
    pub gate: Option<&'a (dyn Fn(GateSite, &RunDescriptor) -> Result<(), DynError> + Sync)>,
    /// Optional live-progress frames emitted from the owner thread as runs
    /// complete. `None` disables progress reporting entirely.
    pub progress: Option<ProgressOptions>,
}

/// Why [`Campaign::execute`] stopped early. The pool shuts down cleanly on
/// the first failure (workers abandon their runs at the next epoch boundary)
/// and the error of the lowest-indexed failing descriptor is reported, so the
/// surfaced error is deterministic even when several workers fail together.
#[derive(Debug)]
pub enum ExecutorError {
    /// A worker thread panicked while running a descriptor.
    WorkerPanic {
        /// Policy of the panicking run.
        kind: PolicyKind,
        /// Chip of the panicking run.
        chip: usize,
        /// The panic payload, rendered to a string.
        message: String,
    },
    /// A gate or engine restore refused a run.
    RunAborted {
        /// Policy of the aborted run.
        kind: PolicyKind,
        /// Chip of the aborted run.
        chip: usize,
        /// The underlying error (downcastable to the caller's type).
        source: DynError,
    },
    /// The owner-thread sink returned an error (e.g. a checkpoint write
    /// failed).
    SinkAborted {
        /// The underlying error (downcastable to the caller's type).
        source: DynError,
    },
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorError::WorkerPanic {
                kind,
                chip,
                message,
            } => write!(
                f,
                "worker panicked running {} on chip {chip}: {message}",
                kind.name()
            ),
            ExecutorError::RunAborted { kind, chip, source } => {
                write!(f, "run {} on chip {chip} aborted: {source}", kind.name())
            }
            ExecutorError::SinkAborted { source } => {
                write!(f, "result sink aborted the campaign: {source}")
            }
        }
    }
}

impl std::error::Error for ExecutorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecutorError::WorkerPanic { .. } => None,
            ExecutorError::RunAborted { source, .. } | ExecutorError::SinkAborted { source } => {
                Some(source.as_ref())
            }
        }
    }
}

/// The first failure, keyed by descriptor index so concurrent failures
/// resolve deterministically (`usize::MAX` marks sink failures, which only
/// win when no worker failed).
struct FailureSlot(Mutex<Option<(usize, ExecutorError)>>);

impl FailureSlot {
    fn record(&self, index: usize, error: ExecutorError, stop: &AtomicBool) {
        let mut slot = self.0.lock().expect("failure slot lock");
        if slot.as_ref().is_none_or(|(held, _)| index < *held) {
            *slot = Some((index, error));
        }
        stop.store(true, Ordering::Relaxed);
    }
}

impl Campaign {
    /// Runs `descriptors` on a scoped worker pool and feeds every
    /// [`RunUpdate`] to `sink` on the calling thread, in completion order.
    ///
    /// This is the engine under [`Campaign::run`] and the checkpointer's
    /// `run` / `resume`; call it directly only to build a custom driver.
    /// `in_flight` resumes one partially completed descriptor from an engine
    /// snapshot. The sink may return an error to abort the campaign (workers
    /// abandon their runs at the next epoch boundary).
    ///
    /// Completed descriptors always reach the sink exactly once; after a
    /// failure, runs still in flight are abandoned without an update.
    ///
    /// # Errors
    ///
    /// [`ExecutorError`] on the first worker panic, gate/restore refusal, or
    /// sink error. Descriptors whose updates were already consumed by the
    /// sink stay consumed — the checkpointer relies on this to leave a
    /// resumable checkpoint behind.
    pub fn execute(
        &self,
        descriptors: &[RunDescriptor],
        in_flight: Option<InFlightState>,
        options: &ExecutorOptions<'_>,
        recorder: &Arc<dyn Recorder>,
        mut sink: impl FnMut(RunUpdate) -> Result<(), DynError>,
    ) -> Result<(), ExecutorError> {
        if descriptors.is_empty() {
            return Ok(());
        }
        let workers = options.jobs.get().min(descriptors.len());
        #[allow(clippy::cast_precision_loss)]
        recorder.gauge("campaign.jobs", workers as f64);

        // Per-worker buffers keep the merged telemetry stream independent of
        // scheduling; when telemetry is off, workers share the NullRecorder
        // and pay nothing.
        let buffers: Vec<Arc<BufferRecorder>> = if recorder.enabled() {
            (0..workers)
                .map(|_| Arc::new(BufferRecorder::new()))
                .collect()
        } else {
            Vec::new()
        };
        let null: Arc<dyn Recorder> = Arc::new(NullRecorder);

        // Each claim pulls `batch` consecutive canonical-order descriptors
        // (the last claim may be narrower), handed out by one shared cursor.
        let batch = self.batch().get();
        let claims = descriptors.len().div_ceil(batch);
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let failure = FailureSlot(Mutex::new(None));
        let in_flight = Mutex::new(in_flight);
        let (tx, rx) = std::sync::mpsc::channel::<RunUpdate>();

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let tx = tx.clone();
                let worker_recorder: Arc<dyn Recorder> = buffers
                    .get(worker)
                    .map_or_else(|| Arc::clone(&null), |b| Arc::clone(b) as Arc<dyn Recorder>);
                let (cursor, stop, failure, in_flight) = (&cursor, &stop, &failure, &in_flight);
                scope.spawn(move || {
                    worker_recorder.set_context(SpanContext {
                        worker: Some(worker as u64),
                        ..SpanContext::default()
                    });
                    let worker_span = worker_recorder.span("campaign.worker");
                    let mut busy = Duration::ZERO;
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let claim_id = cursor.fetch_add(1, Ordering::Relaxed);
                        if claim_id >= claims {
                            break;
                        }
                        let start = claim_id * batch;
                        let end = (start + batch).min(descriptors.len());
                        let claim = &descriptors[start..end];
                        let began = Instant::now();
                        let outcome = self.run_claim(
                            claim,
                            in_flight,
                            options,
                            &worker_recorder,
                            worker,
                            stop,
                            &tx,
                        );
                        busy += began.elapsed();
                        if let Err((index, error)) = outcome {
                            failure.record(index, error, stop);
                            break;
                        }
                    }
                    // Wall-clock compute time per worker: the utilization
                    // table divides this by the pool's elapsed time. A
                    // diagnostic, never part of deterministic output.
                    worker_recorder.gauge("campaign.worker_busy_seconds", busy.as_secs_f64());
                    drop(worker_span);
                });
            }
            drop(tx);
            // Owner loop: the calling thread exclusively drives the sink.
            // After a sink failure keep draining (workers notice `stop` at
            // their next epoch boundary) but stop forwarding updates.
            let started = Instant::now();
            let mut completed = 0usize;
            let mut last_frame: Option<Instant> = None;
            let mut sink_alive = true;
            for update in rx {
                if !sink_alive {
                    continue;
                }
                let is_completion = matches!(update, RunUpdate::Completed { .. });
                if let Err(source) = sink(update) {
                    failure.record(usize::MAX, ExecutorError::SinkAborted { source }, &stop);
                    sink_alive = false;
                } else if is_completion {
                    completed += 1;
                    if let Some(progress) = &options.progress {
                        let now = Instant::now();
                        let due = last_frame
                            .is_none_or(|at| now.duration_since(at) >= progress.every)
                            || completed == descriptors.len();
                        if due {
                            last_frame = Some(now);
                            (progress.sink)(&ProgressFrame::at(
                                completed,
                                descriptors.len(),
                                started.elapsed(),
                            ));
                        }
                    }
                }
            }
        });

        for buffer in &buffers {
            buffer.replay_into(recorder.as_ref());
        }
        if recorder.enabled() {
            // Leave the sink's causal context clean for whatever follows.
            recorder.set_context(SpanContext::default());
        }
        match failure.0.into_inner().expect("failure slot lock") {
            Some((_, error)) => Err(error),
            None => Ok(()),
        }
    }

    /// Runs one claim of any width through a [`ChipBatch`] (or until `stop`
    /// is raised), translating panics and gate refusals into
    /// [`ExecutorError`]s. Every lane performs exactly the call sequence of
    /// a serial run — per epoch the [`SimulationEngine::run_epoch`]
    /// decision, window steps and upscale, then the snapshot cadence, and
    /// finally completion — so merged campaign output is byte-identical at
    /// every batch width. Errors carry the descriptor index they surfaced
    /// on, for the deterministic failure slot.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn run_claim(
        &self,
        claim: &[RunDescriptor],
        in_flight: &Mutex<Option<InFlightState>>,
        options: &ExecutorOptions<'_>,
        recorder: &Arc<dyn Recorder>,
        worker: usize,
        stop: &AtomicBool,
        tx: &Sender<RunUpdate>,
    ) -> Result<(), (usize, ExecutorError)> {
        let gate = |site: GateSite, descriptor: &RunDescriptor| match options.gate {
            Some(gate) => gate(site, descriptor).map_err(|source| {
                (
                    descriptor.index,
                    ExecutorError::RunAborted {
                        kind: descriptor.kind,
                        chip: descriptor.chip,
                        source,
                    },
                )
            }),
            None => Ok(()),
        };
        let body = catch_unwind(AssertUnwindSafe(
            || -> Result<(), (usize, ExecutorError)> {
                let mut engines = Vec::with_capacity(claim.len());
                let mut starts = Vec::with_capacity(claim.len());
                let mut metrics: Vec<RunMetrics> = Vec::with_capacity(claim.len());
                let mut spans = Vec::with_capacity(claim.len());
                for descriptor in claim {
                    gate(GateSite::Run, descriptor)?;
                    let run_ctx = SpanContext {
                        run: Some(descriptor.index as u64),
                        chip: Some(descriptor.chip as u64),
                        epoch: None,
                        worker: Some(worker as u64),
                    };
                    recorder.set_context(run_ctx);
                    spans.push(recorder.span("campaign.chip"));
                    let system = self.system_for(descriptor.chip);
                    let policy = descriptor
                        .kind
                        .instantiate(self.config().workload_seed ^ descriptor.chip as u64);
                    let mut engine = SimulationEngine::new(system, policy, self.config())
                        .with_recorder(Arc::clone(recorder))
                        .with_span_context(run_ctx);
                    let resume = {
                        let mut slot = in_flight.lock().expect("in-flight lock");
                        if slot.as_ref().is_some_and(|s| s.index == descriptor.index) {
                            slot.take()
                        } else {
                            None
                        }
                    };
                    let (run_metrics, start_epoch) = match resume {
                        Some(state) => {
                            engine.restore(&state.snapshot).map_err(|source| {
                                (
                                    descriptor.index,
                                    ExecutorError::RunAborted {
                                        kind: descriptor.kind,
                                        chip: descriptor.chip,
                                        source: Box::new(source),
                                    },
                                )
                            })?;
                            (state.partial, state.snapshot.next_epoch)
                        }
                        None => (engine.start_metrics(), 0),
                    };
                    engines.push(engine);
                    starts.push(start_epoch);
                    metrics.push(run_metrics);
                }

                let mut chips = ChipBatch::with_start_epochs(engines, starts.clone());
                let epoch_count = self.config().epoch_count();
                for epoch in 0..epoch_count {
                    if stop.load(Ordering::Relaxed) {
                        for span in spans.drain(..) {
                            span.cancel(); // abandoned: someone else failed
                        }
                        return Ok(());
                    }
                    for (lane, descriptor) in claim.iter().enumerate() {
                        if starts[lane] <= epoch {
                            gate(GateSite::Epoch, descriptor)?;
                        }
                    }
                    for (lane, record) in chips.run_epoch(epoch) {
                        metrics[lane].epochs.push(record);
                        let done = epoch + 1;
                        if let Some(every) = options.snapshot_every {
                            if done < epoch_count && done % every.max(1) == 0 {
                                let _ = tx.send(RunUpdate::Progress {
                                    index: claim[lane].index,
                                    partial: metrics[lane].clone(),
                                    snapshot: Box::new(chips.engine(lane).snapshot(done)),
                                });
                            }
                        }
                    }
                }
                for ((lane, descriptor), mut run_metrics) in claim.iter().enumerate().zip(metrics) {
                    chips.engine(lane).finalize_metrics(&mut run_metrics);
                    recorder.counter("campaign.runs_completed", 1);
                    let _ = tx.send(RunUpdate::Completed {
                        index: descriptor.index,
                        metrics: Box::new(run_metrics),
                    });
                }
                Ok(())
            },
        ));

        // Back to worker-only context whatever happened, so signals between
        // claims (and the worker span itself) never carry a stale run tag.
        recorder.set_context(SpanContext {
            worker: Some(worker as u64),
            ..SpanContext::default()
        });
        match body {
            Ok(run_result) => run_result,
            Err(payload) => Err((
                claim[0].index,
                ExecutorError::WorkerPanic {
                    kind: claim[0].kind,
                    chip: claim[0].chip,
                    message: panic_message(payload.as_ref()),
                },
            )),
        }
    }
}

/// Renders a panic payload the way `std` does for unwinding threads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_cap_at_descriptor_count() {
        // `workers = jobs.min(len)` is internal; observe it via the gauge.
        let mut config = crate::sim::config::SimulationConfig::quick_demo();
        config.chip_count = 1;
        config.years = 0.5;
        config.epoch_years = 0.5;
        config.transient_window_seconds = 0.1;
        let campaign = Campaign::new(config).unwrap();
        let recorder = Arc::new(hayat_telemetry::MemoryRecorder::new());
        let descriptors = [RunDescriptor {
            index: 0,
            kind: PolicyKind::CoolestFirst,
            chip: 0,
        }];
        let mut got = Vec::new();
        campaign
            .execute(
                &descriptors,
                None,
                &ExecutorOptions {
                    jobs: Jobs::new(8).unwrap(),
                    ..ExecutorOptions::default()
                },
                &(recorder.clone() as Arc<dyn Recorder>),
                |update| {
                    if let RunUpdate::Completed { index, .. } = update {
                        got.push(index);
                    }
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(got, vec![0]);
        let summary = recorder.summary();
        assert_eq!(summary.gauge("campaign.jobs").map(|g| g.last), Some(1.0));
        assert_eq!(summary.span("campaign.worker").map(|s| s.count), Some(1));
    }

    #[test]
    fn empty_grid_is_a_no_op() {
        let mut config = crate::sim::config::SimulationConfig::quick_demo();
        config.chip_count = 1;
        let campaign = Campaign::new(config).unwrap();
        let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
        let mut calls = 0;
        campaign
            .execute(&[], None, &ExecutorOptions::default(), &recorder, |_| {
                calls += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(calls, 0);
    }
}
