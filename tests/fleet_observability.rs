//! The fleet observability layer, end to end:
//!
//! * the streaming fleet summary is **byte-identical** across worker
//!   counts (the canonical-order fold makes sketch state independent of
//!   completion order);
//! * a crash/resume cycle through the checkpointer reproduces the
//!   uninterrupted summary byte for byte (the completed prefix is
//!   pre-folded on resume);
//! * sketch quantiles agree with exact per-run replay quantiles within
//!   the documented one-bucket (√2) bound on the 25-chip paper grid;
//! * live progress frames track completion monotonically;
//! * JSONL span events carry a joinable run/chip/epoch/worker context.

use hayat::sim::campaign::PolicyKind;
use hayat::{
    fleet_stats_from_runs, Campaign, FleetAccumulator, Jobs, ProgressFrame, ProgressOptions,
    SimulationConfig, FLEET_SERIES,
};
use hayat_checkpoint::{FailMode, FailPoint, ShardedCheckpointer};
use hayat_telemetry::{EventKind, JsonlRecorder, Recorder, TelemetryEvent};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small but multi-epoch campaign exercising every layer.
fn small_config(chips: usize) -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = chips;
    config.years = 1.0;
    config.epoch_years = 0.25;
    config.mesh = (4, 4);
    config.transient_window_seconds = 0.05;
    config
}

#[test]
fn fleet_summary_is_byte_identical_across_jobs() {
    let campaign = Campaign::new(small_config(3)).unwrap();
    let policies = [PolicyKind::Vaa, PolicyKind::Hayat];

    let mut summaries = Vec::new();
    for jobs in [Jobs::serial(), Jobs::new(4).unwrap()] {
        let fleet = Mutex::new(FleetAccumulator::new());
        let recorder: Arc<dyn Recorder> = Arc::new(hayat_telemetry::NullRecorder);
        campaign
            .try_run_observed(&policies, jobs, recorder, Some(&fleet), None)
            .unwrap();
        let mut fleet = fleet.into_inner().unwrap();
        fleet.finish();
        assert_eq!(fleet.folded(), campaign.grid(&policies).len());
        summaries.push(serde_json::to_string_pretty(&fleet.summary()).unwrap());
    }
    assert_eq!(
        summaries[0], summaries[1],
        "fleet JSON must not depend on the worker count"
    );
}

#[test]
fn resumed_fleet_summary_matches_uninterrupted() {
    let campaign = Campaign::new(small_config(2)).unwrap();
    let policies = [PolicyKind::Hayat, PolicyKind::Vaa];
    let path = std::env::temp_dir().join("fleet_observability_resume.ckpt");
    std::fs::remove_dir_all(&path).ok();

    // The uninterrupted reference, through the plain observed runner.
    let reference = Mutex::new(FleetAccumulator::new());
    let recorder: Arc<dyn Recorder> = Arc::new(hayat_telemetry::NullRecorder);
    campaign
        .try_run_observed(&policies, Jobs::serial(), recorder, Some(&reference), None)
        .unwrap();
    let mut reference = reference.into_inner().unwrap();
    reference.finish();
    let reference = serde_json::to_string_pretty(&reference.summary()).unwrap();

    // Interrupt the campaign mid-flight; the first accumulator dies with
    // the "process".
    let crashed_fleet = Arc::new(Mutex::new(FleetAccumulator::new()));
    let interrupted = ShardedCheckpointer::new(&path)
        .every(1)
        .with_failpoint(FailPoint::armed("campaign.epoch", 5, FailMode::Error))
        .with_fleet(Arc::clone(&crashed_fleet))
        .run(&campaign, &policies);
    assert!(interrupted.is_err(), "the fault fired mid-campaign");

    // Resume with a *fresh* accumulator, as a restarted process would: the
    // checkpointer pre-folds the durable prefix before new runs arrive.
    let resumed_fleet = Arc::new(Mutex::new(FleetAccumulator::new()));
    let resumed = ShardedCheckpointer::new(&path)
        .with_fleet(Arc::clone(&resumed_fleet))
        .resume(&campaign)
        .unwrap();
    assert_eq!(resumed, campaign.run(&policies));
    let mut resumed_fleet = resumed_fleet.lock().unwrap();
    resumed_fleet.finish();
    let resumed = serde_json::to_string_pretty(&resumed_fleet.summary()).unwrap();
    assert_eq!(
        reference, resumed,
        "crash/resume must not perturb the fleet summary"
    );
    std::fs::remove_dir_all(&path).ok();
}

#[test]
fn sketch_quantiles_match_exact_replay_on_the_paper_grid() {
    // The paper's evaluation population: 25 chip instances.
    let campaign = Campaign::new(small_config(25)).unwrap();
    let result = campaign.run_with_jobs(&[PolicyKind::Hayat], Jobs::auto());
    let stats = fleet_stats_from_runs(&result.runs);
    let summary = stats.summary();

    for name in FLEET_SERIES {
        let mut values: Vec<f64> = result
            .runs
            .iter()
            .flat_map(|run| {
                hayat::run_observations(run)
                    .into_iter()
                    .filter(|&(series, _)| series == name)
                    .map(|(_, v)| v)
            })
            .collect();
        values.sort_by(f64::total_cmp);
        assert_eq!(values.len(), result.runs.len());
        let series = summary.series(name).expect("series present");
        for (q, approx) in [(0.5, series.p50), (0.95, series.p95), (0.99, series.p99)] {
            // Same rank convention as `LogHistogram::quantile`.
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            // Documented bound: within one power-of-two bucket, i.e. a
            // factor of √2, with clamping only ever tightening the bound.
            let tol = std::f64::consts::SQRT_2 * (1.0 + 1e-12);
            if exact == 0.0 {
                assert_eq!(approx, 0.0, "{name} q{q}: zero rank statistic");
            } else {
                assert!(
                    approx <= exact * tol && approx >= exact / tol,
                    "{name} q{q}: sketch {approx} vs exact {exact} exceeds √2 bound"
                );
            }
        }
    }
}

#[test]
fn progress_frames_track_completion_monotonically() {
    let campaign = Campaign::new(small_config(2)).unwrap();
    let policies = [PolicyKind::Hayat, PolicyKind::Vaa];
    let frames: Arc<Mutex<Vec<ProgressFrame>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_frames = Arc::clone(&frames);
    let progress = ProgressOptions {
        every: Duration::ZERO,
        sink: Arc::new(move |frame: &ProgressFrame| {
            sink_frames.lock().unwrap().push(frame.clone());
        }),
    };
    let recorder: Arc<dyn Recorder> = Arc::new(hayat_telemetry::NullRecorder);
    campaign
        .try_run_observed(
            &policies,
            Jobs::new(2).unwrap(),
            recorder,
            None,
            Some(progress),
        )
        .unwrap();

    let frames = frames.lock().unwrap();
    let total = campaign.grid(&policies).len();
    assert_eq!(frames.len(), total, "one frame per completed run at ZERO");
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(frame.completed, i + 1);
        assert_eq!(frame.total, total);
        assert!(frame.elapsed_seconds >= 0.0);
    }
    let last = frames.last().unwrap();
    assert_eq!(last.completed, last.total, "final frame always emitted");
    assert_eq!(last.eta_seconds, 0.0);
    assert!(last.render().contains("100.0%"));
}

/// A clonable in-memory JSONL sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn span_events_carry_joinable_context() {
    let campaign = Campaign::new(small_config(2)).unwrap();
    let policies = [PolicyKind::Hayat];
    let buf = SharedBuf::default();
    let recorder: Arc<dyn Recorder> = Arc::new(JsonlRecorder::new(buf.clone()));
    campaign
        .try_run(&policies, Jobs::new(2).unwrap(), recorder)
        .unwrap();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let events: Vec<TelemetryEvent> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("well-formed JSONL"))
        .collect();
    assert!(!events.is_empty());

    let chip_spans: Vec<&TelemetryEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "campaign.chip")
        .collect();
    assert_eq!(chip_spans.len(), campaign.grid(&policies).len());
    for span in &chip_spans {
        assert!(span.ctx.run.is_some(), "chip span names its run");
        assert!(span.ctx.chip.is_some(), "chip span names its chip");
        assert!(span.ctx.worker.is_some(), "chip span names its worker");
    }
    // Both runs are distinguishable in the joined stream.
    let runs: std::collections::BTreeSet<u64> =
        chip_spans.iter().filter_map(|e| e.ctx.run).collect();
    assert_eq!(runs.len(), 2);

    let epoch_spans: Vec<&TelemetryEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "engine.epoch")
        .collect();
    assert!(!epoch_spans.is_empty());
    for span in &epoch_spans {
        assert!(span.ctx.epoch.is_some(), "epoch spans carry their epoch");
        assert!(span.ctx.run.is_some(), "epoch spans join back to their run");
    }
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Span && e.name == "engine.aging.advance"),
        "the aging-advance phase is instrumented"
    );
    // Worker spans carry only the worker slot (no run assigned yet).
    let worker_span = events
        .iter()
        .find(|e| e.kind == EventKind::Span && e.name == "campaign.worker")
        .expect("worker span present");
    assert!(worker_span.ctx.worker.is_some());
    assert!(worker_span.ctx.run.is_none());
}
