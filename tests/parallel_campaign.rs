//! The parallel campaign executor's contract, end to end:
//!
//! * parallel and serial campaigns produce **identical** `RunMetrics`
//!   (byte-identical JSON) for random small configs and `jobs ∈ {1..8}`;
//! * a panicking worker surfaces as a campaign error instead of a hang;
//! * a failing gate aborts the pool with the injected error;
//! * merged telemetry is scheduling-independent, and a wider claim records
//!   the same per-run spans as one-run claims.

use hayat::sim::campaign::PolicyKind;
use hayat::{
    Batch, Campaign, ExecutorError, ExecutorOptions, FleetAccumulator, GateSite, Jobs,
    RunDescriptor, RunMetrics, RunUpdate, SimulationConfig,
};
use hayat_telemetry::{MemoryRecorder, NullRecorder, Recorder};
use proptest::prelude::*;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The smallest non-degenerate campaign knobs that still exercise every
/// layer (variation, thermal transient, DTM, aging table, policies).
fn small_config(chips: usize, epochs: usize, dark: f64, seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = chips;
    config.years = 0.5 * epochs as f64;
    config.epoch_years = 0.5;
    config.mesh = (4, 4);
    config.transient_window_seconds = 0.05;
    config.dark_fraction = dark;
    config.workload_seed = seed;
    config
}

proptest! {
    // Each case runs one serial + one parallel campaign; keep the count
    // small because every run is a real multi-layer simulation.
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial(
        jobs in 1usize..=8,
        chips in 1usize..=3,
        epochs in 1usize..=3,
        dark_pick in 0usize..3,
        seed in 0u64..1000,
        policy_mask in 1usize..8,
    ) {
        let dark = [0.25, 0.375, 0.5][dark_pick];
        // A non-empty, order-preserving subset of the policy grid.
        let policies: Vec<PolicyKind> =
            [PolicyKind::Hayat, PolicyKind::Vaa, PolicyKind::Random]
                .into_iter()
                .enumerate()
                .filter(|(i, _)| policy_mask & (1 << i) != 0)
                .map(|(_, kind)| kind)
                .collect();
        let campaign = Campaign::new(small_config(chips, epochs, dark, seed)).unwrap();

        let serial = campaign.run_with_jobs(&policies, Jobs::serial());
        let parallel = campaign.run_with_jobs(&policies, Jobs::new(jobs).unwrap());

        prop_assert_eq!(&serial, &parallel);
        // The CI determinism gate compares exported JSON byte-for-byte;
        // assert the same representation-level property here.
        prop_assert_eq!(
            serde_json::to_string_pretty(&serial).unwrap(),
            serde_json::to_string_pretty(&parallel).unwrap()
        );
    }

    #[test]
    fn batched_campaign_is_byte_identical_to_serial(
        batch in 1usize..=16,
        jobs_pick in 0usize..2,
        chips in 1usize..=3,
        epochs in 1usize..=2,
        seed in 0u64..1000,
    ) {
        // The claim width only changes how runs are handed to workers, like
        // `--jobs`: random widths crossed with serial and 4-worker pools
        // must reproduce one-run claims byte-for-byte — per-run JSON *and*
        // the folded fleet-statistics JSON.
        let policies = [PolicyKind::Hayat, PolicyKind::Vaa];
        let jobs = [Jobs::serial(), Jobs::new(4).unwrap()][jobs_pick];

        let serial_fleet = Mutex::new(FleetAccumulator::new());
        let serial = Campaign::new(small_config(chips, epochs, 0.5, seed))
            .unwrap()
            .try_run_observed(
                &policies,
                Jobs::serial(),
                Arc::new(NullRecorder),
                Some(&serial_fleet),
                None,
            )
            .unwrap();

        let batched_fleet = Mutex::new(FleetAccumulator::new());
        let batched = Campaign::new(small_config(chips, epochs, 0.5, seed))
            .unwrap()
            .with_batch(Batch::new(batch).unwrap())
            .try_run_observed(
                &policies,
                jobs,
                Arc::new(NullRecorder),
                Some(&batched_fleet),
                None,
            )
            .unwrap();

        prop_assert_eq!(&serial, &batched);
        prop_assert_eq!(
            serde_json::to_string_pretty(&serial).unwrap(),
            serde_json::to_string_pretty(&batched).unwrap()
        );
        let summarize = |fleet: &Mutex<FleetAccumulator>| {
            let mut fleet = fleet.lock().unwrap();
            fleet.finish();
            serde_json::to_string_pretty(&fleet.summary()).unwrap()
        };
        prop_assert_eq!(summarize(&serial_fleet), summarize(&batched_fleet));
    }
}

/// Runs `descriptors` under `options` and returns the completed metrics in
/// canonical descriptor order, however the workers interleaved them.
fn collect(
    campaign: &Campaign,
    descriptors: &[RunDescriptor],
    options: &ExecutorOptions<'_>,
) -> Vec<RunMetrics> {
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let mut metrics: Vec<Option<RunMetrics>> = (0..descriptors.len()).map(|_| None).collect();
    campaign
        .execute(descriptors, None, options, &recorder, |update| {
            if let RunUpdate::Completed { index, metrics: m } = update {
                metrics[index] = Some(*m);
            }
            Ok(())
        })
        .expect("campaign completes");
    metrics
        .into_iter()
        .map(|m| m.expect("every run completed"))
        .collect()
}

proptest! {
    // Each case runs a serial reference plus a worker pool over a gate
    // that busy-spins a random per-chip cost, so which worker claims which
    // runs varies case to case while the merged output may not.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn shared_cursor_is_byte_identical_to_serial_under_skewed_costs(
        jobs in 2usize..=4,
        chips in 2usize..=4,
        batch in 1usize..=3,
        seed in 0u64..1000,
        weights in prop::collection::vec(0u64..4, 4),
    ) {
        let campaign = Campaign::new(small_config(chips, 1, 0.5, seed))
            .unwrap()
            .with_batch(Batch::new(batch).unwrap());
        let descriptors = campaign.grid(&[PolicyKind::Hayat, PolicyKind::Vaa]);
        // Random skew: each chip's run is front-loaded with 0-3 x 150 us
        // of busy-spin, so claim costs differ and fast workers claim more.
        let gate = |site: GateSite, run: &RunDescriptor| -> Result<(), hayat::DynError> {
            if site == GateSite::Run {
                let until =
                    Instant::now() + Duration::from_micros(weights[run.chip % weights.len()] * 150);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            Ok(())
        };
        let reference = collect(&campaign, &descriptors, &ExecutorOptions {
            jobs: Jobs::serial(),
            gate: Some(&gate),
            ..ExecutorOptions::default()
        });
        let parallel = collect(&campaign, &descriptors, &ExecutorOptions {
            jobs: Jobs::new(jobs).unwrap(),
            gate: Some(&gate),
            ..ExecutorOptions::default()
        });
        prop_assert_eq!(&reference, &parallel);
        prop_assert_eq!(
            serde_json::to_string_pretty(&reference).unwrap(),
            serde_json::to_string_pretty(&parallel).unwrap()
        );
    }
}

#[test]
fn concurrent_panics_surface_the_lowest_index() {
    let campaign = Campaign::new(small_config(2, 1, 0.5, 7)).unwrap();
    let descriptors = campaign.grid(&[PolicyKind::CoolestFirst]);
    assert_eq!(descriptors.len(), 2);

    // Two workers, two claims: whichever worker pulls a claim first parks
    // at the barrier, so the other pulls the second claim. The barrier
    // guarantees both are inside their run gate before either panics, so
    // two WorkerPanics race into the failure slot — and the lowest-index
    // rule must surface descriptor 0 every time.
    let barrier = Barrier::new(2);
    let gate = |site: GateSite, run: &RunDescriptor| -> Result<(), hayat::DynError> {
        if site == GateSite::Run {
            barrier.wait();
            panic!("synchronized gate panic on chip {}", run.chip);
        }
        Ok(())
    };
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    for _ in 0..5 {
        let err = campaign
            .execute(
                &descriptors,
                None,
                &ExecutorOptions {
                    jobs: Jobs::new(2).unwrap(),
                    gate: Some(&gate),
                    ..ExecutorOptions::default()
                },
                &recorder,
                |_| Ok(()),
            )
            .unwrap_err();
        match err {
            ExecutorError::WorkerPanic { chip, message, .. } => {
                assert_eq!(chip, 0, "lowest-indexed failure must win the slot");
                assert!(message.contains("chip 0"));
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }
}

#[test]
fn worker_panic_is_captured_as_an_error_not_a_hang() {
    let campaign = Campaign::new(small_config(1, 1, 0.5, 7)).unwrap();
    // Descriptor 1 names a chip outside the population: the worker that
    // pulls it panics in `system_for`. The pool must still drain, join,
    // and report the panic as an error.
    let descriptors = [
        RunDescriptor {
            index: 0,
            kind: PolicyKind::CoolestFirst,
            chip: 0,
        },
        RunDescriptor {
            index: 1,
            kind: PolicyKind::CoolestFirst,
            chip: 99,
        },
    ];
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let err = campaign
        .execute(
            &descriptors,
            None,
            &ExecutorOptions {
                jobs: Jobs::new(2).unwrap(),
                ..ExecutorOptions::default()
            },
            &recorder,
            |_| Ok(()),
        )
        .unwrap_err();
    match err {
        ExecutorError::WorkerPanic { chip, message, .. } => {
            assert_eq!(chip, 99);
            assert!(!message.is_empty());
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

#[test]
fn infallible_campaign_wrappers_resume_worker_panics() {
    // `Campaign::run` has always panicked when a run panics; the executor
    // must preserve that contract rather than swallow the error.
    let campaign = Campaign::new(small_config(1, 1, 0.5, 7)).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        campaign.run_one(PolicyKind::Hayat, 99)
    }));
    assert!(result.is_err(), "out-of-range chip still panics");
}

#[test]
fn gate_error_aborts_the_pool_with_the_injected_source() {
    let campaign = Campaign::new(small_config(2, 2, 0.5, 3)).unwrap();
    let descriptors = campaign.grid(&[PolicyKind::CoolestFirst]);
    let gate = |site: GateSite, run: &RunDescriptor| -> Result<(), hayat::DynError> {
        if site == GateSite::Run && run.chip == 1 {
            Err("injected refusal".into())
        } else {
            Ok(())
        }
    };
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let mut completed = Vec::new();
    let err = campaign
        .execute(
            &descriptors,
            None,
            &ExecutorOptions {
                jobs: Jobs::serial(),
                gate: Some(&gate),
                ..ExecutorOptions::default()
            },
            &recorder,
            |update| {
                if let RunUpdate::Completed { index, .. } = update {
                    completed.push(index);
                }
                Ok(())
            },
        )
        .unwrap_err();
    match err {
        ExecutorError::RunAborted { chip, source, .. } => {
            assert_eq!(chip, 1);
            assert!(source.to_string().contains("injected refusal"));
        }
        other => panic!("expected RunAborted, got {other}"),
    }
    assert_eq!(completed, vec![0], "chip 0 completed before the abort");
}

#[test]
fn sink_error_stops_the_campaign() {
    let campaign = Campaign::new(small_config(2, 1, 0.5, 11)).unwrap();
    let descriptors = campaign.grid(&[PolicyKind::CoolestFirst, PolicyKind::Random]);
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let mut seen = 0usize;
    let err = campaign
        .execute(
            &descriptors,
            None,
            &ExecutorOptions {
                jobs: Jobs::new(2).unwrap(),
                ..ExecutorOptions::default()
            },
            &recorder,
            |_| {
                seen += 1;
                if seen == 2 {
                    Err("disk full".into())
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
    match err {
        ExecutorError::SinkAborted { source } => {
            assert!(source.to_string().contains("disk full"));
        }
        other => panic!("expected SinkAborted, got {other}"),
    }
}

#[test]
fn recorded_parallel_campaign_telemetry_is_scheduling_independent() {
    let campaign = Campaign::new(small_config(2, 2, 0.5, 5)).unwrap();
    let policies = [PolicyKind::Hayat];

    let serial_rec = Arc::new(MemoryRecorder::new());
    let serial = campaign
        .try_run(&policies, Jobs::serial(), serial_rec.clone())
        .unwrap();
    let parallel_rec = Arc::new(MemoryRecorder::new());
    let parallel = campaign
        .try_run(&policies, Jobs::new(4).unwrap(), parallel_rec.clone())
        .unwrap();
    assert_eq!(serial, parallel);

    let s = serial_rec.summary();
    let p = parallel_rec.summary();
    // Counters and span *counts* are scheduling-independent (durations are
    // wall-clock and may differ).
    assert_eq!(
        s.counter_total("campaign.runs_completed"),
        p.counter_total("campaign.runs_completed")
    );
    assert_eq!(
        s.counter_total("dtm.migrations"),
        p.counter_total("dtm.migrations")
    );
    assert_eq!(
        s.span("campaign.chip").map(|sp| sp.count),
        p.span("campaign.chip").map(|sp| sp.count)
    );
    assert_eq!(
        s.span("engine.epoch").map(|sp| sp.count),
        p.span("engine.epoch").map(|sp| sp.count)
    );
    // One worker span per pool thread; the jobs gauge reports the pool
    // width (capped by the grid: 2 runs here).
    assert_eq!(s.span("campaign.worker").map(|sp| sp.count), Some(1));
    assert_eq!(p.span("campaign.worker").map(|sp| sp.count), Some(2));
    assert_eq!(s.gauge("campaign.jobs").map(|g| g.last), Some(1.0));
    assert_eq!(p.gauge("campaign.jobs").map(|g| g.last), Some(2.0));
    // The per-worker busy gauge is diagnostic-only but must be present:
    // it is how a profile reads each worker's share of pool wall time.
    assert!(
        p.gauge("campaign.worker_busy_seconds").is_some(),
        "worker busy gauge missing"
    );
}

#[test]
fn claim_width_keeps_per_run_spans_inside_worker_busy_time() {
    // One worker runs the same campaign in one-run claims and in one
    // eight-run claim. Each run steps on its own either way: one
    // `thermal.transient.step` span per run, epoch and control period, and
    // the runs' `campaign.chip` spans fit inside the worker's busy time.
    let config = small_config(4, 2, 0.5, 9);
    let policies = [PolicyKind::Hayat, PolicyKind::Vaa];
    let runs = (config.chip_count * policies.len()) as u64;
    let steps = (config.transient_window_seconds / config.control_period_seconds)
        .round()
        .max(1.0) as u64;
    let expected_steps = runs * config.epoch_count() as u64 * steps;
    for width in [1, 8] {
        let recorder = Arc::new(MemoryRecorder::new());
        Campaign::new(config.clone())
            .unwrap()
            .with_batch(Batch::new(width).unwrap())
            .try_run(&policies, Jobs::serial(), recorder.clone())
            .unwrap();
        let summary = recorder.summary();
        assert_eq!(
            summary.span("thermal.transient.step").map(|sp| sp.count),
            Some(expected_steps),
            "claim width {width}"
        );
        let chips = summary.span("campaign.chip").expect("chip spans");
        assert_eq!(chips.count, runs, "claim width {width}");
        let busy = summary
            .gauge("campaign.worker_busy_seconds")
            .expect("busy gauge")
            .last;
        assert!(
            chips.total_seconds <= busy,
            "claim width {width}: chip spans {} s exceed worker busy time {busy} s",
            chips.total_seconds
        );
    }
}
