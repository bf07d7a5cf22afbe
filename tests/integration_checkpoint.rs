//! End-to-end crash/resume tests: a campaign killed by an injected fault
//! and resumed from its checkpoint must be **bit-identical** to an
//! uninterrupted one — across policies, dark fractions, fault sites, and
//! repeated crash/resume cycles.

use hayat::sim::campaign::PolicyKind;
use hayat::{Batch, Campaign, Jobs, Schedule, SearchPath, SimulationConfig, SimulationEngine};
use hayat_checkpoint::{
    CampaignCheckpoint, CampaignCheckpointExt, CheckpointError, Checkpointer, FailMode, FailPoint,
    FAILPOINT_CHIP, FAILPOINT_EPOCH,
};
use hayat_telemetry::MemoryRecorder;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// A small but non-trivial campaign: 2 chips × 4 epochs on a 4×4 mesh.
fn tiny_config(dark_fraction: f64) -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.dark_fraction = dark_fraction;
    config.mesh = (4, 4);
    config.transient_window_seconds = 0.1;
    config
}

/// A unique scratch path per test (the OS temp dir survives sandboxes).
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hayat_ckpt_{name}_{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn killed_and_resumed_matches_uninterrupted_for_all_policies_and_dark_fractions() {
    for dark in [0.25, 0.5] {
        let campaign = Campaign::new(tiny_config(dark)).unwrap();
        for kind in [PolicyKind::Hayat, PolicyKind::Vaa] {
            let uninterrupted = campaign.run(&[kind]);
            let path = scratch(&format!("kill_{dark}_{}", kind.name()));

            // Fault mid-chip: epoch 3 of 8 total (chip 0's fourth epoch).
            let interrupted = Checkpointer::new(&path)
                .every(1)
                .with_failpoint(FailPoint::armed(FAILPOINT_EPOCH, 3, FailMode::Error))
                .run(&campaign, &[kind]);
            assert!(
                matches!(interrupted, Err(CheckpointError::Injected(_))),
                "the armed fail point must abort the campaign"
            );

            let resumed = Checkpointer::new(&path).resume(&campaign).unwrap();
            assert_eq!(
                resumed,
                uninterrupted,
                "resumed campaign must be bit-identical ({} at dark {dark})",
                kind.name()
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn crash_at_chip_boundary_skips_completed_runs_verbatim() {
    let campaign = Campaign::new(tiny_config(0.5)).unwrap();
    let policies = [PolicyKind::Hayat, PolicyKind::Vaa];
    let uninterrupted = campaign.run(&policies);
    let path = scratch("chip_boundary");

    // Fault at the third job: both Hayat chips are already durable. Serial
    // jobs pin which runs are durable when the fault fires — with more
    // workers the later jobs would already be in flight and be abandoned,
    // making the skipped-run count scheduling-dependent.
    let interrupted = Checkpointer::new(&path)
        .jobs(Jobs::serial())
        .with_failpoint(FailPoint::armed(FAILPOINT_CHIP, 3, FailMode::Error))
        .run(&campaign, &policies);
    assert!(interrupted.is_err());

    let recorder = Arc::new(MemoryRecorder::new());
    let resumed = Checkpointer::new(&path)
        .with_recorder(recorder.clone())
        .resume(&campaign)
        .unwrap();
    assert_eq!(resumed, uninterrupted);

    let summary = recorder.summary();
    assert_eq!(
        summary.counter_total("campaign.runs_skipped"),
        Some(2),
        "both completed Hayat runs must be taken from the checkpoint"
    );
    assert_eq!(summary.counter_total("campaign.runs_completed"), Some(2));
    assert_eq!(summary.span("campaign.resume").map(|s| s.count), Some(1));
    assert!(summary.counter_total("checkpoint.writes").unwrap_or(0) >= 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_crash_resume_cycles_compose() {
    let campaign = Campaign::new(tiny_config(0.25)).unwrap();
    let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
    let uninterrupted = campaign.run(&policies);
    let path = scratch("repeated");

    // Crash twice at different points, resuming in between; hit counters
    // are per-Checkpointer, so each cycle's fault lands further along.
    assert!(Checkpointer::new(&path)
        .every(1)
        .with_failpoint(FailPoint::armed(FAILPOINT_EPOCH, 2, FailMode::Error))
        .run(&campaign, &policies)
        .is_err());
    assert!(Checkpointer::new(&path)
        .every(1)
        .with_failpoint(FailPoint::armed(FAILPOINT_EPOCH, 4, FailMode::Error))
        .resume(&campaign)
        .is_err());
    let resumed = campaign.resume(&path).unwrap();
    assert_eq!(resumed, uninterrupted);
    std::fs::remove_file(&path).ok();
}

#[test]
fn panic_mid_campaign_leaves_a_resumable_checkpoint() {
    let campaign = Campaign::new(tiny_config(0.5)).unwrap();
    let uninterrupted = campaign.run(&[PolicyKind::Hayat]);
    let path = scratch("panic");

    // The executor catches the worker's panic and surfaces it as an error
    // instead of unwinding (or hanging the pool) — the other assertion of
    // the `worker panics are captured` contract lives in
    // `tests/parallel_campaign.rs` at the executor level.
    let panicked = Checkpointer::new(&path)
        .every(1)
        .with_failpoint(FailPoint::armed(FAILPOINT_EPOCH, 5, FailMode::Panic))
        .run(&campaign, &[PolicyKind::Hayat]);
    match panicked {
        Err(CheckpointError::WorkerPanic { message, .. }) => {
            assert!(
                message.contains("injected"),
                "got panic message {message:?}"
            );
        }
        other => panic!("expected a captured WorkerPanic, got {other:?}"),
    }

    let resumed = campaign.resume(&path).unwrap();
    assert_eq!(resumed, uninterrupted);
    std::fs::remove_file(&path).ok();
}

#[test]
fn parallel_checkpointed_run_matches_serial_and_uncheckpointed() {
    let campaign = Campaign::new(tiny_config(0.25)).unwrap();
    let policies = [PolicyKind::Hayat, PolicyKind::Vaa];
    let plain = campaign.run(&policies);

    let serial_path = scratch("jobs_serial");
    let serial = Checkpointer::new(&serial_path)
        .every(1)
        .jobs(Jobs::serial())
        .run(&campaign, &policies)
        .unwrap();

    let parallel_path = scratch("jobs_parallel");
    let parallel = Checkpointer::new(&parallel_path)
        .every(1)
        .jobs(Jobs::new(4).unwrap())
        .run(&campaign, &policies)
        .unwrap();

    assert_eq!(serial, plain, "checkpointing must not change results");
    assert_eq!(parallel, serial, "worker count must not change results");
    // Byte-level equality of the exported JSON, the same property the CI
    // determinism gate enforces through the campaign binary.
    assert_eq!(
        serde_json::to_string(&parallel).unwrap(),
        serde_json::to_string(&serial).unwrap()
    );
    std::fs::remove_file(&serial_path).ok();
    std::fs::remove_file(&parallel_path).ok();
}

#[test]
fn checkpoint_resumes_byte_identical_across_schedule_changes() {
    // Neither the schedule nor the batch width is part of the checkpoint:
    // completed runs are keyed by canonical descriptor index, so a campaign
    // checkpointed under the static cursor resumes under work stealing (and
    // vice versa), and a 3-wide checkpointed run resumes at width 3 or 1,
    // to the same bytes as an uninterrupted run. Resuming 3-wide puts the
    // restored lane in one claim with fresh lanes that start at epoch 0.
    let policies = [PolicyKind::Hayat, PolicyKind::Vaa];
    let campaign = |batch: usize| {
        Campaign::new(tiny_config(0.5))
            .unwrap()
            .with_batch(Batch::new(batch).unwrap())
    };
    let uninterrupted = campaign(1).run(&policies);

    // (schedule, batch) of the interrupted run, then of the resumed one. The
    // 3-wide run fails at epoch hit 8: claim [0, 1, 2] makes three hits per
    // epoch and claim [3] at most four in all, so descriptor 0 has
    // finished an epoch and its snapshot is in flight.
    for (fail_at, (from, from_batch), (to, to_batch)) in [
        (5, (Schedule::Static, 1), (Schedule::Steal, 1)),
        (5, (Schedule::Steal, 1), (Schedule::Static, 1)),
        (8, (Schedule::Static, 3), (Schedule::Static, 3)),
        (8, (Schedule::Static, 3), (Schedule::Static, 1)),
    ] {
        let path = scratch(&format!("sched_{from}_{from_batch}_{to}_{to_batch}"));
        let interrupted = Checkpointer::new(&path)
            .every(1)
            .jobs(Jobs::new(2).unwrap())
            .schedule(from)
            .with_failpoint(FailPoint::armed(FAILPOINT_EPOCH, fail_at, FailMode::Error))
            .run(&campaign(from_batch), &policies);
        assert!(
            matches!(interrupted, Err(CheckpointError::Injected(_))),
            "the armed fail point must abort the {from}-scheduled campaign"
        );
        if from_batch > 1 {
            let checkpoint = CampaignCheckpoint::load(&path).unwrap();
            assert!(
                checkpoint.in_flight.is_some(),
                "the batched run must die with a snapshot in flight"
            );
        }

        let resumed = Checkpointer::new(&path)
            .jobs(Jobs::new(2).unwrap())
            .schedule(to)
            .resume(&campaign(to_batch))
            .unwrap();
        assert_eq!(
            resumed, uninterrupted,
            "checkpointed under {from} at batch {from_batch}, \
             resumed under {to} at batch {to_batch}"
        );
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&uninterrupted).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_config() {
    let quarter = Campaign::new(tiny_config(0.25)).unwrap();
    let half = Campaign::new(tiny_config(0.5)).unwrap();
    let path = scratch("mismatch");

    quarter
        .run_checkpointed(&[PolicyKind::Hayat], &path)
        .unwrap();
    let err = half.resume(&path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "got {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn completed_checkpoint_resumes_instantly_without_rerunning() {
    let campaign = Campaign::new(tiny_config(0.5)).unwrap();
    let path = scratch("instant");
    let first = campaign
        .run_checkpointed(&[PolicyKind::CoolestFirst], &path)
        .unwrap();

    let recorder = Arc::new(MemoryRecorder::new());
    let resumed = Checkpointer::new(&path)
        .with_recorder(recorder.clone())
        .resume(&campaign)
        .unwrap();
    assert_eq!(first, resumed);
    assert_eq!(
        recorder.summary().counter_total("campaign.runs_completed"),
        None,
        "a finished campaign must not re-run anything"
    );
    std::fs::remove_file(&path).ok();
}

/// The cross-version regression gate for the decision-path fast kernels.
///
/// `fixtures/pre_pr5.ckpt` and `fixtures/pre_pr5_reference.json` were
/// produced by the code *before* the flattened aging table, the direct
/// age-curve inversion, the fused superposition scans, and the policy
/// scratch landed — when every policy decision still ran the bisection
/// oracle. The checkpoint holds a half-finished decade campaign (both VAA
/// runs durable, Hayat chip 0 in flight); the reference is the full
/// uninterrupted campaign's `--json` export at `--jobs 1`. Resuming that
/// checkpoint with today's default fast path must complete the campaign
/// and reproduce the pre-refactor export byte for byte.
#[test]
fn pre_refactor_fixture_resumes_byte_identical_on_the_fast_path() {
    // The exact flags the fixture was generated with:
    // --chips 2 --years 10 --epoch 0.5 --window 0.1 --mesh 4.
    let mut config = SimulationConfig::paper(0.5);
    config.chip_count = 2;
    config.years = 10.0;
    config.epoch_years = 0.5;
    config.transient_window_seconds = 0.1;
    config.mesh = (4, 4);
    let reference = include_str!("fixtures/pre_pr5_reference.json");

    // Resume under both search paths: the tiled candidate index (today's
    // default) and the exhaustive scan the fixture era actually ran. The
    // search path is a runtime knob outside the checkpoint hash, so both
    // must complete the half-finished campaign and reproduce the
    // oracle-era export byte for byte.
    for (name, path_kind) in [
        ("tiled", SearchPath::Tiled),
        ("exhaustive", SearchPath::Exhaustive),
    ] {
        let path = scratch(&format!("pre_pr5_fixture_{name}"));
        // Resume rewrites the checkpoint in place, so work on a copy.
        std::fs::write(&path, include_bytes!("fixtures/pre_pr5.ckpt")).unwrap();
        let campaign = Campaign::new(config.clone())
            .unwrap()
            .with_search_path(path_kind);

        let result = Checkpointer::new(&path)
            .jobs(Jobs::serial())
            .resume(&campaign)
            .expect("the committed fixture must stay resumable");

        let json = serde_json::to_string_pretty(&result).unwrap();
        assert_eq!(
            json.trim_end(),
            reference.trim_end(),
            "the {name} decision path changed the campaign the oracle-era code produced"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// The engine-level property behind all of the above: snapshotting at an
/// arbitrary epoch and restoring into a *fresh* engine reproduces the
/// original trajectory bit-for-bit. Shared campaign so the expensive
/// offline artifacts are built once.
fn shared_campaign() -> &'static Campaign {
    static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| Campaign::new(tiny_config(0.5)).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn snapshot_restore_at_random_epoch_reproduces_trajectory(
        cut in 0usize..4,
        chip in 0usize..2,
        policy_pick in 0usize..3,
    ) {
        let campaign = shared_campaign();
        let config = campaign.config();
        let kind = [PolicyKind::Hayat, PolicyKind::Vaa, PolicyKind::Random][policy_pick];
        let seed = config.workload_seed ^ chip as u64;

        let build = || {
            SimulationEngine::new(campaign.system_for(chip), kind.instantiate(seed), config)
        };

        let mut reference = build();
        let mut expected = reference.start_metrics();
        for epoch in 0..config.epoch_count() {
            expected.epochs.push(reference.run_epoch(epoch));
        }
        reference.finalize_metrics(&mut expected);

        // Run to the cut, snapshot, and hand the state to a fresh engine.
        let mut first_half = build();
        let mut metrics = first_half.start_metrics();
        for epoch in 0..cut {
            metrics.epochs.push(first_half.run_epoch(epoch));
        }
        let snapshot = first_half.snapshot(cut);
        drop(first_half);

        let mut second_half = build();
        second_half.restore(&snapshot).expect("shapes match");
        for epoch in cut..config.epoch_count() {
            metrics.epochs.push(second_half.run_epoch(epoch));
        }
        second_half.finalize_metrics(&mut metrics);

        prop_assert_eq!(metrics, expected);
    }
}
