//! Perf-trajectory benchmark: emits `BENCH_9.json` at the repo root with a
//! **campaign scaling** section measuring the parallel executor at
//! `--jobs 1/2/4`, plus a **scheduler** section timing the shared claim
//! cursor at `--jobs 1/2/4` on a skewed-cost campaign (every fourth chip
//! busy-spins 9x longer in the run gate) and recording per-worker
//! busy-time utilization, plus a **decision path** section gating the
//! table-advance micro — the direct age-curve inversion every decision
//! uses against the bisection oracle it replaced — at 5x, plus an
//! **observability** section gating the streaming fleet-sketch
//! aggregator's overhead at under 2% of campaign wall time, plus a
//! **large floorplan** section sweeping the mesh through 8×8 / 16×16 /
//! 32×32 (and 64×64 under `--full`) and racing the tiled candidate index
//! against the exhaustive scan on one aged-chip Hayat decision per size,
//! with a hard tiled-at-least-5x gate at 32×32 and the per-chip epoch
//! wall time recorded alongside.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hayat-bench --bin bench            # fast mode
//! cargo run --release -p hayat-bench --bin bench -- --full  # more reps
//! cargo run --release -p hayat-bench --bin bench -- --out PATH.json
//! cargo run --release -p hayat-bench --bin bench -- --jobs 8
//! ```
//!
//! Fast mode (the default, used by the CI smoke) runs each kernel a
//! handful of times and reports the best wall-time; `--full` adds
//! repetitions for quieter numbers. The JSON format is documented in
//! `EXPERIMENTS.md`.
//!
//! The scaling section always checks the determinism contract (4-job JSON
//! byte-identical to serial), then sweeps `jobs ∈ {1, 2, 4}` over a fixed
//! 8-chip Hayat campaign — `--jobs N|auto` (default `auto` = available
//! parallelism) adds one extra sweep point — and records the host's
//! available parallelism alongside the timings. On a single-CPU host the
//! timing sweep is skipped outright (every point would be a misleading
//! flat ~1x) and the report says so instead of emitting the flat points.

use hayat::{
    Campaign, ChipSystem, ExecutorOptions, FleetAccumulator, GateSite, HayatPolicy, HayatReference,
    Jobs, Policy, PolicyContext, PolicyScratch, RunDescriptor, RunMetrics, RunUpdate, SearchPath,
    SimulationConfig, SimulationEngine,
};
use hayat_aging::{AgeCurveScratch, TablePath};
use hayat_telemetry::{MemoryRecorder, NullRecorder, Recorder};
use hayat_units::{DutyCycle, Kelvin, Years};
use hayat_workload::WorkloadMix;
use serde::Serialize;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Paper control period inside the transient window, seconds.
const CONTROL_PERIOD: f64 = 0.0066;
/// Paper transient window length, seconds (=> 303 control periods).
const WINDOW_SECONDS: f64 = 2.0;

#[derive(Serialize)]
struct ScalingPoint {
    jobs: usize,
    wall_seconds: f64,
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct CampaignScaling {
    /// What the sweep runs: a fixed small campaign, not the paper grid.
    config: String,
    chips: usize,
    policies: Vec<String>,
    epochs_per_run: usize,
    /// `std::thread::available_parallelism()` on the measuring host. A
    /// 4-job point can only beat serial when this is at least 2.
    host_parallelism: usize,
    /// Byte-level equality of the 4-job and serial campaign JSON, checked
    /// before timing (the same property the CI determinism gate enforces).
    deterministic_across_jobs: bool,
    /// `Some(reason)` when the timing sweep was skipped: a single-CPU host
    /// can only produce flat ~1x points, which read as a scaling failure
    /// when they are really a host limitation. The determinism check above
    /// still runs — it is a correctness property, not a timing.
    sweep_skipped: Option<String>,
    points: Vec<ScalingPoint>,
    /// `None` when the sweep was skipped.
    speedup_at_4_jobs: Option<f64>,
}

/// Per-worker busy-time spread at the scheduler sweep's widest jobs
/// point, from the `campaign.worker_busy_seconds` gauge.
#[derive(Serialize)]
struct WorkerUtilization {
    jobs: usize,
    wall_seconds: f64,
    /// Least-loaded worker's busy time over pool wall time.
    min_busy_fraction: f64,
    /// Most-loaded worker's busy time over pool wall time.
    max_busy_fraction: f64,
}

/// The shared claim cursor on a skewed-cost campaign. Workers pull the
/// next unstarted claim with one `fetch_add`, a greedy pull at claim
/// granularity, so a heavy claim never strands light ones behind it. The
/// `ci/scaling_gate.py` gate requires the jobs-4 speedup floor on
/// multi-core runners.
#[derive(Serialize)]
struct SchedulerSection {
    /// What the sweep runs: a fixed small campaign with gate-injected skew.
    config: String,
    chips: usize,
    /// How run cost is skewed across chips (via the executor's run gate).
    skew: String,
    host_parallelism: usize,
    /// `Some(reason)` when the timing sweep was skipped (single-CPU host;
    /// mirrors the campaign-scaling section).
    sweep_skipped: Option<String>,
    points: Vec<ScalingPoint>,
    /// Jobs-1 wall over jobs-4 wall; `None` when skipped.
    speedup_at_4_jobs: Option<f64>,
    /// Busy-time spread at 4 jobs (recorded even when the timing sweep is
    /// skipped; on a single-CPU host the fractions reflect timesharing, not
    /// placement).
    utilization: WorkerUtilization,
}

/// The gated table-advance micro: the direct age-curve inversion every
/// decision uses against the bisection oracle it replaced.
#[derive(Serialize)]
struct DecisionPath {
    /// What the micro runs.
    setup: String,
    /// Table-advance micro: direct age-curve inversion vs 64-step bisection
    /// over the same (temperature, duty, health) sequence.
    table_advance_fast_seconds: f64,
    table_advance_oracle_seconds: f64,
    table_advance_speedup: f64,
    /// Hard perf gate: the fast advance must be at least 5x the oracle.
    advance_gate_ok: bool,
}

/// Overhead of the fleet observability layer: the fixed scaling campaign
/// run plain (`run_with_jobs`) against the same campaign streamed through
/// a [`FleetAccumulator`] with its summary rendered at the end.
#[derive(Serialize)]
struct Observability {
    /// What the comparison runs (the scaling sweep's fixed campaign).
    config: String,
    chips: usize,
    epochs_per_run: usize,
    /// Best-of-reps wall time without any observability attached.
    plain_seconds: f64,
    /// Best-of-reps wall time with the streaming fleet accumulator fed at
    /// the canonical merge point, including the final summary build.
    observed_seconds: f64,
    /// `(observed - plain) / plain`, clamped at zero for timing noise.
    overhead_fraction: f64,
    /// Hard gate: streaming sketches must cost under 2% of wall time.
    overhead_gate_ok: bool,
}

/// One mesh size of the large-floorplan sweep.
#[derive(Serialize)]
struct FloorplanPoint {
    size: String,
    rows: usize,
    cols: usize,
    cores: usize,
    threads: usize,
    /// One Hayat `map_threads` call (warm scratch, recycled mapping) on the
    /// aged chip: production Hayat, and the reference policy's exhaustive
    /// scan.
    tiled_decision_seconds: f64,
    exhaustive_decision_seconds: f64,
    /// `exhaustive / tiled`.
    decision_speedup: f64,
    /// One full epoch (decision + transient window + health upscale) under
    /// the tiled index — the per-chip epoch throughput unit at this size.
    tiled_epoch_seconds: f64,
}

/// A sweep point that was deliberately not measured in this mode.
#[derive(Serialize)]
struct SkippedFloorplan {
    size: String,
    reason: String,
}

/// Decision latency and per-chip epoch wall time as the mesh grows —
/// the sub-quadratic tiled candidate index against the exhaustive scan it
/// replaced. Both pick bit-identical mappings (the policy's proptests and
/// the CI determinism gate hold them to it), so the race is purely about
/// how many candidates each one touches.
#[derive(Serialize)]
struct LargeFloorplan {
    setup: String,
    aged_epochs: usize,
    points: Vec<FloorplanPoint>,
    /// Sizes not measured in this mode (64×64 chip construction factors a
    /// 4096-core variation covariance, so it only runs under `--full`).
    skipped: Vec<SkippedFloorplan>,
    /// Tiled-vs-exhaustive decision speedup at 32×32.
    speedup_at_32x32: f64,
    /// Hard perf gate: tiled must be at least 5x exhaustive at 32×32.
    tiled_gate_ok: bool,
}

#[derive(Serialize)]
struct Bench9 {
    bench: String,
    mode: String,
    control_period_seconds: f64,
    window_steps: usize,
    campaign_scaling: CampaignScaling,
    scheduler: SchedulerSection,
    decision_path: DecisionPath,
    observability: Observability,
    large_floorplan: LargeFloorplan,
}

/// Best-of-`reps` wall time of `f`, after one warm-up call.
fn time_best<F: FnMut()>(mut f: F, reps: u32) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One aging epoch (policy decision + transient window + health update) on a
/// prebuilt chip; engine construction is cheap and re-done per rep so every
/// rep starts from fresh health.
fn single_epoch_seconds(system: &ChipSystem, config: &SimulationConfig, reps: u32) -> f64 {
    time_best(
        || {
            let mut engine =
                SimulationEngine::new(system.clone(), Box::new(HayatPolicy::default()), config);
            std::hint::black_box(engine.run_epoch(0).peak_temp_kelvin);
        },
        reps,
    )
}

/// The fixed campaign the scaling sweep runs: 8 independent chips × the
/// Hayat policy × 40 quarter-year epochs with a shortened transient
/// window. Each run takes tens of milliseconds, so the pool's spawn and
/// merge overhead is noise, while the whole sweep still finishes in a few
/// seconds in fast mode.
fn scaling_config() -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 8;
    config.years = 10.0;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 1.0;
    config
}

/// Times the parallel campaign executor at `jobs ∈ {1, 2, 4}` (plus the
/// `--jobs` point when it differs) and checks the determinism contract
/// (4-job JSON byte-identical to serial) before trusting any of the
/// numbers.
fn campaign_scaling(fast: bool, extra_jobs: Jobs) -> CampaignScaling {
    let config = scaling_config();
    let campaign = Campaign::new(config.clone()).expect("scaling configuration is valid");
    let policies = [hayat::sim::campaign::PolicyKind::Hayat];
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let serial = campaign.run_with_jobs(&policies, Jobs::serial());
    let four = campaign.run_with_jobs(&policies, Jobs::new(4).expect("4 is positive"));
    let deterministic = serde_json::to_string(&serial).expect("serializable")
        == serde_json::to_string(&four).expect("serializable");
    assert!(
        deterministic,
        "4-job campaign diverged from serial — the executor merge is broken"
    );

    let sweep_skipped = (host_parallelism == 1).then(|| {
        "host parallelism is 1: every jobs point would be a flat ~1x host artifact, \
         not an executor property"
            .to_owned()
    });
    let mut points = Vec::new();
    let mut speedup_at_4_jobs = None;
    if sweep_skipped.is_none() {
        let reps = if fast { 2 } else { 5 };
        let mut sweep = vec![1usize, 2, 4];
        if !sweep.contains(&extra_jobs.get()) {
            sweep.push(extra_jobs.get());
            sweep.sort_unstable();
        }
        for jobs in sweep {
            let jobs_v = Jobs::new(jobs).expect("positive");
            let wall = time_best(
                || {
                    std::hint::black_box(campaign.run_with_jobs(&policies, jobs_v));
                },
                reps,
            );
            points.push(ScalingPoint {
                jobs,
                wall_seconds: wall,
                speedup_vs_serial: 0.0, // filled below once the serial point is known
            });
        }
        let serial_wall = points[0].wall_seconds;
        for p in &mut points {
            p.speedup_vs_serial = serial_wall / p.wall_seconds;
        }
        speedup_at_4_jobs = points
            .iter()
            .find(|p| p.jobs == 4)
            .map(|p| p.speedup_vs_serial);
    }

    println!(
        "  campaign scaling ({} chips x Hayat, {} epochs, host parallelism {}):",
        config.chip_count,
        config.epoch_count(),
        host_parallelism
    );
    if let Some(reason) = &sweep_skipped {
        println!("    jobs sweep skipped: {reason}");
    }
    for p in &points {
        println!(
            "    jobs {}: {:7.3} s  ({:.2}x vs serial)",
            p.jobs, p.wall_seconds, p.speedup_vs_serial
        );
    }

    CampaignScaling {
        config: "quick_demo, 8 chips, 10 years in 0.25-year epochs, 1 s transient window"
            .to_owned(),
        chips: config.chip_count,
        policies: policies.iter().map(|p| p.name().to_owned()).collect(),
        epochs_per_run: config.epoch_count(),
        host_parallelism,
        deterministic_across_jobs: deterministic,
        sweep_skipped,
        points,
        speedup_at_4_jobs,
    }
}

/// Skew unit injected by the scheduler race's run gate: heavy chips spin
/// nine of these before their run starts, light chips one.
const SCHED_SPIN: Duration = Duration::from_micros(1500);

/// Deterministic busy-spin — compute load without touching any physics.
fn spin_for(duration: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < duration {
        std::hint::spin_loop();
    }
}

/// Per-chip skew weight: every fourth chip is a 9x-cost outlier, so a
/// schedule that fixed each worker's share up front would leave some
/// workers idle while others finish their heavy claims.
fn sched_skew_weight(chip: usize) -> u32 {
    if chip.is_multiple_of(4) {
        9
    } else {
        1
    }
}

/// Runs the skewed campaign and returns the canonical per-run metrics (the
/// byte-comparable campaign output).
fn run_skewed(
    campaign: &Campaign,
    descriptors: &[RunDescriptor],
    jobs: Jobs,
    recorder: &Arc<dyn Recorder>,
) -> Vec<RunMetrics> {
    let gate = |site: GateSite, run: &RunDescriptor| -> Result<(), hayat::DynError> {
        if site == GateSite::Run {
            spin_for(SCHED_SPIN * sched_skew_weight(run.chip));
        }
        Ok(())
    };
    let mut runs: Vec<Option<RunMetrics>> = (0..descriptors.len()).map(|_| None).collect();
    campaign
        .execute(
            descriptors,
            None,
            &ExecutorOptions {
                jobs,
                gate: Some(&gate),
                ..ExecutorOptions::default()
            },
            recorder,
            |update| {
                if let RunUpdate::Completed { index, metrics } = update {
                    runs[index] = Some(*metrics);
                }
                Ok(())
            },
        )
        .expect("skewed campaign runs");
    runs.into_iter()
        .map(|r| r.expect("every run completes"))
        .collect()
}

/// Times the shared claim cursor at `jobs ∈ {1, 2, 4}` on the skewed
/// campaign and records the per-worker busy-time spread at 4 jobs.
fn scheduler_section(fast: bool) -> SchedulerSection {
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 12;
    config.years = 0.25;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    let campaign = Campaign::new(config.clone()).expect("scheduler configuration is valid");
    let policies = [hayat::sim::campaign::PolicyKind::Hayat];
    let descriptors = campaign.grid(&policies);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let null: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let four = Jobs::new(4).expect("4 is positive");

    // Busy-time spread at the widest jobs point, from one instrumented run.
    let memory = Arc::new(MemoryRecorder::new());
    let recorder: Arc<dyn Recorder> = memory.clone();
    let t0 = Instant::now();
    std::hint::black_box(run_skewed(&campaign, &descriptors, four, &recorder));
    let wall = t0.elapsed().as_secs_f64();
    let (min_busy, max_busy) = memory
        .summary()
        .gauge("campaign.worker_busy_seconds")
        .map_or((0.0, 0.0), |g| (g.min, g.max));
    let utilization = WorkerUtilization {
        jobs: four.get(),
        wall_seconds: wall,
        min_busy_fraction: min_busy / wall,
        max_busy_fraction: max_busy / wall,
    };

    let sweep_skipped = (host_parallelism == 1).then(|| {
        "host parallelism is 1: every jobs point would be a flat host artifact, \
         not a scheduler property"
            .to_owned()
    });
    let mut points = Vec::new();
    let mut speedup_at_4_jobs = None;
    if sweep_skipped.is_none() {
        let reps = if fast { 2 } else { 5 };
        for jobs in [1usize, 2, 4] {
            let jobs_v = Jobs::new(jobs).expect("positive");
            let wall = time_best(
                || {
                    std::hint::black_box(run_skewed(&campaign, &descriptors, jobs_v, &null));
                },
                reps,
            );
            points.push(ScalingPoint {
                jobs,
                wall_seconds: wall,
                speedup_vs_serial: 0.0, // filled below once the serial point is known
            });
        }
        let serial_wall = points[0].wall_seconds;
        for p in &mut points {
            p.speedup_vs_serial = serial_wall / p.wall_seconds;
        }
        speedup_at_4_jobs = Some(points[2].speedup_vs_serial);
    }

    println!(
        "  scheduler ({} chips x Hayat, every 4th chip 9x cost, host parallelism {}):",
        config.chip_count, host_parallelism
    );
    if let Some(reason) = &sweep_skipped {
        println!("    jobs sweep skipped: {reason}");
    }
    for p in &points {
        println!(
            "    jobs {}: {:7.3} s  ({:.2}x vs serial)",
            p.jobs, p.wall_seconds, p.speedup_vs_serial
        );
    }
    println!(
        "    busy spread at {} jobs: {:.0}%..{:.0}% of wall",
        utilization.jobs,
        utilization.min_busy_fraction * 100.0,
        utilization.max_busy_fraction * 100.0
    );

    SchedulerSection {
        config: "quick_demo, 12 chips x Hayat, 1 quarter-year epoch, 0.1 s transient window"
            .to_owned(),
        chips: config.chip_count,
        skew: format!(
            "run gate busy-spins {}x{:?} on chips = 0 (mod 4), 1x on the rest (9:1 per-claim \
             cost ratio)",
            9, SCHED_SPIN
        ),
        host_parallelism,
        sweep_skipped,
        points,
        speedup_at_4_jobs,
        utilization,
    }
}

/// Times the scaling campaign plain vs with a streaming fleet accumulator
/// and gates the aggregator's overhead at under 2% of wall time. The
/// comparison runs serial so no idle worker can absorb the sketch updates.
fn observability_overhead(fast: bool) -> Observability {
    let config = scaling_config();
    let campaign = Campaign::new(config.clone()).expect("scaling configuration is valid");
    let policies = [hayat::sim::campaign::PolicyKind::Hayat];
    let reps = if fast { 5 } else { 10 };

    let run_plain = || {
        std::hint::black_box(campaign.run_with_jobs(&policies, Jobs::serial()));
    };
    let run_observed = || {
        let fleet = Mutex::new(FleetAccumulator::new());
        let result = campaign
            .try_run_observed(
                &policies,
                Jobs::serial(),
                Arc::new(NullRecorder),
                Some(&fleet),
                None,
            )
            .expect("campaign runs");
        std::hint::black_box(result);
        let mut fleet = fleet.into_inner().expect("fleet accumulator lock");
        fleet.finish();
        std::hint::black_box(fleet.summary());
    };
    // Interleave the two variants so slow host drift hits both equally.
    // Gate on the *paired* per-rep overhead minimum: each rep's plain and
    // observed runs are back-to-back, so a host-noise burst inflates both
    // sides of the same pair and cancels in the ratio — taking separate
    // minima could compare a lucky plain rep against a noisy observed one
    // and report phantom overhead.
    run_plain();
    run_observed();
    let (mut plain, mut observed) = (f64::INFINITY, f64::INFINITY);
    let mut overhead_fraction = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run_plain();
        let p = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        run_observed();
        let o = t0.elapsed().as_secs_f64();
        plain = plain.min(p);
        observed = observed.min(o);
        overhead_fraction = overhead_fraction.min(((o - p) / p).max(0.0));
    }
    let overhead_gate_ok = overhead_fraction < 0.02;
    assert!(
        overhead_gate_ok,
        "fleet observability overhead {:.2}% exceeds the 2% gate",
        overhead_fraction * 100.0
    );

    println!(
        "  observability ({} chips x Hayat, {} epochs, serial):",
        config.chip_count,
        config.epoch_count()
    );
    println!(
        "    plain {plain:7.3} s, observed {observed:7.3} s  \
         (overhead {:.2}%, gate < 2% ok)",
        overhead_fraction * 100.0
    );

    Observability {
        config: "quick_demo, 8 chips, 10 years in 0.25-year epochs, 1 s transient window"
            .to_owned(),
        chips: config.chip_count,
        epochs_per_run: config.epoch_count(),
        plain_seconds: plain,
        observed_seconds: observed,
        overhead_fraction,
        overhead_gate_ok,
    }
}

/// The configuration the decision-path and large-floorplan sections run:
/// the paper's 8×8 chip on a 10-year, 40-epoch grid, with a short transient
/// window so the decision is a meaningful share of the epoch (the window
/// cost is already measured above).
fn decision_config() -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.years = 10.0;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    config
}

/// A chip aged `epochs` epochs under the Hayat policy. Fresh chips sit at
/// full health where every candidate's age-curve cell is the same; decision
/// timings only mean something on a degraded, spread-out health map.
fn aged_system(config: &SimulationConfig, epochs: usize) -> ChipSystem {
    let system = ChipSystem::paper_chip(0, config).expect("paper chip builds");
    let mut engine = SimulationEngine::new(system, Box::new(HayatPolicy::default()), config);
    let mut metrics = engine.start_metrics();
    engine.run_epochs(0, epochs, &mut metrics);
    engine.system().clone()
}

/// One `map_threads` call of `policy` with a warm scratch and a recycled
/// mapping — the steady-state epoch decision the engine performs.
fn single_decision_seconds(
    system: &ChipSystem,
    workload: &WorkloadMix,
    horizon: Years,
    reps: u32,
    policy: &mut dyn Policy,
) -> f64 {
    let scratch = RefCell::new(PolicyScratch::new());
    let ctx = PolicyContext::new(system, horizon, Years::new(0.0)).with_scratch(&scratch);
    time_best(
        || {
            let mapping = policy.map_threads(&ctx, workload);
            scratch.borrow_mut().mapping_pool.push(mapping);
        },
        reps,
    )
}

/// Table-advance micro: the same (temperature, duty, health) chain through
/// the direct age-curve inversion and through the bisection oracle.
fn table_advance_seconds(system: &ChipSystem, path: TablePath, reps: u32) -> f64 {
    let table = system.aging_table();
    let horizon = Years::new(0.25);
    let temps: Vec<Kelvin> = (0..256)
        .map(|i| Kelvin::new(315.0 + 0.2 * f64::from(i)))
        .collect();
    let duty = DutyCycle::clamped(0.7);
    let mut scratch = AgeCurveScratch::new();
    time_best(
        || {
            let mut h = 1.0;
            for &t in &temps {
                h = match path {
                    TablePath::Fast => table.age_curve(t, duty, &mut scratch).advance(h, horizon),
                    TablePath::Oracle => table.advance(t, duty, h, horizon),
                };
            }
            std::hint::black_box(h);
        },
        reps,
    )
}

/// Times the table-advance micro fast vs oracle and gates it at 5x.
fn decision_path(fast_mode: bool) -> DecisionPath {
    let system = ChipSystem::paper_chip(0, &decision_config()).expect("paper chip builds");
    let micro_reps = if fast_mode { 20 } else { 100 };
    let advance_fast = table_advance_seconds(&system, TablePath::Fast, micro_reps);
    let advance_oracle = table_advance_seconds(&system, TablePath::Oracle, micro_reps);
    let advance_speedup = advance_oracle / advance_fast;
    assert!(
        advance_speedup >= 5.0,
        "fast table advance must be at least 5x the oracle, measured {advance_speedup:.2}x"
    );
    println!(
        "  table advance {:9.3} us -> {:9.3} us  ({:.2}x, gate >= 5x ok)",
        advance_oracle / 256.0 * 1e6,
        advance_fast / 256.0 * 1e6,
        advance_speedup
    );

    DecisionPath {
        setup: "quick_demo aging table; one health chain advanced 0.25 years through 256 \
                temperatures (315-366 K) at duty 0.7"
            .to_owned(),
        table_advance_fast_seconds: advance_fast,
        table_advance_oracle_seconds: advance_oracle,
        table_advance_speedup: advance_speedup,
        advance_gate_ok: advance_speedup >= 5.0,
    }
}

/// Sweeps the mesh through 8×8 / 16×16 / 32×32 (and 64×64 under `--full`),
/// racing the tiled candidate index against the exhaustive scan on one
/// aged-chip Hayat decision per size and gating tiled at 5x at 32×32.
fn large_floorplan(full: bool) -> LargeFloorplan {
    let aged_epochs = 8;
    let mut points = Vec::new();
    let mut skipped = Vec::new();
    println!("  large floorplans (tiled vs exhaustive decision, chips aged {aged_epochs} epochs):");
    for (rows, cols) in [(8usize, 8usize), (16, 16), (32, 32), (64, 64)] {
        let cores = rows * cols;
        let size = format!("{rows}x{cols}");
        if cores > 1024 && !full {
            let reason = "64x64 chip construction factors a 4096-core variation covariance \
                          (tens of seconds of setup); measured under --full only"
                .to_owned();
            println!("    {size}: skipped — {reason}");
            skipped.push(SkippedFloorplan { size, reason });
            continue;
        }
        let mut config = decision_config();
        config.mesh = (rows, cols);
        let base = aged_system(&config, aged_epochs);
        let threads = base.budget().max_on();
        let workload = WorkloadMix::generate(config.workload_seed, threads);
        let horizon = config.horizon();
        // Reps shrink with core count: the exhaustive arm is the quadratic
        // one being displaced, and one 64×64 oracle decision already costs
        // more than a full 8×8 rep block.
        let (dec_reps, epoch_reps) = match cores {
            0..=256 => (20, 3),
            257..=1024 => (5, 2),
            _ => (2, 1),
        };
        let tiled = single_decision_seconds(
            &base,
            &workload,
            horizon,
            dec_reps,
            &mut HayatPolicy::default(),
        );
        let exhaustive = single_decision_seconds(
            &base,
            &workload,
            horizon,
            dec_reps,
            &mut HayatReference::new(SearchPath::Exhaustive, TablePath::Fast),
        );
        let epoch = single_epoch_seconds(&base, &config, epoch_reps);
        println!(
            "    {size}: decision {:9.3} ms exhaustive -> {:9.3} ms tiled  ({:.2}x), \
             epoch {:.3} s",
            exhaustive * 1e3,
            tiled * 1e3,
            exhaustive / tiled,
            epoch
        );
        points.push(FloorplanPoint {
            size,
            rows,
            cols,
            cores,
            threads,
            tiled_decision_seconds: tiled,
            exhaustive_decision_seconds: exhaustive,
            decision_speedup: exhaustive / tiled,
            tiled_epoch_seconds: epoch,
        });
    }
    let speedup_at_32x32 = points
        .iter()
        .find(|p| p.rows == 32 && p.cols == 32)
        .map_or(0.0, |p| p.decision_speedup);
    let tiled_gate_ok = speedup_at_32x32 >= 5.0;
    assert!(
        tiled_gate_ok,
        "the tiled decision must be at least 5x the exhaustive scan at 32x32, \
         measured {speedup_at_32x32:.2}x"
    );

    LargeFloorplan {
        setup: "quick_demo at 10 years / 0.25-year epochs / 0.1 s window with the mesh \
                overridden per size; each size's chip aged 8 epochs under Hayat before \
                timing; threads = the dark-silicon budget's max_on at that size"
            .to_owned(),
        aged_epochs,
        points,
        skipped,
        speedup_at_32x32,
        tiled_gate_ok,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = !args.iter().any(|a| a == "--full");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_9.json".to_owned());
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .map_or(Jobs::auto(), |v| {
            v.parse().unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(2)
            })
        });

    hayat_bench::section(&format!(
        "BENCH_9 perf trajectory + decision path + observability + scheduler \
         + large floorplans ({} mode, release build)",
        if fast { "fast" } else { "full" }
    ));

    let scaling = campaign_scaling(fast, jobs);
    let scheduler = scheduler_section(fast);
    let decision = decision_path(fast);
    let observability = observability_overhead(fast);
    let floorplans = large_floorplan(!fast);

    let report = Bench9 {
        bench: "BENCH_9".to_owned(),
        mode: if fast { "fast" } else { "full" }.to_owned(),
        control_period_seconds: CONTROL_PERIOD,
        window_steps: (WINDOW_SECONDS / CONTROL_PERIOD).round() as usize,
        campaign_scaling: scaling,
        scheduler,
        decision_path: decision,
        observability,
        large_floorplan: floorplans,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write benchmark report");
    println!("  wrote {out}");
}
