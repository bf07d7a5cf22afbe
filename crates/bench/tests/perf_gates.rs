//! Release-mode timing gates: ratios that are properties of the code, each
//! measured on a fixed workload and asserted against a fixed threshold.
//!
//! - `decision_path`: the direct age-curve inversion advances a 256-temperature
//!   health chain at least 5x faster than the bisection oracle.
//! - `large_floorplan`: the tiled Hayat decision is at least 5x faster than
//!   the exhaustive scan at 32×32, on a chip aged 8 epochs.
//! - `observability_overhead`: the streaming fleet sketches cost under 2% of
//!   serial campaign wall time.
//! - `scheduler_section`: a skewed-cost campaign at jobs 4 runs at least 2.5x
//!   faster than serial, on hosts with at least 4 hardware threads.
//!
//! Debug builds compile these tests but skip them; run them with
//!
//! ```text
//! cargo test --release -p hayat-bench --test perf_gates -- --test-threads=1
//! ```
//!
//! One test at a time keeps the timings free of each other's load. Each
//! test writes its measured ratio to stderr, past the harness's output
//! capture, so passing runs show their numbers too.

use hayat::sim::campaign::PolicyKind;
use hayat::{
    Campaign, ChipSystem, ExecutorOptions, FleetAccumulator, GateSite, HayatPolicy, HayatReference,
    Jobs, Policy, PolicyContext, PolicyScratch, RunDescriptor, RunMetrics, RunUpdate, SearchPath,
    SimulationConfig, SimulationEngine,
};
use hayat_aging::{AgeCurveScratch, TablePath};
use hayat_telemetry::{NullRecorder, Recorder};
use hayat_units::{DutyCycle, Kelvin, Years};
use hayat_workload::WorkloadMix;
use std::cell::RefCell;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Writes one result line straight to stderr: `println!` output of a
/// passing test is swallowed by the harness.
fn report(line: &str) {
    writeln!(std::io::stderr().lock(), "perf-gates: {line}").expect("stderr is writable");
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

/// The paper's 8×8 chip on a 10-year, 40-epoch grid, with a short transient
/// window so the decision is a meaningful share of the epoch.
fn decision_config() -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.years = 10.0;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    config
}

/// Table-advance micro: the same (temperature, duty, health) chain through
/// the direct age-curve inversion or the bisection oracle.
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

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode timing gate")]
fn decision_path() {
    let system = ChipSystem::paper_chip(0, &decision_config()).expect("paper chip builds");
    let reps = 20;
    let fast = table_advance_seconds(&system, TablePath::Fast, reps);
    let oracle = table_advance_seconds(&system, TablePath::Oracle, reps);
    let speedup = oracle / fast;
    report(&format!(
        "table advance {:.3} us -> {:.3} us per step ({speedup:.2}x, gate >= 5x)",
        oracle / 256.0 * 1e6,
        fast / 256.0 * 1e6,
    ));
    assert!(
        speedup >= 5.0,
        "fast table advance must be at least 5x the oracle, measured {speedup:.2}x"
    );
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

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode timing gate")]
fn large_floorplan() {
    let mut config = decision_config();
    config.mesh = (32, 32);
    let base = aged_system(&config, 8);
    let workload = WorkloadMix::generate(config.workload_seed, base.budget().max_on());
    let horizon = config.horizon();
    let reps = 5;
    let tiled =
        single_decision_seconds(&base, &workload, horizon, reps, &mut HayatPolicy::default());
    let exhaustive = single_decision_seconds(
        &base,
        &workload,
        horizon,
        reps,
        &mut HayatReference::new(SearchPath::Exhaustive, TablePath::Fast),
    );
    let speedup = exhaustive / tiled;
    report(&format!(
        "32x32 decision {:.3} ms exhaustive -> {:.3} ms tiled ({speedup:.2}x, gate >= 5x)",
        exhaustive * 1e3,
        tiled * 1e3,
    ));
    assert!(
        speedup >= 5.0,
        "the tiled decision must be at least 5x the exhaustive scan at 32x32, \
         measured {speedup:.2}x"
    );
}

/// 8 independent chips × the Hayat policy × 40 quarter-year epochs with a
/// shortened transient window: each run takes tens of milliseconds, so the
/// pool's spawn and merge overhead is noise.
fn scaling_config() -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 8;
    config.years = 10.0;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 1.0;
    config
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode timing gate")]
fn observability_overhead() {
    let campaign = Campaign::new(scaling_config()).expect("scaling configuration is valid");
    let policies = [PolicyKind::Hayat];
    let reps = 5;

    // Serial, so no idle worker can absorb the sketch updates.
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
    // Interleave the two variants so slow host drift hits both equally, and
    // gate on the *paired* per-rep overhead minimum: a host-noise burst
    // inflates both runs of the same pair and cancels in the ratio, where
    // separate minima could compare a lucky plain rep against a noisy
    // observed one and report phantom overhead.
    run_plain();
    run_observed();
    let mut overhead = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run_plain();
        let plain = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        run_observed();
        let observed = t0.elapsed().as_secs_f64();
        overhead = overhead.min(((observed - plain) / plain).max(0.0));
    }
    report(&format!(
        "fleet sketch overhead {:.2}% of serial campaign wall (gate < 2%)",
        overhead * 100.0
    ));
    assert!(
        overhead < 0.02,
        "fleet observability overhead {:.2}% exceeds the 2% gate",
        overhead * 100.0
    );
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

/// Runs the skewed campaign and returns the canonical per-run metrics.
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

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode timing gate")]
fn scheduler_section() {
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host_parallelism < 4 {
        report(&format!(
            "jobs-4 scheduler gate SKIPPED: host parallelism {host_parallelism} is below 4"
        ));
        return;
    }
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 12;
    config.years = 0.25;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    let campaign = Campaign::new(config).expect("scheduler configuration is valid");
    let descriptors = campaign.grid(&[PolicyKind::Hayat]);
    let null: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let reps = 5;
    let wall = |jobs: usize| {
        let jobs = Jobs::new(jobs).expect("positive");
        time_best(
            || {
                std::hint::black_box(run_skewed(&campaign, &descriptors, jobs, &null));
            },
            reps,
        )
    };
    let serial = wall(1);
    let four = wall(4);
    let speedup = serial / four;
    report(&format!(
        "skewed campaign {serial:.3} s serial -> {four:.3} s at jobs 4 \
         ({speedup:.2}x, gate >= 2.5x)"
    ));
    assert!(
        speedup >= 2.5,
        "the skewed campaign at jobs 4 must run at least 2.5x serial, measured {speedup:.2}x"
    );
}
