//! Chip-years per second of the Hayat simulator, end to end and layer by
//! layer.
//!
//! `hayat-perfbench --workload paper|fleet|mesh32 --seed N --seconds S
//! --trace 0|1 [--commit ID]` repeats the workload until `S` seconds are
//! spent, checks every output, and prints one JSON line last:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Operations
//! are chip-epochs. With `--trace 0` the metrics are the end-to-end ones,
//! measured at `jobs 2` with telemetry off; with `--trace 1` they are the
//! per-layer ones from serial runs under the benchmark's own recorder.
//! Lines before the last start with `#` and carry the host fingerprint,
//! every repetition, failure records and the layer breakdown.

mod checks;
mod host;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use trace::{median, tail, LayerRecorder};
use workload::{Mode, Rep, Workload};

const USAGE: &str = "usage: hayat-perfbench --workload paper|fleet|mesh32 --seed N \
                     --seconds S --trace 0|1 [--commit ID]";
/// Set-up samples per untraced run, topped up with extra `Campaign::new`
/// calls when the workload repeats fewer times.
const MIN_SETUPS: usize = 5;
/// Traced repetitions per traced run: the counter self-check compares two.
const MIN_TRACED: usize = 2;
const OUT_ROOT: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|_| format!("{flag} takes a number"))
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes a non-negative integer".to_owned())?;
    let seconds = number("--seconds")?;
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let commit = value("--commit").map_or_else(|_| "unknown".to_owned(), Clone::clone);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        commit,
    })
}

/// One metric of the final line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn from_reps<'a>(reps: impl IntoIterator<Item = &'a Rep>, metrics: Vec<Metric>) -> Self {
        let mut report = Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics,
        };
        for rep in reps {
            report.correct &= rep.problems.is_empty();
            report.attempted += rep.attempted;
            report.failed += rep.failed();
        }
        report
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|err| {
        eprintln!("{err}\n{USAGE}");
        std::process::exit(2)
    });
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let out =
        PathBuf::from(OUT_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&out).unwrap_or_else(|err| panic!("create {}: {err}", out.display()));
    println!("# {}", host::fingerprint(&args.commit));
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced(&args, &out)
    } else {
        untraced(&args, &out)
    };
    std::fs::remove_dir_all(&out).ok();
    std::fs::remove_dir(OUT_ROOT).ok();
    println!("{}", report.to_json());
}

fn print_rep(label: &str, rep: &Rep) {
    println!(
        "# {label}: wall {:.3} s, setup {:.3} s, cpu {:.3} s, peak rss {:.1} MB, {}/{} \
         chip-epochs done{}",
        rep.wall_s,
        rep.setup_s,
        rep.cpu_s,
        rep.peak_rss_mb,
        rep.completed,
        rep.attempted,
        if rep.problems.is_empty() {
            String::new()
        } else {
            format!(", CHECK FAILED: {}", rep.problems.join("; "))
        }
    );
}

/// Every repetition must export the same documents as the first.
fn check_identity<'a>(mut reps: impl Iterator<Item = &'a mut Rep>) {
    let Some(first) = reps.next() else { return };
    let exports = first.exports.clone();
    for rep in reps {
        if rep.exports != exports {
            rep.problems
                .push("exported documents differ from the first repetition".to_owned());
        }
    }
}

/// Prints the lines every workload's report shares: failure fraction, the
/// paper gap and the failure records (identical across repetitions).
fn print_outcome(reps: &[&Rep]) {
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed()).sum();
    println!(
        "# epochs_failed_frac: {} (1; {failed} of {attempted} chip-epochs)",
        failed as f64 / attempted as f64
    );
    if let Some(gap) = reps[0].paper_gap_pts {
        println!("# paper_gap_pts: {gap} (pct-pts)");
    }
    for note in &reps[0].notes {
        println!("# {note}");
    }
}

fn untraced(args: &Args, out: &Path) -> Report {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep = workload::run(args.workload, args.seed, out, &Mode::Load);
        print_rep(&format!("rep {}", reps.len() + 1), &rep);
        reps.push(rep);
        let longest = reps.iter().map(|r| r.wall_s).fold(0.0, f64::max);
        if start.elapsed().as_secs_f64() + longest > args.seconds {
            break;
        }
    }
    check_identity(reps.iter_mut());
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(workload::setup_only(args.workload, args.seed));
    }
    let per_rep = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        metric(
            "chip_years_per_s",
            per_rep(|r| r.chip_years() / r.wall_s),
            "chip-yr/s",
        ),
        metric("setup_s", median(&setups), "s"),
        metric(
            "cpu_s_per_chip_year",
            per_rep(|r| r.cpu_s / r.chip_years()),
            "s/chip-yr",
        ),
        metric("peak_rss_mb", per_rep(|r| r.peak_rss_mb), "MB"),
    ];
    print_outcome(&reps.iter().collect::<Vec<_>>());
    Report::from_reps(&reps, metrics)
}

/// Layer totals of one traced repetition, seconds.
struct Layers {
    setup: f64,
    build: f64,
    decision: f64,
    thermal: f64,
    window_self: f64,
    aging: f64,
    /// Output writes on the blocking path.
    sinks: f64,
    /// Output writes the executor's owner thread makes while the worker
    /// simulates (`fleet` only); not on the blocking path.
    concurrent_sinks: f64,
    wall: f64,
}

impl Layers {
    fn of(rep: &Rep, rec: &LayerRecorder) -> Self {
        Layers {
            setup: rec.total("setup.campaign"),
            build: rec.total("build.chip"),
            decision: rec.total("policy.hayat.decision") + rec.total("policy.vaa.decision"),
            thermal: rec.total("thermal.transient.step"),
            window_self: rec.total("engine.window_self"),
            aging: rec.total("engine.aging.advance"),
            sinks: rec.total("sink.export") + rec.total("sink.runfmt_finish"),
            concurrent_sinks: rec.total("checkpoint.write") + rec.total("sink.runfmt_push"),
            wall: rep.wall_s,
        }
    }

    fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("setup", self.setup),
            ("build", self.build),
            ("decision", self.decision),
            ("thermal", self.thermal),
            ("window_self", self.window_self),
            ("aging", self.aging),
            ("sinks", self.sinks),
        ]
    }

    fn unattributed(&self) -> f64 {
        self.wall - self.named().iter().map(|(_, s)| s).sum::<f64>()
    }
}

fn traced(args: &Args, out: &Path) -> Report {
    let start = Instant::now();
    let (w, seed) = (args.workload, args.seed);
    let mut load = workload::run(w, seed, out, &Mode::Load);
    print_rep("untraced (load)", &load);
    let mut serial = workload::run(w, seed, out, &Mode::Serial(None));
    print_rep("untraced (serial)", &serial);
    let stages = LayerRecorder::default();
    workload::setup_stages(w, seed, &stages);
    let mut traced: Vec<(Rep, Arc<LayerRecorder>)> = Vec::new();
    loop {
        let rec = Arc::new(LayerRecorder::default());
        let rep = workload::run(w, seed, out, &Mode::Serial(Some(Arc::clone(&rec))));
        print_rep(&format!("traced {}", traced.len() + 1), &rep);
        traced.push((rep, rec));
        let longest = traced.iter().map(|(r, _)| r.wall_s).fold(0.0, f64::max);
        if traced.len() >= MIN_TRACED && start.elapsed().as_secs_f64() + longest > args.seconds {
            break;
        }
    }
    counter_self_check(&mut traced);
    check_identity(
        [&mut load, &mut serial]
            .into_iter()
            .chain(traced.iter_mut().map(|(rep, _)| rep)),
    );

    // Per-call distributions pool exactly MIN_TRACED runs, so each `.tail`
    // is the same percentile however many runs fit in --seconds.
    let recs: Vec<&LayerRecorder> = traced[..MIN_TRACED]
        .iter()
        .map(|(_, rec)| rec.as_ref())
        .collect();
    let mut metrics = per_call_metrics(&recs);
    let setup = [
        ("setup.variation_s", stages.samples("setup.variation")),
        ("setup.predictor_s", stages.samples("setup.predictor")),
        ("setup.aging_table_s", stages.samples("setup.aging_table")),
        ("setup.campaign_s", pooled(&recs, &["setup.campaign"])),
    ];
    for (name, samples) in setup {
        metrics.push(metric(name, median(&samples), "s"));
    }
    let first = recs[0];
    for name in [
        "policy.table_lookups",
        "policy.dcm.candidates_evaluated",
        "policy.dcm.candidates_pruned",
        "policy.hayat.candidates_evaluated",
        "policy.hayat.candidates_pruned",
        "dtm.migrations",
        "dtm.throttles",
    ] {
        metrics.push(metric(name, first.count(name) as f64, "count"));
    }
    let bytes = [
        ("export.json_bytes", first.count("export.json_bytes")),
        ("runfmt.bytes", first.count("runfmt.bytes")),
        ("checkpoint.bytes", first.count("checkpoint.bytes_written")),
    ];
    let total_bytes: u64 = bytes.iter().map(|(_, b)| b).sum();
    metrics.push(metric("sinks.bytes", total_bytes as f64, "B"));
    for (name, value) in bytes {
        metrics.push(metric(name, value as f64, "B"));
    }

    let layers: Vec<Layers> = traced
        .iter()
        .map(|(rep, rec)| Layers::of(rep, rec))
        .collect();
    let med = |f: &dyn Fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let wall = med(&|l| l.wall);
    metrics.push(metric(
        "sinks.write_s",
        med(&|l| l.sinks + l.concurrent_sinks),
        "s",
    ));
    println!(
        "# reconciliation of the traced wall ({wall:.3} s, median of {} runs):",
        layers.len()
    );
    for (i, (name, _)) in layers[0].named().iter().enumerate() {
        let share = med(&|l| l.named()[i].1 / l.wall);
        println!(
            "#   {name:<12} {:>9.4} s  {:>6.2}%",
            med(&|l| l.named()[i].1),
            share * 100.0
        );
        metrics.push(metric(format!("layer.{name}_frac"), share, "1"));
    }
    let unattributed = med(&|l| l.unattributed() / l.wall);
    println!(
        "#   {:<12} {:>9.4} s  {:>6.2}%",
        "unattributed",
        med(&|l| l.unattributed()),
        unattributed * 100.0
    );
    println!(
        "#   concurrent sinks (owner thread, overlapping the worker): {:.4} s",
        med(&|l| l.concurrent_sinks)
    );
    for (label, names) in [
        ("policy.vaa.decision_s", &["policy.vaa.decision"][..]),
        ("checkpoint.write_s", &["checkpoint.write"][..]),
        ("runfmt.read_s", &["sink.runfmt_read"][..]),
    ] {
        let samples = pooled(&recs, names);
        if !samples.is_empty() {
            let (pct, tail_value) = tail(&samples);
            println!(
                "# {label}: p50 {:.6e} s, p{pct} {tail_value:.6e} s, total {:.4} s per traced run",
                median(&samples),
                samples.iter().sum::<f64>() / recs.len() as f64
            );
        }
    }
    let overhead = wall / serial.wall_s - 1.0;
    let cpu_util = load.cpu_s / (load.wall_s * workload::LOAD_JOBS as f64);
    println!(
        "# traced wall {wall:.3} s vs untraced serial {:.3} s (overhead {:.2}%) vs untraced load {:.3} s",
        serial.wall_s,
        overhead * 100.0,
        load.wall_s
    );
    metrics.extend([
        metric("trace.unattributed_frac", unattributed, "1"),
        metric("trace.wall_s", wall, "s"),
        metric("trace.overhead_frac", overhead, "1"),
        metric("untraced.serial_wall_s", serial.wall_s, "s"),
        metric("untraced.load_wall_s", load.wall_s, "s"),
        metric("executor.cpu_util", cpu_util, "1"),
    ]);
    let all: Vec<&Rep> = [&load, &serial]
        .into_iter()
        .chain(traced.iter().map(|(rep, _)| rep))
        .collect();
    print_outcome(&all);
    Report::from_reps(all, metrics)
}

/// Every duration of the spans `names`, pooled over the traced runs.
fn pooled(recs: &[&LayerRecorder], names: &[&str]) -> Vec<f64> {
    recs.iter()
        .flat_map(|rec| names.iter().flat_map(|n| rec.samples(n)))
        .collect()
}

/// Median, tail percentile and call count of each per-call layer span.
fn per_call_metrics(recs: &[&LayerRecorder]) -> Vec<Metric> {
    let decisions = ["policy.hayat.decision", "policy.vaa.decision"];
    let spans: [(&str, &[&str], Option<&str>); 7] = [
        ("build.chip_s", &["build.chip"], Some("build.chips")),
        ("policy.decision_s", &decisions, Some("policy.decisions")),
        (
            "policy.hayat.decision_s",
            &decisions[..1],
            Some("policy.hayat.decisions"),
        ),
        (
            "thermal.step_s",
            &["thermal.transient.step"],
            Some("thermal.steps"),
        ),
        ("engine.epoch_s", &["engine.epoch"], Some("engine.epochs")),
        ("engine.window_self_s", &["engine.window_self"], None),
        (
            "aging.advance_s",
            &["engine.aging.advance"],
            Some("aging.advances"),
        ),
    ];
    let mut metrics = Vec::new();
    for (key, names, count) in spans {
        let samples = pooled(recs, names);
        let (pct, tail_value) = tail(&samples);
        let p50 = median(&samples);
        let calls: usize = names.iter().map(|n| recs[0].calls(n)).sum();
        println!(
            "# {key}: p50 {p50:.6e} s, p{pct} {tail_value:.6e} s, {calls} calls per traced run, \
             {} samples",
            samples.len()
        );
        metrics.push(metric(format!("{key}.p50"), p50, "s"));
        metrics.push(metric(format!("{key}.tail"), tail_value, "s"));
        if let Some(count) = count {
            metrics.push(metric(count, calls as f64, "count"));
        }
    }
    metrics
}

/// Every exact count must repeat between traced runs; one that does not is
/// a defect of the benchmark or the program, never noise.
fn counter_self_check(traced: &mut [(Rep, Arc<LayerRecorder>)]) {
    let reference = traced[0].1.exact_counts();
    for (i, (rep, rec)) in traced.iter_mut().enumerate().skip(1) {
        let counts = rec.exact_counts();
        let names: BTreeSet<&String> = reference.keys().chain(counts.keys()).collect();
        for name in names {
            let (a, b) = (reference.get(name), counts.get(name));
            if a != b {
                rep.problems.push(format!(
                    "benchmark defect: count {name} is {a:?} in traced run 1, {b:?} in traced run {}",
                    i + 1
                ));
            }
        }
    }
}
