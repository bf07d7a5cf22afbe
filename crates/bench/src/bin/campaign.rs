//! General-purpose campaign driver: run any chip-count / dark-fraction /
//! policy combination and export the results, without writing code.
//!
//! ```sh
//! cargo run --release -p hayat-bench --bin campaign -- \
//!     --dark 0.4 --chips 10 --years 5 --epoch 0.25 \
//!     --policies vaa,hayat,coolest,random \
//!     --csv results/custom --json results/custom.json
//! ```
//!
//! Defaults reproduce the paper campaign at 50% dark. An unknown flag exits
//! 2 with one line of text; `--help` prints the usage.
//!
//! Long campaigns can run crash-safe: `--checkpoint DIR` persists progress
//! atomically (every `--every EPOCHS` epochs, default 8, plus every chip-run
//! boundary) as sealed shards of `--shard-checkpoints N` runs (default 256)
//! plus a small tail, and `--resume DIR` continues an interrupted campaign —
//! with the *same* config flags — skipping all completed work. A resumed
//! campaign is bit-identical to an uninterrupted one. A `--resume`
//! directory with no committed manifest (a run killed before its first
//! commit) starts the campaign fresh there. `--resume` also accepts a
//! single-file checkpoint written by an earlier build; that file is only
//! read, and progress continues in `FILE.shards/`.
//!
//! Fleet scale: `--fleet N` simulates N chips without ever materializing
//! them — chips stream from the seeded sampler, completed runs stream into
//! the compact columnar run file (`--run-format FILE`, spec in
//! docs/RUNFORMAT.md), and the stdout summary is the mergeable fleet
//! sketches rather than per-run rows, so peak memory is O(1) in N. The
//! exact per-run JSON stays available behind `--export-json FILE` (which
//! opts back into O(N) memory) and `--replay POLICY:CHIP` (which
//! regenerates any single run on demand). Checkpoints shard, so durable
//! writes never serialize through one growing file.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hayat::sim::campaign::PolicyKind;
use hayat::{
    Batch, Campaign, CampaignResult, DynError, FleetAccumulator, Jobs, ProgressOptions, RunMetrics,
    SimulationConfig,
};
use hayat_checkpoint::{CheckpointError, FailPoint, ShardedCheckpointer};
use hayat_runfmt::RunFileWriter;
use hayat_telemetry::{JsonlRecorder, Recorder};

struct Args {
    dark: f64,
    chips: usize,
    years: f64,
    epoch: f64,
    window: f64,
    seed: Option<u64>,
    mesh: usize,
    floorplan: Option<(usize, usize)>,
    policies: Vec<PolicyKind>,
    csv_dir: Option<String>,
    json_path: Option<String>,
    telemetry_path: Option<String>,
    fleet_stats_path: Option<String>,
    progress_every: Option<f64>,
    progress_jsonl: Option<String>,
    checkpoint_path: Option<String>,
    every: Option<usize>,
    resume_path: Option<String>,
    jobs: Jobs,
    batch: Batch,
    fleet: Option<usize>,
    run_format_path: Option<String>,
    export_json_path: Option<String>,
    replay: Option<(PolicyKind, usize)>,
    from_json_path: Option<String>,
    shard_runs: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--dark F] [--chips N] [--years Y] [--epoch Y] \
         [--window S] [--seed N] [--mesh N] [--floorplan RxC] \
         [--jobs N|auto] [--batch N] \
         [--policies vaa,hayat,coolest,random] [--csv DIR] [--json FILE] \
         [--telemetry FILE.jsonl] [--fleet-stats FILE.json] \
         [--progress SECS] [--progress-jsonl FILE.jsonl] \
         [--checkpoint DIR [--every EPOCHS] | --resume DIR] \
         [--fleet N] [--run-format FILE.runfmt] [--export-json FILE] \
         [--replay POLICY:CHIP] [--from-json FILE] [--shard-checkpoints N]\n\
         \n\
         --fleet-stats streams every completed run into mergeable online \
         sketches (mean/variance/min/max/p50/p95/p99 per fleet series) and \
         writes the summary JSON — byte-identical for every --jobs value \
         and across crash/resume cycles. --progress prints a live progress \
         frame to stderr at most every SECS seconds (0 = every run); \
         --progress-jsonl additionally appends each frame as a JSONL line. \
         \n\
         --jobs sets the worker-thread count (default: all hardware \
         threads); output is byte-identical for every value, including 1. \
         Workers claim work from one shared cursor in canonical order. \
         The HAYAT_JOBS environment variable sets the default; the flag \
         overrides it. \
         --batch runs N consecutive chips in lockstep per worker claim \
         through the batched SoA thermal/policy kernels (default 1); like \
         --jobs it is a pure execution knob — output is byte-identical for \
         every width. \
         --floorplan RxC simulates an R-row × C-column core mesh (e.g. \
         32x32 or 16x64; overrides --mesh, which stays as the square \
         shorthand). \
         --checkpoint runs the campaign with durable progress in a \
         directory (written atomically every EPOCHS epochs and at chip \
         boundaries); --resume continues from such a directory, skipping \
         completed work — a resumed run is bit-identical to an \
         uninterrupted one, for any --jobs; a directory with no committed \
         manifest starts the campaign fresh there. --resume also reads a \
         single-file checkpoint from an earlier build without changing it; \
         progress then continues in FILE.shards/. --shard-checkpoints N \
         sets the runs per sealed shard (default 256), so each durable \
         write stays O(N) however long the campaign.\n\
         \n\
         --fleet N streams N chips through the campaign in O(1) memory: \
         per-run output goes to the compact columnar run file \
         (--run-format, spec in docs/RUNFORMAT.md) and the stdout summary \
         is the fleet sketches; --csv/--json need the full run vector and \
         are rejected — --export-json FILE opts back into collecting it. \
         --replay POLICY:CHIP regenerates exactly one run (same config \
         flags) and prints its JSON. --from-json FILE converts an existing \
         results JSON to --run-format without re-simulating."
    );
    std::process::exit(2);
}

fn parse_policy(name: &str) -> PolicyKind {
    match name {
        "vaa" => PolicyKind::Vaa,
        "hayat" => PolicyKind::Hayat,
        "coolest" => PolicyKind::CoolestFirst,
        "random" => PolicyKind::Random,
        other => {
            eprintln!("unknown policy {other:?}");
            usage()
        }
    }
}

/// Parses a `--floorplan` spec of the form `RxC`, e.g. `32x32` or `16x64`.
fn parse_floorplan(spec: &str) -> (usize, usize) {
    let parsed = spec
        .split_once(['x', 'X'])
        .and_then(|(r, c)| Some((r.trim().parse().ok()?, c.trim().parse().ok()?)))
        .filter(|&(r, c): &(usize, usize)| r > 0 && c > 0);
    parsed.unwrap_or_else(|| {
        eprintln!("--floorplan wants ROWSxCOLS with positive dimensions, got {spec:?}");
        usage()
    })
}

/// Parses a `--replay` spec of the form `POLICY:CHIP`, e.g. `hayat:17`.
fn parse_replay(spec: &str) -> (PolicyKind, usize) {
    let Some((policy, chip)) = spec.split_once(':') else {
        eprintln!("--replay expects POLICY:CHIP, got {spec:?}");
        usage()
    };
    let chip = chip.parse().unwrap_or_else(|_| {
        eprintln!("--replay chip index {chip:?} is not a number");
        usage()
    });
    (parse_policy(policy), chip)
}

/// Reads one `HAYAT_*` env-var default or one strictly checked flag value,
/// exiting 2 with the one-line parse message on garbage.
fn or_exit<T>(read: impl FnOnce() -> Result<T, String>) -> T {
    read().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        dark: 0.5,
        chips: 25,
        years: 10.0,
        epoch: 0.25,
        window: 2.0,
        seed: None,
        mesh: 8,
        floorplan: None,
        policies: vec![PolicyKind::Vaa, PolicyKind::Hayat],
        csv_dir: None,
        json_path: None,
        telemetry_path: None,
        fleet_stats_path: None,
        progress_every: None,
        progress_jsonl: None,
        checkpoint_path: None,
        every: None,
        resume_path: None,
        jobs: or_exit(Jobs::from_env),
        batch: Batch::serial(),
        fleet: None,
        run_format_path: None,
        export_json_path: None,
        replay: None,
        from_json_path: None,
        shard_runs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--dark" => args.dark = value("--dark").parse().unwrap_or_else(|_| usage()),
            "--chips" => args.chips = value("--chips").parse().unwrap_or_else(|_| usage()),
            "--years" => args.years = value("--years").parse().unwrap_or_else(|_| usage()),
            "--epoch" => args.epoch = value("--epoch").parse().unwrap_or_else(|_| usage()),
            "--window" => args.window = value("--window").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = Some(value("--seed").parse().unwrap_or_else(|_| usage())),
            "--mesh" => args.mesh = value("--mesh").parse().unwrap_or_else(|_| usage()),
            "--floorplan" => args.floorplan = Some(parse_floorplan(&value("--floorplan"))),
            "--policies" => {
                args.policies = value("--policies").split(',').map(parse_policy).collect();
            }
            "--csv" => args.csv_dir = Some(value("--csv")),
            "--json" => args.json_path = Some(value("--json")),
            "--telemetry" => args.telemetry_path = Some(value("--telemetry")),
            "--fleet-stats" => args.fleet_stats_path = Some(value("--fleet-stats")),
            "--progress" => {
                args.progress_every = Some(value("--progress").parse().unwrap_or_else(|_| usage()));
            }
            "--progress-jsonl" => args.progress_jsonl = Some(value("--progress-jsonl")),
            "--checkpoint" => args.checkpoint_path = Some(value("--checkpoint")),
            "--every" => {
                args.every = Some(or_exit(|| hayat_bench::parse_every(&value("--every"))));
            }
            "--resume" => args.resume_path = Some(value("--resume")),
            "--jobs" => {
                args.jobs = value("--jobs").parse().unwrap_or_else(|msg| {
                    eprintln!("{msg}");
                    usage()
                });
            }
            "--batch" => {
                args.batch = value("--batch").parse().unwrap_or_else(|msg| {
                    eprintln!("{msg}");
                    usage()
                });
            }
            "--fleet" => args.fleet = Some(value("--fleet").parse().unwrap_or_else(|_| usage())),
            "--run-format" => args.run_format_path = Some(value("--run-format")),
            "--export-json" => args.export_json_path = Some(value("--export-json")),
            "--replay" => args.replay = Some(parse_replay(&value("--replay"))),
            "--from-json" => args.from_json_path = Some(value("--from-json")),
            "--shard-checkpoints" => {
                args.shard_runs = Some(
                    value("--shard-checkpoints")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?} (--help lists the flags)");
                std::process::exit(2)
            }
        }
    }
    if args.checkpoint_path.is_some() && args.resume_path.is_some() {
        eprintln!("--checkpoint and --resume are mutually exclusive");
        usage()
    }
    if args.every.is_some() && args.checkpoint_path.is_none() && args.resume_path.is_none() {
        eprintln!("--every requires --checkpoint or --resume");
        usage()
    }
    if args.shard_runs.is_some() && args.checkpoint_path.is_none() && args.resume_path.is_none() {
        eprintln!("--shard-checkpoints requires --checkpoint DIR or --resume DIR");
        usage()
    }
    if args.shard_runs == Some(0) {
        eprintln!("--shard-checkpoints must be at least 1 run per shard");
        usage()
    }
    if let Some(path) = &args.resume_path {
        if !Path::new(path).exists() {
            eprintln!("--resume: no checkpoint at {path}");
            std::process::exit(2)
        }
    }
    if args.from_json_path.is_some() {
        if args.run_format_path.is_none() {
            eprintln!("--from-json needs --run-format FILE to know where to write");
            usage()
        }
        if args.fleet.is_some()
            || args.replay.is_some()
            || args.checkpoint_path.is_some()
            || args.resume_path.is_some()
        {
            eprintln!("--from-json only converts; it cannot be combined with a simulation run");
            usage()
        }
    }
    if args.fleet.is_some() && (args.csv_dir.is_some() || args.json_path.is_some()) {
        eprintln!(
            "--fleet streams runs without collecting them; --csv/--json need the full \
             run vector (use --export-json FILE to opt back into collecting it)"
        );
        usage()
    }
    args
}

/// Builds the live-progress sink: stderr frames throttled to `--progress`,
/// plus an optional JSONL stream of every emitted frame.
fn progress_options(args: &Args) -> Option<ProgressOptions> {
    if args.progress_every.is_none() && args.progress_jsonl.is_none() {
        return None;
    }
    let every = Duration::from_secs_f64(args.progress_every.unwrap_or(0.0).max(0.0));
    let jsonl = args
        .progress_jsonl
        .as_ref()
        .map(|path| Mutex::new(std::fs::File::create(path).expect("create progress stream")));
    let sink = Arc::new(move |frame: &hayat::ProgressFrame| {
        eprintln!("{}", frame.render());
        if let Some(file) = &jsonl {
            let mut file = file.lock().expect("progress stream lock");
            let line = serde_json::to_string(frame).expect("serializable");
            writeln!(file, "{line}").expect("write progress frame");
        }
    });
    Some(ProgressOptions { every, sink })
}

/// The `--checkpoint` or `--resume` path, if either was given.
fn checkpoint_path(args: &Args) -> Option<&str> {
    args.checkpoint_path
        .as_deref()
        .or(args.resume_path.as_deref())
}

/// The durable-progress driver for the checkpoint at `path`, configured
/// from the execution and checkpoint flags and `HAYAT_FAILPOINT`.
fn checkpointer(
    args: &Args,
    path: &str,
    recorder: Option<&Arc<JsonlRecorder>>,
    fleet: Option<&Arc<Mutex<FleetAccumulator>>>,
    progress: Option<ProgressOptions>,
) -> ShardedCheckpointer {
    let mut runner = ShardedCheckpointer::new(path)
        .jobs(args.jobs)
        .with_failpoint(or_exit(FailPoint::from_env));
    if let Some(runs) = args.shard_runs {
        runner = runner.shard_runs(runs);
    }
    if let Some(every) = args.every {
        runner = runner.every(every);
    }
    if let Some(rec) = recorder {
        runner = runner.with_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
    }
    if let Some(fleet) = fleet {
        runner = runner.with_fleet(Arc::clone(fleet));
    }
    if let Some(progress) = progress {
        runner = runner.with_progress(progress);
    }
    runner
}

/// Whether `runner` resumes: `--resume` at a committed checkpoint. A
/// `--resume` directory without a manifest (a run killed before its first
/// commit) starts the campaign fresh, checkpointed into that directory.
fn resumes(args: &Args, runner: &ShardedCheckpointer, path: &str) -> bool {
    if args.resume_path.is_none() {
        return false;
    }
    let resume = runner.has_checkpoint();
    if resume {
        println!("resuming from checkpoint {path}");
    } else {
        println!("no committed checkpoint in {path}; starting the campaign fresh there");
    }
    resume
}

/// Reports a checkpointed campaign that stopped early and exits 1.
fn checkpoint_aborted(err: &CheckpointError, path: &str) -> ! {
    eprintln!("campaign aborted: {err}");
    eprintln!("progress is saved; rerun with --resume {path}");
    std::process::exit(1)
}

/// `--from-json`: re-encode an existing results JSON as a compact run file,
/// without re-simulating anything, and report the size delta.
fn convert_json(src: &str, dst: &str) {
    let text = std::fs::read_to_string(src).unwrap_or_else(|err| {
        eprintln!("cannot read {src}: {err}");
        std::process::exit(1)
    });
    let result: CampaignResult = serde_json::from_str(&text).unwrap_or_else(|err| {
        eprintln!("{src} is not a campaign result JSON: {err}");
        std::process::exit(1)
    });
    let total = hayat_runfmt::write_path(Path::new(dst), result.dark_fraction, result.runs.iter())
        .unwrap_or_else(|err| {
            eprintln!("conversion failed: {err}");
            std::process::exit(1)
        });
    let compact = std::fs::metadata(dst).map_or(0, |m| m.len());
    println!(
        "{total} runs converted: {src} ({} bytes) -> {dst} ({compact} bytes, {:.1}x smaller)",
        text.len(),
        text.len() as f64 / compact.max(1) as f64
    );
}

/// `--replay POLICY:CHIP`: regenerate exactly one run of the configured
/// campaign — the streaming sampler seeks straight to the chip, so this is
/// O(1) in the fleet size — and print its exact per-run JSON.
fn replay_run(campaign: &Campaign, kind: PolicyKind, chip: usize) {
    let chips = campaign.chip_count();
    if chip >= chips {
        eprintln!("--replay chip {chip} is outside the campaign's {chips} chips");
        std::process::exit(2)
    }
    let run = campaign.run_one(kind, chip);
    println!(
        "{}",
        serde_json::to_string_pretty(&run).expect("serializable")
    );
}

/// The `--fleet` data path: runs stream from the executor in canonical
/// order into the run-format writer (and, opt-in, an export buffer), the
/// fleet sketches fold every run as it completes, and nothing else is
/// retained — peak memory is independent of the fleet size.
fn run_fleet(
    args: &Args,
    campaign: &Campaign,
    recorder: Option<&Arc<JsonlRecorder>>,
    progress: Option<ProgressOptions>,
) {
    let dark = campaign.config().dark_fraction;
    let fleet = Arc::new(Mutex::new(FleetAccumulator::new()));
    let mut writer = args.run_format_path.as_ref().map(|path| {
        let tmp = format!("{path}.tmp");
        let file = std::fs::File::create(&tmp).unwrap_or_else(|err| {
            eprintln!("cannot create {tmp}: {err}");
            std::process::exit(1)
        });
        let writer =
            RunFileWriter::new(std::io::BufWriter::new(file), dark).expect("write run-file header");
        (writer, tmp)
    });
    let mut exported: Vec<RunMetrics> = Vec::new();
    let keep_runs = args.export_json_path.is_some();
    let mut sink = |metrics: &RunMetrics| -> Result<(), DynError> {
        if let Some((writer, _)) = &mut writer {
            writer.push(metrics).map_err(|e| Box::new(e) as DynError)?;
        }
        if keep_runs {
            exported.push(metrics.clone());
        }
        Ok(())
    };

    let delivered = if let Some(path) = checkpoint_path(args) {
        let runner = checkpointer(args, path, recorder, Some(&fleet), progress);
        let outcome = if resumes(args, &runner, path) {
            runner.resume_streamed(campaign, |_, metrics| sink(metrics))
        } else {
            runner.run_streamed(campaign, &args.policies, |_, metrics| sink(metrics))
        };
        outcome.unwrap_or_else(|err| checkpoint_aborted(&err, path)) as usize
    } else {
        let rec: Arc<dyn Recorder> = match recorder {
            Some(rec) => Arc::clone(rec) as Arc<dyn Recorder>,
            None => Arc::new(hayat_telemetry::NullRecorder),
        };
        campaign
            .stream_runs(
                &args.policies,
                args.jobs,
                rec,
                Some(&fleet),
                progress,
                |_, metrics| sink(&metrics),
            )
            .unwrap_or_else(|err| {
                eprintln!("campaign failed: {err}");
                std::process::exit(1)
            })
    };

    if let Some((writer, tmp)) = writer {
        let total = writer.finish().unwrap_or_else(|err| {
            eprintln!("finalizing run file failed: {err}");
            std::process::exit(1)
        });
        let path = args
            .run_format_path
            .as_deref()
            .expect("writer implies path");
        std::fs::rename(&tmp, path).expect("publish run file");
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        println!("\n{total} runs written to {path} ({bytes} bytes, compact run format)");
    }

    let mut fleet = fleet.lock().expect("fleet accumulator lock");
    fleet.finish();
    let summary = fleet.summary();
    println!("\nfleet sketches over {delivered} runs (streaming; no per-run rows retained):");
    println!("{}", summary.render_table());
    if let Some(path) = &args.fleet_stats_path {
        let json = serde_json::to_string_pretty(&summary).expect("serializable");
        std::fs::write(path, json).expect("write fleet stats");
        println!("fleet statistics written to {path}");
    }
    if let Some(path) = &args.export_json_path {
        let result = CampaignResult {
            runs: exported,
            dark_fraction: dark,
        };
        let json = serde_json::to_string_pretty(&result).expect("serializable");
        std::fs::write(path, json).expect("write json");
        println!("full result JSON written to {path}");
    }
}

/// Flushes the `--telemetry` stream and prints its summary tables.
fn finish_telemetry(recorder: Option<Arc<JsonlRecorder>>, args: &Args) {
    let Some(rec) = recorder else { return };
    let rec = Arc::try_unwrap(rec)
        .ok()
        .expect("campaign workers have exited, so no recorder refs remain");
    let events = rec.events_recorded();
    let summary = rec.finish().expect("flush telemetry stream");
    let path = args.telemetry_path.as_deref().unwrap_or_default();
    println!("\ntelemetry: {events} events written to {path}");
    println!("{}", summary.render_table());
    if let Some(lookups) = summary.counter_total("policy.table_lookups") {
        println!("policy.table_lookups: {lookups}");
    }
    // Candidate-search accounting: how much work the tiled index skipped.
    for counter in [
        "policy.dcm.candidates_evaluated",
        "policy.dcm.candidates_pruned",
        "policy.dcm.tiles_scanned",
        "policy.hayat.candidates_pruned",
    ] {
        if let Some(total) = summary.counter_total(counter) {
            println!("{counter}: {total}");
        }
    }
    let profile = summary.phase_profile();
    if !profile.is_empty() {
        println!(
            "phase-profile total: {:.3} s across {} phases",
            profile.total_seconds,
            profile.phases.len()
        );
    }
}

fn main() {
    let args = parse_args();
    if let Some(src) = &args.from_json_path {
        convert_json(src, args.run_format_path.as_deref().expect("validated"));
        return;
    }
    let mut config = SimulationConfig::paper(args.dark);
    config.chip_count = args.fleet.unwrap_or(args.chips);
    config.years = args.years;
    config.epoch_years = args.epoch;
    config.transient_window_seconds = args.window;
    config.mesh = args.floorplan.unwrap_or((args.mesh, args.mesh));
    if let Some(seed) = args.seed {
        config.workload_seed = seed;
        config.variation_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    }
    config.assert_valid();

    let campaign = Campaign::new(config)
        .expect("configuration is valid")
        .with_batch(args.batch);
    if let Some((kind, chip)) = args.replay {
        replay_run(&campaign, kind, chip);
        return;
    }

    let config = campaign.config();
    println!(
        "campaign: {}x{} mesh, {} chips{}, {:.0}% dark, {} years in {}-year epochs, \
         policies {:?}, {} jobs, batch {}",
        config.mesh.0,
        config.mesh.1,
        config.chip_count,
        if args.fleet.is_some() {
            " (streamed)"
        } else {
            ""
        },
        config.dark_fraction * 100.0,
        config.years,
        config.epoch_years,
        args.policies,
        args.jobs,
        args.batch
    );
    let recorder = args
        .telemetry_path
        .as_deref()
        .map(|path| Arc::new(JsonlRecorder::create(path).expect("create telemetry stream")));
    let progress = progress_options(&args);

    if args.fleet.is_some() {
        run_fleet(&args, &campaign, recorder.as_ref(), progress);
        finish_telemetry(recorder, &args);
        return;
    }

    let fleet = args
        .fleet_stats_path
        .as_ref()
        .map(|_| Arc::new(Mutex::new(FleetAccumulator::new())));
    let result = if let Some(path) = checkpoint_path(&args) {
        let runner = checkpointer(&args, path, recorder.as_ref(), fleet.as_ref(), progress);
        let outcome = if resumes(&args, &runner, path) {
            runner.resume(&campaign)
        } else {
            runner.run(&campaign, &args.policies)
        };
        outcome.unwrap_or_else(|err| checkpoint_aborted(&err, path))
    } else {
        let recorder: Arc<dyn Recorder> = match &recorder {
            Some(rec) => Arc::clone(rec) as Arc<dyn Recorder>,
            None => Arc::new(hayat_telemetry::NullRecorder),
        };
        campaign
            .try_run_observed(
                &args.policies,
                args.jobs,
                recorder,
                fleet.as_deref(),
                progress,
            )
            .unwrap_or_else(|err| {
                eprintln!("campaign failed: {err}");
                std::process::exit(1)
            })
    };

    println!(
        "\n{:<14} {:>7} {:>9} {:>11} {:>11} {:>11} {:>12}",
        "policy", "chips", "DTM mig.", "Tavg-amb K", "chip aging", "avg aging", "throughput"
    );
    // On resume the policy list comes from the checkpoint, so print every
    // policy that actually has runs.
    let shown: Vec<PolicyKind> = if args.resume_path.is_some() {
        [
            PolicyKind::Vaa,
            PolicyKind::Hayat,
            PolicyKind::CoolestFirst,
            PolicyKind::Random,
        ]
        .into_iter()
        .filter(|&k| !result.runs_of(k).is_empty())
        .collect()
    } else {
        args.policies.clone()
    };
    for &kind in &shown {
        if let Some(s) = result.summary(kind) {
            println!(
                "{:<14} {:>7} {:>9.1} {:>11.2} {:>11.4} {:>11.4} {:>11.2}%",
                s.policy,
                s.chips,
                s.mean_dtm_migrations,
                s.mean_temp_over_ambient,
                s.mean_chip_fmax_aging_rate,
                s.mean_avg_fmax_aging_rate,
                s.mean_throughput_fraction * 100.0
            );
        }
    }

    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for run in &result.runs {
            let path = format!(
                "{dir}/{}_chip{}.csv",
                run.policy.to_lowercase(),
                run.chip_id
            );
            std::fs::write(&path, run.to_csv()).expect("write csv");
        }
        println!("\nper-run CSVs written to {dir}/");
    }
    for path in args.json_path.iter().chain(args.export_json_path.iter()) {
        let json = serde_json::to_string_pretty(&result).expect("serializable");
        std::fs::write(path, json).expect("write json");
        println!("full result JSON written to {path}");
    }
    if let Some(path) = &args.run_format_path {
        let total =
            hayat_runfmt::write_path(Path::new(path), result.dark_fraction, result.runs.iter())
                .unwrap_or_else(|err| {
                    eprintln!("writing run file failed: {err}");
                    std::process::exit(1)
                });
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        println!("{total} runs written to {path} ({bytes} bytes, compact run format)");
    }
    if let (Some(path), Some(fleet)) = (&args.fleet_stats_path, &fleet) {
        let mut fleet = fleet.lock().expect("fleet accumulator lock");
        fleet.finish();
        let summary = fleet.summary();
        let json = serde_json::to_string_pretty(&summary).expect("serializable");
        std::fs::write(path, json).expect("write fleet stats");
        println!(
            "\nfleet statistics ({} runs) written to {path}",
            fleet.folded()
        );
        println!("{}", summary.render_table());
    }
    finish_telemetry(recorder, &args);
}
