//! Regenerates **Figs. 7–10** and the derived Section VI percentages:
//! the 25-chip campaign comparing Hayat against the VAA baseline at 25% and
//! 50% minimum dark silicon.
//!
//! * Fig. 7 — DTM migrations, normalized to VAA,
//! * Fig. 8 — average temperature over ambient, normalized to VAA,
//! * Fig. 9 — aging rate of the per-chip maximum frequency, normalized,
//! * Fig. 10 — aging rate of the per-core average frequency, normalized.
//!
//! Paper shape: Hayat ≈0.9× VAA migrations at 25% dark and ≈0.28× at 50%;
//! ≈5% lower average temperature at 50%; much lower chip-fmax aging
//! (−95% at 50%); 6.3% / 23% lower average aging at 25% / 50%.
//!
//! Usage: `cargo run --release -p hayat-bench --bin fig7_10 [--quick]`
//! (`--quick` runs 5 chips with 6-month epochs; the default is the paper's
//! 25 chips with 3-month epochs and takes several minutes).
//!
//! `--jobs N|auto` (default `auto` = available parallelism) runs the
//! campaign grid on N worker threads, which claim work from one shared
//! cursor; `--batch N` runs N consecutive chips in lockstep per worker claim
//! through the batched SoA kernels. Both are pure execution knobs with
//! byte-identical output. The `HAYAT_JOBS` environment variable sets the
//! `--jobs` default; the flag overrides it.
//!
//! `--floorplan RxC` swaps the paper's 8×8 die for an R-row × C-column
//! mesh (e.g. `32x32`) to exercise the large-floorplan decision path.
//!
//! The default run is long enough to be worth protecting: `--checkpoint
//! STEM` persists each dark-fraction campaign to the checkpoint directory
//! `STEM.dark25` / `STEM.dark50` (atomic writes, every `--every EPOCHS`
//! epochs), and `--resume STEM` picks the experiment back up — completed
//! campaigns load instantly, an interrupted one re-enters mid-chip, and a
//! missing checkpoint (or a directory with no committed manifest) starts
//! that campaign fresh (still checkpointed).
//! Single-file checkpoints from earlier builds resume read-only.
//!
//! `--fleet-stats STEM` streams every run into mergeable online sketches
//! and writes one summary per dark fraction (`STEM.dark25.json`,
//! `STEM.dark50.json`) — byte-identical for any `--jobs` value and across
//! crash/resume cycles.
//!
//! An unknown flag, a flag missing its value, or a `--json` directory that
//! does not exist exits 2 with one line of text before any work starts.

use std::sync::{Arc, Mutex};

use hayat::sim::campaign::PolicyKind;
use hayat::{Batch, Campaign, CampaignSummary, FleetAccumulator, Jobs, SimulationConfig};
use hayat_bench::{bar_row, parse_every, section};
use hayat_checkpoint::{FailPoint, ShardedCheckpointer};
use hayat_telemetry::{JsonlRecorder, NullRecorder, Recorder};

/// Every flag that takes a value; `--quick` is the only bare flag.
const VALUE_FLAGS: &[&str] = &[
    "--json",
    "--telemetry",
    "--fleet-stats",
    "--checkpoint",
    "--resume",
    "--every",
    "--jobs",
    "--batch",
    "--floorplan",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let exit_on_err = |err: String| -> ! {
        eprintln!("{err}");
        std::process::exit(2)
    };
    let mut flags = args.iter().skip(1);
    while let Some(flag) = flags.next() {
        if VALUE_FLAGS.contains(&flag.as_str()) {
            if flags.next().is_none() {
                exit_on_err(format!("missing value for {flag}"));
            }
        } else if flag != "--quick" {
            exit_on_err(format!("unknown flag {flag:?}"));
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    // Optional archive: `--json <dir>` writes the raw CampaignResult of each
    // dark fraction as JSON for external analysis.
    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(dir) = &json_dir {
        if !std::path::Path::new(dir).is_dir() {
            exit_on_err(format!("--json: no directory at {dir}"));
        }
    }
    // Optional observability: `--telemetry <file.jsonl>` streams one JSON
    // event per line covering both dark-fraction campaigns.
    let telemetry_path = args
        .iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let recorder = telemetry_path
        .as_deref()
        .map(|path| Arc::new(JsonlRecorder::create(path).expect("create telemetry stream")));
    // Optional fleet sketches: `--fleet-stats STEM` writes one mergeable
    // summary per dark fraction (STEM.dark25.json, STEM.dark50.json) —
    // byte-identical for any --jobs and across crash/resume cycles.
    let fleet_stem = args
        .iter()
        .position(|a| a == "--fleet-stats")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // Crash safety: `--checkpoint STEM` / `--resume STEM` persist each
    // dark-fraction campaign to its own derived directory (STEM.dark25, ...).
    let checkpoint_stem = args
        .iter()
        .position(|a| a == "--checkpoint")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let resume_stem = args
        .iter()
        .position(|a| a == "--resume")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if checkpoint_stem.is_some() && resume_stem.is_some() {
        exit_on_err("--checkpoint and --resume are mutually exclusive".to_owned());
    }
    let every = args
        .iter()
        .position(|a| a == "--every")
        .and_then(|i| args.get(i + 1))
        .map(|v| parse_every(v).unwrap_or_else(|e| exit_on_err(e)));
    // Worker threads for the campaign grid; results are byte-identical
    // regardless of the count, so this only changes wall-clock time.
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .map_or_else(
            || Jobs::from_env().unwrap_or_else(|e| exit_on_err(e)),
            |v| v.parse().unwrap_or_else(|e| exit_on_err(e)),
        );
    // Batched lockstep execution (parity with the campaign driver): a pure
    // execution knob, byte-identical output for every width.
    let batch = args
        .iter()
        .position(|a| a == "--batch")
        .and_then(|i| args.get(i + 1))
        .map_or(Batch::serial(), |v| {
            v.parse().unwrap_or_else(|e| exit_on_err(e))
        });
    // Optional mesh override, e.g. --floorplan 32x32 or 16x64.
    let floorplan = args
        .iter()
        .position(|a| a == "--floorplan")
        .and_then(|i| args.get(i + 1))
        .map(|spec| {
            spec.split_once(['x', 'X'])
                .and_then(|(r, c)| Some((r.trim().parse().ok()?, c.trim().parse().ok()?)))
                .filter(|&(r, c): &(usize, usize)| r > 0 && c > 0)
                .unwrap_or_else(|| {
                    exit_on_err(format!(
                        "--floorplan wants ROWSxCOLS with positive dimensions, got {spec:?}"
                    ))
                })
        });
    // One shared fail point: HAYAT_FAILPOINT hits count across BOTH
    // dark-fraction campaigns, so any point of the experiment is killable.
    let failpoint = Arc::new(FailPoint::from_env().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    }));
    for dark in [0.25, 0.5] {
        let mut config = SimulationConfig::paper(dark);
        if quick {
            config.chip_count = 5;
            config.epoch_years = 0.5;
            config.transient_window_seconds = 1.5;
        }
        if let Some(mesh) = floorplan {
            config.mesh = mesh;
        }
        let campaign = Campaign::new(config)
            .expect("paper configuration is valid")
            .with_batch(batch);
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let fleet = fleet_stem
            .as_ref()
            .map(|_| Arc::new(Mutex::new(FleetAccumulator::new())));
        let stem = checkpoint_stem.as_deref().or(resume_stem.as_deref());
        let result = if let Some(stem) = stem {
            let path = format!("{stem}.dark{}", (dark * 100.0) as u32);
            let mut runner = ShardedCheckpointer::new(&path)
                .jobs(jobs)
                .with_failpoint(Arc::clone(&failpoint));
            if let Some(every) = every {
                runner = runner.every(every);
            }
            if let Some(rec) = &recorder {
                runner = runner.with_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
            }
            if let Some(fleet) = &fleet {
                runner = runner.with_fleet(Arc::clone(fleet));
            }
            let resumable = resume_stem.is_some() && runner.has_checkpoint();
            let outcome = if resumable {
                println!("(resuming {:.0}% dark campaign from {path})", dark * 100.0);
                runner.resume(&campaign)
            } else {
                runner.run(&campaign, &policies)
            };
            outcome.unwrap_or_else(|err| {
                eprintln!("campaign aborted: {err}");
                eprintln!("progress is saved; rerun with --resume {stem}");
                std::process::exit(1)
            })
        } else {
            let rec: Arc<dyn Recorder> = match &recorder {
                Some(rec) => Arc::clone(rec) as Arc<dyn Recorder>,
                None => Arc::new(NullRecorder),
            };
            campaign
                .try_run_observed(&policies, jobs, rec, fleet.as_deref(), None)
                .unwrap_or_else(|err| {
                    eprintln!("campaign failed: {err}");
                    std::process::exit(1)
                })
        };
        if let (Some(stem), Some(fleet)) = (&fleet_stem, &fleet) {
            let path = format!("{stem}.dark{}.json", (dark * 100.0) as u32);
            let mut fleet = fleet.lock().expect("fleet accumulator lock");
            fleet.finish();
            let json = serde_json::to_string_pretty(&fleet.summary()).expect("serializable");
            std::fs::write(&path, json).expect("write fleet stats");
            println!("(fleet statistics written to {path})");
        }
        let vaa = result.summary(PolicyKind::Vaa).expect("VAA ran");
        let hayat = result.summary(PolicyKind::Hayat).expect("Hayat ran");
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/campaign_dark{}.json", (dark * 100.0) as u32);
            let json = serde_json::to_string_pretty(&result).expect("serializable result");
            std::fs::write(&path, json).expect("write campaign JSON");
            println!("(raw campaign archived to {path})");
        }

        section(&format!(
            "min. {:.0}% dark silicon, {} chips, {:.0} years",
            dark * 100.0,
            vaa.chips,
            result.runs[0].epochs.last().map_or(0.0, |e| e.years)
        ));

        let norm = |f: fn(&CampaignSummary) -> f64| {
            let d = f(&vaa);
            if d == 0.0 {
                (0.0, 0.0)
            } else {
                (1.0, f(&hayat) / d)
            }
        };

        println!("Fig. 7: normalized DTM migration events");
        let (v, h) = norm(|s| s.mean_dtm_migrations);
        println!("{}", bar_row("VAA", v, 1.5));
        println!("{}", bar_row("Hayat", h, 1.5));
        println!(
            "  (absolute: VAA {:.1}, Hayat {:.1} migrations per chip lifetime)",
            vaa.mean_dtm_migrations, hayat.mean_dtm_migrations
        );

        println!("Fig. 8: normalized average temperature over T_ambient");
        let (v, h) = norm(|s| s.mean_temp_over_ambient);
        println!("{}", bar_row("VAA", v, 1.5));
        println!("{}", bar_row("Hayat", h, 1.5));
        println!(
            "  (absolute: VAA {:.2} K, Hayat {:.2} K over ambient)",
            vaa.mean_temp_over_ambient, hayat.mean_temp_over_ambient
        );

        println!("Fig. 9: normalized aging rate of per-chip max frequency");
        let (v, h) = norm(|s| s.mean_chip_fmax_aging_rate);
        println!("{}", bar_row("VAA", v, 1.5));
        println!("{}", bar_row("Hayat", h, 1.5));
        println!(
            "  (absolute rates: VAA {:.4}, Hayat {:.4})",
            vaa.mean_chip_fmax_aging_rate, hayat.mean_chip_fmax_aging_rate
        );

        println!("Fig. 10: normalized aging rate of per-core average frequency");
        let (v, h) = norm(|s| s.mean_avg_fmax_aging_rate);
        println!("{}", bar_row("VAA", v, 1.5));
        println!("{}", bar_row("Hayat", h, 1.5));
        println!(
            "  (absolute rates: VAA {:.4}, Hayat {:.4})",
            vaa.mean_avg_fmax_aging_rate, hayat.mean_avg_fmax_aging_rate
        );

        println!();
        println!(
            "Delivered throughput (performance): VAA {:.2}%, Hayat {:.2}% of required IPS",
            vaa.mean_throughput_fraction * 100.0,
            hayat.mean_throughput_fraction * 100.0
        );
        println!(
            "Aging balance (final weakest-core health): VAA {:.4}, Hayat {:.4}",
            vaa.mean_final_min_health, hayat.mean_final_min_health
        );
        println!("Section VI derived improvements (Hayat vs VAA):");
        let pct = |v: f64, h: f64| {
            if v == 0.0 {
                0.0
            } else {
                (1.0 - h / v) * 100.0
            }
        };
        println!(
            "  DTM migrations reduced by {:>6.1}%   (paper: 10% at 25%, 72% at 50%)",
            pct(vaa.mean_dtm_migrations, hayat.mean_dtm_migrations)
        );
        println!(
            "  avg temperature reduced by {:>5.1}%   (paper: ~0% at 25%, 5% at 50%)",
            pct(vaa.mean_temp_over_ambient, hayat.mean_temp_over_ambient)
        );
        println!(
            "  chip-fmax aging reduced by {:>5.1}%   (paper: 95% at 50%)",
            pct(
                vaa.mean_chip_fmax_aging_rate,
                hayat.mean_chip_fmax_aging_rate
            )
        );
        println!(
            "  avg-fmax aging reduced by {:>6.1}%   (paper: 6.3% at 25%, 23% at 50%)",
            pct(vaa.mean_avg_fmax_aging_rate, hayat.mean_avg_fmax_aging_rate)
        );
    }
    if let Some(rec) = recorder {
        let rec = Arc::try_unwrap(rec)
            .ok()
            .expect("campaign workers have exited, so no recorder refs remain");
        let events = rec.events_recorded();
        let summary = rec.finish().expect("flush telemetry stream");
        let path = telemetry_path.as_deref().unwrap_or_default();
        println!("\ntelemetry: {events} events written to {path}");
        println!("{}", summary.render_table());
    }
}
