//! Output checks. Each returns `Err` with one line saying what is wrong; a
//! failed check makes every epoch of its repetition count as failed.

use std::path::Path;

use hayat::{
    fleet_stats_from_runs, Campaign, CampaignResult, EpochRecord, PolicyKind, RunMetrics,
    SimulationConfig,
};
use hayat_checkpoint::{ShardManifest, ShardTail};
use hayat_telemetry::FleetStats;

use crate::workload::Outcome;

/// The paper's quoted Hayat/VAA ratios: (dark %, Fig. 8 T_avg, Fig. 10
/// avg-fmax aging rate).
const PUBLISHED: [(u32, f64, f64); 2] = [(25, 1.00, 0.937), (50, 0.95, 0.77)];

/// Every run of the grid is present in canonical order (policy-major, then
/// chip) with one finite record per epoch.
pub fn complete_runs(
    runs: &[RunMetrics],
    policies: &[PolicyKind],
    config: &SimulationConfig,
) -> Result<(), String> {
    let expected = policies.len() * config.chip_count;
    if runs.len() != expected {
        return Err(format!("{} runs, expected {expected}", runs.len()));
    }
    let order = policies
        .iter()
        .flat_map(|kind| (0..config.chip_count).map(move |chip| (kind.name(), chip)));
    for (run, (policy, chip)) in runs.iter().zip(order) {
        if run.policy != policy || run.chip_id != chip {
            return Err(format!(
                "run {}/{} out of canonical order (expected {policy}/{chip})",
                run.policy, run.chip_id
            ));
        }
        if run.epochs.len() != config.epoch_count() {
            return Err(format!(
                "{policy} chip {chip}: {} epoch records, expected {}",
                run.epochs.len(),
                config.epoch_count()
            ));
        }
        epochs_are_finite(run)?;
    }
    Ok(())
}

/// Each record of `run` is finite and numbered by its position.
fn epochs_are_finite(run: &RunMetrics) -> Result<(), String> {
    for (index, record) in run.epochs.iter().enumerate() {
        if record.epoch != index || !finite(record) {
            return Err(format!(
                "{} chip {}: epoch record {index} is misnumbered or not finite",
                run.policy, run.chip_id
            ));
        }
    }
    Ok(())
}

fn finite(r: &EpochRecord) -> bool {
    [
        r.years,
        r.avg_fmax_ghz,
        r.chip_fmax_ghz,
        r.mean_health,
        r.min_health,
        r.avg_temp_kelvin,
        r.peak_temp_kelvin,
        r.throughput_fraction,
    ]
    .iter()
    .all(|v| v.is_finite())
}

/// Every run that exists holds one finite record per epoch it completed,
/// and a run that did not panic completed them all.
pub fn records_are_finite(outcomes: &[Outcome], config: &SimulationConfig) -> Result<(), String> {
    for outcome in outcomes {
        let Some(run) = &outcome.metrics else {
            continue;
        };
        epochs_are_finite(run)?;
        if outcome.failure.is_none() && run.epochs.len() != config.epoch_count() {
            return Err(format!(
                "{} chip {}: completed with {} of {} epoch records",
                run.policy,
                run.chip_id,
                run.epochs.len(),
                config.epoch_count()
            ));
        }
    }
    Ok(())
}

/// A serial re-run of one Hayat chip equals the campaign's run of it: the
/// worker count must not change results.
pub fn same_as_run_one(
    campaign: &Campaign,
    result: &CampaignResult,
    seed: u64,
) -> Result<(), String> {
    let chip = (seed % campaign.chip_count() as u64) as usize;
    let rerun = campaign.run_one(PolicyKind::Hayat, chip);
    let run = result
        .runs_of(PolicyKind::Hayat)
        .into_iter()
        .find(|r| r.chip_id == chip);
    if run == Some(&rerun) {
        Ok(())
    } else {
        Err(format!(
            "serial re-run of Hayat chip {chip} differs from the campaign's run"
        ))
    }
}

/// The exported JSON equals `results/campaign_dark{pct}.json` byte for
/// byte. A file that cannot be read fails the check.
pub fn paper_bytes(pct: u32, json: &str) -> Result<(), String> {
    let path = format!("results/campaign_dark{pct}.json");
    match std::fs::read(&path) {
        Ok(expected) if expected == json.as_bytes() => Ok(()),
        Ok(_) => Err(format!("exported JSON differs from {path}")),
        Err(err) => Err(format!("cannot read {path}: {err}")),
    }
}

/// FNV-1a 64 digest, so repetitions can be compared without keeping their
/// exported documents.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Absolute gaps between the reproduced and the published Hayat/VAA ratios
/// of Fig. 8 T_avg and Fig. 10 avg-fmax aging for the campaign at `pct`%
/// dark (25 or 50).
pub fn paper_gaps(pct: u32, result: &CampaignResult) -> [f64; 2] {
    let (_, t_avg, aging) = PUBLISHED
        .into_iter()
        .find(|(p, _, _)| *p == pct)
        .expect("the paper quotes ratios at 25% and 50% dark");
    let vaa = result.summary(PolicyKind::Vaa).expect("VAA ran");
    let hayat = result.summary(PolicyKind::Hayat).expect("Hayat ran");
    [
        (hayat.mean_temp_over_ambient / vaa.mean_temp_over_ambient - t_avg).abs(),
        (hayat.mean_avg_fmax_aging_rate / vaa.mean_avg_fmax_aging_rate - aging).abs(),
    ]
}

/// The fleet sketches rebuilt from the decoded runs equal the streamed ones.
pub fn fleet_summary_matches(runs: &[RunMetrics], streamed: &FleetStats) -> Result<(), String> {
    if &fleet_stats_from_runs(runs) == streamed {
        Ok(())
    } else {
        Err("fleet statistics of the decoded runs differ from the streamed summary".to_owned())
    }
}

/// The shard manifest seals every run and leaves nothing in the tail.
pub fn all_runs_sealed(dir: &Path, runs: usize) -> Result<(), String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|err| format!("read {name}: {err}"))
    };
    let manifest: ShardManifest = serde_json::from_str(&read("manifest.json")?)
        .map_err(|err| format!("parse manifest.json: {err}"))?;
    let tail: ShardTail = serde_json::from_str(&read("tail.json")?)
        .map_err(|err| format!("parse tail.json: {err}"))?;
    let sealed = manifest.sealed * manifest.shard_runs;
    if sealed == runs && tail.completed.is_empty() && tail.in_flight.is_none() {
        Ok(())
    } else {
        Err(format!(
            "manifest seals {sealed} of {runs} runs; tail holds {} more",
            tail.completed.len()
        ))
    }
}
