//! The three workloads: their inputs, and one repetition of each either at
//! the execution settings a user runs (`Mode::Load`) or serially, one engine
//! at a time, optionally under the layer recorder (`Mode::Serial`).

use std::fs::File;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hayat::{
    Batch, Campaign, CampaignResult, DynError, FleetAccumulator, Jobs, PolicyKind, RunMetrics,
    SimulationConfig, SimulationEngine,
};
use hayat_aging::{AgingModel, AgingTable};
use hayat_checkpoint::ShardedCheckpointer;
use hayat_runfmt::RunFileWriter;
use hayat_telemetry::{NullRecorder, Recorder};
use hayat_thermal::ThermalPredictor;
use hayat_variation::ChipStream;

use crate::checks;
use crate::trace::LayerRecorder;

/// The seed at which every workload runs the paper's own seeds, so `paper`
/// can be checked byte for byte against the committed `results/`.
pub const DEFAULT_SEED: u64 = 0;
/// Worker threads of a `Mode::Load` repetition.
pub const LOAD_JOBS: usize = 2;
/// Lockstep width of `fleet` under `Mode::Load`.
const FLEET_BATCH: usize = 8;
/// Runs per sealed checkpoint shard of `fleet`.
const FLEET_SHARD_RUNS: usize = 50;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Paper,
    Fleet,
    Mesh32,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Fleet, Workload::Mesh32];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Fleet => "fleet",
            Workload::Mesh32 => "mesh32",
        }
    }

    /// The configuration of every campaign the workload runs, in order.
    pub fn configs(self, seed: u64) -> Vec<SimulationConfig> {
        let configs = match self {
            // Figs. 7-10 exactly as `fig7_10` runs them.
            Workload::Paper => vec![SimulationConfig::paper(0.25), SimulationConfig::paper(0.5)],
            Workload::Fleet => {
                let mut config = SimulationConfig::paper(0.5);
                config.chip_count = 1000;
                config.years = 1.0;
                config.transient_window_seconds = 0.3;
                vec![config]
            }
            // The paper's physics and window on a 32x32 die. Runs die of a
            // leakage runaway in their 2nd or 3rd epoch; the workload must
            // not be reshaped to avoid that.
            Workload::Mesh32 => {
                let mut config = SimulationConfig::paper(0.5);
                config.mesh = (32, 32);
                config.chip_count = 2;
                config.years = 2.0;
                vec![config]
            }
        };
        configs.into_iter().map(|c| seeded(c, seed)).collect()
    }

    pub fn policies(self) -> &'static [PolicyKind] {
        match self {
            Workload::Paper | Workload::Mesh32 => &[PolicyKind::Vaa, PolicyKind::Hayat],
            Workload::Fleet => &[PolicyKind::Hayat],
        }
    }
}

/// Seed `0` keeps the paper's seeds; any other seed replaces them the way
/// `campaign --seed` does.
fn seeded(mut config: SimulationConfig, seed: u64) -> SimulationConfig {
    if seed != DEFAULT_SEED {
        config.workload_seed = seed;
        config.variation_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    }
    config
}

/// How a repetition executes.
pub enum Mode {
    /// What a user runs: `jobs 2`, every other setting at its default
    /// except `fleet`'s `batch 8`. No telemetry.
    Load,
    /// One engine at a time at batch 1, with the layer recorder if given.
    Serial(Option<Arc<LayerRecorder>>),
}

impl Mode {
    fn jobs(&self) -> usize {
        match self {
            Mode::Load => LOAD_JOBS,
            Mode::Serial(_) => 1,
        }
    }

    fn layers(&self) -> Option<&LayerRecorder> {
        match self {
            Mode::Serial(Some(rec)) => Some(rec),
            _ => None,
        }
    }

    fn recorder(&self) -> Arc<dyn Recorder> {
        match self {
            Mode::Serial(Some(rec)) => Arc::clone(rec) as Arc<dyn Recorder>,
            _ => Arc::new(NullRecorder),
        }
    }

    /// Runs `f` and, when tracing, records its duration as span `name`.
    fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let seconds = start.elapsed().as_secs_f64();
        if let Some(rec) = self.layers() {
            rec.span_seconds(name, seconds);
        }
        (value, seconds)
    }

    /// Counts `bytes` under `name` when tracing.
    fn bytes(&self, name: &str, bytes: usize) {
        if let Some(rec) = self.layers() {
            rec.counter(name, bytes as u64);
        }
    }
}

/// One repetition of a workload.
pub struct Rep {
    /// Time spent setting up, simulating and writing outputs, summed over
    /// the workload's campaigns; output checks are not included.
    pub wall_s: f64,
    /// `Campaign::new`, summed over the workload's campaigns.
    pub setup_s: f64,
    /// Process user+sys CPU over the same intervals as `wall_s`.
    pub cpu_s: f64,
    /// Highest peak resident set of those intervals, MB; output checks and
    /// earlier repetitions do not count.
    pub peak_rss_mb: f64,
    pub epoch_years: f64,
    /// Chip-epochs attempted and completed.
    pub attempted: u64,
    pub completed: u64,
    /// Failed output checks; any makes every epoch of the repetition count
    /// as failed.
    pub problems: Vec<String>,
    /// Lines for the report: failure records, paper gap.
    pub notes: Vec<String>,
    /// FNV-1a digest of every exported document, for the cross-repetition
    /// identity check.
    pub exports: Vec<u64>,
    /// `paper` only: mean |reproduced - published| Hayat/VAA ratio, pct-pts.
    pub paper_gap_pts: Option<f64>,
}

impl Rep {
    pub fn failed(&self) -> u64 {
        if self.problems.is_empty() {
            self.attempted - self.completed
        } else {
            self.attempted
        }
    }

    pub fn chip_years(&self) -> f64 {
        self.completed as f64 * self.epoch_years
    }
}

/// Wall clock and process CPU at the start of a measured interval.
struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    fn start() -> Self {
        crate::host::reset_peak_rss();
        Clock {
            wall: Instant::now(),
            cpu: crate::host::cpu_seconds(),
        }
    }

    /// Adds the interval since `start` to the repetition's wall and CPU and
    /// folds in its peak resident set.
    fn stop(&self, rep: &mut Rep) {
        rep.wall_s += self.wall.elapsed().as_secs_f64();
        rep.cpu_s += crate::host::cpu_seconds() - self.cpu;
        rep.peak_rss_mb = rep.peak_rss_mb.max(crate::host::peak_rss_mb());
    }
}

/// Runs one repetition of `workload`, writing its outputs under `out`.
pub fn run(workload: Workload, seed: u64, out: &Path, mode: &Mode) -> Rep {
    let configs = workload.configs(seed);
    let policies = workload.policies();
    let epoch_years = configs[0].epoch_years;
    let attempted = configs
        .iter()
        .map(|c| (c.chip_count * policies.len() * c.epoch_count()) as u64)
        .sum();
    let mut rep = Rep {
        wall_s: 0.0,
        setup_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        epoch_years,
        attempted,
        completed: 0,
        problems: Vec::new(),
        notes: Vec::new(),
        exports: Vec::new(),
        paper_gap_pts: None,
    };
    let fleet_dir = out.join("fleet.ckpt");
    std::fs::remove_dir_all(&fleet_dir).ok();
    match workload {
        Workload::Paper => paper(seed, &configs, out, mode, &mut rep),
        Workload::Fleet => fleet(&configs[0], &fleet_dir, out, mode, &mut rep),
        Workload::Mesh32 => mesh32(&configs[0], out, mode, &mut rep),
    }
    rep
}

fn setup(config: &SimulationConfig, mode: &Mode, rep: &mut Rep) -> Campaign {
    let (campaign, seconds) = mode.timed("setup.campaign", || {
        Campaign::new(config.clone()).expect("workload configurations are valid")
    });
    rep.setup_s += seconds;
    campaign
}

/// Writes one exported document and keeps its digest for the identity check.
fn export(path: &Path, json: &str, mode: &Mode, rep: &mut Rep) {
    mode.timed("sink.export", || std::fs::write(path, json))
        .0
        .unwrap_or_else(|err| panic!("write {}: {err}", path.display()));
    mode.bytes("export.json_bytes", json.len());
    rep.exports.push(checks::fnv1a(json.as_bytes()));
}

/// Each campaign is checked, off the clock, and dropped before the next one
/// is set up, so the process holds one campaign at a time.
fn paper(seed: u64, configs: &[SimulationConfig], out: &Path, mode: &Mode, rep: &mut Rep) {
    let policies = Workload::Paper.policies();
    let mut gaps = Vec::new();
    for config in configs {
        let clock = Clock::start();
        let campaign = setup(config, mode, rep);
        let result = match mode {
            Mode::Load => campaign
                .try_run(policies, jobs(LOAD_JOBS), Arc::new(NullRecorder))
                .map_err(|err| err.to_string()),
            Mode::Serial(_) => collect(drive(&campaign, policies, 1, mode)),
        };
        let exported = result.map(|result| {
            rep.completed += result
                .runs
                .iter()
                .map(|r| r.epochs.len() as u64)
                .sum::<u64>();
            let json = serde_json::to_string_pretty(&result).expect("serializable result");
            let name = format!("campaign_dark{}.json", dark_pct(config));
            export(&out.join(name), &json, mode, rep);
            (result, json)
        });
        clock.stop(rep);

        let checked = exported
            .map_err(|err| format!("{}% dark campaign failed: {err}", dark_pct(config)))
            .and_then(|(result, json)| {
                checks::complete_runs(&result.runs, policies, config)?;
                checks::same_as_run_one(&campaign, &result, seed)?;
                if seed == DEFAULT_SEED {
                    checks::paper_bytes(dark_pct(config), &json)?;
                }
                Ok(result)
            });
        match checked {
            Ok(result) => gaps.extend(checks::paper_gaps(dark_pct(config), &result)),
            Err(problem) => rep.problems.push(problem),
        }
    }
    if seed != DEFAULT_SEED {
        rep.notes.push(format!(
            "seed {seed} is not the paper's: the byte check against results/ is replaced by \
             the structure, serial re-run and repetition-identity checks"
        ));
    }
    if gaps.len() == 2 * configs.len() {
        rep.paper_gap_pts = Some(100.0 * gaps.iter().sum::<f64>() / gaps.len() as f64);
    }
}

fn fleet(config: &SimulationConfig, dir: &Path, out: &Path, mode: &Mode, rep: &mut Rep) {
    let policies = Workload::Fleet.policies();
    let runfmt_path = out.join("fleet.runfmt");
    let clock = Clock::start();
    let mut campaign = setup(config, mode, rep);
    if let Mode::Load = mode {
        campaign = campaign.with_batch(Batch::new(FLEET_BATCH).expect("non-zero width"));
    }
    let fleet = Arc::new(Mutex::new(FleetAccumulator::new()));
    let file = File::create(&runfmt_path).expect("create run file");
    let mut writer = RunFileWriter::new(BufWriter::new(file), config.dark_fraction)
        .expect("write run-file header");
    // The executor's owner thread runs this sink (and the shard writes)
    // while the worker simulates the next chip.
    let mut push_s = 0.0;
    let delivered = ShardedCheckpointer::new(dir)
        .jobs(jobs(mode.jobs()))
        .shard_runs(FLEET_SHARD_RUNS)
        .with_fleet(Arc::clone(&fleet))
        .with_recorder(mode.recorder())
        .run_streamed(&campaign, policies, |_, run| {
            let start = Instant::now();
            writer.push(run).map_err(|e| Box::new(e) as DynError)?;
            push_s += start.elapsed().as_secs_f64();
            Ok(())
        });
    let (finished, _) = mode.timed("sink.runfmt_finish", || writer.finish());
    finished.expect("finish run file");
    mode.bytes("runfmt.bytes", file_len(&runfmt_path));
    let mut fleet = fleet.lock().expect("fleet accumulator lock");
    fleet.finish();
    let summary = serde_json::to_string_pretty(&fleet.summary()).expect("serializable summary");
    export(&out.join("fleet_stats.json"), &summary, mode, rep);
    clock.stop(rep);
    if let Some(rec) = mode.layers() {
        rec.span_seconds("sink.runfmt_push", push_s);
    }

    match delivered {
        Ok(n) if n as usize == config.chip_count => {
            rep.completed = rep.attempted;
        }
        Ok(n) => rep
            .problems
            .push(format!("fleet delivered {n} of {} runs", config.chip_count)),
        Err(err) => rep.problems.push(format!("fleet campaign failed: {err}")),
    }
    let (decoded, _) = mode.timed("sink.runfmt_read", || hayat_runfmt::read_path(&runfmt_path));
    let checked = decoded
        .map_err(|err| format!("decoding {}: {err}", runfmt_path.display()))
        .and_then(|(runs, _)| {
            checks::complete_runs(&runs, policies, config)?;
            checks::fleet_summary_matches(&runs, fleet.stats())
        })
        .and_then(|()| checks::all_runs_sealed(dir, config.chip_count * policies.len()));
    if let Err(problem) = checked {
        rep.problems.push(problem);
    }
}

fn mesh32(config: &SimulationConfig, out: &Path, mode: &Mode, rep: &mut Rep) {
    let policies = Workload::Mesh32.policies();
    let clock = Clock::start();
    let campaign = setup(config, mode, rep);
    let outcomes = drive(&campaign, policies, mode.jobs(), mode);
    let runs: Vec<RunMetrics> = outcomes.iter().filter_map(|o| o.metrics.clone()).collect();
    let json = serde_json::to_string_pretty(&CampaignResult {
        runs: runs.clone(),
        dark_fraction: config.dark_fraction,
    })
    .expect("serializable result");
    export(&out.join("campaign_mesh32.json"), &json, mode, rep);
    clock.stop(rep);

    rep.completed = runs.iter().map(|r| r.epochs.len() as u64).sum();
    for outcome in &outcomes {
        if let Some((epoch, message)) = &outcome.failure {
            rep.notes.push(format!(
                "known defect: {} chip {} panicked in epoch {epoch} ({} of {} epochs done): {message}",
                outcome.kind.name(),
                outcome.chip,
                outcome.metrics.as_ref().map_or(0, |m| m.epochs.len()),
                config.epoch_count(),
            ));
        }
    }
    if let Err(problem) = checks::records_are_finite(&outcomes, config) {
        rep.problems.push(problem);
    }
}

/// Times the three stages of `Campaign::new` for each of the workload's
/// campaigns by calling them directly.
pub fn setup_stages(workload: Workload, seed: u64, rec: &LayerRecorder) {
    for config in workload.configs(seed) {
        let floorplan = config.floorplan();
        let time = |name: &str, f: &mut dyn FnMut()| {
            let start = Instant::now();
            f();
            rec.span_seconds(name, start.elapsed().as_secs_f64());
        };
        time("setup.variation", &mut || {
            ChipStream::new(&floorplan, &config.variation, config.variation_seed)
                .expect("valid variation parameters");
        });
        time("setup.predictor", &mut || {
            let _ = ThermalPredictor::learn(&floorplan, &config.thermal);
        });
        time("setup.aging_table", &mut || {
            let model = AgingModel::paper(config.variation.design_seed);
            let _ = AgingTable::generate(&model, &config.table_axes);
        });
    }
}

/// `Campaign::new` alone, summed over the workload's campaigns.
pub fn setup_only(workload: Workload, seed: u64) -> f64 {
    workload
        .configs(seed)
        .into_iter()
        .map(|config| {
            let start = Instant::now();
            let campaign = Campaign::new(config).expect("workload configurations are valid");
            let seconds = start.elapsed().as_secs_f64();
            drop(campaign);
            seconds
        })
        .sum()
}

/// One run driven by the benchmark: its (possibly partial) metrics and,
/// if it panicked, the epoch and message.
pub struct Outcome {
    pub kind: PolicyKind,
    pub chip: usize,
    pub metrics: Option<RunMetrics>,
    pub failure: Option<(usize, String)>,
}

/// Drives every run of the campaign grid through `SimulationEngine::run_epoch`
/// on `workers` threads, one engine per thread at a time. A panic ends its
/// run only: the epochs before it stand.
fn drive(
    campaign: &Campaign,
    policies: &[PolicyKind],
    workers: usize,
    mode: &Mode,
) -> Vec<Outcome> {
    let grid: Vec<(PolicyKind, usize)> = policies
        .iter()
        .flat_map(|&kind| (0..campaign.chip_count()).map(move |chip| (kind, chip)))
        .collect();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new((0..grid.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(grid.len()) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(kind, chip)) = grid.get(index) else {
                    break;
                };
                let outcome = drive_one(campaign, kind, chip, mode);
                slots.lock().expect("slots lock")[index] = Some(outcome);
            });
        }
    });
    slots
        .into_inner()
        .expect("slots lock")
        .into_iter()
        .map(|slot| slot.expect("every run was driven"))
        .collect()
}

fn drive_one(campaign: &Campaign, kind: PolicyKind, chip: usize, mode: &Mode) -> Outcome {
    let config = campaign.config();
    let (built, _) = mode.timed("build.chip", || {
        catch_unwind(AssertUnwindSafe(|| {
            let system = campaign.system_for(chip);
            let policy = kind.instantiate(config.workload_seed ^ chip as u64);
            SimulationEngine::new(system, policy, config).with_recorder(mode.recorder())
        }))
    });
    let mut engine = match built {
        Ok(engine) => engine,
        Err(payload) => {
            return Outcome {
                kind,
                chip,
                metrics: None,
                failure: Some((0, panic_message(payload.as_ref()))),
            }
        }
    };
    let mut metrics = engine.start_metrics();
    let mut failure = None;
    for epoch in 0..config.epoch_count() {
        match catch_unwind(AssertUnwindSafe(|| engine.run_epoch(epoch))) {
            Ok(record) => metrics.epochs.push(record),
            Err(payload) => {
                failure = Some((epoch, panic_message(payload.as_ref())));
                break;
            }
        }
    }
    if failure.is_none() {
        engine.finalize_metrics(&mut metrics);
    }
    Outcome {
        kind,
        chip,
        metrics: Some(metrics),
        failure,
    }
}

/// A grid of driven runs as a campaign result, or the first failure.
fn collect(outcomes: Vec<Outcome>) -> Result<CampaignResult, String> {
    let dark_fraction = outcomes
        .iter()
        .find_map(|o| o.metrics.as_ref().map(|m| m.dark_fraction))
        .unwrap_or(0.0);
    let mut runs = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match (outcome.metrics, outcome.failure) {
            (Some(metrics), None) => runs.push(metrics),
            (_, failure) => {
                let (epoch, message) = failure.unwrap_or_default();
                return Err(format!(
                    "{} chip {} panicked in epoch {epoch}: {message}",
                    outcome.kind.name(),
                    outcome.chip
                ));
            }
        }
    }
    Ok(CampaignResult {
        runs,
        dark_fraction,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

fn jobs(count: usize) -> Jobs {
    Jobs::new(count).expect("non-zero worker count")
}

fn dark_pct(config: &SimulationConfig) -> u32 {
    (config.dark_fraction * 100.0).round() as u32
}

fn file_len(path: &Path) -> usize {
    std::fs::metadata(path).map_or(0, |m| m.len() as usize)
}
