//! Multi-chip evaluation campaigns (the machinery behind Figs. 7–11).

use crate::metrics::RunMetrics;
use crate::policy::hayat::HayatPolicy;
use crate::policy::simple::{CoolestFirstPolicy, RandomPolicy};
use crate::policy::vaa::VaaPolicy;
use crate::policy::Policy;
use crate::sim::config::{Batch, Jobs, SimulationConfig};
use crate::sim::engine::SimulationEngine;
use crate::sim::executor::{
    DynError, ExecutorError, ExecutorOptions, ProgressOptions, RunDescriptor, RunUpdate,
};
use crate::sim::fleet::FleetAccumulator;
use crate::system::{BuildSystemError, ChipSystem};
use hayat_aging::{AgingModel, AgingTable};
use hayat_floorplan::Floorplan;
use hayat_telemetry::{NullRecorder, Recorder};
use hayat_thermal::{ThermalModel, ThermalPredictor};
use hayat_variation::ChipStream;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Which policy a campaign run uses (serializable, factory-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PolicyKind {
    /// The Hayat policy with the paper's coefficients.
    Hayat,
    /// The extended state-of-the-art baseline.
    Vaa,
    /// Seeded random mapping (ablation lower bound).
    Random,
    /// Temperature-aware but health-blind mapping (ablation).
    CoolestFirst,
}

impl PolicyKind {
    /// Instantiates the policy.
    #[must_use]
    pub fn instantiate(self, seed: u64) -> Box<dyn Policy> {
        match self {
            PolicyKind::Hayat => Box::<HayatPolicy>::default(),
            PolicyKind::Vaa => Box::new(VaaPolicy),
            PolicyKind::Random => Box::new(RandomPolicy::new(seed)),
            PolicyKind::CoolestFirst => Box::new(CoolestFirstPolicy),
        }
    }

    /// The name the instantiated policy reports in [`RunMetrics::policy`].
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            PolicyKind::Hayat => "Hayat",
            PolicyKind::Vaa => "VAA",
            PolicyKind::Random => "Random",
            PolicyKind::CoolestFirst => "CoolestFirst",
        }
    }
}

/// A campaign: one configuration evaluated for every chip of the population
/// under each requested policy, sharing the expensive offline artifacts
/// (chip sampler, thermal model, thermal predictor, aging table).
///
/// Chips are *streamed*, not materialized: the campaign holds a seekable
/// [`ChipStream`] and regenerates any chip index on demand, so memory is
/// O(1) in [`chip_count`](Self::chip_count) — the same `Campaign` type
/// drives the paper's 25-chip grid and a simulated fleet of 10⁵ chips.
///
/// # Example
///
/// ```no_run
/// use hayat::{Campaign, SimulationConfig};
/// use hayat::sim::campaign::PolicyKind;
///
/// # fn main() -> Result<(), hayat::BuildSystemError> {
/// let campaign = Campaign::new(SimulationConfig::paper(0.5))?;
/// let result = campaign.run(&[PolicyKind::Vaa, PolicyKind::Hayat]);
/// println!("{}", result.summary(PolicyKind::Hayat).unwrap().mean_dtm_events);
/// # Ok(())
/// # }
/// ```
pub struct Campaign {
    config: SimulationConfig,
    floorplan: Floorplan,
    stream: ChipStream,
    predictor: Arc<ThermalPredictor>,
    aging_table: Arc<AgingTable>,
    thermal: Arc<ThermalModel>,
    batch: Batch,
}

impl Campaign {
    /// Builds the shared infrastructure for a campaign.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSystemError`] if the chip sampler cannot be built
    /// (invalid variation parameters or a covariance factorization failure).
    pub fn new(config: SimulationConfig) -> Result<Self, BuildSystemError> {
        config.assert_valid();
        let floorplan = config.floorplan();
        let stream = ChipStream::new(&floorplan, &config.variation, config.variation_seed)?;
        let predictor = Arc::new(ThermalPredictor::learn(&floorplan, &config.thermal));
        let aging_model = AgingModel::paper(config.variation.design_seed);
        let aging_table = Arc::new(AgingTable::generate(&aging_model, &config.table_axes));
        let thermal = Arc::new(config.thermal_model(&floorplan));
        Ok(Campaign {
            config,
            floorplan,
            stream,
            predictor,
            aging_table,
            thermal,
            batch: Batch::serial(),
        })
    }

    /// The campaign's configuration.
    #[must_use]
    pub const fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Chips per worker claim ([`Batch::serial`] — one chip — by default).
    #[must_use]
    pub const fn batch(&self) -> Batch {
        self.batch
    }

    /// Selects the batched execution width: every worker claim pulls this
    /// many consecutive canonical-order chips and runs them in lockstep
    /// through the structure-of-arrays epoch loop. Like `--jobs`, a pure
    /// execution knob — output is byte-identical to `--batch 1` for any
    /// width (a CI cmp gate holds it to that), so it lives outside
    /// [`SimulationConfig`] and never enters a checkpoint's config hash.
    #[must_use]
    pub fn with_batch(mut self, batch: Batch) -> Self {
        self.batch = batch;
        self
    }

    /// Number of chips in the population.
    #[must_use]
    pub fn chip_count(&self) -> usize {
        self.config.chip_count
    }

    /// The seekable chip sampler the campaign draws from. Chip `i` here is
    /// bit-identical to `ChipPopulation::generate(..).chips()[i]` under the
    /// campaign's config — the spot-`--replay` contract.
    #[must_use]
    pub const fn chip_stream(&self) -> &ChipStream {
        &self.stream
    }

    /// Builds the (fresh) system for one chip of the population. The chip is
    /// regenerated on demand from the seekable stream — O(one sample),
    /// whatever the index.
    ///
    /// # Panics
    ///
    /// Panics if `chip_index` is out of range.
    #[must_use]
    pub fn system_for(&self, chip_index: usize) -> ChipSystem {
        assert!(
            chip_index < self.chip_count(),
            "chip index {chip_index} out of range for population of {}",
            self.chip_count()
        );
        let chip = self.stream.chip(chip_index);
        ChipSystem::from_parts(
            self.floorplan.clone(),
            chip,
            &self.config,
            Arc::clone(&self.predictor),
            Arc::clone(&self.aging_table),
            Arc::clone(&self.thermal),
        )
    }

    /// The campaign's run grid in canonical order (policy-major, then chip
    /// index) — the order [`CampaignResult::runs`] always comes back in,
    /// whatever the worker count.
    #[must_use]
    pub fn grid(&self, policies: &[PolicyKind]) -> Vec<RunDescriptor> {
        policies
            .iter()
            .flat_map(|&kind| (0..self.chip_count()).map(move |chip| (kind, chip)))
            .enumerate()
            .map(|(index, (kind, chip))| RunDescriptor { index, kind, chip })
            .collect()
    }

    /// Runs every chip under every requested policy, fanning the
    /// independent chip×policy runs across OS threads (one worker per
    /// available hardware thread). Results are ordered deterministically
    /// (policy-major, then chip index) regardless of scheduling.
    #[must_use]
    pub fn run(&self, policies: &[PolicyKind]) -> CampaignResult {
        self.run_with_jobs(policies, Jobs::auto())
    }

    /// [`run`](Self::run) with an explicit worker count (`--jobs`). Output
    /// is byte-identical for every `jobs` value, including serial.
    #[must_use]
    pub fn run_with_jobs(&self, policies: &[PolicyKind], jobs: Jobs) -> CampaignResult {
        unwrap_campaign(self.try_run(policies, jobs, Arc::new(NullRecorder)))
    }

    /// [`run`](Self::run) with campaign telemetry: one `campaign.worker`
    /// span per pool thread, a `campaign.jobs` gauge, one `campaign.chip`
    /// span per chip×policy job, plus everything the per-run engines emit
    /// (epoch spans, decision latencies, DTM counters, thermal-solver
    /// statistics).
    ///
    /// Each worker buffers into its own recorder; the buffers are replayed
    /// into `recorder` in worker order after the pool joins, so the recorded
    /// stream is deterministic too and the simulations never contend on the
    /// sink.
    #[must_use]
    pub fn run_with_recorder(
        &self,
        policies: &[PolicyKind],
        recorder: Arc<dyn Recorder>,
    ) -> CampaignResult {
        unwrap_campaign(self.try_run(policies, Jobs::auto(), recorder))
    }

    /// The fallible core of [`run`](Self::run): executes the campaign grid
    /// on [`Campaign::execute`] and merges completed runs back into
    /// canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError::WorkerPanic`] if a worker thread panics;
    /// the infallible wrappers resume the panic instead.
    pub fn try_run(
        &self,
        policies: &[PolicyKind],
        jobs: Jobs,
        recorder: Arc<dyn Recorder>,
    ) -> Result<CampaignResult, ExecutorError> {
        self.try_run_observed(policies, jobs, recorder, None, None)
    }

    /// [`try_run`](Self::try_run) with the fleet observability hooks: an
    /// optional streaming [`FleetAccumulator`] fed every completed run at
    /// the canonical-order merge point (so its summary is byte-identical
    /// for any `jobs`), and optional live [`ProgressOptions`] frames.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError::WorkerPanic`] if a worker thread panics.
    pub fn try_run_observed(
        &self,
        policies: &[PolicyKind],
        jobs: Jobs,
        recorder: Arc<dyn Recorder>,
        fleet: Option<&Mutex<FleetAccumulator>>,
        progress: Option<ProgressOptions>,
    ) -> Result<CampaignResult, ExecutorError> {
        let descriptors = self.grid(policies);
        let mut runs: Vec<Option<RunMetrics>> = (0..descriptors.len()).map(|_| None).collect();
        let options = ExecutorOptions {
            jobs,
            progress,
            ..ExecutorOptions::default()
        };
        self.execute(&descriptors, None, &options, &recorder, |update| {
            if let RunUpdate::Completed { index, metrics } = update {
                if let Some(fleet) = fleet {
                    fleet
                        .lock()
                        .expect("fleet accumulator lock")
                        .observe_completed(index, &metrics);
                }
                runs[index] = Some(*metrics);
            }
            Ok(())
        })?;
        Ok(CampaignResult {
            runs: runs
                .into_iter()
                .map(|r| r.expect("every job ran"))
                .collect(),
            dark_fraction: self.config.dark_fraction,
        })
    }

    /// The fleet-scale path: runs the whole grid and hands every completed
    /// run to `sink` **in canonical order** (policy-major, then chip index)
    /// without ever collecting a [`CampaignResult`]. Memory is O(jobs), not
    /// O(runs): completions that arrive ahead of the canonical cursor wait
    /// in a reorder buffer whose size is bounded by worker skew, and each
    /// run is dropped as soon as the sink returns.
    ///
    /// The optional [`FleetAccumulator`] is fed the same canonical stream,
    /// so its sketches are byte-identical for any `jobs` — together they are
    /// the default output path of fleet campaigns (compact run file + O(1)
    /// summary).
    ///
    /// Returns the number of runs delivered.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError::WorkerPanic`] if a worker thread panics and
    /// [`ExecutorError::SinkAborted`] if `sink` returns an error (the error
    /// is downcastable back to the sink's type).
    pub fn stream_runs(
        &self,
        policies: &[PolicyKind],
        jobs: Jobs,
        recorder: Arc<dyn Recorder>,
        fleet: Option<&Mutex<FleetAccumulator>>,
        progress: Option<ProgressOptions>,
        mut sink: impl FnMut(usize, RunMetrics) -> Result<(), DynError>,
    ) -> Result<usize, ExecutorError> {
        let descriptors = self.grid(policies);
        let options = ExecutorOptions {
            jobs,
            progress,
            ..ExecutorOptions::default()
        };
        // Reorder buffer: completions land in scheduling order; the sink
        // must see canonical order. Only runs ahead of the cursor are ever
        // held, so the buffer tracks worker skew, not fleet size.
        let mut pending: BTreeMap<usize, RunMetrics> = BTreeMap::new();
        let mut next_emit = 0usize;
        self.execute(&descriptors, None, &options, &recorder, |update| {
            if let RunUpdate::Completed { index, metrics } = update {
                if let Some(fleet) = fleet {
                    fleet
                        .lock()
                        .expect("fleet accumulator lock")
                        .observe_completed(index, &metrics);
                }
                pending.insert(index, *metrics);
                while let Some(metrics) = pending.remove(&next_emit) {
                    sink(next_emit, metrics)?;
                    next_emit += 1;
                }
            }
            Ok(())
        })?;
        debug_assert!(pending.is_empty(), "every completed run was emitted");
        Ok(next_emit)
    }

    /// Runs one chip under one policy.
    ///
    /// # Panics
    ///
    /// Panics if `chip_index` is out of range.
    #[must_use]
    pub fn run_one(&self, kind: PolicyKind, chip_index: usize) -> RunMetrics {
        self.run_one_with_recorder(kind, chip_index, Arc::new(NullRecorder))
    }

    /// [`run_one`](Self::run_one) with the engine wired to a telemetry sink.
    ///
    /// # Panics
    ///
    /// Panics if `chip_index` is out of range.
    #[must_use]
    pub fn run_one_with_recorder(
        &self,
        kind: PolicyKind,
        chip_index: usize,
        recorder: Arc<dyn Recorder>,
    ) -> RunMetrics {
        let system = self.system_for(chip_index);
        let policy = kind.instantiate(self.config.workload_seed ^ chip_index as u64);
        let mut engine =
            SimulationEngine::new(system, policy, &self.config).with_recorder(recorder);
        engine.run()
    }
}

/// Unwraps the infallible campaign paths: with no gates and an infallible
/// sink the only possible failure is a worker panic, which is resumed so the
/// panicking contract of [`Campaign::run`] predates the executor unchanged.
fn unwrap_campaign(result: Result<CampaignResult, ExecutorError>) -> CampaignResult {
    match result {
        Ok(result) => result,
        Err(ExecutorError::WorkerPanic {
            kind,
            chip,
            message,
        }) => {
            panic!(
                "campaign worker panicked ({} on chip {chip}): {message}",
                kind.name()
            )
        }
        Err(other) => panic!("campaign executor failed without gates or a fallible sink: {other}"),
    }
}

/// All runs of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Every chip × policy run.
    pub runs: Vec<RunMetrics>,
    /// The campaign's dark fraction.
    pub dark_fraction: f64,
}

impl CampaignResult {
    /// The runs of one policy.
    #[must_use]
    pub fn runs_of(&self, kind: PolicyKind) -> Vec<&RunMetrics> {
        self.runs
            .iter()
            .filter(|r| r.policy == kind.name())
            .collect()
    }

    /// Aggregates one policy's runs; `None` if the policy has no runs.
    #[must_use]
    pub fn summary(&self, kind: PolicyKind) -> Option<CampaignSummary> {
        let runs = self.runs_of(kind);
        if runs.is_empty() {
            return None;
        }
        let n = runs.len() as f64;
        let mean = |f: &dyn Fn(&RunMetrics) -> f64| runs.iter().map(|r| f(r)).sum::<f64>() / n;
        // Average trajectory over chips (same epoch grid on every run).
        let len = runs.iter().map(|r| r.epochs.len()).min().unwrap_or(0);
        let mut trajectory = vec![(0.0, mean(&|r| r.initial_avg_fmax_ghz))];
        for e in 0..len {
            let years = runs[0].epochs[e].years;
            let avg = runs.iter().map(|r| r.epochs[e].avg_fmax_ghz).sum::<f64>() / n;
            trajectory.push((years, avg));
        }
        Some(CampaignSummary {
            policy: runs[0].policy.clone(),
            dark_fraction: self.dark_fraction,
            chips: runs.len(),
            mean_dtm_migrations: mean(&|r| r.total_dtm_migrations() as f64),
            mean_dtm_events: mean(&|r| r.total_dtm_events() as f64),
            mean_temp_over_ambient: mean(&RunMetrics::avg_temp_over_ambient),
            mean_chip_fmax_aging_rate: mean(&RunMetrics::chip_fmax_aging_rate),
            mean_avg_fmax_aging_rate: mean(&RunMetrics::avg_fmax_aging_rate),
            mean_final_avg_fmax_ghz: mean(&RunMetrics::final_avg_fmax_ghz),
            mean_throughput_fraction: mean(&RunMetrics::mean_throughput_fraction),
            mean_final_health_std: mean(&|r: &RunMetrics| r.final_health_std),
            mean_final_min_health: mean(&|r: &RunMetrics| {
                r.epochs.last().map_or(1.0, |e| e.min_health)
            }),
            avg_fmax_trajectory: trajectory,
        })
    }

    /// Ratio of a summary metric between two policies
    /// (`numerator / denominator`), the normalization used in Figs. 7–10.
    /// `None` if either summary is missing or the denominator is zero.
    #[must_use]
    pub fn normalized(
        &self,
        metric: impl Fn(&CampaignSummary) -> f64,
        numerator: PolicyKind,
        denominator: PolicyKind,
    ) -> Option<f64> {
        let num = metric(&self.summary(numerator)?);
        let den = metric(&self.summary(denominator)?);
        (den != 0.0).then(|| num / den)
    }
}

/// Aggregate statistics of one policy across a chip population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Policy name.
    pub policy: String,
    /// The campaign's dark fraction.
    pub dark_fraction: f64,
    /// Number of chips aggregated.
    pub chips: usize,
    /// Mean DTM migrations per chip (Fig. 7).
    pub mean_dtm_migrations: f64,
    /// Mean DTM events (migrations + throttles) per chip.
    pub mean_dtm_events: f64,
    /// Mean temperature over ambient, kelvin (Fig. 8).
    pub mean_temp_over_ambient: f64,
    /// Mean chip-fmax aging rate (Fig. 9).
    pub mean_chip_fmax_aging_rate: f64,
    /// Mean average-fmax aging rate (Fig. 10).
    pub mean_avg_fmax_aging_rate: f64,
    /// Mean final average fmax, GHz.
    pub mean_final_avg_fmax_ghz: f64,
    /// Mean delivered-throughput fraction (1.0 = every thread met its
    /// requirement the whole run).
    pub mean_throughput_fraction: f64,
    /// Mean end-of-run per-core health standard deviation. Note: elite-core
    /// preservation makes Hayat's distribution bimodal (preserved cores at
    /// full health), so this is *expected* to be larger for Hayat; the
    /// balancing claim is measured by [`mean_final_min_health`](Self::mean_final_min_health).
    pub mean_final_health_std: f64,
    /// Mean end-of-run *weakest-core* health — the paper's balancing claim:
    /// higher means no core was driven into the ground.
    pub mean_final_min_health: f64,
    /// Population-averaged `(years, avg fmax GHz)` trajectory (Fig. 11).
    pub avg_fmax_trajectory: Vec<(f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::hayat::{HayatReference, SearchPath};
    use hayat_aging::TablePath;

    fn tiny_campaign() -> Campaign {
        let mut config = SimulationConfig::quick_demo();
        config.chip_count = 2;
        config.years = 1.0;
        config.epoch_years = 0.5;
        config.transient_window_seconds = 0.1;
        Campaign::new(config).unwrap()
    }

    #[test]
    fn campaign_runs_all_chip_policy_pairs() {
        let c = tiny_campaign();
        let result = c.run(&[PolicyKind::Vaa, PolicyKind::Hayat]);
        assert_eq!(result.runs.len(), 4);
        assert_eq!(result.runs_of(PolicyKind::Vaa).len(), 2);
        assert_eq!(result.runs_of(PolicyKind::Hayat).len(), 2);
    }

    #[test]
    fn summary_aggregates() {
        let c = tiny_campaign();
        let result = c.run(&[PolicyKind::Hayat]);
        let s = result.summary(PolicyKind::Hayat).unwrap();
        assert_eq!(s.chips, 2);
        assert_eq!(s.policy, "Hayat");
        assert!(s.mean_final_avg_fmax_ghz > 0.0);
        assert_eq!(s.avg_fmax_trajectory.len(), 3); // year 0 + 2 epochs
        assert!(result.summary(PolicyKind::Vaa).is_none());
    }

    #[test]
    fn normalized_ratio() {
        let c = tiny_campaign();
        let result = c.run(&[PolicyKind::Vaa, PolicyKind::Hayat]);
        let ratio = result
            .normalized(
                |s| s.mean_temp_over_ambient,
                PolicyKind::Hayat,
                PolicyKind::Vaa,
            )
            .unwrap();
        assert!(ratio > 0.0 && ratio < 5.0, "ratio = {ratio}");
    }

    #[test]
    fn recorded_campaign_matches_unrecorded_and_counts_jobs() {
        let c = tiny_campaign();
        let plain = c.run(&[PolicyKind::Hayat]);
        let rec = Arc::new(hayat_telemetry::MemoryRecorder::new());
        let recorded = c.run_with_recorder(&[PolicyKind::Hayat], rec.clone());
        assert_eq!(plain, recorded, "telemetry must be a pure observer");
        let s = rec.summary();
        assert_eq!(s.counter_total("campaign.runs_completed"), Some(2));
        assert_eq!(s.span("campaign.chip").map(|sp| sp.count), Some(2));
        assert!(s.span("engine.epoch").map_or(0, |sp| sp.count) >= 2);
    }

    /// Re-runs every Hayat chip of the tiny campaign through the reference
    /// policy under `search` and `table` and requires each run to serialize
    /// byte-identically to the campaign's own (production-path) run.
    fn assert_reference_reproduces_hayat_runs(search: SearchPath, table: TablePath) {
        let c = tiny_campaign();
        let result = c.run_with_jobs(&[PolicyKind::Hayat], Jobs::serial());
        assert_eq!(result.runs.len(), c.chip_count());
        for (chip, run) in result.runs.iter().enumerate() {
            let reference = HayatReference::new(search, table);
            let mut engine =
                SimulationEngine::new(c.system_for(chip), Box::new(reference), c.config());
            assert_eq!(
                serde_json::to_string(&engine.run()).unwrap(),
                serde_json::to_string(run).unwrap(),
                "chip {chip} drifted"
            );
        }
    }

    #[test]
    fn oracle_table_path_reproduces_the_fast_campaign_exactly() {
        // The fast age-curve inversion is an exact inverse of the surface the
        // oracle bisects, so no run may change at all.
        assert_reference_reproduces_hayat_runs(SearchPath::Tiled, TablePath::Oracle);
    }

    #[test]
    fn exhaustive_search_path_reproduces_the_tiled_campaign_exactly() {
        // The tiled candidate index prunes work, never choices: no run may
        // change at all when the oracle scan runs instead.
        assert_reference_reproduces_hayat_runs(SearchPath::Exhaustive, TablePath::Fast);
    }

    #[test]
    fn batched_execution_reproduces_the_serial_campaign_exactly() {
        // `--batch` is a pure execution knob: lockstep lanes preserve every
        // chip's FP op order, so any width must reproduce the serial bytes.
        // The reference is `run_one`, which drives `SimulationEngine::run`
        // directly and never enters the executor's claim path.
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let c = tiny_campaign();
        let serial: Vec<RunMetrics> = policies
            .iter()
            .flat_map(|&kind| (0..c.config().chip_count).map(move |chip| (kind, chip)))
            .map(|(kind, chip)| c.run_one(kind, chip))
            .collect();
        for width in [1, 2, 3, 64] {
            let batched = tiny_campaign()
                .with_batch(Batch::new(width).unwrap())
                .run_with_jobs(&policies, Jobs::serial());
            assert_eq!(serial, batched.runs, "batch width {width} drifted");
        }
    }

    #[test]
    fn stream_runs_delivers_canonical_order_without_collecting() {
        let c = tiny_campaign();
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let collected = c.run_with_jobs(&policies, Jobs::serial());
        let mut streamed = Vec::new();
        let delivered = c
            .stream_runs(
                &policies,
                Jobs::auto(),
                Arc::new(NullRecorder),
                None,
                None,
                |index, metrics| {
                    assert_eq!(index, streamed.len(), "canonical order");
                    streamed.push(metrics);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(delivered, 4);
        assert_eq!(streamed, collected.runs);
    }

    #[test]
    fn stream_runs_sink_error_aborts_and_downcasts() {
        let c = tiny_campaign();
        let err = c
            .stream_runs(
                &[PolicyKind::Hayat],
                Jobs::serial(),
                Arc::new(NullRecorder),
                None,
                None,
                |_, _| Err("sink full".into()),
            )
            .unwrap_err();
        match err {
            ExecutorError::SinkAborted { source } => {
                assert_eq!(source.to_string(), "sink full");
            }
            other => panic!("expected SinkAborted, got {other}"),
        }
    }

    #[test]
    fn systems_share_infrastructure_but_not_health() {
        let c = tiny_campaign();
        let a = c.system_for(0);
        let b = c.system_for(1);
        assert_ne!(a.chip().fmax_all(), b.chip().fmax_all());
        assert!((a.health().mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chips_share_the_campaigns_thermal_model() {
        let c = tiny_campaign();
        let a = c.system_for(0);
        let b = c.system_for(1);
        assert!(Arc::ptr_eq(a.transient().model(), b.transient().model()));
        assert!(Arc::ptr_eq(a.transient().model(), &c.thermal));
    }

    #[test]
    fn shared_model_runs_match_fresh_per_chip_builds() {
        // `paper_chip` builds each chip its own network and factor; the
        // campaign's chips step over one shared model. No run may change.
        let mut config = SimulationConfig::quick_demo();
        config.chip_count = 3;
        config.years = 1.5;
        config.transient_window_seconds = 0.1;
        let campaign = Campaign::new(config.clone()).unwrap();
        for kind in [PolicyKind::Hayat, PolicyKind::Vaa] {
            for chip in 0..config.chip_count {
                let system = ChipSystem::paper_chip(chip, &config).unwrap();
                let policy = kind.instantiate(config.workload_seed ^ chip as u64);
                let fresh = SimulationEngine::new(system, policy, &config).run();
                assert_eq!(
                    campaign.run_one(kind, chip),
                    fresh,
                    "{} chip {chip}",
                    kind.name()
                );
            }
        }
    }
}
