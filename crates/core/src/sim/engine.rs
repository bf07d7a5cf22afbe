//! The epoch-based accelerated-aging engine.

use crate::dtm::DtmController;
use crate::mapping::ThreadMapping;
use crate::metrics::{EpochRecord, RunMetrics};
use crate::policy::{Policy, PolicyContext, PolicyScratch};
use crate::sensors::SensorSuite;
use crate::sim::config::SimulationConfig;
use crate::sim::snapshot::{EngineSnapshot, RestoreError};
use crate::sim::window::WindowAccum;
use crate::system::ChipSystem;
use hayat_floorplan::CoreId;
use hayat_telemetry::{NullRecorder, Recorder, RecorderExt, SpanContext};
use hayat_thermal::BatchLane;
use hayat_units::{Watts, Years};
use hayat_workload::WorkloadMix;
use std::cell::RefCell;
use std::sync::Arc;

/// The accelerated-aging evaluation loop of Fig. 4.
///
/// Chip aging plays out over years while thermal dynamics play out over
/// milliseconds, so the engine alternates two timescales per epoch:
///
/// 1. **Decision** — the policy produces a thread mapping (and thereby the
///    Dark Core Map) from the current health map and workload mix.
/// 2. **Fine-grained transient simulation** — the RC thermal model advances
///    in control periods (the paper's 6.6 ms temperature-dependent-leakage
///    update), DTM fires on thermal emergencies, and per-core worst-case
///    temperatures and duty cycles are recorded.
/// 3. **Epoch upscale** — the recorded statistics drive one
///    [`AgingTable::advance`](hayat_aging::AgingTable::advance) per core
///    over the epoch length (months of simulated stress), updating the
///    health map the next epoch's decision will see.
///
/// Workload mixes rotate across epochs ("the next epoch starts considering
/// the same set of workloads (or potentially a different one, given
/// multiple sets of workloads)").
///
/// # Example
///
/// ```
/// use hayat::{ChipSystem, SimulationConfig, SimulationEngine, VaaPolicy};
///
/// # fn main() -> Result<(), hayat::BuildSystemError> {
/// let config = SimulationConfig::quick_demo();
/// let system = ChipSystem::paper_chip(0, &config)?;
/// let metrics = SimulationEngine::new(system, Box::new(VaaPolicy), &config).run();
/// // Health can only decline.
/// assert!(metrics.final_health_mean() <= 1.0);
/// # Ok(())
/// # }
/// ```
pub struct SimulationEngine {
    system: ChipSystem,
    policy: Box<dyn Policy>,
    config: SimulationConfig,
    dtm: DtmController,
    mixes: Vec<WorkloadMix>,
    sensors: Option<SensorSuite>,
    recorder: Arc<dyn Recorder>,
    /// Base causal context (run/chip/worker) the executor assigns; the
    /// engine stamps the current epoch on top of it each epoch.
    context: SpanContext,
    /// Per-engine decision scratch: warmed on the first epoch, every later
    /// epoch's policy decision then runs without heap allocation. The engine
    /// is moved (never shared) across worker threads, so a `RefCell` is
    /// enough.
    scratch: RefCell<PolicyScratch>,
    /// The transient window, reset every epoch and reused across epochs.
    window: WindowAccum,
    /// The per-core power vector of the current control period.
    power: Vec<Watts>,
}

impl SimulationEngine {
    /// Builds an engine for one chip and one policy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimulationConfig::assert_valid`].
    #[must_use]
    pub fn new(system: ChipSystem, policy: Box<dyn Policy>, config: &SimulationConfig) -> Self {
        config.assert_valid();
        // Mix sizes spread across the malleability range: the paper's
        // applications adapt K_j to the available on-core count.
        let max_on = system.budget().max_on();
        let (lo, hi) = config.mix_load_range;
        let rotation = config.mix_rotation;
        let mixes = (0..rotation)
            .map(|i| {
                let frac = if rotation <= 1 {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / (rotation - 1) as f64
                };
                let target = ((max_on as f64 * frac).round() as usize).clamp(1, max_on);
                WorkloadMix::generate(config.workload_seed.wrapping_add(i as u64), target)
            })
            .collect();
        let dtm = DtmController::new(
            system.thermal_config().t_safe,
            config.dtm_hysteresis_kelvin,
            system.floorplan().core_count(),
        );
        let sensors = config
            .sensors
            .clone()
            .map(|cfg| SensorSuite::new(cfg, config.workload_seed ^ 0x5E25_0125));
        let window = WindowAccum::new(system.transient().core_temps());
        let power = Vec::with_capacity(system.floorplan().core_count());
        SimulationEngine {
            system,
            policy,
            config: config.clone(),
            dtm,
            mixes,
            sensors,
            recorder: Arc::new(NullRecorder),
            context: SpanContext::default(),
            scratch: RefCell::new(PolicyScratch::new()),
            window,
            power,
        }
    }

    /// Replaces the engine's telemetry sink (the default is the zero-cost
    /// [`NullRecorder`]). The recorder observes epoch spans, policy decision
    /// latencies, DTM counters, and thermal-solver statistics; it must never
    /// change simulation results.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Sets the base causal context (run/chip/worker) stamped — with the
    /// current epoch added — onto every signal this engine emits. Purely
    /// observational, like the recorder itself.
    #[must_use]
    pub fn with_span_context(mut self, context: SpanContext) -> Self {
        self.context = context;
        self
    }

    /// The chip system in its current (possibly aged) state.
    #[must_use]
    pub const fn system(&self) -> &ChipSystem {
        &self.system
    }

    /// The DTM controller with its cumulative counters.
    #[must_use]
    pub const fn dtm(&self) -> &DtmController {
        &self.dtm
    }

    /// Runs the full configured lifetime and returns the metrics.
    pub fn run(&mut self) -> RunMetrics {
        let mut metrics = self.start_metrics();
        self.run_epochs(0, self.config.epoch_count(), &mut metrics);
        self.finalize_metrics(&mut metrics);
        metrics
    }

    /// Runs epochs `start..end`, appending each record to `metrics` — the
    /// building block external drivers (the parallel executor, the
    /// checkpointer) use to advance a run in resumable slices.
    pub fn run_epochs(&mut self, start: usize, end: usize, metrics: &mut RunMetrics) {
        for epoch in start..end {
            let record = self.run_epoch(epoch);
            metrics.epochs.push(record);
        }
    }

    /// The run-level [`RunMetrics`] header (no epochs yet) for a run that
    /// starts now. The `initial_*` frequencies read the system's *current*
    /// state, so call this on a fresh engine — a checkpointed run stores
    /// the header at epoch 0 and reuses it on resume rather than calling
    /// this on the re-aged system.
    #[must_use]
    pub fn start_metrics(&self) -> RunMetrics {
        RunMetrics {
            policy: self.policy.name().to_owned(),
            chip_id: self.system.chip().id(),
            dark_fraction: self.config.dark_fraction,
            ambient_kelvin: self.system.thermal_config().ambient.value(),
            initial_avg_fmax_ghz: self.system.avg_fmax().value(),
            initial_chip_fmax_ghz: self.system.chip_fmax().value(),
            final_health_std: 0.0,
            epochs: Vec::with_capacity(self.config.epoch_count()),
        }
    }

    /// Fills in the end-of-run fields computed from the engine's final
    /// state ([`RunMetrics::final_health_std`]).
    pub fn finalize_metrics(&self, metrics: &mut RunMetrics) {
        metrics.final_health_std = self.system.health().std_dev();
    }

    /// Captures the engine's complete mutable state at an epoch boundary:
    /// epochs `0..next_epoch` have run, `next_epoch` has not started.
    ///
    /// Restoring the snapshot into a fresh engine built from the same
    /// config and chip ([`SimulationEngine::restore`]) and running the
    /// remaining epochs reproduces the uninterrupted run bit for bit; the
    /// `snapshot_restore_resumes_exactly` test and the property tests in
    /// `integration_checkpoint` hold this contract.
    #[must_use]
    pub fn snapshot(&self, next_epoch: usize) -> EngineSnapshot {
        EngineSnapshot {
            next_epoch,
            health: self.system.health().clone(),
            transient: self.system.transient().snapshot(),
            dtm: self.dtm.clone(),
            sensor_rng: self.sensors.as_ref().map(SensorSuite::rng_state),
            policy_rng: self.policy.rng_state(),
        }
    }

    /// Restores state captured with [`SimulationEngine::snapshot`] on an
    /// engine built from the same configuration and chip. After a
    /// successful restore, continue with
    /// `run_epoch(snapshot.next_epoch)` onward.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] when the snapshot's shape does not match
    /// this engine (different core count, RC network, sensor configuration,
    /// or policy statefulness); the engine is left unchanged in that case.
    pub fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), RestoreError> {
        let cores = self.system.floorplan().core_count();
        if snapshot.health.len() != cores {
            return Err(RestoreError::CoreCountMismatch {
                expected: cores,
                got: snapshot.health.len(),
            });
        }
        let nodes = self.system.transient().node_count();
        if snapshot.transient.node_temps.len() != nodes {
            return Err(RestoreError::NodeCountMismatch {
                expected: nodes,
                got: snapshot.transient.node_temps.len(),
            });
        }
        if snapshot.sensor_rng.is_some() != self.sensors.is_some() {
            return Err(RestoreError::SensorStateMismatch);
        }
        if snapshot.policy_rng.is_some() != self.policy.rng_state().is_some() {
            return Err(RestoreError::PolicyStateMismatch);
        }
        *self.system.health_mut() = snapshot.health.clone();
        self.system.transient_mut().restore(&snapshot.transient);
        self.dtm = snapshot.dtm.clone();
        if let (Some(sensors), Some(state)) = (self.sensors.as_mut(), snapshot.sensor_rng) {
            sensors.restore_rng_state(state);
        }
        if let Some(state) = snapshot.policy_rng {
            self.policy.restore_rng_state(state);
        }
        Ok(())
    }

    /// Runs a single epoch (public so benches can time one decision+window).
    ///
    /// The epoch is composed from the crate-visible phase helpers
    /// (`epoch_decide` → per-step `window_power_step` / thermal advance /
    /// `window_absorb_step` → `epoch_finish`) so the batched executor can
    /// interleave N chips through the same per-chip call sequence — the
    /// serial path here remains byte-identical to the pre-split engine.
    pub fn run_epoch(&mut self, epoch: usize) -> EpochRecord {
        let recorder = Arc::clone(&self.recorder);
        if recorder.enabled() {
            recorder.set_context(self.context.with_epoch(epoch as u64));
        }
        let _epoch_span = recorder.span("engine.epoch");
        let mut decision = self.epoch_decide(epoch, None);
        let steps = self.window_begin(&decision.workload);
        let dt = self.config.control_period();
        for step in 0..steps {
            self.window_power_step(step, &mut decision);
            self.system
                .transient_mut()
                .step_recorded(dt, &self.power, recorder.as_ref());
            self.window_absorb_step();
        }
        self.epoch_finish(epoch, decision, None)
    }

    /// This chip's lane of a batched thermal step: its transient simulator
    /// and the power vector the last `window_power_step` filled.
    pub(crate) fn thermal_lane(&mut self) -> BatchLane<'_> {
        BatchLane {
            sim: self.system.transient_mut(),
            power: &self.power,
        }
    }

    /// The engine's telemetry sink (shared with the batched executor).
    pub(crate) const fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The base causal context assigned by the executor.
    pub(crate) const fn span_context(&self) -> SpanContext {
        self.context
    }

    /// The configuration this engine runs under.
    pub(crate) const fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Phase 1 — the decision at the epoch boundary. With sensors
    /// configured, the policy sees the aging monitors' *reading* of the
    /// health map rather than ground truth. `shared` substitutes a
    /// batch-shared [`PolicyScratch`] for the engine's own (the scratch is
    /// a pure cache, so sharing it across serially-decided chips cannot
    /// change any decision).
    pub(crate) fn epoch_decide(
        &mut self,
        epoch: usize,
        shared: Option<&RefCell<PolicyScratch>>,
    ) -> EpochDecision {
        let recorder = Arc::clone(&self.recorder);
        let elapsed = Years::new(epoch as f64 * self.config.epoch_years);
        let workload = self.mixes[epoch % self.mixes.len()].clone();
        let sensed_system = self.sensors.as_mut().map(|sensors| {
            let mut view = self.system.clone();
            *view.health_mut() = sensors.read_health(self.system.health());
            view
        });
        let mapping = {
            let ctx = PolicyContext::new(
                sensed_system.as_ref().unwrap_or(&self.system),
                self.config.horizon(),
                elapsed,
            )
            .with_recorder(recorder.as_ref())
            .with_scratch(shared.unwrap_or(&self.scratch));
            self.policy.map_threads(&ctx, &workload)
        };
        drop(sensed_system);
        let unplaced_threads = workload.total_threads() - mapping.active_cores();
        recorder.gauge("engine.threads.unplaced", unplaced_threads as f64);
        EpochDecision {
            mapping,
            workload,
            unplaced_threads,
            migrations_before: self.dtm.migrations(),
            throttles_before: self.dtm.throttles(),
        }
    }

    /// Phase 2 entry — resets the engine's transient window for one epoch,
    /// seeded from the current thermal state, and returns its number of
    /// control periods.
    pub(crate) fn window_begin(&mut self, workload: &WorkloadMix) -> usize {
        let window = self.config.transient_window_seconds;
        let steps = (window / self.config.control_period_seconds)
            .round()
            .max(1.0) as usize;
        let required_ips_per_step = workload
            .threads()
            .map(|(_, t)| t.ips(t.min_frequency()))
            .sum();
        self.window.begin(
            steps,
            window,
            self.system.transient().core_temps(),
            required_ips_per_step,
        );
        steps
    }

    /// Phase 2, first half of one control period: DTM check against the
    /// current temperatures, per-core power under the (possibly updated)
    /// mapping — dynamic power follows the thread's phase trace — and
    /// stress/throughput accounting. Fills the engine's power vector for
    /// the thermal advance the caller performs (serially or batched across
    /// chips).
    pub(crate) fn window_power_step(&mut self, step: usize, decision: &mut EpochDecision) {
        let now = step as f64 * self.config.control_period_seconds;
        let events = self.dtm.check(
            &self.system,
            &mut decision.mapping,
            &decision.workload,
            &self.window.current,
            now,
        );
        if !events.is_empty() {
            self.window.invalidate_loads();
        }
        self.window.step_power(
            now,
            self.config.control_period_seconds,
            &self.system,
            &decision.mapping,
            &decision.workload,
            &self.dtm,
            &mut self.power,
        );
    }

    /// Phase 2, second half of one control period: folds the post-step
    /// temperatures into the window statistics.
    pub(crate) fn window_absorb_step(&mut self) {
        self.window.absorb(self.system.transient().core_temps());
    }

    /// Phase 3 — the epoch upscale: recycle the mapping, advance every
    /// core's health over the epoch length, emit the DTM counter deltas,
    /// and assemble the [`EpochRecord`].
    pub(crate) fn epoch_finish(
        &mut self,
        epoch: usize,
        decision: EpochDecision,
        shared: Option<&RefCell<PolicyScratch>>,
    ) -> EpochRecord {
        let recorder = Arc::clone(&self.recorder);
        // Recycle the mapping's buffers into the next decision.
        shared
            .unwrap_or(&self.scratch)
            .borrow_mut()
            .mapping_pool
            .push(decision.mapping);
        {
            let _aging_span = recorder.span("engine.aging.advance");
            let epoch_len = self.config.epoch();
            // Each core's update reads only its own health, so updating in
            // place core by core is the same as computing all first.
            for i in 0..self.system.floorplan().core_count() {
                let core = CoreId::new(i);
                let current = self.system.health().core(core);
                let h_next = self.system.aging_table().advance(
                    self.window.worst(i),
                    self.window.duty(i),
                    current.value(),
                    epoch_len,
                );
                self.system
                    .health_mut()
                    .set(core, current.degraded_to(h_next));
            }
        }

        recorder.counter(
            "dtm.migrations",
            self.dtm.migrations() - decision.migrations_before,
        );
        recorder.counter(
            "dtm.throttles",
            self.dtm.throttles() - decision.throttles_before,
        );

        EpochRecord {
            epoch,
            years: (epoch + 1) as f64 * self.config.epoch_years,
            avg_fmax_ghz: self.system.avg_fmax().value(),
            chip_fmax_ghz: self.system.chip_fmax().value(),
            mean_health: self.system.health().mean(),
            min_health: self.system.health().min().value(),
            avg_temp_kelvin: self.window.avg_temp(),
            peak_temp_kelvin: self.window.peak(),
            dtm_migrations: self.dtm.migrations() - decision.migrations_before,
            dtm_throttles: self.dtm.throttles() - decision.throttles_before,
            unplaced_threads: decision.unplaced_threads,
            throughput_fraction: self.window.throughput_fraction(),
        }
    }
}

/// The outcome of one epoch-boundary decision ([`SimulationEngine::epoch_decide`]):
/// the mapping the window runs under plus the bookkeeping `epoch_finish`
/// needs.
pub(crate) struct EpochDecision {
    /// The thread mapping (mutable — DTM migrates during the window).
    pub(crate) mapping: ThreadMapping,
    /// The epoch's workload mix.
    pub(crate) workload: WorkloadMix,
    /// Threads the policy could not place.
    unplaced_threads: usize,
    /// DTM counter baselines for the epoch's deltas.
    migrations_before: u64,
    throttles_before: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::hayat::HayatPolicy;
    use crate::policy::vaa::VaaPolicy;
    use hayat_power::PowerState;
    use hayat_thermal::{Integrator, TemperatureMap};

    fn engine(policy: Box<dyn Policy>) -> SimulationEngine {
        let config = SimulationConfig::quick_demo();
        let system = ChipSystem::paper_chip(0, &config).unwrap();
        SimulationEngine::new(system, policy, &config)
    }

    #[test]
    fn run_produces_one_record_per_epoch() {
        let mut e = engine(Box::<HayatPolicy>::default());
        let m = e.run();
        assert_eq!(m.epochs.len(), SimulationConfig::quick_demo().epoch_count());
        assert_eq!(m.policy, "Hayat");
    }

    #[test]
    fn health_declines_monotonically() {
        let mut e = engine(Box::new(VaaPolicy));
        let m = e.run();
        let mut last = 1.0;
        for rec in &m.epochs {
            assert!(
                rec.mean_health <= last + 1e-12,
                "health rose at epoch {}",
                rec.epoch
            );
            last = rec.mean_health;
        }
        assert!(last < 1.0, "two simulated years must age the chip");
    }

    #[test]
    fn frequencies_track_health() {
        let mut e = engine(Box::<HayatPolicy>::default());
        let m = e.run();
        for rec in &m.epochs {
            assert!(rec.avg_fmax_ghz <= m.initial_avg_fmax_ghz + 1e-12);
            assert!(rec.chip_fmax_ghz <= m.initial_chip_fmax_ghz + 1e-12);
            assert!(rec.avg_fmax_ghz <= rec.chip_fmax_ghz);
        }
    }

    #[test]
    fn temperatures_stay_physical() {
        // Both integrators run a whole campaign unit end to end.
        for integrator in [Integrator::BackwardEuler, Integrator::ForwardEuler] {
            let config = SimulationConfig {
                integrator,
                ..SimulationConfig::quick_demo()
            };
            let system = ChipSystem::paper_chip(0, &config).unwrap();
            let mut e = SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config);
            let m = e.run();
            for rec in &m.epochs {
                assert!(
                    rec.avg_temp_kelvin > 300.0 && rec.avg_temp_kelvin < 400.0,
                    "{integrator:?}"
                );
                assert!(
                    rec.peak_temp_kelvin >= rec.avg_temp_kelvin,
                    "{integrator:?}"
                );
            }
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut e = engine(Box::<HayatPolicy>::default());
            e.run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recorder_never_changes_results() {
        let baseline = {
            let mut e = engine(Box::<HayatPolicy>::default());
            e.run()
        };
        let rec = std::sync::Arc::new(hayat_telemetry::MemoryRecorder::new());
        let observed = {
            let mut e = engine(Box::<HayatPolicy>::default()).with_recorder(rec.clone());
            e.run()
        };
        assert_eq!(baseline, observed, "telemetry must be a pure observer");
    }

    #[test]
    fn recorder_sees_epoch_spans_decisions_and_dtm_counters() {
        let rec = std::sync::Arc::new(hayat_telemetry::MemoryRecorder::new());
        let metrics = {
            let mut e = engine(Box::<HayatPolicy>::default()).with_recorder(rec.clone());
            e.run()
        };
        let s = rec.summary();
        let epochs = metrics.epochs.len() as u64;
        assert_eq!(s.span("engine.epoch").map(|sp| sp.count), Some(epochs));
        assert_eq!(
            s.span("policy.hayat.decision").map(|sp| sp.count),
            Some(epochs)
        );
        assert_eq!(
            s.counter_total("dtm.migrations"),
            Some(metrics.total_dtm_migrations())
        );
        assert!(
            s.counter_total("policy.hayat.candidates_evaluated")
                .unwrap()
                > 0
        );
        assert_eq!(
            s.gauge("engine.threads.unplaced").map(|g| g.count),
            Some(epochs)
        );
        assert!(s.span("thermal.transient.step").map_or(0, |sp| sp.count) > 0);
    }

    /// The window's power vector as a recompute-every-step loop builds it:
    /// every core from the mapping and throttle state, at the window's
    /// current temperatures.
    fn recomputed_power(e: &SimulationEngine, decision: &EpochDecision, now: f64) -> Vec<Watts> {
        let system = e.system();
        system
            .floorplan()
            .cores()
            .map(|core| {
                let state = match decision.mapping.thread_on(core) {
                    Some(tid) => {
                        let profile = decision.workload.thread(tid);
                        let freq = profile
                            .min_frequency()
                            .scaled(e.dtm().throttle_factor(core));
                        PowerState::Active {
                            dynamic: profile
                                .dynamic_power(freq)
                                .scaled(profile.power_factor(now)),
                        }
                    }
                    None => PowerState::Dark,
                };
                system.power_model().core_power(
                    state,
                    system.chip().leakage_factor(core),
                    e.window.current.core(core),
                )
            })
            .collect()
    }

    #[test]
    fn cached_window_power_follows_a_throttle_and_its_silent_recovery() {
        // Script the window's temperatures: one active core hits T_safe
        // while every other core sits inside the hysteresis band (DTM can
        // only throttle it), then the chip cools (the core climbs back one
        // DVFS level, which changes its power without a migration), then
        // stays cool. The cached per-core load must match a recompute at
        // every step, bit for bit.
        let mut e = engine(Box::<HayatPolicy>::default());
        let mut decision = e.epoch_decide(0, None);
        let steps = e.window_begin(&decision.workload);
        assert!(steps >= 3);
        let hot = decision.mapping.active().next().expect("an active core");
        let t_safe = e.system().thermal_config().t_safe;
        let cores = e.system().floorplan().core_count();
        let mut throttling = TemperatureMap::uniform(cores, t_safe + -2.0);
        throttling.set(hot, t_safe + 3.0);
        let cool = TemperatureMap::uniform(cores, t_safe + -20.0);
        let script = [throttling, cool.clone(), cool];
        let expected_factor = [0.8, 1.0, 1.0];
        for (step, temps) in script.into_iter().enumerate() {
            e.window.current = temps;
            e.window_power_step(step, &mut decision);
            assert_eq!(e.dtm().throttle_factor(hot), expected_factor[step]);
            let now = step as f64 * e.config.control_period_seconds;
            let want = recomputed_power(&e, &decision, now);
            assert_eq!(e.power.len(), want.len());
            for (core, (got, want)) in e.power.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.value().to_bits(),
                    want.value().to_bits(),
                    "core {core} at step {step}"
                );
            }
        }
        assert_eq!(e.dtm().throttles(), 1);
        assert_eq!(e.dtm().migrations(), 0);
    }

    #[test]
    fn snapshot_restore_resumes_exactly() {
        // A run interrupted at every possible epoch boundary and resumed in
        // a fresh engine must match the uninterrupted run bit for bit —
        // including with sensor noise and a stateful (Random) policy, the
        // two RNG streams a snapshot has to carry.
        let mut config = SimulationConfig::quick_demo();
        config.sensors = Some(crate::sensors::SensorConfig::typical());
        let build = |config: &SimulationConfig| {
            let system = ChipSystem::paper_chip(0, config).unwrap();
            SimulationEngine::new(
                system,
                Box::new(crate::policy::simple::RandomPolicy::new(7)),
                config,
            )
        };
        let reference = {
            let mut e = build(&config);
            e.run()
        };
        for cut in 0..config.epoch_count() {
            let mut first = build(&config);
            let mut metrics = first.start_metrics();
            for epoch in 0..cut {
                metrics.epochs.push(first.run_epoch(epoch));
            }
            let snap = first.snapshot(cut);
            drop(first);
            let mut resumed = build(&config);
            resumed.restore(&snap).unwrap();
            for epoch in snap.next_epoch..config.epoch_count() {
                metrics.epochs.push(resumed.run_epoch(epoch));
            }
            resumed.finalize_metrics(&mut metrics);
            assert_eq!(metrics, reference, "divergence when cut at epoch {cut}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let config = SimulationConfig::quick_demo();
        let mut e = engine(Box::<HayatPolicy>::default());
        let mut snap = e.snapshot(0);
        snap.sensor_rng = Some(1); // engine has no sensors configured
        assert_eq!(
            e.restore(&snap),
            Err(crate::sim::snapshot::RestoreError::SensorStateMismatch)
        );
        let mut small = config.clone();
        small.mesh = (2, 2);
        let other = SimulationEngine::new(
            ChipSystem::paper_chip(0, &small).unwrap(),
            Box::<HayatPolicy>::default(),
            &small,
        );
        let foreign = other.snapshot(0);
        assert!(matches!(
            e.restore(&foreign),
            Err(crate::sim::snapshot::RestoreError::CoreCountMismatch { .. })
        ));
        // A failed restore leaves the engine able to run normally.
        let m = e.run();
        assert_eq!(m.epochs.len(), config.epoch_count());
    }

    #[test]
    fn most_threads_get_placed() {
        let mut e = engine(Box::<HayatPolicy>::default());
        let m = e.run();
        assert_eq!(
            m.total_unplaced(),
            0,
            "quick-demo load must be fully placeable"
        );
    }

    #[test]
    fn malleable_mix_range_varies_parallelism_and_still_places_everything() {
        let mut config = SimulationConfig::quick_demo();
        config.mix_load_range = (0.5, 1.0);
        config.mix_rotation = 3;
        let system = ChipSystem::paper_chip(0, &config).unwrap();
        let max_on = system.budget().max_on();
        let mut e = SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config);
        let sizes: Vec<usize> = e.mixes.iter().map(|m| m.total_threads()).collect();
        assert_eq!(sizes, vec![max_on / 2, (max_on * 3) / 4, max_on]);
        let m = e.run();
        assert_eq!(m.total_unplaced(), 0);
    }

    #[test]
    fn sensor_configured_runs_stay_close_to_ground_truth_runs() {
        let exact = {
            let mut e = engine(Box::<HayatPolicy>::default());
            e.run()
        };
        let sensed = {
            let mut config = SimulationConfig::quick_demo();
            config.sensors = Some(crate::sensors::SensorConfig::typical());
            let system = ChipSystem::paper_chip(0, &config).unwrap();
            let mut e = SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config);
            e.run()
        };
        // Quantized health readings must not meaningfully change the
        // aging outcome.
        let gap = (exact.final_avg_fmax_ghz() - sensed.final_avg_fmax_ghz()).abs();
        assert!(gap < 0.05, "sensor path diverged by {gap} GHz");
        assert_eq!(sensed.total_unplaced(), 0);
    }
}
