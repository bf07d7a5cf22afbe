//! Transient (time-domain) thermal integration.

use crate::config::ThermalConfig;
use crate::integrator::Integrator;
use crate::model::{FactorCache, ThermalModel};
use crate::profile::TemperatureMap;
use hayat_floorplan::Floorplan;
use hayat_telemetry::{Recorder, RecorderExt, NULL_RECORDER};
use hayat_units::{Kelvin, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The complete mutable state of a [`TransientSimulator`], detached from
/// the (immutable, config-derived) RC network: every node temperature —
/// silicon, spreader, and sink nodes alike — plus the simulated time
/// elapsed. Restoring a snapshot into a simulator built from the same
/// floorplan and [`ThermalConfig`] reproduces the original trajectory
/// bit for bit, which is what campaign checkpoint/resume relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientSnapshot {
    /// Per-node temperatures in network order (cores first), kelvin.
    pub node_temps: Vec<f64>,
    /// Simulated seconds advanced so far.
    pub elapsed_seconds: f64,
}

/// Transient simulator over the RC network with a selectable
/// [`Integrator`].
///
/// This is the "fine-grained thermal simulation cycle" of the paper's
/// accelerated-aging loop (Fig. 4): within an aging epoch the run-time
/// system advances the chip's thermal state under the current power vector,
/// checks DTM triggers, and records worst-case temperatures for the aging
/// upscale.
///
/// Under [`Integrator::ForwardEuler`] requested steps are internally
/// subdivided into numerically stable sub-steps; under
/// [`Integrator::BackwardEuler`] each requested step is one banded
/// Cholesky solve of `(C/h + G)`, so advancing by the paper's 6.6 ms
/// control period costs a single `O(n·b)` substitution regardless of the
/// network's stiffness. The factor at the control period comes from the
/// shared [`ThermalModel`]; any other step size is factored on first use
/// and cached per simulator.
///
/// The simulator owns only its node temperatures, elapsed time and
/// scratch: the network and its factors live in the `Arc`'d
/// [`ThermalModel`], so the chips of a campaign share one
/// ([`TransientSimulator::from_model`]). [`TransientSimulator::new`] builds
/// the **explicit** oracle on a model of its own (preserving the original
/// scheme for cross-validation); [`TransientSimulator::with_integrator`]
/// does the same for any integrator.
///
/// # Example
///
/// ```
/// use hayat_floorplan::Floorplan;
/// use hayat_thermal::{Integrator, ThermalConfig, TransientSimulator};
/// use hayat_units::{Seconds, Watts};
///
/// let fp = Floorplan::paper_8x8();
/// let cfg = ThermalConfig::paper();
/// let mut sim = TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
/// let power = vec![Watts::new(4.0); fp.core_count()];
/// sim.step(Seconds::new(0.0066), &power);
/// assert!(sim.temperatures().mean() > sim.ambient());
/// ```
#[derive(Debug, Clone)]
pub struct TransientSimulator {
    model: Arc<ThermalModel>,
    /// Per-node temperatures (silicon, spreader, sink), kelvin.
    node_temps: Vec<f64>,
    elapsed: f64,
    /// Backward-Euler factors for step sizes the model does not carry.
    factors: FactorCache,
    /// Reusable rhs/solution buffer for the implicit solve, banded order.
    scratch: Vec<f64>,
}

impl TransientSimulator {
    /// Creates a simulator with every node at ambient temperature, using
    /// the **explicit forward-Euler oracle**. Production callers should
    /// prefer [`with_integrator`](Self::with_integrator) with
    /// [`Integrator::BackwardEuler`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`ThermalConfig::assert_valid`]).
    #[must_use]
    pub fn new(floorplan: &Floorplan, config: &ThermalConfig) -> Self {
        TransientSimulator::with_integrator(floorplan, config, Integrator::ForwardEuler)
    }

    /// Creates a simulator with every node at ambient temperature, stepping
    /// with the given integrator.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`ThermalConfig::assert_valid`]).
    #[must_use]
    pub fn with_integrator(
        floorplan: &Floorplan,
        config: &ThermalConfig,
        integrator: Integrator,
    ) -> Self {
        TransientSimulator::from_model(Arc::new(ThermalModel::new(floorplan, config, integrator)))
    }

    /// Creates a simulator with every node at ambient temperature over a
    /// (typically campaign-shared) model, stepping with the model's
    /// integrator.
    #[must_use]
    pub fn from_model(model: Arc<ThermalModel>) -> Self {
        let network = model.network();
        let node_temps = vec![network.ambient().value(); network.node_count()];
        let scratch = vec![0.0; network.node_count()];
        TransientSimulator {
            model,
            node_temps,
            elapsed: 0.0,
            factors: FactorCache::default(),
            scratch,
        }
    }

    /// The thermal model this simulator steps over.
    #[must_use]
    pub const fn model(&self) -> &Arc<ThermalModel> {
        &self.model
    }

    /// The integration scheme this simulator steps with.
    #[must_use]
    pub fn integrator(&self) -> Integrator {
        self.model.integrator()
    }

    /// Creates a simulator starting from a given per-core temperature map
    /// (spreader and sink start at ambient).
    ///
    /// # Panics
    ///
    /// Panics if the map's core count differs from the floorplan's.
    #[must_use]
    pub fn with_initial(
        floorplan: &Floorplan,
        config: &ThermalConfig,
        initial: &TemperatureMap,
    ) -> Self {
        let mut sim = TransientSimulator::new(floorplan, config);
        assert_eq!(
            initial.len(),
            sim.model.network().core_count(),
            "initial map must cover every core"
        );
        for (core, t) in initial.iter() {
            sim.node_temps[core.index()] = t.value();
        }
        sim
    }

    /// The ambient temperature of the underlying network.
    #[must_use]
    pub fn ambient(&self) -> Kelvin {
        self.model.network().ambient()
    }

    /// Number of RC nodes in the network (cores + spreader + sink nodes) —
    /// the length a restorable [`TransientSnapshot`] must have.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_temps.len()
    }

    /// Simulated time advanced so far.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.elapsed)
    }

    /// Raw per-node temperatures in network order (cores first).
    pub(crate) fn node_temps(&self) -> &[f64] {
        &self.node_temps
    }

    /// Mutable raw per-node temperatures, for the batched stepper's
    /// scatter-back after a multi-RHS solve.
    pub(crate) fn node_temps_mut(&mut self) -> &mut [f64] {
        &mut self.node_temps
    }

    /// Advances simulated time without integrating — the batched stepper
    /// updates temperatures itself and then accounts for the step here,
    /// matching [`step_recorded`](Self::step_recorded)'s bookkeeping.
    pub(crate) fn advance_elapsed(&mut self, dt: f64) {
        self.elapsed += dt;
    }

    /// Advances the thermal state by `dt` under a constant per-core power
    /// vector: one backward-Euler solve under [`Integrator::BackwardEuler`],
    /// or internal subdivision into stable sub-steps under
    /// [`Integrator::ForwardEuler`].
    ///
    /// # Panics
    ///
    /// Panics if `core_power.len()` differs from the core count.
    pub fn step(&mut self, dt: Seconds, core_power: &[Watts]) {
        self.step_recorded(dt, core_power, &NULL_RECORDER);
    }

    /// [`step`](Self::step) with solver telemetry: a
    /// `thermal.transient.step` span around the solve and a
    /// `thermal.transient.substeps` histogram of the linear-solve /
    /// sub-step count (always 1 per non-empty step under backward Euler;
    /// the stability-bounded subdivision count under forward Euler).
    ///
    /// # Panics
    ///
    /// Same conditions as [`step`](Self::step).
    pub fn step_recorded(&mut self, dt: Seconds, core_power: &[Watts], recorder: &dyn Recorder) {
        let _solve = recorder.span("thermal.transient.step");
        let network = self.model.network();
        let substeps = match self.model.integrator() {
            Integrator::ForwardEuler => {
                let injection = network.injection(core_power);
                let mut remaining = dt.value();
                let max_step = network.stable_step();
                let mut substeps: u64 = 0;
                while remaining > 0.0 {
                    let h = remaining.min(max_step);
                    self.euler_step(h, &injection);
                    remaining -= h;
                    substeps += 1;
                }
                substeps
            }
            Integrator::BackwardEuler => {
                assert_eq!(
                    core_power.len(),
                    network.core_count(),
                    "power vector must cover every core"
                );
                if dt.value() > 0.0 {
                    self.implicit_step(dt.value(), core_power);
                    1
                } else {
                    0
                }
            }
        };
        self.elapsed += dt.value();
        if recorder.enabled() {
            recorder.histogram("thermal.transient.substeps", substeps as f64);
        }
    }

    /// One forward-Euler sub-step of size `h`: explicit integration is
    /// adequate because `step` subdivides every request below the stability
    /// bound derived from the fastest RC time constant in the network.
    fn euler_step(&mut self, h: f64, injection: &[f64]) {
        let network = self.model.network();
        let mut next = self.node_temps.clone();
        for (i, next_t) in next.iter_mut().enumerate() {
            let flow = network.net_flow(i, &self.node_temps, injection);
            *next_t += h * flow / network.capacity(i);
        }
        self.node_temps = next;
    }

    /// One backward-Euler step of size `h`: solves
    /// `(C/h + G)·T' = (C/h)·T + P + G_amb·T_amb` through the factorization
    /// for `h` (the model's, or this simulator's cached one). Unconditionally
    /// stable, allocation-free after the first step at a given `h`.
    fn implicit_step(&mut self, h: f64, core_power: &[Watts]) {
        let model = &*self.model;
        let cores = model.network().core_count();
        let entry = self.factors.get(model, h);
        for (k, &node) in model.node_of_banded().iter().enumerate() {
            let injection = if node < cores {
                core_power[node].value()
            } else {
                0.0
            };
            self.scratch[k] =
                entry.c_over_h[k] * self.node_temps[node] + model.ambient_rhs()[k] + injection;
        }
        entry.factor.solve_in_place(&mut self.scratch);
        for (k, &node) in model.node_of_banded().iter().enumerate() {
            self.node_temps[node] = self.scratch[k];
        }
    }

    /// Captures the simulator's complete mutable state for checkpointing.
    ///
    /// # Example
    ///
    /// ```
    /// use hayat_floorplan::Floorplan;
    /// use hayat_thermal::{ThermalConfig, TransientSimulator};
    /// use hayat_units::{Seconds, Watts};
    ///
    /// let fp = Floorplan::paper_8x8();
    /// let cfg = ThermalConfig::paper();
    /// let mut sim = TransientSimulator::new(&fp, &cfg);
    /// sim.step(Seconds::new(0.05), &vec![Watts::new(4.0); fp.core_count()]);
    /// let snap = sim.snapshot();
    /// let mut restored = TransientSimulator::new(&fp, &cfg);
    /// restored.restore(&snap);
    /// assert_eq!(restored.temperatures(), sim.temperatures());
    /// ```
    #[must_use]
    pub fn snapshot(&self) -> TransientSnapshot {
        TransientSnapshot {
            node_temps: self.node_temps.clone(),
            elapsed_seconds: self.elapsed,
        }
    }

    /// Restores state previously captured with
    /// [`snapshot`](Self::snapshot) on a simulator built from the same
    /// floorplan and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's node count differs from this simulator's
    /// network (i.e. it was taken on a different floorplan).
    pub fn restore(&mut self, snapshot: &TransientSnapshot) {
        assert_eq!(
            snapshot.node_temps.len(),
            self.node_temps.len(),
            "snapshot must cover every RC node of this network"
        );
        self.node_temps.clone_from(&snapshot.node_temps);
        self.elapsed = snapshot.elapsed_seconds;
    }

    /// Current per-core (silicon-node) temperatures, kelvin, borrowed
    /// without allocating (cores in id order; unchecked raw values).
    #[must_use]
    pub fn core_temps(&self) -> &[f64] {
        &self.node_temps[..self.model.network().core_count()]
    }

    /// Current per-core (silicon-node) temperatures.
    #[must_use]
    pub fn temperatures(&self) -> TemperatureMap {
        TemperatureMap::new(self.core_temps().iter().map(|&t| Kelvin::new(t)).collect())
    }

    /// Runs to (approximate) equilibrium under a constant power vector:
    /// advances in `window`-sized steps until the largest per-core change
    /// over a window drops below `tol_kelvin`, or `max_time` is reached.
    ///
    /// Returns the simulated time actually advanced.
    ///
    /// # Panics
    ///
    /// Panics if `core_power.len()` differs from the core count.
    pub fn settle(
        &mut self,
        core_power: &[Watts],
        window: Seconds,
        tol_kelvin: f64,
        max_time: Seconds,
    ) -> Seconds {
        self.settle_recorded(core_power, window, tol_kelvin, max_time, &NULL_RECORDER)
    }

    /// [`settle`](Self::settle) with solver telemetry: a
    /// `thermal.transient.settle` span, a `thermal.transient.settle_windows`
    /// histogram of the iteration count, and a
    /// `thermal.transient.residual` gauge holding the final per-window
    /// worst-core temperature change (kelvin).
    ///
    /// # Panics
    ///
    /// Same conditions as [`settle`](Self::settle).
    pub fn settle_recorded(
        &mut self,
        core_power: &[Watts],
        window: Seconds,
        tol_kelvin: f64,
        max_time: Seconds,
        recorder: &dyn Recorder,
    ) -> Seconds {
        let _solve = recorder.span("thermal.transient.settle");
        let start = self.elapsed;
        let mut windows: u64 = 0;
        loop {
            let before = self.temperatures();
            self.step(window, core_power);
            windows += 1;
            let after = self.temperatures();
            let delta = before
                .iter()
                .zip(after.iter())
                .map(|((_, a), (_, b))| (a - b).abs())
                .fold(0.0f64, f64::max);
            if delta < tol_kelvin || self.elapsed - start >= max_time.value() {
                if recorder.enabled() {
                    recorder.histogram("thermal.transient.settle_windows", windows as f64);
                    recorder.gauge("thermal.transient.residual", delta);
                }
                return Seconds::new(self.elapsed - start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MAX_CACHED_FACTORS;
    use crate::steady::steady_state;

    fn setup() -> (Floorplan, ThermalConfig) {
        (Floorplan::paper_8x8(), ThermalConfig::paper())
    }

    #[test]
    fn temperatures_rise_monotonically_toward_equilibrium() {
        let (fp, cfg) = setup();
        let mut sim = TransientSimulator::new(&fp, &cfg);
        let power = vec![Watts::new(5.0); 64];
        let mut last = sim.temperatures().mean().value();
        for _ in 0..10 {
            sim.step(Seconds::new(0.05), &power);
            let now = sim.temperatures().mean().value();
            assert!(now >= last - 1e-9, "mean fell from {last} to {now}");
            last = now;
        }
        assert!(last > cfg.ambient.value() + 1.0);
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let (fp, cfg) = setup();
        let mut power = vec![Watts::new(0.019); 64];
        for i in (0..64).step_by(3) {
            power[i] = Watts::new(6.5);
        }
        let target = steady_state(&fp, &cfg, &power);
        let mut sim = TransientSimulator::new(&fp, &cfg);
        sim.settle(&power, Seconds::new(0.25), 1e-4, Seconds::new(200.0));
        let got = sim.temperatures();
        for core in fp.cores() {
            let err = (got.core(core) - target.core(core)).abs();
            assert!(
                err < 0.05,
                "core {core}: transient {} vs steady {}",
                got.core(core),
                target.core(core)
            );
        }
    }

    #[test]
    fn cooling_after_power_removal() {
        let (fp, cfg) = setup();
        let mut sim = TransientSimulator::new(&fp, &cfg);
        let hot = vec![Watts::new(6.0); 64];
        sim.step(Seconds::new(5.0), &hot);
        let peak = sim.temperatures().max();
        let off = vec![Watts::new(0.0); 64];
        sim.step(Seconds::new(5.0), &off);
        assert!(sim.temperatures().max() < peak);
    }

    #[test]
    fn with_initial_seeds_core_temperatures() {
        let (fp, cfg) = setup();
        let initial = TemperatureMap::uniform(64, Kelvin::new(350.0));
        let sim = TransientSimulator::with_initial(&fp, &cfg, &initial);
        assert_eq!(sim.temperatures().max(), Kelvin::new(350.0));
    }

    #[test]
    fn elapsed_time_accumulates() {
        let (fp, cfg) = setup();
        let mut sim = TransientSimulator::new(&fp, &cfg);
        let power = vec![Watts::new(1.0); 64];
        sim.step(Seconds::new(0.0066), &power);
        sim.step(Seconds::new(0.0066), &power);
        assert!((sim.elapsed().value() - 0.0132).abs() < 1e-12);
    }

    #[test]
    fn subdivision_matches_small_steps() {
        // One big step must equal many small steps (same sub-stepping).
        let (fp, cfg) = setup();
        let power = vec![Watts::new(4.0); 64];
        let mut big = TransientSimulator::new(&fp, &cfg);
        big.step(Seconds::new(0.1), &power);
        let mut small = TransientSimulator::new(&fp, &cfg);
        for _ in 0..100 {
            small.step(Seconds::new(0.001), &power);
        }
        for core in fp.cores() {
            let a = big.temperatures().core(core).value();
            let b = small.temperatures().core(core).value();
            assert!((a - b).abs() < 0.02, "core {core}: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "every core")]
    fn step_checks_power_length() {
        let (fp, cfg) = setup();
        let mut sim = TransientSimulator::new(&fp, &cfg);
        sim.step(Seconds::new(0.01), &[Watts::new(1.0)]);
    }

    #[test]
    fn snapshot_restore_reproduces_trajectory_exactly() {
        let (fp, cfg) = setup();
        let power = vec![Watts::new(5.5); 64];
        let mut reference = TransientSimulator::new(&fp, &cfg);
        reference.step(Seconds::new(0.1), &power);
        let snap = reference.snapshot();
        // JSON round-trip must not perturb a single bit.
        let json = serde_json::to_string(&snap).unwrap();
        let back: TransientSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        let mut resumed = TransientSimulator::new(&fp, &cfg);
        resumed.restore(&back);
        assert_eq!(resumed.elapsed(), reference.elapsed());
        reference.step(Seconds::new(0.1), &power);
        resumed.step(Seconds::new(0.1), &power);
        assert_eq!(resumed.temperatures(), reference.temperatures());
    }

    #[test]
    #[should_panic(expected = "every RC node")]
    fn restore_rejects_foreign_floorplans() {
        let (fp, cfg) = setup();
        let snap = TransientSimulator::new(&fp, &cfg).snapshot();
        let mut other = TransientSimulator::new(
            &hayat_floorplan::FloorplanBuilder::new(2, 2)
                .build()
                .unwrap(),
            &cfg,
        );
        other.restore(&snap);
    }

    #[test]
    fn recorded_step_emits_span_and_substep_histogram() {
        let (fp, cfg) = setup();
        let rec = hayat_telemetry::MemoryRecorder::new();
        let mut sim = TransientSimulator::new(&fp, &cfg);
        let power = vec![Watts::new(4.0); 64];
        sim.step_recorded(Seconds::new(0.0066), &power, &rec);
        let s = rec.summary();
        assert_eq!(s.span("thermal.transient.step").map(|sp| sp.count), Some(1));
        let h = s.histogram("thermal.transient.substeps").unwrap();
        assert!(h.max >= 1.0, "at least one Euler sub-step per control step");
    }

    #[test]
    fn recorded_settle_reports_residual_below_tolerance() {
        let (fp, cfg) = setup();
        let rec = hayat_telemetry::MemoryRecorder::new();
        let mut sim = TransientSimulator::new(&fp, &cfg);
        let power = vec![Watts::new(3.0); 64];
        sim.settle_recorded(&power, Seconds::new(0.25), 1e-3, Seconds::new(200.0), &rec);
        let s = rec.summary();
        let residual = s.gauge("thermal.transient.residual").unwrap().last;
        assert!(
            residual < 1e-3,
            "converged residual {residual} over tolerance"
        );
        assert!(s.histogram("thermal.transient.settle_windows").is_some());
    }

    #[test]
    fn implicit_converges_to_the_steady_state_fixed_point() {
        let (fp, cfg) = setup();
        let mut power = vec![Watts::new(0.019); 64];
        for i in (0..64).step_by(3) {
            power[i] = Watts::new(6.5);
        }
        let target = steady_state(&fp, &cfg, &power);
        let mut sim = TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        sim.settle(&power, Seconds::new(0.25), 1e-4, Seconds::new(200.0));
        let got = sim.temperatures();
        for core in fp.cores() {
            let err = (got.core(core) - target.core(core)).abs();
            assert!(
                err < 0.05,
                "core {core}: implicit {} vs steady {}",
                got.core(core),
                target.core(core)
            );
        }
    }

    #[test]
    fn implicit_tracks_the_explicit_oracle() {
        // Over a full transient window at the paper's control period the
        // two first-order schemes bracket the true trajectory; they must
        // stay within a small fraction of the total temperature rise.
        let (fp, cfg) = setup();
        let mut power = vec![Watts::new(0.019); 64];
        for i in (0..64).step_by(5) {
            power[i] = Watts::new(7.0);
        }
        let mut explicit = TransientSimulator::new(&fp, &cfg);
        let mut implicit =
            TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        for _ in 0..303 {
            explicit.step(Seconds::new(0.0066), &power);
            implicit.step(Seconds::new(0.0066), &power);
        }
        for core in fp.cores() {
            let a = explicit.temperatures().core(core).value();
            let b = implicit.temperatures().core(core).value();
            assert!(
                (a - b).abs() < 0.25,
                "core {core}: explicit {a} vs implicit {b}"
            );
        }
    }

    #[test]
    fn implicit_step_is_a_single_solve() {
        let (fp, cfg) = setup();
        let rec = hayat_telemetry::MemoryRecorder::new();
        let mut sim = TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        let power = vec![Watts::new(4.0); 64];
        for _ in 0..5 {
            sim.step_recorded(Seconds::new(0.0066), &power, &rec);
        }
        let summary = rec.summary();
        let h = summary.histogram("thermal.transient.substeps").unwrap();
        assert_eq!(h.max, 1.0, "backward Euler must never sub-step");
        assert_eq!(h.sum, 5.0, "one solve per recorded step");
        // The explicit oracle, by contrast, is forced to subdivide here.
        let rec = hayat_telemetry::MemoryRecorder::new();
        let mut oracle = TransientSimulator::new(&fp, &cfg);
        oracle.step_recorded(Seconds::new(0.0066), &power, &rec);
        let summary = rec.summary();
        let h = summary.histogram("thermal.transient.substeps").unwrap();
        assert!(h.max >= 2.0, "stability bound should force sub-steps");
    }

    #[test]
    fn implicit_factor_cache_reuses_and_stays_bounded() {
        let (fp, cfg) = setup();
        let mut sim = TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        let power = vec![Watts::new(2.0); 64];
        for _ in 0..10 {
            sim.step(Seconds::new(0.0066), &power);
        }
        assert_eq!(sim.factors.len(), 1, "one step size, one factorization");
        for i in 1..=20u32 {
            sim.step(Seconds::new(0.001 * f64::from(i)), &power);
        }
        assert!(
            sim.factors.len() <= MAX_CACHED_FACTORS,
            "cache grew to {} entries",
            sim.factors.len()
        );
    }

    #[test]
    fn implicit_snapshot_restore_reproduces_trajectory_exactly() {
        let (fp, cfg) = setup();
        let power = vec![Watts::new(5.5); 64];
        let mut reference =
            TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        reference.step(Seconds::new(0.1), &power);
        let snap = reference.snapshot();
        let mut resumed = TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        resumed.restore(&snap);
        reference.step(Seconds::new(0.0066), &power);
        resumed.step(Seconds::new(0.0066), &power);
        assert_eq!(resumed.temperatures(), reference.temperatures());
        assert_eq!(resumed.elapsed(), reference.elapsed());
    }

    #[test]
    fn integrator_accessor_reports_scheme() {
        let (fp, cfg) = setup();
        assert_eq!(
            TransientSimulator::new(&fp, &cfg).integrator(),
            Integrator::ForwardEuler
        );
        assert_eq!(
            TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler).integrator(),
            Integrator::BackwardEuler
        );
    }

    #[test]
    fn recorded_step_matches_unrecorded_step() {
        let (fp, cfg) = setup();
        let power = vec![Watts::new(5.0); 64];
        let mut plain = TransientSimulator::new(&fp, &cfg);
        plain.step(Seconds::new(0.05), &power);
        let rec = hayat_telemetry::MemoryRecorder::new();
        let mut recorded = TransientSimulator::new(&fp, &cfg);
        recorded.step_recorded(Seconds::new(0.05), &power, &rec);
        for core in fp.cores() {
            assert_eq!(
                plain.temperatures().core(core),
                recorded.temperatures().core(core)
            );
        }
    }
}
