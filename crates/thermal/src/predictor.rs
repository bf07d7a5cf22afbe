//! The lightweight online thermal predictor (paper Section IV-B step 2,
//! after the DATE'15 scheme [27]).
//!
//! Running a full RC solve for every candidate mapping inside Algorithm 1
//! would be far too slow (the paper budgets ~25 µs per `predictTemperature`
//! call). Instead the predictor **learns offline** how one watt of power on
//! each core raises temperatures across the chip, and **superposes** those
//! footprints at run time — with an optional one-shot correction for
//! temperature-dependent leakage.
//!
//! Two learned models are provided:
//!
//! * [`PredictorModel::ResponseMatrix`] (default) — one steady-state solve
//!   per source core during learning; the full linear response is captured,
//!   so superposition matches the exact solve for any load (the remaining
//!   run-time error comes from leakage–temperature feedback).
//! * [`PredictorModel::Isotropic`] — a single solve at a central reference
//!   core, averaged per mesh distance. Cheaper to learn and store, but it
//!   misses die-edge effects; the `ablation_predictor` bench quantifies the
//!   gap.

use crate::config::ThermalConfig;
use crate::profile::TemperatureMap;
use crate::steady::steady_state;
use hayat_floorplan::{CoreId, Floorplan};
use hayat_linalg::BandedCholeskyFactor;
use hayat_telemetry::{Recorder, RecorderExt, NULL_RECORDER};
use hayat_units::{Kelvin, Watts};
use serde::{Deserialize, Serialize};

/// Which offline-learned thermal model the predictor superposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PredictorModel {
    /// Full per-source-core linear response (exact for the linear network).
    #[default]
    ResponseMatrix,
    /// Distance-averaged footprint of a central reference core.
    Isotropic,
}

/// The learned isotropic thermal footprint of one watt of core power: the
/// steady-state temperature rise (kelvin per watt) it causes at each mesh
/// distance.
///
/// # Example
///
/// ```
/// use hayat_floorplan::Floorplan;
/// use hayat_thermal::{ThermalConfig, ThreadFootprint};
///
/// let fp = Floorplan::paper_8x8();
/// let footprint = ThreadFootprint::learn(&fp, &ThermalConfig::paper());
/// // Heating is strongest at the core itself and decays with distance.
/// assert!(footprint.rise_at(0) > footprint.rise_at(3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadFootprint {
    /// Kelvin of steady-state rise per watt, indexed by mesh distance.
    rise_per_watt: Vec<f64>,
}

impl ThreadFootprint {
    /// Learns the footprint by solving the RC model once with unit power on
    /// a central core (the offline phase of the isotropic predictor).
    #[must_use]
    pub fn learn(floorplan: &Floorplan, config: &ThermalConfig) -> Self {
        let reference = floorplan
            .core_at(floorplan.rows() / 2, floorplan.cols() / 2)
            .expect("floorplan is non-empty");
        let mut power = vec![Watts::new(0.0); floorplan.core_count()];
        power[reference.index()] = Watts::new(1.0);
        let temps = steady_state(floorplan, config, &power);
        let max_dist = (floorplan.rows() - 1) + (floorplan.cols() - 1);
        // Average the rise over all cores at each distance so the footprint
        // is isotropic.
        let mut sums = vec![0.0; max_dist + 1];
        let mut counts = vec![0usize; max_dist + 1];
        for core in floorplan.cores() {
            let d = floorplan.mesh_distance(reference, core);
            sums[d] += temps.core(core) - config.ambient;
            counts[d] += 1;
        }
        let rise_per_watt = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();
        ThreadFootprint { rise_per_watt }
    }

    /// Temperature rise (K/W) at mesh distance `d`; distances beyond the
    /// learned range reuse the farthest learned value (the sink-dominated
    /// floor).
    #[must_use]
    pub fn rise_at(&self, d: usize) -> f64 {
        let last = self.rise_per_watt.len() - 1;
        self.rise_per_watt[d.min(last)]
    }

    /// Largest learned mesh distance.
    #[must_use]
    pub fn max_distance(&self) -> usize {
        self.rise_per_watt.len() - 1
    }
}

/// Superposition-based chip-temperature predictor.
///
/// # Example
///
/// ```
/// use hayat_floorplan::{CoreId, Floorplan};
/// use hayat_thermal::{ThermalConfig, ThermalPredictor};
/// use hayat_units::Watts;
///
/// let fp = Floorplan::paper_8x8();
/// let cfg = ThermalConfig::paper();
/// let predictor = ThermalPredictor::learn(&fp, &cfg);
/// let mut power = vec![Watts::new(0.0); fp.core_count()];
/// power[0] = Watts::new(6.0);
/// let predicted = predictor.predict(&fp, &power);
/// assert!(predicted.core(CoreId::new(0)) > cfg.ambient);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalPredictor {
    ambient: Kelvin,
    /// Per-source rise vectors, `rises[src][dst]`, K/W.
    rises: Vec<Vec<f64>>,
    model: PredictorModel,
}

impl ThermalPredictor {
    /// Learns a response-matrix predictor (the default, exact-linear model).
    #[must_use]
    pub fn learn(floorplan: &Floorplan, config: &ThermalConfig) -> Self {
        ThermalPredictor::learn_with(floorplan, config, PredictorModel::ResponseMatrix)
    }

    /// Learns a predictor with an explicit model choice.
    #[must_use]
    pub fn learn_with(
        floorplan: &Floorplan,
        config: &ThermalConfig,
        model: PredictorModel,
    ) -> Self {
        Self::learn_with_recorded(floorplan, config, model, &NULL_RECORDER)
    }

    /// [`learn_with`](Self::learn_with) plus offline-phase telemetry: a
    /// `thermal.predictor.learn` span around the whole learning pass and a
    /// `thermal.predictor.steady_solves` counter of the steady-state solves
    /// it took (one per source core for the response matrix, one total for
    /// the isotropic footprint).
    #[must_use]
    pub fn learn_with_recorded(
        floorplan: &Floorplan,
        config: &ThermalConfig,
        model: PredictorModel,
        recorder: &dyn Recorder,
    ) -> Self {
        let _learn = recorder.span("thermal.predictor.learn");
        let n = floorplan.core_count();
        recorder.counter(
            "thermal.predictor.steady_solves",
            match model {
                PredictorModel::ResponseMatrix => n as u64,
                PredictorModel::Isotropic => 1,
            },
        );
        let rises = match model {
            PredictorModel::ResponseMatrix => {
                // Gang the unit-power solves so each pass over the banded
                // factor serves a block of source cores — the difference
                // between minutes and seconds for a 64×64 response matrix.
                // The last block is zero-padded to full width and its
                // padding lanes discarded; each lane is bit-identical to
                // its scalar solve.
                let network = crate::rc_model::RcNetwork::new(floorplan, config);
                let ambient = config.ambient.value();
                let nn = network.node_count();
                let lanes = BandedCholeskyFactor::SOLVE_MANY_LANES;
                let mut injections = vec![0.0; nn * lanes];
                let mut temps = Vec::new();
                let mut rises: Vec<Vec<f64>> = Vec::with_capacity(n);
                for start in (0..n).step_by(lanes) {
                    let width = lanes.min(n - start);
                    injections.fill(0.0);
                    for lane in 0..width {
                        injections[lane * nn + start + lane] = 1.0;
                    }
                    network.solve_steady_many_into(&injections, &mut temps);
                    rises.extend((0..width).map(|lane| {
                        temps[lane * nn..][..n]
                            .iter()
                            .map(|&t| t - ambient)
                            .collect()
                    }));
                }
                rises
            }
            PredictorModel::Isotropic => {
                let footprint = ThreadFootprint::learn(floorplan, config);
                (0..n)
                    .map(|src| {
                        let src_core = CoreId::new(src);
                        floorplan
                            .cores()
                            .map(|dst| footprint.rise_at(floorplan.mesh_distance(src_core, dst)))
                            .collect()
                    })
                    .collect()
            }
        };
        ThermalPredictor {
            ambient: config.ambient,
            rises,
            model,
        }
    }

    /// Which learned model this predictor uses.
    #[must_use]
    pub const fn model(&self) -> PredictorModel {
        self.model
    }

    /// Number of cores covered by the learned model.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.rises.len()
    }

    /// The ambient temperature predictions start from.
    #[must_use]
    pub const fn ambient(&self) -> Kelvin {
        self.ambient
    }

    /// The learned rise vector of one watt on `src`: kelvin of steady-state
    /// rise at every core, indexed by destination core id. This is the
    /// incremental-superposition primitive Algorithm 1 uses to evaluate
    /// thousands of candidate placements without re-predicting from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    #[must_use]
    pub fn rise_row(&self, src: CoreId) -> &[f64] {
        &self.rises[src.index()]
    }

    /// Predicts the chip temperature map for a per-core power vector by
    /// superposing the learned rise of every power source (online phase; no
    /// linear solve).
    ///
    /// # Panics
    ///
    /// Panics if `core_power.len()` differs from the learned core count.
    #[must_use]
    pub fn predict(&self, floorplan: &Floorplan, core_power: &[Watts]) -> TemperatureMap {
        let n = self.rises.len();
        assert_eq!(core_power.len(), n, "power vector must cover every core");
        assert_eq!(
            floorplan.core_count(),
            n,
            "floorplan must match learned predictor"
        );
        let mut temps = vec![self.ambient.value(); n];
        self.superpose(core_power, &mut temps);
        TemperatureMap::new(temps.into_iter().map(Kelvin::new).collect())
    }

    /// Adds `Σ power[src] · rises[src]` onto `temps`, skipping zero sources.
    /// The zero-source skip is load-bearing for bit-exactness: a dark core
    /// must leave the map untouched, not add `0.0 · row`.
    fn superpose(&self, core_power: &[Watts], temps: &mut [f64]) {
        for (src, p) in core_power.iter().enumerate() {
            let w = p.value();
            if w == 0.0 {
                continue;
            }
            hayat_linalg::axpy_in_place(temps, w, &self.rises[src]);
        }
    }

    /// Predicts with a one-shot temperature-dependent-leakage correction:
    /// superposes the supplied power, asks `leakage_at` for the extra
    /// leakage each core dissipates at the predicted temperature, and
    /// superposes only the non-zero leakage *deltas* onto the base map.
    ///
    /// `leakage_at(core, predicted_t)` must return only the *additional*
    /// leakage relative to what `core_power` already contains. It is called
    /// exactly once per core, in core order.
    ///
    /// Superposing the deltas instead of re-predicting from the corrected
    /// power vector halves the online cost (the base sources are walked
    /// once, not twice); by linearity the result differs from the
    /// two-superposition form only by floating-point regrouping (≲ 1e-12 K).
    ///
    /// # Panics
    ///
    /// Panics if `core_power.len()` differs from the learned core count.
    #[must_use]
    pub fn predict_with_leakage<F>(
        &self,
        floorplan: &Floorplan,
        core_power: &[Watts],
        mut leakage_at: F,
    ) -> TemperatureMap
    where
        F: FnMut(CoreId, Kelvin) -> Watts,
    {
        let n = self.rises.len();
        assert_eq!(core_power.len(), n, "power vector must cover every core");
        assert_eq!(
            floorplan.core_count(),
            n,
            "floorplan must match learned predictor"
        );
        let mut temps = vec![self.ambient.value(); n];
        self.superpose(core_power, &mut temps);
        // Gather every delta first so `leakage_at` observes the *base*
        // prediction at every core (not one partially corrected in place).
        let deltas: Vec<Watts> = temps
            .iter()
            .enumerate()
            .map(|(i, &t)| leakage_at(CoreId::new(i), Kelvin::new(t)))
            .collect();
        self.superpose(&deltas, &mut temps);
        TemperatureMap::new(temps.into_iter().map(Kelvin::new).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Floorplan, ThermalConfig, ThermalPredictor) {
        let fp = Floorplan::paper_8x8();
        let cfg = ThermalConfig::paper();
        let pred = ThermalPredictor::learn(&fp, &cfg);
        (fp, cfg, pred)
    }

    #[test]
    fn footprint_decays_monotonically_near_the_source() {
        let fp = Floorplan::paper_8x8();
        let f = ThreadFootprint::learn(&fp, &ThermalConfig::paper());
        assert!(f.rise_at(0) > f.rise_at(1));
        assert!(f.rise_at(1) > f.rise_at(2));
        assert!(
            f.rise_at(0) > 0.5,
            "self-heating {} too small",
            f.rise_at(0)
        );
    }

    #[test]
    fn far_distance_clamps_to_floor() {
        let fp = Floorplan::paper_8x8();
        let f = ThreadFootprint::learn(&fp, &ThermalConfig::paper());
        assert_eq!(f.rise_at(100), f.rise_at(f.max_distance()));
    }

    #[test]
    fn zero_power_predicts_ambient() {
        let (fp, cfg, pred) = setup();
        let t = pred.predict(&fp, &vec![Watts::new(0.0); 64]);
        for (_, k) in t.iter() {
            assert!((k - cfg.ambient).abs() < 1e-12);
        }
    }

    #[test]
    fn response_matrix_matches_full_solve() {
        // The response-matrix predictor is exact for the linear network.
        let (fp, cfg, pred) = setup();
        let mut power = vec![Watts::new(0.019); 64];
        for i in (0..64).step_by(4) {
            power[i] = Watts::new(6.0);
        }
        let predicted = pred.predict(&fp, &power);
        let exact = steady_state(&fp, &cfg, &power);
        for core in fp.cores() {
            let err = (predicted.core(core) - exact.core(core)).abs();
            assert!(
                err < 1e-6,
                "core {core}: predicted {} vs exact {}",
                predicted.core(core),
                exact.core(core)
            );
        }
    }

    #[test]
    fn isotropic_tracks_full_solve_within_a_few_kelvin() {
        // The cheap model keeps errors bounded even for clustered loads.
        let fp = Floorplan::paper_8x8();
        let cfg = ThermalConfig::paper();
        let pred = ThermalPredictor::learn_with(&fp, &cfg, PredictorModel::Isotropic);
        let mut power = vec![Watts::new(0.019); 64];
        for i in (0..64).step_by(4) {
            power[i] = Watts::new(6.0);
        }
        let predicted = pred.predict(&fp, &power);
        let exact = steady_state(&fp, &cfg, &power);
        for core in fp.cores() {
            let err = (predicted.core(core) - exact.core(core)).abs();
            assert!(
                err < 10.0,
                "core {core}: predicted {} vs exact {}",
                predicted.core(core),
                exact.core(core)
            );
        }
    }

    #[test]
    fn prediction_is_linear_in_power() {
        let (fp, _, pred) = setup();
        let mut p1 = vec![Watts::new(0.0); 64];
        p1[7] = Watts::new(3.0);
        let t1 = pred.predict(&fp, &p1);
        let p2: Vec<Watts> = p1.iter().map(|&w| w * 2.0).collect();
        let t2 = pred.predict(&fp, &p2);
        let amb = pred.ambient.value();
        for core in fp.cores() {
            let r1 = t1.core(core).value() - amb;
            let r2 = t2.core(core).value() - amb;
            assert!((r2 - 2.0 * r1).abs() < 1e-9);
        }
    }

    #[test]
    fn leakage_correction_only_raises_temperatures() {
        let (fp, _, pred) = setup();
        let mut power = vec![Watts::new(0.0); 64];
        power[12] = Watts::new(5.0);
        let base = pred.predict(&fp, &power);
        let corrected = pred.predict_with_leakage(&fp, &power, |_, t| {
            // 10 mW of extra leakage per kelvin above ambient.
            Watts::new(0.01 * (t - pred.ambient).max(0.0))
        });
        for core in fp.cores() {
            assert!(corrected.core(core) >= base.core(core));
        }
    }

    #[test]
    fn delta_superposition_matches_the_two_pass_form() {
        // The optimised path (base map + nonzero leakage deltas) must agree
        // with the original semantics — re-predicting from the corrected
        // power vector — up to floating-point regrouping.
        let (fp, _, pred) = setup();
        let mut power = vec![Watts::new(0.019); 64];
        for i in (0..64).step_by(3) {
            power[i] = Watts::new(6.5);
        }
        let leak = |_: CoreId, t: Kelvin| Watts::new(0.012 * (t - pred.ambient).max(0.0));
        let fast = pred.predict_with_leakage(&fp, &power, leak);
        // Reference: the two-superposition form, built by hand.
        let base = pred.predict(&fp, &power);
        let corrected: Vec<Watts> = power
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let core = CoreId::new(i);
                p + leak(core, base.core(core))
            })
            .collect();
        let reference = pred.predict(&fp, &corrected);
        for core in fp.cores() {
            let err = (fast.core(core) - reference.core(core)).abs();
            assert!(
                err < 1e-12,
                "core {core}: fast {} vs reference {}",
                fast.core(core),
                reference.core(core)
            );
        }
    }

    #[test]
    fn leakage_callback_sees_the_base_prediction_once_per_core() {
        let (fp, _, pred) = setup();
        let mut power = vec![Watts::new(0.0); 64];
        power[20] = Watts::new(6.0);
        let base = pred.predict(&fp, &power);
        let mut calls = Vec::new();
        let _ = pred.predict_with_leakage(&fp, &power, |core, t| {
            calls.push((core, t));
            Watts::new(0.5)
        });
        assert_eq!(calls.len(), 64, "exactly one call per core");
        for (i, &(core, t)) in calls.iter().enumerate() {
            assert_eq!(core, CoreId::new(i), "calls arrive in core order");
            assert_eq!(t, base.core(core), "callback sees the base map");
        }
    }

    #[test]
    fn zero_leakage_deltas_leave_the_base_map_bit_identical() {
        let (fp, _, pred) = setup();
        let mut power = vec![Watts::new(0.019); 64];
        power[33] = Watts::new(7.0);
        let base = pred.predict(&fp, &power);
        let with = pred.predict_with_leakage(&fp, &power, |_, _| Watts::new(0.0));
        for core in fp.cores() {
            assert_eq!(
                with.core(core),
                base.core(core),
                "zero deltas must not perturb core {core}"
            );
        }
    }

    #[test]
    fn hot_neighbourhoods_predict_hotter_cores() {
        let (fp, _, pred) = setup();
        // Same core power, different neighbourhoods.
        let lone = {
            let mut p = vec![Watts::new(0.0); 64];
            p[fp.core_at(0, 0).unwrap().index()] = Watts::new(6.0);
            p
        };
        let crowded = {
            let mut p = vec![Watts::new(0.0); 64];
            p[fp.core_at(0, 0).unwrap().index()] = Watts::new(6.0);
            p[fp.core_at(0, 1).unwrap().index()] = Watts::new(6.0);
            p[fp.core_at(1, 0).unwrap().index()] = Watts::new(6.0);
            p
        };
        let c = fp.core_at(0, 0).unwrap();
        assert!(
            pred.predict(&fp, &crowded).core(c) > pred.predict(&fp, &lone).core(c),
            "neighbour heating must raise the core's prediction"
        );
    }

    #[test]
    fn batched_learning_on_a_banded_mesh_matches_scalar_solves_bitwise() {
        // The response matrix is learned in ganged blocks, the last one
        // zero-padded (272 = 8·32 + 16 cores); every rise row must still
        // equal the one its scalar unit-power solve produces.
        let fp = Floorplan::grid(17, 16);
        let cfg = ThermalConfig::paper();
        let pred = ThermalPredictor::learn(&fp, &cfg);
        let network = crate::rc_model::RcNetwork::new(&fp, &cfg);
        let n = fp.core_count();
        let mut injection = vec![0.0; network.node_count()];
        let mut temps = Vec::new();
        for src in [0, 7, 135, n - 1] {
            injection[src] = 1.0;
            network.solve_steady_into(&injection, &mut temps);
            injection[src] = 0.0;
            let expected: Vec<f64> = temps[..n]
                .iter()
                .map(|&t| t - cfg.ambient.value())
                .collect();
            assert_eq!(
                pred.rise_row(hayat_floorplan::CoreId::new(src)),
                &expected[..],
                "rise row {src} drifted"
            );
        }
    }

    #[test]
    fn recorded_learning_counts_solves() {
        let fp = Floorplan::paper_8x8();
        let cfg = ThermalConfig::paper();
        let rec = hayat_telemetry::MemoryRecorder::new();
        let pred =
            ThermalPredictor::learn_with_recorded(&fp, &cfg, PredictorModel::ResponseMatrix, &rec);
        let s = rec.summary();
        assert_eq!(s.counter_total("thermal.predictor.steady_solves"), Some(64));
        assert_eq!(
            s.span("thermal.predictor.learn").map(|sp| sp.count),
            Some(1)
        );
        // Telemetry must not change the learned model.
        assert_eq!(pred, ThermalPredictor::learn(&fp, &cfg));
    }

    #[test]
    fn models_are_reported() {
        let fp = Floorplan::paper_8x8();
        let cfg = ThermalConfig::paper();
        assert_eq!(
            ThermalPredictor::learn(&fp, &cfg).model(),
            PredictorModel::ResponseMatrix
        );
        assert_eq!(
            ThermalPredictor::learn_with(&fp, &cfg, PredictorModel::Isotropic).model(),
            PredictorModel::Isotropic
        );
        assert_eq!(ThermalPredictor::learn(&fp, &cfg).core_count(), 64);
    }
}
