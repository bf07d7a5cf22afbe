//! Lockstep thermal stepping for chip batches (structure-of-arrays).
//!
//! Every chip in a campaign shares one floorplan and therefore one
//! [`ThermalModel`] — `(C/h + G)` and its banded Cholesky factor are
//! identical across chips; only the temperature state and power vectors
//! differ. [`BatchedTransient`] exploits that: it advances B chips'
//! [`TransientSimulator`]s through **one factorization per step size** (the
//! shared model's at the control period), gathering the B right-hand sides
//! into a structure-of-arrays buffer and forward/backward-substituting all
//! of them in a single factor traversal
//! ([`BandedCholeskyFactor::solve_many_in_place`](hayat_linalg::BandedCholeskyFactor::solve_many_in_place)).
//!
//! The batching is a pure execution strategy: per lane, every FP operation
//! happens in exactly the order the scalar `implicit_step` performs it
//! (the rhs gather expression is identical and the multi-RHS solve is
//! bit-identical per lane), so each lane's trajectory matches an unbatched
//! simulator bit for bit. The `lockstep_matches_scalar_steps_bitwise` test
//! pins this.
//!
//! Telemetry differs in *shape* only: a batched step emits one
//! `thermal.transient.step` span for the whole batch (instead of one per
//! chip) but still one `thermal.transient.substeps` histogram sample per
//! lane. Campaign output is unaffected — spans are observational.

use crate::integrator::Integrator;
use crate::model::{FactorCache, ThermalModel};
use crate::transient::TransientSimulator;
use hayat_telemetry::{Recorder, RecorderExt};
use hayat_units::{Seconds, Watts};
use std::sync::Arc;

/// One chip's view into a batched step: its simulator plus the constant
/// per-core power vector to apply over the step.
#[derive(Debug)]
pub struct BatchLane<'a> {
    /// The lane's transient simulator (mutated in place by the step).
    pub sim: &'a mut TransientSimulator,
    /// Per-core power over the step, same contract as
    /// [`TransientSimulator::step`].
    pub power: &'a [Watts],
}

/// Advances B chips' temperature vectors in lockstep through one
/// factorization per step size.
///
/// Built from a template [`TransientSimulator`] and stepping over its
/// [`ThermalModel`]; every lane passed to
/// [`step_recorded`](Self::step_recorded) must come from a simulator built
/// on the **same floorplan and thermal configuration** (node counts are
/// asserted, structural identity is the caller's contract, which the
/// campaign executor satisfies by construction since all its chips share
/// one model).
#[derive(Debug, Clone)]
pub struct BatchedTransient {
    model: Arc<ThermalModel>,
    /// Factorizations for step sizes the model does not carry, shared by
    /// every lane.
    factors: FactorCache,
    /// Structure-of-arrays rhs/solution buffer, `node × lane` interleaved.
    soa: Vec<f64>,
    /// Lane-major temperature staging, one stride-padded row per lane.
    ///
    /// The gather/scatter transpose must not touch the lanes' own
    /// temperature vectors node-by-node: those are B separate same-sized
    /// heap allocations, and on a churned heap the allocator hands them
    /// out at identical page offsets, so a node-outer sweep hits the same
    /// cache set B ways at once and conflict-misses (~40% slower steps).
    /// Staging copies each lane in and out *sequentially* (layout-immune)
    /// and pads the row stride to an odd number of cache lines so the
    /// transposed reads cycle through every set.
    staging: Vec<f64>,
    /// Lane-major per-core power staging, stride-padded like `staging` —
    /// the lanes' power vectors are same-size-class allocations too.
    power_staging: Vec<f64>,
}

impl BatchedTransient {
    /// Builds the shared stepper from a template simulator (typically the
    /// first lane's).
    #[must_use]
    pub fn new(template: &TransientSimulator) -> Self {
        BatchedTransient {
            model: Arc::clone(template.model()),
            factors: FactorCache::default(),
            soa: Vec::new(),
            staging: Vec::new(),
            power_staging: Vec::new(),
        }
    }

    /// Number of RC nodes each lane's simulator must have.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.model.network().node_count()
    }

    /// Advances every lane by `dt` under its constant power vector — the
    /// batched counterpart of per-lane
    /// [`TransientSimulator::step_recorded`] calls, bit-identical per lane.
    ///
    /// Backward-Euler lanes share one gather → multi-RHS solve → scatter;
    /// forward-Euler lanes (and empty `dt ≤ 0` steps) fall back to the
    /// scalar per-lane path, which is trivially identical.
    ///
    /// # Panics
    ///
    /// Panics if a lane's node count differs from the template's or a power
    /// vector doesn't cover every core.
    pub fn step_recorded(
        &mut self,
        dt: Seconds,
        lanes: &mut [BatchLane<'_>],
        recorder: &dyn Recorder,
    ) {
        let Some(first) = lanes.first() else { return };
        if first.sim.integrator() != Integrator::BackwardEuler || dt.value() <= 0.0 {
            for lane in lanes {
                lane.sim.step_recorded(dt, lane.power, recorder);
            }
            return;
        }
        let _solve = recorder.span("thermal.transient.step");
        let batch = lanes.len();
        let model = &*self.model;
        let n = model.network().node_count();
        let cores = model.network().core_count();
        for lane in lanes.iter() {
            assert_eq!(
                lane.sim.node_count(),
                n,
                "every lane must share the template's network structure"
            );
            assert_eq!(
                lane.power.len(),
                cores,
                "power vector must cover every core"
            );
        }
        self.soa.resize(n * batch, 0.0);
        // Odd number of cache lines per lane row so the transposed
        // (stride-`stride`) reads below walk every L1/L2 set instead of
        // aliasing onto one.
        let stride = (n.div_ceil(8) | 1) * 8;
        self.staging.resize(stride * batch, 0.0);
        for (row, lane) in self.staging.chunks_exact_mut(stride).zip(lanes.iter()) {
            row[..n].copy_from_slice(lane.sim.node_temps());
        }
        let pstride = (cores.div_ceil(8) | 1) * 8;
        self.power_staging.resize(pstride * batch, 0.0);
        for (row, lane) in self
            .power_staging
            .chunks_exact_mut(pstride)
            .zip(lanes.iter())
        {
            for (slot, power) in row[..cores].iter_mut().zip(lane.power) {
                *slot = power.value();
            }
        }
        let soa = &mut self.soa;
        let staging = &mut self.staging;
        let power_staging = &self.power_staging;
        let entry = self.factors.get(model, dt.value());
        // Gather: per lane, the exact rhs expression of the scalar
        // `implicit_step`. Node-outer so the SoA writes stream one
        // contiguous lane-row at a time (each rhs entry is independent, so
        // loop order cannot change any lane's FP result).
        for ((k_row, &node), (&c_over_h, &ambient)) in soa
            .chunks_exact_mut(batch)
            .zip(model.node_of_banded())
            .zip(entry.c_over_h.iter().zip(model.ambient_rhs()))
        {
            if node < cores {
                for (slot, (row, prow)) in k_row.iter_mut().zip(
                    staging
                        .chunks_exact(stride)
                        .zip(power_staging.chunks_exact(pstride)),
                ) {
                    *slot = c_over_h * row[node] + ambient + prow[node];
                }
            } else {
                for (slot, row) in k_row.iter_mut().zip(staging.chunks_exact(stride)) {
                    *slot = c_over_h * row[node] + ambient;
                }
            }
        }
        entry.factor.solve_many_in_place(soa, batch);
        // Scatter back through staging, then stream each lane out
        // sequentially.
        for (k_row, &node) in soa.chunks_exact(batch).zip(model.node_of_banded()) {
            for (&value, row) in k_row.iter().zip(staging.chunks_exact_mut(stride)) {
                row[node] = value;
            }
        }
        for (row, lane) in staging.chunks_exact(stride).zip(lanes.iter_mut()) {
            lane.sim.node_temps_mut().copy_from_slice(&row[..n]);
        }
        for lane in lanes.iter_mut() {
            lane.sim.advance_elapsed(dt.value());
            if recorder.enabled() {
                recorder.histogram("thermal.transient.substeps", 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThermalConfig;
    use hayat_floorplan::Floorplan;
    use hayat_telemetry::NULL_RECORDER;

    fn lane_power(cores: usize, lane: usize) -> Vec<Watts> {
        (0..cores)
            .map(|c| Watts::new(2.0 + ((c * 13 + lane * 7) % 9) as f64 * 0.5))
            .collect()
    }

    #[test]
    fn lockstep_matches_scalar_steps_bitwise() {
        let fp = Floorplan::paper_8x8();
        let cfg = ThermalConfig::paper();
        let cores = fp.core_count();
        let lanes = 3;
        let mut batched: Vec<TransientSimulator> = (0..lanes)
            .map(|_| TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler))
            .collect();
        let mut scalar = batched.clone();
        let mut stepper = BatchedTransient::new(&batched[0]);
        let powers: Vec<Vec<Watts>> = (0..lanes).map(|b| lane_power(cores, b)).collect();
        // Two step sizes to exercise the shared factor cache; several steps
        // so divergence would compound.
        for (step, dt) in [0.0066, 0.0066, 0.05, 0.0066, 0.05].into_iter().enumerate() {
            let dt = Seconds::new(dt);
            {
                let mut views: Vec<BatchLane<'_>> = batched
                    .iter_mut()
                    .zip(&powers)
                    .map(|(sim, power)| BatchLane { sim, power })
                    .collect();
                stepper.step_recorded(dt, &mut views, &NULL_RECORDER);
            }
            for (b, sim) in scalar.iter_mut().enumerate() {
                sim.step(dt, &powers[b]);
            }
            for (b, (got, want)) in batched.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    got.snapshot(),
                    want.snapshot(),
                    "lane {b} diverged from the scalar path at step {step}"
                );
            }
        }
    }

    #[test]
    fn forward_euler_lanes_fall_back_to_the_scalar_path() {
        let fp = Floorplan::grid(2, 2);
        let cfg = ThermalConfig::paper();
        let cores = fp.core_count();
        let mut batched: Vec<TransientSimulator> =
            (0..2).map(|_| TransientSimulator::new(&fp, &cfg)).collect();
        let mut scalar = batched.clone();
        let mut stepper = BatchedTransient::new(&batched[0]);
        let powers: Vec<Vec<Watts>> = (0..2).map(|b| lane_power(cores, b)).collect();
        let dt = Seconds::new(0.002);
        let mut views: Vec<BatchLane<'_>> = batched
            .iter_mut()
            .zip(&powers)
            .map(|(sim, power)| BatchLane { sim, power })
            .collect();
        stepper.step_recorded(dt, &mut views, &NULL_RECORDER);
        for (b, sim) in scalar.iter_mut().enumerate() {
            sim.step(dt, &powers[b]);
        }
        for (got, want) in batched.iter().zip(&scalar) {
            assert_eq!(got.snapshot(), want.snapshot());
        }
    }

    #[test]
    fn empty_step_only_advances_time() {
        let fp = Floorplan::grid(2, 2);
        let cfg = ThermalConfig::paper();
        let mut sim = TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        let mut stepper = BatchedTransient::new(&sim);
        let power = lane_power(fp.core_count(), 0);
        let before = sim.temperatures();
        let mut views = [BatchLane {
            sim: &mut sim,
            power: &power,
        }];
        stepper.step_recorded(Seconds::new(0.0), &mut views, &NULL_RECORDER);
        assert_eq!(sim.temperatures(), before);
        assert_eq!(sim.elapsed(), Seconds::new(0.0));
    }

    #[test]
    fn sixteen_by_sixteen_grid_steps_and_batches() {
        // Larger-floorplan smoke test (ROADMAP item 4): a 16×16 mesh builds,
        // a backward-Euler step heats the silicon above ambient, and the
        // batched stepper stays bit-identical to the scalar one on it.
        let fp = Floorplan::grid(16, 16);
        assert_eq!(fp.core_count(), 256);
        let cfg = ThermalConfig::paper();
        let mut sim = TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        let power = vec![Watts::new(4.0); fp.core_count()];
        sim.step(Seconds::new(0.0066), &power);
        assert!(sim.temperatures().mean() > sim.ambient());

        let mut batched = TransientSimulator::with_integrator(&fp, &cfg, Integrator::BackwardEuler);
        let mut stepper = BatchedTransient::new(&batched);
        let mut views = [BatchLane {
            sim: &mut batched,
            power: &power,
        }];
        stepper.step_recorded(Seconds::new(0.0066), &mut views, &NULL_RECORDER);
        assert_eq!(batched.snapshot(), sim.snapshot());
    }
}
