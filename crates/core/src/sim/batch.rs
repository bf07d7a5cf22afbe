//! Lockstep execution of the chips in one worker claim — the executor's
//! only claim path, at every batch width.
//!
//! A [`ChipBatch`] owns B [`SimulationEngine`]s built from the same
//! campaign configuration and advances them **in lockstep** through the
//! epoch loop. An epoch with exactly one active lane (every epoch of a
//! width-1 claim) runs that engine's scalar [`SimulationEngine::run_epoch`].
//! With two or more active lanes, every lane's policy decision runs
//! serially in canonical order against one batch-shared [`PolicyScratch`]
//! (amortizing the warmed candidate-scan and aging-curve caches), then each
//! control period runs every lane's DTM/power half-step before a single
//! batched thermal solve ([`BatchedTransient`], built the first time two
//! lanes step together) advances all lanes' temperature vectors through one
//! cached factorization traversal.
//!
//! The hot state is structure-of-arrays where it pays: the B right-hand
//! sides of the implicit thermal solve interleave per node
//! (`hayat_linalg::BandedCholeskyFactor::solve_many_in_place`), while the
//! per-chip health, leakage, and rise state stay inside each engine — the
//! SoA strides across chips and never reassociates within a chip, so every
//! lane performs exactly the FP operation sequence of a serial
//! [`SimulationEngine::run_epoch`] and output is byte-identical at every
//! batch width (pinned by `batched_epochs_match_serial_bitwise`, by
//! `batched_execution_reproduces_the_serial_campaign_exactly` against
//! per-chip `Campaign::run_one`, and by the campaign-level proptests).
//!
//! Telemetry shape differs when lanes step together (one
//! `thermal.transient.step` span per batched step instead of per chip;
//! lanes' spans interleave); a one-lane epoch records exactly the scalar
//! engine's spans. Campaign *output* is unaffected — spans are
//! observational.

use crate::metrics::EpochRecord;
use crate::policy::PolicyScratch;
use crate::sim::engine::{EpochDecision, SimulationEngine, WindowAccum};
use hayat_telemetry::RecorderExt;
use hayat_thermal::{BatchLane, BatchedTransient};
use hayat_units::Watts;
use std::cell::RefCell;
use std::sync::Arc;

/// B chips advanced in lockstep through the epoch loop with batched
/// thermal solves and one shared policy scratch.
///
/// Lanes may start at different epochs (checkpoint resume): a lane whose
/// `start_epoch` is after the current epoch simply sits out the step.
pub struct ChipBatch {
    engines: Vec<SimulationEngine>,
    start_epochs: Vec<usize>,
    /// One policy scratch for the whole batch — a pure cache (never carries
    /// state between decisions), so serial per-lane decisions through it
    /// are output-identical to per-engine scratches.
    scratch: RefCell<PolicyScratch>,
    /// The lockstep thermal stepper, built the first time two or more
    /// lanes step together (a one-lane claim never clones the RC network).
    thermal: Option<BatchedTransient>,
    /// Per-lane power buffers, reused across steps and epochs.
    powers: Vec<Vec<Watts>>,
}

impl ChipBatch {
    /// Builds a batch over engines that all share one campaign
    /// configuration (floorplan, thermal config, epoch schedule), every
    /// lane starting at epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    #[must_use]
    pub fn new(engines: Vec<SimulationEngine>) -> Self {
        let starts = vec![0; engines.len()];
        ChipBatch::with_start_epochs(engines, starts)
    }

    /// [`new`](Self::new) with per-lane start epochs, for resumed runs.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or the lengths disagree.
    #[must_use]
    pub fn with_start_epochs(engines: Vec<SimulationEngine>, start_epochs: Vec<usize>) -> Self {
        assert!(!engines.is_empty(), "a batch needs at least one engine");
        assert_eq!(
            engines.len(),
            start_epochs.len(),
            "one start epoch per engine"
        );
        let cores = engines[0].system().floorplan().core_count();
        let powers = engines.iter().map(|_| Vec::with_capacity(cores)).collect();
        ChipBatch {
            engines,
            start_epochs,
            scratch: RefCell::new(PolicyScratch::new()),
            thermal: None,
            powers,
        }
    }

    /// Number of lanes in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the batch has no lanes (never true for a constructed batch).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The engine on `lane`, for snapshotting and metric finalization.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn engine(&self, lane: usize) -> &SimulationEngine {
        &self.engines[lane]
    }

    /// Consumes the batch, returning its engines in lane order.
    #[must_use]
    pub fn into_engines(self) -> Vec<SimulationEngine> {
        self.engines
    }

    /// Runs `epoch` across every lane whose run has reached it, in
    /// lockstep, returning `(lane, record)` pairs in lane order. Each
    /// lane's record is bit-identical to what its engine's serial
    /// [`SimulationEngine::run_epoch`] would have produced — with one
    /// active lane, it *is* that call.
    pub fn run_epoch(&mut self, epoch: usize) -> Vec<(usize, EpochRecord)> {
        let active: Vec<usize> = (0..self.engines.len())
            .filter(|&lane| self.start_epochs[lane] <= epoch)
            .collect();
        match active[..] {
            [] => return Vec::new(),
            [lane] => return vec![(lane, self.engines[lane].run_epoch(epoch))],
            _ => {}
        }
        // Phase 1 — decisions, serial in canonical lane order through the
        // shared scratch. Each lane's epoch span covers its decision (the
        // window below interleaves lanes, so per-lane span timing under
        // batching measures the decision only).
        let mut decisions: Vec<EpochDecision> = Vec::with_capacity(active.len());
        for &lane in &active {
            let engine = &mut self.engines[lane];
            let recorder = Arc::clone(engine.recorder());
            if recorder.enabled() {
                recorder.set_context(engine.span_context().with_epoch(epoch as u64));
            }
            let _epoch_span = recorder.span("engine.epoch");
            decisions.push(engine.epoch_decide(epoch, Some(&self.scratch)));
        }
        // Phase 2 — the transient window, lockstep across lanes: every
        // lane's DTM/power half-step, one batched thermal solve, every
        // lane's statistics fold.
        let mut accums: Vec<WindowAccum> = active
            .iter()
            .zip(&decisions)
            .map(|(&lane, decision)| self.engines[lane].window_begin(&decision.workload))
            .collect();
        let steps = accums[0].steps;
        let dt = self.engines[active[0]].config().control_period();
        let recorder = Arc::clone(self.engines[active[0]].recorder());
        let thermal = self
            .thermal
            .get_or_insert_with(|| BatchedTransient::new(self.engines[0].system().transient()));
        for step in 0..steps {
            for ((&lane, decision), accum) in active.iter().zip(&mut decisions).zip(&mut accums) {
                self.engines[lane].window_power_step(step, decision, accum, &mut self.powers[lane]);
            }
            {
                let powers = &self.powers;
                let start_epochs = &self.start_epochs;
                let mut lanes: Vec<BatchLane<'_>> = self
                    .engines
                    .iter_mut()
                    .enumerate()
                    .filter(|(lane, _)| start_epochs[*lane] <= epoch)
                    .map(|(lane, engine)| BatchLane {
                        sim: engine.system_mut().transient_mut(),
                        power: &powers[lane],
                    })
                    .collect();
                thermal.step_recorded(dt, &mut lanes, recorder.as_ref());
            }
            for (&lane, accum) in active.iter().zip(&mut accums) {
                self.engines[lane].window_absorb_step(accum);
            }
        }
        // Phase 3 — epoch upscale per lane, serial in canonical order.
        let mut records = Vec::with_capacity(active.len());
        for ((&lane, decision), accum) in active.iter().zip(decisions).zip(accums) {
            let engine = &mut self.engines[lane];
            let recorder = Arc::clone(engine.recorder());
            if recorder.enabled() {
                recorder.set_context(engine.span_context().with_epoch(epoch as u64));
            }
            let outcome = accum.finish();
            records.push((
                lane,
                engine.epoch_finish(epoch, decision, outcome, Some(&self.scratch)),
            ));
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::hayat::HayatPolicy;
    use crate::sim::config::SimulationConfig;
    use crate::system::ChipSystem;

    fn engines(count: usize) -> Vec<SimulationEngine> {
        let mut config = SimulationConfig::quick_demo();
        config.chip_count = count;
        (0..count)
            .map(|chip| {
                let system = ChipSystem::paper_chip(chip, &config).unwrap();
                SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config)
            })
            .collect()
    }

    #[test]
    fn batched_epochs_match_serial_bitwise() {
        let config = SimulationConfig::quick_demo();
        let serial: Vec<_> = engines(3)
            .into_iter()
            .map(|mut engine| {
                let mut metrics = engine.start_metrics();
                engine.run_epochs(0, config.epoch_count(), &mut metrics);
                engine.finalize_metrics(&mut metrics);
                metrics
            })
            .collect();
        let mut batch = ChipBatch::new(engines(3));
        let mut metrics: Vec<_> = (0..batch.len())
            .map(|lane| batch.engine(lane).start_metrics())
            .collect();
        for epoch in 0..config.epoch_count() {
            for (lane, record) in batch.run_epoch(epoch) {
                metrics[lane].epochs.push(record);
            }
        }
        for (lane, m) in metrics.iter_mut().enumerate() {
            batch.engine(lane).finalize_metrics(m);
        }
        assert_eq!(metrics, serial, "lockstep output must not drift a bit");
    }

    #[test]
    fn staggered_start_epochs_skip_inactive_lanes() {
        let config = SimulationConfig::quick_demo();
        let serial: Vec<_> = engines(3)
            .into_iter()
            .map(|mut engine| {
                let mut metrics = engine.start_metrics();
                engine.run_epochs(0, config.epoch_count(), &mut metrics);
                metrics
            })
            .collect();
        // Lane 1 joins one epoch late, as a resumed run would, while lanes
        // 0 and 2 step together around it; their records must still match
        // the serial path exactly, and lane 1 must produce records only for
        // the epochs it ran.
        let mut batch = ChipBatch::with_start_epochs(engines(3), vec![0, 1, 0]);
        let mut per_lane: Vec<Vec<EpochRecord>> = vec![Vec::new(); 3];
        for epoch in 0..config.epoch_count() {
            for (lane, record) in batch.run_epoch(epoch) {
                per_lane[lane].push(record);
            }
        }
        assert_eq!(per_lane[0], serial[0].epochs);
        assert_eq!(per_lane[2], serial[2].epochs);
        assert_eq!(per_lane[1].len(), config.epoch_count() - 1);
        assert_eq!(per_lane[1][0].epoch, 1);
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_batch_is_rejected() {
        let _ = ChipBatch::new(Vec::new());
    }
}
