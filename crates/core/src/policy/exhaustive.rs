//! Exhaustive reference solver for tiny instances.
//!
//! The paper formulates the joint patterning/mapping problem as an ILP
//! (Eqs. 3–6) and immediately dismisses solving it online. For *tiny*
//! instances we can brute-force the optimum and measure how close the
//! Hayat heuristic gets — the optimality-gap tests in `tests/` do exactly
//! that on small floorplans.

use crate::mapping::ThreadMapping;
use crate::policy::{predict_mapping_temperatures, Policy, PolicyContext};
use hayat_floorplan::CoreId;
use hayat_units::DutyCycle;
use hayat_workload::{ThreadId, ThreadProfile, WorkloadMix};

/// Upper bound on `feasible cores ^ threads` enumerations the solver will
/// attempt before panicking; keeps accidental large instances from hanging.
const MAX_ENUMERATIONS: u64 = 5_000_000;

/// The Eq. 6 objective of one complete mapping: the mean next-epoch health
/// over all cores (dark cores keep their health), with the predicted peak
/// temperature as the feasibility datum.
///
/// Exposed so tests can score heuristic mappings with the *same* objective
/// the exhaustive solver optimizes.
#[must_use]
pub fn objective(
    ctx: &PolicyContext<'_>,
    mapping: &ThreadMapping,
    workload: &WorkloadMix,
) -> (f64, f64) {
    let system = ctx.system;
    let fp = system.floorplan();
    let temps = predict_mapping_temperatures(system, mapping, workload);
    let table = system.aging_table();
    let mut sum = 0.0;
    for core in fp.cores() {
        let h_now = system.health().core(core).value();
        let duty = mapping
            .thread_on(core)
            .map_or(DutyCycle::idle(), |tid| workload.thread(tid).duty());
        sum += table.advance(temps.core(core), duty, h_now, ctx.horizon);
    }
    (sum / fp.core_count() as f64, temps.max().value())
}

/// Brute-force optimal mapping under the paper's ILP objective:
/// maximize the Eq. 6 mean next health, subject to the Eq. 4 `T_safe`
/// constraint, Eq. 5 (structural) and the dark-silicon budget — by
/// enumerating every injective assignment of threads to feasible cores.
///
/// If no assignment satisfies `T_safe`, the constraint is dropped and the
/// health objective alone decides (mirroring the heuristic's DTM-backed
/// fallback). Only suitable for tiny instances (the enumeration count is
/// capped internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExhaustivePolicy;

impl ExhaustivePolicy {
    fn search(
        ctx: &PolicyContext<'_>,
        workload: &WorkloadMix,
        threads: &[(ThreadId, &ThreadProfile)],
        mapping: &mut ThreadMapping,
        enumerated: &mut u64,
        best: &mut Option<(f64, bool, ThreadMapping)>,
    ) {
        let system = ctx.system;
        if let Some((tid, profile)) = threads.first() {
            let rest = &threads[1..];
            let candidates: Vec<CoreId> = system
                .floorplan()
                .cores()
                .filter(|&c| mapping.is_free(c) && system.can_host(c, profile.min_frequency()))
                .collect();
            for core in candidates {
                mapping.assign(*tid, core);
                Self::search(ctx, workload, rest, mapping, enumerated, best);
                mapping.unassign(core);
            }
        } else {
            *enumerated += 1;
            assert!(
                *enumerated <= MAX_ENUMERATIONS,
                "instance too large for exhaustive search"
            );
            let (health, t_peak) = objective(ctx, mapping, workload);
            let safe = t_peak <= system.thermal_config().t_safe.value();
            let better = match best {
                None => true,
                // A thermally safe solution always beats an unsafe one;
                // within a class, higher mean next health wins.
                Some((bh, bsafe, _)) => (safe, health) > (*bsafe, *bh),
            };
            if better {
                *best = Some((health, safe, mapping.clone()));
            }
        }
    }
}

impl Policy for ExhaustivePolicy {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    /// # Panics
    ///
    /// Panics when the instance would exceed the internal enumeration cap
    /// or when the budget cannot hold the workload (the
    /// reference solver insists on mapping every thread).
    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping {
        let system = ctx.system;
        let threads: Vec<(ThreadId, &ThreadProfile)> = workload.threads().collect();
        assert!(
            threads.len() <= system.budget().max_on(),
            "exhaustive reference requires the budget to hold the workload"
        );
        let mut mapping = ThreadMapping::empty(system.floorplan().core_count());
        let mut best = None;
        let mut enumerated = 0;
        Self::search(
            ctx,
            workload,
            &threads,
            &mut mapping,
            &mut enumerated,
            &mut best,
        );
        best.map(|(_, _, m)| m).unwrap_or(mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::hayat::HayatPolicy;
    use crate::sim::config::SimulationConfig;
    use crate::system::ChipSystem;
    use hayat_aging::{AgingModel, AgingTable};
    use hayat_floorplan::FloorplanBuilder;
    use hayat_thermal::ThermalPredictor;
    use hayat_units::Years;
    use hayat_variation::ChipPopulation;
    use std::sync::Arc;

    /// A tiny 3x3 system the brute force can handle.
    fn tiny_system() -> ChipSystem {
        let mut config = SimulationConfig::quick_demo();
        config.dark_fraction = 0.4; // 5 of 9 cores may be on
        let floorplan = FloorplanBuilder::new(3, 3)
            .grid_cells_per_core(2)
            .build()
            .expect("valid mesh");
        let population =
            ChipPopulation::generate(&floorplan, &config.variation, 1, 5).expect("generates");
        let chip = population.chips()[0].clone();
        let predictor = Arc::new(ThermalPredictor::learn(&floorplan, &config.thermal));
        let table = Arc::new(AgingTable::generate(
            &AgingModel::paper(config.variation.design_seed),
            &config.table_axes,
        ));
        let thermal = Arc::new(config.thermal_model(&floorplan));
        ChipSystem::from_parts(floorplan, chip, &config, predictor, table, thermal)
    }

    fn ctx(system: &ChipSystem) -> PolicyContext<'_> {
        PolicyContext::new(system, Years::new(1.0), Years::new(0.0))
    }

    #[test]
    fn exhaustive_maps_everything_and_respects_feasibility() {
        let system = tiny_system();
        let workload = hayat_workload::WorkloadMix::generate(3, 4);
        let mapping = ExhaustivePolicy.map_threads(&ctx(&system), &workload);
        assert_eq!(mapping.active_cores(), 4);
        for (core, tid) in mapping.assignments() {
            assert!(system.can_host(core, workload.thread(tid).min_frequency()));
        }
    }

    #[test]
    fn exhaustive_is_at_least_as_good_as_any_heuristic() {
        let system = tiny_system();
        let workload = hayat_workload::WorkloadMix::generate(8, 4);
        let c = ctx(&system);
        let optimal = ExhaustivePolicy.map_threads(&c, &workload);
        let heuristic = HayatPolicy::default().map_threads(&c, &workload);
        let (opt_h, _) = objective(&c, &optimal, &workload);
        let (heu_h, _) = objective(&c, &heuristic, &workload);
        assert!(
            opt_h >= heu_h - 1e-12,
            "exhaustive {opt_h} must not lose to the heuristic {heu_h}"
        );
    }

    #[test]
    fn hayat_is_near_optimal_on_tiny_instances() {
        // The optimality-gap check the ILP discussion motivates: the
        // heuristic's Eq. 6 objective stays within a tight band of the
        // brute-force optimum. Health values live near 1.0, so compare the
        // *degradation* (1 - H) rather than the raw objective.
        let system = tiny_system();
        let c = ctx(&system);
        for seed in [1u64, 8, 21] {
            let workload = hayat_workload::WorkloadMix::generate(seed, 4);
            let (opt_h, _) = objective(&c, &ExhaustivePolicy.map_threads(&c, &workload), &workload);
            let (heu_h, _) = objective(
                &c,
                &HayatPolicy::default().map_threads(&c, &workload),
                &workload,
            );
            let opt_loss = 1.0 - opt_h;
            let heu_loss = 1.0 - heu_h;
            assert!(
                heu_loss <= opt_loss * 1.5 + 1e-6,
                "seed {seed}: heuristic degradation {heu_loss:.6} vs optimal {opt_loss:.6}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn exhaustive_rejects_oversized_workloads() {
        let system = tiny_system();
        let workload = hayat_workload::WorkloadMix::generate(3, 16);
        let _ = ExhaustivePolicy.map_threads(&ctx(&system), &workload);
    }
}
