//! Property-based invariants spanning the substrates, checked with
//! proptest: mapping bookkeeping, DCM construction, aging monotonicity and
//! thermal sanity under arbitrary (bounded) inputs.

use hayat::{
    ChipSystem, DarkCoreMap, HayatPolicy, HayatReference, Policy, SearchPath, SimulationConfig,
    SimulationEngine, ThreadMapping,
};
use hayat_aging::{AgingModel, AgingTable, Health, TableAxes, TablePath};
use hayat_floorplan::{CoreId, Floorplan, FloorplanBuilder};
use hayat_thermal::{steady_state, Integrator, ThermalConfig};
use hayat_units::{DutyCycle, Kelvin, Watts, Years};
use hayat_workload::ThreadId;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared aging table: generation is the expensive offline step.
fn table() -> &'static AgingTable {
    static TABLE: OnceLock<AgingTable> = OnceLock::new();
    TABLE.get_or_init(|| AgingTable::generate(&AgingModel::paper(1), &TableAxes::paper()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mapping_assign_unassign_is_lossless(
        cores in 4usize..64,
        picks in prop::collection::vec((0usize..64, 0usize..32), 1..32),
    ) {
        let mut mapping = ThreadMapping::empty(cores);
        let mut placed = Vec::new();
        for (raw_core, thread) in picks {
            let core = CoreId::new(raw_core % cores);
            let tid = ThreadId::new(0, thread);
            if mapping.is_free(core) && mapping.core_of(tid).is_none() {
                mapping.assign(tid, core);
                placed.push((core, tid));
            }
        }
        prop_assert_eq!(mapping.active_cores(), placed.len());
        // Both directions agree for every placement.
        for (core, tid) in &placed {
            prop_assert_eq!(mapping.thread_on(*core), Some(*tid));
            prop_assert_eq!(mapping.core_of(*tid), Some(*core));
        }
        // Unassign everything: the mapping drains to empty.
        for (core, _) in &placed {
            mapping.unassign(*core);
        }
        prop_assert_eq!(mapping.active_cores(), 0);
        prop_assert_eq!(mapping.free().count(), cores);
    }

    #[test]
    fn dcm_constructions_have_exact_counts(
        rows in 2usize..8,
        cols in 2usize..8,
        frac in 0.0f64..1.0,
    ) {
        let fp = FloorplanBuilder::new(rows, cols).build().expect("valid mesh");
        let n = fp.core_count();
        let n_on = ((n as f64) * frac) as usize;
        for dcm in [
            DarkCoreMap::contiguous(&fp, n_on),
            DarkCoreMap::checkerboard(&fp, n_on),
        ] {
            prop_assert_eq!(dcm.on_count(), n_on);
            prop_assert_eq!(dcm.dark_count(), n - n_on);
            prop_assert_eq!(dcm.on_cores().count() + dcm.dark_cores().count(), n);
        }
    }

    #[test]
    fn aging_advance_is_monotone_in_everything(
        t1 in 310.0f64..420.0,
        dt in 0.0f64..30.0,
        duty in 0.05f64..1.0,
        health in 0.7f64..1.0,
        epoch in 0.05f64..2.0,
    ) {
        let table = table();
        let cooler = Kelvin::new(t1);
        let hotter = Kelvin::new((t1 + dt).min(430.0));
        let d = DutyCycle::new(duty);
        let e = Years::new(epoch);
        let h_cool = table.advance(cooler, d, health, e);
        let h_hot = table.advance(hotter, d, health, e);
        // Health never increases, and heat never helps.
        prop_assert!(h_cool <= health + 1e-12);
        prop_assert!(h_hot <= h_cool + 1e-9, "hot {h_hot} vs cool {h_cool}");
        // Longer epochs age at least as much.
        let h_longer = table.advance(cooler, d, health, Years::new(epoch * 2.0));
        prop_assert!(h_longer <= h_cool + 1e-9);
        // Higher duty ages at least as much.
        let d_low = DutyCycle::new(duty * 0.5);
        let h_low_duty = table.advance(cooler, d_low, health, e);
        prop_assert!(h_cool <= h_low_duty + 1e-9);
    }

    #[test]
    fn aging_epoch_composition_is_consistent(
        t in 320.0f64..400.0,
        duty in 0.1f64..1.0,
        epochs in 2usize..8,
    ) {
        // Advancing in k steps equals advancing once by the total (within
        // interpolation error): the equivalent-age re-entry is consistent.
        let table = table();
        let temp = Kelvin::new(t);
        let d = DutyCycle::new(duty);
        let step = Years::new(0.25);
        let mut h = 1.0;
        for _ in 0..epochs {
            h = table.advance(temp, d, h, step);
        }
        let direct = table.advance(temp, d, 1.0, Years::new(0.25 * epochs as f64));
        prop_assert!((h - direct).abs() < 5e-3, "stepwise {h} vs direct {direct}");
    }

    #[test]
    fn health_aged_fmax_is_linear(h in 0.01f64..1.0, f in 0.5f64..5.0) {
        let health = Health::new(h);
        let aged = health.aged_fmax(hayat_units::Gigahertz::new(f));
        prop_assert!((aged.value() - h * f).abs() < 1e-12);
    }

    #[test]
    fn steady_state_is_monotone_in_power(
        hot_core in 0usize..16,
        p1 in 0.5f64..6.0,
        extra in 0.1f64..6.0,
    ) {
        let fp = FloorplanBuilder::new(4, 4).build().expect("valid mesh");
        let cfg = ThermalConfig::paper();
        let mut low = vec![Watts::new(0.0); 16];
        low[hot_core] = Watts::new(p1);
        let mut high = low.clone();
        high[hot_core] = Watts::new(p1 + extra);
        let t_low = steady_state(&fp, &cfg, &low);
        let t_high = steady_state(&fp, &cfg, &high);
        // More power raises every core's temperature (positive resistance
        // network) and peaks at the powered core.
        for core in fp.cores() {
            prop_assert!(t_high.core(core) >= t_low.core(core));
        }
        prop_assert_eq!(t_high.hottest_core(), CoreId::new(hot_core));
    }

    #[test]
    fn floorplan_distance_is_a_metric(
        rows in 1usize..10,
        cols in 1usize..10,
        a in 0usize..100,
        b in 0usize..100,
        c in 0usize..100,
    ) {
        let fp = FloorplanBuilder::new(rows, cols).build().expect("valid mesh");
        let n = fp.core_count();
        let (a, b, c) = (CoreId::new(a % n), CoreId::new(b % n), CoreId::new(c % n));
        prop_assert_eq!(fp.mesh_distance(a, a), 0);
        prop_assert_eq!(fp.mesh_distance(a, b), fp.mesh_distance(b, a));
        prop_assert!(
            fp.mesh_distance(a, c) <= fp.mesh_distance(a, b) + fp.mesh_distance(b, c)
        );
    }
}

// The checkpoint/resume contract under the implicit integrator: a run cut
// at any epoch boundary, snapshotted, and resumed in a fresh engine must be
// bit-identical to the uninterrupted run. Few cases — each builds a chip
// system — but randomized over the cut point, dark fraction, and workload.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn implicit_snapshot_restore_is_bit_identical_mid_run(
        cut in 1usize..4,
        dark in 0.25f64..0.75,
        seed in 0u64..1_000,
    ) {
        let mut config = SimulationConfig::quick_demo();
        config.mesh = (4, 4);
        config.transient_window_seconds = 0.1;
        config.dark_fraction = dark;
        config.workload_seed = seed;
        config.integrator = Integrator::BackwardEuler;
        let build = || {
            let system = ChipSystem::paper_chip(0, &config).expect("chip builds");
            SimulationEngine::new(system, Box::new(HayatPolicy::default()), &config)
        };
        let reference = build().run();
        let mut first = build();
        let mut metrics = first.start_metrics();
        for epoch in 0..cut {
            metrics.epochs.push(first.run_epoch(epoch));
        }
        let snap = first.snapshot(cut);
        drop(first);
        let mut resumed = build();
        resumed.restore(&snap).expect("snapshot shape matches");
        for epoch in cut..config.epoch_count() {
            metrics.epochs.push(resumed.run_epoch(epoch));
        }
        resumed.finalize_metrics(&mut metrics);
        prop_assert_eq!(metrics, reference);
    }
}

// The tiled-search contract: the tiled candidate index is a pure pruning
// overlay over the exhaustive mapping scan, so the production Hayat policy
// and the reference policy running the exhaustive scan must produce
// bit-identical runs — every decision, every temperature, every health
// trajectory — across random meshes, chips, dark fractions, and workload
// seeds. Few cases: each one simulates two full multi-epoch runs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn tiled_and_exhaustive_search_paths_run_identically(
        wide in 0usize..2,
        chip in 0usize..32,
        dark in 0.25f64..0.75,
        seed in 0u64..1_000,
    ) {
        let mut config = SimulationConfig::quick_demo();
        config.mesh = if wide == 1 { (16, 16) } else { (8, 8) };
        config.transient_window_seconds = 0.1;
        config.dark_fraction = dark;
        config.workload_seed = seed;
        // quick_demo's population is 2 chips; widen it so every sampled
        // chip index picks a distinct variation map.
        config.chip_count = 32;
        let run = |policy: Box<dyn Policy>| {
            let system = ChipSystem::paper_chip(chip, &config).expect("chip builds");
            SimulationEngine::new(system, policy, &config).run()
        };
        let exhaustive = HayatReference::new(SearchPath::Exhaustive, TablePath::Fast);
        prop_assert_eq!(
            run(Box::<HayatPolicy>::default()),
            run(Box::new(exhaustive))
        );
    }
}

// A non-proptest sanity anchor so this file also runs under `--test-threads=1`
// quickly when filtering.
#[test]
fn shared_table_generates_once() {
    assert!(table().len() > 1000);
    let _ = Floorplan::paper_8x8();
}
