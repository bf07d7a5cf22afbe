//! Degenerate-configuration integration tests: the full stack must behave
//! on floorplans and budgets far from the paper's 8×8/50% sweet spot.

use hayat::{
    ChipSystem, HayatPolicy, Policy, PolicyContext, SimulationConfig, SimulationEngine, VaaPolicy,
};
use hayat_aging::{AgingModel, AgingTable};
use hayat_floorplan::FloorplanBuilder;
use hayat_thermal::ThermalPredictor;
use hayat_units::Years;
use hayat_variation::ChipPopulation;
use hayat_workload::WorkloadMix;
use std::sync::Arc;

/// Builds a full system on an arbitrary mesh.
fn system_on(rows: usize, cols: usize, dark: f64) -> ChipSystem {
    let mut config = SimulationConfig::quick_demo();
    config.dark_fraction = dark;
    let floorplan = FloorplanBuilder::new(rows, cols)
        .grid_cells_per_core(2)
        .build()
        .expect("valid mesh");
    let population =
        ChipPopulation::generate(&floorplan, &config.variation, 1, 11).expect("generates");
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
fn single_core_chip_runs_end_to_end() {
    let system = system_on(1, 1, 0.0);
    assert_eq!(system.budget().max_on(), 1);
    let workload = WorkloadMix::generate(7, 1);
    let mapping = HayatPolicy::default().map_threads(&ctx(&system), &workload);
    // The single thread lands on the single core if it is feasible there;
    // a 1-thread mix can demand more than a slow singleton core offers.
    let (_, profile) = workload.threads().next().expect("one thread");
    if system.can_host(hayat_floorplan::CoreId::new(0), profile.min_frequency()) {
        assert_eq!(mapping.active_cores(), 1);
    } else {
        assert_eq!(mapping.active_cores(), 0);
    }
}

#[test]
fn one_dimensional_chip_simulates_a_full_lifetime() {
    let mut config = SimulationConfig::quick_demo();
    config.dark_fraction = 0.5;
    let floorplan = FloorplanBuilder::new(1, 8)
        .grid_cells_per_core(2)
        .build()
        .expect("valid mesh");
    let population =
        ChipPopulation::generate(&floorplan, &config.variation, 1, 3).expect("generates");
    let predictor = Arc::new(ThermalPredictor::learn(&floorplan, &config.thermal));
    let table = Arc::new(AgingTable::generate(
        &AgingModel::paper(config.variation.design_seed),
        &config.table_axes,
    ));
    let thermal = Arc::new(config.thermal_model(&floorplan));
    let system = ChipSystem::from_parts(
        floorplan,
        population.chips()[0].clone(),
        &config,
        predictor,
        table,
        thermal,
    );
    let mut engine = SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config);
    let metrics = engine.run();
    assert_eq!(metrics.epochs.len(), config.epoch_count());
    assert!(metrics.final_health_mean() <= 1.0);
    for epoch in &metrics.epochs {
        assert!(epoch.avg_temp_kelvin > 300.0 && epoch.avg_temp_kelvin < 420.0);
    }
}

#[test]
fn extreme_dark_fraction_still_serves_a_tiny_workload() {
    // 90% dark on a 5x5: only 2 cores may ever be on.
    let system = system_on(5, 5, 0.9);
    assert_eq!(system.budget().max_on(), 2);
    let workload = WorkloadMix::generate(5, 2);
    for policy in [
        Box::<HayatPolicy>::default() as Box<dyn Policy>,
        Box::new(VaaPolicy),
    ] {
        let mut policy = policy;
        let mapping = policy.map_threads(&ctx(&system), &workload);
        assert!(
            mapping.active_cores() <= 2,
            "{} broke the budget",
            policy.name()
        );
    }
}

#[test]
fn oversubscribed_workload_respects_the_budget_and_reports_unplaced() {
    // More threads than the budget can ever hold: the engine must cap N_on
    // and report the remainder as unplaced, never panic.
    let mut config = SimulationConfig::quick_demo();
    config.dark_fraction = 0.75; // 16 of 64 cores
    config.years = 0.5;
    config.epoch_years = 0.5;
    config.mix_load_range = (1.0, 1.0);
    let system = ChipSystem::paper_chip(0, &config).expect("system builds");
    // The engine's own mixes are budget-sized, so drive one epoch manually
    // with an oversized mix through the policy.
    let workload = WorkloadMix::generate(9, 40);
    let mapping = HayatPolicy::default().map_threads(
        &PolicyContext::new(&system, Years::new(1.0), Years::new(0.0)),
        &workload,
    );
    assert_eq!(mapping.active_cores(), 16);
}

#[test]
fn sixteen_by_sixteen_mesh_scales_through_the_whole_stack() {
    // The "manycore" claim: the identical configuration machinery drives a
    // 256-core chip (variation-grid resolution adapts automatically).
    let mut config = SimulationConfig::quick_demo();
    config.mesh = (16, 16);
    config.years = 0.5;
    config.epoch_years = 0.5;
    config.transient_window_seconds = 0.2;
    let system = ChipSystem::paper_chip(0, &config).expect("256-core system builds");
    assert_eq!(system.floorplan().core_count(), 256);
    assert_eq!(system.budget().max_on(), 128);
    let mut engine = SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config);
    let metrics = engine.run();
    assert_eq!(metrics.epochs.len(), 1);
    assert_eq!(metrics.total_unplaced(), 0);
    assert!(metrics.final_health_mean() <= 1.0);
}

#[test]
fn thirty_two_by_thirty_two_mesh_smokes_through_an_epoch() {
    // One decision + transient window on a 1024-core chip: exercises the
    // tiled candidate index and the banded steady-state factor on the
    // largest mesh the default test suite touches (64×64 stays in the
    // bench's --full mode; its covariance factoring alone takes tens of
    // seconds).
    let mut config = SimulationConfig::quick_demo();
    config.mesh = (32, 32);
    config.years = 0.25;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.05;
    let system = ChipSystem::paper_chip(0, &config).expect("1024-core system builds");
    assert_eq!(system.floorplan().core_count(), 1024);
    assert_eq!(system.budget().max_on(), 512);
    let mut engine = SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config);
    let metrics = engine.run();
    assert_eq!(metrics.epochs.len(), 1);
    assert!(metrics.final_health_mean() <= 1.0);
    assert!(metrics.mean_throughput_fraction() > 0.0);
}

#[test]
fn non_square_floorplan_campaign_metrics_are_sane() {
    let system = system_on(2, 6, 0.5);
    let mut config = SimulationConfig::quick_demo();
    config.dark_fraction = 0.5;
    config.years = 1.0;
    config.epoch_years = 0.5;
    let mut engine = SimulationEngine::new(system, Box::new(VaaPolicy), &config);
    let metrics = engine.run();
    assert_eq!(metrics.epochs.len(), 2);
    assert!(metrics.mean_throughput_fraction() > 0.5);
    assert!(metrics.final_avg_fmax_ghz() > 1.0);
}
