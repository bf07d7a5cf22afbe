//! The decision-path contract: the fast table path (flattened lookup +
//! direct age-curve inversion + fused superposition scans + reusable
//! scratch) and the tiled candidate index must be *exact* drop-ins for the
//! bisection and exhaustive-scan oracles they replace. The production Hayat
//! policy and the reference policy running either oracle must produce the
//! same mappings and runs, and their serialized JSON must not change by a
//! single byte.

use hayat::{
    Campaign, ChipSystem, HayatPolicy, HayatReference, Jobs, Policy, PolicyContext, PolicyKind,
    SearchPath, SimulationConfig, SimulationEngine,
};
use hayat_aging::{Health, TablePath};
use hayat_floorplan::CoreId;
use hayat_units::Years;
use hayat_workload::WorkloadMix;
use proptest::collection::vec;
use proptest::prelude::*;

fn ctx(system: &ChipSystem) -> PolicyContext<'_> {
    PolicyContext::new(system, Years::new(1.0), Years::new(0.0))
}

/// A quick-demo chip with per-core health forced to `degrade`, so the
/// policies' aging terms actually discriminate between cores.
fn degraded_chip(degrade: &[f64]) -> ChipSystem {
    let config = SimulationConfig::quick_demo();
    let mut system = ChipSystem::paper_chip(0, &config).expect("system builds");
    for (i, &h) in degrade.iter().enumerate() {
        system.health_mut().set(CoreId::new(i), Health::new(h));
    }
    system
}

/// Runs the campaign's Hayat chips on the production path, then re-runs
/// every chip through the reference policy under each `(search, table)`
/// pair of `oracles`: each run must serialize byte-identically.
fn assert_oracle_runs_match(config: SimulationConfig, oracles: &[(SearchPath, TablePath)]) {
    let campaign = Campaign::new(config).expect("config is valid");
    let production = campaign.run_with_jobs(&[PolicyKind::Hayat], Jobs::serial());
    assert_eq!(production.runs.len(), campaign.chip_count());
    for (chip, run) in production.runs.iter().enumerate() {
        let expected = serde_json::to_string_pretty(run).expect("serializable");
        for &(search, table) in oracles {
            let reference = HayatReference::new(search, table);
            let mut engine = SimulationEngine::new(
                campaign.system_for(chip),
                Box::new(reference),
                campaign.config(),
            );
            let actual = serde_json::to_string_pretty(&engine.run()).expect("serializable");
            assert!(
                actual == expected,
                "chip {chip} changed under {search:?} search and {table:?} table"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for any workload and any (plausible) per-core wear state,
    /// the Hayat policy places every thread on exactly the same core under
    /// the fast path as under the oracle.
    #[test]
    fn fast_and_oracle_mappings_agree_for_any_wear_state(
        seed in 0u64..1000,
        threads in 1usize..33,
        degrade in vec(0.55f64..1.0, 64),
    ) {
        let system = degraded_chip(&degrade);
        let workload = WorkloadMix::generate(seed, threads);

        let fast = HayatPolicy::default().map_threads(&ctx(&system), &workload);
        let oracle = HayatReference::new(SearchPath::Tiled, TablePath::Oracle)
            .map_threads(&ctx(&system), &workload);
        prop_assert_eq!(fast, oracle);
    }
}

#[test]
fn campaign_json_is_byte_identical_across_table_paths() {
    // End-to-end: multi-epoch runs serialized to JSON are the regression
    // surface the paper figures are built from. The fast path must
    // reproduce the oracle's byte for byte.
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 2;
    config.years = 1.0;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    assert_oracle_runs_match(config, &[(SearchPath::Tiled, TablePath::Oracle)]);
}

#[test]
fn ci_campaign_hayat_runs_are_byte_identical_under_both_oracles() {
    // The determinism gate's campaign: `campaign --chips 3 --years 1
    // --epoch 0.25 --window 0.1 --mesh 4` at the default 50% dark. Every
    // Hayat run must serialize identically under the exhaustive candidate
    // scan and under the bisection table advance.
    let mut config = SimulationConfig::paper(0.5);
    config.chip_count = 3;
    config.years = 1.0;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    config.mesh = (4, 4);
    assert_oracle_runs_match(
        config,
        &[
            (SearchPath::Exhaustive, TablePath::Fast),
            (SearchPath::Tiled, TablePath::Oracle),
        ],
    );
}
