//! Dynamic Thermal Management (Section V): migrate threads off cores that
//! reach `T_safe`, or throttle them when no migration target exists.

use crate::mapping::ThreadMapping;
use crate::system::ChipSystem;
use hayat_floorplan::CoreId;
use hayat_thermal::TemperatureMap;
use hayat_units::Kelvin;
use hayat_workload::WorkloadMix;
use serde::{Deserialize, Serialize};

/// The discrete core-level DVFS ladder: throttling steps the core's
/// frequency factor down this list one level per (re-)trigger, and back up
/// one level per cool check — the "core-level dynamic frequency scaling
/// support" the paper's guardbanding discussion assumes.
const DVFS_LEVELS: [f64; 4] = [1.0, 0.8, 0.6, 0.4];
/// A throttled core recovers one DVFS level once it has cooled this far
/// below `T_safe`.
const UNTHROTTLE_MARGIN_KELVIN: f64 = 5.0;

/// What DTM did to one core: every change to the mapping or to a core's
/// throttle level is reported, so a caller that caches per-core load can
/// key it on the returned events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DtmOutcome {
    /// The thread was migrated to a colder core.
    Migrated {
        /// Overheated source core.
        from: CoreId,
        /// Destination core.
        to: CoreId,
    },
    /// No eligible destination: the thread was frequency-throttled in place.
    Throttled {
        /// The overheated core.
        core: CoreId,
    },
    /// A throttled core cooled enough to climb one DVFS level.
    Recovered {
        /// The cooled core.
        core: CoreId,
    },
}

/// One DTM trigger with its simulated timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DtmEvent {
    /// Simulated seconds into the transient window when DTM fired.
    pub at_seconds: f64,
    /// What DTM did.
    pub outcome: DtmOutcome,
}

/// The DTM controller: holds the trigger thresholds, per-core throttle
/// state, and the event counters Fig. 7 reports.
///
/// Per the paper's setup: when a core reaches `T_safe` (95 °C), its thread
/// migrates "to the coldest cores, if they are within `T_safe − 10 °C`, or
/// \[is\] throttle\[d\] if this is not possible".
///
/// # Example
///
/// ```
/// use hayat::DtmController;
/// use hayat_units::Kelvin;
///
/// let dtm = DtmController::new(Kelvin::new(368.15), 10.0, 64);
/// assert_eq!(dtm.migrations(), 0);
/// assert_eq!(dtm.throttles(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DtmController {
    t_safe: Kelvin,
    hysteresis_kelvin: f64,
    /// Per-core DVFS level index into [`DVFS_LEVELS`] (0 = nominal).
    throttle_level: Vec<usize>,
    migrations: u64,
    throttles: u64,
}

impl DtmController {
    /// Creates a controller for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `hysteresis_kelvin` is negative.
    #[must_use]
    pub fn new(t_safe: Kelvin, hysteresis_kelvin: f64, cores: usize) -> Self {
        assert!(cores > 0, "controller needs at least one core");
        assert!(hysteresis_kelvin >= 0.0, "hysteresis must be non-negative");
        DtmController {
            t_safe,
            hysteresis_kelvin,
            throttle_level: vec![0; cores],
            migrations: 0,
            throttles: 0,
        }
    }

    /// Total migration events so far (the Fig. 7 metric).
    #[must_use]
    pub const fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total throttle activations so far.
    #[must_use]
    pub const fn throttles(&self) -> u64 {
        self.throttles
    }

    /// Current frequency factor of `core` (1.0 unless throttled): the
    /// core's position on the discrete DVFS ladder.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn throttle_factor(&self, core: CoreId) -> f64 {
        DVFS_LEVELS[self.throttle_level[core.index()]]
    }

    /// Runs one DTM check against the current temperatures, mutating the
    /// mapping (migrations) and the throttle state. Returns the outcomes of
    /// this check: recoveries in core order, then the overheated cores'
    /// migrations and throttles, hottest core first. An empty result means
    /// neither the mapping nor any throttle level changed.
    pub fn check(
        &mut self,
        system: &ChipSystem,
        mapping: &mut ThreadMapping,
        workload: &WorkloadMix,
        temps: &TemperatureMap,
        at_seconds: f64,
    ) -> Vec<DtmEvent> {
        let mut events = Vec::new();

        // Recover throttled cores one DVFS level per cool check.
        for i in 0..self.throttle_level.len() {
            if self.throttle_level[i] > 0 {
                let t = temps.core(CoreId::new(i));
                if self.t_safe - t > UNTHROTTLE_MARGIN_KELVIN {
                    self.throttle_level[i] -= 1;
                    events.push(DtmEvent {
                        at_seconds,
                        outcome: DtmOutcome::Recovered {
                            core: CoreId::new(i),
                        },
                    });
                }
            }
        }

        // Overheated active cores, hottest first.
        let mut hot: Vec<CoreId> = mapping
            .active()
            .filter(|&c| temps.core(c) >= self.t_safe)
            .collect();
        hot.sort_by(|&a, &b| {
            temps
                .core(b)
                .partial_cmp(&temps.core(a))
                .expect("temperatures are finite")
        });

        for core in hot {
            let Some(tid) = mapping.thread_on(core) else {
                continue;
            };
            let required = workload.thread(tid).min_frequency();
            // Coldest eligible destination: free, cool enough, fast enough.
            // A migration is an on/off swap (source gates, destination
            // wakes), so N_on — and the dark-silicon budget — is preserved.
            let destination = mapping
                .free()
                .filter(|&c| {
                    self.t_safe - temps.core(c) >= self.hysteresis_kelvin
                        && system.can_host(c, required)
                })
                .min_by(|&a, &b| {
                    temps
                        .core(a)
                        .partial_cmp(&temps.core(b))
                        .expect("temperatures are finite")
                });
            let outcome = match destination {
                Some(to) => {
                    mapping.migrate(core, to);
                    // The thread leaves its DVFS penalty behind.
                    self.throttle_level[core.index()] = 0;
                    self.migrations += 1;
                    DtmOutcome::Migrated { from: core, to }
                }
                None => {
                    // Step one DVFS level deeper; each deepening counts as
                    // one throttle event.
                    let level = &mut self.throttle_level[core.index()];
                    if *level + 1 < DVFS_LEVELS.len() {
                        *level += 1;
                        self.throttles += 1;
                    }
                    DtmOutcome::Throttled { core }
                }
            };
            events.push(DtmEvent {
                at_seconds,
                outcome,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::config::SimulationConfig;
    use hayat_workload::ThreadId;

    fn setup() -> (ChipSystem, WorkloadMix, DtmController) {
        let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo()).unwrap();
        let workload = WorkloadMix::generate(5, 8);
        let dtm = DtmController::new(
            system.thermal_config().t_safe,
            10.0,
            system.floorplan().core_count(),
        );
        (system, workload, dtm)
    }

    fn temps_with_hot_core(system: &ChipSystem, hot: CoreId, t_hot: f64) -> TemperatureMap {
        let mut temps = TemperatureMap::uniform(
            system.floorplan().core_count(),
            system.thermal_config().ambient,
        );
        temps.set(hot, Kelvin::new(t_hot));
        temps
    }

    #[test]
    fn no_events_below_t_safe() {
        let (system, workload, mut dtm) = setup();
        let mut mapping = ThreadMapping::empty(64);
        let (tid, _) = workload.threads().next().unwrap();
        mapping.assign(tid, CoreId::new(0));
        let temps = temps_with_hot_core(&system, CoreId::new(0), 360.0);
        let events = dtm.check(&system, &mut mapping, &workload, &temps, 0.0);
        assert!(events.is_empty());
        assert_eq!(dtm.migrations() + dtm.throttles(), 0);
    }

    #[test]
    fn hot_core_migrates_to_coldest_eligible() {
        let (system, workload, mut dtm) = setup();
        let mut mapping = ThreadMapping::empty(64);
        let (tid, _) = workload.threads().next().unwrap();
        mapping.assign(tid, CoreId::new(0));
        let mut temps = temps_with_hot_core(&system, CoreId::new(0), 370.0);
        // Make core 63 clearly the coldest.
        temps.set(CoreId::new(63), Kelvin::new(310.0));
        let events = dtm.check(&system, &mut mapping, &workload, &temps, 1.5);
        assert_eq!(events.len(), 1);
        match events[0].outcome {
            DtmOutcome::Migrated { from, to } => {
                assert_eq!(from, CoreId::new(0));
                assert_eq!(to, CoreId::new(63));
            }
            other => panic!("expected migration, got {other:?}"),
        }
        assert_eq!(dtm.migrations(), 1);
        assert!(mapping.is_free(CoreId::new(0)));
        assert_eq!(mapping.thread_on(CoreId::new(63)), Some(tid));
    }

    #[test]
    fn throttles_when_no_destination_is_cool_enough() {
        let (system, workload, mut dtm) = setup();
        let mut mapping = ThreadMapping::empty(64);
        let (tid, _) = workload.threads().next().unwrap();
        mapping.assign(tid, CoreId::new(0));
        // Whole chip within 10 K of T_safe: no eligible destination.
        let t_safe = system.thermal_config().t_safe;
        let mut temps = TemperatureMap::uniform(64, t_safe + -2.0);
        temps.set(CoreId::new(0), t_safe + 3.0);
        let events = dtm.check(&system, &mut mapping, &workload, &temps, 0.0);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].outcome, DtmOutcome::Throttled { .. }));
        assert_eq!(dtm.throttles(), 1);
        assert!((dtm.throttle_factor(CoreId::new(0)) - 0.8).abs() < 1e-12);
        // A second check while still hot deepens one level per check, down
        // to the ladder's floor.
        let _ = dtm.check(&system, &mut mapping, &workload, &temps, 0.1);
        assert!((dtm.throttle_factor(CoreId::new(0)) - 0.6).abs() < 1e-12);
        let _ = dtm.check(&system, &mut mapping, &workload, &temps, 0.2);
        let _ = dtm.check(&system, &mut mapping, &workload, &temps, 0.3);
        assert!((dtm.throttle_factor(CoreId::new(0)) - 0.4).abs() < 1e-12);
        assert_eq!(dtm.throttles(), 3, "the ladder floor stops counting");
    }

    #[test]
    fn throttled_core_recovers_after_cooling() {
        let (system, workload, mut dtm) = setup();
        let mut mapping = ThreadMapping::empty(64);
        let (tid, _) = workload.threads().next().unwrap();
        mapping.assign(tid, CoreId::new(0));
        let t_safe = system.thermal_config().t_safe;
        let hot = TemperatureMap::uniform(64, t_safe + 1.0);
        let _ = dtm.check(&system, &mut mapping, &workload, &hot, 0.0);
        let _ = dtm.check(&system, &mut mapping, &workload, &hot, 0.1);
        assert!((dtm.throttle_factor(CoreId::new(0)) - 0.6).abs() < 1e-12);
        // Recovery climbs the ladder one level per cool check.
        let cool = TemperatureMap::uniform(64, t_safe + -20.0);
        let _ = dtm.check(&system, &mut mapping, &workload, &cool, 1.0);
        assert!((dtm.throttle_factor(CoreId::new(0)) - 0.8).abs() < 1e-12);
        let _ = dtm.check(&system, &mut mapping, &workload, &cool, 1.1);
        assert!((dtm.throttle_factor(CoreId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn migration_requires_frequency_feasibility() {
        let (mut system, workload, mut dtm) = setup();
        let mut mapping = ThreadMapping::empty(64);
        // Pick the most demanding thread in the mix.
        let (tid, profile) = workload
            .threads()
            .max_by(|a, b| {
                a.1.min_frequency()
                    .partial_cmp(&b.1.min_frequency())
                    .unwrap()
            })
            .unwrap();
        // Find a host that can run it, then age every *other* core so no
        // destination is feasible.
        let host = system
            .floorplan()
            .cores()
            .find(|&c| system.can_host(c, profile.min_frequency()))
            .expect("some core can host the thread");
        for c in system.floorplan().cores() {
            if c != host {
                system.health_mut().set(c, hayat_aging::Health::new(0.3));
            }
        }
        mapping.assign(tid, host);
        let temps = temps_with_hot_core(&system, host, 380.0);
        let events = dtm.check(&system, &mut mapping, &workload, &temps, 0.0);
        assert!(matches!(events[0].outcome, DtmOutcome::Throttled { .. }));
        let _ = ThreadId::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = DtmController::new(Kelvin::new(368.0), 10.0, 0);
    }
}
