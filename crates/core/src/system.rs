//! The per-chip system state the run-time policies and the engine operate on.

use crate::sim::config::SimulationConfig;
use hayat_aging::{AgingModel, AgingTable, HealthMap};
use hayat_floorplan::{CoreId, Floorplan};
use hayat_power::{DarkSiliconBudget, PowerModel};
use hayat_thermal::{ThermalConfig, ThermalModel, ThermalPredictor, TransientSimulator};
use hayat_units::Gigahertz;
use hayat_variation::{Chip, ChipPopulation, VariationError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error building a [`ChipSystem`].
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildSystemError {
    /// Process-variation sampling failed.
    Variation(VariationError),
    /// The requested chip index exceeds the generated population.
    ChipIndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Population size.
        population: usize,
    },
}

impl fmt::Display for BuildSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildSystemError::Variation(e) => write!(f, "variation model failed: {e}"),
            BuildSystemError::ChipIndexOutOfRange { index, population } => {
                write!(
                    f,
                    "chip index {index} out of range for population of {population}"
                )
            }
        }
    }
}

impl Error for BuildSystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildSystemError::Variation(e) => Some(e),
            BuildSystemError::ChipIndexOutOfRange { .. } => None,
        }
    }
}

impl From<VariationError> for BuildSystemError {
    fn from(e: VariationError) -> Self {
        BuildSystemError::Variation(e)
    }
}

/// Everything the run-time system knows about one chip: geometry, its
/// manufactured variation profile, the thermal machinery, the offline aging
/// table, the power model, the dark-silicon budget, and the mutable health
/// map and thermal state.
///
/// Heavy, chip-independent artifacts (the [`ThermalModel`] the transient
/// simulator steps over, the learned [`ThermalPredictor`] and the generated
/// [`AgingTable`]) are shared by `Arc` so a 25-chip campaign builds them
/// once.
///
/// # Example
///
/// ```
/// use hayat::{ChipSystem, SimulationConfig};
///
/// # fn main() -> Result<(), hayat::BuildSystemError> {
/// let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo())?;
/// assert_eq!(system.floorplan().core_count(), 64);
/// assert!((system.health().mean() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChipSystem {
    floorplan: Floorplan,
    chip: Chip,
    thermal_config: ThermalConfig,
    predictor: Arc<ThermalPredictor>,
    aging_table: Arc<AgingTable>,
    power_model: PowerModel,
    budget: DarkSiliconBudget,
    health: HealthMap,
    transient: TransientSimulator,
}

impl ChipSystem {
    /// Builds the full system for chip `chip_index` of the paper
    /// configuration described by `config` — convenience path for examples
    /// and single-chip runs. Campaigns share infrastructure via
    /// [`ChipSystem::from_parts`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildSystemError`] if variation sampling fails or the index
    /// exceeds `config.chip_count`.
    pub fn paper_chip(
        chip_index: usize,
        config: &SimulationConfig,
    ) -> Result<Self, BuildSystemError> {
        let floorplan = config.floorplan();
        let population = ChipPopulation::generate(
            &floorplan,
            &config.variation,
            config.chip_count,
            config.variation_seed,
        )?;
        let chip = population.chips().get(chip_index).cloned().ok_or(
            BuildSystemError::ChipIndexOutOfRange {
                index: chip_index,
                population: population.chips().len(),
            },
        )?;
        let predictor = Arc::new(ThermalPredictor::learn(&floorplan, &config.thermal));
        let aging_model = AgingModel::paper(config.variation.design_seed);
        let aging_table = Arc::new(AgingTable::generate(&aging_model, &config.table_axes));
        let thermal = Arc::new(config.thermal_model(&floorplan));
        Ok(ChipSystem::from_parts(
            floorplan,
            chip,
            config,
            predictor,
            aging_table,
            thermal,
        ))
    }

    /// Assembles a system from prebuilt (shared) parts. `thermal` must be
    /// the model `config` describes on `floorplan`
    /// ([`SimulationConfig::thermal_model`]).
    ///
    /// # Panics
    ///
    /// Panics if `thermal` covers a different core count than `floorplan`.
    #[must_use]
    pub fn from_parts(
        floorplan: Floorplan,
        chip: Chip,
        config: &SimulationConfig,
        predictor: Arc<ThermalPredictor>,
        aging_table: Arc<AgingTable>,
        thermal: Arc<ThermalModel>,
    ) -> Self {
        assert_eq!(
            thermal.network().core_count(),
            floorplan.core_count(),
            "thermal model must cover the floorplan's cores"
        );
        let transient = TransientSimulator::from_model(thermal);
        let health = HealthMap::fresh(floorplan.core_count());
        let budget = DarkSiliconBudget::new(floorplan.core_count(), config.dark_fraction);
        ChipSystem {
            floorplan,
            chip,
            thermal_config: config.thermal.clone(),
            predictor,
            aging_table,
            power_model: PowerModel::new(config.power.clone()),
            budget,
            health,
            transient,
        }
    }

    /// The chip geometry.
    #[must_use]
    pub const fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The manufactured chip (initial frequencies, leakage factors).
    #[must_use]
    pub const fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The thermal configuration (ambient, `T_safe`, RC constants).
    #[must_use]
    pub const fn thermal_config(&self) -> &ThermalConfig {
        &self.thermal_config
    }

    /// The shared online thermal predictor.
    #[must_use]
    pub fn predictor(&self) -> &ThermalPredictor {
        &self.predictor
    }

    /// The shared offline 3D aging table.
    #[must_use]
    pub fn aging_table(&self) -> &AgingTable {
        &self.aging_table
    }

    /// The power model.
    #[must_use]
    pub const fn power_model(&self) -> &PowerModel {
        &self.power_model
    }

    /// The dark-silicon budget.
    #[must_use]
    pub const fn budget(&self) -> DarkSiliconBudget {
        self.budget
    }

    /// The current chip health map.
    #[must_use]
    pub const fn health(&self) -> &HealthMap {
        &self.health
    }

    /// Mutable health map (updated by the engine at epoch boundaries).
    pub fn health_mut(&mut self) -> &mut HealthMap {
        &mut self.health
    }

    /// The transient thermal simulator (the chip's thermal state).
    #[must_use]
    pub const fn transient(&self) -> &TransientSimulator {
        &self.transient
    }

    /// Mutable transient simulator.
    pub fn transient_mut(&mut self) -> &mut TransientSimulator {
        &mut self.transient
    }

    /// The current (aged) maximum safe frequency of `core`:
    /// `health · f_max,init` (Section I-A).
    #[must_use]
    pub fn aged_fmax(&self, core: CoreId) -> Gigahertz {
        self.health.core(core).aged_fmax(self.chip.fmax(core))
    }

    /// All current per-core maximum frequencies.
    #[must_use]
    pub fn aged_fmax_all(&self) -> Vec<Gigahertz> {
        self.health.aged_fmax(self.chip.fmax_all())
    }

    /// Writes all current per-core maximum frequencies (GHz) into `out`,
    /// reusing its capacity — the allocation-free sibling of
    /// [`ChipSystem::aged_fmax_all`] the policy decision path snapshots
    /// once per decision.
    pub fn aged_fmax_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.floorplan.cores().map(|c| self.aged_fmax(c).value()));
    }

    /// Whether `core` can currently host a thread requiring `fmin`.
    #[must_use]
    pub fn can_host(&self, core: CoreId, fmin: Gigahertz) -> bool {
        self.aged_fmax(core) >= fmin
    }

    /// The chip-wide maximum of the aged per-core frequencies
    /// (the "chip fmax" of Fig. 9).
    #[must_use]
    pub fn chip_fmax(&self) -> Gigahertz {
        self.aged_fmax_all()
            .into_iter()
            .fold(Gigahertz::new(0.0), Gigahertz::max)
    }

    /// Exact steady-state temperatures under a mapping-implied power state,
    /// iterated to the leakage–temperature fixpoint: leakage is evaluated
    /// at the previous iterate's temperatures until the peak moves by less
    /// than 1 mK (at most 50 iterations — convergence is geometric at paper
    /// operating points, see the `integration_pipeline` contraction test).
    ///
    /// This is the reference the online predictor's one-shot correction
    /// approximates.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the core count.
    #[must_use]
    pub fn steady_state_with_leakage(
        &self,
        states: &[hayat_power::PowerState],
    ) -> hayat_thermal::TemperatureMap {
        assert_eq!(
            states.len(),
            self.floorplan.core_count(),
            "states must cover every core"
        );
        let factors: Vec<f64> = self
            .floorplan
            .cores()
            .map(|c| self.chip.leakage_factor(c))
            .collect();
        let mut temps = hayat_thermal::TemperatureMap::uniform(
            self.floorplan.core_count(),
            self.thermal_config.ambient,
        );
        for _ in 0..50 {
            let temp_vec: Vec<_> = self.floorplan.cores().map(|c| temps.core(c)).collect();
            let power = self.power_model.chip_power(states, &factors, &temp_vec);
            let next = hayat_thermal::steady_state_on(self.transient.model().network(), &power);
            let delta = (next.max() - temps.max()).abs();
            temps = next;
            if delta < 1e-3 {
                break;
            }
        }
        temps
    }

    /// The mean of the aged per-core frequencies (Fig. 10 / Fig. 11 right).
    #[must_use]
    pub fn avg_fmax(&self) -> Gigahertz {
        let all = self.aged_fmax_all();
        let n = all.len().max(1) as f64;
        all.into_iter().sum::<Gigahertz>() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hayat_aging::Health;

    fn system() -> ChipSystem {
        ChipSystem::paper_chip(0, &SimulationConfig::quick_demo()).unwrap()
    }

    #[test]
    fn fresh_system_has_full_health_and_variation_spread() {
        let s = system();
        assert!((s.health().mean() - 1.0).abs() < 1e-12);
        assert!(s.chip().fmax_spread() > 0.05);
        assert_eq!(s.chip_fmax(), s.chip().max_fmax());
    }

    #[test]
    fn aged_fmax_tracks_health() {
        let mut s = system();
        let core = CoreId::new(5);
        let f0 = s.aged_fmax(core);
        s.health_mut().set(core, Health::new(0.9));
        let f1 = s.aged_fmax(core);
        assert!((f1.value() - 0.9 * f0.value()).abs() < 1e-12);
    }

    #[test]
    fn can_host_respects_aged_frequency() {
        let mut s = system();
        let core = CoreId::new(3);
        let f = s.aged_fmax(core);
        assert!(s.can_host(core, f));
        assert!(!s.can_host(core, f + Gigahertz::new(0.001)));
        s.health_mut().set(core, Health::new(0.5));
        assert!(!s.can_host(core, f));
    }

    #[test]
    fn chip_index_out_of_range_errors() {
        let config = SimulationConfig::quick_demo();
        let err = ChipSystem::paper_chip(10_000, &config).unwrap_err();
        assert!(matches!(err, BuildSystemError::ChipIndexOutOfRange { .. }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn leakage_fixpoint_converges_and_exceeds_one_shot() {
        let s = system();
        let states: Vec<hayat_power::PowerState> = s
            .floorplan()
            .cores()
            .map(|c| {
                if c.index() % 2 == 0 {
                    hayat_power::PowerState::Active {
                        dynamic: hayat_units::Watts::new(6.0),
                    }
                } else {
                    hayat_power::PowerState::Dark
                }
            })
            .collect();
        let fixpoint = s.steady_state_with_leakage(&states);
        // One-shot (leakage at ambient) underestimates the fixpoint.
        let factors: Vec<f64> = s
            .floorplan()
            .cores()
            .map(|c| s.chip().leakage_factor(c))
            .collect();
        let ambient = vec![s.thermal_config().ambient; 64];
        let p0 = s.power_model().chip_power(&states, &factors, &ambient);
        let one_shot = hayat_thermal::steady_state(s.floorplan(), s.thermal_config(), &p0);
        assert!(fixpoint.max() > one_shot.max());
        assert!(fixpoint.max().value() < 400.0, "no thermal runaway");
    }

    #[test]
    fn aged_fmax_into_matches_the_allocating_path() {
        let mut s = system();
        s.health_mut().set(CoreId::new(7), Health::new(0.85));
        let mut buf = vec![999.0; 3]; // stale contents must be overwritten
        s.aged_fmax_into(&mut buf);
        let all = s.aged_fmax_all();
        assert_eq!(buf.len(), all.len());
        for (a, b) in buf.iter().zip(&all) {
            assert_eq!(*a, b.value(), "snapshot must be bit-identical");
        }
    }

    #[test]
    fn budget_matches_config() {
        let mut config = SimulationConfig::quick_demo();
        config.dark_fraction = 0.5;
        let s = ChipSystem::paper_chip(0, &config).unwrap();
        assert_eq!(s.budget().max_on(), 32);
    }
}
