//! Simulation configuration.

use hayat_aging::TableAxes;
use hayat_power::{DarkSiliconBudget, PowerConfig};
use hayat_thermal::{Integrator, ThermalConfig, ThermalModel};
use hayat_units::{Seconds, Years};
use hayat_variation::VariationParams;
use serde::{Deserialize, Serialize};

/// All knobs of an accelerated-aging simulation run (Fig. 4's two
/// timescales plus the experimental setup of Section V).
///
/// Two presets are provided:
///
/// * [`SimulationConfig::paper`] — the full evaluation setup: 10 simulated
///   years in 3-month epochs, 25 chips, a 6.6 ms leakage-update control
///   period inside multi-second transient windows;
/// * [`SimulationConfig::quick_demo`] — a scaled-down configuration for
///   examples and tests (2 years, 6-month epochs, short windows).
///
/// # Example
///
/// ```
/// use hayat::SimulationConfig;
///
/// let cfg = SimulationConfig::paper(0.5);
/// assert_eq!(cfg.dark_fraction, 0.5);
/// assert_eq!(cfg.epoch_count(), 40); // 10 years of 3-month epochs
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Total simulated lifetime, years (paper: 10).
    pub years: f64,
    /// Aging-epoch length, years (paper: 3 or 6 months).
    pub epoch_years: f64,
    /// Health-estimation horizon inside Algorithm 1, years (paper: "future
    /// (e.g., 1 year) health").
    pub horizon_years: f64,
    /// Simulated wall-clock length of the fine-grained transient window per
    /// epoch, seconds.
    pub transient_window_seconds: f64,
    /// Control period inside the transient window (power/leakage update and
    /// DTM check), seconds (paper: 6.6 ms).
    pub control_period_seconds: f64,
    /// Minimum dark-silicon fraction (paper: 0.25 and 0.5).
    pub dark_fraction: f64,
    /// Seed for workload-mix generation.
    pub workload_seed: u64,
    /// Seed for the chip population.
    pub variation_seed: u64,
    /// Number of chips in the population (paper: 25).
    pub chip_count: usize,
    /// Core-mesh dimensions `(rows, cols)` (paper: 8×8). The variation-grid
    /// resolution adapts so the covariance factorization stays tractable on
    /// large meshes.
    pub mesh: (usize, usize),
    /// Number of distinct workload mixes rotated across epochs.
    pub mix_rotation: usize,
    /// Range of mix sizes as fractions of the dark-silicon budget's maximum
    /// on-core count, `(low, high)` with `0 < low <= high <= 1`. The paper's
    /// malleable application model lets `K_j` "vary depending upon the value
    /// of N_on"; mixes are generated with targets spread across this range,
    /// so epochs see varying degrees of parallelism. `(1.0, 1.0)` (the
    /// default) always fills the budget.
    pub mix_load_range: (f64, f64),
    /// DTM migration target hysteresis: the destination must be at least
    /// this many kelvin below `T_safe` (paper: 10 °C).
    pub dtm_hysteresis_kelvin: f64,
    /// Process-variation model parameters.
    pub variation: VariationParams,
    /// Thermal model parameters.
    pub thermal: ThermalConfig,
    /// Time-integration scheme for the transient windows: unconditionally
    /// stable backward Euler (the default — one cached banded-Cholesky
    /// solve per control period) or the explicit forward-Euler oracle used
    /// for cross-validation. Defaults on deserialization too, so configs
    /// and checkpoints written before this field existed load unchanged.
    #[serde(default)]
    pub integrator: Integrator,
    /// Power model parameters.
    pub power: PowerConfig,
    /// Aging-table sampling axes.
    pub table_axes: TableAxes,
    /// Optional sensor model: when set, policies see *sensor readings* of
    /// the health map (quantized aging odometers) instead of ground truth,
    /// and DTM reads quantized/noisy thermal sensors — the paper's
    /// per-core monitors `T_i`/`D_i` made explicit. `None` (the default)
    /// gives policies ground truth.
    pub sensors: Option<crate::sensors::SensorConfig>,
}

impl SimulationConfig {
    /// The paper's evaluation setup at the given dark fraction.
    #[must_use]
    pub fn paper(dark_fraction: f64) -> Self {
        SimulationConfig {
            years: 10.0,
            epoch_years: 0.25,
            horizon_years: 1.0,
            transient_window_seconds: 2.0,
            control_period_seconds: 0.0066,
            dark_fraction,
            workload_seed: 0x5EED_0001,
            variation_seed: 0x5EED_0002,
            chip_count: 25,
            mesh: (8, 8),
            mix_rotation: 4,
            mix_load_range: (1.0, 1.0),
            dtm_hysteresis_kelvin: 10.0,
            variation: VariationParams::paper(),
            thermal: ThermalConfig::paper(),
            integrator: Integrator::BackwardEuler,
            power: PowerConfig::paper(),
            table_axes: TableAxes::paper(),
            sensors: None,
        }
    }

    /// A scaled-down configuration for examples and tests: 2 years in
    /// 6-month epochs, 2 chips, short transient windows, 50% dark.
    #[must_use]
    pub fn quick_demo() -> Self {
        SimulationConfig {
            years: 2.0,
            epoch_years: 0.5,
            transient_window_seconds: 0.3,
            chip_count: 2,
            mix_rotation: 2,
            ..SimulationConfig::paper(0.5)
        }
    }

    /// Number of whole aging epochs in the run.
    #[must_use]
    pub fn epoch_count(&self) -> usize {
        (self.years / self.epoch_years).round() as usize
    }

    /// Epoch length as a typed duration.
    #[must_use]
    pub fn epoch(&self) -> Years {
        Years::new(self.epoch_years)
    }

    /// Health-estimation horizon as a typed duration.
    #[must_use]
    pub fn horizon(&self) -> Years {
        Years::new(self.horizon_years)
    }

    /// Transient window as a typed duration.
    #[must_use]
    pub fn transient_window(&self) -> Seconds {
        Seconds::new(self.transient_window_seconds)
    }

    /// Builds the floorplan this configuration describes: the configured
    /// mesh with a variation-grid resolution capped so the whole-die grid
    /// stays at most ~32 cells per side (the covariance factorization is
    /// cubic in the cell count).
    ///
    /// # Panics
    ///
    /// Panics if the mesh is degenerate (see [`SimulationConfig::assert_valid`]).
    #[must_use]
    pub fn floorplan(&self) -> hayat_floorplan::Floorplan {
        let (rows, cols) = self.mesh;
        let cells = (32 / rows.max(cols)).clamp(1, 4);
        hayat_floorplan::FloorplanBuilder::new(rows, cols)
            .grid_cells_per_core(cells)
            .build()
            .expect("validated mesh dimensions")
    }

    /// Control period as a typed duration.
    #[must_use]
    pub fn control_period(&self) -> Seconds {
        Seconds::new(self.control_period_seconds)
    }

    /// Builds the chip-invariant thermal model this configuration describes
    /// on `floorplan`: its RC network, integrator, and the backward-Euler
    /// factor at the control period. A campaign builds it once and shares
    /// it across every chip.
    ///
    /// # Panics
    ///
    /// Panics if the thermal configuration is invalid.
    #[must_use]
    pub fn thermal_model(&self, floorplan: &hayat_floorplan::Floorplan) -> ThermalModel {
        ThermalModel::new(floorplan, &self.thermal, self.integrator)
            .with_control_period(self.control_period())
    }

    /// Checks ranges.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range.
    pub fn assert_valid(&self) {
        assert!(self.years > 0.0, "years must be positive");
        assert!(
            self.epoch_years > 0.0 && self.epoch_years <= self.years,
            "epoch must be positive and no longer than the run"
        );
        assert!(self.horizon_years > 0.0, "horizon must be positive");
        assert!(
            self.transient_window_seconds >= self.control_period_seconds,
            "transient window must cover at least one control period"
        );
        assert!(
            self.control_period_seconds > 0.0,
            "control period must be positive"
        );
        assert!(
            self.mesh.0 > 0 && self.mesh.1 > 0,
            "mesh must have at least one row and one column"
        );
        assert!(
            (0.0..1.0).contains(&self.dark_fraction),
            "dark fraction must lie in [0, 1)"
        );
        let (rows, cols) = self.mesh;
        assert!(
            DarkSiliconBudget::new(rows * cols, self.dark_fraction).max_on() > 0,
            "dark fraction {} leaves no core on a {rows}x{cols} mesh",
            self.dark_fraction
        );
        assert!(self.chip_count > 0, "need at least one chip");
        assert!(self.mix_rotation > 0, "need at least one workload mix");
        let (lo, hi) = self.mix_load_range;
        assert!(
            lo > 0.0 && lo <= hi && hi <= 1.0,
            "mix load range must satisfy 0 < low <= high <= 1, got ({lo}, {hi})"
        );
        assert!(
            self.dtm_hysteresis_kelvin >= 0.0,
            "hysteresis must be non-negative"
        );
        self.thermal.assert_valid();
    }
}

/// Worker-thread count for parallel campaign execution (`--jobs`).
///
/// Deliberately *not* a field of [`SimulationConfig`]: the worker count must
/// never influence results (parallel output is byte-identical to serial) or
/// checkpoint compatibility (the checkpoint config hash fingerprints only
/// physics), so a run may be started with one job count and resumed with
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Jobs(std::num::NonZeroUsize);

impl Jobs {
    /// Exactly one worker: the serial executor.
    #[must_use]
    pub const fn serial() -> Self {
        Jobs(std::num::NonZeroUsize::MIN)
    }

    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]), falling back to one worker
    /// when the parallelism cannot be queried.
    #[must_use]
    pub fn auto() -> Self {
        Jobs(std::thread::available_parallelism().unwrap_or(std::num::NonZeroUsize::MIN))
    }

    /// A specific worker count; `None` when `count` is zero.
    #[must_use]
    pub fn new(count: usize) -> Option<Self> {
        std::num::NonZeroUsize::new(count).map(Jobs)
    }

    /// The worker count.
    #[must_use]
    pub const fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs::auto()
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for Jobs {
    type Err = String;

    /// Parses the `--jobs` flag: `auto` or a positive integer.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        if text.eq_ignore_ascii_case("auto") {
            return Ok(Jobs::auto());
        }
        text.parse::<usize>()
            .ok()
            .and_then(Jobs::new)
            .ok_or_else(|| format!("--jobs wants 'auto' or a positive integer, got '{text}'"))
    }
}

/// Chips per worker claim (the `--batch` flag): each claim pulls this many
/// *consecutive canonical-order* chips and runs them in lockstep through
/// `ChipBatch`, the executor's one claim path. An epoch with a single
/// active lane (every epoch at width 1) runs the scalar engine epoch; two
/// or more lanes share the structure-of-arrays thermal solve.
///
/// Like [`Jobs`], deliberately *not* a field of [`SimulationConfig`]: the
/// batch width is a pure execution knob that must never influence results
/// (output is byte-identical for any width) or checkpoint compatibility,
/// so a run may be started with one width and resumed with another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Batch(std::num::NonZeroUsize);

impl Batch {
    /// One chip per claim: every epoch runs the scalar engine epoch.
    #[must_use]
    pub const fn serial() -> Self {
        Batch(std::num::NonZeroUsize::MIN)
    }

    /// A specific batch width; `None` when `width` is zero.
    #[must_use]
    pub fn new(width: usize) -> Option<Self> {
        std::num::NonZeroUsize::new(width).map(Batch)
    }

    /// The batch width.
    #[must_use]
    pub const fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Batch {
    fn default() -> Self {
        Batch::serial()
    }
}

impl std::fmt::Display for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for Batch {
    type Err = String;

    /// Parses the `--batch` flag: a positive integer.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        text.parse::<usize>()
            .ok()
            .and_then(Batch::new)
            .ok_or_else(|| format!("--batch wants a positive integer, got '{text}'"))
    }
}

impl Jobs {
    /// The worker count requested through the `HAYAT_JOBS` environment
    /// variable, the default ([`Jobs::auto`]) when unset or empty.
    ///
    /// # Errors
    ///
    /// Returns the parse message when the variable is set to something other
    /// than `auto` or a positive integer.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("HAYAT_JOBS") {
            Ok(text) if !text.trim().is_empty() => {
                text.trim().parse().map_err(|e| format!("HAYAT_JOBS: {e}"))
            }
            _ => Ok(Jobs::auto()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        SimulationConfig::paper(0.25).assert_valid();
        SimulationConfig::paper(0.5).assert_valid();
    }

    #[test]
    fn quick_demo_is_valid_and_small() {
        let c = SimulationConfig::quick_demo();
        c.assert_valid();
        assert_eq!(c.epoch_count(), 4);
        assert!(c.chip_count <= 4);
    }

    #[test]
    fn epoch_counts() {
        assert_eq!(SimulationConfig::paper(0.5).epoch_count(), 40);
        let mut c = SimulationConfig::paper(0.5);
        c.epoch_years = 0.5;
        assert_eq!(c.epoch_count(), 20);
    }

    #[test]
    fn floorplan_resolution_adapts_to_mesh_size() {
        let mut c = SimulationConfig::paper(0.5);
        assert_eq!(c.floorplan().variation_grid().cells_per_side(), 32); // 8 cores x 4
        c.mesh = (16, 16);
        assert_eq!(c.floorplan().variation_grid().cells_per_side(), 32); // 16 cores x 2
        c.mesh = (40, 40);
        assert_eq!(c.floorplan().core_count(), 1600); // 1 cell per core
        assert_eq!(c.floorplan().variation_grid().cells_per_core(), 1);
    }

    #[test]
    fn presets_default_to_backward_euler() {
        assert_eq!(
            SimulationConfig::paper(0.5).integrator,
            Integrator::BackwardEuler
        );
        assert_eq!(
            SimulationConfig::quick_demo().integrator,
            Integrator::BackwardEuler
        );
    }

    #[test]
    fn configs_written_before_the_integrator_field_still_load() {
        // Checkpoints and config files from older runs carry no
        // `integrator` key; deserialization must default it.
        let json = serde_json::to_string(&SimulationConfig::quick_demo()).unwrap();
        let stripped = json.replace("\"integrator\":\"BackwardEuler\",", "");
        assert_ne!(stripped, json, "the field must actually be stripped");
        let restored: SimulationConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(restored.integrator, Integrator::BackwardEuler);
        restored.assert_valid();
    }

    #[test]
    fn integrator_round_trips_through_serde() {
        let mut c = SimulationConfig::quick_demo();
        c.integrator = Integrator::ForwardEuler;
        let json = serde_json::to_string(&c).unwrap();
        let back: SimulationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn mix_load_range_validation() {
        let mut c = SimulationConfig::paper(0.5);
        c.mix_load_range = (0.5, 1.0);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "mix load range")]
    fn inverted_mix_load_range_panics() {
        let mut c = SimulationConfig::paper(0.5);
        c.mix_load_range = (0.9, 0.5);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "dark fraction")]
    fn invalid_dark_fraction_panics() {
        SimulationConfig::paper(1.5).assert_valid();
    }

    #[test]
    #[should_panic(expected = "leaves no core on a 1x1 mesh")]
    fn single_core_mesh_at_the_default_dark_fraction_panics() {
        let mut c = SimulationConfig::paper(0.5);
        c.mesh = (1, 1);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "leaves no core on a 2x2 mesh")]
    fn dark_budget_that_darkens_every_core_panics() {
        SimulationConfig {
            mesh: (2, 2),
            ..SimulationConfig::paper(0.8)
        }
        .assert_valid();
    }

    #[test]
    #[should_panic(expected = "transient window")]
    fn window_shorter_than_control_period_panics() {
        let mut c = SimulationConfig::paper(0.5);
        c.transient_window_seconds = 0.001;
        c.assert_valid();
    }

    #[test]
    fn jobs_parses_auto_and_counts() {
        assert_eq!("4".parse::<Jobs>().unwrap().get(), 4);
        assert_eq!("1".parse::<Jobs>(), Ok(Jobs::serial()));
        assert_eq!("auto".parse::<Jobs>().unwrap(), Jobs::auto());
        assert_eq!("AUTO".parse::<Jobs>().unwrap(), Jobs::auto());
        assert!(Jobs::auto().get() >= 1);
        assert!("0".parse::<Jobs>().is_err());
        assert!("-2".parse::<Jobs>().is_err());
        assert!("many".parse::<Jobs>().is_err());
        assert_eq!(Jobs::new(0), None);
        assert_eq!(format!("{}", Jobs::new(3).unwrap()), "3");
    }
}
