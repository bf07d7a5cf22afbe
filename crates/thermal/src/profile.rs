//! Per-core temperature maps.

use hayat_floorplan::CoreId;
use hayat_units::Kelvin;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A chip-wide temperature snapshot: one temperature per core.
///
/// Produced by the steady-state solver, the transient simulator and the
/// online predictor; consumed by DTM, the aging estimator and the metrics
/// collectors.
///
/// # Example
///
/// ```
/// use hayat_thermal::TemperatureMap;
/// use hayat_units::Kelvin;
///
/// let map = TemperatureMap::uniform(4, Kelvin::new(320.0));
/// assert_eq!(map.max(), Kelvin::new(320.0));
/// assert_eq!(map.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureMap {
    temps: Vec<Kelvin>,
}

impl TemperatureMap {
    /// Wraps per-core temperatures (indexed by core id).
    ///
    /// # Panics
    ///
    /// Panics if `temps` is empty.
    #[must_use]
    pub fn new(temps: Vec<Kelvin>) -> Self {
        assert!(
            !temps.is_empty(),
            "temperature map must cover at least one core"
        );
        TemperatureMap { temps }
    }

    /// A map with every core at the same temperature.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn uniform(cores: usize, t: Kelvin) -> Self {
        TemperatureMap::new(vec![t; cores])
    }

    /// Number of cores covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.temps.len()
    }

    /// Always `false`: construction requires at least one core.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Temperature of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core(&self, core: CoreId) -> Kelvin {
        self.temps[core.index()]
    }

    /// Sets the temperature of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set(&mut self, core: CoreId, t: Kelvin) {
        self.temps[core.index()] = t;
    }

    /// Hottest core temperature (`T_peak`).
    #[must_use]
    pub fn max(&self) -> Kelvin {
        self.temps
            .iter()
            .copied()
            .fold(Kelvin::new(0.0), Kelvin::max)
    }

    /// Coldest core temperature.
    #[must_use]
    pub fn min(&self) -> Kelvin {
        self.temps
            .iter()
            .copied()
            .fold(Kelvin::new(1e6), Kelvin::min)
    }

    /// Mean core temperature.
    #[must_use]
    pub fn mean(&self) -> Kelvin {
        let sum: f64 = self.temps.iter().map(|t| t.value()).sum();
        Kelvin::new(sum / self.temps.len() as f64)
    }

    /// Core with the highest temperature (lowest id wins ties).
    #[must_use]
    pub fn hottest_core(&self) -> CoreId {
        let (idx, _) = self
            .temps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("temperatures are finite"))
            .expect("map is non-empty");
        CoreId::new(idx)
    }

    /// Core with the lowest temperature (lowest id wins ties).
    #[must_use]
    pub fn coldest_core(&self) -> CoreId {
        let (idx, _) = self
            .temps
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("temperatures are finite"))
            .expect("map is non-empty");
        CoreId::new(idx)
    }

    /// Iterator over `(core, temperature)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, Kelvin)> + '_ {
        self.temps
            .iter()
            .enumerate()
            .map(|(i, &t)| (CoreId::new(i), t))
    }

    /// Per-core temperatures as a slice indexed by core id.
    #[must_use]
    pub fn as_slice(&self) -> &[Kelvin] {
        &self.temps
    }
}

impl fmt::Display for TemperatureMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TemperatureMap[{} cores, min {}, mean {}, max {}]",
            self.len(),
            self.min(),
            self.mean(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> TemperatureMap {
        TemperatureMap::new(vec![
            Kelvin::new(320.0),
            Kelvin::new(340.0),
            Kelvin::new(330.0),
        ])
    }

    #[test]
    fn extremes_and_mean() {
        let m = map();
        assert_eq!(m.max(), Kelvin::new(340.0));
        assert_eq!(m.min(), Kelvin::new(320.0));
        assert!((m.mean().value() - 330.0).abs() < 1e-12);
    }

    #[test]
    fn hottest_and_coldest_core() {
        let m = map();
        assert_eq!(m.hottest_core(), CoreId::new(1));
        assert_eq!(m.coldest_core(), CoreId::new(0));
    }

    #[test]
    fn set_and_get() {
        let mut m = map();
        m.set(CoreId::new(0), Kelvin::new(400.0));
        assert_eq!(m.core(CoreId::new(0)), Kelvin::new(400.0));
        assert_eq!(m.hottest_core(), CoreId::new(0));
    }

    #[test]
    fn iter_yields_all_cores() {
        assert_eq!(map().iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_map_panics() {
        let _ = TemperatureMap::new(vec![]);
    }
}
