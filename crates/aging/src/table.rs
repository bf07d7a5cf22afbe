//! Offline-generated 3D aging tables and the run-time lookup that advances
//! health across aging epochs.

use crate::model::AgingModel;
use hayat_units::{DutyCycle, Kelvin, Years};
use serde::{find_key, Deserialize, Serialize, Value};

/// Sampling axes of a 3D aging table.
///
/// The defaults span the full operating envelope of the paper's evaluation:
/// ambient (318 K) up to well past `T_safe`, all duty cycles, and ages up to
/// 15 years (beyond the 10-year evaluation horizon so epoch advancement
/// never walks off the table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableAxes {
    /// Temperature grid, kelvin (ascending).
    pub temperatures: Vec<f64>,
    /// Duty-cycle grid, fraction (ascending, within `[0, 1]`).
    pub duty_cycles: Vec<f64>,
    /// Age grid, years (ascending, starting at 0).
    pub ages: Vec<f64>,
}

impl TableAxes {
    /// The default axes: 300–430 K in 5 K steps; duty and age on grids
    /// uniform in the *sixth-root* coordinate. Eq. 7 is linear in
    /// `d^(1/6)` and `y^(1/6)` (both near-vertical at zero in natural
    /// coordinates), so sixth-root spacing makes the stored function almost
    /// linear between grid points and keeps trilinear-interpolation error
    /// small everywhere — including the first epochs of a fresh chip.
    #[must_use]
    pub fn paper() -> Self {
        let sixth_root_grid = |max: f64, points: usize| -> Vec<f64> {
            let u_max = max.powf(1.0 / 6.0);
            (0..=points)
                .map(|i| {
                    let u = u_max * i as f64 / points as f64;
                    u.powi(6)
                })
                .collect()
        };
        TableAxes {
            temperatures: (0..=26).map(|i| 300.0 + 5.0 * i as f64).collect(),
            duty_cycles: sixth_root_grid(1.0, 24),
            ages: sixth_root_grid(15.0, 48),
        }
    }

    /// Checks monotonicity and ranges.
    ///
    /// # Panics
    ///
    /// Panics if an axis is empty, non-ascending, or out of physical range.
    pub fn assert_valid(&self) {
        for (name, axis) in [
            ("temperatures", &self.temperatures),
            ("duty_cycles", &self.duty_cycles),
            ("ages", &self.ages),
        ] {
            assert!(!axis.is_empty(), "{name} axis must be non-empty");
            assert!(
                axis.windows(2).all(|w| w[0] < w[1]),
                "{name} axis must be strictly ascending"
            );
        }
        assert!(
            self.duty_cycles.iter().all(|&d| (0.0..=1.0).contains(&d)),
            "duty cycles must lie in [0, 1]"
        );
        assert!(self.ages[0] == 0.0, "age axis must start at 0");
    }
}

impl Default for TableAxes {
    fn default() -> Self {
        TableAxes::paper()
    }
}

/// Which health-advance implementation a decision path uses.
///
/// Numerically the two paths compute the same function — the collapsed
/// [`AgeCurve`] *is* the trilinear interpolant restricted to a fixed
/// (temperature, duty) — so they differ only in floating-point rounding
/// (≈1e-15) and speed. Decisions always use [`TablePath::Fast`]; the oracle
/// is kept as the cross-validation reference the identity tests compare
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TablePath {
    /// Collapse to a 1D age curve once per (temperature, duty) query and
    /// invert it directly.
    Fast,
    /// The original 64-iteration bisection over trilinear lookups.
    Oracle,
}

impl TablePath {
    /// How many trilinear-lookup-equivalents one health advance costs:
    /// the oracle pays up to 2 clamp probes + 64 bisection steps + 1 final
    /// read; the fast path pays a single bilinear collapse.
    #[must_use]
    pub const fn lookups_per_advance(self) -> u64 {
        match self {
            TablePath::Fast => 1,
            TablePath::Oracle => 67,
        }
    }
}

/// The offline-generated 3D aging table: relative frequency (aged `fmax`
/// over initial `fmax`, in `(0, 1]`) for every (temperature, duty, age)
/// grid point, with trilinear interpolation in between.
///
/// Generating the table sweeps the full Eq. 7 + Eq. 8 model once — the
/// "start-up time effort for a given chip" of Section IV-B — so that the
/// run-time system never touches the physics model again; every online
/// health estimate is a table lookup, which is what makes Algorithm 1's
/// candidate evaluation affordable.
///
/// Storage is one contiguous row-major `Vec<f64>` (age fastest, then duty,
/// then temperature) so the hot collapse in [`AgingTable::age_curve`] walks
/// four adjacent rows linearly; on the wire the table still serializes as
/// the original nested `values[ti][di][yi]` arrays, so checkpoints and
/// configs written before the flattening load unchanged.
///
/// # Example
///
/// ```
/// use hayat_aging::{AgingModel, AgingTable};
/// use hayat_units::{DutyCycle, Kelvin, Years};
///
/// let table = AgingTable::generate(&AgingModel::paper(1), &Default::default());
/// let h = table.relative_frequency(Kelvin::new(360.0), DutyCycle::generic(), Years::new(5.0));
/// assert!(h < 1.0 && h > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgingTable {
    axes: TableAxes,
    /// Flat row-major values: `values[(ti * nd + di) * ny + yi]`, relative
    /// frequency in `(0, 1]`, where `nd`/`ny` are the duty/age axis lengths.
    values: Vec<f64>,
}

impl AgingTable {
    /// Sweeps `model` over `axes` to generate the table.
    ///
    /// # Panics
    ///
    /// Panics if `axes` fail [`TableAxes::assert_valid`].
    #[must_use]
    pub fn generate(model: &AgingModel, axes: &TableAxes) -> Self {
        axes.assert_valid();
        let mut values =
            Vec::with_capacity(axes.temperatures.len() * axes.duty_cycles.len() * axes.ages.len());
        for &t in &axes.temperatures {
            for &d in &axes.duty_cycles {
                for &y in &axes.ages {
                    values.push(model.path().relative_frequency(
                        model.nbti(),
                        Kelvin::new(t),
                        DutyCycle::new(d),
                        Years::new(y),
                    ));
                }
            }
        }
        AgingTable {
            axes: axes.clone(),
            values,
        }
    }

    /// The table's sampling axes.
    #[must_use]
    pub const fn axes(&self) -> &TableAxes {
        &self.axes
    }

    /// Total number of stored grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `false`: generation requires non-empty axes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Start of the age row at `(ti, di)` in the flat storage.
    #[inline]
    fn row_offset(&self, ti: usize, di: usize) -> usize {
        (ti * self.axes.duty_cycles.len() + di) * self.axes.ages.len()
    }

    /// The stored value at grid point `(ti, di, yi)`.
    #[inline]
    fn at(&self, ti: usize, di: usize, yi: usize) -> f64 {
        self.values[self.row_offset(ti, di) + yi]
    }

    /// Relative frequency (aged over initial `fmax`) after `age` years of
    /// stress at temperature `t` and duty `duty`, trilinearly interpolated;
    /// queries outside the axes are clamped to the table edge.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is NaN (an NaN query would otherwise walk
    /// off the grid deep inside the interpolation).
    #[must_use]
    pub fn relative_frequency(&self, t: Kelvin, duty: DutyCycle, age: Years) -> f64 {
        assert!(
            !t.value().is_nan() && !duty.value().is_nan() && !age.value().is_nan(),
            "aging-table query must be finite, got (t={t:?}, duty={duty:?}, age={age:?})"
        );
        let (ti, tf) = locate(&self.axes.temperatures, t.value());
        let (di, df) = locate(&self.axes.duty_cycles, duty.value());
        let (yi, yf) = locate(&self.axes.ages, age.value());
        let mut acc = 0.0;
        for (i, wi) in [(ti, 1.0 - tf), (ti + 1, tf)] {
            if wi == 0.0 {
                continue;
            }
            for (j, wj) in [(di, 1.0 - df), (di + 1, df)] {
                if wj == 0.0 {
                    continue;
                }
                for (k, wk) in [(yi, 1.0 - yf), (yi + 1, yf)] {
                    if wk == 0.0 {
                        continue;
                    }
                    acc += wi * wj * wk * self.at(i, j, k);
                }
            }
        }
        acc
    }

    /// The age under conditions `(t, duty)` that corresponds to a given
    /// relative frequency (health): the inverse of
    /// [`relative_frequency`](Self::relative_frequency) along the age axis,
    /// found by bisection. Healths above the un-aged value map to age 0;
    /// healths below the end-of-table value map to the table's last age.
    ///
    /// This is the *oracle* inversion: 64 bisection steps, each a full
    /// trilinear lookup. The decision path uses
    /// [`AgeCurve::equivalent_age`] instead, which inverts the same
    /// interpolant directly; this path is kept for cross-validation.
    ///
    /// # Panics
    ///
    /// Panics if `health` is not in `(0, 1]` (NaN included).
    #[must_use]
    pub fn equivalent_age(&self, t: Kelvin, duty: DutyCycle, health: f64) -> Years {
        assert!(
            health > 0.0 && health <= 1.0,
            "health must lie in (0, 1], got {health}"
        );
        let y_max = *self.axes.ages.last().expect("axes are non-empty");
        if self.relative_frequency(t, duty, Years::new(0.0)) <= health {
            return Years::new(0.0);
        }
        if self.relative_frequency(t, duty, Years::new(y_max)) >= health {
            return Years::new(y_max);
        }
        let (mut lo, mut hi) = (0.0, y_max);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.relative_frequency(t, duty, Years::new(mid)) > health {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Years::new(0.5 * (lo + hi))
    }

    /// Advances a core's health across one aging epoch: re-expresses the
    /// current health as an equivalent age under the epoch's conditions
    /// (the "new 3D-path inside the table" of Section IV-B), adds the epoch
    /// length, and reads the resulting health. Health never increases.
    ///
    /// A zero duty cycle (dark core) leaves health unchanged: NBTI stress
    /// requires an active gate bias.
    ///
    /// This is the *oracle* advance ([`TablePath::Oracle`]) — built on the
    /// bisection of [`equivalent_age`](Self::equivalent_age). The engine's
    /// end-of-epoch health upscale always uses it (it is the canonical path
    /// results files are defined against); policy decisions use
    /// [`AgeCurve::advance`].
    ///
    /// # Panics
    ///
    /// Panics if `health` is not in `(0, 1]` or any coordinate is NaN.
    #[must_use]
    pub fn advance(&self, t: Kelvin, duty: DutyCycle, health: f64, epoch: Years) -> f64 {
        assert!(
            !t.value().is_nan() && !duty.value().is_nan() && !epoch.value().is_nan(),
            "advance conditions must be finite, got (t={t:?}, duty={duty:?}, epoch={epoch:?})"
        );
        if duty.value() == 0.0 || epoch.value() == 0.0 {
            return health;
        }
        let age = self.equivalent_age(t, duty, health);
        let next = self.relative_frequency(t, duty, age + epoch);
        next.min(health)
    }

    /// Collapses the table at fixed `(t, duty)` into the 1D monotone curve
    /// of relative frequency over the age axis, written into caller-owned
    /// `scratch` (allocation-free after the first use at a given table
    /// size).
    ///
    /// The collapse locates the (temperature, duty) cell once and blends
    /// the four surrounding age rows bilinearly — after which every
    /// operation on the returned [`AgeCurve`] (lookup, inversion, epoch
    /// advance) is O(log n) on 1D data instead of a fresh trilinear walk.
    /// This is the [`TablePath::Fast`] decision path.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `duty` is NaN.
    #[must_use]
    pub fn age_curve<'a>(
        &'a self,
        t: Kelvin,
        duty: DutyCycle,
        scratch: &'a mut AgeCurveScratch,
    ) -> AgeCurve<'a> {
        assert!(
            !t.value().is_nan() && !duty.value().is_nan(),
            "age-curve conditions must be finite, got (t={t:?}, duty={duty:?})"
        );
        let (ti, tf) = locate(&self.axes.temperatures, t.value());
        let (di, df) = locate(&self.axes.duty_cycles, duty.value());
        let ny = self.axes.ages.len();
        let r00 = &self.values[self.row_offset(ti, di)..][..ny];
        let r01 = &self.values[self.row_offset(ti, di + 1)..][..ny];
        let r10 = &self.values[self.row_offset(ti + 1, di)..][..ny];
        let r11 = &self.values[self.row_offset(ti + 1, di + 1)..][..ny];
        let (w00, w01) = ((1.0 - tf) * (1.0 - df), (1.0 - tf) * df);
        let (w10, w11) = (tf * (1.0 - df), tf * df);
        scratch.curve.clear();
        scratch
            .curve
            .extend((0..ny).map(|k| w00 * r00[k] + w01 * r01[k] + w10 * r10[k] + w11 * r11[k]));
        AgeCurve {
            ages: &self.axes.ages,
            curve: &scratch.curve,
            zero_stress: duty.value() == 0.0,
        }
    }
}

// The wire format predates the flat storage: `values` serializes as the
// nested `[[ [f64; ny]; nd ]; nt]` arrays the derive used to emit, so every
// table written before the flattening round-trips bit-for-bit.
impl Serialize for AgingTable {
    fn to_value(&self) -> Value {
        let (nt, nd, ny) = (
            self.axes.temperatures.len(),
            self.axes.duty_cycles.len(),
            self.axes.ages.len(),
        );
        let mut t_seq = Vec::with_capacity(nt);
        for ti in 0..nt {
            let mut d_seq = Vec::with_capacity(nd);
            for di in 0..nd {
                let row = &self.values[self.row_offset(ti, di)..][..ny];
                d_seq.push(Value::Seq(row.iter().map(|&v| Value::Float(v)).collect()));
            }
            t_seq.push(Value::Seq(d_seq));
        }
        Value::Map(vec![
            ("axes".to_owned(), self.axes.to_value()),
            ("values".to_owned(), Value::Seq(t_seq)),
        ])
    }
}

impl Deserialize for AgingTable {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let map = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected aging-table object"))?;
        let axes = TableAxes::from_value(
            find_key(map, "axes").ok_or_else(|| serde::Error::custom("missing field axes"))?,
        )?;
        let nested = find_key(map, "values")
            .and_then(Value::as_seq)
            .ok_or_else(|| serde::Error::custom("missing or non-array field values"))?;
        let (nt, nd, ny) = (
            axes.temperatures.len(),
            axes.duty_cycles.len(),
            axes.ages.len(),
        );
        if nested.len() != nt {
            return Err(serde::Error::custom(format!(
                "aging table has {} temperature rows, axes say {nt}",
                nested.len()
            )));
        }
        let mut values = Vec::with_capacity(nt * nd * ny);
        for t_row in nested {
            let d_rows = t_row
                .as_seq()
                .filter(|r| r.len() == nd)
                .ok_or_else(|| serde::Error::custom("aging table duty dimension mismatch"))?;
            for d_row in d_rows {
                let ages = d_row
                    .as_seq()
                    .filter(|r| r.len() == ny)
                    .ok_or_else(|| serde::Error::custom("aging table age dimension mismatch"))?;
                for v in ages {
                    values.push(f64::from_value(v)?);
                }
            }
        }
        Ok(AgingTable { axes, values })
    }
}

/// Caller-owned scratch for [`AgingTable::age_curve`]: holds the collapsed
/// curve so repeated collapses (one per candidate evaluation) never touch
/// the allocator after the first.
#[derive(Debug, Clone, Default)]
pub struct AgeCurveScratch {
    curve: Vec<f64>,
}

impl AgeCurveScratch {
    /// An empty scratch; the first collapse sizes it to the age axis.
    #[must_use]
    pub fn new() -> Self {
        AgeCurveScratch::default()
    }
}

/// The aging table collapsed at one `(temperature, duty)` operating point:
/// relative frequency sampled over the age axis, non-increasing in age.
///
/// Because trilinear interpolation is linear in each coordinate, this curve
/// *is* the table's interpolant restricted to the operating point — so
/// inverting it in one binary search plus an in-cell linear solve
/// ([`equivalent_age`](Self::equivalent_age)) computes the same answer the
/// oracle approximates with 64 bisection × trilinear lookups.
#[derive(Debug, Clone, Copy)]
pub struct AgeCurve<'a> {
    ages: &'a [f64],
    curve: &'a [f64],
    zero_stress: bool,
}

impl AgeCurve<'_> {
    /// Relative frequency at `age`, linearly interpolated on the collapsed
    /// curve; clamped to the table edge outside the age axis.
    ///
    /// # Panics
    ///
    /// Panics if `age` is NaN.
    #[must_use]
    pub fn relative_frequency(&self, age: Years) -> f64 {
        assert!(!age.value().is_nan(), "age must be finite, got {age:?}");
        let (yi, yf) = locate(self.ages, age.value());
        (1.0 - yf) * self.curve[yi] + yf * self.curve[yi + 1]
    }

    /// The age at which the curve reaches `health` — the direct inverse of
    /// [`relative_frequency`](Self::relative_frequency): one binary search
    /// for the containing cell, one linear solve inside it. Healths above
    /// the un-aged value map to age 0; healths below the end-of-curve value
    /// map to the last tabulated age.
    ///
    /// # Panics
    ///
    /// Panics if `health` is not in `(0, 1]` (NaN included).
    #[must_use]
    pub fn equivalent_age(&self, health: f64) -> Years {
        assert!(
            health > 0.0 && health <= 1.0,
            "health must lie in (0, 1], got {health}"
        );
        // First index whose curve value has dropped to or below `health`;
        // the curve is non-increasing, so everything before it is above.
        let p = self.curve.partition_point(|&c| c > health);
        if p == 0 {
            return Years::new(self.ages[0]);
        }
        if p == self.curve.len() {
            return Years::new(*self.ages.last().expect("axes are non-empty"));
        }
        let (k, lo, hi) = (p - 1, self.curve[p - 1], self.curve[p]);
        // A flat cell means every age in it maps to `health`; take the left
        // edge (the oracle's bisection converges inside the cell too, and
        // the follow-up advance re-reads the same flat stretch).
        let frac = if lo > hi {
            (lo - health) / (lo - hi)
        } else {
            0.0
        };
        Years::new(self.ages[k] + frac * (self.ages[k + 1] - self.ages[k]))
    }

    /// Advances health across one epoch at this curve's operating point:
    /// invert to the equivalent age, add the epoch, re-read the curve.
    /// Health never increases, and a zero duty cycle (dark core) leaves it
    /// unchanged — identical semantics to the oracle
    /// [`AgingTable::advance`].
    ///
    /// # Panics
    ///
    /// Panics if `health` is not in `(0, 1]` or `epoch` is NaN.
    #[must_use]
    pub fn advance(&self, health: f64, epoch: Years) -> f64 {
        assert!(
            !epoch.value().is_nan(),
            "epoch must be finite, got {epoch:?}"
        );
        if self.zero_stress || epoch.value() == 0.0 {
            assert!(
                health > 0.0 && health <= 1.0,
                "health must lie in (0, 1], got {health}"
            );
            return health;
        }
        let age = self.equivalent_age(health);
        let next = self.relative_frequency(age + epoch);
        next.min(health)
    }
}

/// Finds the cell `i` and fraction `f` so that `value` sits between
/// `axis[i]` and `axis[i+1]`; clamps outside the axis. Callers assert
/// non-NaN at the public API boundary; internally `total_cmp` keeps the
/// search well-defined for every bit pattern.
fn locate(axis: &[f64], value: f64) -> (usize, f64) {
    debug_assert!(!value.is_nan(), "locate() requires a non-NaN query");
    if value <= axis[0] || axis.len() == 1 {
        return (0, 0.0);
    }
    let last = axis.len() - 1;
    if value >= axis[last] {
        return (last - 1, 1.0);
    }
    // Binary search for the containing cell.
    let i = match axis.binary_search_by(|a| a.total_cmp(&value)) {
        Ok(exact) => exact.min(last - 1),
        Err(ins) => ins - 1,
    };
    let f = (value - axis[i]) / (axis[i + 1] - axis[i]);
    (i, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hayat_units::Celsius;

    fn table() -> AgingTable {
        AgingTable::generate(&AgingModel::paper(3), &TableAxes::paper())
    }

    #[test]
    fn locate_basics() {
        let axis = [0.0, 1.0, 2.0];
        assert_eq!(locate(&axis, -1.0), (0, 0.0));
        assert_eq!(locate(&axis, 0.0), (0, 0.0));
        assert_eq!(locate(&axis, 0.5), (0, 0.5));
        assert_eq!(locate(&axis, 1.0), (1, 0.0));
        assert_eq!(locate(&axis, 1.75), (1, 0.75));
        assert_eq!(locate(&axis, 2.0), (1, 1.0));
        assert_eq!(locate(&axis, 5.0), (1, 1.0));
    }

    #[test]
    fn grid_points_match_the_model_exactly() {
        let model = AgingModel::paper(3);
        let t = table();
        let axes = t.axes().clone();
        let d_pts = [
            axes.duty_cycles[0],
            axes.duty_cycles[12],
            axes.duty_cycles[24],
        ];
        let y_pts = [axes.ages[0], axes.ages[24], axes.ages[48]];
        for &temp in &[300.0, 350.0, 430.0] {
            for &d in &d_pts {
                for &y in &y_pts {
                    let direct = model.path().relative_frequency(
                        model.nbti(),
                        Kelvin::new(temp),
                        DutyCycle::new(d),
                        Years::new(y),
                    );
                    let looked_up =
                        t.relative_frequency(Kelvin::new(temp), DutyCycle::new(d), Years::new(y));
                    assert!(
                        (direct - looked_up).abs() < 1e-12,
                        "({temp}, {d}, {y}): {direct} vs {looked_up}"
                    );
                }
            }
        }
    }

    #[test]
    fn interpolation_error_is_small() {
        let model = AgingModel::paper(3);
        let t = table();
        // Off-grid points: trilinear interpolation tracks the model closely.
        for &(temp, d, y) in &[
            (337.7, 0.43, 3.33),
            (361.2, 0.87, 8.91),
            (402.4, 0.61, 1.28),
        ] {
            let direct = model.path().relative_frequency(
                model.nbti(),
                Kelvin::new(temp),
                DutyCycle::new(d),
                Years::new(y),
            );
            let looked_up =
                t.relative_frequency(Kelvin::new(temp), DutyCycle::new(d), Years::new(y));
            assert!(
                (direct - looked_up).abs() < 5e-3,
                "({temp}, {d}, {y}): {direct} vs {looked_up}"
            );
        }
    }

    #[test]
    fn relative_frequency_decreases_with_age_and_temperature() {
        let t = table();
        let d = DutyCycle::generic();
        let f =
            |c: f64, y: f64| t.relative_frequency(Celsius::new(c).to_kelvin(), d, Years::new(y));
        assert!(f(80.0, 1.0) > f(80.0, 5.0));
        assert!(f(80.0, 5.0) > f(80.0, 10.0));
        assert!(f(60.0, 10.0) > f(100.0, 10.0));
    }

    #[test]
    fn age_zero_has_full_health() {
        let t = table();
        let h = t.relative_frequency(Kelvin::new(400.0), DutyCycle::worst_case(), Years::new(0.0));
        assert!((h - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equivalent_age_round_trips() {
        let t = table();
        let temp = Kelvin::new(365.0);
        let d = DutyCycle::new(0.6);
        let h = t.relative_frequency(temp, d, Years::new(4.0));
        let age = t.equivalent_age(temp, d, h);
        assert!((age.value() - 4.0).abs() < 1e-3, "age {age}");
    }

    #[test]
    fn equivalent_age_clamps() {
        let t = table();
        let temp = Kelvin::new(365.0);
        let d = DutyCycle::generic();
        assert_eq!(t.equivalent_age(temp, d, 1.0).value(), 0.0);
        let y_max = *t.axes().ages.last().unwrap();
        let floor = t.relative_frequency(temp, d, Years::new(y_max));
        assert!((t.equivalent_age(temp, d, floor * 0.5).value() - y_max).abs() < 1e-9);
    }

    #[test]
    fn advance_is_monotone_and_respects_epochs() {
        let t = table();
        let temp = Celsius::new(90.0).to_kelvin();
        let d = DutyCycle::new(0.7);
        let epoch = Years::new(0.25);
        let mut h = 1.0;
        let mut last = h;
        for _ in 0..40 {
            h = t.advance(temp, d, h, epoch);
            assert!(h <= last, "health must never increase");
            last = h;
        }
        // 40 quarter-year epochs == 10 years of constant conditions.
        let direct = t.relative_frequency(temp, d, Years::new(10.0));
        assert!(
            (h - direct).abs() < 5e-3,
            "epoch-wise {h} vs direct {direct}"
        );
    }

    #[test]
    fn advance_dark_core_keeps_health() {
        let t = table();
        let h = t.advance(Kelvin::new(400.0), DutyCycle::idle(), 0.93, Years::new(1.0));
        assert_eq!(h, 0.93);
    }

    #[test]
    fn hotter_epochs_age_faster() {
        let t = table();
        let d = DutyCycle::generic();
        let h_cool = t.advance(Celsius::new(60.0).to_kelvin(), d, 0.95, Years::new(0.5));
        let h_hot = t.advance(Celsius::new(110.0).to_kelvin(), d, 0.95, Years::new(0.5));
        assert!(h_hot < h_cool);
    }

    #[test]
    #[should_panic(expected = "health must lie in (0, 1]")]
    fn equivalent_age_rejects_bad_health() {
        let _ = table().equivalent_age(Kelvin::new(350.0), DutyCycle::generic(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn axes_must_be_ascending() {
        let mut axes = TableAxes::paper();
        axes.temperatures = vec![300.0, 300.0];
        axes.assert_valid();
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_queries_are_rejected_at_the_boundary() {
        let _ = table().relative_frequency(
            Kelvin::new(f64::NAN),
            DutyCycle::generic(),
            Years::new(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_advance_is_rejected_at_the_boundary() {
        let _ = table().advance(
            Kelvin::new(f64::NAN),
            DutyCycle::generic(),
            0.9,
            Years::new(0.5),
        );
    }

    #[test]
    fn age_curve_matches_trilinear_at_fixed_conditions() {
        let t = table();
        let mut scratch = AgeCurveScratch::new();
        for &(temp, d) in &[(318.15, 0.3), (361.2, 0.87), (430.0, 1.0), (300.0, 0.0)] {
            let curve = t.age_curve(Kelvin::new(temp), DutyCycle::new(d), &mut scratch);
            for &y in &[0.0, 0.01, 0.5, 3.33, 9.7, 15.0, 20.0] {
                let fast = curve.relative_frequency(Years::new(y));
                let oracle =
                    t.relative_frequency(Kelvin::new(temp), DutyCycle::new(d), Years::new(y));
                assert!(
                    (fast - oracle).abs() < 1e-12,
                    "({temp}, {d}, {y}): {fast} vs {oracle}"
                );
            }
        }
    }

    #[test]
    fn age_curve_advance_matches_oracle() {
        let t = table();
        let mut scratch = AgeCurveScratch::new();
        let (temp, d) = (Kelvin::new(377.3), DutyCycle::new(0.65));
        let curve = t.age_curve(temp, d, &mut scratch);
        for &h in &[1.0, 0.995, 0.97, 0.9, 0.8] {
            for &e in &[0.0, 0.25, 0.5, 2.0] {
                let fast = curve.advance(h, Years::new(e));
                let oracle = t.advance(temp, d, h, Years::new(e));
                assert!(
                    (fast - oracle).abs() < 1e-9,
                    "h={h} e={e}: {fast} vs {oracle}"
                );
            }
        }
    }

    #[test]
    fn age_curve_inversion_round_trips() {
        let t = table();
        let mut scratch = AgeCurveScratch::new();
        let curve = t.age_curve(Kelvin::new(365.0), DutyCycle::new(0.6), &mut scratch);
        let h = curve.relative_frequency(Years::new(4.0));
        // Exact inversion of the piecewise-linear curve — no bisection slack.
        assert!((curve.equivalent_age(h).value() - 4.0).abs() < 1e-9);
        assert_eq!(curve.equivalent_age(1.0).value(), 0.0);
        let y_max = *t.axes().ages.last().unwrap();
        let floor = curve.relative_frequency(Years::new(y_max));
        assert_eq!(curve.equivalent_age(floor * 0.5).value(), y_max);
    }

    #[test]
    fn age_curve_dark_core_keeps_health() {
        let t = table();
        let mut scratch = AgeCurveScratch::new();
        let curve = t.age_curve(Kelvin::new(400.0), DutyCycle::idle(), &mut scratch);
        assert_eq!(curve.advance(0.93, Years::new(1.0)), 0.93);
    }

    #[test]
    fn serde_round_trips_through_the_nested_wire_format() {
        let axes = TableAxes {
            temperatures: vec![300.0, 365.0, 430.0],
            duty_cycles: vec![0.0, 0.5, 1.0],
            ages: vec![0.0, 1.0, 15.0],
        };
        let t = AgingTable::generate(&AgingModel::paper(3), &axes);
        let json = serde_json::to_string(&t).unwrap();
        // Wire format is the pre-flattening nested array-of-arrays.
        assert!(json.starts_with("{\"axes\":"));
        assert!(json.contains("\"values\":[[["));
        let back: AgingTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn nested_tables_written_before_the_flattening_still_load() {
        let json = include_str!("../tests/fixtures/table_nested_pre_pr5.json");
        let t: AgingTable = serde_json::from_str(json).unwrap();
        let regenerated = AgingTable::generate(
            &AgingModel::paper(3),
            &TableAxes {
                temperatures: vec![300.0, 365.0, 430.0],
                duty_cycles: vec![0.0, 0.5, 1.0],
                ages: vec![0.0, 1.0, 15.0],
            },
        );
        assert_eq!(t, regenerated, "pre-PR fixture must load bit-identically");
        // And write back byte-identically, too (the fixture is pretty-printed).
        assert_eq!(serde_json::to_string_pretty(&t).unwrap(), json.trim_end());
    }

    #[test]
    fn mismatched_dimensions_are_rejected_on_load() {
        let t = table();
        let json = serde_json::to_string(&t).unwrap();
        let truncated = json.replacen("[[[", "[[", 1);
        assert!(serde_json::from_str::<AgingTable>(&truncated).is_err());
    }
}
