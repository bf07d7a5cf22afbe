//! Minimal dense and banded linear algebra shared by the Hayat substrates.
//!
//! Three consumers drive the contents:
//!
//! * the **variation** crate factorizes grid covariance matrices
//!   (≈ 1024 × 1024 for the paper's 8×8 chip with a 4×4 grid per core) and
//!   multiplies the factor with Gaussian vectors ([`lower_mul_vec`]);
//! * the **thermal** crate factorizes its conductance system `G·T = P`
//!   and the backward-Euler system `(C/h + G)` of its implicit transient
//!   integrator as **banded** Cholesky factors ([`BandedSpdMatrix`],
//!   [`BandedCholeskyFactor`]), so a steady-state solve or one transient
//!   step costs `O(n·b)` instead of `O(n²)`;
//! * the **policy decision path** fuses its per-candidate temperature scans
//!   ([`axpy_max_sum`]) and rank-1 superposition updates ([`axpy_in_place`])
//!   into single passes that are bit-identical to the open-coded loops they
//!   replace.
//!
//! Only what those three need is provided; this is not a general-purpose
//! linear-algebra library. The banded solves work in place
//! ([`BandedCholeskyFactor::solve_in_place`]) so hot loops never touch the
//! allocator; the dense [`cholesky_solve`] is the reference they are
//! checked against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Neg;

/// Dense square matrix in row-major storage.
///
/// # Example
///
/// ```
/// use hayat_linalg::SquareMatrix;
///
/// let mut m = SquareMatrix::zeros(2);
/// m.set(0, 0, 4.0);
/// m.set(1, 1, 9.0);
/// assert_eq!(m.get(1, 1), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SquareMatrix {
    /// Creates an `n × n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        SquareMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates an `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = SquareMatrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Side length of the matrix.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Reads element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.n && col < self.n,
            "index ({row},{col}) out of range"
        );
        self.data[row * self.n + col]
    }

    /// Writes element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n && col < self.n,
            "index ({row},{col}) out of range"
        );
        self.data[row * self.n + col] = value;
    }

    /// Returns one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.n, "row {row} out of range");
        &self.data[row * self.n..(row + 1) * self.n]
    }

    /// Multiplies the matrix with a vector: `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length must match matrix size");
        (0..self.n)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `true` if the matrix equals its transpose within `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for SquareMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} matrix", self.n, self.n)?;
        for i in 0..self.n.min(8) {
            for j in 0..self.n.min(8) {
                write!(f, "{:>10.4} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        if self.n > 8 {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

/// Error returned by [`cholesky`] when the input is not positive definite
/// even after the allowed diagonal jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefiniteError {
    /// The pivot index at which factorization broke down.
    pub pivot: usize,
}

impl fmt::Display for NotPositiveDefiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is not positive definite (factorization broke down at pivot {})",
            self.pivot
        )
    }
}

impl std::error::Error for NotPositiveDefiniteError {}

/// Computes the lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// Correlation matrices built from sampled distances can be borderline
/// positive semi-definite; a small diagonal jitter (`1e-10` of the mean
/// diagonal, growing ×10 per retry, at most 4 retries) is added when the
/// plain factorization breaks down — standard practice for Gaussian-process
/// samplers.
///
/// # Errors
///
/// Returns [`NotPositiveDefiniteError`] if factorization still fails after
/// the maximum jitter.
///
/// # Panics
///
/// Panics if `a` is not symmetric within `1e-9`.
///
/// # Example
///
/// ```
/// use hayat_linalg::{cholesky, SquareMatrix};
///
/// # fn main() -> Result<(), hayat_linalg::NotPositiveDefiniteError> {
/// let mut a = SquareMatrix::zeros(2);
/// a.set(0, 0, 4.0);
/// a.set(0, 1, 2.0);
/// a.set(1, 0, 2.0);
/// a.set(1, 1, 3.0);
/// let l = cholesky(&a)?;
/// assert!((l.get(0, 0) - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn cholesky(a: &SquareMatrix) -> Result<SquareMatrix, NotPositiveDefiniteError> {
    cholesky_with(a, try_cholesky)
}

/// The jitter-retry driver of [`cholesky`], over any factorization kernel
/// with [`try_cholesky`]'s contract (tests run it over the row-order
/// reference kernel too).
fn cholesky_with(
    a: &SquareMatrix,
    kernel: fn(&SquareMatrix, f64) -> Result<SquareMatrix, NotPositiveDefiniteError>,
) -> Result<SquareMatrix, NotPositiveDefiniteError> {
    assert!(a.is_symmetric(1e-9), "cholesky requires a symmetric matrix");
    let n = a.n();
    let mean_diag = (0..n).map(|i| a.get(i, i)).sum::<f64>() / n.max(1) as f64;
    let mut jitter = 0.0;
    let mut next_jitter = 1e-10 * mean_diag.max(1e-300);
    for _attempt in 0..=4 {
        match kernel(a, jitter) {
            Ok(l) => return Ok(l),
            Err(err) => {
                if jitter >= next_jitter * 1e4 {
                    return Err(err);
                }
                jitter = if jitter == 0.0 {
                    next_jitter
                } else {
                    jitter * 10.0
                };
            }
        }
    }
    next_jitter *= 1e4;
    kernel(a, next_jitter)
}

/// Rows the dense kernels ([`try_cholesky`], [`lower_mul_vec`]) advance
/// together: independent accumulation chains the CPU overlaps instead of
/// waiting out one chain's add latency per term, and row streams it
/// prefetches side by side.
const CHAINS: usize = 4;

/// One Cholesky attempt of `a + jitter·I`, column by column.
///
/// Column `j` first finishes its diagonal (row `j`'s entries left of it
/// were finished by earlier columns), then the entries below it,
/// [`CHAINS`] rows at a time. Every entry still runs
/// `sum -= l_ik·l_jk` for `k = 0, 1, …, j−1` in that order, as plain
/// multiply-then-subtract (no fused multiply-add), so the factor is
/// bit-identical to the textbook row-by-row loop, and the first diagonal
/// that is not positive (the reported pivot) is the same.
fn try_cholesky(a: &SquareMatrix, jitter: f64) -> Result<SquareMatrix, NotPositiveDefiniteError> {
    let n = a.n();
    let mut l = SquareMatrix::zeros(n);
    for j in 0..n {
        let mut diag = a.get(j, j) + jitter;
        for &x in &l.row(j)[..j] {
            diag -= x * x;
        }
        if diag <= 0.0 {
            return Err(NotPositiveDefiniteError { pivot: j });
        }
        let d = diag.sqrt();
        l.set(j, j, d);
        let mut i = j + 1;
        while i + CHAINS <= n {
            let mut sums: [f64; CHAINS] = std::array::from_fn(|c| a.get(i + c, j));
            {
                let pivot = &l.row(j)[..j];
                let rows: [&[f64]; CHAINS] = std::array::from_fn(|c| &l.row(i + c)[..j]);
                for (k, &p) in pivot.iter().enumerate() {
                    for (sum, row) in sums.iter_mut().zip(&rows) {
                        *sum -= row[k] * p;
                    }
                }
            }
            for (c, sum) in sums.into_iter().enumerate() {
                l.set(i + c, j, sum / d);
            }
            i += CHAINS;
        }
        for r in i..n {
            let mut sum = a.get(r, j);
            for (&x, &p) in l.row(r)[..j].iter().zip(&l.row(j)[..j]) {
                sum -= x * p;
            }
            l.set(r, j, sum / d);
        }
    }
    Ok(l)
}

/// The three statistics one [`axpy_max_sum`] pass produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedScan {
    /// `max_i (base + rise[i] + p·row[i])`.
    pub max: f64,
    /// `Σ_i (base + rise[i] + p·row[i])`.
    pub sum: f64,
    /// The value at the probe index.
    pub probe: f64,
}

/// One fused pass over `t_i = base + rise[i] + p·row[i]` computing the
/// maximum, the sum, and the value at a probe index — the candidate scan of
/// Algorithm 1 (stage 1 and 2 of the Hayat policy evaluate exactly these
/// three statistics of a superposed temperature map for every candidate
/// core).
///
/// The arithmetic is the plain `base + rise[i] + p * row[i]` expression, in
/// slice order, with `max` accumulated via `f64::max` — deliberately *not*
/// `mul_add`, so the fused scan is bit-identical to the three separate
/// loops it replaces.
///
/// # Panics
///
/// Panics if the slices differ in length or `probe` is out of range.
#[must_use]
pub fn axpy_max_sum(base: f64, rise: &[f64], p: f64, row: &[f64], probe: usize) -> FusedScan {
    assert_eq!(rise.len(), row.len(), "rise and row must match in length");
    assert!(probe < rise.len(), "probe index out of range");
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut at_probe = 0.0;
    for (i, (r, a)) in rise.iter().zip(row).enumerate() {
        let t = base + r + p * a;
        max = max.max(t);
        sum += t;
        if i == probe {
            at_probe = t;
        }
    }
    FusedScan {
        max,
        sum,
        probe: at_probe,
    }
}

/// In-place scaled accumulation `y[i] += p·x[i]` — the rank-1 superposition
/// update shared by the thermal predictor and the policies' rise buffers.
/// Plain multiply-then-add (no `mul_add`), so it is bit-identical to the
/// open-coded loops it replaces.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy_in_place(y: &mut [f64], p: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "vectors must match in length");
    for (y_i, x_i) in y.iter_mut().zip(x) {
        *y_i += p * x_i;
    }
}

/// Multiplies a lower-triangular factor with a vector (`y = L·z`), the core
/// operation of correlated-Gaussian sampling.
///
/// Rows run four at a time, but every `y_i` is still the sum of
/// `l_ik·z_k` for `k = 0, 1, …, i` in that order, starting from the `-0.0`
/// that `f64`'s `Sum` starts from, so each entry is bit-identical to
/// `row.iter().zip(z).map(|(a, b)| a * b).sum()`.
///
/// # Panics
///
/// Panics if `z.len() != l.n()`.
#[must_use]
pub fn lower_mul_vec(l: &SquareMatrix, z: &[f64]) -> Vec<f64> {
    assert_eq!(z.len(), l.n(), "vector length must match matrix size");
    let n = l.n();
    let mut y = Vec::with_capacity(n);
    let mut i = 0;
    while i + CHAINS <= n {
        // The block's common columns `0..=i`, all rows together…
        let mut sums = [-0.0f64; CHAINS];
        let rows: [&[f64]; CHAINS] = std::array::from_fn(|c| &l.row(i + c)[..=i]);
        for (k, &zk) in z[..=i].iter().enumerate() {
            for (sum, row) in sums.iter_mut().zip(&rows) {
                *sum += row[k] * zk;
            }
        }
        // …then each row's own tail up to its diagonal.
        for (c, mut sum) in sums.into_iter().enumerate() {
            let r = i + c;
            for (a, b) in l.row(r)[i + 1..=r].iter().zip(&z[i + 1..=r]) {
                sum += a * b;
            }
            y.push(sum);
        }
        i += CHAINS;
    }
    for r in i..n {
        y.push(
            l.row(r)[..=r]
                .iter()
                .zip(&z[..=r])
                .map(|(a, b)| a * b)
                .sum(),
        );
    }
    y
}

/// Solves `A·x = b` given the lower Cholesky factor `L` of `A` (so
/// `L·Lᵀ·x = b`) by forward then backward substitution.
///
/// # Panics
///
/// Panics if `b.len() != l.n()` or a diagonal entry of `l` is zero.
///
/// # Example
///
/// ```
/// use hayat_linalg::{cholesky, cholesky_solve, SquareMatrix};
///
/// # fn main() -> Result<(), hayat_linalg::NotPositiveDefiniteError> {
/// let mut a = SquareMatrix::zeros(2);
/// a.set(0, 0, 4.0);
/// a.set(0, 1, 2.0);
/// a.set(1, 0, 2.0);
/// a.set(1, 1, 3.0);
/// let l = cholesky(&a)?;
/// let x = cholesky_solve(&l, &[8.0, 7.0]);
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn cholesky_solve(l: &SquareMatrix, b: &[f64]) -> Vec<f64> {
    let n = l.n();
    assert_eq!(b.len(), n, "rhs length must match matrix size");
    let mut x = vec![0.0; n];
    // Forward substitution: L·y = b, with y stored in x.
    for i in 0..n {
        let mut sum = b[i];
        let row = l.row(i);
        for k in 0..i {
            sum -= row[k] * x[k];
        }
        let d = row[i];
        assert!(d != 0.0, "zero diagonal in Cholesky factor at {i}");
        x[i] = sum / d;
    }
    // Backward substitution: Lᵀ·x = y, in place.
    for i in (0..n).rev() {
        let mut sum = x[i];
        for (k, &xk) in x.iter().enumerate().skip(i + 1) {
            sum -= l.get(k, i) * xk;
        }
        x[i] = sum / l.get(i, i);
    }
    x
}

/// Symmetric positive-definite matrix with entries only within
/// `half_bandwidth` of the diagonal, storing the lower band row by row.
///
/// Row `i` occupies `half_bandwidth + 1` contiguous slots holding
/// `A[i][i-hb..=i]` (leading slots of the first rows are unused zeros), so
/// factorization and substitution stream cache-contiguous row slices.
///
/// This is the shape of the thermal crate's backward-Euler system
/// `(C/h + G)`: under a layer-interleaved node ordering the RC network's
/// couplings stay within a band of three times the mesh column count.
///
/// # Example
///
/// ```
/// use hayat_linalg::{BandedCholeskyFactor, BandedSpdMatrix};
///
/// let mut a = BandedSpdMatrix::zeros(3, 1);
/// for i in 0..3 {
///     a.set(i, i, 4.0);
/// }
/// a.set(1, 0, 1.0);
/// a.set(2, 1, 1.0);
/// let f = BandedCholeskyFactor::factorize(&a).unwrap();
/// let mut x = [6.0, 6.0, 5.0];
/// f.solve_in_place(&mut x);
/// assert!((x[0] - 71.0 / 56.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandedSpdMatrix {
    n: usize,
    hb: usize,
    /// Lower band, row-major: `rows[i*(hb+1) + (j + hb - i)] = A[i][j]`.
    rows: Vec<f64>,
}

impl BandedSpdMatrix {
    /// Creates an `n × n` zero matrix with the given half-bandwidth.
    #[must_use]
    pub fn zeros(n: usize, half_bandwidth: usize) -> Self {
        BandedSpdMatrix {
            n,
            hb: half_bandwidth,
            rows: vec![0.0; n * (half_bandwidth + 1)],
        }
    }

    /// Side length of the matrix.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals stored (equals the super-diagonal count by
    /// symmetry).
    #[must_use]
    pub const fn half_bandwidth(&self) -> usize {
        self.hb
    }

    fn slot(&self, row: usize, col: usize) -> usize {
        assert!(row < self.n && col <= row, "need col <= row < n");
        assert!(
            row - col <= self.hb,
            "entry ({row},{col}) outside half-bandwidth {}",
            self.hb
        );
        row * (self.hb + 1) + (col + self.hb - row)
    }

    /// Writes the lower-triangle entry `(row, col)` (and, implicitly, its
    /// symmetric mirror).
    ///
    /// # Panics
    ///
    /// Panics unless `col <= row < n` and `row - col <= half_bandwidth`.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let s = self.slot(row, col);
        self.rows[s] = value;
    }

    /// Reads the lower-triangle entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`set`](Self::set).
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.rows[self.slot(row, col)]
    }
}

/// Cholesky factor of a [`BandedSpdMatrix`], with both the lower band and
/// its transpose stored row-major so forward *and* backward substitution
/// stream contiguous memory.
///
/// A banded SPD matrix factorizes without fill outside the band, so the
/// factor costs `O(n·b²)` to compute and `O(n·b)` per solve — the property
/// the implicit thermal stepper's per-control-period solve relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedCholeskyFactor {
    n: usize,
    hb: usize,
    /// `lower[i*(hb+1) + (k + hb - i)] = L[i][k]` for `k` in `[i-hb, i]` —
    /// the canonical factor.
    lower: Vec<f64>,
    /// Forward-pass operand: the transpose layout with every column scaled
    /// by its pivot, `fwd[j*(hb+1) + (k - j)] = L[k][j]/L[j][j]`. Scaling
    /// makes the substitution unit-diagonal, so the serial dependency chain
    /// through the solve is one fused multiply-add per column instead of
    /// multiply-add *plus* a pivot multiply.
    fwd: Vec<f64>,
    /// Backward-pass operand: `bwd[i*(hb+1) + (k + hb - i)] =
    /// L[i][k]/L[k][k]` for `k < i` (unit-diagonal transposed rows).
    bwd: Vec<f64>,
    /// `1/L[i][i]²` — the LDLᵀ pivot reciprocal applied elementwise between
    /// the two unit-diagonal passes.
    inv_diag2: Vec<f64>,
}

impl BandedCholeskyFactor {
    /// Factorizes `a = L·Lᵀ` within the band.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] if a pivot is non-positive. No
    /// diagonal jitter is attempted: the backward-Euler systems this serves
    /// are strongly positive definite by construction (`C/h` adds to every
    /// diagonal), so a breakdown indicates a caller bug, not conditioning.
    pub fn factorize(a: &BandedSpdMatrix) -> Result<Self, NotPositiveDefiniteError> {
        let (n, hb) = (a.n, a.hb);
        let stride = hb + 1;
        let mut lower = vec![0.0; n * stride];
        for i in 0..n {
            let j_lo = i.saturating_sub(hb);
            for j in j_lo..=i {
                let k_lo = j.saturating_sub(hb).max(j_lo);
                let mut sum = a.rows[i * stride + (j + hb - i)];
                // Dot product of two contiguous band-row slices.
                let len = j - k_lo;
                let ri = &lower[i * stride + (k_lo + hb - i)..][..len];
                let rj = &lower[j * stride + (k_lo + hb - j)..][..len];
                for (x, y) in ri.iter().zip(rj) {
                    sum -= x * y;
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(NotPositiveDefiniteError { pivot: i });
                    }
                    lower[i * stride + hb] = sum.sqrt();
                } else {
                    lower[i * stride + (j + hb - i)] = sum / lower[j * stride + hb];
                }
            }
        }
        // Solve-path operands, derived from the canonical factor: the
        // unit-diagonal (LDLᵀ-style) split `L·Lᵀ = L̃·D·L̃ᵀ` with
        // `L̃[k][j] = L[k][j]/L[j][j]` and `D[j] = L[j][j]²` keeps pivot
        // scalings out of the substitutions' serial dependency chains.
        let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / lower[i * stride + hb]).collect();
        let mut fwd = vec![0.0; n * stride];
        for j in 0..n {
            for k in j..(j + hb + 1).min(n) {
                fwd[j * stride + (k - j)] = lower[k * stride + (j + hb - k)] * inv_diag[j];
            }
        }
        let mut bwd = vec![0.0; n * stride];
        for i in 0..n {
            for k in i.saturating_sub(hb)..i {
                bwd[i * stride + (k + hb - i)] = lower[i * stride + (k + hb - i)] * inv_diag[k];
            }
        }
        let inv_diag2 = inv_diag.iter().map(|d| d * d).collect();
        Ok(BandedCholeskyFactor {
            n,
            hb,
            lower,
            fwd,
            bwd,
            inv_diag2,
        })
    }

    /// Side length of the factored matrix.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Half-bandwidth of the factored matrix.
    #[must_use]
    pub const fn half_bandwidth(&self) -> usize {
        self.hb
    }

    /// Solves `L·Lᵀ·x = b` in place (`x` holds `b` on entry and the
    /// solution on return), allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "rhs length must match matrix size");
        let hb = self.hb;
        let stride = hb + 1;
        // The solve runs as the unit-diagonal split U·D·Uᵀ (U unit lower): a forward
        // scatter pass with pivot-scaled columns, one vectorized elementwise
        // multiply by 1/L[i][i]², and a backward scatter pass. Scattering
        // (column-oriented axpy) instead of row dot products keeps each
        // update free of serial FP reduction chains, unit diagonals keep
        // pivot multiplies off the cross-column dependency chain, and
        // 4-column register blocking amortizes loop overhead and x traffic
        // across four fused multiply-adds per pending entry. Remainder and
        // boundary columns fall through to simple one-column loops.
        //
        // Forward: U·w = b, scaled columns stream from `fwd`.
        let bulk = self.n.saturating_sub(hb);
        let mut j = 0;
        if hb >= 4 {
            while j + 4 <= bulk {
                let rows = &self.fwd[j * stride..][..4 * stride];
                let (u0, rest) = rows.split_at(stride);
                let (u1, rest) = rest.split_at(stride);
                let (u2, u3) = rest.split_at(stride);
                let nx0 = -x[j];
                let nx1 = u0[1].mul_add(nx0, x[j + 1]).neg();
                let nx2 = u1[1].mul_add(nx1, u0[2].mul_add(nx0, x[j + 2])).neg();
                let nx3 = u2[1]
                    .mul_add(nx2, u1[2].mul_add(nx1, u0[3].mul_add(nx0, x[j + 3])))
                    .neg();
                x[j + 1] = -nx1;
                x[j + 2] = -nx2;
                x[j + 3] = -nx3;
                // Pending entries k = j+4 ..= j+hb see all four columns;
                // the last three see a shrinking subset.
                let (fused, bnd) = x[j + 4..j + hb + 4].split_at_mut(hb - 3);
                for ((((x_k, a0), a1), a2), a3) in fused
                    .iter_mut()
                    .zip(&u0[4..])
                    .zip(&u1[3..hb])
                    .zip(&u2[2..hb - 1])
                    .zip(&u3[1..hb - 2])
                {
                    *x_k = a3.mul_add(nx3, a2.mul_add(nx2, a1.mul_add(nx1, a0.mul_add(nx0, *x_k))));
                }
                bnd[0] =
                    u3[hb - 2].mul_add(nx3, u2[hb - 1].mul_add(nx2, u1[hb].mul_add(nx1, bnd[0])));
                bnd[1] = u3[hb - 1].mul_add(nx3, u2[hb].mul_add(nx2, bnd[1]));
                bnd[2] = u3[hb].mul_add(nx3, bnd[2]);
                j += 4;
            }
        }
        for j in j..bulk {
            let nxj = -x[j];
            let col = &self.fwd[j * stride + 1..][..hb];
            for (l_kj, x_k) in col.iter().zip(&mut x[j + 1..j + 1 + hb]) {
                *x_k = l_kj.mul_add(nxj, *x_k);
            }
        }
        for j in bulk..self.n {
            let nxj = -x[j];
            let col = &self.fwd[j * stride + 1..][..self.n - j - 1];
            for (l_kj, x_k) in col.iter().zip(&mut x[j + 1..]) {
                *x_k = l_kj.mul_add(nxj, *x_k);
            }
        }
        // Diagonal: v = D⁻¹·w.
        for (x_i, s) in x.iter_mut().zip(&self.inv_diag2) {
            *x_i *= s;
        }
        // Backward: Uᵀ·x = v, scaled transposed rows stream from `bwd`.
        let mut rows_left = self.n;
        if hb >= 4 {
            while rows_left >= hb + 4 {
                let r = rows_left - 1;
                let rows = &self.bwd[(r - 3) * stride..][..4 * stride];
                let (l3, rest) = rows.split_at(stride);
                let (l2, rest) = rest.split_at(stride);
                let (l1, l0) = rest.split_at(stride);
                let nx0 = -x[r];
                let nx1 = l0[hb - 1].mul_add(nx0, x[r - 1]).neg();
                let nx2 = l1[hb - 1]
                    .mul_add(nx1, l0[hb - 2].mul_add(nx0, x[r - 2]))
                    .neg();
                let nx3 = l2[hb - 1]
                    .mul_add(
                        nx2,
                        l1[hb - 2].mul_add(nx1, l0[hb - 3].mul_add(nx0, x[r - 3])),
                    )
                    .neg();
                x[r - 1] = -nx1;
                x[r - 2] = -nx2;
                x[r - 3] = -nx3;
                // Pending entries k = r-hb ..= r-4 see all four rows; the
                // first three see a shrinking subset.
                let (bnd, fused) = x[r - hb - 3..r - 3].split_at_mut(3);
                for ((((x_k, a0), a1), a2), a3) in fused
                    .iter_mut()
                    .zip(&l0[..hb - 3])
                    .zip(&l1[1..hb - 2])
                    .zip(&l2[2..hb - 1])
                    .zip(&l3[3..hb])
                {
                    *x_k = a3.mul_add(nx3, a2.mul_add(nx2, a1.mul_add(nx1, a0.mul_add(nx0, *x_k))));
                }
                bnd[2] = l3[2].mul_add(nx3, l2[1].mul_add(nx2, l1[0].mul_add(nx1, bnd[2])));
                bnd[1] = l3[1].mul_add(nx3, l2[0].mul_add(nx2, bnd[1]));
                bnd[0] = l3[0].mul_add(nx3, bnd[0]);
                rows_left -= 4;
            }
        }
        for i in (hb.min(rows_left)..rows_left).rev() {
            let nxi = -x[i];
            let row = &self.bwd[i * stride..][..hb];
            for (l_ik, x_k) in row.iter().zip(&mut x[i - hb..i]) {
                *x_k = l_ik.mul_add(nxi, *x_k);
            }
        }
        for i in (0..hb.min(rows_left)).rev() {
            let nxi = -x[i];
            let row = &self.bwd[i * stride + (hb - i)..][..i];
            for (l_ik, x_k) in row.iter().zip(&mut x[..i]) {
                *x_k = l_ik.mul_add(nxi, *x_k);
            }
        }
    }

    /// Lane count of [`solve_many_in_place`](Self::solve_many_in_place).
    pub const SOLVE_MANY_LANES: usize = 32;

    /// Solves `L·Lᵀ·x = b` for [`SOLVE_MANY_LANES`](Self::SOLVE_MANY_LANES)
    /// independent right-hand sides in one factor traversal, in place and
    /// allocation-free. The right-hand sides are interleaved
    /// structure-of-arrays: `x[i * SOLVE_MANY_LANES + b]` holds entry `i` of
    /// lane `b` on entry (as `b_b[i]`) and on return (as the solution). A
    /// caller with fewer systems zero-pads the spare lanes.
    ///
    /// The traversal is in *gather* form: each row's lanes accumulate their
    /// whole substitution chain in a fixed-width register block and store
    /// once. The constant lane count lets the lane loop unroll and
    /// vectorize, while the per-column multiplier loads amortize across
    /// lanes.
    ///
    /// Each lane undergoes exactly the per-entry operation sequence of
    /// [`solve_in_place`](Self::solve_in_place): the register-blocked
    /// passes there fuse columns into chained `mul_add`s but apply them in
    /// ascending `j` (forward) / descending `i` (backward) order, one
    /// `mul_add` each, which is exactly the chain the gather accumulates.
    /// `solve_many_matches_each_lane_bitwise` pins the contract.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n * SOLVE_MANY_LANES`.
    pub fn solve_many_in_place(&self, x: &mut [f64]) {
        const B: usize = BandedCholeskyFactor::SOLVE_MANY_LANES;
        assert_eq!(
            x.len(),
            self.n * B,
            "rhs length must be n × SOLVE_MANY_LANES"
        );
        let hb = self.hb;
        let stride = hb + 1;
        let n = self.n;
        let mut acc = [0.0f64; B];
        // Forward: U·w = b. Row k's updates come from columns
        // j = max(0, k-hb)..k; the factor element for (k, j) sits at
        // `fwd[j*stride + (k-j)]`, a stride-1-spaced walk as j ascends.
        for k in 1..n {
            let j_lo = k.saturating_sub(hb);
            let (head, row) = x.split_at_mut(k * B);
            acc.copy_from_slice(&row[..B]);
            let mut pos = j_lo * stride + (k - j_lo);
            for xj in head[j_lo * B..].chunks_exact(B) {
                let l_kj = self.fwd[pos];
                for (a, x_j) in acc.iter_mut().zip(xj) {
                    *a = l_kj.mul_add(-*x_j, *a);
                }
                pos += stride - 1;
            }
            row[..B].copy_from_slice(&acc);
        }
        // Diagonal: v = D⁻¹·w.
        for (xs, s) in x.chunks_exact_mut(B).zip(&self.inv_diag2) {
            for x_i in xs {
                *x_i *= s;
            }
        }
        // Backward: Uᵀ·x = v. Row k's updates come from rows
        // i = min(n-1, k+hb)..k+1 descending; the element for (i, k) sits
        // at `bwd[i*stride + (k+hb-i)]`, walking down by stride-1.
        for k in (0..n.saturating_sub(1)).rev() {
            let i_hi = (k + hb).min(n - 1);
            let (head, rest) = x.split_at_mut((k + 1) * B);
            let row = &mut head[k * B..];
            acc.copy_from_slice(&row[..B]);
            let mut pos = i_hi * stride + (k + hb - i_hi);
            for xi in rest[..(i_hi - k) * B].chunks_exact(B).rev() {
                let l_ik = self.bwd[pos];
                for (a, x_i) in acc.iter_mut().zip(xi) {
                    *a = l_ik.mul_add(-*x_i, *a);
                }
                pos -= stride - 1;
            }
            row[..B].copy_from_slice(&acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> SquareMatrix {
        // A known symmetric positive-definite matrix.
        let vals = [
            [4.0, 12.0, -16.0],
            [12.0, 37.0, -43.0],
            [-16.0, -43.0, 98.0],
        ];
        let mut a = SquareMatrix::zeros(3);
        for (i, row) in vals.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                a.set(i, j, v);
            }
        }
        a
    }

    /// The textbook row-by-row kernel `try_cholesky` replaced, kept as its
    /// bit-identity oracle.
    fn try_cholesky_rowwise(
        a: &SquareMatrix,
        jitter: f64,
    ) -> Result<SquareMatrix, NotPositiveDefiniteError> {
        let n = a.n();
        let mut l = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(NotPositiveDefiniteError { pivot: i });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(l)
    }

    /// Asserts that [`cholesky`] and the row-order oracle agree: the same
    /// bits in every entry, or the same failing pivot.
    fn assert_matches_rowwise(a: &SquareMatrix) {
        match (cholesky(a), cholesky_with(a, try_cholesky_rowwise)) {
            (Ok(got), Ok(want)) => {
                for (k, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "entry ({}, {}) of n = {}",
                        k / a.n(),
                        k % a.n(),
                        a.n()
                    );
                }
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "n = {}", a.n()),
            (got, want) => panic!(
                "n = {}: column order {:?} vs row order {:?}",
                a.n(),
                got.map(|_| ()),
                want.map(|_| ())
            ),
        }
    }

    /// `B·Bᵀ` for an `n × rank` matrix `B` of uniform entries in [-1, 1)
    /// drawn from `seed` (SplitMix64): symmetric by construction, positive
    /// definite at full rank and singular below it.
    fn gram(n: usize, rank: usize, seed: u64) -> SquareMatrix {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64 * 2.0 - 1.0
        };
        let b: Vec<f64> = (0..n * rank).map(|_| next()).collect();
        let mut a = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let dot = (0..rank).map(|k| b[i * rank + k] * b[j * rank + k]).sum();
                a.set(i, j, dot);
            }
        }
        a
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn column_order_cholesky_is_bit_identical_to_row_order(
            n in 1usize..=70,
            seed in 0u64..u64::MAX,
            shape in 0usize..3,
        ) {
            let a = match shape {
                // Positive definite: the plain attempt succeeds.
                0 => gram(n, n + 2, seed),
                // Rank-deficient: exercises the jitter retries.
                1 => gram(n, n.div_ceil(2), seed),
                // Indefinite: one diagonal made negative, so both kernels
                // must give up at the same pivot.
                _ => {
                    let mut a = gram(n, n + 2, seed);
                    let p = (seed % n as u64) as usize;
                    a.set(p, p, -1.0 - a.get(p, p));
                    a
                }
            };
            assert_matches_rowwise(&a);
        }
    }

    #[test]
    fn column_order_cholesky_is_bit_identical_at_variation_scale() {
        // The paper chip's variation covariance is 1024 × 1024: an
        // exponential kernel over a 32 × 32 cell grid.
        let side = 32usize;
        let n = side * side;
        let mut a = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let (di, dj) = ((i / side).abs_diff(j / side), (i % side).abs_diff(j % side));
                let d = ((di * di + dj * dj) as f64).sqrt();
                a.set(i, j, 0.01 * (-d / 6.0).exp());
            }
        }
        assert_matches_rowwise(&a);
    }

    /// Random lower-triangular `n × n` factor and `n`-vector from `seed`,
    /// entries in [-1, 1).
    fn lower_case(n: usize, seed: u64) -> (SquareMatrix, Vec<f64>) {
        let mut l = SquareMatrix::zeros(n);
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        for i in 0..n {
            for j in 0..=i {
                l.set(i, j, next());
            }
        }
        let z = (0..n).map(|_| next()).collect();
        (l, z)
    }

    /// Asserts every entry of [`lower_mul_vec`] has the bits of the
    /// row-by-row `Sum` it replaced.
    fn assert_lower_mul_matches_rowwise(l: &SquareMatrix, z: &[f64]) {
        let got = lower_mul_vec(l, z);
        for (i, y) in got.iter().enumerate() {
            let want: f64 = l.row(i)[..=i]
                .iter()
                .zip(&z[..=i])
                .map(|(a, b)| a * b)
                .sum();
            assert_eq!(y.to_bits(), want.to_bits(), "row {i} of n = {}", l.n());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn chained_lower_mul_vec_is_bit_identical_to_row_sums(
            n in 1usize..=70,
            seed in 0u64..u64::MAX,
        ) {
            let (l, z) = lower_case(n, seed);
            assert_lower_mul_matches_rowwise(&l, &z);
        }
    }

    #[test]
    fn chained_lower_mul_vec_is_bit_identical_at_variation_scale() {
        let (l, z) = lower_case(1024, 7);
        assert_lower_mul_matches_rowwise(&l, &z);
        // All-zero rows: the `-0.0` start must survive, as with `Sum`.
        let zero = SquareMatrix::zeros(9);
        assert_lower_mul_matches_rowwise(&zero, &[-0.0; 9]);
    }

    #[test]
    fn identity_is_its_own_factor() {
        let l = cholesky(&SquareMatrix::identity(5)).unwrap();
        assert_eq!(l, SquareMatrix::identity(5));
    }

    #[test]
    fn known_factorization() {
        // Wikipedia's classic example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let l = cholesky(&spd3()).unwrap();
        let expect = [[2.0, 0.0, 0.0], [6.0, 1.0, 0.0], [-8.0, 5.0, 3.0]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert!((l.get(i, j) - v).abs() < 1e-9, "L[{i}][{j}]");
            }
        }
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let mut sum = 0.0;
                for k in 0..3 {
                    sum += l.get(i, k) * l.get(j, k);
                }
                assert!((sum - a.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = SquareMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 1.0); // eigenvalues 3 and -1
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn semidefinite_matrix_succeeds_via_jitter() {
        // Rank-1 matrix: ones everywhere. PSD but singular.
        let mut a = SquareMatrix::zeros(3);
        for i in 0..3 {
            for j in 0..3 {
                a.set(i, j, 1.0);
            }
        }
        assert!(cholesky(&a).is_ok());
    }

    #[test]
    fn lower_mul_vec_matches_full_mul() {
        let l = cholesky(&spd3()).unwrap();
        let z = [1.0, -2.0, 0.5];
        let fast = lower_mul_vec(&l, &z);
        let slow = l.mul_vec(&z);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_vec_identity() {
        let m = SquareMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.mul_vec(&x), x.to_vec());
    }

    #[test]
    fn symmetry_check() {
        let mut a = SquareMatrix::identity(2);
        assert!(a.is_symmetric(0.0));
        a.set(0, 1, 0.5);
        assert!(!a.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn cholesky_panics_on_asymmetric() {
        let mut a = SquareMatrix::identity(2);
        a.set(0, 1, 0.5);
        let _ = cholesky(&a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = SquareMatrix::zeros(2).get(2, 0);
    }

    #[test]
    fn cholesky_solve_recovers_known_solution() {
        let a = spd3();
        let x_true = [2.0, -1.0, 0.5];
        let b = a.mul_vec(&x_true);
        let l = cholesky(&a).unwrap();
        let x = cholesky_solve(&l, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn cholesky_solve_identity_is_identity() {
        let l = cholesky(&SquareMatrix::identity(4)).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(cholesky_solve(&l, &b), b.to_vec());
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn cholesky_solve_checks_length() {
        let l = cholesky(&SquareMatrix::identity(3)).unwrap();
        let _ = cholesky_solve(&l, &[1.0]);
    }

    /// A deterministic diagonally dominant banded SPD test matrix.
    fn banded_case(n: usize, hb: usize) -> (BandedSpdMatrix, SquareMatrix) {
        let mut banded = BandedSpdMatrix::zeros(n, hb);
        let mut dense = SquareMatrix::zeros(n);
        for i in 0..n {
            let mut diag = 1.0;
            for j in i.saturating_sub(hb)..i {
                let v = 0.3 / (1.0 + (i - j) as f64) * ((i * 7 + j * 3) % 5 + 1) as f64 * 0.2;
                banded.set(i, j, v);
                dense.set(i, j, v);
                dense.set(j, i, v);
                diag += v.abs();
            }
            // Make strictly diagonally dominant (counting upper couplings too).
            diag += hb as f64;
            banded.set(i, i, diag);
            dense.set(i, i, diag);
        }
        (banded, dense)
    }

    #[test]
    fn banded_factor_matches_dense_factor() {
        let (banded, dense) = banded_case(17, 3);
        let bf = BandedCholeskyFactor::factorize(&banded).unwrap();
        let df = cholesky(&dense).unwrap();
        assert_eq!(bf.n(), 17);
        assert_eq!(bf.half_bandwidth(), 3);
        for i in 0usize..17 {
            for j in i.saturating_sub(3)..=i {
                assert!(
                    (banded.get(i, j) - dense.get(i, j)).abs() < 1e-15,
                    "storage mismatch at ({i},{j})"
                );
                let got = bf.lower[i * 4 + (j + 3 - i)];
                assert!(
                    (got - df.get(i, j)).abs() < 1e-12,
                    "L[{i}][{j}]: banded {got} vs dense {}",
                    df.get(i, j)
                );
            }
        }
    }

    #[test]
    fn banded_solve_matches_dense_solve() {
        let (banded, dense) = banded_case(31, 5);
        let bf = BandedCholeskyFactor::factorize(&banded).unwrap();
        let df = cholesky(&dense).unwrap();
        let b: Vec<f64> = (0..31).map(|i| (i as f64 * 0.7).sin() * 4.0).collect();
        let reference = cholesky_solve(&df, &b);
        let mut x = b.clone();
        bf.solve_in_place(&mut x);
        for (got, want) in x.iter().zip(&reference) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn banded_solve_recovers_known_solution() {
        let (banded, dense) = banded_case(24, 4);
        let x_true: Vec<f64> = (0..24).map(|i| (i as f64) - 11.5).collect();
        let b = dense.mul_vec(&x_true);
        let bf = BandedCholeskyFactor::factorize(&banded).unwrap();
        let mut x = b;
        bf.solve_in_place(&mut x);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn banded_zero_half_bandwidth_is_diagonal_solve() {
        let mut a = BandedSpdMatrix::zeros(4, 0);
        for i in 0..4 {
            a.set(i, i, (i + 1) as f64);
        }
        let f = BandedCholeskyFactor::factorize(&a).unwrap();
        let mut x = [2.0, 2.0, 3.0, 8.0];
        f.solve_in_place(&mut x);
        for (got, want) in x.iter().zip(&[2.0, 1.0, 1.0, 2.0]) {
            assert!((got - want).abs() < 1e-15, "{got} vs {want}");
        }
    }

    #[test]
    fn banded_rejects_indefinite() {
        let mut a = BandedSpdMatrix::zeros(2, 1);
        a.set(0, 0, 1.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 1.0); // eigenvalues 3 and -1
        let err = BandedCholeskyFactor::factorize(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
    }

    #[test]
    #[should_panic(expected = "outside half-bandwidth")]
    fn banded_set_rejects_out_of_band() {
        let mut a = BandedSpdMatrix::zeros(4, 1);
        a.set(3, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn banded_solve_checks_length() {
        let mut a = BandedSpdMatrix::zeros(2, 0);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        let f = BandedCholeskyFactor::factorize(&a).unwrap();
        let mut x = [1.0];
        f.solve_in_place(&mut x);
    }

    #[test]
    fn axpy_max_sum_matches_the_three_pass_form() {
        let rise = [1.0, 7.5, -2.0, 3.25];
        let row = [0.5, 0.0, 4.0, 1.0];
        let (base, p, probe) = (318.15, 2.5, 2);
        let scan = axpy_max_sum(base, &rise, p, &row, probe);
        // Reference: three independent loops with identical arithmetic.
        let ts: Vec<f64> = rise
            .iter()
            .zip(&row)
            .map(|(r, a)| base + r + p * a)
            .collect();
        let max = ts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = ts.iter().sum();
        assert_eq!(scan.max, max, "bit-identical max");
        assert_eq!(scan.sum, sum, "bit-identical sum");
        assert_eq!(scan.probe, ts[probe], "bit-identical probe");
    }

    #[test]
    fn axpy_max_sum_handles_negative_temperatures_and_first_probe() {
        let scan = axpy_max_sum(0.0, &[-5.0, -1.0], -1.0, &[1.0, 1.0], 0);
        assert_eq!(scan.max, -2.0);
        assert_eq!(scan.sum, -8.0);
        assert_eq!(scan.probe, -6.0);
    }

    #[test]
    #[should_panic(expected = "probe index")]
    fn axpy_max_sum_rejects_probe_out_of_range() {
        let _ = axpy_max_sum(0.0, &[1.0], 1.0, &[1.0], 1);
    }

    #[test]
    fn axpy_in_place_accumulates() {
        let mut y = [1.0, 2.0, 3.0];
        axpy_in_place(&mut y, 0.5, &[2.0, 0.0, -4.0]);
        assert_eq!(y, [2.0, 2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "must match in length")]
    fn axpy_in_place_rejects_length_mismatch() {
        axpy_in_place(&mut [1.0], 1.0, &[1.0, 2.0]);
    }

    /// Deterministic per-lane right-hand sides for the batched solves.
    fn lane_rhs(n: usize, lane: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7 + lane as f64 * 1.3).sin() * 4.0 - lane as f64 * 0.25)
            .collect()
    }

    /// Interleaves per-lane vectors into the structure-of-arrays layout.
    fn interleave(lanes: &[Vec<f64>]) -> Vec<f64> {
        let n = lanes[0].len();
        let mut soa = vec![0.0; n * lanes.len()];
        for (b, lane) in lanes.iter().enumerate() {
            for (i, &v) in lane.iter().enumerate() {
                soa[i * lanes.len() + b] = v;
            }
        }
        soa
    }

    #[test]
    fn solve_many_matches_each_lane_bitwise() {
        // (31, 5) exercises the register-blocked scalar reference path
        // (hb ≥ 4, long bulk); (8, 5) is tail/head dominated; (4, 0) is
        // the pure diagonal case; (24, 23) is an almost-dense band.
        let batch = BandedCholeskyFactor::SOLVE_MANY_LANES;
        for (n, hb) in [(31usize, 5usize), (8, 5), (4, 0), (24, 23)] {
            let (banded, _) = banded_case(n, hb);
            let f = BandedCholeskyFactor::factorize(&banded).unwrap();
            let lanes: Vec<Vec<f64>> = (0..batch).map(|b| lane_rhs(n, b)).collect();
            let mut soa = interleave(&lanes);
            f.solve_many_in_place(&mut soa);
            for (b, lane) in lanes.iter().enumerate() {
                let mut reference = lane.clone();
                f.solve_in_place(&mut reference);
                for (i, want) in reference.iter().enumerate() {
                    assert_eq!(
                        soa[i * batch + b],
                        *want,
                        "lane {b} entry {i} (n={n}, hb={hb}) \
                         must not drift a bit from the scalar solve"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_many_at_thermal_scale_is_bitwise_stable() {
        // The 8×8 paper floorplan factors to n = 192, hb = 24; keep the
        // batched solve pinned to the scalar path at exactly that shape.
        let (banded, _) = banded_case(192, 24);
        let f = BandedCholeskyFactor::factorize(&banded).unwrap();
        let batch = BandedCholeskyFactor::SOLVE_MANY_LANES;
        let lanes: Vec<Vec<f64>> = (0..batch).map(|b| lane_rhs(192, b)).collect();
        let mut soa = interleave(&lanes);
        f.solve_many_in_place(&mut soa);
        for (b, lane) in lanes.iter().enumerate() {
            let mut reference = lane.clone();
            f.solve_in_place(&mut reference);
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(soa[i * batch + b], *want, "lane {b} entry {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rhs length must be n × SOLVE_MANY_LANES")]
    fn solve_many_checks_length() {
        let (banded, _) = banded_case(4, 1);
        let f = BandedCholeskyFactor::factorize(&banded).unwrap();
        let mut x = vec![0.0; 7];
        f.solve_many_in_place(&mut x);
    }
}
