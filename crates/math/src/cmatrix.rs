//! Small dense complex matrices.
//!
//! The paper's channel matrices `H` are at most 4×4 (`mt, mr ∈ 1..=4`), so a
//! simple row-major `Vec<Complex>` is both fast and simple — no external
//! linear-algebra crate is warranted (DESIGN.md §4).

use crate::complex::Complex;
use serde::{Deserialize, Serialize};
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major complex matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Builds a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![Complex::zero(); rows * cols],
        }
    }

    /// Builds the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::one();
        }
        m
    }

    /// Builds by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Refills every element in place by evaluating `f(row, col)`, without
    /// touching the allocation — the in-place counterpart of [`from_fn`]
    /// for hot loops that reuse one matrix across iterations.
    ///
    /// [`from_fn`]: CMatrix::from_fn
    pub fn fill_from_fn(&mut self, mut f: impl FnMut(usize, usize) -> Complex) {
        let cols = self.cols;
        for (i, slot) in self.data.iter_mut().enumerate() {
            *slot = f(i / cols, i % cols);
        }
    }

    /// Writes `A·Bᵀ` into `out` without allocating (and without forming
    /// `Bᵀ`): `out[r][c] = Σ_k A[r][k]·B[c][k]`. `out` is resized
    /// (`self.rows × b.rows`) only on first use with a new shape.
    ///
    /// # Panics
    /// If `self.cols() != b.cols()`.
    pub fn mul_bt_into(&self, b: &CMatrix, out: &mut CMatrix) {
        assert_eq!(
            self.cols, b.cols,
            "inner dimensions must agree for A*B^T: {}x{} * ({}x{})^T",
            self.rows, self.cols, b.rows, b.cols
        );
        out.rows = self.rows;
        out.cols = b.rows;
        out.data.resize(self.rows * b.rows, Complex::zero());
        for r in 0..self.rows {
            let arow = &self.data[r * self.cols..(r + 1) * self.cols];
            for c in 0..b.rows {
                let brow = &b.data[c * b.cols..(c + 1) * b.cols];
                out.data[r * b.rows + c] =
                    arow.iter().zip(brow).map(|(&x, &y)| x * y).sum::<Complex>();
            }
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mutable row-major slice of all elements — the entry point for
    /// batched fillers (e.g. `comimo_channel`'s `FadingChannel::fill_matrix`)
    /// that rewrite a whole matrix in one pass.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// A single row as a slice.
    pub fn row(&self, r: usize) -> &[Complex] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Conjugate transpose `Aᴴ`.
    pub fn hermitian(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Plain transpose `Aᵀ` (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Squared Frobenius norm `‖A‖_F² = Σ|a_ij|²`.
    ///
    /// This is the quantity entering the paper's effective SNR
    /// `γ_b = ‖H‖_F²·ē_b / (N0·mt)` in equations (5)–(6).
    pub fn frobenius_norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Scales every element by a real factor.
    pub fn scale(&self, k: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    /// If the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert_eq!(self.rows, self.cols, "trace needs a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Elementwise approximate equality.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| a.approx_eq(b, tol))
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: Self) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: Self) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: Self) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn identity_is_neutral() {
        let a = CMatrix::from_fn(3, 3, |r, cc| c((r * 3 + cc) as f64, (r as f64) - 1.0));
        let i = CMatrix::identity(3);
        assert!((&a * &i).approx_eq(&a, 1e-12));
        assert!((&i * &a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn hermitian_involution() {
        let a = CMatrix::from_fn(2, 4, |r, cc| c(r as f64, cc as f64));
        assert!(a.hermitian().hermitian().approx_eq(&a, 0.0));
    }

    #[test]
    fn frobenius_norm_known() {
        // [[3, 4i]] has ‖A‖_F² = 9 + 16 = 25
        let a = CMatrix::from_fn(1, 2, |_, cc| [c(3.0, 0.0), c(0.0, 4.0)][cc]);
        assert!((a.frobenius_norm_sqr() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_known_product() {
        let a_rows = [[c(1.0, 0.0), c(2.0, 0.0)], [c(3.0, 0.0), c(4.0, 0.0)]];
        let b_rows = [[c(0.0, 1.0), c(1.0, 0.0)], [c(1.0, 0.0), c(0.0, -1.0)]];
        let a = CMatrix::from_fn(2, 2, |r, cc| a_rows[r][cc]);
        let b = CMatrix::from_fn(2, 2, |r, cc| b_rows[r][cc]);
        let p = &a * &b;
        assert!(p[(0, 0)].approx_eq(c(2.0, 1.0), 1e-12));
        assert!(p[(0, 1)].approx_eq(c(1.0, -2.0), 1e-12));
        assert!(p[(1, 0)].approx_eq(c(4.0, 3.0), 1e-12));
        assert!(p[(1, 1)].approx_eq(c(3.0, -4.0), 1e-12));
    }

    #[test]
    fn trace_of_identity() {
        assert!(CMatrix::identity(4).trace().approx_eq(c(4.0, 0.0), 1e-12));
    }

    #[test]
    fn frobenius_invariant_under_hermitian() {
        let a = CMatrix::from_fn(3, 4, |r, cc| c(r as f64 - 1.0, cc as f64 + 0.5));
        assert!((a.frobenius_norm_sqr() - a.hermitian().frobenius_norm_sqr()).abs() < 1e-9);
    }

    #[test]
    fn fill_from_fn_matches_from_fn() {
        let mut m = CMatrix::zeros(3, 4);
        m.fill_from_fn(|r, cc| c(r as f64 * 2.0, cc as f64 - 1.0));
        let expect = CMatrix::from_fn(3, 4, |r, cc| c(r as f64 * 2.0, cc as f64 - 1.0));
        assert_eq!(m, expect);
    }

    #[test]
    fn mul_bt_into_matches_mul_transpose() {
        let a = CMatrix::from_fn(3, 2, |r, cc| c((r + cc) as f64, r as f64 - 0.5));
        let b = CMatrix::from_fn(4, 2, |r, cc| c(r as f64 * 0.25, (cc + 1) as f64));
        let mut out = CMatrix::zeros(1, 1);
        a.mul_bt_into(&b, &mut out);
        assert_eq!(out, &a * &b.transpose());
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }
}
