//! Maximum-likelihood OSTBC decoding via the equivalent real linear model.
//!
//! For a block code `X(s)` that is linear in `(s, s*)`, the received block
//! `Y = X·Hᵀ + N` (slots × rx antennas) can be rewritten as a real linear
//! system `ỹ = M·s̃ + ñ` where `s̃` stacks `[Re s_1, Im s_1, …]`. For an
//! *orthogonal* design `MᵀM = ‖H‖_F²·c·I`, so the exact least-squares
//! solution below coincides with per-symbol matched filtering — the
//! classical OSTBC ML decoder — while remaining correct for any linear
//! dispersion code.

use crate::design::Ostbc;
use comimo_math::cmatrix::CMatrix;
use comimo_math::complex::Complex;

/// A real dense matrix in row-major order (internal helper sized by the
/// decoder: at most `2·t·mr × 2k`).
#[derive(Debug, Clone, Default)]
pub struct RealMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major elements.
    pub data: Vec<f64>,
}

impl RealMatrix {
    fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `AᵀA` (cols × cols).
    pub fn gram(&self) -> RealMatrix {
        let mut g = RealMatrix::zeros(self.cols, self.cols);
        self.gram_into(&mut g);
        g
    }

    /// In-place [`gram`](RealMatrix::gram): writes `AᵀA` into `g`.
    pub fn gram_into(&self, g: &mut RealMatrix) {
        g.resize(self.cols, self.cols);
        for i in 0..self.cols {
            for j in 0..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self.at(r, i) * self.at(r, j);
                }
                *g.at_mut(i, j) = s;
            }
        }
    }

    /// Writes `Aᵀy` into `out`, reusing its allocation.
    pub fn t_mul_vec_into(&self, y: &[f64], out: &mut Vec<f64>) {
        assert_eq!(y.len(), self.rows);
        out.clear();
        out.extend(
            (0..self.cols).map(|c| (0..self.rows).map(|r| self.at(r, c) * y[r]).sum::<f64>()),
        );
    }
}

/// Solves the square system `A·x = b` in place by Gaussian elimination with
/// partial pivoting. Panics on a (numerically) singular system, which for
/// an OSTBC equivalent matrix only happens when `H = 0`.
pub fn solve_real(a: &RealMatrix, b: &[f64]) -> Vec<f64> {
    let mut m = Vec::new();
    let mut x = b.to_vec();
    solve_real_with(a, &mut x, &mut m);
    x
}

/// In-place [`solve_real`]: solves `A·x = b` where `x` holds `b` on entry
/// and the solution on exit. `scratch` is the elimination workspace (a copy
/// of `A`'s elements), reused across calls without reallocating.
pub fn solve_real_with(a: &RealMatrix, x: &mut [f64], scratch: &mut Vec<f64>) {
    assert_eq!(a.rows, a.cols, "solve_real needs a square system");
    assert_eq!(x.len(), a.rows);
    let n = a.rows;
    scratch.clear();
    scratch.extend_from_slice(&a.data);
    let m = scratch;
    for col in 0..n {
        // pivot
        let mut piv = col;
        for r in col + 1..n {
            if m[r * n + col].abs() > m[piv * n + col].abs() {
                piv = r;
            }
        }
        assert!(
            m[piv * n + col].abs() > 1e-300,
            "singular system in OSTBC decode (zero channel?)"
        );
        if piv != col {
            for c in 0..n {
                m.swap(col * n + c, piv * n + c);
            }
            x.swap(col, piv);
        }
        let d = m[col * n + col];
        for r in col + 1..n {
            let f = m[r * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                m[r * n + c] -= f * m[col * n + c];
            }
            x[r] -= f * x[col];
        }
    }
    // back substitution
    for col in (0..n).rev() {
        let mut s = x[col];
        for c in col + 1..n {
            s -= m[col * n + c] * x[c];
        }
        x[col] = s / m[col * n + col];
    }
}

/// Builds the equivalent real matrix `M` (size `2·t·mr × 2k`) such that
/// `[Re Y; Im Y] = M·[Re s; Im s]` for the noiseless channel `Y = X(s)·Hᵀ`.
///
/// `h` is the `mr × mt` channel matrix (entry `(j, i)` couples transmit
/// antenna `i` to receive antenna `j`).
pub fn equivalent_real_matrix(code: &Ostbc, h: &CMatrix) -> RealMatrix {
    let mut m = RealMatrix::zeros(1, 1);
    equivalent_real_matrix_into(code, h, &mut m);
    m
}

/// In-place [`equivalent_real_matrix`]: resizes and fills `m` without
/// allocating once `m` has reached its steady-state size.
pub fn equivalent_real_matrix_into(code: &Ostbc, h: &CMatrix, m: &mut RealMatrix) {
    let mt = code.n_tx();
    let mr = h.rows();
    assert_eq!(h.cols(), mt, "channel matrix must be mr x mt");
    let t = code.n_slots();
    let k = code.n_symbols();
    m.resize(2 * t * mr, 2 * k);
    for slot in 0..t {
        for j in 0..mr {
            let row_re = 2 * (slot * mr + j);
            let row_im = row_re + 1;
            for sym in 0..k {
                // C = sum_i h[j][i] * a[slot][i][sym], D likewise with b
                let mut c = Complex::zero();
                let mut d = Complex::zero();
                for i in 0..mt {
                    c += h[(j, i)] * code.a_coef(slot, i, sym);
                    d += h[(j, i)] * code.b_coef(slot, i, sym);
                }
                let cpd = c + d; // multiplies Re s
                let cmd = c - d; // i * cmd multiplies Im s
                *m.at_mut(row_re, 2 * sym) = cpd.re;
                *m.at_mut(row_re, 2 * sym + 1) = -cmd.im;
                *m.at_mut(row_im, 2 * sym) = cpd.im;
                *m.at_mut(row_im, 2 * sym + 1) = cmd.re;
            }
        }
    }
}

/// Reusable buffers for [`decode_block_into`]: after the first block every
/// decode is allocation-free (the per-antenna-config sizes are fixed, so
/// all `resize`/`extend` calls hit capacity already reserved).
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    m: RealMatrix,
    gram: RealMatrix,
    yv: Vec<f64>,
    rhs: Vec<f64>,
    solve: Vec<f64>,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow to their steady-state sizes
    /// on the first decode.
    pub fn new() -> Self {
        Self::default()
    }
}

/// In-place [`decode_block`]: writes the soft symbol estimates into `out`
/// using `scratch`'s buffers instead of allocating.
pub fn decode_block_into(
    code: &Ostbc,
    h: &CMatrix,
    y: &CMatrix,
    scratch: &mut DecodeScratch,
    out: &mut Vec<Complex>,
) {
    assert_eq!(
        y.rows(),
        code.n_slots(),
        "received block has wrong slot count"
    );
    assert_eq!(y.cols(), h.rows(), "received block has wrong antenna count");
    equivalent_real_matrix_into(code, h, &mut scratch.m);
    // stack y into the matching real vector
    let mr = h.rows();
    scratch.yv.clear();
    scratch.yv.reserve(2 * code.n_slots() * mr);
    for slot in 0..code.n_slots() {
        for j in 0..mr {
            scratch.yv.push(y[(slot, j)].re);
            scratch.yv.push(y[(slot, j)].im);
        }
    }
    scratch.m.gram_into(&mut scratch.gram);
    scratch.m.t_mul_vec_into(&scratch.yv, &mut scratch.rhs);
    solve_real_with(&scratch.gram, &mut scratch.rhs, &mut scratch.solve);
    let s = &scratch.rhs;
    out.clear();
    out.extend((0..code.n_symbols()).map(|kk| Complex::new(s[2 * kk], s[2 * kk + 1])));
}

/// Decodes one received block.
///
/// * `h` — `mr × mt` channel matrix (known at the receiver, as the paper
///   assumes: "H is the matrix of channel coefficients assumed known");
/// * `y` — received block, `t × mr` (rows = slots, columns = rx antennas).
///
/// Returns the least-squares (= ML for orthogonal designs) soft symbol
/// estimates; constellation slicing is the caller's job.
pub fn decode_block(code: &Ostbc, h: &CMatrix, y: &CMatrix) -> Vec<Complex> {
    let mut scratch = DecodeScratch::new();
    let mut out = Vec::with_capacity(code.n_symbols());
    decode_block_into(code, h, y, &mut scratch, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::StbcKind;
    use comimo_math::rng::{complex_gaussian, seeded};

    fn random_h(rng: &mut comimo_math::rng::SeededRng, mr: usize, mt: usize) -> CMatrix {
        CMatrix::from_fn(mr, mt, |_, _| complex_gaussian(rng, 1.0))
    }

    fn transmit(code: &Ostbc, h: &CMatrix, syms: &[Complex]) -> CMatrix {
        // Y = X * H^T  (slots x mr)
        let x = code.encode(syms);
        &x * &h.transpose()
    }

    #[test]
    fn noiseless_roundtrip_all_codes() {
        let mut rng = seeded(61);
        for kind in [
            StbcKind::Siso,
            StbcKind::Alamouti,
            StbcKind::G3,
            StbcKind::G4,
            StbcKind::H3,
            StbcKind::H4,
        ] {
            let code = Ostbc::new(kind);
            for mr in 1..=3 {
                for _ in 0..10 {
                    let h = random_h(&mut rng, mr, code.n_tx());
                    let syms: Vec<Complex> = (0..code.n_symbols())
                        .map(|_| complex_gaussian(&mut rng, 1.0))
                        .collect();
                    let y = transmit(&code, &h, &syms);
                    let est = decode_block(&code, &h, &y);
                    for (e, s) in est.iter().zip(&syms) {
                        assert!(e.approx_eq(*s, 1e-8), "{kind:?} mr={mr}: {e} != {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn gram_is_scaled_identity_for_orthogonal_designs() {
        let mut rng = seeded(62);
        for kind in [
            StbcKind::Alamouti,
            StbcKind::G3,
            StbcKind::G4,
            StbcKind::H3,
            StbcKind::H4,
        ] {
            let code = Ostbc::new(kind);
            let h = random_h(&mut rng, 2, code.n_tx());
            let m = equivalent_real_matrix(&code, &h);
            let g = m.gram();
            let d0 = g.at(0, 0);
            assert!(d0 > 0.0);
            for i in 0..g.rows {
                for j in 0..g.cols {
                    if i == j {
                        assert!(
                            (g.at(i, j) - d0).abs() < 1e-9 * d0,
                            "{kind:?}: unequal diagonal {} vs {d0}",
                            g.at(i, j)
                        );
                    } else {
                        assert!(
                            g.at(i, j).abs() < 1e-9 * d0,
                            "{kind:?}: off-diagonal {}",
                            g.at(i, j)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solve_real_known_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let a = RealMatrix {
            rows: 2,
            cols: 2,
            data: vec![2.0, 1.0, 1.0, 3.0],
        };
        let x = solve_real(&a, &[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_real_needs_pivoting() {
        // leading zero forces a row swap
        let a = RealMatrix {
            rows: 2,
            cols: 2,
            data: vec![0.0, 1.0, 1.0, 0.0],
        };
        let x = solve_real(&a, &[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_decode_improves_with_snr() {
        // QPSK symbol error rate decreases as noise shrinks
        let mut rng = seeded(63);
        let code = Ostbc::new(StbcKind::Alamouti);
        let qpsk = [
            Complex::new(1.0, 1.0).scale(1.0 / 2f64.sqrt()),
            Complex::new(-1.0, 1.0).scale(1.0 / 2f64.sqrt()),
            Complex::new(-1.0, -1.0).scale(1.0 / 2f64.sqrt()),
            Complex::new(1.0, -1.0).scale(1.0 / 2f64.sqrt()),
        ];
        let mut errs = [0usize; 2];
        let blocks = 400;
        for (trial, &n0) in [0.5, 0.02].iter().enumerate() {
            for _ in 0..blocks {
                let h = random_h(&mut rng, 1, 2);
                let idx: Vec<usize> = (0..2).map(|_| rng.gen_range(0..4usize)).collect();
                let syms: Vec<Complex> = idx.iter().map(|&i| qpsk[i]).collect();
                let mut y = transmit(&code, &h, &syms);
                for slot in 0..y.rows() {
                    for j in 0..y.cols() {
                        y[(slot, j)] += complex_gaussian(&mut rng, n0);
                    }
                }
                let est = decode_block(&code, &h, &y);
                for (e, &i) in est.iter().zip(&idx) {
                    // nearest-neighbour slicing
                    let hat = (0..4)
                        .min_by(|&a, &b| {
                            (*e - qpsk[a])
                                .norm_sqr()
                                .partial_cmp(&(*e - qpsk[b]).norm_sqr())
                                .unwrap()
                        })
                        .unwrap();
                    if hat != i {
                        errs[trial] += 1;
                    }
                }
            }
        }
        assert!(
            errs[1] * 4 < errs[0].max(1),
            "high-noise {} vs low-noise {}",
            errs[0],
            errs[1]
        );
    }

    use rand::Rng;
}
