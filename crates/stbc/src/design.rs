//! Orthogonal design definitions in linear-dispersion form.
//!
//! A code over `k` symbols, `t` slots and `mt` antennas is the matrix
//! `X[τ][i] = Σ_k (A[τ][i][k]·s_k + B[τ][i][k]·s_k*)`; the `A`/`B`
//! coefficient tensors below are the classical Tarokh–Jafarkhani–Calderbank
//! constructions (G2 = Alamouti, G3/G4 rate-1/2, H3/H4 rate-3/4).

use comimo_math::cmatrix::CMatrix;
use comimo_math::complex::Complex;

/// Which orthogonal design to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StbcKind {
    /// Uncoded single-antenna transmission (rate 1).
    Siso,
    /// Alamouti 2-antenna code (rate 1).
    Alamouti,
    /// Tarokh G3: 3 antennas, rate 1/2.
    G3,
    /// Tarokh G4: 4 antennas, rate 1/2.
    G4,
    /// Tarokh H3: 3 antennas, rate 3/4.
    H3,
    /// Tarokh H4: 4 antennas, rate 3/4.
    H4,
}

impl StbcKind {
    /// The full-rate-preferred code for a transmit-cluster of `mt` nodes,
    /// as used by the paper's sweeps (`mt ∈ 1..=4`): SISO, Alamouti, H3, H4.
    pub fn for_antennas(mt: usize) -> Self {
        match mt {
            1 => Self::Siso,
            2 => Self::Alamouti,
            3 => Self::H3,
            4 => Self::H4,
            _ => panic!("no orthogonal design registered for mt = {mt}"),
        }
    }
}

/// An OSTBC in linear-dispersion form.
#[derive(Debug, Clone, PartialEq)]
pub struct Ostbc {
    kind: StbcKind,
    n_tx: usize,
    n_symbols: usize,
    n_slots: usize,
    /// `a[τ][i][k]`: coefficient of `s_k` in entry `(τ, i)` (flattened).
    a: Vec<Complex>,
    /// `b[τ][i][k]`: coefficient of `s_k*` in entry `(τ, i)` (flattened).
    b: Vec<Complex>,
}

impl Ostbc {
    /// Builds the named design.
    pub fn new(kind: StbcKind) -> Self {
        match kind {
            StbcKind::Siso => Self::siso(),
            StbcKind::Alamouti => Self::alamouti(),
            StbcKind::G3 => Self::g3(),
            StbcKind::G4 => Self::g4(),
            StbcKind::H3 => Self::h3(),
            StbcKind::H4 => Self::h4(),
        }
    }

    /// The design used for an `mt`-node transmit cluster (see
    /// [`StbcKind::for_antennas`]).
    pub fn for_antennas(mt: usize) -> Self {
        Self::new(StbcKind::for_antennas(mt))
    }

    /// Which design this is.
    pub fn kind(&self) -> StbcKind {
        self.kind
    }

    /// Number of transmit antennas `mt`.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Number of information symbols per block `k`.
    pub fn n_symbols(&self) -> usize {
        self.n_symbols
    }

    /// Number of time slots per block `t`.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Code rate `k / t`.
    pub fn rate(&self) -> f64 {
        self.n_symbols as f64 / self.n_slots as f64
    }

    #[inline]
    fn idx(&self, slot: usize, ant: usize, sym: usize) -> usize {
        (slot * self.n_tx + ant) * self.n_symbols + sym
    }

    /// Coefficient of `s_k` at `(slot, ant)`.
    pub fn a_coef(&self, slot: usize, ant: usize, sym: usize) -> Complex {
        self.a[self.idx(slot, ant, sym)]
    }

    /// Coefficient of `s_k*` at `(slot, ant)`.
    pub fn b_coef(&self, slot: usize, ant: usize, sym: usize) -> Complex {
        self.b[self.idx(slot, ant, sym)]
    }

    /// Encodes one block of `k` symbols into the `t × mt` transmit matrix
    /// (rows = slots, columns = antennas).
    ///
    /// # Panics
    /// If `symbols.len() != self.n_symbols()`.
    pub fn encode(&self, symbols: &[Complex]) -> CMatrix {
        assert_eq!(symbols.len(), self.n_symbols, "symbol count mismatch");
        CMatrix::from_fn(self.n_slots, self.n_tx, |slot, ant| {
            let mut x = Complex::zero();
            for (k, &s) in symbols.iter().enumerate() {
                x += self.a_coef(slot, ant, k) * s + self.b_coef(slot, ant, k) * s.conj();
            }
            x
        })
    }

    /// In-place counterpart of [`encode`] with a built-in real amplitude
    /// scale: writes `amp·X(s)` into `out` without allocating. The
    /// Monte-Carlo hot path uses this to fuse the `encode` + `scale` pair
    /// of [`crate::sim::simulate_ber`] into one pass.
    ///
    /// [`encode`]: Ostbc::encode
    ///
    /// # Panics
    /// If `symbols.len() != self.n_symbols()`.
    pub fn encode_scaled_into(&self, symbols: &[Complex], amp: f64, out: &mut CMatrix) {
        assert_eq!(symbols.len(), self.n_symbols, "symbol count mismatch");
        assert_eq!(
            (out.rows(), out.cols()),
            (self.n_slots, self.n_tx),
            "output block must be t x mt"
        );
        out.fill_from_fn(|slot, ant| {
            let mut x = Complex::zero();
            for (k, &s) in symbols.iter().enumerate() {
                x += self.a_coef(slot, ant, k) * s + self.b_coef(slot, ant, k) * s.conj();
            }
            x.scale(amp)
        });
    }

    fn blank(kind: StbcKind, n_tx: usize, n_symbols: usize, n_slots: usize) -> Self {
        Self {
            kind,
            n_tx,
            n_symbols,
            n_slots,
            a: vec![Complex::zero(); n_slots * n_tx * n_symbols],
            b: vec![Complex::zero(); n_slots * n_tx * n_symbols],
        }
    }

    fn set_a(&mut self, slot: usize, ant: usize, sym: usize, v: Complex) {
        let i = self.idx(slot, ant, sym);
        self.a[i] = v;
    }

    fn set_b(&mut self, slot: usize, ant: usize, sym: usize, v: Complex) {
        let i = self.idx(slot, ant, sym);
        self.b[i] = v;
    }

    fn siso() -> Self {
        let mut c = Self::blank(StbcKind::Siso, 1, 1, 1);
        c.set_a(0, 0, 0, Complex::one());
        c
    }

    /// Alamouti:
    /// ```text
    /// [  s1   s2 ]
    /// [ -s2*  s1* ]
    /// ```
    fn alamouti() -> Self {
        let one = Complex::one();
        let mut c = Self::blank(StbcKind::Alamouti, 2, 2, 2);
        c.set_a(0, 0, 0, one);
        c.set_a(0, 1, 1, one);
        c.set_b(1, 0, 1, -one);
        c.set_b(1, 1, 0, one);
        c
    }

    /// G3 (rate 1/2): the first three columns of G4.
    fn g3() -> Self {
        let g4 = Self::g4();
        let mut c = Self::blank(StbcKind::G3, 3, 4, 8);
        for slot in 0..8 {
            for ant in 0..3 {
                for sym in 0..4 {
                    c.set_a(slot, ant, sym, g4.a_coef(slot, ant, sym));
                    c.set_b(slot, ant, sym, g4.b_coef(slot, ant, sym));
                }
            }
        }
        c
    }

    /// G4 (rate 1/2):
    /// ```text
    /// [  s1   s2   s3   s4 ]
    /// [ -s2   s1  -s4   s3 ]
    /// [ -s3   s4   s1  -s2 ]
    /// [ -s4  -s3   s2   s1 ]
    /// [  s1*  s2*  s3*  s4* ]
    /// [ -s2*  s1* -s4*  s3* ]
    /// [ -s3*  s4*  s1* -s2* ]
    /// [ -s4* -s3*  s2*  s1* ]
    /// ```
    fn g4() -> Self {
        let one = Complex::one();
        // pattern[slot][ant] = (symbol index 1..=4, sign)
        const PATTERN: [[(usize, f64); 4]; 4] = [
            [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)],
            [(2, -1.0), (1, 1.0), (4, -1.0), (3, 1.0)],
            [(3, -1.0), (4, 1.0), (1, 1.0), (2, -1.0)],
            [(4, -1.0), (3, -1.0), (2, 1.0), (1, 1.0)],
        ];
        let mut c = Self::blank(StbcKind::G4, 4, 4, 8);
        for (slot, row) in PATTERN.iter().enumerate() {
            for (ant, &(sym, sign)) in row.iter().enumerate() {
                c.set_a(slot, ant, sym - 1, one * sign);
                c.set_b(slot + 4, ant, sym - 1, one * sign);
            }
        }
        c
    }

    /// H3 (rate 3/4):
    /// ```text
    /// [  s1        s2        s3/√2                 ]
    /// [ -s2*       s1*       s3/√2                 ]
    /// [  s3*/√2    s3*/√2   (-s1 - s1* + s2 - s2*)/2 ]
    /// [  s3*/√2   -s3*/√2   ( s2 + s2* + s1 - s1*)/2 ]
    /// ```
    fn h3() -> Self {
        let one = Complex::one();
        let r = Complex::real(1.0 / 2f64.sqrt());
        let half = Complex::real(0.5);
        let mut c = Self::blank(StbcKind::H3, 3, 3, 4);
        // slot 0
        c.set_a(0, 0, 0, one);
        c.set_a(0, 1, 1, one);
        c.set_a(0, 2, 2, r);
        // slot 1
        c.set_b(1, 0, 1, -one);
        c.set_b(1, 1, 0, one);
        c.set_a(1, 2, 2, r);
        // slot 2
        c.set_b(2, 0, 2, r);
        c.set_b(2, 1, 2, r);
        c.set_a(2, 2, 0, -half);
        c.set_b(2, 2, 0, -half);
        c.set_a(2, 2, 1, half);
        c.set_b(2, 2, 1, -half);
        // slot 3
        c.set_b(3, 0, 2, r);
        c.set_b(3, 1, 2, -r);
        c.set_a(3, 2, 1, half);
        c.set_b(3, 2, 1, half);
        c.set_a(3, 2, 0, half);
        c.set_b(3, 2, 0, -half);
        c
    }

    /// H4 (rate 3/4): H3 plus a fourth column
    /// ```text
    /// [  s3/√2 ]
    /// [ -s3/√2 ]
    /// [ (-s2 - s2* + s1 - s1*)/2 ]
    /// [ -( s1 + s1* + s2 - s2*)/2 ]
    /// ```
    fn h4() -> Self {
        let h3 = Self::h3();
        let r = Complex::real(1.0 / 2f64.sqrt());
        let half = Complex::real(0.5);
        let mut c = Self::blank(StbcKind::H4, 4, 3, 4);
        for slot in 0..4 {
            for ant in 0..3 {
                for sym in 0..3 {
                    c.set_a(slot, ant, sym, h3.a_coef(slot, ant, sym));
                    c.set_b(slot, ant, sym, h3.b_coef(slot, ant, sym));
                }
            }
        }
        // fourth antenna column
        c.set_a(0, 3, 2, r);
        c.set_a(1, 3, 2, -r);
        c.set_a(2, 3, 0, half);
        c.set_b(2, 3, 0, -half);
        c.set_a(2, 3, 1, -half);
        c.set_b(2, 3, 1, -half);
        c.set_a(3, 3, 0, -half);
        c.set_b(3, 3, 0, -half);
        c.set_a(3, 3, 1, -half);
        c.set_b(3, 3, 1, half);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::{complex_gaussian, seeded};

    fn all_kinds() -> Vec<StbcKind> {
        vec![
            StbcKind::Siso,
            StbcKind::Alamouti,
            StbcKind::G3,
            StbcKind::G4,
            StbcKind::H3,
            StbcKind::H4,
        ]
    }

    #[test]
    fn shapes_and_rates() {
        let expect = [
            (StbcKind::Siso, 1, 1, 1, 1.0),
            (StbcKind::Alamouti, 2, 2, 2, 1.0),
            (StbcKind::G3, 3, 4, 8, 0.5),
            (StbcKind::G4, 4, 4, 8, 0.5),
            (StbcKind::H3, 3, 3, 4, 0.75),
            (StbcKind::H4, 4, 3, 4, 0.75),
        ];
        for (kind, tx, k, t, rate) in expect {
            let c = Ostbc::new(kind);
            assert_eq!(c.n_tx(), tx, "{kind:?}");
            assert_eq!(c.n_symbols(), k, "{kind:?}");
            assert_eq!(c.n_slots(), t, "{kind:?}");
            assert!((c.rate() - rate).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn alamouti_matrix_entries() {
        let c = Ostbc::new(StbcKind::Alamouti);
        let s1 = Complex::new(1.0, 2.0);
        let s2 = Complex::new(-0.5, 0.25);
        let x = c.encode(&[s1, s2]);
        assert!(x[(0, 0)].approx_eq(s1, 1e-12));
        assert!(x[(0, 1)].approx_eq(s2, 1e-12));
        assert!(x[(1, 0)].approx_eq(-s2.conj(), 1e-12));
        assert!(x[(1, 1)].approx_eq(s1.conj(), 1e-12));
    }

    /// Orthogonality: Xᴴ·X = (Σ_k c_k |s_k|²)·I for every orthogonal design.
    #[test]
    fn designs_are_orthogonal() {
        let mut rng = seeded(55);
        for kind in all_kinds() {
            let c = Ostbc::new(kind);
            for _ in 0..20 {
                let syms: Vec<Complex> = (0..c.n_symbols())
                    .map(|_| complex_gaussian(&mut rng, 1.0))
                    .collect();
                let x = c.encode(&syms);
                let g = &x.hermitian() * &x; // mt x mt gram matrix
                                             // diagonal entries equal, off-diagonal zero
                let d0 = g[(0, 0)];
                for i in 0..c.n_tx() {
                    for j in 0..c.n_tx() {
                        if i == j {
                            assert!(
                                g[(i, j)].approx_eq(d0, 1e-9),
                                "{kind:?}: unequal diagonal {:?} vs {:?}",
                                g[(i, j)],
                                d0
                            );
                        } else {
                            assert!(
                                g[(i, j)].abs() < 1e-9,
                                "{kind:?}: off-diagonal {} at ({i},{j})",
                                g[(i, j)].abs()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn g3_is_prefix_of_g4() {
        let g3 = Ostbc::new(StbcKind::G3);
        let g4 = Ostbc::new(StbcKind::G4);
        let mut rng = seeded(56);
        let syms: Vec<Complex> = (0..4).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
        let x3 = g3.encode(&syms);
        let x4 = g4.encode(&syms);
        for slot in 0..8 {
            for ant in 0..3 {
                assert!(x3[(slot, ant)].approx_eq(x4[(slot, ant)], 1e-12));
            }
        }
    }

    #[test]
    fn for_antennas_mapping() {
        assert_eq!(Ostbc::for_antennas(1).kind(), StbcKind::Siso);
        assert_eq!(Ostbc::for_antennas(2).kind(), StbcKind::Alamouti);
        assert_eq!(Ostbc::for_antennas(3).kind(), StbcKind::H3);
        assert_eq!(Ostbc::for_antennas(4).kind(), StbcKind::H4);
    }

    #[test]
    #[should_panic]
    fn for_antennas_rejects_five() {
        let _ = Ostbc::for_antennas(5);
    }
}
