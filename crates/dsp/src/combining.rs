//! Diversity combining of symbol streams.
//!
//! "The equal gain combination is used for overlay systems" (paper,
//! Section 6.4): the receiver hears the same packet over several branches
//! (direct + relayed copies) and combines them before slicing with EGC,
//! the paper's choice (DESIGN.md §5).

use comimo_math::complex::Complex;

/// Equal-gain combining: co-phases each branch (divides out its channel
/// phase) and sums with unit weights. `branches[k]` is the symbol stream of
/// branch `k`; `gains[k]` its (estimated) complex channel gain.
///
/// # Panics
/// If branch lengths differ or counts mismatch.
pub fn egc_combine(branches: &[Vec<Complex>], gains: &[Complex]) -> Vec<Complex> {
    validate(branches, gains);
    let n = branches[0].len();
    let mut out = vec![Complex::zero(); n];
    for (branch, &g) in branches.iter().zip(gains) {
        let phase = if g.abs() > 0.0 {
            g / g.abs()
        } else {
            Complex::one()
        };
        let un_rotate = phase.conj();
        for (o, &s) in out.iter_mut().zip(branch) {
            *o += s * un_rotate;
        }
    }
    out
}

fn validate(branches: &[Vec<Complex>], gains: &[Complex]) {
    assert!(!branches.is_empty(), "need at least one branch");
    assert_eq!(branches.len(), gains.len(), "one gain per branch");
    let n = branches[0].len();
    assert!(
        branches.iter().all(|b| b.len() == n),
        "all branches must have equal length"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::{complex_gaussian, seeded};

    fn make_branches(
        rng: &mut comimo_math::rng::SeededRng,
        symbols: &[Complex],
        gains: &[Complex],
        n0: f64,
    ) -> Vec<Vec<Complex>> {
        gains
            .iter()
            .map(|&g| {
                symbols
                    .iter()
                    .map(|&s| s * g + complex_gaussian(rng, n0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn egc_cophases_branches() {
        // two branches with opposite phases must add constructively
        let sym = [Complex::real(1.0); 4];
        let gains = [
            Complex::from_polar(1.0, 1.0),
            Complex::from_polar(1.0, -2.0),
        ];
        let branches: Vec<Vec<Complex>> = gains
            .iter()
            .map(|&g| sym.iter().map(|&s| s * g).collect())
            .collect();
        let out = egc_combine(&branches, &gains);
        for v in &out {
            assert!((v.re - 2.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn combining_reduces_ber_over_single_branch() {
        // BPSK over 2 Rayleigh branches: EGC beats branch 0 alone
        let mut rng = seeded(101);
        let n = 30_000;
        let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let sym: Vec<Complex> = bits
            .iter()
            .map(|&b| Complex::real(if b { 1.0 } else { -1.0 }))
            .collect();
        let mut errs = [0usize; 2]; // single, egc
        let block = 100;
        for blk in 0..n / block {
            let gains = [
                complex_gaussian(&mut rng, 1.0),
                complex_gaussian(&mut rng, 1.0),
            ];
            let seg = &sym[blk * block..(blk + 1) * block];
            let branches = make_branches(&mut rng, seg, &gains, 0.5);
            let single: Vec<Complex> = branches[0]
                .iter()
                .map(|&s| s * (gains[0] / gains[0].abs()).conj())
                .collect();
            let outs = [single, egc_combine(&branches, &gains)];
            for (e, out) in errs.iter_mut().zip(&outs) {
                for (v, &b) in out.iter().zip(&bits[blk * block..(blk + 1) * block]) {
                    if (v.re > 0.0) != b {
                        *e += 1;
                    }
                }
            }
        }
        assert!(errs[1] < errs[0], "EGC {} vs single {}", errs[1], errs[0]);
    }

    #[test]
    fn zero_gain_branch_is_harmless_for_egc() {
        let sym = vec![Complex::real(1.0)];
        let gains = [Complex::zero(), Complex::real(1.0)];
        let branches = vec![vec![Complex::zero()], vec![Complex::real(1.0)]];
        let out = egc_combine(&branches, &gains);
        assert!((out[0].re - 1.0).abs() < 1e-12);
        let _ = sym;
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = egc_combine(
            &[
                vec![Complex::zero()],
                vec![Complex::zero(), Complex::zero()],
            ],
            &[Complex::one(), Complex::one()],
        );
    }
}
