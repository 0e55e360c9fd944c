//! Inversion of the paper's equations (5)–(6): the required received
//! symbol energy `ē_b(p, b, mt, mr)`.
//!
//! The forward map is
//!
//! ```text
//! p(ē) = ε_H { BER_b( γ_b ) },   γ_b = ‖H‖_F²·ē / (N0·mt)
//! ```
//!
//! with `BER_b(γ) = A·Q(√(β·γ))`: `A = (4/b)(1 − 2^{−b/2})`,
//! `β = 3b/(M−1)` for `b ≥ 2` (equation (5)) and `A = 1`, `β = 2` for
//! `b = 1` (equation (6)). For `H` with i.i.d. `CN(0,1)` entries,
//! `‖H‖_F² ∼ Gamma(mt·mr, 1)` has an integer shape, so the channel average
//! is the exact `L = mt·mr` MRC–Rayleigh sum
//! [`rayleigh_mrc_q_average`] at `x = β·ē/(2·N0·mt)`. `ē` is then found by
//! bisection in log-space (the forward map is strictly decreasing in `ē`).
//! Gamma quadrature and Monte-Carlo channel averaging, both in this
//! module's tests, are cross-checks.

use crate::constants::SystemConstants;
use comimo_math::roots::bisect_monotone_decreasing;
use comimo_math::special::{q_function, rayleigh_mrc_q_average};

/// The `(A, β)` of `BER_b(γ) = A·Q(√(β·γ))` in equations (5)–(6).
fn ber_coefficients(b: u32) -> (f64, f64) {
    assert!(b >= 1, "b must be at least 1");
    if b == 1 {
        return (1.0, 2.0);
    }
    let bf = b as f64;
    let m = 2f64.powi(b as i32);
    (
        4.0 / bf * (1.0 - 2f64.powf(-bf / 2.0)),
        3.0 * bf / (m - 1.0),
    )
}

/// Instantaneous (conditional-on-channel) BER of the paper's equations
/// (5)–(6) at per-bit SNR `gamma_b` for constellation size `b`.
pub fn instantaneous_ber(b: u32, gamma_b: f64) -> f64 {
    assert!(gamma_b >= 0.0);
    let (a, beta) = ber_coefficients(b);
    a * q_function((beta * gamma_b).sqrt())
}

/// Deterministic forward map: average BER over the Rayleigh channel for an
/// `mt × mr` STBC link at received symbol energy `ebar` (J) and noise PSD
/// `n0` (J), in closed form.
pub fn average_ber(ebar: f64, b: u32, mt: usize, mr: usize, n0: f64) -> f64 {
    assert!(ebar >= 0.0 && n0 > 0.0);
    assert!(mt >= 1 && mr >= 1);
    let (a, beta) = ber_coefficients(b);
    a * rayleigh_mrc_q_average((mt * mr) as u32, beta * ebar / (2.0 * n0 * mt as f64))
}

/// Relative log-space tolerance on `ē_b`.
const ROOT_TOL: f64 = 1e-10;

/// Solver for `ē_b(p, b, mt, mr)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbarSolver {
    /// Noise PSD `N0` in joules (paper: −171 dBm/Hz).
    pub n0: f64,
}

impl Default for EbarSolver {
    fn default() -> Self {
        Self {
            n0: SystemConstants::paper().n0,
        }
    }
}

impl EbarSolver {
    /// A solver with the paper's `N0`.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Forward map `p(ē)`: [`average_ber`] at this solver's `N0`.
    pub fn forward(&self, ebar: f64, b: u32, mt: usize, mr: usize) -> f64 {
        average_ber(ebar, b, mt, mr, self.n0)
    }

    /// Solves `ē_b(p, b, mt, mr)`: the received symbol energy (J) at which
    /// the channel-averaged BER equals the target `p`.
    ///
    /// # Panics
    /// If `p` is not in `(0, ceiling)` where `ceiling` is the zero-energy
    /// BER (e.g. 0.5 for BPSK) — targets above the ceiling are unreachable.
    pub fn solve(&self, p: f64, b: u32, mt: usize, mr: usize) -> f64 {
        assert!(p > 0.0, "target BER must be positive");
        let ceiling = instantaneous_ber(b, 0.0);
        assert!(
            p < ceiling,
            "target BER {p} is at or above the zero-energy ceiling {ceiling} for b={b}"
        );
        // seed the search at the AWGN (no-fading) requirement, which is
        // always below the fading requirement
        let seed = awgn_seed(p, b, self.n0);
        let root =
            bisect_monotone_decreasing(|e| self.forward(e, b, mt, mr), p, seed, ROOT_TOL, 80)
                .expect("ebar bracket not found: forward map not monotone?");
        root.x
    }
}

/// AWGN-only energy requirement used as the bisection seed: invert
/// `BER_b(γ) = p` for the deterministic channel with `‖H‖² = mt·1`
/// (so `γ = ē/(N0)`).
fn awgn_seed(p: f64, b: u32, n0: f64) -> f64 {
    use comimo_math::special::q_function_inv;
    let gamma = if b == 1 {
        let x = q_function_inv(p.min(0.49));
        x * x / 2.0
    } else {
        let bf = b as f64;
        let m = 2f64.powi(b as i32);
        let coef = 4.0 / bf * (1.0 - 2f64.powf(-bf / 2.0));
        let q = (p / coef).min(0.49);
        let x = q_function_inv(q);
        x * x * (m - 1.0) / (3.0 * bf)
    };
    (gamma * n0).max(1e-24)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::roots::bisect;
    use comimo_math::special::gamma_pdf;

    /// Adaptive Simpson quadrature over `[a, b]` with absolute tolerance
    /// `tol`: the Lyness scheme with the 1/15 Richardson error estimate,
    /// recursion depth bounded at 50.
    fn adaptive_simpson(f: impl Fn(f64) -> f64 + Copy, a: f64, b: f64, tol: f64) -> f64 {
        let fa = f(a);
        let fb = f(b);
        let fm = f(0.5 * (a + b));
        let whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
        adaptive_rec(f, a, b, fa, fb, fm, whole, tol, 50)
    }

    #[allow(clippy::too_many_arguments)]
    fn adaptive_rec(
        f: impl Fn(f64) -> f64 + Copy,
        a: f64,
        b: f64,
        fa: f64,
        fb: f64,
        fm: f64,
        whole: f64,
        tol: f64,
        depth: u32,
    ) -> f64 {
        let m = 0.5 * (a + b);
        let flm = f(0.5 * (a + m));
        let frm = f(0.5 * (m + b));
        let left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
        let right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
        let delta = left + right - whole;
        if depth == 0 || delta.abs() <= 15.0 * tol {
            left + right + delta / 15.0
        } else {
            adaptive_rec(f, a, m, fa, fm, flm, left, tol / 2.0, depth - 1)
                + adaptive_rec(f, m, b, fm, fb, frm, right, tol / 2.0, depth - 1)
        }
    }

    /// `E[f(X)]` for `X ∼ Gamma(k, 1)` and bounded `f`, by adaptive
    /// Simpson over `[0, k + 40√k + 40]`. The support is cut at fixed
    /// points around the bulk of the mass: one adaptive pass over the
    /// whole, mostly flat, interval can pass its error test before it
    /// ever samples the narrow region where the density lives.
    fn gamma_expectation(k: f64, f: impl Fn(f64) -> f64 + Copy, tol: f64) -> f64 {
        let integrand = move |g: f64| gamma_pdf(k, g) * f(g);
        let cuts = [
            0.0,
            0.25 * k,
            0.5 * k,
            k,
            k + 2.0 * k.sqrt(),
            k + 5.0 * k.sqrt(),
            k + 10.0 * k.sqrt() + 5.0,
            k + 40.0 * k.sqrt() + 40.0,
        ];
        let seg_tol = tol / (cuts.len() - 1) as f64;
        cuts.windows(2)
            .map(|w| adaptive_simpson(integrand, w[0], w[1], seg_tol))
            .sum()
    }

    /// The oracle: the channel average by adaptive Gamma quadrature of
    /// the instantaneous BER.
    fn quadrature_ber(ebar: f64, b: u32, mt: usize, mr: usize, n0: f64) -> f64 {
        let scale = ebar / (n0 * mt as f64);
        gamma_expectation((mt * mr) as f64, |g| instantaneous_ber(b, g * scale), 1e-12)
    }

    /// The Monte-Carlo cross-check: the channel average over `samples`
    /// draws of `‖H‖_F² ∼ Gamma(mt·mr, 1)`.
    fn monte_carlo_ber(ebar: f64, b: u32, mt: usize, mr: usize, samples: u32, seed: u64) -> f64 {
        let label = (b as u64) << 32 | (mt as u64) << 16 | mr as u64;
        let mut rng = comimo_math::rng::derive(seed, label);
        let k = (mt * mr) as f64;
        let scale = ebar / (EbarSolver::paper().n0 * mt as f64);
        let acc: f64 = (0..samples)
            .map(|_| instantaneous_ber(b, comimo_math::rng::gamma(&mut rng, k) * scale))
            .sum();
        acc / samples as f64
    }

    #[test]
    fn adaptive_simpson_sin() {
        let got = adaptive_simpson(|x| x.sin(), 0.0, std::f64::consts::PI, 1e-12);
        assert!((got - 2.0).abs() < 1e-10);
    }

    #[test]
    fn adaptive_handles_peaked_integrand() {
        // a narrow Gaussian: ∫ e^{-((x-5)/0.01)²} dx = 0.01·√π
        let got = adaptive_simpson(|x: f64| (-(x - 5.0).powi(2) / 1e-4).exp(), 0.0, 10.0, 1e-14);
        let expect = 0.01 * std::f64::consts::PI.sqrt();
        assert!(
            (got - expect).abs() / expect < 1e-6,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn gamma_expectation_of_identity_is_shape() {
        // E[X] = k for Gamma(k, 1)
        for &k in &[1.0, 2.0, 4.0, 9.0, 16.0] {
            let got = gamma_expectation(k, |g| g, 1e-10);
            assert!((got - k).abs() < 1e-6, "E[X]={got} for k={k}");
        }
    }

    #[test]
    fn gamma_expectation_of_exponential_matches_mgf() {
        // E[e^{-sX}] = (1+s)^{-k}
        let k = 6.0;
        let s = 0.7;
        let got = gamma_expectation(k, |g| (-s * g).exp(), 1e-12);
        let expect = (1.0 + s).powf(-k);
        assert!((got - expect).abs() < 1e-8);
    }

    #[test]
    fn closed_form_matches_quadrature() {
        let n0 = EbarSolver::paper().n0;
        let mut checked = 0;
        for b in 1..=16 {
            for mt in 1..=4 {
                for mr in 1..=4 {
                    // ē/N0 from 10^-1 up in quarter decades; the sweep of a
                    // configuration ends once the oracle's BER falls below
                    // 1e-6, where the quadrature loses the mass near g = 0
                    for k in -4..=40 {
                        let ebar = n0 * 10f64.powf(k as f64 / 4.0);
                        let quad = quadrature_ber(ebar, b, mt, mr, n0);
                        if quad < 1e-6 {
                            break;
                        }
                        let exact = average_ber(ebar, b, mt, mr, n0);
                        let rel = (exact - quad).abs() / quad;
                        assert!(
                            rel <= 1e-5,
                            "b={b} {mt}x{mr} ē/N0=10^{}: closed form {exact:e} vs quadrature {quad:e}",
                            k as f64 / 4.0
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} points checked");
    }

    #[test]
    fn closed_form_meets_the_high_snr_asymptote() {
        // P_L(x) → C(2L−1, L)·(4x)^(−L) as x → ∞
        let x: f64 = 1e8;
        for l in 1..=16u32 {
            let binom: f64 = (0..l)
                .map(|i| (2 * l - 1 - i) as f64 / (i + 1) as f64)
                .product();
            let asymptote = binom * (4.0 * x).powi(-(l as i32));
            let got = rayleigh_mrc_q_average(l, x);
            assert!(
                (got - asymptote).abs() / asymptote < 1e-6,
                "L={l}: {got:e} vs asymptote {asymptote:e}"
            );
        }
    }

    #[test]
    fn siso_solve_matches_the_exact_inverse() {
        // L = 1: p = A·(1−μ)/2, so μ = 1 − 2p/A and x = μ²/(1−μ²)
        let s = EbarSolver::paper();
        for b in [1u32, 2, 4, 8, 16] {
            let (a, beta) = ber_coefficients(b);
            for e in 2..=7 {
                let p = 10f64.powi(-e);
                let one_minus_mu = 2.0 * p / a;
                let mu = 1.0 - one_minus_mu;
                let x = mu * mu / (one_minus_mu * (1.0 + mu));
                let exact = 2.0 * s.n0 * x / beta;
                let got = s.solve(p, b, 1, 1);
                assert!(
                    (got - exact).abs() / exact < 1e-8,
                    "b={b} p={p:e}: solve {got:e} vs exact {exact:e}"
                );
            }
        }
    }

    /// At p = 1e-6 the quadrature under-counts the 2×1 BPSK BER near the
    /// root, so its root is far too low; the closed form's is exact.
    #[test]
    fn low_ber_solve_is_not_under_provisioned() {
        let s = EbarSolver::paper();
        let (p, b, mt, mr) = (1e-6, 1, 2, 1);
        let got = s.solve(p, b, mt, mr);
        // an independent bracket and plain bisection in log-energy
        let reference = bisect(
            |l| average_ber(l.exp(), b, mt, mr, s.n0) - p,
            (s.n0 * 1e-3).ln(),
            (s.n0 * 1e12).ln(),
            1e-12,
        )
        .expect("bracket straddles the target")
        .x
        .exp();
        assert!(
            (got - reference).abs() / reference < 1e-8,
            "solve {got:e} vs bisection {reference:e}"
        );
        let quad_root = bisect_monotone_decreasing(
            |e| quadrature_ber(e, b, mt, mr, s.n0),
            p,
            awgn_seed(p, b, s.n0),
            ROOT_TOL,
            80,
        )
        .expect("quadrature bracket")
        .x;
        assert!(
            got > 2.0 * quad_root,
            "closed form {got:e} vs quadrature {quad_root:e}"
        );
    }

    #[test]
    fn forward_monotone_decreasing_in_energy() {
        let s = EbarSolver::paper();
        let mut prev = 1.0;
        for i in 0..10 {
            let e = 1e-21 * 10f64.powi(i);
            let p = s.forward(e, 2, 2, 2);
            assert!(
                p < prev || (p - prev).abs() < 1e-15,
                "not decreasing at {e}"
            );
            prev = p;
        }
    }

    #[test]
    fn siso_matches_closed_form() {
        // for b=2 the kernel is Q(sqrt(2γ_b)): the SISO average is the
        // L = 1 sum at x = γ̄ = ē/N0
        let s = EbarSolver::paper();
        for &gamma_bar in &[1.0, 10.0, 100.0, 249.0] {
            let ebar = gamma_bar * s.n0;
            let got = s.forward(ebar, 2, 1, 1);
            let expect = rayleigh_mrc_q_average(1, gamma_bar);
            assert!(
                (got - expect).abs() / expect < 1e-6,
                "γ̄={gamma_bar}: {got} vs {expect}"
            );
        }
    }

    /// The paper's own worked number (Section 6.2): for b = 2,
    /// ē_b ≈ 1.90e−18 J for SISO and ≈ 3.20e−20 J for mt=2, mr=3.
    /// Our exact inversion at p = 0.001 must land within ~15 % (the paper
    /// does not state its p for the example; 0.001 is the figure-7 target).
    #[test]
    fn paper_worked_numbers() {
        let s = EbarSolver::paper();
        let siso = s.solve(1e-3, 2, 1, 1);
        assert!(
            (siso - 1.90e-18).abs() / 1.90e-18 < 0.15,
            "SISO ē_b = {siso:e}, paper 1.90e-18"
        );
        // The paper does not state the p behind its 2x3 example; at
        // p = 1e-3 the exact inversion gives 2.0e-20, the same order of
        // magnitude as the quoted 3.20e-20 (the quoted value corresponds to
        // p ≈ 2.5e-3 under this model).
        let mimo = s.solve(1e-3, 2, 2, 3);
        assert!(
            (mimo - 3.20e-20).abs() / 3.20e-20 < 0.5,
            "2x3 ē_b = {mimo:e}, paper 3.20e-20"
        );
        // the headline claim: 2–4 orders of magnitude between SISO and MIMO
        let ratio = siso / mimo;
        assert!(ratio > 30.0 && ratio < 1e4, "SISO/MIMO ratio {ratio}");
    }

    #[test]
    fn solve_roundtrip() {
        let s = EbarSolver::paper();
        for &(p, b, mt, mr) in &[
            (0.005, 1u32, 1usize, 1usize),
            (0.001, 2, 2, 2),
            (0.0005, 4, 3, 1),
            (0.01, 6, 1, 3),
        ] {
            let e = s.solve(p, b, mt, mr);
            let back = s.forward(e, b, mt, mr);
            assert!((back - p).abs() / p < 1e-6, "roundtrip {back} vs {p}");
        }
    }

    #[test]
    fn diversity_reduces_energy() {
        let s = EbarSolver::paper();
        let p = 1e-3;
        let e11 = s.solve(p, 2, 1, 1);
        let e21 = s.solve(p, 2, 2, 1);
        let e12 = s.solve(p, 2, 1, 2);
        let e22 = s.solve(p, 2, 2, 2);
        assert!(e21 < e11);
        assert!(e12 < e11);
        assert!(e22 < e21 && e22 < e12);
        // receive diversity beats transmit diversity (no power split)
        assert!(e12 < e21, "1x2 {e12:e} should beat 2x1 {e21:e}");
    }

    #[test]
    fn stricter_target_needs_more_energy() {
        let s = EbarSolver::paper();
        let loose = s.solve(0.01, 2, 2, 2);
        let tight = s.solve(0.0001, 2, 2, 2);
        assert!(tight > loose);
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let e = EbarSolver::paper().solve(1e-2, 2, 2, 2);
        let p_mc = monte_carlo_ber(e, 2, 2, 2, 200_000, 99);
        assert!(
            (p_mc - 1e-2).abs() / 1e-2 < 0.05,
            "MC {p_mc} vs target 1e-2"
        );
    }

    #[test]
    fn ebar_decreases_with_diversity_across_table() {
        let s = EbarSolver::paper();
        for p in [0.01, 0.001] {
            for b in 1..=16 {
                let e11 = s.solve(p, b, 1, 1);
                let e22 = s.solve(p, b, 2, 2);
                let e44 = s.solve(p, b, 4, 4);
                assert!(e11 > e22 && e22 > e44, "p={p} b={b}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn unreachable_target_panics() {
        // BPSK cannot exceed BER 0.5
        let s = EbarSolver::paper();
        let _ = s.solve(0.6, 1, 1, 1);
    }

    #[test]
    fn b1_uses_equation_six() {
        // instantaneous: b=1 is Q(sqrt(2γ)), and so is QPSK (b=2):
        // coef = (4/2)(1 − 1/2) = 1, arg = sqrt(3·2/3·γ) = sqrt(2γ)
        for &g in &[0.1, 1.0, 4.0] {
            assert!((instantaneous_ber(1, g) - q_function((2.0 * g).sqrt())).abs() < 1e-15);
            assert!((instantaneous_ber(2, g) - q_function((2.0 * g).sqrt())).abs() < 1e-15);
        }
        // at fixed per-bit SNR, denser constellations are more error-prone
        let g = 8.0;
        let mut prev = instantaneous_ber(2, g);
        for b in [4u32, 6, 8] {
            let ber = instantaneous_ber(b, g);
            assert!(ber > prev, "b={b}: {ber} <= {prev}");
            prev = ber;
        }
    }

    #[test]
    fn higher_b_needs_more_energy_per_symbol() {
        let s = EbarSolver::paper();
        let p = 1e-3;
        // b = 1 and b = 2 share the same kernel (Q(√(2γ_b)) in both
        // equations (5) and (6)), so their ē_b coincide exactly; strict
        // growth starts at b = 2.
        let e1 = s.solve(p, 1, 1, 1);
        let e2 = s.solve(p, 2, 1, 1);
        assert!((e1 - e2).abs() / e2 < 1e-6, "b=1 {e1:e} vs b=2 {e2:e}");
        let mut prev = 0.0;
        for b in [2u32, 4, 8, 12] {
            let e = s.solve(p, b, 1, 1);
            assert!(e > prev, "b={b}: {e:e} <= {prev:e}");
            prev = e;
        }
    }
}
