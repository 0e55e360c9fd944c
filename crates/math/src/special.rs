//! Special functions: error function family, Gaussian tail `Q(x)`, and the
//! Gamma family.
//!
//! The paper's BER expressions (its equations (5)–(6)) are built on
//! `Q(x)`, and averaging them over the Rayleigh channel requires the
//! `Gamma(k, 1)` density of `‖H‖_F²` for `H` with i.i.d. `CN(0,1)` entries
//! (`k = mt·mr`). Everything here is deterministic double precision.

/// Complementary error function, `erfc(x) = 2/√π ∫_x^∞ e^{-t²} dt`.
///
/// For `|x| ≤ 3` this is `1 − erf(x)` from the rapidly converging Maclaurin
/// series; in the tails it is the rational Chebyshev approximation of
/// W. J. Cody as popularised by Numerical Recipes (`erfcc`), accurate to
/// ~1.2e-7 relative, where the series would lose accuracy to cancellation.
pub fn erfc(x: f64) -> f64 {
    if x.abs() <= 3.0 {
        1.0 - erf_series(x)
    } else {
        erfc_nr(x)
    }
}

/// Error function `erf(x) = 1 - erfc(x)`.
pub fn erf(x: f64) -> f64 {
    if x.abs() <= 3.0 {
        erf_series(x)
    } else {
        1.0 - erfc_nr(x)
    }
}

/// Maclaurin/Taylor series for erf, reliable for |x| ≤ ~4.
fn erf_series(x: f64) -> f64 {
    // erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 0usize;
    loop {
        n += 1;
        term *= -x2 / n as f64;
        let add = term / (2 * n + 1) as f64;
        sum += add;
        if add.abs() < 1e-17 * sum.abs().max(1e-300) || n > 200 {
            break;
        }
    }
    two_over_sqrt_pi * sum
}

/// Horner's rule from the innermost term out:
/// `c[n−1] + x·(… + x·(c[1] + x·(c[0] + x·inner)))`, with `coeffs`
/// listed innermost first. One fold serves every polynomial kernel of the
/// crate, so each one's operation order is this loop and its table.
#[inline(always)]
pub(crate) fn horner(x: f64, inner: f64, coeffs: &[f64]) -> f64 {
    coeffs.iter().fold(inner, |acc, &c| c + x * acc)
}

/// The Cody/NR polynomial in `t` of [`erfc_nr`], innermost first. The
/// last entry, the constant term, is added to `−z²` before the rest of
/// the polynomial.
const ERFC_NR: [f64; 10] = [
    0.17087277,
    -0.82215223,
    1.48851587,
    -1.13520398,
    0.27886807,
    -0.18628806,
    0.09678418,
    0.37409196,
    1.00002368,
    -1.26551223,
];

/// Cody/NR rational approximation for erfc; good to ~1.2e-7, used in tails
/// where the series loses accuracy to cancellation.
fn erfc_nr(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let tail = horner(t, ERFC_NR[0], &ERFC_NR[1..9]);
    let ans = t * ((-z * z + ERFC_NR[9]) + t * tail).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian tail function `Q(x) = P(N(0,1) > x) = erfc(x/√2)/2`.
///
/// This is the `Q(·)` in the paper's equations (5)–(6).
#[inline]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Exact Rayleigh average `E[Q(√(2x·G))]` for `G ∼ Gamma(L, 1)`, the
/// `L`-branch MRC (or `mt·mr` OSTBC) error rate at per-branch SNR `x`
/// (Proakis, eq. 14.4-15):
///
/// ```text
/// P_L(x) = ((1−μ)/2)^L · Σ_{l<L} C(L−1+l, l)·((1+μ)/2)^l,   μ = √(x/(1+x))
/// ```
///
/// `1 − μ` is evaluated as `1/((1+x)(1+μ))`, so no precision is lost to
/// cancellation at high SNR.
pub fn rayleigh_mrc_q_average(l: u32, x: f64) -> f64 {
    assert!(l >= 1 && x >= 0.0);
    let mu = (x / (1.0 + x)).sqrt();
    let lower = 0.5 / ((1.0 + x) * (1.0 + mu));
    let upper = 0.5 * (1.0 + mu);
    // term_l = C(L−1+l, l)·upper^l, built from term_{l−1}
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..l {
        term *= (l - 1 + i) as f64 / i as f64 * upper;
        sum += term;
    }
    lower.powi(l as i32) * sum
}

/// Inverse of [`q_function`]: returns `x` such that `Q(x) = p`, `p ∈ (0,1)`.
///
/// Implemented via the Acklam/Wichura-style rational approximation to the
/// inverse normal CDF, refined with two Newton steps.
pub fn q_function_inv(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "q_function_inv needs p in (0,1), got {p}"
    );
    // Q(x) = p  <=>  x = -Phi^{-1}(p) where Phi is the standard normal CDF
    let mut x = -inv_norm_cdf(p);
    // Newton refinement on f(x) = Q(x) - p; f'(x) = -phi(x)
    for _ in 0..3 {
        let phi = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        if phi < 1e-300 {
            break;
        }
        x -= (p - q_function(x)) / phi;
    }
    x
}

/// Acklam's rational approximation to the inverse standard normal CDF.
fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Natural log of the Gamma function, Lanczos approximation (g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma needs x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // reflection formula
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Probability density of `Gamma(shape k, scale 1)` at `x`:
/// `x^{k-1} e^{-x} / Γ(k)`.
///
/// For `H` an `mr × mt` matrix of i.i.d. `CN(0,1)` entries (unit-mean-power
/// Rayleigh fading), `‖H‖_F²` is the sum of `mt·mr` unit-mean exponentials,
/// i.e. `Gamma(mt·mr, 1)` — the averaging density `ε_H{·}` of the paper's
/// equations (5)–(6).
pub fn gamma_pdf(k: f64, x: f64) -> f64 {
    assert!(k > 0.0, "gamma_pdf needs shape > 0");
    if x < 0.0 {
        return 0.0;
    }
    if x == 0.0 {
        return if k < 1.0 {
            f64::INFINITY
        } else if k == 1.0 {
            1.0
        } else {
            0.0
        };
    }
    ((k - 1.0) * x.ln() - x - ln_gamma(k)).exp()
}

/// Regularized lower incomplete gamma `P(k, x) = γ(k,x)/Γ(k)` — the CDF of
/// `Gamma(k, 1)`. Series expansion for `x < k+1`, continued fraction
/// otherwise (Numerical Recipes `gammp`).
pub fn gamma_cdf(k: f64, x: f64) -> f64 {
    assert!(k > 0.0 && x >= 0.0, "gamma_cdf domain error: k={k}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < k + 1.0 {
        // series representation
        let mut ap = k;
        let mut sum = 1.0 / k;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (k * x.ln() - x - ln_gamma(k)).exp()
    } else {
        // continued fraction for Q(k,x), then P = 1 - Q
        let mut b = x + 1.0 - k;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - k);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        1.0 - h * (k * x.ln() - x - ln_gamma(k)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_anchors() {
        // reference values from tables
        assert!((erfc(0.0) - 1.0).abs() < 1e-12);
        assert!((erfc(1.0) - 0.157_299_207_050_285).abs() < 1e-10);
        assert!((erfc(2.0) - 0.004_677_734_981_063_1).abs() < 1e-10);
        assert!((erfc(-1.0) - 1.842_700_792_949_715).abs() < 1e-10);
    }

    #[test]
    fn erf_odd_symmetry() {
        for &x in &[0.1, 0.7, 1.3, 2.9, 4.5] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn q_function_anchors() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-12);
        // Q(1) ≈ 0.158655, Q(3) ≈ 1.3499e-3, Q(6) ≈ 9.8659e-10
        assert!((q_function(1.0) - 0.158_655_253_931_457).abs() < 1e-10);
        assert!((q_function(3.0) - 1.349_898_031_630_09e-3).abs() < 1e-12);
        assert!((q_function(6.0) - 9.865_9e-10).abs() / 9.8659e-10 < 1e-3);
    }

    #[test]
    fn rayleigh_mrc_average_anchors() {
        // zero SNR is a coin flip for every diversity order
        for l in 1..=16 {
            assert!((rayleigh_mrc_q_average(l, 0.0) - 0.5).abs() < 1e-15);
        }
        // L = 1: ½(1 − √(x/(1+x)))
        for x in [0.1f64, 1.0, 10.0, 249.0] {
            let siso = 0.5 * (1.0 - (x / (1.0 + x)).sqrt());
            assert!((rayleigh_mrc_q_average(1, x) - siso).abs() / siso < 1e-12);
        }
    }

    #[test]
    fn q_inverse_roundtrip() {
        for &p in &[0.4, 0.1, 1e-2, 1e-3, 1e-5, 1e-8] {
            let x = q_function_inv(p);
            assert!(
                (q_function(x) - p).abs() / p < 1e-9,
                "roundtrip failed at p={p}: Q({x}) = {}",
                q_function(x)
            );
        }
    }

    #[test]
    fn q_is_monotone_decreasing() {
        let mut prev = q_function(-5.0);
        let mut x = -5.0;
        while x < 6.0 {
            x += 0.05;
            let q = q_function(x);
            assert!(q < prev, "Q not strictly decreasing at x={x}");
            prev = q;
        }
    }

    #[test]
    fn gamma_anchors() {
        let gamma = |x: f64| ln_gamma(x).exp();
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn gamma_pdf_integrates_to_one() {
        // crude Riemann check for a few shapes
        for &k in &[1.0f64, 2.0, 4.0, 9.0, 16.0] {
            let dx = 0.001;
            let mut s = 0.0;
            let mut x = dx / 2.0;
            while x < k + 40.0 * k.sqrt() {
                s += gamma_pdf(k, x) * dx;
                x += dx;
            }
            assert!((s - 1.0).abs() < 1e-3, "pdf mass {s} for k={k}");
        }
    }

    #[test]
    fn gamma_cdf_matches_pdf_integral() {
        let k = 6.0;
        for &x in &[0.5, 2.0, 6.0, 12.0, 30.0] {
            let dx = 5e-4;
            let mut s = 0.0;
            let mut t = dx / 2.0;
            while t < x {
                s += gamma_pdf(k, t) * dx;
                t += dx;
            }
            assert!(
                (s - gamma_cdf(k, x)).abs() < 2e-4,
                "cdf mismatch at x={x}: integral {s} vs cdf {}",
                gamma_cdf(k, x)
            );
        }
    }

    #[test]
    fn gamma_cdf_exponential_special_case() {
        // Gamma(1,1) is Exp(1): CDF = 1 - e^{-x}
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert!((gamma_cdf(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }
}
