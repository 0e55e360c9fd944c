//! Deterministic one-dimensional quadrature.
//!
//! `comimo-energy`'s tests use [`gamma_expectation`] as the oracle for the
//! closed-form channel average
//! `ε_H{BER(γ_b)} = ∫ f_Gamma(g; mt·mr)·BER(g·ē_b/(N0·mt)) dg`
//! of the paper's equations (5)–(6)
//! ([`crate::special::rayleigh_mrc_q_average`]).

/// Composite Simpson rule with `2n` panels over `[a, b]`.
pub fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    assert!(n >= 1, "simpson needs at least one panel pair");
    assert!(b >= a, "simpson needs an ordered interval");
    let m = 2 * n;
    let h = (b - a) / m as f64;
    let mut sum = f(a) + f(b);
    for i in 1..m {
        let x = a + i as f64 * h;
        sum += if i % 2 == 1 { 4.0 * f(x) } else { 2.0 * f(x) };
    }
    sum * h / 3.0
}

/// Adaptive Simpson quadrature over `[a, b]` with absolute tolerance `tol`.
///
/// Classic Lyness scheme with the 1/15 Richardson error estimate; recursion
/// depth is bounded to keep worst-case cost predictable.
pub fn adaptive_simpson(f: impl Fn(f64) -> f64 + Copy, a: f64, b: f64, tol: f64) -> f64 {
    assert!(b >= a, "adaptive_simpson needs an ordered interval");
    assert!(tol > 0.0, "tolerance must be positive");
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
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
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
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

/// Expectation `E[f(X)]` for `X ~ Gamma(shape k, scale 1)`, via adaptive
/// Simpson over a truncated support `[0, k + tail_sigmas·√k + tail_sigmas]`.
///
/// `f` must be bounded on `[0, ∞)` (BER curves are in `[0, 1]`, so the
/// truncation error is bounded by the tail mass, which at 40σ is far below
/// any tolerance used in this workspace).
pub fn gamma_expectation(k: f64, f: impl Fn(f64) -> f64 + Copy, tol: f64) -> f64 {
    assert!(k > 0.0, "gamma_expectation needs a positive shape");
    let upper = k + 40.0 * k.sqrt() + 40.0;
    let integrand = move |g: f64| crate::special::gamma_pdf(k, g) * f(g);
    // The pdf of Gamma(k<1) blows up at 0; start slightly inside for safety.
    let lower = if k < 1.0 { 1e-12 } else { 0.0 };
    // Integrate piecewise: a single adaptive pass over the whole (mostly
    // flat-zero) interval can satisfy its error test before ever sampling the
    // narrow region where the Gamma density lives, so force a segmentation
    // that brackets the bulk of the mass.
    let cuts = [
        lower,
        0.25 * k,
        0.5 * k,
        k,
        k + 2.0 * k.sqrt(),
        k + 5.0 * k.sqrt(),
        k + 10.0 * k.sqrt() + 5.0,
        upper,
    ];
    let mut total = 0.0;
    let seg_tol = tol / (cuts.len() - 1) as f64;
    for w in cuts.windows(2) {
        if w[1] > w[0] {
            total += adaptive_simpson(integrand, w[0], w[1], seg_tol);
        }
    }
    total
}

/// Trapezoid rule with `n` panels (mainly a cross-check in tests).
pub fn trapezoid(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    assert!(n >= 1);
    let h = (b - a) / n as f64;
    let mut sum = 0.5 * (f(a) + f(b));
    for i in 1..n {
        sum += f(a + i as f64 * h);
    }
    sum * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_exact_for_cubics() {
        // Simpson integrates cubics exactly
        let f = |x: f64| 3.0 * x * x * x - x + 2.0;
        let exact = |x: f64| 0.75 * x.powi(4) - 0.5 * x * x + 2.0 * x;
        let got = simpson(f, -1.0, 2.5, 1);
        assert!((got - (exact(2.5) - exact(-1.0))).abs() < 1e-12);
    }

    #[test]
    fn adaptive_simpson_sin() {
        let got = adaptive_simpson(|x| x.sin(), 0.0, std::f64::consts::PI, 1e-12);
        assert!((got - 2.0).abs() < 1e-10);
    }

    #[test]
    fn adaptive_handles_peaked_integrand() {
        // a narrow Gaussian: integral over wide range ≈ sqrt(pi)*sigma... with
        // normalization: ∫ e^{-((x-5)/0.01)²} dx = 0.01·√π
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
    fn trapezoid_converges() {
        let coarse = trapezoid(|x| x * x, 0.0, 1.0, 10);
        let fine = trapezoid(|x| x * x, 0.0, 1.0, 10_000);
        assert!((fine - 1.0 / 3.0).abs() < 1e-8);
        assert!((coarse - 1.0 / 3.0).abs() < 1e-2);
    }
}
