//! Seeded random sampling for channels and Monte-Carlo validation.
//!
//! All experiment code in this workspace draws randomness through
//! [`SeededRng`] (ChaCha8), so every table and figure in EXPERIMENTS.md is
//! reproducible bit-for-bit from its recorded seed.

use crate::complex::Complex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The workspace-standard deterministic RNG.
pub type SeededRng = ChaCha8Rng;

/// Builds the workspace-standard RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> SeededRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives an independent child stream from a parent seed and a label —
/// used to give each node / trial / antenna pair its own stream without
/// correlation (split-stream discipline).
pub fn derive(seed: u64, label: u64) -> SeededRng {
    // SplitMix64-style mixing keeps child seeds well separated.
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    seeded(z)
}

/// Samples a standard normal via Box–Muller (polar form).
///
/// # Draw-order hazard
///
/// The polar rejection loop consumes a **variable** number of uniforms: each
/// attempt draws two, and an attempt is rejected with probability
/// `1 − π/4 ≈ 21.5%`, so the expected cost is `8/π ≈ 2.546` draws per
/// normal — but any particular call may consume 2, 4, 6, … . Two
/// consequences for derived-stream consumers:
///
/// * the stream position after `n` calls depends on the *values* drawn, so
///   two code paths that draw the same nominal number of normals from
///   clones of one stream do **not** stay in sync unless they make exactly
///   the same calls in the same order;
/// * any refactor that changes this sampler (or interleaves other draws)
///   silently re-randomises every downstream experiment.
///
/// Code that needs a fixed, accountable draw budget must use the batched
/// [`crate::batch::normal_fill`] (exactly 2 uniforms per pair, branch-free)
/// instead. The test `polar_draw_consumption_is_variable_and_pinned` pins
/// this sampler's consumption on a reference seed so an accidental change
/// of its draw order fails loudly rather than silently desyncing streams.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples a circularly-symmetric complex Gaussian `CN(0, variance)` —
/// i.e. each of real/imag parts is `N(0, variance/2)`.
///
/// With `variance = 1` this is the unit-mean-power Rayleigh-fading channel
/// coefficient assumed throughout the paper's Section 2.3.
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, variance: f64) -> Complex {
    let s = (variance / 2.0).sqrt();
    Complex::new(s * standard_normal(rng), s * standard_normal(rng))
}

/// Samples `Gamma(shape k, scale 1)` via Marsaglia–Tsang (with Johnk-style
/// boost for `k < 1`).
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, k: f64) -> f64 {
    assert!(k > 0.0, "gamma shape must be positive");
    if k < 1.0 {
        // boost: X_k = X_{k+1} * U^{1/k}
        let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-300);
        return gamma(rng, k + 1.0) * u.powf(1.0 / k);
    }
    let d = k - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-300);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Uniform factors multiplied together before [`erlang`] takes a log:
/// each factor is at least `2⁻⁵³`, so a full chunk stays at or above
/// `2⁻⁸⁴⁸`, far from the `f64` underflow at `2⁻¹⁰⁷⁴`.
const ERLANG_CHUNK: usize = 16;

/// Samples `Gamma(k, 1)` for integer `k ≥ 1` (the Erlang law) as
/// `−ln ∏(1 − uᵢ)` over exactly `k` uniforms, one `u64` each — a fixed
/// draw budget, unlike the rejection loop of [`gamma`]. The product is
/// logged every [`ERLANG_CHUNK`] factors so it never underflows.
pub fn erlang<R: Rng + ?Sized>(rng: &mut R, k: usize) -> f64 {
    assert!(k >= 1, "erlang shape must be at least 1");
    let mut sum = 0.0;
    let mut left = k;
    while left > 0 {
        let chunk = left.min(ERLANG_CHUNK);
        let mut prod = 1.0f64;
        for _ in 0..chunk {
            prod *= 1.0 - rng.gen::<f64>();
        }
        sum -= prod.ln();
        left -= chunk;
    }
    sum
}

/// Samples an exponential with unit mean.
pub fn exponential_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(0.0f64..1.0);
    -(1.0 - u).ln()
}

/// Samples a point uniformly inside a disc of radius `radius` centred at
/// `(cx, cy)` — the paper's Table 1 places candidate primary receivers
/// "randomly located in a circle centered at St1 with a diameter 300 m".
pub fn uniform_in_disc<R: Rng + ?Sized>(rng: &mut R, cx: f64, cy: f64, radius: f64) -> (f64, f64) {
    let r = radius * rng.gen_range(0.0f64..1.0).sqrt();
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    (cx + r * theta.cos(), cy + r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = derive(42, 1);
        let mut b = derive(42, 2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    /// Counts the `u64`s a sampler pulls from a seeded stream.
    struct CountingRng {
        inner: SeededRng,
        u64s: u64,
    }

    impl rand::RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.u64s += 1;
            self.inner.next_u64()
        }
    }

    /// Pins the polar sampler's draw-order contract (see the
    /// `standard_normal` docs): consumption is variable per call — strictly
    /// more than the 2-per-normal floor over many calls — and its exact
    /// total on a reference seed is frozen so any change to the rejection
    /// loop (which would silently desync every derived-stream consumer)
    /// fails this test instead.
    #[test]
    fn polar_draw_consumption_is_variable_and_pinned() {
        let mut rng = CountingRng {
            inner: seeded(2013),
            u64s: 0,
        };
        let n = 10_000u64;
        for _ in 0..n {
            standard_normal(&mut rng);
        }
        // variable consumption: more than the 2-uniform floor, near the
        // theoretical 8/π ≈ 2.546 per normal
        assert!(rng.u64s > 2 * n, "consumed only {} u64s", rng.u64s);
        let per_normal = rng.u64s as f64 / n as f64;
        assert!(
            (per_normal - 8.0 / std::f64::consts::PI).abs() < 0.05,
            "draws/normal {per_normal}"
        );
        // exact pin for seed 2013: a changed rejection loop or uniform
        // mapping shifts this count and must be caught here
        assert_eq!(rng.u64s, 25_460, "polar draw order changed");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(7);
        let mut st = RunningStats::new();
        for _ in 0..200_000 {
            st.push(standard_normal(&mut rng));
        }
        assert!(st.mean().abs() < 0.01, "mean {}", st.mean());
        assert!((st.variance() - 1.0).abs() < 0.02, "var {}", st.variance());
    }

    #[test]
    fn complex_gaussian_power() {
        let mut rng = seeded(8);
        let mut st = RunningStats::new();
        for _ in 0..100_000 {
            st.push(complex_gaussian(&mut rng, 2.5).norm_sqr());
        }
        assert!((st.mean() - 2.5).abs() < 0.05, "mean power {}", st.mean());
    }

    #[test]
    fn gamma_sampler_matches_moments() {
        let mut rng = seeded(10);
        for &k in &[0.5, 1.0, 3.0, 9.0] {
            let mut st = RunningStats::new();
            for _ in 0..100_000 {
                st.push(gamma(&mut rng, k));
            }
            assert!(
                (st.mean() - k).abs() < 0.06 * k.max(1.0),
                "mean {} for k={k}",
                st.mean()
            );
            assert!(
                (st.variance() - k).abs() < 0.12 * k.max(1.0),
                "var {} for k={k}",
                st.variance()
            );
        }
    }

    #[test]
    fn gamma_sum_of_exponentials() {
        // Gamma(n,1) is the sum of n unit exponentials; compare tail masses
        let mut rng = seeded(11);
        let n = 4;
        let mut hits_direct = 0usize;
        let mut hits_sum = 0usize;
        let trials = 50_000;
        for _ in 0..trials {
            if gamma(&mut rng, n as f64) > 6.0 {
                hits_direct += 1;
            }
            let s: f64 = (0..n).map(|_| exponential_unit(&mut rng)).sum();
            if s > 6.0 {
                hits_sum += 1;
            }
        }
        let p1 = hits_direct as f64 / trials as f64;
        let p2 = hits_sum as f64 / trials as f64;
        assert!((p1 - p2).abs() < 0.01, "tails {p1} vs {p2}");
    }

    #[test]
    fn erlang_passes_a_ks_test_against_the_gamma_cdf() {
        // shapes below, at and across the 16-factor log chunk
        use crate::special::gamma_cdf;
        use crate::stats::ks_statistic;
        let n_obs = 20_000usize;
        let crit = 1.36 / (n_obs as f64).sqrt();
        for k in [1usize, 2, 4, 16, 17, 40] {
            let mut rng = derive(2013, k as u64);
            let xs: Vec<f64> = (0..n_obs).map(|_| erlang(&mut rng, k)).collect();
            let d = ks_statistic(&xs, |x| gamma_cdf(k as f64, x.max(0.0)));
            assert!(d < crit, "k = {k}: D = {d} vs critical {crit}");
            // a shape off by one is a different law and must reject
            let d_wrong = ks_statistic(&xs, |x| gamma_cdf(k as f64 + 1.0, x.max(0.0)));
            assert!(d_wrong > crit, "k = {k}: wrong shape kept, D = {d_wrong}");
        }
    }

    #[test]
    fn erlang_consumes_exactly_k_u64s() {
        // the fixed draw budget the report-word gain relies on: k
        // uniforms, one u64 each, whatever values come out
        let mut rng = CountingRng {
            inner: seeded(2013),
            u64s: 0,
        };
        let mut expected = 0u64;
        for k in (1usize..=40).chain([64, 100]) {
            for _ in 0..50 {
                let x = erlang(&mut rng, k);
                assert!(x.is_finite() && x > 0.0, "k = {k}: {x}");
                expected += k as u64;
                assert_eq!(rng.u64s, expected, "k = {k}");
            }
        }
    }

    #[test]
    fn erlang_chunks_never_underflow_at_the_smallest_factor() {
        // every uniform at its maximum 1 − 2⁻⁵³ makes each factor 2⁻⁵³;
        // chunked logs keep the sum exact where one product would hit 0
        struct MaxRng;
        impl rand::RngCore for MaxRng {
            fn next_u32(&mut self) -> u32 {
                u32::MAX
            }
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let k = 40;
        let x = erlang(&mut MaxRng, k);
        let exact = k as f64 * 53.0 * std::f64::consts::LN_2;
        assert!((x - exact).abs() < 1e-9 * exact, "{x} vs {exact}");
    }

    #[test]
    fn disc_sampler_stays_inside_and_fills() {
        let mut rng = seeded(12);
        let mut inner = 0usize;
        let n = 100_000;
        for _ in 0..n {
            let (x, y) = uniform_in_disc(&mut rng, 1.0, -2.0, 150.0);
            let d2 = (x - 1.0).powi(2) + (y + 2.0).powi(2);
            assert!(d2 <= 150.0f64.powi(2) * (1.0 + 1e-12));
            if d2 < 75.0f64.powi(2) {
                inner += 1;
            }
        }
        // a uniform disc has 1/4 of its mass within half the radius
        let frac = inner as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "inner fraction {frac}");
    }
}
