//! Per-SU energy detection.
//!
//! Each secondary user integrates `N` complex baseband samples and
//! compares the normalized energy `T = Σ|x_i|²` (noise power normalized
//! to 1) against a threshold `λ`. With circularly-symmetric Gaussian
//! noise each `|x_i|²` is `Exp(1)`, so
//!
//! * under `H0` (channel idle): `T ~ Gamma(N, 1)`, giving
//!   `Pfa = 1 − P(N, λ)` with `P` the regularized lower incomplete gamma
//!   ([`comimo_math::special::gamma_cdf`]);
//! * under `H1` with a Gaussian primary signal at linear SNR `γ`:
//!   `|x_i|² ~ Exp` with mean `1 + γ`, so `T ~ Gamma(N, 1 + γ)` and
//!   `Pd = 1 − P(N, λ / (1 + γ))`.
//!
//! (This is the chi-square test in its gamma form: `2T ~ χ²(2N)` under
//! `H0`.) The constant-false-alarm-rate threshold inverts the `Pfa`
//! expression by bisection.

use comimo_math::rng::gamma;
use comimo_math::roots::bisect;
use comimo_math::special::gamma_cdf;
use rand::Rng;
use serde::Serialize;

/// An `N`-sample energy detector with a fixed decision threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyDetector {
    n_samples: usize,
    threshold: f64,
}

impl EnergyDetector {
    /// A detector with an explicit threshold on the normalized statistic.
    pub fn new(n_samples: usize, threshold: f64) -> Self {
        assert!(n_samples >= 1, "energy detector needs at least one sample");
        assert!(threshold >= 0.0 && threshold.is_finite());
        Self {
            n_samples,
            threshold,
        }
    }

    /// The constant-false-alarm-rate detector: the threshold solving
    /// `Pfa(λ) = target_pfa` exactly (bisection on the gamma CDF).
    pub fn from_target_pfa(n_samples: usize, target_pfa: f64) -> Self {
        assert!(n_samples >= 1);
        assert!(
            (0.0..1.0).contains(&target_pfa) && target_pfa > 0.0,
            "target Pfa must be in (0, 1), got {target_pfa}"
        );
        let n = n_samples as f64;
        let f = |lam: f64| (1.0 - gamma_cdf(n, lam)) - target_pfa;
        // Pfa(0) = 1 > target; grow the upper bracket until Pfa < target
        let mut hi = n + 10.0 * n.sqrt() + 10.0;
        while f(hi) > 0.0 {
            hi *= 2.0;
        }
        let root = bisect(f, 0.0, hi, 1e-12).expect("Pfa is monotone in the threshold");
        Self::new(n_samples, root.x)
    }

    /// Samples per decision.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// The decision threshold on the normalized energy statistic.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Exact false-alarm probability `P(T > λ | H0)`.
    pub fn pfa(&self) -> f64 {
        1.0 - gamma_cdf(self.n_samples as f64, self.threshold)
    }

    /// Exact detection probability `P(T > λ | H1)` at linear SNR `snr`.
    pub fn pd(&self, snr: f64) -> f64 {
        assert!(snr >= 0.0);
        1.0 - gamma_cdf(self.n_samples as f64, self.threshold / (1.0 + snr))
    }

    /// Draws one energy statistic at linear SNR `snr` (`0.0` for `H0`):
    /// the sum of `n_samples` sample energies drawn at once as its exact
    /// law, one `Gamma(N, 1)` variate scaled by `1 + snr`. The draws
    /// never see `snr`, so the stream advances identically whichever
    /// hypothesis is active.
    pub fn sample_statistic<R: Rng + ?Sized>(&self, rng: &mut R, snr: f64) -> f64 {
        assert!(snr >= 0.0);
        gamma(rng, self.n_samples as f64) * (1.0 + snr)
    }

    /// The threshold test: `true` means "busy" (`H1` declared).
    pub fn decide(&self, statistic: f64) -> bool {
        statistic > self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::{derive, exponential_unit};
    use comimo_math::stats::{ks_statistic, ks_two_sample};

    /// The sample-by-sample statistic `sample_statistic` replaced: `N`
    /// unit exponentials, each scaled by `1 + snr`, summed.
    fn statistic_by_samples(det: &EnergyDetector, rng: &mut impl Rng, snr: f64) -> f64 {
        let scale = 1.0 + snr;
        (0..det.n_samples())
            .map(|_| exponential_unit(rng) * scale)
            .sum()
    }

    #[test]
    fn gamma_statistic_matches_the_sample_by_sample_oracle() {
        // two-sample KS at the 1 % level (1.63·sqrt(2/n)): over 8 cells
        // a 5 % level would flag a true match a third of the time
        let n_obs = 20_000usize;
        let crit = 1.63 * (2.0 / n_obs as f64).sqrt();
        for n in [1usize, 2, 16, 32] {
            let det = EnergyDetector::new(n, n as f64);
            for snr in [0.0, 1.5] {
                let mut rng = derive(2013, (n as u64) << 8 | (snr > 0.0) as u64);
                let direct: Vec<f64> = (0..n_obs)
                    .map(|_| det.sample_statistic(&mut rng, snr))
                    .collect();
                let oracle: Vec<f64> = (0..n_obs)
                    .map(|_| statistic_by_samples(&det, &mut rng, snr))
                    .collect();
                let d = ks_two_sample(&direct, &oracle);
                assert!(d < crit, "N={n} snr={snr}: D = {d} vs critical {crit}");
                // power: a 10 % scale error must not pass
                let off: Vec<f64> = oracle.iter().map(|x| x * 1.1).collect();
                let d_off = ks_two_sample(&direct, &off);
                assert!(d_off > crit, "N={n} snr={snr}: 10 % off kept, D = {d_off}");
            }
        }
    }

    #[test]
    fn cfar_threshold_hits_the_target_pfa_exactly() {
        for (n, pfa) in [(1usize, 0.1f64), (10, 0.05), (64, 0.01), (200, 0.001)] {
            let det = EnergyDetector::from_target_pfa(n, pfa);
            assert!(
                (det.pfa() - pfa).abs() < 1e-9,
                "N={n}: Pfa {} vs target {pfa}",
                det.pfa()
            );
        }
    }

    #[test]
    fn single_sample_detector_matches_the_exponential_closed_form() {
        // N = 1: T ~ Exp(1) under H0, so Pfa = e^{-λ}; picking λ = ln 10
        // pins Pfa = 0.1 and Pd = 10^{-1/(1+γ)} exactly
        let lam = 10f64.ln();
        let det = EnergyDetector::new(1, lam);
        assert!((det.pfa() - 0.1).abs() < 1e-12);
        assert!((det.pd(1.0) - 10f64.powf(-0.5)).abs() < 1e-12); // γ = 1
        assert!((det.pd(4.0) - 10f64.powf(-0.2)).abs() < 1e-12); // γ = 4
    }

    #[test]
    fn two_sample_detector_matches_the_erlang_closed_form() {
        // N = 2: P(T > λ) = e^{-λ}(1 + λ) under H0 (Erlang-2 tail), and
        // the same with λ → λ/(1+γ) under H1
        let lam = 4.0;
        let det = EnergyDetector::new(2, lam);
        assert!((det.pfa() - (-lam).exp() * (1.0 + lam)).abs() < 1e-12);
        let s = lam / 4.0; // γ = 3
        assert!((det.pd(3.0) - (-s).exp() * (1.0 + s)).abs() < 1e-12);
    }

    #[test]
    fn empirical_pd_and_pfa_track_the_closed_forms() {
        let det = EnergyDetector::from_target_pfa(16, 0.1);
        let snr = 0.5;
        let trials = 40_000u32;
        let mut rng = derive(2013, 0xD00D);
        let mut fa = 0u32;
        let mut hits = 0u32;
        for _ in 0..trials {
            if det.decide(det.sample_statistic(&mut rng, 0.0)) {
                fa += 1;
            }
            if det.decide(det.sample_statistic(&mut rng, snr)) {
                hits += 1;
            }
        }
        let pfa_hat = f64::from(fa) / f64::from(trials);
        let pd_hat = f64::from(hits) / f64::from(trials);
        assert!((pfa_hat - det.pfa()).abs() < 0.01, "Pfa {pfa_hat}");
        assert!((pd_hat - det.pd(snr)).abs() < 0.01, "Pd {pd_hat}");
    }

    #[test]
    fn h0_statistic_passes_a_ks_test_against_its_chi_square_law() {
        // the H0 statistic must be Gamma(N, 1) — equivalently χ²(2N)/2;
        // a KS test at the 5 % level accepts the true law and rejects the
        // H1 law (scale 1+γ) on the same sample
        let det = EnergyDetector::from_target_pfa(8, 0.1);
        let n_obs = 5_000usize;
        let mut rng = derive(2013, 0x4B53);
        let xs: Vec<f64> = (0..n_obs)
            .map(|_| det.sample_statistic(&mut rng, 0.0))
            .collect();
        let crit = 1.36 / (n_obs as f64).sqrt();
        let d_true = ks_statistic(&xs, |x| gamma_cdf(8.0, x.max(0.0)));
        assert!(d_true < crit, "D = {d_true} vs critical {crit}");
        let d_wrong = ks_statistic(&xs, |x| gamma_cdf(8.0, (x / 1.5).max(0.0)));
        assert!(d_wrong > crit, "wrong law must reject: D = {d_wrong}");
    }

    #[test]
    fn statistic_draw_count_is_hypothesis_independent() {
        // H0 and H1 consume the same number of draws, so a downstream
        // consumer's stream position never depends on the channel state
        let det = EnergyDetector::new(12, 10.0);
        let mut a = derive(7, 1);
        let mut b = derive(7, 1);
        det.sample_statistic(&mut a, 0.0);
        det.sample_statistic(&mut b, 3.0);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
