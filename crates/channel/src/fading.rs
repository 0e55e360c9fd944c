//! Small-scale fading: flat block-Rayleigh and Rician channels.
//!
//! The paper's long-haul links assume "a flat Rayleigh fading channel as
//! those used in \[10\]" (Section 2.3): the channel matrix `H` (size
//! `mr × mt`) has i.i.d. `CN(0,1)` entries, constant over a block (packet)
//! and independent across blocks. The indoor testbed adds a line-of-sight
//! component, modelled here as Rician with configurable K-factor.

use comimo_math::batch::complex_gaussian_fill;
use comimo_math::cmatrix::CMatrix;
use comimo_math::complex::Complex;
use comimo_math::rng::{complex_gaussian, erlang};

/// Coefficients per internal planar scratch chunk of the batched fillers.
const FILL_CHUNK: usize = 64;

/// A generator of per-block channel realisations.
pub trait FadingChannel {
    /// Draws one scalar channel coefficient for a new block.
    fn sample_coeff(&self, rng: &mut dyn rand::RngCore) -> Complex;

    /// Draws an `mr × mt` channel matrix for a new block
    /// (entry `(j, i)` couples transmit antenna `i` to receive antenna `j`).
    fn sample_matrix(&self, rng: &mut dyn rand::RngCore, mr: usize, mt: usize) -> CMatrix {
        assert!(mr > 0 && mt > 0);
        CMatrix::from_fn(mr, mt, |_, _| self.sample_coeff(rng))
    }

    /// Fills `out` with i.i.d. coefficient realisations in one batched
    /// call: one dynamic dispatch per *buffer* instead of one per
    /// coefficient, letting implementations use the bulk samplers of
    /// `comimo_math::batch`.
    ///
    /// The default just loops [`sample_coeff`](Self::sample_coeff)
    /// (draw-compatible with the scalar path); [`BlockRayleigh`] and
    /// [`Rician`] override it with branch-free batched Box–Muller sampling,
    /// whose draw order **differs** from the scalar path's polar rejection
    /// loop (same distribution, different realisation per seed).
    fn fill_coeffs(&self, rng: &mut dyn rand::RngCore, out: &mut [Complex]) {
        for slot in out {
            *slot = self.sample_coeff(rng);
        }
    }

    /// Redraws every entry of `h` for a new block through
    /// [`fill_coeffs`](Self::fill_coeffs) — the batched, allocation-free
    /// counterpart of [`sample_matrix`](Self::sample_matrix) for hot loops
    /// that reuse one matrix across blocks.
    fn fill_matrix(&self, rng: &mut dyn rand::RngCore, h: &mut CMatrix) {
        self.fill_coeffs(rng, h.as_mut_slice());
    }

    /// Draws the diversity gain `Σ|h|²` of one block of `taps` fresh
    /// coefficients — what a matched filter over an orthogonal design
    /// sees. The default sums [`sample_coeff`](Self::sample_coeff)
    /// draws; [`BlockRayleigh`] overrides it with one exact Gamma draw.
    fn sample_block_gain(&self, rng: &mut dyn rand::RngCore, taps: usize) -> f64 {
        let mut g = 0.0;
        for _ in 0..taps {
            g += self.sample_coeff(rng).norm_sqr();
        }
        g
    }

    /// Mean power `E[|h|²]` of a coefficient.
    fn mean_power(&self) -> f64;
}

/// Shared batched scatter kernel: fills `out` with `CN(0, variance)` via
/// planar chunked Box–Muller, then lets `finish` post-process each chunk
/// (e.g. add a line-of-sight component).
fn fill_scatter(
    rng: &mut dyn rand::RngCore,
    variance: f64,
    out: &mut [Complex],
    finish: impl Fn(&mut Complex),
) {
    let mut re = [0.0f64; FILL_CHUNK];
    let mut im = [0.0f64; FILL_CHUNK];
    for chunk in out.chunks_mut(FILL_CHUNK) {
        let n = chunk.len();
        complex_gaussian_fill(rng, variance, &mut re[..n], &mut im[..n]);
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = Complex::new(re[i], im[i]);
            finish(slot);
        }
    }
}

/// Flat block-Rayleigh fading: coefficients are `CN(0, mean_power)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockRayleigh {
    mean_power: f64,
}

impl BlockRayleigh {
    /// Unit-mean-power Rayleigh fading — the paper's assumption.
    pub fn unit() -> Self {
        Self { mean_power: 1.0 }
    }
}

impl FadingChannel for BlockRayleigh {
    fn sample_coeff(&self, rng: &mut dyn rand::RngCore) -> Complex {
        complex_gaussian(rng, self.mean_power)
    }

    fn fill_coeffs(&self, rng: &mut dyn rand::RngCore, out: &mut [Complex]) {
        fill_scatter(rng, self.mean_power, out, |_| {});
    }

    /// Each `|h|²` is exponential with mean `mean_power`, so the block
    /// gain is exactly `Gamma(taps, mean_power)`: one Erlang draw of
    /// `taps` uniforms instead of `taps` polar Gaussian pairs.
    fn sample_block_gain(&self, rng: &mut dyn rand::RngCore, taps: usize) -> f64 {
        self.mean_power * erlang(rng, taps)
    }

    fn mean_power(&self) -> f64 {
        self.mean_power
    }
}

/// Rician fading with K-factor `k` (ratio of line-of-sight power to
/// scattered power) and total mean power `mean_power`:
/// `h = √(K/(K+1))·e^{iφ} + √(1/(K+1))·CN(0,1)`, scaled by `√mean_power`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rician {
    k_factor: f64,
    mean_power: f64,
    los_phase: f64,
}

impl Rician {
    /// Builds a Rician channel with the given K-factor, unit mean power and
    /// a fixed line-of-sight phase.
    pub fn new(k_factor: f64, mean_power: f64, los_phase: f64) -> Self {
        assert!(k_factor >= 0.0 && mean_power > 0.0);
        Self {
            k_factor,
            mean_power,
            los_phase,
        }
    }

    /// A typical strong-LOS indoor channel (K = 6 dB ≈ 4.0).
    pub fn indoor_los() -> Self {
        Self::new(4.0, 1.0, 0.0)
    }

    /// K-factor accessor.
    pub fn k_factor(&self) -> f64 {
        self.k_factor
    }
}

impl FadingChannel for Rician {
    fn sample_coeff(&self, rng: &mut dyn rand::RngCore) -> Complex {
        let k = self.k_factor;
        let los_amp = (self.mean_power * k / (k + 1.0)).sqrt();
        let scatter_power = self.mean_power / (k + 1.0);
        Complex::from_polar(los_amp, self.los_phase) + complex_gaussian(rng, scatter_power)
    }

    fn fill_coeffs(&self, rng: &mut dyn rand::RngCore, out: &mut [Complex]) {
        let k = self.k_factor;
        let los = Complex::from_polar((self.mean_power * k / (k + 1.0)).sqrt(), self.los_phase);
        let scatter_power = self.mean_power / (k + 1.0);
        fill_scatter(rng, scatter_power, out, |c| *c += los);
    }

    fn mean_power(&self) -> f64 {
        self.mean_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::seeded;
    use comimo_math::stats::{ks_two_sample, RunningStats};
    use rand::Rng;

    #[test]
    fn rayleigh_unit_power() {
        let mut rng = seeded(21);
        let ch = BlockRayleigh::unit();
        let mut st = RunningStats::new();
        for _ in 0..100_000 {
            st.push(ch.sample_coeff(&mut rng).norm_sqr());
        }
        assert!((st.mean() - 1.0).abs() < 0.02, "mean power {}", st.mean());
    }

    #[test]
    fn rayleigh_matrix_dims_and_power() {
        let mut rng = seeded(22);
        let ch = BlockRayleigh { mean_power: 2.0 };
        let h = ch.sample_matrix(&mut rng, 3, 4);
        assert_eq!((h.rows(), h.cols()), (3, 4));
        let mut st = RunningStats::new();
        for _ in 0..5_000 {
            st.push(ch.sample_matrix(&mut rng, 3, 4).frobenius_norm_sqr());
        }
        // E[||H||^2] = mr*mt*mean_power = 24
        assert!((st.mean() - 24.0).abs() < 0.5, "{}", st.mean());
    }

    /// The block gain summed coefficient by coefficient — what
    /// `BlockRayleigh::sample_block_gain` replaced with one Erlang draw.
    fn gain_by_coeffs(ch: &impl FadingChannel, rng: &mut impl Rng, taps: usize) -> f64 {
        let mut g = 0.0;
        for _ in 0..taps {
            g += ch.sample_coeff(rng).norm_sqr();
        }
        g
    }

    #[test]
    fn rayleigh_block_gain_matches_the_coefficient_sum_in_law() {
        // two-sample KS at the 1 % level (1.63·sqrt(2/n)), with a power
        // check: a 10 % mean-power error must reject
        let n_obs = 20_000usize;
        let crit = 1.63 * (2.0 / n_obs as f64).sqrt();
        for taps in [1usize, 2, 4, 17] {
            for power in [1.0, 2.0] {
                let ch = BlockRayleigh { mean_power: power };
                let mut rng = seeded(31 + taps as u64 + 100 * power as u64);
                let direct: Vec<f64> = (0..n_obs)
                    .map(|_| ch.sample_block_gain(&mut rng, taps))
                    .collect();
                let summed: Vec<f64> = (0..n_obs)
                    .map(|_| gain_by_coeffs(&ch, &mut rng, taps))
                    .collect();
                let d = ks_two_sample(&direct, &summed);
                assert!(d < crit, "taps {taps} P {power}: D = {d} vs {crit}");
                let off: Vec<f64> = summed.iter().map(|g| g * 1.1).collect();
                let d_off = ks_two_sample(&direct, &off);
                assert!(d_off > crit, "taps {taps} P {power}: 10 % off kept");
            }
        }
    }

    #[test]
    fn default_block_gain_sums_sample_coeff_bit_for_bit() {
        // Rician keeps the trait default: the same stream gives the same
        // bits as summing its coefficients by hand
        let ch = Rician::new(4.0, 1.5, 0.3);
        let mut a = seeded(32);
        let mut b = seeded(32);
        for taps in [1usize, 2, 4, 17] {
            for _ in 0..100 {
                let direct = ch.sample_block_gain(&mut a, taps);
                assert_eq!(
                    direct.to_bits(),
                    gain_by_coeffs(&ch, &mut b, taps).to_bits()
                );
            }
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams stay in step");
    }

    #[test]
    fn fill_matrix_redraws_in_place_with_unit_power() {
        let mut rng = seeded(27);
        let ch = BlockRayleigh::unit();
        let mut h = CMatrix::zeros(4, 4);
        let mut st = RunningStats::new();
        for _ in 0..10_000 {
            ch.fill_matrix(&mut rng, &mut h);
            st.push(h.frobenius_norm_sqr());
        }
        // E[||H||^2] = 16 for a 4x4 unit-Rayleigh draw
        assert!((st.mean() - 16.0).abs() < 0.25, "{}", st.mean());
    }

    #[test]
    fn batched_rayleigh_matches_scalar_distribution() {
        // same mean power and the same amplitude CDF as the scalar sampler
        let ch = BlockRayleigh { mean_power: 2.0 };
        let n = 100_000;
        let mut batched = vec![Complex::zero(); n];
        ch.fill_coeffs(&mut seeded(28), &mut batched);
        let mut rng = seeded(29);
        let mut below_batch = 0usize;
        let mut below_scalar = 0usize;
        let mut st = RunningStats::new();
        for &c in &batched {
            st.push(c.norm_sqr());
            if c.norm_sqr() < 2.0 {
                below_batch += 1;
            }
        }
        for _ in 0..n {
            if ch.sample_coeff(&mut rng).norm_sqr() < 2.0 {
                below_scalar += 1;
            }
        }
        assert!((st.mean() - 2.0).abs() < 0.04, "mean power {}", st.mean());
        let gap = (below_batch as f64 - below_scalar as f64).abs() / n as f64;
        assert!(gap < 0.01, "CDF gap {gap}");
    }

    #[test]
    fn batched_rician_keeps_los_and_power() {
        let ch = Rician::new(4.0, 1.0, 0.3);
        let n = 100_000;
        let mut coeffs = vec![Complex::zero(); n];
        ch.fill_coeffs(&mut seeded(30), &mut coeffs);
        let mut power = RunningStats::new();
        let mut mean = Complex::zero();
        for &c in &coeffs {
            power.push(c.norm_sqr());
            mean += c;
        }
        mean /= Complex::real(n as f64);
        assert!((power.mean() - 1.0).abs() < 0.02, "power {}", power.mean());
        // the deterministic LOS term survives averaging: amp √(K/(K+1)),
        // phase 0.3
        let los_amp = (4.0f64 / 5.0).sqrt();
        assert!(
            (mean.abs() - los_amp).abs() < 0.01,
            "LOS amp {}",
            mean.abs()
        );
        assert!((mean.arg() - 0.3).abs() < 0.01, "LOS phase {}", mean.arg());
    }

    #[test]
    fn rician_mean_power_preserved() {
        let mut rng = seeded(24);
        let ch = Rician::new(4.0, 1.0, 0.3);
        let mut st = RunningStats::new();
        for _ in 0..100_000 {
            st.push(ch.sample_coeff(&mut rng).norm_sqr());
        }
        assert!((st.mean() - 1.0).abs() < 0.02, "mean power {}", st.mean());
    }

    #[test]
    fn rician_k0_is_rayleigh_like() {
        // K = 0: no LOS, the amplitude CDF should match Rayleigh closely
        let mut rng = seeded(25);
        let ch = Rician::new(0.0, 1.0, 0.0);
        let ray = BlockRayleigh::unit();
        let mut below_ric = 0usize;
        let mut below_ray = 0usize;
        let n = 100_000;
        for _ in 0..n {
            if ch.sample_coeff(&mut rng).abs() < 0.5 {
                below_ric += 1;
            }
            if ray.sample_coeff(&mut rng).abs() < 0.5 {
                below_ray += 1;
            }
        }
        let d = (below_ric as f64 - below_ray as f64).abs() / n as f64;
        assert!(d < 0.01, "CDF gap {d}");
    }

    #[test]
    fn rician_high_k_concentrates() {
        let mut rng = seeded(26);
        let ch = Rician::new(100.0, 1.0, 0.0);
        let mut st = RunningStats::new();
        for _ in 0..20_000 {
            st.push(ch.sample_coeff(&mut rng).abs());
        }
        // amplitude should hug 1 with small spread
        assert!((st.mean() - 1.0).abs() < 0.02);
        assert!(st.stddev() < 0.12, "stddev {}", st.stddev());
    }
}
