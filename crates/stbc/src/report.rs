//! BPSK report words over the cooperative long-haul.
//!
//! Cooperative sensing's 1-bit local decisions do not get a magic
//! side-channel to the fusion center: they ride the same virtual-MIMO
//! long-haul as the data (Salvo Rossi et al., "Orthogonality and
//! Cooperation in Collaborative Spectrum Sensing through MIMO Decision
//! Fusion"). Each SU maps its decision onto a BPSK **report word** —
//! `n_blocks` OSTBC-encoded repetitions of the antipodal symbol
//! `s = ±√(es/mt)` — and the fusion center matched-filters each block
//! through the known channel, exactly the statistic the batch decoder
//! computes for an orthogonal design:
//!
//! ```text
//! g_b = Σ_{i,j} |h_ij|²          (diversity gain of block b, mt·mr taps)
//! m_b = g_b·s + w_b,   w_b ~ N(0, g_b·n0/2)
//! LLR = Σ_b 4·m_b·√(es/mt)/n0    (exact for antipodal signalling)
//! ```
//!
//! The soft statistic a [`SoftReport`] carries is that LLR: positive
//! means "busy", its magnitude is the channel's confidence. At
//! `n0 = 0` (report SNR → ∞) the LLR saturates to exactly `±inf`, the
//! posterior [`SoftReport::posterior_busy`] to exactly `1.0`/`0.0` —
//! the report a clean boolean would be ([`SoftReport::saturated`]), so
//! a round at report SNR = +∞ reproduces clean-boolean k-out-of-N
//! fusion count for count.
//!
//! Each block draws two variates from the caller's derived stream: the
//! gain `g_b` as one [`FadingChannel::sample_block_gain`] call over the
//! `mt·mr` taps (exactly `Gamma(mt·mr, P)` under block Rayleigh, one
//! Erlang draw), then the unit noise draw `w_b`. Given `g_b` the matched
//! filter output is Gaussian, so those two draws are the whole law of
//! the block — the individual coefficients never matter.
//!
//! Determinism: the encode/decode is pure scalar math over those draws
//! — the same bits at any thread count and SIMD dispatch tier. The draw
//! sequence depends only on `(mt, mr, n_blocks)` and the stream, never
//! on the transmitted bit or on fault scaling (`gain_scale`, `n0`
//! inflation act *after* the draws), preserving the burn-their-draws
//! discipline of the fault layer.

use comimo_channel::FadingChannel;
use comimo_math::rng::standard_normal;
use rand::Rng;

/// Shape and power of one BPSK report word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportWordConfig {
    /// Transmit antennas of the reporting cluster (symbol energy is
    /// split across them, as in the OSTBC encode path).
    pub mt: usize,
    /// Receive antennas at the fusion center.
    pub mr: usize,
    /// Independent fading blocks the word spans (time diversity).
    pub n_blocks: usize,
    /// Energy per report symbol, normalized so `1.0` is the §3 E_PA
    /// primary-protection ceiling of the full long-haul rung.
    pub es: f64,
    /// One-sided noise spectral density at the fusion center
    /// (`0.0` models an ideal, noiseless report channel).
    pub n0: f64,
}

impl ReportWordConfig {
    /// A word sized for a target report-channel SNR `es/n0` in dB at
    /// full ceiling energy. `snr_db = inf` gives `n0 = 0` — the exact
    /// SNR → ∞ oracle regime.
    pub fn from_report_snr_db(mt: usize, mr: usize, n_blocks: usize, snr_db: f64) -> Self {
        assert!(mt > 0 && mr > 0 && n_blocks > 0);
        let es = 1.0;
        Self {
            mt,
            mr,
            n_blocks,
            es,
            n0: es / comimo_math::db::db_to_lin(snr_db),
        }
    }

    /// Clamps the symbol energy to the admissible E_PA ceiling of the
    /// current long-haul rung (same normalization as
    /// [`Self::es`]) — the §3 primary-protection constraint binds on
    /// report transmissions exactly as it does on data.
    pub fn clamp_es(&mut self, e_pa_ceiling: f64) {
        assert!(e_pa_ceiling >= 0.0);
        self.es = self.es.min(e_pa_ceiling);
    }
}

/// One decoded sensing report: the per-SU soft statistic the fusion
/// center extracts from the long-haul, plus channel accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftReport {
    /// Log-likelihood ratio of "busy" vs "idle" (`±inf` at `n0 = 0`).
    pub llr: f64,
    /// Mean per-block diversity gain `E_b[g_b]` actually realized.
    pub channel_gain: f64,
    /// Effective post-combining report SNR (linear); `inf` at `n0 = 0`.
    pub report_snr: f64,
}

impl SoftReport {
    /// A clean 1-bit decision as a report off a noiseless long-haul:
    /// `llr = ±inf`, so the posterior is exactly `1.0`/`0.0` and the
    /// confidence exactly `1.0`.
    pub fn saturated(bit: bool) -> Self {
        Self {
            llr: if bit {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            },
            channel_gain: 1.0,
            report_snr: f64::INFINITY,
        }
    }

    /// Posterior probability that the reporter sent "busy" (equal
    /// priors): `sigmoid(llr)`, exactly `1.0`/`0.0` at `llr = ±inf`.
    pub fn posterior_busy(&self) -> f64 {
        1.0 / (1.0 + (-self.llr).exp())
    }

    /// Decoder confidence `max(p, 1-p)` ∈ [0.5, 1.0]: how sure the
    /// channel left the fusion center about this reporter's bit.
    pub fn confidence(&self) -> f64 {
        let p = self.posterior_busy();
        p.max(1.0 - p)
    }

    /// Hard decision: the sign of the LLR (`llr = 0` decodes "idle" —
    /// the conservative polarity for a totally uninformative channel).
    pub fn hard_bit(&self) -> bool {
        self.llr > 0.0
    }
}

/// Transmits one 1-bit decision as a BPSK report word over `channel`
/// and decodes the fusion center's soft statistic.
///
/// `gain_scale ∈ [0, 1]` models coherence loss from a phase-desync
/// fault: it scales the realized diversity gain *after* the channel
/// draws (a `0.0` gives an uninformative `llr = 0`, never a stream
/// shift). The `rng` must be a stream derived per `(reporter, round)`.
pub fn transmit_report_word(
    bit: bool,
    gain_scale: f64,
    cfg: &ReportWordConfig,
    channel: &impl FadingChannel,
    rng: &mut impl Rng,
) -> SoftReport {
    assert!(cfg.mt > 0 && cfg.mr > 0 && cfg.n_blocks > 0);
    assert!((0.0..=1.0).contains(&gain_scale));
    assert!(cfg.es >= 0.0 && cfg.n0 >= 0.0);
    let amp = (cfg.es / cfg.mt as f64).sqrt();
    let s = if bit { amp } else { -amp };
    let mut llr = 0.0;
    let mut gain_sum = 0.0;
    for _ in 0..cfg.n_blocks {
        let g = channel.sample_block_gain(rng, cfg.mt * cfg.mr);
        // noise draw happens at full gain so faults burn their draws
        let w = standard_normal(rng);
        let g = g * gain_scale;
        let m = g * s + (g * cfg.n0 / 2.0).sqrt() * w;
        // guard the 0/0 of a fully desynced block at n0 = 0: a zero
        // statistic carries zero evidence, not NaN
        if m != 0.0 {
            llr += 4.0 * amp * m / cfg.n0;
        }
        gain_sum += g;
    }
    let channel_gain = gain_sum / cfg.n_blocks as f64;
    let report_snr = if cfg.n0 == 0.0 {
        f64::INFINITY
    } else {
        channel_gain * cfg.es / (cfg.mt as f64 * cfg.n0)
    };
    SoftReport {
        llr,
        channel_gain,
        report_snr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_channel::{BlockRayleigh, Rician};
    use comimo_math::rng::derive;
    use comimo_math::stats::ks_two_sample;

    fn word(snr_db: f64) -> ReportWordConfig {
        ReportWordConfig::from_report_snr_db(2, 1, 2, snr_db)
    }

    #[test]
    fn infinite_snr_saturates_to_exact_posteriors() {
        let cfg = word(f64::INFINITY);
        assert_eq!(cfg.n0, 0.0);
        let ch = BlockRayleigh::unit();
        for trial in 0..64u64 {
            for bit in [false, true] {
                let mut rng = derive(9, trial);
                let r = transmit_report_word(bit, 1.0, &cfg, &ch, &mut rng);
                assert_eq!(r.llr.is_sign_positive(), bit);
                assert!(r.llr.is_infinite());
                assert_eq!(r.posterior_busy(), if bit { 1.0 } else { 0.0 });
                assert_eq!(r.confidence(), 1.0);
                assert_eq!(r.hard_bit(), bit);
                assert_eq!(r.report_snr, f64::INFINITY);
            }
        }
    }

    #[test]
    fn saturated_reports_are_exact() {
        for bit in [false, true] {
            let r = SoftReport::saturated(bit);
            assert_eq!(r.confidence(), 1.0);
            assert_eq!(r.posterior_busy(), if bit { 1.0 } else { 0.0 });
            assert_eq!(r.hard_bit(), bit);
        }
    }

    #[test]
    fn decode_is_reliable_at_high_snr_and_pure() {
        let cfg = word(20.0);
        let ch = BlockRayleigh::unit();
        let mut wrong = 0;
        for trial in 0..400u64 {
            let bit = trial % 2 == 0;
            let mut rng = derive(3, trial);
            let r = transmit_report_word(bit, 1.0, &cfg, &ch, &mut rng);
            if r.hard_bit() != bit {
                wrong += 1;
            }
            let mut rng2 = derive(3, trial);
            assert_eq!(
                r,
                transmit_report_word(bit, 1.0, &cfg, &ch, &mut rng2),
                "pure function of the derived stream"
            );
        }
        // 2x1 diversity over 2 blocks at 20 dB: errors are rare
        assert!(wrong <= 4, "{wrong}/400 decode errors at 20 dB");
    }

    #[test]
    fn hard_bit_flip_rate_is_the_rayleigh_mrc_closed_form() {
        // the sign of the LLR is the sign of Σ_b m_b = G·s + N(0, G·n0/2)
        // with G = Σ_b g_b ~ Gamma(L), L = n_blocks·mt·mr: the hard bit
        // flips with probability E[Q(√(2G·x))] at x = es/(mt·n0), the
        // L-branch MRC average. Pinned within 4σ of the binomial count
        use comimo_math::special::rayleigh_mrc_q_average;
        let ch = BlockRayleigh::unit();
        let n_obs = 10_000u64;
        let shapes = [
            (1, 1, 1),
            (2, 1, 1),
            (1, 1, 3),
            (2, 2, 1),
            (2, 1, 3),
            (2, 2, 2),
            (2, 1, 8),
            (4, 2, 2),
        ];
        let mut point = 0u64;
        for (mt, mr, n_blocks) in shapes {
            let l = (n_blocks * mt * mr) as u32;
            for snr_db in [-25.0, -15.0, -5.0, 0.0, 5.0, 15.0, 25.0] {
                let cfg = ReportWordConfig::from_report_snr_db(mt, mr, n_blocks, snr_db);
                let eps = rayleigh_mrc_q_average(l, cfg.es / (mt as f64 * cfg.n0));
                let flips = (0..n_obs)
                    .filter(|&trial| {
                        let bit = trial % 2 == 0;
                        let mut rng = derive(0x7E_F11F, point << 32 | trial);
                        transmit_report_word(bit, 1.0, &cfg, &ch, &mut rng).hard_bit() != bit
                    })
                    .count() as f64;
                let expect = n_obs as f64 * eps;
                let sigma = (expect * (1.0 - eps)).sqrt();
                assert!(
                    (flips - expect).abs() <= 4.0 * sigma,
                    "L = {l} ({mt}x{mr}, {n_blocks} blocks) at {snr_db} dB: \
                     {flips} flips vs {expect:.2} ± {sigma:.2}"
                );
                point += 1;
            }
        }
    }

    #[test]
    fn low_snr_erodes_confidence() {
        let ch = BlockRayleigh::unit();
        let mut conf_hi = 0.0;
        let mut conf_lo = 0.0;
        for trial in 0..200u64 {
            let mut rng = derive(5, trial);
            conf_hi += transmit_report_word(true, 1.0, &word(20.0), &ch, &mut rng).confidence();
            let mut rng = derive(5, trial);
            conf_lo += transmit_report_word(true, 1.0, &word(-10.0), &ch, &mut rng).confidence();
        }
        assert!(
            conf_lo < conf_hi,
            "mean confidence must fall with SNR: {conf_lo} vs {conf_hi}"
        );
        assert!(conf_lo / 200.0 < 0.9, "-10 dB cannot look confident");
    }

    #[test]
    fn full_desync_is_uninformative_not_nan() {
        let ch = BlockRayleigh::unit();
        for snr_db in [f64::INFINITY, 10.0] {
            let mut rng = derive(8, 0);
            let r = transmit_report_word(true, 0.0, &word(snr_db), &ch, &mut rng);
            assert_eq!(r.llr, 0.0);
            assert!(!r.llr.is_nan());
            assert_eq!(r.posterior_busy(), 0.5);
            assert_eq!(r.channel_gain, 0.0);
        }
    }

    #[test]
    fn faults_and_bit_value_never_shift_the_stream() {
        // after a transmit, the rng must sit at the same position
        // regardless of the bit sent or the fault scaling applied
        let cfg = word(6.0);
        let ch = BlockRayleigh::unit();
        let mut positions = Vec::new();
        for (bit, scale) in [(true, 1.0), (false, 1.0), (true, 0.25), (false, 0.0)] {
            let mut rng = derive(21, 4);
            transmit_report_word(bit, scale, &cfg, &ch, &mut rng);
            positions.push(rng.gen::<u64>());
        }
        assert!(
            positions.windows(2).all(|w| w[0] == w[1]),
            "draw discipline broke: {positions:?}"
        );
    }

    #[test]
    fn epa_clamp_caps_the_symbol_energy() {
        let mut cfg = word(10.0);
        cfg.clamp_es(0.4);
        assert_eq!(cfg.es, 0.4);
        cfg.clamp_es(0.9);
        assert_eq!(cfg.es, 0.4, "clamp never raises energy");
    }

    /// The coefficient-by-coefficient word `transmit_report_word`
    /// replaced: every block sums `mt·mr` fresh `|h|²` draws, then draws
    /// its noise.
    fn word_by_coeffs(
        bit: bool,
        gain_scale: f64,
        cfg: &ReportWordConfig,
        channel: &impl FadingChannel,
        rng: &mut impl Rng,
    ) -> SoftReport {
        let amp = (cfg.es / cfg.mt as f64).sqrt();
        let s = if bit { amp } else { -amp };
        let mut llr = 0.0;
        let mut gain_sum = 0.0;
        for _ in 0..cfg.n_blocks {
            let mut g = 0.0;
            for _ in 0..cfg.mt * cfg.mr {
                g += channel.sample_coeff(rng).norm_sqr();
            }
            let w = standard_normal(rng);
            let g = g * gain_scale;
            let m = g * s + (g * cfg.n0 / 2.0).sqrt() * w;
            if m != 0.0 {
                llr += 4.0 * amp * m / cfg.n0;
            }
            gain_sum += g;
        }
        let channel_gain = gain_sum / cfg.n_blocks as f64;
        let report_snr = if cfg.n0 == 0.0 {
            f64::INFINITY
        } else {
            channel_gain * cfg.es / (cfg.mt as f64 * cfg.n0)
        };
        SoftReport {
            llr,
            channel_gain,
            report_snr,
        }
    }

    #[test]
    fn coefficient_summing_channels_reproduce_the_oracle_bit_for_bit() {
        // Rician keeps the default block gain, which sums sample_coeff
        // draws: the word must equal the old body on the same stream
        let ch = Rician::indoor_los();
        for (trial, snr_db) in [(0u64, 6.0), (1, 20.0), (2, f64::INFINITY)] {
            let cfg = ReportWordConfig::from_report_snr_db(2, 2, 3, snr_db);
            for (bit, scale) in [(true, 1.0), (false, 0.5)] {
                let a = transmit_report_word(bit, scale, &cfg, &ch, &mut derive(17, trial));
                let b = word_by_coeffs(bit, scale, &cfg, &ch, &mut derive(17, trial));
                assert_eq!(a.llr.to_bits(), b.llr.to_bits());
                assert_eq!(a.channel_gain.to_bits(), b.channel_gain.to_bits());
                assert_eq!(a.report_snr.to_bits(), b.report_snr.to_bits());
            }
        }
    }

    #[test]
    fn rayleigh_word_llr_matches_the_coefficient_oracle_in_law() {
        // the Erlang gain changes the draws, not the law: two-sample KS
        // on the decoded LLR at the 1 % level (1.63·sqrt(2/n)), for the
        // paper's 2x1 two-block word at a noisy and a clean-ish SNR, and
        // a 2x2 word so a gain over mt instead of mt·mr taps shows
        let ch = BlockRayleigh::unit();
        let n_obs = 20_000u64;
        let crit = 1.63 * (2.0 / n_obs as f64).sqrt();
        for (mr, snr_db) in [(1, 0.0), (1, 10.0), (2, 0.0)] {
            let cfg = ReportWordConfig::from_report_snr_db(2, mr, 2, snr_db);
            let (mut direct, mut oracle) = (Vec::new(), Vec::new());
            for trial in 0..n_obs {
                let bit = trial % 2 == 0;
                direct.push(transmit_report_word(bit, 1.0, &cfg, &ch, &mut derive(41, trial)).llr);
                oracle.push(word_by_coeffs(bit, 1.0, &cfg, &ch, &mut derive(42, trial)).llr);
            }
            let d = ks_two_sample(&direct, &oracle);
            assert!(
                d < crit,
                "2x{mr} at {snr_db} dB: D = {d} vs critical {crit}"
            );
        }
    }
}
