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
//! which is what makes the clean-boolean fusion path a pinned oracle
//! for the soft path.
//!
//! Determinism: the encode/decode is pure scalar math over
//! [`FadingChannel::sample_coeff`] draws from the caller's derived
//! stream — the same bits at any thread count and SIMD dispatch tier.
//! The draw sequence depends only on `(mt, mr, n_blocks)`, never on
//! the transmitted bit or on fault scaling (`gain_scale`, `n0`
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

    /// Complex channel-coefficient draws one word consumes (fixed: the
    /// transmitted bit and any fault scaling never shift the stream).
    pub fn coeff_draws(&self) -> usize {
        self.n_blocks * self.mt * self.mr
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
        let mut g = 0.0;
        for _ in 0..cfg.mt * cfg.mr {
            g += channel.sample_coeff(rng).norm_sqr();
        }
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
    use comimo_channel::BlockRayleigh;
    use comimo_math::rng::derive;

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
        assert_eq!(word(10.0).coeff_draws(), 4);
    }
}
