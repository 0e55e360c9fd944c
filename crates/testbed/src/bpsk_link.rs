//! Packet-level BPSK links with block fading, decode-and-forward relays
//! and equal-gain combining — the machinery behind the overlay
//! experiments (Tables 2 and 3).
//!
//! "The Binary Phase Shift Keying (BPSK) modulation and demodulation are
//! used for overlay and interweave systems. ... The equal gain combination
//! is used for overlay systems." (paper, Section 6.4)
//!
//! Each packet sees an independent channel realisation (indoor Rician with
//! a line-of-sight component plus scatter — people move between packets,
//! not within one) and per-symbol AWGN. The receiver stores the soft
//! symbols of every branch and combines them with EGC before slicing.

use comimo_channel::fading::{FadingChannel, Rician};
use comimo_dsp::combining::egc_combine;
use comimo_dsp::modem::Bpsk;
use comimo_math::batch::complex_gaussian_fill;
use comimo_math::complex::Complex;
use rand::Rng;

/// One received branch: soft symbols plus the channel gain the receiver
/// estimated (from the preamble, modelled as perfect).
#[derive(Debug, Clone)]
pub struct Branch {
    /// Soft received symbols.
    pub symbols: Vec<Complex>,
    /// Estimated complex channel gain.
    pub gain: Complex,
}

/// Transmits BPSK symbols over one block-fading link at mean SNR
/// `snr_mean` (linear, per symbol); returns the received branch.
pub fn transmit_bpsk<R: Rng>(rng: &mut R, bits: &[bool], snr_mean: f64, k_factor: f64) -> Branch {
    assert!(snr_mean > 0.0);
    let symbols = Bpsk.modulate(bits);
    let ch = Rician::new(k_factor, snr_mean, 0.0);
    // batched draws throughout: the gain comes off the channel's bulk
    // filler and the per-symbol AWGN is one planar fill (fixed
    // two-uniforms-per-sample budget) instead of a polar rejection loop
    // per symbol
    let mut gain_buf = [Complex::zero(); 1];
    ch.fill_coeffs(rng, &mut gain_buf);
    let gain = gain_buf[0];
    // unit noise variance: the channel gain carries the SNR
    let n = symbols.len();
    let mut noise_re = vec![0.0; n];
    let mut noise_im = vec![0.0; n];
    complex_gaussian_fill(rng, 1.0, &mut noise_re, &mut noise_im);
    let received: Vec<Complex> = symbols
        .iter()
        .zip(noise_re.iter().zip(&noise_im))
        .map(|(&s, (&nr, &ni))| s * gain + Complex::new(nr, ni))
        .collect();
    Branch {
        symbols: received,
        gain,
    }
}

/// Slices one branch alone (co-phased) into bits.
pub fn decode_single(branch: &Branch) -> Vec<bool> {
    let phase = if branch.gain.abs() > 0.0 {
        (branch.gain / branch.gain.abs()).conj()
    } else {
        Complex::one()
    };
    let rotated: Vec<Complex> = branch.symbols.iter().map(|&s| s * phase).collect();
    Bpsk.demodulate(&rotated)
}

/// Equal-gain-combines several branches and slices into bits.
///
/// The physical receiver hears each branch in its own time slot behind an
/// AGC, so the soft symbols it stores are normalised to unit received
/// power (signal `|g|²` plus unit noise); the combiner therefore weights
/// every branch **equally** (co-phase + unit sum) rather than by its raw
/// channel amplitude. Without this front-end model a single hot relay
/// branch dominates the decision and its decode-and-forward errors wipe
/// out the diversity gain — the paper's Table-3 ordering (3 relays beat 1)
/// only emerges with per-branch AGC. Power (not amplitude) normalisation
/// also bounds a deeply faded branch at unit-power noise instead of
/// amplifying it without limit.
pub fn decode_egc(branches: &[Branch]) -> Vec<bool> {
    assert!(!branches.is_empty());
    let streams: Vec<Vec<Complex>> = branches
        .iter()
        .map(|b| {
            // unit noise variance by construction in `transmit_bpsk`
            let amp = (b.gain.norm_sqr() + 1.0).sqrt();
            b.symbols.iter().map(|&s| s / Complex::real(amp)).collect()
        })
        .collect();
    let gains: Vec<Complex> = branches.iter().map(|b| b.gain).collect();
    Bpsk.demodulate(&egc_combine(&streams, &gains))
}

/// A decode-and-forward relay: decodes its received branch and re-encodes
/// the decision bits (errors and all — the DF error-propagation path the
/// real testbed has).
pub fn decode_and_forward<R: Rng>(
    rng: &mut R,
    incoming: &Branch,
    snr_mean_out: f64,
    k_factor: f64,
) -> Branch {
    let decisions = decode_single(incoming);
    transmit_bpsk(rng, &decisions, snr_mean_out, k_factor)
}

/// Counts the BER of decoded bits against the transmitted ones.
pub fn ber(sent: &[bool], decoded: &[bool]) -> f64 {
    comimo_dsp::bits::count_bit_errors(sent, &decoded[..sent.len().min(decoded.len())]) as f64
        / sent.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_dsp::bits::pn_sequence;
    use comimo_math::rng::seeded;

    /// Indoor K-factor: strong LOS over 2 m, moderated by clutter.
    const INDOOR_K_FACTOR: f64 = 3.0;

    fn run_link(snr_db: f64, n_bits: usize, seed: u64) -> f64 {
        let mut rng = seeded(seed);
        let bits = pn_sequence(5, n_bits);
        let snr = comimo_math::db::db_to_lin(snr_db);
        // average over many short packets (block fading)
        let mut errs = 0u64;
        let per_pkt = 500;
        for chunk in bits.chunks(per_pkt) {
            let b = transmit_bpsk(&mut rng, chunk, snr, INDOOR_K_FACTOR);
            let dec = decode_single(&b);
            errs += comimo_dsp::bits::count_bit_errors(chunk, &dec[..chunk.len()]);
        }
        errs as f64 / bits.len() as f64
    }

    #[test]
    fn ber_decreases_with_snr() {
        let low = run_link(2.0, 40_000, 1);
        let high = run_link(12.0, 40_000, 2);
        assert!(low > 0.02, "low-SNR BER {low}");
        assert!(high < low / 3.0, "high {high} vs low {low}");
    }

    #[test]
    fn noiseless_like_regime_is_clean() {
        let ber = run_link(30.0, 20_000, 3);
        assert!(ber < 1e-3, "BER {ber}");
    }

    #[test]
    fn egc_of_two_branches_beats_one() {
        let mut rng = seeded(4);
        let bits = pn_sequence(9, 60_000);
        let snr = comimo_math::db::db_to_lin(5.0);
        let mut errs_single = 0u64;
        let mut errs_egc = 0u64;
        for chunk in bits.chunks(500) {
            let b1 = transmit_bpsk(&mut rng, chunk, snr, INDOOR_K_FACTOR);
            let b2 = transmit_bpsk(&mut rng, chunk, snr, INDOOR_K_FACTOR);
            let d1 = decode_single(&b1);
            let dc = decode_egc(&[b1, b2]);
            errs_single += comimo_dsp::bits::count_bit_errors(chunk, &d1[..chunk.len()]);
            errs_egc += comimo_dsp::bits::count_bit_errors(chunk, &dc[..chunk.len()]);
        }
        assert!(
            errs_egc * 2 < errs_single,
            "EGC {errs_egc} vs single {errs_single}"
        );
    }

    #[test]
    fn df_relay_propagates_and_then_fixes_errors() {
        // a relay fed by a clean link forwards almost perfectly; fed by a
        // bad link it cannot do better than its own decode
        let mut rng = seeded(5);
        let bits = pn_sequence(21, 20_000);
        let clean = comimo_math::db::db_to_lin(25.0);
        let bad = comimo_math::db::db_to_lin(0.0);
        let mut errs_clean_feed = 0u64;
        let mut errs_bad_feed = 0u64;
        for chunk in bits.chunks(500) {
            let feed_clean = transmit_bpsk(&mut rng, chunk, clean, INDOOR_K_FACTOR);
            let relayed = decode_and_forward(&mut rng, &feed_clean, clean, INDOOR_K_FACTOR);
            let d = decode_single(&relayed);
            errs_clean_feed += comimo_dsp::bits::count_bit_errors(chunk, &d[..chunk.len()]);

            let feed_bad = transmit_bpsk(&mut rng, chunk, bad, INDOOR_K_FACTOR);
            let relayed2 = decode_and_forward(&mut rng, &feed_bad, clean, INDOOR_K_FACTOR);
            let d2 = decode_single(&relayed2);
            errs_bad_feed += comimo_dsp::bits::count_bit_errors(chunk, &d2[..chunk.len()]);
        }
        assert!(errs_clean_feed < 50, "clean feed errors {errs_clean_feed}");
        assert!(
            errs_bad_feed > errs_clean_feed * 10,
            "bad feed {errs_bad_feed} vs clean {errs_clean_feed}"
        );
    }

    #[test]
    fn ber_helper_counts() {
        let sent = vec![true, false, true, false];
        let dec = vec![true, true, true, false];
        assert!((ber(&sent, &dec) - 0.25).abs() < 1e-12);
    }
}
