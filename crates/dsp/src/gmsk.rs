//! Waveform-level GMSK modem.
//!
//! "The Gaussian-filtered Minimum Shift Keying (GMSK) modulation and
//! demodulation are used for underlay systems" (paper Section 6.4); the
//! testbed's GNU Radio chain would be `gmsk_mod`/`gmsk_demod` (BT = 0.35).
//! This is a faithful complex-baseband implementation:
//!
//! * **Modulator**: NRZ bit impulses → Gaussian pulse shaping (unit-area
//!   taps) → frequency pulses → phase integrator with modulation index
//!   `h = 1/2` (±π/2 per symbol) → unit-envelope phasor.
//! * **Demodulator**: quadrature discriminator (`arg(s[n]·s*[n−1])`) →
//!   per-symbol integrate-and-dump → sign decision. Being differential it
//!   is insensitive to the complex channel gain — which is what makes the
//!   paper's two-transmitter underlay cooperation work without carrier
//!   phase alignment.

use crate::fir::Fir;
use comimo_math::complex::Complex;

/// A GMSK modulator/demodulator pair.
#[derive(Debug, Clone)]
pub struct GmskModem {
    sps: usize,
    pulse: Fir,
}

impl GmskModem {
    /// Builds a GMSK modem with bandwidth-time product `bt` and `sps`
    /// samples per symbol (pulse truncated to 4 symbols, GNU Radio's
    /// choice).
    pub fn new(bt: f64, sps: usize) -> Self {
        assert!(sps >= 2, "GMSK needs at least 2 samples/symbol");
        Self {
            sps,
            pulse: Fir::gaussian(bt, sps, 4),
        }
    }

    /// GNU Radio defaults: BT = 0.35, 4 samples/symbol.
    pub fn gnuradio_default() -> Self {
        Self::new(0.35, 4)
    }

    /// Samples per symbol.
    pub fn sps(&self) -> usize {
        self.sps
    }

    /// Modulates a bit stream into unit-envelope complex baseband.
    pub fn modulate(&self, bits: &[bool]) -> Vec<Complex> {
        // NRZ impulse train at symbol instants
        let mut impulses = vec![0.0; bits.len() * self.sps];
        for (k, &b) in bits.iter().enumerate() {
            impulses[k * self.sps] = if b { 1.0 } else { -1.0 };
        }
        // frequency pulses; pulse taps sum to 1 → ±π/2 phase per symbol
        let freq = self.pulse.filter_real(&impulses);
        // integrate phase
        let mut phase = 0.0f64;
        freq.iter()
            .map(|&f| {
                phase += std::f64::consts::FRAC_PI_2 * f;
                Complex::cis(phase)
            })
            .collect()
    }

    /// Demodulates a received complex baseband stream into `n_bits` bits
    /// using a quadrature discriminator and integrate-and-dump.
    ///
    /// The stream must be aligned to the modulator output (the testbed
    /// keeps transmit/receive sample counters in lockstep; over-the-air
    /// timing recovery is out of scope for a packet-level simulator).
    pub fn demodulate(&self, samples: &[Complex], n_bits: usize) -> Vec<bool> {
        // instantaneous frequency
        let mut dphi = Vec::with_capacity(samples.len());
        dphi.push(0.0);
        for w in samples.windows(2) {
            dphi.push((w[1] * w[0].conj()).arg());
        }
        let delay = self.pulse.group_delay();
        let mut bits = Vec::with_capacity(n_bits);
        for k in 0..n_bits {
            // integrate over the symbol window centred on the pulse peak
            let centre = k * self.sps + delay;
            let lo = centre.saturating_sub(self.sps / 2) + 1;
            let hi = (centre + self.sps - self.sps / 2).min(dphi.len().saturating_sub(1));
            let mut acc = 0.0;
            for d in dphi.iter().take(hi + 1).skip(lo) {
                acc += d;
            }
            bits.push(acc > 0.0);
        }
        bits
    }
}

impl Default for GmskModem {
    fn default() -> Self {
        Self::gnuradio_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{count_bit_errors, pn_sequence};
    use comimo_math::rng::{complex_gaussian, seeded};

    #[test]
    fn constant_envelope() {
        let m = GmskModem::gnuradio_default();
        let s = m.modulate(&pn_sequence(3, 200));
        for v in &s {
            assert!((v.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn noiseless_roundtrip() {
        let m = GmskModem::gnuradio_default();
        let bits = pn_sequence(11, 1000);
        let s = m.modulate(&bits);
        let back = m.demodulate(&s, bits.len());
        assert_eq!(count_bit_errors(&bits, &back), 0);
    }

    #[test]
    fn roundtrip_with_random_phase_and_gain() {
        // differential detection shrugs off a complex channel gain
        let m = GmskModem::gnuradio_default();
        let bits = pn_sequence(23, 500);
        let s = m.modulate(&bits);
        let g = Complex::from_polar(0.02, 2.2);
        let faded: Vec<Complex> = s.iter().map(|&v| v * g).collect();
        let back = m.demodulate(&faded, bits.len());
        assert_eq!(count_bit_errors(&bits, &back), 0);
    }

    #[test]
    fn phase_advance_is_half_pi_per_bit() {
        let m = GmskModem::new(0.35, 8);
        // long run of ones: total phase advance over the run ≈ n·π/2
        let n = 64;
        let s = m.modulate(&vec![true; n]);
        // unwrap the phase
        let mut total = 0.0;
        for w in s.windows(2) {
            total += (w[1] * w[0].conj()).arg();
        }
        let expected = n as f64 * std::f64::consts::FRAC_PI_2;
        assert!(
            (total - expected).abs() / expected < 0.02,
            "phase advance {total} vs {expected}"
        );
    }

    #[test]
    fn survives_moderate_noise() {
        let m = GmskModem::gnuradio_default();
        let mut rng = seeded(91);
        let bits = pn_sequence(37, 4000);
        let mut s = m.modulate(&bits);
        // Es/N0 per sample ~ 13 dB → per bit (sps=4 integration) plenty
        for v in &mut s {
            *v += complex_gaussian(&mut rng, 0.05);
        }
        let back = m.demodulate(&s, bits.len());
        let errs = count_bit_errors(&bits, &back);
        assert!(errs < 8, "errors {errs}");
    }

    #[test]
    fn degrades_gracefully_with_heavy_noise() {
        let m = GmskModem::gnuradio_default();
        let mut rng = seeded(92);
        let bits = pn_sequence(53, 4000);
        let mut s = m.modulate(&bits);
        for v in &mut s {
            *v += complex_gaussian(&mut rng, 2.0);
        }
        let back = m.demodulate(&s, bits.len());
        let ber = count_bit_errors(&bits, &back) as f64 / bits.len() as f64;
        // noisy but far from coin-flip, and clearly worse than clean
        assert!(ber > 0.01 && ber < 0.5, "BER {ber}");
    }

    #[test]
    fn spectrum_narrower_than_msk_mainlobe() {
        // GMSK's claim to fame: Gaussian shaping confines the spectrum.
        // Compare occupied bandwidth (99% power) against unfiltered MSK-ish
        // modulation (BT -> large approximates MSK).
        use crate::fft::periodogram_psd;
        let bits = pn_sequence(71, 4096);
        let narrow = GmskModem::new(0.3, 4).modulate(&bits);
        let wide = GmskModem::new(3.0, 4).modulate(&bits);
        let obw = |sig: &[Complex]| {
            let (freqs, psd) = periodogram_psd(sig, 4.0, 1024);
            let total: f64 = psd.iter().sum();
            // fraction of power within |f| <= 0.35 cycles/bit
            let inband: f64 = psd
                .iter()
                .zip(&freqs)
                .filter(|(_, &f)| f.abs() <= 0.35)
                .map(|(p, _)| p)
                .sum();
            inband / total
        };
        assert!(obw(&narrow) > obw(&wide), "GMSK should be more confined");
    }
}
