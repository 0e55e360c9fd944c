//! The BPSK modem of the paper's overlay/interweave experiments
//! (Section 6.4, 250 kbps). Symbols have unit energy.

use comimo_math::complex::Complex;

/// Binary phase-shift keying: `0 → −1`, `1 → +1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bpsk;

impl Bpsk {
    /// Modulates a bit stream, one symbol per bit.
    pub fn modulate(&self, bits: &[bool]) -> Vec<Complex> {
        bits.iter()
            .map(|&b| Complex::real(if b { 1.0 } else { -1.0 }))
            .collect()
    }

    /// Hard-decides a symbol stream back into bits.
    pub fn demodulate(&self, symbols: &[Complex]) -> Vec<bool> {
        symbols.iter().map(|s| s.re > 0.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::seeded;
    use rand::Rng;

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = seeded(seed);
        (0..n).map(|_| rng.gen_bool(0.5)).collect()
    }

    #[test]
    fn bpsk_roundtrips_noiseless() {
        let bits = random_bits(1000, 1234);
        assert_eq!(Bpsk.demodulate(&Bpsk.modulate(&bits)), bits);
    }

    #[test]
    fn unit_symbol_energy() {
        let syms = Bpsk.modulate(&random_bits(4000, 5));
        assert_eq!(syms.len(), 4000);
        assert!(syms.iter().all(|s| (s.norm_sqr() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn bpsk_noise_tolerance() {
        // BPSK survives moderate noise with few errors
        let mut rng = seeded(9);
        let bits = random_bits(20_000, 10);
        let syms = Bpsk.modulate(&bits);
        let noisy: Vec<Complex> = syms
            .iter()
            .map(|&s| s + comimo_math::rng::complex_gaussian(&mut rng, 0.2))
            .collect();
        let back = Bpsk.demodulate(&noisy);
        let errs = crate::bits::count_bit_errors(&bits, &back);
        // Eb/N0 = 1/0.2 = 7 dB → BER ≈ 8e-4
        assert!(errs < 60, "errors {errs}");
    }
}
