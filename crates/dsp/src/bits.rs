//! Bit/byte plumbing: packing, error counting and PN sequences.

/// Unpacks bytes into bits, MSB first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &byte in bytes {
        for i in (0..8).rev() {
            out.push((byte >> i) & 1 == 1);
        }
    }
    out
}

/// Packs bits into bytes, MSB first; the final partial byte (if any) is
/// zero-padded on the right.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len().div_ceil(8));
    for chunk in bits.chunks(8) {
        let mut byte = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            if bit {
                byte |= 1 << (7 - i);
            }
        }
        out.push(byte);
    }
    out
}

/// Number of positions where the two bit strings differ (compared over the
/// shorter length) plus the length difference (missing bits count as
/// errors) — the BER bookkeeping rule of the testbed.
pub fn count_bit_errors(sent: &[bool], received: &[bool]) -> u64 {
    let common = sent.len().min(received.len());
    let mut errs = sent[..common]
        .iter()
        .zip(&received[..common])
        .filter(|(a, b)| a != b)
        .count() as u64;
    errs += (sent.len().max(received.len()) - common) as u64;
    errs
}

/// Generates a deterministic pseudo-noise bit sequence of length `n` from a
/// 16-bit LFSR (x¹⁶ + x¹⁴ + x¹³ + x¹¹ + 1) — used for preambles and the
/// "randomly generated binary data" the paper transmits in its overlay and
/// interweave experiments.
pub fn pn_sequence(seed: u16, n: usize) -> Vec<bool> {
    let mut state = if seed == 0 { 0xACE1 } else { seed };
    (0..n)
        .map(|_| {
            let bit = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1;
            state = (state >> 1) | (bit << 15);
            bit == 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes_bits() {
        let data = vec![0x00, 0xFF, 0xA5, 0x3C, 0x01];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn msb_first_order() {
        let bits = bytes_to_bits(&[0b1000_0001]);
        assert!(bits[0]);
        assert!(!bits[1]);
        assert!(bits[7]);
    }

    #[test]
    fn partial_byte_zero_padded() {
        let bytes = bits_to_bytes(&[true, false, true]);
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn error_counting() {
        let a = vec![true, false, true, true];
        let b = vec![true, true, true, false];
        assert_eq!(count_bit_errors(&a, &b), 2);
        // length mismatch counts missing bits as errors
        assert_eq!(count_bit_errors(&a, &a[..2]), 2);
        assert_eq!(count_bit_errors(&a, &a), 0);
    }

    #[test]
    fn pn_is_deterministic_and_balanced() {
        let a = pn_sequence(42, 4096);
        let b = pn_sequence(42, 4096);
        assert_eq!(a, b);
        let ones = a.iter().filter(|&&x| x).count();
        assert!(ones > 1850 && ones < 2250, "{ones}");
        // different seeds differ
        assert_ne!(a, pn_sequence(43, 4096));
    }

    #[test]
    fn pn_zero_seed_is_remapped() {
        // seed 0 would lock a plain LFSR at zero; we remap it
        let s = pn_sequence(0, 64);
        assert!(s.iter().any(|&b| b));
    }
}
