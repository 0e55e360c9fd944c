//! Forward error correction: a rate-1/2 convolutional code with Viterbi
//! decoding.
//!
//! The classic `K = 7`, `(171, 133)₈` convolutional code used by 802.11a
//! and countless satellite links, decoded by hard-decision Viterbi.
//! Table 4's rig can send its GMSK packets through it
//! (`UnderlayImageConfig::use_fec`).

/// The code's constraint length `K = 7` (64 trellis states).
pub const CONSTRAINT: usize = 7;

/// Generator polynomials (octal 171, 133), MSB-first over the shift
/// register `[s0 .. s6]` with `s0` the newest bit.
const G0: u8 = 0o171;
const G1: u8 = 0o133;

const N_STATES: usize = 1 << (CONSTRAINT - 1);

/// Parity of the masked register.
#[inline]
fn parity(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Encodes `bits` with the rate-1/2 code, appending `K − 1` zero tail
/// bits to terminate the trellis. Output length: `2·(bits.len() + 6)`.
pub fn conv_encode(bits: &[bool]) -> Vec<bool> {
    let mut state: u8 = 0; // previous K-1 bits
    let mut out = Vec::with_capacity(2 * (bits.len() + CONSTRAINT - 1));
    let push = |b: bool, state: &mut u8, out: &mut Vec<bool>| {
        let reg = ((b as u8) << (CONSTRAINT - 1)) | *state;
        out.push(parity(reg & G0) == 1);
        out.push(parity(reg & G1) == 1);
        *state = reg >> 1;
    };
    for &b in bits {
        push(b, &mut state, &mut out);
    }
    for _ in 0..CONSTRAINT - 1 {
        push(false, &mut state, &mut out);
    }
    out
}

/// Hard-decision Viterbi decode of `coded` (as produced by
/// [`conv_encode`], possibly with bit errors) back to `n_info` bits: the
/// branch cost is the Hamming distance of the two coded bits.
pub fn conv_decode_hard(coded: &[bool], n_info: usize) -> Vec<bool> {
    assert_eq!(coded.len() % 2, 0, "coded stream must be even-length");
    let steps = coded.len() / 2;
    assert!(
        steps >= n_info + CONSTRAINT - 1,
        "received sequence too short: {steps} steps for {n_info} info bits"
    );
    // precompute branch outputs: for (state, input) -> (c0, c1, next)
    let mut trans = [[(false, false, 0usize); 2]; N_STATES];
    for (state, t) in trans.iter_mut().enumerate() {
        for (input, entry) in t.iter_mut().enumerate() {
            let reg = ((input as u8) << (CONSTRAINT - 1)) | state as u8;
            *entry = (
                parity(reg & G0) == 1,
                parity(reg & G1) == 1,
                (reg >> 1) as usize,
            );
        }
    }
    let inf = f64::INFINITY;
    let mut pm = vec![inf; N_STATES];
    pm[0] = 0.0; // trellis starts in the zero state
    let mut back: Vec<[u8; N_STATES]> = Vec::with_capacity(steps);
    for t in 0..steps {
        let mut next = vec![inf; N_STATES];
        let mut bp = [0u8; N_STATES];
        for state in 0..N_STATES {
            if pm[state] == inf {
                continue;
            }
            for (input, &(c0, c1, ns)) in trans[state].iter().enumerate() {
                let cost = (coded[2 * t] != c0) as u8 + (coded[2 * t + 1] != c1) as u8;
                let m = pm[state] + cost as f64;
                if m < next[ns] {
                    next[ns] = m;
                    // store predecessor state and input in one byte
                    bp[ns] = ((state as u8) << 1) | input as u8;
                }
            }
        }
        pm = next;
        back.push(bp);
    }
    // terminated trellis: trace back from state 0
    let mut state = 0usize;
    let mut decoded = vec![false; steps];
    for t in (0..steps).rev() {
        let b = back[t][state];
        decoded[t] = (b & 1) == 1;
        state = (b >> 1) as usize;
    }
    decoded.truncate(n_info);
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::pn_sequence;

    #[test]
    fn encode_rate_and_termination() {
        let bits = pn_sequence(1, 100);
        let coded = conv_encode(&bits);
        assert_eq!(coded.len(), 2 * (100 + CONSTRAINT - 1));
    }

    #[test]
    fn clean_roundtrip() {
        let bits = pn_sequence(2, 500);
        let coded = conv_encode(&bits);
        assert_eq!(conv_decode_hard(&coded, bits.len()), bits);
    }

    #[test]
    fn corrects_scattered_errors() {
        // the free distance of (171,133) is 10: up to 4 scattered channel
        // errors per constraint-span are correctable
        let bits = pn_sequence(3, 400);
        let mut coded = conv_encode(&bits);
        for i in (7..coded.len()).step_by(97) {
            coded[i] = !coded[i];
        }
        assert_eq!(conv_decode_hard(&coded, bits.len()), bits);
    }

    #[test]
    fn burst_beyond_capability_fails_but_does_not_panic() {
        let bits = pn_sequence(4, 200);
        let mut coded = conv_encode(&bits);
        for c in coded.iter_mut().take(40) {
            *c = !*c;
        }
        let dec = conv_decode_hard(&coded, bits.len());
        // it may or may not recover; it must return the right length
        assert_eq!(dec.len(), bits.len());
    }
}
