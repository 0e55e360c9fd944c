//! Seeded random sampling for channels and Monte-Carlo validation.
//!
//! All experiment code in this workspace draws randomness through
//! [`SeededRng`], so every table and figure in EXPERIMENTS.md is
//! reproducible bit-for-bit from its recorded seed.
//!
//! # The keystream
//!
//! [`SeededRng`] is the ChaCha stream cipher (Bernstein, "ChaCha, a
//! variant of Salsa20", 2008) at 8 rounds, in counter mode with a 64-bit
//! block counter in state words 12–13 and a zero nonce. The scalar block
//! function is the pinned oracle: `next_u32`/`next_u64` read one buffered
//! 64-byte block at a time, and the `rng` tests hold known-answer vectors
//! of its stream. Bulk [`RngCore::fill_bytes`] calls add one tier: once
//! the buffered block is drained, every whole run of 8 blocks (512 bytes)
//! the destination still needs is computed straight into it by the
//! keystream kernel of [`crate::simd`] — eight counters per `__m256i` on
//! the AVX2 tier — bit-identical to the scalar blocks it replaces. Short
//! reads never take that path, so they compute no block that nobody
//! reads.

use crate::complex::Complex;
use rand::{Rng, RngCore, SeedableRng};

/// 32-bit words in one ChaCha block.
const BLOCK_WORDS: usize = 16;

/// Blocks in one wide keystream run of `simd::chacha8_run`.
pub(crate) const WIDE_BLOCKS: usize = 8;

/// Bytes in one wide keystream run.
pub(crate) const WIDE_BYTES: usize = 64 * WIDE_BLOCKS;

/// "expand 32-byte k" in little-endian words.
pub(crate) const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(s: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One ChaCha8 block of `key` at block `counter`: the scalar oracle every
/// other keystream path must match word for word.
#[inline(always)]
pub(crate) fn chacha8_block(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    let mut s: [u32; BLOCK_WORDS] = [
        SIGMA[0],
        SIGMA[1],
        SIGMA[2],
        SIGMA[3],
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        0,
        0,
    ];
    let input = s;
    for _ in 0..4 {
        // double round = column round + diagonal round
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (out, inp) in s.iter_mut().zip(input.iter()) {
        *out = out.wrapping_add(*inp);
    }
    s
}

/// The workspace-standard deterministic RNG: ChaCha8 in counter mode (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct SeededRng {
    /// Cipher key as 8 little-endian words.
    key: [u32; 8],
    /// Block counter of the next block to compute.
    counter: u64,
    /// The last scalar block; only `buf[idx..]` is unread.
    buf: [u32; BLOCK_WORDS],
    /// Next unread word index in `buf`; `BLOCK_WORDS` when drained.
    idx: usize,
}

impl SeededRng {
    fn refill(&mut self) {
        self.buf = chacha8_block(&self.key, self.counter);
        self.idx = 0;
        self.counter = self.counter.wrapping_add(1);
    }
}

impl SeedableRng for SeededRng {
    type Seed = [u8; 32];

    /// Keys the cipher with the seed's 8 little-endian words and computes
    /// block 0 eagerly.
    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, w) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(w.try_into().expect("4-byte word"));
        }
        Self {
            key,
            counter: 1,
            buf: chacha8_block(&key, 0),
            idx: 0,
        }
    }
}

impl RngCore for SeededRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BLOCK_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Bulk keystream copy, **byte-identical** to the default trait
    /// implementation (composed `next_u64` calls): `dest` receives the
    /// word stream in little-endian order, and a trailing partial 8-byte
    /// chunk still burns a whole `u64`, so batched and scalar consumers
    /// see the same stream and end at the same position; the bulk
    /// samplers in [`crate::batch`] rely on this. Words come out of the
    /// buffered block first; then each whole 512-byte run of `dest` is
    /// one 8-block call of the [`crate::simd`] keystream kernel; the rest
    /// is scalar blocks.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut words_left = 2 * dest.len().div_ceil(8);
        let mut at = 0;
        while words_left > 0 {
            if self.idx == BLOCK_WORDS {
                if let Some(run) = dest.get_mut(at..at + WIDE_BYTES) {
                    let run: &mut [u8; WIDE_BYTES] = run.try_into().expect("one run");
                    crate::simd::chacha8_run(&self.key, self.counter, run);
                    self.counter = self.counter.wrapping_add(WIDE_BLOCKS as u64);
                    at += WIDE_BYTES;
                    words_left -= WIDE_BYTES / 4;
                    continue;
                }
                self.refill();
            }
            let n = (BLOCK_WORDS - self.idx).min(words_left);
            let words = &self.buf[self.idx..self.idx + n];
            for (out, w) in dest[at..].chunks_mut(4).zip(words) {
                out.copy_from_slice(&w.to_le_bytes()[..out.len()]);
            }
            self.idx += n;
            words_left -= n;
            at = (at + 4 * n).min(dest.len());
        }
    }
}

/// Builds the workspace-standard RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> SeededRng {
    SeededRng::seed_from_u64(seed)
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
/// logged every `ERLANG_CHUNK` (16) factors so it never underflows.
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

    /// Known-answer vectors of the keystream, recorded from the ChaCha8
    /// generator this module replaced: for each stream, the `u64`s at
    /// offsets [`KAT_OFFSETS`], then the first `u64` after a lone
    /// `next_u32` on a fresh stream.
    const KAT_OFFSETS: [usize; 6] = [0, 7, 8, 127, 128, 1000];
    #[allow(clippy::type_complexity)]
    const KAT: [(&str, fn() -> SeededRng, [u64; 6], u64); 6] = [
        (
            "seeded(0)",
            || seeded(0),
            [
                0xbf94d1332d8ee5e8,
                0x95d53efa28e5a01f,
                0x1131e62b94efaf48,
                0x99bcac935833102c,
                0xf85c710ebf3111ab,
                0xa1c09406e0cef6e0,
            ],
            0xa6da5a01bf94d133,
        ),
        (
            "seeded(2013)",
            || seeded(2013),
            [
                0x271fb85245f591b5,
                0xbfca7e1292b1b1a6,
                0x6ea2eed0e6556a7a,
                0x6d5b0af2ec07f39e,
                0x82b22e437b06f500,
                0xd60a6f465763aa89,
            ],
            0xdaed8eb8271fb852,
        ),
        (
            "seeded(u64::MAX)",
            || seeded(u64::MAX),
            [
                0x167fca9c60ef8644,
                0x62a4544fe79afbc9,
                0x3691a39c3c8465a9,
                0x698bc18d882d1925,
                0xa1fb7c6b64591251,
                0x96c86b11e9d4d45d,
            ],
            0xf2f83696167fca9c,
        ),
        (
            "derive(2013, 0)",
            || derive(2013, 0),
            [
                0x59fbb0e50b6a13ee,
                0x22d2ccf2dc9fadd9,
                0x22352460ac7a73b6,
                0x4aae3312b52596f4,
                0x60696b4abb44c2df,
                0x17c399c185294c07,
            ],
            0x2fba075259fbb0e5,
        ),
        (
            "derive(2013, 7)",
            || derive(2013, 7),
            [
                0xfe8f0351d746055a,
                0x21f154194d9fffa7,
                0x53244b04e234f561,
                0x22ccee661931b566,
                0x3fe9d679b84add88,
                0x209d3d0a8783ef19,
            ],
            0xd1d1ebfdfe8f0351,
        ),
        (
            "derive(2013, u64::MAX)",
            || derive(2013, u64::MAX),
            [
                0x8283a02da21bda17,
                0xe9cb141d34eb53fa,
                0x24a5d303ce71d71a,
                0xa3169e4e3821ffe2,
                0xc27249857c73acf6,
                0x16590a09acee997b,
            ],
            0x44497cfb8283a02d,
        ),
    ];

    #[test]
    fn keystream_matches_the_known_answers() {
        for (name, make, words, after_u32) in KAT {
            // word by word through next_u64
            let mut rng = make();
            let mut at = 0;
            for (&off, &want) in KAT_OFFSETS.iter().zip(&words) {
                while at < off {
                    rng.next_u64();
                    at += 1;
                }
                assert_eq!(rng.next_u64(), want, "{name} at u64 {off}");
                at += 1;
            }
            // the same words out of one bulk fill (it crosses wide runs)
            let mut bulk = vec![0u64; 1001];
            crate::batch::fill_u64(&mut make(), &mut bulk);
            for (&off, &want) in KAT_OFFSETS.iter().zip(&words) {
                assert_eq!(bulk[off], want, "{name} bulk at u64 {off}");
            }
            let mut rng = make();
            rng.next_u32();
            assert_eq!(rng.next_u64(), after_u32, "{name} after one u32");
        }
    }

    /// `fill_bytes` through the default trait body: composed `next_u64`
    /// calls, a trailing partial chunk burning a whole `u64`.
    fn fill_by_words(rng: &mut SeededRng, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = rng.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }

    #[test]
    fn fill_bytes_matches_word_stream() {
        // the bulk path (buffer drain, wide runs, scalar tail) must be
        // byte-identical to composing next_u64 calls, from any stream
        // offset, and leave the generator at the same position
        let lens = [
            0usize, 1, 7, 8, 9, 64, 67, 504, 511, 512, 513, 520, 1024, 4096, 8216,
        ];
        for start in [0usize, 1, 2, 15, 16, 17, 31] {
            for len in lens {
                let mut fast = seeded(77);
                for _ in 0..start {
                    fast.next_u32();
                }
                let mut reference = fast.clone();
                let mut got = vec![0u8; len];
                fast.fill_bytes(&mut got);
                let mut expect = vec![0u8; len];
                fill_by_words(&mut reference, &mut expect);
                assert_eq!(got, expect, "start={start} len={len}");
                assert_eq!(
                    fast.next_u64(),
                    reference.next_u64(),
                    "start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        let mut c = seeded(43);
        let mut all_same = true;
        for _ in 0..256 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            all_same &= x == c.next_u64();
        }
        assert!(!all_same, "different seeds must give different streams");
    }

    #[test]
    fn clone_continues_identically() {
        let mut a = seeded(9);
        for _ in 0..37 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn output_is_roughly_balanced() {
        // crude sanity: bit balance of 64k words within 1%
        let mut rng = seeded(1234);
        let mut ones = 0u64;
        let n = 65_536u64;
        for _ in 0..n {
            ones += rng.next_u32().count_ones() as u64;
        }
        let frac = ones as f64 / (n as f64 * 32.0);
        assert!((frac - 0.5).abs() < 0.01, "bit balance {frac}");
    }

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

    impl RngCore for CountingRng {
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
        impl RngCore for MaxRng {
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
