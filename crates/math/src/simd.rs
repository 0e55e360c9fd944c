//! Explicit-SIMD kernel tier under [`crate::batch`] and the bulk
//! keystream of [`crate::rng`], chosen by the CPU.
//!
//! The batched samplers spend essentially all of their time in three
//! tight transforms: the ChaCha8 keystream itself, raw keystream words →
//! uniforms, and the Box–Muller combination of `fast_ln` and
//! `fast_sincos_tau`. This module provides all three as **slice kernels**
//! in two interchangeable tiers:
//!
//! | [`Dispatch`] | implementation | where |
//! |--------------|----------------|-------|
//! | `Scalar`     | one call per element (per block, for the keystream) into the pinned oracle ([`crate::batch::fast_ln`] / [`crate::batch::fast_sincos_tau`] / the scalar ChaCha8 block of [`crate::rng`]) | every CPU without AVX2 |
//! | `Avx2`       | hand-written `core::arch::x86_64` intrinsics, 4 `f64` lanes per op; the keystream runs 8 ChaCha8 blocks at once, one `__m256i` per state word | x86_64 with AVX2, detected at runtime |
//!
//! # Bit-identical by construction
//!
//! Both tiers perform **the same IEEE-754 operations in the same order on
//! every lane** — no FMA contraction, no reassociation, compare+blend
//! where the scalar code uses arithmetic selects — and IEEE
//! `add/sub/mul/div/sqrt` are exactly rounded, so the tiers produce
//! *bitwise identical* outputs, not merely close ones. (The one
//! non-obvious case, the AVX2 `u64 → f64` conversion, is done with the
//! exact split-and-recombine magic-constant trick described on the
//! private `avx2` module.) The keystream is integer arithmetic mod 2³²,
//! exact on any tier. The tests pin this: scalar vs AVX2 agree
//! bit-for-bit on keystream runs (across the 2³² counter carry and the
//! 2⁶⁴ wrap), uniforms and normals, including the corner inputs of the
//! `ln` and `sincos` polynomials. The tier therefore changes throughput
//! only — never a single sample of any experiment.
//!
//! # Choosing a tier
//!
//! [`active`] returns the tier in effect: `Avx2` where the CPU has it,
//! `Scalar` otherwise. Nothing else selects a tier. The kernels also
//! exist as `*_with` variants taking an explicit [`Dispatch`] so tests
//! and benches can compare the tiers in one process. An `Avx2` value can
//! only come from [`Dispatch::avx2`], which checks the CPU first, so the
//! `*_with` variants are safe with any tier a caller can hold.

use crate::rng::WIDE_BYTES;
use std::sync::OnceLock;

/// Which kernel tier executes the slice transforms. See the module docs
/// for the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Per-element calls into the scalar polynomial oracle.
    Scalar,
    /// Hand-written AVX2 intrinsics (x86_64 only). Only
    /// [`Dispatch::avx2`] can build it.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2Token),
}

/// Proof that the running CPU has AVX2. The field is private, so
/// [`Dispatch::avx2`] is the only way to make one — which is what lets
/// the safe kernel API run AVX2 instructions.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx2Token(());

impl Dispatch {
    /// The AVX2 tier if the running CPU supports it, else `None`.
    pub fn avx2() -> Option<Dispatch> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Dispatch::Avx2(Avx2Token(())));
        }
        None
    }

    /// Stable lower-case name: `scalar` or `avx2`.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Dispatch::Avx2(_) => "avx2",
        }
    }
}

/// The tier in effect: AVX2 where the CPU has it, scalar otherwise.
/// Detected once per process.
pub fn active() -> Dispatch {
    static ACTIVE: OnceLock<Dispatch> = OnceLock::new();
    *ACTIVE.get_or_init(|| Dispatch::avx2().unwrap_or(Dispatch::Scalar))
}

// ---------------------------------------------------------------------------
// dispatching slice kernels
// ---------------------------------------------------------------------------

/// Eight consecutive ChaCha8 blocks of `key` at block counters
/// `counter, counter + 1, …, counter + 7` (wrapping mod 2⁶⁴), written as
/// little-endian words in stream order — exactly the bytes the scalar
/// block of [`crate::rng`] produces for those counters.
pub(crate) fn chacha8_run(key: &[u32; 8], counter: u64, out: &mut [u8; WIDE_BYTES]) {
    chacha8_run_with(active(), key, counter, out);
}

/// [`chacha8_run`] through an explicit tier.
pub(crate) fn chacha8_run_with(
    d: Dispatch,
    key: &[u32; 8],
    counter: u64,
    out: &mut [u8; WIDE_BYTES],
) {
    match d {
        Dispatch::Scalar => scalar::chacha8_run(key, counter, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an Avx2 value carries a token only Dispatch::avx2()
        // makes, after detecting AVX2.
        Dispatch::Avx2(_) => unsafe { avx2::chacha8_run(key, counter, out) },
    }
}

/// `out[i] = (words[i] >> 11) as f64 / 2⁵³` — the exact mapping
/// [`crate::batch::fill_uniform_f64`] applies to raw ChaCha words.
///
/// # Panics
/// If the slice lengths differ.
pub fn uniform_from_words(words: &[u64], out: &mut [f64]) {
    uniform_from_words_with(active(), words, out);
}

/// [`uniform_from_words`] through an explicit tier.
pub fn uniform_from_words_with(d: Dispatch, words: &[u64], out: &mut [f64]) {
    assert_eq!(words.len(), out.len());
    match d {
        Dispatch::Scalar => scalar::uniform_from_words(words, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an Avx2 value carries a token only Dispatch::avx2()
        // makes, after detecting AVX2.
        Dispatch::Avx2(_) => unsafe { avx2::uniform_from_words(words, out) },
    }
}

/// The batched samplers' Box–Muller transform: from uniform pairs
/// `(u1[i], u2[i])` produce `z0[i] = σ·r·cos`, `z1[i] = σ·r·sin` with
/// `r = √(−2·ln(1−u1))` — exactly the per-element arithmetic of
/// [`crate::batch::normal_fill`] (σ = 1) and
/// [`crate::batch::complex_gaussian_fill`] (σ = √(variance/2)).
pub fn box_muller_slice(u1: &[f64], u2: &[f64], sigma: f64, z0: &mut [f64], z1: &mut [f64]) {
    box_muller_slice_with(active(), u1, u2, sigma, z0, z1);
}

/// [`box_muller_slice`] through an explicit tier.
pub fn box_muller_slice_with(
    d: Dispatch,
    u1: &[f64],
    u2: &[f64],
    sigma: f64,
    z0: &mut [f64],
    z1: &mut [f64],
) {
    assert_eq!(u1.len(), u2.len());
    assert_eq!(u1.len(), z0.len());
    assert_eq!(u1.len(), z1.len());
    match d {
        Dispatch::Scalar => scalar::box_muller(u1, u2, sigma, z0, z1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Dispatch::Avx2(_) => unsafe { avx2::box_muller(u1, u2, sigma, z0, z1) },
    }
}

// ---------------------------------------------------------------------------
// F64x4: the lane type downstream SoA kernels build on
// ---------------------------------------------------------------------------

/// A 4-lane `f64` block for writing explicitly lane-parallel loops (the
/// OSTBC batch engine processes 4 blocks per iteration through this type).
///
/// Plain `+ − *` element-wise operators, no FMA, no horizontal ops — so a
/// loop written over `F64x4` computes bitwise the same result whatever the
/// compiler lowers it to (AVX2 `ymm` ops under a `target_feature` caller,
/// SSE2/NEON pairs otherwise).
#[derive(Debug, Clone, Copy)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// Loads lanes `buf[at..at + 4]`.
    #[inline(always)]
    pub fn load(buf: &[f64], at: usize) -> Self {
        F64x4(buf[at..at + 4].try_into().expect("4 lanes"))
    }

    /// Stores the lanes to `buf[at..at + 4]`.
    #[inline(always)]
    pub fn store(self, buf: &mut [f64], at: usize) {
        buf[at..at + 4].copy_from_slice(&self.0);
    }
}

macro_rules! f64x4_op {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl std::ops::$trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $fn(self, o: F64x4) -> F64x4 {
                F64x4([
                    self.0[0] $op o.0[0],
                    self.0[1] $op o.0[1],
                    self.0[2] $op o.0[2],
                    self.0[3] $op o.0[3],
                ])
            }
        }
    };
}
f64x4_op!(Add, add, +);
f64x4_op!(Sub, sub, -);
f64x4_op!(Mul, mul, *);

// ---------------------------------------------------------------------------
// scalar tier: per-element calls into the pinned oracle
// ---------------------------------------------------------------------------

/// 2⁻⁵³, the exact scale from a 53-bit word to a uniform in `[0, 1)`.
const INV_2P53: f64 = 1.0 / (1u64 << 53) as f64;

mod scalar {
    use super::{INV_2P53, WIDE_BYTES};
    use crate::batch;
    use crate::rng::chacha8_block;

    pub fn chacha8_run(key: &[u32; 8], counter: u64, out: &mut [u8; WIDE_BYTES]) {
        for (j, block) in out.chunks_exact_mut(64).enumerate() {
            let words = chacha8_block(key, counter.wrapping_add(j as u64));
            for (b, w) in block.chunks_exact_mut(4).zip(words) {
                b.copy_from_slice(&w.to_le_bytes());
            }
        }
    }

    pub fn uniform_from_words(words: &[u64], out: &mut [f64]) {
        for (x, &w) in out.iter_mut().zip(words) {
            *x = (w >> 11) as f64 * INV_2P53;
        }
    }

    pub fn box_muller(u1: &[f64], u2: &[f64], sigma: f64, z0: &mut [f64], z1: &mut [f64]) {
        for i in 0..u1.len() {
            let (a, b) = batch::box_muller(u1[i], u2[i]);
            z0[i] = sigma * a;
            z1[i] = sigma * b;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 tier: hand-written intrinsics
// ---------------------------------------------------------------------------

/// Hand-written AVX2 kernels, 4 `f64` lanes per vector op (8 `u32` lanes
/// for the keystream).
///
/// Every function mirrors the scalar oracle operation-for-operation —
/// compare+blend replaces the arithmetic selects (same selected values),
/// `_mm256_floor_pd` replaces the `as i32` truncation (identical here
/// because the sincos argument `2t + ½ ≥ ½` is never negative), and the
/// `u64 → f64` conversion uses the exact two-halves magic-constant trick:
/// `lo32 | 0x433…` reads as `2⁵² + lo` and `hi32 | 0x453…` as `2⁸⁴ +
/// hi·2³²`, so `(hi_raw − (2⁸⁴ + 2⁵²)) + lo_raw = hi·2³² + lo` with every
/// intermediate exactly representable (the shifted word is < 2⁵³). No FMA
/// anywhere. All functions require AVX2 (`unsafe` for that reason alone —
/// the slice accesses are bounds-checked).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{INV_2P53, WIDE_BYTES};
    use crate::batch::{COS_TAYLOR, LN_ATANH, SIN_TAYLOR};
    use crate::rng::SIGMA;
    use core::arch::x86_64::*;
    use std::f64::consts::{LN_2, SQRT_2, TAU};

    /// Rotates every 32-bit lane left by 16 or 8, a byte permutation.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn rotl_bytes(x: __m256i, by16: bool) -> __m256i {
        let mask = if by16 {
            _mm256_setr_epi8(
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            )
        } else {
            _mm256_setr_epi8(
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            )
        };
        _mm256_shuffle_epi8(x, mask)
    }

    /// The ChaCha quarter round on 8 blocks at once.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn quarter_round(s: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = _mm256_add_epi32(s[a], s[b]);
        s[d] = rotl_bytes(_mm256_xor_si256(s[d], s[a]), true);
        s[c] = _mm256_add_epi32(s[c], s[d]);
        let x = _mm256_xor_si256(s[b], s[c]);
        s[b] = _mm256_or_si256(_mm256_slli_epi32(x, 12), _mm256_srli_epi32(x, 20));
        s[a] = _mm256_add_epi32(s[a], s[b]);
        s[d] = rotl_bytes(_mm256_xor_si256(s[d], s[a]), false);
        s[c] = _mm256_add_epi32(s[c], s[d]);
        let x = _mm256_xor_si256(s[b], s[c]);
        s[b] = _mm256_or_si256(_mm256_slli_epi32(x, 7), _mm256_srli_epi32(x, 25));
    }

    /// Transposes 8 vectors of 8 words: output `j` holds word `j` of
    /// every input, in input order.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose8(x: &[__m256i]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(x[0], x[1]);
        let t1 = _mm256_unpackhi_epi32(x[0], x[1]);
        let t2 = _mm256_unpacklo_epi32(x[2], x[3]);
        let t3 = _mm256_unpackhi_epi32(x[2], x[3]);
        let t4 = _mm256_unpacklo_epi32(x[4], x[5]);
        let t5 = _mm256_unpackhi_epi32(x[4], x[5]);
        let t6 = _mm256_unpacklo_epi32(x[6], x[7]);
        let t7 = _mm256_unpackhi_epi32(x[6], x[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// Eight ChaCha8 blocks, lane `j` of state vector `w` holding word
    /// `w` of block `counter + j`. Each lane's counter is a full `u64`, so
    /// a carry out of word 12 reaches word 13 inside the run.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn chacha8_run(key: &[u32; 8], counter: u64, out: &mut [u8; WIDE_BYTES]) {
        let c: [u64; 8] = std::array::from_fn(|j| counter.wrapping_add(j as u64));
        let lo: [u32; 8] = std::array::from_fn(|j| c[j] as u32);
        let hi: [u32; 8] = std::array::from_fn(|j| (c[j] >> 32) as u32);
        let mut input = [_mm256_setzero_si256(); 16];
        for (x, &w) in input.iter_mut().zip(SIGMA.iter().chain(key)) {
            *x = _mm256_set1_epi32(w as i32);
        }
        input[12] = _mm256_loadu_si256(lo.as_ptr().cast());
        input[13] = _mm256_loadu_si256(hi.as_ptr().cast());
        let mut s = input;
        for _ in 0..4 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (x, i) in s.iter_mut().zip(input) {
            *x = _mm256_add_epi32(*x, i);
        }
        // block j is words 0–7 of lane j, then words 8–15 of lane j; each
        // store writes 32 bytes inside its 64-byte block
        let first = transpose8(&s[..8]);
        let second = transpose8(&s[8..]);
        for (j, block) in out.chunks_exact_mut(64).enumerate() {
            _mm256_storeu_si256(block.as_mut_ptr().cast(), first[j]);
            _mm256_storeu_si256(block[32..].as_mut_ptr().cast(), second[j]);
        }
    }

    /// [`crate::batch::series`] on 4 lanes: the same table, the same
    /// operations in the same order.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn series4(x2: __m256d, table: &[f64]) -> __m256d {
        let inner = _mm256_add_pd(
            _mm256_set1_pd(table[1]),
            _mm256_div_pd(x2, _mm256_set1_pd(table[0])),
        );
        table[2..].iter().fold(inner, |acc, &c| {
            _mm256_add_pd(_mm256_set1_pd(c), _mm256_mul_pd(x2, acc))
        })
    }

    /// `words[i] >> 11`, exactly converted to f64 — bitwise equal to
    /// `(w >> 11) as f64` — then scaled by the exact power of two 2⁻⁵³.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn to_uniform(w: __m256i) -> __m256d {
        let v = _mm256_srli_epi64(w, 11);
        let lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFF_FFFF));
        let hi = _mm256_srli_epi64(v, 32);
        let lo_raw = _mm256_castsi256_pd(_mm256_or_si256(
            lo,
            _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64),
        ));
        let hi_raw = _mm256_castsi256_pd(_mm256_or_si256(
            hi,
            _mm256_set1_epi64x(0x4530_0000_0000_0000u64 as i64),
        ));
        // magic = 2⁸⁴ + 2⁵²: folds the hi-half's exponent offset AND the
        // lo-half's 2⁵² bias into one subtraction
        let hi_f = _mm256_sub_pd(
            hi_raw,
            _mm256_set1_pd(f64::from_bits(0x4530_0000_0010_0000)),
        );
        let f = _mm256_add_pd(hi_f, lo_raw);
        _mm256_mul_pd(f, _mm256_set1_pd(INV_2P53))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ln4(x: __m256d) -> __m256d {
        let bits = _mm256_castpd_si256(x);
        // exponent: (bits >> 52) − 1023, small-integer-exact via 2⁵² bias
        let eraw = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_srli_epi64(bits, 52),
            _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64),
        ));
        let mut e = _mm256_sub_pd(
            _mm256_sub_pd(eraw, _mm256_set1_pd((1u64 << 52) as f64)),
            _mm256_set1_pd(1023.0),
        );
        // mantissa recentred into [√½, √2)
        let mut m = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFF)),
            _mm256_set1_epi64x(0x3FF0_0000_0000_0000u64 as i64),
        ));
        let big = _mm256_cmp_pd::<_CMP_GE_OQ>(m, _mm256_set1_pd(SQRT_2));
        // m·0.5 is an exact exponent decrement, so blending equals the
        // scalar arithmetic select m·(1 − 0.5·shift)
        m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
        e = _mm256_add_pd(e, _mm256_and_pd(big, _mm256_set1_pd(1.0)));
        let one = _mm256_set1_pd(1.0);
        let s = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
        let p = series4(_mm256_mul_pd(s, s), &LN_ATANH);
        _mm256_add_pd(
            _mm256_mul_pd(e, _mm256_set1_pd(LN_2)),
            _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), s), p),
        )
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sincos4(t: __m256d) -> (__m256d, __m256d) {
        // k = ⌊2t + ½⌋ ∈ {0, 1, 2}; floor == the scalar truncation since
        // the argument is ≥ ½ > 0
        let kf = _mm256_floor_pd(_mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(2.0), t),
            _mm256_set1_pd(0.5),
        ));
        let x = _mm256_mul_pd(
            _mm256_set1_pd(TAU),
            _mm256_sub_pd(t, _mm256_mul_pd(_mm256_set1_pd(0.5), kf)),
        );
        // only k = 1 is odd, so the (−1)ᵏ sign is a single lane compare
        let odd = _mm256_cmp_pd::<_CMP_EQ_OQ>(kf, _mm256_set1_pd(1.0));
        let sign = _mm256_blendv_pd(_mm256_set1_pd(1.0), _mm256_set1_pd(-1.0), odd);
        let x2 = _mm256_mul_pd(x, x);
        let ps = _mm256_mul_pd(x, series4(x2, &SIN_TAYLOR));
        let pc = series4(x2, &COS_TAYLOR);
        (_mm256_mul_pd(sign, ps), _mm256_mul_pd(sign, pc))
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn uniform_from_words(words: &[u64], out: &mut [f64]) {
        let n = words.len();
        let n4 = n - n % 4;
        for i in (0..n4).step_by(4) {
            let w = _mm256_loadu_si256(words[i..].as_ptr().cast());
            _mm256_storeu_pd(out[i..].as_mut_ptr(), to_uniform(w));
        }
        for i in n4..n {
            out[i] = (words[i] >> 11) as f64 * INV_2P53;
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn box_muller(u1: &[f64], u2: &[f64], sigma: f64, z0: &mut [f64], z1: &mut [f64]) {
        let n = u1.len();
        let n4 = n - n % 4;
        let one = _mm256_set1_pd(1.0);
        let neg_two = _mm256_set1_pd(-2.0);
        let sig = _mm256_set1_pd(sigma);
        for i in (0..n4).step_by(4) {
            let a = _mm256_loadu_pd(u1[i..].as_ptr());
            let b = _mm256_loadu_pd(u2[i..].as_ptr());
            let l = ln4(_mm256_sub_pd(one, a));
            let r = _mm256_sqrt_pd(_mm256_mul_pd(neg_two, l));
            let (sv, cv) = sincos4(b);
            _mm256_storeu_pd(
                z0[i..].as_mut_ptr(),
                _mm256_mul_pd(sig, _mm256_mul_pd(r, cv)),
            );
            _mm256_storeu_pd(
                z1[i..].as_mut_ptr(),
                _mm256_mul_pd(sig, _mm256_mul_pd(r, sv)),
            );
        }
        // the tail repeats the oracle inline rather than calling the
        // scalar tier: that out-of-line call measured slower per slice
        for i in n4..n {
            let r = (-2.0 * crate::batch::fast_ln(1.0 - u1[i])).sqrt();
            let (s, c) = crate::batch::fast_sincos_tau(u2[i]);
            z0[i] = sigma * (r * c);
            z1[i] = sigma * (r * s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::Rng;

    fn tiers() -> Vec<Dispatch> {
        [Some(Dispatch::Scalar), Dispatch::avx2()]
            .into_iter()
            .flatten()
            .collect()
    }

    /// The AVX2 tier exists exactly where the CPU has AVX2, and is then
    /// the one in effect.
    #[test]
    fn avx2_tier_is_obtainable_only_where_detected() {
        #[cfg(target_arch = "x86_64")]
        let has_avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has_avx2 = false;
        assert_eq!(Dispatch::avx2().is_some(), has_avx2);
        let expected = if has_avx2 { "avx2" } else { "scalar" };
        assert_eq!(active().name(), expected);
    }

    /// A keystream run must equal 8 scalar blocks on every tier, at the
    /// first counters, across the carry out of the low counter word in
    /// mid-run, and across the 2⁶⁴ wrap — counters no seeded stream
    /// reaches.
    #[test]
    fn chacha8_run_is_bitwise_identical_across_tiers() {
        let keys = [
            [0u32; 8],
            std::array::from_fn(|i| 0x9E37_79B9u32.wrapping_mul(i as u32 + 1)),
        ];
        for key in keys {
            for counter in [0u64, 1, (1 << 32) - 5, u64::MAX - 3] {
                let mut reference = [0u8; WIDE_BYTES];
                chacha8_run_with(Dispatch::Scalar, &key, counter, &mut reference);
                for d in tiers() {
                    let mut got = [0u8; WIDE_BYTES];
                    chacha8_run_with(d, &key, counter, &mut got);
                    assert!(
                        got == reference,
                        "{} diverged at counter {counter:#x}",
                        d.name()
                    );
                }
            }
        }
    }

    /// Raw words from awkward lengths and edge patterns must convert to
    /// bitwise-identical uniforms on every tier.
    #[test]
    fn uniform_conversion_is_bitwise_identical_across_tiers() {
        let mut rng = seeded(31);
        for len in [1usize, 3, 4, 5, 127, 128, 1000] {
            let mut words: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            // force the interesting carry/magnitude corners into the mix
            for (i, w) in [0u64, u64::MAX, 1 << 63, (1 << 11) - 1, 0xFFFF_FFFF << 11]
                .iter()
                .enumerate()
            {
                if i < words.len() {
                    words[i] = *w;
                }
            }
            let mut reference = vec![0.0; len];
            uniform_from_words_with(Dispatch::Scalar, &words, &mut reference);
            for d in tiers() {
                let mut got = vec![0.0; len];
                uniform_from_words_with(d, &words, &mut got);
                for i in 0..len {
                    assert_eq!(
                        got[i].to_bits(),
                        reference[i].to_bits(),
                        "{} diverged at word {:#x}",
                        d.name(),
                        words[i]
                    );
                }
            }
        }
    }

    /// Box–Muller is the one kernel that runs the AVX2 `ln4`/`sincos4`
    /// bodies, so the polynomials' corner inputs ride through it: every
    /// corner pair sits in a full 4-lane block (the tail runs the scalar
    /// oracle), followed by random pairs of awkward lengths.
    #[test]
    fn box_muller_lanes_bitwise_identical_across_tiers() {
        // ln argument 1 − u1 ∈ {1, 2⁻⁵³, 2⁻⁵², 1 − 2⁻⁵³}
        let u1_corners = [
            0.0,
            1.0 - 2f64.powi(-53),
            1.0 - 2f64.powi(-52),
            2f64.powi(-53),
        ];
        // octant boundaries of the sincos reduction, just past each, and
        // the largest uniform below 1
        let mut u2_corners: Vec<f64> = (0..8)
            .flat_map(|k| [k as f64 / 8.0, k as f64 / 8.0 + 1e-14])
            .collect();
        u2_corners.push(1.0 - 2f64.powi(-53));
        let (mut u1_base, mut u2_base) = (Vec::new(), Vec::new());
        for &a in &u1_corners {
            for &b in &u2_corners {
                u1_base.push(a);
                u2_base.push(b);
            }
        }
        assert_eq!(u1_base.len() % 4, 0, "corners must fill whole lanes");
        let mut rng = seeded(34);
        for len in [1usize, 4, 7, 256] {
            let mut u1 = u1_base.clone();
            let mut u2 = u2_base.clone();
            u1.extend((0..len).map(|_| rng.gen::<f64>()));
            u2.extend((0..len).map(|_| rng.gen::<f64>()));
            let n = u1.len();
            for sigma in [1.0, 0.5f64.sqrt(), 2.75] {
                let (mut r0, mut r1) = (vec![0.0; n], vec![0.0; n]);
                box_muller_slice_with(Dispatch::Scalar, &u1, &u2, sigma, &mut r0, &mut r1);
                for d in tiers() {
                    let (mut g0, mut g1) = (vec![0.0; n], vec![0.0; n]);
                    box_muller_slice_with(d, &u1, &u2, sigma, &mut g0, &mut g1);
                    for i in 0..n {
                        let at = format!("{} at (u1, u2) = ({}, {})", d.name(), u1[i], u2[i]);
                        assert_eq!(g0[i].to_bits(), r0[i].to_bits(), "z0 {at}");
                        assert_eq!(g1[i].to_bits(), r1[i].to_bits(), "z1 {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn f64x4_ops_match_scalar_lanes() {
        let a = F64x4([1.5, -2.0, 0.25, 1e300]);
        let b = F64x4([0.5, 3.0, -0.125, 1e-300]);
        let sum = a + b;
        let dif = a - b;
        let prd = a * b;
        for l in 0..4 {
            assert_eq!(sum.0[l].to_bits(), (a.0[l] + b.0[l]).to_bits());
            assert_eq!(dif.0[l].to_bits(), (a.0[l] - b.0[l]).to_bits());
            assert_eq!(prd.0[l].to_bits(), (a.0[l] * b.0[l]).to_bits());
        }
        let mut buf = vec![0.0; 8];
        sum.store(&mut buf, 2);
        let back = F64x4::load(&buf, 2);
        for l in 0..4 {
            assert_eq!(back.0[l].to_bits(), sum.0[l].to_bits());
        }
    }
}
