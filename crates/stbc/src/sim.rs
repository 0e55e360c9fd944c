//! End-to-end Monte-Carlo BER simulation of OSTBC links, plus the closed
//! forms used to validate it.
//!
//! This module is the bridge between the code layer and the paper's energy
//! model: `comimo-energy`'s `ē_b` solver is cross-checked against the BER
//! this simulator measures at the SNR the solver predicts.

use crate::decode::{decode_block_into, DecodeScratch};
use crate::design::Ostbc;
use comimo_math::cmatrix::CMatrix;
use comimo_math::complex::Complex;
use comimo_math::rng::complex_gaussian;
use comimo_math::special::rayleigh_mrc_q_average;
use rand::Rng;

/// A Gray-coded square/rectangular PSK-for-small-b constellation used by the
/// simulator: BPSK for `b = 1`, QPSK for `b = 2` (Gray), and square M-QAM
/// for even `b ≥ 4`.
#[derive(Debug, Clone)]
pub struct SimConstellation {
    bits_per_symbol: u32,
    points: Vec<Complex>,
    /// Points per axis (`2^(b/2)`); 0 for BPSK, which is sliced on the
    /// real axis alone.
    side: u32,
    /// Reciprocal of the axis scale (level `i` sits at coordinate
    /// `(2i − (side−1))·scale`), stored inverted so the hot slicer
    /// multiplies instead of divides. Unused (0) for BPSK.
    inv_axis_scale: f64,
}

impl SimConstellation {
    /// Builds the constellation for `b` bits/symbol (`b = 1, 2, 4, 6, 8`
    /// supported — the even sizes the paper's equation (5) models exactly).
    pub fn new(b: u32) -> Self {
        assert!(
            b == 1 || (b.is_multiple_of(2) && b <= 8),
            "simulator supports b = 1 and even b up to 8, got {b}"
        );
        if b == 1 {
            return Self {
                bits_per_symbol: 1,
                points: vec![Complex::real(-1.0), Complex::real(1.0)],
                side: 0,
                inv_axis_scale: 0.0,
            };
        }
        let (points, side, axis_scale) = {
            // square M-QAM with Gray mapping per axis, unit average energy
            let side = 1u32 << (b / 2);
            let levels: Vec<f64> = (0..side)
                .map(|i| 2.0 * i as f64 - (side as f64 - 1.0))
                .collect();
            // average energy of the square grid
            let e_avg: f64 = levels.iter().map(|x| x * x).sum::<f64>() / side as f64 * 2.0;
            let scale = (1.0 / e_avg).sqrt();
            let mut pts = Vec::with_capacity((side * side) as usize);
            for bits in 0..(side * side) {
                let hi = gray_decode(bits >> (b / 2));
                let lo = gray_decode(bits & (side - 1));
                pts.push(Complex::new(
                    levels[hi as usize] * scale,
                    levels[lo as usize] * scale,
                ));
            }
            (pts, side, scale)
        };
        Self {
            bits_per_symbol: b,
            points,
            side,
            inv_axis_scale: 1.0 / axis_scale,
        }
    }

    /// Bits per symbol.
    pub fn bits_per_symbol(&self) -> u32 {
        self.bits_per_symbol
    }

    /// Number of constellation points `M = 2^b`.
    pub fn size(&self) -> usize {
        self.points.len()
    }

    /// Maps a symbol index to its point.
    pub fn map(&self, index: u32) -> Complex {
        self.points[index as usize]
    }

    /// Nearest-neighbour slicing by exhaustive scan over all `2^b` points.
    ///
    /// Kept as the reference implementation: [`slice_fast`] is the O(1)
    /// slicer the Monte-Carlo hot path uses, and the test suite
    /// cross-checks the two on every constellation point and on random
    /// noisy samples.
    ///
    /// [`slice_fast`]: SimConstellation::slice_fast
    pub fn slice(&self, x: Complex) -> u32 {
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (i, &p) in self.points.iter().enumerate() {
            let d = (x - p).norm_sqr();
            if d < best_d {
                best_d = d;
                best = i as u32;
            }
        }
        best
    }

    /// O(1) nearest-neighbour slicing.
    ///
    /// BPSK is a sign test on the real axis. Gray square-QAM decomposes
    /// per axis: quantise each coordinate to its level index
    /// `k = round((x/scale + (side−1))/2)` (clamped to the grid), then
    /// Gray-encode `k ^ (k >> 1)` to recover the bit pattern — the exact
    /// inverse of the `gray_decode` used to lay the grid out. Agrees with
    /// [`slice`](SimConstellation::slice) everywhere except on the
    /// measure-zero decision boundaries.
    pub fn slice_fast(&self, x: Complex) -> u32 {
        if self.bits_per_symbol == 1 {
            return u32::from(x.re > 0.0);
        }
        let max = f64::from(self.side - 1);
        let inv = self.inv_axis_scale;
        // `v*0.5 + 0.5` then truncation ≡ round-half-up of `v*0.5` for the
        // in-grid range; `as u32` saturates negatives to level 0 and `min`
        // clamps the high side, so off-grid samples snap to the edge
        let kr = ((x.re * inv + max) * 0.5 + 0.5).min(max) as u32;
        let ki = ((x.im * inv + max) * 0.5 + 0.5).min(max) as u32;
        ((kr ^ (kr >> 1)) << (self.bits_per_symbol / 2)) | (ki ^ (ki >> 1))
    }
}

fn gray_decode(mut g: u32) -> u32 {
    let mut b = 0;
    while g != 0 {
        b ^= g;
        g >>= 1;
    }
    b
}

/// Result of a Monte-Carlo BER run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BerResult {
    /// Bits simulated.
    pub bits: u64,
    /// Bit errors observed.
    pub errors: u64,
}

impl BerResult {
    /// The measured bit error rate.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }
}

/// Simulates `n_blocks` OSTBC blocks over i.i.d. block-Rayleigh fading with
/// `mr` receive antennas at per-symbol transmit energy `es` (split evenly
/// over the `mt` antennas, as in the paper's `γ_b = ‖H‖²ē_b/(N0·mt)`) and
/// complex noise variance `n0`. Returns the measured BER.
///
/// This is the per-block scalar draw-order oracle: channel draw → encode
/// → channel apply + noise → decode → slice, one block at a time, with
/// buffers allocated once per call.
pub fn simulate_ber<R: Rng + ?Sized>(
    rng: &mut R,
    code: &Ostbc,
    constellation: &SimConstellation,
    mr: usize,
    es: f64,
    n0: f64,
    n_blocks: usize,
) -> BerResult {
    assert!(mr >= 1);
    assert!(es > 0.0 && n0 > 0.0);
    let mt = code.n_tx();
    let mut h = CMatrix::zeros(mr, mt);
    let mut x = CMatrix::zeros(code.n_slots(), mt);
    let mut y = CMatrix::zeros(code.n_slots(), mr);
    let mut idx = Vec::with_capacity(code.n_symbols());
    let mut syms = Vec::with_capacity(code.n_symbols());
    let mut est = Vec::with_capacity(code.n_symbols());
    let mut scratch = DecodeScratch::new();
    let b = constellation.bits_per_symbol();
    let m = constellation.size() as u32;
    let amp = (es / mt as f64).sqrt();
    let inv_amp = 1.0 / amp;
    let mut bits = 0u64;
    let mut errors = 0u64;
    for _ in 0..n_blocks {
        h.fill_from_fn(|_, _| complex_gaussian(rng, 1.0));
        idx.clear();
        for _ in 0..code.n_symbols() {
            idx.push(rng.gen_range(0..m));
        }
        syms.clear();
        syms.extend(idx.iter().map(|&i| constellation.map(i)));
        code.encode_scaled_into(&syms, amp, &mut x);
        x.mul_bt_into(&h, &mut y);
        for slot in 0..y.rows() {
            for j in 0..y.cols() {
                y[(slot, j)] += complex_gaussian(rng, n0);
            }
        }
        decode_block_into(code, &h, &y, &mut scratch, &mut est);
        for (e, &i) in est.iter().zip(&idx) {
            let hat = constellation.slice_fast(e.scale(inv_amp));
            errors += u64::from((hat ^ i).count_ones());
            bits += u64::from(b);
        }
    }
    BerResult { bits, errors }
}

/// Shard size of the deterministic parallel engine: [`simulate_ber_par`]
/// always splits work into shards of this many blocks, **independent of
/// the thread count**, so its result is a pure function of the seed.
pub const DEFAULT_SHARD_BLOCKS: usize = 1024;

/// The shard decomposition [`simulate_ber_par`] uses for `n_blocks`:
/// `(shard_label, blocks_in_shard)` pairs, every shard
/// [`DEFAULT_SHARD_BLOCKS`] blocks except a shorter final remainder.
/// Public so tests and tools can replay the exact decomposition serially.
pub fn shard_plan(n_blocks: usize) -> impl Iterator<Item = (u64, usize)> {
    (0..n_blocks.div_ceil(DEFAULT_SHARD_BLOCKS)).map(move |i| {
        let start = i * DEFAULT_SHARD_BLOCKS;
        (i as u64, DEFAULT_SHARD_BLOCKS.min(n_blocks - start))
    })
}

/// Deterministic parallel Monte-Carlo: splits `n_blocks` into the
/// fixed-size shards of [`shard_plan`], runs every shard through the
/// batched SoA kernel ([`crate::batch::BatchWorkspace`]) on its own RNG
/// stream `comimo_math::rng::derive(seed, shard_label)`, and merges the
/// counts.
///
/// Because the shard decomposition and the per-shard streams depend only
/// on `(seed, n_blocks)` — never on the scheduler — the result is
/// **bit-identical for any thread count**, including
/// `RAYON_NUM_THREADS=1` and builds without the `parallel` feature
/// (which run the same shards sequentially). It equals
/// [`crate::batch::simulate_ber_batch`] exactly: that function *is* the
/// serial replay of this decomposition. The per-block scalar oracle
/// ([`simulate_ber`]) agrees statistically, not bit-for-bit — the batch
/// engine's bulk draw order legitimately differs.
pub fn simulate_ber_par(
    seed: u64,
    code: &Ostbc,
    constellation: &SimConstellation,
    mr: usize,
    es: f64,
    n0: f64,
    n_blocks: usize,
) -> BerResult {
    let shards: Vec<(u64, usize)> = shard_plan(n_blocks).collect();
    comimo_sim::map_shards(&shards, |_, &(label, blocks)| {
        let mut rng = comimo_math::rng::derive(seed, label);
        let mut ws = crate::batch::BatchWorkspace::new(code, constellation, mr);
        ws.simulate(&mut rng, es, n0, blocks)
    })
    .into_iter()
    .fold(BerResult { bits: 0, errors: 0 }, |acc, p| BerResult {
        bits: acc.bits + p.bits,
        errors: acc.errors + p.errors,
    })
}

/// Closed-form BER of BPSK with `L`-branch maximum-ratio combining over
/// i.i.d. Rayleigh branches at *per-branch* average SNR `gamma_c`
/// ([`rayleigh_mrc_q_average`]).
///
/// An OSTBC with `mt` transmit and `mr` receive antennas at total per-bit
/// SNR `γ̄` behaves as `L = mt·mr` MRC branches at `γc = γ̄/mt` — the anchor
/// used to validate this simulator.
pub fn bpsk_mrc_rayleigh_ber(l: u32, gamma_c: f64) -> f64 {
    rayleigh_mrc_q_average(l, gamma_c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::StbcKind;
    use comimo_math::rng::seeded;

    #[test]
    fn constellation_unit_energy_and_size() {
        for b in [1u32, 2, 4, 6] {
            let c = SimConstellation::new(b);
            assert_eq!(c.size(), 1 << b);
            let energy = (0..c.size() as u32)
                .map(|i| c.map(i).norm_sqr())
                .sum::<f64>()
                / c.size() as f64;
            assert!((energy - 1.0).abs() < 1e-12, "b={b}: E={energy}");
        }
    }

    #[test]
    fn slicing_recovers_exact_points() {
        let c = SimConstellation::new(4);
        for i in 0..c.size() as u32 {
            assert_eq!(c.slice(c.map(i)), i);
        }
    }

    #[test]
    fn gray_neighbours_differ_by_one_bit_qpsk() {
        let c = SimConstellation::new(2);
        // adjacent-axis points must differ in exactly 1 bit
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i == j {
                    continue;
                }
                let d = (c.map(i) - c.map(j)).norm_sqr();
                if d < 2.1 {
                    // nearest neighbours at squared distance 2 (unit energy)
                    assert_eq!((i ^ j).count_ones(), 1, "{i} vs {j}");
                }
            }
        }
    }

    #[test]
    fn siso_bpsk_matches_rayleigh_closed_form() {
        let mut rng = seeded(71);
        let code = Ostbc::new(StbcKind::Siso);
        let cons = SimConstellation::new(1);
        let gamma = 4.0; // Es/N0, = Eb/N0 for BPSK
        let r = simulate_ber(&mut rng, &code, &cons, 1, gamma, 1.0, 60_000);
        let expect = bpsk_mrc_rayleigh_ber(1, gamma);
        assert!(
            (r.ber() - expect).abs() / expect < 0.08,
            "MC {} vs closed form {expect}",
            r.ber()
        );
    }

    #[test]
    fn alamouti_2x1_matches_mrc_with_power_split() {
        let mut rng = seeded(72);
        let code = Ostbc::new(StbcKind::Alamouti);
        let cons = SimConstellation::new(1);
        let gamma = 8.0;
        let r = simulate_ber(&mut rng, &code, &cons, 1, gamma, 1.0, 60_000);
        // 2x1 Alamouti = 2-branch MRC at per-branch SNR gamma/2
        let expect = bpsk_mrc_rayleigh_ber(2, gamma / 2.0);
        assert!(
            (r.ber() - expect).abs() / expect < 0.12,
            "MC {} vs closed form {expect}",
            r.ber()
        );
    }

    #[test]
    fn diversity_ordering_1x1_2x1_2x2() {
        let mut rng = seeded(73);
        let cons = SimConstellation::new(1);
        let gamma = 8.0;
        let siso = simulate_ber(
            &mut rng,
            &Ostbc::new(StbcKind::Siso),
            &cons,
            1,
            gamma,
            1.0,
            30_000,
        );
        let a21 = simulate_ber(
            &mut rng,
            &Ostbc::new(StbcKind::Alamouti),
            &cons,
            1,
            gamma,
            1.0,
            30_000,
        );
        let a22 = simulate_ber(
            &mut rng,
            &Ostbc::new(StbcKind::Alamouti),
            &cons,
            2,
            gamma,
            1.0,
            30_000,
        );
        assert!(
            siso.ber() > a21.ber(),
            "SISO {} vs 2x1 {}",
            siso.ber(),
            a21.ber()
        );
        assert!(
            a21.ber() > a22.ber(),
            "2x1 {} vs 2x2 {}",
            a21.ber(),
            a22.ber()
        );
    }

    #[test]
    fn mrc_closed_form_anchors() {
        // L=1: the textbook single-branch formula
        let g = 10.0f64;
        let single = 0.5 * (1.0 - (g / (1.0 + g)).sqrt());
        assert!((bpsk_mrc_rayleigh_ber(1, g) - single).abs() < 1e-12);
        // the textbook value at 10 dB average SNR, and fading always
        // costs against AWGN at the same average SNR
        assert!((single - 0.02327).abs() < 1e-4, "{single}");
        // BPSK over AWGN: Q(√(2γ))
        let bpsk_awgn_ber = |gamma: f64| comimo_math::special::q_function((2.0 * gamma).sqrt());
        for db in [0.0, 5.0, 10.0, 20.0] {
            let gl = comimo_math::db::db_to_lin(db);
            assert!(bpsk_mrc_rayleigh_ber(1, gl) > bpsk_awgn_ber(gl));
        }
        // more branches help
        assert!(bpsk_mrc_rayleigh_ber(2, g) < bpsk_mrc_rayleigh_ber(1, g));
        assert!(bpsk_mrc_rayleigh_ber(4, g) < bpsk_mrc_rayleigh_ber(2, g));
        // high-SNR slope: L-fold diversity ~ gamma^-L
        let r = bpsk_mrc_rayleigh_ber(2, 100.0) / bpsk_mrc_rayleigh_ber(2, 1000.0);
        assert!(r > 50.0 && r < 200.0, "diversity-2 slope ratio {r}");
    }

    #[test]
    fn slice_fast_agrees_with_scan_on_every_point() {
        for b in [1u32, 2, 4, 6, 8] {
            let c = SimConstellation::new(b);
            for i in 0..c.size() as u32 {
                let p = c.map(i);
                assert_eq!(c.slice_fast(p), i, "b={b} exact point {i}");
                assert_eq!(c.slice_fast(p), c.slice(p), "b={b} point {i}");
            }
        }
    }

    #[test]
    fn slice_fast_agrees_with_scan_on_noisy_samples() {
        let mut rng = seeded(300);
        for b in [1u32, 2, 4, 6, 8] {
            let c = SimConstellation::new(b);
            for trial in 0..10_000 {
                let i = rng.gen_range(0..c.size() as u32);
                // noise large enough to cross decision boundaries often
                let x = c.map(i) + complex_gaussian(&mut rng, 0.5);
                assert_eq!(c.slice_fast(x), c.slice(x), "b={b} trial={trial} x={x}");
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sharded_serial() {
        let code = Ostbc::new(StbcKind::Alamouti);
        let cons = SimConstellation::new(2);
        let seed = 2013;
        // 2.5 shards: exercises the remainder shard
        let n_blocks = 2 * DEFAULT_SHARD_BLOCKS + DEFAULT_SHARD_BLOCKS / 2;
        let par = simulate_ber_par(seed, &code, &cons, 2, 1.0, 1.0, n_blocks);
        // serial reference: the batch engine replaying the same shard plan
        let reference = crate::batch::simulate_ber_batch(seed, &code, &cons, 2, 1.0, 1.0, n_blocks);
        assert_eq!(par, reference);
        // and the engine is a pure function of the seed
        assert_eq!(
            par,
            simulate_ber_par(seed, &code, &cons, 2, 1.0, 1.0, n_blocks)
        );
        assert_ne!(
            par,
            simulate_ber_par(seed + 1, &code, &cons, 2, 1.0, 1.0, n_blocks),
            "different seeds should give different realisations"
        );
    }

    #[test]
    fn shard_plan_covers_exactly() {
        for n in [0usize, 1, 1023, 1024, 1025, 5000] {
            let shards: Vec<_> = shard_plan(n).collect();
            assert_eq!(shards.iter().map(|&(_, b)| b).sum::<usize>(), n);
            for (i, &(label, blocks)) in shards.iter().enumerate() {
                assert_eq!(label, i as u64);
                assert!(blocks > 0 && blocks <= DEFAULT_SHARD_BLOCKS);
            }
        }
    }

    #[test]
    fn h3_rate_three_quarters_roundtrip_under_noise_floor() {
        let mut rng = seeded(74);
        let code = Ostbc::new(StbcKind::H3);
        let cons = SimConstellation::new(2);
        let r = simulate_ber(&mut rng, &code, &cons, 2, 50.0, 1.0, 4_000);
        // with 3x2 diversity at high SNR the BER is tiny
        assert!(r.ber() < 5e-3, "H3 3x2 BER {}", r.ber());
    }
}
