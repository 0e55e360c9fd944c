//! Multi-configuration common-random-number (CRN) Monte-Carlo grid engine.
//!
//! Every figure in the paper sweeps BER over an SNR × constellation grid.
//! Running [`crate::sim::simulate_ber_par`] once per grid point redraws
//! channel, symbols and noise for every point — yet none of those draws
//! depend on `(es, n0)` or the constellation. This engine draws each
//! shard's randomness **once** in configuration-independent form and
//! replays it across the whole grid:
//!
//! * channel `h ~ CN(0, 1)` — shared by every configuration;
//! * raw keystream words for the symbol indices
//!   ([`comimo_math::batch::fill_u64`]) — mapped per constellation with
//!   [`comimo_math::batch::map_range_u32`], so two configurations with the
//!   same constellation see *identical* symbol sequences;
//! * raw noise `w ~ CN(0, 2)` (i.e. unit-σ per component) — scaled per
//!   configuration by `σ = √(n0/2)`, which reproduces a direct
//!   `CN(0, n0)` draw bit for bit.
//!
//! Common random numbers are the classic variance-reduction lever for
//! *comparing* configurations: adjacent SNR points share every fading and
//! noise realisation, so a BER curve over an SNR sweep is monotone by
//! construction instead of merely in expectation, and differences between
//! configurations are estimated far more precisely than from independent
//! runs.
//!
//! # Stream discipline and exact per-point agreement
//!
//! The shard decomposition ([`shard_plan`]) and per-shard streams
//! (`derive(seed, label)`) are exactly those of `simulate_ber_par`, and a
//! shard's draw order (channel fill, word fill, noise fill per chunk) does
//! not depend on how many configurations ride on it. The per-point engine
//! ([`crate::batch::BatchWorkspace`]) *is* this engine with a single
//! configuration, so grid results are **bit-identical** to per-point runs:
//! `simulate_ber_grid(seed, …)[i] == simulate_ber_par(seed, points[i])`,
//! at any thread count, with or without the `parallel` feature.
//!
//! # Lane parallelism
//!
//! The SoA pipeline processes four blocks per iteration through
//! [`comimo_math::simd::F64x4`]; when the workspace's tier (by default
//! [`comimo_math::simd::active`], fixed at construction) is AVX2 the
//! whole compute pass is compiled under `#[target_feature(enable =
//! "avx2")]` so those lanes map to 256-bit vector ops. Both tiers perform
//! identical IEEE arithmetic — the tier changes throughput, never a
//! count.

use crate::batch::BATCH_BLOCKS;
use crate::design::Ostbc;
use crate::sim::{shard_plan, BerResult, SimConstellation};
use comimo_math::batch::{complex_gaussian_fill, fill_u64, map_range_u32};
use comimo_math::complex::Complex;
use comimo_math::simd::{self, F64x4};
use rand::RngCore;

/// One grid configuration: a constellation at a transmit/noise energy
/// operating point (the paper's `(b, Es, N0)` triple).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Constellation size as bits/symbol (`b = 1, 2, 4, 6, 8`).
    pub bits_per_symbol: u32,
    /// Per-symbol transmit energy, split over the `mt` antennas.
    pub es: f64,
    /// Complex noise variance.
    pub n0: f64,
}

/// One nonzero linear-dispersion coefficient, pre-resolved to a flat
/// buffer offset so the hot loops never re-derive tensor indices.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// Which plane (symbol `k` for encode, antenna `i` for decode).
    plane: usize,
    re: f64,
    im: f64,
}

/// Per-constellation tables and buffers (shared by every configuration
/// using that constellation).
#[derive(Debug, Clone)]
struct ConsTables {
    cons: SimConstellation,
    m: u32,
    bits: u32,
    pts_re: Vec<f64>,
    pts_im: Vec<f64>,
    /// Symbol indices for the current chunk (`sym·n + block`).
    idx: Vec<u32>,
    /// Gathered symbol values, planar.
    s_re: Vec<f64>,
    s_im: Vec<f64>,
}

/// Per-`(constellation, es)` state: the encoded transmit block (the
/// amplitude is folded into `x`, so it is shared by every `n0` riding on
/// this pair).
#[derive(Debug, Clone)]
struct Group {
    cons_idx: usize,
    amp: f64,
    x_re: Vec<f64>,
    x_im: Vec<f64>,
    cfg_ids: Vec<usize>,
}

/// Per-configuration state: the noise scale and the matched-filter
/// accumulators.
#[derive(Debug, Clone)]
struct Cfg {
    cons_idx: usize,
    sigma: f64,
    inv_amp: f64,
    est_re: Vec<f64>,
    est_im: Vec<f64>,
}

/// Preallocated state for the CRN grid engine: one workspace simulates
/// every configuration of the grid from one shared draw stream. Steady
/// state is allocation-free. The per-point
/// [`crate::batch::BatchWorkspace`] is this workspace with one
/// configuration.
#[derive(Debug, Clone)]
pub struct GridWorkspace {
    mt: usize,
    mr: usize,
    t: usize,
    k: usize,
    /// Per `(slot·mt + ant)`: nonzero coefficients of `s_k` / `s_k*`.
    enc_a: Vec<Vec<Term>>,
    enc_b: Vec<Vec<Term>>,
    /// Per `(slot·k + sym)`: nonzero coefficients over antennas.
    dec_a: Vec<Vec<Term>>,
    dec_b: Vec<Vec<Term>>,
    /// Whether `(slot·k + sym)` has any decode term at all.
    has_terms: Vec<bool>,
    cons: Vec<ConsTables>,
    groups: Vec<Group>,
    cfgs: Vec<Cfg>,
    /// Tier of the compute pass, fixed at construction.
    dispatch: simd::Dispatch,
    // shared sample buffers, block-minor: index = plane*n + block
    h_re: Vec<f64>,
    h_im: Vec<f64>,
    words: Vec<u64>,
    w_re: Vec<f64>,
    w_im: Vec<f64>,
    // decode scratch: c/d per (slot, sym, j); p = c+d, m = c−d per sym
    c_re: Vec<f64>,
    c_im: Vec<f64>,
    d_re: Vec<f64>,
    d_im: Vec<f64>,
    p_re: Vec<f64>,
    p_im: Vec<f64>,
    m_re: Vec<f64>,
    m_im: Vec<f64>,
    // signal / combined-receive scratch for one (slot, rx) pair
    v_re: Vec<f64>,
    v_im: Vec<f64>,
    y_re: Vec<f64>,
    y_im: Vec<f64>,
    // gram diagonals (h-only, shared by every configuration)
    gp: Vec<f64>,
    gm: Vec<f64>,
    errs: Vec<u64>,
}

impl GridWorkspace {
    /// Builds the workspace for `code` × `points` with `mr` receive
    /// antennas, deduplicating constellation tables by `bits_per_symbol`
    /// and encode state by `(bits_per_symbol, es)`.
    pub fn new(code: &Ostbc, points: &[GridPoint], mr: usize) -> Self {
        Self::with_dispatch(code, points, mr, simd::active())
    }

    /// [`GridWorkspace::new`] with the compute pass on `dispatch` instead
    /// of [`simd::active`]; the sample draws always run on the active
    /// tier. Results are bit-identical across tiers; this exists so tests
    /// and benches can compare them in one process.
    pub fn with_dispatch(
        code: &Ostbc,
        points: &[GridPoint],
        mr: usize,
        dispatch: simd::Dispatch,
    ) -> Self {
        assert!(mr >= 1);
        assert!(!points.is_empty(), "a grid needs at least one point");
        let (mt, t, k) = (code.n_tx(), code.n_slots(), code.n_symbols());
        let n = BATCH_BLOCKS;
        let mut enc_a = vec![Vec::new(); t * mt];
        let mut enc_b = vec![Vec::new(); t * mt];
        let mut dec_a = vec![Vec::new(); t * k];
        let mut dec_b = vec![Vec::new(); t * k];
        for slot in 0..t {
            for ant in 0..mt {
                for sym in 0..k {
                    let a = code.a_coef(slot, ant, sym);
                    let b = code.b_coef(slot, ant, sym);
                    if a != Complex::zero() {
                        enc_a[slot * mt + ant].push(Term {
                            plane: sym,
                            re: a.re,
                            im: a.im,
                        });
                        dec_a[slot * k + sym].push(Term {
                            plane: ant,
                            re: a.re,
                            im: a.im,
                        });
                    }
                    if b != Complex::zero() {
                        enc_b[slot * mt + ant].push(Term {
                            plane: sym,
                            re: b.re,
                            im: b.im,
                        });
                        dec_b[slot * k + sym].push(Term {
                            plane: ant,
                            re: b.re,
                            im: b.im,
                        });
                    }
                }
            }
        }
        let has_terms: Vec<bool> = (0..t * k)
            .map(|i| !dec_a[i].is_empty() || !dec_b[i].is_empty())
            .collect();

        let mut cons: Vec<ConsTables> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut cfgs: Vec<Cfg> = Vec::new();
        for p in points {
            assert!(p.es > 0.0 && p.n0 > 0.0);
            let cons_idx = match cons.iter().position(|c| c.bits == p.bits_per_symbol) {
                Some(i) => i,
                None => {
                    let c = SimConstellation::new(p.bits_per_symbol);
                    let m = c.size() as u32;
                    cons.push(ConsTables {
                        m,
                        bits: p.bits_per_symbol,
                        pts_re: (0..m).map(|i| c.map(i).re).collect(),
                        pts_im: (0..m).map(|i| c.map(i).im).collect(),
                        cons: c,
                        idx: vec![0; k * n],
                        s_re: vec![0.0; k * n],
                        s_im: vec![0.0; k * n],
                    });
                    cons.len() - 1
                }
            };
            let amp = (p.es / mt as f64).sqrt();
            let group_idx = match groups
                .iter()
                .position(|g| g.cons_idx == cons_idx && g.amp.to_bits() == amp.to_bits())
            {
                Some(i) => i,
                None => {
                    groups.push(Group {
                        cons_idx,
                        amp,
                        x_re: vec![0.0; t * mt * n],
                        x_im: vec![0.0; t * mt * n],
                        cfg_ids: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            groups[group_idx].cfg_ids.push(cfgs.len());
            cfgs.push(Cfg {
                cons_idx,
                sigma: (p.n0 / 2.0).sqrt(),
                inv_amp: 1.0 / amp,
                est_re: vec![0.0; k * n],
                est_im: vec![0.0; k * n],
            });
        }
        let n_cfg = cfgs.len();
        Self {
            mt,
            mr,
            t,
            k,
            enc_a,
            enc_b,
            dec_a,
            dec_b,
            has_terms,
            cons,
            groups,
            cfgs,
            dispatch,
            h_re: vec![0.0; mr * mt * n],
            h_im: vec![0.0; mr * mt * n],
            words: vec![0; k * n],
            w_re: vec![0.0; t * mr * n],
            w_im: vec![0.0; t * mr * n],
            c_re: vec![0.0; n],
            c_im: vec![0.0; n],
            d_re: vec![0.0; n],
            d_im: vec![0.0; n],
            p_re: vec![0.0; k * n],
            p_im: vec![0.0; k * n],
            m_re: vec![0.0; k * n],
            m_im: vec![0.0; k * n],
            v_re: vec![0.0; n],
            v_im: vec![0.0; n],
            y_re: vec![0.0; n],
            y_im: vec![0.0; n],
            gp: vec![0.0; k * n],
            gm: vec![0.0; k * n],
            errs: vec![0; n_cfg],
        }
    }

    /// Number of grid configurations this workspace simulates.
    pub fn n_points(&self) -> usize {
        self.cfgs.len()
    }

    /// Re-aims a **single-point** workspace at a new `(es, n0)` operating
    /// point without reallocating (the per-point `BatchWorkspace` takes
    /// `es`/`n0` per call).
    pub(crate) fn retarget_single(&mut self, es: f64, n0: f64) {
        assert!(es > 0.0 && n0 > 0.0);
        assert_eq!(self.cfgs.len(), 1, "retarget_single needs a 1-point grid");
        let amp = (es / self.mt as f64).sqrt();
        self.groups[0].amp = amp;
        self.cfgs[0].inv_amp = 1.0 / amp;
        self.cfgs[0].sigma = (n0 / 2.0).sqrt();
    }

    /// Simulates `n_blocks` blocks from `rng` in chunks of
    /// [`BATCH_BLOCKS`], writing one [`BerResult`] per grid point into
    /// `out`. The chunk decomposition and per-chunk draw order depend
    /// only on `n_blocks` — never on the grid size — so the stream
    /// consumption matches the per-point engine exactly.
    ///
    /// # Panics
    /// If `out.len() != self.n_points()`.
    pub fn simulate_into(
        &mut self,
        rng: &mut (impl RngCore + ?Sized),
        n_blocks: usize,
        out: &mut [BerResult],
    ) {
        assert_eq!(out.len(), self.cfgs.len());
        self.errs.fill(0);
        let mut remaining = n_blocks;
        while remaining > 0 {
            let n = remaining.min(BATCH_BLOCKS);
            self.run_chunk(rng, n);
            remaining -= n;
        }
        for (i, r) in out.iter_mut().enumerate() {
            let bits = self.cons[self.cfgs[i].cons_idx].bits;
            *r = BerResult {
                bits: (n_blocks * self.k) as u64 * u64::from(bits),
                errors: self.errs[i],
            };
        }
    }

    /// One chunk of `n ≤ BATCH_BLOCKS` blocks: three configuration-
    /// independent bulk draws, then the dispatched lane-parallel compute
    /// pass over every configuration.
    fn run_chunk(&mut self, rng: &mut (impl RngCore + ?Sized), n: usize) {
        let (mt, mr, t, k) = (self.mt, self.mr, self.t, self.k);
        // 1. channel: h[(j·mt+i)·n + b] ~ CN(0, 1) — shared by all configs
        complex_gaussian_fill(
            rng,
            1.0,
            &mut self.h_re[..mr * mt * n],
            &mut self.h_im[..mr * mt * n],
        );
        // 2. raw symbol words — mapped per constellation in the compute
        //    pass (identical values/consumption to a per-point
        //    fill_range_u32)
        fill_u64(rng, &mut self.words[..k * n]);
        // 3. raw noise w ~ CN(0, 2) (unit σ per component) — scaled to
        //    each config's σ = √(n0/2) in the compute pass, bitwise equal
        //    to a direct CN(0, n0) fill
        complex_gaussian_fill(
            rng,
            2.0,
            &mut self.w_re[..t * mr * n],
            &mut self.w_im[..t * mr * n],
        );
        match self.dispatch {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an Avx2 value carries a token that only
            // `Dispatch::avx2()` makes, after detecting AVX2.
            simd::Dispatch::Avx2(_) => unsafe { self.compute_avx2(n) },
            simd::Dispatch::Scalar => self.compute_plain(n),
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn compute_avx2(&mut self, n: usize) {
        self.compute_body(n);
    }

    fn compute_plain(&mut self, n: usize) {
        self.compute_body(n);
    }

    /// The configuration fan-out: gather symbols per constellation,
    /// encode per `(constellation, es)` group, then per `(slot, rx)` pair
    /// build the shared matched-filter coefficients once and combine +
    /// accumulate for every configuration. Inlined into both dispatch
    /// wrappers; every loop runs four blocks per iteration via
    /// [`F64x4`].
    #[inline(always)]
    fn compute_body(&mut self, n: usize) {
        let Self {
            mt,
            mr,
            t,
            k,
            enc_a,
            enc_b,
            dec_a,
            dec_b,
            has_terms,
            cons,
            groups,
            cfgs,
            h_re,
            h_im,
            words,
            w_re,
            w_im,
            c_re,
            c_im,
            d_re,
            d_im,
            p_re,
            p_im,
            m_re,
            m_im,
            v_re,
            v_im,
            y_re,
            y_im,
            gp,
            gm,
            errs,
            ..
        } = self;
        let (mt, mr, t, k) = (*mt, *mr, *t, *k);
        let words = &words[..k * n];

        // -- per constellation: map words to indices, gather symbols -----
        for ct in cons.iter_mut() {
            map_range_u32(words, ct.m, &mut ct.idx[..k * n]);
            for sym in 0..k {
                let idx = &ct.idx[sym * n..][..n];
                let s_re = &mut ct.s_re[sym * n..][..n];
                let s_im = &mut ct.s_im[sym * n..][..n];
                for b in 0..n {
                    s_re[b] = ct.pts_re[idx[b] as usize];
                    s_im[b] = ct.pts_im[idx[b] as usize];
                }
            }
        }

        // -- per group: encode x = amp·(Σ_k a·s_k + b·s_k*) --------------
        for g in groups.iter_mut() {
            let ct = &cons[g.cons_idx];
            for ti in 0..t * mt {
                let x_re = &mut g.x_re[ti * n..][..n];
                let x_im = &mut g.x_im[ti * n..][..n];
                x_re.fill(0.0);
                x_im.fill(0.0);
                for term in &enc_a[ti] {
                    let s_re = &ct.s_re[term.plane * n..][..n];
                    let s_im = &ct.s_im[term.plane * n..][..n];
                    cmul_coef_acc(x_re, x_im, g.amp * term.re, g.amp * term.im, s_re, s_im, n);
                }
                for term in &enc_b[ti] {
                    // coefficient of s*: conjugate flips the sign of s_im
                    let s_re = &ct.s_re[term.plane * n..][..n];
                    let s_im = &ct.s_im[term.plane * n..][..n];
                    cmul_coef_conj_acc(x_re, x_im, g.amp * term.re, g.amp * term.im, s_re, s_im, n);
                }
            }
        }

        // -- decode: one (slot, rx) pass, shared coefficients first ------
        gp[..k * n].fill(0.0);
        gm[..k * n].fill(0.0);
        for cfg in cfgs.iter_mut() {
            cfg.est_re[..k * n].fill(0.0);
            cfg.est_im[..k * n].fill(0.0);
        }
        for slot in 0..t {
            for j in 0..mr {
                // shared: p = c+d, m = c−d per symbol, plus the gram
                // diagonals — pure functions of h, computed once for the
                // whole grid
                for sym in 0..k {
                    if !has_terms[slot * k + sym] {
                        continue;
                    }
                    c_re[..n].fill(0.0);
                    c_im[..n].fill(0.0);
                    d_re[..n].fill(0.0);
                    d_im[..n].fill(0.0);
                    for term in &dec_a[slot * k + sym] {
                        let h_re = &h_re[(j * mt + term.plane) * n..][..n];
                        let h_im = &h_im[(j * mt + term.plane) * n..][..n];
                        cmul_coef_acc(
                            &mut c_re[..n],
                            &mut c_im[..n],
                            term.re,
                            term.im,
                            h_re,
                            h_im,
                            n,
                        );
                    }
                    for term in &dec_b[slot * k + sym] {
                        let h_re = &h_re[(j * mt + term.plane) * n..][..n];
                        let h_im = &h_im[(j * mt + term.plane) * n..][..n];
                        cmul_coef_acc(
                            &mut d_re[..n],
                            &mut d_im[..n],
                            term.re,
                            term.im,
                            h_re,
                            h_im,
                            n,
                        );
                    }
                    combine_pm_and_gram(
                        &c_re[..n],
                        &c_im[..n],
                        &d_re[..n],
                        &d_im[..n],
                        &mut p_re[sym * n..][..n],
                        &mut p_im[sym * n..][..n],
                        &mut m_re[sym * n..][..n],
                        &mut m_im[sym * n..][..n],
                        &mut gp[sym * n..][..n],
                        &mut gm[sym * n..][..n],
                        n,
                    );
                }
                let w_re = &w_re[(slot * mr + j) * n..][..n];
                let w_im = &w_im[(slot * mr + j) * n..][..n];
                for g in groups.iter() {
                    // group signal v = Σ_i x[slot,i]·h[j,i]
                    v_re[..n].fill(0.0);
                    v_im[..n].fill(0.0);
                    for i in 0..mt {
                        let x_re = &g.x_re[(slot * mt + i) * n..][..n];
                        let x_im = &g.x_im[(slot * mt + i) * n..][..n];
                        let h_re = &h_re[(j * mt + i) * n..][..n];
                        let h_im = &h_im[(j * mt + i) * n..][..n];
                        vcmul_acc(&mut v_re[..n], &mut v_im[..n], x_re, x_im, h_re, h_im, n);
                    }
                    for &ci in &g.cfg_ids {
                        let cfg = &mut cfgs[ci];
                        // config receive y = σ·w + v
                        scale_add(&mut y_re[..n], cfg.sigma, w_re, &v_re[..n], n);
                        scale_add(&mut y_im[..n], cfg.sigma, w_im, &v_im[..n], n);
                        for sym in 0..k {
                            if !has_terms[slot * k + sym] {
                                continue;
                            }
                            // Re(conj(p)·y) and Im(conj(m)·y)
                            est_acc(
                                &mut cfg.est_re[sym * n..][..n],
                                &mut cfg.est_im[sym * n..][..n],
                                &p_re[sym * n..][..n],
                                &p_im[sym * n..][..n],
                                &m_re[sym * n..][..n],
                                &m_im[sym * n..][..n],
                                &y_re[..n],
                                &y_im[..n],
                                n,
                            );
                        }
                    }
                }
            }
        }

        // -- normalise, slice, count per configuration -------------------
        for (ci, cfg) in cfgs.iter().enumerate() {
            let ct = &cons[cfg.cons_idx];
            let mut errors = 0u64;
            for sym in 0..k {
                let est_re = &cfg.est_re[sym * n..][..n];
                let est_im = &cfg.est_im[sym * n..][..n];
                let gp = &gp[sym * n..][..n];
                let gm = &gm[sym * n..][..n];
                let idx = &ct.idx[sym * n..][..n];
                for b in 0..n {
                    let e = Complex::new(
                        est_re[b] / gp[b] * cfg.inv_amp,
                        est_im[b] / gm[b] * cfg.inv_amp,
                    );
                    let hat = ct.cons.slice_fast(e);
                    errors += u64::from((hat ^ idx[b]).count_ones());
                }
            }
            errs[ci] += errors;
        }
    }
}

// ---------------------------------------------------------------------------
// lane-parallel loop bodies (4 blocks per iteration; scalar tails follow
// the exact lane operation order, so chunk sizes off the lane grid stay
// deterministic and tier-independent)
// ---------------------------------------------------------------------------

/// `dst += (ar + i·ai)·s`, element-wise over planar `s`.
#[inline(always)]
fn cmul_coef_acc(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    ar: f64,
    ai: f64,
    s_re: &[f64],
    s_im: &[f64],
    n: usize,
) {
    let n4 = n - n % 4;
    let (va, vb) = (F64x4::splat(ar), F64x4::splat(ai));
    for b in (0..n4).step_by(4) {
        let sr = F64x4::load(s_re, b);
        let si = F64x4::load(s_im, b);
        (F64x4::load(dst_re, b) + va * sr - vb * si).store(dst_re, b);
        (F64x4::load(dst_im, b) + va * si + vb * sr).store(dst_im, b);
    }
    for b in n4..n {
        dst_re[b] = dst_re[b] + ar * s_re[b] - ai * s_im[b];
        dst_im[b] = dst_im[b] + ar * s_im[b] + ai * s_re[b];
    }
}

/// `dst += (ar + i·ai)·conj(s)`, element-wise over planar `s`.
#[inline(always)]
fn cmul_coef_conj_acc(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    ar: f64,
    ai: f64,
    s_re: &[f64],
    s_im: &[f64],
    n: usize,
) {
    let n4 = n - n % 4;
    let (va, vb) = (F64x4::splat(ar), F64x4::splat(ai));
    for b in (0..n4).step_by(4) {
        let sr = F64x4::load(s_re, b);
        let si = F64x4::load(s_im, b);
        (F64x4::load(dst_re, b) + va * sr + vb * si).store(dst_re, b);
        (F64x4::load(dst_im, b) + vb * sr - va * si).store(dst_im, b);
    }
    for b in n4..n {
        dst_re[b] = dst_re[b] + ar * s_re[b] + ai * s_im[b];
        dst_im[b] = dst_im[b] + ai * s_re[b] - ar * s_im[b];
    }
}

/// `dst += a·h`, element-wise complex multiply of two planar vectors.
#[inline(always)]
fn vcmul_acc(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    h_re: &[f64],
    h_im: &[f64],
    n: usize,
) {
    let n4 = n - n % 4;
    for b in (0..n4).step_by(4) {
        let ar = F64x4::load(a_re, b);
        let ai = F64x4::load(a_im, b);
        let hr = F64x4::load(h_re, b);
        let hi = F64x4::load(h_im, b);
        (F64x4::load(dst_re, b) + ar * hr - ai * hi).store(dst_re, b);
        (F64x4::load(dst_im, b) + ar * hi + ai * hr).store(dst_im, b);
    }
    for b in n4..n {
        dst_re[b] = dst_re[b] + a_re[b] * h_re[b] - a_im[b] * h_im[b];
        dst_im[b] = dst_im[b] + a_re[b] * h_im[b] + a_im[b] * h_re[b];
    }
}

/// `p = c + d`, `m = c − d`, and the gram accumulations
/// `gp += |p|²`, `gm += |m|²`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn combine_pm_and_gram(
    c_re: &[f64],
    c_im: &[f64],
    d_re: &[f64],
    d_im: &[f64],
    p_re: &mut [f64],
    p_im: &mut [f64],
    m_re: &mut [f64],
    m_im: &mut [f64],
    gp: &mut [f64],
    gm: &mut [f64],
    n: usize,
) {
    let n4 = n - n % 4;
    for b in (0..n4).step_by(4) {
        let cr = F64x4::load(c_re, b);
        let ci = F64x4::load(c_im, b);
        let dr = F64x4::load(d_re, b);
        let di = F64x4::load(d_im, b);
        let pr = cr + dr;
        let pi = ci + di;
        let mr = cr - dr;
        let mi = ci - di;
        pr.store(p_re, b);
        pi.store(p_im, b);
        mr.store(m_re, b);
        mi.store(m_im, b);
        (F64x4::load(gp, b) + pr * pr + pi * pi).store(gp, b);
        (F64x4::load(gm, b) + mr * mr + mi * mi).store(gm, b);
    }
    for b in n4..n {
        let pr = c_re[b] + d_re[b];
        let pi = c_im[b] + d_im[b];
        let mr = c_re[b] - d_re[b];
        let mi = c_im[b] - d_im[b];
        p_re[b] = pr;
        p_im[b] = pi;
        m_re[b] = mr;
        m_im[b] = mi;
        gp[b] = gp[b] + pr * pr + pi * pi;
        gm[b] = gm[b] + mr * mr + mi * mi;
    }
}

/// `y = σ·w + v` (one component of the per-config receive combine).
#[inline(always)]
fn scale_add(y: &mut [f64], sigma: f64, w: &[f64], v: &[f64], n: usize) {
    let n4 = n - n % 4;
    let vs = F64x4::splat(sigma);
    for b in (0..n4).step_by(4) {
        (vs * F64x4::load(w, b) + F64x4::load(v, b)).store(y, b);
    }
    for b in n4..n {
        y[b] = sigma * w[b] + v[b];
    }
}

/// Matched-filter accumulation:
/// `est_re += Re(conj(p)·y)`, `est_im += Im(conj(m)·y)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn est_acc(
    est_re: &mut [f64],
    est_im: &mut [f64],
    p_re: &[f64],
    p_im: &[f64],
    m_re: &[f64],
    m_im: &[f64],
    y_re: &[f64],
    y_im: &[f64],
    n: usize,
) {
    let n4 = n - n % 4;
    for b in (0..n4).step_by(4) {
        let pr = F64x4::load(p_re, b);
        let pi = F64x4::load(p_im, b);
        let mr = F64x4::load(m_re, b);
        let mi = F64x4::load(m_im, b);
        let yr = F64x4::load(y_re, b);
        let yi = F64x4::load(y_im, b);
        (F64x4::load(est_re, b) + pr * yr + pi * yi).store(est_re, b);
        (F64x4::load(est_im, b) + mr * yi - mi * yr).store(est_im, b);
    }
    for b in n4..n {
        est_re[b] = est_re[b] + p_re[b] * y_re[b] + p_im[b] * y_im[b];
        est_im[b] = est_im[b] + m_re[b] * y_im[b] - m_im[b] * y_re[b];
    }
}

/// Simulates the whole `points` grid serially under the exact shard
/// decomposition of [`crate::sim::simulate_ber_par`] (stream
/// `derive(seed, shard_label)` per shard), reusing one [`GridWorkspace`].
/// Returns one [`BerResult`] per grid point, in `points` order.
///
/// This is the serial reference [`simulate_ber_grid_par`] matches
/// bit-for-bit, and each returned entry equals the per-point
/// `simulate_ber_par(seed, …, points[i].es, points[i].n0, n_blocks)`
/// exactly — the per-point engine is this engine with a 1-point grid and
/// the draws are configuration-independent.
pub fn simulate_ber_grid(
    seed: u64,
    code: &Ostbc,
    points: &[GridPoint],
    mr: usize,
    n_blocks: usize,
) -> Vec<BerResult> {
    let mut ws = GridWorkspace::new(code, points, mr);
    let mut total = vec![BerResult { bits: 0, errors: 0 }; points.len()];
    let mut part = vec![BerResult { bits: 0, errors: 0 }; points.len()];
    for (label, blocks) in shard_plan(n_blocks) {
        let mut rng = comimo_math::rng::derive(seed, label);
        ws.simulate_into(&mut rng, blocks, &mut part);
        for (acc, p) in total.iter_mut().zip(&part) {
            acc.bits += p.bits;
            acc.errors += p.errors;
        }
    }
    total
}

/// Deterministic parallel grid simulation: [`shard_plan`] shards fanned
/// out by [`comimo_sim::map_shards`] (serial without the `parallel`
/// feature), one derived stream
/// and one [`GridWorkspace`] per shard, counts merged per grid point.
/// Bit-identical to [`simulate_ber_grid`] at any thread count.
pub fn simulate_ber_grid_par(
    seed: u64,
    code: &Ostbc,
    points: &[GridPoint],
    mr: usize,
    n_blocks: usize,
) -> Vec<BerResult> {
    let shards: Vec<(u64, usize)> = shard_plan(n_blocks).collect();
    let parts = comimo_sim::map_shards(&shards, |_, &(label, blocks)| {
        let mut rng = comimo_math::rng::derive(seed, label);
        let mut ws = GridWorkspace::new(code, points, mr);
        let mut out = vec![BerResult { bits: 0, errors: 0 }; points.len()];
        ws.simulate_into(&mut rng, blocks, &mut out);
        out
    });
    let mut total = vec![BerResult { bits: 0, errors: 0 }; points.len()];
    for part in parts {
        for (acc, p) in total.iter_mut().zip(&part) {
            acc.bits += p.bits;
            acc.errors += p.errors;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::StbcKind;
    use crate::sim::simulate_ber_par;

    fn snr_sweep(bits: u32, n0s: &[f64]) -> Vec<GridPoint> {
        n0s.iter()
            .map(|&n0| GridPoint {
                bits_per_symbol: bits,
                es: 1.0,
                n0,
            })
            .collect()
    }

    /// The CRN contract's second half: grid counts equal per-point counts
    /// exactly when the streams are aligned — for every configuration of
    /// a mixed constellation × energy × noise grid.
    #[test]
    fn grid_counts_equal_per_point_counts_exactly() {
        let code = Ostbc::new(StbcKind::Alamouti);
        let points = [
            GridPoint {
                bits_per_symbol: 2,
                es: 1.0,
                n0: 1.0,
            },
            GridPoint {
                bits_per_symbol: 2,
                es: 1.0,
                n0: 0.5,
            },
            GridPoint {
                bits_per_symbol: 1,
                es: 2.0,
                n0: 1.0,
            },
            GridPoint {
                bits_per_symbol: 4,
                es: 4.0,
                n0: 0.7,
            },
        ];
        let n_blocks = 3 * crate::sim::DEFAULT_SHARD_BLOCKS / 2;
        let grid = simulate_ber_grid(2013, &code, &points, 2, n_blocks);
        for (i, p) in points.iter().enumerate() {
            let cons = SimConstellation::new(p.bits_per_symbol);
            let single = simulate_ber_par(2013, &code, &cons, 2, p.es, p.n0, n_blocks);
            assert_eq!(
                grid[i], single,
                "grid point {i} diverged from per-point engine"
            );
        }
    }

    #[test]
    fn grid_par_is_bit_identical_to_serial_grid() {
        let code = Ostbc::new(StbcKind::G3);
        let points = snr_sweep(2, &[2.0, 1.0, 0.5, 0.25]);
        let n_blocks = 2 * crate::sim::DEFAULT_SHARD_BLOCKS + 100;
        let serial = simulate_ber_grid(7, &code, &points, 2, n_blocks);
        let par = simulate_ber_grid_par(7, &code, &points, 2, n_blocks);
        assert_eq!(serial, par);
        // pure function of the seed
        assert_eq!(par, simulate_ber_grid_par(7, &code, &points, 2, n_blocks));
        assert_ne!(par, simulate_ber_grid_par(8, &code, &points, 2, n_blocks));
    }

    /// The CRN contract's first half: with shared draws a BER curve over
    /// an SNR sweep is monotone non-increasing per configuration — not
    /// just in expectation. For BPSK/QPSK this holds per sample (shrinking
    /// the noise scale moves every decision statistic radially toward the
    /// transmitted symbol); for 16-QAM Gray bit-counting is not per-sample
    /// monotone across multi-level errors, so a one-bit-in-the-curve
    /// tolerance applies.
    #[test]
    fn crn_grid_ber_curves_are_monotone_in_snr() {
        let code = Ostbc::new(StbcKind::Alamouti);
        let n0s = [4.0, 2.0, 1.2, 0.8, 0.5, 0.3, 0.15];
        for bits in [1u32, 2] {
            let grid = simulate_ber_grid(42, &code, &snr_sweep(bits, &n0s), 2, 4096);
            for w in grid.windows(2) {
                assert!(
                    w[1].errors <= w[0].errors,
                    "b={bits}: CRN curve not monotone: {} -> {} errors",
                    w[0].errors,
                    w[1].errors
                );
            }
        }
        let grid = simulate_ber_grid(42, &code, &snr_sweep(4, &n0s), 2, 4096);
        for w in grid.windows(2) {
            let slack = w[0].bits / 10_000;
            assert!(
                w[1].errors <= w[0].errors + slack,
                "b=4: CRN curve rose: {} -> {} errors",
                w[0].errors,
                w[1].errors
            );
        }
    }

    /// Independent per-point runs at these block counts would NOT give
    /// monotone curves everywhere — the variance-reduction property is
    /// what the grid engine buys. (Sanity check that the monotonicity
    /// test above is not vacuous.)
    #[test]
    fn grid_variance_reduction_tightens_adjacent_deltas() {
        let code = Ostbc::new(StbcKind::Alamouti);
        // two nearly identical SNR points: CRN makes their difference
        // nearly noiseless, independent seeds leave full MC noise
        let points = snr_sweep(2, &[1.0, 0.98]);
        let grid = simulate_ber_grid(11, &code, &points, 2, 8192);
        let crn_delta = (grid[0].ber() - grid[1].ber()).abs();
        let a = simulate_ber_grid(12, &code, &points[..1], 2, 8192)[0];
        let b = simulate_ber_grid(13, &code, &points[1..], 2, 8192)[0];
        let indep_delta = (a.ber() - b.ber()).abs();
        assert!(
            crn_delta < indep_delta,
            "CRN delta {crn_delta} not tighter than independent delta {indep_delta}"
        );
    }

    /// Dispatch tiers must be invisible in the counts: the same grid under
    /// the scalar and (when available) AVX2 tier is bit-identical.
    #[test]
    fn grid_is_bit_identical_across_dispatch_tiers() {
        let code = Ostbc::new(StbcKind::H4);
        let points = snr_sweep(2, &[1.5, 0.75]);
        let run = |d: simd::Dispatch| {
            let mut ws = GridWorkspace::with_dispatch(&code, &points, 2, d);
            let mut out = vec![BerResult { bits: 0, errors: 0 }; points.len()];
            let mut rng = comimo_math::rng::derive(99, 0);
            ws.simulate_into(&mut rng, 700, &mut out);
            out
        };
        let reference = run(simd::Dispatch::Scalar);
        assert_eq!(run(simd::active()), reference, "active tier diverged");
        if let Some(avx2) = simd::Dispatch::avx2() {
            assert_eq!(run(avx2), reference, "avx2 tier diverged");
        }
    }

    /// A grid sharing one constellation must see identical symbol
    /// sequences at every point; with negligible noise everywhere, every
    /// point decodes perfectly regardless of es.
    #[test]
    fn noiseless_grid_roundtrip_recovers_every_symbol() {
        for kind in [
            StbcKind::Siso,
            StbcKind::Alamouti,
            StbcKind::G4,
            StbcKind::H3,
        ] {
            let code = Ostbc::new(kind);
            let points = [
                GridPoint {
                    bits_per_symbol: 2,
                    es: 1.0,
                    n0: 1e-12,
                },
                GridPoint {
                    bits_per_symbol: 4,
                    es: 3.0,
                    n0: 1e-12,
                },
            ];
            for r in simulate_ber_grid(5, &code, &points, 2, 600) {
                assert_eq!(r.errors, 0, "{kind:?}: errors without noise");
            }
        }
    }
}
