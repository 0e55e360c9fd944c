//! The CRN BER grid: the `results/bergrid.txt` sweep (the operating
//! constellations Figures 6 and 7 select, at every symbol SNR, for the
//! Alamouti 2×3 and H3 3×3 cluster hops) on the common-random-number
//! grid engine.
//!
//! One step pushes one [`DEFAULT_SHARD_BLOCKS`]-block shard through the
//! grid of both cluster configurations, each from stream
//! `derive(seed, step)`. Checks: sampled steps are replayed per point on
//! the single-point engine and must match the grid exactly, and at the
//! end the BPSK points must sit on the closed-form `mt·mr`-branch MRC
//! Rayleigh curve.

use crate::ledger::{Counts, Layer, Ledger};
use crate::Workload;
use comimo_bench::{bergrid_points, BERGRID_CONFIGS};
use comimo_math::batch::{complex_gaussian_fill, fill_u64};
use comimo_math::rng::{derive, SeededRng};
use comimo_stbc::batch::{BatchWorkspace, BATCH_BLOCKS};
use comimo_stbc::grid::{GridPoint, GridWorkspace};
use comimo_stbc::sim::{bpsk_mrc_rayleigh_ber, BerResult, SimConstellation, DEFAULT_SHARD_BLOCKS};
use comimo_stbc::Ostbc;

/// One step in this many is replayed on the single-point engine.
const ORACLE_EVERY: u64 = 64;
/// BPSK points need this many expected errors before the closed-form
/// check applies.
const CLOSED_FORM_MIN_ERRORS: f64 = 200.0;

/// One cluster configuration: its code, receive size and grid state.
struct Hop {
    code: Ostbc,
    mr: usize,
    ws: GridWorkspace,
    out: Vec<BerResult>,
    total: Vec<BerResult>,
}

/// The grid workload.
pub struct BerGrid {
    seed: u64,
    points: Vec<GridPoint>,
    hops: Vec<Hop>,
    next_step: u64,
    /// Planar scratch the traced run replays each chunk's draws into.
    scratch: Vec<f64>,
    words: Vec<u64>,
}

impl BerGrid {
    /// Derives the operating grid from the Figure 6/7 analyses and
    /// builds one grid workspace per cluster configuration: the set-up.
    pub fn new(seed: u64) -> Self {
        let points = bergrid_points();
        let hops = BERGRID_CONFIGS
            .iter()
            .map(|&(kind, _, mr)| {
                let code = Ostbc::new(kind);
                Hop {
                    ws: GridWorkspace::new(&code, &points, mr),
                    code,
                    mr,
                    out: vec![BerResult { bits: 0, errors: 0 }; points.len()],
                    total: vec![BerResult { bits: 0, errors: 0 }; points.len()],
                }
            })
            .collect();
        Self {
            seed,
            points,
            hops,
            next_step: 0,
            scratch: Vec::new(),
            words: Vec::new(),
        }
    }

    /// Replays the bulk draws `GridWorkspace::simulate_into` makes for
    /// `n_blocks` blocks (channel, symbol words, noise per chunk) into
    /// scratch buffers: the traced run's measure of the draw share.
    fn replay_draws(
        scratch: &mut Vec<f64>,
        words: &mut Vec<u64>,
        code: &Ostbc,
        mr: usize,
        rng: &mut SeededRng,
        n_blocks: usize,
    ) {
        let (mt, t, k) = (code.n_tx(), code.n_slots(), code.n_symbols());
        let planar = (mr * mt).max(t * mr) * BATCH_BLOCKS;
        scratch.resize(2 * planar, 0.0);
        words.resize(k * BATCH_BLOCKS, 0);
        let (re, im) = scratch.split_at_mut(planar);
        let mut remaining = n_blocks;
        while remaining > 0 {
            let n = remaining.min(BATCH_BLOCKS);
            complex_gaussian_fill(rng, 1.0, &mut re[..mr * mt * n], &mut im[..mr * mt * n]);
            fill_u64(rng, &mut words[..k * n]);
            complex_gaussian_fill(rng, 2.0, &mut re[..t * mr * n], &mut im[..t * mr * n]);
            remaining -= n;
        }
    }
}

impl Workload for BerGrid {
    fn prepare(&mut self) {}

    fn step(&mut self, ledger: &mut Ledger, counts: &mut Counts) -> Result<(), String> {
        let step = self.next_step;
        self.next_step += 1;
        for hop in &mut self.hops {
            let mut rng = derive(self.seed, step);
            if ledger.is_on() {
                let mut copy = rng.clone();
                let (scratch, words) = (&mut self.scratch, &mut self.words);
                ledger.span(Layer::McDraw, || {
                    Self::replay_draws(
                        scratch,
                        words,
                        &hop.code,
                        hop.mr,
                        &mut copy,
                        DEFAULT_SHARD_BLOCKS,
                    )
                });
            }
            let (ws, out) = (&mut hop.ws, &mut hop.out);
            ledger.span(Layer::McEngine, || {
                ws.simulate_into(&mut rng, DEFAULT_SHARD_BLOCKS, out)
            });
            for (acc, r) in hop.total.iter_mut().zip(&hop.out) {
                acc.bits += r.bits;
                acc.errors += r.errors;
            }
            counts.mc_blocks += DEFAULT_SHARD_BLOCKS as u64;
            counts.items += (DEFAULT_SHARD_BLOCKS * self.points.len()) as u64;
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let step = self.next_step - 1;
        if step % ORACLE_EVERY != 0 {
            return Ok(());
        }
        let i = (step / ORACLE_EVERY) as usize % self.points.len();
        let p = self.points[i];
        for hop in &self.hops {
            let mut single =
                BatchWorkspace::new(&hop.code, &SimConstellation::new(p.bits_per_symbol), hop.mr);
            let mut rng = derive(self.seed, step);
            let want = single.simulate(&mut rng, p.es, p.n0, DEFAULT_SHARD_BLOCKS);
            if want != hop.out[i] {
                return Err(format!(
                    "{:?} step {step} point {i}: grid {:?} != single-point {want:?}",
                    hop.code.kind(),
                    hop.out[i]
                ));
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        for hop in &self.hops {
            let (mt, mr) = (hop.code.n_tx(), hop.mr);
            for (p, r) in self.points.iter().zip(&hop.total) {
                if p.bits_per_symbol != 1 {
                    continue;
                }
                let ber = bpsk_mrc_rayleigh_ber((mt * mr) as u32, p.es / p.n0 / mt as f64);
                let expected = ber * r.bits as f64;
                if expected < CLOSED_FORM_MIN_ERRORS {
                    continue;
                }
                // errors cluster within a block (its symbols share one
                // channel draw), so the spread is up to k times binomial
                let k = hop.code.n_symbols() as f64;
                let tolerance = 0.05 + 5.0 * (k / expected).sqrt();
                let rel = (r.errors as f64 / expected - 1.0).abs();
                if rel > tolerance {
                    return Err(format!(
                        "{:?} BPSK at Es/N0 = {:.1} dB: {} errors vs {expected:.0} expected \
                         ({rel:.3} off, tolerance {tolerance:.3})",
                        hop.code.kind(),
                        -10.0 * p.n0.log10(),
                        r.errors
                    ));
                }
            }
        }
        Ok(())
    }
}
