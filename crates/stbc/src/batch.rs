//! Batched per-point Monte-Carlo engine for OSTBC BER.
//!
//! [`crate::sim::simulate_ber`] is the draw-order *oracle*: one block
//! at a time, matrices in row-major `CMatrix` form, the generic
//! least-squares decoder. That shape is easy to audit but slow — every
//! block pays `fill_from_fn` index arithmetic, per-coefficient polar
//! rejection sampling, a gram build and a pivoted solve.
//!
//! The production pipeline lives in [`crate::grid`]: a lane-parallel SoA
//! engine that simulates an entire SNR × constellation grid from one
//! shared, configuration-independent draw stream (common random numbers).
//! [`BatchWorkspace`] is that engine applied to a **one-point grid** — a
//! thin wrapper kept as the per-point API and as the anchor of the CRN
//! contract: because the per-point engine *is* the grid engine with one
//! configuration, `simulate_ber_grid` results are bit-identical to
//! per-point runs by construction, not by coincidence.
//!
//! The decoder exploits what `decode::tests::gram_is_scaled_identity_for_
//! orthogonal_designs` proves: for orthogonal designs the equivalent real
//! system's gram is diagonal, so exact least squares degenerates to
//! symbol-wise matched filtering. With `c_{τ,j,k} = Σ_i a_{τ,i,k}·h_{j,i}`
//! and `d_{τ,j,k} = Σ_i b_{τ,i,k}·h_{j,i}`, the received slot obeys
//! `y = Σ_k (c+d)·Re(z_k) + i(c−d)·Im(z_k) + noise` for `z_k = amp·s_k`,
//! and the normal equations give
//!
//! ```text
//! Re(ẑ_k) = Σ_{τ,j} Re(conj(c+d)·y) / Σ_{τ,j} |c+d|²
//! Im(ẑ_k) = Σ_{τ,j} Im(conj(c−d)·y) / Σ_{τ,j} |c−d|²
//! ```
//!
//! — identical to the pivoted solve for every orthogonal design (the test
//! suite cross-checks the two engines statistically), at a fraction of the
//! cost.
//!
//! # Determinism
//!
//! [`simulate_ber_batch`] replays [`shard_plan`] serially with one derived
//! stream per shard — exactly the decomposition `simulate_ber_par` hands
//! to its thread pool — and each shard consumes its stream in a fixed
//! order (channel fill, raw symbol words, raw unit-σ noise, per chunk).
//! The result is therefore a pure function of `(seed, n_blocks)`:
//! bit-identical across thread counts, across SIMD dispatch tiers, and
//! with `--no-default-features`. The batch draw order legitimately differs
//! from the scalar oracle's (bulk Box–Muller vs per-coefficient polar
//! rejection), so the two engines agree statistically, not bit-for-bit.

use crate::design::Ostbc;
use crate::grid::{GridPoint, GridWorkspace};
use crate::sim::{shard_plan, BerResult, SimConstellation};
use rand::RngCore;

/// Blocks simulated per bulk draw. Fixed — never derived from thread count
/// or shard size — so the chunk decomposition inside a shard is part of
/// the engine's deterministic contract.
pub const BATCH_BLOCKS: usize = 256;

/// Preallocated per-point engine state: a one-configuration
/// [`GridWorkspace`]. Steady-state simulation through one workspace is
/// allocation-free; `es`/`n0` are re-aimed per [`BatchWorkspace::simulate`]
/// call without reallocating.
#[derive(Debug, Clone)]
pub struct BatchWorkspace {
    grid: GridWorkspace,
    out: [BerResult; 1],
}

impl BatchWorkspace {
    /// Builds the workspace for `code` × `constellation` with `mr` receive
    /// antennas.
    pub fn new(code: &Ostbc, constellation: &SimConstellation, mr: usize) -> Self {
        Self::with_dispatch(code, constellation, mr, comimo_math::simd::active())
    }

    /// [`BatchWorkspace::new`] with the compute pass on `dispatch`, as in
    /// [`GridWorkspace::with_dispatch`]. Results are bit-identical across
    /// tiers; this exists for tests and benches.
    pub fn with_dispatch(
        code: &Ostbc,
        constellation: &SimConstellation,
        mr: usize,
        dispatch: comimo_math::simd::Dispatch,
    ) -> Self {
        // the placeholder (es, n0) is retargeted on every simulate() call
        let point = [GridPoint {
            bits_per_symbol: constellation.bits_per_symbol(),
            es: 1.0,
            n0: 1.0,
        }];
        Self {
            grid: GridWorkspace::with_dispatch(code, &point, mr, dispatch),
            out: [BerResult { bits: 0, errors: 0 }],
        }
    }

    /// Simulates `n_blocks` blocks from `rng` in chunks of
    /// [`BATCH_BLOCKS`], mirroring the link model of
    /// [`crate::sim::simulate_ber`] (per-symbol energy `es` split
    /// over `mt` antennas, complex noise variance `n0`). The chunk
    /// decomposition and per-chunk draw order depend only on `n_blocks`,
    /// so the stream consumption is reproducible — and identical to any
    /// grid containing this `(constellation, es, n0)` point.
    pub fn simulate(
        &mut self,
        rng: &mut (impl RngCore + ?Sized),
        es: f64,
        n0: f64,
        n_blocks: usize,
    ) -> BerResult {
        self.grid.retarget_single(es, n0);
        self.grid.simulate_into(rng, n_blocks, &mut self.out);
        self.out[0]
    }
}

/// Batched counterpart of [`crate::sim::simulate_ber`]: simulates
/// `n_blocks` under the exact shard decomposition of
/// [`crate::sim::simulate_ber_par`] (stream `derive(seed, shard_label)`
/// per shard), serially, reusing one [`BatchWorkspace`]. This is the
/// serial reference the parallel engine must match bit-for-bit — and it
/// does, because `simulate_ber_par` runs precisely these shards through
/// this kernel on its thread pool.
pub fn simulate_ber_batch(
    seed: u64,
    code: &Ostbc,
    constellation: &SimConstellation,
    mr: usize,
    es: f64,
    n0: f64,
    n_blocks: usize,
) -> BerResult {
    let mut ws = BatchWorkspace::new(code, constellation, mr);
    let mut total = BerResult { bits: 0, errors: 0 };
    for (label, blocks) in shard_plan(n_blocks) {
        let mut rng = comimo_math::rng::derive(seed, label);
        let r = ws.simulate(&mut rng, es, n0, blocks);
        total.bits += r.bits;
        total.errors += r.errors;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::StbcKind;
    use crate::sim::simulate_ber;
    use comimo_math::rng::seeded;
    use comimo_math::simd::Dispatch;

    fn all_kinds() -> Vec<StbcKind> {
        vec![
            StbcKind::Siso,
            StbcKind::Alamouti,
            StbcKind::G3,
            StbcKind::G4,
            StbcKind::H3,
            StbcKind::H4,
        ]
    }

    #[test]
    fn batch_is_pure_function_of_seed() {
        let code = Ostbc::new(StbcKind::Alamouti);
        let cons = SimConstellation::new(2);
        let a = simulate_ber_batch(2013, &code, &cons, 2, 4.0, 1.0, 3000);
        let b = simulate_ber_batch(2013, &code, &cons, 2, 4.0, 1.0, 3000);
        assert_eq!(a, b);
        let c = simulate_ber_batch(2014, &code, &cons, 2, 4.0, 1.0, 3000);
        assert_ne!(a, c, "different seeds must give different realisations");
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspace() {
        // chunk boundaries, buffer reuse and es/n0 retargeting must not
        // leak state between calls: one workspace replaying the shards
        // (with an interleaved off-point call) == fresh ones
        let code = Ostbc::new(StbcKind::H4);
        let cons = SimConstellation::new(2);
        let via_fn = simulate_ber_batch(77, &code, &cons, 2, 6.0, 1.0, 2500);
        let mut total = BerResult { bits: 0, errors: 0 };
        let mut ws = BatchWorkspace::new(&code, &cons, 2);
        for (label, blocks) in shard_plan(2500) {
            // poison the retarget state with a different operating point
            let mut scratch = comimo_math::rng::seeded(1);
            ws.simulate(&mut scratch, 0.25, 3.0, 16);
            let mut rng = comimo_math::rng::derive(77, label);
            let r = ws.simulate(&mut rng, 6.0, 1.0, blocks);
            total.bits += r.bits;
            total.errors += r.errors;
        }
        assert_eq!(via_fn, total);
    }

    #[test]
    fn chunking_is_invisible_odd_sizes() {
        // block counts straddling chunk boundaries all produce consistent
        // bit totals, and a non-multiple of BATCH_BLOCKS works
        let code = Ostbc::new(StbcKind::H3);
        let cons = SimConstellation::new(4);
        for n_blocks in [
            1usize,
            BATCH_BLOCKS - 1,
            BATCH_BLOCKS,
            BATCH_BLOCKS + 1,
            1000,
        ] {
            let r = simulate_ber_batch(5, &code, &cons, 1, 8.0, 1.0, n_blocks);
            assert_eq!(r.bits, (n_blocks * 3 * 4) as u64, "n_blocks={n_blocks}");
        }
    }

    /// The cross-engine agreement test the ISSUE asks for: scalar oracle
    /// and batch engine measure the same BER within binomial confidence
    /// bounds at fixed seeds, for every design — on the native dispatch
    /// path AND with the compute pass on the scalar tier (which must also
    /// be bit-identical to native, checked here end to end). The draws differ
    /// (polar vs Box–Muller order), so the oracle comparison is
    /// statistical: with n bits and true error rate p, each measured rate
    /// lies within ~4·√(p(1−p)/n) of p with overwhelming probability, so
    /// the two measurements differ by at most twice that.
    #[test]
    fn batch_agrees_with_scalar_oracle_within_binomial_bounds() {
        for kind in all_kinds() {
            let code = Ostbc::new(kind);
            let cons = SimConstellation::new(2);
            let mr = 2;
            let (es, n0) = (2.0, 1.0);
            let n_blocks = 30_000;
            let mut rng = seeded(42);
            let scalar = simulate_ber(&mut rng, &code, &cons, mr, es, n0, n_blocks);
            let batch = simulate_ber_batch(42, &code, &cons, mr, es, n0, n_blocks);
            assert_eq!(scalar.bits, batch.bits, "{kind:?}");
            let p = (scalar.ber() + batch.ber()) / 2.0;
            assert!(p > 0.0, "{kind:?}: degenerate test point, no errors at all");
            let sigma = (p * (1.0 - p) / scalar.bits as f64).sqrt();
            let gap = (scalar.ber() - batch.ber()).abs();
            assert!(
                gap < 8.0 * sigma,
                "{kind:?}: scalar {} vs batch {} (gap {gap}, σ {sigma})",
                scalar.ber(),
                batch.ber()
            );
            // the scalar-tier compute pass is the same engine
            // bit-for-bit, so it inherits the oracle agreement verbatim
            let mut ws = BatchWorkspace::with_dispatch(&code, &cons, mr, Dispatch::Scalar);
            let mut scalar_tier = BerResult { bits: 0, errors: 0 };
            for (label, blocks) in shard_plan(n_blocks) {
                let mut rng = comimo_math::rng::derive(42, label);
                let r = ws.simulate(&mut rng, es, n0, blocks);
                scalar_tier.bits += r.bits;
                scalar_tier.errors += r.errors;
            }
            assert_eq!(scalar_tier, batch, "{kind:?}: scalar-tier compute diverged");
        }
    }

    /// Encode → channel-apply → matched-filter decode must be a perfect
    /// roundtrip when noise is negligible: any error in the SoA indexing,
    /// the sparse term lists, or the decode formulas breaks symbol
    /// recovery for some design.
    #[test]
    fn noiseless_roundtrip_recovers_every_symbol() {
        for kind in all_kinds() {
            let code = Ostbc::new(kind);
            for b in [2u32, 4] {
                let cons = SimConstellation::new(b);
                for mr in [1usize, 2] {
                    let r = simulate_ber_batch(99, &code, &cons, mr, 1.0, 1e-12, 700);
                    assert_eq!(
                        r.errors, 0,
                        "{kind:?} b={b} mr={mr}: {} errors without noise",
                        r.errors
                    );
                }
            }
        }
    }

    #[test]
    fn batch_bpsk_siso_matches_closed_form() {
        use crate::sim::bpsk_mrc_rayleigh_ber;
        let code = Ostbc::new(StbcKind::Siso);
        let cons = SimConstellation::new(1);
        let gamma = 4.0;
        let r = simulate_ber_batch(71, &code, &cons, 1, gamma, 1.0, 60_000);
        let expect = bpsk_mrc_rayleigh_ber(1, gamma);
        assert!(
            (r.ber() - expect).abs() / expect < 0.08,
            "batch MC {} vs closed form {expect}",
            r.ber()
        );
    }
}
