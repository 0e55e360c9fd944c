//! # comimo-campaign
//!
//! Supervised, checkpointable Monte-Carlo campaigns with deterministic
//! crash-resume.
//!
//! The paper's headline artifacts are long Monte-Carlo sweeps — the
//! BER ≈ 1e-6 operating points of Section 6 need 1e8+ blocks. The
//! deterministic shard engine (`comimo_stbc::sim::simulate_ber_par`)
//! already makes such a run a pure function of its seed; this crate
//! adds the supervision layer that makes it *survivable*:
//!
//! * [`checkpoint`] — a versioned, CRC-32-checked snapshot of completed
//!   shard counts, written atomically (temp + rename), with truncation
//!   and bit-flips detected at load;
//! * [`supervisor`] — executes a shard plan under `catch_unwind` with
//!   bounded-backoff retries and per-shard quarantine, commits a
//!   checkpoint after every chunk, and honours graceful-stop requests
//!   (SIGINT flag, wall-clock budget) by emitting a partial result with
//!   a Wilson confidence interval plus a resumable checkpoint.
//!
//! Because every shard draws from `derive(seed, label)` and counts
//! merge by addition, a campaign killed at any moment — SIGKILL, OOM,
//! panic storm — and resumed from its checkpoint produces counts
//! **bit-identical** to an uninterrupted run, at any thread count.
//! `comimo_faults::CampaignFaultPlan` injects deterministic shard
//! panics and checkpoint-IO errors so the whole failure surface is
//! testable and reproducible.

pub mod checkpoint;
pub mod supervisor;

pub use checkpoint::{Checkpoint, CheckpointError, LoadError, Quarantined};
pub use comimo_faults::CampaignFaultPlan;
pub use supervisor::{
    install_sigint_stop, run_campaign, run_campaign_multi, supervised_map, supervised_map_strict,
    CampaignConfig, CampaignError, CampaignReport, CampaignStatus, SuperviseConfig,
    SupervisedFailure,
};

use comimo_stbc::batch::BatchWorkspace;
use comimo_stbc::design::{Ostbc, StbcKind};
use comimo_stbc::sim::{shard_plan, SimConstellation};

/// Mixes a parameter list into a 64-bit campaign fingerprint
/// (SplitMix64-style fold). Used to refuse resuming a checkpoint under
/// different campaign parameters.
pub fn fingerprint64(words: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3u64; // pi fraction — arbitrary non-zero
    for &w in words {
        let mut z = acc ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = z ^ (z >> 31);
    }
    acc
}

/// Wilson score interval for a binomial proportion: `successes` out of
/// `trials` at critical value `z` (1.96 for 95 %). Well-behaved at the
/// extremes (`p = 0`, `p = 1`, tiny `trials`) where the normal interval
/// collapses — which is exactly the regime a BER ≈ 1e-6 campaign
/// stopped early lives in.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - half) / denom).clamp(0.0, 1.0),
        ((centre + half) / denom).clamp(0.0, 1.0),
    )
}

/// Parameters of a BER campaign — the link configuration
/// `simulate_ber_par` takes, as data so it can be fingerprinted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerCampaignSpec {
    /// Space-time code.
    pub kind: StbcKind,
    /// Constellation bits per symbol (1, 2, 4, 6, 8).
    pub bits_per_symbol: u32,
    /// Receive antennas.
    pub mr: usize,
    /// Per-symbol transmit energy.
    pub es: f64,
    /// Complex noise variance.
    pub n0: f64,
    /// Monte-Carlo blocks.
    pub n_blocks: usize,
}

impl BerCampaignSpec {
    /// Fingerprint of every parameter that shapes the shard results.
    pub fn fingerprint(&self) -> u64 {
        fingerprint64(&[
            self.kind as u64,
            u64::from(self.bits_per_symbol),
            self.mr as u64,
            self.es.to_bits(),
            self.n0.to_bits(),
            self.n_blocks as u64,
        ])
    }
}

/// Runs `spec` as a supervised campaign: the exact shard decomposition
/// and per-shard streams of `simulate_ber_par`, under `cfg`'s
/// supervision, on the unified lane-parallel engine
/// (`BatchWorkspace` *is* the CRN grid engine with one configuration).
/// With no quarantined shards the merged counts are bit-identical to
/// `simulate_ber_par(cfg.seed, ...)`. The config's fingerprint is
/// overridden with [`BerCampaignSpec::fingerprint`].
pub fn run_ber_campaign(
    cfg: &CampaignConfig,
    spec: &BerCampaignSpec,
) -> Result<CampaignReport, CampaignError> {
    let mut cfg = cfg.clone();
    cfg.fingerprint = spec.fingerprint();
    let code = Ostbc::new(spec.kind);
    let cons = SimConstellation::new(spec.bits_per_symbol);
    let shards: Vec<(u64, usize)> = shard_plan(spec.n_blocks).collect();
    let seed = cfg.seed;
    run_campaign(&cfg, &shards, |label, blocks| {
        let mut rng = comimo_math::rng::derive(seed, label);
        let mut ws = BatchWorkspace::new(&code, &cons, spec.mr);
        ws.simulate(&mut rng, spec.es, spec.n0, blocks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_anchors() {
        // symmetric at p = 0.5 with large n, tight around p
        let (lo, hi) = wilson_interval(5_000, 10_000, 1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!((0.5 - lo - (hi - 0.5)).abs() < 1e-9, "symmetric at p=0.5");
        assert!(hi - lo < 0.03);
        // zero successes still gives a nonzero upper bound ("rule of three")
        let (lo0, hi0) = wilson_interval(0, 1_000, 1.96);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.01);
        // no data: the vacuous interval
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        // all successes mirrors all failures
        let (lo1, hi1) = wilson_interval(1_000, 1_000, 1.96);
        assert_eq!(hi1, 1.0);
        assert!((1.0 - lo1 - hi0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_separates_parameters() {
        let spec = BerCampaignSpec {
            kind: StbcKind::Alamouti,
            bits_per_symbol: 2,
            mr: 2,
            es: 4.0,
            n0: 1.0,
            n_blocks: 10_000,
        };
        let f = spec.fingerprint();
        assert_eq!(f, spec.fingerprint(), "fingerprint is stable");
        for other in [
            BerCampaignSpec {
                kind: StbcKind::H3,
                ..spec
            },
            BerCampaignSpec { mr: 3, ..spec },
            BerCampaignSpec { es: 4.5, ..spec },
            BerCampaignSpec {
                n_blocks: 10_001,
                ..spec
            },
        ] {
            assert_ne!(f, other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn ber_campaign_matches_parallel_engine_bit_for_bit() {
        use comimo_stbc::sim::{simulate_ber_par, SimConstellation, DEFAULT_SHARD_BLOCKS};
        let spec = BerCampaignSpec {
            kind: StbcKind::Alamouti,
            bits_per_symbol: 2,
            mr: 2,
            es: 1.0,
            n0: 1.0,
            n_blocks: 3 * DEFAULT_SHARD_BLOCKS + 100,
        };
        let cfg = CampaignConfig::new(2013, 0);
        let report = run_ber_campaign(&cfg, &spec).unwrap();
        assert_eq!(report.status, CampaignStatus::Complete);
        assert!(report.quarantined.is_empty());
        let reference = simulate_ber_par(
            2013,
            &Ostbc::new(spec.kind),
            &SimConstellation::new(spec.bits_per_symbol),
            spec.mr,
            spec.es,
            spec.n0,
            spec.n_blocks,
        );
        assert_eq!(report.counts, reference);
        let (lo, hi) = report.wilson_95;
        assert!(lo <= report.ber() && report.ber() <= hi);
    }
}
