//! # comimo-campaign
//!
//! Supervised, checkpointable Monte-Carlo campaigns with deterministic
//! crash-resume.
//!
//! A long Monte-Carlo sweep — the fused sensing ROC grid and the
//! byzantine sweep of `comimo-sensing`, the chaos world's mini-campaign —
//! is a plan of shards whose counts are pure functions of the seed; this
//! crate adds the supervision layer that makes such a run *survivable*:
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
    install_sigint_stop, run_campaign, run_campaign_multi, CampaignConfig, CampaignError,
    CampaignReport, CampaignStatus,
};

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
        let words = [1u64, 2, 2, 4.0f64.to_bits(), 1.0f64.to_bits(), 10_000];
        let f = fingerprint64(&words);
        assert_eq!(f, fingerprint64(&words), "fingerprint is stable");
        for i in 0..words.len() {
            let mut other = words;
            other[i] ^= 1;
            assert_ne!(f, fingerprint64(&other), "word {i}");
        }
        assert_ne!(f, fingerprint64(&words[..5]), "length matters");
    }
}
