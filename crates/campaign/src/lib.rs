//! # comimo-campaign
//!
//! Checkpointable Monte-Carlo campaigns with deterministic crash-resume.
//!
//! A long Monte-Carlo sweep — the fused sensing ROC grid and the
//! byzantine sweep of `comimo-sensing`, the chaos world's mini-campaign —
//! is a plan of shards whose counts are pure functions of the seed; this
//! crate makes such a run *survivable*:
//!
//! * [`checkpoint`] — a versioned, CRC-32-checked snapshot of completed
//!   shard counts, written atomically (temp + rename), with truncation
//!   and bit-flips detected at load;
//! * [`supervisor`] — runs each pending shard once, in chunks, commits a
//!   checkpoint after every chunk, and honours graceful-stop requests
//!   (the SIGINT flag, a per-campaign stop flag) by returning the
//!   partial per-stream counts plus a resumable checkpoint.
//!
//! Because every shard draws from `derive(seed, label)` and counts
//! merge by addition, a campaign killed at any moment — SIGKILL, OOM,
//! a panicking shard — and resumed from its checkpoint produces counts
//! **bit-identical** to an uninterrupted run, at any thread count. A
//! shard's panic is not retried (a pure shard would panic again): it
//! unwinds to the caller with its own payload.
//! `comimo_faults::CampaignFaultPlan` injects deterministic
//! checkpoint-IO errors so the write-retry path is testable and
//! reproducible.

pub mod checkpoint;
pub mod supervisor;

pub use checkpoint::{Checkpoint, CheckpointError, LoadError};
pub use comimo_faults::CampaignFaultPlan;
pub use supervisor::{
    install_sigint_stop, run_campaign, CampaignConfig, CampaignError, CampaignReport,
    CampaignStatus,
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

#[cfg(test)]
mod tests {
    use super::*;

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
