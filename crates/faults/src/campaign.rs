//! Deterministic fault plans for Monte-Carlo campaign supervision.
//!
//! The campaign layer (`comimo-campaign`) supervises long sharded
//! Monte-Carlo runs: it catches per-shard panics and survives checkpoint
//! IO errors. This module supplies the *deterministic* adversary those
//! code paths are tested against — every injection decision is a pure
//! function of `(plan seed, shard, attempt)` or `(plan seed, write
//! index)`, so a fault-injected campaign is exactly as reproducible as a
//! clean one and the campaign tests can assert the precise set of shards
//! that end up quarantined.

use comimo_math::rng::derive;
use rand::Rng;

/// Stream-label salt separating shard-panic draws from checkpoint-IO
/// draws (both derive from the same plan seed).
const SHARD_PANIC_SALT: u64 = 0x5348_4152_445f_5041; // "SHARD_PA"
const CHECKPOINT_IO_SALT: u64 = 0x434b_5054_5f49_4f5f; // "CKPT_IO_"

/// A deterministic campaign fault plan: with what probability a shard
/// execution panics and a checkpoint write fails.
///
/// Decisions are keyed on `(shard, attempt)` — not just the shard — so a
/// panicked shard can *succeed on retry*, which is what distinguishes the
/// supervisor's bounded-retry path from its quarantine path. A shard
/// whose every attempt draws a panic is quarantined; the exact set is
/// predictable from the plan alone (see
/// [`CampaignFaultPlan::shard_panics`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignFaultPlan {
    /// Seed of the plan's derived decision streams (independent of the
    /// campaign's own simulation seed).
    pub seed: u64,
    /// Probability that a given `(shard, attempt)` execution panics.
    pub shard_panic_prob: f64,
    /// Probability that a given checkpoint write attempt fails with an
    /// injected IO error.
    pub checkpoint_io_prob: f64,
}

impl CampaignFaultPlan {
    /// A plan that injects nothing (the supervisor's default).
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            shard_panic_prob: 0.0,
            checkpoint_io_prob: 0.0,
        }
    }

    /// Whether the plan can never fire.
    pub fn is_disabled(&self) -> bool {
        self.shard_panic_prob <= 0.0 && self.checkpoint_io_prob <= 0.0
    }

    /// Whether attempt number `attempt` (0-based) of `shard` panics.
    ///
    /// Pure function of `(self.seed, shard, attempt)`: the supervisor and
    /// the test suite can both evaluate it, so a test can compute the
    /// exact quarantine set a campaign must report.
    pub fn shard_panics(&self, shard: u64, attempt: u32) -> bool {
        if self.shard_panic_prob <= 0.0 {
            return false;
        }
        // one derived stream per (shard, attempt); attempts are bounded
        // far below 2^16 so the packed label never collides across shards
        let label = (shard << 16) | u64::from(attempt & 0xFFFF);
        let mut rng = derive(self.seed ^ SHARD_PANIC_SALT, label);
        rng.gen_range(0.0..1.0) < self.shard_panic_prob
    }

    /// Whether the `write_index`-th checkpoint write attempt of the
    /// campaign fails with an injected IO error. Pure function of
    /// `(self.seed, write_index)`.
    pub fn checkpoint_write_fails(&self, write_index: u64) -> bool {
        if self.checkpoint_io_prob <= 0.0 {
            return false;
        }
        let mut rng = derive(self.seed ^ CHECKPOINT_IO_SALT, write_index);
        rng.gen_range(0.0..1.0) < self.checkpoint_io_prob
    }

    /// The shards of `0..total_shards` that quarantine under this plan
    /// with `max_attempts` tries per shard — every attempt draws a panic.
    /// Tests use this as the oracle for a fault-injected campaign report.
    pub fn quarantine_set(&self, total_shards: u64, max_attempts: u32) -> Vec<u64> {
        (0..total_shards)
            .filter(|&s| (0..max_attempts).all(|a| self.shard_panics(s, a)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = CampaignFaultPlan::disabled();
        assert!(p.is_disabled());
        for s in 0..50 {
            for a in 0..4 {
                assert!(!p.shard_panics(s, a));
            }
            assert!(!p.checkpoint_write_fails(s));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_sensitive() {
        let p = CampaignFaultPlan {
            seed: 42,
            shard_panic_prob: 0.5,
            checkpoint_io_prob: 0.5,
        };
        // pure function: same inputs, same answer
        for s in 0..100u64 {
            for a in 0..3 {
                assert_eq!(p.shard_panics(s, a), p.shard_panics(s, a));
            }
            assert_eq!(p.checkpoint_write_fails(s), p.checkpoint_write_fails(s));
        }
        // retries draw fresh decisions: at p=0.5 over 100 shards some
        // first attempts must panic while the second does not
        let recovers = (0..100u64).any(|s| p.shard_panics(s, 0) && !p.shard_panics(s, 1));
        assert!(recovers, "no shard recovered on retry — labels collide?");
    }

    #[test]
    fn observed_rates_track_probabilities() {
        let p = CampaignFaultPlan {
            seed: 7,
            shard_panic_prob: 0.2,
            checkpoint_io_prob: 0.2,
        };
        let n = 5_000u64;
        let panics = (0..n).filter(|&s| p.shard_panics(s, 0)).count() as f64 / n as f64;
        let fails = (0..n).filter(|&w| p.checkpoint_write_fails(w)).count() as f64 / n as f64;
        assert!((panics - 0.2).abs() < 0.02, "panic rate {panics}");
        assert!((fails - 0.2).abs() < 0.02, "io-fail rate {fails}");
    }

    #[test]
    fn quarantine_set_matches_definition() {
        let p = CampaignFaultPlan {
            seed: 13,
            shard_panic_prob: 0.6,
            checkpoint_io_prob: 0.0,
        };
        let q = p.quarantine_set(200, 2);
        for s in 0..200u64 {
            let expect = p.shard_panics(s, 0) && p.shard_panics(s, 1);
            assert_eq!(q.contains(&s), expect, "shard {s}");
        }
        // at 0.6² = 0.36 per shard, 200 shards must produce some of each
        assert!(!q.is_empty() && q.len() < 200);
    }
}
