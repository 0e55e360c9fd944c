//! Deterministic fault plans for Monte-Carlo campaign supervision.
//!
//! The campaign layer (`comimo-campaign`) commits a checkpoint after
//! every chunk of a long sharded Monte-Carlo run and retries a failed
//! write. This module supplies the *deterministic* adversary that retry
//! path is tested against — every injection decision is a pure function
//! of `(plan seed, write index)`, so a fault-injected campaign is exactly
//! as reproducible as a clean one and the campaign tests can assert the
//! precise number of writes that fail.

use comimo_math::rng::derive;
use rand::Rng;

/// Stream-label salt of the checkpoint-IO draws.
const CHECKPOINT_IO_SALT: u64 = 0x434b_5054_5f49_4f5f; // "CKPT_IO_"

/// A deterministic campaign fault plan: with what probability a
/// checkpoint write attempt fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignFaultPlan {
    /// Seed of the plan's derived decision stream (independent of the
    /// campaign's own simulation seed).
    pub seed: u64,
    /// Probability that a given checkpoint write attempt fails with an
    /// injected IO error.
    pub checkpoint_io_prob: f64,
}

impl CampaignFaultPlan {
    /// A plan that injects nothing (the supervisor's default).
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            checkpoint_io_prob: 0.0,
        }
    }

    /// Whether the `write_index`-th checkpoint write attempt of the
    /// campaign fails with an injected IO error. Pure function of
    /// `(self.seed, write_index)`: the supervisor and the test suite can
    /// both evaluate it.
    pub fn checkpoint_write_fails(&self, write_index: u64) -> bool {
        if self.checkpoint_io_prob <= 0.0 {
            return false;
        }
        let mut rng = derive(self.seed ^ CHECKPOINT_IO_SALT, write_index);
        rng.gen_range(0.0..1.0) < self.checkpoint_io_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = CampaignFaultPlan::disabled();
        assert!((0..50).all(|w| !p.checkpoint_write_fails(w)));
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = CampaignFaultPlan {
            seed: 42,
            checkpoint_io_prob: 0.5,
        };
        for w in 0..100u64 {
            assert_eq!(p.checkpoint_write_fails(w), p.checkpoint_write_fails(w));
        }
    }

    #[test]
    fn observed_rate_tracks_the_probability() {
        let p = CampaignFaultPlan {
            seed: 7,
            checkpoint_io_prob: 0.2,
        };
        let n = 5_000u64;
        let fails = (0..n).filter(|&w| p.checkpoint_write_fails(w)).count() as f64 / n as f64;
        assert!((fails - 0.2).abs() < 0.02, "io-fail rate {fails}");
    }
}
