//! Slotted Markov ON/OFF primary-activity model.
//!
//! The sensing loop is slotted (one fusion decision per sensing slot),
//! so primary activity is modelled as a two-state Markov chain sampled
//! at slot boundaries: `P(off → on) = p_off_to_on`,
//! `P(on → off) = p_on_to_off`. The chain starts from its stationary
//! distribution, so the very first slot is already representative —
//! campaigns need no burn-in. It is the one primary-activity model of
//! the workspace: the sensing rounds and the channel pick of
//! [`crate::select`] both read it.
//!
//! Per-channel state sequences come from one `derive(seed, salt ^
//! channel)` stream each, so any thread count or slot-evaluation order
//! reproduces the same occupancy trace.

use comimo_math::rng::derive;
use rand::Rng;
use serde::Serialize;

/// Salt separating primary-activity streams from every other consumer
/// of the workspace seed.
const MARKOV_SALT: u64 = 0x5EA5_E000_0001;

/// Two-state slotted ON/OFF chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MarkovOnOff {
    /// Per-slot probability of an idle channel turning busy.
    pub p_off_to_on: f64,
    /// Per-slot probability of a busy channel turning idle.
    pub p_on_to_off: f64,
}

impl MarkovOnOff {
    /// A chain with the given transition probabilities.
    pub fn new(p_off_to_on: f64, p_on_to_off: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_off_to_on));
        assert!((0.0..=1.0).contains(&p_on_to_off));
        Self {
            p_off_to_on,
            p_on_to_off,
        }
    }

    /// The sensing experiments' default: 30 % stationary occupancy with
    /// a mean ON burst of ~7 slots.
    pub fn paper() -> Self {
        Self::new(0.06, 0.14)
    }

    /// Stationary probability of the ON state
    /// (`p01 / (p01 + p10)`; `0` for the frozen all-off chain).
    pub fn stationary_on(&self) -> f64 {
        let denom = self.p_off_to_on + self.p_on_to_off;
        if denom == 0.0 {
            0.0
        } else {
            self.p_off_to_on / denom
        }
    }

    /// Samples `n_slots` of occupancy for `channel`, starting from the
    /// stationary distribution — a pure function of
    /// `(self, seed, channel, n_slots)`.
    pub fn sample_states(&self, seed: u64, channel: usize, n_slots: usize) -> Vec<bool> {
        let mut rng = derive(seed, MARKOV_SALT ^ (channel as u64));
        let mut state = rng.gen_bool(self.stationary_on());
        let mut out = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            out.push(state);
            state = if state {
                !rng.gen_bool(self.p_on_to_off)
            } else {
                rng.gen_bool(self.p_off_to_on)
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_occupancy_matches_the_sampled_fraction() {
        let chain = MarkovOnOff::paper();
        let states = chain.sample_states(2013, 0, 50_000);
        let on = states.iter().filter(|&&s| s).count() as f64 / states.len() as f64;
        assert!(
            (on - chain.stationary_on()).abs() < 0.02,
            "sampled {on} vs stationary {}",
            chain.stationary_on()
        );
    }

    #[test]
    fn channels_and_seeds_get_independent_streams() {
        let chain = MarkovOnOff::paper();
        let a = chain.sample_states(42, 0, 2_000);
        assert_eq!(a, chain.sample_states(42, 0, 2_000), "pure function");
        assert_ne!(a, chain.sample_states(42, 1, 2_000), "per-channel stream");
        assert_ne!(a, chain.sample_states(43, 0, 2_000), "per-seed stream");
    }

    #[test]
    fn frozen_chains_stay_frozen() {
        let never_on = MarkovOnOff::new(0.0, 0.5);
        assert!(never_on.sample_states(7, 0, 500).iter().all(|&s| !s));
        assert_eq!(never_on.stationary_on(), 0.0);
        let always_on = MarkovOnOff::new(0.5, 0.0);
        // stationary_on = 1, and ON is absorbing
        assert!(always_on.sample_states(7, 0, 500).iter().all(|&s| s));
    }

    #[test]
    fn bursts_are_geometrically_long() {
        // mean ON-burst length should track 1/p10
        let chain = MarkovOnOff::new(0.05, 0.2);
        let states = chain.sample_states(11, 3, 200_000);
        let mut bursts = Vec::new();
        let mut run = 0usize;
        for &s in &states {
            if s {
                run += 1;
            } else if run > 0 {
                bursts.push(run as f64);
                run = 0;
            }
        }
        let mean = comimo_math::stats::mean(&bursts);
        let expected = 1.0 / chain.p_on_to_off;
        assert!(
            (mean - expected).abs() < 0.3,
            "mean burst {mean} vs {expected}"
        );
    }
}
