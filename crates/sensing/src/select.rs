//! Channel selection — Algorithm 3 step 1: "The head of transmission
//! cluster C-St determines the PU to share the frequency based on the
//! sensed environment."
//!
//! The environment is a set of licensed channels, each owned by a
//! [`PrimaryPair`] whose activity is a slotted [`MarkovOnOff`] chain. The
//! head senses every channel once per slot with the round's
//! [`crate::EnergyDetector`] — the same Gamma-pinned detector the ROC,
//! byzantine and chaos runs check against closed forms — and picks a
//! channel according to the paradigm:
//!
//! * **interweave without nulling** — [`pick_idlest`], the channel sensed
//!   busy least often (classic opportunistic access);
//! * **interweave with nulling** (the paper's contribution) —
//!   [`pick_for_nulling`]: a busy channel is usable too, if its primary
//!   receiver can be nulled, so the pick is purely geometric and prefers
//!   the PU that is far and non-collinear with the data receiver.
//!
//! Each channel's estimate is a pure function of `(cfg, chain, seed,
//! channel, n_slots)`: the truth comes from
//! [`MarkovOnOff::sample_states`] and the detector draws from one
//! `derive(seed, SELECT_SALT ^ channel)` stream.

use crate::markov::MarkovOnOff;
use crate::round::{SensingError, SensingRound};
use comimo_channel::geometry::{collinearity_deviation, Point};
use comimo_core::pu::PrimaryPair;
use comimo_math::rng::derive;
use serde::Serialize;

/// Salt separating channel-selection detector draws from every other
/// consumer of the workspace seed.
const SELECT_SALT: u64 = 0x5EA5_E000_0007;

/// Per-channel occupancy estimate after sensing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OccupancyEstimate {
    /// Channel index.
    pub channel: usize,
    /// Fraction of slots the detector declared busy.
    pub busy_fraction: f64,
    /// Ground-truth stationary occupancy (for evaluation).
    pub true_duty: f64,
}

/// Senses every channel for `n_slots` slots and returns one estimate per
/// channel, in slice order. Rejects a bad primary SNR, an empty channel
/// list and `n_slots = 0` with a typed error rather than panicking.
pub fn occupancy(
    cfg: &SensingRound,
    channels: &[(PrimaryPair, MarkovOnOff)],
    seed: u64,
    n_slots: usize,
) -> Result<Vec<OccupancyEstimate>, SensingError> {
    if !cfg.snr.is_finite() || cfg.snr < 0.0 {
        return Err(SensingError::InvalidSnr(cfg.snr));
    }
    if channels.is_empty() {
        return Err(SensingError::InvalidSpec {
            what: "no channels to sense",
        });
    }
    if n_slots == 0 {
        return Err(SensingError::InvalidSpec {
            what: "n_slots must be >= 1",
        });
    }
    Ok(channels
        .iter()
        .map(|(pu, chain)| {
            let mut rng = derive(seed, SELECT_SALT ^ (pu.channel as u64));
            let busy = chain
                .sample_states(seed, pu.channel, n_slots)
                .into_iter()
                .filter(|&on| {
                    let truth_snr = if on { cfg.snr } else { 0.0 };
                    cfg.detector
                        .decide(cfg.detector.sample_statistic(&mut rng, truth_snr))
                })
                .count();
            OccupancyEstimate {
                channel: pu.channel,
                busy_fraction: busy as f64 / n_slots as f64,
                true_duty: chain.stationary_on(),
            }
        })
        .collect())
}

/// Classic interweave (no nulling): the least-occupied channel, or a
/// typed error when there is nothing to pick from (every PU evacuated,
/// or sensing produced no estimates).
pub fn pick_idlest(estimates: &[OccupancyEstimate]) -> Result<usize, SensingError> {
    estimates
        .iter()
        .min_by(|a, b| {
            a.busy_fraction
                .total_cmp(&b.busy_fraction)
                .then(a.channel.cmp(&b.channel))
        })
        .map(|e| e.channel)
        .ok_or(SensingError::InvalidSpec {
            what: "no channels to pick from",
        })
}

/// The paper's nulling-enabled pick (Algorithm 3 step 1): among *all*
/// channels (busy ones are fine — their receiver gets nulled), choose the
/// PU "as far as possible from C-St and/or [such that] the line segments
/// of C-St·Pr and C-St·C-Sr are not as collinear as possible".
pub fn pick_for_nulling(pus: &[PrimaryPair], st: Point, sr: Point) -> Result<usize, SensingError> {
    let max_dist = pus
        .iter()
        .map(|pu| st.distance(pu.rx))
        .fold(1e-12, f64::max);
    let score = |pu: &PrimaryPair| {
        collinearity_deviation(pu.rx, st, sr) + 0.1 * st.distance(pu.rx) / max_dist
    };
    pus.iter()
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .map(|pu| pu.channel)
        .ok_or(SensingError::InvalidSpec {
            what: "no channels to pick from",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spectrum-sharing environment: 80 %, 50 % and 10 % stationary
    /// occupancy, the middle receiver perpendicular to the data link.
    fn environment() -> Vec<(PrimaryPair, MarkovOnOff)> {
        vec![
            (
                PrimaryPair::new(Point::new(-200.0, 50.0), Point::new(160.0, 20.0), 0),
                MarkovOnOff::new(0.2, 0.05),
            ),
            (
                PrimaryPair::new(Point::new(100.0, 300.0), Point::new(10.0, 170.0), 1),
                MarkovOnOff::new(0.1, 0.1),
            ),
            (
                PrimaryPair::new(Point::new(-300.0, -300.0), Point::new(-80.0, -60.0), 2),
                MarkovOnOff::new(0.02, 0.18),
            ),
        ]
    }

    #[test]
    fn busy_fraction_matches_the_closed_form_within_four_sigma() {
        let cfg = SensingRound::paper(0.5);
        let (pd, pfa) = (cfg.detector.pd(cfg.snr), cfg.detector.pfa());
        let n = 2_000;
        let mut channels = environment();
        // frozen chains isolate the false-alarm and detection terms
        channels.push((
            PrimaryPair::new(Point::origin(), Point::new(10.0, 0.0), 3),
            MarkovOnOff::new(0.0, 0.5),
        ));
        channels.push((
            PrimaryPair::new(Point::origin(), Point::new(20.0, 0.0), 4),
            MarkovOnOff::new(0.5, 0.0),
        ));
        let est = occupancy(&cfg, &channels, 31, n).unwrap();
        for (e, (_, chain)) in est.iter().zip(&channels) {
            let pi = chain.stationary_on();
            let expect = pi * pd + (1.0 - pi) * pfa;
            // detector noise given the truth, plus the chain's own
            // sample-mean variance (lag-k correlation λᵏ, λ = 1 − p01 − p10)
            let lambda = 1.0 - chain.p_off_to_on - chain.p_on_to_off;
            let var = (pi * pd * (1.0 - pd)
                + (1.0 - pi) * pfa * (1.0 - pfa)
                + (pd - pfa).powi(2) * pi * (1.0 - pi) * (1.0 + lambda) / (1.0 - lambda))
                / n as f64;
            assert!(
                (e.busy_fraction - expect).abs() < 4.0 * var.sqrt(),
                "channel {}: {} vs closed form {expect} (σ = {})",
                e.channel,
                e.busy_fraction,
                var.sqrt()
            );
            assert_eq!(e.true_duty, pi);
        }
    }

    #[test]
    fn estimates_are_a_pure_function_of_seed_and_channel() {
        let cfg = SensingRound::paper(1.0);
        let channels = environment();
        let forward = occupancy(&cfg, &channels, 7, 500).unwrap();
        let reversed: Vec<_> = channels.iter().rev().copied().collect();
        let mut backward = occupancy(&cfg, &reversed, 7, 500).unwrap();
        backward.reverse();
        assert_eq!(forward, backward);
        assert_ne!(forward, occupancy(&cfg, &channels, 8, 500).unwrap());
    }

    #[test]
    fn idlest_pick_is_the_ten_percent_channel() {
        let est = occupancy(&SensingRound::paper(100.0), &environment(), 99, 1_000).unwrap();
        assert_eq!(pick_idlest(&est), Ok(2), "{est:?}");
    }

    #[test]
    fn nulling_pick_prefers_perpendicular_far_pu() {
        let st = Point::origin();
        let sr = Point::new(100.0, 0.0);
        let tx = Point::new(-50.0, 0.0);
        let pus = [
            PrimaryPair::new(tx, Point::new(150.0, 5.0), 0), // nearly collinear with Sr
            PrimaryPair::new(tx, Point::new(5.0, 140.0), 1), // perpendicular — best
            PrimaryPair::new(tx, Point::new(30.0, 30.0), 2), // diagonal
        ];
        assert_eq!(pick_for_nulling(&pus, st, sr), Ok(1));
    }

    #[test]
    fn empty_map_reports_no_channels_instead_of_panicking() {
        let cfg = SensingRound::paper(1.0);
        assert!(matches!(
            occupancy(&cfg, &[], 1, 100),
            Err(SensingError::InvalidSpec { .. })
        ));
        assert!(matches!(
            pick_idlest(&[]),
            Err(SensingError::InvalidSpec { .. })
        ));
        assert!(matches!(
            pick_for_nulling(&[], Point::origin(), Point::new(1.0, 0.0)),
            Err(SensingError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn bad_detector_configs_are_typed_errors() {
        let channels = environment();
        assert!(matches!(
            occupancy(&SensingRound::paper(1.0), &channels, 1, 0),
            Err(SensingError::InvalidSpec { .. })
        ));
        for snr in [f64::NAN, -1.0, f64::INFINITY] {
            assert!(matches!(
                occupancy(&SensingRound::paper(snr), &channels, 1, 100),
                Err(SensingError::InvalidSnr(_))
            ));
        }
    }
}
