//! Hardened sensing-report collection: reporters deliver a payload to
//! the cluster head over the lossy intra-cluster channel.
//!
//! The cooperative-sensing fusion rule is only as good as the reports
//! that reach the head, so delivery gets the same three robustness
//! ingredients as recruitment ([`crate::recruit`]):
//!
//! * **timeout** — a report not acknowledged within
//!   [`ReportConfig::report_timeout`] is presumed lost;
//! * **bounded retry with exponential backoff** — each reporter retries
//!   at most [`ReportConfig::max_retries`] times, delays doubling from
//!   [`ReportConfig::backoff_base`] via [`crate::recruit::backoff_delay`];
//! * **explicit loss/stale/duplicate handling** — a lost *ack* makes the
//!   reporter retransmit a report the head already holds (deduplicated
//!   and counted), and arrivals after the fusion deadline are counted
//!   and dropped rather than corrupting the next round.
//!
//! The module is payload-generic: it moves any `Copy` payload and knows
//! nothing about detectors or fusion rules, so `comimo-net` does not
//! depend on `comimo-sensing`. Loss draws come from one [`derive`]d
//! stream per `(round, reporter)`, so a round's outcome is bit-identical
//! regardless of event interleaving, thread count or which other rounds
//! ran before it.

use crate::recruit::backoff_delay;
use comimo_math::rng::{derive, SeededRng};
use comimo_sim::engine::EventQueue;
use comimo_sim::time::SimTime;
use rand::Rng;

/// Salt separating report-transport loss streams from every other
/// consumer of the workspace seed.
const REPORT_SALT: u64 = 0x5EC5_0DE5_0002;

/// Knobs of the report-collection protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportConfig {
    /// How long a reporter waits for the head's ack before retransmitting.
    pub report_timeout: SimTime,
    /// Delivery latency of a report frame (and of the ack coming back).
    pub rtt: SimTime,
    /// Retransmissions per reporter after the first attempt; exhausting
    /// them gives up on the round (the next round starts fresh).
    pub max_retries: u32,
    /// First retry delay; doubles each further attempt (capped at 2^10×).
    pub backoff_base: SimTime,
    /// Probability that any single report or ack frame is lost.
    pub loss_prob: f64,
    /// Fusion deadline, measured from round start: reports arriving
    /// later are stale — counted and dropped.
    pub deadline: SimTime,
}

impl Default for ReportConfig {
    fn default() -> Self {
        Self {
            report_timeout: SimTime::from_millis(20),
            rtt: SimTime::from_millis(2),
            max_retries: 3,
            backoff_base: SimTime::from_millis(5),
            loss_prob: 0.0,
            deadline: SimTime::from_millis(400),
        }
    }
}

/// One reporter's view of a sensing round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reporter<P> {
    /// Reporter id (unique within the round).
    pub id: usize,
    /// What it wants the head to know (its local decision).
    pub payload: P,
    /// Extra latency before its *first* transmission — a delayed-report
    /// fault; zero for a healthy reporter.
    pub extra_delay: SimTime,
    /// If set (relative to round start), the reporter falls silent at
    /// this instant: no further transmissions, ever.
    pub dies_at: Option<SimTime>,
}

impl<P> Reporter<P> {
    /// A healthy reporter: transmits immediately, never dies mid-round.
    pub fn healthy(id: usize, payload: P) -> Self {
        Self {
            id,
            payload,
            extra_delay: SimTime::ZERO,
            dies_at: None,
        }
    }
}

/// What the head collected by the fusion deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportOutcome<P> {
    /// `(reporter id, payload)` pairs accepted before the deadline,
    /// sorted by id.
    pub delivered: Vec<(usize, P)>,
    /// Reporters whose report never made it in time (sorted).
    pub missing: Vec<usize>,
    /// Report frames put on the air (retries included).
    pub frames_sent: u64,
    /// Retransmitted reports the head already held (lost acks), deduped.
    pub duplicates: u64,
    /// Arrivals after the deadline, dropped.
    pub stale: u64,
    /// When the last accepted report arrived.
    pub completed_at: SimTime,
}

/// Typed failure of a report-collection round — the chaos explorer
/// reaches this path with arbitrary fault-scaled configs, so a bad
/// config must surface as a value, not a `gen_bool` panic deep in the
/// event loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReportError {
    /// `loss_prob` is outside `[0, 1]` (or NaN).
    InvalidLossProb(f64),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidLossProb(p) => {
                write!(f, "report loss probability {p} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ReportError {}

#[derive(Debug)]
enum Ev {
    SendReport { reporter: usize, attempt: u32 },
    ReportArrived { reporter: usize },
    AckArrived { reporter: usize },
    ReportTimeout { reporter: usize, attempt: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SenderState {
    Pending { attempt: u32 },
    Acked,
    GaveUp,
}

/// Collects one round of reports from `reporters` at the head. `round`
/// indexes the sensing round so successive rounds draw from independent
/// streams; the outcome is a pure function of
/// `(reporters, cfg, seed, round)`.
///
/// Validates the config up front and returns a typed [`ReportError`]
/// instead of panicking mid-round.
pub fn try_collect_reports<P: Copy>(
    reporters: &[Reporter<P>],
    cfg: &ReportConfig,
    seed: u64,
    round: u64,
) -> Result<ReportOutcome<P>, ReportError> {
    if !(0.0..=1.0).contains(&cfg.loss_prob) {
        return Err(ReportError::InvalidLossProb(cfg.loss_prob));
    }
    // one loss stream per (round, reporter): determinism independent of
    // interleaving, and round n's draws don't shift round n+1's
    let mut streams: Vec<(SeededRng, SenderState)> = reporters
        .iter()
        .map(|r| {
            let salt = REPORT_SALT ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r.id as u64);
            (derive(seed, salt), SenderState::Pending { attempt: 0 })
        })
        .collect();
    let mut received: Vec<Option<P>> = vec![None; reporters.len()];
    let mut frames_sent = 0u64;
    let mut duplicates = 0u64;
    let mut stale = 0u64;
    let mut completed_at = SimTime::ZERO;

    let mut q: EventQueue<Ev> = EventQueue::new();
    for (i, r) in reporters.iter().enumerate() {
        q.schedule_at(
            r.extra_delay,
            Ev::SendReport {
                reporter: i,
                attempt: 0,
            },
        );
    }

    let dead_at = |r: &Reporter<P>, t: SimTime| r.dies_at.is_some_and(|d| t >= d);

    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::SendReport { reporter, attempt } => {
                if streams[reporter].1 != (SenderState::Pending { attempt }) {
                    continue; // acked or gave up meanwhile
                }
                if dead_at(&reporters[reporter], now) {
                    streams[reporter].1 = SenderState::GaveUp;
                    continue; // the dead don't transmit
                }
                frames_sent += 1;
                let report_lost = streams[reporter].0.gen_bool(cfg.loss_prob);
                let ack_lost = streams[reporter].0.gen_bool(cfg.loss_prob);
                if !report_lost {
                    q.schedule_in(cfg.rtt, Ev::ReportArrived { reporter });
                    if !ack_lost {
                        q.schedule_in(cfg.rtt, Ev::AckArrived { reporter });
                    }
                }
                q.schedule_in(cfg.report_timeout, Ev::ReportTimeout { reporter, attempt });
            }
            Ev::ReportArrived { reporter } => {
                if now > cfg.deadline {
                    stale += 1; // too late to fuse; drop, don't corrupt
                    continue;
                }
                if received[reporter].is_some() {
                    duplicates += 1; // ack got lost; we already hold it
                    continue;
                }
                received[reporter] = Some(reporters[reporter].payload);
                completed_at = now;
            }
            Ev::AckArrived { reporter } => {
                if matches!(streams[reporter].1, SenderState::Pending { .. }) {
                    streams[reporter].1 = SenderState::Acked;
                }
            }
            Ev::ReportTimeout { reporter, attempt } => {
                if streams[reporter].1 != (SenderState::Pending { attempt }) {
                    continue; // acked meanwhile
                }
                if attempt >= cfg.max_retries || dead_at(&reporters[reporter], now) {
                    streams[reporter].1 = SenderState::GaveUp;
                } else {
                    let next = attempt + 1;
                    streams[reporter].1 = SenderState::Pending { attempt: next };
                    q.schedule_in(
                        backoff_delay(cfg.backoff_base, attempt),
                        Ev::SendReport {
                            reporter,
                            attempt: next,
                        },
                    );
                }
            }
        }
    }

    let mut delivered = Vec::new();
    let mut missing = Vec::new();
    for (i, r) in reporters.iter().enumerate() {
        match received[i] {
            Some(p) => delivered.push((r.id, p)),
            None => missing.push(r.id),
        }
    }
    delivered.sort_unstable_by_key(|&(id, _)| id);
    missing.sort_unstable();
    Ok(ReportOutcome {
        delivered,
        missing,
        frames_sent,
        duplicates,
        stale,
        completed_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(n: usize) -> Vec<Reporter<bool>> {
        (0..n).map(|i| Reporter::healthy(i, i % 2 == 0)).collect()
    }

    #[test]
    fn invalid_loss_probability_is_a_typed_error_not_a_panic() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let cfg = ReportConfig {
                loss_prob: bad,
                ..ReportConfig::default()
            };
            let ReportError::InvalidLossProb(p) =
                try_collect_reports(&healthy(3), &cfg, 7, 0).unwrap_err();
            assert!(p.is_nan() || p == bad, "error must carry the bad value");
        }
    }

    #[test]
    fn lossless_round_delivers_every_payload_first_try() {
        let out = try_collect_reports(&healthy(5), &ReportConfig::default(), 7, 0).unwrap();
        assert_eq!(
            out.delivered,
            vec![(0, true), (1, false), (2, true), (3, false), (4, true)]
        );
        assert!(out.missing.is_empty());
        assert_eq!(out.frames_sent, 5);
        assert_eq!(out.duplicates, 0);
        assert_eq!(out.stale, 0);
    }

    #[test]
    fn total_loss_gives_up_after_bounded_retries() {
        let cfg = ReportConfig {
            loss_prob: 1.0,
            ..ReportConfig::default()
        };
        let out = try_collect_reports(&healthy(3), &cfg, 7, 0).unwrap();
        assert!(out.delivered.is_empty());
        assert_eq!(out.missing, vec![0, 1, 2]);
        assert_eq!(out.frames_sent, 3 * (cfg.max_retries as u64 + 1));
    }

    #[test]
    fn lossy_round_is_deterministic_and_resolves_everyone() {
        let cfg = ReportConfig {
            loss_prob: 0.4,
            ..ReportConfig::default()
        };
        let a = try_collect_reports(&healthy(8), &cfg, 42, 3).unwrap();
        let b = try_collect_reports(&healthy(8), &cfg, 42, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.delivered.len() + a.missing.len(), 8);
        // different rounds draw from different streams
        let c = try_collect_reports(&healthy(8), &cfg, 42, 4).unwrap();
        assert!(a != c || a.frames_sent == 8, "round salt must matter");
    }

    #[test]
    fn lost_acks_cause_deduplicated_retransmissions() {
        // at 40% frame loss over enough rounds, some report survives while
        // its ack dies → the head must see (and dedupe) a retransmission
        let cfg = ReportConfig {
            loss_prob: 0.4,
            ..ReportConfig::default()
        };
        let mut dup_total = 0;
        for round in 0..50 {
            let out = try_collect_reports(&healthy(6), &cfg, 2013, round).unwrap();
            // dedup invariant: a reporter is delivered at most once
            assert_eq!(out.delivered.len() + out.missing.len(), 6);
            dup_total += out.duplicates;
        }
        assert!(dup_total > 0, "no lost-ack duplicate in 50 rounds");
    }

    #[test]
    fn late_reports_are_stale_not_fused() {
        let cfg = ReportConfig {
            deadline: SimTime::from_millis(10),
            ..ReportConfig::default()
        };
        let mut reporters = healthy(3);
        reporters[1].extra_delay = SimTime::from_millis(50); // arrives way late
        let out = try_collect_reports(&reporters, &cfg, 7, 0).unwrap();
        assert_eq!(out.delivered.len(), 2);
        assert_eq!(out.missing, vec![1]);
        assert_eq!(out.stale, 1);
    }

    #[test]
    fn dead_reporters_stop_transmitting() {
        let mut reporters = healthy(3);
        reporters[0].dies_at = Some(SimTime::ZERO); // dead at round start
        let out = try_collect_reports(&reporters, &ReportConfig::default(), 7, 0).unwrap();
        assert_eq!(out.missing, vec![0]);
        assert_eq!(out.frames_sent, 2, "the dead reporter sent nothing");
    }

    #[test]
    fn mid_round_death_halts_retries() {
        let cfg = ReportConfig {
            loss_prob: 1.0,
            ..ReportConfig::default()
        };
        let mut reporters = healthy(1);
        // dies after the first timeout fires but before retries can finish
        reporters[0].dies_at = Some(SimTime::from_millis(21));
        let out = try_collect_reports(&reporters, &cfg, 7, 0).unwrap();
        assert_eq!(out.missing, vec![0]);
        assert!(
            out.frames_sent < u64::from(cfg.max_retries) + 1,
            "death must cut the retry budget short (sent {})",
            out.frames_sent
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every round terminates, resolves every reporter exactly once,
        /// and never exceeds the retry budget — at any loss rate.
        #[test]
        fn prop_round_resolves_all_reporters(
            seed in any::<u64>(),
            round in any::<u64>(),
            max_retries in 0u32..8,
            loss_pct in 0u8..101,
        ) {
            let cfg = ReportConfig {
                max_retries,
                loss_prob: f64::from(loss_pct) / 100.0,
                ..ReportConfig::default()
            };
            let reporters: Vec<Reporter<u8>> =
                (0..6).map(|i| Reporter::healthy(i, i as u8)).collect();
            let out = try_collect_reports(&reporters, &cfg, seed, round).unwrap();
            prop_assert_eq!(out.delivered.len() + out.missing.len(), 6);
            prop_assert!(out.frames_sent <= 6 * (u64::from(max_retries) + 1));
            // payloads arrive untampered
            for &(id, p) in &out.delivered {
                prop_assert_eq!(p, id as u8);
            }
        }
    }
}
