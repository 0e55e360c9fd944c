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
//! regardless of thread count or which other rounds ran before it.
//!
//! A round walks each reporter's own timeline, attempt by attempt: send,
//! draw report then ack loss, arrive at `send + rtt`, time out at
//! `send + report_timeout`, resend after the backoff. This needs no event
//! queue and is exact:
//!
//! * reporters share no state: each one changes only through its own events;
//! * one reporter's arrivals come in attempt order, so the first at or
//!   before the deadline is accepted, later ones by it are duplicates and
//!   the rest stale; `completed_at` is the latest accepted arrival;
//! * **tie rule:** an ack is scheduled when its report is sent, before the
//!   timeout or resend it races, so on equal timestamps the ack wins —
//!   "acked by `t`" means the first ack arrived at or before `t`.
//!
//! The event-queue formulation is kept in this module's tests as the
//! oracle the walk must match outcome for outcome.

use crate::recruit::backoff_delay;
use comimo_math::rng::derive;
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
    let mut delivered = Vec::with_capacity(reporters.len());
    let mut missing = Vec::new();
    let mut frames_sent = 0u64;
    let mut duplicates = 0u64;
    let mut stale = 0u64;
    let mut completed_at = SimTime::ZERO;

    for r in reporters {
        // one loss stream per (round, reporter): round n's draws don't
        // shift round n+1's, nor one reporter's another's
        let salt = REPORT_SALT ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r.id as u64);
        let mut rng = derive(seed, salt);
        let dead_at = |t: SimTime| r.dies_at.is_some_and(|d| t >= d);
        let mut accepted_at = None;
        // the earliest ack; it wins every tie with the reporter's own
        // timeout or resend, so "acked by t" is `first_ack <= t`
        let mut first_ack: Option<SimTime> = None;
        let mut send_at = r.extra_delay;
        for attempt in 0..=cfg.max_retries {
            if first_ack.is_some_and(|a| a <= send_at) || dead_at(send_at) {
                break;
            }
            frames_sent += 1;
            let report_lost = rng.gen_bool(cfg.loss_prob);
            let ack_lost = rng.gen_bool(cfg.loss_prob);
            if !report_lost {
                // arrivals come in attempt order: the first by the
                // deadline is fused, later ones by it are duplicates
                let arrival = send_at + cfg.rtt;
                if arrival > cfg.deadline {
                    stale += 1;
                } else if accepted_at.is_some() {
                    duplicates += 1;
                } else {
                    accepted_at = Some(arrival);
                }
                if !ack_lost && first_ack.is_none() {
                    first_ack = Some(arrival);
                }
            }
            let timeout_at = send_at + cfg.report_timeout;
            // acked, out of retries or dead at the timeout: no resend is
            // scheduled, so its time is never computed (nor can overflow)
            if first_ack.is_some_and(|a| a <= timeout_at)
                || attempt >= cfg.max_retries
                || dead_at(timeout_at)
            {
                break;
            }
            send_at = timeout_at + backoff_delay(cfg.backoff_base, attempt);
        }
        match accepted_at {
            Some(at) => {
                delivered.push((r.id, r.payload));
                completed_at = completed_at.max(at);
            }
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
    use comimo_math::rng::SeededRng;
    use comimo_sim::ShardedEventQueue;

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

    /// The event-queue formulation of [`try_collect_reports`]: every send,
    /// arrival, ack and timeout is an event popped in `(time, schedule
    /// order)`. The per-reporter walk must reproduce it exactly.
    pub(super) fn collect_reports_event_queue<P: Copy>(
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

        let mut q: ShardedEventQueue<Ev> = ShardedEventQueue::new(1);
        for (i, r) in reporters.iter().enumerate() {
            q.schedule_at(
                0,
                r.extra_delay,
                0,
                Ev::SendReport {
                    reporter: i,
                    attempt: 0,
                },
            );
        }

        let dead_at = |r: &Reporter<P>, t: SimTime| r.dies_at.is_some_and(|d| t >= d);

        while let Some((key, ev)) = q.pop() {
            let now = key.at;
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
                        q.schedule_at(0, now + cfg.rtt, 0, Ev::ReportArrived { reporter });
                        if !ack_lost {
                            q.schedule_at(0, now + cfg.rtt, 0, Ev::AckArrived { reporter });
                        }
                    }
                    q.schedule_at(
                        0,
                        now + cfg.report_timeout,
                        0,
                        Ev::ReportTimeout { reporter, attempt },
                    );
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
                        q.schedule_at(
                            0,
                            now + backoff_delay(cfg.backoff_base, attempt),
                            0,
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

    #[test]
    fn an_ack_landing_exactly_at_its_timeout_suppresses_the_resend() {
        let cfg = ReportConfig {
            rtt: SimTime::from_millis(20),
            report_timeout: SimTime::from_millis(20),
            ..ReportConfig::default()
        };
        let out = try_collect_reports(&healthy(4), &cfg, 7, 0).unwrap();
        assert_eq!(out.delivered.len(), 4);
        assert_eq!(out.frames_sent, 4, "no reporter resent");
        assert_eq!(out.duplicates, 0);
        assert_eq!(out.completed_at, SimTime::from_millis(20));
        assert_eq!(
            out,
            collect_reports_event_queue(&healthy(4), &cfg, 7, 0).unwrap()
        );
    }

    #[test]
    fn clock_overflow_panics_exactly_where_the_oracle_does() {
        let max = SimTime::from_nanos(u64::MAX);
        let base = ReportConfig::default();
        let cases = [
            // acked at the timeout instant: the resend whose time would
            // overflow is never scheduled
            (
                ReportConfig {
                    rtt: base.report_timeout,
                    backoff_base: max,
                    ..base
                },
                false,
            ),
            // every frame lost: the first resend's time overflows
            (
                ReportConfig {
                    loss_prob: 1.0,
                    backoff_base: max,
                    ..base
                },
                true,
            ),
            // a lost report schedules no arrival, so its `rtt` is never added
            (
                ReportConfig {
                    loss_prob: 1.0,
                    rtt: max,
                    max_retries: 0,
                    ..base
                },
                false,
            ),
            (ReportConfig { rtt: max, ..base }, true),
        ];
        let mut reporters = healthy(2);
        reporters[1].extra_delay = SimTime::from_millis(1);
        for (cfg, overflows) in cases {
            let walk = std::panic::catch_unwind(|| try_collect_reports(&reporters, &cfg, 7, 0));
            let queue =
                std::panic::catch_unwind(|| collect_reports_event_queue(&reporters, &cfg, 7, 0));
            assert_eq!(walk.is_err(), overflows, "{cfg:?}");
            assert_eq!(queue.is_err(), overflows, "{cfg:?}");
            if let (Ok(w), Ok(q)) = (walk, queue) {
                assert_eq!(w, q);
            }
        }
        // dead at its timeout instant: no resend is scheduled either
        let cfg = ReportConfig {
            loss_prob: 1.0,
            backoff_base: max,
            ..base
        };
        let mut dying = healthy(1);
        dying[0].dies_at = Some(base.report_timeout);
        assert_eq!(
            try_collect_reports(&dying, &cfg, 7, 0).unwrap(),
            collect_reports_event_queue(&dying, &cfg, 7, 0).unwrap()
        );
    }

    #[test]
    fn zero_timing_gives_duplicates_not_extra_deliveries() {
        let mut cfg = ReportConfig {
            rtt: SimTime::ZERO,
            report_timeout: SimTime::ZERO,
            backoff_base: SimTime::ZERO,
            ..ReportConfig::default()
        };
        // lossless: every ack ties with its own timeout and wins
        let out = try_collect_reports(&healthy(5), &cfg, 7, 0).unwrap();
        assert_eq!((out.frames_sent, out.duplicates), (5, 0));
        cfg.loss_prob = 0.4;
        let mut dup_total = 0;
        for round in 0..50 {
            let out = try_collect_reports(&healthy(5), &cfg, 2013, round).unwrap();
            assert_eq!(
                out,
                collect_reports_event_queue(&healthy(5), &cfg, 2013, round).unwrap()
            );
            assert_eq!(out.delivered.len() + out.missing.len(), 5);
            assert!(out.delivered.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(out.completed_at, SimTime::ZERO);
            dup_total += out.duplicates;
        }
        assert!(dup_total > 0, "no zero-time resend of a held report");
    }

    #[test]
    fn a_reporter_dying_exactly_at_a_resend_instant_sends_nothing() {
        let cfg = ReportConfig {
            loss_prob: 1.0,
            ..ReportConfig::default()
        };
        // first resend: report_timeout + backoff_base = 20 + 5 ms
        let resend = cfg.report_timeout + cfg.backoff_base;
        for (dies_at, frames) in [(resend, 1), (resend + SimTime::from_nanos(1), 2)] {
            let mut reporters = healthy(1);
            reporters[0].dies_at = Some(dies_at);
            let out = try_collect_reports(&reporters, &cfg, 7, 0).unwrap();
            assert_eq!(out.frames_sent, frames, "dies at {dies_at}");
            assert_eq!(
                out,
                collect_reports_event_queue(&reporters, &cfg, 7, 0).unwrap()
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::collect_reports_event_queue;
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const LOSS_PROBS: [f64; 5] = [0.0, 0.05, 0.4, 0.9, 1.0];

    /// `n` reporters with distinct, gapped ids in shuffled order; delays
    /// and death instants in ms (a death drawn past 260 ms means none).
    fn reporters(
        n: usize,
        id_gaps: &[usize],
        delays_ms: &[u64],
        deaths_ms: &[u64],
        shuffle: u64,
    ) -> Vec<Reporter<u16>> {
        let mut id = 0;
        let mut out: Vec<Reporter<u16>> = (0..n)
            .map(|i| {
                id += id_gaps[i];
                Reporter {
                    id,
                    payload: id as u16 * 3 + 1,
                    extra_delay: SimTime::from_millis(delays_ms[i]),
                    dies_at: (deaths_ms[i] < 260).then(|| SimTime::from_millis(deaths_ms[i])),
                }
            })
            .collect();
        let mut rng = derive(shuffle, 0);
        for i in (1..n).rev() {
            out.swap(i, rng.gen_range(0..i + 1));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The per-reporter walk reproduces the event-queue oracle on the
        /// whole outcome: small integer timings make ties between acks,
        /// timeouts, resends, deaths and the deadline common.
        #[test]
        fn prop_walk_matches_event_queue_oracle(
            seed in any::<u64>(),
            round in any::<u64>(),
            n in 0usize..9,
            id_gaps in vec(1usize..4, 9..10),
            delays_ms in vec(0u64..40, 9..10),
            deaths_ms in vec(0u64..400, 9..10),
            shuffle in any::<u64>(),
            rtt_ms in 0u64..30,
            timeout_ms in 0u64..30,
            backoff_ms in 0u64..12,
            deadline_ms in 0u64..260,
            max_retries in 0u32..5,
            loss_ix in 0usize..5,
        ) {
            let cfg = ReportConfig {
                report_timeout: SimTime::from_millis(timeout_ms),
                rtt: SimTime::from_millis(rtt_ms),
                max_retries,
                backoff_base: SimTime::from_millis(backoff_ms),
                loss_prob: LOSS_PROBS[loss_ix],
                deadline: SimTime::from_millis(deadline_ms),
            };
            let rs = reporters(n, &id_gaps, &delays_ms, &deaths_ms, shuffle);
            prop_assert_eq!(
                try_collect_reports(&rs, &cfg, seed, round).unwrap(),
                collect_reports_event_queue(&rs, &cfg, seed, round).unwrap()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every round terminates, resolves every reporter exactly once,
        /// never exceeds the retry budget and only completes by the
        /// deadline — at any loss rate, with delayed and dying reporters.
        #[test]
        fn prop_round_resolves_all_reporters(
            seed in any::<u64>(),
            round in any::<u64>(),
            n in 0usize..9,
            id_gaps in vec(1usize..4, 9..10),
            delays_ms in vec(0u64..450, 9..10),
            deaths_ms in vec(0u64..400, 9..10),
            shuffle in any::<u64>(),
            max_retries in 0u32..8,
            loss_pct in 0u8..101,
        ) {
            let cfg = ReportConfig {
                max_retries,
                loss_prob: f64::from(loss_pct) / 100.0,
                ..ReportConfig::default()
            };
            let rs = reporters(n, &id_gaps, &delays_ms, &deaths_ms, shuffle);
            let out = try_collect_reports(&rs, &cfg, seed, round).unwrap();
            prop_assert_eq!(out.delivered.len() + out.missing.len(), n);
            prop_assert!(out.frames_sent <= n as u64 * (u64::from(max_retries) + 1));
            if out.delivered.is_empty() {
                prop_assert_eq!(out.completed_at, SimTime::ZERO);
            } else {
                prop_assert!(out.completed_at <= cfg.deadline);
            }
            // payloads arrive untampered
            for &(id, p) in &out.delivered {
                prop_assert_eq!(p, id as u16 * 3 + 1);
            }
        }
    }
}
