//! Cluster recruitment as a fault-tolerant protocol.
//!
//! The paper assumes cluster formation "just happens"; under faults it
//! cannot — invites get lost on the lossy intra-cluster broadcast channel
//! and the recruiting head can die mid-formation. This module runs the
//! recruitment handshake on the `comimo-sim` event queue with the three
//! classic robustness ingredients:
//!
//! * **timeout** — an invite that is not acknowledged within
//!   [`RecruitConfig::invite_timeout`] is presumed lost;
//! * **bounded retry with exponential backoff** — each target is
//!   re-invited at most [`RecruitConfig::max_retries`] times, the delay
//!   doubling from [`RecruitConfig::backoff_base`], after which the target
//!   is abandoned (it will be picked up by a later re-clustering pass);
//! * **head re-election** — if the recruiting head dies, the survivors
//!   re-elect (battery-aware, [`crate::cluster::try_elect_head`]
//!   semantics) and the new head restarts the outstanding invites.
//!
//! Loss draws come from one [`derive`]d stream per target node, so the
//! outcome is bit-identical regardless of event interleaving or thread
//! count — the same split-stream discipline the Monte-Carlo engine uses.

use crate::cluster::{head_order, ClusterError};
use crate::graph::SuGraph;
use comimo_math::rng::{derive, SeededRng};
use comimo_sim::{ShardedEventQueue, SimTime};
use rand::Rng;

/// Salt separating recruitment loss streams from every other consumer of
/// the workspace seed.
const RECRUIT_SALT: u64 = 0x5EC5_0DE5_0001;

/// Knobs of the recruitment protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecruitConfig {
    /// How long the head waits for an ack before declaring the invite lost.
    pub invite_timeout: SimTime,
    /// Round-trip time of a successful invite/ack exchange.
    pub rtt: SimTime,
    /// Re-invites per target after the first attempt; exhausting them
    /// abandons the target.
    pub max_retries: u32,
    /// First retry delay; doubles each further attempt (capped at 2^10×).
    pub backoff_base: SimTime,
    /// Probability that any single invite or ack frame is lost on the
    /// intra-cluster broadcast channel.
    pub loss_prob: f64,
    /// If set, the current head dies at this instant (fault injection);
    /// survivors re-elect and restart outstanding invites.
    pub head_death_at: Option<SimTime>,
}

impl Default for RecruitConfig {
    fn default() -> Self {
        Self {
            invite_timeout: SimTime::from_millis(20),
            rtt: SimTime::from_millis(2),
            max_retries: 4,
            backoff_base: SimTime::from_millis(5),
            loss_prob: 0.0,
            head_death_at: None,
        }
    }
}

/// What recruitment achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct RecruitOutcome {
    /// The head that finished the recruitment (after any re-elections).
    pub head: usize,
    /// Targets that acknowledged and joined (sorted).
    pub joined: Vec<usize>,
    /// Targets abandoned after retry exhaustion or lost to death (sorted).
    pub abandoned: Vec<usize>,
    /// Head re-elections forced by head death.
    pub head_reelections: u32,
    /// Invite frames put on the air (retries included).
    pub frames_sent: u64,
    /// When the last target was resolved.
    pub completed_at: SimTime,
}

#[derive(Debug)]
enum Ev {
    SendInvite { target: usize, attempt: u32 },
    AckArrived { target: usize },
    InviteTimeout { target: usize, attempt: u32 },
    HeadDies,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TargetState {
    Pending { attempt: u32 },
    Joined,
    Abandoned,
}

fn elect_local(
    graph: &SuGraph,
    members: &[usize],
    locally_dead: &[usize],
    excluded: &[usize],
) -> Result<usize, ClusterError> {
    let pick = |honor_exclusion: bool| {
        members
            .iter()
            .filter(|&&m| {
                graph.nodes()[m].alive
                    && !locally_dead.contains(&m)
                    && !(honor_exclusion && excluded.contains(&m))
            })
            .max_by(|&&a, &&b| head_order(graph, a, b))
            .copied()
    };
    // a cluster whose every live member is quarantined still needs a
    // head — a suspect head beats no head, so the exclusion is only
    // honored while it leaves a candidate standing
    pick(true)
        .or_else(|| pick(false))
        .ok_or_else(|| ClusterError::NoAliveMember {
            members: members.to_vec(),
        })
}

/// Exponential backoff delay before re-invite number `attempt + 1`:
/// `base · 2^min(attempt, 10)`, saturating at `u64::MAX` nanoseconds. The
/// shift is widened to 128 bits first — a plain `u64 <<` would silently
/// drop high bits for large bases, producing a *shorter* (even zero)
/// delay at high attempt counts and breaking monotonicity.
pub fn backoff_delay(base: SimTime, attempt: u32) -> SimTime {
    let scaled = (base.as_nanos() as u128) << attempt.min(10);
    SimTime::from_nanos(u64::try_from(scaled).unwrap_or(u64::MAX))
}

/// Runs the recruitment protocol over `members` of `graph` (the head is
/// elected internally). Returns [`ClusterError::NoAliveMember`] when no
/// member can serve as head — including the case where fault injection
/// kills the last candidate mid-protocol.
pub fn run_recruitment(
    graph: &SuGraph,
    members: &[usize],
    cfg: &RecruitConfig,
    seed: u64,
) -> Result<RecruitOutcome, ClusterError> {
    run_recruitment_excluding(graph, members, &[], cfg, seed)
}

/// [`run_recruitment`] with head-election exclusions: members in
/// `excluded` (e.g. reporters quarantined by the sensing reputation
/// machine) are never elected head — at formation or at any re-election
/// — as long as at least one non-excluded live candidate remains. They
/// are still invited and still join as ordinary members: quarantine
/// controls authority, not membership. When exclusion would leave the
/// cluster headless it is ignored (a suspect head beats no head).
pub fn run_recruitment_excluding(
    graph: &SuGraph,
    members: &[usize],
    excluded: &[usize],
    cfg: &RecruitConfig,
    seed: u64,
) -> Result<RecruitOutcome, ClusterError> {
    let mut locally_dead: Vec<usize> = Vec::new();
    let mut head = elect_local(graph, members, &locally_dead, excluded)?;
    let mut head_reelections = 0u32;
    let mut frames_sent = 0u64;
    let mut completed_at = SimTime::ZERO;

    // one loss stream per target: determinism independent of interleaving.
    // Members already dead in the graph are abandoned outright — nobody
    // acks an invite from the grave.
    let mut streams: Vec<(usize, SeededRng, TargetState)> = members
        .iter()
        .filter(|&&m| m != head)
        .map(|&m| {
            let state = if graph.nodes()[m].alive {
                TargetState::Pending { attempt: 0 }
            } else {
                TargetState::Abandoned
            };
            (m, derive(seed, RECRUIT_SALT ^ (m as u64)), state)
        })
        .collect();

    // one shard, unit 0: events pop in (time, schedule order)
    let mut q: ShardedEventQueue<Ev> = ShardedEventQueue::new(1);
    for (m, _, state) in &streams {
        if matches!(state, TargetState::Pending { .. }) {
            q.schedule_at(
                0,
                SimTime::ZERO,
                0,
                Ev::SendInvite {
                    target: *m,
                    attempt: 0,
                },
            );
        }
    }
    if let Some(at) = cfg.head_death_at {
        q.schedule_at(0, at, 0, Ev::HeadDies);
    }

    let idx_of = |streams: &[(usize, SeededRng, TargetState)], t: usize| {
        streams.iter().position(|(m, _, _)| *m == t)
    };

    while let Some((key, ev)) = q.pop() {
        let now = key.at;
        match ev {
            Ev::SendInvite { target, attempt } => {
                let Some(i) = idx_of(&streams, target) else {
                    continue;
                };
                if streams[i].2 != (TargetState::Pending { attempt }) {
                    continue; // superseded (e.g. by a head re-election reset)
                }
                frames_sent += 1;
                let invite_lost = streams[i].1.gen_bool(cfg.loss_prob);
                let ack_lost = streams[i].1.gen_bool(cfg.loss_prob);
                if !invite_lost && !ack_lost {
                    q.schedule_at(0, now + cfg.rtt, 0, Ev::AckArrived { target });
                }
                q.schedule_at(
                    0,
                    now + cfg.invite_timeout,
                    0,
                    Ev::InviteTimeout { target, attempt },
                );
            }
            Ev::AckArrived { target } => {
                let Some(i) = idx_of(&streams, target) else {
                    continue;
                };
                if matches!(streams[i].2, TargetState::Pending { .. }) {
                    streams[i].2 = TargetState::Joined;
                    completed_at = now;
                }
            }
            Ev::InviteTimeout { target, attempt } => {
                let Some(i) = idx_of(&streams, target) else {
                    continue;
                };
                if streams[i].2 != (TargetState::Pending { attempt }) {
                    continue; // acked meanwhile, or restarted under a new head
                }
                if attempt >= cfg.max_retries {
                    streams[i].2 = TargetState::Abandoned;
                    completed_at = now;
                } else {
                    let next = attempt + 1;
                    streams[i].2 = TargetState::Pending { attempt: next };
                    q.schedule_at(
                        0,
                        now + backoff_delay(cfg.backoff_base, attempt),
                        0,
                        Ev::SendInvite {
                            target,
                            attempt: next,
                        },
                    );
                }
            }
            Ev::HeadDies => {
                locally_dead.push(head);
                head = elect_local(graph, members, &locally_dead, excluded)?;
                head_reelections += 1;
                // the new head restarts every unresolved invite from
                // scratch; already-joined members stay joined (the roster
                // was replicated with the membership acks)
                for (m, _, state) in streams.iter_mut() {
                    if *m == head {
                        // the new head was a target; it is trivially in
                        *state = TargetState::Joined;
                        completed_at = now;
                        continue;
                    }
                    if let TargetState::Pending { .. } = state {
                        *state = TargetState::Pending { attempt: 0 };
                        q.schedule_at(
                            0,
                            now + cfg.backoff_base,
                            0,
                            Ev::SendInvite {
                                target: *m,
                                attempt: 0,
                            },
                        );
                    }
                }
            }
        }
    }

    let mut joined = Vec::new();
    let mut abandoned = Vec::new();
    for (m, _, state) in &streams {
        match state {
            TargetState::Joined if *m != head => joined.push(*m),
            TargetState::Joined => {}
            TargetState::Abandoned => abandoned.push(*m),
            TargetState::Pending { .. } => unreachable!("queue drained with pending target"),
        }
    }
    joined.sort_unstable();
    abandoned.sort_unstable();
    Ok(RecruitOutcome {
        head,
        joined,
        abandoned,
        head_reelections,
        frames_sent,
        completed_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SuNode;
    use comimo_channel::geometry::Point;

    fn line_graph(n: usize) -> SuGraph {
        let nodes: Vec<SuNode> = (0..n)
            .map(|i| SuNode::new(i, Point::new(i as f64 * 2.0, 0.0), 10.0 + i as f64))
            .collect();
        SuGraph::build(nodes, 50.0)
    }

    #[test]
    fn lossless_recruitment_joins_everyone_first_try() {
        let g = line_graph(4);
        let out = run_recruitment(&g, &[0, 1, 2, 3], &RecruitConfig::default(), 7).unwrap();
        assert_eq!(out.head, 3); // highest battery
        assert_eq!(out.joined, vec![0, 1, 2]);
        assert!(out.abandoned.is_empty());
        assert_eq!(out.frames_sent, 3);
        assert_eq!(out.head_reelections, 0);
    }

    #[test]
    fn total_loss_abandons_after_bounded_retries() {
        let g = line_graph(3);
        let cfg = RecruitConfig {
            loss_prob: 1.0,
            ..RecruitConfig::default()
        };
        let out = run_recruitment(&g, &[0, 1, 2], &cfg, 7).unwrap();
        assert!(out.joined.is_empty());
        assert_eq!(out.abandoned, vec![0, 1]);
        // each target burns exactly max_retries + 1 invites, never more
        assert_eq!(out.frames_sent, 2 * (cfg.max_retries as u64 + 1));
    }

    #[test]
    fn lossy_channel_is_deterministic_per_seed() {
        let g = line_graph(6);
        let cfg = RecruitConfig {
            loss_prob: 0.4,
            ..RecruitConfig::default()
        };
        let members = [0usize, 1, 2, 3, 4, 5];
        let a = run_recruitment(&g, &members, &cfg, 42).unwrap();
        let b = run_recruitment(&g, &members, &cfg, 42).unwrap();
        assert_eq!(a, b);
        // and every target is resolved one way or the other
        assert_eq!(a.joined.len() + a.abandoned.len(), 5);
    }

    #[test]
    fn head_death_triggers_reelection_and_completion() {
        let g = line_graph(4);
        let cfg = RecruitConfig {
            head_death_at: Some(SimTime::from_micros(500)),
            ..RecruitConfig::default()
        };
        let out = run_recruitment(&g, &[0, 1, 2, 3], &cfg, 7).unwrap();
        assert_eq!(out.head_reelections, 1);
        // node 3 died; node 2 (next battery) takes over
        assert_eq!(out.head, 2);
        assert!(!out.joined.contains(&2));
        assert!(!out.joined.contains(&3));
        assert_eq!(out.joined, vec![0, 1]);
    }

    #[test]
    fn last_survivor_death_reports_no_alive_member() {
        let mut nodes = vec![
            SuNode::new(0, Point::new(0.0, 0.0), 5.0),
            SuNode::new(1, Point::new(2.0, 0.0), 9.0),
        ];
        nodes[0].alive = false;
        let g = SuGraph::build(nodes, 50.0);
        let cfg = RecruitConfig {
            head_death_at: Some(SimTime::from_micros(100)),
            ..RecruitConfig::default()
        };
        let err = run_recruitment(&g, &[0, 1], &cfg, 7).unwrap_err();
        assert!(matches!(err, ClusterError::NoAliveMember { .. }));
    }

    #[test]
    fn quarantined_members_are_passed_over_for_head_but_still_join() {
        let g = line_graph(4);
        // node 3 has the best battery but is quarantined: node 2 leads,
        // and 3 is recruited as an ordinary member
        let out = run_recruitment_excluding(&g, &[0, 1, 2, 3], &[3], &RecruitConfig::default(), 7)
            .unwrap();
        assert_eq!(out.head, 2);
        assert_eq!(out.joined, vec![0, 1, 3]);
        assert!(out.abandoned.is_empty());
        // no exclusions is exactly run_recruitment
        let a = run_recruitment_excluding(&g, &[0, 1, 2, 3], &[], &RecruitConfig::default(), 7)
            .unwrap();
        let b = run_recruitment(&g, &[0, 1, 2, 3], &RecruitConfig::default(), 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reelection_after_head_death_also_honors_the_exclusion() {
        let g = line_graph(4);
        let cfg = RecruitConfig {
            head_death_at: Some(SimTime::from_micros(500)),
            ..RecruitConfig::default()
        };
        // head 3 dies; next-best battery 2 is quarantined, so 1 leads
        let out = run_recruitment_excluding(&g, &[0, 1, 2, 3], &[2], &cfg, 7).unwrap();
        assert_eq!(out.head_reelections, 1);
        assert_eq!(out.head, 1);
        assert!(out.joined.contains(&2), "the quarantined node still joins");
    }

    #[test]
    fn all_excluded_cluster_still_elects_a_head() {
        // every live member quarantined: a suspect head beats no head,
        // so the battery order reasserts itself
        let g = line_graph(3);
        let out =
            run_recruitment_excluding(&g, &[0, 1, 2], &[0, 1, 2], &RecruitConfig::default(), 7)
                .unwrap();
        assert_eq!(out.head, 2);
        assert_eq!(out.joined, vec![0, 1]);
    }

    #[test]
    fn backoff_saturates_instead_of_wrapping() {
        // regression: the old `u64 <<` dropped high bits, so a large base
        // produced a *shorter* delay at high attempts (even zero)
        let big = SimTime::from_nanos(u64::MAX / 2);
        assert_eq!(backoff_delay(big, 0), big);
        // one doubling still fits exactly (2·(MAX/2) = MAX − 1) …
        assert_eq!(backoff_delay(big, 1), SimTime::from_nanos(u64::MAX - 1));
        // … every further one saturates instead of wrapping
        for attempt in 2..20 {
            assert_eq!(
                backoff_delay(big, attempt),
                SimTime::from_nanos(u64::MAX),
                "attempt {attempt}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Backoff never misbehaves at any attempt count up to (and far
        /// beyond) any plausible `max_retries`: no panic, no wraparound —
        /// the delay is exactly `base·2^min(attempt,10)` saturated to u64.
        #[test]
        fn prop_backoff_exact_or_saturated(
            base_ns in any::<u64>(),
            attempt in 0u32..10_000,
        ) {
            let d = backoff_delay(SimTime::from_nanos(base_ns), attempt);
            let exact = (base_ns as u128) << attempt.min(10);
            let expect = u64::try_from(exact).unwrap_or(u64::MAX);
            prop_assert_eq!(d.as_nanos(), expect);
        }

        /// Backoff delays are monotone non-decreasing over the retry
        /// sequence — a later retry never waits less than an earlier one.
        #[test]
        fn prop_backoff_monotone_over_retry_sequence(
            base_ns in any::<u64>(),
            max_retries in 0u32..64,
        ) {
            let base = SimTime::from_nanos(base_ns);
            let mut prev = backoff_delay(base, 0);
            for attempt in 1..=max_retries {
                let next = backoff_delay(base, attempt);
                prop_assert!(
                    next >= prev,
                    "attempt {} delay {} < previous {}",
                    attempt,
                    next,
                    prev
                );
                prev = next;
            }
        }

        /// The whole protocol terminates and resolves every non-head
        /// member at any retry bound, including the loss extremes.
        #[test]
        fn prop_recruitment_resolves_all_members(
            seed in any::<u64>(),
            max_retries in 0u32..12,
            loss_pct in 0u8..101,
        ) {
            use crate::node::SuNode;
            use comimo_channel::geometry::Point;
            let nodes: Vec<SuNode> = (0..5)
                .map(|i| SuNode::new(i, Point::new(i as f64 * 2.0, 0.0), 10.0 + i as f64))
                .collect();
            let g = SuGraph::build(nodes, 50.0);
            let cfg = RecruitConfig {
                max_retries,
                loss_prob: f64::from(loss_pct) / 100.0,
                ..RecruitConfig::default()
            };
            let out = run_recruitment(&g, &[0, 1, 2, 3, 4], &cfg, seed).unwrap();
            prop_assert_eq!(out.joined.len() + out.abandoned.len(), 4);
            // each of the 4 targets burns at most max_retries + 1 invites
            prop_assert!(out.frames_sent <= 4 * (u64::from(max_retries) + 1));
        }
    }
}
