//! The fault state unrolled onto the time axis, slot-queryable: which
//! nodes are out, which licensed channels a returned primary occupies and
//! how lossy the intra-cluster broadcast is at any instant. The chaos
//! world reads every fault schedule — generated, shrunk or hand-crafted —
//! through this one lens.

use crate::model::{FaultEvent, FaultKind};

/// A fault schedule as time intervals.
#[derive(Debug, Default)]
pub struct Timeline {
    /// `(time_s, node)` permanent deaths.
    deaths: Vec<(f64, usize)>,
    /// `(start_s, end_s, node)` shadowing intervals.
    shadows: Vec<(f64, f64, usize)>,
    /// `(start_s, end_s, channel)` PU-active intervals.
    pu_on: Vec<(f64, f64, usize)>,
    /// `(start_s, end_s, loss_prob)` lossy-broadcast intervals.
    bcast: Vec<(f64, f64, f64)>,
}

impl Timeline {
    /// Unrolls a fault schedule onto the time axis.
    pub fn from_schedule(schedule: &[FaultEvent]) -> Self {
        let mut tl = Self::default();
        for ev in schedule {
            let t = ev.at.as_secs_f64();
            match ev.kind {
                FaultKind::RelayDeath { node } => tl.deaths.push((t, node)),
                FaultKind::PuReturn {
                    channel,
                    duration_s,
                } => tl.pu_on.push((t, t + duration_s, channel)),
                FaultKind::ShadowBurst {
                    node, duration_s, ..
                } => tl.shadows.push((t, t + duration_s, node)),
                FaultKind::BroadcastLoss {
                    loss_prob,
                    duration_s,
                    ..
                } => tl.bcast.push((t, t + duration_s, loss_prob)),
            }
        }
        tl
    }

    /// Nodes out of service at `t` (dead, or inside a shadow burst),
    /// deduplicated. Faults naming nodes outside `0..n_nodes` (possible
    /// in hand-crafted or minimized traces) are ignored, not a panic.
    pub fn nodes_out(&self, t: f64, n_nodes: usize) -> Vec<usize> {
        let mut out = vec![false; n_nodes];
        for &(td, node) in &self.deaths {
            if td <= t && node < n_nodes {
                out[node] = true;
            }
        }
        for &(s, e, node) in &self.shadows {
            if s <= t && t < e && node < n_nodes {
                out[node] = true;
            }
        }
        (0..n_nodes).filter(|&n| out[n]).collect()
    }

    /// Count of permanent deaths at or before `t`.
    pub fn dead_before(&self, t: f64) -> usize {
        self.deaths.iter().filter(|&&(td, _)| td <= t).count()
    }

    /// Whether a returned primary occupies `channel` at `t`.
    pub fn pu_active(&self, t: f64, channel: usize) -> bool {
        self.pu_on
            .iter()
            .any(|&(s, e, c)| c == channel && s <= t && t < e)
    }

    /// Whether a primary returns to `channel` inside `[start, end)` — a
    /// return a slot starting at `start` cannot sense before it radiates.
    pub fn pu_returns_within(&self, channel: usize, start: f64, end: f64) -> bool {
        self.pu_on
            .iter()
            .any(|&(s, _, c)| c == channel && start <= s && s < end)
    }

    /// Worst active broadcast-loss probability at `t` (0 when quiet).
    pub fn bcast_loss(&self, t: f64) -> f64 {
        self.bcast
            .iter()
            .filter(|&&(s, e, _)| s <= t && t < e)
            .map(|&(_, _, p)| p)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_sim::time::SimTime;

    fn pu_return(at_s: f64, channel: usize, duration_s: f64) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs_f64(at_s),
            kind: FaultKind::PuReturn {
                channel,
                duration_s,
            },
        }
    }

    #[test]
    fn timeline_ignores_out_of_range_nodes() {
        let schedule = [
            FaultEvent {
                at: SimTime::from_secs_f64(1.0),
                kind: FaultKind::RelayDeath { node: 99 },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(1.0),
                kind: FaultKind::ShadowBurst {
                    node: 7,
                    extra_loss_db: 20.0,
                    duration_s: 5.0,
                },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(2.0),
                kind: FaultKind::RelayDeath { node: 1 },
            },
        ];
        let tl = Timeline::from_schedule(&schedule);
        // nodes 99 and 7 are outside a 4-node cluster: no panic, no entry
        assert_eq!(tl.nodes_out(3.0, 4), vec![1]);
        assert_eq!(tl.dead_before(3.0), 2, "dead_before counts raw events");
    }

    #[test]
    fn pu_returns_within_is_start_inclusive_and_end_exclusive() {
        // a zero-duration return at a slot start is never active, but the
        // slot still cannot sense it before radiating
        let tl = Timeline::from_schedule(&[pu_return(3.0, 1, 0.0), pu_return(5.0, 1, 0.5)]);
        assert!(!tl.pu_active(3.0, 1));
        assert!(tl.pu_returns_within(1, 3.0, 4.0), "start-inclusive");
        assert!(!tl.pu_returns_within(1, 2.0, 3.0), "end-exclusive");
        assert!(tl.pu_returns_within(1, 4.5, 5.5));
        assert!(!tl.pu_returns_within(0, 0.0, 10.0), "other channel");
    }
}
