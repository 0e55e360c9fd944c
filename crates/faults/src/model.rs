//! Fault taxonomy and rate configuration.
//!
//! Four fault classes exercise the failure modes the paper's paradigms
//! are exposed to in a deployed cognitive radio network:
//!
//! * **relay death** — a cooperating SU drops out permanently, mid-burst
//!   (battery exhaustion, hardware failure);
//! * **PU return** — a licensed primary reappears on a channel the
//!   interweave cluster is using, forcing a mid-packet evacuation;
//! * **shadow burst** — deep shadowing temporarily blacks out a node's
//!   long-haul path (vehicles, foliage; transient, unlike death);
//! * **broadcast loss** — the intra-cluster Step-1 broadcast channel
//!   turns lossy for a while, so symbol vectors need retransmission.

use comimo_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// One concrete fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// SU `node` dies permanently.
    RelayDeath { node: usize },
    /// The primary on `channel` transmits for `duration_s` seconds.
    PuReturn { channel: usize, duration_s: f64 },
    /// Node `node`'s long-haul path is shadowed by `extra_loss_db` dB for
    /// `duration_s` seconds.
    ShadowBurst {
        node: usize,
        extra_loss_db: f64,
        duration_s: f64,
    },
    /// The intra-cluster broadcast of `cluster` loses each frame with
    /// probability `loss_prob` for `duration_s` seconds.
    BroadcastLoss {
        cluster: usize,
        loss_prob: f64,
        duration_s: f64,
    },
}

impl FaultKind {
    /// Canonical sort rank of the class (ties at one instant resolve
    /// class-then-unit, independent of construction order).
    pub(crate) fn class_rank(&self) -> u8 {
        match self {
            Self::RelayDeath { .. } => 0,
            Self::PuReturn { .. } => 1,
            Self::ShadowBurst { .. } => 2,
            Self::BroadcastLoss { .. } => 3,
        }
    }

    /// The unit (node / channel / cluster index) the fault targets.
    pub(crate) fn unit(&self) -> usize {
        match self {
            Self::RelayDeath { node } => *node,
            Self::PuReturn { channel, .. } => *channel,
            Self::ShadowBurst { node, .. } => *node,
            Self::BroadcastLoss { cluster, .. } => *cluster,
        }
    }

    /// Short class label used in rendered traces.
    pub fn label(&self) -> &'static str {
        match self {
            Self::RelayDeath { .. } => "relay-death",
            Self::PuReturn { .. } => "pu-return",
            Self::ShadowBurst { .. } => "shadow-burst",
            Self::BroadcastLoss { .. } => "broadcast-loss",
        }
    }
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The units a schedule is built over — how many nodes, licensed
/// channels and clusters exist in the scenario under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Secondary users that can die or be shadowed.
    pub n_nodes: usize,
    /// Licensed channels a primary can return on.
    pub n_channels: usize,
    /// Clusters whose broadcast channel can turn lossy.
    pub n_clusters: usize,
}

/// Per-class arrival rates (Poisson, per unit) and transient-fault shapes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultConfig {
    /// Horizon the schedule covers (s).
    pub horizon_s: f64,
    /// Relay deaths per node per second.
    pub relay_death_rate_hz: f64,
    /// PU returns per channel per second.
    pub pu_return_rate_hz: f64,
    /// Mean PU on-burst duration (s).
    pub pu_return_mean_s: f64,
    /// Shadow bursts per node per second.
    pub shadow_rate_hz: f64,
    /// Mean shadow-burst duration (s).
    pub shadow_mean_s: f64,
    /// Shadowing depth (dB).
    pub shadow_depth_db: f64,
    /// Broadcast-loss episodes per cluster per second.
    pub broadcast_loss_rate_hz: f64,
    /// Mean episode duration (s).
    pub broadcast_loss_mean_s: f64,
    /// Frame-loss probability while an episode is active.
    pub broadcast_loss_prob: f64,
}

impl FaultConfig {
    /// No faults at all over `horizon_s` — degradation walks must reduce
    /// to their fault-free baselines under this config.
    pub fn disabled(horizon_s: f64) -> Self {
        Self {
            horizon_s,
            relay_death_rate_hz: 0.0,
            pu_return_rate_hz: 0.0,
            pu_return_mean_s: 1.0,
            shadow_rate_hz: 0.0,
            shadow_mean_s: 1.0,
            shadow_depth_db: 20.0,
            broadcast_loss_rate_hz: 0.0,
            broadcast_loss_mean_s: 1.0,
            broadcast_loss_prob: 0.5,
        }
    }

    /// The faultbench baseline: rates chosen so a 100 s horizon sees a
    /// handful of each class per unit-pool.
    pub fn nominal(horizon_s: f64) -> Self {
        Self {
            horizon_s,
            relay_death_rate_hz: 0.002,
            pu_return_rate_hz: 0.02,
            pu_return_mean_s: 3.0,
            shadow_rate_hz: 0.01,
            shadow_mean_s: 2.0,
            shadow_depth_db: 20.0,
            broadcast_loss_rate_hz: 0.01,
            broadcast_loss_mean_s: 4.0,
            broadcast_loss_prob: 0.5,
        }
    }

    /// Scales every arrival rate by `lambda` (durations unchanged) — the
    /// knob the faultbench degradation curves sweep.
    pub fn scaled(&self, lambda: f64) -> Self {
        assert!(lambda >= 0.0);
        Self {
            relay_death_rate_hz: self.relay_death_rate_hz * lambda,
            pu_return_rate_hz: self.pu_return_rate_hz * lambda,
            shadow_rate_hz: self.shadow_rate_hz * lambda,
            broadcast_loss_rate_hz: self.broadcast_loss_rate_hz * lambda,
            ..*self
        }
    }

    /// Whether every rate is zero (the disabled-faults fast path).
    pub fn is_disabled(&self) -> bool {
        self.relay_death_rate_hz == 0.0
            && self.pu_return_rate_hz == 0.0
            && self.shadow_rate_hz == 0.0
            && self.broadcast_loss_rate_hz == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_reports_disabled() {
        assert!(FaultConfig::disabled(10.0).is_disabled());
        assert!(!FaultConfig::nominal(10.0).is_disabled());
        // scaling to zero disables; scaling up does not
        assert!(FaultConfig::nominal(10.0).scaled(0.0).is_disabled());
        assert!(!FaultConfig::nominal(10.0).scaled(4.0).is_disabled());
    }

    #[test]
    fn scaling_multiplies_rates_only() {
        let base = FaultConfig::nominal(50.0);
        let double = base.scaled(2.0);
        assert_eq!(double.relay_death_rate_hz, 2.0 * base.relay_death_rate_hz);
        assert_eq!(double.pu_return_rate_hz, 2.0 * base.pu_return_rate_hz);
        assert_eq!(double.pu_return_mean_s, base.pu_return_mean_s);
        assert_eq!(double.horizon_s, base.horizon_s);
    }
}
