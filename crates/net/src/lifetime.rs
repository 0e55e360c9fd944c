//! Network-lifetime simulation: the "energy efficient" claim, measured.
//!
//! The paper's keywords include "energy efficient", and its whole energy
//! analysis exists because SU nodes are battery-powered. This module
//! closes the loop: it pushes traffic across a CoMIMONet round after
//! round, drains each participating node's battery by the hop-level
//! energy accounting (heads rotate as they fall behind a member), retires
//! nodes as they run dry (the engine repairs their clusters locally),
//! and reports how long the network keeps the flow alive — letting
//! cooperative MIMO routing be compared against SISO-style routing on the
//! same deployment.

use crate::routing::{hop_energy, min_energy_route};
use crate::topology::{TopologyEngine, TopologyError};
use comimo_energy::model::EnergyModel;
use serde::{Deserialize, Serialize};

/// Traffic and accounting parameters for a lifetime run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifetimeConfig {
    /// Bits delivered per round.
    pub bits_per_round: f64,
    /// Target BER per hop.
    pub ber: f64,
    /// Bandwidth (Hz).
    pub bandwidth_hz: f64,
    /// Block bits.
    pub block_bits: f64,
    /// Safety cap on rounds.
    pub max_rounds: usize,
}

impl LifetimeConfig {
    /// Ten kilobits per round at the paper's Figure-6 settings — sized so
    /// a fraction-of-a-joule battery sustains tens of rounds over
    /// hundred-metre cooperative hops (whose cost is ~1e-6 J/bit/node).
    pub fn default_rounds() -> Self {
        Self {
            bits_per_round: 1e4,
            ber: 1e-3,
            bandwidth_hz: 40_000.0,
            block_bits: 1e4,
            max_rounds: 100_000,
        }
    }
}

/// Why a lifetime run could not start or continue. Kept typed so scale
/// drivers surface a bad endpoint as a value instead of a panic
/// mid-campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifetimeError {
    /// An endpoint id names no node of the deployment.
    EndpointOutOfRange {
        /// The offending node id.
        node: u32,
        /// Node slots in the deployment.
        len: usize,
    },
    /// The engine rejected an operation on its own topology.
    Topology(TopologyError),
}

impl std::fmt::Display for LifetimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EndpointOutOfRange { node, len } => {
                write!(f, "endpoint node {node} outside the {len}-node deployment")
            }
            Self::Topology(e) => write!(f, "topology: {e}"),
        }
    }
}

impl std::error::Error for LifetimeError {}

impl From<TopologyError> for LifetimeError {
    fn from(e: TopologyError) -> Self {
        Self::Topology(e)
    }
}

/// Result of a lifetime run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeResult {
    /// Rounds completed before the flow died.
    pub rounds: usize,
    /// Total bits delivered.
    pub bits_delivered: f64,
    /// Node ids that died, in order.
    pub deaths: Vec<u32>,
    /// Total energy drained across the network (J).
    pub energy_spent_j: f64,
}

/// Runs traffic from the cluster containing node `src` to the cluster
/// containing node `dst` along the minimum-energy route, re-routed every
/// round, until an endpoint dies or no route is left. Each hop's
/// transmit-side members share the local broadcast and long-haul
/// transmit energy, its receive-side members the long-haul receive and
/// collection energy, every share drained through
/// [`TopologyEngine::drain`]; after the round every node whose battery
/// reached zero dies, in ascending id order. The engine stays with the
/// caller, so the topology the run left behind can be audited.
pub fn run_lifetime(
    engine: &mut TopologyEngine,
    model: &EnergyModel,
    cfg: &LifetimeConfig,
    src: u32,
    dst: u32,
) -> Result<LifetimeResult, LifetimeError> {
    let len = engine.store().slots();
    for node in [src, dst] {
        if node as usize >= len {
            return Err(LifetimeError::EndpointOutOfRange { node, len });
        }
    }
    let mut result = LifetimeResult {
        rounds: 0,
        bits_delivered: 0.0,
        deaths: Vec::new(),
        energy_spent_j: 0.0,
    };
    let (ber, bw, block) = (cfg.ber, cfg.bandwidth_hz, cfg.block_bits);
    let mut drained: Vec<u32> = Vec::new();
    for _ in 0..cfg.max_rounds {
        let store = engine.store();
        if !store.is_alive(src) || !store.is_alive(dst) {
            break;
        }
        let (from, to) = (store.cluster_of(src), store.cluster_of(dst));
        let Some(route) = min_energy_route(engine, model, ber, bw, block, from, to)? else {
            break;
        };
        // price every hop before any battery moves: the round's plan is
        // the route Dijkstra chose, whatever heads rotate while it runs
        let mut hops = Vec::with_capacity(route.path.len());
        for w in route.path.windows(2) {
            hops.push((
                w[0],
                w[1],
                hop_energy(engine, model, ber, bw, block, w[0], w[1])?,
            ));
        }
        drained.clear();
        for (a, b, hop) in hops {
            for (c, per_bit) in [
                (a, hop.local_broadcast_j + hop.long_haul_tx_j),
                (b, hop.long_haul_rx_j + hop.local_collect_j),
            ] {
                let members = engine.members(c)?.to_vec();
                let j = per_bit / members.len() as f64 * cfg.bits_per_round;
                for m in members {
                    engine.drain(m, j)?;
                    result.energy_spent_j += j;
                    drained.push(m);
                }
            }
        }
        result.rounds += 1;
        result.bits_delivered += cfg.bits_per_round;
        drained.sort_unstable();
        drained.dedup();
        for &m in &drained {
            if engine.store().battery_j(m) == 0.0 {
                engine.death(m)?;
                result.deaths.push(m);
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::tests::deploy;

    fn deployment(seed: u64, battery_j: f64, max_cluster: usize) -> TopologyEngine {
        deploy(seed, 50, 400.0, battery_j, 40.0, max_cluster, 600.0)
    }

    #[test]
    fn flow_runs_until_energy_runs_out() {
        let mut net = deployment(5, 0.2, 4);
        let model = EnergyModel::paper();
        let cfg = LifetimeConfig {
            max_rounds: 5_000,
            ..LifetimeConfig::default_rounds()
        };
        let res = run_lifetime(&mut net, &model, &cfg, 0, 49).unwrap();
        assert!(res.rounds > 0, "no rounds completed");
        assert!(res.rounds < cfg.max_rounds, "flow should eventually die");
        assert!(!res.deaths.is_empty(), "someone must run dry");
        assert!(res.energy_spent_j > 0.0);
        assert!((res.bits_delivered - res.rounds as f64 * 1e4).abs() < 1.0);
        assert_eq!(net.nodes_alive(), 50 - res.deaths.len());
        net.validate().unwrap();
    }

    #[test]
    fn bigger_batteries_live_longer() {
        let model = EnergyModel::paper();
        let cfg = LifetimeConfig {
            max_rounds: 20_000,
            ..LifetimeConfig::default_rounds()
        };
        let (mut small_net, mut large_net) = (deployment(7, 0.05, 4), deployment(7, 0.5, 4));
        let small = run_lifetime(&mut small_net, &model, &cfg, 0, 49).unwrap();
        let large = run_lifetime(&mut large_net, &model, &cfg, 0, 49).unwrap();
        assert!(
            large.rounds > small.rounds * 3,
            "large {} vs small {}",
            large.rounds,
            small.rounds
        );
        small_net.validate().unwrap();
        large_net.validate().unwrap();
    }

    #[test]
    fn cooperation_extends_lifetime_over_siso_clusters() {
        // the headline claim: the same deployment with singleton clusters
        // (max_cluster = 1, i.e. SISO hops) dies much sooner than with
        // cooperative 4-node clusters
        let model = EnergyModel::paper();
        let cfg = LifetimeConfig {
            max_rounds: 50_000,
            ..LifetimeConfig::default_rounds()
        };
        let (mut coop_net, mut siso_net) = (deployment(11, 0.3, 4), deployment(11, 0.3, 1));
        let coop = run_lifetime(&mut coop_net, &model, &cfg, 0, 49).unwrap();
        let siso = run_lifetime(&mut siso_net, &model, &cfg, 0, 49).unwrap();
        assert!(
            coop.bits_delivered > 2.0 * siso.bits_delivered,
            "coop {} bits vs SISO {} bits",
            coop.bits_delivered,
            siso.bits_delivered
        );
        coop_net.validate().unwrap();
        siso_net.validate().unwrap();
    }

    #[test]
    fn out_of_range_endpoints_are_a_typed_error_not_a_panic() {
        let model = EnergyModel::paper();
        let cfg = LifetimeConfig::default_rounds();
        let mut net = deployment(5, 0.2, 4);
        let err = run_lifetime(&mut net, &model, &cfg, 0, 50).unwrap_err();
        assert_eq!(err, LifetimeError::EndpointOutOfRange { node: 50, len: 50 });
        let err = run_lifetime(&mut net, &model, &cfg, 99, 0).unwrap_err();
        assert_eq!(err, LifetimeError::EndpointOutOfRange { node: 99, len: 50 });
        assert!(err.to_string().contains("node 99"));
        // a rejected run touches nothing
        assert_eq!(net.stats().deaths, 0);
        net.validate().unwrap();
    }

    #[test]
    fn dead_endpoint_ends_the_flow() {
        let mut net = deployment(13, 0.2, 4);
        let model = EnergyModel::paper();
        // kill the source
        assert_eq!(net.drain(0, 1.0).unwrap(), 0.0);
        net.death(0).unwrap();
        let cfg = LifetimeConfig::default_rounds();
        let res = run_lifetime(&mut net, &model, &cfg, 0, 49).unwrap();
        assert_eq!(res.rounds, 0);
        assert!(res.deaths.is_empty());
        net.validate().unwrap();
    }
}
