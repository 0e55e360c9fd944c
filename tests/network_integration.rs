//! Network-level integration: deployment → clustering → backbone →
//! route energy → reconfiguration, all through the public API of the
//! topology engine.

use comimo::energy::model::EnergyModel;
use comimo::math::rng::seeded;
use comimo::net::node::random_deployment;
use comimo::net::routing::{backbone_route, hop_energy, route_energy_per_bit};
use comimo::net::{TopologyConfig, TopologyEngine};

/// `n` SUs on a 400 m field joined in id order, so store id i is node i.
fn build_net(seed: u64, n: usize) -> TopologyEngine {
    let mut net = TopologyEngine::new(TopologyConfig {
        width_m: 400.0,
        height_m: 400.0,
        d_m: 35.0,
        max_cluster: 4,
        long_range_m: 600.0,
    });
    for node in random_deployment(&mut seeded(seed), n, 400.0, 400.0, 25.0) {
        net.join(node.pos.x, node.pos.y, node.battery_j).unwrap();
    }
    net
}

/// Every live cluster as `(id, head, members)`.
fn clusters(net: &TopologyEngine) -> Vec<(u32, u32, Vec<u32>)> {
    net.iter_clusters()
        .map(|c| (c, net.head(c).unwrap(), net.members(c).unwrap().to_vec()))
        .collect()
}

#[test]
fn formation_pipeline_produces_valid_structures() {
    for seed in [1u64, 2, 3, 4, 5] {
        let net = build_net(seed, 50);
        net.validate()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // every node belongs to exactly one live cluster
        for id in 0..50u32 {
            let c = net.store().cluster_of(id);
            assert!(
                net.members(c).unwrap().contains(&id),
                "node {id} unclustered"
            );
        }
        // the head of every cluster is one of its members
        for (c, head, members) in clusters(&net) {
            assert!(members.contains(&head), "cluster {c}");
        }
    }
}

#[test]
fn route_energy_scales_with_hop_count() {
    let mut net = build_net(7, 60);
    let model = EnergyModel::paper();
    let ids: Vec<u32> = net.iter_clusters().collect();
    // find the longest backbone route available
    let mut best: Option<Vec<u32>> = None;
    for &a in &ids {
        for &b in &ids {
            if let Some(p) = backbone_route(&mut net, a, b).unwrap() {
                if best.as_ref().is_none_or(|q| p.len() > q.len()) {
                    best = Some(p);
                }
            }
        }
    }
    let path = best.expect("some route exists");
    assert!(
        path.len() >= 3,
        "deployment too sparse for a multi-hop test"
    );
    let energy = |p: &[u32]| route_energy_per_bit(&net, &model, 1e-3, 40_000.0, 1e4, p).unwrap();
    let full = energy(&path);
    let half = energy(&path[..path.len() / 2 + 1]);
    assert!(
        full > half,
        "longer routes must cost more: {full:e} vs {half:e}"
    );
}

#[test]
fn reconfiguration_survives_sequential_failures() {
    use rand::Rng;
    let mut net = build_net(13, 50);
    let mut rng = seeded(17);
    let mut alive: Vec<u32> = (0..50).collect();
    for _ in 0..10 {
        let victim = alive.swap_remove(rng.gen_range(0..alive.len()));
        net.death(victim).unwrap();
        net.validate()
            .unwrap_or_else(|e| panic!("after killing {victim}: {e}"));
        assert!(clusters(&net).iter().all(|(_, _, m)| !m.contains(&victim)));
    }
    assert_eq!(net.nodes_alive(), 40);
}

#[test]
fn battery_drain_relects_route_usage() {
    let mut net = build_net(19, 40);
    let model = EnergyModel::paper();
    // drain the head of a cooperative cluster by the per-bit cost of
    // 1 Mbit through one of its hops
    let ids: Vec<u32> = net.iter_clusters().collect();
    let a = *ids
        .iter()
        .find(|&&c| net.members(c).unwrap().len() > 1)
        .expect("some cluster cooperates");
    let b = *ids.iter().find(|&&c| c != a).unwrap();
    let hop = hop_energy(&net, &model, 1e-3, 40_000.0, 1e4, a, b).unwrap();
    let head = net.head(a).unwrap();
    let before = net.store().battery_j(head);
    let left = net.drain(head, hop.total() * 1e6).unwrap();
    assert!(left < before);
    assert_eq!(net.store().battery_j(head), left);
    // the drained head hands over to a fuller member
    assert_ne!(net.head(a).unwrap(), head);
    assert_eq!(net.stats().head_reelections, 1);
    net.validate().unwrap();
}

#[test]
fn deterministic_formation() {
    let a = build_net(23, 45);
    let b = build_net(23, 45);
    assert_eq!(clusters(&a), clusters(&b));
}
