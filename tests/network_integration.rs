//! Network-level integration: deployment → clustering → backbone →
//! route energy → reconfiguration, all through the public API.

use comimo::energy::model::EnergyModel;
use comimo::math::rng::seeded;
use comimo::net::cluster::validate_clustering;
use comimo::net::comimonet::CoMimoNet;
use comimo::net::graph::SuGraph;
use comimo::net::node::random_deployment;

fn build_net(seed: u64, n: usize) -> CoMimoNet {
    let mut rng = seeded(seed);
    let nodes = random_deployment(&mut rng, n, 400.0, 400.0, 25.0);
    let graph = SuGraph::build(nodes, 70.0);
    CoMimoNet::build(graph, 35.0, 4, 600.0)
}

#[test]
fn formation_pipeline_produces_valid_structures() {
    for seed in [1u64, 2, 3, 4, 5] {
        let net = build_net(seed, 50);
        validate_clustering(net.graph(), net.clusters(), 35.0)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // every node belongs to exactly one cluster
        for id in 0..net.graph().len() {
            assert!(net.cluster_of(id).is_some(), "node {id} unclustered");
        }
        // head of every cluster is a member with max battery
        for c in net.clusters() {
            assert!(c.contains(c.head));
        }
    }
}

#[test]
fn route_energy_scales_with_hop_count() {
    let net = build_net(7, 60);
    let model = EnergyModel::paper();
    let k = net.clusters().len();
    // find the longest backbone path available
    let mut best: Option<Vec<usize>> = None;
    for a in 0..k {
        for b in 0..k {
            if let Some(p) = net.backbone_path(a, b) {
                if best.as_ref().is_none_or(|q| p.len() > q.len()) {
                    best = Some(p);
                }
            }
        }
    }
    let path = best.expect("some path exists");
    assert!(
        path.len() >= 3,
        "deployment too sparse for a multi-hop test"
    );
    let full = net.route_energy_per_bit(&model, 1e-3, 40_000.0, 1e4, &path);
    let half = net.route_energy_per_bit(&model, 1e-3, 40_000.0, 1e4, &path[..path.len() / 2 + 1]);
    assert!(
        full > half,
        "longer routes must cost more: {full:e} vs {half:e}"
    );
}

#[test]
fn reconfiguration_survives_sequential_failures() {
    let mut net = build_net(13, 50);
    let mut rng = seeded(17);
    for _ in 0..10 {
        let victim = {
            use rand::Rng;
            let alive: Vec<usize> = net
                .graph()
                .nodes()
                .iter()
                .filter(|n| n.alive)
                .map(|n| n.id)
                .collect();
            alive[rng.gen_range(0..alive.len())]
        };
        net.try_kill_node_and_reconfigure(victim).unwrap();
        validate_clustering(net.graph(), net.clusters(), 35.0)
            .unwrap_or_else(|e| panic!("after killing {victim}: {e}"));
        assert!(net.clusters().iter().all(|c| !c.contains(victim)));
    }
}

#[test]
fn battery_drain_relects_route_usage() {
    let net = build_net(19, 40);
    let model = EnergyModel::paper();
    // drain a head by the per-bit cost of 1 Mbit through its hop
    if let Some(&next) = net.backbone_neighbours(0).first() {
        let hop = net.hop_energy(&model, 1e-3, 40_000.0, 1e4, 0, next);
        let head = net.clusters()[0].head;
        let mut graph = net.graph().clone();
        let before = graph.nodes()[head].battery_j;
        graph.nodes_mut()[head].drain(hop.total() * 1e6);
        assert!(graph.nodes()[head].battery_j < before);
    }
}

#[test]
fn deterministic_formation() {
    let a = build_net(23, 45);
    let b = build_net(23, 45);
    assert_eq!(a.clusters(), b.clusters());
}
