//! Network-lifetime study: how long does a battery-powered CoMIMONet keep
//! a flow alive, cooperatively vs SISO?
//!
//! ```bash
//! cargo run --release --example network_lifetime
//! ```
//!
//! The same random deployment is run twice — once with cooperative 4-node
//! clusters, once with singleton (SISO) clusters — pushing 10-kbit rounds
//! between two corner nodes until the network can no longer route.
//! Batteries drain by the paper's per-hop energy accounting; heads are
//! re-elected and the topology reconfigures as nodes die.

use comimo::energy::model::EnergyModel;
use comimo::net::comimonet::CoMimoNet;
use comimo::net::graph::SuGraph;
use comimo::net::lifetime::{run_lifetime, LifetimeConfig};
use comimo::net::node::random_deployment;
use comimo::net::routing::backbone_vs_optimal;

fn deployment(battery_j: f64, max_cluster: usize) -> CoMimoNet {
    let mut rng = comimo::math::rng::seeded(2014);
    let nodes = random_deployment(&mut rng, 60, 450.0, 450.0, battery_j);
    let graph = SuGraph::build(nodes, 80.0);
    CoMimoNet::build(graph, 40.0, max_cluster, 650.0)
}

fn main() {
    let model = EnergyModel::paper();
    let cfg = LifetimeConfig {
        max_rounds: 200_000,
        ..LifetimeConfig::default_rounds()
    };

    println!("60 SUs over 450 m x 450 m, 0.5 J batteries, 10-kbit rounds, node 0 -> node 59\n");

    // ---------------- routing-policy comparison first ----------------
    let net = deployment(0.5, 4);
    let (from, to) = (net.cluster_of(0).unwrap(), net.cluster_of(59).unwrap());
    if let Some((bb, opt)) = backbone_vs_optimal(&net, &model, 1e-3, 40e3, 1e4, from, to) {
        println!("route energy node0->node59:");
        println!("  spanning-tree backbone : {bb:.3e} J/bit");
        println!(
            "  min-energy (Dijkstra)  : {opt:.3e} J/bit  ({:.1}% cheaper)\n",
            (1.0 - opt / bb) * 100.0
        );
    }

    // ---------------- lifetime: cooperative vs SISO ----------------
    for (label, max_cluster) in [
        ("cooperative (<=4-node clusters)", 4),
        ("SISO (singleton clusters)", 1),
    ] {
        let net = deployment(0.5, max_cluster);
        let n_clusters = net.clusters().len();
        let res = run_lifetime(net, &model, &cfg, 0, 59);
        println!("{label}: {n_clusters} clusters");
        println!("  rounds survived : {}", res.rounds);
        println!("  bits delivered  : {:.1e}", res.bits_delivered);
        println!("  nodes lost      : {}", res.deaths.len());
        println!("  energy spent    : {:.2} J\n", res.energy_spent_j);
    }

    println!("(the cooperative network delivers far more traffic on the same batteries —");
    println!(" the paper's 'energy efficient' claim, measured end to end)");
}
