//! Underlay scenario: a full CoMIMONet carrying data below the noise floor.
//!
//! ```bash
//! cargo run --release --example underlay_network
//! ```
//!
//! Deploys a random field of secondary users, forms the d-clusters and
//! the backbone over their heads (paper Section 2.1) on the topology
//! engine, routes a flow along the backbone with cooperative MIMO hops
//! (Algorithm 2), accounts the per-hop energy with the Cui–Goldsmith
//! model, and checks the noise-floor margin at a primary receiver.

use comimo::channel::pathloss::SquareLawLongHaul;
use comimo::core::underlay::{Underlay, UnderlayConfig};
use comimo::energy::model::EnergyModel;
use comimo::net::node::random_deployment;
use comimo::net::routing::{backbone_route, hop_energy, route_energy_per_bit};
use comimo::net::{TopologyConfig, TopologyEngine};

fn main() {
    let mut rng = comimo::math::rng::seeded(42);

    // ---------------- network formation ----------------
    let mut net = TopologyEngine::new(TopologyConfig {
        width_m: 400.0,
        height_m: 400.0,
        d_m: 30.0,
        max_cluster: 4,
        long_range_m: 500.0,
    });
    for node in random_deployment(&mut rng, 60, 400.0, 400.0, 50.0) {
        net.join(node.pos.x, node.pos.y, node.battery_j)
            .expect("the deployment lies in the field");
    }
    println!("deployed 60 SUs over 400 m x 400 m, joined in id order");
    let ids: Vec<u32> = net.iter_clusters().collect();
    println!(
        "d-clustering (d = 30 m, max 4 nodes): {} clusters",
        ids.len()
    );
    let sizes: Vec<usize> = ids.iter().map(|&c| net.members(c).unwrap().len()).collect();
    println!("cluster sizes: {sizes:?}\n");

    // ---------------- backbone routing + energy ----------------
    let model = EnergyModel::paper();
    let (src, dst) = (ids[0], ids[ids.len() - 1]);
    match backbone_route(&mut net, src, dst).expect("both clusters are live") {
        Some(path) => {
            println!("backbone route {src} -> {dst}: {path:?}");
            let e = route_energy_per_bit(&net, &model, 1e-3, 40_000.0, 1e4, &path).unwrap();
            println!("route energy: {e:.3e} J/bit over {} hops", path.len() - 1);
            for w in path.windows(2) {
                let hop = hop_energy(&net, &model, 1e-3, 40_000.0, 1e4, w[0], w[1]).unwrap();
                println!(
                    "  hop {} -> {}: b = {:<2} total = {:.3e} J/bit (long-haul tx {:.1e})",
                    w[0],
                    w[1],
                    hop.b,
                    hop.total(),
                    hop.long_haul_tx_j
                );
            }
        }
        None => println!("clusters {src} and {dst} are in different backbone trees"),
    }

    // ---------------- the underlay admission check ----------------
    let u = Underlay::new(&model, UnderlayConfig::paper(2, 3, 10_000.0));
    let a = u.analyze(200.0);
    let pl = SquareLawLongHaul::paper_defaults();
    println!(
        "\nunderlay 2x3 hop over 200 m: total PA {:.3e} J/bit, peak {:.3e} J/bit",
        a.total_pa(),
        a.peak_pa()
    );
    for d in [200.0, 400.0, 800.0] {
        println!(
            "  noise-floor margin at a PU {d:>4.0} m away: {:+.1} dB",
            u.noise_floor_margin_db(&a, &pl, d)
        );
    }
}
