//! Underlay scenario: a full CoMIMONet carrying data below the noise floor.
//!
//! ```bash
//! cargo run --release --example underlay_network
//! ```
//!
//! Deploys a random field of secondary users, forms the d-clustering and
//! the spanning-tree backbone (paper Section 2.1), routes a flow across
//! the backbone with cooperative MIMO hops (Algorithm 2), accounts the
//! per-hop energy with the Cui–Goldsmith model, and checks the
//! noise-floor margin at a primary receiver.

use comimo::channel::pathloss::SquareLawLongHaul;
use comimo::core::underlay::{Underlay, UnderlayConfig};
use comimo::energy::model::EnergyModel;
use comimo::net::cluster::SeedOrder;
use comimo::net::comimonet::{CoMimoNet, ForwardPolicy};
use comimo::net::graph::SuGraph;
use comimo::net::node::random_deployment;

fn main() {
    let mut rng = comimo::math::rng::seeded(42);

    // ---------------- network formation ----------------
    let nodes = random_deployment(&mut rng, 60, 400.0, 400.0, 50.0);
    let graph = SuGraph::build(nodes, 60.0);
    println!(
        "deployed 60 SUs over 400 m x 400 m, range 60 m: {} edges",
        graph.n_edges()
    );
    let net = CoMimoNet::build(graph, 30.0, 4, SeedOrder::DegreeGreedy, 500.0);
    println!(
        "d-clustering (d = 30 m, max 4 nodes): {} clusters",
        net.clusters().len()
    );
    let sizes: Vec<usize> = net.clusters().iter().map(|c| c.size()).collect();
    println!("cluster sizes: {sizes:?}\n");

    // ---------------- backbone routing + energy ----------------
    let model = EnergyModel::paper();
    let src = 0;
    let dst = net.clusters().len() - 1;
    match net.backbone_path(src, dst) {
        Some(path) => {
            println!("backbone route {src} -> {dst}: {path:?}");
            let e = net.route_energy_per_bit(
                &model,
                1e-3,
                40_000.0,
                1e4,
                &path,
                ForwardPolicy::AllMembers,
            );
            println!("route energy: {e:.3e} J/bit over {} hops", path.len() - 1);
            for w in path.windows(2) {
                let hop = net.hop_energy(
                    &model,
                    1e-3,
                    40_000.0,
                    1e4,
                    w[0],
                    w[1],
                    ForwardPolicy::AllMembers,
                );
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
        None => println!("clusters {src} and {dst} are in different components"),
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
