//! Network-lifetime and routing-policy study (extension artefact; see
//! DESIGN.md extension table).
//!
//! Usage: `cargo run --release -p comimo-bench --bin lifetime [n_nodes]`

use comimo_bench::tables::render_table;
use comimo_energy::model::EnergyModel;
use comimo_net::comimonet::CoMimoNet;
use comimo_net::graph::SuGraph;
use comimo_net::lifetime::{run_lifetime, LifetimeConfig};
use comimo_net::node::random_deployment;
use comimo_net::routing::backbone_vs_optimal;

fn build(seed: u64, n: usize, battery: f64, max_cluster: usize) -> CoMimoNet {
    let mut rng = comimo_math::rng::seeded(seed);
    let nodes = random_deployment(&mut rng, n, 450.0, 450.0, battery);
    let graph = SuGraph::build(nodes, 80.0);
    CoMimoNet::build(graph, 40.0, max_cluster, 650.0)
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let model = EnergyModel::paper();
    let cfg = LifetimeConfig {
        max_rounds: 500_000,
        ..LifetimeConfig::default_rounds()
    };

    println!("Network lifetime, {n} SUs, 0.5 J batteries, 10-kbit rounds, corner-to-corner flow\n");
    let mut rows = Vec::new();
    for (label, max_cluster) in [
        ("cooperative (<=4)", 4usize),
        ("pairs (<=2)", 2),
        ("SISO (1)", 1),
    ] {
        let net = build(2014, n, 0.5, max_cluster);
        let clusters = net.clusters().len();
        let res = run_lifetime(net, &model, &cfg, 0, n - 1);
        rows.push(vec![
            label.to_string(),
            clusters.to_string(),
            res.rounds.to_string(),
            format!("{:.2e}", res.bits_delivered),
            res.deaths.len().to_string(),
            format!("{:.2}", res.energy_spent_j),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "clustering",
                "clusters",
                "rounds",
                "bits",
                "deaths",
                "energy (J)"
            ],
            &rows
        )
    );

    println!("\nRouting-policy energy (same deployment, 5 sample pairs):\n");
    let net = build(2014, n, 0.5, 4);
    let k = net.clusters().len();
    let mut route_rows = Vec::new();
    for i in 0..5.min(k.saturating_sub(1)) {
        let (a, b) = (i, k - 1 - i);
        if a >= b {
            break;
        }
        if let Some((bb, opt)) = backbone_vs_optimal(&net, &model, 1e-3, 40e3, 1e4, a, b) {
            route_rows.push(vec![
                format!("{a} -> {b}"),
                format!("{bb:.3e}"),
                format!("{opt:.3e}"),
                format!("{:.1}%", (1.0 - opt / bb) * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "clusters",
                "backbone (J/bit)",
                "min-energy (J/bit)",
                "savings"
            ],
            &route_rows
        )
    );
}
