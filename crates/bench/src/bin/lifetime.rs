//! Network-lifetime and routing-policy study (extension artefact; see
//! DESIGN.md extension table).
//!
//! Usage: `cargo run --release -p comimo-bench --bin lifetime [n_nodes]`

use comimo_bench::tables::render_table;
use comimo_energy::model::EnergyModel;
use comimo_net::lifetime::{run_lifetime, LifetimeConfig};
use comimo_net::node::random_deployment;
use comimo_net::routing::backbone_vs_optimal;
use comimo_net::{TopologyConfig, TopologyEngine};

/// `n` SUs on a 450 m field joined in id order (store id i is node i):
/// d = 40 m clusters of at most `max_cluster`, backbone reach D = 650 m.
fn build(seed: u64, n: usize, battery: f64, max_cluster: usize) -> TopologyEngine {
    let mut net = TopologyEngine::new(TopologyConfig {
        width_m: 450.0,
        height_m: 450.0,
        d_m: 40.0,
        max_cluster,
        long_range_m: 650.0,
    });
    let mut rng = comimo_math::rng::seeded(seed);
    for node in random_deployment(&mut rng, n, 450.0, 450.0, battery) {
        net.join(node.pos.x, node.pos.y, node.battery_j)
            .expect("the deployment lies in the field");
    }
    net
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
        let mut net = build(2014, n, 0.5, max_cluster);
        let clusters = net.clusters_alive();
        let res = run_lifetime(&mut net, &model, &cfg, 0, n as u32 - 1)
            .expect("both endpoints are deployed");
        net.validate()
            .unwrap_or_else(|e| panic!("{label}: the run left an invalid topology: {e}"));
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
    let mut net = build(2014, n, 0.5, 4);
    let ids: Vec<u32> = net.iter_clusters().collect();
    let k = ids.len();
    let mut route_rows = Vec::new();
    for i in 0..5.min(k.saturating_sub(1)) {
        let (a, b) = (ids[i], ids[k - 1 - i]);
        if a >= b {
            break;
        }
        let priced = backbone_vs_optimal(&mut net, &model, 1e-3, 40e3, 1e4, a, b)
            .expect("sampled clusters are live");
        if let Some((bb, opt)) = priced {
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
