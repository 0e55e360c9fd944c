//! Ablation benches for the design choices called out in DESIGN.md §5.
//!
//! Each group compares the default choice against its alternative on the
//! same workload, so a `cargo bench` run shows both the runtime cost and
//! (via the printed values) the behavioural difference.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use comimo_core::overlay::{Overlay, OverlayConfig, SimoModel};
use comimo_dsp::combining::{egc_combine, mrc_combine, selection_combine};
use comimo_energy::model::EnergyModel;
use comimo_math::complex::Complex;
use comimo_math::rng::{complex_gaussian, seeded};
use comimo_net::cluster::{d_clustering, SeedOrder};
use comimo_net::comimonet::ForwardPolicy;
use comimo_net::graph::SuGraph;
use comimo_net::node::random_deployment;

/// Receive-side local-forward accounting: `mr` vs `mr − 1`
/// ("ablate_accounting").
fn ablate_accounting(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_accounting");
    g.sample_size(10);
    let mut rng = seeded(11);
    let nodes = random_deployment(&mut rng, 40, 300.0, 300.0, 10.0);
    let graph = SuGraph::build(nodes, 60.0);
    let net =
        comimo_net::comimonet::CoMimoNet::build(graph, 30.0, 4, SeedOrder::DegreeGreedy, 500.0);
    let model = EnergyModel::paper();
    let (a, b) = (
        0usize,
        net.cluster_neighbours(0).first().copied().unwrap_or(0),
    );
    if a != b {
        for (name, policy) in [
            ("all_members", ForwardPolicy::AllMembers),
            ("exclude_head", ForwardPolicy::ExcludeHead),
        ] {
            g.bench_function(name, |bch| {
                bch.iter(|| black_box(net.hop_energy(&model, 1e-3, 40_000.0, 1e4, a, b, policy)));
            });
        }
    }
    g.finish();
}

/// Diversity combining rule: SC vs EGC vs MRC ("ablate_combining").
fn ablate_combining(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_combining");
    let mut rng = seeded(12);
    let n = 10_000;
    let branches: Vec<Vec<Complex>> = (0..3)
        .map(|_| (0..n).map(|_| complex_gaussian(&mut rng, 1.0)).collect())
        .collect();
    let gains: Vec<Complex> = (0..3).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
    g.bench_function("selection", |b| {
        b.iter(|| black_box(selection_combine(black_box(&branches), black_box(&gains))));
    });
    g.bench_function("egc", |b| {
        b.iter(|| black_box(egc_combine(black_box(&branches), black_box(&gains))));
    });
    g.bench_function("mrc", |b| {
        b.iter(|| black_box(mrc_combine(black_box(&branches), black_box(&gains))));
    });
    g.finish();
}

/// d-clustering seed order: degree-greedy vs id order ("ablate_clustering").
fn ablate_clustering(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_clustering");
    let mut rng = seeded(13);
    let nodes = random_deployment(&mut rng, 200, 400.0, 400.0, 10.0);
    let graph = SuGraph::build(nodes, 50.0);
    for (name, order) in [
        ("degree_greedy", SeedOrder::DegreeGreedy),
        ("id_order", SeedOrder::IdOrder),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(d_clustering(black_box(&graph), 25.0, 4, order)));
        });
    }
    g.finish();
}

/// Overlay Step-1 model: independent decode (default) vs the literal
/// receive-diversity formula ("ablate_simo_model").
fn ablate_simo_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_simo_model");
    g.sample_size(10);
    let model = EnergyModel::paper();
    for (name, simo) in [
        ("independent_decode", SimoModel::IndependentDecode),
        ("receive_diversity", SimoModel::ReceiveDiversity),
    ] {
        let cfg = OverlayConfig {
            simo_model: simo,
            ..OverlayConfig::paper(3, 40_000.0)
        };
        let ov = Overlay::new(&model, cfg);
        g.bench_function(name, |b| {
            b.iter(|| black_box(ov.analyze(black_box(250.0))));
        });
    }
    g.finish();
}

/// Routing policy: spanning-tree backbone vs min-energy Dijkstra
/// ("ablate_routing").
fn ablate_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_routing");
    g.sample_size(10);
    let mut rng = seeded(14);
    let nodes = random_deployment(&mut rng, 60, 450.0, 450.0, 10.0);
    let graph = SuGraph::build(nodes, 80.0);
    let net =
        comimo_net::comimonet::CoMimoNet::build(graph, 40.0, 4, SeedOrder::DegreeGreedy, 650.0);
    let model = EnergyModel::paper();
    // warm the ē_b cache so the bench measures routing, not root finding
    let _ = comimo_net::routing::min_energy_route(
        &net,
        &model,
        1e-3,
        40e3,
        1e4,
        0,
        net.clusters().len() - 1,
        ForwardPolicy::AllMembers,
    );
    let k = net.clusters().len();
    g.bench_function("backbone_bfs", |b| {
        b.iter(|| black_box(net.backbone_path(0, k - 1)));
    });
    g.bench_function("min_energy_dijkstra", |b| {
        b.iter(|| {
            black_box(comimo_net::routing::min_energy_route(
                &net,
                &model,
                1e-3,
                40e3,
                1e4,
                0,
                k - 1,
                ForwardPolicy::AllMembers,
            ))
        });
    });
    g.finish();
}

criterion_group!(
    ablations,
    ablate_accounting,
    ablate_combining,
    ablate_clustering,
    ablate_simo_model,
    ablate_routing
);
criterion_main!(ablations);
