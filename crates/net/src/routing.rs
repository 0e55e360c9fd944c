//! Minimum-energy routing over the cluster graph.
//!
//! The paper routes over a spanning-tree backbone ("all head nodes form a
//! spanning tree which is used as a routing backbone"); a tree is cheap
//! to maintain but its unique paths can be energy-suboptimal. This module
//! adds Dijkstra over the *full* cluster graph with per-hop cooperative
//! energy weights, so the backbone policy can be compared against the
//! energy-optimal one (bench `ablate_routing`).

use crate::comimonet::{CoMimoNet, ForwardPolicy};
use comimo_energy::model::EnergyModel;

/// A priced route between two clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRoute {
    /// Cluster indices, source first.
    pub path: Vec<usize>,
    /// Total energy per bit along the path (J/bit).
    pub energy_per_bit: f64,
}

/// Dijkstra over the cluster graph with hop energies as weights.
/// Returns `None` when the clusters are disconnected.
#[allow(clippy::too_many_arguments)]
pub fn min_energy_route(
    net: &CoMimoNet,
    model: &EnergyModel,
    ber: f64,
    bandwidth_hz: f64,
    block_bits: f64,
    from: usize,
    to: usize,
    policy: ForwardPolicy,
) -> Option<EnergyRoute> {
    let k = net.clusters().len();
    assert!(from < k && to < k, "cluster index out of range");
    if from == to {
        return Some(EnergyRoute {
            path: vec![from],
            energy_per_bit: 0.0,
        });
    }
    // Dijkstra with a simple binary heap over (cost, node)
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry(f64, usize);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // total_cmp: a NaN hop cost must not panic the router
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    let mut dist = vec![f64::INFINITY; k];
    let mut prev = vec![usize::MAX; k];
    let mut heap = BinaryHeap::new();
    dist[from] = 0.0;
    heap.push(Reverse(Entry(0.0, from)));
    while let Some(Reverse(Entry(d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == to {
            break;
        }
        for &v in net.cluster_neighbours(u) {
            let w = net
                .hop_energy(model, ber, bandwidth_hz, block_bits, u, v, policy)
                .total();
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = u;
                heap.push(Reverse(Entry(nd, v)));
            }
        }
    }
    if !dist[to].is_finite() {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur];
        path.push(cur);
    }
    path.reverse();
    Some(EnergyRoute {
        path,
        energy_per_bit: dist[to],
    })
}

/// Compares the backbone route against the energy-optimal route for the
/// same endpoints; returns `(backbone_energy, optimal_energy)` per bit,
/// or `None` if disconnected.
#[allow(clippy::too_many_arguments)]
pub fn backbone_vs_optimal(
    net: &CoMimoNet,
    model: &EnergyModel,
    ber: f64,
    bandwidth_hz: f64,
    block_bits: f64,
    from: usize,
    to: usize,
    policy: ForwardPolicy,
) -> Option<(f64, f64)> {
    let backbone = net.backbone_path(from, to)?;
    let bb_energy =
        net.route_energy_per_bit(model, ber, bandwidth_hz, block_bits, &backbone, policy);
    let opt = min_energy_route(net, model, ber, bandwidth_hz, block_bits, from, to, policy)?;
    Some((bb_energy, opt.energy_per_bit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SeedOrder;
    use crate::graph::SuGraph;
    use crate::node::random_deployment;
    use comimo_math::rng::seeded;

    fn net(seed: u64) -> CoMimoNet {
        let mut rng = seeded(seed);
        let nodes = random_deployment(&mut rng, 70, 500.0, 500.0, 25.0);
        let graph = SuGraph::build(nodes, 80.0);
        CoMimoNet::build(graph, 40.0, 4, SeedOrder::DegreeGreedy, 700.0)
    }

    #[test]
    fn trivial_route_is_free() {
        let n = net(1);
        let model = EnergyModel::paper();
        let r =
            min_energy_route(&n, &model, 1e-3, 40e3, 1e4, 0, 0, ForwardPolicy::AllMembers).unwrap();
        assert_eq!(r.path, vec![0]);
        assert_eq!(r.energy_per_bit, 0.0);
    }

    #[test]
    fn optimal_never_worse_than_backbone() {
        let n = net(2);
        let model = EnergyModel::paper();
        let k = n.clusters().len();
        let mut compared = 0;
        for from in 0..k.min(6) {
            for to in 0..k.min(6) {
                if let Some((bb, opt)) = backbone_vs_optimal(
                    &n,
                    &model,
                    1e-3,
                    40e3,
                    1e4,
                    from,
                    to,
                    ForwardPolicy::AllMembers,
                ) {
                    assert!(
                        opt <= bb * (1.0 + 1e-9),
                        "{from}->{to}: optimal {opt:e} worse than backbone {bb:e}"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 4, "too few connected pairs to compare");
    }

    #[test]
    fn optimal_route_is_connected_and_costed() {
        let n = net(3);
        let model = EnergyModel::paper();
        let k = n.clusters().len();
        for to in 1..k.min(8) {
            if let Some(r) = min_energy_route(
                &n,
                &model,
                1e-3,
                40e3,
                1e4,
                0,
                to,
                ForwardPolicy::AllMembers,
            ) {
                // path endpoints
                assert_eq!(*r.path.first().unwrap(), 0);
                assert_eq!(*r.path.last().unwrap(), to);
                // edges all exist and costs sum up
                let mut sum = 0.0;
                for w in r.path.windows(2) {
                    assert!(n.cluster_neighbours(w[0]).contains(&w[1]));
                    sum += n
                        .hop_energy(
                            &model,
                            1e-3,
                            40e3,
                            1e4,
                            w[0],
                            w[1],
                            ForwardPolicy::AllMembers,
                        )
                        .total();
                }
                assert!((sum - r.energy_per_bit).abs() / sum.max(1e-300) < 1e-9);
            }
        }
    }

    #[test]
    fn disconnected_pairs_return_none() {
        // two far-apart islands
        let mut rng = seeded(4);
        let mut nodes = random_deployment(&mut rng, 10, 100.0, 100.0, 10.0);
        let far = random_deployment(&mut rng, 10, 100.0, 100.0, 10.0);
        let base = nodes.len();
        for (i, mut n) in far.into_iter().enumerate() {
            n.id = base + i;
            n.pos.x += 10_000.0;
            nodes.push(n);
        }
        let graph = SuGraph::build(nodes, 60.0);
        let net = CoMimoNet::build(graph, 30.0, 4, SeedOrder::IdOrder, 500.0);
        let model = EnergyModel::paper();
        // find clusters on each island
        let left = net.cluster_of(0).unwrap();
        let right = net.cluster_of(base).unwrap();
        assert!(min_energy_route(
            &net,
            &model,
            1e-3,
            40e3,
            1e4,
            left,
            right,
            ForwardPolicy::AllMembers
        )
        .is_none());
    }
}
