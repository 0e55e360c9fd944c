//! The cluster graph `G_MIMO`, per-hop cooperative energy, and routing
//! over a [`TopologyEngine`].
//!
//! "A CoMIMONet can be represented by an undirected graph
//! `G_MIMO = (V_MIMO, E_MIMO)` where `V_MIMO` is the set of the clusters
//! ... an edge (A, B) ∈ E_MIMO if and only if ... there is a cooperative
//! MIMO link defined between A and B" — with a `D`-`mt × mr` link defined
//! "if the largest distance between a node of A and a node of B is up to
//! D". "All head nodes form a spanning tree which is used as a routing
//! backbone" (paper, Section 2.1).
//!
//! The engine maintains the clusters and the backbone (its parent
//! forest); this module prices them. [`hop_energy`] accounts one
//! cooperative hop with Algorithm 2's per-link constellation choice. A
//! tree is cheap to maintain but its unique paths can be
//! energy-suboptimal, so [`min_energy_route`] runs Dijkstra over the
//! *full* cluster graph and [`backbone_vs_optimal`] compares the two
//! policies. The cluster graph is scanned pair by pair on demand —
//! O(K²·m²) for K clusters of m members, fine at paper scale.

use crate::topology::{TopologyEngine, TopologyError};
use comimo_channel::geometry::Point;
use comimo_energy::model::{EnergyModel, LinkParams};
use comimo_energy::optimize::minimize_over_b;

/// Per-hop energy breakdown (joules per information bit, summed over all
/// participating nodes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopEnergy {
    /// Step 1: intra-cluster broadcast at the transmit side.
    pub local_broadcast_j: f64,
    /// Step 2: long-haul cooperative transmission (all `mt` transmitters).
    pub long_haul_tx_j: f64,
    /// Step 2: long-haul reception (all `mr` receivers).
    pub long_haul_rx_j: f64,
    /// Step 3: intra-cluster collection at the receive side. Every one of
    /// the `mr` receivers forwards to the head (the head "forwarding to
    /// itself" models its decode slot; DESIGN.md §5).
    pub local_collect_j: f64,
    /// Constellation size chosen for the long-haul link.
    pub b: u32,
}

impl HopEnergy {
    /// Total energy per bit over every node of the hop.
    pub fn total(&self) -> f64 {
        self.local_broadcast_j + self.long_haul_tx_j + self.long_haul_rx_j + self.local_collect_j
    }
}

/// A priced route between two clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRoute {
    /// Cluster ids, source first.
    pub path: Vec<u32>,
    /// Total energy per bit along the path (J/bit).
    pub energy_per_bit: f64,
}

fn position(engine: &TopologyEngine, node: u32) -> Point {
    let (x, y) = engine.store().pos(node);
    Point::new(x, y)
}

/// Whether clusters `a` and `b` share a cooperative MIMO link — an edge
/// of `G_MIMO`: their largest pairwise member distance is within the
/// long-haul range `D`.
fn linked(engine: &TopologyEngine, a: u32, b: u32) -> Result<bool, TopologyError> {
    let reach = engine.config().long_range_m;
    let far = engine.members(b)?;
    Ok(engine.members(a)?.iter().all(|&u| {
        let pu = position(engine, u);
        far.iter()
            .all(|&v| pu.distance(position(engine, v)) <= reach)
    }))
}

/// Energy per bit of one cooperative hop from cluster `a` to cluster
/// `b` over their head-to-head distance, with the constellation chosen
/// to minimise the hop total (Algorithm 2's per-link optimisation).
pub fn hop_energy(
    engine: &TopologyEngine,
    model: &EnergyModel,
    ber: f64,
    bandwidth_hz: f64,
    block_bits: f64,
    a: u32,
    b: u32,
) -> Result<HopEnergy, TopologyError> {
    let mt = engine.members(a)?.len();
    let mr = engine.members(b)?.len();
    let dist = position(engine, engine.head(a)?).distance(position(engine, engine.head(b)?));
    let d = engine.config().d_m;
    let breakdown = |bits: u32| {
        let p = LinkParams::new(ber, bits, bandwidth_hz, block_bits);
        let local_broadcast_j = if mt > 1 {
            model.e_lt(&p, d) + (mt - 1) as f64 * model.e_lr(&p)
        } else {
            0.0
        };
        let local_collect_j = if mr > 1 {
            mr as f64 * (model.e_lt(&p, d) + model.e_lr(&p))
        } else {
            0.0
        };
        HopEnergy {
            local_broadcast_j,
            long_haul_tx_j: mt as f64 * model.e_mimot(&p, mt.min(4), mr.min(4), dist),
            long_haul_rx_j: mr as f64 * model.e_mimor(&p),
            local_collect_j,
            b: bits,
        }
    };
    let hops: [HopEnergy; 16] = std::array::from_fn(|i| breakdown(i as u32 + 1));
    let choice = minimize_over_b(1, 16, |bits| hops[bits as usize - 1].total());
    Ok(hops[choice.b as usize - 1])
}

/// Total energy per bit along a path of cluster ids.
pub fn route_energy_per_bit(
    engine: &TopologyEngine,
    model: &EnergyModel,
    ber: f64,
    bandwidth_hz: f64,
    block_bits: f64,
    path: &[u32],
) -> Result<f64, TopologyError> {
    path.windows(2)
        .map(|w| Ok(hop_energy(engine, model, ber, bandwidth_hz, block_bits, w[0], w[1])?.total()))
        .sum()
}

/// Dijkstra over the cluster graph with hop energies as weights.
/// `Ok(None)` when the clusters are disconnected.
pub fn min_energy_route(
    engine: &TopologyEngine,
    model: &EnergyModel,
    ber: f64,
    bandwidth_hz: f64,
    block_bits: f64,
    from: u32,
    to: u32,
) -> Result<Option<EnergyRoute>, TopologyError> {
    engine.head(from)?;
    engine.head(to)?;
    if from == to {
        return Ok(Some(EnergyRoute {
            path: vec![from],
            energy_per_bit: 0.0,
        }));
    }
    // Dijkstra with a simple binary heap over (cost, index into `ids`)
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

    let ids: Vec<u32> = engine.iter_clusters().collect();
    let index = |c: u32| ids.binary_search(&c).expect("live clusters are listed");
    let (start, goal) = (index(from), index(to));
    let mut dist = vec![f64::INFINITY; ids.len()];
    let mut prev = vec![usize::MAX; ids.len()];
    let mut heap = BinaryHeap::new();
    dist[start] = 0.0;
    heap.push(Reverse(Entry(0.0, start)));
    while let Some(Reverse(Entry(d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == goal {
            break;
        }
        for v in 0..ids.len() {
            if v == u || !linked(engine, ids[u], ids[v])? {
                continue;
            }
            let w = hop_energy(engine, model, ber, bandwidth_hz, block_bits, ids[u], ids[v])?;
            let nd = d + w.total();
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = u;
                heap.push(Reverse(Entry(nd, v)));
            }
        }
    }
    if !dist[goal].is_finite() {
        return Ok(None);
    }
    let mut path = vec![to];
    let mut cur = goal;
    while cur != start {
        cur = prev[cur];
        path.push(ids[cur]);
    }
    path.reverse();
    Ok(Some(EnergyRoute {
        path,
        energy_per_bit: dist[goal],
    }))
}

/// The backbone route between two clusters: up `from`'s parent chain to
/// the first cluster it shares with `to`'s chain, then down to `to`.
/// `Ok(None)` when the two sit in different trees of the forest. A
/// backbone hop joins two heads within `D`; it is also a `G_MIMO` edge
/// unless the two clusters' farthest members sit more than `D` apart.
pub fn backbone_route(
    engine: &mut TopologyEngine,
    from: u32,
    to: u32,
) -> Result<Option<Vec<u32>>, TopologyError> {
    let up = engine.backbone_path(from)?;
    let down = engine.backbone_path(to)?;
    let meet = up
        .iter()
        .enumerate()
        .find_map(|(i, c)| down.iter().position(|d| d == c).map(|j| (i, j)));
    Ok(meet.map(|(i, j)| {
        let mut path = up[..=i].to_vec();
        path.extend(down[..j].iter().rev());
        path
    }))
}

/// Compares the backbone route against the energy-optimal route for the
/// same endpoints; returns `(backbone_energy, optimal_energy)` per bit,
/// or `Ok(None)` if either policy finds no route.
pub fn backbone_vs_optimal(
    engine: &mut TopologyEngine,
    model: &EnergyModel,
    ber: f64,
    bandwidth_hz: f64,
    block_bits: f64,
    from: u32,
    to: u32,
) -> Result<Option<(f64, f64)>, TopologyError> {
    let Some(backbone) = backbone_route(engine, from, to)? else {
        return Ok(None);
    };
    let bb = route_energy_per_bit(engine, model, ber, bandwidth_hz, block_bits, &backbone)?;
    let opt = min_energy_route(engine, model, ber, bandwidth_hz, block_bits, from, to)?;
    Ok(opt.map(|o| (bb, o.energy_per_bit)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::node::random_deployment;
    use crate::topology::TopologyConfig;
    use comimo_math::rng::seeded;

    /// `n` SUs dropped uniformly on a `side` × `side` field by
    /// [`random_deployment`] and joined in id order, so store id `i` is
    /// node `i`.
    pub(crate) fn deploy(
        seed: u64,
        n: usize,
        side: f64,
        battery_j: f64,
        d_m: f64,
        max_cluster: usize,
        long_range_m: f64,
    ) -> TopologyEngine {
        let mut e = TopologyEngine::new(TopologyConfig {
            width_m: side,
            height_m: side,
            d_m,
            max_cluster,
            long_range_m,
        });
        for node in random_deployment(&mut seeded(seed), n, side, side, battery_j) {
            e.join(node.pos.x, node.pos.y, node.battery_j).unwrap();
        }
        e
    }

    fn net(seed: u64) -> TopologyEngine {
        deploy(seed, 70, 500.0, 25.0, 40.0, 4, 700.0)
    }

    /// Two tight groups of 3, 150 m apart: clusters 0 and 1.
    fn two_cluster_net() -> TopologyEngine {
        let mut e = TopologyEngine::new(TopologyConfig {
            width_m: 200.0,
            height_m: 10.0,
            d_m: 5.0,
            max_cluster: 4,
            long_range_m: 200.0,
        });
        for x0 in [0.0, 150.0] {
            for i in 0..3 {
                e.join(x0 + i as f64 * 2.0, 0.0, 10.0).unwrap();
            }
        }
        assert_eq!(e.clusters_alive(), 2);
        e
    }

    #[test]
    fn trivial_route_is_free() {
        let n = net(1);
        let model = EnergyModel::paper();
        let r = min_energy_route(&n, &model, 1e-3, 40e3, 1e4, 0, 0)
            .unwrap()
            .unwrap();
        assert_eq!(r.path, vec![0]);
        assert_eq!(r.energy_per_bit, 0.0);
        assert!(matches!(
            min_energy_route(&n, &model, 1e-3, 40e3, 1e4, 0, 9999),
            Err(TopologyError::UnknownCluster(9999))
        ));
    }

    #[test]
    fn long_range_gate_uses_max_pairwise() {
        let build = |long_range_m: f64| {
            let mut e = TopologyEngine::new(TopologyConfig {
                width_m: 200.0,
                height_m: 10.0,
                d_m: 5.0,
                max_cluster: 4,
                long_range_m,
            });
            for x in [0.0, 4.0, 100.0, 104.0] {
                e.join(x, 0.0, 10.0).unwrap();
            }
            e
        };
        // farthest pair: node 0 to node 3 = 104 m; heads are 100 m apart
        assert!(linked(&build(104.0), 0, 1).unwrap());
        assert!(!linked(&build(103.0), 0, 1).unwrap());
    }

    #[test]
    fn hop_energy_components_positive() {
        let net = two_cluster_net();
        let model = EnergyModel::paper();
        let hop = hop_energy(&net, &model, 1e-3, 40_000.0, 1e4, 0, 1).unwrap();
        assert!(hop.local_broadcast_j > 0.0);
        assert!(hop.long_haul_tx_j > 0.0);
        assert!(hop.long_haul_rx_j > 0.0);
        assert!(hop.local_collect_j > 0.0);
        assert!((1..=16).contains(&hop.b));
        assert!(hop.total() > 0.0);
    }

    #[test]
    fn route_energy_sums_hops() {
        let net = two_cluster_net();
        let model = EnergyModel::paper();
        let hop = hop_energy(&net, &model, 1e-3, 40_000.0, 1e4, 0, 1)
            .unwrap()
            .total();
        let route = route_energy_per_bit(&net, &model, 1e-3, 40_000.0, 1e4, &[0, 1]).unwrap();
        assert!((route - hop).abs() / hop < 1e-12);
    }

    #[test]
    fn backbone_route_meets_at_the_first_common_cluster() {
        let mut e = TopologyEngine::new(TopologyConfig {
            width_m: 300.0,
            height_m: 300.0,
            d_m: 30.0,
            max_cluster: 8,
            long_range_m: 120.0,
        });
        // a is the root; b hangs off a, c and d off b; e is a root alone
        let [a, b, c, d, e_] = [
            (10.0, 10.0),
            (100.0, 10.0),
            (190.0, 10.0),
            (100.0, 100.0),
            (290.0, 290.0),
        ]
        .map(|(x, y)| e.join(x, y, 1.0).unwrap().cluster);
        assert_eq!(backbone_route(&mut e, c, d).unwrap(), Some(vec![c, b, d]));
        assert_eq!(backbone_route(&mut e, a, c).unwrap(), Some(vec![a, b, c]));
        assert_eq!(backbone_route(&mut e, b, b).unwrap(), Some(vec![b]));
        assert_eq!(backbone_route(&mut e, c, e_).unwrap(), None);
    }

    #[test]
    fn optimal_never_worse_than_backbone() {
        let mut n = net(2);
        let model = EnergyModel::paper();
        let ids: Vec<u32> = n.iter_clusters().take(6).collect();
        let mut compared = 0;
        for &from in &ids {
            for &to in &ids {
                if let Some((bb, opt)) =
                    backbone_vs_optimal(&mut n, &model, 1e-3, 40e3, 1e4, from, to).unwrap()
                {
                    assert!(
                        opt <= bb * (1.0 + 1e-9),
                        "{from}->{to}: optimal {opt:e} worse than backbone {bb:e}"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 4, "too few connected pairs to compare");
        n.validate().unwrap();
    }

    #[test]
    fn optimal_route_is_connected_and_costed() {
        let n = net(3);
        let model = EnergyModel::paper();
        let ids: Vec<u32> = n.iter_clusters().take(8).collect();
        let mut routed = 0;
        for &to in &ids[1..] {
            if let Some(r) = min_energy_route(&n, &model, 1e-3, 40e3, 1e4, ids[0], to).unwrap() {
                assert_eq!(*r.path.first().unwrap(), ids[0]);
                assert_eq!(*r.path.last().unwrap(), to);
                // edges all exist and costs sum up
                for w in r.path.windows(2) {
                    assert!(linked(&n, w[0], w[1]).unwrap());
                }
                let sum = route_energy_per_bit(&n, &model, 1e-3, 40e3, 1e4, &r.path).unwrap();
                assert!((sum - r.energy_per_bit).abs() / sum.max(1e-300) < 1e-9);
                routed += 1;
            }
        }
        assert!(routed > 0);
    }

    #[test]
    fn disconnected_pairs_return_none() {
        // two islands 10 km apart, far beyond D
        let mut e = TopologyEngine::new(TopologyConfig {
            width_m: 10_100.0,
            height_m: 100.0,
            d_m: 30.0,
            max_cluster: 4,
            long_range_m: 500.0,
        });
        let mut rng = seeded(4);
        for dx in [0.0, 10_000.0] {
            for node in random_deployment(&mut rng, 10, 100.0, 100.0, 10.0) {
                e.join(node.pos.x + dx, node.pos.y, 10.0).unwrap();
            }
        }
        let model = EnergyModel::paper();
        let (left, right) = (e.store().cluster_of(0), e.store().cluster_of(10));
        assert!(min_energy_route(&e, &model, 1e-3, 40e3, 1e4, left, right)
            .unwrap()
            .is_none());
        assert!(backbone_route(&mut e, left, right).unwrap().is_none());
    }
}
