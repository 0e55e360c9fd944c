//! The cooperative MIMO network `G_MIMO`, its routing backbone, and
//! route-level energy accounting.
//!
//! "A CoMIMONet can be represented by an undirected graph
//! `G_MIMO = (V_MIMO, E_MIMO)` where `V_MIMO` is the set of the clusters
//! ... an edge (A, B) ∈ E_MIMO if and only if ... there is a cooperative
//! MIMO link defined between A and B" — with a `D`-`mt × mr` link defined
//! "if the largest distance between a node of A and a node of B is up to
//! D". "All head nodes form a spanning tree which is used as a routing
//! backbone ... The clusters and the routing backbone are reconfigurable."
//! (paper, Section 2.1)

use crate::cluster::{d_clustering, elect_head, validate_clustering, Cluster, ClusterError};
use crate::graph::SuGraph;
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

/// The cooperative MIMO network.
#[derive(Debug, Clone)]
pub struct CoMimoNet {
    graph: SuGraph,
    clusters: Vec<Cluster>,
    d: f64,
    max_cluster: usize,
    long_range: f64,
    cluster_adj: Vec<Vec<usize>>,
    backbone_adj: Vec<Vec<usize>>,
}

impl CoMimoNet {
    /// Builds the network: d-clustering, the cluster graph for long-haul
    /// range `long_range` (the paper's `D`), and a Prim spanning-tree
    /// backbone over head distances (one tree per connected component).
    pub fn build(graph: SuGraph, d: f64, max_cluster: usize, long_range: f64) -> Self {
        assert!(long_range > 0.0);
        let clusters = d_clustering(&graph, d, max_cluster);
        let (cluster_adj, backbone_adj) = Self::wire(&graph, &clusters, long_range);
        Self {
            graph,
            clusters,
            d,
            max_cluster,
            long_range,
            cluster_adj,
            backbone_adj,
        }
    }

    fn wire(
        graph: &SuGraph,
        clusters: &[Cluster],
        long_range: f64,
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let k = clusters.len();
        let mut adj = vec![Vec::new(); k];
        for a in 0..k {
            for b in a + 1..k {
                // the largest pairwise node distance must be within D
                let mut max_d = 0.0f64;
                for &u in &clusters[a].members {
                    for &v in &clusters[b].members {
                        max_d = max_d.max(graph.nodes()[u].distance_to(&graph.nodes()[v]));
                    }
                }
                if max_d <= long_range {
                    adj[a].push(b);
                    adj[b].push(a);
                }
            }
        }
        // Prim spanning forest with head-to-head distance weights
        let head_dist = |a: usize, b: usize| {
            graph.nodes()[clusters[a].head].distance_to(&graph.nodes()[clusters[b].head])
        };
        let mut backbone = vec![Vec::new(); k];
        let mut in_tree = vec![false; k];
        for root in 0..k {
            if in_tree[root] {
                continue;
            }
            in_tree[root] = true;
            // frontier of candidate edges from the tree into this component
            loop {
                let mut best: Option<(f64, usize, usize)> = None;
                for a in 0..k {
                    if !in_tree[a] {
                        continue;
                    }
                    for &b in &adj[a] {
                        if in_tree[b] {
                            continue;
                        }
                        let w = head_dist(a, b);
                        if best.is_none_or(|(bw, _, _)| w < bw) {
                            best = Some((w, a, b));
                        }
                    }
                }
                match best {
                    Some((_, a, b)) => {
                        in_tree[b] = true;
                        backbone[a].push(b);
                        backbone[b].push(a);
                    }
                    None => break,
                }
            }
        }
        (adj, backbone)
    }

    /// The underlying SU graph.
    pub fn graph(&self) -> &SuGraph {
        &self.graph
    }

    /// Mutable access to the SU graph — for battery drain during traffic
    /// simulation. Structural changes (positions, deaths) require a
    /// follow-up [`Self::try_kill_node_and_reconfigure`] or rebuild; battery
    /// changes only require [`Self::refresh_head`] where head optimality
    /// matters.
    pub fn graph_mut(&mut self) -> &mut SuGraph {
        &mut self.graph
    }

    /// The clusters (the paper's "cooperative MIMO nodes").
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The long-haul range `D`.
    pub fn long_range(&self) -> f64 {
        self.long_range
    }

    /// Cluster-graph adjacency.
    pub fn cluster_neighbours(&self, c: usize) -> &[usize] {
        &self.cluster_adj[c]
    }

    /// Backbone (spanning forest) adjacency.
    pub fn backbone_neighbours(&self, c: usize) -> &[usize] {
        &self.backbone_adj[c]
    }

    /// Index of the cluster containing a node.
    pub fn cluster_of(&self, node: usize) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(node))
    }

    /// Path between two clusters along the backbone (BFS on tree edges).
    pub fn backbone_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        use std::collections::VecDeque;
        if from == to {
            return Some(vec![from]);
        }
        let k = self.clusters.len();
        let mut prev = vec![usize::MAX; k];
        let mut q = VecDeque::new();
        prev[from] = from;
        q.push_back(from);
        while let Some(u) = q.pop_front() {
            for &v in &self.backbone_adj[u] {
                if prev[v] == usize::MAX {
                    prev[v] = u;
                    if v == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = prev[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }

    /// Energy per bit of one cooperative hop from cluster `a` to cluster
    /// `b`, with the constellation chosen to minimise the hop total
    /// (Algorithm 2's per-link optimisation).
    pub fn hop_energy(
        &self,
        model: &EnergyModel,
        ber: f64,
        bandwidth_hz: f64,
        block_bits: f64,
        a: usize,
        b: usize,
    ) -> HopEnergy {
        let mt = self.clusters[a].size();
        let mr = self.clusters[b].size();
        let dist = self.graph.nodes()[self.clusters[a].head]
            .distance_to(&self.graph.nodes()[self.clusters[b].head]);
        let breakdown = |bits: u32| {
            let p = LinkParams::new(ber, bits, bandwidth_hz, block_bits);
            let local_broadcast_j = if mt > 1 {
                model.e_lt(&p, self.d) + (mt - 1) as f64 * model.e_lr(&p)
            } else {
                0.0
            };
            let local_collect_j = if mr > 1 {
                mr as f64 * (model.e_lt(&p, self.d) + model.e_lr(&p))
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
        hops[choice.b as usize - 1]
    }

    /// Total route energy per bit along a backbone path.
    pub fn route_energy_per_bit(
        &self,
        model: &EnergyModel,
        ber: f64,
        bandwidth_hz: f64,
        block_bits: f64,
        path: &[usize],
    ) -> f64 {
        path.windows(2)
            .map(|w| {
                self.hop_energy(model, ber, bandwidth_hz, block_bits, w[0], w[1])
                    .total()
            })
            .sum()
    }

    /// Kills a node and reconfigures: rebuilds the SU graph, re-clusters,
    /// re-elects heads and rewires the backbone ("The clusters and the
    /// routing backbone are reconfigurable").
    ///
    /// Recoverable form: the rebuilt clustering is re-validated and any
    /// invariant violation comes back as a typed [`ClusterError`], leaving
    /// the network in the rebuilt (post-death) state so the caller can
    /// degrade — retire the deployment, re-cluster with a different `d` —
    /// instead of unwinding mid-simulation.
    pub fn try_kill_node_and_reconfigure(&mut self, node: usize) -> Result<(), ClusterError> {
        assert!(node < self.graph.len());
        let mut nodes = self.graph.nodes().to_vec();
        nodes[node].alive = false;
        nodes[node].battery_j = 0.0;
        let range = self.graph.range();
        self.graph = SuGraph::build(nodes, range);
        self.clusters = d_clustering(&self.graph, self.d, self.max_cluster);
        let (ca, ba) = Self::wire(&self.graph, &self.clusters, self.long_range);
        self.cluster_adj = ca;
        self.backbone_adj = ba;
        validate_clustering(&self.graph, &self.clusters, self.d)
    }

    /// Re-elects the head of a cluster (e.g. after battery drain).
    pub fn refresh_head(&mut self, cluster: usize) {
        let members = self.clusters[cluster].members.clone();
        self.clusters[cluster].head = elect_head(&self.graph, &members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{random_deployment, SuNode};
    use comimo_channel::geometry::Point;
    use comimo_math::rng::seeded;

    fn two_cluster_net() -> CoMimoNet {
        // two tight groups of 3, 150 m apart
        let mut nodes = Vec::new();
        for i in 0..3 {
            nodes.push(SuNode::new(i, Point::new(i as f64 * 2.0, 0.0), 10.0));
        }
        for i in 0..3 {
            nodes.push(SuNode::new(
                3 + i,
                Point::new(150.0 + i as f64 * 2.0, 0.0),
                10.0,
            ));
        }
        let g = SuGraph::build(nodes, 10.0);
        CoMimoNet::build(g, 5.0, 4, 200.0)
    }

    #[test]
    fn clusters_and_link_formed() {
        let net = two_cluster_net();
        assert_eq!(net.clusters().len(), 2);
        assert_eq!(net.clusters()[0].size(), 3);
        assert_eq!(net.cluster_neighbours(0), &[1]);
        assert_eq!(net.backbone_path(0, 1), Some(vec![0, 1]));
    }

    #[test]
    fn long_range_gate_uses_max_pairwise() {
        // same layout but D barely too small for the farthest pair
        let mut nodes = Vec::new();
        for i in 0..2 {
            nodes.push(SuNode::new(i, Point::new(i as f64 * 4.0, 0.0), 10.0));
        }
        nodes.push(SuNode::new(2, Point::new(100.0, 0.0), 10.0));
        nodes.push(SuNode::new(3, Point::new(104.0, 0.0), 10.0));
        let g = SuGraph::build(nodes, 10.0);
        // farthest pair: node0 to node3 = 104 m
        let linked = CoMimoNet::build(g.clone(), 5.0, 4, 104.0);
        assert_eq!(linked.cluster_neighbours(0), &[1]);
        let unlinked = CoMimoNet::build(g, 5.0, 4, 103.0);
        assert!(unlinked.cluster_neighbours(0).is_empty());
    }

    #[test]
    fn backbone_is_spanning_forest() {
        let mut rng = seeded(41);
        let nodes = random_deployment(&mut rng, 60, 300.0, 300.0, 10.0);
        let g = SuGraph::build(nodes, 40.0);
        let net = CoMimoNet::build(g, 20.0, 4, 400.0);
        let k = net.clusters().len();
        // forest: edges = vertices - components; and acyclic (BFS tree check)
        let edges: usize = (0..k)
            .map(|c| net.backbone_neighbours(c).len())
            .sum::<usize>()
            / 2;
        // count components of the cluster graph
        let mut seen = vec![false; k];
        let mut comps = 0;
        for s in 0..k {
            if seen[s] {
                continue;
            }
            comps += 1;
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(u) = stack.pop() {
                for &v in net.cluster_neighbours(u) {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        assert_eq!(edges, k - comps, "spanning forest edge count");
        // every cluster-graph-connected pair is backbone-connected
        for a in 0..k.min(10) {
            for b in 0..k.min(10) {
                let cg = {
                    // BFS on the cluster graph
                    let mut seen = vec![false; k];
                    let mut stack = vec![a];
                    seen[a] = true;
                    while let Some(u) = stack.pop() {
                        for &v in net.cluster_neighbours(u) {
                            if !seen[v] {
                                seen[v] = true;
                                stack.push(v);
                            }
                        }
                    }
                    seen[b]
                };
                assert_eq!(cg, net.backbone_path(a, b).is_some(), "pair {a},{b}");
            }
        }
    }

    #[test]
    fn hop_energy_components_positive() {
        let net = two_cluster_net();
        let model = EnergyModel::paper();
        let hop = net.hop_energy(&model, 1e-3, 40_000.0, 1e4, 0, 1);
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
        let hop = net.hop_energy(&model, 1e-3, 40_000.0, 1e4, 0, 1).total();
        let route = net.route_energy_per_bit(&model, 1e-3, 40_000.0, 1e4, &[0, 1]);
        assert!((route - hop).abs() / hop < 1e-12);
    }

    #[test]
    fn reconfiguration_after_node_death() {
        let mut net = two_cluster_net();
        let head0 = net.clusters()[0].head;
        net.try_kill_node_and_reconfigure(head0).unwrap();
        // invariants hold after reconfiguration
        crate::cluster::validate_clustering(net.graph(), net.clusters(), 5.0).unwrap();
        // the dead node is gone from every cluster
        assert!(net.clusters().iter().all(|c| !c.contains(head0)));
        // the two sides can still talk
        let c0 = net.cluster_of(0).or(net.cluster_of(1)).unwrap();
        let c1 = net.cluster_of(3).unwrap();
        assert!(net.backbone_path(c0, c1).is_some());
    }

    #[test]
    fn refresh_head_tracks_battery() {
        let mut net = two_cluster_net();
        let c0_members = net.clusters()[0].members.clone();
        // drain the current head below everyone else
        let head = net.clusters()[0].head;
        net.graph.nodes_mut()[head].battery_j = 0.1;
        net.refresh_head(0);
        let new_head = net.clusters()[0].head;
        assert_ne!(new_head, head);
        assert!(c0_members.contains(&new_head));
    }
}
