//! The SU connectivity graph `G = (V, E)`.
//!
//! "For any pair of nodes u and v, the edge (u, v) ∈ E if u and v are in
//! their communication range with each other." (paper, Section 2.1)

use crate::node::SuNode;

/// The unit-disc connectivity graph over a set of SU nodes.
#[derive(Debug, Clone)]
pub struct SuGraph {
    nodes: Vec<SuNode>,
    range: f64,
    adjacency: Vec<Vec<usize>>,
}

impl SuGraph {
    /// Builds the graph for communication range `r` (only alive nodes get
    /// edges).
    pub fn build(nodes: Vec<SuNode>, range: f64) -> Self {
        assert!(range > 0.0, "communication range must be positive");
        let n = nodes.len();
        let mut adjacency = vec![Vec::new(); n];
        for i in 0..n {
            if !nodes[i].alive {
                continue;
            }
            for j in i + 1..n {
                if !nodes[j].alive {
                    continue;
                }
                if nodes[i].distance_to(&nodes[j]) <= range {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                }
            }
        }
        Self {
            nodes,
            range,
            adjacency,
        }
    }

    /// The nodes (including dead ones; dead nodes have no edges).
    pub fn nodes(&self) -> &[SuNode] {
        &self.nodes
    }

    /// Mutable node access (rebuild after structural changes).
    pub fn nodes_mut(&mut self) -> &mut [SuNode] {
        &mut self.nodes
    }

    /// Communication range `r`.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the node set is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Neighbours of node `i`.
    pub fn neighbours(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency[i].len()
    }

    /// Total edge count.
    pub fn n_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Connected components (alive nodes only), each sorted by id.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for start in 0..n {
            if seen[start] || !self.nodes[start].alive {
                continue;
            }
            let mut stack = vec![start];
            let mut comp = Vec::new();
            seen[start] = true;
            while let Some(u) = stack.pop() {
                comp.push(u);
                for &v in &self.adjacency[u] {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_channel::geometry::Point;

    fn line_nodes(spacing: f64, n: usize) -> Vec<SuNode> {
        (0..n)
            .map(|i| SuNode::new(i, Point::new(i as f64 * spacing, 0.0), 1.0))
            .collect()
    }

    #[test]
    fn edges_respect_range() {
        let g = SuGraph::build(line_nodes(10.0, 4), 10.0);
        assert!(g.neighbours(0).contains(&1));
        assert!(!g.neighbours(0).contains(&2));
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn dead_nodes_are_isolated() {
        let mut nodes = line_nodes(10.0, 3);
        nodes[1].alive = false;
        let g = SuGraph::build(nodes, 10.0);
        assert_eq!(g.degree(1), 0);
        assert!(!g.neighbours(0).contains(&1));
        // 0 and 2 are now disconnected
        assert_eq!(g.components().len(), 2);
    }

    #[test]
    fn components_partition_alive_nodes() {
        // two separated pairs
        let nodes = vec![
            SuNode::new(0, Point::new(0.0, 0.0), 1.0),
            SuNode::new(1, Point::new(5.0, 0.0), 1.0),
            SuNode::new(2, Point::new(100.0, 0.0), 1.0),
            SuNode::new(3, Point::new(105.0, 0.0), 1.0),
        ];
        let g = SuGraph::build(nodes, 10.0);
        let comps = g.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }
}
