//! The SU connectivity graph `G = (V, E)`.
//!
//! "For any pair of nodes u and v, the edge (u, v) ∈ E if u and v are in
//! their communication range with each other." (paper, Section 2.1)
//! The recruitment protocol ([`crate::recruit`]) walks it.

use crate::node::SuNode;

/// The unit-disc connectivity graph over a set of SU nodes.
#[derive(Debug, Clone)]
pub struct SuGraph {
    nodes: Vec<SuNode>,
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
        Self { nodes, adjacency }
    }

    /// The nodes (including dead ones; dead nodes have no edges).
    pub fn nodes(&self) -> &[SuNode] {
        &self.nodes
    }

    /// Neighbours of node `i`.
    pub fn neighbours(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
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
        assert_eq!(g.neighbours(0), &[1]);
        assert_eq!(g.neighbours(1), &[0, 2]);
    }

    #[test]
    fn dead_nodes_are_isolated() {
        let mut nodes = line_nodes(10.0, 3);
        nodes[1].alive = false;
        let g = SuGraph::build(nodes, 10.0);
        assert!(g.neighbours(1).is_empty());
        // 0 and 2 lost their only link
        assert!(g.neighbours(0).is_empty() && g.neighbours(2).is_empty());
    }
}
