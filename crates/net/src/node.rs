//! Secondary-user nodes.

use comimo_channel::geometry::Point;
use serde::{Deserialize, Serialize};

/// A single-antenna secondary-user node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuNode {
    /// Stable identifier (index into the network's node vector).
    pub id: usize,
    /// Position in the plane (m).
    pub pos: Point,
    /// Remaining battery energy (J). The head election prefers the
    /// highest-battery member, and the paper's head node "retains
    /// information of other elementary nodes such as ID and battery power
    /// level".
    pub battery_j: f64,
    /// Whether the node is operational.
    pub alive: bool,
}

impl SuNode {
    /// A fresh node with the given id, position and initial battery.
    pub fn new(id: usize, pos: Point, battery_j: f64) -> Self {
        assert!(battery_j >= 0.0);
        Self {
            id,
            pos,
            battery_j,
            alive: true,
        }
    }

    /// Euclidean distance to another node.
    pub fn distance_to(&self, other: &SuNode) -> f64 {
        self.pos.distance(other.pos)
    }
}

/// Places `n` nodes uniformly at random in the `[0, w] × [0, h]` rectangle
/// with equal initial batteries — the standard random deployment used by
/// the network-level tests and benches.
pub fn random_deployment(
    rng: &mut impl rand::Rng,
    n: usize,
    w: f64,
    h: f64,
    battery_j: f64,
) -> Vec<SuNode> {
    (0..n)
        .map(|id| {
            let x = rng.gen_range(0.0..w);
            let y = rng.gen_range(0.0..h);
            SuNode::new(id, Point::new(x, y), battery_j)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::seeded;

    #[test]
    fn deployment_bounds_and_ids() {
        let mut rng = seeded(7);
        let nodes = random_deployment(&mut rng, 50, 100.0, 200.0, 5.0);
        assert_eq!(nodes.len(), 50);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id, i);
            assert!(n.pos.x >= 0.0 && n.pos.x <= 100.0);
            assert!(n.pos.y >= 0.0 && n.pos.y <= 200.0);
            assert_eq!(n.battery_j, 5.0);
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let a = SuNode::new(0, Point::new(0.0, 0.0), 1.0);
        let b = SuNode::new(1, Point::new(3.0, 4.0), 1.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_to(&b) - b.distance_to(&a)).abs() < 1e-15);
    }
}
