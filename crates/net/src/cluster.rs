//! Battery-aware head election over an SU graph.
//!
//! "In each cluster there is a special elementary node called the head
//! node", which "retains information of other elementary nodes such as
//! ID and battery power level" (paper, Section 2.1). The head is the
//! alive member with the largest battery, lower id on ties — the rule
//! [`crate::topology::TopologyEngine`] applies to its clusters and
//! [`crate::recruit`] to a recruiting cluster on the SU graph.

use crate::graph::SuGraph;

/// Why a head election failed. Typed so the recruitment path can recover
/// — dissolve the cluster, re-cluster survivors — instead of parsing a
/// message or aborting the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A head election found no alive member to elect.
    NoAliveMember {
        /// The members the election ran over.
        members: Vec<usize>,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoAliveMember { members } => {
                write!(f, "no alive member to elect among {members:?}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The head-election order over `graph`'s nodes: `Greater` when `a` is
/// the better head. Higher battery first, lower id on ties; `total_cmp`
/// lets a NaN battery (corrupt telemetry) order instead of panicking, so
/// the election stays survivable.
pub(crate) fn head_order(graph: &SuGraph, a: usize, b: usize) -> std::cmp::Ordering {
    let (na, nb) = (&graph.nodes()[a], &graph.nodes()[b]);
    na.battery_j.total_cmp(&nb.battery_j).then(b.cmp(&a))
}

/// Elects the head: the alive member with the largest battery, ties broken
/// by the lowest id (battery-aware, per the paper's head-node description).
/// Recoverable form — all-dead membership returns
/// [`ClusterError::NoAliveMember`] so callers can degrade (dissolve the
/// cluster, re-cluster survivors) instead of aborting.
pub fn try_elect_head(graph: &SuGraph, members: &[usize]) -> Result<usize, ClusterError> {
    members
        .iter()
        .filter(|&&m| graph.nodes()[m].alive)
        .max_by(|&&a, &&b| head_order(graph, a, b))
        .copied()
        .ok_or_else(|| ClusterError::NoAliveMember {
            members: members.to_vec(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SuNode;
    use comimo_channel::geometry::Point;

    #[test]
    fn try_elect_head_recovers_from_all_dead() {
        let mut nodes = vec![
            SuNode::new(0, Point::new(0.0, 0.0), 1.0),
            SuNode::new(1, Point::new(1.0, 0.0), 2.0),
        ];
        nodes[0].alive = false;
        nodes[1].alive = false;
        let g = SuGraph::build(nodes, 10.0);
        let err = try_elect_head(&g, &[0, 1]).unwrap_err();
        assert_eq!(
            err,
            ClusterError::NoAliveMember {
                members: vec![0, 1]
            }
        );
        // the error renders a readable message for logs
        assert!(err.to_string().contains("no alive member"));
    }
}
