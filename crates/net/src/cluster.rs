//! d-clustering and head-node election.
//!
//! "A d-clustering of V is a node disjoint division of V, where the
//! distance between two SU nodes in a cluster is up to d (d ≤ r)."
//! (paper, Section 2.1). Clusters therefore must have *pairwise* diameter
//! at most `d`. We grow clusters greedily from seeds taken highest
//! degree first, ties by lower id (DESIGN.md §5).

use crate::graph::SuGraph;
use serde::{Deserialize, Serialize};

/// A cluster: a set of member ids plus its elected head.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Member node ids, sorted.
    pub members: Vec<usize>,
    /// The head node's id. "In each cluster there is a special elementary
    /// node called the head node."
    pub head: usize,
}

impl Cluster {
    /// Number of members (the cluster's antenna count `mt`/`mr`).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether a node belongs to this cluster.
    pub fn contains(&self, id: usize) -> bool {
        self.members.binary_search(&id).is_ok()
    }
}

/// Why a clustering (or a head election) is invalid. Typed so the
/// reconfiguration path can recover — match on the variant and degrade —
/// instead of parsing a message or aborting the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A cluster has no members at all.
    EmptyCluster {
        /// Index of the offending cluster.
        cluster: usize,
    },
    /// A cluster's head is not one of its members.
    HeadNotMember {
        /// Index of the offending cluster.
        cluster: usize,
        /// The stray head id.
        head: usize,
    },
    /// A node appears in more than one cluster (the cover is not disjoint).
    DuplicateMember {
        /// The doubly-assigned node.
        node: usize,
    },
    /// A dead node was clustered.
    DeadMemberClustered {
        /// The dead node.
        node: usize,
    },
    /// Two members of one cluster sit farther apart than the diameter `d`.
    DiameterExceeded {
        /// Index of the offending cluster.
        cluster: usize,
        /// First member of the violating pair.
        a: usize,
        /// Second member of the violating pair.
        b: usize,
        /// Their distance (m).
        dist: f64,
        /// The required diameter bound `d` (m).
        d: f64,
    },
    /// An alive node is covered by no cluster.
    AliveNodeUnclustered {
        /// The uncovered node.
        node: usize,
    },
    /// A head election found no alive member to elect.
    NoAliveMember {
        /// The members the election ran over.
        members: Vec<usize>,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyCluster { cluster } => write!(f, "cluster {cluster} is empty"),
            Self::HeadNotMember { cluster, head } => {
                write!(f, "cluster {cluster}: head {head} not a member")
            }
            Self::DuplicateMember { node } => write!(f, "node {node} in two clusters"),
            Self::DeadMemberClustered { node } => write!(f, "dead node {node} clustered"),
            Self::DiameterExceeded {
                cluster,
                a,
                b,
                dist,
                d,
            } => write!(f, "cluster {cluster}: nodes {a},{b} at {dist} > d={d}"),
            Self::AliveNodeUnclustered { node } => write!(f, "alive node {node} unclustered"),
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

/// Elects the head, panicking when no member is alive — the historical
/// API, kept for construction paths where an alive member is guaranteed.
/// Prefer [`try_elect_head`] anywhere failure is survivable.
pub fn elect_head(graph: &SuGraph, members: &[usize]) -> usize {
    try_elect_head(graph, members).expect("cluster has no alive member")
}

/// Greedy d-clustering: repeatedly seed a new cluster at the
/// highest-degree unassigned node (lower id on ties) and absorb
/// unassigned nodes that are within `d` of **every** current member
/// (pairwise-diameter invariant) and within `max_size` (the paper's
/// cooperative groups have ≤ 4 nodes, matching the OSTBC designs).
///
/// # Panics
/// If `d` exceeds the graph's communication range (`d ≤ r` required) or
/// `max_size == 0`.
pub fn d_clustering(graph: &SuGraph, d: f64, max_size: usize) -> Vec<Cluster> {
    assert!(d > 0.0 && d <= graph.range(), "d must satisfy 0 < d <= r");
    assert!(max_size >= 1);
    let n = graph.len();
    let mut assigned = vec![false; n];
    // dead nodes never join clusters
    for (i, node) in graph.nodes().iter().enumerate() {
        if !node.alive {
            assigned[i] = true;
        }
    }
    let mut seeds: Vec<usize> = (0..n).filter(|&i| !assigned[i]).collect();
    seeds.sort_by_key(|&i| (std::cmp::Reverse(graph.degree(i)), i));
    let mut clusters = Vec::new();
    for &seed in &seeds {
        if assigned[seed] {
            continue;
        }
        assigned[seed] = true;
        let mut members = vec![seed];
        // candidates: neighbours of the seed (anything within d is within r)
        let mut candidates: Vec<usize> = graph
            .neighbours(seed)
            .iter()
            .copied()
            .filter(|&c| !assigned[c])
            .collect();
        candidates.sort_unstable();
        for c in candidates {
            if members.len() >= max_size {
                break;
            }
            if assigned[c] {
                continue;
            }
            let fits = members
                .iter()
                .all(|&m| graph.nodes()[m].distance_to(&graph.nodes()[c]) <= d);
            if fits {
                assigned[c] = true;
                members.push(c);
            }
        }
        members.sort_unstable();
        let head = elect_head(graph, &members);
        clusters.push(Cluster { members, head });
    }
    clusters
}

/// Checks the d-clustering invariants: disjoint cover of alive nodes,
/// pairwise diameter ≤ d, head is a member. Used by tests and the
/// reconfiguration path; violations come back as typed
/// [`ClusterError`] values so recovery code can branch on the cause.
pub fn validate_clustering(
    graph: &SuGraph,
    clusters: &[Cluster],
    d: f64,
) -> Result<(), ClusterError> {
    let mut seen = vec![false; graph.len()];
    for (ci, c) in clusters.iter().enumerate() {
        if c.members.is_empty() {
            return Err(ClusterError::EmptyCluster { cluster: ci });
        }
        if !c.contains(c.head) {
            return Err(ClusterError::HeadNotMember {
                cluster: ci,
                head: c.head,
            });
        }
        for &m in &c.members {
            if seen[m] {
                return Err(ClusterError::DuplicateMember { node: m });
            }
            seen[m] = true;
            if !graph.nodes()[m].alive {
                return Err(ClusterError::DeadMemberClustered { node: m });
            }
        }
        for (i, &a) in c.members.iter().enumerate() {
            for &b in &c.members[i + 1..] {
                let dist = graph.nodes()[a].distance_to(&graph.nodes()[b]);
                if dist > d {
                    return Err(ClusterError::DiameterExceeded {
                        cluster: ci,
                        a,
                        b,
                        dist,
                        d,
                    });
                }
            }
        }
    }
    for (i, node) in graph.nodes().iter().enumerate() {
        if node.alive && !seen[i] {
            return Err(ClusterError::AliveNodeUnclustered { node: i });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{random_deployment, SuNode};
    use comimo_channel::geometry::Point;
    use comimo_math::rng::seeded;

    fn grid_graph() -> SuGraph {
        // a 3x3 grid, 5 m spacing
        let nodes: Vec<SuNode> = (0..9)
            .map(|i| {
                SuNode::new(
                    i,
                    Point::new((i % 3) as f64 * 5.0, (i / 3) as f64 * 5.0),
                    1.0 + i as f64,
                )
            })
            .collect();
        SuGraph::build(nodes, 20.0)
    }

    #[test]
    fn clustering_invariants_hold_on_grid() {
        let g = grid_graph();
        let clusters = d_clustering(&g, 8.0, 4);
        validate_clustering(&g, &clusters, 8.0).expect("valid clustering");
    }

    #[test]
    fn max_size_respected() {
        let g = grid_graph();
        let clusters = d_clustering(&g, 20.0, 2);
        assert!(clusters.iter().all(|c| c.size() <= 2));
        validate_clustering(&g, &clusters, 20.0).unwrap();
    }

    #[test]
    fn head_has_max_battery() {
        let g = grid_graph();
        let clusters = d_clustering(&g, 8.0, 4);
        for c in &clusters {
            let head_batt = g.nodes()[c.head].battery_j;
            for &m in &c.members {
                assert!(g.nodes()[m].battery_j <= head_batt);
            }
        }
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let nodes = vec![
            SuNode::new(0, Point::new(0.0, 0.0), 1.0),
            SuNode::new(1, Point::new(1000.0, 0.0), 1.0),
        ];
        let g = SuGraph::build(nodes, 50.0);
        let clusters = d_clustering(&g, 10.0, 4);
        assert_eq!(clusters.len(), 2);
        assert!(clusters.iter().all(|c| c.size() == 1));
    }

    #[test]
    fn dead_nodes_skipped() {
        let mut nodes = vec![
            SuNode::new(0, Point::new(0.0, 0.0), 1.0),
            SuNode::new(1, Point::new(1.0, 0.0), 1.0),
        ];
        nodes[1].alive = false;
        let g = SuGraph::build(nodes, 50.0);
        let clusters = d_clustering(&g, 10.0, 4);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].members, vec![0]);
    }

    #[test]
    fn random_deployments_always_valid() {
        let mut rng = seeded(2024);
        for trial in 0..10 {
            let nodes = random_deployment(&mut rng, 80, 200.0, 200.0, 10.0);
            let g = SuGraph::build(nodes, 30.0);
            let clusters = d_clustering(&g, 15.0, 4);
            // recoverable validation: a violation is reported as a typed
            // error and asserted, not unwound from deep inside the
            // reconfiguration path
            let verdict = validate_clustering(&g, &clusters, 15.0);
            assert!(verdict.is_ok(), "trial {trial}: {}", verdict.unwrap_err());
        }
    }

    #[test]
    fn validation_errors_are_typed_and_matchable() {
        let g = grid_graph();
        let mut clusters = d_clustering(&g, 8.0, 4);
        // break the head invariant
        let real_head = clusters[0].head;
        clusters[0].head = 999;
        assert_eq!(
            validate_clustering(&g, &clusters, 8.0),
            Err(ClusterError::HeadNotMember {
                cluster: 0,
                head: 999
            })
        );
        clusters[0].head = real_head;
        // break disjointness: clone a member into another cluster
        let stolen = clusters[0].members[0];
        assert!(clusters.len() >= 2, "grid splits into several clusters");
        clusters[1].members.push(stolen);
        clusters[1].members.sort_unstable();
        assert_eq!(
            validate_clustering(&g, &clusters, 8.0),
            Err(ClusterError::DuplicateMember { node: stolen })
        );
        // break the cover: drop a whole cluster
        let clusters = d_clustering(&g, 8.0, 4);
        let dropped = clusters[..clusters.len() - 1].to_vec();
        assert!(matches!(
            validate_clustering(&g, &dropped, 8.0),
            Err(ClusterError::AliveNodeUnclustered { .. })
        ));
        // diameter violations carry the offending pair and distance
        let mut wide = d_clustering(&g, 8.0, 4);
        let merged: Vec<usize> = wide.iter().flat_map(|c| c.members.clone()).collect();
        wide.truncate(1);
        wide[0].members = merged;
        wide[0].members.sort_unstable();
        wide[0].head = wide[0].members[0];
        match validate_clustering(&g, &wide, 8.0) {
            Err(ClusterError::DiameterExceeded { dist, d, .. }) => {
                assert!(dist > d);
            }
            other => panic!("expected DiameterExceeded, got {other:?}"),
        }
    }

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

    #[test]
    #[should_panic]
    fn d_larger_than_range_rejected() {
        let g = grid_graph();
        let _ = d_clustering(&g, 25.0, 4);
    }
}
