//! # comimo-net
//!
//! The **CoMIMONet** substrate of the paper's Section 2.1 (detailed in its
//! reference \[9\], Chen–Miao–Hong): a network of single-antenna secondary
//! users organised so that clusters act as virtual MIMO terminals.
//!
//! * `G = (V, E)`: SU nodes with an edge when within communication range
//!   `r` — [`graph::SuGraph`];
//! * **d-clustering**: a node-disjoint division where any two nodes of a
//!   cluster are within `d ≤ r` of each other — [`cluster`];
//! * **head nodes**: one per cluster, battery-aware election, holding the
//!   member roster — [`cluster::Cluster`];
//! * `G_MIMO`: the cluster graph with a `D`-`mt × mr` cooperative MIMO link
//!   between clusters whose largest pairwise node distance is at most `D`
//!   — [`comimonet::CoMimoNet`];
//! * a **spanning-tree routing backbone** over the head nodes, used for
//!   multi-hop data relay, with reconfiguration on node failure —
//!   [`comimonet`];
//! * **CSMA/CA** at the link layer, simulated on the `comimo-sim`
//!   discrete-event engine — [`mac`];
//! * route-level energy accounting with the `comimo-energy` model —
//!   [`comimonet::CoMimoNet::route_energy_per_bit`];
//! * minimum-energy routing over the full cluster graph (Dijkstra), for
//!   comparison against the backbone policy — [`routing`];
//! * network-lifetime simulation with battery drain and reconfiguration
//!   — [`lifetime`];
//! * fault-tolerant sensing-report collection at the cluster head, with
//!   timeout, bounded-backoff retry and loss/stale/duplicate handling —
//!   [`report`];
//! * the **million-SU engine**: an SoA node store ([`store`]), a uniform
//!   spatial hash-grid index with cell size tied to the d-clustering
//!   radius ([`grid`]), and an incremental topology engine where joins,
//!   deaths and PU arrivals touch only the affected cells —
//!   [`topology`].

pub mod cluster;
pub mod comimonet;
pub mod graph;
pub mod grid;
pub mod lifetime;
pub mod mac;
pub mod node;
pub mod recruit;
pub mod report;
pub mod routing;
pub mod store;
pub mod topology;

pub use cluster::{d_clustering, try_elect_head, Cluster, ClusterError};
pub use comimonet::CoMimoNet;
pub use graph::SuGraph;
pub use grid::{GridEntry, SpatialGrid};
pub use lifetime::{run_lifetime, try_run_lifetime, LifetimeConfig, LifetimeError, LifetimeResult};
pub use node::SuNode;
pub use recruit::{
    backoff_delay, run_recruitment, run_recruitment_excluding, RecruitConfig, RecruitOutcome,
};
pub use report::{try_collect_reports, ReportConfig, ReportError, ReportOutcome, Reporter};
pub use routing::{min_energy_route, EnergyRoute};
pub use store::{NodeStore, StoreError, NO_CLUSTER};
pub use topology::{
    DeathImpact, JoinOutcome, TopoStats, TopologyConfig, TopologyEngine, TopologyError,
};
