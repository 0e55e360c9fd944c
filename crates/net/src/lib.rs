//! # comimo-net
//!
//! The **CoMIMONet** substrate of the paper's Section 2.1 (detailed in its
//! reference \[9\], Chen–Miao–Hong): a network of single-antenna secondary
//! users organised so that clusters act as virtual MIMO terminals.
//!
//! * `G = (V, E)`: SU nodes with an edge when within communication range
//!   `r` — [`graph::SuGraph`], the graph the recruitment protocol walks;
//! * the **topology engine** ([`topology`]): d-clusters (any two members
//!   within `d`, at most `max_cluster` of them) formed by joins in arrival
//!   order, battery-aware heads that rotate as batteries drain, and a
//!   backbone over the heads — a parent forest in which every cluster
//!   points at the nearest older head within the long-haul range `D` —
//!   all repaired locally as nodes die. An SoA node store ([`store`]) and
//!   a uniform spatial hash grid with cell size tied to `d` ([`grid`])
//!   let joins, deaths and PU arrivals touch only the affected cells, up
//!   to a million SUs;
//! * `G_MIMO`: the cluster graph with a `D`-`mt × mr` cooperative MIMO
//!   link between clusters whose largest pairwise node distance is at
//!   most `D`, per-hop energy accounting with the `comimo-energy` model,
//!   and minimum-energy routing (Dijkstra) against the backbone policy —
//!   [`routing`];
//! * battery-aware head election over an SU graph and the recruitment
//!   protocol that grows a cluster by backoff contention — [`cluster`],
//!   [`recruit`];
//! * network-lifetime simulation with battery drain and reconfiguration
//!   — [`lifetime`];
//! * fault-tolerant sensing-report collection at the cluster head, with
//!   timeout, bounded-backoff retry and loss/stale/duplicate handling —
//!   [`report`].

pub mod cluster;
pub mod graph;
pub mod grid;
pub mod lifetime;
pub mod node;
pub mod recruit;
pub mod report;
pub mod routing;
pub mod store;
pub mod topology;

pub use cluster::{try_elect_head, ClusterError};
pub use graph::SuGraph;
pub use grid::{GridEntry, SpatialGrid};
pub use lifetime::{run_lifetime, LifetimeConfig, LifetimeError, LifetimeResult};
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
