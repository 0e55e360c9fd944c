//! The CoMIMONet topology engine.
//!
//! One model of the paper's Section 2.1 network, from a 60-SU lifetime
//! study to a million secondary users: d-clusters with battery-aware
//! heads and a reconfigurable backbone over the heads, all maintained
//! incrementally. An SoA [`NodeStore`] plus a [`SpatialGrid`] whose
//! cell equals the clustering diameter `d` lets every churn operation
//! touch only the affected cells:
//!
//! * **join** — enter the lowest-id cluster the newcomer fits (size
//!   below max, bounding-box quick-accept, member scan only on the
//!   boundary). Every member of such a cluster lies within d, head
//!   included, so the candidates are the heads within d in the head
//!   index (about six at 1M density). Else found a new singleton cluster
//!   and resolve its backbone parent from the head index within `D`:
//!   O(heads within d + boundary members). Each cluster keeps its
//!   members' positions index-aligned with its roster, so a member scan
//!   (about 2.2 per join at 1M density) reads one contiguous array, not
//!   the store.
//! * **death** — remove the node from its cluster, re-elect the head if
//!   it died (battery-max, lower id on ties — the same rule as
//!   [`crate::cluster::try_elect_head`]), retire emptied clusters, and
//!   recruit the nearest fitting node within d of the head from an
//!   adjacent donor when the cluster falls below quorum. The bounding box
//!   is always its members' exact box, so a leaver strictly inside it
//!   leaves it as it is and only one on its edge rescans the cached
//!   positions (about one death in eleven at 1M density): O(1) for an
//!   interior non-head leaver, else O(cluster + neighbours within d).
//!   A caller that picks the victim with [`TopologyEngine::nearest_node`]
//!   reads about 1.2 grid cells (~150 entries) at 1M density.
//! * **drain** — spend battery; a head that falls below a member hands
//!   the cluster to the best one, so heads stay battery-maximal while
//!   traffic runs ([`crate::lifetime`]): O(cluster) for a head, O(1)
//!   otherwise.
//! * **PU arrival** — collect the clusters whose head sits inside the
//!   primary's footprint from the head index: O(affected).
//!
//! Routing is a parent-pointer forest over cluster heads: every cluster
//! points at the nearest older cluster head within the long-haul range
//! `D`. Creation stamps strictly decrease along parent chains, so the
//! forest is acyclic **by construction** — no global spanning-tree pass
//! ever runs, and a dead parent is re-resolved lazily on next access.
//!
//! Determinism: no hash-ordered iteration anywhere — a join takes the
//! lowest fitting cluster id, ties break on `(distance², id)` — so a
//! replay of the same op sequence reproduces the same topology bit for
//! bit at any thread count.

use crate::grid::SpatialGrid;
use crate::store::{NodeStore, StoreError, NO_CLUSTER};

/// A cluster falling below this many members tries to recruit from an
/// adjacent donor cluster on the next death it suffers.
pub const RECRUIT_QUORUM: usize = 2;

/// Geometry and clustering parameters of the engine.
#[derive(Debug, Clone, Copy)]
pub struct TopologyConfig {
    /// Field width in metres.
    pub width_m: f64,
    /// Field height in metres.
    pub height_m: f64,
    /// d-clustering diameter bound (and grid cell size), metres.
    pub d_m: f64,
    /// Maximum cluster size.
    pub max_cluster: usize,
    /// Long-haul (cluster-to-cluster) reach `D` for the backbone, metres.
    pub long_range_m: f64,
}

impl TopologyConfig {
    fn validate(&self) {
        assert!(
            self.width_m > 0.0 && self.height_m > 0.0,
            "field must have positive extent"
        );
        assert!(self.d_m > 0.0 && self.d_m.is_finite(), "d must be positive");
        assert!(self.max_cluster >= 1, "clusters hold at least one node");
        assert!(
            self.long_range_m > 0.0 && self.long_range_m.is_finite(),
            "long-haul range must be positive"
        );
    }
}

/// Typed error for engine operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyError {
    /// Underlying store rejected the node id.
    Store(StoreError),
    /// Join position outside the configured field.
    OutOfField {
        /// Offending x coordinate.
        x: f64,
        /// Offending y coordinate.
        y: f64,
    },
    /// The cluster id names no live cluster.
    UnknownCluster(u32),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Store(e) => write!(f, "{e}"),
            TopologyError::OutOfField { x, y } => {
                write!(f, "position ({x}, {y}) outside the field")
            }
            TopologyError::UnknownCluster(c) => write!(f, "unknown cluster id {c}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<StoreError> for TopologyError {
    fn from(e: StoreError) -> Self {
        TopologyError::Store(e)
    }
}

/// One slab slot of the cluster table.
#[derive(Debug, Clone)]
struct TopoCluster {
    alive: bool,
    /// Member node ids, sorted ascending.
    members: Vec<u32>,
    /// Member positions, index-aligned with `members`: the diameter
    /// checks and box rescans read this one array instead of the store.
    pos: Vec<(f64, f64)>,
    head: u32,
    /// Creation stamp; parent chains have strictly decreasing stamps.
    stamp: u64,
    /// Cached backbone parent as `(cluster id, its stamp at resolve
    /// time)`; the stamp guards against slab-slot reuse (ABA), and a
    /// stale cache is re-resolved lazily on next access.
    parent: Option<(u32, u64)>,
    /// Axis-aligned bounding box of the members, for O(1) join accepts.
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    /// Times a primary-user arrival has muted this cluster.
    pu_hits: u64,
}

impl TopoCluster {
    /// Inserts `node` at `p` into the sorted roster and grows the box.
    fn admit(&mut self, node: u32, p: (f64, f64)) {
        let at = self.members.binary_search(&node).unwrap_err();
        self.members.insert(at, node);
        self.pos.insert(at, p);
        self.min_x = self.min_x.min(p.0);
        self.min_y = self.min_y.min(p.1);
        self.max_x = self.max_x.max(p.0);
        self.max_y = self.max_y.max(p.1);
    }

    /// Removes the member at roster index `at` and returns whether the
    /// box needs a rescan. The box is always tight, so a leaver strictly
    /// inside it on both axes attains none of its sides and leaves it as
    /// it is.
    fn remove_at(&mut self, at: usize) -> bool {
        self.members.remove(at);
        let (x, y) = self.pos.remove(at);
        !(self.min_x < x && x < self.max_x && self.min_y < y && y < self.max_y)
    }
}

/// What a [`TopologyEngine::join`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinOutcome {
    /// Id of the new node.
    pub node: u32,
    /// Cluster it landed in.
    pub cluster: u32,
    /// Whether a new cluster was founded for it.
    pub founded: bool,
    /// Whether the newcomer took over as head.
    pub became_head: bool,
}

/// What a [`TopologyEngine::death`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeathImpact {
    /// Cluster the node belonged to.
    pub cluster: u32,
    /// Whether the cluster emptied and was retired.
    pub retired: bool,
    /// Whether the head had to be re-elected.
    pub head_changed: bool,
    /// Node recruited from a donor cluster, when quorum repair fired.
    pub recruited: Option<u32>,
}

/// Monotonic operation counters, for `netperf` and the validity tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoStats {
    /// Successful joins.
    pub joins: u64,
    /// Successful deaths.
    pub deaths: u64,
    /// PU arrivals processed.
    pub pu_arrivals: u64,
    /// Clusters founded.
    pub clusters_founded: u64,
    /// Clusters retired (emptied by deaths).
    pub clusters_retired: u64,
    /// Head re-elections forced by a head death, a head recruited
    /// away, or a head drained below a member.
    pub head_reelections: u64,
    /// Members recruited across clusters by quorum repair.
    pub recruits: u64,
    /// Lazy backbone-parent re-resolutions.
    pub parent_refreshes: u64,
    /// Diameter checks the bounding box could not settle, each a scan
    /// of the cluster's member positions.
    pub member_scans: u64,
    /// Bounding-box rescans after a member left from the box's edge.
    pub bbox_rescans: u64,
}

/// The engine: SoA store + spatial index + incremental cluster slab.
/// `Clone` is cheap relative to a rebuild (flat array copies), which is
/// what lets `netperf` re-run churn from an identical snapshot.
#[derive(Debug, Clone)]
pub struct TopologyEngine {
    cfg: TopologyConfig,
    store: NodeStore,
    /// All alive nodes, cell size `d`.
    grid: SpatialGrid,
    /// One entry per live cluster (id = cluster id) at its head position,
    /// cell size `D`.
    heads: SpatialGrid,
    clusters: Vec<TopoCluster>,
    free_clusters: Vec<u32>,
    next_stamp: u64,
    stats: TopoStats,
    alive_clusters: usize,
}

impl TopologyEngine {
    /// An empty engine over the configured field.
    pub fn new(cfg: TopologyConfig) -> Self {
        cfg.validate();
        Self {
            grid: SpatialGrid::new(cfg.width_m, cfg.height_m, cfg.d_m),
            heads: SpatialGrid::new(cfg.width_m, cfg.height_m, cfg.long_range_m),
            cfg,
            store: NodeStore::new(),
            clusters: Vec::new(),
            free_clusters: Vec::new(),
            next_stamp: 0,
            stats: TopoStats::default(),
            alive_clusters: 0,
        }
    }

    /// Same, pre-allocating for `nodes` nodes and `clusters` clusters.
    pub fn with_capacity(cfg: TopologyConfig, nodes: usize, clusters: usize) -> Self {
        let mut e = Self::new(cfg);
        e.store = NodeStore::with_capacity(nodes);
        e.clusters = Vec::with_capacity(clusters);
        e
    }

    /// The configuration.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Alive node count.
    pub fn nodes_alive(&self) -> usize {
        self.store.alive_count()
    }

    /// Live cluster count.
    pub fn clusters_alive(&self) -> usize {
        self.alive_clusters
    }

    /// Operation counters.
    pub fn stats(&self) -> TopoStats {
        self.stats
    }

    /// Read access to the node store.
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// Nearest alive node to `(x, y)` with its squared distance —
    /// deterministic `(distance², id)` tie-break, O(cells inspected)
    /// through the spatial grid. `None` on an empty deployment.
    pub fn nearest_node(&self, x: f64, y: f64) -> Option<(u32, f64)> {
        self.grid.nearest_matching(x, y, f64::INFINITY, |_| true)
    }

    /// Members of cluster `c`, sorted ascending.
    pub fn members(&self, c: u32) -> Result<&[u32], TopologyError> {
        let cl = self.live_cluster(c)?;
        Ok(&cl.members)
    }

    /// Head node of cluster `c`.
    pub fn head(&self, c: u32) -> Result<u32, TopologyError> {
        Ok(self.live_cluster(c)?.head)
    }

    /// Times `c` has been inside a PU footprint.
    pub fn pu_hits(&self, c: u32) -> Result<u64, TopologyError> {
        Ok(self.live_cluster(c)?.pu_hits)
    }

    /// Ids of all live clusters, ascending.
    pub fn iter_clusters(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.clusters.len() as u32).filter(move |&c| self.clusters[c as usize].alive)
    }

    fn live_cluster(&self, c: u32) -> Result<&TopoCluster, TopologyError> {
        self.clusters
            .get(c as usize)
            .filter(|cl| cl.alive)
            .ok_or(TopologyError::UnknownCluster(c))
    }

    /// `a` beats `b` as head: higher battery, lower id on exact ties.
    fn better_head(&self, a: u32, b: u32) -> bool {
        match self.store.battery_j(a).total_cmp(&self.store.battery_j(b)) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => a < b,
        }
    }

    /// Battery-maximal member (lower id on ties) of a non-empty roster.
    fn best_of(&self, members: &[u32]) -> u32 {
        let mut best = members[0];
        for &m in &members[1..] {
            if self.better_head(m, best) {
                best = m;
            }
        }
        best
    }

    /// Whether `(x, y)` is within `d` of every member of `c` — bounding
    /// box quick-accept first, member scan (counted in `scans`) only when
    /// the box straddles the d-ball boundary.
    fn fits_cluster(&self, c: &TopoCluster, x: f64, y: f64, scans: &mut u64) -> bool {
        let d2 = self.cfg.d_m * self.cfg.d_m;
        // farthest bbox corner from (x, y): per-axis max distance
        let fx = (x - c.min_x).abs().max((x - c.max_x).abs());
        let fy = (y - c.min_y).abs().max((y - c.max_y).abs());
        if fx * fx + fy * fy <= d2 {
            return true; // whole box inside the ball ⇒ every member is
        }
        *scans += 1;
        c.pos.iter().all(|&(mx, my)| {
            let (dx, dy) = (mx - x, my - y);
            dx * dx + dy * dy <= d2
        })
    }

    /// Nearest live cluster head within `D` of `(x, y)` that is strictly
    /// older than `stamp`, by `(distance², cluster id)`.
    fn resolve_parent(&self, x: f64, y: f64, stamp: u64) -> Option<u32> {
        self.heads
            .nearest_matching(x, y, self.cfg.long_range_m, |c| {
                let cl = &self.clusters[c as usize];
                cl.alive && cl.stamp < stamp
            })
            .map(|(c, _)| c)
    }

    /// A node joins the network at `(x, y)` with a full battery of
    /// `battery_j`. It enters the lowest-id adjacent cluster it fits
    /// (diameter ≤ d, size < max), else founds a new cluster whose
    /// backbone parent is the nearest older head within `D`.
    pub fn join(&mut self, x: f64, y: f64, battery_j: f64) -> Result<JoinOutcome, TopologyError> {
        if !self.grid.contains_point(x, y) {
            return Err(TopologyError::OutOfField { x, y });
        }
        let node = self.store.insert(x, y, battery_j);
        self.grid.insert(node, x, y);
        self.stats.joins += 1;

        // every member of a cluster the newcomer fits lies within d of
        // it, head included, and the head index holds each head's exact
        // position under the same squared-distance test: the clusters
        // whose heads lie within d include every fitting one, and the
        // lowest fitting id wins whatever order the index visits them in
        let mut landed: Option<u32> = None;
        let mut scans = 0;
        self.heads.for_each_within(x, y, self.cfg.d_m, |e| {
            let cl = &self.clusters[e.id as usize];
            if landed.is_none_or(|l| e.id < l)
                && cl.members.len() < self.cfg.max_cluster
                && self.fits_cluster(cl, x, y, &mut scans)
            {
                landed = Some(e.id);
            }
        });
        self.stats.member_scans += scans;

        if let Some(c) = landed {
            let old_head = self.clusters[c as usize].head;
            let became_head = self.better_head(node, old_head);
            self.clusters[c as usize].admit(node, (x, y));
            self.store.set_cluster(node, c);
            if became_head {
                self.clusters[c as usize].head = node;
                let (ox, oy) = self.store.pos(old_head);
                self.heads.relocate(c, ox, oy, x, y);
            }
            return Ok(JoinOutcome {
                node,
                cluster: c,
                founded: false,
                became_head,
            });
        }

        // found a new singleton cluster
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let parent = self
            .resolve_parent(x, y, stamp)
            .map(|p| (p, self.clusters[p as usize].stamp));
        // a retired slot hands its (empty) roster buffers on
        let (c, mut members, mut pos) = match self.free_clusters.pop() {
            Some(c) => {
                let old = &mut self.clusters[c as usize];
                (
                    c,
                    std::mem::take(&mut old.members),
                    std::mem::take(&mut old.pos),
                )
            }
            None => {
                let c = u32::try_from(self.clusters.len()).expect("cluster slab full");
                (c, Vec::new(), Vec::new())
            }
        };
        members.push(node);
        pos.push((x, y));
        let slot = TopoCluster {
            alive: true,
            members,
            pos,
            head: node,
            stamp,
            parent,
            min_x: x,
            min_y: y,
            max_x: x,
            max_y: y,
            pu_hits: 0,
        };
        match self.clusters.get_mut(c as usize) {
            Some(old) => *old = slot,
            None => self.clusters.push(slot),
        }
        self.store.set_cluster(node, c);
        self.heads.insert(c, x, y);
        self.alive_clusters += 1;
        self.stats.clusters_founded += 1;
        Ok(JoinOutcome {
            node,
            cluster: c,
            founded: true,
            became_head: true,
        })
    }

    fn recompute_bbox(&mut self, c: u32) {
        let cl = &mut self.clusters[c as usize];
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &cl.pos {
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        self.stats.bbox_rescans += 1;
        cl.min_x = min_x;
        cl.min_y = min_y;
        cl.max_x = max_x;
        cl.max_y = max_y;
    }

    /// Removes a dead or departing member from its cluster's roster and
    /// repairs the head/bbox/head-index. The node must already be marked
    /// dead in the store. Returns whether the head changed.
    fn excise(&mut self, c: u32, node: u32, node_pos: (f64, f64)) -> bool {
        let cl = &mut self.clusters[c as usize];
        let at = cl
            .members
            .binary_search(&node)
            .unwrap_or_else(|_| panic!("node {node} not in cluster {c}"));
        let rescan = cl.remove_at(at);
        if cl.members.is_empty() {
            cl.alive = false;
            self.heads.remove(c, node_pos.0, node_pos.1);
            self.free_clusters.push(c);
            self.alive_clusters -= 1;
            self.stats.clusters_retired += 1;
            return false;
        }
        let was_head = cl.head == node;
        if rescan {
            self.recompute_bbox(c);
        }
        if was_head {
            let best = self.best_of(&self.clusters[c as usize].members);
            self.clusters[c as usize].head = best;
            let (nx, ny) = self.store.pos(best);
            self.heads.relocate(c, node_pos.0, node_pos.1, nx, ny);
            self.stats.head_reelections += 1;
        }
        was_head
    }

    /// A node dies. Its cluster shrinks; the head is re-elected if it was
    /// the victim; an emptied cluster retires; a cluster left below
    /// [`RECRUIT_QUORUM`] recruits the nearest fitting member of an
    /// adjacent donor cluster (donor must stay at quorum itself).
    pub fn death(&mut self, node: u32) -> Result<DeathImpact, TopologyError> {
        if !self.store.is_alive(node) {
            return Err(self
                .store
                .try_pos(node)
                .err()
                .map(TopologyError::Store)
                .unwrap_or(TopologyError::Store(StoreError::DeadNode(node))));
        }
        let c = self.store.cluster_of(node);
        debug_assert_ne!(c, NO_CLUSTER, "alive nodes are always clustered");
        let pos = self.store.pos(node);
        self.store.kill(node);
        self.grid.remove(node, pos.0, pos.1);
        self.store.set_cluster(node, NO_CLUSTER);
        self.stats.deaths += 1;

        let head_changed = self.excise(c, node, pos);
        let retired = !self.clusters[c as usize].alive;
        if retired {
            self.store.release(node);
            return Ok(DeathImpact {
                cluster: c,
                retired,
                head_changed: false,
                recruited: None,
            });
        }
        self.store.release(node);

        // quorum repair: pull the nearest adjacent node whose donor
        // cluster can spare it and who fits our diameter bound
        let mut recruited = None;
        if self.clusters[c as usize].members.len() < RECRUIT_QUORUM {
            let head = self.clusters[c as usize].head;
            let (hx, hy) = self.store.pos(head);
            let mut scans = 0;
            let cand = self.grid.nearest_matching(hx, hy, self.cfg.d_m, |n| {
                let nc = self.store.cluster_of(n);
                if nc == c {
                    return false;
                }
                let donor = &self.clusters[nc as usize];
                let (px, py) = self.store.pos(n);
                donor.members.len() > RECRUIT_QUORUM
                    && self.fits_cluster(&self.clusters[c as usize], px, py, &mut scans)
            });
            self.stats.member_scans += scans;
            if let Some((n, _)) = cand {
                let donor = self.store.cluster_of(n);
                let npos = self.store.pos(n);
                // leave the donor (same path as a death, minus the kill)
                let donor_cl = &mut self.clusters[donor as usize];
                let at = donor_cl.members.binary_search(&n).expect("donor roster");
                let rescan = donor_cl.remove_at(at);
                if donor_cl.head == n {
                    let best = self.best_of(&self.clusters[donor as usize].members);
                    self.clusters[donor as usize].head = best;
                    let (bx, by) = self.store.pos(best);
                    self.heads.relocate(donor, npos.0, npos.1, bx, by);
                    self.stats.head_reelections += 1;
                }
                if rescan {
                    self.recompute_bbox(donor);
                }
                // join us
                self.clusters[c as usize].admit(n, npos);
                self.store.set_cluster(n, c);
                if self.better_head(n, self.clusters[c as usize].head) {
                    let old = self.clusters[c as usize].head;
                    let (ox, oy) = self.store.pos(old);
                    self.clusters[c as usize].head = n;
                    self.heads.relocate(c, ox, oy, npos.0, npos.1);
                }
                self.stats.recruits += 1;
                recruited = Some(n);
            }
        }

        Ok(DeathImpact {
            cluster: c,
            retired,
            head_changed,
            recruited,
        })
    }

    /// Drains `joules` from `node`'s battery (clamped at zero) and
    /// returns what is left. A head that is no longer battery-maximal
    /// hands its cluster to the best member (higher battery, lower id on
    /// ties), counted in [`TopoStats::head_reelections`]; any other
    /// member only falls further behind its head. The node stays alive
    /// at zero: retiring it is the caller's [`Self::death`].
    ///
    /// # Panics
    /// If `joules` is negative or NaN.
    pub fn drain(&mut self, node: u32, joules: f64) -> Result<f64, TopologyError> {
        assert!(joules >= 0.0, "cannot drain {joules} J");
        if !self.store.is_alive(node) {
            self.store.try_pos(node)?;
            return Err(TopologyError::Store(StoreError::DeadNode(node)));
        }
        let left = self.store.drain(node, joules);
        let c = self.store.cluster_of(node);
        let cl = &self.clusters[c as usize];
        if cl.head == node {
            let best = self.best_of(&cl.members);
            if best != node {
                self.clusters[c as usize].head = best;
                let (ox, oy) = self.store.pos(node);
                let (nx, ny) = self.store.pos(best);
                self.heads.relocate(c, ox, oy, nx, ny);
                self.stats.head_reelections += 1;
            }
        }
        Ok(left)
    }

    /// A primary user appears at `(x, y)` with protection radius
    /// `radius`: returns the ids (ascending) of the clusters whose head
    /// sits inside the footprint, each of which records the mute.
    pub fn pu_arrival(&mut self, x: f64, y: f64, radius: f64) -> Vec<u32> {
        let mut hit = Vec::new();
        self.heads.for_each_within(x, y, radius, |e| hit.push(e.id));
        hit.sort_unstable();
        for &c in &hit {
            self.clusters[c as usize].pu_hits += 1;
        }
        self.stats.pu_arrivals += 1;
        hit
    }

    /// Backbone parent of cluster `c`, lazily re-resolved when the cached
    /// parent has retired (stamp mismatch catches slab-slot reuse).
    /// `None` for forest roots.
    pub fn backbone_parent(&mut self, c: u32) -> Result<Option<u32>, TopologyError> {
        let cl = self.live_cluster(c)?;
        let (stamp, head) = (cl.stamp, cl.head);
        if let Some((p, pstamp)) = cl.parent {
            let pc = &self.clusters[p as usize];
            if pc.alive && pc.stamp == pstamp {
                return Ok(Some(p));
            }
        } else {
            return Ok(None);
        }
        // cached parent retired: re-resolve from the head index
        let (hx, hy) = self.store.pos(head);
        let parent = self
            .resolve_parent(hx, hy, stamp)
            .map(|p| (p, self.clusters[p as usize].stamp));
        self.clusters[c as usize].parent = parent;
        self.stats.parent_refreshes += 1;
        Ok(parent.map(|(p, _)| p))
    }

    /// Path of cluster ids from `c` to its forest root (inclusive).
    /// Stamps strictly decrease along the path, so it always terminates.
    pub fn backbone_path(&mut self, c: u32) -> Result<Vec<u32>, TopologyError> {
        let mut path = vec![c];
        let mut cur = c;
        while let Some(p) = self.backbone_parent(cur)? {
            path.push(p);
            cur = p;
        }
        Ok(path)
    }

    /// Full O(N·K) structural audit, for tests: every alive node in
    /// exactly one live cluster, rosters sorted/alive/within the diameter
    /// bound, cached member positions equal to the store's bit for bit,
    /// each bounding box exactly its members' box, heads battery-maximal
    /// members, the head index holding one entry per live cluster at its
    /// head's exact position, and parent stamps strictly decreasing.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = 0usize;
        for c in 0..self.clusters.len() as u32 {
            let cl = &self.clusters[c as usize];
            if !cl.alive {
                continue;
            }
            if cl.members.is_empty() {
                return Err(format!("cluster {c} is live but empty"));
            }
            if !cl.members.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("cluster {c} roster not sorted"));
            }
            seen += cl.members.len();
            if cl.pos.len() != cl.members.len() {
                return Err(format!(
                    "cluster {c} caches {} positions for {} members",
                    cl.pos.len(),
                    cl.members.len()
                ));
            }
            let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
            let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for (&a, &(px, py)) in cl.members.iter().zip(&cl.pos) {
                if !self.store.is_alive(a) {
                    return Err(format!("cluster {c} holds dead node {a}"));
                }
                if self.store.cluster_of(a) != c {
                    return Err(format!("node {a} cluster index disagrees with roster {c}"));
                }
                let (ax, ay) = self.store.pos(a);
                if (px.to_bits(), py.to_bits()) != (ax.to_bits(), ay.to_bits()) {
                    return Err(format!(
                        "cluster {c} caches a stale position for member {a}"
                    ));
                }
                min_x = min_x.min(ax);
                min_y = min_y.min(ay);
                max_x = max_x.max(ax);
                max_y = max_y.max(ay);
            }
            // interior leavers skip the rescan, which is exact only while
            // every side of the box is attained by a member
            if (min_x, min_y, max_x, max_y) != (cl.min_x, cl.min_y, cl.max_x, cl.max_y) {
                return Err(format!("cluster {c} bbox is not its members' box"));
            }
            let d2 = self.cfg.d_m * self.cfg.d_m;
            for (i, (&a, &(ax, ay))) in cl.members.iter().zip(&cl.pos).enumerate() {
                for (&b, &(bx, by)) in cl.members.iter().zip(&cl.pos).skip(i + 1) {
                    let (dx, dy) = (bx - ax, by - ay);
                    if dx * dx + dy * dy > d2 {
                        return Err(format!("cluster {c}: members {a},{b} exceed d"));
                    }
                }
                if cl.head != a && self.better_head(a, cl.head) {
                    return Err(format!("cluster {c}: head {} beaten by {a}", cl.head));
                }
            }
            if !cl.members.contains(&cl.head) {
                return Err(format!("cluster {c} head {} not a member", cl.head));
            }
            // joins read their candidates from the head index, so each
            // entry must sit at its head's exact position
            let (hx, hy) = self.store.pos(cl.head);
            let mut indexed = false;
            self.heads
                .for_each_within(hx, hy, 0.0, |e| indexed |= e.id == c);
            if !indexed {
                return Err(format!(
                    "cluster {c} has no head index entry at head {}",
                    cl.head
                ));
            }
            if let Some((p, pstamp)) = cl.parent {
                let pc = &self.clusters[p as usize];
                // a cache is binding only while the epoch matches; stale
                // entries are re-resolved lazily by backbone_parent
                if pc.alive && pc.stamp == pstamp && pstamp >= cl.stamp {
                    return Err(format!("cluster {c} parent {p} is not older"));
                }
            }
        }
        if seen != self.store.alive_count() {
            return Err(format!(
                "{seen} clustered nodes vs {} alive",
                self.store.alive_count()
            ));
        }
        // one entry found per live cluster above and no more entries than
        // live clusters: the index holds exactly the live clusters
        if self.heads.len() != self.alive_clusters {
            return Err(format!(
                "head index has {} entries for {} clusters",
                self.heads.len(),
                self.alive_clusters
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::derive;
    use rand::Rng;

    fn cfg() -> TopologyConfig {
        TopologyConfig {
            width_m: 300.0,
            height_m: 300.0,
            d_m: 30.0,
            max_cluster: 8,
            long_range_m: 120.0,
        }
    }

    #[test]
    fn joins_cluster_within_d_and_found_new_beyond() {
        let mut e = TopologyEngine::new(cfg());
        let a = e.join(10.0, 10.0, 100.0).unwrap();
        assert!(a.founded && a.became_head);
        let b = e.join(20.0, 10.0, 50.0).unwrap();
        assert!(!b.founded, "within d of a: joins a's cluster");
        assert_eq!(b.cluster, a.cluster);
        assert_eq!(e.head(a.cluster).unwrap(), a.node, "higher battery heads");
        let c = e.join(200.0, 200.0, 10.0).unwrap();
        assert!(c.founded);
        assert_eq!(e.clusters_alive(), 2);
        e.validate().unwrap();
    }

    #[test]
    fn join_with_higher_battery_takes_over_as_head() {
        let mut e = TopologyEngine::new(cfg());
        let a = e.join(10.0, 10.0, 10.0).unwrap();
        let b = e.join(12.0, 10.0, 90.0).unwrap();
        assert!(b.became_head);
        assert_eq!(e.head(a.cluster).unwrap(), b.node);
        e.validate().unwrap();
    }

    /// A head re-election picks the node `cluster::try_elect_head` picks
    /// over the same surviving roster, exact battery ties included.
    #[test]
    fn head_reelection_agrees_with_try_elect_head() {
        use crate::cluster::try_elect_head;
        use crate::graph::SuGraph;
        use crate::node::SuNode;
        use comimo_channel::geometry::Point;
        let batteries = [100.0, 80.0, 40.0, 80.0, 80.0, 100.0];
        let mut e = TopologyEngine::new(cfg());
        let mut nodes = Vec::new();
        for (i, &b) in batteries.iter().enumerate() {
            let (x, y) = (10.0 + 2.0 * i as f64, 10.0);
            assert_eq!(e.join(x, y, b).unwrap().node, i as u32);
            nodes.push(SuNode::new(i, Point::new(x, y), b));
        }
        let c = e.store().cluster_of(0);
        let roster: Vec<usize> = (0..nodes.len()).collect();
        // heads in turn: 0 (ties 5), 5, 1 (ties 3, 4), 3 (ties 4), 4
        for _ in 0..4 {
            let head = e.head(c).unwrap();
            let g = SuGraph::build(nodes.clone(), 30.0);
            assert_eq!(head as usize, try_elect_head(&g, &roster).unwrap());
            e.death(head).unwrap();
            nodes[head as usize].alive = false;
        }
        let g = SuGraph::build(nodes, 30.0);
        assert_eq!(e.head(c).unwrap(), 4);
        assert_eq!(try_elect_head(&g, &roster).unwrap(), 4);
        e.validate().unwrap();
    }

    #[test]
    fn death_reelects_head_and_retires_empty_clusters() {
        let mut e = TopologyEngine::new(cfg());
        let a = e.join(10.0, 10.0, 100.0).unwrap();
        let b = e.join(15.0, 10.0, 60.0).unwrap();
        let c = e.join(12.0, 14.0, 80.0).unwrap();
        let impact = e.death(a.node).unwrap();
        assert!(impact.head_changed);
        assert_eq!(e.head(a.cluster).unwrap(), c.node, "next-best battery");
        e.validate().unwrap();
        e.death(c.node).unwrap();
        let last = e.death(b.node).unwrap();
        assert!(last.retired);
        assert_eq!(e.clusters_alive(), 0);
        assert_eq!(e.nodes_alive(), 0);
        e.validate().unwrap();
    }

    #[test]
    fn death_of_unknown_or_dead_node_is_typed() {
        let mut e = TopologyEngine::new(cfg());
        let a = e.join(10.0, 10.0, 1.0).unwrap();
        e.death(a.node).unwrap();
        assert!(matches!(e.death(a.node), Err(TopologyError::Store(_))));
        assert!(matches!(e.death(999), Err(TopologyError::Store(_))));
        assert!(matches!(
            e.join(-5.0, 10.0, 1.0),
            Err(TopologyError::OutOfField { .. })
        ));
    }

    #[test]
    fn quorum_death_recruits_from_adjacent_donor() {
        let mut e = TopologyEngine::new(cfg());
        // donor cluster of 4 at x = 58..61
        for i in 0..4 {
            e.join(58.0 + i as f64, 50.0, 50.0).unwrap();
        }
        // v1 founds its own cluster (> d from every donor); v2 is within
        // d of the nearest donor but does not fit its full diameter, so
        // it joins v1 — and after v1 dies, that donor node is the
        // recruitable neighbour
        let v1 = e.join(92.0, 50.0, 20.0).unwrap();
        assert!(v1.founded, "92 m is beyond d = 30 m of every donor");
        let v2 = e.join(91.0, 50.0, 10.0).unwrap();
        assert_eq!(v2.cluster, v1.cluster);
        let impact = e.death(v1.node).unwrap();
        assert_eq!(impact.cluster, v1.cluster);
        assert!(
            impact.recruited.is_some(),
            "cluster below quorum recruits a donor member: {impact:?}"
        );
        e.validate().unwrap();
        assert_eq!(e.members(v1.cluster).unwrap().len(), 2);
    }

    #[test]
    fn validate_rejects_stale_cached_positions_and_loose_boxes() {
        let mut e = TopologyEngine::new(cfg());
        let a = e.join(10.0, 10.0, 50.0).unwrap();
        e.join(15.0, 12.0, 40.0).unwrap();
        e.join(12.0, 18.0, 30.0).unwrap();
        e.validate().unwrap();
        let c = a.cluster as usize;
        // a cached position one ULP off the store's, inside the box
        let mut stale = e.clone();
        let p = &mut stale.clusters[c].pos[2];
        p.0 = f64::from_bits(p.0.to_bits() + 1);
        let err = stale.validate().unwrap_err();
        assert!(err.contains("stale position"), "{err}");
        // a cache that lost its last entry
        let mut short = e.clone();
        short.clusters[c].pos.pop();
        let err = short.validate().unwrap_err();
        assert!(err.contains("caches 2 positions for 3 members"), "{err}");
        // a box that still holds every member but is not their box
        let mut loose = e.clone();
        loose.clusters[c].min_x -= 1.0;
        let err = loose.validate().unwrap_err();
        assert!(err.contains("not its members' box"), "{err}");
    }

    #[test]
    fn pu_arrival_touches_only_heads_in_footprint() {
        let mut e = TopologyEngine::new(cfg());
        let a = e.join(10.0, 10.0, 1.0).unwrap();
        let b = e.join(250.0, 250.0, 1.0).unwrap();
        let hit = e.pu_arrival(0.0, 0.0, 50.0);
        assert_eq!(hit, vec![a.cluster]);
        assert_eq!(e.pu_hits(a.cluster).unwrap(), 1);
        assert_eq!(e.pu_hits(b.cluster).unwrap(), 0);
    }

    #[test]
    fn backbone_forest_is_acyclic_and_self_heals() {
        let mut e = TopologyEngine::new(cfg());
        let a = e.join(10.0, 10.0, 1.0).unwrap(); // root
        let b = e.join(100.0, 10.0, 1.0).unwrap(); // child of a (90 < D)
        let c = e.join(190.0, 10.0, 1.0).unwrap(); // child of b
        assert_eq!(e.backbone_path(c.cluster).unwrap().len(), 3);
        assert_eq!(e.backbone_parent(b.cluster).unwrap(), Some(a.cluster));
        // kill the middle cluster: c's cached parent retires, and the
        // lazy re-resolve finds no older head within D ⇒ c roots itself
        e.death(b.node).unwrap();
        assert_eq!(e.backbone_parent(c.cluster).unwrap(), None);
        assert!(e.stats().parent_refreshes >= 1);
        e.validate().unwrap();
    }

    /// Brute-force reference for [`TopologyEngine::join`]: the lowest
    /// live cluster id that is under `max_cluster`, has a member within d
    /// and fits (every member within d), else a founding in the slot the
    /// slab hands out next.
    fn reference_join(e: &TopologyEngine, x: f64, y: f64, battery_j: f64) -> JoinOutcome {
        let node = e.store.clone().insert(x, y, battery_j);
        let d2 = e.cfg.d_m * e.cfg.d_m;
        let within = |m: u32| {
            let (mx, my) = e.store.pos(m);
            let (dx, dy) = (mx - x, my - y);
            dx * dx + dy * dy <= d2
        };
        let fit = e.iter_clusters().find(|&c| {
            let members = &e.clusters[c as usize].members;
            members.len() < e.cfg.max_cluster
                && members.iter().any(|&m| within(m))
                && members.iter().all(|&m| within(m))
        });
        match fit {
            Some(c) => {
                let head = e.clusters[c as usize].head;
                let became_head = match battery_j.total_cmp(&e.store.battery_j(head)) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => node < head,
                };
                JoinOutcome {
                    node,
                    cluster: c,
                    founded: false,
                    became_head,
                }
            }
            None => JoinOutcome {
                node,
                cluster: e
                    .free_clusters
                    .last()
                    .copied()
                    .unwrap_or(e.clusters.len() as u32),
                founded: true,
                became_head: true,
            },
        }
    }

    /// Random joins, deaths (a third of them aimed at heads) and PU
    /// arrivals; every join must match [`reference_join`] and every op
    /// must leave the engine valid.
    fn churn_against_reference(cfg: TopologyConfig, ops: usize, seed: u64) -> TopoStats {
        let mut rng = derive(seed, 0x0AC1E);
        let mut e = TopologyEngine::new(cfg);
        let mut live: Vec<u32> = Vec::new();
        for op in 0..ops {
            let roll = rng.gen_range(0..100u32);
            if live.is_empty() || roll < 60 {
                let x = rng.gen_range(0.0..cfg.width_m);
                let y = rng.gen_range(0.0..cfg.height_m);
                let b = rng.gen_range(1.0..100.0);
                let want = reference_join(&e, x, y, b);
                assert_eq!(
                    e.join(x, y, b).unwrap(),
                    want,
                    "op {op}: join at ({x}, {y})"
                );
                live.push(want.node);
            } else if roll < 70 {
                let clusters: Vec<u32> = e.iter_clusters().collect();
                let head = e.head(clusters[rng.gen_range(0..clusters.len())]).unwrap();
                e.death(head).unwrap();
                live.retain(|&n| n != head);
            } else if roll < 90 {
                let n = live.swap_remove(rng.gen_range(0..live.len()));
                e.death(n).unwrap();
            } else {
                let x = rng.gen_range(0.0..cfg.width_m);
                let y = rng.gen_range(0.0..cfg.height_m);
                e.pu_arrival(x, y, 2.0 * cfg.d_m);
            }
            e.validate()
                .unwrap_or_else(|err| panic!("op {op} left the engine invalid: {err}"));
        }
        e.stats()
    }

    #[test]
    fn joins_match_the_brute_force_reference_under_churn() {
        let geometries = [
            // paper-like: D spans the whole 450 m field
            TopologyConfig {
                width_m: 450.0,
                height_m: 450.0,
                d_m: 40.0,
                max_cluster: 4,
                long_range_m: 650.0,
            },
            // dense: ~100 SUs per d-ball, max_cluster never binds
            TopologyConfig {
                width_m: 150.0,
                height_m: 150.0,
                d_m: 40.0,
                max_cluster: 128,
                long_range_m: 120.0,
            },
            // D < d: the head index's cells are smaller than a d-ball
            TopologyConfig {
                width_m: 300.0,
                height_m: 300.0,
                d_m: 40.0,
                max_cluster: 8,
                long_range_m: 25.0,
            },
        ];
        for (g, cfg) in geometries.into_iter().enumerate() {
            let s = churn_against_reference(cfg, 1500, 11 + g as u64);
            assert!(
                s.clusters_founded > 0 && s.joins > s.clusters_founded,
                "geometry {g} both founds and enters clusters: {s:?}"
            );
            assert!(
                s.head_reelections > 0 && s.recruits > 0 && s.pu_arrivals > 0,
                "geometry {g} exercises re-election, recruitment and PU arrivals: {s:?}"
            );
        }
    }

    /// The work the topology maintenance does under seeded churn at the
    /// 1M-SU density (~80 SUs per d-ball, d = 40 m, `max_cluster` 128,
    /// D = 120 m) on a 400 m field: a deployment, then joins and deaths
    /// of the node nearest a random point in equal numbers, as the
    /// `million` slot loop draws them. The counters are pure functions of
    /// the op sequence, so they are pinned exactly; a change that moves
    /// them changes the work per op.
    #[test]
    fn work_counters_per_op_at_million_density() {
        let side = 400.0;
        let cfg = TopologyConfig {
            width_m: side,
            height_m: side,
            d_m: 40.0,
            max_cluster: 128,
            long_range_m: 120.0,
        };
        let mut rng = derive(0x5CA7, 1);
        let mut e = TopologyEngine::new(cfg);
        let deployed = (side * side / (3.545 * 3.545)) as usize;
        for _ in 0..deployed {
            let (x, y) = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            e.join(x, y, rng.gen_range(10.0..100.0)).unwrap();
        }
        let built = e.stats();
        for _ in 0..3000 {
            let (x, y) = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            if rng.gen_range(0..2u32) == 0 {
                e.join(x, y, rng.gen_range(10.0..100.0)).unwrap();
            } else {
                let (n, _) = e.nearest_node(x, y).unwrap();
                e.death(n).unwrap();
            }
        }
        e.validate().unwrap();
        let s = e.stats();
        let (joins, deaths) = (s.joins - built.joins, s.deaths);
        let scans = s.member_scans - built.member_scans;
        // 2.21 member scans per deployment join; under churn 2.45 per
        // join and 0.091 box rescans per death (a death from the box's
        // edge; before interior leavers skipped it, every death that
        // left a member behind rescanned)
        assert_eq!((built.joins, built.member_scans), (12_731, 28_100));
        assert_eq!(
            (joins, deaths, scans, s.bbox_rescans),
            (1_487, 1_513, 3_644, 138)
        );
    }

    #[test]
    fn randomized_churn_stays_valid_and_deterministic() {
        let run = |seed: u64| {
            let mut rng = derive(seed, 42);
            let mut e = TopologyEngine::new(cfg());
            let mut live: Vec<u32> = Vec::new();
            for _ in 0..400 {
                if live.is_empty() || rng.gen_range(0..100u32) < 60 {
                    let x = rng.gen_range(0.0..300.0);
                    let y = rng.gen_range(0.0..300.0);
                    let out = e.join(x, y, rng.gen_range(1.0..100.0)).unwrap();
                    live.push(out.node);
                } else if rng.gen_range(0..100u32) < 80 {
                    let at = rng.gen_range(0..live.len());
                    let n = live.swap_remove(at);
                    e.death(n).unwrap();
                } else {
                    let x = rng.gen_range(0.0..300.0);
                    let y = rng.gen_range(0.0..300.0);
                    e.pu_arrival(x, y, 40.0);
                }
            }
            e.validate().unwrap();
            // digest the full topology for the determinism diff
            let mut digest = 0u64;
            for c in e.iter_clusters() {
                digest = digest
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(c as u64 + 1);
                digest = digest
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(e.head(c).unwrap() as u64);
                for &m in e.members(c).unwrap() {
                    digest = digest.wrapping_mul(0x100000001b3).wrapping_add(m as u64);
                }
            }
            (digest, e.stats())
        };
        let (d1, s1) = run(7);
        let (d2, s2) = run(7);
        assert_eq!((d1, s1), (d2, s2), "same seed replays bit-identically");
        let (d3, _) = run(8);
        assert_ne!(d1, d3, "different seed explores a different topology");
    }

    #[test]
    fn drain_rotates_heads_and_keeps_the_engine_valid() {
        let mut rng = derive(0xD2A1, 3);
        let mut e = TopologyEngine::new(TopologyConfig {
            width_m: 400.0,
            height_m: 400.0,
            d_m: 40.0,
            max_cluster: 4,
            long_range_m: 120.0,
        });
        let mut live: Vec<u32> = (0..1000)
            .map(|_| {
                let (x, y) = (rng.gen_range(0.0..400.0), rng.gen_range(0.0..400.0));
                e.join(x, y, rng.gen_range(0.5..1.0)).unwrap().node
            })
            .collect();
        e.validate().unwrap();
        let (mut drains, mut rotations) = (0u64, 0u64);
        while live.len() > 100 {
            // half the steps drain a head, half any live node
            let node = if rng.gen_range(0..2u32) == 0 {
                let clusters: Vec<u32> = e.iter_clusters().collect();
                e.head(clusters[rng.gen_range(0..clusters.len())]).unwrap()
            } else {
                live[rng.gen_range(0..live.len())]
            };
            let c = e.store().cluster_of(node);
            let (head, before) = (e.head(c).unwrap(), e.stats().head_reelections);
            let left = e.drain(node, rng.gen_range(0.0..0.1)).unwrap();
            drains += 1;
            let rotated = e.head(c).unwrap() != head;
            assert!(!rotated || node == head, "only a drained head hands over");
            rotations += u64::from(rotated);
            assert_eq!(e.stats().head_reelections - before, u64::from(rotated));
            e.validate()
                .unwrap_or_else(|err| panic!("drain {drains} of {node}: {err}"));
            if left == 0.0 {
                let heads: Vec<u32> = e.iter_clusters().map(|c| e.head(c).unwrap()).collect();
                let before = e.stats().head_reelections;
                let impact = e.death(node).unwrap();
                // a recruited donor head is re-elected in its donor too
                let donor_head = impact.recruited.is_some_and(|n| heads.contains(&n));
                assert_eq!(
                    e.stats().head_reelections - before,
                    u64::from(impact.head_changed) + u64::from(donor_head)
                );
                live.retain(|&n| n != node);
                e.validate()
                    .unwrap_or_else(|err| panic!("death of {node}: {err}"));
                assert!(matches!(
                    e.drain(node, 0.1),
                    Err(TopologyError::Store(StoreError::UnknownNode(_)))
                ));
            }
        }
        assert!(
            rotations > 100 && rotations < drains,
            "{rotations} rotations in {drains} drains"
        );
    }
}
