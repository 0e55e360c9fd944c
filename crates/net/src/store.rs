//! Structure-of-arrays node store for million-SU topologies.
//!
//! `SuNode` structs are fine at paper scale, but a million secondary
//! users churning through joins and deaths want the same planar-buffer
//! discipline `comimo_stbc` uses for its batch kernels: one flat array
//! per field (position, battery, liveness, cluster id) plus a free-list,
//! so a death recycles its slot instead of fragmenting the heap and a
//! field sweep is a linear scan over contiguous memory.
//!
//! Ids are `u32` slot indices. A released slot's id is reused by a later
//! insert; callers that need to reference nodes across a release (none in
//! this workspace do) must epoch their handles themselves.

/// Sentinel cluster id for "not in any cluster".
pub const NO_CLUSTER: u32 = u32::MAX;

/// Typed error for checked accessors on the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The id does not name an occupied slot.
    UnknownNode(u32),
    /// The slot exists but the node is dead.
    DeadNode(u32),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            StoreError::DeadNode(id) => write!(f, "node {id} is dead"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Planar node storage: `xs[i]`, `ys[i]`, `battery_j[i]`, `alive[i]`,
/// `cluster[i]` describe slot `i`; `free` holds recycled slots.
#[derive(Debug, Clone, Default)]
pub struct NodeStore {
    xs: Vec<f64>,
    ys: Vec<f64>,
    battery_j: Vec<f64>,
    alive: Vec<bool>,
    occupied: Vec<bool>,
    cluster: Vec<u32>,
    free: Vec<u32>,
    alive_count: usize,
}

impl NodeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `n` nodes before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            battery_j: Vec::with_capacity(n),
            alive: Vec::with_capacity(n),
            occupied: Vec::with_capacity(n),
            cluster: Vec::with_capacity(n),
            free: Vec::new(),
            alive_count: 0,
        }
    }

    /// Total slots (occupied + recycled).
    pub fn slots(&self) -> usize {
        self.xs.len()
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Inserts an alive, unclustered node, reusing a recycled slot when
    /// one exists. Returns its id.
    ///
    /// # Panics
    /// If position/battery are non-finite or battery is negative, or the
    /// store is full (2³² slots).
    pub fn insert(&mut self, x: f64, y: f64, battery_j: f64) -> u32 {
        assert!(
            x.is_finite() && y.is_finite() && battery_j.is_finite() && battery_j >= 0.0,
            "invalid node ({x}, {y}, {battery_j} J)"
        );
        self.alive_count += 1;
        if let Some(id) = self.free.pop() {
            let i = id as usize;
            self.xs[i] = x;
            self.ys[i] = y;
            self.battery_j[i] = battery_j;
            self.alive[i] = true;
            self.occupied[i] = true;
            self.cluster[i] = NO_CLUSTER;
            return id;
        }
        let id = u32::try_from(self.xs.len()).expect("node store full");
        self.xs.push(x);
        self.ys.push(y);
        self.battery_j.push(battery_j);
        self.alive.push(true);
        self.occupied.push(true);
        self.cluster.push(NO_CLUSTER);
        id
    }

    fn check(&self, id: u32) -> Result<usize, StoreError> {
        let i = id as usize;
        if i >= self.xs.len() || !self.occupied[i] {
            return Err(StoreError::UnknownNode(id));
        }
        Ok(i)
    }

    /// Marks `id` dead (battery untouched). Returns `false` when already
    /// dead.
    ///
    /// # Panics
    /// If `id` names no occupied slot.
    pub fn kill(&mut self, id: u32) -> bool {
        let i = self.check(id).unwrap_or_else(|e| panic!("{e}"));
        if !self.alive[i] {
            return false;
        }
        self.alive[i] = false;
        self.alive_count -= 1;
        true
    }

    /// Recycles a dead slot for reuse by a later [`Self::insert`].
    ///
    /// # Panics
    /// If the node is unknown or still alive.
    pub fn release(&mut self, id: u32) {
        let i = self.check(id).unwrap_or_else(|e| panic!("{e}"));
        assert!(!self.alive[i], "cannot release alive node {id}");
        self.occupied[i] = false;
        self.cluster[i] = NO_CLUSTER;
        self.free.push(id);
    }

    /// Exact position of `id`.
    pub fn pos(&self, id: u32) -> (f64, f64) {
        let i = self.check(id).unwrap_or_else(|e| panic!("{e}"));
        (self.xs[i], self.ys[i])
    }

    /// Checked position accessor.
    pub fn try_pos(&self, id: u32) -> Result<(f64, f64), StoreError> {
        self.check(id).map(|i| (self.xs[i], self.ys[i]))
    }

    /// Remaining battery of `id` in joules.
    pub fn battery_j(&self, id: u32) -> f64 {
        let i = self.check(id).unwrap_or_else(|e| panic!("{e}"));
        self.battery_j[i]
    }

    /// Whether `id` is an occupied, alive slot.
    pub fn is_alive(&self, id: u32) -> bool {
        let i = id as usize;
        i < self.xs.len() && self.occupied[i] && self.alive[i]
    }

    /// Cluster of `id` ([`NO_CLUSTER`] when unclustered).
    pub fn cluster_of(&self, id: u32) -> u32 {
        let i = self.check(id).unwrap_or_else(|e| panic!("{e}"));
        self.cluster[i]
    }

    /// Assigns `id` to cluster `c` (or [`NO_CLUSTER`]).
    pub fn set_cluster(&mut self, id: u32, c: u32) {
        let i = self.check(id).unwrap_or_else(|e| panic!("{e}"));
        self.cluster[i] = c;
    }

    /// Drains `j` joules from `id`, clamping at zero; returns the battery
    /// after the drain.
    pub fn drain(&mut self, id: u32, j: f64) -> f64 {
        let i = self.check(id).unwrap_or_else(|e| panic!("{e}"));
        self.battery_j[i] = (self.battery_j[i] - j).max(0.0);
        self.battery_j[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_kill_release_recycles_slots() {
        let mut s = NodeStore::new();
        let a = s.insert(1.0, 2.0, 100.0);
        let b = s.insert(3.0, 4.0, 50.0);
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.alive_count(), 2);
        assert_eq!(s.pos(a), (1.0, 2.0));
        assert!(s.kill(a));
        assert!(!s.kill(a), "double kill is false");
        assert_eq!(s.alive_count(), 1);
        s.release(a);
        let c = s.insert(9.0, 9.0, 75.0);
        assert_eq!(c, a, "released slot is reused");
        assert_eq!(s.slots(), 2);
        assert_eq!(s.battery_j(c), 75.0);
        assert_eq!(s.cluster_of(c), NO_CLUSTER, "recycled slot is unclustered");
    }

    #[test]
    fn cluster_assignment_and_checked_accessors() {
        let mut s = NodeStore::new();
        let a = s.insert(0.0, 0.0, 10.0);
        assert_eq!(s.cluster_of(a), NO_CLUSTER);
        s.set_cluster(a, 7);
        assert_eq!(s.cluster_of(a), 7);
        assert_eq!(s.try_pos(99), Err(StoreError::UnknownNode(99)));
        assert!(s.kill(a));
        s.release(a);
        assert_eq!(s.try_pos(a), Err(StoreError::UnknownNode(a)));
        assert!(!s.is_alive(a));
    }

    #[test]
    fn drain_clamps_at_zero() {
        let mut s = NodeStore::new();
        let a = s.insert(0.0, 0.0, 10.0);
        assert_eq!(s.drain(a, 4.0), 6.0);
        assert_eq!(s.drain(a, 100.0), 0.0);
        assert!(s.is_alive(a), "drain does not kill by itself");
    }

    #[test]
    fn kill_and_release_leave_the_rest_alive() {
        let mut s = NodeStore::new();
        let ids: Vec<u32> = (0..5).map(|i| s.insert(i as f64, 0.0, 1.0)).collect();
        s.kill(ids[1]);
        s.kill(ids[3]);
        s.release(ids[3]);
        let alive: Vec<bool> = ids.iter().map(|&id| s.is_alive(id)).collect();
        assert_eq!(alive, [true, false, true, false, true]);
        assert_eq!(s.alive_count(), 3);
    }

    #[test]
    #[should_panic]
    fn releasing_an_alive_node_panics() {
        let mut s = NodeStore::new();
        let a = s.insert(0.0, 0.0, 1.0);
        s.release(a);
    }
}
