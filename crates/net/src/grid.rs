//! Uniform spatial hash-grid over a bounded field.
//!
//! The index behind the million-SU topology engine: cell size is tied to
//! the d-clustering radius, so a "who is within `d` of me" query — the
//! primitive under joins, head election, recruitment and backbone
//! resolution — touches a constant-bounded ring of cells instead of
//! rescanning the network. The nearest search skips every cell whose
//! box lies farther than the best candidate so far (or than its radius),
//! so at 1M-SU density (40 m cells, ~127 entries each) a nearest-node
//! query reads about 1.2 cells instead of the whole 3×3 ring.
//!
//! Determinism contract: every cell keeps its entries **sorted by id**, so
//! iteration order is a pure function of the current membership — never of
//! the insertion/removal history. Queries compare exact `f64` squared
//! distances, which makes the grid agree bit-for-bit with a brute-force
//! O(N²) scan (property-tested in this module).

/// One indexed point: an id (node id, cluster id, point index — the grid
/// does not care) at an exact position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridEntry {
    /// Caller-chosen identifier, unique per live entry.
    pub id: u32,
    /// Exact x coordinate (metres).
    pub x: f64,
    /// Exact y coordinate (metres).
    pub y: f64,
}

/// Uniform grid over `[origin, origin + extent]` with square cells.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    origin_x: f64,
    origin_y: f64,
    cell_m: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<GridEntry>>,
    len: usize,
    /// Widening of every cell edge in the nearest search's bounds: `col_of`
    /// rounds `(x - origin) / cell`, so an entry can sit a few ULP of the
    /// grid's reach outside its cell's nominal box. The slack is about a
    /// thousand times that; a wider box only prunes less.
    slack: f64,
}

impl SpatialGrid {
    /// Grid over `[0, width] × [0, height]` with cells of `cell_m` a side.
    ///
    /// # Panics
    /// If any dimension is non-finite or non-positive.
    pub fn new(width_m: f64, height_m: f64, cell_m: f64) -> Self {
        Self::covering(0.0, 0.0, width_m, height_m, cell_m)
    }

    /// Grid covering `[min_x, max_x] × [min_y, max_y]`.
    ///
    /// # Panics
    /// If the box is inverted or `cell_m` is non-finite/non-positive.
    pub fn covering(min_x: f64, min_y: f64, max_x: f64, max_y: f64, cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "invalid cell size {cell_m}"
        );
        assert!(
            min_x.is_finite() && min_y.is_finite() && max_x >= min_x && max_y >= min_y,
            "invalid grid box [{min_x},{max_x}]x[{min_y},{max_y}]"
        );
        let cols = ((max_x - min_x) / cell_m).ceil().max(1.0) as usize;
        let rows = ((max_y - min_y) / cell_m).ceil().max(1.0) as usize;
        let reach = min_x.abs().max(min_y.abs()) + cols.max(rows) as f64 * cell_m;
        Self {
            origin_x: min_x,
            origin_y: min_y,
            cell_m,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            len: 0,
            slack: reach * 1e-12,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cell side in metres.
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    fn col_of(&self, x: f64) -> usize {
        (((x - self.origin_x) / self.cell_m) as usize).min(self.cols - 1)
    }

    fn row_of(&self, y: f64) -> usize {
        (((y - self.origin_y) / self.cell_m) as usize).min(self.rows - 1)
    }

    fn cell_index(&self, x: f64, y: f64) -> usize {
        self.row_of(y) * self.cols + self.col_of(x)
    }

    /// Whether `(x, y)` lies inside the covered box (entries outside it
    /// would land in a clamped cell and break query exactness, so
    /// [`Self::insert`] rejects them).
    pub fn contains_point(&self, x: f64, y: f64) -> bool {
        x.is_finite()
            && y.is_finite()
            && x >= self.origin_x
            && y >= self.origin_y
            && x <= self.origin_x + self.cols as f64 * self.cell_m
            && y <= self.origin_y + self.rows as f64 * self.cell_m
    }

    /// Inserts `id` at `(x, y)`.
    ///
    /// # Panics
    /// If the point lies outside the covered box, or `id` is already
    /// present in that cell.
    pub fn insert(&mut self, id: u32, x: f64, y: f64) {
        assert!(
            self.contains_point(x, y),
            "point ({x}, {y}) outside grid box"
        );
        let ci = self.cell_index(x, y);
        let cell = &mut self.cells[ci];
        let at = match cell.binary_search_by_key(&id, |e| e.id) {
            Ok(_) => panic!("duplicate grid id {id}"),
            Err(at) => at,
        };
        cell.insert(at, GridEntry { id, x, y });
        self.len += 1;
    }

    /// Removes `id`, which the caller asserts sits at `(x, y)` (the grid
    /// stores positions redundantly precisely so removal is O(cell)).
    /// Returns `false` when no such entry exists.
    pub fn remove(&mut self, id: u32, x: f64, y: f64) -> bool {
        if !self.contains_point(x, y) {
            return false;
        }
        let ci = self.cell_index(x, y);
        let cell = &mut self.cells[ci];
        match cell.binary_search_by_key(&id, |e| e.id) {
            Ok(at) => {
                cell.remove(at);
                self.len -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Moves `id` from `(old_x, old_y)` to `(new_x, new_y)`; O(1) when
    /// both fall in the same cell.
    ///
    /// # Panics
    /// If the entry is missing or the new point lies outside the box.
    pub fn relocate(&mut self, id: u32, old_x: f64, old_y: f64, new_x: f64, new_y: f64) {
        let old_ci = self.cell_index(old_x, old_y);
        let new_ci = self.cell_index(new_x, new_y);
        if old_ci == new_ci {
            let cell = &mut self.cells[old_ci];
            let at = cell
                .binary_search_by_key(&id, |e| e.id)
                .unwrap_or_else(|_| panic!("relocate of unknown grid id {id}"));
            cell[at].x = new_x;
            cell[at].y = new_y;
            return;
        }
        assert!(
            self.remove(id, old_x, old_y),
            "relocate of unknown grid id {id}"
        );
        self.insert(id, new_x, new_y);
    }

    /// Calls `f` for every entry within `radius` of `(x, y)` (inclusive,
    /// exact `f64` comparison on squared distance). Cells are visited
    /// row-major and entries id-ascending within a cell, so the visit
    /// order is deterministic.
    pub fn for_each_within(&self, x: f64, y: f64, radius: f64, mut f: impl FnMut(&GridEntry)) {
        let r2 = radius * radius;
        let c_lo = self.col_of((x - radius).max(self.origin_x));
        let c_hi = self.col_of((x + radius).max(self.origin_x));
        let r_lo = self.row_of((y - radius).max(self.origin_y));
        let r_hi = self.row_of((y + radius).max(self.origin_y));
        for row in r_lo..=r_hi {
            for col in c_lo..=c_hi {
                for e in &self.cells[row * self.cols + col] {
                    let (dx, dy) = (e.x - x, e.y - y);
                    if dx * dx + dy * dy <= r2 {
                        f(e);
                    }
                }
            }
        }
    }

    /// Collects the ids within `radius` of `(x, y)` into `out` (cleared
    /// first), sorted ascending — the canonical neighbour set.
    pub fn neighbours_within(&self, x: f64, y: f64, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_within(x, y, radius, |e| out.push(e.id));
        out.sort_unstable();
    }

    /// Exact nearest entry within `radius` of `(x, y)` (inclusive at
    /// `d² = radius²`; pass `f64::INFINITY` for no bound) among entries
    /// satisfying `pred`, by lexicographic `(squared distance, id)` — the
    /// deterministic tie-break every caller in this workspace relies on.
    ///
    /// Expands cell rings outward from the query's (clamped) cell. A cell
    /// whose box lies farther than the bound — the best `d²` so far, or
    /// `radius²` before any hit — is skipped unread, and the search stops
    /// once everything outside the rings seen so far is that far. Within a
    /// visited cell, `pred` runs only on entries that could still win, so
    /// the cost is O(cells within the bound + their entries) and a search
    /// that finds nothing in range costs O((radius / cell)²) cells, not
    /// O(N). Both bounds are exact: every side of a box is widened by a
    /// slack that covers the rounding in `col_of`/`row_of`, and rounding
    /// is monotone, so a pruned cell's rounded box distance never exceeds
    /// the rounded `d²` of any entry in it.
    pub fn nearest_matching(
        &self,
        x: f64,
        y: f64,
        radius: f64,
        mut pred: impl FnMut(u32) -> bool,
    ) -> Option<(u32, f64)> {
        let r2 = radius * radius;
        let c0 = self.col_of(x.clamp(
            self.origin_x,
            self.origin_x + self.cols as f64 * self.cell_m,
        ));
        let r0 = self.row_of(y.clamp(
            self.origin_y,
            self.origin_y + self.rows as f64 * self.cell_m,
        ));
        let max_ring = c0.max(self.cols - 1 - c0).max(r0).max(self.rows - 1 - r0);
        let mut best: Option<(f64, u32)> = None;
        for ring in 0..=max_ring {
            if ring > 0 {
                // every cell of ring ≥ k lies beyond one of the four sides
                // of the square of rings < k
                let gap = self
                    .gap_beyond(x, c0, ring, self.cols, self.origin_x)
                    .min(self.gap_beyond(y, r0, ring, self.rows, self.origin_y));
                if gap * gap > best.map_or(r2, |(bd2, _)| bd2) {
                    break;
                }
            }
            let mut visit = |row: usize, col: usize, gy: f64, best: &mut Option<(f64, u32)>| {
                let cell = &self.cells[row * self.cols + col];
                if cell.is_empty() {
                    return;
                }
                let gx = self.gap_to(x, col, self.origin_x);
                if gx * gx + gy * gy > best.map_or(r2, |(bd2, _)| bd2) {
                    return;
                }
                for e in cell {
                    let (dx, dy) = (e.x - x, e.y - y);
                    let d2 = dx * dx + dy * dy;
                    if d2 > r2 || best.is_some_and(|b| (d2, e.id) >= b) || !pred(e.id) {
                        continue;
                    }
                    *best = Some((d2, e.id));
                }
            };
            // only the ring boundary, not the filled square
            let (r_lo, r_hi) = (r0.saturating_sub(ring), (r0 + ring).min(self.rows - 1));
            let (c_lo, c_hi) = (c0.saturating_sub(ring), (c0 + ring).min(self.cols - 1));
            for row in r_lo..=r_hi {
                let gy = self.gap_to(y, row, self.origin_y);
                if row + ring == r0 || row == r0 + ring {
                    for col in c_lo..=c_hi {
                        visit(row, col, gy, &mut best);
                    }
                } else {
                    if c0 >= ring {
                        visit(row, c0 - ring, gy, &mut best);
                    }
                    if c0 + ring < self.cols {
                        visit(row, c0 + ring, gy, &mut best);
                    }
                }
            }
        }
        best.map(|(d2, id)| (id, d2))
    }

    /// Distance along one axis from `v` to the slack-widened span of cell
    /// `i` on that axis (0 inside it). Rounding `v` minus an edge is
    /// monotone in the edge, so it never exceeds `|v - e|` for an entry
    /// `e` whose cell is `i`.
    fn gap_to(&self, v: f64, i: usize, origin: f64) -> f64 {
        let lo = origin + i as f64 * self.cell_m - self.slack;
        let hi = origin + (i + 1) as f64 * self.cell_m + self.slack;
        (lo - v).max(v - hi).max(0.0)
    }

    /// Distance along one axis from `v` to the cells at index distance
    /// `≥ ring` from the query's cell `i0` (of `n`): the nearer of the two
    /// slack-widened outer edges that still has cells beyond it, infinite
    /// when neither does.
    fn gap_beyond(&self, v: f64, i0: usize, ring: usize, n: usize, origin: f64) -> f64 {
        let below = if i0 >= ring {
            v - (origin + (i0 + 1 - ring) as f64 * self.cell_m + self.slack)
        } else {
            f64::INFINITY
        };
        let above = if i0 + ring < n {
            origin + (i0 + ring) as f64 * self.cell_m - self.slack - v
        } else {
            f64::INFINITY
        };
        below.min(above).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::derive;
    use rand::Rng;

    fn brute_within(pts: &[(u32, f64, f64)], x: f64, y: f64, r: f64) -> Vec<u32> {
        let mut out: Vec<u32> = pts
            .iter()
            .filter(|&&(_, px, py)| {
                let (dx, dy) = (px - x, py - y);
                dx * dx + dy * dy <= r * r
            })
            .map(|&(id, _, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut g = SpatialGrid::new(100.0, 100.0, 10.0);
        g.insert(1, 5.0, 5.0);
        g.insert(2, 6.0, 5.0);
        g.insert(3, 95.0, 95.0);
        let mut out = Vec::new();
        g.neighbours_within(5.0, 5.0, 2.0, &mut out);
        assert_eq!(out, vec![1, 2]);
        assert!(g.remove(2, 6.0, 5.0));
        assert!(!g.remove(2, 6.0, 5.0), "double remove is false");
        g.neighbours_within(5.0, 5.0, 2.0, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn boundary_points_are_indexed() {
        let mut g = SpatialGrid::new(100.0, 100.0, 10.0);
        g.insert(7, 100.0, 100.0); // exactly on the far corner
        g.insert(8, 0.0, 0.0);
        let mut out = Vec::new();
        g.neighbours_within(99.0, 99.0, 2.0, &mut out);
        assert_eq!(out, vec![7]);
        assert!(g.remove(7, 100.0, 100.0));
    }

    #[test]
    fn relocate_moves_across_cells_and_within() {
        let mut g = SpatialGrid::new(100.0, 100.0, 10.0);
        g.insert(4, 5.0, 5.0);
        g.relocate(4, 5.0, 5.0, 6.0, 6.0); // same cell
        g.relocate(4, 6.0, 6.0, 55.0, 5.0); // different cell
        let mut out = Vec::new();
        g.neighbours_within(55.0, 5.0, 0.5, &mut out);
        assert_eq!(out, vec![4]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn nearest_matching_uses_distance_then_id() {
        let mut g = SpatialGrid::new(100.0, 100.0, 10.0);
        g.insert(9, 10.0, 10.0);
        g.insert(3, 10.0, 30.0); // same distance from (10, 20) as id 9
        g.insert(5, 80.0, 80.0);
        let (id, d2) = g
            .nearest_matching(10.0, 20.0, f64::INFINITY, |_| true)
            .unwrap();
        assert_eq!((id, d2), (3, 100.0), "equidistant tie goes to lower id");
        let (id, _) = g
            .nearest_matching(10.0, 20.0, f64::INFINITY, |i| i != 3)
            .unwrap();
        assert_eq!(id, 9);
        assert!(g
            .nearest_matching(0.0, 0.0, f64::INFINITY, |_| false)
            .is_none());
    }

    #[test]
    fn nearest_matching_crosses_rings_exactly() {
        // a candidate in the adjacent ring is nearer than one in the
        // centre cell: the ring expansion must not stop at the first hit
        let mut g = SpatialGrid::new(100.0, 100.0, 10.0);
        g.insert(1, 11.0, 15.0); // centre cell of (19.5, 15): 8.5 away
        g.insert(2, 20.5, 15.0); // adjacent cell: only 1.0 away
        let (id, d2) = g
            .nearest_matching(19.5, 15.0, f64::INFINITY, |_| true)
            .unwrap();
        assert_eq!((id, d2), (2, 1.0));
    }

    /// Brute-force `(d², id)` minimum over the entries within `radius`
    /// (inclusive) that satisfy `pred`.
    fn brute_nearest(
        pts: &[(u32, f64, f64)],
        x: f64,
        y: f64,
        radius: f64,
        pred: impl Fn(u32) -> bool,
    ) -> Option<(u32, f64)> {
        pts.iter()
            .filter(|&&(id, _, _)| pred(id))
            .map(|&(id, px, py)| {
                let (dx, dy) = (px - x, py - y);
                (dx * dx + dy * dy, id)
            })
            .filter(|&(d2, _)| d2 <= radius * radius)
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(d2, id)| (id, d2))
    }

    /// `nearest_matching` equals [`brute_nearest`] bit for bit at every
    /// query, radius and predicate given.
    fn assert_matches_oracle(
        g: &SpatialGrid,
        pts: &[(u32, f64, f64)],
        queries: &[(f64, f64)],
        radii: &[f64],
    ) {
        let preds: [fn(u32) -> bool; 3] = [|_| true, |id| id % 3 == 1, |id| id % 7 == 0];
        for &(qx, qy) in queries {
            for &r in radii {
                for (k, pred) in preds.iter().enumerate() {
                    let got = g.nearest_matching(qx, qy, r, pred);
                    let want = brute_nearest(pts, qx, qy, r, pred);
                    assert_eq!(
                        got.map(|(id, d2)| (id, d2.to_bits())),
                        want.map(|(id, d2)| (id, d2.to_bits())),
                        "query ({qx}, {qy}) radius {r} predicate {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_nearest_matches_the_oracle_on_lattice_edges_and_corners() {
        // entries on every 2.5 m lattice point of a 10 m grid: every cell
        // edge and corner is occupied, and a query on an edge or at a
        // half step sees exact (d², id) ties split across cells. The ids
        // are scrambled so ties do not follow the cell order.
        let mut g = SpatialGrid::new(40.0, 30.0, 10.0);
        let mut pts = Vec::new();
        for i in 0..=16u32 {
            for j in 0..=12u32 {
                pts.push((i * 13 + j, 2.5 * i as f64, 2.5 * j as f64));
            }
        }
        let n = pts.len() as u32;
        for p in &mut pts {
            p.0 = p.0 * 97 % n;
            g.insert(p.0, p.1, p.2);
        }
        // half-step queries, including a margin outside the box (clamped
        // to its border cells) and two far away
        let mut queries: Vec<(f64, f64)> = (-4..=36)
            .flat_map(|i| (-4..=28).map(move |j| (1.25 * i as f64, 1.25 * j as f64)))
            .collect();
        queries.extend([(1.0e4, -1.0e4), (-1.0e9, 15.0), (20.0, 3.0e7)]);
        let radii = [f64::INFINITY, 0.0, 2.5, 5.0, 10.0, 12.5, 25.0];
        assert_matches_oracle(&g, &pts, &queries, &radii);
        // with half the lattice gone the searches run over empty cells
        for &(id, x, y) in pts.iter().filter(|p| p.0 % 2 == 0) {
            assert!(g.remove(id, x, y));
        }
        pts.retain(|p| p.0 % 2 == 1);
        assert_matches_oracle(&g, &pts, &queries, &radii);
    }

    #[test]
    fn pruned_nearest_matches_the_oracle_on_cluster_beam_grids() {
        // the per-cluster grid `cluster_beam` builds: the members' box
        // with one cell of padding, cells sized for about one member each
        let mut rng = derive(0xBEA4, 3);
        for (n, spread) in [(2usize, 1.0), (13, 0.4), (50, 3.0), (256, 12.0), (9, 0.0)] {
            let (cx, cy) = (137.3, -42.1);
            let pts: Vec<(u32, f64, f64)> = (0..n as u32)
                .map(|id| {
                    let dx = rng.gen_range(-1.0..1.0) * spread;
                    let dy = rng.gen_range(-1.0..1.0) * spread;
                    (id, cx + dx, cy + dy)
                })
                .collect();
            let min_x = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            let min_y = pts.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
            let max_x = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
            let max_y = pts.iter().map(|p| p.2).fold(f64::NEG_INFINITY, f64::max);
            let extent = (max_x - min_x).max(max_y - min_y);
            let cell = (extent / (n as f64).sqrt().ceil()).max(1e-9);
            let mut g = SpatialGrid::covering(min_x, min_y, max_x + cell, max_y + cell, cell);
            for &(id, x, y) in &pts {
                g.insert(id, x, y);
            }
            let mut queries: Vec<(f64, f64)> = pts.iter().map(|p| (p.1, p.2)).collect();
            queries.extend([
                (min_x, min_y),
                (max_x + cell, max_y + cell),
                (cx - 50.0, cy),
            ]);
            let radii = [f64::INFINITY, 0.0, cell, 2.5 * cell];
            assert_matches_oracle(&g, &pts, &queries, &radii);
        }
    }

    #[test]
    fn pruning_keeps_entries_that_round_into_their_cell_from_outside() {
        // col_of rounds (x - origin) / cell, so an x a few ULP below the
        // nominal lower edge origin + c·cell can land in cell c. Such an
        // entry ties with one at the mirror position in cell c - 1 and
        // has the lower id: the search must still read cell c, whose
        // unwidened box lies a few ULP farther away than the tie.
        let mut cases = 0;
        for (origin, cell) in [(0.0, 0.1), (0.0, 0.3), (-3.7, 0.7), (100.3, 1.1)] {
            let cols = 400usize;
            let probe = SpatialGrid::covering(origin, 0.0, origin + cols as f64 * cell, cell, cell);
            for c in 1..cols {
                let edge = origin + c as f64 * cell;
                let x = f64::from_bits(edge.to_bits() - 1);
                if x <= 0.0 || probe.col_of(x) != c {
                    continue;
                }
                // exact steps: a power of two well above ulp(x)
                let h = 2f64.powi((cell / 4.0).log2().floor() as i32);
                let (q, twin) = (x - h, x - 2.0 * h);
                assert_eq!((probe.col_of(q), probe.col_of(twin)), (c - 1, c - 1));
                let mut g = probe.clone();
                let y = 0.5 * cell;
                g.insert(1, x, y);
                g.insert(2, twin, y);
                let pts = [(1, x, y), (2, twin, y)];
                assert_eq!(
                    g.nearest_matching(q, y, f64::INFINITY, |_| true),
                    Some((1, h * h))
                );
                assert_matches_oracle(&g, &pts, &[(q, y)], &[f64::INFINITY, h]);
                cases += 1;
            }
        }
        assert!(cases > 20, "only {cases} edge-rounding cases found");
    }

    #[test]
    fn bounded_search_that_matches_nothing_stays_within_its_radius() {
        // one entry per cell centre of a 200 × 200-cell grid
        let mut g = SpatialGrid::new(2000.0, 2000.0, 10.0);
        for r in 0..200u32 {
            for c in 0..200u32 {
                g.insert(r * 200 + c, 5.0 + 10.0 * c as f64, 5.0 + 10.0 * r as f64);
            }
        }
        let mut calls = 0;
        let none = g.nearest_matching(1000.0, 1000.0, 25.0, |_| {
            calls += 1;
            false
        });
        // the 16 centres at (±5|±15, ±5|±15) are within 25 m; the next
        // ones, at (±25, ±5), are 25.5 m away
        assert_eq!((none, calls), (None, 16));
        // unbounded, a search that matches nothing reads the whole grid
        calls = 0;
        g.nearest_matching(1000.0, 1000.0, f64::INFINITY, |_| {
            calls += 1;
            false
        });
        assert_eq!(calls, 40_000);
        // inclusive at d² = r²: (1005, 1025) is exactly 25 m from (1005, 1000)
        let id = 102 * 200 + 100;
        assert_eq!(
            g.nearest_matching(1005.0, 1000.0, 25.0, |i| i == id),
            Some((id, 625.0))
        );
        assert_eq!(g.nearest_matching(1005.0, 1000.0, 24.9, |i| i == id), None);
    }

    #[test]
    fn agrees_with_brute_force_under_churn() {
        // deterministic randomized soak: joins, deaths and moves, with the
        // canonical neighbour sets diffed against the O(N²) scan each step
        let mut rng = derive(0xC0FFEE, 17);
        let (w, h, cell) = (200.0, 150.0, 12.5);
        let mut g = SpatialGrid::new(w, h, cell);
        let mut live: Vec<(u32, f64, f64)> = Vec::new();
        let mut next_id = 0u32;
        let mut out = Vec::new();
        for step in 0..600 {
            match rng.gen_range(0..3u32) {
                0 => {
                    let (x, y) = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
                    g.insert(next_id, x, y);
                    live.push((next_id, x, y));
                    next_id += 1;
                }
                1 if !live.is_empty() => {
                    let at = rng.gen_range(0..live.len());
                    let (id, x, y) = live.swap_remove(at);
                    assert!(g.remove(id, x, y));
                }
                2 if !live.is_empty() => {
                    let at = rng.gen_range(0..live.len());
                    let (id, x, y) = live[at];
                    let (nx, ny) = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
                    g.relocate(id, x, y, nx, ny);
                    live[at] = (id, nx, ny);
                }
                _ => {}
            }
            let (qx, qy) = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
            let r = rng.gen_range(0.0..40.0);
            g.neighbours_within(qx, qy, r, &mut out);
            assert_eq!(out, brute_within(&live, qx, qy, r), "step {step}");
            // nearest query agrees with a brute-force (d², id) argmin
            let brute_nn = live
                .iter()
                .map(|&(id, px, py)| {
                    let (dx, dy) = (px - qx, py - qy);
                    (dx * dx + dy * dy, id)
                })
                .min_by(|a, b| a.partial_cmp(b).unwrap());
            let grid_nn = g.nearest_matching(qx, qy, f64::INFINITY, |_| true);
            assert_eq!(grid_nn.map(|(id, d2)| (d2, id)), brute_nn, "step {step}");
        }
        assert_eq!(g.len(), live.len());
    }
}
