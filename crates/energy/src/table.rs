//! Precomputed `ē_b` tables — the paper's "Preprocessing" step.
//!
//! > "**Preprocessing** Calculate the value of ē_b(p, b, mt, mr) for a set
//! > of p, b, mt, and mr. Load the table of ē_b(p, b, mt, mr) in each SU
//! > node."  — Algorithms 1 and 2
//!
//! The table is built cell by cell (one closed-form root-solve of a few
//! microseconds per cell, so the whole sweep needs no fan-out) and
//! serialises with serde so nodes can "load" it, exactly as the paper
//! prescribes.

use crate::ebar::EbarSolver;
use serde::{Deserialize, Serialize};

/// Inclusive antenna range covered by the table (the paper sweeps 1..=4).
pub const MAX_ANTENNAS: usize = 4;

/// Inclusive constellation range covered (the paper sweeps b = 1..=16).
pub const MAX_BITS: u32 = 16;

/// A dense `ē_b(p, b, mt, mr)` table over a fixed grid of target BERs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EbTable {
    bers: Vec<f64>,
    /// `values[((p_idx * MAX_BITS + (b-1)) * MAX_ANTENNAS + (mt-1)) * MAX_ANTENNAS + (mr-1)]`
    values: Vec<f64>,
}

impl EbTable {
    /// Builds the table for the given BER grid with the supplied solver,
    /// sweeping `b ∈ 1..=16`, `mt, mr ∈ 1..=4` (1344 cells for a 6-point
    /// BER grid), cell by cell.
    pub fn build(solver: &EbarSolver, bers: &[f64]) -> Self {
        assert!(!bers.is_empty(), "BER grid cannot be empty");
        for &p in bers {
            assert!(p > 0.0 && p < 0.5, "BER {p} out of range");
        }
        let values = bers
            .iter()
            .flat_map(|&p| {
                (1..=MAX_BITS).flat_map(move |b| {
                    (1..=MAX_ANTENNAS).flat_map(move |mt| {
                        (1..=MAX_ANTENNAS).map(move |mr| solver.solve(p, b, mt, mr))
                    })
                })
            })
            .collect();
        Self {
            bers: bers.to_vec(),
            values,
        }
    }

    /// The paper's default grid: the BER targets exercised in Section 6
    /// (`0.1, 0.01, 0.005, 0.001, 0.0005`).
    pub fn paper_grid(solver: &EbarSolver) -> Self {
        Self::build(solver, &[0.1, 0.01, 0.005, 0.001, 0.0005])
    }

    /// The BER grid.
    pub fn bers(&self) -> &[f64] {
        &self.bers
    }

    fn index(&self, p_idx: usize, b: u32, mt: usize, mr: usize) -> usize {
        assert!((1..=MAX_BITS).contains(&b), "b out of table range: {b}");
        assert!(
            (1..=MAX_ANTENNAS).contains(&mt) && (1..=MAX_ANTENNAS).contains(&mr),
            "antenna count out of table range: {mt}x{mr}"
        );
        ((p_idx * MAX_BITS as usize + (b as usize - 1)) * MAX_ANTENNAS + (mt - 1)) * MAX_ANTENNAS
            + (mr - 1)
    }

    /// Exact lookup at a grid BER. Panics if `p` is not (approximately) on
    /// the grid — use [`Self::lookup_nearest`] for free values.
    pub fn lookup(&self, p: f64, b: u32, mt: usize, mr: usize) -> f64 {
        let p_idx = self
            .bers
            .iter()
            .position(|&g| (g - p).abs() / g < 1e-9)
            .unwrap_or_else(|| panic!("BER {p} not on the table grid {:?}", self.bers));
        self.values[self.index(p_idx, b, mt, mr)]
    }

    /// Lookup at the grid point whose BER is nearest to `p` in log-space.
    pub fn lookup_nearest(&self, p: f64, b: u32, mt: usize, mr: usize) -> f64 {
        assert!(p > 0.0);
        let lp = p.ln();
        let p_idx = self
            .bers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (a.ln() - lp)
                    .abs()
                    .partial_cmp(&(b.ln() - lp).abs())
                    .expect("NaN in BER grid")
            })
            .map(|(i, _)| i)
            .expect("empty grid");
        self.values[self.index(p_idx, b, mt, mr)]
    }

    /// Log-log interpolated lookup: `ē_b` is close to a power law in the
    /// target BER over the paper's range, so interpolating `ln ē` linearly
    /// in `ln p` between the bracketing grid points recovers off-grid
    /// targets to a few percent (tested against direct solves).
    /// Extrapolates by clamping to the grid ends.
    pub fn lookup_interpolated(&self, p: f64, b: u32, mt: usize, mr: usize) -> f64 {
        assert!(p > 0.0);
        // locate the bracketing grid points in log space (the grid need
        // not be sorted; scan for the nearest below and above)
        let lp = p.ln();
        let mut below: Option<(f64, usize)> = None; // (ln p_grid, idx)
        let mut above: Option<(f64, usize)> = None;
        for (i, &g) in self.bers.iter().enumerate() {
            let lg = g.ln();
            if lg <= lp && below.is_none_or(|(bl, _)| lg > bl) {
                below = Some((lg, i));
            }
            if lg >= lp && above.is_none_or(|(ab, _)| lg < ab) {
                above = Some((lg, i));
            }
        }
        match (below, above) {
            (Some((lb, ib)), Some((la, ia))) if ia != ib => {
                let w = (lp - lb) / (la - lb);
                let eb = self.values[self.index(ib, b, mt, mr)].ln();
                let ea = self.values[self.index(ia, b, mt, mr)].ln();
                (eb + w * (ea - eb)).exp()
            }
            (Some((_, i)), _) | (_, Some((_, i))) => self.values[self.index(i, b, mt, mr)],
            (None, None) => unreachable!("non-empty grid"),
        }
    }

    /// For fixed `(p, mt, mr)`, the constellation size minimising `ē_b` —
    /// the per-link decision rule of Algorithms 1–2 ("SU nodes use the
    /// table of ē_b to determine constellation size b which minimizes ē_b").
    pub fn best_b(&self, p: f64, mt: usize, mr: usize) -> (u32, f64) {
        (1..=MAX_BITS)
            .map(|b| (b, self.lookup_nearest(p, b, mt, mr)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN ē_b"))
            .expect("non-empty b range")
    }

    /// Number of cells stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty (never true for a built table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> EbTable {
        EbTable::build(&EbarSolver::paper(), &[0.01, 0.001])
    }

    #[test]
    fn table_dimensions() {
        let t = small_table();
        assert_eq!(t.len(), 2 * 16 * 4 * 4);
        assert_eq!(t.bers(), &[0.01, 0.001]);
    }

    #[test]
    fn lookup_matches_direct_solve() {
        let solver = EbarSolver::paper();
        let t = small_table();
        for &(p, b, mt, mr) in &[
            (0.01, 2u32, 1usize, 1usize),
            (0.001, 4, 2, 3),
            (0.01, 16, 4, 4),
        ] {
            let direct = solver.solve(p, b, mt, mr);
            let tab = t.lookup(p, b, mt, mr);
            assert!(
                (tab - direct).abs() / direct < 1e-9,
                "{tab:e} vs {direct:e}"
            );
        }
    }

    #[test]
    fn nearest_lookup_picks_log_closest() {
        let t = small_table();
        // 0.003 is nearer to 0.001 than to 0.01 in log space? ln(3e-3) is
        // equidistant-ish: |ln3e-3 - ln1e-2| = ln(10/3) ≈ 1.20,
        // |ln3e-3 - ln1e-3| = ln 3 ≈ 1.10 → picks 0.001
        let v = t.lookup_nearest(0.003, 2, 1, 1);
        assert_eq!(v, t.lookup(0.001, 2, 1, 1));
        let v2 = t.lookup_nearest(0.0099, 2, 1, 1);
        assert_eq!(v2, t.lookup(0.01, 2, 1, 1));
    }

    #[test]
    fn ebar_decreases_with_diversity_across_table() {
        let t = small_table();
        for &p in &[0.01, 0.001] {
            for b in [1u32, 2, 8] {
                let e11 = t.lookup(p, b, 1, 1);
                let e22 = t.lookup(p, b, 2, 2);
                let e44 = t.lookup(p, b, 4, 4);
                assert!(e11 > e22 && e22 > e44, "p={p} b={b}");
            }
        }
    }

    #[test]
    fn best_b_is_argmin() {
        let t = small_table();
        let (b, e) = t.best_b(0.001, 2, 3);
        for bb in 1..=MAX_BITS {
            assert!(t.lookup(0.001, bb, 2, 3) >= e, "b={bb} beats chosen {b}");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let t = small_table();
        let json = serde_json::to_string(&t).unwrap();
        let back: EbTable = serde_json::from_str(&json).unwrap();
        // JSON decimal printing loses the last ulp; compare within 1e-12 rel
        assert_eq!(t.bers, back.bers);
        assert_eq!(t.values.len(), back.values.len());
        for (a, b) in t.values.iter().zip(&back.values) {
            assert!((a - b).abs() / a < 1e-12, "{a:e} vs {b:e}");
        }
    }

    #[test]
    fn interpolation_matches_direct_solve() {
        let t = EbTable::build(&EbarSolver::paper(), &[0.03, 0.01, 0.003, 0.001]);
        let solver = EbarSolver::paper();
        for &(p, b, mt, mr) in &[
            (0.02, 2u32, 1usize, 1usize),
            (0.005, 2, 2, 3),
            (0.0017, 4, 3, 1),
        ] {
            let interp = t.lookup_interpolated(p, b, mt, mr);
            let direct = solver.solve(p, b, mt, mr);
            assert!(
                (interp - direct).abs() / direct < 0.06,
                "p={p} b={b} {mt}x{mr}: interp {interp:e} vs direct {direct:e}"
            );
        }
    }

    #[test]
    fn interpolation_clamps_at_grid_ends() {
        let t = small_table();
        // beyond the strictest grid point: clamps to it
        assert_eq!(
            t.lookup_interpolated(1e-5, 2, 1, 1),
            t.lookup(0.001, 2, 1, 1)
        );
        assert_eq!(t.lookup_interpolated(0.2, 2, 1, 1), t.lookup(0.01, 2, 1, 1));
    }

    #[test]
    fn interpolation_is_exact_on_grid_points() {
        let t = small_table();
        for &p in &[0.01, 0.001] {
            assert!(
                (t.lookup_interpolated(p, 3, 2, 2) - t.lookup(p, 3, 2, 2)).abs()
                    / t.lookup(p, 3, 2, 2)
                    < 1e-12
            );
        }
    }

    #[test]
    #[should_panic]
    fn off_grid_exact_lookup_panics() {
        let t = small_table();
        let _ = t.lookup(0.0042, 2, 1, 1);
    }
}
