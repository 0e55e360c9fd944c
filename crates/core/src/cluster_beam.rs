//! The full multi-pair form of Algorithm 3: a whole transmit cluster
//! null-steering while operating as a `⌊mt/2⌋ × mr` MIMO link.
//!
//! > "In order to put the null constraints to the primary receptor which
//! > share the same frequency with C-St, mt nodes of C-St form ⌊mt/2⌋
//! > pairs ... One node of each pair is imposed a phase delay such that
//! > the signal wave of two nodes in each pair will be canceled with each
//! > other along the direction to the primary receptor. All pairs in C-St
//! > take the same action and cluster C-St transmits the data to cluster
//! > C-Sr following the steps in Algorithm 2 with a ⌊mt/2⌋ × mr MIMO
//! > link."  (paper, Section 5)
//!
//! Each pair behaves as one *virtual antenna* whose element fields cancel
//! toward `Pr`; the `⌊mt/2⌋` virtual antennas then carry an orthogonal
//! space-time block code toward the receive cluster. This module provides
//! the pairing step, the per-pair delays, the combined-field evaluation,
//! and the energy analysis of the effective `⌊mt/2⌋ × mr` link.

use crate::interweave::TransmitPair;
use comimo_channel::geometry::Point;
use comimo_energy::model::{EnergyModel, LinkParams};
use comimo_energy::optimize::minimize_over_b;
use comimo_math::complex::Complex;
use comimo_net::grid::SpatialGrid;
use serde::{Deserialize, Serialize};

/// A cluster of transmitter positions prepared for pairwise null-steering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterBeamformer {
    pairs: Vec<TransmitPair>,
    /// A node left over when `mt` is odd (it stays silent during shared-
    /// spectrum operation, since an unpaired element cannot self-cancel).
    pub idle_node: Option<Point>,
    wavelength: f64,
}

/// Outcome of re-pairing a beamforming cluster after transmitter deaths —
/// see [`ClusterBeamformer::repair`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeamRepair {
    /// The re-paired beamformer over the survivors; `None` when fewer
    /// than two survive and the cluster must fall silent.
    pub beam: Option<ClusterBeamformer>,
    /// Survivors muted because they cannot self-cancel (the odd one out,
    /// or everyone when the cluster falls silent).
    pub muted: usize,
    /// Virtual antennas lost relative to the pre-failure cluster.
    pub lost_virtual_antennas: usize,
}

/// One pair's steering assignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairAssignment {
    /// The delayed element (`St1` of the pair).
    pub delayed: Point,
    /// The reference element (`St2`).
    pub reference: Point,
    /// The imposed phase delay `δ = π(2r·cos α/w − 1)`.
    pub delta: f64,
}

/// RC-C2 channel rank of a cluster: anchor order for the pairing scan.
///
/// The reduced-complexity multicast selection ranks users by the metric
/// `c_k⁻¹‖h_k‖²` and scans only the pairs containing the rank-extremal
/// element, collapsing the K(K−1)/2 pair scan to K−1 per round. Here the
/// power costs `c_k` are uniform and the intra-cluster channel gain decays
/// with distance, so `‖h_k‖²` is monotone in the inverse squared distance
/// from the cluster centroid: the returned order is **best channel first**
/// (centroid-nearest), leaving the metric-extremal element — the outlying,
/// weakest-channel node — as the last anchor, and therefore as the idle
/// node when the cluster is odd (an outlier is exactly the element whose
/// wide pairing would strain the far-field delay approximation).
fn channel_rank(nodes: &[Point]) -> Vec<u32> {
    let n = nodes.len() as f64;
    let cx = nodes.iter().map(|p| p.x).sum::<f64>() / n;
    let cy = nodes.iter().map(|p| p.y).sum::<f64>() / n;
    let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let da = {
            let (dx, dy) = (nodes[a as usize].x - cx, nodes[a as usize].y - cy);
            dx * dx + dy * dy
        };
        let db = {
            let (dx, dy) = (nodes[b as usize].x - cx, nodes[b as usize].y - cy);
            dx * dx + dy * dy
        };
        da.total_cmp(&db).then(a.cmp(&b))
    });
    order
}

impl ClusterBeamformer {
    /// Pairs up the cluster's nodes: anchors are taken in RC-C2 channel
    /// rank order (`channel_rank`) and each anchor is matched with its
    /// exact nearest unpaired neighbour (short pairs keep the far-field
    /// approximation of the delay formula accurate — the formula "is
    /// accurate when the distance between St1 and Pr is much larger than
    /// the distance between St1 and St2").
    ///
    /// The neighbour search runs on a spatial bucket grid, so a whole
    /// cluster pairs in O(K) expected instead of the O(K²) scan —
    /// [`Self::pair_up_exhaustive`] keeps the scan as the pinned oracle
    /// and the two agree **exactly** (same `(distance², index)`
    /// tie-break; property-tested below). Non-finite coordinates fall
    /// back to the oracle, which orders them with `total_cmp`.
    ///
    /// # Panics
    /// If fewer than two nodes are given.
    pub fn pair_up(nodes: &[Point], wavelength: f64) -> Self {
        assert!(
            nodes.len() >= 2,
            "a beamforming cluster needs at least two nodes"
        );
        assert!(wavelength > 0.0);
        if !nodes.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
            return Self::pair_up_exhaustive(nodes, wavelength);
        }
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in nodes {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        // ~1 node per cell on average; any positive cell size is exact.
        // The box is padded by one cell so float rounding in the derived
        // cell size can never push max_x/max_y past the covered edge.
        let extent = (max_x - min_x).max(max_y - min_y);
        let cell = (extent / (nodes.len() as f64).sqrt().ceil()).max(1e-9);
        let mut grid = SpatialGrid::covering(min_x, min_y, max_x + cell, max_y + cell, cell);
        for (i, p) in nodes.iter().enumerate() {
            grid.insert(i as u32, p.x, p.y);
        }
        let mut pairs = Vec::with_capacity(nodes.len() / 2);
        let mut paired = vec![false; nodes.len()];
        let mut idle_node = None;
        for a in channel_rank(nodes) {
            if paired[a as usize] {
                continue;
            }
            let pa = nodes[a as usize];
            paired[a as usize] = true;
            grid.remove(a, pa.x, pa.y);
            match grid.nearest_matching(pa.x, pa.y, f64::INFINITY, |_| true) {
                Some((b, _)) => {
                    let pb = nodes[b as usize];
                    paired[b as usize] = true;
                    grid.remove(b, pb.x, pb.y);
                    pairs.push(TransmitPair::new(pa, pb, wavelength));
                }
                None => idle_node = Some(pa), // last anchor of an odd cluster
            }
        }
        Self {
            pairs,
            idle_node,
            wavelength,
        }
    }

    /// The exhaustive-scan oracle for [`Self::pair_up`]: identical anchor
    /// order and `(distance², index)` tie-break, nearest neighbour by a
    /// full O(K) scan per anchor — O(K²) total. Pinned on small clusters
    /// the same way `slice_fast` pins the scalar slicer.
    pub fn pair_up_exhaustive(nodes: &[Point], wavelength: f64) -> Self {
        assert!(
            nodes.len() >= 2,
            "a beamforming cluster needs at least two nodes"
        );
        assert!(wavelength > 0.0);
        let mut pairs = Vec::with_capacity(nodes.len() / 2);
        let mut paired = vec![false; nodes.len()];
        let mut idle_node = None;
        for a in channel_rank(nodes) {
            if paired[a as usize] {
                continue;
            }
            let pa = nodes[a as usize];
            paired[a as usize] = true;
            let mut best: Option<(f64, u32)> = None;
            for (j, pb) in nodes.iter().enumerate() {
                if paired[j] {
                    continue;
                }
                let (dx, dy) = (pb.x - pa.x, pb.y - pa.y);
                let d2 = dx * dx + dy * dy;
                let cand = (d2, j as u32);
                if best.is_none()
                    || cand
                        .0
                        .total_cmp(&best.unwrap().0)
                        .then(cand.1.cmp(&best.unwrap().1))
                        == std::cmp::Ordering::Less
                {
                    best = Some(cand);
                }
            }
            match best {
                Some((_, b)) => {
                    paired[b as usize] = true;
                    pairs.push(TransmitPair::new(pa, nodes[b as usize], wavelength));
                }
                None => idle_node = Some(pa),
            }
        }
        Self {
            pairs,
            idle_node,
            wavelength,
        }
    }

    /// Number of pairs — the virtual antenna count `⌊mt/2⌋`.
    pub fn n_virtual_antennas(&self) -> usize {
        self.pairs.len()
    }

    /// The pairs.
    pub fn pairs(&self) -> &[TransmitPair] {
        &self.pairs
    }

    /// Steers every pair's null toward `pr`; returns the assignments
    /// ("All pairs in C-St take the same action").
    pub fn steer(&self, pr: Point) -> Vec<PairAssignment> {
        self.pairs
            .iter()
            .map(|p| PairAssignment {
                delayed: p.st1,
                reference: p.st2,
                delta: p.null_delay_toward(pr),
            })
            .collect()
    }

    /// Total complex far field of the steered cluster toward point `p`
    /// (each pair contributing its exact two-ray field; per-pair symbol
    /// weights `weights` model the STBC symbols carried by each virtual
    /// antenna — pass all-ones for a carrier test).
    pub fn field_at(
        &self,
        p: Point,
        assignments: &[PairAssignment],
        weights: &[Complex],
    ) -> Complex {
        assert_eq!(assignments.len(), self.pairs.len());
        assert_eq!(
            weights.len(),
            self.pairs.len(),
            "one symbol weight per pair"
        );
        let k = std::f64::consts::TAU / self.wavelength;
        self.pairs
            .iter()
            .zip(assignments)
            .zip(weights)
            .map(|((pair, asg), &w)| {
                let e1 = Complex::cis(asg.delta - k * pair.st1.distance(p));
                let e2 = Complex::cis(-k * pair.st2.distance(p));
                (e1 + e2) * w
            })
            .sum()
    }

    /// Field magnitude toward `p` with unit weights.
    pub fn amplitude_at(&self, p: Point, assignments: &[PairAssignment]) -> f64 {
        let ones = vec![Complex::one(); self.pairs.len()];
        self.field_at(p, assignments, &ones).abs()
    }

    /// All member positions (paired elements plus the idle node, in
    /// pairing order).
    pub fn members(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.pairs.len() * 2 + 1);
        for p in &self.pairs {
            out.push(p.st1);
            out.push(p.st2);
        }
        if let Some(idle) = self.idle_node {
            out.push(idle);
        }
        out
    }

    /// Graceful degradation after transmitter deaths: drops the dead
    /// elements and re-pairs the survivors ("re-pair or mute orphaned
    /// null-steering transmitters"). An element whose partner died can
    /// no longer self-cancel, so it is either matched to another orphan
    /// or muted; with fewer than two survivors the whole cluster falls
    /// silent. Muting preserves the null invariant trivially — a silent
    /// element radiates nothing toward the primary.
    ///
    /// The repair is **incremental**: pairs whose both elements survive
    /// are kept verbatim (their null delays are already exact), and only
    /// the orphans — survivors of broken pairs plus the former idle node
    /// — run through the RC-C2 pairing. A burst of `D` deaths therefore
    /// costs O(D) expected, not O(K), which is what lets a K ≥ 100
    /// cluster ride a churn storm in real time.
    pub fn repair(&self, dead: &[Point]) -> BeamRepair {
        let mut intact = Vec::with_capacity(self.pairs.len());
        let mut orphans: Vec<Point> = Vec::new();
        for pair in &self.pairs {
            match (dead.contains(&pair.st1), dead.contains(&pair.st2)) {
                (false, false) => intact.push(*pair),
                (false, true) => orphans.push(pair.st1),
                (true, false) => orphans.push(pair.st2),
                (true, true) => {}
            }
        }
        if let Some(idle) = self.idle_node {
            if !dead.contains(&idle) {
                orphans.push(idle);
            }
        }
        let n_survivors = intact.len() * 2 + orphans.len();
        if n_survivors < 2 {
            return BeamRepair {
                beam: None,
                muted: n_survivors,
                lost_virtual_antennas: self.n_virtual_antennas(),
            };
        }
        let (mut pairs, idle_node) = if orphans.len() >= 2 {
            let patch = ClusterBeamformer::pair_up(&orphans, self.wavelength);
            (patch.pairs, patch.idle_node)
        } else {
            (Vec::new(), orphans.first().copied())
        };
        let mut all_pairs = intact;
        all_pairs.append(&mut pairs);
        let beam = ClusterBeamformer {
            pairs: all_pairs,
            idle_node,
            wavelength: self.wavelength,
        };
        let muted = usize::from(beam.idle_node.is_some());
        let lost = self
            .n_virtual_antennas()
            .saturating_sub(beam.n_virtual_antennas());
        BeamRepair {
            beam: Some(beam),
            muted,
            lost_virtual_antennas: lost,
        }
    }

    /// Worst-case residual amplitude at the protected primary across all
    /// STBC weight patterns: because *every* pair individually cancels at
    /// `Pr`, the residual is zero for any symbol weights; this evaluates
    /// the far-field bound used by tests.
    pub fn null_residual(&self, pr: Point, assignments: &[PairAssignment]) -> f64 {
        self.pairs
            .iter()
            .zip(assignments)
            .map(|(pair, asg)| pair.far_field_amplitude_toward(pr, asg.delta))
            .sum()
    }
}

/// Energy analysis of the interweave cluster's effective
/// `⌊mt/2⌋ × mr` MIMO link (the paper's closing instruction for
/// Algorithm 3: "perform the data transmission following the steps in
/// Algorithm 2").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterweaveLinkAnalysis {
    /// Physical transmitters `mt`.
    pub mt: usize,
    /// Virtual antennas `⌊mt/2⌋`.
    pub virtual_mt: usize,
    /// Receive nodes `mr`.
    pub mr: usize,
    /// Optimal constellation for the virtual link.
    pub b: u32,
    /// Per-bit long-haul energy of the virtual link, summed over the
    /// physical transmitters (each pair spends twice its virtual
    /// antenna's share).
    pub long_haul_total_j: f64,
    /// The same link without null-steering (all `mt` as STBC antennas) —
    /// the cost of protection is the difference.
    pub unprotected_total_j: f64,
}

impl InterweaveLinkAnalysis {
    /// Multiplicative energy cost of the null constraint.
    pub fn protection_overhead(&self) -> f64 {
        self.long_haul_total_j / self.unprotected_total_j
    }
}

/// Analyses the interweave link: `mt` physical transmitters protecting a
/// primary while sending to `mr` receivers over `d_m` metres at target
/// BER `ber`.
pub fn analyze_interweave_link(
    model: &EnergyModel,
    mt: usize,
    mr: usize,
    ber: f64,
    bandwidth_hz: f64,
    block_bits: f64,
    d_m: f64,
) -> InterweaveLinkAnalysis {
    assert!(mt >= 2, "pairwise nulling needs at least two transmitters");
    assert!((1..=4).contains(&mr));
    let virtual_mt = (mt / 2).clamp(1, 4);
    // protected: ⌊mt/2⌋ virtual antennas, each realised by 2 transmitters
    let protected = minimize_over_b(1, 16, |b| {
        let p = LinkParams::new(ber, b, bandwidth_hz, block_bits);
        // per virtual antenna the pair radiates 2 element waves that add
        // coherently toward the receiver; energy bookkeeping charges both
        // physical PAs
        2.0 * virtual_mt as f64 * model.e_mimot(&p, virtual_mt, mr, d_m)
    });
    let unprotected = minimize_over_b(1, 16, |b| {
        let p = LinkParams::new(ber, b, bandwidth_hz, block_bits);
        mt as f64 * model.e_mimot(&p, mt.min(4), mr, d_m)
    });
    InterweaveLinkAnalysis {
        mt,
        virtual_mt,
        mr,
        b: protected.b,
        long_haul_total_j: protected.energy,
        unprotected_total_j: unprotected.energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    const W: f64 = 0.1199;

    fn square_cluster() -> Vec<Point> {
        // four nodes on a small square, side w/2
        let s = W / 2.0;
        vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, s),
            Point::new(5.0, 0.0),
            Point::new(5.0, s),
        ]
    }

    #[test]
    fn pairing_matches_nearest_neighbours() {
        let bf = ClusterBeamformer::pair_up(&square_cluster(), W);
        assert_eq!(bf.n_virtual_antennas(), 2);
        assert!(bf.idle_node.is_none());
        // each pair spans the short (w/2) side, not the 5 m gap
        for p in bf.pairs() {
            assert!(p.separation() < 1.0, "pair separation {}", p.separation());
        }
    }

    #[test]
    fn odd_cluster_leaves_one_idle() {
        let mut nodes = square_cluster();
        nodes.push(Point::new(10.0, 10.0));
        let bf = ClusterBeamformer::pair_up(&nodes, W);
        assert_eq!(bf.n_virtual_antennas(), 2);
        assert_eq!(bf.idle_node, Some(Point::new(10.0, 10.0)));
    }

    #[test]
    fn every_pair_cancels_toward_the_primary() {
        let bf = ClusterBeamformer::pair_up(&square_cluster(), W);
        let pr = Point::new(-80.0, 150.0);
        let asg = bf.steer(pr);
        assert!(bf.null_residual(pr, &asg) < 1e-8);
    }

    #[test]
    fn cluster_null_holds_for_any_symbol_weights() {
        // the STBC symbols riding the virtual antennas cannot re-open the
        // null: each pair cancels independently of its weight
        let bf = ClusterBeamformer::pair_up(&square_cluster(), W);
        let pr = Point::new(200.0, -45.0);
        let asg = bf.steer(pr);
        let mut rng = comimo_math::rng::seeded(5);
        for _ in 0..10 {
            let weights: Vec<Complex> = (0..bf.n_virtual_antennas())
                .map(|_| comimo_math::rng::complex_gaussian(&mut rng, 1.0))
                .collect();
            // evaluate the exact field at the (distant) primary
            let f = bf.field_at(pr, &asg, &weights);
            assert!(f.abs() < 0.05, "field at Pr: {}", f.abs());
        }
    }

    #[test]
    fn cluster_keeps_gain_toward_the_receiver() {
        let bf = ClusterBeamformer::pair_up(&square_cluster(), W);
        let pr = Point::new(0.0, 300.0);
        let sr = Point::new(300.0, 0.0);
        let asg = bf.steer(pr);
        let amp = bf.amplitude_at(sr, &asg);
        // two pairs × up to 2 per pair = up to 4; demand well above SISO
        assert!(amp > 1.5, "amplitude toward Sr: {amp}");
    }

    #[test]
    fn repair_repairs_and_keeps_the_null() {
        let bf = ClusterBeamformer::pair_up(&square_cluster(), W);
        let pr = Point::new(-120.0, 90.0);
        // kill one element: its partner becomes an orphan and must be
        // re-matched with a survivor or muted
        let dead = [square_cluster()[1]];
        let rep = bf.repair(&dead);
        let beam = rep.beam.expect("three survivors re-pair");
        assert_eq!(beam.n_virtual_antennas(), 1);
        assert_eq!(rep.muted, 1, "odd survivor is muted");
        assert_eq!(rep.lost_virtual_antennas, 1);
        // the re-paired cluster still steers a clean null
        let asg = beam.steer(pr);
        assert!(beam.null_residual(pr, &asg) < 1e-8);
    }

    #[test]
    fn repair_below_two_survivors_falls_silent() {
        let nodes = square_cluster();
        let bf = ClusterBeamformer::pair_up(&nodes, W);
        let rep = bf.repair(&nodes[..3]);
        assert!(rep.beam.is_none());
        assert_eq!(rep.muted, 1);
        assert_eq!(rep.lost_virtual_antennas, 2);
        let all = bf.repair(&nodes);
        assert!(all.beam.is_none());
        assert_eq!(all.muted, 0);
    }

    #[test]
    fn repair_of_odd_cluster_keeps_unpaired_transmitter_silent() {
        // a 5-node cluster starts with one idle (unpaired) transmitter;
        // killing one *paired* element leaves 4 survivors — the orphan and
        // the old idle node re-pair, no one is left muted, and the null at
        // the primary survives the re-pairing
        let mut nodes = square_cluster();
        nodes.push(Point::new(10.0, 10.0));
        let bf = ClusterBeamformer::pair_up(&nodes, W);
        assert_eq!(bf.n_virtual_antennas(), 2);
        assert!(bf.idle_node.is_some(), "odd cluster starts with an idle");
        let pr = Point::new(-150.0, 200.0);

        let rep = bf.repair(&[nodes[0]]);
        let beam = rep.beam.expect("four survivors re-pair");
        assert_eq!(beam.n_virtual_antennas(), 2);
        assert_eq!(rep.muted, 0, "even survivor count: everyone pairs");
        assert_eq!(rep.lost_virtual_antennas, 0);
        let asg = beam.steer(pr);
        assert!(beam.null_residual(pr, &asg) < 1e-8);

        // killing the idle node instead costs nothing: the pairs stand
        let rep_idle = bf.repair(&[Point::new(10.0, 10.0)]);
        let beam_idle = rep_idle.beam.expect("both pairs survive");
        assert_eq!(beam_idle.n_virtual_antennas(), 2);
        assert_eq!(rep_idle.muted, 0);
        assert_eq!(rep_idle.lost_virtual_antennas, 0);
        assert!(beam_idle.idle_node.is_none());

        // killing two paired elements leaves 3 survivors: one re-pair,
        // one orphan muted — the unpaired transmitter must stay silent
        let rep3 = bf.repair(&[nodes[0], nodes[2]]);
        let beam3 = rep3.beam.expect("three survivors re-pair");
        assert_eq!(beam3.n_virtual_antennas(), 1);
        assert_eq!(rep3.muted, 1, "odd survivor is muted, not transmitting");
        assert!(beam3.idle_node.is_some());
        let asg3 = beam3.steer(pr);
        assert!(beam3.null_residual(pr, &asg3) < 1e-8);
    }

    #[test]
    fn repair_with_no_deaths_is_identity_shaped() {
        let bf = ClusterBeamformer::pair_up(&square_cluster(), W);
        let rep = bf.repair(&[]);
        let beam = rep.beam.expect("full cluster");
        assert_eq!(beam.n_virtual_antennas(), bf.n_virtual_antennas());
        assert_eq!(rep.muted, 0);
        assert_eq!(rep.lost_virtual_antennas, 0);
    }

    #[test]
    fn energy_analysis_shapes() {
        let model = EnergyModel::paper();
        let a = analyze_interweave_link(&model, 4, 2, 1e-3, 40_000.0, 1e4, 200.0);
        assert_eq!(a.virtual_mt, 2);
        assert!(a.long_haul_total_j > 0.0);
        assert!(a.unprotected_total_j > 0.0);
        // protection costs something but not an order of magnitude: a
        // 2x2 virtual link with doubled PAs vs a 4x2 physical link
        let o = a.protection_overhead();
        assert!(o > 0.8 && o < 10.0, "overhead {o}");
    }

    #[test]
    fn more_receivers_cheapen_the_protected_link() {
        let model = EnergyModel::paper();
        let a1 = analyze_interweave_link(&model, 4, 1, 1e-3, 40_000.0, 1e4, 200.0);
        let a3 = analyze_interweave_link(&model, 4, 3, 1e-3, 40_000.0, 1e4, 200.0);
        assert!(a3.long_haul_total_j < a1.long_haul_total_j);
    }

    #[test]
    #[should_panic]
    fn single_node_cannot_self_cancel() {
        let _ = analyze_interweave_link(&EnergyModel::paper(), 1, 1, 1e-3, 40_000.0, 1e4, 100.0);
    }

    #[test]
    fn rc2_grid_pairing_matches_the_exhaustive_oracle() {
        // deterministic randomized soak beyond the proptest: scattered
        // clusters of every parity, fast path vs pinned O(K²) oracle
        let mut rng = comimo_math::rng::derive(0xBEA3, 7);
        for round in 0..200u64 {
            let n = 2 + (round % 13) as usize;
            let nodes: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
                .collect();
            let fast = ClusterBeamformer::pair_up(&nodes, W);
            let slow = ClusterBeamformer::pair_up_exhaustive(&nodes, W);
            assert_eq!(fast.pairs, slow.pairs, "round {round}: pair lists diverge");
            assert_eq!(
                fast.idle_node, slow.idle_node,
                "round {round}: idle diverges"
            );
        }
    }

    #[test]
    fn large_cluster_pairs_and_repairs_incrementally() {
        // a K = 128 interweave cluster: RC-C2 pairs it, the null holds,
        // and a small death burst re-pairs only the orphans
        let nodes: Vec<Point> = (0..128)
            .map(|i| Point::new((i / 2) as f64 * 4.0, (i % 2) as f64 * (W / 2.0)))
            .collect();
        let bf = ClusterBeamformer::pair_up(&nodes, W);
        assert_eq!(bf.n_virtual_antennas(), 64);
        assert!(bf.idle_node.is_none());
        assert_eq!(
            bf.pairs,
            ClusterBeamformer::pair_up_exhaustive(&nodes, W).pairs
        );
        let pr = Point::new(5e4, -3e4);
        let asg = bf.steer(pr);
        assert!(bf.null_residual(pr, &asg) < 1e-6);

        // kill two elements from different pairs: their partners re-pair,
        // every untouched pair is carried over verbatim
        let dead = [nodes[10], nodes[40]];
        let rep = bf.repair(&dead);
        let beam = rep.beam.expect("126 survivors");
        assert_eq!(beam.n_virtual_antennas(), 63);
        assert_eq!(rep.muted, 0);
        assert_eq!(rep.lost_virtual_antennas, 1);
        let kept = bf.pairs.iter().filter(|p| beam.pairs.contains(p)).count();
        assert_eq!(kept, 62, "intact pairs survive the repair untouched");
        let asg2 = beam.steer(pr);
        assert!(beam.null_residual(pr, &asg2) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "coincident transmitters")]
    fn nan_coordinates_still_refuse_a_pair() {
        // non-finite coordinates skip the spatial grid (which demands
        // finite points) and reach the same TransmitPair::new guard the
        // scan-based pairing always hit
        let nodes = [
            Point::new(f64::NAN, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 0.0),
        ];
        let _ = ClusterBeamformer::pair_up(&nodes, W);
    }
}
