//! Property-based tests (proptest) on the core invariants, spanning
//! crates through the public API.

use comimo::channel::geometry::{angle_at_vertex, Point};
use comimo::core::interweave::{pair_amplitude, phase_delay, TransmitPair};
use comimo::dsp::bits::{bits_to_bytes, bytes_to_bits};
use comimo::dsp::crc::{append_crc, check_and_strip_crc};
use comimo::energy::ebar::EbarSolver;
use comimo::math::complex::Complex;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit/byte packing is a lossless round trip for any byte string.
    #[test]
    fn prop_bits_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    /// CRC framing accepts exactly the uncorrupted payload.
    #[test]
    fn prop_crc_roundtrip_and_detection(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        flip_byte in 0usize..128,
        flip_bit in 0u8..8,
    ) {
        let framed = append_crc(data.clone());
        prop_assert_eq!(check_and_strip_crc(&framed), Some(data.as_slice()));
        let idx = flip_byte % framed.len();
        let mut bad = framed.clone();
        bad[idx] ^= 1 << flip_bit;
        prop_assert!(check_and_strip_crc(&bad).is_none());
    }

    /// Complex field axioms (within floating-point tolerance).
    #[test]
    fn prop_complex_field(
        ar in -1e3f64..1e3, ai in -1e3f64..1e3,
        br in -1e3f64..1e3, bi in -1e3f64..1e3,
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        prop_assert!((a + b - b).approx_eq(a, 1e-9));
        prop_assert!((a * b).approx_eq(b * a, 1e-6));
        if b.norm_sqr() > 1e-6 {
            prop_assert!((a * b / b).approx_eq(a, 1e-6 * (1.0 + a.abs())));
        }
        // |ab| = |a||b|
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-6 * (1.0 + a.abs() * b.abs()));
    }

    /// The paper's phase-delay formula cancels the pair's far field toward
    /// ANY primary direction and ANY sub-wavelength separation.
    #[test]
    fn prop_null_steering_always_cancels(
        sep_frac in 0.05f64..1.5,     // r / w
        bearing in 0.0f64..std::f64::consts::TAU,
        dist in 50.0f64..5_000.0,
    ) {
        let w = 0.1199;
        let pair = TransmitPair::new(
            Point::new(0.0, sep_frac * w / 2.0),
            Point::new(0.0, -sep_frac * w / 2.0),
            w,
        );
        let pr = Point::new(dist * bearing.cos(), dist * bearing.sin());
        let delta = pair.null_delay_toward(pr);
        prop_assert!(pair.far_field_amplitude_toward(pr, delta) < 1e-8);
    }

    /// `pair_amplitude` is bounded by the triangle inequality.
    #[test]
    fn prop_pair_amplitude_bounds(
        g1 in 0.0f64..10.0,
        g2 in 0.0f64..10.0,
        delta in -10.0f64..10.0,
    ) {
        let a = pair_amplitude(g1, g2, delta);
        prop_assert!(a <= g1 + g2 + 1e-9);
        prop_assert!(a >= (g1 - g2).abs() - 1e-9);
    }

    /// The phase delay formula at α and −α agree (cos is even): steering
    /// is symmetric about the pair axis.
    #[test]
    fn prop_phase_delay_even_in_alpha(r in 0.01f64..1.0, alpha in 0.0f64..std::f64::consts::PI) {
        let w = 0.1199;
        prop_assert!((phase_delay(r, alpha, w) - phase_delay(r, -alpha, w)).abs() < 1e-12);
    }

    /// Angles at a vertex are always in [0, π] and symmetric in their
    /// outer arguments.
    #[test]
    fn prop_vertex_angle_range_and_symmetry(
        ax in -100.0f64..100.0, ay in -100.0f64..100.0,
        cx in -100.0f64..100.0, cy in -100.0f64..100.0,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(0.5, -0.25);
        let c = Point::new(cx, cy);
        prop_assume!(a.distance(b) > 1e-6 && c.distance(b) > 1e-6);
        let t = angle_at_vertex(a, b, c);
        prop_assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&t));
        prop_assert!((t - angle_at_vertex(c, b, a)).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `ē_b` solver round-trips through its forward map for arbitrary
    /// targets and antenna configurations.
    #[test]
    fn prop_ebar_roundtrip(
        p_exp in 1.5f64..7.0,           // BER 10^-1.5 .. 10^-7
        b in 1u32..17,
        mt in 1usize..5,
        mr in 1usize..5,
    ) {
        let p = 10f64.powf(-p_exp);
        let solver = EbarSolver::paper();
        let e = solver.solve(p, b, mt, mr);
        let back = solver.forward(e, b, mt, mr);
        prop_assert!((back - p).abs() / p < 1e-5, "p={p}, back={back}");
        // more energy strictly helps
        prop_assert!(solver.forward(e * 2.0, b, mt, mr) < p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The spatial hash-grid answers neighbour and nearest queries
    /// exactly like a brute-force O(N²) scan, through any interleaving
    /// of joins, deaths and moves.
    #[test]
    fn prop_spatial_grid_matches_brute_force(
        xs in proptest::collection::vec(0.0f64..500.0, 1..40),
        ys in proptest::collection::vec(0.0f64..500.0, 40..41),
        op_idx in proptest::collection::vec(0usize..40, 0..30),
        op_x in proptest::collection::vec(0.0f64..500.0, 30..31),
        op_y in proptest::collection::vec(0.0f64..500.0, 30..31),
        op_kill in proptest::collection::vec(any::<bool>(), 30..31),
        qx in 0.0f64..500.0,
        qy in 0.0f64..500.0,
        radius in 1.0f64..200.0,
    ) {
        use comimo::net::grid::SpatialGrid;
        let mut grid = SpatialGrid::new(500.0, 500.0, 40.0);
        let mut mirror: Vec<Option<(f64, f64)>> = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            grid.insert(i as u32, x, ys[i]);
            mirror.push(Some((x, ys[i])));
        }
        for (k, &i) in op_idx.iter().enumerate() {
            let i = i % mirror.len();
            let (x, y, kill) = (op_x[k], op_y[k], op_kill[k]);
            match (mirror[i], kill) {
                (Some((ox, oy)), true) => {
                    prop_assert!(grid.remove(i as u32, ox, oy));
                    mirror[i] = None;
                }
                (Some((ox, oy)), false) => {
                    grid.relocate(i as u32, ox, oy, x, y);
                    mirror[i] = Some((x, y));
                }
                (None, _) => {
                    grid.insert(i as u32, x, y);
                    mirror[i] = Some((x, y));
                }
            }
        }
        // canonical neighbour set == brute force over the mirror
        let mut got = Vec::new();
        grid.neighbours_within(qx, qy, radius, &mut got);
        let mut want: Vec<u32> = mirror
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some_and(|(x, y)| {
                let (dx, dy) = (x - qx, y - qy);
                dx * dx + dy * dy <= radius * radius
            }))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(&got, &want);
        // exact nearest with the (d², id) tie-break == brute force
        let nearest = grid.nearest_matching(qx, qy, f64::INFINITY, |_| true);
        let brute = mirror
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|(x, y)| {
                let (dx, dy) = (x - qx, y - qy);
                (dx * dx + dy * dy, i as u32)
            }))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        prop_assert_eq!(nearest, brute.map(|(d2, id)| (id, d2)));
    }

    /// RC-C2 grid-accelerated pairing produces the exact pair list and
    /// idle node of the exhaustive oracle on every small cluster.
    #[test]
    fn prop_rc2_pairing_matches_exhaustive_oracle(
        xs in proptest::collection::vec(-50.0f64..50.0, 2..13),
        ys in proptest::collection::vec(-50.0f64..50.0, 13..14),
    ) {
        use comimo::core::cluster_beam::ClusterBeamformer;
        let pts: Vec<Point> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| Point::new(x, ys[i]))
            .collect();
        let fast = ClusterBeamformer::pair_up(&pts, 0.1199);
        let oracle = ClusterBeamformer::pair_up_exhaustive(&pts, 0.1199);
        prop_assert_eq!(fast.pairs(), oracle.pairs());
        prop_assert_eq!(fast.idle_node, oracle.idle_node);
        prop_assert_eq!(fast.n_virtual_antennas(), pts.len() / 2);
    }
}
