//! Property-based tests over the signal chain: modems, framing, FEC,
//! pulse shaping, STBC and the discrete-event engine.

use comimo::dsp::fec::{conv_decode_hard, conv_encode};
use comimo::dsp::frame::FrameCodec;
use comimo::dsp::gmsk::GmskModem;
use comimo::dsp::modem::Bpsk;
use comimo::math::complex::Complex;
use comimo::sim::{ShardedEventQueue, SimTime};
use comimo::stbc::design::{Ostbc, StbcKind};
use proptest::prelude::*;

fn arb_bits(max: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The BPSK modem is a lossless bit round trip.
    #[test]
    fn prop_modem_roundtrips(bits in arb_bits(256)) {
        prop_assert_eq!(Bpsk.demodulate(&Bpsk.modulate(&bits)), bits);
    }

    /// GMSK round-trips any bit pattern through an arbitrary complex gain.
    #[test]
    fn prop_gmsk_roundtrip_under_gain(
        bits in arb_bits(192),
        gain_db in -30.0f64..10.0,
        phase in 0.0f64..6.25,
    ) {
        let modem = GmskModem::gnuradio_default();
        let wave = modem.modulate(&bits);
        let g = Complex::from_polar(comimo::math::db::db_to_lin_amplitude(gain_db), phase);
        let rx: Vec<Complex> = wave.iter().map(|&s| s * g).collect();
        let back = modem.demodulate(&rx, bits.len());
        prop_assert_eq!(back, bits);
    }

    /// The frame codec accepts what it encodes and rejects any single-bit
    /// payload corruption.
    #[test]
    fn prop_frame_roundtrip_and_rejection(
        payload in proptest::collection::vec(any::<u8>(), 1..96),
        flip in any::<u16>(),
    ) {
        let codec = FrameCodec::new();
        let bits = codec.encode(&payload);
        prop_assert_eq!(codec.decode(&bits).unwrap().payload, payload.clone());
        // flip one bit past the preamble
        let idx = 64 + (flip as usize % (bits.len() - 64));
        let mut bad = bits.clone();
        bad[idx] = !bad[idx];
        let got = codec.decode(&bad);
        prop_assert!(got.is_none() || got.unwrap().payload != payload);
    }

    /// The convolutional code corrects any two bit errors that are at
    /// least a constraint length apart.
    #[test]
    fn prop_conv_code_corrects_spread_errors(
        bits in arb_bits(160),
        e1 in any::<u16>(),
        gap in 20u16..500,
    ) {
        let mut coded = conv_encode(&bits);
        let i1 = e1 as usize % coded.len();
        let i2 = (i1 + gap as usize) % coded.len();
        coded[i1] = !coded[i1];
        if i2 != i1 && (i2 as isize - i1 as isize).unsigned_abs() >= 14 {
            coded[i2] = !coded[i2];
        }
        prop_assert_eq!(conv_decode_hard(&coded, bits.len()), bits);
    }

    /// Every OSTBC design round-trips arbitrary complex symbols through a
    /// random nonzero channel, noiselessly.
    #[test]
    fn prop_ostbc_roundtrip(
        seed in any::<u64>(),
        kind_idx in 0usize..6,
        mr in 1usize..3,
    ) {
        let kind = [
            StbcKind::Siso,
            StbcKind::Alamouti,
            StbcKind::G3,
            StbcKind::G4,
            StbcKind::H3,
            StbcKind::H4,
        ][kind_idx];
        let code = Ostbc::new(kind);
        let mut rng = comimo::math::rng::seeded(seed);
        let h = comimo::math::cmatrix::CMatrix::from_fn(mr, code.n_tx(), |_, _| {
            comimo::math::rng::complex_gaussian(&mut rng, 1.0)
        });
        prop_assume!(h.frobenius_norm_sqr() > 1e-3);
        let syms: Vec<Complex> = (0..code.n_symbols())
            .map(|_| comimo::math::rng::complex_gaussian(&mut rng, 1.0))
            .collect();
        let y = &code.encode(&syms) * &h.transpose();
        let est = comimo::stbc::decode::decode_block(&code, &h, &y);
        for (e, s) in est.iter().zip(&syms) {
            prop_assert!(e.approx_eq(*s, 1e-6), "{kind:?}: {e} vs {s}");
        }
    }

    /// The one-shard event queue (the MAC's, recruitment's and the fault
    /// injector's scheduler) pops in nondecreasing time order with FIFO
    /// ties, regardless of insertion order.
    #[test]
    fn prop_event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..64)) {
        let mut q = ShardedEventQueue::new(1);
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(0, SimTime::from_nanos(t), 0, i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some((key, i)) = q.pop() {
            popped.push((key.at, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Clustering invariants hold for arbitrary random deployments.
    #[test]
    fn prop_clustering_invariants(seed in any::<u64>(), n in 2usize..60) {
        use comimo::net::cluster::{d_clustering, validate_clustering};
        use comimo::net::graph::SuGraph;
        use comimo::net::node::random_deployment;
        let mut rng = comimo::math::rng::seeded(seed);
        let nodes = random_deployment(&mut rng, n, 300.0, 300.0, 1.0);
        let g = SuGraph::build(nodes, 60.0);
        let clusters = d_clustering(&g, 30.0, 4);
        prop_assert!(validate_clustering(&g, &clusters, 30.0).is_ok());
    }
}
