//! Integration tests for the extension layer: cluster beamforming,
//! channel selection from the sensing crate, the extended energy model
//! and the acquiring receiver — all through the `comimo` facade.

use comimo::channel::geometry::Point;
use comimo::core::cluster_beam::ClusterBeamformer;
use comimo::core::pu::PrimaryPair;
use comimo::energy::extended::{ExtendedEnergyModel, ProcessingBlocks};
use comimo::energy::model::{EnergyModel, LinkParams};
use comimo::math::rng::seeded;
use comimo::sensing::select::{occupancy, pick_for_nulling};
use comimo::sensing::{MarkovOnOff, SensingRound};

/// The full interweave pipeline: sense → pick → pair → steer → verify the
/// null at the chosen PU and the gain toward the data receiver.
#[test]
fn sense_pick_steer_pipeline() {
    let sr = Point::new(150.0, 0.0);
    let channels = vec![
        (
            PrimaryPair::new(Point::new(-100.0, 0.0), Point::new(200.0, 10.0), 0),
            MarkovOnOff::new(0.06, 0.09),
        ),
        (
            PrimaryPair::new(Point::new(50.0, 250.0), Point::new(-20.0, 180.0), 1),
            MarkovOnOff::new(0.09, 0.06),
        ),
    ];
    let est =
        occupancy(&SensingRound::paper(100.0), &channels, 301, 1_000).expect("valid sensing spec");
    assert_eq!(est.len(), 2);
    let pus: Vec<PrimaryPair> = channels.iter().map(|(pu, _)| *pu).collect();
    let w = 0.1199;
    let nodes = vec![
        Point::new(0.0, 0.0),
        Point::new(0.0, w / 2.0),
        Point::new(2.0, 0.0),
        Point::new(2.0, w / 2.0),
    ];
    let bf = ClusterBeamformer::pair_up(&nodes, w);
    let picked = pick_for_nulling(&pus, nodes[0], sr).expect("environment has channels");
    let pr = pus[picked].rx;
    let asg = bf.steer(pr);
    // the picked PU's receiver is protected...
    assert!(
        bf.amplitude_at(pr, &asg) < 0.05,
        "null {}",
        bf.amplitude_at(pr, &asg)
    );
    // ...while the secondary receiver keeps array gain over SISO
    assert!(
        bf.amplitude_at(sr, &asg) > 1.3,
        "gain {}",
        bf.amplitude_at(sr, &asg)
    );
}

/// The extended energy model plugged into a full route cost: a coded
/// network spends less energy end-to-end at long range.
#[test]
fn extended_model_reduces_long_route_cost() {
    let p = LinkParams::new(1e-3, 2, 40_000.0, 1e4);
    let raw = ExtendedEnergyModel::paper_base();
    let coded = ExtendedEnergyModel::new(
        EnergyModel::paper(),
        ProcessingBlocks {
            channel_code_rate: 0.5,
            coding_gain_db: 4.0,
            channel_codec_j_per_bit: 2e-9,
            ..ProcessingBlocks::none()
        },
    );
    // a 3-hop route of 400 m SISO hops: the PA term dominates there, so
    // the 4 dB coding gain outweighs the rate-1/2 air-time expansion
    // (a 2x2 cooperative hop at short range is already so PA-cheap that
    // coding would not pay — covered by the unit tests)
    let route = |m: &ExtendedEnergyModel| 3.0 * (m.e_mimot(&p, 1, 1, 400.0) + m.e_mimor(&p));
    assert!(
        route(&coded) < route(&raw),
        "coded {:.3e} vs raw {:.3e}",
        route(&coded),
        route(&raw)
    );
}

/// The acquiring receiver survives an unknown complex gain, a timing
/// offset and noise. The gain is one block-Rayleigh coefficient held
/// over the burst: at 250 kS/s a few-hertz Doppler barely rotates it
/// within one burst.
#[test]
fn acquiring_receiver_over_composed_channel() {
    use comimo::channel::{BlockRayleigh, FadingChannel};
    use comimo::math::complex::Complex;
    use comimo::testbed::sync_rx::{BurstRx, BurstTx};

    let mut rng = seeded(305);
    let tx = BurstTx::new();
    let rx = BurstRx::new();
    let payload: Vec<u8> = (0..80u8).collect();
    let burst = tx.transmit(&payload);
    let h = BlockRayleigh::unit().sample_coeff(&mut rng);
    let mut air: Vec<Complex> = (0..64)
        .map(|_| comimo::math::rng::complex_gaussian(&mut rng, 1e-3))
        .collect();
    air.extend(
        burst
            .iter()
            .map(|&s| s * h * 3.0 + comimo::math::rng::complex_gaussian(&mut rng, 1e-3)),
    );
    assert_eq!(rx.receive(&air), Some(payload));
}
