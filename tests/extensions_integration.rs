//! Integration test for the extension layer: cluster beamforming steered
//! at the channel the sensing crate picks, through the `comimo` facade.

use comimo::channel::geometry::Point;
use comimo::core::cluster_beam::ClusterBeamformer;
use comimo::core::pu::PrimaryPair;
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
