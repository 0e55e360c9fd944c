//! Spectrum sharing end to end: sensing, selection, and the three ways in.
//!
//! ```bash
//! cargo run --release --example spectrum_sharing
//! ```
//!
//! A secondary cluster faces an environment of licensed channels with
//! different occupancies and primary-receiver geometries. Each channel's
//! primary follows a slotted Markov ON/OFF chain; the head senses every
//! slot with the sensing crate's energy detector (16-sample CFAR at 10 %
//! false alarm), then each paradigm makes its move:
//!
//! * classic interweave picks the idlest channel;
//! * the paper's nulling interweave picks the *geometrically best* PU —
//!   even a busy channel works, because the pair (or the whole cluster,
//!   via `⌊mt/2⌋` pairs) steers a null onto its receiver;
//! * underlay checks the noise-floor margin instead.

use comimo::channel::geometry::Point;
use comimo::core::cluster_beam::{analyze_interweave_link, ClusterBeamformer};
use comimo::core::pu::PrimaryPair;
use comimo::core::underlay::{Underlay, UnderlayConfig};
use comimo::energy::model::EnergyModel;
use comimo::sensing::select::{occupancy, pick_for_nulling, pick_idlest};
use comimo::sensing::{MarkovOnOff, SensingRound};

fn main() {
    // ---------------- the licensed environment ----------------
    let st_head = Point::origin();
    let sr = Point::new(120.0, 0.0);
    let channels = vec![
        (
            PrimaryPair::new(Point::new(-200.0, 50.0), Point::new(160.0, 20.0), 0),
            MarkovOnOff::new(0.2, 0.05), // 80 % busy, receiver near the Sr line
        ),
        (
            PrimaryPair::new(Point::new(100.0, 300.0), Point::new(10.0, 170.0), 1),
            MarkovOnOff::new(0.1, 0.1), // 50 % busy, receiver perpendicular
        ),
        (
            PrimaryPair::new(Point::new(-300.0, -300.0), Point::new(-80.0, -60.0), 2),
            MarkovOnOff::new(0.02, 0.18), // 10 % busy
        ),
    ];
    let pus: Vec<PrimaryPair> = channels.iter().map(|(pu, _)| *pu).collect();
    // primaries arrive 20 dB above the noise at the head
    let n_slots = 2_000;
    let est = occupancy(&SensingRound::paper(100.0), &channels, 99, n_slots)
        .expect("paper sensing round is valid");
    println!("sensed occupancy over {n_slots} slots:");
    for e in &est {
        println!(
            "  channel {}: busy {:5.1}% (true duty {:4.0}%)",
            e.channel,
            e.busy_fraction * 100.0,
            e.true_duty * 100.0
        );
    }

    let idle_pick = pick_idlest(&est).expect("environment has channels");
    let null_pick = pick_for_nulling(&pus, st_head, sr).expect("environment has channels");
    println!("\nclassic interweave picks channel {idle_pick} (the idlest)");
    println!("nulling interweave picks channel {null_pick} (best geometry, busy is fine)\n");

    // ---------------- steer the cluster at the picked PU ----------------
    let w = 0.1199;
    let cluster_nodes = vec![
        Point::new(0.0, 0.0),
        Point::new(0.0, w / 2.0),
        Point::new(3.0, 0.0),
        Point::new(3.0, w / 2.0),
    ];
    let bf = ClusterBeamformer::pair_up(&cluster_nodes, w);
    let target_pr = pus[null_pick].rx;
    let asg = bf.steer(target_pr);
    println!(
        "4-node cluster -> {} virtual antennas; field at the protected Pr: {:.2e}",
        bf.n_virtual_antennas(),
        bf.amplitude_at(target_pr, &asg)
    );
    println!(
        "field toward the secondary receiver: {:.2} (SISO = 1.0)\n",
        bf.amplitude_at(sr, &asg)
    );

    // the energy price of protection: the virtual link vs the raw one
    let model = EnergyModel::paper();
    let link = analyze_interweave_link(&model, 4, 2, 1e-3, 40_000.0, 1e4, st_head.distance(sr));
    println!(
        "interweave link 4 tx -> 2 rx over {:.0} m: {} virtual antennas, b = {}",
        st_head.distance(sr),
        link.virtual_mt,
        link.b
    );
    println!(
        "  protected: {:.3e} J/bit   unprotected: {:.3e} J/bit   overhead {:.2}x\n",
        link.long_haul_total_j,
        link.unprotected_total_j,
        link.protection_overhead()
    );

    // ---------------- or go underlay instead ----------------
    let u = Underlay::new(&model, UnderlayConfig::paper(2, 3, 10_000.0));
    let a = u.analyze(st_head.distance(sr));
    let pl = comimo::channel::pathloss::SquareLawLongHaul::paper_defaults();
    println!("underlay alternative (2x3 hop over the same distance):");
    for pu in &pus {
        let d = st_head.distance(pu.rx);
        println!(
            "  margin below noise floor at channel {}'s Pr ({:>3.0} m away): {:+.1} dB",
            pu.channel,
            d,
            u.noise_floor_margin_db(&a, &pl, d)
        );
    }
}
