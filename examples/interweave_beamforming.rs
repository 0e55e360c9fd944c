//! Interweave scenario: pairwise null-steering around an active primary.
//!
//! ```bash
//! cargo run --release --example interweave_beamforming
//! ```
//!
//! A secondary pair shares an active primary's band by steering a transmit
//! null onto the primary receiver (Algorithm 3). The example picks the PU
//! with the paper's heuristic, steers, sweeps the resulting pattern as an
//! ASCII polar plot, and runs the Figure-8 testbed scan.

use comimo::channel::geometry::Point;
use comimo::core::interweave::{run_table1, InterweaveConfig, TransmitPair};
use comimo::sensing::MarkovOnOff;
use comimo::testbed::experiments::beam_scan::{self, BeamScanConfig};

fn main() {
    // ---------------- when is the channel even occupied? ----------------
    let activity = MarkovOnOff::new(0.05, 0.15);
    let slots = activity.sample_states(7, 0, 20_000);
    let busy = slots.iter().filter(|&&on| on).count() as f64 / slots.len() as f64;
    println!(
        "primary duty cycle {:.0}% (measured {:.0}% over {} slots) — interweave shares\n\
         the band even while the PU is ON, by spatial nulling:\n",
        activity.stationary_on() * 100.0,
        busy * 100.0,
        slots.len()
    );

    // ---------------- steer a null and sweep the pattern ----------------
    let pair = TransmitPair::paper_table1(0.1199);
    let pr = Point::new(40.0, 90.0); // the primary receiver to protect
    let delta = pair.null_delay_toward(pr);
    println!(
        "pair separation r = w/2; null steered toward Pr at {:?}",
        (pr.x, pr.y)
    );
    println!("imposed phase delay on St1: {delta:.4} rad\n");
    println!("far-field pattern (0 deg = +x axis; * = amplitude, max 2):");
    for deg in (0..360).step_by(15) {
        let th = (deg as f64).to_radians();
        let amp = pair.pattern_at_angle(th, 2_000.0, delta);
        let bars = (amp * 20.0).round() as usize;
        println!("  {deg:>3} deg | {:<40} {amp:.2}", "*".repeat(bars));
    }
    let pr_bearing = pair.st1.midpoint(pair.st2).bearing_to(pr).to_degrees();
    println!("  (the null sits at the Pr bearing, {pr_bearing:.0} deg)\n");

    // ---------------- the Table-1 experiment ----------------
    println!("Table-1 style trials (20 candidate PUs per trial, pick + steer):");
    let rows = run_table1(2013, &InterweaveConfig::paper());
    for (i, t) in rows.iter().enumerate() {
        println!(
            "  trial {:>2}: picked Pr ({:>4.0},{:>4.0})  amplitude at Sr = {:.2}  null residual {:.1e}",
            i + 1,
            t.picked_pr.x,
            t.picked_pr.y,
            t.amplitude,
            t.null_residual
        );
    }
    let mean: f64 = rows.iter().map(|t| t.amplitude).sum::<f64>() / rows.len() as f64;
    println!("  mean amplitude {mean:.2} (paper: 1.87; SISO = 1.0)\n");

    // ---------------- the Figure-8 testbed scan ----------------
    println!("testbed beam scan (null at 120 deg, semicircle r = 1 m):");
    println!(
        "{:>6} {:>10} {:>12} {:>8}",
        "angle", "simulated", "beamformer", "SISO"
    );
    for p in beam_scan::run(&BeamScanConfig::paper(), 2013) {
        println!(
            "{:>6.0} {:>10.3} {:>12.3} {:>8.3}",
            p.angle_deg, p.simulated, p.measured_beamformer, p.measured_siso
        );
    }
}
