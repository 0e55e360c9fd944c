//! Figure 8 — interweave beam-scan experiment.
//!
//! "The receiver is located on a semi-circle centered on the midpoint of
//! the two transmit nodes St1 and St2 with diameter of 2 meters. The
//! beamformer is designed to put a null in the direction of 120 degree
//! ... The received signal amplitude is recorded when the receiver is
//! moved between 0 degree and 180 degree with 20 degree increment."
//! (paper, Section 6.4)
//!
//! Three curves, as in the figure:
//!
//! * the **simulated radiation pattern** (ideal two-ray field);
//! * the **measured amplitude with the beamformer** — here the simulator
//!   adds indoor multipath scatter, which is exactly why the paper's
//!   measured null "is not zero";
//! * the **SISO reference** (one transmitter at the same total power
//!   normalisation).

use comimo_channel::geometry::{semicircle_scan, Point};
use comimo_core::interweave::TransmitPair;
use comimo_math::complex::Complex;
use comimo_math::rng::complex_gaussian;
use comimo_sim::map_shards;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the beam-scan rig.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeamScanConfig {
    /// Carrier wavelength (m) — RFX2400 at 2.45 GHz.
    pub wavelength: f64,
    /// Scan radius (m). Paper: semicircle of diameter 2 m → radius 1 m.
    pub radius_m: f64,
    /// Null direction (degrees). Paper: 120°.
    pub null_deg: f64,
    /// Number of scan points. Paper: 0..180 in 20° steps → 10.
    pub n_points: usize,
    /// Multipath scatter power relative to the direct ray (linear).
    pub scatter_power: f64,
    /// Measurement noise variance per snapshot.
    pub noise_power: f64,
    /// Snapshots averaged per scan point.
    pub n_snapshots: usize,
}

impl BeamScanConfig {
    /// The paper rig.
    pub fn paper() -> Self {
        Self {
            wavelength: 0.1224,
            radius_m: 1.0,
            null_deg: 120.0,
            n_points: 10,
            scatter_power: 0.03,
            noise_power: 1e-4,
            n_snapshots: 64,
        }
    }
}

/// One scan point of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeamScanPoint {
    /// Receiver angle (degrees).
    pub angle_deg: f64,
    /// Ideal simulated pattern amplitude (normalised to 1 at the peak).
    pub simulated: f64,
    /// Measured amplitude with the beamformer (multipath + noise),
    /// normalised the same way.
    pub measured_beamformer: f64,
    /// Measured amplitude of the SISO reference, normalised the same way.
    pub measured_siso: f64,
}

/// Runs the Figure-8 scan.
pub fn run(cfg: &BeamScanConfig, seed: u64) -> Vec<BeamScanPoint> {
    let pair = TransmitPair::paper_table1(cfg.wavelength);
    let mid = pair.st1.midpoint(pair.st2);
    // steer the null: place a virtual Pr far away at the null bearing
    let th = cfg.null_deg.to_radians();
    let pr = mid + Point::new(500.0 * th.cos(), 500.0 * th.sin());
    let delta = pair.null_delay_toward(pr);
    let scan = semicircle_scan(mid, cfg.radius_m, cfg.n_points);
    // normalisation: the ideal peak over the scan
    let peak = scan
        .iter()
        .map(|&(_, p)| pair.amplitude_at(p, delta))
        .fold(1e-12, f64::max);
    // every scan point draws its beamformer and SISO snapshots from its
    // own derived stream, so the points fan out onto the rayon pool
    // without changing the recorded amplitudes
    let indexed: Vec<(u64, (f64, Point))> = scan
        .iter()
        .enumerate()
        .map(|(i, &sp)| (i as u64, sp))
        .collect();
    map_shards(&indexed, |_, &(i, (angle_deg, p))| {
        let mut rng = comimo_math::rng::derive(seed, i);
        let ideal = pair.amplitude_at(p, delta);
        let measured = measure(&mut rng, cfg, &pair, p, delta, true);
        let siso = measure(&mut rng, cfg, &pair, p, delta, false);
        BeamScanPoint {
            angle_deg,
            simulated: ideal / peak,
            measured_beamformer: measured / peak,
            measured_siso: siso / peak,
        }
    })
}

/// Averages `n_snapshots` amplitude measurements at a receiver position,
/// with per-snapshot multipath scatter and additive noise. With
/// `beamformer = false`, only St2 transmits (the SISO reference).
fn measure<R: Rng + ?Sized>(
    rng: &mut R,
    cfg: &BeamScanConfig,
    pair: &TransmitPair,
    p: Point,
    delta: f64,
    beamformer: bool,
) -> f64 {
    let k = std::f64::consts::TAU / cfg.wavelength;
    let mut acc = 0.0;
    for _ in 0..cfg.n_snapshots {
        let direct2 = Complex::cis(-k * pair.st2.distance(p));
        let mut field = direct2 + complex_gaussian(rng, cfg.scatter_power);
        if beamformer {
            let direct1 = Complex::cis(delta - k * pair.st1.distance(p));
            field += direct1 + complex_gaussian(rng, cfg.scatter_power);
        }
        field += complex_gaussian(rng, cfg.noise_power);
        acc += field.abs();
    }
    acc / cfg.n_snapshots as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan() -> Vec<BeamScanPoint> {
        run(&BeamScanConfig::paper(), 2013)
    }

    fn at(points: &[BeamScanPoint], deg: f64) -> &BeamScanPoint {
        points
            .iter()
            .min_by(|a, b| {
                (a.angle_deg - deg)
                    .abs()
                    .partial_cmp(&(b.angle_deg - deg).abs())
                    .unwrap()
            })
            .unwrap()
    }

    #[test]
    fn scan_grid_matches_paper() {
        let pts = scan();
        assert_eq!(pts.len(), 10);
        assert!((pts[0].angle_deg - 0.0).abs() < 1e-9);
        assert!((pts[9].angle_deg - 180.0).abs() < 1e-9);
        assert!((pts[1].angle_deg - 20.0).abs() < 1e-9);
    }

    #[test]
    fn simulated_null_is_deep_at_120() {
        let pts = scan();
        let null = at(&pts, 120.0);
        assert!(null.simulated < 0.08, "simulated null {}", null.simulated);
    }

    #[test]
    fn measured_null_is_filled_by_multipath_but_still_low() {
        // "the received signal amplitude in the null direction is not zero"
        let pts = scan();
        let null = at(&pts, 120.0);
        assert!(
            null.measured_beamformer > 0.02,
            "measured null {} should be non-zero",
            null.measured_beamformer
        );
        assert!(
            null.measured_beamformer < 0.4,
            "measured null {} should stay small",
            null.measured_beamformer
        );
    }

    #[test]
    fn beamformer_beats_siso_in_the_array_gain_region() {
        // paper: "the received signal amplitude is larger with beamformer
        // than that in SISO system" away from the null. A λ/2 pair with a
        // null steered to 120° physically carries a mirror null at 60°
        // (the pattern is symmetric about the array axis), so the gain
        // region is where the array factor exceeds one — towards the ends
        // of the scan. We assert the claim exactly there.
        let pts = scan();
        for p in &pts {
            let gain_region =
                (p.angle_deg - 120.0).abs() > 25.0 && (p.angle_deg - 60.0).abs() > 25.0;
            if gain_region && p.simulated > 0.55 {
                // simulated > 0.55 of the 2x peak ⇔ array factor > 1.1
                assert!(
                    p.measured_beamformer > p.measured_siso,
                    "{}°: beamformer {} vs SISO {}",
                    p.angle_deg,
                    p.measured_beamformer,
                    p.measured_siso
                );
            }
        }
        // the gain region is non-trivial: at least 3 scan points qualify
        let qualifying = pts
            .iter()
            .filter(|p| {
                (p.angle_deg - 120.0).abs() > 25.0
                    && (p.angle_deg - 60.0).abs() > 25.0
                    && p.simulated > 0.55
            })
            .count();
        assert!(qualifying >= 3, "only {qualifying} gain-region points");
    }

    #[test]
    fn mirror_null_at_60_degrees() {
        // physics check: the steered null at 120° implies a symmetric null
        // at 60° for a pair on the vertical axis
        let pts = scan();
        let mirror = at(&pts, 60.0);
        assert!(mirror.simulated < 0.1, "mirror null {}", mirror.simulated);
    }

    #[test]
    fn peak_normalisation() {
        let pts = scan();
        let max_sim = pts.iter().map(|p| p.simulated).fold(0.0f64, f64::max);
        assert!((max_sim - 1.0).abs() < 1e-9, "peak {max_sim}");
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(
            run(&BeamScanConfig::paper(), 4),
            run(&BeamScanConfig::paper(), 4)
        );
    }
}
