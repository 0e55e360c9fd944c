//! The interweave paradigm — Algorithm 3: pairwise transmit null-steering
//! (Table 1, Figure 8).
//!
//! Each pair of cluster transmitters `St1, St2` (separation `r`) imposes on
//! `St1` the phase delay
//!
//! ```text
//! δ = π(2r·cos α / w − 1),   α = ∠Pr·St1·St2
//! ```
//!
//! so the two waves cancel toward the primary receiver `Pr` while adding
//! toward the secondary receiver: the received amplitude is
//! `γ² = γ1² + γ2² + 2γ1γ2·cos Δ` with
//! `Δ = δ + 2πr·sin β / w` (paper Section 5).
//!
//! Why the delay works: in the triangle `(Pr, St1, St2)` the law of
//! cosines gives `|Pr·St2| ≈ |Pr·St1| − r·cos α`, so the relative
//! propagation phase of St1's wave at `Pr` is `−k·r·cos α`
//! (`k = 2π/w`); adding `δ` makes the total relative phase
//! `π(2r·cos α/w − 1) − 2πr·cos α/w = −π` — perfect cancellation.
//!
//! Besides the paper's far-field formula, [`TransmitPair::amplitude_at`]
//! evaluates the *exact* two-ray field (true path lengths), which is what
//! the Table-1 simulation uses; the far-field and exact values agree to
//! first order in `r/distance` (tested).

use comimo_channel::geometry::{angle_at_vertex, collinearity_deviation, Point};
use comimo_math::complex::Complex;
use comimo_sim::map_shards;
use serde::{Deserialize, Serialize};

/// The paper's phase delay `δ = π(2r·cos α/w − 1)`.
///
/// * `r` — pair separation (m);
/// * `alpha` — `∠Pr·St1·St2` in radians;
/// * `wavelength` — carrier wavelength `w` (m).
pub fn phase_delay(r: f64, alpha: f64, wavelength: f64) -> f64 {
    assert!(r > 0.0 && wavelength > 0.0);
    std::f64::consts::PI * (2.0 * r * alpha.cos() / wavelength - 1.0)
}

/// The paper's received-amplitude composition
/// `γ = √(γ1² + γ2² + 2γ1γ2·cos Δ)`.
pub fn pair_amplitude(gamma1: f64, gamma2: f64, delta_total: f64) -> f64 {
    assert!(gamma1 >= 0.0 && gamma2 >= 0.0);
    (gamma1 * gamma1 + gamma2 * gamma2 + 2.0 * gamma1 * gamma2 * delta_total.cos())
        .max(0.0)
        .sqrt()
}

/// A cooperating transmitter pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransmitPair {
    /// First transmitter (the one that receives the phase delay).
    pub st1: Point,
    /// Second transmitter.
    pub st2: Point,
    /// Carrier wavelength `w` (m).
    pub wavelength: f64,
}

impl TransmitPair {
    /// Builds a pair.
    pub fn new(st1: Point, st2: Point, wavelength: f64) -> Self {
        assert!(wavelength > 0.0);
        assert!(st1.distance(st2) > 0.0, "coincident transmitters");
        Self {
            st1,
            st2,
            wavelength,
        }
    }

    /// The paper's Table-1 geometry: `St1`/`St2` on the vertical axis with
    /// the horizontal axis through their midpoint, separated by
    /// `r = w/2`.
    pub fn paper_table1(wavelength: f64) -> Self {
        let r = wavelength / 2.0;
        Self::new(
            Point::new(0.0, r / 2.0),
            Point::new(0.0, -r / 2.0),
            wavelength,
        )
    }

    /// Pair separation `r`.
    pub fn separation(&self) -> f64 {
        self.st1.distance(self.st2)
    }

    /// The phase delay steering a null toward `pr` (Algorithm 3, Step 2).
    pub fn null_delay_toward(&self, pr: Point) -> f64 {
        let alpha = angle_at_vertex(pr, self.st1, self.st2);
        phase_delay(self.separation(), alpha, self.wavelength)
    }

    /// Exact two-ray field amplitude at point `p` when St1 carries phase
    /// offset `delta` and both elements radiate unit-amplitude waves
    /// (path-loss-free, isolating the interference pattern exactly as the
    /// paper's analysis does).
    pub fn amplitude_at(&self, p: Point, delta: f64) -> f64 {
        let k = std::f64::consts::TAU / self.wavelength;
        let w1 = Complex::cis(delta - k * self.st1.distance(p));
        let w2 = Complex::cis(-k * self.st2.distance(p));
        (w1 + w2).abs()
    }

    /// Mean received amplitude at `p` when each element's wave rides an
    /// indoor Rician channel with K-factor `k_factor` (unit mean power,
    /// line-of-sight aligned with the geometric phase), averaged over
    /// `snapshots` independent fades. With `k_factor = 5` the perpendicular
    /// receiver sees `E|h1 + h2| ≈ 1.87` — the paper's Table-1 value; the
    /// ideal LOS-only field gives 2.0.
    pub fn faded_amplitude_at<R: rand::Rng>(
        &self,
        p: Point,
        delta: f64,
        k_factor: f64,
        snapshots: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(k_factor > 0.0 && snapshots >= 1);
        let k = std::f64::consts::TAU / self.wavelength;
        let los = (k_factor / (k_factor + 1.0)).sqrt();
        let scatter = 1.0 / (k_factor + 1.0);
        let w1 = Complex::cis(delta - k * self.st1.distance(p));
        let w2 = Complex::cis(-k * self.st2.distance(p));
        let mut acc = 0.0;
        for _ in 0..snapshots {
            let h1 = Complex::real(los) + comimo_math::rng::complex_gaussian(rng, scatter);
            let h2 = Complex::real(los) + comimo_math::rng::complex_gaussian(rng, scatter);
            acc += (w1 * h1 + w2 * h2).abs();
        }
        acc / snapshots as f64
    }

    /// Far-field amplitude toward the direction of point `p`, using the
    /// paper's relative-phase form `Δ = δ − k·r·cos(∠p·St1·St2)`.
    pub fn far_field_amplitude_toward(&self, p: Point, delta: f64) -> f64 {
        let alpha = angle_at_vertex(p, self.st1, self.st2);
        let k = std::f64::consts::TAU / self.wavelength;
        pair_amplitude(1.0, 1.0, delta - k * self.separation() * alpha.cos())
    }

    /// Radiation pattern sample: amplitude at angle `theta` (radians from
    /// the +x axis) on a far circle of `radius` around the pair midpoint —
    /// the simulated beam pattern of Figure 8.
    pub fn pattern_at_angle(&self, theta: f64, radius: f64, delta: f64) -> f64 {
        let mid = self.st1.midpoint(self.st2);
        let p = mid + Point::new(radius * theta.cos(), radius * theta.sin());
        self.amplitude_at(p, delta)
    }
}

/// Configuration of the Table-1 simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterweaveConfig {
    /// Carrier wavelength (m). Paper constant: 0.1199 m.
    pub wavelength: f64,
    /// Number of candidate primary receivers per trial (paper: 20).
    pub n_candidates: usize,
    /// Radius of the candidate disc centred on St1 (paper: diameter 300 m).
    pub candidate_radius: f64,
    /// Secondary receiver position (on the horizontal axis).
    pub sr: Point,
    /// Number of trials (paper: 10).
    pub n_trials: usize,
    /// Rician K-factor of each element's indoor channel toward Sr.
    pub element_k_factor: f64,
    /// Fading snapshots averaged into each reported amplitude.
    pub fading_snapshots: usize,
}

impl InterweaveConfig {
    /// The paper's Table-1 settings (Sr placed 100 m down the horizontal
    /// axis; the paper leaves the Sr distance unstated, and the amplitude
    /// is insensitive to it in the far field).
    pub fn paper() -> Self {
        Self {
            wavelength: 0.1199,
            n_candidates: 20,
            candidate_radius: 150.0,
            sr: Point::new(100.0, 0.0),
            n_trials: 10,
            element_k_factor: 5.0,
            fading_snapshots: 512,
        }
    }
}

/// One Table-1 row: the picked primary receiver and the amplitude at Sr.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterweaveTrial {
    /// Location of the picked `Pr`.
    pub picked_pr: Point,
    /// Exact two-ray amplitude received at `Sr` (SISO reference = 1).
    pub amplitude: f64,
    /// Residual amplitude at the steered null (ideally 0).
    pub null_residual: f64,
}

/// Algorithm 3 Step 1: pick the PU to share with — "the head can pick the
/// PU such that it is as far as possible from C-St and/or the line
/// segments of C-St·Pr and C-St·C-Sr are not as collinear as possible".
///
/// Score: the sine of the angle at St1 between the Pr and Sr directions
/// (1 = perpendicular = best), scaled by normalised distance; the paper's
/// Table-1 picks land close to the axis perpendicular to the Sr direction.
pub fn select_pu(candidates: &[Point], st1: Point, sr: Point, radius: f64) -> usize {
    assert!(!candidates.is_empty());
    let score = |p: &Point| {
        let noncollinear = collinearity_deviation(*p, st1, sr);
        let dist = st1.distance(*p) / radius;
        noncollinear + 0.1 * dist
    };
    candidates
        .iter()
        .enumerate()
        .max_by(|a, b| score(a.1).total_cmp(&score(b.1)))
        .map(|(i, _)| i)
        .expect("non-empty candidates")
}

/// Runs one Table-1 trial: scatter candidates, pick the PU, steer the
/// null, measure the amplitude at Sr and the residual at the null.
pub fn run_trial(rng: &mut impl rand::Rng, cfg: &InterweaveConfig) -> InterweaveTrial {
    let pair = TransmitPair::paper_table1(cfg.wavelength);
    let candidates: Vec<Point> = (0..cfg.n_candidates)
        .map(|_| {
            let (x, y) = comimo_math::rng::uniform_in_disc(
                rng,
                pair.st1.x,
                pair.st1.y,
                cfg.candidate_radius,
            );
            Point::new(x, y)
        })
        .collect();
    let idx = select_pu(&candidates, pair.st1, cfg.sr, cfg.candidate_radius);
    let pr = candidates[idx];
    let delta = pair.null_delay_toward(pr);
    InterweaveTrial {
        picked_pr: pr,
        amplitude: pair.faded_amplitude_at(
            cfg.sr,
            delta,
            cfg.element_k_factor,
            cfg.fading_snapshots,
            rng,
        ),
        // the paper's "theoretically, the amplitude ... is zero at Pr":
        // the residual is the ideal (line-of-sight) far field
        null_residual: pair.far_field_amplitude_toward(pr, delta),
    }
}

/// Runs the full Table-1 experiment: `n_trials` trials with derived RNG
/// streams; returns the rows.
pub fn run_table1(seed: u64, cfg: &InterweaveConfig) -> Vec<InterweaveTrial> {
    let trials: Vec<u64> = (0..cfg.n_trials as u64).collect();
    map_shards(&trials, |_, &t| {
        let mut rng = comimo_math::rng::derive(seed, t);
        run_trial(&mut rng, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::seeded;

    const W: f64 = 0.1199;

    #[test]
    fn phase_delay_paper_example() {
        // "δ = π when r = w and α = 0"
        let d = phase_delay(W, 0.0, W);
        assert!((d - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn null_formula_cancels_far_field_everywhere() {
        // for any Pr direction, the far-field amplitude toward Pr is 0
        let pair = TransmitPair::paper_table1(W);
        for deg in (0..360).step_by(7) {
            let th = (deg as f64).to_radians();
            let pr = Point::new(200.0 * th.cos(), 200.0 * th.sin());
            let delta = pair.null_delay_toward(pr);
            let a = pair.far_field_amplitude_toward(pr, delta);
            assert!(a < 1e-9, "residual {a} at {deg} deg");
        }
    }

    #[test]
    fn exact_field_nearly_cancels_at_distant_pr() {
        let pair = TransmitPair::paper_table1(W);
        let pr = Point::new(30.0, -140.0);
        let delta = pair.null_delay_toward(pr);
        let a = pair.amplitude_at(pr, delta);
        // finite-distance residual is second order in r/|Pr|
        assert!(a < 0.02, "exact residual {a}");
    }

    #[test]
    fn perpendicular_receiver_gets_full_diversity() {
        // paper Section 6.3: "when StSr and StPr are perpendicular to each
        // other, Sr receives a full diversity gain" (amplitude 2)
        let pair = TransmitPair::paper_table1(W);
        // Pr on the vertical axis (the pair axis), Sr on the horizontal
        let pr = Point::new(0.0, -100.0);
        let sr = Point::new(100.0, 0.0);
        let delta = pair.null_delay_toward(pr);
        let a = pair.amplitude_at(sr, delta);
        assert!(a > 1.95, "amplitude {a}");
    }

    #[test]
    fn exact_matches_far_field_at_range() {
        let pair = TransmitPair::paper_table1(W);
        let delta = 0.7;
        for deg in [10.0f64, 60.0, 130.0, 220.0] {
            let th = deg.to_radians();
            let p = Point::new(500.0 * th.cos(), 500.0 * th.sin());
            let exact = pair.amplitude_at(p, delta);
            let ff = pair.far_field_amplitude_toward(p, delta);
            assert!(
                (exact - ff).abs() < 0.05,
                "{deg} deg: exact {exact} vs far-field {ff}"
            );
        }
    }

    #[test]
    fn select_pu_prefers_perpendicular() {
        let st1 = Point::new(0.0, 0.03);
        let sr = Point::new(100.0, 0.0);
        // one candidate collinear with Sr, one perpendicular
        let cands = vec![Point::new(120.0, 0.0), Point::new(0.0, 120.0)];
        assert_eq!(select_pu(&cands, st1, sr, 150.0), 1);
    }

    #[test]
    fn table1_reproduces_paper_shape() {
        // 10 trials: mean amplitude at Sr between 1.7 and 2.0 (paper: 1.87,
        // i.e. close to full diversity gain 2 and ~1.9x the SISO reference
        // of 1), nulls essentially dark
        let rows = run_table1(2013, &InterweaveConfig::paper());
        assert_eq!(rows.len(), 10);
        let mean: f64 = rows.iter().map(|r| r.amplitude).sum::<f64>() / rows.len() as f64;
        assert!(
            mean > 1.75 && mean < 1.98,
            "mean amplitude {mean} (paper: 1.87)"
        );
        for r in &rows {
            assert!(r.null_residual < 1e-9, "null residual {}", r.null_residual);
            // picked Prs hug the pair axis (perpendicular to Sr), like the
            // paper's Table-1 locations
            let angle_from_vertical = (r.picked_pr.x.abs())
                .atan2(r.picked_pr.y.abs())
                .to_degrees();
            assert!(
                angle_from_vertical < 45.0,
                "picked Pr {:?} too far off-axis",
                r.picked_pr
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_table1(7, &InterweaveConfig::paper());
        let b = run_table1(7, &InterweaveConfig::paper());
        assert_eq!(a, b);
        let c = run_table1(8, &InterweaveConfig::paper());
        assert_ne!(a, c);
    }

    #[test]
    fn pattern_has_null_and_main_lobe() {
        // steer the null to 120 degrees as in Figure 8
        let pair = TransmitPair::paper_table1(W);
        let th_null = 120f64.to_radians();
        let mid = pair.st1.midpoint(pair.st2);
        let pr = mid + Point::new(2_000.0 * th_null.cos(), 2_000.0 * th_null.sin());
        let delta = pair.null_delay_toward(pr);
        let at = |deg: f64| pair.pattern_at_angle(deg.to_radians(), 2_000.0, delta);
        assert!(at(120.0) < 0.02, "null {}", at(120.0));
        // away from the null the pattern recovers beyond the SISO level
        let peak = (0..=180)
            .step_by(5)
            .map(|d| at(d as f64))
            .fold(0.0f64, f64::max);
        assert!(peak > 1.5, "peak {peak}");
    }

    #[test]
    fn mean_rayleigh_pair_vs_siso_gain() {
        // interpretation check for Table 1's "1.87 times as strong as that
        // of SISO": with both waves at unit amplitude the combined wave at
        // Sr approaches 2; the measured mean lands just below
        let rows = run_table1(99, &InterweaveConfig::paper());
        let mean: f64 = rows.iter().map(|r| r.amplitude).sum::<f64>() / rows.len() as f64;
        let siso = 1.0;
        assert!(mean / siso > 1.5, "gain over SISO {}", mean / siso);
    }

    #[test]
    fn faded_amplitude_k5_lands_on_paper_value() {
        // E|h1 + h2| at K = 5: Rician mean ≈ 1.87 — the Table-1 value
        let pair = TransmitPair::paper_table1(W);
        let sr = Point::new(100.0, 0.0);
        let pr = Point::new(0.0, -120.0);
        let delta = pair.null_delay_toward(pr);
        let mut rng = seeded(17);
        let amp = pair.faded_amplitude_at(sr, delta, 5.0, 20_000, &mut rng);
        assert!((amp - 1.87).abs() < 0.04, "faded amplitude {amp}");
    }

    #[test]
    fn faded_amplitude_grows_with_k() {
        let pair = TransmitPair::paper_table1(W);
        let sr = Point::new(100.0, 0.0);
        let pr = Point::new(0.0, -120.0);
        let delta = pair.null_delay_toward(pr);
        let mut rng = seeded(18);
        let low_k = pair.faded_amplitude_at(sr, delta, 1.0, 5_000, &mut rng);
        let high_k = pair.faded_amplitude_at(sr, delta, 50.0, 5_000, &mut rng);
        assert!(high_k > low_k, "K=50: {high_k} vs K=1: {low_k}");
        assert!(high_k > 1.95, "K=50 should approach the ideal 2: {high_k}");
    }
}
