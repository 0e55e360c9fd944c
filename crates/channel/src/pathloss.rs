//! Path-loss laws.
//!
//! The paper uses two deterministic large-scale models (Section 2.3):
//!
//! * **local/intra-cluster** links: a κ-th-power law where the PA energy is
//!   proportional to `G_d = G1·d^κ·Ml` (`G1 = 10 mW` reference at 1 m,
//!   `κ = 3.5`, link margin `Ml = 40 dB`);
//! * **long-haul** cooperative links: the square law
//!   `(4πD)² / (Gt·Gr·λ²) · Ml · Nf` (free-space-like, with antenna gains
//!   `GtGr = 5 dBi`, wavelength `λ = 0.1199 m`, the same 40 dB margin and a
//!   10 dB receiver noise figure folded in as in \[10,12\]).
//!
//! A path-loss value is expressed as a *loss factor* `L ≥ 1`:
//! `P_rx = P_tx / L`.

use comimo_math::db::{db_to_lin, dbi_to_lin, milliwatts_to_watts};
use serde::{Deserialize, Serialize};

/// A deterministic large-scale path-loss law.
pub trait PathLoss {
    /// Loss factor `L(d) ≥ 1` at distance `d` metres; `P_rx = P_tx / L`.
    fn loss_factor(&self, distance_m: f64) -> f64;

    /// Power gain `1/L(d)` at distance `d` metres.
    fn gain(&self, distance_m: f64) -> f64 {
        1.0 / self.loss_factor(distance_m)
    }

    /// Loss in dB at distance `d` metres.
    fn loss_db(&self, distance_m: f64) -> f64 {
        10.0 * self.loss_factor(distance_m).log10()
    }
}

/// κ-th-power-law loss used by the paper for local (intra-cluster) links:
/// `G_d = G1 · d^κ · Ml`.
///
/// `G1` here follows the paper's convention of an *energy-normalised*
/// reference gain (its `G1 = 10 mW` constant); `loss_factor` returns
/// `G1·d^κ·Ml` directly so that `e_PA^Lt` in `comimo-energy` can multiply it
/// with the receiver-side sensitivity term per equation (1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KappaLaw {
    /// Reference gain at 1 m (linear, the paper's `G1`).
    pub g1: f64,
    /// Path-loss exponent (the paper's `κ = 3.5`).
    pub kappa: f64,
    /// Link margin `Ml` (linear).
    pub link_margin: f64,
}

impl KappaLaw {
    /// The paper's local-link constants: `G1 = 10 mW`, `κ = 3.5`,
    /// `Ml = 40 dB`.
    pub fn paper_defaults() -> Self {
        Self {
            g1: milliwatts_to_watts(10.0),
            kappa: 3.5,
            link_margin: db_to_lin(40.0),
        }
    }

    /// Builds a custom κ-law.
    pub fn new(g1: f64, kappa: f64, link_margin: f64) -> Self {
        assert!(g1 > 0.0 && kappa > 0.0 && link_margin >= 1.0);
        Self {
            g1,
            kappa,
            link_margin,
        }
    }
}

impl PathLoss for KappaLaw {
    fn loss_factor(&self, d: f64) -> f64 {
        assert!(d >= 0.0, "distance must be non-negative");
        // clamp below 1 m to the reference distance so the law stays >= G1*Ml
        let d = d.max(1.0);
        self.g1 * d.powf(self.kappa) * self.link_margin
    }
}

/// The paper's long-haul square-law loss
/// `(4πD)² / (Gt·Gr·λ²) · Ml · Nf` (equation (3) in Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SquareLawLongHaul {
    /// Product of transmit and receive antenna gains (linear).
    pub gt_gr: f64,
    /// Carrier wavelength in metres (the paper's `λ = 0.1199 m`, ~2.5 GHz).
    pub lambda_m: f64,
    /// Link margin `Ml` (linear; paper: 40 dB).
    pub link_margin: f64,
    /// Receiver noise figure `Nf` (linear; paper: 10 dB).
    pub noise_figure: f64,
}

impl SquareLawLongHaul {
    /// The paper's constants: `GtGr = 5 dBi`, `λ = 0.1199 m`, `Ml = 40 dB`,
    /// `Nf = 10 dB`.
    pub fn paper_defaults() -> Self {
        Self {
            gt_gr: dbi_to_lin(5.0),
            lambda_m: 0.1199,
            link_margin: db_to_lin(40.0),
            noise_figure: db_to_lin(10.0),
        }
    }

    /// Builds a custom long-haul law.
    pub fn new(gt_gr: f64, lambda_m: f64, link_margin: f64, noise_figure: f64) -> Self {
        assert!(gt_gr > 0.0 && lambda_m > 0.0 && link_margin >= 1.0 && noise_figure >= 1.0);
        Self {
            gt_gr,
            lambda_m,
            link_margin,
            noise_figure,
        }
    }

    /// Coefficient `c` such that `loss_factor(D) = c·D²`.
    pub fn coefficient(&self) -> f64 {
        let four_pi = 4.0 * std::f64::consts::PI;
        (four_pi * four_pi) / (self.gt_gr * self.lambda_m * self.lambda_m)
            * self.link_margin
            * self.noise_figure
    }
}

impl PathLoss for SquareLawLongHaul {
    fn loss_factor(&self, d: f64) -> f64 {
        assert!(d >= 0.0, "distance must be non-negative");
        let d = d.max(1.0);
        self.coefficient() * d * d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kappa_law_slope() {
        let pl = KappaLaw::paper_defaults();
        // doubling distance multiplies loss by 2^3.5
        let r = pl.loss_factor(8.0) / pl.loss_factor(4.0);
        assert!((r - 2f64.powf(3.5)).abs() < 1e-9);
    }

    #[test]
    fn kappa_law_reference_clamp() {
        let pl = KappaLaw::paper_defaults();
        assert_eq!(pl.loss_factor(0.5), pl.loss_factor(1.0));
    }

    #[test]
    fn square_law_slope_is_20db_per_decade() {
        let pl = SquareLawLongHaul::paper_defaults();
        let d = pl.loss_db(1000.0) - pl.loss_db(100.0);
        assert!((d - 20.0).abs() < 1e-9);
    }

    #[test]
    fn gain_is_reciprocal() {
        let pl = SquareLawLongHaul::paper_defaults();
        let d = 123.0;
        assert!((pl.gain(d) * pl.loss_factor(d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_margin_and_nf_fold_in() {
        // removing Ml and Nf should reduce the loss by exactly 50 dB
        let with = SquareLawLongHaul::paper_defaults();
        let without = SquareLawLongHaul::new(with.gt_gr, with.lambda_m, 1.0, 1.0);
        let diff = with.loss_db(200.0) - without.loss_db(200.0);
        assert!((diff - 50.0).abs() < 1e-9);
    }
}
