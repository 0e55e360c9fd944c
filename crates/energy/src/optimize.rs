//! Constellation-size optimisation.
//!
//! Both of the paper's Algorithms 1 and 2 include the per-link rule
//! "according to p, mt and mr, SU nodes use the table of ē_b to determine
//! constellation size b which minimizes ē_b", and Section 6.1 sweeps
//! "constellation size b from 1 to 16" to minimise the *total* link energy.
//! This module does the latter by exhaustive argmin: minimising `ē_b`
//! alone would always pick `b = 1`, since `ē_b` is per symbol.

use crate::model::{EnergyModel, LinkParams};

/// The outcome of a constellation optimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalChoice {
    /// Chosen constellation size (bits/symbol).
    pub b: u32,
    /// The minimised objective (J/bit).
    pub energy: f64,
}

/// Exhaustively minimises `objective(b)` over `b ∈ lo..=hi`.
///
/// `objective` may return non-finite values for infeasible `b` (they are
/// skipped); panics if every candidate is infeasible.
pub fn minimize_over_b(lo: u32, hi: u32, mut objective: impl FnMut(u32) -> f64) -> OptimalChoice {
    assert!(lo >= 1 && hi >= lo, "invalid b range {lo}..={hi}");
    let mut best: Option<OptimalChoice> = None;
    for b in lo..=hi {
        let e = objective(b);
        if !e.is_finite() {
            continue;
        }
        if best.is_none_or(|c| e < c.energy) {
            best = Some(OptimalChoice { b, energy: e });
        }
    }
    best.expect("no feasible constellation size in range")
}

/// Minimises the per-node long-haul transmit energy `e^MIMOt` over
/// `b ∈ 1..=16` for a link of `mt × mr` nodes across `d_m` metres at
/// target BER `ber` (paper's per-link optimisation).
pub fn optimal_constellation(
    model: &EnergyModel,
    ber: f64,
    bandwidth_hz: f64,
    block_bits: f64,
    mt: usize,
    mr: usize,
    d_m: f64,
) -> OptimalChoice {
    minimize_over_b(1, 16, |b| {
        let p = LinkParams::new(ber, b, bandwidth_hz, block_bits);
        model.e_mimot(&p, mt, mr, d_m)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_finds_global_min() {
        // a V-shaped objective with minimum at b = 7
        let c = minimize_over_b(1, 16, |b| ((b as f64) - 7.0).abs() + 1.0);
        assert_eq!(c.b, 7);
        assert!((c.energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_skips_infeasible() {
        let c = minimize_over_b(1, 16, |b| if b < 4 { f64::NAN } else { b as f64 });
        assert_eq!(c.b, 4);
    }

    #[test]
    #[should_panic]
    fn all_infeasible_panics() {
        let _ = minimize_over_b(1, 4, |_| f64::INFINITY);
    }

    #[test]
    fn optimal_constellation_balances_circuit_and_pa() {
        let model = EnergyModel::paper();
        // short link: PA cheap → higher b (less circuit time) wins;
        // long link: PA dominates → smaller b wins
        let short = optimal_constellation(&model, 1e-3, 10_000.0, 1e4, 1, 1, 5.0);
        let long = optimal_constellation(&model, 1e-3, 10_000.0, 1e4, 1, 1, 2_000.0);
        assert!(
            short.b >= long.b,
            "short-link b {} should be >= long-link b {}",
            short.b,
            long.b
        );
        assert!(short.energy > 0.0 && long.energy > 0.0);
    }

    #[test]
    fn chosen_b_beats_neighbours() {
        let model = EnergyModel::paper();
        let c = optimal_constellation(&model, 5e-3, 40_000.0, 1e4, 2, 1, 250.0);
        let obj = |b: u32| {
            let p = LinkParams::new(5e-3, b, 40_000.0, 1e4);
            model.e_mimot(&p, 2, 1, 250.0)
        };
        if c.b > 1 {
            assert!(obj(c.b - 1) >= c.energy);
        }
        if c.b < 16 {
            assert!(obj(c.b + 1) >= c.energy);
        }
    }
}
