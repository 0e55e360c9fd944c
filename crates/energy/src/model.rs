//! The paper's per-bit energy formulas (1)–(4), Section 2.3.
//!
//! Every quantity is energy **per information bit** at **one elementary
//! node**, in joules:
//!
//! * (1) `e^Lt = e_PA^Lt + e_C^Lt` — local/intra-cluster transmission,
//!   κ-law AWGN link:
//!   `e_PA^Lt = (4/3)(1+α)·((2^b−1)/b)·ln(4(1−2^{−b/2})/(b·p))·G_d·Nf·σ²`,
//!   `e_C^Lt = Pct/(b·B) + Psyn·Ttr/n`;
//! * (2) `e^Lr = Pcr/(b·B) + Psyn·Ttr/n` — local reception;
//! * (3) `e^MIMOt(mt,mr) = e_PA^MIMOt + e_C^MIMOt` — long-haul cooperative
//!   transmission:
//!   `e_PA^MIMOt = (1/mt)(1+α)·ē_b(p,b,mt,mr)·(4πD)²/(GtGrλ²)·Ml·Nf`,
//!   `e_C^MIMOt = (Pct + Psyn)/(b·B)`;
//! * (4) `e^MIMOr = (Pcr + Psyn)/(b·B)` — long-haul reception.

use crate::constants::SystemConstants;
use crate::ebar::EbarSolver;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Parameters common to every link evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Target bit error rate `p`.
    pub ber: f64,
    /// Constellation size `b` (bits per symbol), `1..=16` in the paper.
    pub b: u32,
    /// Bandwidth `B` in Hz (paper sweeps 10 k – 100 k).
    pub bandwidth_hz: f64,
    /// Information block size `n` in bits (amortises the start-up cost
    /// `Psyn·Ttr/n`).
    pub block_bits: f64,
}

impl LinkParams {
    /// Builds link parameters, validating ranges.
    pub fn new(ber: f64, b: u32, bandwidth_hz: f64, block_bits: f64) -> Self {
        assert!(ber > 0.0 && ber < 0.5, "target BER out of range: {ber}");
        assert!(
            (1..=16).contains(&b),
            "b out of the paper's 1..=16 range: {b}"
        );
        assert!(bandwidth_hz > 0.0 && block_bits >= 1.0);
        Self {
            ber,
            b,
            bandwidth_hz,
            block_bits,
        }
    }

    /// Bit rate `b·B` in bit/s.
    pub fn bit_rate(&self) -> f64 {
        self.b as f64 * self.bandwidth_hz
    }
}

/// Cache key: `(p.to_bits(), b, mt, mr)` ↦ solved `ē_b`.
type EbarCache = Arc<RwLock<HashMap<(u64, u32, usize, usize), f64>>>;

/// The complete energy model: the paper's constants and `ē_b` solver.
///
/// `ē_b` inversions are memoised, and clones share the memo. The memo is
/// the paper's "Preprocessing" table of `ē_b(p, b, mt, mr)`, filled cell
/// by cell on first use: the network layer asks for the same few hundred
/// cells thousands of times during routing and lifetime simulation.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    consts: SystemConstants,
    solver: EbarSolver,
    ebar_cache: EbarCache,
}

impl EnergyModel {
    /// Model with the paper's constants and solver.
    pub fn paper() -> Self {
        Self {
            consts: SystemConstants::paper(),
            solver: EbarSolver::paper(),
            ebar_cache: EbarCache::default(),
        }
    }

    /// `ē_b(p, b, mt, mr)` in joules (equations (5)–(6) inverted),
    /// memoised. A lock poisoned by a panicking thread still holds only
    /// solved cells, so it is recovered, not propagated.
    pub fn ebar(&self, p: &LinkParams, mt: usize, mr: usize) -> f64 {
        let key = (p.ber.to_bits(), p.b, mt, mr);
        let cached = self
            .ebar_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        if let Some(v) = cached {
            return v;
        }
        let v = self.solver.solve(p.ber, p.b, mt, mr);
        self.ebar_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, v);
        v
    }

    /// Equation (1), PA part: per-bit power-amplifier energy of a local
    /// transmission across cluster diameter `d` metres.
    pub fn e_lt_pa(&self, p: &LinkParams, d_m: f64) -> f64 {
        let c = &self.consts;
        let b = p.b as f64;
        let alpha = SystemConstants::alpha(p.b);
        let m_term = (2f64.powi(p.b as i32) - 1.0) / b;
        let log_arg = 4.0 * (1.0 - 2f64.powf(-b / 2.0)) / (b * p.ber);
        assert!(
            log_arg > 1.0,
            "local-link BER target unreachable: ln arg {log_arg} <= 1"
        );
        4.0 / 3.0 * (1.0 + alpha) * m_term * log_arg.ln() * c.g_d(d_m) * c.noise_figure * c.sigma2
    }

    /// Equation (1), circuit part: `Pct/(bB) + Psyn·Ttr/n`.
    pub fn e_lt_c(&self, p: &LinkParams) -> f64 {
        let c = &self.consts;
        c.p_ct / p.bit_rate() + c.p_syn * c.t_tr / p.block_bits
    }

    /// Equation (1): total per-bit local transmission energy.
    pub fn e_lt(&self, p: &LinkParams, d_m: f64) -> f64 {
        self.e_lt_pa(p, d_m) + self.e_lt_c(p)
    }

    /// Equation (2): per-bit local reception energy
    /// `Pcr/(bB) + Psyn·Ttr/n`.
    pub fn e_lr(&self, p: &LinkParams) -> f64 {
        let c = &self.consts;
        c.p_cr / p.bit_rate() + c.p_syn * c.t_tr / p.block_bits
    }

    /// Equation (3), PA part: per-bit per-node PA energy of a long-haul
    /// `mt × mr` cooperative transmission over distance `d_m` metres.
    pub fn e_mimot_pa(&self, p: &LinkParams, mt: usize, mr: usize, d_m: f64) -> f64 {
        assert!(mt >= 1);
        let alpha = SystemConstants::alpha(p.b);
        let ebar = self.ebar(p, mt, mr);
        (1.0 / mt as f64) * (1.0 + alpha) * ebar * self.consts.long_haul_loss(d_m)
    }

    /// Equation (3), circuit part: `(Pct + Psyn)/(bB)`.
    pub fn e_mimot_c(&self, p: &LinkParams) -> f64 {
        (self.consts.p_ct + self.consts.p_syn) / p.bit_rate()
    }

    /// Equation (3): total per-bit per-node long-haul transmit energy.
    pub fn e_mimot(&self, p: &LinkParams, mt: usize, mr: usize, d_m: f64) -> f64 {
        self.e_mimot_pa(p, mt, mr, d_m) + self.e_mimot_c(p)
    }

    /// Equation (4): per-bit per-node long-haul receive energy
    /// `(Pcr + Psyn)/(bB)`.
    pub fn e_mimor(&self, p: &LinkParams) -> f64 {
        (self.consts.p_cr + self.consts.p_syn) / p.bit_rate()
    }

    /// Inverts equation (3) for distance: the largest `D` at which the
    /// per-node transmit energy budget `e_budget` (J/bit) can sustain an
    /// `mt × mr` link with parameters `p`. Returns `None` when the budget
    /// cannot even cover the circuit energy.
    ///
    /// This is the workhorse of the overlay paradigm's `D2`/`D3` analysis
    /// (paper Section 3).
    pub fn max_distance(&self, p: &LinkParams, mt: usize, mr: usize, e_budget: f64) -> Option<f64> {
        let pa_budget = e_budget - self.e_mimot_c(p);
        if pa_budget <= 0.0 {
            return None;
        }
        let alpha = SystemConstants::alpha(p.b);
        let ebar = self.ebar(p, mt, mr);
        // pa = (1/mt)(1+alpha)·ē·c·D² → D = sqrt(pa_budget / ((1/mt)(1+alpha)·ē·c))
        let coef = (1.0 / mt as f64) * (1.0 + alpha) * ebar * self.consts.long_haul_coefficient();
        Some((pa_budget / coef).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(ber: f64, b: u32) -> LinkParams {
        LinkParams::new(ber, b, 40_000.0, 10_000.0)
    }

    #[test]
    fn memo_returns_the_solver_value_bit_for_bit() {
        let solver = EbarSolver::paper();
        let mut cells = Vec::new();
        for ber in [1e-3, 5e-3] {
            for b in 1..=16 {
                for mt in 1..=4 {
                    for mr in 1..=4 {
                        let want = solver.solve(ber, b, mt, mr).to_bits();
                        cells.push((params(ber, b), mt, mr, want));
                    }
                }
            }
        }
        let memo_len = |m: &EnergyModel| m.ebar_cache.read().unwrap().len();
        let check = |m: &EnergyModel, case: &str| {
            for (p, mt, mr, want) in &cells {
                let got = m.ebar(p, *mt, *mr).to_bits();
                assert_eq!(got, *want, "{case}: p={} b={} {mt}x{mr}", p.ber, p.b);
            }
        };
        let m = EnergyModel::paper();
        let clone = m.clone();
        check(&m, "miss");
        assert_eq!(memo_len(&m), cells.len());
        check(&m, "hit");
        // cloned while empty, the clone sees every cell the original solved
        assert_eq!(memo_len(&clone), cells.len());
        check(&clone, "clone");
        // threads sharing one empty model race misses against hits; the
        // barrier starts them together
        let shared = EnergyModel::paper();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    check(&shared, "shared");
                });
            }
        });
        assert_eq!(memo_len(&shared), cells.len());
    }

    #[test]
    fn e_lt_components_positive_and_scale() {
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let pa1 = m.e_lt_pa(&p, 1.0);
        let pa16 = m.e_lt_pa(&p, 16.0);
        assert!(pa1 > 0.0);
        // κ = 3.5 distance scaling
        assert!((pa16 / pa1 - 16f64.powf(3.5)).abs() / 16f64.powf(3.5) < 1e-9);
        let c = m.e_lt_c(&p);
        assert!(c > 0.0);
        assert!((m.e_lt(&p, 1.0) - (pa1 + c)).abs() < 1e-24);
    }

    #[test]
    fn e_lt_pa_magnitude_anchor() {
        // hand-computed from the formula at d=1, b=2, p=1e-3, see module doc
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let pa = m.e_lt_pa(&p, 1.0);
        // (4/3)(1+2.857)(1.5)·ln(1000)·100·10·3.981e-21 ≈ 2.12e-16
        assert!((pa - 2.12e-16).abs() / 2.12e-16 < 0.02, "e_PA^Lt = {pa:e}");
    }

    #[test]
    fn circuit_terms_match_formulas() {
        let m = EnergyModel::paper();
        let p = params(1e-3, 4);
        let rate = 4.0 * 40_000.0;
        assert!((m.e_lt_c(&p) - (0.04864 / rate + 0.05 * 5e-6 / 10_000.0)).abs() < 1e-18);
        assert!((m.e_lr(&p) - (0.0625 / rate + 0.05 * 5e-6 / 10_000.0)).abs() < 1e-18);
        assert!((m.e_mimot_c(&p) - (0.04864 + 0.05) / rate).abs() < 1e-18);
        assert!((m.e_mimor(&p) - (0.0625 + 0.05) / rate).abs() < 1e-18);
    }

    #[test]
    fn mimo_pa_scales_with_distance_squared() {
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let e100 = m.e_mimot_pa(&p, 2, 2, 100.0);
        let e200 = m.e_mimot_pa(&p, 2, 2, 200.0);
        assert!((e200 / e100 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cooperation_cuts_pa_energy() {
        // the paper's Figure-7 headline: SISO needs orders of magnitude more
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let siso = m.e_mimot_pa(&p, 1, 1, 200.0);
        let mimo = m.e_mimot_pa(&p, 2, 3, 200.0);
        let ratio = siso / (2.0 * mimo); // total over transmitters
        assert!(ratio > 10.0, "SISO/MIMO total PA ratio {ratio}");
    }

    #[test]
    fn max_distance_inverts_e_mimot() {
        let m = EnergyModel::paper();
        let p = params(5e-3, 2);
        let d = 250.0;
        let budget = m.e_mimot(&p, 1, 1, d);
        let got = m.max_distance(&p, 1, 1, budget).unwrap();
        assert!((got - d).abs() / d < 1e-6, "roundtrip {got}");
    }

    #[test]
    fn max_distance_none_when_budget_below_circuit() {
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let circuit = m.e_mimot_c(&p);
        assert!(m.max_distance(&p, 2, 1, circuit * 0.5).is_none());
    }

    #[test]
    fn reception_cheaper_than_cooperative_transmission_at_range() {
        // paper Section 6.1: "Transmission needs more energy than reception"
        let m = EnergyModel::paper();
        let p = params(5e-4, 2);
        let tx = m.e_mimot(&p, 3, 1, 200.0);
        let rx = m.e_mimor(&p);
        assert!(tx > rx, "tx {tx:e} vs rx {rx:e}");
    }

    #[test]
    fn wider_bandwidth_lowers_circuit_energy_per_bit() {
        let m = EnergyModel::paper();
        let p20 = LinkParams::new(1e-3, 2, 20_000.0, 10_000.0);
        let p40 = LinkParams::new(1e-3, 2, 40_000.0, 10_000.0);
        assert!(m.e_mimot_c(&p40) < m.e_mimot_c(&p20));
        assert!(m.e_lr(&p40) < m.e_lr(&p20));
    }

    #[test]
    #[should_panic]
    fn link_params_reject_bad_ber() {
        let _ = LinkParams::new(0.7, 2, 1e4, 1e4);
    }
}
