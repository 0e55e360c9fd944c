//! The overlay paradigm — Algorithm 1 and the distance analysis of
//! Section 3 / Figure 6.
//!
//! `m` secondary users relay the primary transmission in two cooperative
//! hops:
//!
//! * **Step 1** — `Pt → {SU_1..SU_m}` over a `1 × m` SIMO link; each SU
//!   spends `E_Sr = e^MIMOr` per bit, the primary transmitter spends
//!   `E_Pt = e^MIMOt(1, m)`.
//! * **Step 2** — `{SU_1..SU_m} → Pr` over an `m × 1` MISO link; each SU
//!   spends `E_St = e^MIMOt(m, 1)`, the primary receiver `e^MIMOr`.
//!
//! The analysis asks: with the *same* per-node energy the direct link
//! `Pt → Pr` uses at BER `p_direct` over distance `D1`, how far can the
//! relays sit from `Pt` (distance `D2`) and from `Pr` (distance `D3`)
//! while delivering a 10× better BER `p_relay`? (paper: `p_direct = 0.005`,
//! `p_relay = 0.0005`.)

use comimo_energy::model::{EnergyModel, LinkParams};
use comimo_energy::optimize::minimize_over_b;
use serde::{Deserialize, Serialize};

/// How Step 1 (the `Pt → SUs` SIMO hop) is modelled when solving for `D2`.
///
/// The paper's formula reads `E1 = e^MIMOt(1, m)` (receive diversity), but
/// its own Figure-6(a) numbers (`D2 ≈ 0.94·D1`, curves for different `m`
/// "almost overlapped" at equal bandwidth) are only consistent with each
/// relay decoding *independently* at the direct-link BER — every relay
/// must recover the full message itself before it can act as an STBC
/// antenna in Step 2, and distributed single-antenna nodes cannot combine
/// before decoding. Both readings are implemented; `IndependentDecode`
/// reproduces the figure and is the default, `ReceiveDiversity` is the
/// literal formula (ablation, DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimoModel {
    /// Each relay decodes on its own at the direct-link BER (default;
    /// matches Figure 6(a): D2 tracks D1 and barely depends on `m`).
    IndependentDecode,
    /// The `1 × m` link enjoys full receive diversity at the relay BER
    /// (the literal equation; makes D2 far larger than the figure shows).
    ReceiveDiversity,
}

/// Configuration of the overlay analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlayConfig {
    /// Number of cooperating relay SUs (`m`).
    pub m: usize,
    /// BER of the direct primary link (paper: 0.005).
    pub ber_direct: f64,
    /// BER required of the relayed path (paper: 0.0005 — 10× better).
    pub ber_relay: f64,
    /// Bandwidth (Hz); the paper sweeps 10 k – 100 k.
    pub bandwidth_hz: f64,
    /// Block size `n` in bits.
    pub block_bits: f64,
    /// Step-1 model (see [`SimoModel`]).
    pub simo_model: SimoModel,
}

impl OverlayConfig {
    /// The paper's Figure-6 settings for a given `m` and bandwidth.
    pub fn paper(m: usize, bandwidth_hz: f64) -> Self {
        Self {
            m,
            ber_direct: 0.005,
            ber_relay: 0.0005,
            bandwidth_hz,
            block_bits: 1e4,
            simo_model: SimoModel::IndependentDecode,
        }
    }
}

/// Result of the Section-3 distance analysis at one `D1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlayAnalysis {
    /// Direct-link distance `Pt → Pr` (m).
    pub d1: f64,
    /// Per-bit energy of the direct link (the budget), `E1` (J/bit).
    pub e1: f64,
    /// Constellation minimising the direct-link energy.
    pub b_direct: u32,
    /// Largest distance of the relays from the primary transmitter (m).
    pub d2: f64,
    /// Constellation maximising `D2`.
    pub b_simo: u32,
    /// Largest distance of the relays from the primary receiver (m).
    pub d3: f64,
    /// Constellation maximising `D3`.
    pub b_miso: u32,
}

/// Re-weighted state of an overlay burst after `k` relay deaths — see
/// [`Overlay::degrade`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlayDegradation {
    /// Relays still alive (`m − k`).
    pub m_survivors: usize,
    /// Whether the Step-1 placement at `D2` still meets the budget.
    pub d2_feasible: bool,
    /// Whether the surviving MISO hop at `D3` still meets the budget.
    pub d3_feasible: bool,
    /// Per-survivor energy required to hold `ber_relay` at `D3` (J/bit).
    pub e_su_required: f64,
    /// The unchanged per-node budget `E1` (J/bit).
    pub e_budget: f64,
    /// `e_su_required / e_budget`; > 1 means the survivors cannot fund the
    /// strict BER at the original placement.
    pub energy_overdraw: f64,
    /// End-to-end BER the degraded chain actually delivers.
    pub ber_e2e: f64,
}

impl OverlayDegradation {
    /// Whether the degraded burst still satisfies the full analysis.
    pub fn feasible(&self) -> bool {
        self.d2_feasible && self.d3_feasible
    }
}

/// The overlay paradigm evaluator.
#[derive(Debug, Clone)]
pub struct Overlay<'m> {
    model: &'m EnergyModel,
    cfg: OverlayConfig,
}

impl<'m> Overlay<'m> {
    /// Builds the evaluator.
    pub fn new(model: &'m EnergyModel, cfg: OverlayConfig) -> Self {
        assert!(cfg.m >= 1, "need at least one relay");
        assert!(
            cfg.ber_relay < cfg.ber_direct,
            "relayed BER must be stricter"
        );
        Self { model, cfg }
    }

    /// Step 0 of the analysis: the direct link's per-bit energy `E1` at
    /// distance `d1`, minimised over the constellation (paper: "the
    /// minimum value of E_S is found by changing constellation size b from
    /// 1 to 16").
    pub fn direct_energy(&self, d1: f64) -> (f64, u32) {
        let c = minimize_over_b(1, 16, |b| {
            let p = LinkParams::new(
                self.cfg.ber_direct,
                b,
                self.cfg.bandwidth_hz,
                self.cfg.block_bits,
            );
            self.model.e_mimot(&p, 1, 1, d1)
        });
        (c.energy, c.b)
    }

    /// The full Section-3 analysis at direct-link distance `d1`:
    ///
    /// 1. `E1 = min_b e^MIMOt(1,1)` at `(d1, ber_direct)`;
    /// 2. `D2`: largest SIMO distance with `E_Pt = E1` at `ber_relay`,
    ///    maximised over `b`;
    /// 3. `D3`: largest MISO distance with
    ///    `E_S = e^MIMOt(m,1) + e^MIMOr = E1` at `ber_relay`, maximised
    ///    over `b`.
    pub fn analyze(&self, d1: f64) -> OverlayAnalysis {
        let (e1, b_direct) = self.direct_energy(d1);
        let m = self.cfg.m;
        // D2: budget on the long-haul transmit energy of Pt over the
        // 1 x m hop, under the configured Step-1 model
        let (simo_ber, simo_mr) = match self.cfg.simo_model {
            SimoModel::IndependentDecode => (self.cfg.ber_direct, 1),
            SimoModel::ReceiveDiversity => (self.cfg.ber_relay, m),
        };
        let mut best_d2 = (0.0f64, 1u32);
        for b in 1..=16u32 {
            let p = LinkParams::new(simo_ber, b, self.cfg.bandwidth_hz, self.cfg.block_bits);
            if let Some(d) = self.model.max_distance(&p, 1, simo_mr, e1) {
                if d > best_d2.0 {
                    best_d2 = (d, b);
                }
            }
        }
        // D3: budget must also cover the SU's Step-1 reception cost
        let mut best_d3 = (0.0f64, 1u32);
        for b in 1..=16u32 {
            let p = LinkParams::new(
                self.cfg.ber_relay,
                b,
                self.cfg.bandwidth_hz,
                self.cfg.block_bits,
            );
            let tx_budget = e1 - self.model.e_mimor(&p);
            if tx_budget <= 0.0 {
                continue;
            }
            if let Some(d) = self.model.max_distance(&p, m, 1, tx_budget) {
                if d > best_d3.0 {
                    best_d3 = (d, b);
                }
            }
        }
        OverlayAnalysis {
            d1,
            e1,
            b_direct,
            d2: best_d2.0,
            b_simo: best_d2.1,
            d3: best_d3.0,
            b_miso: best_d3.1,
        }
    }

    /// Approximate end-to-end BER of the relayed path at the analysed
    /// operating point, by the small-error union bound over the
    /// decode-and-forward chain: each relay decodes Step 1 at `p_1` and
    /// re-encodes its (possibly wrong) decisions, and the MISO hop adds
    /// `p_2`; a bit survives only if both stages do, so
    /// `p_e2e ≈ p_1 + p_2` for small error rates. Under the default
    /// Step-1 model `p_1 = ber_direct` and `p_2 = ber_relay`, which makes
    /// explicit that the overlay chain's end-to-end quality is bounded by
    /// the relays' own reception — the reason the paper keeps the relays
    /// within `D2 ≈ D1` of the primary transmitter.
    pub fn end_to_end_ber(&self) -> f64 {
        let (p1, p2) = match self.cfg.simo_model {
            SimoModel::IndependentDecode => (self.cfg.ber_direct, self.cfg.ber_relay),
            SimoModel::ReceiveDiversity => (self.cfg.ber_relay, self.cfg.ber_relay),
        };
        // exact two-stage composition for independent binary errors:
        // wrong iff exactly one stage flips
        p1 * (1.0 - p2) + p2 * (1.0 - p1)
    }

    /// Graceful degradation when `k_failed` of the `m` relays die mid-burst
    /// (battery exhaustion or crash): the MISO hop re-weights from `m` to
    /// the `m − k` survivors *at the original placement* and the `D2`/`D3`
    /// feasibility is re-checked against the unchanged per-node budget
    /// `E1`. Returns `None` when no relay survives — the burst aborts and
    /// the primary falls back to its direct link.
    ///
    /// Feasibility semantics:
    /// * Step 1 (`Pt → SUs`): under [`SimoModel::IndependentDecode`] each
    ///   survivor decoded on its own, so relay deaths never invalidate
    ///   `D2`; under [`SimoModel::ReceiveDiversity`] the diversity order
    ///   drops to `m − k` and the budget is re-checked.
    /// * Step 2 (`SUs → Pr`): the surviving `(m−k) × 1` MISO link loses
    ///   array gain, so each survivor needs more energy to hold
    ///   `ber_relay` at `D3`; `energy_overdraw > 1` quantifies by how much
    ///   the budget would be exceeded.
    pub fn degrade(&self, d1: f64, k_failed: usize) -> Option<OverlayDegradation> {
        let m = self.cfg.m;
        if k_failed >= m {
            return None;
        }
        let survivors = m - k_failed;
        let a = self.analyze(d1);
        // Step-1 re-check at the original D2
        let d2_feasible = match self.cfg.simo_model {
            SimoModel::IndependentDecode => true,
            SimoModel::ReceiveDiversity => {
                let c = minimize_over_b(1, 16, |b| {
                    let p = LinkParams::new(
                        self.cfg.ber_relay,
                        b,
                        self.cfg.bandwidth_hz,
                        self.cfg.block_bits,
                    );
                    self.model.e_mimot(&p, 1, survivors, a.d2)
                });
                c.energy <= a.e1 * (1.0 + 1e-9)
            }
        };
        // Step-2 re-weighting: per-survivor cost of the (m−k) × 1 MISO hop
        // at the original D3, plus the Step-1 reception the budget covers
        let c = minimize_over_b(1, 16, |b| {
            let p = LinkParams::new(
                self.cfg.ber_relay,
                b,
                self.cfg.bandwidth_hz,
                self.cfg.block_bits,
            );
            self.model.e_mimot(&p, survivors, 1, a.d3) + self.model.e_mimor(&p)
        });
        let e_su_required = c.energy;
        let energy_overdraw = e_su_required / a.e1;
        let d3_feasible = energy_overdraw <= 1.0 + 1e-9;
        // end-to-end BER: unchanged while the survivors can fund the strict
        // BER; once the budget breaks, the chain honestly degrades to the
        // direct-link quality on both stages (the relays cannot promise
        // ber_relay any more)
        let ber_e2e = if d2_feasible && d3_feasible {
            self.end_to_end_ber()
        } else {
            let p = self.cfg.ber_direct;
            p * (1.0 - p) + p * (1.0 - p)
        };
        Some(OverlayDegradation {
            m_survivors: survivors,
            d2_feasible,
            d3_feasible,
            e_su_required,
            e_budget: a.e1,
            energy_overdraw,
            ber_e2e,
        })
    }

    /// Sweeps `d1` over a range (the paper: 150 m – 350 m), returning one
    /// analysis per point — the data behind Figure 6.
    pub fn sweep(&self, d1_from: f64, d1_to: f64, step: f64) -> Vec<OverlayAnalysis> {
        assert!(d1_to >= d1_from && step > 0.0);
        let mut out = Vec::new();
        let mut d = d1_from;
        while d <= d1_to + 1e-9 {
            out.push(self.analyze(d));
            d += step;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay(m: usize, bw: f64) -> (EnergyModel, OverlayConfig) {
        (EnergyModel::paper(), OverlayConfig::paper(m, bw))
    }

    #[test]
    fn budget_consistency_at_d2_and_d3() {
        let (model, cfg) = overlay(3, 40_000.0);
        let ov = Overlay::new(&model, cfg);
        let a = ov.analyze(250.0);
        // at the reported distances, the energies meet the budget
        // (default Step-1 model: independent decode at the direct BER)
        let p_simo = LinkParams::new(cfg.ber_direct, a.b_simo, cfg.bandwidth_hz, cfg.block_bits);
        let e_pt = model.e_mimot(&p_simo, 1, 1, a.d2);
        assert!(
            (e_pt - a.e1).abs() / a.e1 < 1e-6,
            "E_Pt {e_pt:e} vs E1 {:e}",
            a.e1
        );
        let p_miso = LinkParams::new(cfg.ber_relay, a.b_miso, cfg.bandwidth_hz, cfg.block_bits);
        let e_s = model.e_mimot(&p_miso, 3, 1, a.d3) + model.e_mimor(&p_miso);
        assert!(
            (e_s - a.e1).abs() / a.e1 < 1e-6,
            "E_S {e_s:e} vs E1 {:e}",
            a.e1
        );
    }

    #[test]
    fn relays_reach_beyond_nothing_despite_stricter_ber() {
        // the headline of Figure 6: with the same energy the relays hit a
        // 10x better BER at distances comparable to or beyond D1
        let (model, cfg) = overlay(3, 40_000.0);
        let ov = Overlay::new(&model, cfg);
        let a = ov.analyze(250.0);
        assert!(a.d2 > 100.0, "D2 = {}", a.d2);
        assert!(a.d3 > 100.0, "D3 = {}", a.d3);
    }

    #[test]
    fn d3_exceeds_d2_as_in_figure_6() {
        // paper Section 6.1: "the distance from SUs to Pr is larger than
        // from SUs to Pt" — the MISO side gets the transmit-array gain at
        // the strict BER, while Step 1 is bounded by each relay's own
        // decode at the direct BER
        let (model, cfg) = overlay(3, 40_000.0);
        let ov = Overlay::new(&model, cfg);
        for d1 in [150.0, 250.0, 350.0] {
            let a = ov.analyze(d1);
            assert!(a.d3 > a.d2, "d1={d1}: D3 {} <= D2 {}", a.d3, a.d2);
        }
    }

    #[test]
    fn simo_model_ablation_receive_diversity_reaches_farther() {
        // the literal-formula variant lets Pt reach much farther (receive
        // diversity at the relays) — the reading DESIGN.md §5 describes,
        // pinned at the D2 EXPERIMENTS.md quotes for D1 = 250 m, m = 3,
        // B = 40 kHz
        let model = EnergyModel::paper();
        let mut cfg = OverlayConfig::paper(3, 40_000.0);
        let d2_default = Overlay::new(&model, cfg).analyze(250.0).d2;
        cfg.simo_model = SimoModel::ReceiveDiversity;
        let d2_literal = Overlay::new(&model, cfg).analyze(250.0).d2;
        assert!(
            d2_literal > 1.5 * d2_default,
            "literal {d2_literal} vs default {d2_default}"
        );
        assert!((d2_literal - 721.21).abs() < 0.5, "literal D2 {d2_literal}");
    }

    #[test]
    fn d2_nearly_independent_of_m_as_figure_6a() {
        // Figure 6(a): "for the cases that their bandwidth is the same the
        // results are almost overlapped"
        let model = EnergyModel::paper();
        let d2_m2 = Overlay::new(&model, OverlayConfig::paper(2, 40_000.0))
            .analyze(250.0)
            .d2;
        let d2_m3 = Overlay::new(&model, OverlayConfig::paper(3, 40_000.0))
            .analyze(250.0)
            .d2;
        assert!(
            (d2_m2 - d2_m3).abs() / d2_m2 < 0.01,
            "D2(m=2) {d2_m2} vs D2(m=3) {d2_m3}"
        );
    }

    #[test]
    fn distances_grow_with_d1() {
        let (model, cfg) = overlay(2, 20_000.0);
        let ov = Overlay::new(&model, cfg);
        let sweep = ov.sweep(150.0, 350.0, 50.0);
        assert_eq!(sweep.len(), 5);
        for w in sweep.windows(2) {
            assert!(w[1].d2 > w[0].d2, "D2 not increasing");
            assert!(w[1].d3 > w[0].d3, "D3 not increasing");
            assert!(w[1].e1 > w[0].e1, "budget not increasing");
        }
    }

    #[test]
    fn wider_bandwidth_reaches_farther() {
        // paper Section 6.1: "the wider the bandwidth ... longer
        // transmission distance"
        let model = EnergyModel::paper();
        let a20 = Overlay::new(&model, OverlayConfig::paper(3, 20_000.0)).analyze(250.0);
        let a40 = Overlay::new(&model, OverlayConfig::paper(3, 40_000.0)).analyze(250.0);
        assert!(a40.d3 > a20.d3, "40k D3 {} vs 20k D3 {}", a40.d3, a20.d3);
        assert!(
            a40.d2 >= a20.d2 * 0.99,
            "40k D2 {} vs 20k D2 {}",
            a40.d2,
            a20.d2
        );
    }

    #[test]
    fn paper_anchor_250m_m3_b40k() {
        // paper example: D1=250 m, m=3, B=40k -> D3 ≈ 406 m, D2 ≈ 235 m.
        // Our model reproduces the *shape* (D3 > D1 > D2-ish, hundreds of
        // metres); exact values depend on the unstated p for b-selection.
        let (model, cfg) = overlay(3, 40_000.0);
        let ov = Overlay::new(&model, cfg);
        let a = ov.analyze(250.0);
        // D3 beyond the direct link (paper: 406 m ≈ 1.62x)
        assert!(a.d3 > 1.1 * a.d1, "D3 {} should exceed D1 {}", a.d3, a.d1);
        // D2 tracks D1 (paper: 235 m ≈ 0.94x)
        assert!(
            a.d2 > 0.7 * a.d1 && a.d2 < 1.2 * a.d1,
            "D2 {} should track D1 {}",
            a.d2,
            a.d1
        );
    }

    #[test]
    fn end_to_end_ber_composition() {
        let model = EnergyModel::paper();
        let ov = Overlay::new(&model, OverlayConfig::paper(3, 40_000.0));
        let p = ov.end_to_end_ber();
        // p1 + p2 - 2 p1 p2 with p1 = 0.005, p2 = 0.0005
        let expect = 0.005 * (1.0 - 0.0005) + 0.0005 * (1.0 - 0.005);
        assert!((p - expect).abs() < 1e-12);
        // the chain is dominated by the relays' own decode quality
        assert!(p > 0.005 && p < 0.006);
        // under the literal model both stages run at the strict BER
        let mut cfg = OverlayConfig::paper(3, 40_000.0);
        cfg.simo_model = SimoModel::ReceiveDiversity;
        let p_lit = Overlay::new(&model, cfg).end_to_end_ber();
        assert!(p_lit < 0.0011);
    }

    #[test]
    fn degrade_zero_failures_is_feasible_and_matches_analysis() {
        let (model, cfg) = overlay(3, 40_000.0);
        let ov = Overlay::new(&model, cfg);
        let d = ov.degrade(250.0, 0).expect("no failure");
        assert_eq!(d.m_survivors, 3);
        assert!(d.feasible(), "unfailed burst must stay feasible");
        assert!(
            (d.energy_overdraw - 1.0).abs() < 1e-6,
            "at the analysed D3 the budget is exactly met: {}",
            d.energy_overdraw
        );
        assert!((d.ber_e2e - ov.end_to_end_ber()).abs() < 1e-15);
    }

    #[test]
    fn degrade_losing_relays_breaks_the_miso_budget() {
        // m = 3 placed at its own D3; two survivors lose array gain and
        // overdraw the budget — the re-weighting must report it
        let (model, cfg) = overlay(3, 40_000.0);
        let ov = Overlay::new(&model, cfg);
        let d1 = ov.degrade(250.0, 1).expect("two survivors");
        assert_eq!(d1.m_survivors, 2);
        assert!(!d1.d3_feasible, "m−1 at the m-placement cannot meet budget");
        assert!(d1.energy_overdraw > 1.0);
        assert!(
            d1.d2_feasible,
            "independent decode is death-proof on Step 1"
        );
        // the degraded chain reports the honest (worse) end-to-end BER
        assert!(d1.ber_e2e > ov.end_to_end_ber());
        // deeper failure overdraws more
        let d2 = ov.degrade(250.0, 2).expect("one survivor");
        assert!(d2.energy_overdraw > d1.energy_overdraw);
    }

    #[test]
    fn degrade_all_dead_aborts_the_burst() {
        let (model, cfg) = overlay(2, 20_000.0);
        let ov = Overlay::new(&model, cfg);
        assert!(ov.degrade(200.0, 2).is_none());
        assert!(ov.degrade(200.0, 5).is_none());
    }

    #[test]
    fn degrade_zero_survivors_boundary_and_fallback_accounting() {
        // the exact boundary the chaos explorer probes: the last survivor
        // still yields a (heavily overdrawn) re-weighting, one more death
        // aborts to the direct link — no survivor energy is ever billed
        // past that point (None carries no e_su_required), and the direct
        // fallback's quality is the primary's own two-stage direct BER,
        // which the last-survivor degradation already reports honestly
        let (model, cfg) = overlay(4, 40_000.0);
        let p = cfg.ber_direct;
        let ov = Overlay::new(&model, cfg);
        let last = ov.degrade(250.0, 3).expect("one survivor remains");
        assert_eq!(last.m_survivors, 1);
        assert!(!last.feasible(), "a lone relay cannot fund the MISO hop");
        assert!(last.energy_overdraw > 1.0);
        assert!(last.e_su_required > last.e_budget);
        let direct = p * (1.0 - p) + p * (1.0 - p);
        assert!(
            (last.ber_e2e - direct).abs() < 1e-15,
            "infeasible burst reports direct-link quality"
        );
        // k = m is the abort: the burst is the primary's own transmission,
        // with zero secondary energy by construction
        assert!(ov.degrade(250.0, 4).is_none());
    }

    #[test]
    fn degrade_receive_diversity_rechecks_d2() {
        let model = EnergyModel::paper();
        let mut cfg = OverlayConfig::paper(3, 40_000.0);
        cfg.simo_model = SimoModel::ReceiveDiversity;
        let ov = Overlay::new(&model, cfg);
        // under the literal model D2 was sized for diversity order 3; with
        // 1 survivor the SIMO budget breaks too
        let d = ov.degrade(250.0, 2).expect("one survivor");
        assert!(!d.d2_feasible, "diversity-order drop must invalidate D2");
    }

    #[test]
    #[should_panic]
    fn relay_ber_must_be_stricter() {
        let model = EnergyModel::paper();
        let cfg = OverlayConfig {
            ber_relay: 0.01,
            ..OverlayConfig::paper(2, 1e4)
        };
        let _ = Overlay::new(&model, cfg);
    }
}
