//! Shared experiment runners — one function per paper artefact, with the
//! paper's exact parameters baked in as defaults.
//!
//! Each runner is a pure function of [`EXPERIMENT_SEED`] and its
//! arguments. The grid runners fan their points out through
//! [`comimo_sim::map_shards`] (output in grid order); a panic in any
//! point propagates with its message and fails the artefact.

use comimo_campaign::{CampaignConfig, CampaignStatus};
use comimo_core::interweave::{run_table1, InterweaveConfig, InterweaveTrial};
use comimo_core::overlay::{Overlay, OverlayAnalysis, OverlayConfig};
use comimo_core::underlay::{Underlay, UnderlayAnalysis, UnderlayConfig};
use comimo_energy::model::EnergyModel;
use comimo_faults::report_channel::{
    build_report_channel_schedule, ReportChannelFaultConfig, ReportChannelState,
    ReportChannelTimeline,
};
use comimo_faults::sensing::{build_reporter_schedule, ReporterFaultConfig, ReporterTimeline};
use comimo_math::rng::derive;
use comimo_sensing::{
    run_roc_campaign, run_round_byz, ByzCell, ByzSweepSpec, MarkovOnOff, RocGridSpec, RocPoint,
    RuleUsed, SensingRound,
};
use comimo_sim::map_shards;
use comimo_stbc::design::{Ostbc, StbcKind};
use comimo_stbc::grid::{simulate_ber_grid_par, GridPoint};
use comimo_testbed::experiments::beam_scan::{self, BeamScanConfig, BeamScanPoint};
use comimo_testbed::experiments::overlay_multi::{self, MultiRelayConfig, MultiRelayRow};
use comimo_testbed::experiments::overlay_single::{self, SingleRelayConfig, SingleRelayResult};
use comimo_testbed::experiments::underlay_image::{self, UnderlayImageConfig, UnderlayImageResult};
use serde::Serialize;

/// The workspace-wide experiment seed (recorded in EXPERIMENTS.md).
pub const EXPERIMENT_SEED: u64 = 2013;

/// One Figure-6 series: `(m, bandwidth)` ↦ analyses over `D1`.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Series {
    /// Relay count `m`.
    pub m: usize,
    /// Bandwidth (Hz).
    pub bandwidth_hz: f64,
    /// One analysis per `D1` point.
    pub points: Vec<OverlayAnalysis>,
}

/// Figure 6: sweeps `D1 ∈ [150, 350] m` for the paper's `(m, B)` grid
/// (`m ∈ {2, 3}`, `B ∈ {20 k, 40 k}`), at `step` metres resolution.
pub fn fig6(step: f64) -> Vec<Fig6Series> {
    let model = EnergyModel::paper();
    // the analytic sweeps are deterministic, so the (m, B) grid fans out
    // onto the rayon pool with the output in grid order
    let grid: Vec<(usize, f64)> = [2usize, 3]
        .iter()
        .flat_map(|&m| [20_000.0, 40_000.0].iter().map(move |&bw| (m, bw)))
        .collect();
    map_shards(&grid, |_, &(m, bw)| {
        let overlay = Overlay::new(&model, OverlayConfig::paper(m, bw));
        Fig6Series {
            m,
            bandwidth_hz: bw,
            points: overlay.sweep(150.0, 350.0, step),
        }
    })
}

/// One Figure-7 series: an `(mt, mr)` configuration over `D`.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Series {
    /// Transmit cluster size.
    pub mt: usize,
    /// Receive cluster size.
    pub mr: usize,
    /// One analysis per long-haul distance.
    pub points: Vec<UnderlayAnalysis>,
}

/// The six `(mt, mr)` configurations of Figure 7.
pub const FIG7_CONFIGS: [(usize, usize); 6] = [(1, 1), (2, 1), (1, 2), (1, 3), (2, 3), (3, 3)];

/// Figure 7: total PA energy per bit over `D ∈ [100, 300] m` at `d = 1 m`,
/// `p = 0.001`, `B = 10 kHz`, for the six cluster configurations.
pub fn fig7(step: f64) -> Vec<Fig7Series> {
    let model = EnergyModel::paper();
    map_shards(&FIG7_CONFIGS, |_, &(mt, mr)| {
        let u = Underlay::new(&model, UnderlayConfig::paper(mt, mr, 10_000.0));
        Fig7Series {
            mt,
            mr,
            points: u.sweep(100.0, 300.0, step),
        }
    })
}

/// Table 1: ten interweave trials with the paper's geometry.
pub fn table1() -> Vec<InterweaveTrial> {
    run_table1(EXPERIMENT_SEED, &InterweaveConfig::paper())
}

/// Table 2: the single-relay overlay testbed experiment (three runs of
/// 100 000 bits).
pub fn table2() -> SingleRelayResult {
    overlay_single::run(&SingleRelayConfig::paper(), EXPERIMENT_SEED)
}

/// Table 3: the multi-relay overlay testbed experiment.
pub fn table3() -> MultiRelayRow {
    overlay_multi::run(&MultiRelayConfig::paper(), EXPERIMENT_SEED)
}

/// Table 4: the underlay image transfer at amplitudes 800/600/400.
/// `n_packets = None` runs the paper's full 474 packets.
pub fn table4(n_packets: Option<usize>) -> UnderlayImageResult {
    let mut cfg = UnderlayImageConfig::paper();
    if let Some(n) = n_packets {
        cfg.n_packets = n;
    }
    underlay_image::run(&cfg, &[800, 600, 400], EXPERIMENT_SEED)
}

/// Figure 8: the interweave beam scan (null at 120°, 0°–180° in 20° steps).
pub fn fig8() -> Vec<BeamScanPoint> {
    beam_scan::run(&BeamScanConfig::paper(), EXPERIMENT_SEED)
}

/// Symbol-SNR grid (dB, `Es/N0`) of the bergrid Monte-Carlo sweep.
pub const BERGRID_SNRS_DB: [f64; 7] = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0];

/// The cooperative cluster configurations the bergrid sweep validates:
/// the Figure-7 MIMO hops `(mt, mr) = (2, 3)` and `(3, 3)` mapped onto
/// their orthogonal space-time designs (Alamouti, Tarokh H3).
pub const BERGRID_CONFIGS: [(StbcKind, usize, usize); 2] =
    [(StbcKind::Alamouti, 2, 3), (StbcKind::H3, 3, 3)];

/// One Monte-Carlo-validated BER point of a bergrid series.
#[derive(Debug, Clone, Serialize)]
pub struct BerGridPoint {
    /// Constellation size (bits per symbol).
    pub bits_per_symbol: u32,
    /// Symbol SNR `Es/N0` (dB).
    pub snr_db: f64,
    /// Bits simulated at this point.
    pub bits: u64,
    /// Bit errors counted.
    pub errors: u64,
    /// `errors / bits`.
    pub ber: f64,
}

/// One bergrid series: a cooperative cluster configuration's BER grid,
/// every point drawn from **one shared random-number stream** (the CRN
/// grid engine), so adjacent points differ only by the configuration —
/// not by sampling noise.
#[derive(Debug, Clone, Serialize)]
pub struct BerGridSeries {
    /// Space-time code of the transmit cluster.
    pub kind: String,
    /// Transmit cluster size.
    pub mt: usize,
    /// Receive cluster size.
    pub mr: usize,
    /// Monte-Carlo blocks behind every point.
    pub n_blocks: usize,
    /// Constellation-major point list: each constellation's full SNR
    /// curve ([`BERGRID_SNRS_DB`]) is contiguous.
    pub points: Vec<BerGridPoint>,
}

/// The operating constellations the analytic artefacts actually select —
/// Figure 6's direct/SIMO/MISO optima and Figure 7's per-distance optima
/// — filtered to the Monte-Carlo simulator's supported sizes (`b = 1` or
/// even `b ≤ 8`), sorted and deduplicated.
pub fn operating_constellations() -> Vec<u32> {
    let mut bs: Vec<u32> = fig6(100.0)
        .iter()
        .flat_map(|s| {
            s.points
                .iter()
                .flat_map(|p| [p.b_direct, p.b_simo, p.b_miso])
        })
        .chain(
            fig7(100.0)
                .iter()
                .flat_map(|s| s.points.iter().map(|p| p.b)),
        )
        .filter(|&b| b == 1 || (b % 2 == 0 && b <= 8))
        .collect();
    bs.sort_unstable();
    bs.dedup();
    bs
}

/// The `constellation × SNR` grid bergrid simulates (constellation-major,
/// `es = 1`, `n0 = 10^(-snr/10)`).
pub fn bergrid_points() -> Vec<GridPoint> {
    operating_constellations()
        .iter()
        .flat_map(|&b| {
            BERGRID_SNRS_DB.iter().map(move |&snr| GridPoint {
                bits_per_symbol: b,
                es: 1.0,
                n0: 10f64.powf(-snr / 10.0),
            })
        })
        .collect()
}

/// Bergrid: Monte-Carlo BER validation of the constellations Figures 6
/// and 7 operate at, on the CRN grid engine
/// ([`comimo_stbc::grid::simulate_ber_grid_par`]) — the whole
/// `constellation × SNR` grid of each cluster configuration reuses one
/// channel/noise draw stream, so the curves are directly comparable and
/// the entire sweep costs one pass over the blocks. Results are a pure
/// function of `(EXPERIMENT_SEED, n_blocks)` at any thread count.
pub fn bergrid(n_blocks: usize) -> Vec<BerGridSeries> {
    let points = bergrid_points();
    map_shards(&BERGRID_CONFIGS, |_, &(kind, mt, mr)| {
        let code = Ostbc::new(kind);
        let results = simulate_ber_grid_par(EXPERIMENT_SEED, &code, &points, mr, n_blocks);
        BerGridSeries {
            kind: format!("{kind:?}"),
            mt,
            mr,
            n_blocks,
            points: points
                .iter()
                .zip(&results)
                .enumerate()
                .map(|(i, (p, r))| BerGridPoint {
                    bits_per_symbol: p.bits_per_symbol,
                    snr_db: BERGRID_SNRS_DB[i % BERGRID_SNRS_DB.len()],
                    bits: r.bits,
                    errors: r.errors,
                    ber: r.errors as f64 / r.bits as f64,
                })
                .collect(),
        }
    })
}

/// The fault-rate multipliers every degradation benchmark sweeps
/// (`faultbench`, `sensebench`): nominal taxonomy rates × λ.
pub const FAULT_LAMBDAS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

/// Renders one λ-sweep section of a degradation benchmark: the section
/// title, then a table with one row per [`FAULT_LAMBDAS`] entry.
pub fn lambda_sweep_section(
    title: &str,
    headers: &[&str],
    mut row_of: impl FnMut(f64) -> Vec<String>,
) -> String {
    let rows: Vec<Vec<String>> = FAULT_LAMBDAS.iter().map(|&l| row_of(l)).collect();
    format!("{title}\n{}\n", crate::tables::render_table(headers, &rows))
}

/// Prints a finished benchmark text artefact and mirrors it to
/// `results/<name>` when run from the repo root.
pub fn emit_text_artifact(name: &str, out: &str) {
    print!("{out}");
    if std::path::Path::new("results").is_dir() {
        let path = format!("results/{name}");
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

/// Horizon of the sensing degradation sweep (1 s slots — one fused
/// decision each).
pub const SENSE_HORIZON_S: f64 = 600.0;
/// Reporters per fused decision in the sensing sweep.
pub const SENSE_REPORTERS: usize = 6;
/// Per-reporter SNR of the primary signal on a busy slot (dB).
pub const SENSE_SNR_DB: f64 = 0.0;
/// Intra-cluster report-loss probability (exercises the retry path).
pub const SENSE_LOSS_PROB: f64 = 0.1;
/// Report-channel SNR (dB) of the noisy sweep: high enough that nominal
/// slots decode confidently, low enough that SNR-collapse faults knock
/// rounds off the soft rung.
pub const SENSE_REPORT_SNR_DB: f64 = 15.0;
/// Salt of the cluster head's own detector stream — the head is not a
/// reporter; its local decision is the degradation ladder's last rung.
const SENSE_HEAD_SALT: u64 = 0x5EA5_E000_0004;

/// One λ point of the cooperative-sensing degradation sweep: achieved
/// fused detection/false-alarm performance, which rung of the fusion
/// ladder the head used, and the report-transport accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SenseSweepRow {
    /// Fault-rate multiplier on the nominal reporter-fault taxonomy.
    pub lambda: f64,
    /// Reporter-fault events in the derived schedule.
    pub fault_events: usize,
    /// Slots whose ground-truth primary state was busy.
    pub busy_slots: u64,
    /// Slots whose ground-truth primary state was idle.
    pub idle_slots: u64,
    /// Fused busy verdicts on busy slots.
    pub detections: u64,
    /// Fused busy verdicts on idle slots.
    pub false_alarms: u64,
    /// Slots fused on the soft LLR rung (noisy long-haul, confident;
    /// the λ sweeps carry no reputation view, so weights are uniform).
    pub used_weighted_llr: u64,
    /// Slots fused by counting hard bits against the quorum: the
    /// k-out-of-N head of [`SensingRound::paper`], or a shaky decode of
    /// the report words.
    pub used_hard_decode: u64,
    /// Slots degraded to the OR fallback (quorum below the floor).
    pub used_or_fallback: u64,
    /// Slots degraded to head-local sensing (no reports at all).
    pub used_head_local: u64,
    /// Report frames on the air (retries included).
    pub frames_sent: u64,
    /// Deduplicated lost-ack retransmissions.
    pub duplicates: u64,
    /// Post-deadline arrivals, dropped.
    pub stale: u64,
    /// Live-reporter reports that never made it.
    pub missing: u64,
}

impl SenseSweepRow {
    /// Achieved fused detection probability.
    pub fn pd(&self) -> f64 {
        if self.busy_slots == 0 {
            0.0
        } else {
            self.detections as f64 / self.busy_slots as f64
        }
    }

    /// Achieved fused false-alarm probability.
    pub fn pfa(&self) -> f64 {
        if self.idle_slots == 0 {
            0.0
        } else {
            self.false_alarms as f64 / self.idle_slots as f64
        }
    }
}

/// The shared sweep core: [`SENSE_HORIZON_S`] slotted fused decisions
/// against the Markov ON/OFF primary, reporters faulted by their
/// `derive(seed, unit)` schedule at λ × nominal rates, reports crossing
/// the lossy intra-cluster channel — over the long-haul `cfg` carries
/// (noiseless, or noisy with its own λ-scaled report-channel faults). A
/// pure function of `(lambda, cfg, EXPERIMENT_SEED)` at any thread count.
fn sense_sweep_with(lambda: f64, mut cfg: SensingRound, noisy: bool) -> SenseSweepRow {
    let fcfg = if lambda == 0.0 {
        ReporterFaultConfig::disabled(SENSE_HORIZON_S)
    } else {
        ReporterFaultConfig::nominal(SENSE_HORIZON_S).scaled(lambda)
    };
    let schedule = build_reporter_schedule(&fcfg, SENSE_REPORTERS, EXPERIMENT_SEED);
    let tl = ReporterTimeline::from_schedule(&schedule);
    let rcfg = if lambda == 0.0 || !noisy {
        ReportChannelFaultConfig::disabled(SENSE_HORIZON_S)
    } else {
        ReportChannelFaultConfig::nominal(SENSE_HORIZON_S).scaled(lambda)
    };
    let rschedule = build_report_channel_schedule(&rcfg, SENSE_REPORTERS, EXPERIMENT_SEED);
    let rtl = ReportChannelTimeline::from_schedule(&rschedule);
    let snr = comimo_math::db::db_to_lin(SENSE_SNR_DB);
    cfg.transport.loss_prob = SENSE_LOSS_PROB;
    let det = cfg.detector;
    let n_slots = SENSE_HORIZON_S as usize;
    let truth = MarkovOnOff::paper().sample_states(EXPERIMENT_SEED, 0, n_slots);
    let mut row = SenseSweepRow {
        lambda,
        fault_events: schedule.len() + rschedule.len(),
        busy_slots: 0,
        idle_slots: 0,
        detections: 0,
        false_alarms: 0,
        used_weighted_llr: 0,
        used_hard_decode: 0,
        used_or_fallback: 0,
        used_head_local: 0,
        frames_sent: 0,
        duplicates: 0,
        stale: 0,
        missing: 0,
    };
    for (slot, &busy) in truth.iter().enumerate() {
        let t = slot as f64;
        let states: Vec<_> = (0..SENSE_REPORTERS).map(|r| tl.state_at(t, r)).collect();
        let report_states: Vec<ReportChannelState> =
            (0..SENSE_REPORTERS).map(|r| rtl.state_at(t, r)).collect();
        let mut head_rng = derive(EXPERIMENT_SEED, SENSE_HEAD_SALT ^ slot as u64);
        let head_snr = if busy { snr } else { 0.0 };
        let head_local = det.decide(det.sample_statistic(&mut head_rng, head_snr));
        let (out, _) = run_round_byz(
            &cfg,
            busy,
            &states,
            &report_states,
            &[],
            head_local,
            EXPERIMENT_SEED,
            slot as u64,
            None,
        )
        .expect("the paper sweep config is valid");
        if busy {
            row.busy_slots += 1;
            row.detections += u64::from(out.decision.busy);
        } else {
            row.idle_slots += 1;
            row.false_alarms += u64::from(out.decision.busy);
        }
        match out.decision.rule_used {
            RuleUsed::WeightedLlr => row.used_weighted_llr += 1,
            RuleUsed::HardDecode => row.used_hard_decode += 1,
            RuleUsed::OrFallback => row.used_or_fallback += 1,
            RuleUsed::HeadLocal => row.used_head_local += 1,
        }
        row.frames_sent += out.frames_sent;
        row.duplicates += out.duplicates;
        row.stale += out.stale;
        row.missing += out.missing as u64;
    }
    row
}

/// One λ point of the sensing sweep with reports on a noiseless
/// long-haul fused k-out-of-N ([`SensingRound::paper`]): the clean
/// boolean decisions, count for count.
pub fn sense_sweep(lambda: f64) -> SenseSweepRow {
    let snr = comimo_math::db::db_to_lin(SENSE_SNR_DB);
    sense_sweep_with(lambda, SensingRound::paper(snr), false)
}

/// One λ point of the sensing sweep with reports on the noisy long-haul
/// at [`SENSE_REPORT_SNR_DB`]: LLR fusion walks the full four-rung
/// ladder, and λ also scales the report-channel fault taxonomy (SNR
/// collapse, phase desync).
pub fn sense_sweep_noisy(lambda: f64) -> SenseSweepRow {
    let snr = comimo_math::db::db_to_lin(SENSE_SNR_DB);
    sense_sweep_with(
        lambda,
        SensingRound::paper_noisy(snr, SENSE_REPORT_SNR_DB),
        true,
    )
}

/// The fault-free fused ROC behind the report's sensing section: the
/// paper grid ([`RocGridSpec::paper`]) on the campaign supervisor, no
/// checkpoint. Counts are pure functions of [`EXPERIMENT_SEED`].
pub fn sensing_roc() -> Vec<RocPoint> {
    let spec = RocGridSpec::paper();
    let (report, roc) = run_roc_campaign(
        &spec,
        &CampaignConfig::new(EXPERIMENT_SEED, spec.fingerprint()),
    )
    .expect("the fault-free ROC campaign completes");
    assert_eq!(report.status, CampaignStatus::Complete);
    roc
}

/// The fused-Pd floor a tolerable adversary cast must not drag the head
/// below: the containment acceptance line of the byzantine sweep.
pub const BYZ_PD_FLOOR: f64 = 0.9;

/// The containment acceptance verdict at one adversary count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ByzVerdict {
    /// Adversary count the verdict inspects (`⌊(n−1)/3⌋` at acceptance).
    pub byz_count: usize,
    /// Fused Pd of the reputation-weighted head.
    pub weighted_pd: f64,
    /// Fused Pd of the unweighted head over the same falsified draws.
    pub unweighted_pd: f64,
    /// The weighted head held the missed-detect budget
    /// (`Pd ≥` [`BYZ_PD_FLOOR`]).
    pub restored: bool,
    /// The unweighted head measurably violated it (`Pd <` the floor).
    pub violated: bool,
}

impl ByzVerdict {
    /// The acceptance bar: weighting restores what its absence
    /// measurably loses.
    pub fn holds(&self) -> bool {
        self.restored && self.violated
    }
}

/// Extracts the containment verdict at the Byzantine tolerance
/// `f = ⌊(n−1)/3⌋` from a sweep's cells. `None` when the axis never
/// sampled that count (the verdict is then vacuous, not failed).
pub fn byz_containment_verdict(spec: &ByzSweepSpec, cells: &[ByzCell]) -> Option<ByzVerdict> {
    let f_max = spec.n_reporters.saturating_sub(1) / 3;
    let pick = |weighted: bool| {
        cells
            .iter()
            .find(|c| c.byz_count == f_max && c.weighted == weighted)
    };
    let (w, u) = (pick(true)?, pick(false)?);
    Some(ByzVerdict {
        byz_count: f_max,
        weighted_pd: w.pd(),
        unweighted_pd: u.pd(),
        restored: w.pd() >= BYZ_PD_FLOOR,
        violated: u.pd() < BYZ_PD_FLOOR,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_sensing::run_byz_campaign;

    #[test]
    fn fig6_grid_shape() {
        let series = fig6(100.0);
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.points.len(), 3); // 150, 250, 350
        }
    }

    #[test]
    fn fig7_grid_shape() {
        let series = fig7(100.0);
        assert_eq!(series.len(), 6);
        assert_eq!(series[0].points.len(), 3); // 100, 200, 300
                                               // SISO is the most expensive at every point
        let siso = &series[0];
        for s in &series[1..] {
            for (a, b) in siso.points.iter().zip(&s.points) {
                assert!(a.total_pa() > b.total_pa(), "({}, {})", s.mt, s.mr);
            }
        }
    }

    #[test]
    fn table1_has_ten_rows() {
        assert_eq!(table1().len(), 10);
    }

    #[test]
    fn fig8_has_ten_points() {
        assert_eq!(fig8().len(), 10);
    }

    #[test]
    fn bergrid_covers_every_operating_constellation() {
        let bs = operating_constellations();
        assert!(!bs.is_empty(), "figures select no supported constellation");
        assert!(bs.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        for &b in &bs {
            assert!(b == 1 || (b % 2 == 0 && b <= 8), "unsupported b={b}");
        }
        let series = bergrid(64);
        assert_eq!(series.len(), BERGRID_CONFIGS.len());
        for s in &series {
            assert_eq!(s.points.len(), bs.len() * BERGRID_SNRS_DB.len());
            for (i, p) in s.points.iter().enumerate() {
                assert_eq!(p.bits_per_symbol, bs[i / BERGRID_SNRS_DB.len()]);
                assert_eq!(p.snr_db, BERGRID_SNRS_DB[i % BERGRID_SNRS_DB.len()]);
            }
        }
    }

    /// The published bergrid artefact must be exactly what the per-point
    /// engine would have produced — the CRN grid changes the cost of the
    /// sweep, never its counts. Diffs every grid count against an
    /// independent `simulate_ber_par` run of the same `(seed, point)`.
    #[test]
    fn bergrid_counts_equal_per_point_engine_counts() {
        use comimo_stbc::sim::{simulate_ber_par, SimConstellation};
        let n_blocks = 384; // spans a partial shard to exercise chunking
        let points = bergrid_points();
        for (series, &(kind, _, mr)) in bergrid(n_blocks).iter().zip(&BERGRID_CONFIGS) {
            let code = Ostbc::new(kind);
            for (p, got) in points.iter().zip(&series.points) {
                let cons = SimConstellation::new(p.bits_per_symbol);
                let want =
                    simulate_ber_par(EXPERIMENT_SEED, &code, &cons, mr, p.es, p.n0, n_blocks);
                assert_eq!(
                    (got.bits, got.errors),
                    (want.bits, want.errors),
                    "{kind:?} mr={mr} b={} n0={}",
                    p.bits_per_symbol,
                    p.n0
                );
            }
        }
    }

    #[test]
    fn lambda_sweep_section_renders_title_then_one_row_per_lambda() {
        let s = lambda_sweep_section("T", &["lambda"], |l| vec![format!("{l:.1}")]);
        assert!(s.starts_with("T\n| lambda"));
        assert!(s.ends_with("|\n\n"), "section ends with a blank line");
        // title + header + rule + rows + trailing blank line
        assert_eq!(s.matches('\n').count(), 4 + FAULT_LAMBDAS.len());
        assert!(s.contains("| 0.0") && s.contains("| 4.0"));
    }

    /// Fault-free λ = 0 stays on the k-out-of-N (hard) rung with
    /// near-perfect fused detection; a hot λ exhausts the roster and
    /// walks the ladder down to head-local sensing. The sweep is a pure
    /// function of `(λ, seed)` — the property CI leans on when it diffs
    /// sensebench output across thread counts.
    #[test]
    fn sense_sweep_degrades_deterministically() {
        let clean = sense_sweep(0.0);
        assert_eq!(clean.fault_events, 0);
        assert_eq!(clean.busy_slots + clean.idle_slots, SENSE_HORIZON_S as u64);
        assert_eq!(clean.used_hard_decode, SENSE_HORIZON_S as u64);
        assert_eq!(clean.used_head_local, 0);
        assert!(
            clean.pd() > 0.9,
            "fused majority Pd at 0 dB: {}",
            clean.pd()
        );
        assert!(clean.pfa() < 0.05, "fused majority Pfa: {}", clean.pfa());
        let hot = sense_sweep(4.0);
        assert!(hot.fault_events > 0);
        assert!(hot.used_head_local > 0, "deaths must reach the last rung");
        assert_eq!(hot, sense_sweep(4.0), "pure function of (λ, seed)");
    }

    /// The noisy sweep walks the soft end of the ladder: a fault-free
    /// λ = 0 fuses every slot on the LLR rung with clean-grade accuracy,
    /// and a hot λ's SNR collapses push slots into hard decoding while
    /// reporter deaths still reach head-local.
    #[test]
    fn noisy_sense_sweep_walks_the_soft_ladder() {
        let clean = sense_sweep_noisy(0.0);
        assert_eq!(clean.fault_events, 0);
        assert_eq!(clean.used_weighted_llr, SENSE_HORIZON_S as u64);
        assert!(
            clean.pd() > 0.85,
            "soft-fused Pd at 0 dB over a 15 dB long-haul: {}",
            clean.pd()
        );
        assert!(clean.pfa() < 0.1, "soft-fused Pfa: {}", clean.pfa());
        let hot = sense_sweep_noisy(4.0);
        assert!(hot.fault_events > 0);
        assert!(
            hot.used_hard_decode > 0,
            "SNR collapses must force hard decoding: {hot:?}"
        );
        assert_eq!(hot, sense_sweep_noisy(4.0), "pure function of (λ, seed)");
    }

    /// The paper byzantine axis meets the acceptance bar sensebench
    /// asserts: at `f = ⌊(n−1)/3⌋` always-no adversaries the unweighted
    /// head's fused Pd collapses below the floor while the
    /// reputation-weighted head, fusing the same falsified draws,
    /// restores it.
    #[test]
    fn byz_sweep_meets_the_containment_acceptance() {
        let spec = ByzSweepSpec::paper();
        let (report, cells) = run_byz_campaign(
            &spec,
            &CampaignConfig::new(EXPERIMENT_SEED, spec.fingerprint()),
        )
        .expect("the paper byzantine sweep completes");
        assert_eq!(report.status, CampaignStatus::Complete);
        assert_eq!(cells.len(), 2 * spec.byz_counts.len());
        let v = byz_containment_verdict(&spec, &cells).expect("the paper axis samples f_max");
        assert_eq!(v.byz_count, 2, "7 reporters tolerate f = 2");
        assert!(v.restored, "weighted Pd {} under the floor", v.weighted_pd);
        assert!(
            v.violated,
            "unweighted Pd {} should collapse",
            v.unweighted_pd
        );
        assert!(v.holds());
        // a sweep that never sampled f_max yields a vacuous verdict
        let narrow: Vec<ByzCell> = cells.iter().copied().filter(|c| c.byz_count == 0).collect();
        assert_eq!(byz_containment_verdict(&spec, &narrow), None);
    }
}
