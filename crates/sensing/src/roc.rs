//! Pd/Pfa ROC campaigns on the Monte-Carlo supervisor.
//!
//! Each grid point is a `(report SNR, SNR, k-out-of-N fraction)` triple;
//! each shard simulates `trials` fused decisions under `H1` (counting
//! detections) and `trials` under `H0` (counting false alarms), so every
//! point owns two campaign streams. Shard counts are pure functions of
//! `(seed, shard label)` — the supervisor's checkpoint/crash-resume and
//! any-thread-count bit-identity guarantees apply unchanged, and the
//! measured curve can be pinned against the closed-form binomial tail
//! of [`crate::fusion::fused_positive_prob`].
//!
//! Every decision runs the **full noisy-long-haul path**: each
//! reporter's bit rides a BPSK report word over a block-Rayleigh
//! channel and the head fuses the decoded posteriors on the soft rung
//! ([`crate::fusion::fuse_soft_weighted`]). The paper grid pins the report SNR
//! at `+inf` — the channel draws still happen, the LLRs saturate to
//! exactly `±inf`, and the soft decisions reproduce the clean-boolean
//! k-out-of-N counts bit for bit (`infinite_report_snr_is_the_oracle`
//! below), so that curve stays pinned while finite report SNRs expose
//! the long-haul's erosion.

use crate::detector::EnergyDetector;
use crate::fusion::{fuse_soft_weighted, quorum_of, FusionConfig};
use crate::reputation::ReputationView;
use comimo_campaign::{fingerprint64, run_campaign, CampaignConfig, CampaignError, CampaignReport};
use comimo_channel::BlockRayleigh;
use comimo_math::rng::derive;
use comimo_stbc::report::{ReportWordConfig, SoftReport};
use comimo_stbc::sim::BerResult;
use comimo_stbc::transmit_report_word;
use serde::Serialize;

/// Salt separating ROC detector-trial streams from every other consumer
/// of the workspace seed.
const ROC_SALT: u64 = 0x5EA5_E000_0003;

/// Salt for the report-word channel draws of a ROC point: a separate
/// stream family, so the detector streams do not move with the report
/// SNR.
const ROC_REPORT_SALT: u64 = 0x5EA5_E000_0006;

/// The `(report SNR, SNR, k)` grid a ROC campaign sweeps.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RocGridSpec {
    /// Samples per detector decision.
    pub n_samples: usize,
    /// Per-SU target false-alarm rate fixing the CFAR threshold.
    pub target_pfa: f64,
    /// Cooperating reporters per fused decision (all healthy — the ROC
    /// is the fault-free operating characteristic).
    pub n_reporters: usize,
    /// Report-channel SNR grid (dB), the outermost axis. `+inf` runs
    /// the soft path noiselessly (the pinned-oracle operating point).
    pub report_snrs_db: Vec<f64>,
    /// SNR grid (dB).
    pub snrs_db: Vec<f64>,
    /// k-out-of-N fractions to sweep.
    pub k_fracs: Vec<f64>,
    /// Fused trials per hypothesis per grid point per shard.
    pub trials_per_shard: u64,
    /// Shards in the campaign.
    pub n_shards: u64,
}

/// One grid point in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RocGridPoint {
    /// Report-channel SNR (dB).
    pub report_snr_db: f64,
    /// Primary SNR at each reporter (dB).
    pub snr_db: f64,
    /// k-out-of-N fraction.
    pub k_frac: f64,
}

impl RocGridSpec {
    /// The experiments' default grid: a 16-sample detector at 10 %
    /// per-SU Pfa, 5 reporters, 4 SNRs × OR/majority/AND fractions,
    /// report channel pinned at `+inf`.
    pub fn paper() -> Self {
        Self {
            n_samples: 16,
            target_pfa: 0.1,
            n_reporters: 5,
            report_snrs_db: vec![f64::INFINITY],
            snrs_db: vec![-5.0, -2.0, 0.0, 3.0],
            k_fracs: vec![0.2, 0.5, 1.0],
            trials_per_shard: 400,
            n_shards: 24,
        }
    }

    /// The grid points in stream order: `report_snrs_db` outermost,
    /// then `snrs_db`, then `k_fracs`. With the paper's single-`inf`
    /// report axis the point indices (and so every stream salt) are
    /// identical to the pre-noisy grid.
    pub fn points(&self) -> Vec<RocGridPoint> {
        self.report_snrs_db
            .iter()
            .flat_map(|&report_snr_db| {
                self.snrs_db.iter().flat_map(move |&snr_db| {
                    self.k_fracs.iter().map(move |&k_frac| RocGridPoint {
                        report_snr_db,
                        snr_db,
                        k_frac,
                    })
                })
            })
            .collect()
    }

    /// Checkpoint fingerprint of the grid: any change to the shape —
    /// including the report-SNR axis — invalidates a resume against an
    /// old checkpoint instead of silently merging mismatched counts.
    pub fn fingerprint(&self) -> u64 {
        let mut words = vec![
            self.n_samples as u64,
            self.target_pfa.to_bits(),
            self.n_reporters as u64,
            self.trials_per_shard,
            self.n_shards,
        ];
        for axis in [&self.report_snrs_db, &self.snrs_db, &self.k_fracs] {
            words.push(axis.len() as u64);
            words.extend(axis.iter().map(|v| v.to_bits()));
        }
        fingerprint64(&words)
    }
}

/// One measured ROC point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RocPoint {
    /// Report-channel SNR (dB). `f64::INFINITY` is the noiseless
    /// long-haul, whose saturated reports reproduce clean-boolean
    /// k-out-of-N counts — note serde_json renders it as `null` in
    /// `report.json`.
    pub report_snr_db: f64,
    /// SNR at each reporter (dB).
    pub snr_db: f64,
    /// k-out-of-N fraction.
    pub k_frac: f64,
    /// The re-derived integer quorum at this roster size.
    pub k: usize,
    /// Fused trials per hypothesis.
    pub trials: u64,
    /// Fused busy verdicts under `H1`.
    pub detections: u64,
    /// Fused busy verdicts under `H0`.
    pub false_alarms: u64,
}

impl RocPoint {
    /// Measured fused detection probability.
    pub fn pd(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.detections as f64 / self.trials as f64
        }
    }

    /// Measured fused false-alarm probability.
    pub fn pfa(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.false_alarms as f64 / self.trials as f64
        }
    }
}

/// The pure per-shard function: for every grid point, `trials` fused
/// decisions under each hypothesis, streamed as
/// `[point0-H1, point0-H0, point1-H1, ...]`. Counts depend only on
/// `(spec, seed, label)`.
pub fn roc_shard_counts(
    spec: &RocGridSpec,
    seed: u64,
    label: u64,
    trials: usize,
) -> Vec<BerResult> {
    roc_shard_counts_with_view(spec, seed, label, trials, None)
}

/// [`roc_shard_counts`] fused through the Byzantine-resilient entry
/// point under an optional reputation view. This is the pinned oracle
/// for the weighted rung: with `Some(&ReputationView::
/// uniform_converged(n))` the equal-weights fast path reproduces the
/// unweighted LLR counts bit for bit
/// (`uniform_converged_weights_reproduce_the_grid_count_for_count`
/// below), at any thread count — the streams are untouched.
pub fn roc_shard_counts_with_view(
    spec: &RocGridSpec,
    seed: u64,
    label: u64,
    trials: usize,
    rep: Option<&ReputationView>,
) -> Vec<BerResult> {
    let det = EnergyDetector::from_target_pfa(spec.n_samples, spec.target_pfa);
    let long_haul = BlockRayleigh::unit();
    let mut out = Vec::with_capacity(2 * spec.points().len());
    for (pi, p) in spec.points().into_iter().enumerate() {
        let snr = comimo_math::db::db_to_lin(p.snr_db);
        let word = ReportWordConfig::from_report_snr_db(2, 1, 2, p.report_snr_db);
        // the raw soft rung: floor 0 and quorum 1 so a full healthy
        // roster always fuses on the LLR rule itself
        let fusion = FusionConfig {
            k_frac: p.k_frac,
            reliability_floor: 0.0,
            min_quorum: 1,
        };
        for hyp_busy in [true, false] {
            let point_salt = label.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((pi as u64) << 1)
                ^ u64::from(hyp_busy);
            let mut rng = derive(seed, ROC_SALT ^ point_salt);
            let mut report_rng = derive(seed, ROC_REPORT_SALT ^ point_salt);
            let trial_snr = if hyp_busy { snr } else { 0.0 };
            let mut positives = 0u64;
            let mut reports: Vec<(usize, SoftReport)> = Vec::with_capacity(spec.n_reporters);
            for _ in 0..trials {
                reports.clear();
                for r in 0..spec.n_reporters {
                    let bit = det.decide(det.sample_statistic(&mut rng, trial_snr));
                    reports.push((
                        r,
                        transmit_report_word(bit, 1.0, &word, &long_haul, &mut report_rng),
                    ));
                }
                let (decision, _) = fuse_soft_weighted(&fusion, &reports, false, rep);
                if decision.busy {
                    positives += 1;
                }
            }
            out.push(BerResult {
                bits: trials as u64,
                errors: positives,
            });
        }
    }
    out
}

/// Runs the ROC campaign under `cfg` (checkpointing, crash-resume, stop
/// flags and thread-count bit-identity all inherited from the
/// supervisor) and folds the merged stream counts back into ROC points.
pub fn run_roc_campaign(
    spec: &RocGridSpec,
    cfg: &CampaignConfig,
) -> Result<(CampaignReport, Vec<RocPoint>), CampaignError> {
    let shards: Vec<(u64, usize)> = (0..spec.n_shards)
        .map(|l| (l, spec.trials_per_shard as usize))
        .collect();
    let points = spec.points();
    let seed = cfg.seed;
    let spec_for_shards = spec.clone();
    let report = run_campaign(cfg, &shards, 2 * points.len(), move |label, trials| {
        roc_shard_counts(&spec_for_shards, seed, label, trials)
    })?;
    let roc = points
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let h1 = report.stream_counts[2 * pi];
            let h0 = report.stream_counts[2 * pi + 1];
            debug_assert_eq!(h1.bits, h0.bits);
            RocPoint {
                report_snr_db: p.report_snr_db,
                snr_db: p.snr_db,
                k_frac: p.k_frac,
                k: quorum_of(p.k_frac, spec.n_reporters),
                trials: h1.bits,
                detections: h1.errors,
                false_alarms: h0.errors,
            }
        })
        .collect();
    Ok((report, roc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fused_positive_prob;
    use comimo_campaign::CampaignStatus;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const SEED: u64 = 2013;

    fn small_spec() -> RocGridSpec {
        RocGridSpec {
            snrs_db: vec![-2.0, 3.0],
            k_fracs: vec![0.5, 1.0],
            trials_per_shard: 200,
            n_shards: 12,
            ..RocGridSpec::paper()
        }
    }

    fn base_cfg() -> CampaignConfig {
        let mut cfg = CampaignConfig::new(SEED, small_spec().fingerprint());
        cfg.checkpoint_every_shards = 3;
        cfg
    }

    fn temp_ck(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("comimo_roc_{name}_{}.ck", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn measured_curve_tracks_the_binomial_tail_closed_form() {
        // at report SNR = inf the long-haul is transparent, so the
        // closed form of the clean fused counts still pins the curve
        let spec = small_spec();
        let (report, roc) = run_roc_campaign(&spec, &base_cfg()).unwrap();
        assert_eq!(report.status, CampaignStatus::Complete);
        let det = EnergyDetector::from_target_pfa(spec.n_samples, spec.target_pfa);
        let trials = (spec.trials_per_shard * spec.n_shards) as f64;
        let tol = 4.0 / trials.sqrt(); // ~4σ of a binomial proportion
        for p in &roc {
            assert_eq!(p.trials as f64, trials);
            let pd_exact = fused_positive_prob(
                spec.n_reporters,
                p.k,
                det.pd(comimo_math::db::db_to_lin(p.snr_db)),
            );
            let pfa_exact = fused_positive_prob(spec.n_reporters, p.k, det.pfa());
            assert!(
                (p.pd() - pd_exact).abs() < tol,
                "Pd {} vs closed form {pd_exact} at {:?}",
                p.pd(),
                (p.snr_db, p.k_frac)
            );
            assert!(
                (p.pfa() - pfa_exact).abs() < tol,
                "Pfa {} vs closed form {pfa_exact} at {:?}",
                p.pfa(),
                (p.snr_db, p.k_frac)
            );
        }
        // raising k trades detections for false alarms (monotone in k)
        for w in roc.chunks(2) {
            assert!(w[0].detections >= w[1].detections, "{w:?}");
            assert!(w[0].false_alarms >= w[1].false_alarms, "{w:?}");
        }
    }

    #[test]
    fn infinite_report_snr_is_the_oracle_count_for_count() {
        // the acceptance pin: the full soft path at report SNR = inf
        // must reproduce the clean-boolean k-out-of-N counts exactly,
        // shard by shard — here the clean oracle is recomputed from the
        // same detector streams without any channel in the way
        let spec = small_spec();
        for label in [0u64, 3, 11] {
            let soft = roc_shard_counts(&spec, SEED, label, 150);
            let det = EnergyDetector::from_target_pfa(spec.n_samples, spec.target_pfa);
            let mut clean = Vec::new();
            for (pi, p) in spec.points().into_iter().enumerate() {
                let snr = comimo_math::db::db_to_lin(p.snr_db);
                let k = quorum_of(p.k_frac, spec.n_reporters);
                for hyp_busy in [true, false] {
                    let salt = ROC_SALT
                        ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ ((pi as u64) << 1)
                        ^ u64::from(hyp_busy);
                    let mut rng = derive(SEED, salt);
                    let trial_snr = if hyp_busy { snr } else { 0.0 };
                    let mut positives = 0u64;
                    for _ in 0..150 {
                        let votes = (0..spec.n_reporters)
                            .filter(|_| det.decide(det.sample_statistic(&mut rng, trial_snr)))
                            .count();
                        if votes >= k {
                            positives += 1;
                        }
                    }
                    clean.push(BerResult {
                        bits: 150,
                        errors: positives,
                    });
                }
            }
            assert_eq!(soft, clean, "shard {label} diverged from the oracle");
        }
    }

    #[test]
    fn uniform_converged_weights_reproduce_the_grid_count_for_count() {
        // the Byzantine-mode pinned oracle: zero adversaries + a
        // uniform converged reputation view must reproduce the
        // unweighted LLR counts exactly, shard by shard —
        // the weighted rung's equal-weights fast path is the same sum
        let spec = small_spec();
        let view = ReputationView::uniform_converged(spec.n_reporters);
        for label in [0u64, 5, 9] {
            let weighted = roc_shard_counts_with_view(&spec, SEED, label, 120, Some(&view));
            let unweighted = roc_shard_counts(&spec, SEED, label, 120);
            assert_eq!(
                weighted, unweighted,
                "shard {label}: uniform converged weights must be the identity"
            );
        }
    }

    #[test]
    fn finite_report_snr_erodes_the_operating_characteristic() {
        // a noisy long-haul scrambles posteriors toward ½, dragging the
        // fused false-alarm rate up relative to the transparent channel
        let spec = RocGridSpec {
            report_snrs_db: vec![f64::INFINITY, -10.0],
            snrs_db: vec![3.0],
            k_fracs: vec![0.5],
            trials_per_shard: 300,
            n_shards: 8,
            ..RocGridSpec::paper()
        };
        let cfg = CampaignConfig::new(SEED, spec.fingerprint());
        let (_, roc) = run_roc_campaign(&spec, &cfg).unwrap();
        assert_eq!(roc.len(), 2);
        assert_eq!(roc[0].report_snr_db, f64::INFINITY);
        assert_eq!(roc[1].report_snr_db, -10.0);
        assert!(
            roc[1].false_alarms > roc[0].false_alarms,
            "a -10 dB report channel must inflate false alarms: {roc:?}"
        );
    }

    #[test]
    fn fingerprint_covers_every_grid_axis() {
        let spec = small_spec();
        let mut wider = spec.clone();
        wider.report_snrs_db = vec![f64::INFINITY, 10.0];
        let mut shifted = spec.clone();
        shifted.snrs_db[0] += 0.5;
        assert_ne!(spec.fingerprint(), wider.fingerprint());
        assert_ne!(spec.fingerprint(), shifted.fingerprint());
        assert_eq!(spec.fingerprint(), small_spec().fingerprint());
    }

    #[test]
    fn stopped_and_resumed_campaign_matches_uninterrupted_counts() {
        let spec = small_spec();
        let ck = temp_ck("resume");
        // one shard per chunk runs each shard inline, a whole-plan chunk
        // fans out: neither may move a count
        let chunked = |every| CampaignConfig {
            checkpoint_every_shards: every,
            ..base_cfg()
        };
        let (reference, _) = run_roc_campaign(&spec, &chunked(1)).unwrap();
        let (whole, _) = run_roc_campaign(&spec, &chunked(spec.n_shards as usize)).unwrap();
        assert_eq!(whole.stream_counts, reference.stream_counts);

        // phase 1: trip the stop flag mid-campaign
        let stop = Arc::new(AtomicBool::new(false));
        let mut cfg = base_cfg();
        cfg.checkpoint = Some(ck.clone());
        cfg.stop = Some(stop.clone());
        let executed = Arc::new(AtomicU64::new(0));
        // wrap run_roc_campaign's shard fn manually to trip the flag
        let shards: Vec<(u64, usize)> = (0..spec.n_shards)
            .map(|l| (l, spec.trials_per_shard as usize))
            .collect();
        let n_streams = 2 * spec.points().len();
        let stop_in = stop.clone();
        let counter = executed.clone();
        let partial = run_campaign(&cfg, &shards, n_streams, |label, trials| {
            if counter.fetch_add(1, Ordering::SeqCst) + 1 >= 4 {
                stop_in.store(true, Ordering::SeqCst);
            }
            roc_shard_counts(&spec, SEED, label, trials)
        })
        .unwrap();
        assert_eq!(partial.status, CampaignStatus::Stopped);
        assert!(partial.completed_shards < spec.n_shards);

        // phase 2: resume and demand bit-identical merged counts
        let mut cfg = base_cfg();
        cfg.checkpoint = Some(ck.clone());
        cfg.resume = true;
        let (full, _) = run_roc_campaign(&spec, &cfg).unwrap();
        assert_eq!(full.status, CampaignStatus::Complete);
        assert_eq!(full.resumed_shards, partial.completed_shards);
        assert_eq!(
            full.stream_counts, reference.stream_counts,
            "stopped-and-resumed ROC counts must be bit-identical"
        );
        std::fs::remove_file(&ck).unwrap();
    }
}
