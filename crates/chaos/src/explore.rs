//! The chaos explorer: deterministic randomized fault campaigns.
//!
//! Each run `r` derives its own `(run_seed, λ)` from the master seed with
//! the workspace's split-stream RNG, scales the nominal fault taxonomy by
//! λ, builds a schedule, and drives it through the full chaos world with
//! every invariant armed. A violating run is immediately shrunk with
//! [`crate::shrink::ddmin`] to a 1-minimal reproducing trace.
//!
//! Runs are independent by construction (nothing is shared but the
//! immutable config), so a sweep produces the *same findings in the same
//! order* at any thread count, and a sweep split into consecutive batches
//! (soak mode) adds up to the whole — the properties the CI smoke job
//! and the tests pin. The sweep fans out across runs; once it has at
//! least as many runs as the pool has threads, each run's own fan-outs
//! run inline on its worker.

use crate::invariant::{InvariantBounds, InvariantRegistry, Violation};
use crate::shrink::ddmin;
use crate::world::{ChaosConfig, ChaosWorld};
use comimo_faults::{build_schedule, FaultConfig, FaultEvent};
use comimo_math::rng::derive;
use comimo_sim::map_shards;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Salt separating per-run parameter draws from every other stream.
const RUN_SALT: u64 = 0x4348_414f_5352_554e; // "CHAOSRUN"

/// What to explore and how hard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreConfig {
    /// Master seed; run `r` draws from `derive(seed, RUN_SALT ^ r)`.
    pub seed: u64,
    /// Runs in this sweep.
    pub runs: u64,
    /// First run index (soak mode advances this between batches so every
    /// batch explores fresh schedules).
    pub start_run: u64,
    /// Scenario horizon per run (s).
    pub horizon_s: f64,
    /// Fault-intensity sweep: λ is drawn uniformly from this range and
    /// scales every nominal fault rate.
    pub lambda_min: f64,
    /// Upper end of the λ range.
    pub lambda_max: f64,
    /// Interweave transmit-cluster size per run (paper value 4; set to
    /// 100+ to explore the large-cluster RC-C2 pairing regime).
    pub mt: usize,
    /// Invariant bounds to arm (paper values by default; weakened bounds
    /// prove the explorer finds and shrinks real violations).
    pub bounds: InvariantBounds,
    /// Shrink violating schedules with ddmin (on by default; soak mode
    /// may disable it to maximize schedule coverage per second).
    pub shrink: bool,
}

impl ExploreConfig {
    /// A default sweep: 16 runs over 120 s horizons, λ ∈ [0.5, 4], paper
    /// bounds, shrinking on.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            runs: 16,
            start_run: 0,
            horizon_s: 120.0,
            lambda_min: 0.5,
            lambda_max: 4.0,
            mt: 4,
            bounds: InvariantBounds::paper(),
            shrink: true,
        }
    }

    /// Checks the sweep parameters the world cannot run with: a finite λ
    /// range with `0 ≤ λ_min ≤ λ_max`, a transmit cluster of at least 2
    /// and a finite positive horizon.
    pub fn validate(&self) -> Result<(), String> {
        let (lo, hi, horizon) = (self.lambda_min, self.lambda_max, self.horizon_s);
        if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi) {
            Err(format!(
                "λ range [{lo}, {hi}] is not finite 0 ≤ λ_min ≤ λ_max"
            ))
        } else if self.mt < 2 {
            Err(format!("mt {} is below the 2-transmitter cluster", self.mt))
        } else if !(horizon.is_finite() && horizon > 0.0) {
            Err(format!("horizon {horizon} s is not finite and positive"))
        } else {
            Ok(())
        }
    }
}

/// One violating run, shrunk to its minimal reproducing trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFinding {
    /// Run index within the sweep.
    pub run: u64,
    /// The run's derived seed (schedules rebuild from it exactly).
    pub run_seed: u64,
    /// The run's fault-intensity multiplier.
    pub lambda: f64,
    /// Stable ID of the (first) violated invariant.
    pub invariant: String,
    /// Human-readable account from the minimized replay.
    pub detail: String,
    /// When the violation fires in the minimized replay (ns).
    pub at_ns: u64,
    /// Observed value in the minimized replay.
    pub observed: f64,
    /// Bound it broke.
    pub bound: f64,
    /// Events in the original violating schedule.
    pub schedule_len: usize,
    /// The 1-minimal reproducing trace.
    pub minimized: Vec<FaultEvent>,
    /// World re-runs ddmin spent (0 when shrinking was off).
    pub shrink_probes: u64,
}

/// Aggregate of one exploration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Runs explored.
    pub runs: u64,
    /// Violating runs, each shrunk, in run order.
    pub findings: Vec<RunFinding>,
    /// Runs with zero violations.
    pub clean_runs: u64,
    /// Invariant checks consulted across every run.
    pub total_checks: u64,
    /// Fault events injected across every run.
    pub total_faults: u64,
}

/// The per-run parameter draw: `(run_seed, λ)`, a pure function of
/// `(master seed, run index)` — the replayer calls this too, which is how
/// an artifact rebuilds its schedule from three numbers.
pub fn run_params(seed: u64, run: u64, lambda_min: f64, lambda_max: f64) -> (u64, f64) {
    let mut rng = derive(seed, RUN_SALT ^ run);
    let run_seed = rand::RngCore::next_u64(&mut rng);
    // uniform in [min, max) without gen_range (which panics on an empty
    // range when min == max)
    let lambda = lambda_min + (lambda_max - lambda_min) * rng.gen::<f64>();
    (run_seed, lambda)
}

struct RunOutcome {
    checks: u64,
    faults: u64,
    clean: bool,
    finding: Option<RunFinding>,
}

fn explore_one(cfg: &ExploreConfig, run: u64) -> RunOutcome {
    let (run_seed, lambda) = run_params(cfg.seed, run, cfg.lambda_min, cfg.lambda_max);
    let wcfg = ChaosConfig {
        mt: cfg.mt,
        ..ChaosConfig::paper(run_seed, cfg.horizon_s)
    };
    let faults = FaultConfig::nominal(cfg.horizon_s).scaled(lambda);
    let schedule = build_schedule(&faults, &wcfg.topology(), run_seed);
    let reg = InvariantRegistry::with_bounds(cfg.bounds);

    // build the world once: the run, the shrink probes and the minimized
    // replay all reuse its precomputed degradation ladders
    let world = ChaosWorld::new(&wcfg);
    let out = world.run(&schedule, &reg);
    let Some(first) = out.violations.first().cloned() else {
        return RunOutcome {
            checks: out.checks,
            faults: schedule.len() as u64,
            clean: true,
            finding: None,
        };
    };

    let (minimized, probes) = if cfg.shrink {
        let res = ddmin(&world, &schedule, first.invariant, &reg);
        (res.minimized, res.probes)
    } else {
        (schedule.clone(), 0)
    };

    // the canonical violation is the one the *minimized* trace fires —
    // that is what the artifact must reproduce bit-identically
    let replay = world.run(&minimized, &reg);
    let canonical: Violation = replay
        .violations
        .iter()
        .find(|v| v.invariant == first.invariant)
        .cloned()
        .unwrap_or(first.clone());

    RunOutcome {
        checks: out.checks,
        faults: schedule.len() as u64,
        clean: false,
        finding: Some(RunFinding {
            run,
            run_seed,
            lambda,
            invariant: canonical.invariant.to_string(),
            detail: canonical.detail,
            at_ns: canonical.at_ns,
            observed: canonical.observed,
            bound: canonical.bound,
            schedule_len: schedule.len(),
            minimized,
            shrink_probes: probes,
        }),
    }
}

/// Explores `cfg.runs` deterministic fault campaigns, shrinking every
/// violating one. Findings come back in run order regardless of thread
/// count.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    let runs: Vec<u64> = (cfg.start_run..cfg.start_run + cfg.runs).collect();
    let outcomes = map_shards(&runs, |_, &run| explore_one(cfg, run));

    let mut report = ExploreReport {
        runs: cfg.runs,
        findings: Vec::new(),
        clean_runs: 0,
        total_checks: 0,
        total_faults: 0,
    };
    for out in outcomes {
        report.total_checks += out.checks;
        report.total_faults += out.faults;
        if out.clean {
            report.clean_runs += 1;
        }
        if let Some(f) = out.finding {
            report.findings.push(f);
        }
    }
    report
}

/// Soak mode: explores batch after batch until the wall-clock budget runs
/// out or `stop` (e.g. the SIGINT flag) is raised. The deadline and the
/// flag are checked *between* batches — a batch in flight always finishes,
/// so every finding is still a complete, shrunk, replayable artifact.
pub fn soak(cfg: &ExploreConfig, wall: Duration, batch: u64, stop: &AtomicBool) -> ExploreReport {
    assert!(batch >= 1, "a soak batch must explore at least one run");
    let deadline = Instant::now() + wall;
    let mut merged = ExploreReport {
        runs: 0,
        findings: Vec::new(),
        clean_runs: 0,
        total_checks: 0,
        total_faults: 0,
    };
    let mut next_run = cfg.start_run;
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        let batch_cfg = ExploreConfig {
            runs: batch,
            start_run: next_run,
            ..*cfg
        };
        let r = explore(&batch_cfg);
        merged.runs += r.runs;
        merged.clean_runs += r.clean_runs;
        merged.total_checks += r.total_checks;
        merged.total_faults += r.total_faults;
        merged.findings.extend(r.findings);
        next_run += batch;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ChaosArtifact;
    use crate::invariant::INV_EPA_CEILING;
    use comimo_channel::pathloss::SquareLawLongHaul;
    use comimo_core::underlay::{Underlay, UnderlayConfig};
    use comimo_energy::model::EnergyModel;

    fn weakened_epa_bounds() -> InvariantBounds {
        // a floor between the full rung's margin and the one-dead rung's:
        // any schedule that ever knocks a transmitter out violates it
        let cfg = ChaosConfig::paper(0, 1.0);
        let model = EnergyModel::paper();
        let un = Underlay::new(
            &model,
            UnderlayConfig::paper(cfg.mt, cfg.mr, cfg.bandwidth_hz),
        );
        let pl = SquareLawLongHaul::paper_defaults();
        let full = un
            .degrade(cfg.d_long_m, &pl, cfg.pu_distance_m, cfg.mt)
            .expect("full cluster admissible");
        let degraded = un
            .degrade(cfg.d_long_m, &pl, cfg.pu_distance_m, cfg.mt - 1)
            .expect("degraded cluster admissible");
        InvariantBounds {
            epa_margin_floor_db: 0.5 * (full.margin_db + degraded.margin_db),
            ..InvariantBounds::paper()
        }
    }

    #[test]
    fn paper_bounds_explore_clean() {
        let cfg = ExploreConfig {
            runs: 4,
            horizon_s: 60.0,
            ..ExploreConfig::new(2013)
        };
        let report = explore(&cfg);
        assert_eq!(report.runs, 4);
        assert_eq!(report.clean_runs, 4, "{:?}", report.findings.first());
        assert!(report.findings.is_empty());
        assert!(report.total_checks > 0);
        assert!(report.total_faults > 0, "nominal faults must be scheduled");
    }

    /// Explores 8 runs over 120 s at λ ∈ [2, 4] under `bounds` and checks
    /// every finding: it fired `invariant`, ddmin shrank it to a
    /// non-empty subset of its schedule, and its artifact replays the
    /// minimized trace to the identical violation, bit for bit.
    fn weakened_sweep(bounds: InvariantBounds, invariant: &str) -> Vec<RunFinding> {
        let cfg = ExploreConfig {
            runs: 8,
            horizon_s: 120.0,
            lambda_min: 2.0,
            lambda_max: 4.0,
            bounds,
            ..ExploreConfig::new(2013)
        };
        let findings = explore(&cfg).findings;
        assert!(!findings.is_empty(), "{invariant} must fire in 8 runs");
        for f in &findings {
            assert_eq!(f.invariant, invariant);
            assert!(!f.minimized.is_empty(), "a fault is required to violate");
            assert!(f.minimized.len() <= f.schedule_len);
            assert!(f.shrink_probes > 0);
            let replay = crate::artifact::replay(&ChaosArtifact::from_finding(&cfg, f));
            assert!(replay.reproduced, "{}", replay.digest);
        }
        findings
    }

    #[test]
    fn weakened_bound_is_found_and_shrunk() {
        // any schedule that ever knocks a transmitter out violates it
        weakened_sweep(weakened_epa_bounds(), INV_EPA_CEILING);
    }

    #[test]
    fn weakened_report_epa_bound_is_found_and_shrunk() {
        // same construction as weakened_epa_bounds, but applied to the
        // *report long-haul* ceiling: a floor between the full rung's
        // margin and the one-dead rung's means any schedule that knocks
        // a transmitter out makes the sensing report words radiate past
        // their weakened PA budget — INV-REPORT-EPA, not INV-EPA-CEILING,
        // because the underlay floor stays at its paper value
        let bounds = InvariantBounds {
            report_epa_floor_db: weakened_epa_bounds().epa_margin_floor_db,
            ..InvariantBounds::paper()
        };
        weakened_sweep(bounds, crate::invariant::INV_REPORT_EPA);
    }

    #[test]
    fn weakened_missed_budget_is_found_and_shrunk() {
        // a zero missed-detection budget turns the (legitimate, within
        // paper budget) one-slot miss after a mid-slot PU return into a
        // violation — the explorer must find one and ddmin must strip
        // the schedule down to the lone PuReturn that causes it
        let bounds = InvariantBounds {
            missed_detect_budget: 0,
            ..InvariantBounds::paper()
        };
        let findings = weakened_sweep(bounds, crate::invariant::INV_MISSED_DETECT_BUDGET);
        assert!(
            findings.iter().any(|f| matches!(
                f.minimized[..],
                [FaultEvent {
                    kind: comimo_faults::FaultKind::PuReturn { .. },
                    ..
                }]
            )),
            "at least one finding shrinks to a lone PuReturn event"
        );
    }

    #[test]
    fn weakened_byz_containment_is_found_and_shrunk() {
        // a zero Byzantine containment budget turns the (legitimate,
        // within paper budget) one-slot miss after a mid-slot PU return
        // into a containment violation — but only once the reputation
        // tracker has converged, so ddmin must keep a PuReturn landing
        // deep enough into the horizon to fire
        let bounds = InvariantBounds {
            byz_missed_budget: 0,
            ..InvariantBounds::paper()
        };
        for f in weakened_sweep(bounds, crate::invariant::INV_BYZ_CONTAINMENT) {
            assert!(
                f.minimized
                    .iter()
                    .any(|e| matches!(e.kind, comimo_faults::FaultKind::PuReturn { .. })),
                "a PuReturn must survive shrinking — it causes the miss"
            );
        }
    }

    #[test]
    fn split_sweeps_agree_with_the_whole() {
        let whole = ExploreConfig {
            runs: 6,
            horizon_s: 60.0,
            bounds: weakened_epa_bounds(),
            ..ExploreConfig::new(7)
        };
        let all = explore(&whole);
        let head = explore(&ExploreConfig { runs: 2, ..whole });
        let tail = explore(&ExploreConfig {
            runs: 4,
            start_run: 2,
            ..whole
        });
        assert!(!all.findings.is_empty(), "the weakened bound must fire");
        let joined: Vec<RunFinding> = head.findings.into_iter().chain(tail.findings).collect();
        assert_eq!(joined, all.findings);
        assert_eq!(head.total_checks + tail.total_checks, all.total_checks);
        assert_eq!(head.total_faults + tail.total_faults, all.total_faults);
    }

    #[test]
    fn soak_respects_a_preraised_stop_flag() {
        let cfg = ExploreConfig {
            ..ExploreConfig::new(1)
        };
        let stop = AtomicBool::new(true);
        let report = soak(&cfg, Duration::from_secs(60), 2, &stop);
        assert_eq!(report.runs, 0, "a raised flag stops before any batch");
    }

    #[test]
    fn soak_explores_disjoint_batches_until_the_deadline() {
        let cfg = ExploreConfig {
            horizon_s: 20.0,
            ..ExploreConfig::new(5)
        };
        let stop = AtomicBool::new(false);
        let report = soak(&cfg, Duration::from_millis(300), 2, &stop);
        assert!(report.runs >= 2, "at least one batch fits the budget");
        assert_eq!(report.runs % 2, 0, "whole batches only");
    }
}
