//! End-to-end tests of the chaos pipeline through the facade crate:
//! explore → shrink → artifact → replay, plus the acceptance properties —
//! clean at the paper's true bounds, and a weakened invariant is found,
//! minimized and reproduced bit-identically. Thread count is covered by
//! the test process's pool and by CI, which replays every artifact at 1
//! and 8 threads.

use comimo::chaos::{
    ddmin, explore, replay, ChaosArtifact, ChaosConfig, ChaosWorld, ExploreConfig, InvariantBounds,
    InvariantRegistry, INV_DEGRADE_POWER, INV_EPA_CEILING,
};
use comimo::core::underlay::{Underlay, UnderlayConfig};
use comimo::energy::model::EnergyModel;
use comimo::faults::{build_schedule, FaultConfig};

const SEED: u64 = 2013;

/// An EPA floor between the full rung's margin and the one-transmitter-
/// down rung's: only reachable by an actual fault, so the minimized
/// trace is non-empty.
fn weakened_epa_bounds() -> InvariantBounds {
    let cfg = ChaosConfig::paper(0, 1.0);
    let model = EnergyModel::paper();
    let un = Underlay::new(
        &model,
        UnderlayConfig::paper(cfg.mt, cfg.mr, cfg.bandwidth_hz),
    );
    let pl = comimo::channel::pathloss::SquareLawLongHaul::paper_defaults();
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
fn paper_bounds_hold_across_the_lambda_sweep() {
    // the acceptance bar: at the paper's true bounds the explorer finds
    // nothing, across the full faultbench λ range
    let cfg = ExploreConfig {
        runs: 6,
        horizon_s: 120.0,
        lambda_min: 0.5,
        lambda_max: 4.0,
        ..ExploreConfig::new(SEED)
    };
    let report = explore(&cfg);
    assert_eq!(
        report.clean_runs,
        report.runs,
        "{:?}",
        report.findings.first()
    );
    assert!(report.total_faults > 0);
}

#[test]
fn weakened_invariant_is_found_shrunk_and_replayed_bit_identically() {
    let cfg = ExploreConfig {
        runs: 8,
        horizon_s: 120.0,
        lambda_min: 2.0,
        lambda_max: 4.0,
        bounds: weakened_epa_bounds(),
        ..ExploreConfig::new(SEED)
    };
    let report = explore(&cfg);
    let f = report
        .findings
        .first()
        .expect("weakened bound must be found");
    assert_eq!(f.invariant, INV_EPA_CEILING);
    assert!(!f.minimized.is_empty());
    assert!(f.minimized.len() < f.schedule_len, "shrinking must shrink");

    // artifact → JSON → artifact → replay, twice
    let art = ChaosArtifact::from_finding(&cfg, f);
    let json = art.to_json().expect("artifact serializes");
    let back = ChaosArtifact::from_json(&json).expect("artifact parses");
    assert_eq!(back, art);
    let first = replay(&back);
    let second = replay(&back);
    assert!(first.reproduced, "{}", first.digest);
    assert_eq!(first.digest, second.digest, "a replay is a pure function");
}

#[test]
fn ddmin_on_a_real_schedule_is_one_minimal() {
    let bounds = weakened_epa_bounds();
    let reg = InvariantRegistry::with_bounds(bounds);
    // hunt a violating run deterministically, then shrink its schedule
    let cfg = ExploreConfig {
        runs: 8,
        horizon_s: 120.0,
        lambda_min: 2.0,
        lambda_max: 4.0,
        bounds,
        ..ExploreConfig::new(SEED)
    };
    let report = explore(&cfg);
    let f = report.findings.first().expect("a finding to re-shrink");
    let wcfg = ChaosConfig::paper(f.run_seed, cfg.horizon_s);
    let schedule = build_schedule(
        &FaultConfig::nominal(cfg.horizon_s).scaled(f.lambda),
        &wcfg.topology(),
        f.run_seed,
    );
    let world = ChaosWorld::new(&wcfg);
    let res = ddmin(&world, &schedule, INV_EPA_CEILING, &reg);
    assert_eq!(
        res.minimized, f.minimized,
        "explorer and direct ddmin agree"
    );
    for i in 0..res.minimized.len() {
        let mut without = res.minimized.clone();
        without.remove(i);
        assert!(
            !world
                .run(&without, &reg)
                .violations
                .iter()
                .any(|v| v.invariant == INV_EPA_CEILING),
            "trace is not 1-minimal: event {i} is redundant"
        );
    }
}

#[test]
fn fault_free_violation_shrinks_to_the_empty_trace() {
    // an overdraw bound below 1 fails the fault-free world; the minimal
    // reproduction is "no faults at all" and the artifact still replays
    let cfg = ExploreConfig {
        runs: 1,
        horizon_s: 20.0,
        bounds: InvariantBounds {
            overdraw_max: 0.5,
            ..InvariantBounds::paper()
        },
        ..ExploreConfig::new(SEED)
    };
    let report = explore(&cfg);
    let f = report.findings.first().expect("bound below 1 always fires");
    assert_eq!(f.invariant, INV_DEGRADE_POWER);
    assert!(f.minimized.is_empty());
    let art = ChaosArtifact::from_finding(&cfg, f);
    assert!(replay(&art).reproduced);
}
