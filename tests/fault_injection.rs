//! Integration tests of the fault-injection subsystem: cross-crate
//! determinism, the faults-disabled identity, and the hard
//! primary-interference invariant under heavy fault load — each
//! paradigm walked through [`ChaosWorld::degradation`].

use comimo::chaos::{
    ChaosConfig, ChaosWorld, DegradationReport, InvariantBounds, InvariantRegistry, Paradigm,
};
use comimo::core::overlay::{Overlay, OverlayConfig};
use comimo::energy::model::EnergyModel;
use comimo::faults::{build_schedule, FaultConfig, Topology};

const SEED: u64 = 2013;

fn world(seed: u64, faults: &FaultConfig) -> ChaosWorld {
    ChaosWorld::new(&ChaosConfig::paper(seed, faults.horizon_s))
}

/// `p`'s degradation walk at the paper bounds.
fn walk(seed: u64, faults: FaultConfig, p: Paradigm) -> DegradationReport {
    world(seed, &faults).degradation(p, &faults, &InvariantRegistry::paper())
}

#[test]
fn fault_schedules_are_bit_identical_across_runs() {
    let topo = Topology {
        n_nodes: 12,
        n_channels: 4,
        n_clusters: 3,
    };
    let cfg = FaultConfig::nominal(300.0);
    // same (cfg, topo, seed) → same schedule; this binary runs with the
    // default features, CI repeats it with --no-default-features and at
    // RAYON_NUM_THREADS=1, so the comparison spans engine configurations
    let a = build_schedule(&cfg, &topo, SEED);
    let b = build_schedule(&cfg, &topo, SEED);
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn disabled_faults_are_a_strict_no_op() {
    for p in Paradigm::ALL {
        let r = walk(SEED, FaultConfig::disabled(100.0), p);
        assert_eq!(r.faults, 0, "{p:?}");
        assert!(r.trace.is_empty());
        assert_eq!(r.slots_full, r.slots, "{p:?}");
        assert_eq!(r.slots_muted, 0);
        assert_eq!(r.delivered_fraction, 1.0);
        assert_eq!(r.interference_violations, 0);
    }
}

#[test]
fn traces_are_deterministic_for_every_paradigm() {
    let faults = FaultConfig::nominal(200.0);
    let reg = InvariantRegistry::paper();
    for p in Paradigm::ALL {
        // two worlds from the same config walk to the same report
        let a = world(SEED, &faults).degradation(p, &faults, &reg);
        let b = world(SEED, &faults).degradation(p, &faults, &reg);
        assert!(!a.trace.is_empty(), "{p:?}: faults must fire");
        assert_eq!(a, b, "{p:?}");
    }
}

#[test]
fn primary_interference_invariant_holds_under_heavy_faults() {
    // 8x the nominal rates across several seeds: many deaths, PU returns
    // and shadow bursts — yet no transmitting slot may ever cross the
    // noise floor at a primary receiver
    for seed in [1, 5, 2013, 999_983] {
        let faults = FaultConfig::nominal(200.0).scaled(8.0);
        let u = walk(seed, faults, Paradigm::Underlay);
        assert!(u.faults > 0);
        assert!(u.slots_degraded + u.slots_muted > 0, "faults must bite");
        assert_eq!(u.interference_violations, 0, "underlay seed {seed}");
        assert!(u.min_margin_db >= 0.0 || !u.min_margin_db.is_finite());
        let i = walk(seed, faults, Paradigm::Interweave);
        assert_eq!(i.interference_violations, 0, "interweave seed {seed}");
        assert!(
            i.max_null_residual < 1e-6,
            "interweave seed {seed}: residual {}",
            i.max_null_residual
        );
        assert!(i.delivered_fraction < 1.0, "PU returns must cost packets");
    }
}

#[test]
fn the_violation_column_is_the_registry_verdict() {
    // an E_PA floor between the full rung's margin (9.597 dB) and the
    // one-transmitter-down rung's (9.245 dB): every degraded underlay
    // slot transmits under it, every full slot above it
    let faults = FaultConfig::nominal(200.0).scaled(8.0);
    let reg = InvariantRegistry::with_bounds(InvariantBounds {
        epa_margin_floor_db: 9.42,
        ..InvariantBounds::paper()
    });
    let u = world(5, &faults).degradation(Paradigm::Underlay, &faults, &reg);
    assert!(u.slots_degraded > 0);
    assert_eq!(u.interference_violations, u.slots_degraded);
}

#[test]
fn degradation_is_monotone_in_the_fault_rate() {
    let quiet = FaultConfig::nominal(200.0).scaled(0.5);
    let loud = FaultConfig::nominal(200.0).scaled(4.0);
    let (q, l) = (
        walk(SEED, quiet, Paradigm::Interweave),
        walk(SEED, loud, Paradigm::Interweave),
    );
    assert!(l.faults > q.faults);
    assert!(l.delivered_fraction <= q.delivered_fraction);
    let (q, l) = (
        walk(SEED, quiet, Paradigm::Overlay),
        walk(SEED, loud, Paradigm::Overlay),
    );
    assert!(l.mean_ber >= q.mean_ber);
    // overlay keeps delivering through the direct-link fallback
    assert_eq!(l.delivered_fraction, 1.0);
}

#[test]
fn overlay_relay_deaths_degrade_the_ber() {
    let quiet = walk(3, FaultConfig::disabled(150.0), Paradigm::Overlay);
    let noisy = walk(
        3,
        FaultConfig {
            relay_death_rate_hz: 0.01,
            ..FaultConfig::disabled(150.0)
        },
        Paradigm::Overlay,
    );
    assert!(noisy.faults > 0, "deaths must be scheduled");
    // delivery never stops (direct-link fallback) but quality drops
    assert_eq!(noisy.delivered_fraction, 1.0);
    assert!(
        noisy.mean_ber >= quiet.mean_ber,
        "noisy {:.3e} vs quiet {:.3e}",
        noisy.mean_ber,
        quiet.mean_ber
    );
}

#[test]
fn overlay_with_every_relay_dead_accounts_direct_link_energy() {
    // a death rate high enough that all m relays are gone almost
    // immediately: every subsequent slot must fall back to the direct
    // primary link — delivery continues, energy reverts to the
    // direct-link e1, and the BER settles at the direct-link BER
    let mut faults = FaultConfig::disabled(400.0);
    faults.relay_death_rate_hz = 1.0;
    let cfg = ChaosConfig::paper(13, faults.horizon_s);
    let report = walk(13, faults, Paradigm::Overlay);
    assert!(
        report.faults >= cfg.m_overlay,
        "need all {} relays dead, saw {} deaths",
        cfg.m_overlay,
        report.faults
    );
    assert_eq!(report.delivered_fraction, 1.0, "overlay never stops");
    assert!(
        report.slots_full <= 5,
        "all relays die within seconds; {} full slots",
        report.slots_full
    );
    // the long tail of the walk is pure direct-link fallback, so the
    // means are dominated by (and converge towards) its figures
    let model = EnergyModel::paper();
    let ov = Overlay::new(
        &model,
        OverlayConfig::paper(cfg.m_overlay, cfg.bandwidth_hz),
    );
    let direct_e1 = ov.analyze(cfg.d1_m).e1;
    let ber_direct = OverlayConfig::paper(cfg.m_overlay, cfg.bandwidth_hz).ber_direct;
    assert!(
        (report.mean_energy_per_bit_j - direct_e1).abs() / direct_e1 < 0.05,
        "mean energy {:.3e} should approach direct-link e1 {:.3e}",
        report.mean_energy_per_bit_j,
        direct_e1
    );
    assert!(
        (report.mean_ber - ber_direct).abs() / ber_direct < 0.05,
        "mean BER {:.3e} should approach direct-link BER {:.3e}",
        report.mean_ber,
        ber_direct
    );
}

#[test]
fn recruitment_degrades_gracefully_not_catastrophically() {
    let (quiet, nominal) = (FaultConfig::disabled(90.0), FaultConfig::nominal(90.0));
    for seed in [9, SEED] {
        let clean = world(seed, &quiet)
            .recruitment(&quiet)
            .expect("fault-free recruitment completes");
        let w = world(seed, &nominal);
        let faulty = w
            .recruitment(&nominal)
            .expect("recruitment completes under nominal faults");
        // loss and head death cost frames and possibly members, but the
        // protocol terminates with every target resolved
        assert!(faulty.frames_sent >= clean.frames_sent, "seed {seed}");
        assert_eq!(faulty.head_reelections, 1);
        assert_eq!(clean.abandoned.len(), 0);
        let n = w.cfg().mt + w.cfg().mr;
        assert!(faulty.joined.len() + faulty.abandoned.len() >= n - 2);
    }
}
