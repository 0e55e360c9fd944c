//! Fault-injection benchmark: sweeps the fault-rate multiplier λ and
//! reports how gracefully each paradigm degrades — delivery, BER,
//! energy — while asserting the hard invariant that interference at
//! primary receivers never exceeds the noise floor, even mid-failure.
//!
//! Usage:
//!   `cargo run --release -p comimo-bench --bin faultbench`
//!       prints the degradation table (and writes `results/faultbench.txt`
//!       when run from the repo root with a `results/` directory);
//!   `cargo run --release -p comimo-bench --bin faultbench -- --trace`
//!       prints only the deterministic fault trace at λ = 1 — CI diffs
//!       this output across thread counts and feature configs.

use comimo_bench::{emit_text_artifact, lambda_sweep_section, EXPERIMENT_SEED, FAULT_LAMBDAS};
use comimo_chaos::{run_events, ChaosConfig, ChaosWorld, InvariantRegistry};
use comimo_faults::{
    build_schedule, run_interweave_scenario, run_overlay_scenario, run_recruitment_scenario,
    run_underlay_scenario, DegradationReport, FaultConfig, ScenarioConfig,
};

const HORIZON_S: f64 = 200.0;

fn scenario(lambda: f64) -> ScenarioConfig {
    let faults = if lambda == 0.0 {
        FaultConfig::disabled(HORIZON_S)
    } else {
        FaultConfig::nominal(HORIZON_S).scaled(lambda)
    };
    ScenarioConfig::paper(EXPERIMENT_SEED, faults)
}

/// The same sweep with the interweave transmit cluster at K = 128
/// (64 virtual antennas after RC-C2 pairing) — the 100+-element regime
/// the spatial-grid pairing exists for. Every transmitting slot still
/// re-checks the steered null.
fn large_scenario(lambda: f64) -> ScenarioConfig {
    ScenarioConfig {
        mt: 128,
        ..scenario(lambda)
    }
}

fn assert_invariant(r: &DegradationReport) {
    assert_eq!(
        r.interference_violations, 0,
        "{}: {} transmitting slot(s) violated the primary-interference \
         invariant",
        r.paradigm, r.interference_violations
    );
}

/// The every-slot assertion, through the shared invariant registry: the
/// same fault schedule the scenarios consume is replayed through the
/// chaos world with every paper invariant armed (`INV-EPA-CEILING`,
/// `INV-NULL-DEPTH`, `INV-DEGRADE-POWER`, …), checking every slot —
/// transmitting *and* muted — against the paper's true bounds.
fn assert_registry_invariants(lambda: f64) {
    let cfg = scenario(lambda);
    let world = ChaosConfig::paper(EXPERIMENT_SEED, HORIZON_S);
    let schedule = build_schedule(&cfg.faults, &world.topology(), EXPERIMENT_SEED);
    let reg = InvariantRegistry::paper();
    let out = run_events(&world, &schedule, &reg);
    assert!(
        out.violations.is_empty(),
        "lambda {lambda}: {} invariant violation(s) at paper bounds, first: {:?}",
        out.violations.len(),
        out.violations.first()
    );
}

/// [`assert_registry_invariants`] at K = 128: one large-cluster world
/// (its degradation ladders are the expensive part) replays every
/// lambda's schedule with the full paper registry — `INV-NULL-DEPTH`
/// and `INV-DEGRADE-POWER` among it — consulted every slot.
fn assert_registry_invariants_large(lambdas: &[f64]) {
    let world = ChaosWorld::new(&ChaosConfig::large_cluster(EXPERIMENT_SEED, HORIZON_S));
    let reg = InvariantRegistry::paper();
    for &lambda in lambdas {
        let cfg = large_scenario(lambda);
        let schedule = build_schedule(&cfg.faults, &world.cfg().topology(), EXPERIMENT_SEED);
        let out = world.run(&schedule, &reg);
        assert!(
            out.violations.is_empty(),
            "lambda {lambda} at K=128: {} invariant violation(s) at paper bounds, first: {:?}",
            out.violations.len(),
            out.violations.first()
        );
    }
}

fn row(lambda: f64, r: &DegradationReport) -> Vec<String> {
    let margin = if r.min_margin_db.is_finite() {
        format!("{:+.1}", r.min_margin_db)
    } else {
        "n/a".into()
    };
    vec![
        format!("{lambda:.1}"),
        format!("{}", r.faults),
        format!("{}/{}/{}", r.slots_full, r.slots_degraded, r.slots_muted),
        format!("{:.3}", r.delivered_fraction),
        format!("{:.2e}", r.mean_ber),
        format!("{:.2e}", r.mean_energy_per_bit_j),
        margin,
        format!("{}", r.interference_violations),
    ]
}

fn main() {
    let trace_mode = std::env::args().any(|a| a == "--trace");
    if trace_mode {
        // the determinism witness: byte-identical at any thread count
        assert_registry_invariants(1.0);
        assert_registry_invariants_large(&[1.0]);
        let cfg = scenario(1.0);
        for report in [
            run_overlay_scenario(&cfg),
            run_underlay_scenario(&cfg),
            run_interweave_scenario(&cfg),
        ] {
            assert_invariant(&report);
            println!("== {} ==", report.paradigm);
            print!("{}", report.trace.render());
        }
        let large = run_interweave_scenario(&large_scenario(1.0));
        assert_invariant(&large);
        println!("== {} (mt=128) ==", large.paradigm);
        print!("{}", large.trace.render());
        return;
    }

    let headers = [
        "lambda",
        "faults",
        "full/degr/mute",
        "delivered",
        "mean BER",
        "J/bit",
        "min margin dB",
        "violations",
    ];
    // every slot of every lambda checked against the shared registry at
    // the paper's true bounds, before any table is rendered — at the
    // paper's cluster size and at K = 128
    for lambda in FAULT_LAMBDAS {
        assert_registry_invariants(lambda);
    }
    assert_registry_invariants_large(&FAULT_LAMBDAS);

    let mut out = String::new();
    out.push_str(&format!(
        "Fault-injection degradation sweep ({HORIZON_S} s horizon, seed {EXPERIMENT_SEED}, \
         1 s slots)\nfaults at lambda x nominal rates: relay death, PU return, deep \
         shadowing, lossy broadcast\n\n"
    ));
    for (name, run) in [
        (
            "Overlay (m=4 relays, D1=250 m): re-weight MISO to survivors, direct-link fallback",
            run_overlay_scenario as fn(&ScenarioConfig) -> DegradationReport,
        ),
        (
            "Underlay (4x3, D=200 m, PU at 600 m): fallback ladder under the E_PA ceiling",
            run_underlay_scenario,
        ),
        (
            "Interweave (mt=4 pairs, 3 channels): re-pair nulls, evacuate on PU return",
            run_interweave_scenario,
        ),
    ] {
        out.push_str(&lambda_sweep_section(name, &headers, |lambda| {
            let report = run(&scenario(lambda));
            assert_invariant(&report);
            row(lambda, &report)
        }));
    }

    out.push_str(&lambda_sweep_section(
        "Interweave at scale (mt=128 -> 64 virtual antennas, RC-C2 pairing, 3 channels)",
        &headers,
        |lambda| {
            let report = run_interweave_scenario(&large_scenario(lambda));
            assert_invariant(&report);
            row(lambda, &report)
        },
    ));

    out.push_str(&lambda_sweep_section(
        "Cluster recruitment under lossy broadcast + head death",
        &["lambda", "joined", "abandoned", "frames", "re-elections"],
        |lambda| {
            let r = run_recruitment_scenario(&scenario(lambda))
                .expect("recruitment completes under the benchmark fault schedule");
            vec![
                format!("{lambda:.1}"),
                format!("{}", r.joined),
                format!("{}", r.abandoned),
                format!("{}", r.frames_sent),
                format!("{}", r.head_reelections),
            ]
        },
    ));
    out.push_str("Invariant held: interference at primary receivers stayed under the noise floor in every transmitting slot.\n");

    emit_text_artifact("faultbench.txt", &out);
}
