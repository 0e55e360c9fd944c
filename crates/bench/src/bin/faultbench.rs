//! Fault-injection benchmark: sweeps the fault-rate multiplier λ and
//! reports how gracefully each paradigm degrades — delivery, BER,
//! energy — while asserting the hard invariant that interference at
//! primary receivers never exceeds the noise floor, even mid-failure.
//! The tables are [`ChaosWorld::degradation`] walks; the violations
//! column is the paper-bound invariant registry's verdict.
//!
//! Usage:
//!   `cargo run --release -p comimo-bench --bin faultbench`
//!       prints the degradation table (and writes `results/faultbench.txt`
//!       when run from the repo root with a `results/` directory);
//!   `cargo run --release -p comimo-bench --bin faultbench -- --trace`
//!       prints only the deterministic fault trace at λ = 1 — CI diffs
//!       this output across thread counts and feature configs.

use comimo_bench::{emit_text_artifact, lambda_sweep_section, EXPERIMENT_SEED, FAULT_LAMBDAS};
use comimo_chaos::{ChaosConfig, ChaosWorld, DegradationReport, InvariantRegistry, Paradigm};
use comimo_faults::{build_schedule, FaultConfig};

const HORIZON_S: f64 = 200.0;

fn faults(lambda: f64) -> FaultConfig {
    if lambda == 0.0 {
        FaultConfig::disabled(HORIZON_S)
    } else {
        FaultConfig::nominal(HORIZON_S).scaled(lambda)
    }
}

/// The every-slot assertion: `lambda`'s schedule replayed through the
/// whole chaos world with every paper invariant armed
/// (`INV-EPA-CEILING`, `INV-NULL-DEPTH`, `INV-DEGRADE-POWER`, …),
/// checking every slot — transmitting *and* muted — against the paper's
/// true bounds.
fn assert_registry_invariants(world: &ChaosWorld, reg: &InvariantRegistry, lambda: f64) {
    let schedule = build_schedule(&faults(lambda), &world.cfg().topology(), EXPERIMENT_SEED);
    let out = world.run(&schedule, reg);
    assert!(
        out.violations.is_empty(),
        "lambda {lambda} at mt={}: {} invariant violation(s) at paper bounds, first: {:?}",
        world.cfg().mt,
        out.violations.len(),
        out.violations.first()
    );
}

/// `p`'s degradation walk at `lambda`; no slot may break the
/// primary-interference invariant.
fn degradation(
    world: &ChaosWorld,
    reg: &InvariantRegistry,
    p: Paradigm,
    lambda: f64,
) -> DegradationReport {
    let r = world.degradation(p, &faults(lambda), reg);
    assert_eq!(
        r.interference_violations,
        0,
        "{}: {} transmitting slot(s) violated the primary-interference \
         invariant",
        p.name(),
        r.interference_violations
    );
    r
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
    let reg = InvariantRegistry::paper();
    let paper = ChaosWorld::new(&ChaosConfig::paper(EXPERIMENT_SEED, HORIZON_S));
    // the interweave transmit cluster at K = 128 (64 virtual antennas
    // after RC-C2 pairing) — the 100+-element regime the spatial-grid
    // pairing exists for. Every transmitting slot still re-checks the
    // steered null.
    let large = ChaosWorld::new(&ChaosConfig::large_cluster(EXPERIMENT_SEED, HORIZON_S));
    if trace_mode {
        // the determinism witness: byte-identical at any thread count
        assert_registry_invariants(&paper, &reg, 1.0);
        assert_registry_invariants(&large, &reg, 1.0);
        for p in Paradigm::ALL {
            let report = degradation(&paper, &reg, p, 1.0);
            println!("== {} ==", p.name());
            print!("{}", report.trace.render());
        }
        let report = degradation(&large, &reg, Paradigm::Interweave, 1.0);
        println!("== interweave (mt=128) ==");
        print!("{}", report.trace.render());
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
    for world in [&paper, &large] {
        for lambda in FAULT_LAMBDAS {
            assert_registry_invariants(world, &reg, lambda);
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Fault-injection degradation sweep ({HORIZON_S} s horizon, seed {EXPERIMENT_SEED}, \
         1 s slots)\nfaults at lambda x nominal rates: relay death, PU return, deep \
         shadowing, lossy broadcast\n\n"
    ));
    for (title, world, p) in [
        (
            "Overlay (m=4 relays, D1=250 m): re-weight MISO to survivors, direct-link fallback",
            &paper,
            Paradigm::Overlay,
        ),
        (
            "Underlay (4x3, D=200 m, PU at 600 m): fallback ladder under the E_PA ceiling",
            &paper,
            Paradigm::Underlay,
        ),
        (
            "Interweave (mt=4 pairs, 3 channels): re-pair nulls, evacuate on PU return",
            &paper,
            Paradigm::Interweave,
        ),
        (
            "Interweave at scale (mt=128 -> 64 virtual antennas, RC-C2 pairing, 3 channels)",
            &large,
            Paradigm::Interweave,
        ),
    ] {
        out.push_str(&lambda_sweep_section(title, &headers, |lambda| {
            row(lambda, &degradation(world, &reg, p, lambda))
        }));
    }

    out.push_str(&lambda_sweep_section(
        "Cluster recruitment under lossy broadcast + head death",
        &["lambda", "joined", "abandoned", "frames", "re-elections"],
        |lambda| {
            let r = paper
                .recruitment(&faults(lambda))
                .expect("recruitment completes under the benchmark fault schedule");
            vec![
                format!("{lambda:.1}"),
                format!("{}", r.joined.len()),
                format!("{}", r.abandoned.len()),
                format!("{}", r.frames_sent),
                format!("{}", r.head_reelections),
            ]
        },
    ));
    out.push_str("Invariant held: interference at primary receivers stayed under the noise floor in every transmitting slot.\n");

    emit_text_artifact("faultbench.txt", &out);
}
