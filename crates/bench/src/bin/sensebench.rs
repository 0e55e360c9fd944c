//! Cooperative-sensing fault benchmark: sweeps the reporter-fault
//! multiplier λ and reports the achieved fused Pd/Pfa, which rung of the
//! fusion degradation ladder the cluster head used, and the
//! report-transport accounting — then (in `--roc` mode) runs the
//! checkpointable Pd/Pfa ROC campaign behind the kill-and-resume CI job.
//!
//! Usage:
//!   `cargo run --release -p comimo-bench --bin sensebench`
//!       prints two degradation tables — reports on a noiseless
//!       long-haul fused k-out-of-N, and the noisy report long-haul at
//!       `SENSE_REPORT_SNR_DB` — (and
//!       writes `results/sensebench.txt` when run from the repo root with
//!       a `results/` directory); the output is a pure function of the
//!       seed — CI diffs it across thread counts;
//!   `cargo run --release -p comimo-bench --bin sensebench -- --roc [options]`
//!       runs the ROC campaign ([`comimo_sensing::run_roc_campaign`]) on
//!       the supervisor and prints one `counts` line per grid point —
//!       pure functions of `(spec, seed)`, diffed by CI between a
//!       SIGKILLed-then-resumed run and a clean one;
//!   `cargo run --release -p comimo-bench --bin sensebench -- --byz [options]`
//!       runs the byzantine-fraction sweep
//!       ([`comimo_sensing::run_byz_campaign`]): always-no SSDF coalitions
//!       of growing size, every point fused both with and without the
//!       reputation view over the same falsified draws. Prints one
//!       `counts` line per `(byz count, weighting)` cell, then the
//!       containment verdict at `f = ⌊(n−1)/3⌋` — the run fails (exit 1)
//!       unless weighting restores the fused Pd the unweighted head
//!       measurably loses.
//!
//! `--roc` options:
//! ```text
//! --trials N          fused trials per hypothesis per point per shard (default 400)
//! --shards N          shards in the campaign                (default 24)
//! --checkpoint P      checkpoint path (enables crash-resume)
//! --resume            load an existing checkpoint instead of starting fresh
//! --chunk N           shards per checkpoint commit          (default 2)
//! --seed S            campaign seed                         (default 2013)
//! --report-snrs-db L  comma-separated report-channel SNR axis in dB;
//!                     `inf` = noiseless long-haul           (default inf)
//! ```
//!
//! `--byz` options:
//! ```text
//! --rounds N          counted rounds per shard              (default 80)
//! --warmup N          training rounds per shard before counting (default 40)
//! --shards N          shards (independent replicates)       (default 8)
//! --byz-counts L      comma-separated always-no adversary axis (default 0,1,2)
//! --checkpoint P / --resume / --chunk N / --seed S
//!                     as in --roc
//! ```
//!
//! Counts are the same at any thread count; `RAYON_NUM_THREADS=1` runs
//! the shards on one thread.
//!
//! The campaign config binds the checkpoint to `spec.fingerprint()`, so a
//! checkpoint written for one grid (e.g. the default `inf` axis) refuses to
//! resume under another (e.g. `--report-snrs-db 5,15`, or a different
//! `--byz-counts`/`--warmup` axis). The byz sweep's reputation state
//! needs no checkpoint of its own: every resumed shard replays its
//! training window from the same derived streams.
//!
//! Exit status: 0 complete, 3 stopped gracefully (resumable), 2 on usage
//! errors, 1 on a failed containment verdict.

use comimo_bench::{
    byz_containment_verdict, emit_text_artifact, lambda_sweep_section, sense_sweep,
    sense_sweep_noisy, SenseSweepRow, BYZ_PD_FLOOR, EXPERIMENT_SEED, SENSE_HORIZON_S,
    SENSE_LOSS_PROB, SENSE_REPORTERS, SENSE_REPORT_SNR_DB, SENSE_SNR_DB,
};
use comimo_campaign::{install_sigint_stop, CampaignConfig, CampaignReport, CampaignStatus};
use comimo_sensing::{run_byz_campaign, run_roc_campaign, ByzSweepSpec, RocGridSpec};

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: sensebench [--roc [--trials N] [--shards N] [--checkpoint PATH] [--resume] \
         [--chunk N] [--seed S] [--report-snrs-db LIST]]\n\
         \x20      sensebench [--byz [--rounds N] [--warmup N] [--shards N] [--byz-counts LIST] \
         [--checkpoint PATH] [--resume] [--chunk N] [--seed S]]"
    );
    std::process::exit(2);
}

struct RocArgs {
    trials: u64,
    shards: u64,
    checkpoint: Option<String>,
    resume: bool,
    chunk: usize,
    seed: u64,
    report_snrs_db: Option<Vec<f64>>,
}

/// Parses the `--report-snrs-db` axis: comma-separated dB values where
/// `inf` (any case) means a noiseless long-haul, whose saturated reports
/// reproduce clean-boolean k-out-of-N counts.
fn parse_report_snrs(raw: &str) -> Vec<f64> {
    let snrs: Vec<f64> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            if s.eq_ignore_ascii_case("inf") {
                f64::INFINITY
            } else {
                s.parse()
                    .unwrap_or_else(|_| usage("--report-snrs-db entries must be numbers or `inf`"))
            }
        })
        .collect();
    if snrs.is_empty() {
        usage("--report-snrs-db needs at least one entry");
    }
    snrs
}

fn parse_roc_args(args: &[String]) -> RocArgs {
    let mut a = RocArgs {
        trials: 400,
        shards: 24,
        checkpoint: None,
        resume: false,
        chunk: 2,
        seed: EXPERIMENT_SEED,
        report_snrs_db: None,
    };
    let mut it = args.iter();
    let value = |it: &mut dyn Iterator<Item = &String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            .clone()
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trials" => {
                a.trials = value(&mut it, "--trials")
                    .parse()
                    .unwrap_or_else(|_| usage("--trials must be an integer"))
            }
            "--shards" => {
                a.shards = value(&mut it, "--shards")
                    .parse()
                    .unwrap_or_else(|_| usage("--shards must be an integer"))
            }
            "--checkpoint" => a.checkpoint = Some(value(&mut it, "--checkpoint")),
            "--resume" => a.resume = true,
            "--chunk" => {
                a.chunk = value(&mut it, "--chunk")
                    .parse()
                    .unwrap_or_else(|_| usage("--chunk must be an integer"))
            }
            "--seed" => {
                a.seed = value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--report-snrs-db" => {
                a.report_snrs_db = Some(parse_report_snrs(&value(&mut it, "--report-snrs-db")))
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if a.trials == 0 || a.shards == 0 {
        usage("--trials and --shards must be positive");
    }
    a
}

/// Echoes the supervisor's resume/corruption bookkeeping on stdout and
/// failed checkpoint writes on stderr — shared by the `--roc` and
/// `--byz` campaign modes. A failed write leaves the counts right but
/// the checkpoint behind them, so a run that was meant to be resumable
/// says so instead of staying silent.
fn echo_campaign_health(report: &CampaignReport) {
    if report.checkpoint_failures > 0 {
        eprintln!(
            "checkpoint: {} write(s) failed after retries; a resume restarts from the last \
             committed snapshot",
            report.checkpoint_failures
        );
    }
    if report.resumed_shards > 0 {
        println!(
            "resumed from checkpoint: {}/{} shards already done",
            report.resumed_shards, report.total_shards
        );
    }
    if report.recovered_from_corruption {
        println!("corrupt checkpoint detected and discarded; restarted from scratch");
    }
}

fn roc_mode(args: &[String]) {
    let args = parse_roc_args(args);
    // first Ctrl-C = graceful stop at the next chunk boundary
    install_sigint_stop();

    let mut spec = RocGridSpec {
        trials_per_shard: args.trials,
        n_shards: args.shards,
        ..RocGridSpec::paper()
    };
    if let Some(snrs) = args.report_snrs_db.clone() {
        spec.report_snrs_db = snrs;
    }
    // binding the checkpoint to the grid fingerprint makes a checkpoint
    // from one axis refuse to resume under another
    let mut cfg = CampaignConfig::new(args.seed, spec.fingerprint());
    cfg.checkpoint = args.checkpoint.as_ref().map(|p| p.into());
    cfg.resume = args.resume;
    cfg.checkpoint_every_shards = args.chunk.max(1);

    let (report, roc) = match run_roc_campaign(&spec, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("hint: pass a fresh --checkpoint path or drop --resume");
            std::process::exit(1);
        }
    };

    echo_campaign_health(&report);
    match report.status {
        CampaignStatus::Complete => {
            // pure functions of (spec, seed) — CI diffs these lines
            // between a SIGKILLed-then-resumed run and a clean one, and
            // across thread counts
            for (pi, p) in roc.iter().enumerate() {
                println!(
                    "counts point={pi} report_snr_db={} snr_db={} k_frac={} k={} seed={} \
                     trials={} detections={} false_alarms={}",
                    p.report_snr_db,
                    p.snr_db,
                    p.k_frac,
                    p.k,
                    args.seed,
                    p.trials,
                    p.detections,
                    p.false_alarms
                );
            }
            println!(
                "complete: {} grid points, {}/{} shards",
                roc.len(),
                report.completed_shards,
                report.total_shards
            );
        }
        CampaignStatus::Stopped => {
            println!(
                "stopped gracefully at {}/{} shards — resume with --resume",
                report.completed_shards, report.total_shards
            );
            std::process::exit(3);
        }
    }
}

struct ByzArgs {
    rounds: u64,
    warmup: u64,
    shards: u64,
    byz_counts: Option<Vec<usize>>,
    checkpoint: Option<String>,
    resume: bool,
    chunk: usize,
    seed: u64,
}

/// Parses the `--byz-counts` axis: comma-separated always-no adversary
/// counts.
fn parse_byz_counts(raw: &str) -> Vec<usize> {
    let counts: Vec<usize> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| usage("--byz-counts entries must be non-negative integers"))
        })
        .collect();
    if counts.is_empty() {
        usage("--byz-counts needs at least one entry");
    }
    counts
}

fn parse_byz_args(args: &[String]) -> ByzArgs {
    let paper = ByzSweepSpec::paper();
    let mut a = ByzArgs {
        rounds: paper.rounds_per_shard,
        warmup: paper.warmup_rounds,
        shards: paper.n_shards,
        byz_counts: None,
        checkpoint: None,
        resume: false,
        chunk: 2,
        seed: EXPERIMENT_SEED,
    };
    let mut it = args.iter();
    let value = |it: &mut dyn Iterator<Item = &String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            .clone()
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rounds" => {
                a.rounds = value(&mut it, "--rounds")
                    .parse()
                    .unwrap_or_else(|_| usage("--rounds must be an integer"))
            }
            "--warmup" => {
                a.warmup = value(&mut it, "--warmup")
                    .parse()
                    .unwrap_or_else(|_| usage("--warmup must be an integer"))
            }
            "--shards" => {
                a.shards = value(&mut it, "--shards")
                    .parse()
                    .unwrap_or_else(|_| usage("--shards must be an integer"))
            }
            "--byz-counts" => {
                a.byz_counts = Some(parse_byz_counts(&value(&mut it, "--byz-counts")))
            }
            "--checkpoint" => a.checkpoint = Some(value(&mut it, "--checkpoint")),
            "--resume" => a.resume = true,
            "--chunk" => {
                a.chunk = value(&mut it, "--chunk")
                    .parse()
                    .unwrap_or_else(|_| usage("--chunk must be an integer"))
            }
            "--seed" => {
                a.seed = value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if a.rounds == 0 || a.shards == 0 {
        usage("--rounds and --shards must be positive");
    }
    a
}

fn byz_mode(args: &[String]) {
    let args = parse_byz_args(args);
    // first Ctrl-C = graceful stop at the next chunk boundary
    install_sigint_stop();

    let mut spec = ByzSweepSpec {
        rounds_per_shard: args.rounds,
        warmup_rounds: args.warmup,
        n_shards: args.shards,
        ..ByzSweepSpec::paper()
    };
    if let Some(counts) = args.byz_counts.clone() {
        spec.byz_counts = counts;
    }
    // the fingerprint covers the adversary axis and the warmup window,
    // so a checkpoint from one sweep refuses to resume under another
    let mut cfg = CampaignConfig::new(args.seed, spec.fingerprint());
    cfg.checkpoint = args.checkpoint.as_ref().map(|p| p.into());
    cfg.resume = args.resume;
    cfg.checkpoint_every_shards = args.chunk.max(1);

    let (report, cells) = match run_byz_campaign(&spec, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("hint: pass a fresh --checkpoint path or drop --resume");
            std::process::exit(1);
        }
    };

    echo_campaign_health(&report);
    match report.status {
        CampaignStatus::Complete => {
            // pure functions of (spec, seed) — CI diffs these lines
            // between a SIGKILLed-then-resumed run and a clean one, and
            // across thread counts
            for (ci, c) in cells.iter().enumerate() {
                println!(
                    "counts cell={ci} byz={} weighted={} seed={} busy={} missed={} idle={} \
                     false_alarms={} rounds={} weighted_rung={}",
                    c.byz_count,
                    u8::from(c.weighted),
                    args.seed,
                    c.busy_rounds,
                    c.missed,
                    c.idle_rounds,
                    c.false_alarms,
                    c.rounds,
                    c.weighted_rung_rounds
                );
            }
            match byz_containment_verdict(&spec, &cells) {
                Some(v) => {
                    println!(
                        "containment f={} weighted_pd={:.4} unweighted_pd={:.4} \
                         floor={BYZ_PD_FLOOR} restored={} violated={}",
                        v.byz_count, v.weighted_pd, v.unweighted_pd, v.restored, v.violated
                    );
                    if !v.holds() {
                        eprintln!(
                            "error: containment acceptance failed — weighting must restore \
                             the fused Pd the unweighted head loses at f = {}",
                            v.byz_count
                        );
                        std::process::exit(1);
                    }
                }
                None => println!("containment: axis never samples f = (n-1)/3 — verdict vacuous"),
            }
            println!(
                "complete: {} cells, {}/{} shards",
                cells.len(),
                report.completed_shards,
                report.total_shards
            );
        }
        CampaignStatus::Stopped => {
            println!(
                "stopped gracefully at {}/{} shards — resume with --resume",
                report.completed_shards, report.total_shards
            );
            std::process::exit(3);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--roc") => {
            roc_mode(&args[1..]);
            return;
        }
        Some("--byz") => {
            byz_mode(&args[1..]);
            return;
        }
        _ => {}
    }
    if !args.is_empty() {
        usage("flags other than --roc/--byz belong after --roc/--byz");
    }

    let headers = [
        "lambda",
        "faults",
        "busy/idle",
        "Pd",
        "Pfa",
        "soft/hard/or/local",
        "frames",
        "dup",
        "stale",
        "missing",
    ];
    let row_cells = |lambda: f64, r: &SenseSweepRow| {
        vec![
            format!("{lambda:.1}"),
            format!("{}", r.fault_events),
            format!("{}/{}", r.busy_slots, r.idle_slots),
            format!("{:.3}", r.pd()),
            format!("{:.3}", r.pfa()),
            format!(
                "{}/{}/{}/{}",
                r.used_weighted_llr, r.used_hard_decode, r.used_or_fallback, r.used_head_local
            ),
            format!("{}", r.frames_sent),
            format!("{}", r.duplicates),
            format!("{}", r.stale),
            format!("{}", r.missing),
        ]
    };
    let mut out = String::new();
    out.push_str(&format!(
        "Cooperative sensing degradation sweep ({SENSE_HORIZON_S} s horizon, seed \
         {EXPERIMENT_SEED}, 1 s slots, {SENSE_REPORTERS} reporters, {SENSE_SNR_DB} dB SNR, \
         {SENSE_LOSS_PROB} report loss)\nreporter faults at lambda x nominal rates: \
         stuck-at-H0, stuck-at-H1, silent death, delayed reports\n\n"
    ));
    out.push_str(&lambda_sweep_section(
        "Fused decisions vs the Markov ON/OFF primary — clean report transport \
         (k-out-of-N head, OR and head-local fallbacks)",
        &headers,
        |lambda| row_cells(lambda, &sense_sweep(lambda)),
    ));
    out.push('\n');
    out.push_str(&lambda_sweep_section(
        &format!(
            "Noisy report long-haul at {SENSE_REPORT_SNR_DB} dB report SNR — BPSK report \
             words over the fading long-haul, LLR soft fusion with the hard-decode and \
             quorum rungs below it"
        ),
        &headers,
        |lambda| row_cells(lambda, &sense_sweep_noisy(lambda)),
    ));
    out.push_str(
        "Invariant held: every fused decision carried quorum evidence or was explicitly \
         degraded to a wider rung.\n",
    );

    emit_text_artifact("sensebench.txt", &out);
}
