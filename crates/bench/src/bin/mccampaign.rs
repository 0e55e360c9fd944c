//! Long-running, checkpointable Monte-Carlo BER campaign on the table-2
//! link (Alamouti, QPSK, 2 receive antennas) — the bin behind the
//! kill-and-resume CI job and the tool for pushing towards the paper's
//! BER ≈ 1e-6 operating points without fearing a crash.
//!
//! Each `--snr-db` point runs as a supervised campaign
//! ([`comimo_campaign::run_ber_campaign`]): per-shard panics are caught
//! and retried (quarantined after bounded retries), progress is
//! committed to a CRC-checked checkpoint file atomically after every
//! chunk, and Ctrl-C / `--wall-secs` stop the run gracefully with a
//! partial result (Wilson 95 % interval) plus a resumable checkpoint.
//! `--resume` picks a killed campaign up from its checkpoint; because
//! every shard draws from `derive(seed, label)`, the resumed merge is
//! **bit-identical** to an uninterrupted run at any thread count — the
//! `counts` lines on stdout are pure functions of the parameters, and CI
//! diffs them between a SIGKILLed-then-resumed run and a clean one.
//! `RAYON_NUM_THREADS=1` runs the shards on one thread.
//!
//! Usage:
//! `cargo run --release -p comimo-bench --bin mccampaign -- [options]`
//!
//! ```text
//! --blocks N        Monte-Carlo blocks per point   (default 2000000)
//! --snr-db LIST     comma-separated Es/N0 points in dB (default "6")
//! --checkpoint P    checkpoint base path; point i commits to P.p<i>
//!                   (default "campaign.ck")
//! --resume          load existing checkpoints instead of starting fresh
//! --chunk N         shards per checkpoint commit   (default 64)
//! --max-attempts K  attempts per shard before quarantine (default 3)
//! --wall-secs S     graceful-stop wall-clock budget
//! --seed S          campaign seed                  (default 2013)
//! --fault-panic P   injected shard-panic probability    (default 0)
//! --fault-io P      injected checkpoint-IO-error probability (default 0)
//! --fault-seed S    fault-plan seed                (default 77)
//! ```
//!
//! Exit status: 0 when every point completed, 3 when stopped gracefully
//! (resumable), 2 on usage errors.

use comimo_bench::EXPERIMENT_SEED;
use comimo_campaign::{
    install_sigint_stop, run_ber_campaign, BerCampaignSpec, CampaignConfig, CampaignFaultPlan,
    CampaignStatus,
};
use comimo_stbc::design::StbcKind;
use std::time::Duration;

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: mccampaign [--blocks N] [--snr-db LIST] [--checkpoint PATH] [--resume] \
         [--chunk N] [--max-attempts K] [--wall-secs S] [--seed S] \
         [--fault-panic P] [--fault-io P] [--fault-seed S]"
    );
    std::process::exit(2);
}

struct Args {
    blocks: usize,
    snr_db: Vec<f64>,
    checkpoint: String,
    resume: bool,
    chunk: usize,
    max_attempts: u32,
    wall_secs: Option<f64>,
    seed: u64,
    fault_panic: f64,
    fault_io: f64,
    fault_seed: u64,
}

fn parse_args() -> Args {
    let mut a = Args {
        blocks: 2_000_000,
        snr_db: vec![6.0],
        checkpoint: "campaign.ck".to_string(),
        resume: false,
        chunk: 64,
        max_attempts: 3,
        wall_secs: None,
        seed: EXPERIMENT_SEED,
        fault_panic: 0.0,
        fault_io: 0.0,
        fault_seed: 77,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--blocks" => {
                a.blocks = value(&mut args, "--blocks")
                    .parse()
                    .unwrap_or_else(|_| usage("--blocks must be an integer"))
            }
            "--snr-db" => {
                a.snr_db = value(&mut args, "--snr-db")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--snr-db must be comma-separated numbers"))
                    })
                    .collect()
            }
            "--checkpoint" => a.checkpoint = value(&mut args, "--checkpoint"),
            "--resume" => a.resume = true,
            "--chunk" => {
                a.chunk = value(&mut args, "--chunk")
                    .parse()
                    .unwrap_or_else(|_| usage("--chunk must be an integer"))
            }
            "--max-attempts" => {
                a.max_attempts = value(&mut args, "--max-attempts")
                    .parse()
                    .unwrap_or_else(|_| usage("--max-attempts must be an integer"))
            }
            "--wall-secs" => {
                a.wall_secs = Some(
                    value(&mut args, "--wall-secs")
                        .parse()
                        .unwrap_or_else(|_| usage("--wall-secs must be a number")),
                )
            }
            "--seed" => {
                a.seed = value(&mut args, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--fault-panic" => {
                a.fault_panic = value(&mut args, "--fault-panic")
                    .parse()
                    .unwrap_or_else(|_| usage("--fault-panic must be a probability"))
            }
            "--fault-io" => {
                a.fault_io = value(&mut args, "--fault-io")
                    .parse()
                    .unwrap_or_else(|_| usage("--fault-io must be a probability"))
            }
            "--fault-seed" => {
                a.fault_seed = value(&mut args, "--fault-seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--fault-seed must be an integer"))
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if a.blocks == 0 {
        usage("--blocks must be positive");
    }
    if a.snr_db.is_empty() {
        usage("--snr-db must name at least one point");
    }
    if a.max_attempts == 0 {
        usage("--max-attempts must be at least 1");
    }
    a
}

fn main() {
    let args = parse_args();
    // first Ctrl-C = graceful stop at the next chunk boundary; every
    // campaign polls this process-wide flag automatically
    install_sigint_stop();

    let mut all_complete = true;
    for (i, &snr_db) in args.snr_db.iter().enumerate() {
        let es = 10f64.powf(snr_db / 10.0);
        let spec = BerCampaignSpec {
            kind: StbcKind::Alamouti,
            bits_per_symbol: 2,
            mr: 2,
            es,
            n0: 1.0,
            n_blocks: args.blocks,
        };
        let mut cfg = CampaignConfig::new(args.seed, 0);
        cfg.max_attempts = args.max_attempts;
        cfg.checkpoint = Some(format!("{}.p{i}", args.checkpoint).into());
        cfg.resume = args.resume;
        cfg.checkpoint_every_shards = args.chunk.max(1);
        cfg.wall_clock_budget = args.wall_secs.map(Duration::from_secs_f64);
        cfg.faults = CampaignFaultPlan {
            seed: args.fault_seed,
            shard_panic_prob: args.fault_panic,
            checkpoint_io_prob: args.fault_io,
        };

        let report = match run_ber_campaign(&cfg, &spec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: point {i} (snr {snr_db} dB): {e}");
                eprintln!("hint: pass a fresh --checkpoint path or drop --resume");
                std::process::exit(1);
            }
        };

        if report.resumed_shards > 0 {
            println!(
                "point {i}: resumed from checkpoint: {}/{} shards already done",
                report.resumed_shards, report.total_shards
            );
        }
        if report.recovered_from_corruption {
            println!(
                "point {i}: corrupt checkpoint detected and discarded; restarted from scratch"
            );
        }
        if !report.quarantined.is_empty() {
            let labels: Vec<u64> = report.quarantined.iter().map(|q| q.shard).collect();
            println!(
                "point {i}: quarantined {} shard(s) after {} attempts each: {labels:?}",
                report.quarantined.len(),
                cfg.max_attempts
            );
        }
        if report.retried_ok > 0 || report.checkpoint_failures > 0 {
            println!(
                "point {i}: {} shard(s) recovered on retry, {} checkpoint write(s) failed past retries",
                report.retried_ok, report.checkpoint_failures
            );
        }
        let (lo, hi) = report.wilson_95;
        match report.status {
            CampaignStatus::Complete => {
                // pure function of (seed, spec) given the fault plan — CI
                // diffs these lines between killed-and-resumed and clean runs
                println!(
                    "counts point={i} snr_db={snr_db} seed={} blocks={} bits={} errors={}",
                    args.seed, args.blocks, report.counts.bits, report.counts.errors
                );
                println!(
                    "point {i}: complete: BER {:.4e} (95% CI [{:.3e}, {:.3e}]), \
                     {}/{} shards, {} quarantined",
                    report.ber(),
                    lo,
                    hi,
                    report.completed_shards,
                    report.total_shards,
                    report.quarantined.len()
                );
            }
            CampaignStatus::Stopped => {
                all_complete = false;
                println!(
                    "point {i}: stopped gracefully at {}/{} shards: partial BER {:.4e} \
                     (95% CI [{:.3e}, {:.3e}]) — resume with --resume",
                    report.completed_shards,
                    report.total_shards,
                    report.ber(),
                    lo,
                    hi
                );
                break; // later points have made no progress; stop here
            }
        }
    }
    if !all_complete {
        std::process::exit(3);
    }
}
