//! Chaos explorer CLI.
//!
//! ```text
//! chaos list-invariants
//!     print the invariant table: stable ID, bound, paper source, guarded code
//!
//! chaos explore [--seed N] [--runs N] [--start-run N] [--horizon SECS]
//!               [--lambda-min F] [--lambda-max F] [--mt N]
//!               [--epa-floor-db F] [--null-residual-max F] [--overdraw-max F]
//!               [--missed-budget N] [--fusion-quorum-min N]
//!               [--report-epa-floor-db F] [--byz-containment N]
//!               [--out DIR] [--no-shrink]
//!     run a deterministic sweep; write one replayable JSON artifact per
//!     violating run into DIR (default chaos-artifacts/).
//!     exit 0 = clean, 1 = violations found.
//!
//! chaos soak [explore flags] [--wall-secs N] [--batch N]
//!     explore batch after batch until the wall-clock budget runs out or
//!     SIGINT is raised (the in-flight batch always finishes).
//!
//! chaos replay FILE
//!     re-execute an artifact's minimized trace and compare the violation
//!     bit for bit. Prints the canonical digest.
//!     exit 0 = reproduced, 2 = not reproduced.
//! ```
//!
//! An argument the subcommand does not know, or a sweep the world cannot
//! run (λ range outside finite `0 ≤ λ_min ≤ λ_max`, `--mt` below 2, a
//! horizon that is not finite and positive, `--batch 0`), exits 64
//! (`EX_USAGE`) before anything runs.
//!
//! Results are the same at any thread count; `RAYON_NUM_THREADS=1` runs
//! everything on one thread. The weakened-bound flags exist so CI can
//! prove the pipeline end to end: weaken a bound, watch the explorer find
//! and shrink a violation, then watch `replay` reproduce it
//! bit-identically at 1 and 8 threads. At the paper's true bounds a
//! sweep must come back clean.

use comimo_campaign::install_sigint_stop;
use comimo_chaos::{
    explore, replay, soak, ChaosArtifact, ExploreConfig, ExploreReport, InvariantBounds,
    InvariantRegistry, N_INVARIANTS,
};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const EX_USAGE: u8 = 64;

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos <list-invariants | explore | soak | replay FILE> [flags]\n\
         see `cargo doc -p comimo-chaos --bin chaos` or the module docs for flags"
    );
    ExitCode::from(EX_USAGE)
}

/// Value-taking flags of `explore` (and of `soak`, which adds its own).
const EXPLORE_VALUED: &[&str] = &[
    "--seed",
    "--runs",
    "--start-run",
    "--horizon",
    "--lambda-min",
    "--lambda-max",
    "--mt",
    "--epa-floor-db",
    "--null-residual-max",
    "--overdraw-max",
    "--missed-budget",
    "--fusion-quorum-min",
    "--report-epa-floor-db",
    "--byz-containment",
    "--out",
];
const EXPLORE_SWITCHES: &[&str] = &["--no-shrink"];

/// Accepts `rest` only if every argument is one subcommand `cmd` knows:
/// a valued flag followed by its value, a switch, or one of its bare
/// positional arguments.
fn check_args(cmd: &str, rest: &[String]) -> Result<(), String> {
    let soak_valued = [EXPLORE_VALUED, &["--wall-secs", "--batch"]].concat();
    let (valued, switches, positionals): (&[&str], &[&str], usize) = match cmd {
        "list-invariants" => (&[], &[], 0),
        "explore" => (EXPLORE_VALUED, EXPLORE_SWITCHES, 0),
        "soak" => (&soak_valued, EXPLORE_SWITCHES, 0),
        "replay" => (&[], &[], 1),
        _ => return Err(format!("unknown subcommand {cmd:?}")),
    };
    let mut bare = 0;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if valued.contains(&arg.as_str()) {
            if it.next().is_none() {
                return Err(format!("{arg} needs a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            if arg.starts_with('-') || bare == positionals {
                return Err(format!("unknown argument {arg:?} for `chaos {cmd}`"));
            }
            bare += 1;
        }
    }
    Ok(())
}

/// `--name value` lookup; exits with a usage error on an unparsable value.
fn flag<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let raw = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("chaos: {name} needs a value");
        std::process::exit(EX_USAGE as i32);
    });
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("chaos: cannot parse {name} value {raw:?}");
            std::process::exit(EX_USAGE as i32);
        }
    }
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn bounds_from(args: &[String]) -> InvariantBounds {
    let mut b = InvariantBounds::paper();
    if let Some(v) = flag(args, "--epa-floor-db") {
        b.epa_margin_floor_db = v;
    }
    if let Some(v) = flag(args, "--null-residual-max") {
        b.null_residual_max = v;
    }
    if let Some(v) = flag(args, "--overdraw-max") {
        b.overdraw_max = v;
    }
    if let Some(v) = flag(args, "--missed-budget") {
        b.missed_detect_budget = v;
    }
    if let Some(v) = flag(args, "--fusion-quorum-min") {
        b.fusion_quorum_min = v;
    }
    if let Some(v) = flag(args, "--report-epa-floor-db") {
        b.report_epa_floor_db = v;
    }
    if let Some(v) = flag(args, "--byz-containment") {
        b.byz_missed_budget = v;
    }
    b
}

fn explore_config_from(args: &[String]) -> ExploreConfig {
    let mut cfg = ExploreConfig::new(flag(args, "--seed").unwrap_or(2013));
    if let Some(v) = flag(args, "--runs") {
        cfg.runs = v;
    }
    if let Some(v) = flag(args, "--start-run") {
        cfg.start_run = v;
    }
    if let Some(v) = flag(args, "--horizon") {
        cfg.horizon_s = v;
    }
    if let Some(v) = flag(args, "--lambda-min") {
        cfg.lambda_min = v;
    }
    if let Some(v) = flag(args, "--lambda-max") {
        cfg.lambda_max = v;
    }
    if let Some(v) = flag(args, "--mt") {
        cfg.mt = v;
    }
    cfg.bounds = bounds_from(args);
    cfg.shrink = !has(args, "--no-shrink");
    cfg
}

/// `soak`'s runs per batch; a batch must hold at least one run.
fn soak_batch(args: &[String]) -> Result<u64, String> {
    match flag(args, "--batch").unwrap_or(8) {
        0 => Err("--batch must be at least 1".into()),
        batch => Ok(batch),
    }
}

fn list_invariants() -> ExitCode {
    println!("{N_INVARIANTS} paper invariants (true bounds):\n");
    for inv in InvariantRegistry::paper().invariants() {
        println!("{}", inv.id);
        println!("  bound:  {}", inv.bound);
        println!("  paper:  {}", inv.paper_ref);
        println!("  guards: {}", inv.guards);
        println!();
    }
    ExitCode::SUCCESS
}

fn write_artifacts(cfg: &ExploreConfig, report: &ExploreReport, out_dir: &str) {
    if report.findings.is_empty() {
        return;
    }
    std::fs::create_dir_all(out_dir).expect("create artifact directory");
    for f in &report.findings {
        let art = ChaosArtifact::from_finding(cfg, f);
        let path = format!(
            "{out_dir}/{}-seed{}-run{}.json",
            f.invariant.to_lowercase(),
            cfg.seed,
            f.run
        );
        std::fs::write(&path, art.to_json().expect("serialize artifact")).expect("write artifact");
        println!(
            "  run {:>4}  λ={:.2}  {}  {} events → {} minimized ({} probes)  -> {path}",
            f.run,
            f.lambda,
            f.invariant,
            f.schedule_len,
            f.minimized.len(),
            f.shrink_probes
        );
    }
}

fn summarize(report: &ExploreReport) {
    println!(
        "explored {} run(s): {} clean, {} violating; {} fault event(s), {} invariant check(s)",
        report.runs,
        report.clean_runs,
        report.findings.len(),
        report.total_faults,
        report.total_checks
    );
}

/// Prints the sweep's summary and writes one artifact per finding;
/// exit 0 when clean, 1 on violations.
fn finish_sweep(cfg: &ExploreConfig, report: &ExploreReport, args: &[String]) -> ExitCode {
    let out_dir: String = flag(args, "--out").unwrap_or_else(|| "chaos-artifacts".into());
    summarize(report);
    write_artifacts(cfg, report, &out_dir);
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn explore_cmd(args: &[String]) -> ExitCode {
    let cfg = explore_config_from(args);
    if let Err(problem) = cfg.validate() {
        eprintln!("chaos explore: {problem}");
        return usage();
    }
    println!(
        "chaos explore: seed {}, runs {}..{}, horizon {} s, λ ∈ [{}, {}]",
        cfg.seed,
        cfg.start_run,
        cfg.start_run + cfg.runs,
        cfg.horizon_s,
        cfg.lambda_min,
        cfg.lambda_max
    );
    let report = explore(&cfg);
    finish_sweep(&cfg, &report, args)
}

fn soak_cmd(args: &[String]) -> ExitCode {
    let cfg = explore_config_from(args);
    let batch = match cfg.validate().and_then(|()| soak_batch(args)) {
        Ok(batch) => batch,
        Err(problem) => {
            eprintln!("chaos soak: {problem}");
            return usage();
        }
    };
    let wall_secs: u64 = flag(args, "--wall-secs").unwrap_or(30);
    let stop = install_sigint_stop();
    println!(
        "chaos soak: seed {}, {} s wall budget, batches of {} runs (Ctrl-C stops at the \
         next batch boundary)",
        cfg.seed, wall_secs, batch
    );
    let report = soak(&cfg, Duration::from_secs(wall_secs), batch, stop);
    finish_sweep(&cfg, &report, args)
}

fn replay_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("chaos replay: missing artifact path");
        return ExitCode::from(EX_USAGE);
    };
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("chaos replay: cannot read {path}: {e}");
        std::process::exit(EX_USAGE as i32);
    });
    let art = ChaosArtifact::from_json(&json).unwrap_or_else(|e| {
        eprintln!("chaos replay: {e}");
        std::process::exit(EX_USAGE as i32);
    });
    let out = replay(&art);
    print!("{}", out.digest);
    if out.reproduced {
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos replay: artifact did NOT reproduce");
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    if let Err(problem) = check_args(cmd, rest) {
        eprintln!("chaos: {problem}");
        return usage();
    }
    match cmd.as_str() {
        "list-invariants" => list_invariants(),
        "explore" => explore_cmd(rest),
        "soak" => soak_cmd(rest),
        _ => replay_cmd(rest),
    }
}

#[cfg(test)]
mod tests {
    use super::{check_args, explore_config_from, soak_batch};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn check(cmd: &str, args: &[&str]) -> Result<(), String> {
        check_args(cmd, &strings(args))
    }

    #[test]
    fn each_subcommand_accepts_its_flags_and_rejects_others() {
        assert!(check("list-invariants", &[]).is_ok());
        assert!(check("list-invariants", &["--seed", "1"]).is_err());

        let explore = ["--runs", "1", "--epa-floor-db", "-3", "--no-shrink"];
        assert!(check("explore", &explore).is_ok());
        assert!(check("explore", &["--runs", "1", "--serial"]).is_err());
        assert!(check("explore", &["--run", "1", "--horizon", "5"]).is_err());

        let soak = ["--wall-secs", "60", "--batch", "4", "--no-shrink"];
        assert!(check("soak", &soak).is_ok());
        assert!(check("soak", &["--wall-secs", "60", "--batches", "4"]).is_err());

        assert!(check("replay", &["run.json"]).is_ok());
        assert!(check("replay", &["run.json", "--serial"]).is_err());
        assert!(check("replay", &["run.json", "--paralel"]).is_err());
        assert!(check("replay", &["run.json", "--parallel"]).is_err());
        assert!(check("replay", &["a.json", "b.json"]).is_err());

        assert!(
            check("explore", &["--runs"]).is_err(),
            "a valued flag needs its value"
        );
        assert!(check("shrink", &[]).is_err());
    }

    #[test]
    fn sweeps_the_world_cannot_run_are_usage_errors() {
        assert!(explore_config_from(&[]).validate().is_ok());
        assert_eq!(soak_batch(&[]), Ok(8));
        assert_eq!(soak_batch(&strings(&["--batch", "1"])), Ok(1));
        let rejected: [&[&str]; 7] = [
            &["--lambda-min", "-1", "--lambda-max", "0"],
            &["--lambda-min", "3", "--lambda-max", "2"],
            &["--lambda-max", "inf"],
            &["--mt", "1"],
            &["--mt", "0"],
            &["--horizon", "0"],
            &["--horizon", "NaN"],
        ];
        for args in rejected {
            let cfg = explore_config_from(&strings(args));
            assert!(cfg.validate().is_err(), "{args:?}");
        }
        assert!(soak_batch(&strings(&["--batch", "0"])).is_err());
    }
}
