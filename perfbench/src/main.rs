//! Whole-stack benchmark of the comimo workspace.
//!
//! ```text
//! comimo-perfbench --workload <paper|million|bergrid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads:
//!
//! * `paper` — the whole-stack slot loop ([`slots`]) at paper scale:
//!   16 networks of 60 SUs;
//! * `million` — the same slot loop on one network of 1 000 000 SUs;
//! * `bergrid` — the CRN BER grid ([`bergrid`]).
//!
//! A run sets the workload up three to five times (median reported as
//! `setup_s`), warms up for [`WARMUP`], then runs steps (one slot, or one
//! grid shard) for `--seconds`, timing each against the [`Reference`]
//! yardstick run between steps. Checks run between steps, outside the
//! timed region, and once more at the end.
//!
//! The last line on stdout is one JSON object. With `--trace 0` it holds
//! the end-to-end metrics: the 10th percentile of step cost in reference
//! units, and the set-up time. With `--trace 1`
//! it holds the per-layer ledger ([`ledger`]): each layer's share of
//! step time, the glue no span covers, and the layers' work counters.
//! Exit code 2 on a bad invocation.

mod bergrid;
mod ledger;
mod slots;

use ledger::{Counts, Ledger, LAYERS};
use std::time::{Duration, Instant};

/// One benchmark workload, stepped by the measurement loop.
pub trait Workload {
    /// Untimed work before the next step (episode restarts).
    fn prepare(&mut self);
    /// One timed step.
    fn step(&mut self, ledger: &mut Ledger, counts: &mut Counts) -> Result<(), String>;
    /// Untimed oracle checks of the step just run.
    fn verify(&mut self) -> Result<(), String>;
    /// Untimed audit once the measurement is over.
    fn finish(&mut self) -> Result<(), String>;
}

/// Set-ups per run: at least [`SETUP_MIN`], more up to [`SETUP_MAX`]
/// while they fit in [`SETUP_BUDGET`]; `setup_s` is their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(20);
/// Steps run before timing starts, so caches and lazy state settle.
const WARMUP: Duration = Duration::from_millis(500);
/// Iterations of the reference kernel (about 0.2 ms of work).
const REFERENCE_DRAWS: usize = 20_000;

const USAGE: &str =
    "usage: comimo-perfbench --workload <paper|million|bergrid> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if !["paper", "million", "bergrid"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn build(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "paper" => Box::new(slots::SlotWorld::new(seed, slots::Scale::PAPER)),
        "million" => Box::new(slots::SlotWorld::new(seed, slots::Scale::MILLION)),
        _ => Box::new(bergrid::BerGrid::new(seed)),
    }
}

/// Value at quantile `q` of an ascending slice (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The yardstick step times are divided by: fixed work of the
/// benchmark's own (xorshift draws, a dependent chain of square roots,
/// random updates of a 256 KiB table), timed between steps.
///
/// On a host whose cores are shared with other tenants, whole stretches
/// of a run go slower while the neighbours are busy (by 40–70 %, measured
/// on a 2-vCPU Xeon VM). A step and the reference runs on either side of
/// it see the same host, so their ratio, the step's cost in reference
/// units, holds still where wall time does not; the 10th percentile
/// keeps the steps of the quiet stretches. The kernel is benchmark code,
/// identical on every commit, so the ratio moves only when the stack's
/// own work does.
struct Reference {
    table: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        Self {
            table: vec![0; 32 * 1024],
        }
    }

    /// Runs the kernel once and returns its wall time (ns).
    fn time_ns(&mut self) -> u64 {
        let t0 = Instant::now();
        let table = std::hint::black_box(&mut self.table);
        let mask = table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 1.0f64;
        for _ in 0..REFERENCE_DRAWS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & mask;
            table[j] = table[j].wrapping_add(x);
            acc = (acc + (x >> 11) as f64 * 1e-16).sqrt() + 0.5;
        }
        std::hint::black_box(x ^ acc.to_bits());
        t0.elapsed().as_nanos() as u64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let mut setup_s = Vec::with_capacity(SETUP_MAX);
    let mut world: Option<Box<dyn Workload>> = None;
    let setups = Instant::now();
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setups.elapsed() < SETUP_BUDGET)
    {
        // the previous set-up is freed first, outside the timing
        drop(world.take());
        let t0 = Instant::now();
        let w = build(&args.workload, args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        world = Some(w);
    }
    let mut world = world.expect("at least one set-up ran");
    setup_s.sort_by(f64::total_cmp);

    let mut ledger = Ledger::new(args.trace);
    let mut counts = Counts::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut run_step =
        |world: &mut Box<dyn Workload>, ledger: &mut Ledger, counts: &mut Counts| -> u64 {
            world.prepare();
            let t0 = Instant::now();
            let result = world.step(ledger, counts);
            let ns = t0.elapsed().as_nanos() as u64;
            attempted += 1;
            if let Err(e) = result.and_then(|()| world.verify()) {
                failed += 1;
                eprintln!("step failed: {e}");
            }
            ns
        };

    let warm = Instant::now();
    while warm.elapsed() < WARMUP {
        run_step(&mut world, &mut ledger, &mut counts);
    }
    ledger.reset();
    counts = Counts::default();

    // each step is divided by the mean of the reference runs on either
    // side of it
    let budget = Duration::from_secs(args.seconds);
    let mut reference = Reference::new();
    let mut ref_before = reference.time_ns();
    let mut step_ns: Vec<u64> = Vec::new();
    let mut cost: Vec<f64> = Vec::new();
    let mut ref_ns: Vec<f64> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || step_ns.is_empty() {
        let ns = run_step(&mut world, &mut ledger, &mut counts);
        let ref_after = reference.time_ns();
        let yardstick = 0.5 * (ref_before + ref_after) as f64;
        step_ns.push(ns);
        cost.push(ns as f64 / yardstick);
        ref_ns.push(yardstick);
        ref_before = ref_after;
    }
    let audit = world.finish();
    if let Err(e) = &audit {
        eprintln!("final audit failed: {e}");
    }
    let correct = failed == 0 && audit.is_ok();

    let steps = step_ns.len() as u64;
    let total_ns: u64 = step_ns.iter().sum();
    cost.sort_by(f64::total_cmp);
    ref_ns.sort_by(f64::total_cmp);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let pct = |ns: u64| 100.0 * ratio(ns, total_ns);
        let mut covered = 0u64;
        for (layer, name) in LAYERS {
            let ns = ledger.layer_ns(layer);
            covered += ns;
            metrics.push((name, pct(ns), "%"));
        }
        let c = &counts;
        metrics.extend([
            ("glue_pct", 100.0 - pct(covered), "%"),
            ("traced_step_us", total_ns as f64 / steps as f64 / 1e3, "us"),
            ("ns_per_item", ratio(total_ns, c.items), "ns"),
            ("churn_ops_per_step", ratio(c.churn_ops, steps), "count"),
            ("rounds_per_step", ratio(c.sensing_rounds, steps), "count"),
            (
                "delivery_ratio",
                ratio(c.reports_delivered, c.reporters),
                "ratio",
            ),
            (
                "frames_per_report",
                ratio(c.frames_sent, c.reports_delivered),
                "ratio",
            ),
            (
                "weighted_rung_share",
                ratio(c.weighted_rounds, c.sensing_rounds),
                "ratio",
            ),
            (
                "vandal_quarantine_share",
                ratio(c.vandal_quarantined, c.vandal_slots),
                "ratio",
            ),
            (
                "honest_quarantine_share",
                ratio(c.honest_quarantined, c.reporters - c.vandal_slots),
                "ratio",
            ),
            (
                "tracker_starts_per_step",
                ratio(c.tracker_starts, steps),
                "count",
            ),
            (
                "invariant_checks_per_step",
                ratio(c.invariant_checks, steps),
                "count",
            ),
            (
                "backbone_refreshes_per_step",
                ratio(c.backbone_refreshes, steps),
                "count",
            ),
            ("mc_blocks_per_step", ratio(c.mc_blocks, steps), "count"),
        ]);
    } else {
        metrics.extend([
            ("step_cost_p10", quantile(&cost, 0.1), "ref"),
            ("setup_s", median(&setup_s), "s"),
        ]);
    }

    eprintln!(
        "{}: seed {} trace {}: {steps} steps in {:.2} s of step time, {failed} failed; \
         reference {:.1} us (median); set-up {:.3} s (median of {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        total_ns as f64 / 1e9,
        median(&ref_ns) / 1e3,
        median(&setup_s),
        setup_s.len(),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
