//! Times the Monte-Carlo BER engines on the table-2 configuration:
//!
//! * `scalar` — the per-block oracle ([`comimo_stbc::sim::simulate_ber`])
//!   replaying the deterministic shard plan on one thread;
//! * `batch` — the unified lane-parallel engine with its compute pass
//!   on the **scalar tier** (what every CPU without AVX2 runs),
//!   replaying the same plan serially;
//! * `simd` — the same engine on the **native tier**
//!   ([`comimo_math::simd::active`]: AVX2 where the CPU has it, else
//!   scalar) — bit-identical to `batch` by the dispatch contract,
//!   asserted here;
//! * `grid` — the common-random-number grid engine
//!   ([`comimo_stbc::grid::simulate_ber_grid`]) simulating a whole
//!   SNR sweep ([`GRID_SWEEP_N0S`] points) from one shared draw stream;
//!   its `blocks_per_sec` counts *point-blocks* (blocks × grid points);
//! * `parallel` — [`comimo_stbc::sim::simulate_ber_par`] on the rayon
//!   pool (bit-identical to `simd` by construction — asserted here).
//!
//! Each engine is timed over **5 runs**; the row records the median plus
//! the min/max blocks-per-second spread so the trajectory captures
//! run-to-run variance, and determinism across the repeats is asserted
//! as a side effect. A trajectory entry (with the git commit it was
//! measured at) is **appended** to `BENCH_mc.json`, so the file
//! accumulates a perf history instead of overwriting it.
//!
//! Usage:
//! `cargo run --release -p comimo-bench --bin mcperf [-- [n_blocks] [--gate]]`
//!
//! With `--gate` the run acts as a CI perf-regression gate, defending
//! three properties:
//!
//! 1. the batch(scalar-tier)/scalar speedup against [`GATE_FRACTION`]
//!    of the last committed entry (ratio-based, hardware-independent);
//! 2. the simd/scalar speedup likewise (skipped with a note when the
//!    last committed entry predates the field);
//! 3. the grid/scalar speedup against the **absolute floor**
//!    [`GRID_GATE_FLOOR`] — the CRN grid engine must stay an
//!    order-of-magnitude win over the per-block oracle on a single
//!    thread, on any hardware.
//!
//! The lines starting with `counts` on stdout are a pure function of
//! `(seed, n_blocks)` — CI diffs them across thread counts to prove
//! engine determinism.

use comimo_bench::perf::{self, bench, median, RUNS};
use comimo_bench::EXPERIMENT_SEED;
use comimo_math::simd;
use comimo_stbc::batch::{simulate_ber_batch, BatchWorkspace, BATCH_BLOCKS};
use comimo_stbc::design::{Ostbc, StbcKind};
use comimo_stbc::grid::{simulate_ber_grid, GridPoint};
use comimo_stbc::sim::{
    shard_plan, simulate_ber, simulate_ber_par, BerResult, SimConstellation, DEFAULT_SHARD_BLOCKS,
};
use serde::Serialize;

/// Minimum acceptable fraction of a committed relative-speedup baseline
/// before `--gate` fails the run. Shared CI runners jitter ratios by
/// tens of percent even with median-of-5 timing, so the floor is set
/// where only a genuine kernel regression (e.g. a lane path falling back
/// to per-sample work) can trip it.
const GATE_FRACTION: f64 = 0.6;

/// Absolute `--gate` floor on the grid-engine speedup over the scalar
/// oracle (single thread, point-blocks per second vs blocks per second).
/// The CRN grid amortises channel/symbol/noise draws and the shared
/// matched-filter coefficients across the whole sweep, on top of the
/// SIMD lanes — losing the order-of-magnitude win means one of those
/// layers regressed, not timing jitter.
const GRID_GATE_FLOOR: f64 = 10.0;

/// Noise variances of the timed grid sweep (QPSK at `es = 4.0`). The
/// first point replicates the per-point engines' `(es, n0)` so the CRN
/// equality `grid[0] == simd` is asserted on every run.
const GRID_SWEEP_N0S: [f64; 8] = [1.0, 2.0, 1.5, 0.8, 0.6, 0.45, 0.35, 0.25];

/// One timed engine configuration.
#[derive(Debug, Clone, Serialize)]
struct EngineRow {
    /// `"scalar"`, `"batch"`, `"simd"`, `"grid"` or `"parallel"`.
    engine: String,
    /// SIMD dispatch tier the engine ran under.
    dispatch: String,
    /// Threads this engine actually ran on (the live rayon pool width for
    /// `parallel`, 1 for the serial engines).
    threads: usize,
    /// Median wall-clock seconds over [`RUNS`] repeats.
    seconds: f64,
    /// Timing repeats behind the median.
    runs: usize,
    /// Simulated blocks per second at the median time. For the `grid`
    /// engine a "block" is a point-block (block × grid point): the grid
    /// does the whole sweep's work in one pass.
    blocks_per_sec: f64,
    /// Worst blocks-per-second across the repeats.
    blocks_per_sec_min: f64,
    /// Best blocks-per-second across the repeats.
    blocks_per_sec_max: f64,
    /// Bits simulated (summed over grid points for `grid`).
    bits: u64,
    /// Bit errors counted (summed over grid points for `grid`).
    errors: u64,
}

/// One appended trajectory entry of `BENCH_mc.json`.
#[derive(Debug, Clone, Serialize)]
struct McEntry {
    /// `git rev-parse --short HEAD` at measurement time (`"unknown"`
    /// outside a work tree).
    commit: String,
    /// Unix timestamp (seconds) of the run.
    unix_time: u64,
    /// Seed of the run (engine results are a pure function of it).
    seed: u64,
    /// Monte-Carlo blocks per engine run.
    n_blocks: usize,
    /// Blocks per deterministic shard.
    shard_blocks: usize,
    /// Blocks per bulk draw inside the batch kernel.
    batch_blocks: usize,
    /// Grid points in the timed CRN sweep.
    grid_points: usize,
    /// Scalar-tier engine speedup over the per-block oracle, single
    /// thread (the portable-baseline ratio the relative gate defends).
    speedup_batch_over_scalar: f64,
    /// Native-dispatch engine speedup over the oracle, single thread.
    speedup_simd_over_scalar: f64,
    /// Grid-engine point-block throughput over the oracle's block
    /// throughput, single thread — the ratio the absolute
    /// [`GRID_GATE_FLOOR`] defends.
    speedup_grid_over_scalar: f64,
    /// Parallel-engine speedup over the scalar oracle.
    speedup_parallel_over_scalar: f64,
    /// Timed rows.
    engines: Vec<EngineRow>,
}

/// Prints usage and exits non-zero — a bad invocation must never reach
/// (let alone corrupt) the committed perf baseline.
fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: mcperf [n_blocks] [--gate]");
    eprintln!("  n_blocks  Monte-Carlo blocks per engine run (default 200000)");
    eprintln!("  --gate    fail if the batch/simd speedups regressed below");
    eprintln!(
        "            {:.0}% of the last committed BENCH_mc.json entry, or",
        GATE_FRACTION * 100.0
    );
    eprintln!("            the grid/scalar speedup fell below {GRID_GATE_FLOOR:.0}x");
    std::process::exit(2);
}

fn main() {
    let mut n_blocks: usize = 200_000;
    let mut gate = false;
    for arg in std::env::args().skip(1) {
        if arg == "--gate" {
            gate = true;
        } else if arg.starts_with('-') {
            usage(&format!("unknown flag {arg:?}"));
        } else {
            n_blocks = arg
                .parse()
                .unwrap_or_else(|_| usage(&format!("n_blocks must be an integer, got {arg:?}")));
        }
    }
    if n_blocks == 0 {
        usage("n_blocks must be positive");
    }
    let code = Ostbc::new(StbcKind::Alamouti);
    let cons = SimConstellation::new(2);
    let (mr, es, n0) = (2, 4.0, 1.0);
    let seed = EXPERIMENT_SEED;
    let path = "BENCH_mc.json";
    let grid_points: Vec<GridPoint> = GRID_SWEEP_N0S
        .iter()
        .map(|&n0| GridPoint {
            bits_per_symbol: 2,
            es,
            n0,
        })
        .collect();
    let n_grid = grid_points.len();

    // the committed baseline must be read before this run appends to it
    let entries = perf::read_entries(path);
    let baseline = |name: &str| entries.last().and_then(|e| perf::number_field(e, name));
    let baseline_batch = baseline("speedup_batch_over_scalar");
    let baseline_simd = baseline("speedup_simd_over_scalar");

    // scalar oracle: replay the parallel engine's shard plan on one
    // stream-per-shard, one thread — the PR-1 reference engine
    let (t_scalar, r_scalar) = bench(|| {
        let mut acc = BerResult { bits: 0, errors: 0 };
        for (label, blocks) in shard_plan(n_blocks) {
            let mut rng = comimo_math::rng::derive(seed, label);
            let r = simulate_ber(&mut rng, &code, &cons, mr, es, n0, blocks);
            acc.bits += r.bits;
            acc.errors += r.errors;
        }
        acc
    });
    // unified engine with its compute pass on the scalar tier, serial
    // shard replay, one thread
    let (t_batch, r_batch) = bench(|| {
        let mut ws = BatchWorkspace::with_dispatch(&code, &cons, mr, simd::Dispatch::Scalar);
        let mut acc = BerResult { bits: 0, errors: 0 };
        for (label, blocks) in shard_plan(n_blocks) {
            let mut rng = comimo_math::rng::derive(seed, label);
            let r = ws.simulate(&mut rng, es, n0, blocks);
            acc.bits += r.bits;
            acc.errors += r.errors;
        }
        acc
    });
    // the same engine under the native dispatch tier
    let (t_simd, r_simd) = bench(|| simulate_ber_batch(seed, &code, &cons, mr, es, n0, n_blocks));
    // CRN grid engine: the whole SNR sweep from one shared draw stream
    let (t_grid, r_grid) = bench(|| simulate_ber_grid(seed, &code, &grid_points, mr, n_blocks));
    // sharded parallel engine on the live rayon pool
    let (t_par, r_par) = bench(|| simulate_ber_par(seed, &code, &cons, mr, es, n0, n_blocks));

    assert_eq!(
        r_batch, r_simd,
        "dispatch tiers diverged: scalar vs native must be bit-identical"
    );
    assert_eq!(
        r_par, r_simd,
        "parallel engine diverged from the serial shard replay"
    );
    assert_eq!(
        r_grid[0], r_simd,
        "CRN contract broken: grid point 0 must equal the per-point engine"
    );
    assert_eq!(
        r_scalar.bits, r_simd.bits,
        "engines simulated different bit counts"
    );

    let threads = rayon::current_num_threads();
    let native = simd::active().name().to_string();
    let speedup_batch = median(&t_scalar) / median(&t_batch);
    let speedup_simd = median(&t_scalar) / median(&t_simd);
    let speedup_par = median(&t_scalar) / median(&t_par);
    // grid throughput counts point-blocks: one sweep pass does the work
    // of n_grid per-point runs
    let speedup_grid = (n_grid as f64 * median(&t_scalar)) / median(&t_grid);
    let row = |engine: &str,
               dispatch: &str,
               threads: usize,
               times: &[f64],
               work_blocks: f64,
               bits: u64,
               errors: u64| EngineRow {
        engine: engine.into(),
        dispatch: dispatch.into(),
        threads,
        seconds: median(times),
        runs: RUNS,
        blocks_per_sec: work_blocks / median(times),
        blocks_per_sec_min: work_blocks / times[times.len() - 1],
        blocks_per_sec_max: work_blocks / times[0],
        bits,
        errors,
    };
    let grid_bits: u64 = r_grid.iter().map(|r| r.bits).sum();
    let grid_errors: u64 = r_grid.iter().map(|r| r.errors).sum();
    let entry = McEntry {
        commit: perf::git_commit(),
        unix_time: perf::unix_time(),
        seed,
        n_blocks,
        shard_blocks: DEFAULT_SHARD_BLOCKS,
        batch_blocks: BATCH_BLOCKS,
        grid_points: n_grid,
        speedup_batch_over_scalar: speedup_batch,
        speedup_simd_over_scalar: speedup_simd,
        speedup_grid_over_scalar: speedup_grid,
        speedup_parallel_over_scalar: speedup_par,
        engines: vec![
            row(
                "scalar",
                "none",
                1,
                &t_scalar,
                n_blocks as f64,
                r_scalar.bits,
                r_scalar.errors,
            ),
            row(
                "batch",
                "scalar",
                1,
                &t_batch,
                n_blocks as f64,
                r_batch.bits,
                r_batch.errors,
            ),
            row(
                "simd",
                &native,
                1,
                &t_simd,
                n_blocks as f64,
                r_simd.bits,
                r_simd.errors,
            ),
            row(
                "grid",
                &native,
                1,
                &t_grid,
                (n_blocks * n_grid) as f64,
                grid_bits,
                grid_errors,
            ),
            row(
                "parallel",
                &native,
                threads,
                &t_par,
                n_blocks as f64,
                r_par.bits,
                r_par.errors,
            ),
        ],
    };

    println!("{}", perf::to_json_or_exit(&entry, "the trajectory entry"));
    // deterministic engine output — CI diffs these lines across thread
    // counts (the tiers are compared in-process above)
    println!(
        "counts seed={seed} n_blocks={n_blocks} bits={} errors={}",
        r_par.bits, r_par.errors
    );
    let grid_errs: Vec<String> = r_grid.iter().map(|r| r.errors.to_string()).collect();
    println!(
        "counts_grid seed={seed} n_blocks={n_blocks} points={n_grid} errors={}",
        grid_errs.join(",")
    );
    println!(
        "{n_blocks} blocks: scalar {:.3}s, batch[scalar] {:.3}s ({speedup_batch:.2}x), \
         simd[{native}] {:.3}s ({speedup_simd:.2}x), grid x{n_grid} {:.3}s ({speedup_grid:.2}x), \
         parallel {:.3}s on {threads} thread(s) ({speedup_par:.2}x), BER {:.3e}",
        median(&t_scalar),
        median(&t_batch),
        median(&t_simd),
        median(&t_grid),
        median(&t_par),
        r_par.errors as f64 / r_par.bits as f64
    );

    perf::append_entry(path, entries, entry.to_value());

    if gate {
        let mut failed = false;
        // 1. portable-baseline ratio vs committed history
        match baseline_batch {
            Some(base) => {
                let floor = GATE_FRACTION * base;
                if speedup_batch < floor {
                    eprintln!(
                        "PERF GATE FAILED: batch/scalar speedup {speedup_batch:.2}x fell below \
                         {floor:.2}x ({:.0}% of committed baseline {base:.2}x)",
                        GATE_FRACTION * 100.0
                    );
                    failed = true;
                } else {
                    println!(
                        "perf gate OK: batch/scalar speedup {speedup_batch:.2}x >= {floor:.2}x \
                         ({:.0}% of committed baseline {base:.2}x)",
                        GATE_FRACTION * 100.0
                    );
                }
            }
            None => {
                eprintln!("PERF GATE FAILED: no committed baseline entry in {path}");
                failed = true;
            }
        }
        // 2. native-dispatch ratio vs committed history (entries from
        //    before the simd engine existed carry no baseline — noted,
        //    not failed, so the first simd entry can land)
        match baseline_simd {
            Some(base) => {
                let floor = GATE_FRACTION * base;
                if speedup_simd < floor {
                    eprintln!(
                        "PERF GATE FAILED: simd/scalar speedup {speedup_simd:.2}x fell below \
                         {floor:.2}x ({:.0}% of committed baseline {base:.2}x)",
                        GATE_FRACTION * 100.0
                    );
                    failed = true;
                } else {
                    println!(
                        "perf gate OK: simd/scalar speedup {speedup_simd:.2}x >= {floor:.2}x \
                         ({:.0}% of committed baseline {base:.2}x)",
                        GATE_FRACTION * 100.0
                    );
                }
            }
            None => println!(
                "perf gate note: last committed entry has no simd baseline; \
                 absolute grid floor still applies"
            ),
        }
        // 3. absolute order-of-magnitude floor on the CRN grid engine
        if speedup_grid < GRID_GATE_FLOOR {
            eprintln!(
                "PERF GATE FAILED: grid/scalar speedup {speedup_grid:.2}x fell below the \
                 absolute floor {GRID_GATE_FLOOR:.0}x"
            );
            failed = true;
        } else {
            println!(
                "perf gate OK: grid/scalar speedup {speedup_grid:.2}x >= absolute floor \
                 {GRID_GATE_FLOOR:.0}x"
            );
        }
        if failed {
            std::process::exit(1);
        }
    }
}
