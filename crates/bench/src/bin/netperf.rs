//! Times the million-SU topology engine on its headline workload:
//!
//! * `build` — bulk deployment: `n_nodes` joins into a fresh
//!   [`TopologyEngine`] (SoA store + spatial grid + incremental
//!   d-clustering), reported as nodes per second;
//! * `events` — raw [`ShardedEventQueue`] throughput: per-shard event
//!   generation fanned out with [`map_shards`] (order-stable on the
//!   rayon pool under the `parallel` feature), then a full drain in the
//!   canonical `(time, shard, unit, seq)` cross-shard order;
//! * `churn` — the live-network slot loop: per-shard churn ops (joins,
//!   deaths, PU arrivals) drawn from `derive(seed, slot·S + shard)`
//!   streams, scheduled into the sharded queue and applied to a clone of
//!   the built 1M-SU deployment in canonical order — per-slot
//!   maintenance cost is O(churned), not O(N);
//! * `rc2` / `exhaustive` — RC-C2 beamformer pairing of a K = 256
//!   cluster against the pinned O(K²) oracle; their pair lists are
//!   asserted identical and the ratio is the hardware-independent
//!   speedup the absolute gate defends.
//!
//! Each engine is timed over **5 runs** (median reported, min/max
//! recorded, determinism across repeats asserted), and a trajectory
//! entry is **appended** to `BENCH_net.json` with the git commit, so the
//! file accumulates a perf history instead of overwriting it —
//! `mcperf`/`BENCH_mc.json` style.
//!
//! Usage:
//! `cargo run --release -p comimo-bench --bin netperf [-- [n_nodes] [--gate]]`
//!
//! With `--gate` the run acts as a CI perf-regression gate:
//!
//! 1. build / events / churn throughput against [`GATE_FRACTION`] of the
//!    last committed entry (same-class hardware assumption, identical to
//!    the mcperf ratio discipline);
//! 2. the RC-C2/exhaustive pairing speedup against the **absolute
//!    floor** [`RC2_GATE_FLOOR`] — losing it means the heuristic
//!    degenerated back into a scan, on any hardware.
//!
//! The lines starting with `counts` on stdout are a pure function of
//! `(seed, n_nodes)` — CI diffs them across `RAYON_NUM_THREADS` 1/2/8 to
//! prove the sharded engine is bit-identical at any thread count.

use comimo_bench::perf::{self, bench, median, RUNS};
use comimo_bench::EXPERIMENT_SEED;
use comimo_channel::geometry::Point;
use comimo_core::cluster_beam::ClusterBeamformer;
use comimo_math::rng::derive;
use comimo_net::{TopologyConfig, TopologyEngine};
use comimo_sim::{map_shards, ShardedEventQueue, SimTime};
use rand::Rng;
use serde::Serialize;

/// Minimum acceptable fraction of a committed throughput baseline before
/// `--gate` fails the run. Topology throughput is hardware-dependent, so
/// the floor assumes same-class runners and is set where only a genuine
/// complexity regression (an O(N) scan sneaking into the per-slot path)
/// can trip it through timing jitter.
const GATE_FRACTION: f64 = 0.5;

/// Absolute `--gate` floor on the RC-C2 pairing speedup over the
/// exhaustive oracle at K = 256. The heuristic scans O(K) expected
/// against the oracle's O(K²); falling under this floor means the grid
/// path degenerated, not that the runner was slow.
const RC2_GATE_FLOOR: f64 = 1.5;

/// Event-queue shards: a 16×16 region grid over the field.
const SHARD_SIDE: u32 = 16;
const N_SHARDS: u32 = SHARD_SIDE * SHARD_SIDE;

/// Slots of the churn loop per timed run.
const CHURN_SLOTS: u64 = 16;

/// Wall-clock width of one churn slot.
const SLOT_NS: u64 = 1_000_000;

/// Elements of the RC-C2 benchmark cluster (the "100+-element" regime
/// where the O(K²) scan visibly loses to the grid heuristic).
const RC2_CLUSTER_K: usize = 256;

/// RC-C2 pairing repetitions per timed run.
const RC2_REPS: usize = 200;

/// One churn operation, drawn per shard and applied in canonical order.
#[derive(Debug, Clone, Copy)]
enum NetOp {
    /// A new SU powers on at `(x, y)`.
    Join { x: f64, y: f64, battery_j: f64 },
    /// The SU nearest `(x, y)` dies.
    Death { x: f64, y: f64 },
    /// A primary user appears at `(x, y)` with the given footprint.
    Pu { x: f64, y: f64, radius_m: f64 },
}

/// One timed engine configuration.
#[derive(Debug, Clone, Serialize)]
struct EngineRow {
    /// `"build"`, `"events"`, `"churn"`, `"rc2"` or `"exhaustive"`.
    engine: String,
    /// Threads the engine's fan-out stages ran on (1 for serial rows).
    threads: usize,
    /// Median wall-clock seconds over [`RUNS`] repeats.
    seconds: f64,
    /// Timing repeats behind the median.
    runs: usize,
    /// Operations per second at the median time (joins for `build`,
    /// scheduled+drained events for `events`, applied churn ops for
    /// `churn`, pairings for the beamformer rows).
    ops_per_sec: f64,
    /// Worst ops-per-second across the repeats.
    ops_per_sec_min: f64,
    /// Best ops-per-second across the repeats.
    ops_per_sec_max: f64,
}

/// One appended trajectory entry of `BENCH_net.json`.
#[derive(Debug, Clone, Serialize)]
struct NetEntry {
    /// `git rev-parse --short HEAD` at measurement time (`"unknown"`
    /// outside a work tree).
    commit: String,
    /// Unix timestamp (seconds) of the run.
    unix_time: u64,
    /// Seed of the run (all digests are a pure function of it).
    seed: u64,
    /// Deployed SU population.
    n_nodes: usize,
    /// Event-queue shards (16×16 field regions).
    n_shards: u32,
    /// Churn slots per timed run.
    churn_slots: u64,
    /// Live clusters after the bulk build.
    clusters_alive: usize,
    /// Bulk-deployment throughput the relative gate defends.
    nodes_per_sec: f64,
    /// Sharded-queue schedule+drain throughput.
    events_per_sec: f64,
    /// Canonical-order churn application throughput.
    churn_ops_per_sec: f64,
    /// RC-C2 pairing speedup over the exhaustive oracle at K = 256 —
    /// the hardware-independent ratio the absolute floor defends.
    speedup_rc2_over_exhaustive: f64,
    /// Timed rows.
    engines: Vec<EngineRow>,
}

/// FNV-1a over one `u64`, folded into the running digest.
fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Prints usage and exits non-zero — a bad invocation must never reach
/// (let alone corrupt) the committed perf baseline.
fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: netperf [n_nodes] [--gate]");
    eprintln!("  n_nodes   SUs to deploy (default 1000000)");
    eprintln!("  --gate    fail if build/events/churn throughput regressed below");
    eprintln!(
        "            {:.0}% of the last committed BENCH_net.json entry, or the",
        GATE_FRACTION * 100.0
    );
    eprintln!("            RC-C2/exhaustive pairing speedup fell below {RC2_GATE_FLOOR:.1}x");
    std::process::exit(2);
}

/// The churn ops of one `(slot, shard)` cell, drawn from a stream derived
/// for exactly that cell — the same ops at any thread count.
fn slot_ops(seed: u64, slot: u64, shard: u32, width: f64, height: f64) -> Vec<(SimTime, NetOp)> {
    let mut rng = derive(seed ^ 0xC4A52, slot * N_SHARDS as u64 + shard as u64);
    let (col, row) = ((shard % SHARD_SIDE) as f64, (shard / SHARD_SIDE) as f64);
    let (x0, y0) = (
        col * width / SHARD_SIDE as f64,
        row * height / SHARD_SIDE as f64,
    );
    let (dx, dy) = (width / SHARD_SIDE as f64, height / SHARD_SIDE as f64);
    let base = slot * SLOT_NS;
    let pos = |rng: &mut comimo_math::rng::SeededRng| {
        (x0 + rng.gen_range(0.0..dx), y0 + rng.gen_range(0.0..dy))
    };
    let mut ops = Vec::with_capacity(4);
    for _ in 0..2 {
        let (x, y) = pos(&mut rng);
        let battery_j = rng.gen_range(10.0..100.0);
        let at = SimTime::from_nanos(base + rng.gen_range(0..SLOT_NS));
        ops.push((at, NetOp::Join { x, y, battery_j }));
    }
    let (x, y) = pos(&mut rng);
    let at = SimTime::from_nanos(base + rng.gen_range(0..SLOT_NS));
    ops.push((at, NetOp::Death { x, y }));
    if rng.gen_range(0..8u32) == 0 {
        let (x, y) = pos(&mut rng);
        let radius_m = rng.gen_range(50.0..300.0);
        let at = SimTime::from_nanos(base + rng.gen_range(0..SLOT_NS));
        ops.push((at, NetOp::Pu { x, y, radius_m }));
    }
    ops
}

/// Applies one op and folds its outcome into the digest value returned.
fn apply(eng: &mut TopologyEngine, op: NetOp) -> u64 {
    match op {
        NetOp::Join { x, y, battery_j } => {
            let o = eng.join(x, y, battery_j).expect("in-field join");
            fnv(
                fnv(FNV_OFFSET, o.cluster as u64),
                (u64::from(o.founded) << 1) | u64::from(o.became_head),
            )
        }
        NetOp::Death { x, y } => match eng.nearest_node(x, y) {
            Some((id, _)) => {
                let di = eng.death(id).expect("alive victim");
                fnv(
                    fnv(FNV_OFFSET, di.cluster as u64),
                    (u64::from(di.retired) << 2)
                        | (u64::from(di.head_changed) << 1)
                        | u64::from(di.recruited.is_some()),
                )
            }
            None => FNV_OFFSET,
        },
        NetOp::Pu { x, y, radius_m } => {
            let affected = eng.pu_arrival(x, y, radius_m);
            let mut h = fnv(FNV_OFFSET, affected.len() as u64);
            for c in affected {
                h = fnv(h, c as u64);
            }
            h
        }
    }
}

fn main() {
    let mut n_nodes: usize = 1_000_000;
    let mut gate = false;
    for arg in std::env::args().skip(1) {
        if arg == "--gate" {
            gate = true;
        } else if arg.starts_with('-') {
            usage(&format!("unknown flag {arg:?}"));
        } else {
            n_nodes = arg
                .parse()
                .unwrap_or_else(|_| usage(&format!("n_nodes must be an integer, got {arg:?}")));
        }
    }
    if n_nodes == 0 {
        usage("n_nodes must be positive");
    }
    let seed = EXPERIMENT_SEED;
    let path = "BENCH_net.json";
    // density held constant as n scales: ~80 SUs per d-ball, which at
    // n = 1M gives the headline ~10k-cluster deployment
    let side = (n_nodes as f64).sqrt() * 3.545;
    let cfg = TopologyConfig {
        width_m: side,
        height_m: side,
        d_m: 40.0,
        max_cluster: 128,
        long_range_m: 120.0,
    };
    let shard_ids: Vec<u32> = (0..N_SHARDS).collect();

    // the committed baseline must be read before this run appends to it
    let entries = perf::read_entries(path);
    let baseline = |name: &str| entries.last().and_then(|e| perf::number_field(e, name));
    let (base_build, base_events, base_churn) = (
        baseline("nodes_per_sec"),
        baseline("events_per_sec"),
        baseline("churn_ops_per_sec"),
    );

    // build: bulk-deploy n_nodes joins into a fresh engine
    let (t_build, (clusters_alive, build_digest)) = bench(|| {
        let mut eng = TopologyEngine::with_capacity(cfg, n_nodes, n_nodes / 64);
        let mut rng = derive(seed, 0xB111D);
        for _ in 0..n_nodes {
            let x = rng.gen_range(0.0..side);
            let y = rng.gen_range(0.0..side);
            let o = eng
                .join(x, y, rng.gen_range(10.0..100.0))
                .expect("in-field");
            debug_assert!(o.node != u32::MAX);
        }
        let s = eng.stats();
        let digest = [
            eng.nodes_alive() as u64,
            eng.clusters_alive() as u64,
            s.clusters_founded,
            s.head_reelections,
        ]
        .into_iter()
        .fold(FNV_OFFSET, fnv);
        (eng.clusters_alive(), digest)
    });

    // the churn loop mutates a snapshot of this deployment every run
    let base_engine = {
        let mut eng = TopologyEngine::with_capacity(cfg, n_nodes, n_nodes / 64);
        let mut rng = derive(seed, 0xB111D);
        for _ in 0..n_nodes {
            let x = rng.gen_range(0.0..side);
            let y = rng.gen_range(0.0..side);
            eng.join(x, y, rng.gen_range(10.0..100.0))
                .expect("in-field");
        }
        eng
    };

    // events: raw sharded-queue throughput, parallel generation fanned
    // out per shard, serial canonical drain
    let n_events = (1usize << 18).min(n_nodes * 4);
    let per_shard = n_events / N_SHARDS as usize;
    let (t_events, events_digest) = bench(|| {
        let batches: Vec<Vec<(SimTime, u64)>> = map_shards(&shard_ids, |s, _| {
            let mut rng = derive(seed ^ 0xE7E47, s as u64);
            (0..per_shard)
                .map(|i| {
                    (
                        SimTime::from_nanos(rng.gen_range(0..1_000_000_000u64)),
                        i as u64,
                    )
                })
                .collect()
        });
        let mut q = ShardedEventQueue::new(N_SHARDS as usize);
        for (s, batch) in batches.iter().enumerate() {
            for &(at, payload) in batch {
                q.schedule_at(s as u32, at, payload, payload);
            }
        }
        let mut digest = FNV_OFFSET;
        while let Some((key, payload)) = q.pop() {
            digest = fnv(digest, key.at.as_nanos());
            digest = fnv(digest, ((key.shard as u64) << 32) ^ key.seq);
            digest = fnv(digest, payload);
        }
        digest
    });

    // churn: the live slot loop on a 1M-SU deployment
    let (t_churn, (churn_ops, churn_digest, churn_nodes, churn_clusters)) = bench(|| {
        let mut eng = base_engine.clone();
        let mut q = ShardedEventQueue::new(N_SHARDS as usize);
        let mut digest = FNV_OFFSET;
        let mut ops_applied = 0u64;
        for slot in 0..CHURN_SLOTS {
            let gen: Vec<Vec<(SimTime, NetOp)>> =
                map_shards(&shard_ids, |s, _| slot_ops(seed, slot, s, side, side));
            for (s, ops) in gen.iter().enumerate() {
                for (i, &(at, op)) in ops.iter().enumerate() {
                    q.schedule_at(s as u32, at, i as u64, op);
                }
            }
            while let Some((key, op)) = q.pop() {
                let h = apply(&mut eng, op);
                digest = fnv(digest, key.at.as_nanos() ^ h);
                ops_applied += 1;
            }
        }
        (ops_applied, digest, eng.nodes_alive(), eng.clusters_alive())
    });

    // RC-C2 pairing vs the exhaustive oracle on a K = 256 cluster
    let cluster: Vec<Point> = {
        let mut rng = derive(seed, 0x9C2);
        (0..RC2_CLUSTER_K)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    };
    let wavelength = 0.1199;
    {
        let fast = ClusterBeamformer::pair_up(&cluster, wavelength);
        let slow = ClusterBeamformer::pair_up_exhaustive(&cluster, wavelength);
        assert_eq!(
            fast.pairs(),
            slow.pairs(),
            "RC-C2 diverged from the exhaustive oracle"
        );
    }
    let (t_rc2, rc2_virtual) = bench(|| {
        let mut acc = 0usize;
        for _ in 0..RC2_REPS {
            acc += ClusterBeamformer::pair_up(&cluster, wavelength).n_virtual_antennas();
        }
        acc
    });
    let (t_exh, exh_virtual) = bench(|| {
        let mut acc = 0usize;
        for _ in 0..RC2_REPS {
            acc += ClusterBeamformer::pair_up_exhaustive(&cluster, wavelength).n_virtual_antennas();
        }
        acc
    });
    assert_eq!(rc2_virtual, exh_virtual);

    let threads = rayon::current_num_threads();
    let nodes_per_sec = n_nodes as f64 / median(&t_build);
    // each event is scheduled once and drained once
    let events_per_sec = (per_shard * N_SHARDS as usize) as f64 / median(&t_events);
    let churn_ops_per_sec = churn_ops as f64 / median(&t_churn);
    let speedup_rc2 = median(&t_exh) / median(&t_rc2);
    let row = |engine: &str, threads: usize, times: &[f64], work: f64| EngineRow {
        engine: engine.into(),
        threads,
        seconds: median(times),
        runs: RUNS,
        ops_per_sec: work / median(times),
        ops_per_sec_min: work / times[times.len() - 1],
        ops_per_sec_max: work / times[0],
    };
    let entry = NetEntry {
        commit: perf::git_commit(),
        unix_time: perf::unix_time(),
        seed,
        n_nodes,
        n_shards: N_SHARDS,
        churn_slots: CHURN_SLOTS,
        clusters_alive,
        nodes_per_sec,
        events_per_sec,
        churn_ops_per_sec,
        speedup_rc2_over_exhaustive: speedup_rc2,
        engines: vec![
            row("build", 1, &t_build, n_nodes as f64),
            row(
                "events",
                threads,
                &t_events,
                (per_shard * N_SHARDS as usize) as f64,
            ),
            row("churn", threads, &t_churn, churn_ops as f64),
            row("rc2", 1, &t_rc2, RC2_REPS as f64),
            row("exhaustive", 1, &t_exh, RC2_REPS as f64),
        ],
    };

    println!("{}", perf::to_json_or_exit(&entry, "the trajectory entry"));
    // deterministic engine output — CI diffs these lines across thread
    // counts (the sharded engine may not depend on the pool width)
    println!(
        "counts seed={seed} n_nodes={n_nodes} clusters={clusters_alive} \
         build_digest={build_digest:016x}"
    );
    println!("counts_events seed={seed} n_events={n_events} digest={events_digest:016x}");
    println!(
        "counts_churn seed={seed} slots={CHURN_SLOTS} ops={churn_ops} \
         digest={churn_digest:016x} nodes_alive={churn_nodes} clusters={churn_clusters}"
    );
    println!(
        "{n_nodes} SUs: build {:.3}s ({:.0}/s), events {:.3}s ({:.0}/s), \
         churn {:.3}s ({:.0} ops/s) on {threads} thread(s), \
         rc2 {:.4}s vs exhaustive {:.4}s ({speedup_rc2:.2}x) at K={RC2_CLUSTER_K}",
        median(&t_build),
        nodes_per_sec,
        median(&t_events),
        events_per_sec,
        median(&t_churn),
        churn_ops_per_sec,
        median(&t_rc2),
        median(&t_exh),
    );

    perf::append_entry(path, entries, entry.to_value());

    if gate {
        let mut failed = false;
        let mut check = |name: &str, measured: f64, base: Option<f64>| match base {
            Some(base) => {
                let floor = GATE_FRACTION * base;
                if measured < floor {
                    eprintln!(
                        "PERF GATE FAILED: {name} {measured:.0}/s fell below {floor:.0}/s \
                         ({:.0}% of committed baseline {base:.0}/s)",
                        GATE_FRACTION * 100.0
                    );
                    failed = true;
                } else {
                    println!(
                        "perf gate OK: {name} {measured:.0}/s >= {floor:.0}/s \
                         ({:.0}% of committed baseline {base:.0}/s)",
                        GATE_FRACTION * 100.0
                    );
                }
            }
            None => {
                eprintln!("PERF GATE FAILED: no committed {name} baseline in {path}");
                failed = true;
            }
        };
        check("nodes_per_sec", nodes_per_sec, base_build);
        check("events_per_sec", events_per_sec, base_events);
        check("churn_ops_per_sec", churn_ops_per_sec, base_churn);
        if speedup_rc2 < RC2_GATE_FLOOR {
            eprintln!(
                "PERF GATE FAILED: RC-C2/exhaustive speedup {speedup_rc2:.2}x fell below the \
                 absolute floor {RC2_GATE_FLOOR:.1}x"
            );
            failed = true;
        } else {
            println!(
                "perf gate OK: RC-C2/exhaustive speedup {speedup_rc2:.2}x >= absolute floor \
                 {RC2_GATE_FLOOR:.1}x"
            );
        }
        if failed {
            std::process::exit(1);
        }
    }
}
