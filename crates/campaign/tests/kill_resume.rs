//! The PR's acceptance contract, end to end: a campaign stopped mid-run
//! and resumed from its checkpoint merges counts **bit-identical** to an
//! uninterrupted run at any thread count — and a fault-injected
//! campaign (shard panics + checkpoint IO errors) completes with its
//! quarantined shards reported instead of aborting.
//!
//! The shards here are deliberately tiny (16 blocks of Alamouti/QPSK)
//! so the suite stays fast; the equivalence of the *real* shard plan
//! with `simulate_ber_par` is pinned separately in the crate's unit
//! tests.

use comimo_campaign::{
    checkpoint, run_campaign, CampaignConfig, CampaignError, CampaignFaultPlan, CampaignStatus,
};
use comimo_stbc::batch::BatchWorkspace;
use comimo_stbc::design::{Ostbc, StbcKind};
use comimo_stbc::sim::{BerResult, SimConstellation};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 2013;
const N_SHARDS: u64 = 30;
const BLOCKS_PER_SHARD: usize = 16;

fn plan() -> Vec<(u64, usize)> {
    (0..N_SHARDS).map(|l| (l, BLOCKS_PER_SHARD)).collect()
}

/// The pure per-shard function every test shares: counts are a function
/// of `(seed, label)` only, exactly like the production BER campaign.
fn shard_counts(seed: u64, label: u64, blocks: usize) -> BerResult {
    let code = Ostbc::new(StbcKind::Alamouti);
    let cons = SimConstellation::new(2);
    let mut rng = comimo_math::rng::derive(seed, label);
    let mut ws = BatchWorkspace::new(&code, &cons, 2);
    ws.simulate(&mut rng, 1.0, 1.0, blocks)
}

/// Reference merge over a set of shards, by plain addition.
fn reference_counts(labels: impl Iterator<Item = u64>) -> BerResult {
    let mut total = BerResult { bits: 0, errors: 0 };
    for l in labels {
        let r = shard_counts(SEED, l, BLOCKS_PER_SHARD);
        total.bits += r.bits;
        total.errors += r.errors;
    }
    total
}

fn temp_ck(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("comimo_kr_{name}_{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&path); // stale file from a previous run
    path
}

fn base_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::new(SEED, 0xC0FFEE);
    cfg.backoff_base = Duration::ZERO; // retries should not slow the suite
    cfg.checkpoint_every_shards = 4;
    cfg
}

/// Kill-and-resume, the core guarantee: stop a campaign partway (the
/// stop flag trips after `stop_after` shard executions, emulating a
/// Ctrl-C landing mid-run), then resume from its checkpoint and demand
/// counts bit-identical to a never-interrupted run.
#[test]
fn killed_and_resumed_matches_uninterrupted() {
    let ck = temp_ck("killed");
    let reference = reference_counts(0..N_SHARDS);

    // ---- phase 1: run until the stop flag trips ------------------------
    let stop = Arc::new(AtomicBool::new(false));
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    cfg.stop = Some(stop.clone());
    let executed = AtomicU64::new(0);
    let stop_in_shard = stop.clone();
    let partial = run_campaign(&cfg, &plan(), |label, blocks| {
        if executed.fetch_add(1, Ordering::SeqCst) + 1 >= 10 {
            stop_in_shard.store(true, Ordering::SeqCst);
        }
        shard_counts(SEED, label, blocks)
    })
    .unwrap();
    assert_eq!(partial.status, CampaignStatus::Stopped);
    assert!(
        partial.completed_shards > 0 && partial.completed_shards < N_SHARDS,
        "stopped run completed {} of {N_SHARDS} shards",
        partial.completed_shards
    );
    // the partial merge is itself exact over the shards it covers
    assert!(partial.counts.bits < reference.bits);
    assert!(ck.exists(), "no resumable checkpoint on disk");

    // ---- phase 2: resume and finish ------------------------------------
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    cfg.resume = true;
    let full = run_campaign(&cfg, &plan(), |label, blocks| {
        shard_counts(SEED, label, blocks)
    })
    .unwrap();
    assert_eq!(full.status, CampaignStatus::Complete);
    assert_eq!(
        full.resumed_shards, partial.completed_shards,
        "resume must pick up exactly the checkpointed shards"
    );
    assert_eq!(full.completed_shards, N_SHARDS);
    assert_eq!(
        full.counts, reference,
        "killed-and-resumed counts must be bit-identical"
    );
    assert!(full.quarantined.is_empty());
    std::fs::remove_file(&ck).unwrap();
}

#[test]
fn complete_runs_match_the_sequential_reference() {
    // the chunks fan out on the pool (whatever RAYON_NUM_THREADS says);
    // the reference is a plain sequential fold
    let report = run_campaign(&base_cfg(), &plan(), |l, b| shard_counts(SEED, l, b)).unwrap();
    assert_eq!(report.status, CampaignStatus::Complete);
    assert_eq!(report.counts, reference_counts(0..N_SHARDS));
}

#[test]
fn fault_injected_run_completes_with_quarantine_matching_the_oracle() {
    let faults = CampaignFaultPlan {
        seed: 77,
        shard_panic_prob: 0.45,
        checkpoint_io_prob: 0.0,
    };
    let mut cfg = base_cfg();
    cfg.max_attempts = 2;
    cfg.faults = faults;
    let expected_quarantine = faults.quarantine_set(N_SHARDS, cfg.max_attempts);
    assert!(
        !expected_quarantine.is_empty() && expected_quarantine.len() < N_SHARDS as usize,
        "plan must quarantine some but not all shards (got {expected_quarantine:?})"
    );

    let report = run_campaign(&cfg, &plan(), |l, b| shard_counts(SEED, l, b)).unwrap();
    // the campaign *completes* — panicking shards are reported, not fatal
    assert_eq!(report.status, CampaignStatus::Complete);
    let mut quarantined: Vec<u64> = report.quarantined.iter().map(|q| q.shard).collect();
    quarantined.sort_unstable();
    assert_eq!(quarantined, expected_quarantine);
    for q in &report.quarantined {
        assert_eq!(q.attempts, cfg.max_attempts);
    }
    // shards that panicked once but not on retry are the retried_ok set
    let expected_retried = (0..N_SHARDS)
        .filter(|&s| faults.shard_panics(s, 0) && !faults.shard_panics(s, 1))
        .count() as u64;
    assert_eq!(report.retried_ok, expected_retried);
    // and the merged counts are exactly the non-quarantined reference
    let reference = reference_counts((0..N_SHARDS).filter(|s| !quarantined.contains(s)));
    assert_eq!(report.counts, reference);
    assert_eq!(report.completed_shards + quarantined.len() as u64, N_SHARDS);
}

#[test]
fn checkpoint_io_faults_are_survived_and_counted() {
    let ck = temp_ck("iofault");
    let faults = CampaignFaultPlan {
        seed: 123,
        shard_panic_prob: 0.0,
        checkpoint_io_prob: 0.5,
    };
    let mut cfg = base_cfg();
    cfg.io_retries = 0; // one write attempt per chunk → countable
    cfg.checkpoint = Some(ck.clone());
    cfg.faults = faults;

    let n_chunks = (N_SHARDS as usize).div_ceil(cfg.checkpoint_every_shards) as u64;
    let expected_failures = (0..n_chunks)
        .filter(|&w| faults.checkpoint_write_fails(w))
        .count() as u64;
    assert!(
        expected_failures > 0 && expected_failures < n_chunks,
        "plan must fail some but not all writes (got {expected_failures}/{n_chunks})"
    );

    let report = run_campaign(&cfg, &plan(), |l, b| shard_counts(SEED, l, b)).unwrap();
    assert_eq!(report.status, CampaignStatus::Complete);
    assert_eq!(report.checkpoint_failures, expected_failures);
    assert_eq!(report.counts, reference_counts(0..N_SHARDS));
    // whatever snapshot survived on disk is a *valid* checkpoint of this
    // campaign (atomicity: failed writes never tear the committed file)
    let on_disk = checkpoint::load(&ck).unwrap();
    assert_eq!(on_disk.seed, SEED);
    assert_eq!(on_disk.total_shards, N_SHARDS);
    std::fs::remove_file(&ck).unwrap();
}

#[test]
fn io_retries_recover_transiently_failing_writes() {
    // at io_retries = 3 a write only counts as failed if 4 consecutive
    // indices all draw a fault — make the first index fail and verify the
    // retry path commits anyway
    let faults = CampaignFaultPlan {
        seed: 5, // write index 0 fails under this seed (asserted below)
        shard_panic_prob: 0.0,
        checkpoint_io_prob: 0.5,
    };
    assert!(faults.checkpoint_write_fails(0));
    let has_recovery = (0..8u64).any(|w| !faults.checkpoint_write_fails(w));
    assert!(has_recovery);

    let ck = temp_ck("ioretry");
    let mut cfg = base_cfg();
    cfg.io_retries = 8; // enough that every chunk finds a good index
    cfg.checkpoint = Some(ck.clone());
    cfg.checkpoint_every_shards = N_SHARDS as usize; // single chunk
    cfg.faults = faults;
    let report = run_campaign(&cfg, &plan(), |l, b| shard_counts(SEED, l, b)).unwrap();
    assert_eq!(report.checkpoint_failures, 0, "retries must recover");
    assert!(checkpoint::load(&ck).unwrap().is_complete());
    std::fs::remove_file(&ck).unwrap();
}

#[test]
fn corrupt_checkpoint_is_discarded_and_the_campaign_restarts_clean() {
    let ck = temp_ck("corrupt");
    std::fs::write(&ck, b"CMCKgarbage that is definitely not a checkpoint").unwrap();
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    cfg.resume = true;
    let report = run_campaign(&cfg, &plan(), |l, b| shard_counts(SEED, l, b)).unwrap();
    assert!(report.recovered_from_corruption);
    assert_eq!(report.resumed_shards, 0);
    assert_eq!(report.status, CampaignStatus::Complete);
    assert_eq!(report.counts, reference_counts(0..N_SHARDS));
    // the rewritten checkpoint is valid again
    assert!(checkpoint::load(&ck).unwrap().is_complete());
    std::fs::remove_file(&ck).unwrap();
}

#[test]
fn foreign_checkpoint_is_rejected_not_merged() {
    let ck = temp_ck("foreign");
    // complete a campaign under one seed...
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    run_campaign(&cfg, &plan(), |l, b| shard_counts(SEED, l, b)).unwrap();
    // ...then try to resume it under another
    let mut other = base_cfg();
    other.seed = SEED + 1;
    other.checkpoint = Some(ck.clone());
    other.resume = true;
    let err = run_campaign(&other, &plan(), |l, b| shard_counts(SEED + 1, l, b)).unwrap_err();
    match err {
        CampaignError::Mismatch {
            field,
            expected,
            found,
        } => {
            assert_eq!(field, "seed");
            assert_eq!(expected, SEED + 1);
            assert_eq!(found, SEED);
        }
        other => panic!("expected Mismatch, got {other:?}"),
    }
    std::fs::remove_file(&ck).unwrap();
}

#[test]
fn wall_clock_budget_stops_gracefully_with_resumable_state() {
    let ck = temp_ck("wall");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    cfg.wall_clock_budget = Some(Duration::ZERO); // already elapsed
    let report = run_campaign(&cfg, &plan(), |l, b| shard_counts(SEED, l, b)).unwrap();
    assert_eq!(report.status, CampaignStatus::Stopped);
    assert_eq!(report.completed_shards, 0, "stopped before the first chunk");
    // resume without the budget finishes with the exact reference counts
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    cfg.resume = true;
    let full = run_campaign(&cfg, &plan(), |l, b| shard_counts(SEED, l, b)).unwrap();
    assert_eq!(full.status, CampaignStatus::Complete);
    assert_eq!(full.counts, reference_counts(0..N_SHARDS));
    std::fs::remove_file(&ck).unwrap();
}
