//! The campaign contract, end to end: a campaign stopped mid-run and
//! resumed from its checkpoint merges counts **bit-identical** to an
//! uninterrupted run at any thread count; a panicking shard runs once
//! and unwinds to the caller with its own message, leaving the chunks
//! committed before it resumable; and injected checkpoint-IO errors are
//! retried and counted without stopping the campaign.
//!
//! The shards here are deliberately tiny (16 blocks of Alamouti/QPSK)
//! so the suite stays fast.

use comimo_campaign::checkpoint::{self, CheckpointError, LoadError, MAGIC};
use comimo_campaign::{
    run_campaign, CampaignConfig, CampaignError, CampaignFaultPlan, CampaignReport, CampaignStatus,
};
use comimo_stbc::batch::BatchWorkspace;
use comimo_stbc::design::{Ostbc, StbcKind};
use comimo_stbc::sim::{BerResult, SimConstellation};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const SEED: u64 = 2013;
const FINGERPRINT: u64 = 0xC0FFEE;
const N_SHARDS: u64 = 30;
const BLOCKS_PER_SHARD: usize = 16;
const CHUNK: usize = 4;

fn plan() -> Vec<(u64, usize)> {
    (0..N_SHARDS).map(|l| (l, BLOCKS_PER_SHARD)).collect()
}

/// The pure per-shard function every test shares: counts are a function
/// of `(seed, label)` only, exactly like the production campaigns.
fn shard_counts(seed: u64, label: u64, blocks: usize) -> BerResult {
    let code = Ostbc::new(StbcKind::Alamouti);
    let cons = SimConstellation::new(2);
    let mut rng = comimo_math::rng::derive(seed, label);
    let mut ws = BatchWorkspace::new(&code, &cons, 2);
    ws.simulate(&mut rng, 1.0, 1.0, blocks)
}

/// Reference merge over a set of shards, by plain addition, as the
/// one-stream count vector a campaign reports.
fn reference_counts(labels: impl Iterator<Item = u64>) -> Vec<BerResult> {
    let mut total = BerResult { bits: 0, errors: 0 };
    for l in labels {
        let r = shard_counts(SEED, l, BLOCKS_PER_SHARD);
        total.bits += r.bits;
        total.errors += r.errors;
    }
    vec![total]
}

/// Runs the shared one-stream campaign under `cfg`.
fn campaign(cfg: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    run_campaign(cfg, &plan(), 1, |l, b| vec![shard_counts(cfg.seed, l, b)])
}

fn temp_ck(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("comimo_kr_{name}_{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&path); // stale file from a previous run
    path
}

fn base_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::new(SEED, FINGERPRINT);
    cfg.checkpoint_every_shards = CHUNK;
    cfg
}

fn resume_cfg(ck: &Path) -> CampaignConfig {
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.to_path_buf());
    cfg.resume = true;
    cfg
}

/// Kill-and-resume, the core guarantee: stop a campaign partway (the
/// stop flag trips after 10 shard executions, emulating a
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
    let partial = run_campaign(&cfg, &plan(), 1, |label, blocks| {
        if executed.fetch_add(1, Ordering::SeqCst) + 1 >= 10 {
            stop.store(true, Ordering::SeqCst);
        }
        vec![shard_counts(SEED, label, blocks)]
    })
    .unwrap();
    assert_eq!(partial.status, CampaignStatus::Stopped);
    assert!(
        partial.completed_shards > 0 && partial.completed_shards < N_SHARDS,
        "stopped run completed {} of {N_SHARDS} shards",
        partial.completed_shards
    );
    // the partial merge is itself exact over the shards it covers
    assert_eq!(
        partial.stream_counts,
        reference_counts(0..partial.completed_shards)
    );
    assert!(ck.exists(), "no resumable checkpoint on disk");

    // ---- phase 2: resume and finish ------------------------------------
    let full = campaign(&resume_cfg(&ck)).unwrap();
    assert_eq!(full.status, CampaignStatus::Complete);
    assert_eq!(
        full.resumed_shards, partial.completed_shards,
        "resume must pick up exactly the checkpointed shards"
    );
    assert_eq!(full.completed_shards, N_SHARDS);
    assert_eq!(
        full.stream_counts, reference,
        "killed-and-resumed counts must be bit-identical"
    );
    std::fs::remove_file(&ck).unwrap();
}

#[test]
fn complete_runs_match_the_sequential_reference() {
    // the chunks fan out on the pool (whatever RAYON_NUM_THREADS says);
    // the reference is a plain sequential fold
    let report = campaign(&base_cfg()).unwrap();
    assert_eq!(report.status, CampaignStatus::Complete);
    assert_eq!(report.stream_counts, reference_counts(0..N_SHARDS));
}

/// A shard panic is not retried and not swallowed: it reaches the
/// caller with the shard's own message, the checkpoint keeps exactly
/// the chunks committed before the panicking one, and a resume with the
/// shard disarmed merges to the sequential reference.
#[test]
fn a_panicking_shard_reaches_the_caller_and_committed_chunks_resume() {
    const ARMED: u64 = 13; // fourth chunk: shards 12..16
    let ck = temp_ck("panic");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    let armed_runs = AtomicU64::new(0);
    let payload = panic::catch_unwind(AssertUnwindSafe(|| {
        run_campaign(&cfg, &plan(), 1, |label, blocks| {
            if label == ARMED {
                armed_runs.fetch_add(1, Ordering::SeqCst);
                panic!("armed shard {label} failed");
            }
            vec![shard_counts(SEED, label, blocks)]
        })
    }))
    .expect_err("the armed shard's panic must reach the caller");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert_eq!(message, format!("armed shard {ARMED} failed"));
    assert_eq!(armed_runs.load(Ordering::SeqCst), 1, "a shard runs once");

    // the chunks before the armed one, and nothing of its own chunk
    let committed = ARMED / CHUNK as u64 * CHUNK as u64;
    let on_disk = checkpoint::load(&ck).unwrap();
    assert_eq!(on_disk.pending(), (committed..N_SHARDS).collect::<Vec<_>>());
    assert_eq!(on_disk.counts, reference_counts(0..committed));

    let full = campaign(&resume_cfg(&ck)).unwrap();
    assert_eq!(full.status, CampaignStatus::Complete);
    assert_eq!(full.resumed_shards, committed);
    assert_eq!(full.stream_counts, reference_counts(0..N_SHARDS));
    std::fs::remove_file(&ck).unwrap();
}

/// Every write attempt consumes one write index of the fault plan; a
/// chunk's checkpoint fails only when its first attempt and all three
/// retries draw a fault. Walks the indices the way the supervisor does,
/// looking at the next four per chunk, and returns the failed writes,
/// the writes that succeeded on a retry, and the done shards of the last
/// committed write.
fn io_oracle(faults: &CampaignFaultPlan) -> (u64, u64, u64) {
    let n_chunks = (N_SHARDS as usize).div_ceil(CHUNK) as u64;
    let (mut index, mut failed, mut recovered, mut last_done) = (0u64, 0u64, 0u64, 0u64);
    for chunk in 0..n_chunks {
        match (0..4).position(|a| !faults.checkpoint_write_fails(index + a)) {
            None => {
                failed += 1;
                index += 4;
            }
            Some(a) => {
                recovered += u64::from(a > 0);
                index += a as u64 + 1;
                last_done = ((chunk + 1) * CHUNK as u64).min(N_SHARDS);
            }
        }
    }
    (failed, recovered, last_done)
}

#[test]
fn checkpoint_io_faults_are_retried_three_times_and_counted() {
    let ck = temp_ck("iofault");
    let faults = CampaignFaultPlan {
        seed: 123,
        checkpoint_io_prob: 0.8,
    };
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    cfg.faults = faults;

    let (expected_failures, recovered, last_done) = io_oracle(&faults);
    let n_chunks = (N_SHARDS as usize).div_ceil(CHUNK) as u64;
    assert!(
        expected_failures > 0 && expected_failures < n_chunks && recovered > 0,
        "plan must fail some writes and recover others on retry \
         (failed {expected_failures}/{n_chunks}, recovered {recovered})"
    );

    let report = campaign(&cfg).unwrap();
    assert_eq!(report.status, CampaignStatus::Complete);
    assert_eq!(report.checkpoint_failures, expected_failures);
    assert_eq!(report.stream_counts, reference_counts(0..N_SHARDS));
    // the snapshot on disk is the last committed write, intact (failed
    // writes never tear the committed file)
    let on_disk = checkpoint::load(&ck).unwrap();
    assert_eq!(on_disk.seed, SEED);
    assert_eq!(on_disk.done_count(), last_done);
    assert_eq!(on_disk.counts, reference_counts(0..last_done));
    std::fs::remove_file(&ck).unwrap();
}

/// A version-2 image as the retired format wrote it: the counts of
/// shards `0..done`, a quarantine count before the done bitmap, and one
/// quarantined shard (`done`, after 2 attempts) after it.
fn v2_image(done: u64) -> Vec<u8> {
    let counts = &reference_counts(0..done)[0];
    let mut payload = Vec::new();
    for word in [SEED, FINGERPRINT, N_SHARDS] {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    payload.extend_from_slice(&1u32.to_le_bytes()); // one stream
    payload.extend_from_slice(&counts.bits.to_le_bytes());
    payload.extend_from_slice(&counts.errors.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes()); // one quarantined shard
    let mut bitmap = vec![0u8; (N_SHARDS as usize).div_ceil(8)];
    for s in 0..done as usize {
        bitmap[s / 8] |= 1 << (s % 8);
    }
    payload.extend_from_slice(&(bitmap.len() as u32).to_le_bytes());
    payload.extend_from_slice(&bitmap);
    payload.extend_from_slice(&done.to_le_bytes());
    payload.extend_from_slice(&2u32.to_le_bytes());
    let mut image = MAGIC.to_vec();
    image.extend_from_slice(&2u16.to_le_bytes());
    image.extend_from_slice(&0u16.to_le_bytes());
    image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    image.extend_from_slice(&comimo_dsp::crc::crc32(&payload).to_le_bytes());
    image.extend_from_slice(&payload);
    image
}

#[test]
fn corrupt_checkpoint_is_discarded_and_the_campaign_restarts_clean() {
    let ck = temp_ck("corrupt");
    let garbage = b"CMCKgarbage that is definitely not a checkpoint".to_vec();
    for image in [garbage, v2_image(8)] {
        std::fs::write(&ck, &image).unwrap();
        let retired = image[4..6] == 2u16.to_le_bytes();
        if retired {
            assert!(matches!(
                checkpoint::load(&ck),
                Err(LoadError::Codec(CheckpointError::UnsupportedVersion(2)))
            ));
        }
        let report = campaign(&resume_cfg(&ck)).unwrap();
        assert!(report.recovered_from_corruption, "retired image: {retired}");
        assert_eq!(report.resumed_shards, 0);
        assert_eq!(report.status, CampaignStatus::Complete);
        assert_eq!(report.stream_counts, reference_counts(0..N_SHARDS));
        // the rewritten checkpoint is valid again
        assert!(checkpoint::load(&ck).unwrap().is_complete());
    }
    std::fs::remove_file(&ck).unwrap();
}

#[test]
fn foreign_checkpoint_is_rejected_not_merged() {
    let ck = temp_ck("foreign");
    // complete a campaign under one seed...
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    campaign(&cfg).unwrap();
    // ...then try to resume it under another
    let mut other = resume_cfg(&ck);
    other.seed = SEED + 1;
    match campaign(&other).unwrap_err() {
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
fn a_raised_stop_flag_stops_before_the_first_chunk_then_resumes_clean() {
    let ck = temp_ck("prestop");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck.clone());
    cfg.stop = Some(Arc::new(AtomicBool::new(true)));
    let report = campaign(&cfg).unwrap();
    assert_eq!(report.status, CampaignStatus::Stopped);
    assert_eq!(report.completed_shards, 0, "stopped before the first chunk");
    assert_eq!(report.stream_counts, reference_counts(0..0));
    // resume without the flag finishes with the exact reference counts
    let full = campaign(&resume_cfg(&ck)).unwrap();
    assert_eq!(full.status, CampaignStatus::Complete);
    assert_eq!(full.stream_counts, reference_counts(0..N_SHARDS));
    std::fs::remove_file(&ck).unwrap();
}
