//! The campaign supervisor: executes a deterministic shard plan with
//! periodic atomic checkpoints and graceful-stop handling.
//!
//! # Execution model
//!
//! The pending shards (everything the checkpoint does not already mark
//! done) are processed in *chunks* of
//! [`CampaignConfig::checkpoint_every_shards`]. Within a chunk, shards
//! fan out through [`comimo_sim::map_shards`]: on the rayon pool, or
//! inline when the pool has one thread (`RAYON_NUM_THREADS=1`, or a
//! build without `comimo-sim`'s `parallel` feature) or the campaign itself runs on
//! a worker of a map that fills the pool (a chaos run's mini-campaign
//! inside an explore sweep of at least as many runs as threads). Each
//! shard runs once. Shards are pure functions of `(seed, label)`, so a
//! retry could only panic again: a panicking shard unwinds out of
//! [`run_campaign`] with its own payload, and the chunks committed
//! before it stay on disk, resumable. After every chunk the merged
//! state is committed atomically to the checkpoint file, and the stop
//! flags are polled; a stop returns the partial counts plus a resumable
//! checkpoint.
//!
//! # Determinism
//!
//! Each shard's counts are a pure function of `(seed, shard label)` —
//! callers must draw from `derive(seed, label)` inside the shard — and
//! counts merge by addition. Completion order therefore never matters:
//! a campaign killed at any point and resumed from its checkpoint, at
//! any thread count, merges to counts bit-identical to an uninterrupted
//! run.

use crate::checkpoint::{self, Checkpoint, LoadError};
use comimo_faults::CampaignFaultPlan;
use comimo_sim::map_shards;
use comimo_stbc::sim::BerResult;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};

/// Retries of a failed checkpoint write before giving up on *that
/// write* (the campaign itself continues either way).
const IO_RETRIES: u32 = 3;

/// Everything the supervisor needs to run (and re-run) a campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Simulation seed; shard `label` must draw from
    /// `derive(seed, label)` so resume and thread count cannot change
    /// the result.
    pub seed: u64,
    /// Fingerprint of the campaign parameters (see
    /// [`crate::fingerprint64`]). A checkpoint with a different
    /// fingerprint, seed, shard count or stream count is rejected at
    /// resume.
    pub fingerprint: u64,
    /// Checkpoint file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Load an existing checkpoint instead of starting fresh.
    pub resume: bool,
    /// Shards per chunk — a checkpoint is committed after every chunk.
    pub checkpoint_every_shards: usize,
    /// Per-campaign cooperative stop flag, polled at chunk boundaries
    /// alongside the process-wide one [`crate::install_sigint_stop`]
    /// raises. Tests set it to emulate a Ctrl-C without stopping every
    /// other campaign in the process.
    pub stop: Option<Arc<AtomicBool>>,
    /// Deterministic checkpoint-IO fault injection (disabled by default).
    pub faults: CampaignFaultPlan,
}

impl CampaignConfig {
    /// Defaults: checkpoint every 64 shards, no checkpoint file, no
    /// per-campaign stop flag, no injected faults.
    pub fn new(seed: u64, fingerprint: u64) -> Self {
        Self {
            seed,
            fingerprint,
            checkpoint: None,
            resume: false,
            checkpoint_every_shards: 64,
            stop: None,
            faults: CampaignFaultPlan::disabled(),
        }
    }
}

/// How a campaign run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Every shard is done.
    Complete,
    /// Stopped gracefully at a chunk boundary; the checkpoint is
    /// resumable and [`CampaignReport::stream_counts`] is the partial
    /// merge.
    Stopped,
}

/// The supervisor's account of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Complete or gracefully stopped.
    pub status: CampaignStatus,
    /// Merged counts per stream over every completed shard (partial
    /// when stopped), in stream order.
    pub stream_counts: Vec<BerResult>,
    /// Shards in the plan.
    pub total_shards: u64,
    /// Shards whose counts are merged.
    pub completed_shards: u64,
    /// Checkpoint writes that failed even after retries (campaign
    /// continued; the previous committed snapshot stayed intact).
    pub checkpoint_failures: u64,
    /// Shards already done when this run started (0 for a fresh start).
    pub resumed_shards: u64,
    /// A corrupt checkpoint (truncated / bit-flipped / stale version)
    /// was detected at resume and discarded; the campaign restarted
    /// from scratch, which is sound because shard results are pure
    /// functions of the seed.
    pub recovered_from_corruption: bool,
}

/// A campaign could not start.
#[derive(Debug)]
pub enum CampaignError {
    /// The checkpoint belongs to a different campaign.
    Mismatch {
        /// Which field disagreed (`"seed"`, `"fingerprint"`,
        /// `"total_shards"`, `"n_streams"`).
        field: &'static str,
        /// Value this campaign expected.
        expected: u64,
        /// Value found in the checkpoint.
        found: u64,
    },
    /// The checkpoint file exists but cannot be read (permissions, ...).
    Io(std::io::Error),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint belongs to a different campaign: {field} is {found}, expected {expected}"
            ),
            Self::Io(e) => write!(f, "checkpoint io error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Runs `shards` (the deterministic plan: `(label, blocks)`, labels
/// `0..n` in order) under supervision. `run_shard(label, blocks)`
/// returns one [`BerResult`] per stream — `n_streams` of them, e.g. one
/// per counter of the sensing ROC grid — and must be a pure function of
/// `(config seed, label)`: draw only from `derive(seed, label)`, or the
/// bit-identical-resume contract breaks.
///
/// Returns the report; errors only when an existing checkpoint belongs
/// to a different campaign or is unreadable at the IO level. A failing
/// checkpoint write is *handled* (counted, the campaign goes on). A
/// panicking shard is not: its panic unwinds to the caller with its own
/// payload, and the checkpoint holds exactly the chunks committed before
/// the panicking one.
pub fn run_campaign<F>(
    cfg: &CampaignConfig,
    shards: &[(u64, usize)],
    n_streams: usize,
    run_shard: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(u64, usize) -> Vec<BerResult> + Send + Sync,
{
    assert!(n_streams >= 1, "a campaign needs at least one stream");
    for (i, &(label, _)) in shards.iter().enumerate() {
        assert_eq!(label, i as u64, "shard labels must be 0..n in order");
    }
    let total = shards.len() as u64;

    // ---- load or create the state --------------------------------------
    let mut recovered = false;
    let mut state = match (&cfg.checkpoint, cfg.resume) {
        (Some(path), true) => match checkpoint::load(path) {
            Ok(ck) => {
                validate(&ck, cfg, total, n_streams)?;
                ck
            }
            Err(LoadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                Checkpoint::new(cfg.seed, cfg.fingerprint, total, n_streams)
            }
            Err(LoadError::Io(e)) => return Err(CampaignError::Io(e)),
            Err(LoadError::Codec(_)) => {
                // detected corruption (including retired format
                // versions): discard and restart — shard results are
                // pure functions of the seed, so a restart reproduces
                // the lost counts exactly
                recovered = true;
                Checkpoint::new(cfg.seed, cfg.fingerprint, total, n_streams)
            }
        },
        _ => Checkpoint::new(cfg.seed, cfg.fingerprint, total, n_streams),
    };
    let resumed_shards = state.done_count();

    // ---- run the pending shards, one checkpoint per chunk --------------
    let mut write_index = 0u64;
    let mut checkpoint_failures = 0u64;
    let mut stopped = false;
    for chunk in state.pending().chunks(cfg.checkpoint_every_shards.max(1)) {
        if stop_requested(cfg) {
            stopped = true;
            break;
        }
        let results = map_shards(chunk, |_, &label| {
            run_shard(label, shards[label as usize].1)
        });
        for (&label, r) in chunk.iter().zip(&results) {
            state.mark_done(label, r);
        }
        if let Some(path) = &cfg.checkpoint {
            if !save_with_retries(path, &state, cfg, &mut write_index) {
                checkpoint_failures += 1;
            }
        }
    }

    Ok(CampaignReport {
        status: if stopped {
            CampaignStatus::Stopped
        } else {
            CampaignStatus::Complete
        },
        completed_shards: state.done_count(),
        stream_counts: state.counts,
        total_shards: total,
        checkpoint_failures,
        resumed_shards,
        recovered_from_corruption: recovered,
    })
}

fn validate(
    ck: &Checkpoint,
    cfg: &CampaignConfig,
    total: u64,
    n_streams: usize,
) -> Result<(), CampaignError> {
    let checks = [
        ("seed", cfg.seed, ck.seed),
        ("fingerprint", cfg.fingerprint, ck.fingerprint),
        ("total_shards", total, ck.total_shards),
        ("n_streams", n_streams as u64, ck.n_streams() as u64),
    ];
    for (field, expected, found) in checks {
        if expected != found {
            return Err(CampaignError::Mismatch {
                field,
                expected,
                found,
            });
        }
    }
    Ok(())
}

fn stop_requested(cfg: &CampaignConfig) -> bool {
    // the process-wide SIGINT flag is polled by every campaign, so a bin
    // only has to call install_sigint_stop() once — no plumbing needed
    SIGINT_STOP.load(Ordering::Relaxed)
        || cfg
            .stop
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
}

/// Commits `state` atomically, retrying up to [`IO_RETRIES`] times on
/// (possibly injected) IO errors. Every attempt consumes one write
/// index of the fault plan. Returns whether a write was committed; on
/// `false` the previously committed snapshot is still intact on disk.
fn save_with_retries(
    path: &std::path::Path,
    state: &Checkpoint,
    cfg: &CampaignConfig,
    write_index: &mut u64,
) -> bool {
    let image = state.encode();
    for _ in 0..=IO_RETRIES {
        let idx = *write_index;
        *write_index += 1;
        let result = if cfg.faults.checkpoint_write_fails(idx) {
            Err(std::io::Error::other("injected checkpoint io fault"))
        } else {
            checkpoint::save_atomic(path, &image)
        };
        if result.is_ok() {
            return true;
        }
    }
    false
}

/// The process-wide graceful-stop flag, polled by every campaign at
/// chunk boundaries (in addition to any per-campaign
/// [`CampaignConfig::stop`] flag).
static SIGINT_STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigint(_signum: i32) {
    // only async-signal-safe work: a relaxed atomic store
    SIGINT_STOP.store(true, Ordering::Relaxed);
}

/// Installs (once) a SIGINT handler that turns the first Ctrl-C into a
/// graceful stop: every running campaign finishes its current chunk,
/// commits a resumable checkpoint and returns
/// [`CampaignStatus::Stopped`] instead of the process dying mid-write.
/// Returns the flag for callers that want to poll or set it themselves.
/// On non-Unix targets no handler is installed (the flag still works as
/// a cooperative stop).
pub fn install_sigint_stop() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            const SIGINT: i32 = 2;
            let handler: extern "C" fn(i32) = on_sigint;
            #[allow(clippy::fn_to_numeric_cast_any, clippy::fn_to_numeric_cast)]
            unsafe {
                signal(SIGINT, handler as usize);
            }
        });
    }
    &SIGINT_STOP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_stream_counts_merge_per_stream() {
        let shards: Vec<(u64, usize)> = (0..5).map(|l| (l, 10)).collect();
        let report = run_campaign(&CampaignConfig::new(1, 0), &shards, 3, |label, blocks| {
            (0..3u64)
                .map(|s| BerResult {
                    bits: blocks as u64 * (s + 1),
                    errors: label + s,
                })
                .collect()
        })
        .unwrap();
        assert_eq!(report.status, CampaignStatus::Complete);
        let per_stream: Vec<BerResult> = (0..3u64)
            .map(|s| BerResult {
                bits: 50 * (s + 1),
                errors: 10 + 5 * s,
            })
            .collect();
        assert_eq!(report.stream_counts, per_stream);
    }

    #[test]
    fn sigint_flag_is_stable() {
        let a = install_sigint_stop();
        let b = install_sigint_stop();
        assert!(std::ptr::eq(a, b));
        assert!(!a.load(Ordering::Relaxed));
    }
}
