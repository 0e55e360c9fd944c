//! Replayable violation artifacts: `seed + minimized trace + violated
//! invariant ID` as JSON.
//!
//! An artifact is everything needed to reproduce a violation
//! *bit-identically* on any machine at any thread count: the full world
//! config, the armed bounds, the 1-minimal fault trace, and the expected
//! violation down to the exact f64 bit patterns (stored as `u64` bits —
//! JSON round-trips them losslessly and the comparison is `==`, not an
//! epsilon).

use crate::explore::{ExploreConfig, RunFinding};
use crate::invariant::{InvariantBounds, InvariantRegistry, Violation};
use crate::world::{run_events, ChaosConfig};
use comimo_faults::{FaultEvent, FaultKind};
use comimo_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Artifact schema version; bump on any incompatible change.
/// v2: [`InvariantBounds`] gained the sensing bounds
/// (`missed_detect_budget`, `fusion_quorum_min`).
/// v3: [`InvariantBounds`] gained the report long-haul ceiling
/// (`report_epa_floor_db`) and the world emits the report/ladder
/// observations it checks.
/// v4: [`InvariantBounds`] gained the Byzantine containment budget
/// (`byz_missed_budget`), [`ChaosConfig`] gained the adversary cast
/// (`n_byz`), and the world emits the reputation/containment
/// observations.
/// v5: the fusion ladder has four rungs (weighted LLR, hard decode, OR,
/// head local), so recorded rung indices and ladder-order violations
/// from v4 no longer mean the same thing.
pub const ARTIFACT_VERSION: u32 = 5;

/// One fault event in serialized form (`SimTime` itself carries no serde;
/// nanoseconds are its exact representation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Absolute injection time (ns).
    pub at_ns: u64,
    /// What breaks.
    pub kind: FaultKind,
}

impl From<FaultEvent> for TraceEvent {
    fn from(ev: FaultEvent) -> Self {
        Self {
            at_ns: ev.at.as_nanos(),
            kind: ev.kind,
        }
    }
}

impl From<TraceEvent> for FaultEvent {
    fn from(ev: TraceEvent) -> Self {
        Self {
            at: SimTime::from_nanos(ev.at_ns),
            kind: ev.kind,
        }
    }
}

/// A minimized, replayable violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosArtifact {
    /// Schema version ([`ARTIFACT_VERSION`]).
    pub version: u32,
    /// Stable ID of the violated invariant.
    pub invariant: String,
    /// Master seed of the sweep that found it.
    pub master_seed: u64,
    /// Run index within the sweep.
    pub run: u64,
    /// The run's derived seed (the world config embeds it too).
    pub run_seed: u64,
    /// The run's fault-intensity multiplier λ.
    pub lambda: f64,
    /// Bounds that were armed when the violation fired.
    pub bounds: InvariantBounds,
    /// The complete world configuration.
    pub config: ChaosConfig,
    /// Events in the original (pre-shrink) schedule.
    pub original_events: u64,
    /// World re-runs ddmin spent minimizing.
    pub shrink_probes: u64,
    /// When the violation fires (ns).
    pub at_ns: u64,
    /// Expected observed value, as raw f64 bits.
    pub observed_bits: u64,
    /// Expected bound, as raw f64 bits.
    pub bound_bits: u64,
    /// Expected human-readable detail.
    pub detail: String,
    /// The 1-minimal reproducing fault trace.
    pub trace: Vec<TraceEvent>,
}

impl ChaosArtifact {
    /// Packages an exploration finding for replay. The sweep config
    /// supplies everything the world must rebuild — including a
    /// non-paper cluster size when the sweep explored at scale.
    pub fn from_finding(cfg: &ExploreConfig, f: &RunFinding) -> Self {
        Self {
            version: ARTIFACT_VERSION,
            invariant: f.invariant.clone(),
            master_seed: cfg.seed,
            run: f.run,
            run_seed: f.run_seed,
            lambda: f.lambda,
            bounds: cfg.bounds,
            config: ChaosConfig {
                mt: cfg.mt,
                ..ChaosConfig::paper(f.run_seed, cfg.horizon_s)
            },
            original_events: f.schedule_len as u64,
            shrink_probes: f.shrink_probes,
            at_ns: f.at_ns,
            observed_bits: f.observed.to_bits(),
            bound_bits: f.bound.to_bits(),
            detail: f.detail.clone(),
            trace: f.minimized.iter().map(|&e| TraceEvent::from(e)).collect(),
        }
    }

    /// Pretty JSON for the artifact directory / CI upload.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses and version-checks an artifact.
    pub fn from_json(s: &str) -> Result<Self, ArtifactError> {
        let art: Self = serde_json::from_str(s).map_err(ArtifactError::Json)?;
        if art.version != ARTIFACT_VERSION {
            return Err(ArtifactError::Version {
                found: art.version,
                supported: ARTIFACT_VERSION,
            });
        }
        Ok(art)
    }

    /// The trace as world-ready fault events.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.trace.iter().map(|&e| FaultEvent::from(e)).collect()
    }
}

/// Why an artifact failed to load.
#[derive(Debug)]
pub enum ArtifactError {
    /// Malformed JSON or schema mismatch.
    Json(serde_json::Error),
    /// Unsupported schema version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Json(e) => write!(f, "artifact JSON: {e}"),
            Self::Version { found, supported } => {
                write!(
                    f,
                    "artifact version {found} unsupported (this build reads {supported})"
                )
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// What a replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Whether the replay reproduced the recorded violation
    /// bit-identically (same invariant, timestamp, observed/bound bit
    /// patterns and detail).
    pub reproduced: bool,
    /// The matching violation the replay fired, if any.
    pub violation: Option<Violation>,
    /// Invariant checks the replay consulted.
    pub checks: u64,
    /// A canonical text digest of the replay (identical across thread
    /// counts iff the replay is — CI diffs the `RAYON_NUM_THREADS=1`
    /// digest against the 8-thread one).
    pub digest: String,
}

/// Re-executes an artifact's minimized trace through the full world and
/// compares what fires against the recorded violation, bit for bit.
pub fn replay(art: &ChaosArtifact) -> ReplayOutcome {
    let reg = InvariantRegistry::with_bounds(art.bounds);
    let events = art.events();
    let out = run_events(&art.config, &events, &reg);
    let violation = out
        .violations
        .iter()
        .find(|v| v.invariant == art.invariant)
        .cloned();
    let reproduced = violation.as_ref().is_some_and(|v| {
        v.at_ns == art.at_ns
            && v.observed.to_bits() == art.observed_bits
            && v.bound.to_bits() == art.bound_bits
            && v.detail == art.detail
    });
    let digest = match &violation {
        Some(v) => format!(
            "invariant: {}\nat_ns: {}\nobserved_bits: {:016x}\nbound_bits: {:016x}\n\
             detail: {}\ntrace_events: {}\nchecks: {}\nreproduced: {}\n",
            v.invariant,
            v.at_ns,
            v.observed.to_bits(),
            v.bound.to_bits(),
            v.detail,
            art.trace.len(),
            out.checks,
            reproduced,
        ),
        None => format!(
            "invariant: {}\nno matching violation fired\ntrace_events: {}\nchecks: {}\n\
             reproduced: false\n",
            art.invariant,
            art.trace.len(),
            out.checks,
        ),
    };
    ReplayOutcome {
        reproduced,
        violation,
        checks: out.checks,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use crate::invariant::INV_DEGRADE_POWER;

    /// A finding every build can produce instantly: an overdraw bound
    /// below 1 fires on the fault-free world, shrinking to the empty
    /// trace.
    fn empty_trace_finding() -> (ExploreConfig, RunFinding) {
        let cfg = ExploreConfig {
            runs: 1,
            horizon_s: 10.0,
            bounds: InvariantBounds {
                overdraw_max: 0.5,
                ..InvariantBounds::paper()
            },
            ..ExploreConfig::new(21)
        };
        let report = explore(&cfg);
        let f = report
            .findings
            .first()
            .expect("weakened bound fires")
            .clone();
        assert_eq!(f.invariant, INV_DEGRADE_POWER);
        assert!(f.minimized.is_empty(), "no fault needed");
        (cfg, f)
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let (cfg, f) = empty_trace_finding();
        let art = ChaosArtifact::from_finding(&cfg, &f);
        let json = art.to_json().expect("serializes");
        let back = ChaosArtifact::from_json(&json).expect("parses");
        assert_eq!(back, art);
    }

    #[test]
    fn replay_reproduces_bit_identically() {
        let (cfg, f) = empty_trace_finding();
        let art = ChaosArtifact::from_finding(&cfg, &f);
        let first = replay(&art);
        let second = replay(&art);
        assert!(first.reproduced, "{}", first.digest);
        assert_eq!(first.digest, second.digest);
        // a v5 artifact written before the mini-campaign lost its shard
        // panic knobs still carries them; they parse as unknown fields
        // and the replay is unchanged
        let json = art.to_json().expect("serializes");
        let shards = "\"campaign_shards\": 12";
        assert_eq!(json.matches(shards).count(), 1, "{json}");
        let older = json.replace(
            shards,
            &format!("{shards}, \"campaign_panic_prob\": 0.35, \"campaign_max_attempts\": 2"),
        );
        let parsed = ChaosArtifact::from_json(&older).expect("parses");
        assert_eq!(parsed, art);
        assert_eq!(replay(&parsed).digest, first.digest);
    }

    #[test]
    fn tampered_expectations_fail_the_replay() {
        let (cfg, f) = empty_trace_finding();
        let mut art = ChaosArtifact::from_finding(&cfg, &f);
        art.observed_bits ^= 1;
        let out = replay(&art);
        assert!(!out.reproduced);
        assert!(out.violation.is_some(), "the violation still fires");
    }

    #[test]
    fn wrong_version_is_rejected() {
        // a v4 artifact predates the four-rung ladder
        let (cfg, f) = empty_trace_finding();
        for version in [4, ARTIFACT_VERSION + 1] {
            let mut art = ChaosArtifact::from_finding(&cfg, &f);
            art.version = version;
            let json = art.to_json().expect("serializes");
            match ChaosArtifact::from_json(&json) {
                Err(ArtifactError::Version { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, 5);
                }
                other => panic!("expected a version error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_with_a_real_fault_roundtrips_through_serde() {
        let ev = TraceEvent {
            at_ns: 1_500_000_000,
            kind: FaultKind::ShadowBurst {
                node: 2,
                extra_loss_db: 20.0,
                duration_s: 2.0,
            },
        };
        let json = serde_json::to_string(&ev).expect("serializes");
        let back: TraceEvent = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, ev);
    }
}
