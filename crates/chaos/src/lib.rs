//! # comimo-chaos — deterministic chaos exploration
//!
//! The robustness layer of the CoMIMO workspace: the paper's physical and
//! protocol guarantees as runtime-checkable invariants, a deterministic
//! chaos explorer that hunts for schedules breaking them, an automatic
//! fault-trace shrinker, and replayable violation artifacts.
//!
//! The pipeline:
//!
//! 1. **[`invariant`]** — the eleven paper invariants behind stable IDs
//!    (`INV-EPA-CEILING`, `INV-NULL-DEPTH`, `INV-DEGRADE-POWER`,
//!    `INV-EVENTQ-TIME`, `INV-CKPT-COUNTS`, `INV-MISSED-DETECT-BUDGET`,
//!    `INV-FUSION-QUORUM`, `INV-REPORT-EPA`, `INV-LLR-DEGRADE-ORDER`,
//!    `INV-BYZ-CONTAINMENT`, `INV-REPUTATION-SANE`), each tied to the
//!    equation or section it encodes and the code path it guards. Each
//!    observation variant belongs to one invariant, so a check is one
//!    `match`; every checker (the explorer, `faultbench`, tests) arms the
//!    same eleven through `InvariantRegistry`.
//! 2. **[`world`]** — one end-to-end scenario that drives a fault
//!    schedule through the event queue, cooperative spectrum sensing
//!    with hardened decision fusion, all three paradigm degradation
//!    policies, cluster recruitment and a checkpointless mini-campaign
//!    whose merged counts face their seed oracle (`INV-CKPT-COUNTS`),
//!    checking every invariant at every step. A pure function of
//!    `(config, events)`. The same world walks each paradigm alone into
//!    a degradation report (delivery, BER, energy, and the registry's
//!    verdict on its slots) — the tables `faultbench` prints.
//! 3. **[`explore`](mod@explore)** — randomized-but-deterministic fault campaigns:
//!    run `r` of master seed `s` derives `(run_seed, λ)` with the
//!    workspace's split-stream RNG, scales the nominal fault taxonomy,
//!    and checks the whole horizon. Soak mode batches sweeps until its
//!    wall-clock budget runs out or the campaign layer's SIGINT flag is
//!    raised.
//! 4. **[`shrink`]** — classic ddmin over the violating schedule, down
//!    to a 1-minimal trace that still fires the invariant.
//! 5. **[`artifact`]** — the minimized trace + seed + expected violation
//!    (f64s as raw bits) as JSON; `replay` re-executes it and compares
//!    bit for bit, at any thread count.
//!
//! The `chaos` binary fronts all of it: `chaos explore`, `chaos replay`,
//! `chaos soak`, `chaos list-invariants`.

#![warn(missing_docs)]

pub mod artifact;
pub mod explore;
pub mod invariant;
pub mod shrink;
pub mod world;

pub use artifact::{replay, ArtifactError, ChaosArtifact, ReplayOutcome, TraceEvent};
pub use explore::{explore, run_params, soak, ExploreConfig, ExploreReport, RunFinding};
pub use invariant::{
    InvariantBounds, InvariantInfo, InvariantRegistry, Observation, Violation, INV_BYZ_CONTAINMENT,
    INV_CKPT_COUNTS, INV_DEGRADE_POWER, INV_EPA_CEILING, INV_EVENTQ_TIME, INV_FUSION_QUORUM,
    INV_LLR_DEGRADE_ORDER, INV_MISSED_DETECT_BUDGET, INV_NULL_DEPTH, INV_REPORT_EPA,
    INV_REPUTATION_SANE, N_INVARIANTS,
};
pub use shrink::{ddmin, ShrinkResult};
pub use world::{run_events, ChaosConfig, ChaosOutcome, ChaosWorld, DegradationReport, Paradigm};
