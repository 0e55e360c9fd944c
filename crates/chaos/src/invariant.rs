//! The invariant registry: the paper's physical and protocol constraints
//! as first-class, checkable predicates with stable IDs.
//!
//! Every invariant encodes one guarantee the cognitive radio stack must
//! hold *at runtime, through every fault*:
//!
//! | ID | paper source | constraint |
//! |----|--------------|------------|
//! | `INV-EPA-CEILING`  | Sec. 4, `E_PA = max(e_PA^Lt, mt·e_PA^MIMOt)` | underlay PA energy stays under the primary noise floor, every slot |
//! | `INV-NULL-DEPTH`   | Sec. 5, `δ = π(2r·cos α/w − 1)` | interweave null depth holds at the PU; never transmit on a PU-active channel |
//! | `INV-DEGRADE-POWER`| Sec. 3 energy budget | overlay degradation never claims feasibility past the budget; infeasible bursts fall back to the direct link |
//! | `INV-EVENTQ-TIME`  | discrete-event engine contract | simulation time is monotone non-decreasing across event pops |
//! | `INV-CKPT-COUNTS`  | campaign determinism contract | a completed campaign's merged counts equal the seed-derived oracle |
//! | `INV-MISSED-DETECT-BUDGET` | cooperative-sensing contract | the cluster never radiates into an active primary for more consecutive slots than the budget |
//! | `INV-FUSION-QUORUM` | decision-fusion degradation ladder | every non-head-local fused decision rests on at least its own quorum of arrived reports |
//! | `INV-REPORT-EPA` | Sec. 3/4 `E_PA` ceiling on the report long-haul | sensing report words never radiate past the same PA energy ceiling the data obeys |
//! | `INV-LLR-DEGRADE-ORDER` | soft-fusion degradation ladder | every fused decision lands on the *first eligible* rung — never skipping weighted → soft → hard-decode → quorum → head-local order |
//! | `INV-BYZ-CONTAINMENT` | Sec. 5 sensing contract under SSDF | with ≤ f = ⌊(n−1)/3⌋ adversaries cast, the missed-detection budget still holds once reputation has converged |
//! | `INV-REPUTATION-SANE` | Beta-posterior trust contract | trust weights stay in [0, 1] and quarantined reporters are never counted toward the fused quorum |
//!
//! Checks are driven by [`Observation`]s the chaos world emits — one per
//! simulated slot, event pop, or campaign completion — and produce
//! [`Violation`]s carrying the observed value, the bound it broke, and a
//! human-readable detail string. A violation is data, not a panic: the
//! explorer shrinks it, the replayer reproduces it bit-identically.

use serde::{Deserialize, Serialize};

/// Stable identifier: underlay `E_PA` below the primary noise floor.
pub const INV_EPA_CEILING: &str = "INV-EPA-CEILING";
/// Stable identifier: interweave steered-null depth and channel discipline.
pub const INV_NULL_DEPTH: &str = "INV-NULL-DEPTH";
/// Stable identifier: overlay degradation energy budget.
pub const INV_DEGRADE_POWER: &str = "INV-DEGRADE-POWER";
/// Stable identifier: event-queue time monotonicity.
pub const INV_EVENTQ_TIME: &str = "INV-EVENTQ-TIME";
/// Stable identifier: campaign counts equal the deterministic oracle.
pub const INV_CKPT_COUNTS: &str = "INV-CKPT-COUNTS";
/// Stable identifier: consecutive missed-detection slots stay within the
/// sensing budget.
pub const INV_MISSED_DETECT_BUDGET: &str = "INV-MISSED-DETECT-BUDGET";
/// Stable identifier: fused decisions carry their quorum's worth of
/// arrived reports.
pub const INV_FUSION_QUORUM: &str = "INV-FUSION-QUORUM";
/// Stable identifier: report words respect the PA energy ceiling.
pub const INV_REPORT_EPA: &str = "INV-REPORT-EPA";
/// Stable identifier: soft fusion degrades in ladder order.
pub const INV_LLR_DEGRADE_ORDER: &str = "INV-LLR-DEGRADE-ORDER";
/// Stable identifier: the missed-detection budget survives ≤ f Byzantine
/// reporters once reputation has converged.
pub const INV_BYZ_CONTAINMENT: &str = "INV-BYZ-CONTAINMENT";
/// Stable identifier: trust weights bounded, quarantined reporters never
/// counted toward the fused quorum.
pub const INV_REPUTATION_SANE: &str = "INV-REPUTATION-SANE";

/// One fact the chaos world observed; the registry fans each observation
/// out to every invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Observation {
    /// One underlay slot: the rung chosen (or mute) and its margin.
    UnderlaySlot {
        /// Slot midpoint (ns).
        at_ns: u64,
        /// Whether the cluster radiated this slot (false = muted).
        transmitting: bool,
        /// Transmit-cluster size of the chosen rung (0 when muted).
        mt: usize,
        /// Receive-cluster size of the chosen rung (0 when muted).
        mr: usize,
        /// Noise-floor margin at the PU (dB; `+∞` when muted).
        margin_db: f64,
    },
    /// One interweave slot: channel discipline and null residual.
    InterweaveSlot {
        /// Slot start (ns) — when sensing and the channel pick happen.
        at_ns: u64,
        /// Whether the cluster radiated this slot.
        transmitting: bool,
        /// The channel picked (meaningless when muted).
        channel: usize,
        /// Whether a primary was active on that channel at slot start.
        pu_active: bool,
        /// Residual field amplitude at the protected primary.
        null_residual: f64,
    },
    /// One overlay slot: the degradation decision and its energy account.
    OverlaySlot {
        /// Slot midpoint (ns).
        at_ns: u64,
        /// Relays still alive.
        survivors: usize,
        /// `e_su_required / e_budget` (`+∞` when every relay is dead).
        overdraw: f64,
        /// Whether the policy claims the degraded burst is feasible.
        claims_feasible: bool,
        /// Whether the slot's energy accounting fell back to the direct
        /// primary link.
        fallback_direct: bool,
    },
    /// One cooperative-sensing slot's missed-detection accounting.
    SensingSlot {
        /// Slot midpoint (ns) — when the miss is charged.
        at_ns: u64,
        /// Consecutive slots (this one included) the cluster radiated
        /// into a primary that returned mid-slot; 0 on a clean slot.
        missed_streak: u32,
    },
    /// One fused spectrum decision with its quorum evidence.
    FusionDecision {
        /// Slot start (ns) — when sensing reports were fused.
        at_ns: u64,
        /// Reports that arrived and were fused.
        reports_used: usize,
        /// Busy votes the deciding rung required.
        quorum: usize,
        /// Whether the head-local rung decided (no reports arrived, or no
        /// sensing ran at all) — exempt from quorum accounting.
        head_local: bool,
    },
    /// One slot's sensing-report long-haul transmission and its power
    /// account against the underlay `E_PA` ceiling.
    ReportLongHaul {
        /// Slot start (ns) — when the report words went on the air.
        at_ns: u64,
        /// Whether any report word actually radiated this slot (a
        /// clean-transport or zero-reporter slot transmits nothing).
        transmitted: bool,
        /// Noise-floor margin of the rung whose PA budget clamps the
        /// report word energy (dB; `+∞` when nothing radiated).
        margin_db: f64,
        /// Transmit antennas of the report word.
        mt: usize,
    },
    /// One fused decision's full ladder evidence, for rung-order audit.
    FusionLadder {
        /// Slot start (ns) — when sensing reports were fused.
        at_ns: u64,
        /// Whether the fusion config has a soft rung (a finite
        /// reliability floor); recorded, not checked.
        soft_path: bool,
        /// Whether a reputation view weighted the soft rung.
        weighted: bool,
        /// The rung that decided ([`RuleUsed::rung_index`] encoding:
        /// 0 = weighted LLR, 1 = hard decode, 2 = OR fallback,
        /// 3 = head local).
        rung: u8,
        /// Distinct reports fused.
        n_reports: usize,
        /// Configured minimum quorum (already clamped to ≥ 1).
        min_quorum: usize,
        /// Mean decoder confidence over the fused reports.
        mean_confidence: f64,
        /// Reliability floor of the soft rung (`+∞` on rules with no
        /// soft rung).
        reliability_floor: f64,
    },
    /// One slot's reputation-tracker health next to the fused decision
    /// it weighted.
    ReputationSlot {
        /// Slot start (ns) — when the view was consulted for fusion.
        at_ns: u64,
        /// Smallest trust weight on the roster.
        min_weight: f64,
        /// Largest trust weight on the roster.
        max_weight: f64,
        /// Reports the fused decision actually counted.
        reports_used: usize,
        /// Distinct delivered reports from non-quarantined reporters —
        /// the most any rung may legitimately count toward its quorum.
        eligible_distinct: usize,
    },
    /// One slot's Byzantine containment accounting: the adversary cast
    /// against the tolerance bound, and the miss streak it produced.
    ByzContainment {
        /// Slot midpoint (ns) — when the miss is charged.
        at_ns: u64,
        /// Adversarial reporters cast into the roster this run.
        n_adversaries: usize,
        /// The tolerance bound `f = ⌊(n−1)/3⌋` of the roster.
        f_max: usize,
        /// Whether the reputation tracker had converged by slot start.
        converged: bool,
        /// Consecutive slots (this one included) the cluster radiated
        /// into a primary that returned mid-slot; 0 on a clean slot.
        missed_streak: u32,
    },
    /// One event-queue pop: the clock before and after.
    EventPop {
        /// Clock before the pop (ns).
        prev_ns: u64,
        /// Popped event's timestamp (ns).
        now_ns: u64,
    },
    /// A completed campaign's merged counts next to the oracle's.
    CampaignCounts {
        /// When the campaign finished, in simulation terms (ns).
        at_ns: u64,
        /// Merged bits.
        bits: u64,
        /// Merged errors.
        errors: u64,
        /// Oracle bits (sum over non-quarantined shards).
        expected_bits: u64,
        /// Oracle errors.
        expected_errors: u64,
    },
}

impl Observation {
    /// The observation's timestamp (ns).
    pub fn at_ns(&self) -> u64 {
        match self {
            Self::UnderlaySlot { at_ns, .. }
            | Self::InterweaveSlot { at_ns, .. }
            | Self::OverlaySlot { at_ns, .. }
            | Self::SensingSlot { at_ns, .. }
            | Self::FusionDecision { at_ns, .. }
            | Self::ReportLongHaul { at_ns, .. }
            | Self::FusionLadder { at_ns, .. }
            | Self::ReputationSlot { at_ns, .. }
            | Self::ByzContainment { at_ns, .. }
            | Self::CampaignCounts { at_ns, .. } => *at_ns,
            Self::EventPop { now_ns, .. } => *now_ns,
        }
    }
}

/// A broken invariant: which one, when, and by how much.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant ID (`INV-…`).
    pub invariant: &'static str,
    /// When the violating observation happened (ns).
    pub at_ns: u64,
    /// The observed value that broke the bound.
    pub observed: f64,
    /// The bound it broke.
    pub bound: f64,
    /// Human-readable account of the breach.
    pub detail: String,
}

/// The numeric bounds the invariants check against. The paper values are
/// the defaults; the chaos CLI can weaken them to *prove the explorer
/// finds and shrinks real violations* (a weakened bound is the only way
/// to produce one on a correct stack).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvariantBounds {
    /// Minimum admissible underlay noise-floor margin (dB). Paper: 0 —
    /// the SU PSD at the PU sits at or below the noise floor.
    pub epa_margin_floor_db: f64,
    /// Maximum residual field amplitude at the steered null. Paper
    /// nulling is exact; 1e-6 absorbs floating-point evaluation noise.
    pub null_residual_max: f64,
    /// Maximum `e_su_required / e_budget` a feasible overlay burst may
    /// report. Paper: 1 (+1e-9 for the k = 0 equality case).
    pub overdraw_max: f64,
    /// Maximum consecutive slots the cluster may radiate into a primary
    /// that returned mid-slot. Paper: 1 — slotted sensing catches a
    /// return at the next boundary and the post-miss back-off slot keeps
    /// the streak from ever reaching 2.
    pub missed_detect_budget: u32,
    /// Minimum quorum a non-head-local fused decision may rest on.
    /// Paper: 1 — the degradation ladder re-derives `k` from what
    /// arrived, so every fused rung keeps at least an OR quorum.
    pub fusion_quorum_min: usize,
    /// Minimum admissible noise-floor margin (dB) of the rung whose PA
    /// budget the report words are clamped to. Paper: 0 — report words
    /// reuse the underlay `E_PA` ceiling, so a transmitted report never
    /// radiates past the primary noise floor.
    pub report_epa_floor_db: f64,
    /// Maximum missed-detection streak tolerated with ≤ f Byzantine
    /// reporters cast, *after* reputation convergence. Paper: 1 — the
    /// same slotted-sensing budget as `missed_detect_budget`; containment
    /// means adversaries must not be able to stretch it.
    pub byz_missed_budget: u32,
}

impl InvariantBounds {
    /// The paper's true bounds.
    pub fn paper() -> Self {
        Self {
            epa_margin_floor_db: 0.0,
            null_residual_max: 1e-6,
            overdraw_max: 1.0 + 1e-9,
            missed_detect_budget: 1,
            fusion_quorum_min: 1,
            report_epa_floor_db: 0.0,
            byz_missed_budget: 1,
        }
    }
}

impl Default for InvariantBounds {
    fn default() -> Self {
        Self::paper()
    }
}

/// A paper constraint as a checkable predicate over [`Observation`]s.
pub trait Invariant: Send + Sync {
    /// Stable ID (`INV-…`), the key artifacts and CLIs refer to.
    fn id(&self) -> &'static str;
    /// Paper equation / section this encodes.
    fn paper_ref(&self) -> &'static str;
    /// The code paths this invariant guards.
    fn guards(&self) -> &'static str;
    /// Human-readable bound (with the active numeric values).
    fn bound_text(&self) -> String;
    /// Checks one observation; `None` means the invariant holds for it.
    fn check(&self, obs: &Observation) -> Option<Violation>;
}

// ---------------------------------------------------------------------
// The eleven paper invariants
// ---------------------------------------------------------------------

struct EpaCeiling {
    floor_db: f64,
}

impl Invariant for EpaCeiling {
    fn id(&self) -> &'static str {
        INV_EPA_CEILING
    }
    fn paper_ref(&self) -> &'static str {
        "Sec. 4, E_PA = max(e_PA^Lt, mt·e_PA^MIMOt) under the primary noise floor"
    }
    fn guards(&self) -> &'static str {
        "comimo-core Underlay::degrade / fallback_chain rung admission"
    }
    fn bound_text(&self) -> String {
        format!("every slot: muted, or margin_db ≥ {:.3} dB", self.floor_db)
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        // checked on EVERY underlay slot, transmitting or muted: a muted
        // slot radiates nothing, so the ceiling holds trivially — but the
        // check still runs, which is what "every slot" means.
        let Observation::UnderlaySlot {
            at_ns,
            transmitting,
            mt,
            mr,
            margin_db,
        } = obs
        else {
            return None;
        };
        if *transmitting && *margin_db < self.floor_db {
            return Some(Violation {
                invariant: INV_EPA_CEILING,
                at_ns: *at_ns,
                observed: *margin_db,
                bound: self.floor_db,
                detail: format!(
                    "underlay transmitted on the {mt}x{mr} rung with noise-floor margin \
                     {margin_db:.6} dB < floor {:.6} dB",
                    self.floor_db
                ),
            });
        }
        None
    }
}

struct NullDepth {
    residual_max: f64,
}

impl Invariant for NullDepth {
    fn id(&self) -> &'static str {
        INV_NULL_DEPTH
    }
    fn paper_ref(&self) -> &'static str {
        "Sec. 5, null delay δ = π(2r·cos α/w − 1); interweave channel discipline"
    }
    fn guards(&self) -> &'static str {
        "comimo-core ClusterBeamformer::repair / steer; interweave channel pick"
    }
    fn bound_text(&self) -> String {
        format!(
            "transmitting slots: PU-free channel and null residual ≤ {:e}",
            self.residual_max
        )
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::InterweaveSlot {
            at_ns,
            transmitting,
            channel,
            pu_active,
            null_residual,
        } = obs
        else {
            return None;
        };
        if !transmitting {
            return None;
        }
        if *pu_active {
            return Some(Violation {
                invariant: INV_NULL_DEPTH,
                at_ns: *at_ns,
                observed: 1.0,
                bound: 0.0,
                detail: format!(
                    "interweave transmitted on channel {channel} while its primary was active"
                ),
            });
        }
        if *null_residual > self.residual_max {
            return Some(Violation {
                invariant: INV_NULL_DEPTH,
                at_ns: *at_ns,
                observed: *null_residual,
                bound: self.residual_max,
                detail: format!(
                    "steered-null residual {null_residual:e} > {:e} at the protected primary \
                     (channel {channel})",
                    self.residual_max
                ),
            });
        }
        None
    }
}

struct DegradePower {
    overdraw_max: f64,
}

impl Invariant for DegradePower {
    fn id(&self) -> &'static str {
        INV_DEGRADE_POWER
    }
    fn paper_ref(&self) -> &'static str {
        "Sec. 3, per-SU energy budget E1 of the relayed burst"
    }
    fn guards(&self) -> &'static str {
        "comimo-core Overlay::degrade re-weighting and direct-link fallback"
    }
    fn bound_text(&self) -> String {
        format!(
            "feasible bursts: overdraw ≤ {:.9}; infeasible bursts must fall back direct",
            self.overdraw_max
        )
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::OverlaySlot {
            at_ns,
            survivors,
            overdraw,
            claims_feasible,
            fallback_direct,
        } = obs
        else {
            return None;
        };
        if *claims_feasible && *overdraw > self.overdraw_max {
            return Some(Violation {
                invariant: INV_DEGRADE_POWER,
                at_ns: *at_ns,
                observed: *overdraw,
                bound: self.overdraw_max,
                detail: format!(
                    "overlay claimed a feasible burst on {survivors} survivors with energy \
                     overdraw {overdraw:.9} > {:.9}",
                    self.overdraw_max
                ),
            });
        }
        if !*claims_feasible && !*fallback_direct {
            return Some(Violation {
                invariant: INV_DEGRADE_POWER,
                at_ns: *at_ns,
                observed: *overdraw,
                bound: self.overdraw_max,
                detail: format!(
                    "overlay burst infeasible on {survivors} survivors (overdraw {overdraw:.9}) \
                     but did not fall back to the direct link"
                ),
            });
        }
        None
    }
}

struct EventqTime;

impl Invariant for EventqTime {
    fn id(&self) -> &'static str {
        INV_EVENTQ_TIME
    }
    fn paper_ref(&self) -> &'static str {
        "discrete-event engine contract (deterministic CSMA/CA substrate, Sec. 2.1)"
    }
    fn guards(&self) -> &'static str {
        "comimo-sim ShardedEventQueue::pop ordering"
    }
    fn bound_text(&self) -> String {
        "event pops never move the clock backwards".into()
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::EventPop { prev_ns, now_ns } = obs else {
            return None;
        };
        if now_ns < prev_ns {
            return Some(Violation {
                invariant: INV_EVENTQ_TIME,
                at_ns: *now_ns,
                observed: *now_ns as f64,
                bound: *prev_ns as f64,
                detail: format!("event queue popped t={now_ns} ns after t={prev_ns} ns"),
            });
        }
        None
    }
}

struct CkptCounts;

impl Invariant for CkptCounts {
    fn id(&self) -> &'static str {
        INV_CKPT_COUNTS
    }
    fn paper_ref(&self) -> &'static str {
        "campaign determinism contract: counts are a pure function of (seed, shard)"
    }
    fn guards(&self) -> &'static str {
        "comimo-campaign run_campaign merge, retry and quarantine accounting"
    }
    fn bound_text(&self) -> String {
        "completed campaigns merge exactly the oracle's (bits, errors)".into()
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::CampaignCounts {
            at_ns,
            bits,
            errors,
            expected_bits,
            expected_errors,
        } = obs
        else {
            return None;
        };
        if bits != expected_bits || errors != expected_errors {
            return Some(Violation {
                invariant: INV_CKPT_COUNTS,
                at_ns: *at_ns,
                observed: *bits as f64,
                bound: *expected_bits as f64,
                detail: format!(
                    "campaign merged ({bits} bits, {errors} errors) but the seed oracle \
                     predicts ({expected_bits} bits, {expected_errors} errors)"
                ),
            });
        }
        None
    }
}

struct MissedDetectBudget {
    budget: u32,
}

impl Invariant for MissedDetectBudget {
    fn id(&self) -> &'static str {
        INV_MISSED_DETECT_BUDGET
    }
    fn paper_ref(&self) -> &'static str {
        "cooperative-sensing contract: a returning primary is detected within one slot, \
         then a back-off slot re-senses before radiating again"
    }
    fn guards(&self) -> &'static str {
        "comimo-sensing run_round_byz fusion ladder; chaos-world sensing stage and post-miss back-off"
    }
    fn bound_text(&self) -> String {
        format!("missed-detection streak ≤ {} slot(s)", self.budget)
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::SensingSlot {
            at_ns,
            missed_streak,
        } = obs
        else {
            return None;
        };
        if *missed_streak > self.budget {
            return Some(Violation {
                invariant: INV_MISSED_DETECT_BUDGET,
                at_ns: *at_ns,
                observed: f64::from(*missed_streak),
                bound: f64::from(self.budget),
                detail: format!(
                    "cluster radiated into an active primary for {missed_streak} consecutive \
                     slot(s), budget {}",
                    self.budget
                ),
            });
        }
        None
    }
}

struct FusionQuorum {
    min_quorum: usize,
}

impl Invariant for FusionQuorum {
    fn id(&self) -> &'static str {
        INV_FUSION_QUORUM
    }
    fn paper_ref(&self) -> &'static str {
        "decision-fusion degradation ladder: k re-derived from arrived reports, \
         OR fallback below min_quorum, head-local at zero"
    }
    fn guards(&self) -> &'static str {
        "comimo-sensing fuse / quorum_of; comimo-net report transport accounting"
    }
    fn bound_text(&self) -> String {
        format!(
            "non-head-local decisions: reports_used ≥ quorum ≥ {}",
            self.min_quorum
        )
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::FusionDecision {
            at_ns,
            reports_used,
            quorum,
            head_local,
        } = obs
        else {
            return None;
        };
        if *head_local {
            // the head deciding alone fuses nothing; quorum accounting
            // does not apply
            return None;
        }
        if reports_used < quorum {
            return Some(Violation {
                invariant: INV_FUSION_QUORUM,
                at_ns: *at_ns,
                observed: *reports_used as f64,
                bound: *quorum as f64,
                detail: format!(
                    "fused a decision over {reports_used} arrived report(s) against a quorum \
                     of {quorum}"
                ),
            });
        }
        if *quorum < self.min_quorum {
            return Some(Violation {
                invariant: INV_FUSION_QUORUM,
                at_ns: *at_ns,
                observed: *quorum as f64,
                bound: self.min_quorum as f64,
                detail: format!(
                    "a fused rung decided with quorum {quorum} < configured minimum {}",
                    self.min_quorum
                ),
            });
        }
        None
    }
}

struct ReportEpa {
    floor_db: f64,
}

impl Invariant for ReportEpa {
    fn id(&self) -> &'static str {
        INV_REPORT_EPA
    }
    fn paper_ref(&self) -> &'static str {
        "Sec. 3/4: sensing report words reuse the underlay E_PA ceiling of the data long-haul"
    }
    fn guards(&self) -> &'static str {
        "comimo-stbc ReportWordConfig::clamp_es; chaos-world report-word power account"
    }
    fn bound_text(&self) -> String {
        format!(
            "transmitted report words: clamping rung margin ≥ {:.3} dB",
            self.floor_db
        )
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        // mirrors INV-EPA-CEILING's shape: an untransmitted slot
        // radiates nothing, so the ceiling holds trivially — but the
        // check still runs every slot
        let Observation::ReportLongHaul {
            at_ns,
            transmitted,
            margin_db,
            mt,
        } = obs
        else {
            return None;
        };
        if *transmitted && *margin_db < self.floor_db {
            return Some(Violation {
                invariant: INV_REPORT_EPA,
                at_ns: *at_ns,
                observed: *margin_db,
                bound: self.floor_db,
                detail: format!(
                    "sensing report words radiated on a {mt}-antenna long-haul whose clamping \
                     rung margin {margin_db:.6} dB < floor {:.6} dB",
                    self.floor_db
                ),
            });
        }
        None
    }
}

struct LlrDegradeOrder;

impl LlrDegradeOrder {
    /// The first rung the ladder evidence makes eligible — a deliberate
    /// re-derivation (not a call into `fuse_soft_weighted`) so a
    /// fusion-side rung-skipping bug cannot hide behind its own
    /// bookkeeping.
    fn first_eligible(n: usize, min_quorum: usize, mean_confidence: f64, floor: f64) -> u8 {
        if n == 0 {
            3 // head local
        } else if n < min_quorum.max(1) {
            2 // OR fallback
        } else if mean_confidence >= floor {
            0 // soft LLR, weighted by trust when a view is held
        } else {
            1 // hard decode
        }
    }
}

impl Invariant for LlrDegradeOrder {
    fn id(&self) -> &'static str {
        INV_LLR_DEGRADE_ORDER
    }
    fn paper_ref(&self) -> &'static str {
        "soft-fusion degradation ladder: weighted LLR → hard decode → OR fallback → \
         head local, first eligible rung decides"
    }
    fn guards(&self) -> &'static str {
        "comimo-sensing fuse_soft_weighted rung selection and LadderEvidence accounting"
    }
    fn bound_text(&self) -> String {
        "every fused decision lands on exactly the first eligible rung".into()
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::FusionLadder {
            at_ns,
            weighted,
            rung,
            n_reports,
            min_quorum,
            mean_confidence,
            reliability_floor,
            ..
        } = obs
        else {
            return None;
        };
        let expected = Self::first_eligible(
            *n_reports,
            *min_quorum,
            *mean_confidence,
            *reliability_floor,
        );
        if *rung != expected {
            return Some(Violation {
                invariant: INV_LLR_DEGRADE_ORDER,
                at_ns: *at_ns,
                observed: f64::from(*rung),
                bound: f64::from(expected),
                detail: format!(
                    "fusion decided on rung {rung} but the evidence (weighted={weighted}, \
                     n={n_reports}, min_quorum={min_quorum}, \
                     confidence={mean_confidence:.4}, floor={reliability_floor:.4}) makes \
                     rung {expected} the first eligible"
                ),
            });
        }
        None
    }
}

struct ByzContainmentBudget {
    budget: u32,
}

impl Invariant for ByzContainmentBudget {
    fn id(&self) -> &'static str {
        INV_BYZ_CONTAINMENT
    }
    fn paper_ref(&self) -> &'static str {
        "Sec. 5 sensing contract under SSDF: with f = ⌊(n−1)/3⌋ falsifiers the fused \
         verdict still detects a returning primary within the slotted budget"
    }
    fn guards(&self) -> &'static str {
        "comimo-sensing fuse_soft_weighted + ReputationTracker quarantine; chaos-world \
         Byzantine cast and sensing stage"
    }
    fn bound_text(&self) -> String {
        format!(
            "≤ f adversaries after reputation convergence: missed-detection streak ≤ {} slot(s)",
            self.budget
        )
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::ByzContainment {
            at_ns,
            n_adversaries,
            f_max,
            converged,
            missed_streak,
        } = obs
        else {
            return None;
        };
        // containment is only promised inside the tolerance bound and
        // after the trust posteriors have had time to converge — the
        // cold-start window is the median guard's problem, and > f
        // adversaries is outside the paper's contract
        if !converged || n_adversaries > f_max {
            return None;
        }
        if *missed_streak > self.budget {
            return Some(Violation {
                invariant: INV_BYZ_CONTAINMENT,
                at_ns: *at_ns,
                observed: f64::from(*missed_streak),
                bound: f64::from(self.budget),
                detail: format!(
                    "with {n_adversaries} adversary(ies) ≤ f = {f_max} and converged \
                     reputation, the cluster radiated into an active primary for \
                     {missed_streak} consecutive slot(s), budget {}",
                    self.budget
                ),
            });
        }
        None
    }
}

struct ReputationSane;

impl Invariant for ReputationSane {
    fn id(&self) -> &'static str {
        INV_REPUTATION_SANE
    }
    fn paper_ref(&self) -> &'static str {
        "Beta-posterior trust contract: weights are posterior means in [0, 1]; \
         quarantined reporters are dropped before quorum-k re-derivation"
    }
    fn guards(&self) -> &'static str {
        "comimo-sensing ReputationTracker / ReputationView; fuse_* eligibility filtering"
    }
    fn bound_text(&self) -> String {
        "weights ∈ [0, 1]; fused reports_used ≤ distinct eligible reports".into()
    }
    fn check(&self, obs: &Observation) -> Option<Violation> {
        let Observation::ReputationSlot {
            at_ns,
            min_weight,
            max_weight,
            reports_used,
            eligible_distinct,
        } = obs
        else {
            return None;
        };
        if !(0.0..=1.0).contains(min_weight) || !(0.0..=1.0).contains(max_weight) {
            return Some(Violation {
                invariant: INV_REPUTATION_SANE,
                at_ns: *at_ns,
                observed: if *min_weight < 0.0 {
                    *min_weight
                } else {
                    *max_weight
                },
                bound: 1.0,
                detail: format!(
                    "trust weights left the Beta-posterior range: min {min_weight:.6}, \
                     max {max_weight:.6} outside [0, 1]"
                ),
            });
        }
        if reports_used > eligible_distinct {
            return Some(Violation {
                invariant: INV_REPUTATION_SANE,
                at_ns: *at_ns,
                observed: *reports_used as f64,
                bound: *eligible_distinct as f64,
                detail: format!(
                    "fusion counted {reports_used} report(s) toward its quorum but only \
                     {eligible_distinct} distinct non-quarantined report(s) arrived — a \
                     quarantined reporter was counted"
                ),
            });
        }
        None
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// The shared registry every checker (chaos explorer, faultbench, tests)
/// registers against and consults.
pub struct InvariantRegistry {
    invariants: Vec<Box<dyn Invariant>>,
}

impl InvariantRegistry {
    /// An empty registry (for custom invariant sets).
    pub fn empty() -> Self {
        Self {
            invariants: Vec::new(),
        }
    }

    /// The eleven paper invariants at their true bounds.
    pub fn paper() -> Self {
        Self::with_bounds(InvariantBounds::paper())
    }

    /// The eleven paper invariants at explicit (possibly weakened) bounds.
    pub fn with_bounds(b: InvariantBounds) -> Self {
        let mut reg = Self::empty();
        reg.register(Box::new(EpaCeiling {
            floor_db: b.epa_margin_floor_db,
        }));
        reg.register(Box::new(NullDepth {
            residual_max: b.null_residual_max,
        }));
        reg.register(Box::new(DegradePower {
            overdraw_max: b.overdraw_max,
        }));
        reg.register(Box::new(EventqTime));
        reg.register(Box::new(CkptCounts));
        reg.register(Box::new(MissedDetectBudget {
            budget: b.missed_detect_budget,
        }));
        reg.register(Box::new(FusionQuorum {
            min_quorum: b.fusion_quorum_min,
        }));
        reg.register(Box::new(ReportEpa {
            floor_db: b.report_epa_floor_db,
        }));
        reg.register(Box::new(LlrDegradeOrder));
        reg.register(Box::new(ByzContainmentBudget {
            budget: b.byz_missed_budget,
        }));
        reg.register(Box::new(ReputationSane));
        reg
    }

    /// Registers an invariant.
    ///
    /// # Panics
    /// On a duplicate ID — stable IDs are the whole point.
    pub fn register(&mut self, inv: Box<dyn Invariant>) {
        assert!(
            self.get(inv.id()).is_none(),
            "duplicate invariant id {}",
            inv.id()
        );
        self.invariants.push(inv);
    }

    /// Looks an invariant up by its stable ID.
    pub fn get(&self, id: &str) -> Option<&dyn Invariant> {
        self.invariants
            .iter()
            .find(|i| i.id() == id)
            .map(|b| b.as_ref())
    }

    /// All registered invariants, in registration order.
    pub fn invariants(&self) -> impl Iterator<Item = &dyn Invariant> {
        self.invariants.iter().map(|b| b.as_ref())
    }

    /// Number of registered invariants.
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Fans `obs` out to every invariant, appending violations to `out`.
    /// Returns the number of invariant checks consulted (for check-count
    /// accounting: "how hard did we look").
    pub fn check(&self, obs: &Observation, out: &mut Vec<Violation>) -> u64 {
        for inv in &self.invariants {
            if let Some(v) = inv.check(obs) {
                out.push(v);
            }
        }
        self.invariants.len() as u64
    }
}

impl std::fmt::Debug for InvariantRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvariantRegistry")
            .field(
                "ids",
                &self.invariants.iter().map(|i| i.id()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_registry_has_the_eleven_stable_ids() {
        let reg = InvariantRegistry::paper();
        assert_eq!(reg.len(), 11);
        for id in [
            INV_EPA_CEILING,
            INV_NULL_DEPTH,
            INV_DEGRADE_POWER,
            INV_EVENTQ_TIME,
            INV_CKPT_COUNTS,
            INV_MISSED_DETECT_BUDGET,
            INV_FUSION_QUORUM,
            INV_REPORT_EPA,
            INV_LLR_DEGRADE_ORDER,
            INV_BYZ_CONTAINMENT,
            INV_REPUTATION_SANE,
        ] {
            let inv = reg.get(id).unwrap_or_else(|| panic!("missing {id}"));
            assert_eq!(inv.id(), id);
            assert!(!inv.paper_ref().is_empty());
            assert!(!inv.guards().is_empty());
            assert!(!inv.bound_text().is_empty());
        }
        assert!(reg.get("INV-NO-SUCH").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate invariant id")]
    fn duplicate_registration_panics() {
        let mut reg = InvariantRegistry::paper();
        reg.register(Box::new(EventqTime));
    }

    #[test]
    fn epa_ceiling_fires_only_on_transmitting_sub_floor_slots() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        // muted slot with a terrible margin: trivially holds
        let checks = reg.check(
            &Observation::UnderlaySlot {
                at_ns: 10,
                transmitting: false,
                mt: 0,
                mr: 0,
                margin_db: -40.0,
            },
            &mut v,
        );
        assert_eq!(checks, 11, "every slot consults every invariant");
        assert!(v.is_empty());
        // transmitting below the floor: violation
        reg.check(
            &Observation::UnderlaySlot {
                at_ns: 20,
                transmitting: true,
                mt: 2,
                mr: 3,
                margin_db: -0.5,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_EPA_CEILING);
        assert_eq!(v[0].at_ns, 20);
        assert_eq!(v[0].observed, -0.5);
    }

    #[test]
    fn null_depth_fires_on_pu_active_channel_and_on_residual() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        reg.check(
            &Observation::InterweaveSlot {
                at_ns: 5,
                transmitting: true,
                channel: 2,
                pu_active: true,
                null_residual: 0.0,
            },
            &mut v,
        );
        reg.check(
            &Observation::InterweaveSlot {
                at_ns: 6,
                transmitting: true,
                channel: 0,
                pu_active: false,
                null_residual: 1e-3,
            },
            &mut v,
        );
        // muted slot never fires
        reg.check(
            &Observation::InterweaveSlot {
                at_ns: 7,
                transmitting: false,
                channel: 0,
                pu_active: true,
                null_residual: 9.0,
            },
            &mut v,
        );
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.invariant == INV_NULL_DEPTH));
        assert!(v[1].detail.contains("residual"));
    }

    #[test]
    fn degrade_power_fires_on_overdraw_and_on_missing_fallback() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        reg.check(
            &Observation::OverlaySlot {
                at_ns: 1,
                survivors: 2,
                overdraw: 1.5,
                claims_feasible: true,
                fallback_direct: false,
            },
            &mut v,
        );
        reg.check(
            &Observation::OverlaySlot {
                at_ns: 2,
                survivors: 1,
                overdraw: 3.0,
                claims_feasible: false,
                fallback_direct: false,
            },
            &mut v,
        );
        // the correct pair of outcomes never fires
        reg.check(
            &Observation::OverlaySlot {
                at_ns: 3,
                survivors: 4,
                overdraw: 1.0,
                claims_feasible: true,
                fallback_direct: false,
            },
            &mut v,
        );
        reg.check(
            &Observation::OverlaySlot {
                at_ns: 4,
                survivors: 1,
                overdraw: 3.0,
                claims_feasible: false,
                fallback_direct: true,
            },
            &mut v,
        );
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.invariant == INV_DEGRADE_POWER));
    }

    #[test]
    fn eventq_time_fires_on_clock_regression() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        reg.check(
            &Observation::EventPop {
                prev_ns: 10,
                now_ns: 10,
            },
            &mut v,
        );
        reg.check(
            &Observation::EventPop {
                prev_ns: 10,
                now_ns: 9,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_EVENTQ_TIME);
        assert_eq!(v[0].at_ns, 9);
    }

    #[test]
    fn ckpt_counts_fires_on_oracle_mismatch() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        reg.check(
            &Observation::CampaignCounts {
                at_ns: 0,
                bits: 4096,
                errors: 7,
                expected_bits: 4096,
                expected_errors: 7,
            },
            &mut v,
        );
        assert!(v.is_empty());
        reg.check(
            &Observation::CampaignCounts {
                at_ns: 0,
                bits: 4096,
                errors: 8,
                expected_bits: 4096,
                expected_errors: 7,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_CKPT_COUNTS);
    }

    #[test]
    fn missed_detect_budget_fires_above_the_streak_bound() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        // a single missed slot is within the paper budget of 1
        reg.check(
            &Observation::SensingSlot {
                at_ns: 3,
                missed_streak: 1,
            },
            &mut v,
        );
        assert!(v.is_empty());
        reg.check(
            &Observation::SensingSlot {
                at_ns: 4,
                missed_streak: 2,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_MISSED_DETECT_BUDGET);
        assert_eq!(v[0].observed, 2.0);
        assert_eq!(v[0].bound, 1.0);
    }

    #[test]
    fn fusion_quorum_fires_on_thin_evidence_but_exempts_head_local() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        // a healthy majority decision holds
        reg.check(
            &Observation::FusionDecision {
                at_ns: 1,
                reports_used: 5,
                quorum: 3,
                head_local: true,
            },
            &mut v,
        );
        reg.check(
            &Observation::FusionDecision {
                at_ns: 2,
                reports_used: 5,
                quorum: 3,
                head_local: false,
            },
            &mut v,
        );
        assert!(v.is_empty());
        // fewer arrived reports than the quorum demands: structural breach
        reg.check(
            &Observation::FusionDecision {
                at_ns: 3,
                reports_used: 2,
                quorum: 3,
                head_local: false,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_FUSION_QUORUM);
        // head-local decisions are exempt even with zero reports
        reg.check(
            &Observation::FusionDecision {
                at_ns: 4,
                reports_used: 0,
                quorum: 0,
                head_local: true,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn report_epa_fires_only_on_transmitted_sub_floor_words() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        // nothing radiated: the ceiling holds however bad the margin is
        reg.check(
            &Observation::ReportLongHaul {
                at_ns: 1,
                transmitted: false,
                margin_db: -20.0,
                mt: 2,
            },
            &mut v,
        );
        // transmitted with headroom: holds
        reg.check(
            &Observation::ReportLongHaul {
                at_ns: 2,
                transmitted: true,
                margin_db: 4.2,
                mt: 2,
            },
            &mut v,
        );
        assert!(v.is_empty());
        // transmitted below the floor: the breach the explorer hunts
        reg.check(
            &Observation::ReportLongHaul {
                at_ns: 3,
                transmitted: true,
                margin_db: -0.25,
                mt: 2,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_REPORT_EPA);
        assert_eq!(v[0].observed, -0.25);
    }

    #[test]
    fn llr_degrade_order_recomputes_the_first_eligible_rung() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        let ladder = |at_ns, weighted, rung, n_reports, mean_confidence, reliability_floor| {
            Observation::FusionLadder {
                at_ns,
                soft_path: f64::is_finite(reliability_floor),
                weighted,
                rung,
                n_reports,
                min_quorum: 2,
                mean_confidence,
                reliability_floor,
            }
        };
        // every legitimate rung in ladder order holds
        for (weighted, rung, n, conf, floor) in [
            (true, 0u8, 5usize, 0.9, 0.65), // view held, confident quorum → soft
            (false, 0, 5, 0.9, 0.65),       // no view, confident quorum → soft
            (false, 1, 5, 0.3, 0.65),       // shaky quorum → hard decode
            (false, 1, 5, 1.0, f64::INFINITY), // no soft rung → hard decode
            (false, 2, 1, 0.9, 0.65),       // sub-quorum → OR fallback
            (false, 2, 1, 1.0, f64::INFINITY),
            (false, 3, 0, 0.0, 0.65), // empty → head local
        ] {
            reg.check(&ladder(1, weighted, rung, n, conf, floor), &mut v);
        }
        assert!(v.is_empty(), "{v:?}");
        // skipping the soft rung on a confident quorum fires
        reg.check(&ladder(2, true, 1, 5, 0.9, 0.65), &mut v);
        // so does jumping straight to head-local with reports in hand
        reg.check(&ladder(3, false, 3, 1, 1.0, f64::INFINITY), &mut v);
        // and a confident quorum that lands on the hard rung
        reg.check(&ladder(4, false, 1, 5, 1.0, 0.65), &mut v);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.invariant == INV_LLR_DEGRADE_ORDER));
        assert_eq!(v[0].bound, 0.0);
        assert_eq!(v[1].bound, 2.0);
        assert_eq!(v[2].bound, 0.0);
    }

    #[test]
    fn weakened_bounds_strengthen_the_checks() {
        let weak = InvariantRegistry::with_bounds(InvariantBounds {
            epa_margin_floor_db: 3.0,
            null_residual_max: -1.0,
            overdraw_max: 0.5,
            missed_detect_budget: 0,
            fusion_quorum_min: 4,
            report_epa_floor_db: 5.0,
            byz_missed_budget: 0,
        });
        let mut v = Vec::new();
        // a margin fine at the paper floor breaks a +3 dB floor
        weak.check(
            &Observation::UnderlaySlot {
                at_ns: 0,
                transmitting: true,
                mt: 4,
                mr: 3,
                margin_db: 1.0,
            },
            &mut v,
        );
        // a perfect null breaks a negative residual bound
        weak.check(
            &Observation::InterweaveSlot {
                at_ns: 0,
                transmitting: true,
                channel: 0,
                pu_active: false,
                null_residual: 0.0,
            },
            &mut v,
        );
        // one missed slot — fine at the paper budget — breaks budget 0
        weak.check(
            &Observation::SensingSlot {
                at_ns: 0,
                missed_streak: 1,
            },
            &mut v,
        );
        // an OR-fallback quorum of 1 breaks a raised quorum minimum
        weak.check(
            &Observation::FusionDecision {
                at_ns: 0,
                reports_used: 1,
                quorum: 1,
                head_local: false,
            },
            &mut v,
        );
        // a report word fine at the paper floor breaks a +5 dB floor
        weak.check(
            &Observation::ReportLongHaul {
                at_ns: 0,
                transmitted: true,
                margin_db: 2.0,
                mt: 2,
            },
            &mut v,
        );
        // a one-slot miss under a converged, ≤ f adversary cast — within
        // the paper containment budget — breaks a zero budget
        weak.check(
            &Observation::ByzContainment {
                at_ns: 0,
                n_adversaries: 1,
                f_max: 2,
                converged: true,
                missed_streak: 1,
            },
            &mut v,
        );
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn byz_containment_fires_only_inside_the_contract() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        // within budget: holds
        reg.check(
            &Observation::ByzContainment {
                at_ns: 1,
                n_adversaries: 2,
                f_max: 2,
                converged: true,
                missed_streak: 1,
            },
            &mut v,
        );
        // cold start: the contract has not begun, however long the streak
        reg.check(
            &Observation::ByzContainment {
                at_ns: 2,
                n_adversaries: 2,
                f_max: 2,
                converged: false,
                missed_streak: 7,
            },
            &mut v,
        );
        // over-tolerance cast: outside the paper's promise
        reg.check(
            &Observation::ByzContainment {
                at_ns: 3,
                n_adversaries: 3,
                f_max: 2,
                converged: true,
                missed_streak: 7,
            },
            &mut v,
        );
        assert!(v.is_empty(), "{v:?}");
        // converged, ≤ f, streak past the budget: the breach
        reg.check(
            &Observation::ByzContainment {
                at_ns: 4,
                n_adversaries: 2,
                f_max: 2,
                converged: true,
                missed_streak: 2,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_BYZ_CONTAINMENT);
        assert_eq!(v[0].observed, 2.0);
        assert_eq!(v[0].bound, 1.0);
    }

    #[test]
    fn reputation_sane_fires_on_bad_weights_and_on_quarantine_leaks() {
        let reg = InvariantRegistry::paper();
        let mut v = Vec::new();
        // healthy slot: weights bounded, fused count within eligibility
        reg.check(
            &Observation::ReputationSlot {
                at_ns: 1,
                min_weight: 0.2,
                max_weight: 0.9,
                reports_used: 4,
                eligible_distinct: 5,
            },
            &mut v,
        );
        assert!(v.is_empty());
        // a weight past 1 breaks the posterior-mean contract
        reg.check(
            &Observation::ReputationSlot {
                at_ns: 2,
                min_weight: 0.2,
                max_weight: 1.5,
                reports_used: 0,
                eligible_distinct: 0,
            },
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_REPUTATION_SANE);
        assert_eq!(v[0].observed, 1.5);
        // counting more reports than eligible means a quarantined
        // reporter leaked into the quorum
        reg.check(
            &Observation::ReputationSlot {
                at_ns: 3,
                min_weight: 0.2,
                max_weight: 0.9,
                reports_used: 5,
                eligible_distinct: 4,
            },
            &mut v,
        );
        assert_eq!(v.len(), 2);
        assert!(v[1].detail.contains("quarantined"));
    }
}
