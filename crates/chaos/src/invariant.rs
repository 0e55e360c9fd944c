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
//! simulated slot, event pop, or campaign completion. Each observation
//! variant belongs to exactly one invariant, so
//! [`InvariantRegistry::check`] is one `match` on the variant whose arms
//! are the eleven checks. They produce
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

/// One fact the chaos world observed. Each variant is checked by exactly
/// one invariant, the one that owns it.
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
        /// The rung that decided
        /// ([`comimo_sensing::fusion::RuleUsed::rung_index`] encoding:
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

/// Number of paper invariants. Every [`InvariantRegistry::check`] consults
/// all of them, so a run's check count is observations × `N_INVARIANTS`.
pub const N_INVARIANTS: usize = 11;

/// One row of the invariant listing (`chaos list-invariants`).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantInfo {
    /// Stable ID (`INV-…`), the key artifacts and CLIs refer to.
    pub id: &'static str,
    /// Human-readable bound, with the armed numeric values.
    pub bound: String,
    /// Paper equation / section this encodes.
    pub paper_ref: &'static str,
    /// The code paths this invariant guards.
    pub guards: &'static str,
}

/// The eleven paper invariants, armed at one set of [`InvariantBounds`].
/// Every checker (chaos explorer, faultbench, tests) consults one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantRegistry {
    bounds: InvariantBounds,
}

impl InvariantRegistry {
    /// The eleven paper invariants at their true bounds.
    pub fn paper() -> Self {
        Self::with_bounds(InvariantBounds::paper())
    }

    /// The eleven paper invariants at explicit (possibly weakened) bounds.
    pub fn with_bounds(bounds: InvariantBounds) -> Self {
        Self { bounds }
    }

    /// The eleven invariants in check order, bounds rendered with the
    /// armed values.
    pub fn invariants(&self) -> [InvariantInfo; N_INVARIANTS] {
        let b = &self.bounds;
        let row = |id, bound, paper_ref, guards| InvariantInfo {
            id,
            bound,
            paper_ref,
            guards,
        };
        [
            row(
                INV_EPA_CEILING,
                format!(
                    "every slot: muted, or margin_db ≥ {:.3} dB",
                    b.epa_margin_floor_db
                ),
                "Sec. 4, E_PA = max(e_PA^Lt, mt·e_PA^MIMOt) under the primary noise floor",
                "comimo-core Underlay::degrade / fallback_chain rung admission",
            ),
            row(
                INV_NULL_DEPTH,
                format!(
                    "transmitting slots: PU-free channel and null residual ≤ {:e}",
                    b.null_residual_max
                ),
                "Sec. 5, null delay δ = π(2r·cos α/w − 1); interweave channel discipline",
                "comimo-core ClusterBeamformer::repair / steer; interweave channel pick",
            ),
            row(
                INV_DEGRADE_POWER,
                format!(
                    "feasible bursts: overdraw ≤ {:.9}; infeasible bursts must fall back direct",
                    b.overdraw_max
                ),
                "Sec. 3, per-SU energy budget E1 of the relayed burst",
                "comimo-core Overlay::degrade re-weighting and direct-link fallback",
            ),
            row(
                INV_EVENTQ_TIME,
                "event pops never move the clock backwards".into(),
                "discrete-event engine contract that recruitment, fault injection and chaos replay rely on",
                "comimo-sim ShardedEventQueue::pop ordering",
            ),
            row(
                INV_CKPT_COUNTS,
                "completed campaigns merge exactly the oracle's (bits, errors)".into(),
                "campaign determinism contract: counts are a pure function of (seed, shard)",
                "comimo-campaign run_campaign merge, retry and quarantine accounting",
            ),
            row(
                INV_MISSED_DETECT_BUDGET,
                format!(
                    "missed-detection streak ≤ {} slot(s)",
                    b.missed_detect_budget
                ),
                "cooperative-sensing contract: a returning primary is detected within one slot, \
                 then a back-off slot re-senses before radiating again",
                "comimo-sensing run_round_byz fusion ladder; chaos-world sensing stage and post-miss back-off",
            ),
            row(
                INV_FUSION_QUORUM,
                format!(
                    "non-head-local decisions: reports_used ≥ quorum ≥ {}",
                    b.fusion_quorum_min
                ),
                "decision-fusion degradation ladder: k re-derived from arrived reports, \
                 OR fallback below min_quorum, head-local at zero",
                "comimo-sensing fuse / quorum_of; comimo-net report transport accounting",
            ),
            row(
                INV_REPORT_EPA,
                format!(
                    "transmitted report words: clamping rung margin ≥ {:.3} dB",
                    b.report_epa_floor_db
                ),
                "Sec. 3/4: sensing report words reuse the underlay E_PA ceiling of the data long-haul",
                "comimo-stbc ReportWordConfig::clamp_es; chaos-world report-word power account",
            ),
            row(
                INV_LLR_DEGRADE_ORDER,
                "every fused decision lands on exactly the first eligible rung".into(),
                "soft-fusion degradation ladder: weighted LLR → hard decode → OR fallback → \
                 head local, first eligible rung decides",
                "comimo-sensing fuse_soft_weighted rung selection and LadderEvidence accounting",
            ),
            row(
                INV_BYZ_CONTAINMENT,
                format!(
                    "≤ f adversaries after reputation convergence: missed-detection streak ≤ {} slot(s)",
                    b.byz_missed_budget
                ),
                "Sec. 5 sensing contract under SSDF: with f = ⌊(n−1)/3⌋ falsifiers the fused \
                 verdict still detects a returning primary within the slotted budget",
                "comimo-sensing fuse_soft_weighted + ReputationTracker quarantine; chaos-world \
                 Byzantine cast and sensing stage",
            ),
            row(
                INV_REPUTATION_SANE,
                "weights ∈ [0, 1]; fused reports_used ≤ distinct eligible reports".into(),
                "Beta-posterior trust contract: weights are posterior means in [0, 1]; \
                 quarantined reporters are dropped before quorum-k re-derivation",
                "comimo-sensing ReputationTracker / ReputationView; fuse_* eligibility filtering",
            ),
        ]
    }

    /// Checks `obs` against the one invariant that owns its variant,
    /// appending a violation to `out` if it breaks. Returns the number of
    /// invariant checks consulted, [`N_INVARIANTS`] per observation (for
    /// check-count accounting: "how hard did we look").
    pub fn check(&self, obs: &Observation, out: &mut Vec<Violation>) -> u64 {
        out.extend(self.breach(obs));
        N_INVARIANTS as u64
    }

    /// The violation `obs` makes, if any.
    fn breach(&self, obs: &Observation) -> Option<Violation> {
        let b = &self.bounds;
        let (invariant, at_ns, observed, bound, detail) = match *obs {
            // INV-EPA-CEILING, checked on EVERY underlay slot, transmitting
            // or muted: a muted slot radiates nothing, so the ceiling holds
            // trivially — but the check still runs, which is what "every
            // slot" means.
            Observation::UnderlaySlot {
                at_ns,
                transmitting,
                mt,
                mr,
                margin_db,
            } => {
                let floor = b.epa_margin_floor_db;
                if !(transmitting && margin_db < floor) {
                    return None;
                }
                (
                    INV_EPA_CEILING,
                    at_ns,
                    margin_db,
                    floor,
                    format!(
                        "underlay transmitted on the {mt}x{mr} rung with noise-floor margin \
                         {margin_db:.6} dB < floor {floor:.6} dB"
                    ),
                )
            }
            Observation::InterweaveSlot {
                at_ns,
                transmitting,
                channel,
                pu_active,
                null_residual,
            } => {
                let max = b.null_residual_max;
                if transmitting && pu_active {
                    (
                        INV_NULL_DEPTH,
                        at_ns,
                        1.0,
                        0.0,
                        format!(
                            "interweave transmitted on channel {channel} while its primary was \
                             active"
                        ),
                    )
                } else if transmitting && null_residual > max {
                    (
                        INV_NULL_DEPTH,
                        at_ns,
                        null_residual,
                        max,
                        format!(
                            "steered-null residual {null_residual:e} > {max:e} at the protected \
                             primary (channel {channel})"
                        ),
                    )
                } else {
                    return None;
                }
            }
            Observation::OverlaySlot {
                at_ns,
                survivors,
                overdraw,
                claims_feasible,
                fallback_direct,
            } => {
                let max = b.overdraw_max;
                let detail = if claims_feasible && overdraw > max {
                    format!(
                        "overlay claimed a feasible burst on {survivors} survivors with energy \
                         overdraw {overdraw:.9} > {max:.9}"
                    )
                } else if !claims_feasible && !fallback_direct {
                    format!(
                        "overlay burst infeasible on {survivors} survivors (overdraw \
                         {overdraw:.9}) but did not fall back to the direct link"
                    )
                } else {
                    return None;
                };
                (INV_DEGRADE_POWER, at_ns, overdraw, max, detail)
            }
            Observation::EventPop { prev_ns, now_ns } => {
                if now_ns >= prev_ns {
                    return None;
                }
                (
                    INV_EVENTQ_TIME,
                    now_ns,
                    now_ns as f64,
                    prev_ns as f64,
                    format!("event queue popped t={now_ns} ns after t={prev_ns} ns"),
                )
            }
            Observation::CampaignCounts {
                at_ns,
                bits,
                errors,
                expected_bits,
                expected_errors,
            } => {
                if bits == expected_bits && errors == expected_errors {
                    return None;
                }
                (
                    INV_CKPT_COUNTS,
                    at_ns,
                    bits as f64,
                    expected_bits as f64,
                    format!(
                        "campaign merged ({bits} bits, {errors} errors) but the seed oracle \
                         predicts ({expected_bits} bits, {expected_errors} errors)"
                    ),
                )
            }
            Observation::SensingSlot {
                at_ns,
                missed_streak,
            } => {
                let budget = b.missed_detect_budget;
                if missed_streak <= budget {
                    return None;
                }
                (
                    INV_MISSED_DETECT_BUDGET,
                    at_ns,
                    f64::from(missed_streak),
                    f64::from(budget),
                    format!(
                        "cluster radiated into an active primary for {missed_streak} consecutive \
                         slot(s), budget {budget}"
                    ),
                )
            }
            Observation::FusionDecision {
                at_ns,
                reports_used,
                quorum,
                head_local,
            } => {
                let min = b.fusion_quorum_min;
                // the head deciding alone fuses nothing; quorum accounting
                // does not apply
                if head_local {
                    return None;
                } else if reports_used < quorum {
                    (
                        INV_FUSION_QUORUM,
                        at_ns,
                        reports_used as f64,
                        quorum as f64,
                        format!(
                            "fused a decision over {reports_used} arrived report(s) against a \
                             quorum of {quorum}"
                        ),
                    )
                } else if quorum < min {
                    (
                        INV_FUSION_QUORUM,
                        at_ns,
                        quorum as f64,
                        min as f64,
                        format!(
                            "a fused rung decided with quorum {quorum} < configured minimum {min}"
                        ),
                    )
                } else {
                    return None;
                }
            }
            // INV-REPORT-EPA mirrors INV-EPA-CEILING's shape: an
            // untransmitted slot radiates nothing, so the ceiling holds
            // trivially — but the check still runs every slot
            Observation::ReportLongHaul {
                at_ns,
                transmitted,
                margin_db,
                mt,
            } => {
                let floor = b.report_epa_floor_db;
                if !(transmitted && margin_db < floor) {
                    return None;
                }
                (
                    INV_REPORT_EPA,
                    at_ns,
                    margin_db,
                    floor,
                    format!(
                        "sensing report words radiated on a {mt}-antenna long-haul whose \
                         clamping rung margin {margin_db:.6} dB < floor {floor:.6} dB"
                    ),
                )
            }
            Observation::FusionLadder {
                at_ns,
                weighted,
                rung,
                n_reports,
                min_quorum,
                mean_confidence,
                reliability_floor,
                ..
            } => {
                let expected =
                    first_eligible_rung(n_reports, min_quorum, mean_confidence, reliability_floor);
                if rung == expected {
                    return None;
                }
                (
                    INV_LLR_DEGRADE_ORDER,
                    at_ns,
                    f64::from(rung),
                    f64::from(expected),
                    format!(
                        "fusion decided on rung {rung} but the evidence (weighted={weighted}, \
                         n={n_reports}, min_quorum={min_quorum}, \
                         confidence={mean_confidence:.4}, floor={reliability_floor:.4}) makes \
                         rung {expected} the first eligible"
                    ),
                )
            }
            Observation::ByzContainment {
                at_ns,
                n_adversaries,
                f_max,
                converged,
                missed_streak,
            } => {
                // containment is only promised inside the tolerance bound
                // and after the trust posteriors have had time to converge
                // — the cold-start window is the median guard's problem,
                // and > f adversaries is outside the paper's contract
                let budget = b.byz_missed_budget;
                if !converged || n_adversaries > f_max || missed_streak <= budget {
                    return None;
                }
                (
                    INV_BYZ_CONTAINMENT,
                    at_ns,
                    f64::from(missed_streak),
                    f64::from(budget),
                    format!(
                        "with {n_adversaries} adversary(ies) ≤ f = {f_max} and converged \
                         reputation, the cluster radiated into an active primary for \
                         {missed_streak} consecutive slot(s), budget {budget}"
                    ),
                )
            }
            Observation::ReputationSlot {
                at_ns,
                min_weight,
                max_weight,
                reports_used,
                eligible_distinct,
            } => {
                if !(0.0..=1.0).contains(&min_weight) || !(0.0..=1.0).contains(&max_weight) {
                    (
                        INV_REPUTATION_SANE,
                        at_ns,
                        if min_weight < 0.0 {
                            min_weight
                        } else {
                            max_weight
                        },
                        1.0,
                        format!(
                            "trust weights left the Beta-posterior range: min {min_weight:.6}, \
                             max {max_weight:.6} outside [0, 1]"
                        ),
                    )
                } else if reports_used > eligible_distinct {
                    (
                        INV_REPUTATION_SANE,
                        at_ns,
                        reports_used as f64,
                        eligible_distinct as f64,
                        format!(
                            "fusion counted {reports_used} report(s) toward its quorum but only \
                             {eligible_distinct} distinct non-quarantined report(s) arrived — a \
                             quarantined reporter was counted"
                        ),
                    )
                } else {
                    return None;
                }
            }
        };
        Some(Violation {
            invariant,
            at_ns,
            observed,
            bound,
            detail,
        })
    }
}

/// The first rung the ladder evidence makes eligible — a deliberate
/// re-derivation (not a call into `fuse_soft_weighted`) so a fusion-side
/// rung-skipping bug cannot hide behind its own bookkeeping.
fn first_eligible_rung(n: usize, min_quorum: usize, mean_confidence: f64, floor: f64) -> u8 {
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

#[cfg(test)]
mod tests {
    use super::*;

    const IDS: [&str; N_INVARIANTS] = [
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
    ];

    /// Checks every observation, asserting each consults all eleven
    /// invariants, and returns what fired.
    fn fired(reg: &InvariantRegistry, obs: &[Observation]) -> Vec<Violation> {
        let mut v = Vec::new();
        for o in obs {
            assert_eq!(reg.check(o, &mut v), N_INVARIANTS as u64);
        }
        v
    }

    fn underlay(transmitting: bool, margin_db: f64) -> Observation {
        Observation::UnderlaySlot {
            at_ns: 20,
            transmitting,
            mt: 2,
            mr: 3,
            margin_db,
        }
    }

    fn interweave(transmitting: bool, pu_active: bool, null_residual: f64) -> Observation {
        Observation::InterweaveSlot {
            at_ns: 5,
            transmitting,
            channel: 2,
            pu_active,
            null_residual,
        }
    }

    fn overlay(overdraw: f64, claims_feasible: bool, fallback_direct: bool) -> Observation {
        Observation::OverlaySlot {
            at_ns: 1,
            survivors: 2,
            overdraw,
            claims_feasible,
            fallback_direct,
        }
    }

    fn pop(prev_ns: u64, now_ns: u64) -> Observation {
        Observation::EventPop { prev_ns, now_ns }
    }

    fn counts(errors: u64, expected_errors: u64) -> Observation {
        Observation::CampaignCounts {
            at_ns: 0,
            bits: 4096,
            errors,
            expected_bits: 4096,
            expected_errors,
        }
    }

    fn sensing(missed_streak: u32) -> Observation {
        Observation::SensingSlot {
            at_ns: 3,
            missed_streak,
        }
    }

    fn fusion(reports_used: usize, quorum: usize, head_local: bool) -> Observation {
        Observation::FusionDecision {
            at_ns: 2,
            reports_used,
            quorum,
            head_local,
        }
    }

    fn report(transmitted: bool, margin_db: f64) -> Observation {
        Observation::ReportLongHaul {
            at_ns: 4,
            transmitted,
            margin_db,
            mt: 2,
        }
    }

    fn ladder(weighted: bool, rung: u8, n_reports: usize, conf: f64, floor: f64) -> Observation {
        Observation::FusionLadder {
            at_ns: 6,
            soft_path: floor.is_finite(),
            weighted,
            rung,
            n_reports,
            min_quorum: 2,
            mean_confidence: conf,
            reliability_floor: floor,
        }
    }

    fn byz(n_adversaries: usize, converged: bool, missed_streak: u32) -> Observation {
        Observation::ByzContainment {
            at_ns: 8,
            n_adversaries,
            f_max: 2,
            converged,
            missed_streak,
        }
    }

    fn reputation(min_weight: f64, max_weight: f64, used: usize, eligible: usize) -> Observation {
        Observation::ReputationSlot {
            at_ns: 9,
            min_weight,
            max_weight,
            reports_used: used,
            eligible_distinct: eligible,
        }
    }

    #[test]
    fn paper_listing_has_the_eleven_stable_ids_in_check_order() {
        let rows = InvariantRegistry::paper().invariants();
        assert_eq!(rows.each_ref().map(|r| r.id), IDS);
        for r in &rows {
            assert!(!r.bound.is_empty(), "{}", r.id);
            assert!(!r.paper_ref.is_empty(), "{}", r.id);
            assert!(!r.guards.is_empty(), "{}", r.id);
        }
    }

    #[test]
    fn each_violating_observation_fires_exactly_its_owner() {
        // (observation, owning invariant, observed, bound, detail excerpt):
        // every variant at least once, every breach branch once
        let cases = [
            (underlay(true, -0.5), INV_EPA_CEILING, -0.5, 0.0, "2x3 rung"),
            (
                interweave(true, true, 0.0),
                INV_NULL_DEPTH,
                1.0,
                0.0,
                "was active",
            ),
            (
                interweave(true, false, 1e-3),
                INV_NULL_DEPTH,
                1e-3,
                1e-6,
                "residual 1e-3",
            ),
            (
                overlay(1.5, true, false),
                INV_DEGRADE_POWER,
                1.5,
                1.0 + 1e-9,
                "claimed",
            ),
            (
                overlay(3.0, false, false),
                INV_DEGRADE_POWER,
                3.0,
                1.0 + 1e-9,
                "fall back",
            ),
            (
                pop(10, 9),
                INV_EVENTQ_TIME,
                9.0,
                10.0,
                "t=9 ns after t=10 ns",
            ),
            (counts(8, 7), INV_CKPT_COUNTS, 4096.0, 4096.0, "8 errors"),
            (sensing(2), INV_MISSED_DETECT_BUDGET, 2.0, 1.0, "budget 1"),
            (
                fusion(2, 3, false),
                INV_FUSION_QUORUM,
                2.0,
                3.0,
                "quorum of 3",
            ),
            (
                fusion(1, 0, false),
                INV_FUSION_QUORUM,
                0.0,
                1.0,
                "minimum 1",
            ),
            (report(true, -0.25), INV_REPORT_EPA, -0.25, 0.0, "2-antenna"),
            (
                ladder(true, 1, 5, 0.9, 0.65),
                INV_LLR_DEGRADE_ORDER,
                1.0,
                0.0,
                "rung 0 the",
            ),
            (byz(2, true, 2), INV_BYZ_CONTAINMENT, 2.0, 1.0, "f = 2"),
            (
                reputation(0.2, 1.5, 0, 0),
                INV_REPUTATION_SANE,
                1.5,
                1.0,
                "Beta-posterior",
            ),
            (
                reputation(-0.1, 0.9, 0, 0),
                INV_REPUTATION_SANE,
                -0.1,
                1.0,
                "min -0.1",
            ),
            (
                reputation(0.2, 0.9, 5, 4),
                INV_REPUTATION_SANE,
                5.0,
                4.0,
                "quarantined",
            ),
        ];
        assert!(IDS.iter().all(|id| cases.iter().any(|c| c.1 == *id)));
        let reg = InvariantRegistry::paper();
        for (obs, id, observed, bound, excerpt) in cases {
            let v = fired(&reg, std::slice::from_ref(&obs));
            assert_eq!(v.len(), 1, "{obs:?}: {v:?}");
            assert_eq!(v[0].invariant, id);
            assert_eq!(v[0].at_ns, obs.at_ns());
            assert_eq!((v[0].observed, v[0].bound), (observed, bound), "{id}");
            assert!(v[0].detail.contains(excerpt), "{id}: {}", v[0].detail);
        }
    }

    #[test]
    fn observations_inside_the_paper_bounds_hold() {
        let reg = InvariantRegistry::paper();
        let v = fired(
            &reg,
            &[
                // a muted slot radiates nothing, however bad the margin
                underlay(false, -40.0),
                interweave(false, true, 9.0),
                overlay(1.0, true, false),
                overlay(3.0, false, true),
                pop(10, 10),
                counts(7, 7),
                // a single missed slot is within the paper budget of 1
                sensing(1),
                fusion(5, 3, false),
                // head-local decisions are exempt even with zero reports
                fusion(5, 3, true),
                fusion(0, 0, true),
                report(false, -20.0),
                report(true, 4.2),
                byz(2, true, 1),
                // cold start and an over-tolerance cast are outside the
                // containment contract, however long the streak
                byz(2, false, 7),
                byz(3, true, 7),
                reputation(0.2, 0.9, 4, 5),
            ],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn llr_degrade_order_recomputes_the_first_eligible_rung() {
        let reg = InvariantRegistry::paper();
        // every legitimate rung in ladder order holds
        let legitimate = fired(
            &reg,
            &[
                ladder(true, 0, 5, 0.9, 0.65),  // view held, confident quorum → soft
                ladder(false, 0, 5, 0.9, 0.65), // no view, confident quorum → soft
                ladder(false, 1, 5, 0.3, 0.65), // shaky quorum → hard decode
                ladder(false, 1, 5, 1.0, f64::INFINITY), // no soft rung → hard decode
                ladder(false, 2, 1, 0.9, 0.65), // sub-quorum → OR fallback
                ladder(false, 2, 1, 1.0, f64::INFINITY),
                ladder(false, 3, 0, 0.0, 0.65), // empty → head local
            ],
        );
        assert!(legitimate.is_empty(), "{legitimate:?}");
        let v = fired(
            &reg,
            &[
                // skipping the soft rung on a confident quorum fires
                ladder(true, 1, 5, 0.9, 0.65),
                // so does jumping straight to head-local with reports in hand
                ladder(false, 3, 1, 1.0, f64::INFINITY),
                // and a confident quorum that lands on the hard rung
                ladder(false, 1, 5, 1.0, 0.65),
            ],
        );
        assert!(v.iter().all(|x| x.invariant == INV_LLR_DEGRADE_ORDER));
        assert_eq!(
            v.iter().map(|x| x.bound).collect::<Vec<_>>(),
            [0.0, 2.0, 0.0]
        );
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
        let v = fired(
            &weak,
            &[
                // a margin fine at the paper floor breaks a +3 dB floor
                underlay(true, 1.0),
                // a perfect null breaks a negative residual bound
                interweave(true, false, 0.0),
                // one missed slot — fine at the paper budget — breaks budget 0
                sensing(1),
                // an OR-fallback quorum of 1 breaks a raised quorum minimum
                fusion(1, 1, false),
                // a report word fine at the paper floor breaks a +5 dB floor
                report(true, 2.0),
                // a one-slot miss under a converged, ≤ f adversary cast —
                // within the paper containment budget — breaks a zero budget
                byz(1, true, 1),
            ],
        );
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn weakened_bounds_render_into_the_bound_texts() {
        let weak = InvariantRegistry::with_bounds(InvariantBounds {
            epa_margin_floor_db: 9.42,
            null_residual_max: 0.25,
            overdraw_max: 0.5,
            missed_detect_budget: 0,
            fusion_quorum_min: 4,
            report_epa_floor_db: 7.5,
            byz_missed_budget: 3,
        })
        .invariants();
        let bound = |id: &str| &weak.iter().find(|r| r.id == id).unwrap().bound;
        assert_eq!(
            bound(INV_EPA_CEILING),
            "every slot: muted, or margin_db ≥ 9.420 dB"
        );
        assert!(bound(INV_NULL_DEPTH).ends_with("null residual ≤ 2.5e-1"));
        assert!(bound(INV_DEGRADE_POWER).contains("overdraw ≤ 0.500000000;"));
        assert_eq!(
            bound(INV_MISSED_DETECT_BUDGET),
            "missed-detection streak ≤ 0 slot(s)"
        );
        assert!(bound(INV_FUSION_QUORUM).ends_with("≥ quorum ≥ 4"));
        assert!(bound(INV_REPORT_EPA).ends_with("margin ≥ 7.500 dB"));
        assert!(bound(INV_BYZ_CONTAINMENT).ends_with("streak ≤ 3 slot(s)"));
        // the rows without a numeric bound read the same at any bounds
        let bound_free = [
            INV_EVENTQ_TIME,
            INV_CKPT_COUNTS,
            INV_LLR_DEGRADE_ORDER,
            INV_REPUTATION_SANE,
        ];
        let paper = InvariantRegistry::paper().invariants();
        for (w, p) in weak.iter().zip(&paper) {
            assert_eq!(w.bound == p.bound, bound_free.contains(&w.id), "{}", w.id);
        }
    }
}
