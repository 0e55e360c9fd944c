//! # comimo-faults
//!
//! Deterministic fault injection and graceful degradation for the
//! paper's three cognitive-radio paradigms. The paper analyses the
//! failure-free steady state; this crate asks what each paradigm does
//! when the network misbehaves mid-operation — and proves the one thing
//! a cognitive radio must never do (disturb a primary receiver) holds
//! through every failure mode.
//!
//! * [`campaign`] — deterministic fault plans for the Monte-Carlo
//!   campaign supervisor (`comimo-campaign`): shard-execution panics and
//!   checkpoint-IO errors as pure functions of `(seed, shard, attempt)`;
//! * [`model`] — the fault taxonomy: relay death, PU return, deep
//!   shadowing bursts, lossy intra-cluster broadcast, with per-class
//!   Poisson rates ([`model::FaultConfig`]);
//! * [`schedule`] — deterministic schedules, one `derive(seed, unit)`
//!   stream per `(class, unit)` so any thread count produces the same
//!   byte-for-byte event list;
//! * [`injector`] — replay through the `comimo-sim` event queue,
//!   recording a [`injector::FaultTrace`] that CI diffs across feature
//!   configs and thread counts;
//! * [`scenarios`] — slotted campaigns wiring the degradation policies
//!   of `comimo-core` (overlay re-weighting, the underlay fallback
//!   ladder, interweave re-pairing and evacuation) and the recruitment
//!   protocol of `comimo-net` into degradation reports, each carrying
//!   the primary-interference invariant verdict;
//! * [`sensing`] — reporter faults for the cooperative sensing path:
//!   stuck-at-H0/H1 detectors, silent reporter death and delayed
//!   reports, on the same split-stream schedule discipline;
//! * [`report_channel`] — faults of the long-haul the sensing reports
//!   ride: cluster-wide SNR collapse and per-SU phase desync, scaling
//!   noise and coherence *after* the channel draws so schedules never
//!   shift an RNG stream;
//! * [`byzantine`] — deterministic SSDF adversaries (always-yes,
//!   always-no, p-flip, lockstep coalition) whose falsifications
//!   override report payloads downstream of every draw.

pub mod byzantine;
pub mod campaign;
pub mod injector;
pub mod model;
pub mod report_channel;
pub mod scenarios;
pub mod schedule;
pub mod sensing;

pub use byzantine::{assign_roles, ByzantineConfig, ByzantineRole, ByzantineSuite, ReportOverride};
pub use campaign::CampaignFaultPlan;
pub use injector::{inject_all, FaultTrace, TraceEntry};
pub use model::{FaultConfig, FaultEvent, FaultKind, Topology};
pub use report_channel::{
    build_report_channel_schedule, ReportChannelFault, ReportChannelFaultConfig,
    ReportChannelFaultKind, ReportChannelState, ReportChannelTimeline,
};
pub use scenarios::{
    beam_positions, run_interweave_scenario, run_overlay_scenario, run_recruitment_scenario,
    run_underlay_scenario, DegradationReport, RecruitReport, ScenarioConfig, Timeline,
};
pub use schedule::build_schedule;
pub use sensing::{
    build_reporter_schedule, ReporterFaultConfig, ReporterFaultEvent, ReporterFaultKind,
    ReporterState, ReporterTimeline,
};
