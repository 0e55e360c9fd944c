//! # comimo-faults
//!
//! Deterministic fault injection for the paper's three cognitive-radio
//! paradigms. The paper analyses the failure-free steady state; this
//! crate describes how the network misbehaves mid-operation — the fault
//! taxonomy, seeded schedules and their timelines. The chaos world
//! (`comimo-chaos`) drives the paradigms' degradation policies through
//! them and checks that no failure mode disturbs a primary receiver.
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
//! * [`timeline`] — a schedule unrolled onto the time axis: nodes out,
//!   primaries back on their channels and lossy broadcast, queryable per
//!   slot. The chaos world (`comimo-chaos`) walks the three paradigms'
//!   degradation ladders over it;
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
pub mod schedule;
pub mod sensing;
pub mod timeline;

pub use byzantine::{assign_roles, ByzantineConfig, ByzantineRole, ByzantineSuite, ReportOverride};
pub use campaign::CampaignFaultPlan;
pub use injector::{inject_all, FaultTrace, TraceEntry};
pub use model::{FaultConfig, FaultEvent, FaultKind, Topology};
pub use report_channel::{
    build_report_channel_schedule, ReportChannelFault, ReportChannelFaultConfig,
    ReportChannelFaultKind, ReportChannelState, ReportChannelTimeline,
};
pub use schedule::build_schedule;
pub use sensing::{
    build_reporter_schedule, ReporterFaultConfig, ReporterFaultEvent, ReporterFaultKind,
    ReporterState, ReporterTimeline,
};
pub use timeline::Timeline;
