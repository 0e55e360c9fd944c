//! Report-channel faults: the long-haul the sensing reports ride can
//! misbehave independently of the reporters themselves.
//!
//! [`crate::sensing`] models reporters that lie, die or dawdle; this
//! module models the *channel* between honest reporters and the fusion
//! center degrading. Two classes cover the physics the LLR fusion
//! ladder must survive:
//!
//! * **SNR collapse** — the whole long-haul loses link budget at once
//!   (rain fade, interferer sweeping the report band): every report
//!   word's noise density is inflated by a common factor for the
//!   episode, eroding decoder confidence cluster-wide;
//! * **phase desync** — one SU's carrier drifts out of the cluster's
//!   phase reference (aging oscillator, failed sync beacon): only that
//!   reporter's realized diversity gain is scaled down, its reports
//!   turning unreliable while the rest stay crisp.
//!
//! Schedules follow the house discipline: one `derive(seed, salt ^
//! unit)` stream per `(class, unit)`, Poisson arrivals, canonical
//! `(time, class, unit)` sort — a pure function of `(config,
//! n_reporters, seed)` at any thread count. Faults scale the noise and
//! gain *after* the channel draws (burn-their-draws), so arming or
//! scaling them never shifts any RNG stream.

use crate::schedule::class_events;
use comimo_sim::time::SimTime;
use serde::Serialize;

const SALT_SNR_COLLAPSE: u64 = 0xFA17_0000_0009;
const SALT_PHASE_DESYNC: u64 = 0xFA17_0000_000A;

/// One concrete report-channel fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReportChannelFaultKind {
    /// The whole long-haul loses `drop_db` of SNR for `duration_s`.
    SnrCollapse {
        /// Link-budget loss while the episode lasts (dB ≥ 0).
        drop_db: f64,
        /// Episode length (s).
        duration_s: f64,
    },
    /// One reporter's diversity gain is scaled by `gain` for
    /// `duration_s` (carrier out of the cluster phase reference).
    PhaseDesync {
        /// Residual coherent gain fraction in `[0, 1]`.
        gain: f64,
        /// Episode length (s).
        duration_s: f64,
    },
}

impl ReportChannelFaultKind {
    /// Canonical sort rank of the class.
    fn class_rank(&self) -> u8 {
        match self {
            Self::SnrCollapse { .. } => 0,
            Self::PhaseDesync { .. } => 1,
        }
    }

    /// Short class label used in rendered traces.
    pub fn label(&self) -> &'static str {
        match self {
            Self::SnrCollapse { .. } => "snr-collapse",
            Self::PhaseDesync { .. } => "phase-desync",
        }
    }
}

/// A report-channel fault scheduled at an absolute simulation time.
/// For [`ReportChannelFaultKind::SnrCollapse`] the `reporter` field is
/// `0` by convention (the episode is cluster-wide).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportChannelFault {
    /// When the fault strikes.
    pub at: SimTime,
    /// Which reporter it strikes (desync) or `0` (collapse).
    pub reporter: usize,
    /// What happens.
    pub kind: ReportChannelFaultKind,
}

/// Arrival rates and episode shapes of the report-channel faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReportChannelFaultConfig {
    /// Horizon the schedule covers (s).
    pub horizon_s: f64,
    /// Cluster-wide SNR collapses per second.
    pub collapse_rate_hz: f64,
    /// Mean collapse duration (s).
    pub collapse_mean_s: f64,
    /// SNR loss during a collapse (dB).
    pub collapse_drop_db: f64,
    /// Phase-desync episodes per reporter per second.
    pub desync_rate_hz: f64,
    /// Mean desync duration (s).
    pub desync_mean_s: f64,
    /// Residual gain fraction of a desynced reporter, in `[0, 1]`.
    pub desync_gain: f64,
}

impl ReportChannelFaultConfig {
    /// No report-channel faults at all: the noisy long-haul must reduce
    /// to its nominal-SNR behavior under this config.
    pub fn disabled(horizon_s: f64) -> Self {
        Self {
            horizon_s,
            collapse_rate_hz: 0.0,
            collapse_mean_s: 6.0,
            collapse_drop_db: 25.0,
            desync_rate_hz: 0.0,
            desync_mean_s: 4.0,
            desync_gain: 0.05,
        }
    }

    /// The sensebench baseline: a 600 s horizon sees a few collapses
    /// and a handful of per-reporter desyncs.
    pub fn nominal(horizon_s: f64) -> Self {
        Self {
            collapse_rate_hz: 0.004,
            desync_rate_hz: 0.01,
            ..Self::disabled(horizon_s)
        }
    }

    /// Scales both arrival rates by `lambda` (durations and magnitudes
    /// unchanged) — the knob the sensebench λ sweep turns.
    pub fn scaled(&self, lambda: f64) -> Self {
        assert!(lambda >= 0.0);
        Self {
            collapse_rate_hz: self.collapse_rate_hz * lambda,
            desync_rate_hz: self.desync_rate_hz * lambda,
            ..*self
        }
    }

    /// Whether every rate is zero (the disabled-faults fast path).
    pub fn is_disabled(&self) -> bool {
        self.collapse_rate_hz == 0.0 && self.desync_rate_hz == 0.0
    }
}

/// Builds the report-channel fault schedule for `n_reporters` under
/// `cfg`, sorted by `(time, class, reporter)` — a pure function of
/// `(cfg, n_reporters, seed)` regardless of feature flags or threads.
pub fn build_report_channel_schedule(
    cfg: &ReportChannelFaultConfig,
    n_reporters: usize,
    seed: u64,
) -> Vec<ReportChannelFault> {
    if cfg.is_disabled() {
        return Vec::new();
    }
    // collapses hit the whole long-haul: one stream, unit 0
    let h = cfg.horizon_s;
    let collapses = class_events(
        seed,
        SALT_SNR_COLLAPSE,
        1,
        cfg.collapse_rate_hz,
        h,
        false,
        |reporter, at, d| ReportChannelFault {
            at,
            reporter,
            kind: ReportChannelFaultKind::SnrCollapse {
                drop_db: cfg.collapse_drop_db,
                duration_s: d * cfg.collapse_mean_s,
            },
        },
    );
    let desyncs = class_events(
        seed,
        SALT_PHASE_DESYNC,
        n_reporters,
        cfg.desync_rate_hz,
        h,
        false,
        |reporter, at, d| ReportChannelFault {
            at,
            reporter,
            kind: ReportChannelFaultKind::PhaseDesync {
                gain: cfg.desync_gain,
                duration_s: d * cfg.desync_mean_s,
            },
        },
    );

    let mut all: Vec<ReportChannelFault> = [collapses, desyncs].concat();
    all.sort_by_key(|e| (e.at, e.kind.class_rank(), e.reporter));
    all
}

/// The report channel's effective condition for one reporter at one
/// instant: how much extra noise and how much coherence loss its next
/// report word sees. Both compose multiplicatively downstream of the
/// channel draws — never shifting a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportChannelState {
    /// Extra noise on the long-haul (dB ≥ 0; `0.0` = nominal).
    pub snr_drop_db: f64,
    /// Coherent gain fraction in `[0, 1]` (`1.0` = in sync).
    pub gain: f64,
}

impl ReportChannelState {
    /// The fault-free channel: nominal SNR, full coherence.
    pub fn nominal() -> Self {
        Self {
            snr_drop_db: 0.0,
            gain: 1.0,
        }
    }
}

/// Queryable view of a report-channel schedule: the channel state each
/// reporter sees at any instant.
#[derive(Debug, Clone)]
pub struct ReportChannelTimeline {
    events: Vec<ReportChannelFault>,
}

impl ReportChannelTimeline {
    /// Indexes a built schedule (any order; queries scan, which is fine
    /// for the handful of episodes a sensing horizon produces).
    pub fn from_schedule(events: &[ReportChannelFault]) -> Self {
        Self {
            events: events.to_vec(),
        }
    }

    /// The channel state `reporter` sees at time `t` (seconds).
    /// Overlapping collapses stack their dB drops; overlapping desyncs
    /// keep the deepest (smallest) gain.
    pub fn state_at(&self, t: f64, reporter: usize) -> ReportChannelState {
        let mut state = ReportChannelState::nominal();
        for e in &self.events {
            let start = e.at.as_secs_f64();
            match e.kind {
                ReportChannelFaultKind::SnrCollapse {
                    drop_db,
                    duration_s,
                } => {
                    if t >= start && t < start + duration_s {
                        state.snr_drop_db += drop_db;
                    }
                }
                ReportChannelFaultKind::PhaseDesync { gain, duration_s } => {
                    if e.reporter == reporter && t >= start && t < start + duration_s {
                        state.gain = state.gain.min(gain);
                    }
                }
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_yields_empty_schedule() {
        let cfg = ReportChannelFaultConfig::disabled(200.0);
        assert!(cfg.is_disabled());
        assert!(build_report_channel_schedule(&cfg, 8, 7).is_empty());
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let cfg = ReportChannelFaultConfig::nominal(600.0);
        let a = build_report_channel_schedule(&cfg, 6, 42);
        let b = build_report_channel_schedule(&cfg, 6, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "600 s at nominal rates must produce faults");
        assert_ne!(a, build_report_channel_schedule(&cfg, 6, 43));
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "canonical sort");
        }
    }

    #[test]
    fn collapses_hit_every_reporter_desyncs_only_their_own() {
        let events = vec![
            ReportChannelFault {
                at: SimTime::from_secs_f64(10.0),
                reporter: 0,
                kind: ReportChannelFaultKind::SnrCollapse {
                    drop_db: 25.0,
                    duration_s: 5.0,
                },
            },
            ReportChannelFault {
                at: SimTime::from_secs_f64(12.0),
                reporter: 3,
                kind: ReportChannelFaultKind::PhaseDesync {
                    gain: 0.05,
                    duration_s: 10.0,
                },
            },
        ];
        let tl = ReportChannelTimeline::from_schedule(&events);
        assert_eq!(tl.state_at(5.0, 0), ReportChannelState::nominal());
        for r in 0..6 {
            assert_eq!(tl.state_at(11.0, r).snr_drop_db, 25.0, "reporter {r}");
        }
        assert_eq!(tl.state_at(13.0, 3).gain, 0.05);
        assert_eq!(tl.state_at(13.0, 2).gain, 1.0);
        // collapse over at 15, desync still running on reporter 3 only
        let s = tl.state_at(16.0, 3);
        assert_eq!(s.snr_drop_db, 0.0);
        assert_eq!(s.gain, 0.05);
        assert_eq!(tl.state_at(23.0, 3), ReportChannelState::nominal());
    }

    #[test]
    fn overlapping_collapses_stack_their_drops() {
        let mk = |at: f64| ReportChannelFault {
            at: SimTime::from_secs_f64(at),
            reporter: 0,
            kind: ReportChannelFaultKind::SnrCollapse {
                drop_db: 10.0,
                duration_s: 8.0,
            },
        };
        let tl = ReportChannelTimeline::from_schedule(&[mk(0.0), mk(4.0)]);
        assert_eq!(tl.state_at(2.0, 1).snr_drop_db, 10.0);
        assert_eq!(tl.state_at(6.0, 1).snr_drop_db, 20.0);
        assert_eq!(tl.state_at(9.0, 1).snr_drop_db, 10.0);
    }

    #[test]
    fn scaling_rates_grows_the_schedule() {
        let base = ReportChannelFaultConfig::nominal(600.0);
        let n_base = build_report_channel_schedule(&base, 6, 5).len();
        let n_hot = build_report_channel_schedule(&base.scaled(4.0), 6, 5).len();
        assert!(n_hot > n_base, "4x rates gave {n_hot} vs {n_base}");
    }
}
