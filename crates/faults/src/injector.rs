//! The injector: replays a fault schedule through the discrete-event
//! queue and records what the system under test did about each fault.
//!
//! The trace is the determinism witness: `render()` produces a stable
//! text form that CI diffs across thread counts and feature configs.

use crate::model::{FaultEvent, FaultKind};
use comimo_sim::{ShardedEventQueue, SimTime};
use serde::Serialize;

/// One fault and the degradation action taken in response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEntry {
    /// Fault time (integer ns — exact, so traces compare with `==`).
    pub at_ns: u64,
    /// Fault class label.
    pub fault: String,
    /// Unit hit.
    pub unit: usize,
    /// What the degradation policy did (scenario-provided).
    pub action: String,
}

/// The ordered record of an injection run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultTrace {
    /// Entries in injection order.
    pub entries: Vec<TraceEntry>,
}

impl FaultTrace {
    /// Stable one-line-per-fault text form for CI diffing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{:>15}ns {:<14} unit={:<3} {}\n",
                e.at_ns, e.fault, e.unit, e.action
            ));
        }
        out
    }

    /// Number of faults injected.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no fault fired.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Loads `schedule` into a one-shard [`ShardedEventQueue`] and pops it in
/// `(time, schedule order)`, calling `handler` for each fault. The
/// handler returns the action string recorded in the trace — the chaos
/// world's degradation walk puts its decision there ("re-weighted MISO to 2
/// survivors", "muted: no admissible rung", ...).
pub fn inject_all(
    schedule: &[FaultEvent],
    mut handler: impl FnMut(SimTime, &FaultKind) -> String,
) -> FaultTrace {
    let mut q: ShardedEventQueue<FaultKind> = ShardedEventQueue::new(1);
    for ev in schedule {
        q.schedule_at(0, ev.at, 0, ev.kind);
    }
    let mut trace = FaultTrace::default();
    while let Some((key, kind)) = q.pop() {
        let action = handler(key.at, &kind);
        trace.entries.push(TraceEntry {
            at_ns: key.at.as_nanos(),
            fault: kind.label().to_string(),
            unit: kind.unit(),
            action,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FaultConfig, Topology};
    use crate::schedule::build_schedule;

    #[test]
    fn injection_preserves_schedule_order() {
        let topo = Topology {
            n_nodes: 6,
            n_channels: 2,
            n_clusters: 2,
        };
        let sched = build_schedule(&FaultConfig::nominal(300.0), &topo, 3);
        let trace = inject_all(&sched, |_, k| k.label().to_string());
        assert_eq!(trace.len(), sched.len());
        for (entry, ev) in trace.entries.iter().zip(&sched) {
            assert_eq!(entry.at_ns, ev.at.as_nanos());
            assert_eq!(entry.fault, ev.kind.label());
        }
    }

    #[test]
    fn render_is_stable_and_line_per_fault() {
        let topo = Topology {
            n_nodes: 4,
            n_channels: 1,
            n_clusters: 1,
        };
        let sched = build_schedule(&FaultConfig::nominal(200.0), &topo, 8);
        let t1 = inject_all(&sched, |_, _| "noted".into());
        let t2 = inject_all(&sched, |_, _| "noted".into());
        assert_eq!(t1, t2);
        assert_eq!(t1.render().lines().count(), t1.len());
    }
}
