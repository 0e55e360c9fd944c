//! Fault-trace shrinking: classic delta debugging (ddmin) over the event
//! schedule.
//!
//! Given a schedule that makes an invariant fire, ddmin searches for a
//! 1-minimal sub-schedule that still fires it: removing any single
//! remaining event makes the violation disappear. Because
//! [`crate::world::run_events`] is a pure function of `(config, events)`,
//! the predicate is exactly "re-run the world on the candidate subset" —
//! no state leaks between probes, so the minimized trace replays
//! identically forever.

use crate::invariant::InvariantRegistry;
use crate::world::ChaosWorld;
use comimo_faults::FaultEvent;

/// Outcome of a shrink: the minimal trace plus how hard ddmin worked.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// A 1-minimal schedule that still fires the invariant.
    pub minimized: Vec<FaultEvent>,
    /// World re-runs the search spent.
    pub probes: u64,
}

/// Shrinks `events` to a 1-minimal schedule on which `invariant_id` still
/// fires under `reg`, re-running the world once per candidate, one
/// candidate after another. Takes a prebuilt [`ChaosWorld`] so the
/// config-derived analyses are paid for once, not once per probe.
///
/// If the invariant fires on the *empty* schedule (a weakened bound can
/// break fault-free worlds), the minimum is the empty trace and no search
/// runs.
pub fn ddmin(
    world: &ChaosWorld,
    events: &[FaultEvent],
    invariant_id: &str,
    reg: &InvariantRegistry,
) -> ShrinkResult {
    let probes = std::cell::Cell::new(0u64);
    let fires = |subset: &[FaultEvent]| {
        probes.set(probes.get() + 1);
        world
            .run(subset, reg)
            .violations
            .iter()
            .any(|v| v.invariant == invariant_id)
    };

    if fires(&[]) {
        return ShrinkResult {
            minimized: Vec::new(),
            probes: probes.get(),
        };
    }
    debug_assert!(
        {
            let on_full = fires(events);
            probes.set(probes.get() - 1); // accounting: the debug probe is free
            on_full
        },
        "ddmin precondition: the full schedule must fire {invariant_id}"
    );

    let mut current: Vec<FaultEvent> = events.to_vec();
    let mut n = 2usize.min(current.len().max(1));
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let chunks = |i: usize| {
            let lo = i * chunk;
            let hi = (lo + chunk).min(current.len());
            (lo, hi)
        };

        // try each subset (one chunk alone)
        let firing_subset = (0..n)
            .map(chunks)
            .filter(|&(lo, hi)| lo < hi)
            .find(|&(lo, hi)| fires(&current[lo..hi]));
        if let Some((lo, hi)) = firing_subset {
            current = current[lo..hi].to_vec();
            n = 2;
            continue;
        }

        // try each complement (everything but one chunk)
        if n > 2 {
            let firing_complement = (0..n)
                .map(chunks)
                .filter(|&(lo, hi)| lo < hi)
                .map(|(lo, hi)| {
                    let mut complement = Vec::with_capacity(current.len() - (hi - lo));
                    complement.extend_from_slice(&current[..lo]);
                    complement.extend_from_slice(&current[hi..]);
                    complement
                })
                .find(|c| fires(c));
            if let Some(complement) = firing_complement {
                current = complement;
                n = (n - 1).max(2);
                continue;
            }
        }

        // nothing helped at this granularity: refine or stop
        if n >= current.len() {
            break;
        }
        n = (2 * n).min(current.len());
    }

    ShrinkResult {
        minimized: current,
        probes: probes.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::{InvariantBounds, INV_EPA_CEILING, INV_NULL_DEPTH};
    use crate::world::ChaosConfig;
    use comimo_channel::pathloss::SquareLawLongHaul;
    use comimo_core::underlay::{Underlay, UnderlayConfig};
    use comimo_energy::model::EnergyModel;
    use comimo_faults::FaultKind;
    use comimo_sim::time::SimTime;

    /// A margin floor sitting between the full 4x3 rung's margin and the
    /// 3-transmitter degraded rung's: the world only violates it once a
    /// relay death forces the degraded rung. Computed from the model, not
    /// hard-coded, so it tracks the energy constants.
    fn floor_between_full_and_degraded(cfg: &ChaosConfig) -> f64 {
        let model = EnergyModel::paper();
        let un = Underlay::new(
            &model,
            UnderlayConfig::paper(cfg.mt, cfg.mr, cfg.bandwidth_hz),
        );
        let pl = SquareLawLongHaul::paper_defaults();
        let full = un
            .degrade(cfg.d_long_m, &pl, cfg.pu_distance_m, cfg.mt)
            .expect("full cluster admissible");
        let degraded = un
            .degrade(cfg.d_long_m, &pl, cfg.pu_distance_m, cfg.mt - 1)
            .expect("degraded cluster admissible");
        assert!(
            degraded.margin_db < full.margin_db,
            "losing a transmitter must cost margin ({} vs {})",
            degraded.margin_db,
            full.margin_db
        );
        0.5 * (full.margin_db + degraded.margin_db)
    }

    #[test]
    fn shrinks_a_mixed_schedule_to_the_single_culprit_death() {
        let cfg = ChaosConfig::paper(42, 30.0);
        let floor = floor_between_full_and_degraded(&cfg);
        let reg = InvariantRegistry::with_bounds(InvariantBounds {
            epa_margin_floor_db: floor,
            ..InvariantBounds::paper()
        });
        let culprit = FaultEvent {
            at: SimTime::from_secs_f64(10.0),
            kind: FaultKind::RelayDeath { node: 0 },
        };
        let events = vec![
            FaultEvent {
                at: SimTime::from_secs_f64(5.0),
                kind: FaultKind::BroadcastLoss {
                    cluster: 0,
                    loss_prob: 0.5,
                    duration_s: 4.0,
                },
            },
            culprit,
            FaultEvent {
                at: SimTime::from_secs_f64(20.0),
                kind: FaultKind::PuReturn {
                    channel: 1,
                    duration_s: 3.0,
                },
            },
        ];
        let world = ChaosWorld::new(&cfg);
        assert!(
            world
                .run(&events, &reg)
                .violations
                .iter()
                .any(|v| v.invariant == INV_EPA_CEILING),
            "schedule must fire before shrinking"
        );
        let res = ddmin(&world, &events, INV_EPA_CEILING, &reg);
        assert_eq!(res.minimized, vec![culprit], "only the death matters");
        assert!(res.probes >= 2);
        // 1-minimality: the empty trace does not fire
        assert!(world.run(&[], &reg).violations.is_empty());
    }

    #[test]
    fn bound_broken_without_faults_shrinks_to_the_empty_trace() {
        let cfg = ChaosConfig::paper(43, 10.0);
        // a negative residual bound fails even a perfect null
        let reg = InvariantRegistry::with_bounds(InvariantBounds {
            null_residual_max: -1.0,
            ..InvariantBounds::paper()
        });
        let events = vec![FaultEvent {
            at: SimTime::from_secs_f64(1.0),
            kind: FaultKind::RelayDeath { node: 1 },
        }];
        let res = ddmin(&ChaosWorld::new(&cfg), &events, INV_NULL_DEPTH, &reg);
        assert!(res.minimized.is_empty());
        assert_eq!(res.probes, 1, "the empty-trace pre-check settles it");
    }

    #[test]
    fn minimized_trace_is_one_minimal() {
        let cfg = ChaosConfig::paper(44, 30.0);
        let floor = floor_between_full_and_degraded(&cfg);
        let reg = InvariantRegistry::with_bounds(InvariantBounds {
            epa_margin_floor_db: floor,
            ..InvariantBounds::paper()
        });
        // several deaths of the same node: any one suffices, ddmin must
        // keep exactly one
        let events: Vec<FaultEvent> = (0..6)
            .map(|i| FaultEvent {
                at: SimTime::from_secs_f64(2.0 + i as f64),
                kind: FaultKind::RelayDeath { node: 0 },
            })
            .collect();
        let world = ChaosWorld::new(&cfg);
        let res = ddmin(&world, &events, INV_EPA_CEILING, &reg);
        assert_eq!(res.minimized.len(), 1);
        for i in 0..res.minimized.len() {
            let mut without: Vec<FaultEvent> = res.minimized.clone();
            without.remove(i);
            assert!(
                !world
                    .run(&without, &reg)
                    .violations
                    .iter()
                    .any(|v| v.invariant == INV_EPA_CEILING),
                "dropping event {i} must lose the violation"
            );
        }
    }
}
