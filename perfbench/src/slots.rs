//! The whole-stack slot loop over the incremental topology engine.
//!
//! A step is one slot on every network of a [`Scale`]. On each network
//! a slot runs, in order:
//!
//! 1. **churn** — per-shard join/death pairs (and a primary-user arrival
//!    one pair in eight) drawn from `derive(seed, slot·S + shard)`
//!    streams, scheduled into the sharded event queue, drained in its
//!    canonical order and applied to the [`TopologyEngine`];
//! 2. **sensing** — every cluster whose id is congruent to the slot
//!    modulo [`SENSE_PERIOD`] relinks its backbone parent and runs one
//!    cooperative sensing round over its first [`ROSTER`] members:
//!    energy detector → BPSK report words over the block-Rayleigh
//!    long-haul, their energy clamped to the underlay `E_PA` budget of
//!    the roster's transmit rung → lossy report transport →
//!    reputation-weighted soft fusion → reputation update;
//! 3. **invariants** — every queue pop and every fused round is checked
//!    against the paper-bound chaos invariant registry.
//!
//! The underlay degradation ladder that sets those budgets is planned at
//! set-up from the chaos world's paper constants, as `ChaosWorld::new`
//! plans it.
//!
//! One SU in [`VANDAL_ONE_IN`] is an always-no SSDF vandal, so the
//! reputation layer has something to quarantine. The round is composed
//! stage by stage here (so the ledger can time each stage) with the
//! stream discipline of `comimo_sensing::run_round_byz`; sampled rounds
//! are replayed through `run_round_byz` itself and must match it
//! exactly.
//!
//! Every network restarts from its deployed snapshot every
//! [`EPISODE_SLOTS`] slots, so churn never drifts a deployment away from
//! its deployed density however many slots a run reaches.

use crate::ledger::{Counts, Layer, Ledger};
use crate::Workload;
use comimo_channel::{BlockRayleigh, SquareLawLongHaul};
use comimo_chaos::{ChaosConfig, InvariantRegistry, Observation, Violation};
use comimo_core::underlay::{Underlay, UnderlayConfig};
use comimo_energy::model::EnergyModel;
use comimo_faults::{ReportChannelState, ReportOverride, ReporterState};
use comimo_math::db::db_to_lin;
use comimo_math::rng::{derive, SeededRng};
use comimo_net::report::{try_collect_reports, Reporter};
use comimo_net::{TopologyConfig, TopologyEngine};
use comimo_sensing::{
    fuse_soft_weighted, run_round_byz, ReportSummary, ReputationConfig, ReputationTracker,
    ReputationView, RoundOutcome, RuleUsed, SensingRound,
};
use comimo_sim::{map_shards, ShardedEventQueue, SimTime};
use comimo_stbc::report::{transmit_report_word, SoftReport};
use rand::Rng;

/// Deployment of one slot-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Independently deployed networks stepped together.
    pub networks: usize,
    /// SUs per network.
    pub sus: usize,
    /// Side of each network's square field (m).
    pub side_m: f64,
    /// Maximum cluster size.
    pub max_cluster: usize,
    /// Backbone long-haul reach `D` (m).
    pub long_range_m: f64,
}

impl Scale {
    /// Paper scale: the 60-SU, 450 m × 450 m CoMIMONet of the lifetime
    /// experiments (4-SU clusters, `D` = 650 m). 16 independent
    /// deployments are stepped together, so a step's work does not hinge
    /// on one random deployment while all of them still fit in a 2 MiB
    /// L2 cache (at 64 deployments, other tenants' pressure on the
    /// shared L3 made whole runs 40 % slower).
    pub const PAPER: Scale = Scale {
        networks: 16,
        sus: 60,
        side_m: 450.0,
        max_cluster: 4,
        long_range_m: 650.0,
    };

    /// One million SUs at the netperf density (~80 SUs per d-ball,
    /// clusters of up to 128, `D` = 120 m).
    pub const MILLION: Scale = Scale {
        networks: 1,
        sus: 1_000_000,
        side_m: 3545.0,
        max_cluster: 128,
        long_range_m: 120.0,
    };
}

/// d-clustering diameter at every scale (m).
const D_M: f64 = 40.0;
/// Churn: one join/death pair per this many SU-slots on average, i.e.
/// one pair per churn shard per slot at 1M SUs.
const SU_SLOTS_PER_CHURN_PAIR: f64 = 3906.25;
/// Churn shards per field side at 1M SUs, scaled by √(N / 1M).
const SHARD_SIDE_AT_1M: f64 = 16.0;
/// Simulated width of one slot (ns).
const SLOT_NS: u64 = 1_000_000;
/// Slots between restarts from the deployed snapshot.
const EPISODE_SLOTS: u64 = 128;
/// Each cluster senses once every this many slots.
const SENSE_PERIOD: u32 = 4;
/// Reporters per sensing round: a cluster's lowest-id members.
const ROSTER: usize = 8;
/// Transmit elements of the report long-haul's top underlay rung (the
/// OSTBC ladder tops out at four).
const REPORT_MT_MAX: usize = 4;
/// One SU in this many is an always-no vandal.
const VANDAL_ONE_IN: u64 = 8;
/// Linear primary SNR at a reporter on a busy channel (20 dB), and the
/// long-haul report SNR (dB): the chaos world's sensing constants.
const SENSE_SNR_LIN: f64 = 100.0;
const REPORT_SNR_DB: f64 = 25.0;
/// Report-frame loss probability, so the transport retries.
const REPORT_LOSS: f64 = 0.05;
/// One round in this many is replayed through `run_round_byz`.
const ORACLE_EVERY: u64 = 16;
/// The per-reporter stream salts of `run_round_byz` (detector draws and
/// report-word draws); the oracle replay fails if they drift.
const ROUND_SALT: u64 = 0x5EA5_E000_0002;
const REPORT_WORD_SALT: u64 = 0x5EA5_E000_0005;
/// Salts of the benchmark's own streams.
const NET_SALT: u64 = 0x4E45_5453;
const DEPLOY_SALT: u64 = 0xB111D;
const CHURN_SALT: u64 = 0xC4A52;
const TRUTH_SALT: u64 = 0x7277_4854;
const VANDAL_SALT: u64 = 0x5653_4446;

/// One churn operation.
#[derive(Debug, Clone, Copy)]
enum NetOp {
    Join { x: f64, y: f64, battery_j: f64 },
    Death { x: f64, y: f64 },
    Pu { x: f64, y: f64, radius_m: f64 },
}

/// SplitMix64 finaliser: a cheap keyed hash for per-node and per-round
/// Bernoulli draws.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cluster's reputation state over a fixed roster of node ids.
struct Roster {
    ids: Vec<u32>,
    tracker: ReputationTracker,
}

/// One deployed network and its churn machinery.
struct Net {
    seed: u64,
    side: f64,
    shard_side: u32,
    shard_ids: Vec<u32>,
    /// Probability that a shard draws a churn pair in a slot.
    pair_prob: f64,
    /// The deployment every episode starts from.
    base: TopologyEngine,
    eng: TopologyEngine,
    q: ShardedEventQueue<NetOp>,
    last_pop_ns: u64,
    /// Reputation state per cluster id.
    rosters: Vec<Option<Roster>>,
}

/// A sensing round kept for replay through `run_round_byz`.
struct Sample {
    seed: u64,
    cfg: SensingRound,
    muted: bool,
    round: u64,
    truth: bool,
    overrides: Vec<ReportOverride>,
    view: ReputationView,
    outcome: RoundOutcome,
    summaries: Vec<ReportSummary>,
}

/// What every network's sensing shares: the round config, the report
/// PA ladder, the invariant registry and the oracle samples.
struct Stack {
    cfg: SensingRound,
    /// Per alive transmitters `0..=REPORT_MT_MAX`: the report-word energy
    /// ceiling and noise-floor margin (dB) of the underlay rung, `None`
    /// when no rung is admissible and the long-haul must stay silent.
    pa_ladder: Vec<Option<(f64, f64)>>,
    reg: InvariantRegistry,
    rounds_run: u64,
    samples: Vec<Sample>,
    violations: Vec<Violation>,
}

/// The whole-stack world at one scale.
pub struct SlotWorld {
    nets: Vec<Net>,
    stack: Stack,
    /// Global index of the next slot.
    next_slot: u64,
}

impl Net {
    /// Deploys `scale.sus` SUs uniformly over the field.
    fn deploy(seed: u64, scale: &Scale) -> Self {
        let cfg = TopologyConfig {
            width_m: scale.side_m,
            height_m: scale.side_m,
            d_m: D_M,
            max_cluster: scale.max_cluster,
            long_range_m: scale.long_range_m,
        };
        let mut base = TopologyEngine::with_capacity(cfg, scale.sus, scale.sus / 64);
        let mut rng = derive(seed, DEPLOY_SALT);
        for _ in 0..scale.sus {
            let x = rng.gen_range(0.0..scale.side_m);
            let y = rng.gen_range(0.0..scale.side_m);
            base.join(x, y, rng.gen_range(10.0..100.0))
                .expect("deployment positions lie inside the field");
        }
        let shard_side = ((scale.sus as f64 / 1e6).sqrt() * SHARD_SIDE_AT_1M)
            .ceil()
            .max(1.0) as u32;
        let shards = shard_side * shard_side;
        Self {
            seed,
            side: scale.side_m,
            shard_side,
            shard_ids: (0..shards).collect(),
            pair_prob: (scale.sus as f64 / SU_SLOTS_PER_CHURN_PAIR / f64::from(shards)).min(1.0),
            eng: base.clone(),
            base,
            q: ShardedEventQueue::new(shards as usize),
            last_pop_ns: 0,
            rosters: Vec::new(),
        }
    }

    fn is_vandal(&self, node: u32) -> bool {
        mix(self.seed ^ VANDAL_SALT ^ u64::from(node)) % VANDAL_ONE_IN == 0
    }

    /// The churn ops of one `(slot, shard)` cell.
    fn slot_ops(&self, slot: u64, shard: u32) -> Vec<(SimTime, NetOp)> {
        let n_shards = u64::from(self.shard_side * self.shard_side);
        let mut rng = derive(self.seed ^ CHURN_SALT, slot * n_shards + u64::from(shard));
        let mut ops = Vec::new();
        if rng.gen::<f64>() >= self.pair_prob {
            return ops;
        }
        let cell = self.side / f64::from(self.shard_side);
        let (x0, y0) = (
            f64::from(shard % self.shard_side) * cell,
            f64::from(shard / self.shard_side) * cell,
        );
        let base = slot * SLOT_NS;
        let pos =
            |rng: &mut SeededRng| (x0 + rng.gen_range(0.0..cell), y0 + rng.gen_range(0.0..cell));
        let (x, y) = pos(&mut rng);
        let battery_j = rng.gen_range(10.0..100.0);
        let at = SimTime::from_nanos(base + rng.gen_range(0..SLOT_NS));
        ops.push((at, NetOp::Join { x, y, battery_j }));
        let (x, y) = pos(&mut rng);
        let at = SimTime::from_nanos(base + rng.gen_range(0..SLOT_NS));
        ops.push((at, NetOp::Death { x, y }));
        if rng.gen_range(0..8u32) == 0 {
            let (x, y) = pos(&mut rng);
            let radius_m = rng.gen_range(50.0..300.0);
            let at = SimTime::from_nanos(base + rng.gen_range(0..SLOT_NS));
            ops.push((at, NetOp::Pu { x, y, radius_m }));
        }
        ops
    }

    /// One slot of the whole stack on this network.
    fn slot(
        &mut self,
        slot: u64,
        stack: &mut Stack,
        ledger: &mut Ledger,
        counts: &mut Counts,
    ) -> Result<(), String> {
        // 1. churn: generate, schedule, drain in canonical order, apply
        let gen: Vec<Vec<(SimTime, NetOp)>> = ledger.span(Layer::ChurnGen, || {
            map_shards(&self.shard_ids, |s, _| self.slot_ops(slot, s))
        });
        let q = &mut self.q;
        ledger.span(Layer::EventQueue, || {
            for (s, ops) in gen.iter().enumerate() {
                for (i, &(at, op)) in ops.iter().enumerate() {
                    q.schedule_at(s as u32, at, i as u64, op);
                }
            }
        });
        loop {
            let q = &mut self.q;
            let Some((key, op)) = ledger.span(Layer::EventQueue, || q.pop()) else {
                break;
            };
            let now_ns = key.at.as_nanos();
            let obs = Observation::EventPop {
                prev_ns: self.last_pop_ns,
                now_ns,
            };
            let (reg, violations) = (&stack.reg, &mut stack.violations);
            counts.invariant_checks +=
                ledger.span(Layer::Invariant, || reg.check(&obs, violations));
            self.last_pop_ns = now_ns;
            let eng = &mut self.eng;
            ledger.span(Layer::Topology, || apply(eng, op))?;
            counts.churn_ops += 1;
        }

        // 2. sensing on this slot's share of the clusters
        let phase = (slot % u64::from(SENSE_PERIOD)) as u32;
        let eng = &self.eng;
        let sensed: Vec<u32> = ledger.span(Layer::Topology, || {
            eng.iter_clusters()
                .filter(|c| c % SENSE_PERIOD == phase)
                .collect()
        });
        let refreshes_before = self.eng.stats().parent_refreshes;
        for c in sensed {
            let eng = &mut self.eng;
            ledger
                .span(Layer::Backbone, || eng.backbone_parent(c))
                .map_err(|e| format!("backbone of cluster {c}: {e}"))?;
            let roster: Vec<u32> = ledger
                .span(Layer::Topology, || {
                    eng.members(c).map(|m| m[..m.len().min(ROSTER)].to_vec())
                })
                .map_err(|e| format!("roster of cluster {c}: {e}"))?;
            let round = (slot << 32) | u64::from(c);
            self.sense(stack, c, round, slot * SLOT_NS, &roster, ledger, counts)?;
        }
        counts.backbone_refreshes += self.eng.stats().parent_refreshes - refreshes_before;
        counts.items += self.eng.nodes_alive() as u64;
        Ok(())
    }

    /// One sensing round of cluster `c`, stage by stage, with the stream
    /// discipline of `run_round_byz` for healthy reporters on a nominal
    /// long-haul (all silenced when the PA ladder has no admissible
    /// rung). The head's own ground-truth look is the last rung, as in
    /// the chaos world.
    #[allow(clippy::too_many_arguments)]
    fn sense(
        &mut self,
        stack: &mut Stack,
        c: u32,
        round: u64,
        at_ns: u64,
        roster: &[u32],
        ledger: &mut Ledger,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let seed = self.seed;
        let n = roster.len();
        let truth = mix(seed ^ TRUTH_SALT ^ round) & 1 == 1;
        let vandals: Vec<bool> = roster.iter().map(|&id| self.is_vandal(id)).collect();
        let overrides: Vec<ReportOverride> = vandals
            .iter()
            .map(|&v| {
                if v {
                    ReportOverride::Force(false)
                } else {
                    ReportOverride::None
                }
            })
            .collect();
        let mut cfg = stack.cfg;
        let rung = stack.pa_ladder[n.min(REPORT_MT_MAX)];
        let muted = rung.is_none();
        let margin_db = match rung {
            Some((ceiling, margin_db)) => {
                cfg.report_channel.word.clamp_es(ceiling);
                margin_db
            }
            None => f64::INFINITY,
        };

        let rosters = &mut self.rosters;
        let (tracker, started, view) = ledger.span(Layer::Reputation, || {
            let slab = c as usize;
            if rosters.len() <= slab {
                rosters.resize_with(slab + 1, || None);
            }
            let entry = &mut rosters[slab];
            let started = !matches!(entry, Some(r) if r.ids == roster);
            if started {
                *entry = Some(Roster {
                    ids: roster.to_vec(),
                    tracker: ReputationTracker::new(ReputationConfig::paper(), n),
                });
            }
            let tracker = &mut entry
                .as_mut()
                .expect("roster entry was just filled")
                .tracker;
            let view = tracker.view();
            (tracker, started, view)
        });
        counts.tracker_starts += u64::from(started);

        let truth_snr = if truth { cfg.snr } else { 0.0 };
        let round_mix = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let bits: Vec<bool> = ledger.span(Layer::Detector, || {
            overrides
                .iter()
                .enumerate()
                .map(|(i, ov)| {
                    let mut rng = derive(seed, ROUND_SALT ^ round_mix ^ (i as u64));
                    let own = cfg
                        .detector
                        .decide(cfg.detector.sample_statistic(&mut rng, truth_snr));
                    ov.apply(own)
                })
                .collect()
        });
        let soft: Vec<SoftReport> = ledger.span(Layer::ReportWord, || {
            let long_haul = BlockRayleigh::unit();
            let nominal = ReportChannelState::nominal();
            bits.iter()
                .enumerate()
                .map(|(i, &bit)| {
                    let mut word = cfg.report_channel.word;
                    word.n0 *= db_to_lin(nominal.snr_drop_db);
                    let mut rng = derive(seed, REPORT_WORD_SALT ^ round_mix ^ (i as u64));
                    transmit_report_word(bit, nominal.gain, &word, &long_haul, &mut rng)
                })
                .collect()
        });
        let out = ledger
            .span(Layer::Transport, || {
                let reporters: Vec<Reporter<SoftReport>> = soft
                    .iter()
                    .enumerate()
                    .map(|(i, &payload)| Reporter {
                        id: i,
                        payload,
                        extra_delay: SimTime::ZERO,
                        dies_at: muted.then_some(SimTime::ZERO),
                    })
                    .collect();
                try_collect_reports(&reporters, &cfg.transport, seed, round)
            })
            .map_err(|e| format!("round {round}: {e}"))?;
        let (decision, ladder) = ledger.span(Layer::Fusion, || {
            fuse_soft_weighted(&cfg.fusion, &out.delivered, truth, Some(&view))
        });
        let summaries: Vec<ReportSummary> = ledger.span(Layer::Reputation, || {
            let summaries: Vec<ReportSummary> = out
                .delivered
                .iter()
                .map(|&(reporter, r)| ReportSummary {
                    reporter,
                    busy: r.hard_bit(),
                    confidence: r.confidence(),
                })
                .collect();
            let scored: Vec<(usize, bool, f64)> = summaries
                .iter()
                .map(|s| (s.reporter, s.busy, s.confidence))
                .collect();
            tracker.observe_round(decision.busy, &scored);
            summaries
        });

        let (reg, violations) = (&stack.reg, &mut stack.violations);
        counts.invariant_checks += ledger.span(Layer::Invariant, || {
            let eligible_distinct = {
                let mut e: Vec<usize> = summaries
                    .iter()
                    .filter(|s| view.is_eligible(s.reporter))
                    .map(|s| s.reporter)
                    .collect();
                e.sort_unstable();
                e.dedup();
                e.len()
            };
            [
                Observation::FusionDecision {
                    at_ns,
                    reports_used: decision.reports_used,
                    quorum: decision.quorum,
                    head_local: decision.rule_used == RuleUsed::HeadLocal,
                },
                Observation::FusionLadder {
                    at_ns,
                    soft_path: ladder.soft_path,
                    weighted: ladder.weighted,
                    rung: ladder.rung.rung_index(),
                    n_reports: ladder.n_distinct,
                    min_quorum: ladder.min_quorum,
                    mean_confidence: ladder.mean_confidence,
                    reliability_floor: ladder.reliability_floor,
                },
                Observation::ReputationSlot {
                    at_ns,
                    min_weight: view.min_weight(),
                    max_weight: view.max_weight(),
                    reports_used: decision.reports_used,
                    eligible_distinct,
                },
                Observation::ReportLongHaul {
                    at_ns,
                    transmitted: out.frames_sent > 0,
                    margin_db,
                    mt: cfg.report_channel.word.mt,
                },
            ]
            .iter()
            .map(|obs| reg.check(obs, violations))
            .sum::<u64>()
        });

        counts.sensing_rounds += 1;
        counts.reporters += n as u64;
        counts.reports_delivered += out.delivered.len() as u64;
        counts.frames_sent += out.frames_sent;
        counts.weighted_rounds += u64::from(decision.rule_used == RuleUsed::WeightedLlr);
        for (i, &vandal) in vandals.iter().enumerate() {
            let quarantined = u64::from(!view.is_eligible(i));
            if vandal {
                counts.vandal_slots += 1;
                counts.vandal_quarantined += quarantined;
            } else {
                counts.honest_quarantined += quarantined;
            }
        }

        stack.rounds_run += 1;
        if stack.rounds_run % ORACLE_EVERY == 0 {
            let mean_report_snr = if out.delivered.is_empty() {
                0.0
            } else {
                out.delivered.iter().map(|(_, r)| r.report_snr).sum::<f64>()
                    / out.delivered.len() as f64
            };
            stack.samples.push(Sample {
                seed,
                cfg,
                muted,
                round,
                truth,
                overrides,
                view,
                outcome: RoundOutcome {
                    decision,
                    ladder,
                    mean_report_snr,
                    delivered: out.delivered.len(),
                    missing: out.missing.len(),
                    frames_sent: out.frames_sent,
                    duplicates: out.duplicates,
                    stale: out.stale,
                },
                summaries,
            });
        }
        Ok(())
    }
}

fn apply(eng: &mut TopologyEngine, op: NetOp) -> Result<(), String> {
    match op {
        NetOp::Join { x, y, battery_j } => eng.join(x, y, battery_j).map(|_| ()),
        NetOp::Death { x, y } => match eng.nearest_node(x, y) {
            Some((id, _)) => eng.death(id).map(|_| ()),
            None => Ok(()),
        },
        NetOp::Pu { x, y, radius_m } => {
            eng.pu_arrival(x, y, radius_m);
            Ok(())
        }
    }
    .map_err(|e| format!("churn op {op:?}: {e}"))
}

impl SlotWorld {
    /// Deploys every network of `scale` and plans the report PA ladder:
    /// the benchmark's set-up.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let nets = (0..scale.networks as u64)
            .map(|k| Net::deploy(mix(seed ^ NET_SALT ^ k), &scale))
            .collect();
        let mut cfg = SensingRound::paper_noisy(SENSE_SNR_LIN, REPORT_SNR_DB);
        cfg.transport.loss_prob = REPORT_LOSS;
        let plan = ChaosConfig::paper(seed, 0.0);
        let model = EnergyModel::paper();
        let underlay = Underlay::new(
            &model,
            UnderlayConfig::paper(REPORT_MT_MAX, plan.mr, plan.bandwidth_hz),
        );
        let pl = SquareLawLongHaul::paper_defaults();
        let rungs: Vec<_> = (0..=REPORT_MT_MAX)
            .map(|alive| underlay.degrade(plan.d_long_m, &pl, plan.pu_distance_m, alive))
            .collect();
        let pa_ladder = rungs
            .iter()
            .map(|rung| match (rung, &rungs[REPORT_MT_MAX]) {
                (Some(step), Some(full)) => Some((
                    (step.analysis.pa_long_haul / full.analysis.pa_long_haul).min(1.0),
                    step.margin_db,
                )),
                _ => None,
            })
            .collect();
        Self {
            nets,
            stack: Stack {
                cfg,
                pa_ladder,
                reg: InvariantRegistry::paper(),
                rounds_run: 0,
                samples: Vec::new(),
                violations: Vec::new(),
            },
            next_slot: 0,
        }
    }
}

impl Workload for SlotWorld {
    fn prepare(&mut self) {
        if self.next_slot % EPISODE_SLOTS == 0 {
            for net in &mut self.nets {
                net.eng = net.base.clone();
                net.rosters.clear();
            }
        }
    }

    fn step(&mut self, ledger: &mut Ledger, counts: &mut Counts) -> Result<(), String> {
        let slot = self.next_slot;
        self.next_slot += 1;
        for net in &mut self.nets {
            net.slot(slot, &mut self.stack, ledger, counts)?;
        }
        if let Some(v) = self.stack.violations.first() {
            let msg = format!("{} violated at slot {slot}: {}", v.invariant, v.detail);
            self.stack.violations.clear();
            return Err(msg);
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        for s in self.stack.samples.drain(..) {
            let state = if s.muted {
                ReporterState::Dead
            } else {
                ReporterState::Healthy
            };
            let replay = run_round_byz(
                &s.cfg,
                s.truth,
                &vec![state; s.overrides.len()],
                &[],
                &s.overrides,
                s.truth,
                s.seed,
                s.round,
                Some(&s.view),
            )
            .map_err(|e| format!("oracle round {}: {e}", s.round))?;
            if replay != (s.outcome, s.summaries) {
                return Err(format!(
                    "staged round {} diverged from run_round_byz",
                    s.round
                ));
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        self.nets.iter().try_for_each(|net| net.eng.validate())
    }
}
