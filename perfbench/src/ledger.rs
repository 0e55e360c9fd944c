//! The per-layer ledger: spans recorded around every call the benchmark
//! makes into a workspace layer, plus the counters each layer produces.
//!
//! With tracing off every [`Ledger::span`] is a plain call, so the
//! end-to-end run pays nothing for the ledger. With tracing on, each
//! span adds its wall time to its layer; the part of a step no span
//! covers is loop glue, so the layer times and the glue add up to the
//! step time by construction.

use std::time::Instant;

/// A workspace layer the benchmark calls into. The names follow the
/// crate and module that does the work.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// Per-shard churn-op generation on derived streams (`comimo_sim::map_shards`).
    ChurnGen,
    /// Scheduling into and draining the `comimo_sim::ShardedEventQueue`.
    EventQueue,
    /// `comimo_net::topology`: joins, deaths, PU arrivals, roster queries.
    Topology,
    /// `TopologyEngine::backbone_parent`: lazy backbone relink.
    Backbone,
    /// `comimo_sensing::detector`: per-reporter energy statistics.
    Detector,
    /// `comimo_stbc::report`: BPSK report words over the long-haul.
    ReportWord,
    /// `comimo_net::report`: timeout/retry report collection.
    Transport,
    /// `comimo_sensing::fusion`: reputation-weighted soft fusion ladder.
    Fusion,
    /// `comimo_sensing::reputation`: trust views and updates.
    Reputation,
    /// `comimo_chaos::invariant`: the paper-bound invariant registry.
    Invariant,
    /// The bulk draws of one Monte-Carlo shard (`comimo_math::batch`),
    /// replayed on a copy of the engine's stream in traced runs only.
    McDraw,
    /// `comimo_stbc::grid`: the CRN grid engine, draws included.
    McEngine,
}

/// Every layer with the name of its per-layer metric.
pub const LAYERS: [(Layer, &str); 12] = [
    (Layer::ChurnGen, "churn_gen_pct"),
    (Layer::EventQueue, "event_queue_pct"),
    (Layer::Topology, "topology_pct"),
    (Layer::Backbone, "backbone_pct"),
    (Layer::Detector, "detector_pct"),
    (Layer::ReportWord, "report_word_pct"),
    (Layer::Transport, "transport_pct"),
    (Layer::Fusion, "fusion_pct"),
    (Layer::Reputation, "reputation_pct"),
    (Layer::Invariant, "invariant_pct"),
    (Layer::McDraw, "mc_draw_pct"),
    (Layer::McEngine, "mc_engine_pct"),
];

/// Deterministic work counters, summed over the measured steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Churn ops (joins, deaths, PU arrivals) applied to the topology.
    pub churn_ops: u64,
    /// Cooperative sensing rounds run.
    pub sensing_rounds: u64,
    /// Reporter slots offered to the rounds.
    pub reporters: u64,
    /// Reports that reached the fusion head in time.
    pub reports_delivered: u64,
    /// Report frames put on the air, retries included.
    pub frames_sent: u64,
    /// Rounds decided on the reputation-weighted LLR rung.
    pub weighted_rounds: u64,
    /// Reporter slots held by always-no vandals.
    pub vandal_slots: u64,
    /// Vandal slots quarantined in the view fusion consulted.
    pub vandal_quarantined: u64,
    /// Honest slots quarantined in the view fusion consulted.
    pub honest_quarantined: u64,
    /// Reputation trackers started: first sensing of a cluster, or churn
    /// changed its roster.
    pub tracker_starts: u64,
    /// Invariant predicates evaluated.
    pub invariant_checks: u64,
    /// Lazy backbone-parent re-resolutions.
    pub backbone_refreshes: u64,
    /// Work items: SU-slots for the slot loops, block-points for the grid.
    pub items: u64,
    /// Monte-Carlo blocks simulated (per cluster configuration).
    pub mc_blocks: u64,
}

/// Span times per layer, active only when tracing.
#[derive(Debug)]
pub struct Ledger {
    on: bool,
    ns: [u64; LAYERS.len()],
}

impl Ledger {
    /// A ledger that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ns: [0; LAYERS.len()],
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `layer` when tracing.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.ns[layer as usize] += t0.elapsed().as_nanos() as u64;
        r
    }

    /// Total recorded time of `layer` (ns).
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Drops everything recorded so far (the warm-up's spans).
    pub fn reset(&mut self) {
        self.ns = [0; LAYERS.len()];
    }
}
