//! Per-reporter Beta-posterior trust tracking with quarantine.
//!
//! PRs 7/9 hardened fusion against *honest-but-faulty* reporters; this
//! module closes the adversarial half of the gap (Rossi et al. treat
//! the fusion center as the place where per-reporter reliability must
//! be estimated and exploited). Each reporter carries a Beta posterior
//! over "my report agrees with the fused verdict": agreement adds the
//! decode confidence to `α`, disagreement adds `penalty × confidence`
//! to `β`, and the trust weight is the posterior mean `α / (α + β)` —
//! always in `[0, 1]`, monotone under consistent streaks.
//!
//! The penalty asymmetry matters: an always-no vandal *agrees* with
//! every idle verdict, so under a 50 % busy duty cycle its raw
//! agreement rate is ≈ ½ — indistinguishable from a mediocre honest
//! reporter. Charging every disagreement `penalty > 1` pseudo-counts
//! pushes any systematic falsifier's weight to `1 / (1 + penalty)`
//! while honest reporters (who disagree rarely) stay near 1.
//!
//! On top of the weights sits a three-state machine per reporter:
//!
//! ```text
//! Active ──(weight < quarantine_below)──► Quarantined
//! Quarantined ──(weight ≥ readmit_above)──► Probation
//! Probation ──(probation_rounds clean)──► Active
//! Probation ──(weight < quarantine_below)──► Quarantined
//! ```
//!
//! Quarantined reporters keep transmitting (burn-their-draws: nothing
//! shifts any stream) and keep being scored against the fused verdict,
//! but the fusion head drops their reports *before* quorum-k
//! re-derivation — the `INV-REPUTATION-SANE` invariant pins that they
//! are never counted toward `k`. A falsely-quarantined honest reporter
//! keeps agreeing, its weight recovers, and it walks the probation ramp
//! back in; a vandal's weight stays pinned below the floor forever.

use serde::Serialize;

/// Knobs of the trust tracker and its quarantine machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReputationConfig {
    /// Beta prior pseudo-count for agreement (`α₀ > 0`).
    pub prior_alpha: f64,
    /// Beta prior pseudo-count for disagreement (`β₀ > 0`).
    pub prior_beta: f64,
    /// Pseudo-counts charged per unit confidence on a disagreement
    /// (`> 1` separates systematic falsifiers from honest error).
    pub disagree_penalty: f64,
    /// Weight below which an Active/Probation reporter is quarantined.
    pub quarantine_below: f64,
    /// Weight a Quarantined reporter must recover to enter Probation.
    pub readmit_above: f64,
    /// Consecutive clean rounds Probation must survive before Active.
    pub probation_rounds: u32,
    /// Mean per-reporter evidence (accumulated pseudo-counts beyond the
    /// prior) at which the tracker considers its weights converged and
    /// the fusion head drops the cold-start robust-median guard.
    pub converged_evidence: f64,
}

impl ReputationConfig {
    /// The experiments' default: uniform prior, 3× disagreement
    /// penalty (a systematic falsifier converges to weight ¼, under
    /// the 0.3 quarantine floor), an 8-round probation ramp, and
    /// convergence after ~12 pseudo-counts of evidence per reporter.
    pub fn paper() -> Self {
        Self {
            prior_alpha: 1.0,
            prior_beta: 1.0,
            disagree_penalty: 3.0,
            quarantine_below: 0.3,
            readmit_above: 0.45,
            probation_rounds: 8,
            converged_evidence: 12.0,
        }
    }
}

/// Where a reporter sits in the quarantine machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TrustState {
    /// Trusted: reports count toward fusion and quorum.
    Active,
    /// Excluded from fusion (still transmitting, still scored).
    Quarantined,
    /// Readmitted on a ramp: reports count again, but one dip below
    /// the quarantine floor sends the reporter straight back.
    Probation {
        /// Clean rounds left before full reinstatement.
        remaining: u32,
    },
}

/// One reporter's Beta posterior and quarantine state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReporterTrust {
    /// Agreement pseudo-counts (prior included).
    pub alpha: f64,
    /// Disagreement pseudo-counts (prior included).
    pub beta: f64,
    /// Quarantine-machine state.
    pub state: TrustState,
}

impl ReporterTrust {
    /// The trust weight: the Beta posterior mean `α / (α + β)`, always
    /// in `[0, 1]` (both counts start positive and never shrink).
    pub fn weight(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Whether this reporter's reports may be fused and counted toward
    /// the re-derived quorum `k`.
    pub fn eligible(&self) -> bool {
        self.state != TrustState::Quarantined
    }
}

/// The tracker: one [`ReporterTrust`] per roster slot, updated once per
/// fused round. A pure fold over `(verdict, reports)` pairs — no RNG,
/// no clocks — so campaign shards replay it bit-identically at any
/// thread count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReputationTracker {
    cfg: ReputationConfig,
    trust: Vec<ReporterTrust>,
    rounds_observed: u64,
}

impl ReputationTracker {
    /// A fresh tracker over `n_reporters` roster slots, everyone Active
    /// at the prior weight.
    pub fn new(cfg: ReputationConfig, n_reporters: usize) -> Self {
        assert!(cfg.prior_alpha > 0.0 && cfg.prior_beta > 0.0);
        assert!(cfg.disagree_penalty > 0.0);
        assert!((0.0..=1.0).contains(&cfg.quarantine_below));
        assert!(cfg.readmit_above >= cfg.quarantine_below);
        Self {
            cfg,
            trust: vec![
                ReporterTrust {
                    alpha: cfg.prior_alpha,
                    beta: cfg.prior_beta,
                    state: TrustState::Active,
                };
                n_reporters
            ],
            rounds_observed: 0,
        }
    }

    /// Roster size (fixed at construction).
    pub fn n(&self) -> usize {
        self.trust.len()
    }

    /// Rounds folded in so far.
    pub fn rounds_observed(&self) -> u64 {
        self.rounds_observed
    }

    /// The tracker's view of reporter `i` (panics out of roster).
    pub fn trust_of(&self, i: usize) -> ReporterTrust {
        self.trust[i]
    }

    /// Folds one fused round in: every delivered report `(reporter,
    /// hard_bit, confidence)` is scored against the fused verdict
    /// (first report per reporter wins, off-roster ids are ignored),
    /// then the quarantine machine steps for every roster slot.
    /// Quarantined reporters are scored exactly like active ones — the
    /// machine controls *fusion eligibility*, never the evidence flow.
    pub fn observe_round(&mut self, fused_busy: bool, reports: &[(usize, bool, f64)]) {
        let mut seen: Vec<usize> = Vec::with_capacity(reports.len());
        for &(id, bit, confidence) in reports {
            if id >= self.trust.len() || seen.contains(&id) {
                continue;
            }
            seen.push(id);
            let conf = confidence.clamp(0.0, 1.0);
            let t = &mut self.trust[id];
            if bit == fused_busy {
                t.alpha += conf;
            } else {
                t.beta += conf * self.cfg.disagree_penalty;
            }
        }
        for t in &mut self.trust {
            let w = t.weight();
            t.state = match t.state {
                TrustState::Active => {
                    if w < self.cfg.quarantine_below {
                        TrustState::Quarantined
                    } else {
                        TrustState::Active
                    }
                }
                TrustState::Quarantined => {
                    if w >= self.cfg.readmit_above {
                        TrustState::Probation {
                            remaining: self.cfg.probation_rounds,
                        }
                    } else {
                        TrustState::Quarantined
                    }
                }
                TrustState::Probation { remaining } => {
                    if w < self.cfg.quarantine_below {
                        TrustState::Quarantined
                    } else if remaining <= 1 {
                        TrustState::Active
                    } else {
                        TrustState::Probation {
                            remaining: remaining - 1,
                        }
                    }
                }
            };
        }
        self.rounds_observed += 1;
    }

    /// Mean evidence per reporter accumulated beyond the prior.
    pub fn mean_evidence(&self) -> f64 {
        if self.trust.is_empty() {
            return 0.0;
        }
        let prior = self.cfg.prior_alpha + self.cfg.prior_beta;
        self.trust
            .iter()
            .map(|t| t.alpha + t.beta - prior)
            .sum::<f64>()
            / self.trust.len() as f64
    }

    /// Whether the weights carry enough evidence to trust on their own
    /// (the fusion head drops its cold-start robust-median guard here).
    pub fn converged(&self) -> bool {
        self.mean_evidence() >= self.cfg.converged_evidence
    }

    /// The immutable snapshot the fusion head consumes.
    pub fn view(&self) -> ReputationView {
        ReputationView {
            weights: self.trust.iter().map(ReporterTrust::weight).collect(),
            eligible: self.trust.iter().map(ReporterTrust::eligible).collect(),
            converged: self.converged(),
        }
    }

    /// Per-state population `(active, quarantined, probation)` — the
    /// accounting the reputation proptests pin: always sums to `n`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for t in &self.trust {
            match t.state {
                TrustState::Active => counts.0 += 1,
                TrustState::Quarantined => counts.1 += 1,
                TrustState::Probation { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

/// A read-only snapshot of the tracker at one instant: what
/// [`crate::fusion::fuse_soft_weighted`] scales LLRs and filters
/// eligibility with. Off-roster reporters get the neutral prior weight
/// and are eligible — the view never invents exclusions.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReputationView {
    weights: Vec<f64>,
    eligible: Vec<bool>,
    converged: bool,
}

impl ReputationView {
    /// The acceptance-test reference view: `n` reporters, all at
    /// the same weight, none quarantined, converged (no cold-start
    /// guard). Reputation-weighted fusion under this view must
    /// reproduce unweighted LLR fusion count for count.
    pub fn uniform_converged(n: usize) -> Self {
        Self {
            weights: vec![0.5; n],
            eligible: vec![true; n],
            converged: true,
        }
    }

    /// Roster size the view covers.
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Reporter `id`'s trust weight (neutral `0.5` off roster).
    pub fn weight_of(&self, id: usize) -> f64 {
        self.weights.get(id).copied().unwrap_or(0.5)
    }

    /// Whether reporter `id` may be fused (`true` off roster).
    pub fn is_eligible(&self, id: usize) -> bool {
        self.eligible.get(id).copied().unwrap_or(true)
    }

    /// Whether the weights carry enough evidence to stand alone.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Quarantined roster slots.
    pub fn n_quarantined(&self) -> usize {
        self.eligible.iter().filter(|&&e| !e).count()
    }

    /// Smallest weight on the roster (1.0 for an empty roster).
    pub fn min_weight(&self) -> f64 {
        self.weights.iter().copied().fold(1.0, f64::min)
    }

    /// Largest weight on the roster (0.0 for an empty roster).
    pub fn max_weight(&self) -> f64 {
        self.weights.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every delivered report agrees/disagrees at full confidence.
    fn round(tracker: &mut ReputationTracker, verdict: bool, bits: &[bool]) {
        let reports: Vec<(usize, bool, f64)> =
            bits.iter().enumerate().map(|(i, &b)| (i, b, 1.0)).collect();
        tracker.observe_round(verdict, &reports);
    }

    #[test]
    fn fresh_tracker_starts_everyone_active_at_the_prior_weight() {
        let t = ReputationTracker::new(ReputationConfig::paper(), 5);
        assert_eq!(t.n(), 5);
        assert_eq!(t.census(), (5, 0, 0));
        for i in 0..5 {
            assert_eq!(t.trust_of(i).weight(), 0.5);
            assert!(t.trust_of(i).eligible());
        }
        assert!(!t.converged(), "no evidence yet");
        let v = t.view();
        assert_eq!(v.n_quarantined(), 0);
        assert!(!v.converged());
    }

    #[test]
    fn a_vandal_is_quarantined_and_an_honest_streak_is_not() {
        // 50 % busy duty cycle: reporter 0 always votes idle, reporter 1
        // always agrees with the verdict
        let mut t = ReputationTracker::new(ReputationConfig::paper(), 2);
        for r in 0..40u64 {
            let verdict = r % 2 == 0;
            round(&mut t, verdict, &[false, verdict]);
        }
        assert_eq!(t.trust_of(0).state, TrustState::Quarantined);
        assert_eq!(t.trust_of(1).state, TrustState::Active);
        // the 3x penalty pins the vandal near 1/(1+penalty) = 0.25
        assert!(t.trust_of(0).weight() < 0.3);
        assert!(t.trust_of(1).weight() > 0.9);
        assert!(t.converged(), "40 full-confidence rounds is plenty");
        let v = t.view();
        assert!(!v.is_eligible(0));
        assert!(v.is_eligible(1));
        assert_eq!(v.n_quarantined(), 1);
    }

    #[test]
    fn a_falsely_quarantined_reporter_walks_the_probation_ramp_back() {
        let cfg = ReputationConfig::paper();
        let mut t = ReputationTracker::new(cfg, 1);
        // disagree until quarantined
        while t.trust_of(0).state != TrustState::Quarantined {
            round(&mut t, true, &[false]);
        }
        // now agree every round: weight recovers through readmit_above,
        // probation counts down, and the reporter ends Active
        let mut saw_probation = false;
        for _ in 0..200 {
            round(&mut t, true, &[true]);
            if matches!(t.trust_of(0).state, TrustState::Probation { .. }) {
                saw_probation = true;
            }
            if t.trust_of(0).state == TrustState::Active {
                break;
            }
        }
        assert!(saw_probation, "readmission must pass through probation");
        assert_eq!(t.trust_of(0).state, TrustState::Active);
        assert!(t.trust_of(0).weight() >= cfg.readmit_above);
    }

    #[test]
    fn a_probation_dip_goes_straight_back_to_quarantine() {
        let cfg = ReputationConfig::paper();
        let mut t = ReputationTracker::new(cfg, 1);
        while t.trust_of(0).state != TrustState::Quarantined {
            round(&mut t, true, &[false]);
        }
        while !matches!(t.trust_of(0).state, TrustState::Probation { .. }) {
            round(&mut t, true, &[true]);
        }
        // relapse: disagree until the weight dips under the floor again
        for _ in 0..400 {
            round(&mut t, true, &[false]);
            if t.trust_of(0).state == TrustState::Quarantined {
                return;
            }
            assert!(
                !matches!(t.trust_of(0).state, TrustState::Active),
                "a relapsing reporter must never skip to Active"
            );
        }
        panic!("the relapse never re-quarantined");
    }

    #[test]
    fn duplicates_and_off_roster_ids_never_double_count() {
        let mut t = ReputationTracker::new(ReputationConfig::paper(), 2);
        let before = t.trust_of(0);
        t.observe_round(true, &[(0, true, 1.0), (0, false, 1.0), (7, true, 1.0)]);
        let after = t.trust_of(0);
        assert_eq!(after.alpha, before.alpha + 1.0, "first report wins once");
        assert_eq!(after.beta, before.beta, "the duplicate is discarded");
        assert_eq!(t.n(), 2, "off-roster ids never grow the roster");
        // reporter 1 delivered nothing: only its state machine stepped
        assert_eq!(t.trust_of(1).alpha, 1.0);
        assert_eq!(t.trust_of(1).beta, 1.0);
    }

    #[test]
    fn confidence_scales_the_evidence() {
        let mut t = ReputationTracker::new(ReputationConfig::paper(), 2);
        t.observe_round(true, &[(0, true, 1.0), (1, true, 0.5)]);
        assert!(t.trust_of(0).weight() > t.trust_of(1).weight());
        // out-of-range confidence is clamped, not trusted
        t.observe_round(true, &[(0, false, 42.0)]);
        assert!(t.trust_of(0).weight() >= 0.0 && t.trust_of(0).weight() <= 1.0);
    }

    #[test]
    fn uniform_converged_view_is_the_oracle_reference() {
        let v = ReputationView::uniform_converged(6);
        assert_eq!(v.n(), 6);
        assert!(v.converged());
        assert_eq!(v.n_quarantined(), 0);
        assert_eq!(v.min_weight(), v.max_weight());
        assert!(v.is_eligible(17), "off roster is eligible");
        assert_eq!(v.weight_of(17), 0.5, "off roster is neutral");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Weights live in [0, 1] under any report history, the census
        /// always sums to the roster (no reporter lost or
        /// double-counted across a round), and eligibility is exactly
        /// "not quarantined".
        #[test]
        fn prop_weights_bounded_and_census_conserved(
            n in 1usize..8,
            n_rounds in 0usize..40,
            seed in any::<u64>(),
        ) {
            use rand::Rng;
            let mut rng = comimo_math::rng::derive(seed, 0x7E57_0001);
            let mut t = ReputationTracker::new(ReputationConfig::paper(), n);
            for _ in 0..n_rounds {
                let verdict = rng.gen_bool(0.5);
                let reports: Vec<(usize, bool, f64)> = (0..rng.gen_range(0usize..12))
                    .map(|_| (rng.gen_range(0usize..10), rng.gen_bool(0.5), rng.gen_range(0.0f64..1.0)))
                    .collect();
                t.observe_round(verdict, &reports);
                prop_assert_eq!(t.n(), n);
                let (a, q, p) = t.census();
                prop_assert_eq!(a + q + p, n);
                let v = t.view();
                prop_assert_eq!(v.n(), n);
                prop_assert_eq!(v.n_quarantined(), q);
                for i in 0..n {
                    let w = t.trust_of(i).weight();
                    prop_assert!((0.0..=1.0).contains(&w), "weight {w} out of [0,1]");
                    prop_assert_eq!(v.weight_of(i).to_bits(), w.to_bits());
                    prop_assert_eq!(v.is_eligible(i), t.trust_of(i).eligible());
                }
            }
            prop_assert_eq!(t.rounds_observed(), n_rounds as u64);
        }

        /// Monotonicity: an unbroken agreement streak never lowers a
        /// weight; an unbroken disagreement streak never raises it.
        #[test]
        fn prop_weight_monotone_under_consistent_streaks(
            streak in 1usize..60,
            conf in 0.0f64..1.0,
            agree in any::<bool>(),
        ) {
            let mut t = ReputationTracker::new(ReputationConfig::paper(), 1);
            let mut last = t.trust_of(0).weight();
            for _ in 0..streak {
                t.observe_round(true, &[(0, agree, conf)]);
                let w = t.trust_of(0).weight();
                if agree {
                    prop_assert!(w >= last, "agreement lowered {last} -> {w}");
                } else {
                    prop_assert!(w <= last, "disagreement raised {last} -> {w}");
                }
                last = w;
            }
        }

        /// The quarantine machine never teleports: Active can only fall
        /// to Quarantined, Quarantined can only climb to Probation, and
        /// Probation resolves to Active or back to Quarantined.
        #[test]
        fn prop_state_transitions_are_adjacent(
            n_rounds in 1usize..120,
            seed in any::<u64>(),
        ) {
            use rand::Rng;
            let mut rng = comimo_math::rng::derive(seed, 0x7E57_0002);
            let mut t = ReputationTracker::new(ReputationConfig::paper(), 1);
            let mut prev = t.trust_of(0).state;
            for _ in 0..n_rounds {
                let (verdict, bit, conf) =
                    (rng.gen_bool(0.5), rng.gen_bool(0.5), rng.gen_range(0.0f64..1.0));
                t.observe_round(verdict, &[(0, bit, conf)]);
                let next = t.trust_of(0).state;
                let legal = match prev {
                    TrustState::Active => matches!(
                        next, TrustState::Active | TrustState::Quarantined),
                    TrustState::Quarantined => matches!(
                        next, TrustState::Quarantined | TrustState::Probation { .. }),
                    TrustState::Probation { remaining } => match next {
                        TrustState::Active => remaining <= 1,
                        TrustState::Quarantined => true,
                        TrustState::Probation { remaining: r } => r + 1 == remaining,
                    },
                };
                prop_assert!(legal, "illegal transition {prev:?} -> {next:?}");
                prev = next;
            }
        }
    }
}
