//! Cluster-head decision fusion with graceful degradation.
//!
//! The head fuses the soft reports that survived transport (Rossi et
//! al., MIMO decision fusion) with one function, [`fuse_soft_weighted`].
//! Every report is a [`SoftReport`]: a word decoded off the noisy
//! long-haul, or a clean boolean carried as a report saturated at
//! `llr = ±∞` ([`SoftReport::saturated`]). Counting rules are the
//! high-SNR limit of the LLR rule (Salvo Rossi, Ciuonzo & Romano): at
//! saturated posteriors the soft vote is an exact integer and the soft
//! rung reproduces k-out-of-N count for count.
//!
//! The quorum is re-derived from the *distinct* reporters that actually
//! arrived, not from the nominal roster, so reporter churn mid-window
//! shrinks `k` instead of making the rule unsatisfiable (and duplicate
//! frames that slip past transport dedup can never inflate it). When
//! report quality or quantity thins, the head walks a fixed ladder:
//!
//! ```text
//! weighted LLR  →  hard-decode  →  OR over whatever arrived  →  head-local
//! ```
//!
//! The soft rung fuses posteriors while their mean decoder confidence
//! holds the [`FusionConfig::reliability_floor`]; below it the head
//! hard-decodes the LLR signs under the same `k`. A floor of `+∞` is
//! plain k-out-of-N: the config has no soft rung. With a
//! [`ReputationView`] (Byzantine-resilient mode) each posterior is
//! scaled by its reporter's trust weight and quarantined reporters are
//! dropped *before* quorum-k re-derivation, on every rung. Without a
//! view the weights are uniform, and a uniform weight vector cancels
//! exactly. Every decision records which rung produced it
//! ([`RuleUsed`]) plus the report count and quorum it used — the
//! observability the `INV-FUSION-QUORUM`, `INV-LLR-DEGRADE-ORDER` and
//! `INV-REPUTATION-SANE` invariants check.
//!
//! Cost: the head runs once per sensing round, so it makes one pass
//! over the delivered reports and evaluates one posterior per distinct
//! report; confidence, hard bit and the weighted sums all come from
//! that pass. It allocates nothing, except under the cold-start
//! robust-median guard (an unconverged view, at least 3 reports, soft
//! rung), which takes one buffer for the posteriors and their sorted
//! copy. The `alloc_budget` test binary pins these counts.

use crate::reputation::ReputationView;
use comimo_math::special::ln_gamma;
use comimo_stbc::SoftReport;
use serde::Serialize;

/// The k-out-of-N quorum, the soft rung's reliability floor and the
/// degradation threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FusionConfig {
    /// Fraction of arrived reports required, in `(0, 1]`: busy if the
    /// vote reaches `ceil(k_frac · n)` of the `n` arrived reports, `k`
    /// re-derived per round as reporters churn.
    pub k_frac: f64,
    /// Mean per-report confidence (∈ [0.5, 1]) below which the soft rung
    /// is abandoned for hard decoding; `+inf` means no soft rung at all
    /// (plain k-out-of-N over the hard bits).
    pub reliability_floor: f64,
    /// Minimum arrived reports for the quorum rungs; below this the
    /// head falls back to OR, and with zero reports to local sensing.
    pub min_quorum: usize,
}

impl FusionConfig {
    /// The experiments' default: majority voting (k-out-of-N at ½) with
    /// at least 2 arrived reports.
    pub fn paper() -> Self {
        Self::paper_llr(f64::INFINITY)
    }

    /// The noisy-long-haul default: majority LLR fusion with the given
    /// reliability floor, same quorum threshold as [`Self::paper`].
    pub fn paper_llr(reliability_floor: f64) -> Self {
        Self {
            k_frac: 0.5,
            reliability_floor,
            min_quorum: 2,
        }
    }
}

/// Which rung of the degradation ladder produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RuleUsed {
    /// Soft LLR fusion ran: quorum held and the decoded posteriors were
    /// reliable enough to trust. Posteriors are weighted by trust when
    /// the head holds a reputation view, uniformly otherwise.
    WeightedLlr,
    /// Quorum held but the posteriors were not trusted: the LLR signs
    /// were hard-decoded and counted against the same quorum.
    HardDecode,
    /// Too few reports for the quorum rungs: OR over what arrived.
    OrFallback,
    /// No reports at all: the head's own detector decided alone.
    HeadLocal,
}

impl RuleUsed {
    /// Position on the degradation ladder, `0` (most capable) to `3`
    /// (head-local). The `INV-LLR-DEGRADE-ORDER` invariant checks that
    /// every decision sits on the *first* eligible rung — the ladder is
    /// walked monotonically, never skipping upward.
    pub fn rung_index(self) -> u8 {
        match self {
            Self::WeightedLlr => 0,
            Self::HardDecode => 1,
            Self::OrFallback => 2,
            Self::HeadLocal => 3,
        }
    }
}

/// The ladder bookkeeping behind one fused decision: everything the
/// `INV-LLR-DEGRADE-ORDER` invariant needs to independently recompute
/// which rung *should* have decided.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LadderEvidence {
    /// Whether the config has a soft rung (a finite reliability floor).
    pub soft_path: bool,
    /// Whether a reputation view was supplied (it weights the soft
    /// rung and filters quarantined reporters on every rung).
    pub weighted: bool,
    /// The rung that actually decided.
    pub rung: RuleUsed,
    /// Distinct reporters whose reports were fused (after dedup).
    pub n_distinct: usize,
    /// Raw delivered reports before reporter dedup.
    pub n_raw: usize,
    /// Distinct quarantined reporters whose delivered reports were
    /// dropped *before* quorum-k re-derivation — `INV-REPUTATION-SANE`
    /// pins that they are never counted toward `k`.
    pub n_quarantined: usize,
    /// The effective quorum threshold `max(1, min_quorum)`.
    pub min_quorum: usize,
    /// Mean decoder confidence over the distinct reports (`1.0` for
    /// saturated reports, `0.0` with no reports).
    pub mean_confidence: f64,
    /// The soft rung's reliability floor (`+inf` when the config has no
    /// soft rung).
    pub reliability_floor: f64,
}

/// One fused decision, with the evidence it rests on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FusionDecision {
    /// The fused verdict: `true` = busy, stay off the channel.
    pub busy: bool,
    /// Which degradation rung decided.
    pub rule_used: RuleUsed,
    /// Reports that arrived and were fused (0 on the head-local rung).
    pub reports_used: usize,
    /// Busy votes required by the rung that decided (0 head-local).
    pub quorum: usize,
}

/// The k-out-of-N quorum over `n_reports` arrived reports — where `k`
/// is re-derived as reporters churn: `max(1, ceil(k_frac · n_reports))`,
/// never larger than `n_reports`, never zero, and well-defined for any
/// `n_reports ≥ 1`.
pub fn quorum_of(k_frac: f64, n_reports: usize) -> usize {
    assert!(n_reports >= 1, "quorum of an empty report set is undefined");
    assert!(k_frac > 0.0 && k_frac <= 1.0, "k_frac must be in (0, 1]");
    ((k_frac * n_reports as f64).ceil() as usize).clamp(1, n_reports)
}

/// The first report of each distinct reporter, in arrival order.
/// Transport already dedupes in-round retransmissions, but a duplicate
/// that slips through late (e.g. a stale frame accepted across a round
/// boundary) must not inflate `n` — and with it the re-derived `k` —
/// past the number of distinct reporters. Eligibility depends only on
/// the id, so dropping quarantined reporters from this sequence is the
/// same as deduping after the quarantine filter. The prefix scan is
/// quadratic in the report count, a handful per round, and allocates
/// nothing.
fn first_reports(
    reports: &[(usize, SoftReport)],
) -> impl Iterator<Item = (usize, SoftReport)> + '_ {
    reports
        .iter()
        .enumerate()
        .filter(|&(j, &(id, _))| reports[..j].iter().all(|&(prev, _)| prev != id))
        .map(|(_, &report)| report)
}

/// Median of a sorted, non-empty sample (the mean of the two middles
/// for even sizes).
fn median_of_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Robust-median outlier cut for the cold-start window: a report is an
/// outlier when its posterior sits more than `MAD_K × max(MAD,
/// MAD_FLOOR)` from the roster median. The floor keeps a saturated
/// honest majority (MAD = 0) from being unable to reject anything.
const MAD_K: f64 = 3.0;
const MAD_FLOOR: f64 = 0.05;

/// The weighted-vote sums `Σw`, `Σw·p` over the distinct reports, with
/// whether every weight equals the first.
struct WeightSums {
    w: f64,
    wp: f64,
    first: Option<f64>,
    uniform: bool,
}

impl WeightSums {
    const EMPTY: Self = Self {
        w: 0.0,
        wp: 0.0,
        first: None,
        uniform: true,
    };

    fn add(&mut self, w: f64, p: f64) {
        self.w += w;
        self.wp += w * p;
        let first = *self.first.get_or_insert(w);
        self.uniform &= w == first;
    }
}

/// The weight sums with the cold-start robust-median cut applied: a
/// report whose posterior sits more than the cut from the roster median
/// weighs zero. The one allocation of the fusion head lives here: the
/// `n` posteriors in report order plus a sorted copy, reused for the
/// sorted deviations (their multiset does not depend on the order the
/// posteriors are taken in).
fn median_cut_sums(reports: &[(usize, SoftReport)], view: &ReputationView, n: usize) -> WeightSums {
    let eligible = || first_reports(reports).filter(|&(id, _)| view.is_eligible(id));
    let mut buf = Vec::with_capacity(2 * n);
    buf.extend(eligible().map(|(_, r)| r.posterior_busy()));
    buf.extend_from_within(..n);
    let (posteriors, sorted) = buf.split_at_mut(n);
    sorted.sort_unstable_by(f64::total_cmp);
    let med = median_of_sorted(sorted);
    for (d, p) in sorted.iter_mut().zip(posteriors.iter()) {
        *d = (p - med).abs();
    }
    sorted.sort_unstable_by(f64::total_cmp);
    let cut = MAD_K * median_of_sorted(sorted).max(MAD_FLOOR);
    let mut sums = WeightSums::EMPTY;
    for ((id, _), &p) in eligible().zip(posteriors.iter()) {
        let w = if (p - med).abs() > cut {
            0.0
        } else {
            view.weight_of(id)
        };
        sums.add(w, p);
    }
    sums
}

/// Fuses the arrived `reports` (`(reporter_id, report)` pairs) under
/// `cfg`, with an optional [`ReputationView`], walking the ladder:
///
/// 0. **weighted LLR** — quorum holds *and* the mean decoder confidence
///    is at or above the reliability floor: busy iff the (weighted)
///    vote mass reaches `k − ½`. The half-vote slack matters: a strict
///    `V ≥ k` can never fire at `k = n` under finite SNR (n posteriors
///    of 1−ε sum below n forever). At saturated posteriors the vote is
///    an exact integer and `V ≥ k − ½ ⟺ V ≥ k` — count-identical to
///    k-out-of-N;
/// 1. **hard-decode** — quorum holds but the posteriors are not
///    trusted: the LLR signs are counted against the same `k`;
/// 2. **OR fallback** — below quorum: OR over the hard bits that made it;
/// 3. **head-local** — nothing arrived: the head decides alone.
///
/// Quarantined reporters are dropped and the rest deduped to distinct
/// reporters (first report wins) before quorum-k re-derivation, so
/// neither a vandal nor a duplicate can inflate `k`. Total: never
/// panics, never divides by a zero reporter count.
///
/// The soft rung's vote mass is the summed posteriors, or under a view
/// the normalized weighted vote `n·Σwᵢpᵢ/Σwᵢ`. Any *uniform* weight
/// vector cancels exactly, so the raw sum is used for it and the
/// reduction to unweighted fusion is bit-identical, not merely close.
/// While the view is **not yet converged** (cold start, near-prior
/// weights), robust-median outlier rejection zeroes the weight of
/// reports whose posterior sits far from the roster median — the guard
/// that keeps an SSDF coalition from steering verdicts before
/// reputation has evidence to separate it.
pub fn fuse_soft_weighted(
    cfg: &FusionConfig,
    reports: &[(usize, SoftReport)],
    head_local: bool,
    rep: Option<&ReputationView>,
) -> (FusionDecision, LadderEvidence) {
    let mut n = 0usize;
    let mut n_quarantined = 0usize;
    let mut hard_positives = 0usize;
    let mut confidence_sum = 0.0;
    let mut posterior_sum = 0.0;
    let mut weights = WeightSums::EMPTY;
    for (id, r) in first_reports(reports) {
        if rep.is_some_and(|view| !view.is_eligible(id)) {
            n_quarantined += 1;
            continue;
        }
        let p = r.posterior_busy();
        n += 1;
        hard_positives += usize::from(r.hard_bit());
        confidence_sum += p.max(1.0 - p);
        posterior_sum += p;
        if let Some(view) = rep {
            weights.add(view.weight_of(id), p);
        }
    }
    let min_quorum = cfg.min_quorum.max(1);
    let mean_confidence = if n == 0 {
        0.0
    } else {
        confidence_sum / n as f64
    };
    let (rule_used, busy, quorum) = if n == 0 {
        (RuleUsed::HeadLocal, head_local, 0)
    } else if n < min_quorum {
        (RuleUsed::OrFallback, hard_positives >= 1, 1)
    } else {
        let quorum = quorum_of(cfg.k_frac, n);
        if mean_confidence >= cfg.reliability_floor {
            if let Some(view) = rep.filter(|view| !view.converged() && n >= 3) {
                weights = median_cut_sums(reports, view, n);
            }
            let vote = if rep.is_none() || weights.uniform || weights.w <= 0.0 {
                posterior_sum
            } else {
                n as f64 * weights.wp / weights.w
            };
            (RuleUsed::WeightedLlr, vote >= quorum as f64 - 0.5, quorum)
        } else {
            (RuleUsed::HardDecode, hard_positives >= quorum, quorum)
        }
    };
    (
        FusionDecision {
            busy,
            rule_used,
            reports_used: n,
            quorum,
        },
        LadderEvidence {
            soft_path: cfg.reliability_floor.is_finite(),
            weighted: rep.is_some(),
            rung: rule_used,
            n_distinct: n,
            n_raw: reports.len(),
            n_quarantined,
            min_quorum,
            mean_confidence,
            reliability_floor: cfg.reliability_floor,
        },
    )
}

/// Closed-form fused positive probability for k-out-of-N over `n` iid
/// reporters each positive with probability `p`: the binomial tail
/// `Σ_{i=k}^{n} C(n,i) pⁱ (1−p)^{n−i}`, computed in log space via
/// [`ln_gamma`] so large `n` stays stable. Feeding per-reporter `Pd`
/// gives the fused `Pd`; feeding per-reporter `Pfa` gives the fused
/// `Pfa`.
pub fn fused_positive_prob(n: usize, k: usize, p: f64) -> f64 {
    assert!(n >= 1 && k >= 1 && k <= n);
    assert!((0.0..=1.0).contains(&p));
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    let (nf, lp, lq) = (n as f64, p.ln(), (1.0 - p).ln());
    let ln_choose = |i: f64| ln_gamma(nf + 1.0) - ln_gamma(i + 1.0) - ln_gamma(nf - i + 1.0);
    (k..=n)
        .map(|i| {
            let i = i as f64;
            (ln_choose(i) + i * lp + (nf - i) * lq).exp()
        })
        .sum::<f64>()
        .min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A soft report with the given LLR (gain/SNR fields irrelevant to
    /// fusion).
    fn soft(llr: f64) -> SoftReport {
        SoftReport {
            llr,
            channel_gain: 1.0,
            report_snr: llr.abs(),
        }
    }

    /// Clean booleans as saturated reports from reporters `0..`.
    fn clean(bits: &[bool]) -> Vec<(usize, SoftReport)> {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| (i, SoftReport::saturated(b)))
            .collect()
    }

    fn decide(
        cfg: &FusionConfig,
        reports: &[(usize, SoftReport)],
        head_local: bool,
    ) -> FusionDecision {
        fuse_soft_weighted(cfg, reports, head_local, None).0
    }

    #[test]
    fn k_is_rederived_as_the_arrived_report_count_churns() {
        // majority at ½: 8 reports need 4 busy votes, 4 need 2, 1 needs 1
        assert_eq!(quorum_of(0.5, 8), 4);
        assert_eq!(quorum_of(0.5, 5), 3); // ceil(2.5)
        assert_eq!(quorum_of(0.5, 4), 2);
        assert_eq!(quorum_of(0.5, 1), 1);
        // the quorum never exceeds what arrived, even at k_frac = 1, and
        // never drops to zero
        assert_eq!(quorum_of(1.0, 3), 3);
        assert_eq!(quorum_of(0.01, 6), 1);
    }

    #[test]
    fn zero_reports_fall_back_to_head_local_without_panicking() {
        for cfg in [FusionConfig::paper(), FusionConfig::paper_llr(0.9)] {
            for head_local in [false, true] {
                let (d, ev) = fuse_soft_weighted(&cfg, &[], head_local, None);
                assert_eq!(d.rule_used, RuleUsed::HeadLocal);
                assert_eq!(d.busy, head_local);
                assert_eq!(d.reports_used, 0);
                assert_eq!(d.quorum, 0);
                assert_eq!(ev.mean_confidence, 0.0);
                assert_eq!(ev.rung.rung_index(), 3);
            }
        }
    }

    #[test]
    fn sub_quorum_rounds_use_the_or_fallback() {
        let cfg = FusionConfig {
            k_frac: 1.0,
            reliability_floor: f64::INFINITY,
            min_quorum: 3,
        };
        // 2 < min_quorum: k = n would say idle here, OR must say busy
        let d = decide(&cfg, &clean(&[true, false]), false);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert!(d.busy);
        assert_eq!(d.quorum, 1);
        let d = decide(&cfg, &clean(&[false, false]), true);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert!(!d.busy, "OR fallback ignores the head-local bit");
        // the soft path walks the same fallback
        let cfg = FusionConfig::paper_llr(0.9);
        let d = decide(&cfg, &[(3, soft(100.0))], false);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert!(d.busy);
        let d = decide(&cfg, &[(3, soft(-100.0))], true);
        assert!(!d.busy, "OR fallback ignores the head-local bit");
    }

    #[test]
    fn k_frac_spans_the_and_to_or_counting_rules() {
        let at = |k_frac| FusionConfig {
            k_frac,
            reliability_floor: f64::INFINITY,
            min_quorum: 1,
        };
        // k_frac = 1 is AND, a k_frac under 1/n is OR
        assert!(decide(&at(1.0), &clean(&[true, true, true]), false).busy);
        assert!(!decide(&at(1.0), &clean(&[true, false, true]), false).busy);
        assert!(decide(&at(0.01), &clean(&[false, false, true]), false).busy);
        assert!(!decide(&at(0.01), &clean(&[false, false, false]), true).busy);
        let maj = FusionConfig::paper();
        let d = decide(&maj, &clean(&[true, true, false]), false);
        assert_eq!(d.rule_used, RuleUsed::HardDecode);
        assert!(d.busy);
        assert!(!decide(&maj, &clean(&[true, false, false]), false).busy);
    }

    #[test]
    fn every_decision_meets_its_own_quorum_accounting() {
        // the structural property INV-FUSION-QUORUM pins: whenever a
        // non-head-local rung decides, reports_used ≥ quorum ≥ 1
        let cfg = FusionConfig::paper();
        for n in 0..10usize {
            let d = decide(&cfg, &clean(&vec![true; n]), false);
            if d.rule_used == RuleUsed::HeadLocal {
                assert_eq!(n, 0);
            } else {
                assert!(d.quorum >= 1 && d.reports_used >= d.quorum, "n = {n}");
            }
        }
    }

    #[test]
    fn duplicate_reporters_cannot_inflate_the_rederived_quorum() {
        // regression: three frames from ONE reporter used to count as
        // n = 3, deriving k = 2 under majority and jumping straight to
        // the quorum rung — a single distinct reporter must walk the OR
        // fallback instead
        let cfg = FusionConfig::paper();
        let one = SoftReport::saturated(true);
        let (d, ev) = fuse_soft_weighted(&cfg, &[(4, one), (4, one), (4, one)], false, None);
        assert_eq!(ev.n_raw, 3);
        assert_eq!(ev.n_distinct, 1);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert_eq!(d.reports_used, 1);
        assert!(d.quorum <= ev.n_distinct, "k must never exceed distinct");
        // first report per reporter wins; a later contradicting dupe is
        // discarded: majority over [(0,true),(1,false)] has k = 1 → busy
        let mut reports = clean(&[true, false]);
        reports.push((0, SoftReport::saturated(false)));
        let d = decide(&cfg, &reports, false);
        assert_eq!(d.reports_used, 2);
        assert_eq!(d.rule_used, RuleUsed::HardDecode);
        assert!(d.busy, "the late duplicate must not overwrite reporter 0");
    }

    #[test]
    fn soft_rung_decides_when_confident() {
        let cfg = FusionConfig::paper_llr(0.9);
        let (d, ev) = fuse_soft_weighted(
            &cfg,
            &[(0, soft(40.0)), (1, soft(35.0)), (2, soft(-42.0))],
            false,
            None,
        );
        assert_eq!(d.rule_used, RuleUsed::WeightedLlr);
        assert_eq!(ev.rung, RuleUsed::WeightedLlr);
        assert_eq!(d.quorum, 2);
        assert!(d.busy, "2 of 3 confident busy posteriors beat k = 2");
        assert!(ev.mean_confidence >= 0.9);
        assert!(ev.soft_path);
        assert!(!ev.weighted, "no reputation view was supplied");
        assert_eq!(ev.n_quarantined, 0);
        assert_eq!(ev.rung.rung_index(), 0);
    }

    #[test]
    fn low_confidence_degrades_to_hard_decoding() {
        // |llr| ≈ 0.2 → confidence ≈ 0.55, under a 0.9 floor
        let cfg = FusionConfig::paper_llr(0.9);
        let (d, ev) = fuse_soft_weighted(
            &cfg,
            &[(0, soft(0.2)), (1, soft(0.2)), (2, soft(-0.1))],
            false,
            None,
        );
        assert_eq!(d.rule_used, RuleUsed::HardDecode);
        assert!(ev.mean_confidence < 0.9);
        assert!(d.busy, "hard bits 2/3 busy meet k = 2");
        assert_eq!(ev.rung.rung_index(), 1);
    }

    #[test]
    fn saturated_posteriors_reproduce_k_out_of_n_exactly() {
        // the SNR → ∞ oracle property at the fusion layer: saturated
        // reports give posteriors of exactly 1.0/0.0, so the soft rung's
        // vote equals the hard rung's count bit for bit on the same
        // inputs
        let soft_cfg = FusionConfig::paper_llr(0.9);
        let hard_cfg = FusionConfig::paper();
        for mask in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| mask & (1 << i) != 0).collect();
            let reports = clean(&bits);
            let (soft_d, ev) = fuse_soft_weighted(&soft_cfg, &reports, false, None);
            let (hard_d, hard_ev) = fuse_soft_weighted(&hard_cfg, &reports, false, None);
            assert_eq!(soft_d.rule_used, RuleUsed::WeightedLlr);
            assert_eq!(hard_d.rule_used, RuleUsed::HardDecode);
            assert!(ev.soft_path && !hard_ev.soft_path);
            assert_eq!(ev.mean_confidence, 1.0);
            assert_eq!(soft_d.busy, hard_d.busy, "mask {mask:05b}");
            assert_eq!(soft_d.quorum, hard_d.quorum);
            assert_eq!(soft_d.reports_used, hard_d.reports_used);
            let positives = bits.iter().filter(|&&b| b).count();
            assert_eq!(hard_d.busy, positives >= quorum_of(0.5, 5));
        }
    }

    #[test]
    fn an_infinite_floor_never_reaches_the_soft_rung() {
        // plain k-out-of-N has no soft rung: it hard-decodes even at
        // perfect confidence
        let cfg = FusionConfig::paper();
        assert_eq!(cfg.reliability_floor, f64::INFINITY);
        let (d, ev) = fuse_soft_weighted(
            &cfg,
            &[(0, soft(f64::INFINITY)), (1, soft(80.0))],
            false,
            None,
        );
        assert_eq!(d.rule_used, RuleUsed::HardDecode);
        assert!(!ev.soft_path);
        assert!(d.busy);
    }

    #[test]
    fn uniform_converged_weights_reproduce_unweighted_llr_count_for_count() {
        // THE pinned oracle at the fusion layer: under any uniform,
        // converged weight vector the weighted rung's normalization
        // cancels exactly — same rung, busy bit, quorum and report count
        // as fusion without a view, for saturated and finite LLRs alike
        let cfg = FusionConfig::paper_llr(0.6);
        let view = ReputationView::uniform_converged(5);
        for mask in 0..32u32 {
            for scale in [0.4, 2.0, f64::INFINITY] {
                let softs: Vec<(usize, SoftReport)> = (0..5)
                    .map(|i| {
                        let bit = mask & (1 << i) != 0;
                        (i, soft(if bit { scale } else { -scale }))
                    })
                    .collect();
                let (unweighted, uev) = fuse_soft_weighted(&cfg, &softs, false, None);
                let (weighted, ev) = fuse_soft_weighted(&cfg, &softs, false, Some(&view));
                assert!(ev.weighted && !uev.weighted);
                assert_eq!(weighted, unweighted, "mask {mask:05b} × {scale}");
            }
        }
    }

    #[test]
    fn quarantined_reporters_are_excluded_on_every_rung() {
        // satellite regression: quorum-k re-derivation must count only
        // eligible reporters — hard, OR and head-local included
        use crate::reputation::{ReputationConfig, ReputationTracker, TrustState};
        let mut tracker = ReputationTracker::new(ReputationConfig::paper(), 4);
        // quarantine reporter 3 with a disagreement streak
        while tracker.trust_of(3).state != TrustState::Quarantined {
            tracker.observe_round(true, &[(3, false, 1.0)]);
        }
        let view = tracker.view();
        assert_eq!(view.n_quarantined(), 1);
        let (yes, no) = (SoftReport::saturated(true), SoftReport::saturated(false));

        // hard rung: 4 raw reporters, 3 eligible → k over 3
        let cfg = FusionConfig::paper();
        let all = [(0, yes), (1, yes), (2, no), (3, no)];
        let (d, ev) = fuse_soft_weighted(&cfg, &all, false, Some(&view));
        assert_eq!(ev.n_distinct, 3);
        assert_eq!(ev.n_quarantined, 1);
        assert_eq!(d.rule_used, RuleUsed::HardDecode);
        assert_eq!(d.quorum, 2, "k derives over the 3 eligible, not 4");
        assert!(d.busy);

        // OR fallback: only the quarantined vandal and one honest idle
        // arrive — the vandal's busy vote must not exist
        let (d, ev) = fuse_soft_weighted(&cfg, &[(3, yes), (0, no)], false, Some(&view));
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert_eq!(ev.n_distinct, 1);
        assert!(!d.busy, "the quarantined busy vote must be dropped");

        // head-local: everyone delivered is quarantined
        let (d, ev) = fuse_soft_weighted(&cfg, &[(3, yes)], false, Some(&view));
        assert_eq!(d.rule_used, RuleUsed::HeadLocal);
        assert_eq!(d.reports_used, 0);
        assert_eq!(ev.n_quarantined, 1);
        assert!(!d.busy);

        // and the soft rung walks the same exclusions
        let soft_cfg = FusionConfig::paper_llr(0.6);
        let (d, ev) = fuse_soft_weighted(
            &soft_cfg,
            &[(3, soft(60.0)), (0, soft(-50.0))],
            false,
            Some(&view),
        );
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert_eq!(ev.n_distinct, 1);
        assert!(!d.busy);
        let (d, _) = fuse_soft_weighted(&soft_cfg, &[(3, soft(60.0))], true, Some(&view));
        assert_eq!(d.rule_used, RuleUsed::HeadLocal);
        assert!(d.busy, "with everyone quarantined the head decides alone");
    }

    #[test]
    fn cold_start_median_guard_rejects_always_no_outliers() {
        // unconverged near-prior weights cannot separate a coalition;
        // the robust-median cut must — 3 saturated honest busy reports
        // vs 2 always-no falsifiers at k = ceil(0.8·5) = 4 misses
        // unweighted but detects under the guard
        let cfg = FusionConfig {
            k_frac: 0.8,
            reliability_floor: 0.6,
            min_quorum: 2,
        };
        let reports: Vec<(usize, SoftReport)> = vec![
            (0, soft(50.0)),
            (1, soft(45.0)),
            (2, soft(55.0)),
            (3, soft(-60.0)),
            (4, soft(-60.0)),
        ];
        let unweighted = decide(&cfg, &reports, false);
        assert!(!unweighted.busy, "3 honest of 5 under k = 4 must miss");
        // a fresh (unconverged) tracker view: uniform prior weights
        let tracker = crate::reputation::ReputationTracker::new(
            crate::reputation::ReputationConfig::paper(),
            5,
        );
        let view = tracker.view();
        assert!(!view.converged());
        let (guarded, ev) = fuse_soft_weighted(&cfg, &reports, false, Some(&view));
        assert_eq!(guarded.rule_used, RuleUsed::WeightedLlr);
        assert!(guarded.busy, "the median cut must zero the outliers");
        assert_eq!(ev.n_quarantined, 0, "cold start quarantines nobody");
        // converged low weights achieve the same containment without
        // the median guard
        let mut t = crate::reputation::ReputationTracker::new(
            crate::reputation::ReputationConfig::paper(),
            5,
        );
        for _ in 0..30 {
            t.observe_round(
                true,
                &[
                    (0, true, 1.0),
                    (1, true, 1.0),
                    (2, true, 1.0),
                    (3, false, 1.0),
                    (4, false, 1.0),
                ],
            );
        }
        let view = t.view();
        assert!(view.converged());
        let (weighted, ev) = fuse_soft_weighted(&cfg, &reports, false, Some(&view));
        assert!(weighted.busy, "converged weights must restore detection");
        assert_eq!(ev.n_quarantined, 2, "the vandals are quarantined by now");
        assert_eq!(ev.n_distinct, 3);
    }

    /// The filter → dedupe → soft-vote pipeline the one-pass head
    /// replaced, kept as its oracle: each stage materializes its own
    /// `Vec`, and every posterior is re-evaluated per use.
    mod oracle {
        use super::*;

        fn dedupe_by_reporter<T: Copy>(reports: &[(usize, T)]) -> Vec<(usize, T)> {
            let mut seen: Vec<usize> = Vec::with_capacity(reports.len());
            let mut out = Vec::with_capacity(reports.len());
            for &(id, payload) in reports {
                if !seen.contains(&id) {
                    seen.push(id);
                    out.push((id, payload));
                }
            }
            out
        }

        fn filter_eligible<T: Copy>(
            reports: &[(usize, T)],
            rep: Option<&ReputationView>,
        ) -> (Vec<(usize, T)>, usize) {
            let Some(view) = rep else {
                return (reports.to_vec(), 0);
            };
            let mut dropped: Vec<usize> = Vec::new();
            let kept: Vec<(usize, T)> = reports
                .iter()
                .filter(|&&(id, _)| {
                    let ok = view.is_eligible(id);
                    if !ok && !dropped.contains(&id) {
                        dropped.push(id);
                    }
                    ok
                })
                .copied()
                .collect();
            (kept, dropped.len())
        }

        fn median(xs: &[f64]) -> f64 {
            let mut s = xs.to_vec();
            s.sort_by(f64::total_cmp);
            let n = s.len();
            if n % 2 == 1 {
                s[n / 2]
            } else {
                0.5 * (s[n / 2 - 1] + s[n / 2])
            }
        }

        fn soft_vote(distinct: &[(usize, SoftReport)], rep: Option<&ReputationView>) -> f64 {
            let soft_votes: f64 = distinct.iter().map(|(_, r)| r.posterior_busy()).sum();
            let Some(view) = rep else {
                return soft_votes;
            };
            let n = distinct.len();
            let posteriors: Vec<f64> = distinct.iter().map(|(_, r)| r.posterior_busy()).collect();
            let mut weights: Vec<f64> =
                distinct.iter().map(|&(id, _)| view.weight_of(id)).collect();
            if !view.converged() && n >= 3 {
                let med = median(&posteriors);
                let devs: Vec<f64> = posteriors.iter().map(|p| (p - med).abs()).collect();
                let cut = MAD_K * median(&devs).max(MAD_FLOOR);
                for (w, d) in weights.iter_mut().zip(&devs) {
                    if *d > cut {
                        *w = 0.0;
                    }
                }
            }
            let w_sum: f64 = weights.iter().sum();
            let uniform = weights.iter().all(|&w| w == weights[0]);
            if uniform || w_sum <= 0.0 {
                soft_votes
            } else {
                let wp: f64 = weights.iter().zip(&posteriors).map(|(w, p)| w * p).sum();
                n as f64 * wp / w_sum
            }
        }

        pub(super) fn fuse(
            cfg: &FusionConfig,
            reports: &[(usize, SoftReport)],
            head_local: bool,
            rep: Option<&ReputationView>,
        ) -> (FusionDecision, LadderEvidence) {
            let (eligible, n_quarantined) = filter_eligible(reports, rep);
            let distinct = dedupe_by_reporter(&eligible);
            let n = distinct.len();
            let min_quorum = cfg.min_quorum.max(1);
            let mean_confidence = if n == 0 {
                0.0
            } else {
                distinct.iter().map(|(_, r)| r.confidence()).sum::<f64>() / n as f64
            };
            let hard_positives = || distinct.iter().filter(|(_, r)| r.hard_bit()).count();
            let (rule_used, busy, quorum) = if n == 0 {
                (RuleUsed::HeadLocal, head_local, 0)
            } else if n < min_quorum {
                (RuleUsed::OrFallback, hard_positives() >= 1, 1)
            } else {
                let quorum = quorum_of(cfg.k_frac, n);
                if mean_confidence >= cfg.reliability_floor {
                    let vote = soft_vote(&distinct, rep);
                    (RuleUsed::WeightedLlr, vote >= quorum as f64 - 0.5, quorum)
                } else {
                    (RuleUsed::HardDecode, hard_positives() >= quorum, quorum)
                }
            };
            (
                FusionDecision {
                    busy,
                    rule_used,
                    reports_used: n,
                    quorum,
                },
                LadderEvidence {
                    soft_path: cfg.reliability_floor.is_finite(),
                    weighted: rep.is_some(),
                    rung: rule_used,
                    n_distinct: n,
                    n_raw: reports.len(),
                    n_quarantined,
                    min_quorum,
                    mean_confidence,
                    reliability_floor: cfg.reliability_floor,
                },
            )
        }
    }

    /// Real tracker views over seeded report histories: cold and
    /// converged, with and without quarantined reporters, rosters of 1
    /// to 8 (report ids run to 9, so some are off roster).
    fn seeded_views() -> Vec<ReputationView> {
        use crate::reputation::{ReputationConfig, ReputationTracker};
        use rand::Rng;
        let mut rng = comimo_math::rng::derive(0xF05E, 1);
        let mut views = vec![ReputationView::uniform_converged(6)];
        for v in 0..24usize {
            let n = 1 + v % 8;
            let mut t = ReputationTracker::new(ReputationConfig::paper(), n);
            for _ in 0..[0, 2, 8, 40][v % 4] {
                let verdict = rng.gen_bool(0.5);
                // reporter 0 always votes idle: a vandal the long
                // histories quarantine
                let reports: Vec<(usize, bool, f64)> = (0..n)
                    .map(|i| (i, i != 0 && verdict, rng.gen_range(0.5..=1.0)))
                    .collect();
                t.observe_round(verdict, &reports);
            }
            views.push(t.view());
        }
        views
    }

    /// One seeded report: LLRs at ±∞, ±0, NaN, small and large finite.
    fn seeded_llr(rng: &mut impl rand::Rng) -> f64 {
        match rng.gen_range(0..8u32) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => [0.0, -0.0, f64::NAN][rng.gen_range(0..3usize)],
            3 | 4 => rng.gen_range(-1.0..1.0),
            _ => rng.gen_range(-30.0..30.0),
        }
    }

    #[test]
    fn one_pass_head_matches_the_staged_oracle_bit_for_bit() {
        use rand::Rng;
        let views = seeded_views();
        assert!(views.iter().any(|v| !v.converged() && v.n() >= 3));
        assert!(views.iter().any(|v| v.converged() && v.n_quarantined() > 0));
        let mut rng = comimo_math::rng::derive(0xF05E, 2);
        let mut rungs = [0usize; 4];
        let mut cold_guard = 0usize;
        for case in 0..24_000u32 {
            let reports: Vec<(usize, SoftReport)> = (0..rng.gen_range(0..=10usize))
                .map(|_| (rng.gen_range(0..10usize), soft(seeded_llr(&mut rng))))
                .collect();
            let cfg = FusionConfig {
                k_frac: [0.01, 0.5, 0.8, 1.0][rng.gen_range(0..4usize)],
                reliability_floor: [0.0, 0.6, 0.9, f64::INFINITY][rng.gen_range(0..4usize)],
                min_quorum: rng.gen_range(0..=3usize),
            };
            let pick = rng.gen_range(0..=views.len());
            let rep = views.get(pick);
            let head_local = rng.gen_bool(0.5);
            let (d, ev) = fuse_soft_weighted(&cfg, &reports, head_local, rep);
            let (od, oev) = oracle::fuse(&cfg, &reports, head_local, rep);
            assert_eq!(d, od, "case {case}");
            assert_eq!(
                ev.mean_confidence.to_bits(),
                oev.mean_confidence.to_bits(),
                "case {case}"
            );
            let blank = |e: LadderEvidence| LadderEvidence {
                mean_confidence: 0.0,
                ..e
            };
            assert_eq!(blank(ev), blank(oev), "case {case}");
            rungs[usize::from(d.rule_used.rung_index())] += 1;
            if d.rule_used == RuleUsed::WeightedLlr
                && rep.is_some_and(|v| !v.converged())
                && d.reports_used >= 3
            {
                cold_guard += 1;
            }
        }
        assert!(rungs.iter().all(|&c| c >= 500), "rung coverage {rungs:?}");
        assert!(
            cold_guard >= 500,
            "cold-start guard reached {cold_guard} times"
        );
    }

    #[test]
    fn binomial_tail_matches_hand_computable_points() {
        // n=3, k=2, p=0.5: 3·(1/8) + 1/8 = 0.5
        assert!((fused_positive_prob(3, 2, 0.5) - 0.5).abs() < 1e-12);
        // k=1 is the OR rule: 1 − (1−p)^n
        let p = 0.3f64;
        let or_exact = 1.0 - (1.0 - p).powi(5);
        assert!((fused_positive_prob(5, 1, p) - or_exact).abs() < 1e-12);
        // k=n is the AND rule: p^n
        assert!((fused_positive_prob(4, 4, p) - p.powi(4)).abs() < 1e-12);
        // edges
        assert_eq!(fused_positive_prob(6, 3, 0.0), 0.0);
        assert_eq!(fused_positive_prob(6, 3, 1.0), 1.0);
        // monotone in p
        assert!(fused_positive_prob(9, 5, 0.6) > fused_positive_prob(9, 5, 0.4));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `fuse_soft_weighted` is total over any report vector and
        /// config — finite LLRs mixed with clean booleans saturated at
        /// ±∞ — and always lands on the *first* eligible rung of the
        /// four-rung ladder, the structural property
        /// `INV-LLR-DEGRADE-ORDER` pins at the world level. The counting
        /// rungs count hard bits against the re-derived quorum, and a
        /// uniform converged view reproduces fusion without one exactly.
        #[test]
        fn prop_fuse_walks_the_four_rung_ladder_in_order(
            ids in proptest::collection::vec(0usize..6, 0..16),
            llrs in proptest::collection::vec(-30.0f64..30.0, 0..16),
            saturate in proptest::collection::vec(any::<bool>(), 16..17),
            all_saturated in any::<bool>(),
            min_quorum in 0usize..8,
            k_frac in 0.01f64..1.0,
            reliability_floor in 0.5f64..1.0,
            has_soft_rung in any::<bool>(),
            use_view in any::<bool>(),
        ) {
            let softs: Vec<(usize, SoftReport)> = ids
                .iter()
                .zip(&llrs)
                .enumerate()
                .map(|(i, (&id, &llr))| {
                    let report = if all_saturated || saturate[i] {
                        SoftReport::saturated(llr > 0.0)
                    } else {
                        SoftReport { llr, channel_gain: 1.0, report_snr: llr.abs() }
                    };
                    (id, report)
                })
                .collect();
            let cfg = FusionConfig {
                k_frac,
                reliability_floor: if has_soft_rung { reliability_floor } else { f64::INFINITY },
                min_quorum,
            };
            let view = ReputationView::uniform_converged(6);
            let rep = if use_view { Some(&view) } else { None };
            let (d, ev) = fuse_soft_weighted(&cfg, &softs, true, rep);
            prop_assert_eq!(ev.soft_path, has_soft_rung);
            prop_assert_eq!(ev.weighted, use_view);
            prop_assert_eq!(ev.n_quarantined, 0);
            prop_assert_eq!(ev.rung, d.rule_used);
            prop_assert!(ev.n_distinct <= ev.n_raw);
            prop_assert_eq!(d.reports_used, ev.n_distinct);
            let first_eligible = if ev.n_distinct == 0 {
                3
            } else if ev.n_distinct >= ev.min_quorum {
                if ev.mean_confidence >= ev.reliability_floor { 0 } else { 1 }
            } else {
                2
            };
            prop_assert_eq!(ev.rung.rung_index(), first_eligible);

            let mut distinct: Vec<(usize, SoftReport)> = Vec::new();
            for &(id, r) in &softs {
                if distinct.iter().all(|&(seen, _)| seen != id) {
                    distinct.push((id, r));
                }
            }
            prop_assert_eq!(distinct.len(), ev.n_distinct);
            let positives = distinct.iter().filter(|(_, r)| r.hard_bit()).count();
            match d.rule_used {
                RuleUsed::HeadLocal => prop_assert!(d.busy && d.quorum == 0),
                RuleUsed::WeightedLlr
                    if !distinct.iter().all(|(_, r)| r.llr.is_infinite()) => {}
                _ => {
                    // the counting rungs — and the soft rung on saturated
                    // reports — are k-out-of-N over the hard bits
                    prop_assert!(d.quorum >= 1 && d.quorum <= d.reports_used);
                    prop_assert_eq!(d.busy, positives >= d.quorum);
                }
            }
            // the uniform converged view is the pinned oracle: the
            // weighted walk agrees with the unweighted one bit for bit
            let (du, _) = fuse_soft_weighted(&cfg, &softs, true, None);
            prop_assert_eq!(d, du);
        }
    }
}
