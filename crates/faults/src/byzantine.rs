//! Deterministic Byzantine reporter adversaries (SSDF).
//!
//! The fault classes in [`crate::sensing`] are honest-but-faulty: a
//! stuck or dead reporter fails without intent. Spectrum-sensing data
//! falsification (SSDF) is different — the reporter *lies*, and the
//! fusion layer's reputation machinery must contain it. Four roles
//! cover the adversary taxonomy:
//!
//! * **always-yes** — reports "busy" every round: denies the cluster
//!   spectrum forever if trusted (the classic SSDF starver);
//! * **always-no** — reports "idle" every round: the vandal that blows
//!   the §5 missed-detection budget and interferes with the primary;
//! * **p-flip** — inverts its own honest decision with probability `p`
//!   per round: the stealthy probabilistic falsifier;
//! * **coalition** — a colluding set that forces the *same* falsified
//!   bit in lockstep each round, maximizing its vote mass.
//!
//! Everything follows the burn-their-draws discipline: an adversary's
//! local detector still burns its draws in the sensing round, the
//! p-flip draw comes from a dedicated `derive(seed, salt ^ round ^
//! reporter)` stream, and the coalition's lockstep bit from one shared
//! `derive(seed, salt ^ round)` stream — toggling any adversary on or
//! off never shifts any other stream.

use comimo_math::rng::derive;
use rand::Rng;
use serde::Serialize;

const SALT_BYZ_ROLE: u64 = 0xFA17_0000_000B;
const SALT_BYZ_FLIP: u64 = 0xFA17_0000_000C;
const SALT_BYZ_COALITION: u64 = 0xFA17_0000_000D;

/// What a reporter *is* for the whole campaign (roles never churn —
/// reputation convergence is only meaningful against a fixed cast).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ByzantineRole {
    /// Reports its own detector decision.
    Honest,
    /// Reports "busy" unconditionally.
    AlwaysYes,
    /// Reports "idle" unconditionally.
    AlwaysNo,
    /// Inverts its own decision with probability `flip_prob` per round.
    PFlip {
        /// Per-round inversion probability, in `[0, 1]`.
        flip_prob: f64,
    },
    /// Forces the coalition's shared lockstep bit.
    Coalition,
}

/// What an adversary does to one report this round, applied *after*
/// the detector draw (burn-their-draws).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportOverride {
    /// Report the honest decision unchanged.
    None,
    /// Report this bit regardless of the channel.
    Force(bool),
    /// Report the inverse of the honest decision.
    Invert,
}

impl ReportOverride {
    /// Applies the override to an honest decision.
    pub fn apply(self, honest: bool) -> bool {
        match self {
            Self::None => honest,
            Self::Force(bit) => bit,
            Self::Invert => !honest,
        }
    }
}

/// How many reporters play each adversarial role.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ByzantineConfig {
    /// Always-yes SSDF starvers.
    pub n_always_yes: usize,
    /// Always-no vandals.
    pub n_always_no: usize,
    /// Probabilistic flippers.
    pub n_p_flip: usize,
    /// Their per-round inversion probability.
    pub flip_prob: f64,
    /// Lockstep coalition members.
    pub n_coalition: usize,
}

impl ByzantineConfig {
    /// No adversaries at all — the suite must be a no-op under this.
    pub fn none() -> Self {
        Self {
            n_always_yes: 0,
            n_always_no: 0,
            n_p_flip: 0,
            flip_prob: 0.3,
            n_coalition: 0,
        }
    }

    /// `f` always-no vandals (the missed-detection attack the
    /// containment invariant budgets).
    pub fn always_no(f: usize) -> Self {
        Self {
            n_always_no: f,
            ..Self::none()
        }
    }

    /// `f` lockstep coalition members.
    pub fn coalition(f: usize) -> Self {
        Self {
            n_coalition: f,
            ..Self::none()
        }
    }

    /// Total adversaries across all roles.
    pub fn n_adversaries(&self) -> usize {
        self.n_always_yes + self.n_always_no + self.n_p_flip + self.n_coalition
    }

    /// Whether no role is populated.
    pub fn is_none(&self) -> bool {
        self.n_adversaries() == 0
    }
}

/// Deterministic role assignment: a seeded Fisher–Yates permutation of
/// the roster picks *which* reporters turn adversarial, then roles fill
/// in a fixed class order (always-yes, always-no, p-flip, coalition).
/// A pure function of `(cfg, n_reporters, seed)` at any thread count.
pub fn assign_roles(cfg: &ByzantineConfig, n_reporters: usize, seed: u64) -> Vec<ByzantineRole> {
    assert!(
        cfg.n_adversaries() <= n_reporters,
        "{} adversaries cannot fit a roster of {n_reporters}",
        cfg.n_adversaries()
    );
    assert!(
        (0.0..=1.0).contains(&cfg.flip_prob),
        "flip_prob must be a probability"
    );
    let mut order: Vec<usize> = (0..n_reporters).collect();
    let mut rng = derive(seed, SALT_BYZ_ROLE);
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut roles = vec![ByzantineRole::Honest; n_reporters];
    let mut slots = order.into_iter();
    for _ in 0..cfg.n_always_yes {
        roles[slots.next().expect("checked above")] = ByzantineRole::AlwaysYes;
    }
    for _ in 0..cfg.n_always_no {
        roles[slots.next().expect("checked above")] = ByzantineRole::AlwaysNo;
    }
    for _ in 0..cfg.n_p_flip {
        roles[slots.next().expect("checked above")] = ByzantineRole::PFlip {
            flip_prob: cfg.flip_prob,
        };
    }
    for _ in 0..cfg.n_coalition {
        roles[slots.next().expect("checked above")] = ByzantineRole::Coalition;
    }
    roles
}

/// The per-campaign adversary cast: fixed roles plus the derived
/// streams their per-round draws come from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ByzantineSuite {
    roles: Vec<ByzantineRole>,
    seed: u64,
}

impl ByzantineSuite {
    /// Casts the roster (see [`assign_roles`]).
    pub fn new(cfg: &ByzantineConfig, n_reporters: usize, seed: u64) -> Self {
        Self {
            roles: assign_roles(cfg, n_reporters, seed),
            seed,
        }
    }

    /// The fixed role of every roster slot.
    pub fn roles(&self) -> &[ByzantineRole] {
        &self.roles
    }

    /// Adversarial roster slots.
    pub fn n_adversaries(&self) -> usize {
        self.roles
            .iter()
            .filter(|r| !matches!(r, ByzantineRole::Honest))
            .count()
    }

    /// Roster size.
    pub fn n(&self) -> usize {
        self.roles.len()
    }

    /// The overrides every reporter applies this round. Each p-flip
    /// reporter burns exactly one uniform from its own stream whether
    /// or not it flips, and the coalition burns one shared draw per
    /// round whenever it has members — a pure function of `(suite,
    /// round)`.
    pub fn overrides(&self, round: u64) -> Vec<ReportOverride> {
        let round_mix = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let coalition_bit = if self.roles.contains(&ByzantineRole::Coalition) {
            let mut rng = derive(self.seed, SALT_BYZ_COALITION ^ round_mix);
            rng.gen_range(0.0f64..1.0) < 0.5
        } else {
            false
        };
        self.roles
            .iter()
            .enumerate()
            .map(|(i, role)| match *role {
                ByzantineRole::Honest => ReportOverride::None,
                ByzantineRole::AlwaysYes => ReportOverride::Force(true),
                ByzantineRole::AlwaysNo => ReportOverride::Force(false),
                ByzantineRole::PFlip { flip_prob } => {
                    let mut rng = derive(self.seed, SALT_BYZ_FLIP ^ round_mix ^ (i as u64));
                    if rng.gen_range(0.0f64..1.0) < flip_prob {
                        ReportOverride::Invert
                    } else {
                        ReportOverride::None
                    }
                }
                ByzantineRole::Coalition => ReportOverride::Force(coalition_bit),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_adversaries_is_a_no_op_cast() {
        let suite = ByzantineSuite::new(&ByzantineConfig::none(), 6, 7);
        assert_eq!(suite.n_adversaries(), 0);
        for round in 0..20 {
            assert!(suite
                .overrides(round)
                .iter()
                .all(|o| *o == ReportOverride::None));
        }
    }

    #[test]
    fn casting_is_a_pure_function_of_the_seed() {
        let cfg = ByzantineConfig {
            n_always_yes: 1,
            n_always_no: 2,
            n_p_flip: 1,
            flip_prob: 0.4,
            n_coalition: 2,
        };
        let a = ByzantineSuite::new(&cfg, 9, 42);
        assert_eq!(a, ByzantineSuite::new(&cfg, 9, 42));
        assert_ne!(
            a.roles(),
            ByzantineSuite::new(&cfg, 9, 43).roles(),
            "a different seed should cast differently"
        );
        assert_eq!(a.n_adversaries(), 6);
        assert_eq!(a.overrides(3), a.overrides(3), "overrides replay exactly");
    }

    #[test]
    fn forced_roles_override_and_flippers_invert() {
        let suite = ByzantineSuite::new(&ByzantineConfig::always_no(2), 5, 11);
        let ov = suite.overrides(0);
        let forced: Vec<usize> = (0..5)
            .filter(|&i| ov[i] == ReportOverride::Force(false))
            .collect();
        assert_eq!(forced.len(), 2);
        for (o, role) in ov.iter().zip(suite.roles()) {
            match role {
                ByzantineRole::AlwaysNo => {
                    assert!(!o.apply(true), "a vandal always reports idle")
                }
                ByzantineRole::Honest => assert!(o.apply(true) && !o.apply(false)),
                _ => unreachable!(),
            }
        }
        assert!(!ReportOverride::Invert.apply(true));
        assert!(ReportOverride::Invert.apply(false));
    }

    #[test]
    fn p_flip_rate_tracks_its_probability() {
        let cfg = ByzantineConfig {
            n_p_flip: 1,
            flip_prob: 0.3,
            ..ByzantineConfig::none()
        };
        let suite = ByzantineSuite::new(&cfg, 1, 5);
        let flips = (0..2000)
            .filter(|&r| suite.overrides(r)[0] == ReportOverride::Invert)
            .count();
        let rate = flips as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "flip rate {rate} far from 0.3");
    }

    #[test]
    fn the_coalition_flips_in_lockstep() {
        let suite = ByzantineSuite::new(&ByzantineConfig::coalition(3), 7, 13);
        let members: Vec<usize> = (0..7)
            .filter(|&i| suite.roles()[i] == ByzantineRole::Coalition)
            .collect();
        assert_eq!(members.len(), 3);
        let mut seen_true = false;
        let mut seen_false = false;
        for round in 0..64 {
            let ov = suite.overrides(round);
            let bits: Vec<ReportOverride> = members.iter().map(|&i| ov[i]).collect();
            assert!(
                bits.windows(2).all(|w| w[0] == w[1]),
                "coalition diverged at round {round}"
            );
            match bits[0] {
                ReportOverride::Force(true) => seen_true = true,
                ReportOverride::Force(false) => seen_false = true,
                other => panic!("coalition emitted {other:?}"),
            }
        }
        assert!(seen_true && seen_false, "the lockstep bit must vary");
    }

    #[test]
    fn toggling_a_role_never_shifts_another_reporters_stream() {
        // burn-their-draws at the suite level: adding an always-no
        // vandal must not change the p-flip reporter's flip pattern
        // (separate salt families, per-reporter streams)
        let just_flip = ByzantineConfig {
            n_p_flip: 1,
            flip_prob: 0.5,
            ..ByzantineConfig::none()
        };
        let with_vandal = ByzantineConfig {
            n_always_no: 1,
            ..just_flip
        };
        let a = ByzantineSuite::new(&just_flip, 4, 21);
        let b = ByzantineSuite::new(&with_vandal, 4, 21);
        let flipper_a = (0..4)
            .find(|&i| matches!(a.roles()[i], ByzantineRole::PFlip { .. }))
            .unwrap();
        // the same roster slot plays p-flip in both casts only if the
        // permutation kept it clear of the vandal; find it in b
        if let Some(flipper_b) =
            (0..4).find(|&i| matches!(b.roles()[i], ByzantineRole::PFlip { .. }))
        {
            if flipper_a == flipper_b {
                for round in 0..100 {
                    assert_eq!(
                        a.overrides(round)[flipper_a],
                        b.overrides(round)[flipper_b],
                        "vandal toggle shifted the flip stream at {round}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversubscribed_rosters_panic_loudly() {
        let _ = assign_roles(&ByzantineConfig::always_no(5), 4, 1);
    }
}
