//! # comimo-stbc
//!
//! Orthogonal space-time block codes (OSTBC) for the cooperative MIMO links
//! of the paper (Chen, Hong & Chen, IJNC 2014). Section 2.3 fixes the code
//! family: "the MIMO systems are referring to the ones coded with
//! space-time block codes (such as Alamouti code) and a flat Rayleigh
//! fading channel as those used in \[10\]" — i.e. the Tarokh–Jafarkhani–
//! Calderbank orthogonal designs that \[10\] (Cui–Goldsmith–Bahai) uses for
//! its `mt ∈ 1..=4` energy analysis.
//!
//! Provided codes, one per cooperative-cluster size the paper sweeps:
//!
//! | `mt` | code | rate | symbols `k` | slots `t` |
//! |------|-----------|------|---|---|
//! | 1 | uncoded SISO | 1 | 1 | 1 |
//! | 2 | Alamouti `G2` | 1 | 2 | 2 |
//! | 3 | `G3` | 1/2 | 4 | 8 |
//! | 4 | `G4` | 1/2 | 4 | 8 |
//! | 3 | `H3` | 3/4 | 3 | 4 |
//! | 4 | `H4` | 3/4 | 3 | 4 |
//!
//! The representation ([`design::Ostbc`]) is a generic *linear dispersion*
//! form — every transmit-matrix entry is `Σ_k (a·s_k + b·s_k*)` — so one
//! encoder and one maximum-likelihood decoder ([`decode`]) serve every
//! code. For orthogonal designs the ML decoder degenerates to symbol-wise
//! matched filtering; we solve the equivalent real least-squares system
//! exactly, which is identical for orthogonal codes and keeps the decoder
//! honest for any future non-orthogonal additions.

pub mod batch;
pub mod decode;
pub mod design;
pub mod grid;
pub mod report;
pub mod sim;

pub use decode::{decode_block, equivalent_real_matrix};
pub use design::{Ostbc, StbcKind};
pub use report::{transmit_report_word, ReportWordConfig, SoftReport};
