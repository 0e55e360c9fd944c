//! # comimo-energy
//!
//! The Cui–Goldsmith–Bahai energy model (\[10\], \[12\] of the paper) exactly as
//! instantiated in Section 2.3 of Chen, Hong & Chen (IJNC 2014):
//!
//! * equation (1): per-bit energy of local/intra-cluster transmission
//!   (`e^Lt = e_PA^Lt + e_C^Lt`, κ-law path loss, uncoded M-QAM over AWGN);
//! * equation (2): per-bit energy of local reception (`e^Lr`, circuit only);
//! * equation (3): per-bit energy of long-haul `mt × mr` cooperative MIMO
//!   transmission (`e^MIMOt`, square-law loss, STBC over flat Rayleigh);
//! * equation (4): per-bit energy of long-haul reception (`e^MIMOr`);
//! * equations (5)–(6): the implicit definition of `ē_b(p, b, mt, mr)` —
//!   the received symbol energy required to hit target BER `p` with
//!   constellation size `b` over an `mt × mr` Rayleigh STBC link — which
//!   [`ebar`] inverts (closed-form MRC–Rayleigh average + log-bisection;
//!   Gamma quadrature and Monte-Carlo are cross-checks in its tests).
//!
//! The "Preprocessing" step of the paper's Algorithms 1 and 2 ("Calculate
//! the value of ē_b ... Load the table ... in each SU node") is
//! [`EnergyModel::ebar`]'s memo, filled cell by cell on first use; the
//! per-link "determine constellation size b" step is [`optimize`].
//!
//! ### Unit anchor
//!
//! All arithmetic is SI (joules, watts, metres, hertz). The interpretation
//! of the paper's mixed-unit constants is pinned by its own worked number:
//! Section 6.2 quotes `ē_b = 1.90×10⁻¹⁸` for `b = 2`, `mt = mr = 1`. With
//! `N0 = −171 dBm/Hz = 7.94×10⁻²¹ J` and the closed-form Rayleigh average
//! of equation (5) at `p = 0.001`, the required `ē_b` is `1.98×10⁻¹⁸ J` —
//! matching the paper to ~4 % and fixing every conversion choice.

pub mod constants;
pub mod ebar;
pub mod model;
pub mod optimize;

pub use constants::SystemConstants;
pub use ebar::EbarSolver;
pub use model::EnergyModel;
pub use optimize::{optimal_constellation, OptimalChoice};
