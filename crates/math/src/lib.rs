//! # comimo-math
//!
//! Numerical substrate for the `comimo` workspace — the reproduction of
//! Chen, Hong & Chen, *"Efficient Cooperative MIMO Paradigms for Cognitive
//! Radio Networks"* (IJNC 2014 / APDCM@IPDPS 2013).
//!
//! The paper's energy model (its Section 2.3) and beamforming analysis
//! (Section 5) need a small, dependency-free numerical toolbox:
//!
//! * [`Complex`] arithmetic and small complex matrices ([`cmatrix::CMatrix`])
//!   for space-time channel matrices `H` and their Frobenius norms;
//! * special functions ([`special`]): `erfc`, the Gaussian tail
//!   [`special::q_function`] used by the M-QAM BER expressions (5)–(6),
//!   its exact average over `‖H‖_F² ∼ Gamma(mt·mr, 1)`
//!   ([`special::rayleigh_mrc_q_average`]) and the Gamma family;
//! * root finding ([`roots`]) to invert the BER relation for
//!   `ē_b(p, b, mt, mr)`;
//! * decibel conversions ([`db`]) for the paper's constants
//!   (`Ml = 40 dB`, `σ² = −174 dBm/Hz`, …);
//! * seeded random sampling ([`rng`]) for Monte-Carlo cross-validation and
//!   the testbed simulator, with bulk batched fillers ([`batch`]) riding a
//!   CPU-selected explicit-SIMD kernel tier ([`simd`]) for the
//!   Monte-Carlo hot paths; and
//! * descriptive statistics ([`stats`]) for experiment reporting.
//!
//! Everything here is pure, `f64`-based, and deterministic given a seed.

pub mod batch;
pub mod cmatrix;
pub mod complex;
pub mod db;
pub mod rng;
pub mod roots;
pub mod simd;
pub mod special;
pub mod stats;

pub use cmatrix::CMatrix;
pub use complex::Complex;

/// Convenient glob-import surface: `use comimo_math::prelude::*;`.
pub mod prelude {
    pub use crate::cmatrix::CMatrix;
    pub use crate::complex::Complex;
    pub use crate::db::{db_to_lin, dbm_per_hz_to_watts_per_hz, lin_to_db};
    pub use crate::special::{q_function, q_function_inv};
}
