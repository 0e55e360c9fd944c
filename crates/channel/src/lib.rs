//! # comimo-channel
//!
//! Propagation substrate for the `comimo` workspace: everything between a
//! transmit antenna and a receive antenna.
//!
//! The paper (Chen, Hong & Chen, IJNC 2014) assumes, in its Section 2.3:
//!
//! * a **κ-th-power path loss with AWGN** for local/intra-cluster links
//!   (`G_d = G1·d^κ·Ml` with `G1 = 10 mW`, `κ = 3.5`, `Ml = 40 dB`);
//! * a **square-law long-haul loss** `(4πD)²/(Gt·Gr·λ²)·Ml·Nf` with a **flat
//!   Rayleigh-fading** channel matrix `H` of i.i.d. unit-power entries for
//!   the cooperative MIMO links; and
//! * (Section 6.4) an **indoor environment** with obstacles and multipath
//!   for the USRP testbed, which we substitute with wall-attenuation
//!   segments (the Figure-8 rig draws its own per-snapshot scatter).
//!
//! Modules:
//! * [`geometry`] — 2-D points, angles (`∠PrSt1St2` of Section 5), segments;
//! * [`pathloss`] — the two path-loss laws plus Friis free space;
//! * [`fading`] — block Rayleigh / Rician fading and channel matrices;
//! * [`obstacle`] — wall segments with penetration loss;
//! * [`link`] — link budget: received power, SNR, noise floor, margins.

pub mod fading;
pub mod geometry;
pub mod link;
pub mod obstacle;
pub mod pathloss;

pub use fading::{BlockRayleigh, FadingChannel, Rician};
pub use geometry::Point;
pub use link::{noise_floor_watts, LinkBudget};
pub use pathloss::{FriisFreeSpace, KappaLaw, PathLoss, SquareLawLongHaul};
