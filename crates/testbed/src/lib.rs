//! # comimo-testbed
//!
//! A software-defined-radio **testbed simulator** standing in for the
//! paper's GNU Radio + USRP rig (Section 6.4) — the substitution mandated
//! by DESIGN.md: we cannot possess the authors' indoor lab, but we can
//! build the same signal chains and exercise the same code paths.
//!
//! The paper's rig: USRP motherboards with RFX2400 daughterboards at
//! 2.45 GHz, BPSK for the overlay/interweave experiments, GMSK for the
//! underlay experiment, 250 kbps, 1500-byte packets, equal-gain combining
//! at the cooperative receiver. The simulator mirrors each piece:
//!
//! * [`usrp`] — front-end model: the GNU-Radio-style integer amplitude
//!   setting (0..32767) mapping to transmit scale;
//! * [`calib`] — link calibration: mean SNR at a reference distance, Friis
//!   roll-off, obstacle excess loss (from `comimo-channel`);
//! * [`bpsk_link`] — packet-level BPSK links with per-packet block fading
//!   (Rayleigh or Rician) and AWGN, plus decode-and-forward relays and EGC;
//! * [`image`] — the synthetic "image file" (474 × 1500-byte packets) of
//!   the underlay experiment;
//! * [`experiments`] — the four rigs reproducing Table 2 (single-relay
//!   overlay), Table 3 (multi-relay overlay), Table 4 (underlay image
//!   transfer) and Figure 8 (interweave beam scan).

pub mod bpsk_link;
pub mod calib;
pub mod experiments;
pub mod image;
pub mod usrp;

pub use calib::TestbedCalibration;
pub use usrp::UsrpFrontEnd;
