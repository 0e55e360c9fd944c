//! # comimo-dsp
//!
//! Complex-baseband DSP substrate for the testbed simulator that stands in
//! for the paper's GNU Radio + USRP rig (Section 6.4). The paper's PHY
//! choices are implemented directly:
//!
//! * **BPSK** modulation/demodulation "for overlay and interweave systems";
//! * **GMSK** modulation/demodulation "for underlay systems"
//!   (waveform-level: Gaussian pulse shaping + phase integration,
//!   discriminator + integrate-and-dump receive);
//! * **equal gain combination** "for overlay systems";
//! * 1500-byte packets with CRC framing (underlay experiment transfers an
//!   image "with 474 packets"; packet error detection needs a real CRC).
//!
//! Supporting machinery: bit/byte utilities ([`bits`]), CRC-32 ([`crc`]),
//! the Gaussian pulse-shaping FIR ([`fir`]), the BPSK modem ([`modem`]), the GMSK waveform modem ([`gmsk`]), packet
//! framing ([`frame`]) and diversity combining ([`combining`]).

pub mod bits;
pub mod combining;
pub mod crc;
pub mod fir;
pub mod frame;
pub mod gmsk;
pub mod modem;

pub use combining::egc_combine;
pub use frame::{Frame, FrameCodec};
pub use gmsk::GmskModem;
pub use modem::Bpsk;
