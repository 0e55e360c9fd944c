//! Packet framing: preamble, length header, payload, CRC-32.
//!
//! The testbed transmits framed packets exactly as the paper's GNU Radio
//! chain would: a known preamble for detection, a 2-byte length field, the
//! payload (1500 bytes in the underlay experiment), and a CRC-32 trailer
//! whose failure marks a packet error (Table 4's PER).

use crate::bits::{bits_to_bytes, bytes_to_bits, pn_sequence};
use crate::crc::{append_crc, check_and_strip_crc};

/// Preamble length in bits.
pub const PREAMBLE_BITS: usize = 64;

/// Maximum payload length in bytes.
pub const MAX_PAYLOAD: usize = 65_535;

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Frame encoder/decoder with a fixed PN preamble.
#[derive(Debug, Clone)]
pub struct FrameCodec {
    preamble: Vec<bool>,
}

impl FrameCodec {
    /// Codec with the standard preamble (PN seed 0xB5A7).
    pub fn new() -> Self {
        Self {
            preamble: pn_sequence(0xB5A7, PREAMBLE_BITS),
        }
    }

    /// Encodes a payload into a bit stream:
    /// `preamble ‖ len(2B) ‖ payload ‖ crc32(len ‖ payload)`.
    pub fn encode(&self, payload: &[u8]) -> Vec<bool> {
        assert!(payload.len() <= MAX_PAYLOAD, "payload too long");
        let mut body = Vec::with_capacity(payload.len() + 6);
        body.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        body.extend_from_slice(payload);
        let body = append_crc(body);
        let mut bits = self.preamble.clone();
        bits.extend(bytes_to_bits(&body));
        bits
    }

    /// Decodes a received bit stream that is aligned to the frame start
    /// (the testbed keeps alignment). Returns `None` on CRC failure or
    /// truncation — i.e. a *packet error*.
    pub fn decode(&self, bits: &[bool]) -> Option<Frame> {
        if bits.len() < PREAMBLE_BITS + 48 {
            return None;
        }
        let body_bits = &bits[PREAMBLE_BITS..];
        // read the length field first so we slice exactly one frame
        let header = bits_to_bytes(&body_bits[..16]);
        let len = u16::from_be_bytes([header[0], header[1]]) as usize;
        let total_bits = (len + 6) * 8;
        if body_bits.len() < total_bits {
            return None;
        }
        let body = bits_to_bytes(&body_bits[..total_bits]);
        let payload_with_len = check_and_strip_crc(&body)?;
        Some(Frame {
            payload: payload_with_len[2..].to_vec(),
        })
    }
}

impl Default for FrameCodec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let codec = FrameCodec::new();
        let payload: Vec<u8> = (0..=255).collect();
        let bits = codec.encode(&payload);
        assert_eq!(bits.len(), PREAMBLE_BITS + (payload.len() + 6) * 8);
        let frame = codec.decode(&bits).expect("frame decodes");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let codec = FrameCodec::new();
        let bits = codec.encode(&[]);
        assert_eq!(codec.decode(&bits).unwrap().payload, Vec::<u8>::new());
    }

    #[test]
    fn corrupted_payload_is_packet_error() {
        let codec = FrameCodec::new();
        let mut bits = codec.encode(&[0xAA; 100]);
        // flip a payload bit (past preamble + header)
        let idx = PREAMBLE_BITS + 16 + 50;
        bits[idx] = !bits[idx];
        assert!(codec.decode(&bits).is_none());
    }

    #[test]
    fn corrupted_preamble_still_decodes_when_aligned() {
        // the preamble only aids detection; aligned decode skips it
        let codec = FrameCodec::new();
        let mut bits = codec.encode(&[1, 2, 3]);
        bits[0] = !bits[0];
        assert!(codec.decode(&bits).is_some());
    }

    #[test]
    fn truncated_frame_rejected() {
        let codec = FrameCodec::new();
        let bits = codec.encode(&[7; 64]);
        assert!(codec.decode(&bits[..bits.len() - 8]).is_none());
    }

    #[test]
    fn mtu_sized_underlay_packet() {
        // the paper's underlay packets are 1500 bytes
        let codec = FrameCodec::new();
        let payload = vec![0x5A; 1500];
        let bits = codec.encode(&payload);
        assert_eq!(bits.len(), 64 + (1500 + 6) * 8);
        assert_eq!(codec.decode(&bits).unwrap().payload.len(), 1500);
    }
}
