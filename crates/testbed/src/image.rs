//! The synthetic "image file" of the underlay experiment.
//!
//! The paper transmits "a image file with 474 packets ... The packet size
//! for underlay system is 1500 bytes" and judges success by whether "the
//! image could still be recovered and displayed with some distortions".
//! Only the packet count and size enter the PER; the content is
//! irrelevant — so the simulator ships a deterministic synthetic raster
//! (a smooth gradient with texture, so "distortion" is measurable as a
//! per-pixel error) of exactly 474 × 1500 bytes.

use serde::{Deserialize, Serialize};

/// Packet payload size (bytes) — paper: 1500.
pub const PACKET_BYTES: usize = 1500;

/// Packet count — paper: 474.
pub const PACKET_COUNT: usize = 474;

/// A raster image carried as a flat byte buffer, row-major.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestImage {
    /// Width in pixels (1 byte per pixel).
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Pixel bytes (`width * height`).
    pub pixels: Vec<u8>,
}

impl TestImage {
    /// Generates the standard test image: 474 × 1500 bytes = 711 000
    /// pixels as a 948 × 750 raster of smooth gradients plus a
    /// deterministic texture.
    pub fn standard() -> Self {
        let width = 948;
        let height = 750;
        debug_assert_eq!(width * height, PACKET_BYTES * PACKET_COUNT);
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                let grad = (x * 255 / width) as u8;
                let ripple =
                    ((((x as f64) / 17.0).sin() * ((y as f64) / 23.0).cos()) * 40.0) as i16;
                pixels.push((grad as i16 + ripple).clamp(0, 255) as u8);
            }
        }
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Splits into transmit packets of [`PACKET_BYTES`] each.
    pub fn packets(&self) -> Vec<&[u8]> {
        self.pixels.chunks(PACKET_BYTES).collect()
    }

    /// Reassembles from received packets; `None` entries (lost packets)
    /// become zeroed spans — the "distortions" of the paper's recovered
    /// image.
    pub fn reassemble(&self, received: &[Option<Vec<u8>>]) -> TestImage {
        assert_eq!(received.len(), self.packets().len());
        let mut pixels = Vec::with_capacity(self.pixels.len());
        for (i, pkt) in received.iter().enumerate() {
            match pkt {
                Some(data) => {
                    assert_eq!(data.len(), self.packets()[i].len(), "packet {i} length");
                    pixels.extend_from_slice(data);
                }
                None => pixels.extend(std::iter::repeat_n(0u8, self.packets()[i].len())),
            }
        }
        TestImage {
            width: self.width,
            height: self.height,
            pixels,
        }
    }

    /// Mean absolute per-pixel error against another image of the same
    /// shape (0 = identical, 255 = maximal) — quantifies "distortion".
    pub fn mean_abs_error(&self, other: &TestImage) -> f64 {
        assert_eq!(self.pixels.len(), other.pixels.len());
        self.pixels
            .iter()
            .zip(&other.pixels)
            .map(|(&a, &b)| (a as i16 - b as i16).unsigned_abs() as u64)
            .sum::<u64>() as f64
            / self.pixels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_image_shape() {
        let img = TestImage::standard();
        assert_eq!(img.pixels.len(), PACKET_BYTES * PACKET_COUNT);
        assert_eq!(img.packets().len(), PACKET_COUNT);
        assert!(img.packets().iter().all(|p| p.len() == PACKET_BYTES));
    }

    #[test]
    fn deterministic_generation() {
        assert_eq!(TestImage::standard(), TestImage::standard());
    }

    #[test]
    fn content_has_structure_not_constant() {
        let img = TestImage::standard();
        let distinct: std::collections::HashSet<u8> = img.pixels.iter().copied().collect();
        assert!(
            distinct.len() > 100,
            "only {} distinct levels",
            distinct.len()
        );
    }

    #[test]
    fn lossless_reassembly_is_exact() {
        let img = TestImage::standard();
        let received: Vec<Option<Vec<u8>>> =
            img.packets().iter().map(|p| Some(p.to_vec())).collect();
        let back = img.reassemble(&received);
        assert_eq!(back, img);
        assert_eq!(img.mean_abs_error(&back), 0.0);
    }

    #[test]
    fn lost_packets_cause_measurable_distortion() {
        let img = TestImage::standard();
        let mut received: Vec<Option<Vec<u8>>> =
            img.packets().iter().map(|p| Some(p.to_vec())).collect();
        // drop 10% of packets
        for i in (0..received.len()).step_by(10) {
            received[i] = None;
        }
        let back = img.reassemble(&received);
        let err = img.mean_abs_error(&back);
        assert!(err > 1.0, "distortion {err}");
        // ~10% of pixels zeroed, mean pixel ~127 → error ~ 12
        assert!(err < 30.0, "distortion {err}");
    }
}
