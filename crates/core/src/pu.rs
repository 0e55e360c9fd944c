//! Primary users.
//!
//! The cognitive-radio setting has licensed primary pairs whose spectrum
//! the secondary users overlay/underlay/interweave into. The interweave
//! paradigm's Step 1 ("The head ... determines the PU to share the
//! frequency based on the sensed environment") needs to know which
//! primaries exist and where they are; when they are active is the
//! sensing crate's slotted `MarkovOnOff` chain.

use comimo_channel::geometry::Point;
use serde::{Deserialize, Serialize};

/// A licensed transmitter/receiver pair on a frequency channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrimaryPair {
    /// Primary transmitter position.
    pub tx: Point,
    /// Primary receiver position.
    pub rx: Point,
    /// Licensed channel index.
    pub channel: usize,
}

impl PrimaryPair {
    /// Builds a pair.
    pub fn new(tx: Point, rx: Point, channel: usize) -> Self {
        Self { tx, rx, channel }
    }

    /// Link length `Pt → Pr`.
    pub fn link_length(&self) -> f64 {
        self.tx.distance(self.rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_length() {
        let p = PrimaryPair::new(Point::new(0.0, 0.0), Point::new(250.0, 0.0), 3);
        assert!((p.link_length() - 250.0).abs() < 1e-12);
    }
}
