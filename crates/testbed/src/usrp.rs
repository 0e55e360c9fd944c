//! USRP front-end model.
//!
//! The paper adjusts "the transmit amplitudes of the secondary
//! transmitters ... to achieve different transmission powers" with GNU
//! Radio's integer amplitude setting (full scale 32767 for the USRP1 DAC);
//! Table 4 uses amplitudes 800, 600 and 400. The front end maps that
//! integer linearly to a baseband amplitude scale, so transmit *power*
//! scales with its square.

use serde::{Deserialize, Serialize};

/// DAC full scale of the USRP1 (signed 16-bit).
pub const DAC_FULL_SCALE: f64 = 32767.0;

/// A USRP-style front end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UsrpFrontEnd {
    /// GNU-Radio integer amplitude setting (0..=32767).
    pub amplitude: u32,
}

impl UsrpFrontEnd {
    /// Builds a front end with the given amplitude.
    pub fn new(amplitude: u32) -> Self {
        assert!(
            amplitude as f64 <= DAC_FULL_SCALE,
            "amplitude beyond DAC range"
        );
        Self { amplitude }
    }

    /// Baseband amplitude scale in `[0, 1]`.
    pub fn amplitude_scale(&self) -> f64 {
        self.amplitude as f64 / DAC_FULL_SCALE
    }

    /// Transmit power relative to full scale (`scale²`).
    pub fn power_scale(&self) -> f64 {
        let a = self.amplitude_scale();
        a * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplitude_mapping() {
        let fe = UsrpFrontEnd::new(800);
        assert!((fe.amplitude_scale() - 800.0 / 32767.0).abs() < 1e-12);
        assert!((fe.power_scale() - (800.0f64 / 32767.0).powi(2)).abs() < 1e-15);
    }

    #[test]
    fn table4_amplitude_ladder() {
        // 800 vs 400 is a 6.02 dB power step; 800 vs 600 is 2.50 dB
        let a800 = UsrpFrontEnd::new(800);
        let a600 = UsrpFrontEnd::new(600);
        let a400 = UsrpFrontEnd::new(400);
        let delta_db =
            |a: UsrpFrontEnd, b: UsrpFrontEnd| 10.0 * (a.power_scale() / b.power_scale()).log10();
        assert!((delta_db(a800, a400) - 6.0206).abs() < 1e-3);
        assert!((delta_db(a800, a600) - 2.4988).abs() < 1e-3);
    }

    #[test]
    #[should_panic]
    fn overdriven_amplitude_rejected() {
        let _ = UsrpFrontEnd::new(40_000);
    }
}
