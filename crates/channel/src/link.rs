//! Link budget: received power, SNR, and the noise floor.
//!
//! The underlay paradigm's admission rule — "the transmitted spectral
//! density of the SUs falls below the noise floor at the primary
//! receivers" (paper Sections 1 and 4) — is evaluated here: we compute the
//! SU signal's power spectral density as seen by a primary receiver and
//! compare it against the thermal floor `σ²·Nf`.

use comimo_math::db::{db_to_lin, dbm_per_hz_to_watts_per_hz};
use serde::{Deserialize, Serialize};

/// Thermal noise PSD at the paper's figure: `σ² = −174 dBm/Hz` in W/Hz.
pub const THERMAL_NOISE_PSD_DBM_HZ: f64 = -174.0;

/// Noise floor power in watts over bandwidth `bandwidth_hz` with receiver
/// noise figure `nf_db`: `σ²·B·Nf`.
pub fn noise_floor_watts(bandwidth_hz: f64, nf_db: f64) -> f64 {
    assert!(bandwidth_hz > 0.0);
    dbm_per_hz_to_watts_per_hz(THERMAL_NOISE_PSD_DBM_HZ) * bandwidth_hz * db_to_lin(nf_db)
}

/// Noise floor spectral density in W/Hz with noise figure `nf_db`.
pub fn noise_floor_psd(nf_db: f64) -> f64 {
    dbm_per_hz_to_watts_per_hz(THERMAL_NOISE_PSD_DBM_HZ) * db_to_lin(nf_db)
}

/// A point-to-point link budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Transmit power (W).
    pub tx_power_w: f64,
    /// Deterministic path loss factor `L ≥ 1` (large-scale).
    pub path_loss_factor: f64,
    /// Excess (obstacle) loss factor ≥ 1.
    pub excess_loss_factor: f64,
    /// Occupied bandwidth (Hz).
    pub bandwidth_hz: f64,
    /// Receiver noise figure (dB).
    pub nf_db: f64,
}

impl LinkBudget {
    /// Mean received power in watts.
    pub fn rx_power_w(&self) -> f64 {
        self.tx_power_w / (self.path_loss_factor * self.excess_loss_factor)
    }

    /// Received power spectral density in W/Hz (signal power spread evenly
    /// over the occupied bandwidth — the quantity the underlay constraint
    /// compares against the noise floor).
    pub fn rx_psd(&self) -> f64 {
        self.rx_power_w() / self.bandwidth_hz
    }

    /// Mean SNR at the receiver (linear).
    pub fn snr(&self) -> f64 {
        self.rx_power_w() / noise_floor_watts(self.bandwidth_hz, self.nf_db)
    }

    /// Mean SNR in dB.
    pub fn snr_db(&self) -> f64 {
        10.0 * self.snr().log10()
    }

    /// Margin of the received PSD *below* the noise floor, in dB:
    /// positive means the underlay constraint is satisfied
    /// (`PSD_rx < σ²·Nf`), negative means the SU would be visible above
    /// the floor.
    pub fn underlay_margin_db(&self) -> f64 {
        10.0 * (noise_floor_psd(self.nf_db) / self.rx_psd()).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_floor_anchor() {
        // -174 dBm/Hz over 1 MHz with 0 dB NF = -114 dBm = 3.98e-15 W
        let nf = noise_floor_watts(1e6, 0.0);
        assert!((nf - 3.981e-15).abs() / 3.981e-15 < 1e-3, "{nf}");
        // 10 dB NF raises it tenfold
        assert!((noise_floor_watts(1e6, 10.0) / nf - 10.0).abs() < 1e-9);
    }

    #[test]
    fn budget_rx_power_and_snr() {
        let b = LinkBudget {
            tx_power_w: 1.0,
            path_loss_factor: 1e12,
            excess_loss_factor: 1.0,
            bandwidth_hz: 1e4,
            nf_db: 10.0,
        };
        assert!((b.rx_power_w() - 1e-12).abs() < 1e-24);
        let floor = noise_floor_watts(1e4, 10.0);
        assert!((b.snr() - 1e-12 / floor).abs() / b.snr() < 1e-12);
    }

    #[test]
    fn underlay_margin_sign() {
        // a very weak signal is below the floor; a strong one is not
        let weak = LinkBudget {
            tx_power_w: 1e-12,
            path_loss_factor: 1e12,
            excess_loss_factor: 1.0,
            bandwidth_hz: 1e4,
            nf_db: 10.0,
        };
        assert!(weak.underlay_margin_db() > 0.0);
        let strong = LinkBudget {
            tx_power_w: 1.0,
            ..weak
        };
        assert!(strong.underlay_margin_db() < 0.0);
        // margin difference equals the 120 dB power difference
        assert!((weak.underlay_margin_db() - strong.underlay_margin_db() - 120.0).abs() < 1e-9);
    }
}
