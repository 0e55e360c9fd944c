//! The thermal noise floor.
//!
//! The underlay paradigm's admission rule — "the transmitted spectral
//! density of the SUs falls below the noise floor at the primary
//! receivers" (paper Sections 1 and 4) — compares the SU signal's power
//! spectral density at a primary receiver against the thermal floor
//! `σ²·Nf` computed here.

use comimo_math::db::{db_to_lin, dbm_per_hz_to_watts_per_hz};

/// Thermal noise PSD at the paper's figure: `σ² = −174 dBm/Hz` in W/Hz.
pub const THERMAL_NOISE_PSD_DBM_HZ: f64 = -174.0;

/// Noise floor spectral density in W/Hz with noise figure `nf_db`.
pub fn noise_floor_psd(nf_db: f64) -> f64 {
    dbm_per_hz_to_watts_per_hz(THERMAL_NOISE_PSD_DBM_HZ) * db_to_lin(nf_db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_floor_anchor() {
        // -174 dBm/Hz with 0 dB NF = 3.98e-21 W/Hz
        let nf = noise_floor_psd(0.0);
        assert!((nf - 3.981e-21).abs() / 3.981e-21 < 1e-3, "{nf}");
        // 10 dB NF raises it tenfold
        assert!((noise_floor_psd(10.0) / nf - 10.0).abs() < 1e-9);
    }
}
