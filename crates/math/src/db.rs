//! Decibel and dBm conversions.
//!
//! The paper's Section 2.3 states its system constants in mixed units
//! (`Ml = 40 dB`, `Nf = 10 dB`, `σ² = −174 dBm/Hz`, `GtGr = 5 dBi`); all
//! model arithmetic happens in linear SI units, so these helpers are the
//! single point where the conversion policy lives.

/// Converts a power ratio in decibels to a linear ratio: `10^(dB/10)`.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to decibels: `10·log10(x)`.
///
/// Returns `-inf` for zero input, NaN for negative input (as `log10` does).
#[inline]
pub fn lin_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Converts an amplitude (voltage) ratio in decibels to linear: `10^(dB/20)`.
#[inline]
pub fn db_to_lin_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Converts absolute power in dBm to watts: `10^((dBm-30)/10)`.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    10f64.powf((dbm - 30.0) / 10.0)
}

/// Converts a power spectral density in dBm/Hz to W/Hz.
///
/// Used for the thermal-noise floor `σ² = −174 dBm/Hz` and the paper's
/// `N0 = −171 dBm/Hz` in equations (5)–(6).
#[inline]
pub fn dbm_per_hz_to_watts_per_hz(dbm_per_hz: f64) -> f64 {
    dbm_to_watts(dbm_per_hz)
}

/// Converts a gain in dBi (dB relative to isotropic) to a linear gain.
/// Numerically identical to [`db_to_lin`]; provided for intent at call sites.
#[inline]
pub fn dbi_to_lin(dbi: f64) -> f64 {
    db_to_lin(dbi)
}

/// Converts milliwatts to watts.
#[inline]
pub fn milliwatts_to_watts(mw: f64) -> f64 {
    mw * 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for &db in &[-174.0, -30.0, 0.0, 3.0, 10.0, 40.0] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn known_anchors() {
        assert!((db_to_lin(0.0) - 1.0).abs() < 1e-15);
        assert!((db_to_lin(10.0) - 10.0).abs() < 1e-12);
        assert!((db_to_lin(3.0) - 1.995262).abs() < 1e-6);
        assert!((db_to_lin_amplitude(6.0) - 1.995262).abs() < 1e-6);
    }

    #[test]
    fn dbm_anchors() {
        assert!((dbm_to_watts(0.0) - 1e-3).abs() < 1e-18);
        assert!((dbm_to_watts(30.0) - 1.0).abs() < 1e-12);
        // thermal noise floor at 290K: -174 dBm/Hz ≈ 3.98e-21 W/Hz ≈ kT
        let n = dbm_per_hz_to_watts_per_hz(-174.0);
        assert!((n - 3.981e-21).abs() / 3.981e-21 < 1e-3);
    }

    #[test]
    fn amplitude_vs_power_consistency() {
        // a 20 dB power ratio is a 10x amplitude ratio
        assert!((db_to_lin_amplitude(20.0) - 10.0).abs() < 1e-12);
        assert!((db_to_lin(20.0) - 100.0).abs() < 1e-10);
    }

    #[test]
    fn milliwatt_helper() {
        assert!((milliwatts_to_watts(48.64) - 0.04864).abs() < 1e-15);
    }
}
