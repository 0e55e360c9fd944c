//! Radix-2 FFT and a periodogram PSD estimator.
//!
//! The underlay paradigm's admission rule compares the SU transmit spectral
//! density with the noise floor (paper Sections 1 and 4); the testbed
//! verifies that on actual waveforms via [`periodogram_psd`].

use comimo_math::complex::Complex;

/// In-place iterative radix-2 decimation-in-time FFT.
///
/// # Panics
/// If the length is not a power of two.
pub fn fft_in_place(x: &mut [Complex]) {
    let n = x.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    // bit-reversal permutation
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            x.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -std::f64::consts::TAU / len as f64;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::one();
            for k in 0..len / 2 {
                let u = x[start + k];
                let v = x[start + k + len / 2] * w;
                x[start + k] = u + v;
                x[start + k + len / 2] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// Out-of-place FFT convenience.
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    let mut y = x.to_vec();
    fft_in_place(&mut y);
    y
}

/// Averaged periodogram (Welch with non-overlapping Hann segments) of a
/// complex baseband signal sampled at `fs` Hz with FFT size `nfft`.
///
/// Returns `(frequencies_hz, psd_watts_per_hz)` with frequencies in
/// `[-fs/2, fs/2)` (fftshifted). Parseval-calibrated: the integral of the
/// PSD over frequency equals the mean power of the signal.
pub fn periodogram_psd(x: &[Complex], fs: f64, nfft: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(nfft.is_power_of_two() && nfft >= 8);
    assert!(fs > 0.0);
    assert!(x.len() >= nfft, "signal shorter than one FFT segment");
    let window: Vec<f64> = (0..nfft)
        .map(|i| 0.5 - 0.5 * (std::f64::consts::TAU * i as f64 / (nfft - 1) as f64).cos())
        .collect();
    let wpow: f64 = window.iter().map(|w| w * w).sum::<f64>();
    let mut acc = vec![0.0f64; nfft];
    let mut segments = 0usize;
    for seg in x.chunks_exact(nfft) {
        let mut buf: Vec<Complex> = seg.iter().zip(&window).map(|(&s, &w)| s * w).collect();
        fft_in_place(&mut buf);
        for (a, v) in acc.iter_mut().zip(&buf) {
            *a += v.norm_sqr();
        }
        segments += 1;
    }
    let scale = 1.0 / (segments as f64 * wpow * fs);
    // fftshift
    let half = nfft / 2;
    let mut psd = Vec::with_capacity(nfft);
    let mut freqs = Vec::with_capacity(nfft);
    for i in 0..nfft {
        let src = (i + half) % nfft;
        psd.push(acc[src] * scale);
        freqs.push((i as f64 - half as f64) * fs / nfft as f64);
    }
    (freqs, psd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::{complex_gaussian, seeded};

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::zero(); 8];
        x[0] = Complex::one();
        fft_in_place(&mut x);
        for v in &x {
            assert!(v.approx_eq(Complex::one(), 1e-12));
        }
    }

    #[test]
    fn fft_of_tone_is_single_bin() {
        let n = 64;
        let k = 5;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(std::f64::consts::TAU * k as f64 * i as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (i, v) in y.iter().enumerate() {
            if i == k {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {i}: {}", v.abs());
            }
        }
    }

    #[test]
    fn parseval() {
        let mut rng = seeded(82);
        let x: Vec<Complex> = (0..256).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
        let time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let y = fft(&x);
        let freq: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time - freq).abs() / time < 1e-10);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let mut x = vec![Complex::zero(); 12];
        fft_in_place(&mut x);
    }

    #[test]
    fn psd_total_power_calibration() {
        // white noise with power P: integral of PSD over band ≈ P
        let mut rng = seeded(83);
        let p = 2.5;
        let fs = 1e4;
        let x: Vec<Complex> = (0..32_768).map(|_| complex_gaussian(&mut rng, p)).collect();
        let (freqs, psd) = periodogram_psd(&x, fs, 512);
        let df = freqs[1] - freqs[0];
        let total: f64 = psd.iter().sum::<f64>() * df;
        assert!(
            (total - p).abs() / p < 0.05,
            "integrated PSD {total} vs power {p}"
        );
    }

    #[test]
    fn psd_locates_a_tone() {
        let fs = 8_000.0;
        let f0 = 1_000.0;
        let n = 8192;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(std::f64::consts::TAU * f0 * i as f64 / fs))
            .collect();
        let (freqs, psd) = periodogram_psd(&x, fs, 1024);
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| freqs[i])
            .unwrap();
        assert!((peak - f0).abs() <= fs / 1024.0, "peak at {peak} Hz");
    }
}
