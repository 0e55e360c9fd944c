//! Table 4 — underlay image-transfer experiment.
//!
//! "For underlay system, the testbed consists of two SU transmitter nodes
//! and one SU receiver node. ... The two secondary transmitters are next
//! to each other and the distance between them and the secondary receiver
//! is about 12 feet. A image file with 474 packets is transmitted
//! simultaneously by the two secondary transmitters for the cooperative
//! case. ... The results for non-cooperative case are obtained by letting
//! only one secondary transmitter transmit the image file."
//! (paper, Section 6.4; GMSK, 1500-byte packets, amplitudes 800/600/400)
//!
//! Mechanism of the cooperative gain: the side-by-side transmitters'
//! line-of-sight components combine constructively (+6 dB), while their
//! scattered components are independent — a deep fade needs both scatter
//! terms down simultaneously, which is the diversity the paper measures.
//! A small LO drift rotates the second transmitter slowly within a
//! packet. A packet "errors" when its CRC fails at the receiver, exactly
//! as in the GNU Radio packet decoder.

use crate::calib::TestbedCalibration;
use crate::image::{TestImage, PACKET_BYTES, PACKET_COUNT};
use crate::usrp::UsrpFrontEnd;
use comimo_dsp::frame::FrameCodec;
use comimo_dsp::gmsk::GmskModem;
use comimo_math::complex::Complex;
use comimo_sim::map_shards;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the underlay rig.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnderlayImageConfig {
    /// Tx–Rx distance (m). Paper: ~12 ft ≈ 3.7 m.
    pub distance_m: f64,
    /// Calibration: reference SNR at full-scale amplitude.
    pub calib: TestbedCalibration,
    /// Rician K of the indoor link.
    pub k_factor: f64,
    /// LO offset between the two transmitters (radians/sample).
    pub cfo_rad_per_sample: f64,
    /// Packets to transfer (paper: 474).
    pub n_packets: usize,
    /// Payload bytes per packet (paper: 1500).
    pub packet_bytes: usize,
}

impl UnderlayImageConfig {
    /// The calibrated paper rig: `snr_ref_db` is set so the *solo* PER at
    /// amplitude 800 lands near the paper's 24.85 %; the cooperative
    /// column then follows from the physics.
    pub fn paper() -> Self {
        Self {
            distance_m: 3.7,
            calib: TestbedCalibration::new(52.0, 2.0),
            k_factor: 6.0,
            // a few Hz of residual LO drift at 1 Msps (quasi-static
            // within a 48 ms packet)
            cfo_rad_per_sample: 2.0 * std::f64::consts::PI * 5e-6,
            n_packets: PACKET_COUNT,
            packet_bytes: PACKET_BYTES,
        }
    }

    /// A scaled-down configuration for fast tests.
    pub fn quick() -> Self {
        Self {
            n_packets: 50,
            packet_bytes: 250,
            ..Self::paper()
        }
    }
}

/// Result at one amplitude setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnderlayRow {
    /// Front-end amplitude setting.
    pub amplitude: u32,
    /// PER with two cooperating transmitters.
    pub per_coop: f64,
    /// PER with a single transmitter.
    pub per_solo: f64,
}

/// The full Table-4 output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnderlayImageResult {
    /// One row per amplitude (paper: 800, 600, 400).
    pub rows: Vec<UnderlayRow>,
}

impl UnderlayImageResult {
    /// The "Average" line of Table 4.
    pub fn average(&self) -> (f64, f64) {
        let n = self.rows.len() as f64;
        (
            self.rows.iter().map(|r| r.per_coop).sum::<f64>() / n,
            self.rows.iter().map(|r| r.per_solo).sum::<f64>() / n,
        )
    }
}

/// Sums several pre-rendered streams sample-by-sample (the air interface
/// for multiple simultaneous transmitters). Shorter streams are
/// zero-padded.
fn sum_streams(streams: &[Vec<Complex>]) -> Vec<Complex> {
    let n = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = vec![Complex::zero(); n];
    for s in streams {
        for (o, &x) in out.iter_mut().zip(s) {
            *o += x;
        }
    }
    out
}

/// Sends one framed GMSK packet over `n_tx` transmitters and reports
/// whether the CRC checks at the receiver.
fn send_packet<R: Rng>(
    rng: &mut R,
    cfg: &UnderlayImageConfig,
    modem: &GmskModem,
    codec: &FrameCodec,
    payload: &[u8],
    amplitude: u32,
    n_tx: usize,
) -> bool {
    let fe = UsrpFrontEnd::new(amplitude);
    let snr = cfg.calib.mean_snr(
        comimo_channel::geometry::Point::origin(),
        comimo_channel::geometry::Point::new(cfg.distance_m, 0.0),
        &comimo_channel::obstacle::Environment::open(),
        fe.power_scale(),
    );
    let bits = codec.encode(payload);
    let samples = modem.modulate(&bits);
    // Indoor Rician channel per transmitter: the line-of-sight components
    // arrive phase-aligned (the transmitters sit "next to each other" at
    // the same distance from the receiver, and the experimenters placed
    // them for constructive combining — otherwise the experiment could
    // not have reported PER 0), while the scattered parts are independent
    // across transmitters, which is where the diversity comes from. A
    // small LO drift rotates transmitter 2 slowly within the packet.
    let los_amp = (cfg.k_factor / (cfg.k_factor + 1.0) * snr).sqrt();
    let scatter_var = snr / (cfg.k_factor + 1.0);
    let streams: Vec<Vec<Complex>> = (0..n_tx)
        .map(|t| {
            // each transmitter runs at the full amplitude setting, as in
            // the paper ("transmitted simultaneously by the two secondary
            // transmitters")
            let amp = Complex::real(los_amp) + comimo_math::rng::complex_gaussian(rng, scatter_var);
            let cfo = if t == 0 { 0.0 } else { cfg.cfo_rad_per_sample };
            let mut phase = 0.0f64;
            samples
                .iter()
                .map(|&s| {
                    let y = s * amp * Complex::cis(phase);
                    phase += cfo;
                    y
                })
                .collect()
        })
        .collect();
    let mut rx = sum_streams(&streams);
    for v in &mut rx {
        *v += comimo_math::rng::complex_gaussian(rng, 1.0);
    }
    codec
        .decode(&modem.demodulate(&rx, bits.len()))
        .map(|f| f.payload == payload)
        .unwrap_or(false)
}

/// Runs the Table-4 experiment at the given amplitude settings.
pub fn run(cfg: &UnderlayImageConfig, amplitudes: &[u32], seed: u64) -> UnderlayImageResult {
    let modem = GmskModem::gnuradio_default();
    let codec = FrameCodec::new();
    // deterministic synthetic image content, truncated/cycled to size
    let image = TestImage::standard();
    let rows = amplitudes
        .iter()
        .enumerate()
        .map(|(ai, &amplitude)| {
            // every packet has its own derived stream covering both its
            // cooperative and solo transmission, so the packets fan out
            // onto the rayon pool without changing either PER column
            let packets: Vec<usize> = (0..cfg.n_packets).collect();
            let outcomes = map_shards(&packets, |_, &p| {
                let start = (p * cfg.packet_bytes) % image.pixels.len();
                let end = (start + cfg.packet_bytes).min(image.pixels.len());
                let payload = &image.pixels[start..end];
                let mut rng = comimo_math::rng::derive(seed, (ai as u64) << 32 | p as u64);
                let coop_ok = send_packet(&mut rng, cfg, &modem, &codec, payload, amplitude, 2);
                let solo_ok = send_packet(&mut rng, cfg, &modem, &codec, payload, amplitude, 1);
                (coop_ok, solo_ok)
            });
            let failures = outcomes.iter().fold((0usize, 0usize), |acc, &(c, s)| {
                (acc.0 + usize::from(!c), acc.1 + usize::from(!s))
            });
            UnderlayRow {
                amplitude,
                per_coop: failures.0 as f64 / cfg.n_packets as f64,
                per_solo: failures.1 as f64 / cfg.n_packets as f64,
            }
        })
        .collect();
    UnderlayImageResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooperation_lowers_per_at_every_amplitude() {
        let res = run(&UnderlayImageConfig::quick(), &[800, 600, 400], 2013);
        for r in &res.rows {
            assert!(
                r.per_coop <= r.per_solo,
                "amp {}: coop {} vs solo {}",
                r.amplitude,
                r.per_coop,
                r.per_solo
            );
        }
        // and strictly better somewhere meaningful
        let (avg_coop, avg_solo) = res.average();
        assert!(
            avg_coop < avg_solo * 0.6,
            "avg coop {avg_coop} vs solo {avg_solo}"
        );
    }

    #[test]
    fn per_rises_as_amplitude_falls_solo() {
        let res = run(&UnderlayImageConfig::quick(), &[800, 400], 99);
        assert!(
            res.rows[1].per_solo >= res.rows[0].per_solo,
            "400: {} vs 800: {}",
            res.rows[1].per_solo,
            res.rows[0].per_solo
        );
    }

    #[test]
    fn shape_matches_table_4_at_the_top() {
        // paper at amplitude 800: coop 0 %, solo 24.85 %. The PER depends
        // on the packet length (one bad bit kills a CRC), so this check
        // runs at the paper's full 1500-byte packets.
        let cfg = UnderlayImageConfig {
            n_packets: 40,
            ..UnderlayImageConfig::paper()
        };
        let res = run(&cfg, &[800], 2013);
        let r = &res.rows[0];
        assert!(r.per_coop < 0.08, "coop PER {}", r.per_coop);
        assert!(
            r.per_solo > 0.08 && r.per_solo < 0.5,
            "solo PER {}",
            r.per_solo
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = UnderlayImageConfig {
            n_packets: 10,
            ..UnderlayImageConfig::quick()
        };
        assert_eq!(run(&cfg, &[600], 5), run(&cfg, &[600], 5));
    }

    #[test]
    fn sum_streams_pads_and_adds() {
        let a = vec![Complex::one(); 3];
        let b = vec![Complex::one(); 5];
        let s = sum_streams(&[a, b]);
        assert_eq!(s.len(), 5);
        assert!(s[0].approx_eq(Complex::new(2.0, 0.0), 1e-12));
        assert!(s[4].approx_eq(Complex::one(), 1e-12));
    }
}
