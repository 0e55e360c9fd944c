//! Criterion benches for the computational kernels underneath the
//! experiments: the `ē_b` inversion, OSTBC encode/decode, the slicer, the
//! Monte-Carlo BER engine, the GMSK modem, the FFT and the convolutional
//! code.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use comimo_dsp::gmsk::GmskModem;
use comimo_energy::ebar::EbarSolver;
use comimo_math::cmatrix::CMatrix;
use comimo_math::complex::Complex;
use comimo_math::rng::{complex_gaussian, seeded};
use comimo_stbc::batch::simulate_ber_batch;
use comimo_stbc::decode::decode_block;
use comimo_stbc::design::{Ostbc, StbcKind};
use comimo_stbc::sim::{simulate_ber, simulate_ber_par, SimConstellation};

/// One `ē_b` solve: log-bisection over the closed-form forward map.
fn bench_ebar(c: &mut Criterion) {
    let mut g = c.benchmark_group("ebar_solver");
    g.sample_size(20);
    let solver = EbarSolver::paper();
    for &(b, mt, mr) in &[(2u32, 1usize, 1usize), (2, 2, 3), (8, 4, 4)] {
        g.bench_function(format!("solve_b{b}_{mt}x{mr}"), |bench| {
            bench.iter(|| black_box(solver.solve(black_box(1e-3), b, mt, mr)));
        });
    }
    g.finish();
}

fn bench_stbc(c: &mut Criterion) {
    let mut g = c.benchmark_group("stbc");
    let mut rng = seeded(1);
    for kind in [StbcKind::Alamouti, StbcKind::H4] {
        let code = Ostbc::new(kind);
        let syms: Vec<Complex> = (0..code.n_symbols())
            .map(|_| complex_gaussian(&mut rng, 1.0))
            .collect();
        g.throughput(Throughput::Elements(code.n_symbols() as u64));
        g.bench_function(format!("encode_{kind:?}"), |bench| {
            bench.iter(|| black_box(code.encode(black_box(&syms))));
        });
        let h = CMatrix::from_fn(2, code.n_tx(), |_, _| complex_gaussian(&mut rng, 1.0));
        let y = &code.encode(&syms) * &h.transpose();
        g.bench_function(format!("decode_{kind:?}_2rx"), |bench| {
            bench.iter(|| black_box(decode_block(&code, black_box(&h), black_box(&y))));
        });
    }
    g.finish();
}

fn bench_slicer(c: &mut Criterion) {
    let mut g = c.benchmark_group("slicer");
    let mut rng = seeded(6);
    for b in [2u32, 6] {
        let cons = SimConstellation::new(b);
        let samples: Vec<Complex> = (0..4096)
            .map(|_| {
                let i = rand::Rng::gen_range(&mut rng, 0..cons.size() as u32);
                cons.map(i) + complex_gaussian(&mut rng, 0.3)
            })
            .collect();
        g.throughput(Throughput::Elements(samples.len() as u64));
        g.bench_function(format!("scan_b{b}_4k"), |bench| {
            bench.iter(|| {
                samples
                    .iter()
                    .map(|&x| cons.slice(black_box(x)))
                    .fold(0u32, u32::wrapping_add)
            });
        });
        g.bench_function(format!("threshold_b{b}_4k"), |bench| {
            bench.iter(|| {
                samples
                    .iter()
                    .map(|&x| cons.slice_fast(black_box(x)))
                    .fold(0u32, u32::wrapping_add)
            });
        });
    }
    g.finish();
}

fn bench_monte_carlo(c: &mut Criterion) {
    let mut g = c.benchmark_group("monte_carlo");
    g.sample_size(10);
    let code = Ostbc::new(StbcKind::Alamouti);
    let cons = SimConstellation::new(2);
    let n_blocks = 10_000;
    g.throughput(Throughput::Elements(n_blocks as u64));
    g.bench_function("simulate_ber_serial_10k", |bench| {
        bench.iter(|| {
            let mut rng = seeded(2013);
            black_box(simulate_ber(&mut rng, &code, &cons, 2, 4.0, 1.0, n_blocks))
        });
    });
    g.bench_function("simulate_ber_batch_10k", |bench| {
        bench.iter(|| {
            black_box(simulate_ber_batch(
                2013, &code, &cons, 2, 4.0, 1.0, n_blocks,
            ))
        });
    });
    g.bench_function("simulate_ber_par_10k", |bench| {
        bench.iter(|| black_box(simulate_ber_par(2013, &code, &cons, 2, 4.0, 1.0, n_blocks)));
    });
    g.finish();
}

fn bench_gmsk(c: &mut Criterion) {
    let mut g = c.benchmark_group("gmsk");
    let modem = GmskModem::gnuradio_default();
    let bits = comimo_dsp::bits::pn_sequence(3, 12_000); // one 1500-B packet
    let samples = modem.modulate(&bits);
    g.throughput(Throughput::Elements(bits.len() as u64));
    g.bench_function("modulate_1500B_packet", |bench| {
        bench.iter(|| black_box(modem.modulate(black_box(&bits))));
    });
    g.bench_function("demodulate_1500B_packet", |bench| {
        bench.iter(|| black_box(modem.demodulate(black_box(&samples), bits.len())));
    });
    g.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    let mut rng = seeded(2);
    for n in [256usize, 4096] {
        let x: Vec<Complex> = (0..n).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("fft_{n}"), |bench| {
            bench.iter(|| black_box(comimo_dsp::fft::fft(black_box(&x))));
        });
    }
    g.finish();
}

fn bench_fec(c: &mut Criterion) {
    let mut g = c.benchmark_group("fec");
    let bits = comimo_dsp::bits::pn_sequence(4, 4_000);
    let coded = comimo_dsp::fec::conv_encode(&bits);
    g.throughput(Throughput::Elements(bits.len() as u64));
    g.bench_function("conv_encode_4k", |bench| {
        bench.iter(|| black_box(comimo_dsp::fec::conv_encode(black_box(&bits))));
    });
    g.bench_function("viterbi_hard_4k", |bench| {
        bench.iter(|| {
            black_box(comimo_dsp::fec::conv_decode_hard(
                black_box(&coded),
                bits.len(),
            ))
        });
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_ebar,
    bench_stbc,
    bench_slicer,
    bench_monte_carlo,
    bench_gmsk,
    bench_fft,
    bench_fec
);
criterion_main!(kernels);
