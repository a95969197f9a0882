//! Criterion benchmarks of the scalar PHY kernels every receiver, station or
//! sniffer, decodes through: `effective_sinr_db` over interferer lists of
//! 1/4/16/64 entries, the simulator's `NoiseFloor::sinr_db` (the same SINR
//! with the floor converted once) over 0/1/4/16/64, and
//! `frame_success_prob` evaluated for 1/4/16/64 receivers of one frame. The
//! noise floor goes through `black_box`: a literal would let the inlined
//! kernel constant-fold its milliwatt term.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use wifi_frames::phy::Rate;
use wifi_sim::radio::{
    effective_sinr_db, frame_success_prob, processing_gain_db, NoiseFloor, NOISE_FLOOR_DBM,
};

/// A deterministic interferer RSSI pattern spanning the dynamic range a
/// dense cell produces (strong near-far captures down to floor grazes).
fn interferers(n: usize) -> Vec<f64> {
    (0..n).map(|i| -50.0 - ((i * 37) % 45) as f64).collect()
}

fn bench_sinr(c: &mut Criterion) {
    let mut g = c.benchmark_group("phy/sinr");
    let pg = processing_gain_db(Rate::R11);
    for &n in &[1usize, 4, 16, 64] {
        let interf = interferers(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(&format!("interferers_{n}"), |b| {
            b.iter(|| {
                black_box(effective_sinr_db(
                    black_box(-55.0),
                    black_box(&interf),
                    black_box(-95.0),
                    pg,
                ))
            })
        });
    }
    let floor = NoiseFloor::new(NOISE_FLOOR_DBM);
    for &n in &[0usize, 1, 4, 16, 64] {
        let interf = interferers(n);
        g.throughput(Throughput::Elements(n.max(1) as u64));
        g.bench_function(&format!("floor_cached_{n}"), |b| {
            b.iter(|| {
                black_box(black_box(&floor).sinr_db(black_box(-55.0), black_box(&interf), pg))
            })
        });
    }
    g.finish();
}

fn bench_success(c: &mut Criterion) {
    let mut g = c.benchmark_group("phy/success");
    for &n in &[1usize, 4, 16, 64] {
        // SINRs straddling the rate threshold, where the exp() tail is live.
        let sinrs: Vec<f64> = (0..n).map(|i| ((i * 29) % 25) as f64 - 5.0).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(&format!("receivers_{n}"), |b| {
            b.iter(|| {
                for &s in black_box(&sinrs) {
                    black_box(frame_success_prob(s, Rate::R11, 1460));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sinr, bench_success);
criterion_main!(benches);
