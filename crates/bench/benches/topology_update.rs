//! Criterion benchmarks of incremental [`SensingTopology`] maintenance
//! against the full O(N²) rebuild, at N ∈ {320, 1000, 5000}.
//!
//! `rebuild` scales quadratically in the population; `add_station` (one
//! join) and `update_station` (one move) recompute only the dirty row +
//! column and must scale linearly — the O(N²) → O(N) win that makes ramp
//! joins and waypoint mobility affordable. The incremental paths are
//! pinned bit-identical to the rebuild by
//! `crates/sim/tests/topology_incremental.rs`, so this file measures cost
//! only.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use wifi_sim::geometry::Pos;
use wifi_sim::radio::RadioConfig;
use wifi_sim::topology::SensingTopology;

/// Deterministic venue-like positions (no RNG in the hot loop).
fn positions(n: usize) -> Vec<Pos> {
    (0..n)
        .map(|i| {
            Pos::new(
                ((i * 37) % 640) as f64 * 0.1,
                ((i * 101) % 360) as f64 * 0.1,
            )
        })
        .collect()
}

fn built(n: usize, radio: &RadioConfig) -> SensingTopology {
    let mut topo = SensingTopology::default();
    topo.rebuild(&positions(n), &[Pos::new(30.0, 17.0)], radio);
    topo
}

/// Iterations per sample.
const SAMPLE_SIZE: usize = 10;

/// The most samples the vendored criterion takes per bench id (its
/// `MAX_SAMPLES`).
const MAX_SAMPLES: usize = 50;

/// The most stations the add_station bench joins to one topology: up to
/// SAMPLE_SIZE per sample, plus less than two samples' worth over the
/// warm-up calls, whose iterations at least double up to SAMPLE_SIZE.
const DRIFT: usize = SAMPLE_SIZE * (MAX_SAMPLES + 2);

fn bench_topology(c: &mut Criterion) {
    let radio = RadioConfig::default();
    let mut g = c.benchmark_group("topology_update");
    g.sample_size(SAMPLE_SIZE);
    for &n in &[320usize, 1_000, 5_000] {
        let pos = positions(n);
        let sniffer = [Pos::new(30.0, 17.0)];
        g.throughput(Throughput::Elements(1));
        // The O(N²) reference: what every join used to cost.
        g.bench_function(&format!("rebuild_{n}"), |b| {
            let mut topo = SensingTopology::default();
            b.iter(|| {
                topo.rebuild(black_box(&pos), black_box(&sniffer), &radio);
                black_box(topo.station_count())
            })
        });
        // One incremental join at population ~N. The topology is built
        // once per N, outside the samples, and grows by one per iteration.
        // Starting DRIFT / 2 below N centers the joins on N, so the median
        // sample joins at about N; reserving up front keeps grow() out of
        // the measurement.
        let mut topo = built(n - DRIFT / 2, &radio);
        topo.reserve(n + DRIFT / 2, 1);
        let mut i = 0usize;
        g.bench_function(&format!("add_station_{n}"), |b| {
            b.iter(|| {
                i += 1;
                let p = Pos::new(31.0 + (i % 7) as f64, 18.0 + (i % 5) as f64);
                black_box(topo.add_station(black_box(p), &radio))
            })
        });
        // One incremental move at population N, on a topology built once
        // per N: each move is undone by the next.
        let mut topo = built(n, &radio);
        let mut flip = false;
        g.bench_function(&format!("update_station_{n}"), |b| {
            b.iter(|| {
                flip = !flip;
                let p = if flip {
                    Pos::new(1.0, 2.0)
                } else {
                    Pos::new(60.0, 30.0)
                };
                topo.update_station(black_box(n / 2), p, &radio);
                black_box(topo.station_count())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_topology);
criterion_main!(benches);
