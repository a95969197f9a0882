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

fn bench_topology(c: &mut Criterion) {
    let radio = RadioConfig::default();
    let mut g = c.benchmark_group("topology_update");
    // At most ten joins / moves / rebuilds per sample: bounds the
    // population drift of the add_station bench (see below).
    g.sample_size(10);
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
        // One incremental join at population ~N. The population grows by
        // one per iteration and is rebuilt for each sample; with
        // sample_size capped the drift stays under a dozen stations, and
        // pre-reserving keeps grow() out of the measurement.
        g.bench_function(&format!("add_station_{n}"), |b| {
            let mut topo = built(n, &radio);
            topo.reserve(n + 64, 1);
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let p = Pos::new(31.0 + (i % 7) as f64, 18.0 + (i % 5) as f64);
                black_box(topo.add_station(black_box(p), &radio))
            })
        });
        // One incremental move at population N.
        g.bench_function(&format!("update_station_{n}"), |b| {
            let mut topo = built(n, &radio);
            let mut flip = false;
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
