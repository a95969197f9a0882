//! Criterion benchmark of RF-isolation shard planning on the venue-5k
//! campus (5 000 users, 39 components, seed 11): the grid planner
//! `ShardSpec::partition` against the exhaustive O(N²) scan it replaced,
//! `ShardSpec::partition_oracle`, which returns the same plan.
//!
//! This is the per-layer counterpart of perfbench's `share.partition` on
//! the `venue-5k` workload, which times the same call once per run.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ietf_workloads::{venue_campus, CampusScale};

fn bench_partition(c: &mut Criterion) {
    let spec = venue_campus(CampusScale::venue_5k(11)).spec;
    let mut g = c.benchmark_group("shard_partition");
    g.throughput(Throughput::Elements(spec.station_count() as u64));
    g.bench_function("venue_5k", |b| {
        b.iter(|| black_box(spec.partition(black_box(usize::MAX))))
    });
    // The O(N²) reference: what planning cost before the grid.
    g.sample_size(1);
    g.bench_function("venue_5k_oracle", |b| {
        b.iter(|| black_box(spec.partition_oracle(black_box(usize::MAX))))
    });
    g.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
