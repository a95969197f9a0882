//! Criterion benchmarks of the timing-wheel event queue in isolation:
//! push/pop churn, timer re-arm (the Ack/Cts timeouts of the per-node
//! slot; backoff countdowns reach the queue as one grant per medium and
//! re-arm nothing), and far-future spill cascades, each at 1k–100k pending
//! events.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use wifi_sim::events::{Event, EventQueue, TimerKind};

/// A deterministic timestamp pattern: mostly near-future (contention-scale
/// offsets), with a far tail that exercises the spill level, matching the
/// shape a DCF simulation produces.
fn offset(i: u64) -> u64 {
    match i % 16 {
        0..=11 => 10 + (i * 37) % 1_500,        // slot/DIFS/backoff scale
        12..=14 => 2_000 + (i * 911) % 60_000,  // beacon/traffic scale
        _ => 100_000 + (i * 7919) % 10_000_000, // spill scale
    }
}

/// Pre-fills a queue with `pending` events starting at time `base`.
fn filled(pending: u64, base: u64) -> EventQueue {
    let mut q = EventQueue::new();
    for i in 0..pending {
        q.push(base + offset(i), Event::UserJoin { node: i as usize });
    }
    q
}

fn bench_push_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/push_pop");
    for &pending in &[1_000u64, 10_000, 100_000] {
        g.throughput(Throughput::Elements(pending));
        g.bench_function(&format!("steady_state_{pending}"), |b| {
            // Steady state: a full queue where every pop schedules a
            // replacement — the event loop's actual regime.
            let mut q = filled(pending, 0);
            let mut now = 0u64;
            let mut i = pending;
            b.iter(|| {
                for _ in 0..pending {
                    let (at, ev) = q.pop().expect("queue drained in steady state");
                    now = at;
                    black_box(ev);
                    q.push(now + offset(i), Event::UserJoin { node: i as usize });
                    i += 1;
                }
            })
        });
    }
    g.finish();
}

fn bench_rearm(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/rearm");
    for &pending in &[1_000u64, 10_000, 100_000] {
        g.throughput(Throughput::Elements(pending));
        g.bench_function(&format!("rearm_under_{pending}_pending"), |b| {
            // Ack/Cts timeout churn against a deep queue: node re-arms
            // overwrite the previous entry (the old scheme left it dead in
            // the heap).
            let mut q = filled(pending, 0);
            let mut round = 0u64;
            b.iter(|| {
                for node in 0..pending as usize {
                    round += 1;
                    q.arm_timer(node & 1023, TimerKind::AckTimeout, 20 + round % 1_000);
                }
            })
        });
    }
    g.finish();
}

fn bench_cascade(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/cascade");
    let pending = 50_000u64;
    g.throughput(Throughput::Elements(pending));
    g.bench_function("drain_across_windows_50k", |b| {
        // Every event beyond the first window: draining forces window
        // advances and spill cascades.
        b.iter(|| {
            let mut q = filled(pending, 0);
            let mut n = 0u64;
            while let Some((at, _)) = q.pop() {
                n += black_box(at) & 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_push_pop, bench_rearm, bench_cascade);
criterion_main!(benches);
