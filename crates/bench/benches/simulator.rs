//! Criterion benchmarks of the DCF simulator: events per wall-second for a
//! saturated single cell, for a dense cell of mostly idle listeners, for
//! an IETF-style multi-AP channel, and for a three-channel plenary run as
//! one event loop and as its three RF-isolation components.

use congestion_bench::PLENARY_SEED;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ietf_workloads::{ietf_plenary, load_ramp, Scenario, SessionScale};
use wifi_frames::phy::Rate;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

fn saturated_cell(seed: u64, clients: usize) -> Simulator {
    let mut sim = Simulator::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    for i in 0..clients {
        sim.add_client(client(i, TrafficProfile::symmetric(50.0), 0));
    }
    sim.add_sniffer(SnifferConfig::default());
    sim
}

/// A client on a 10 m ring around the AP.
fn client(i: usize, traffic: TrafficProfile, join_at_us: u64) -> ClientConfig {
    let angle = i as f64;
    ClientConfig {
        pos: Pos::new(10.0 * angle.cos(), 10.0 * angle.sin()),
        channel_idx: 0,
        rts_policy: RtsPolicy::Never,
        adaptation: RateAdaptation::Arf(Rate::R11),
        traffic,
        join_at_us,
        leave_at_us: None,
        power_save_interval_us: None,
        frag_threshold: None,
    }
}

/// When [`listener_cell`]'s senders join: after every quiet client has
/// associated on an otherwise idle channel.
const SENDERS_JOIN_US: u64 = 3_000_000;

/// Warm-up of [`listener_cell`]: the senders have associated and saturate
/// the channel well before it ends.
const LISTENER_WARMUP_US: u64 = 5_000_000;

/// One AP, `quiet` clients that join staggered through the first two
/// seconds, associate and then only listen, and `senders` uplink clients
/// that join after them and saturate the channel: every frame is sensed by
/// all the quiet clients, but none of them contends.
fn listener_cell(seed: u64, senders: usize, quiet: usize) -> Simulator {
    let mut sim = Simulator::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    for i in 0..senders {
        let traffic = TrafficProfile {
            uplink: FlowConfig::poisson(200.0, SizeDist::ietf_mix()),
            downlink: FlowConfig::off(),
        };
        sim.add_client(client(i, traffic, SENDERS_JOIN_US));
    }
    for q in 0..quiet {
        let join = q as u64 * 2_000_000 / quiet.max(1) as u64;
        sim.add_client(client(senders + q, TrafficProfile::silent(), join));
    }
    sim.add_sniffer(SnifferConfig::default());
    sim
}

fn bench_saturated_second(c: &mut Criterion) {
    c.bench_function("sim_saturated_cell_20sta_1s", |b| {
        b.iter(|| {
            let mut sim = saturated_cell(7, 20);
            sim.run_until(1_000_000);
            black_box(sim.sniffers()[0].trace.len())
        })
    });
}

fn bench_ietf_ramp_10s(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario");
    g.sample_size(10);
    g.bench_function("ietf_ramp_100users_10s", |b| {
        b.iter(|| {
            let scenario = load_ramp(9, 100, 10, 2.0);
            let result = scenario.run();
            black_box(result.traces[0].len())
        })
    });
    g.finish();
}

fn bench_dense_cell(c: &mut Criterion) {
    // The sensing-topology stress case: every transmission used to pay an
    // O(stations) path-loss loop; with the cached matrix it pays one bitset
    // AND, so this bench is the direct witness of that optimization.
    let mut g = c.benchmark_group("dense");
    g.sample_size(10);
    g.bench_function("sim_dense_cell_200sta_1s", |b| {
        b.iter(|| {
            let mut sim = saturated_cell(13, 200);
            sim.run_until(1_000_000);
            black_box(sim.sniffers()[0].trace.len())
        })
    });
    // The carrier-sense fan-out case: every frame is sensed by ~320
    // stations, but only the 8 senders and the AP contend. Each iteration
    // simulates one more steady-state second of the same warmed-up cell.
    let mut sim = listener_cell(17, 8, 312);
    sim.run_until(LISTENER_WARMUP_US);
    g.bench_function("sim_dense_cell_320sta_1s", |b| {
        b.iter(|| {
            let until = sim.now() + 1_000_000;
            sim.run_until(until);
            black_box(sim.events_processed())
        })
    });
    g.finish();
}

fn bench_plenary_components(c: &mut Criterion) {
    // The `CONG_QUICK` plenary session (40 users, 20 s): one coupled cell
    // per channel. `whole` runs the built simulator as one event loop;
    // `components` is `Scenario::run`, which drops it and runs the three
    // channels one after another. Same events and output; the second
    // row's event loops each hold one channel's working set.
    let scale = SessionScale {
        users: 40,
        duration_s: 20,
        ..SessionScale::plenary_default(PLENARY_SEED)
    };
    let mut g = c.benchmark_group("plenary");
    g.sample_size(10);
    g.bench_function("quick_plenary_whole", |b| {
        b.iter(|| {
            let whole = Scenario {
                spec: None,
                ..ietf_plenary(scale)
            };
            black_box(whole.run().events_processed)
        })
    });
    g.bench_function("quick_plenary_components", |b| {
        b.iter(|| black_box(ietf_plenary(scale).run().events_processed))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_saturated_second,
    bench_ietf_ramp_10s,
    bench_dense_cell,
    bench_plenary_components
);
criterion_main!(benches);
