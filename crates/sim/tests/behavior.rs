//! Behaviour-level tests of the DCF simulator: determinism, delivery,
//! contention, hidden terminals, rate adaptation, beacons, association.

use wifi_frames::fc::FrameKind;
use wifi_frames::phy::Rate;
use wifi_frames::record::FrameRecord;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

const SEC: u64 = 1_000_000;

fn client(pos: Pos, fps: f64) -> ClientConfig {
    ClientConfig {
        pos,
        channel_idx: 0,
        rts_policy: RtsPolicy::Never,
        adaptation: RateAdaptation::Arf(Rate::R11),
        traffic: TrafficProfile {
            uplink: FlowConfig {
                mean_fps: fps,
                sizes: SizeDist::fixed(1000),
                mean_batch: 1.0,
            },
            downlink: FlowConfig::off(),
        },
        join_at_us: 0,
        leave_at_us: None,
        power_save_interval_us: None,
        frag_threshold: None,
    }
}

/// Builds a small cell: one AP at the origin, `n` clients on a ring.
fn small_cell(seed: u64, n: usize, fps: f64) -> Simulator {
    let mut sim = Simulator::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    for i in 0..n {
        let angle = i as f64 / n as f64 * std::f64::consts::TAU;
        let pos = Pos::new(8.0 * angle.cos(), 8.0 * angle.sin());
        sim.add_client(client(pos, fps));
    }
    sim.add_sniffer(SnifferConfig {
        pos: Pos::new(1.0, 1.0),
        capacity_fps: 100_000.0,
        burst: 10_000.0,
        ..SnifferConfig::default()
    });
    sim
}

#[test]
fn deterministic_given_seed() {
    let trace = |seed| {
        let mut sim = small_cell(seed, 5, 40.0);
        sim.run_until(3 * SEC);
        sim.sniffers()[0].trace.clone()
    };
    let a = trace(7);
    let b = trace(7);
    assert_eq!(a.len(), b.len());
    assert_eq!(a, b, "same seed must give identical traces");
    let c = trace(8);
    assert_ne!(a, c, "different seeds should diverge");
}

#[test]
fn low_load_delivers_everything_without_retries() {
    let mut sim = small_cell(1, 1, 10.0);
    sim.run_until(5 * SEC);
    let st = &sim.stations()[1]; // the lone client
    assert!(st.stats.delivered > 30, "delivered {}", st.stats.delivered);
    assert_eq!(st.stats.retry_drops, 0);
    assert_eq!(st.stats.queue_drops, 0);
    // At 10 fps on an idle channel, retries should be essentially absent:
    // attempts ≈ delivered (mgmt adds a couple).
    assert!(
        st.stats.tx_attempts <= st.stats.delivered + 3,
        "attempts {} vs delivered {}",
        st.stats.tx_attempts,
        st.stats.delivered
    );
}

#[test]
fn contention_causes_collisions_and_retries() {
    let mut sim = small_cell(3, 20, 200.0); // heavily saturated
    sim.run_until(5 * SEC);
    let (tx, collisions) = sim.medium_stats()[0];
    assert!(tx > 1000, "transmissions {tx}");
    assert!(
        collisions > tx / 100,
        "expected meaningful collisions, got {collisions}/{tx}"
    );
    // Retry flags must appear in the captured trace.
    let retries = sim.sniffers()[0].trace.iter().filter(|r| r.retry).count();
    assert!(retries > 10, "retries in trace: {retries}");
}

#[test]
fn saturation_throughput_is_bounded_and_positive() {
    let mut sim = small_cell(4, 10, 500.0);
    sim.run_until(10 * SEC);
    // Goodput: payload bytes of delivered MSDUs per second.
    let delivered: u64 = sim.stations().iter().map(|s| s.stats.delivered).sum();
    let secs = 10.0;
    let goodput_mbps = delivered as f64 * 1000.0 * 8.0 / 1e6 / secs;
    assert!(
        goodput_mbps > 1.0,
        "saturated cell should still move > 1 Mbps, got {goodput_mbps:.2}"
    );
    assert!(
        goodput_mbps < 8.0,
        "goodput cannot exceed the 11 Mbps channel's DCF ceiling, got {goodput_mbps:.2}"
    );
}

#[test]
fn arf_falls_back_under_heavy_contention() {
    let mut sim = small_cell(5, 25, 200.0);
    sim.run_until(10 * SEC);
    let trace = &sim.sniffers()[0].trace;
    let data: Vec<&FrameRecord> = trace.iter().filter(|r| r.kind == FrameKind::Data).collect();
    assert!(!data.is_empty());
    let slow = data.iter().filter(|r| r.rate == Rate::R1).count();
    assert!(
        slow > data.len() / 50,
        "ARF should push some traffic to 1 Mbps under contention: {slow}/{}",
        data.len()
    );
}

#[test]
fn fixed_rate_never_downshifts() {
    let mut sim = Simulator::new(SimConfig {
        seed: 6,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    for i in 0..10 {
        let mut c = client(Pos::new(5.0 + i as f64, 0.0), 150.0);
        c.adaptation = RateAdaptation::Fixed(Rate::R11);
        sim.add_client(c);
    }
    sim.add_sniffer(SnifferConfig {
        capacity_fps: 100_000.0,
        burst: 10_000.0,
        ..SnifferConfig::default()
    });
    sim.run_until(5 * SEC);
    let non11 = sim.sniffers()[0]
        .trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data && r.rate != Rate::R11)
        .count();
    assert_eq!(non11, 0, "fixed-rate stations must stay at 11 Mbps");
}

#[test]
fn beacons_arrive_on_schedule() {
    let mut sim = small_cell(7, 1, 1.0);
    sim.run_until(5 * SEC);
    let beacons: Vec<u64> = sim.sniffers()[0]
        .trace
        .iter()
        .filter(|r| r.kind == FrameKind::Beacon)
        .map(|r| r.timestamp_us)
        .collect();
    // ~48 beacons in 5 s at 102.4 ms; allow slack for contention and losses.
    assert!(
        (40..=50).contains(&beacons.len()),
        "beacon count {}",
        beacons.len()
    );
    // Gaps hover around the beacon interval.
    let gaps: Vec<u64> = beacons.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
    assert!(
        (95_000.0..=115_000.0).contains(&mean),
        "mean beacon gap {mean}"
    );
}

#[test]
fn association_handshake_appears_in_trace() {
    let mut sim = small_cell(8, 3, 20.0);
    sim.run_until(3 * SEC);
    let trace = &sim.sniffers()[0].trace;
    let reqs = trace
        .iter()
        .filter(|r| r.kind == FrameKind::AssocRequest)
        .count();
    let resps = trace
        .iter()
        .filter(|r| r.kind == FrameKind::AssocResponse)
        .count();
    assert!(reqs >= 3, "association requests: {reqs}");
    assert!(resps >= 3, "association responses: {resps}");
    // All clients ended up associated.
    for st in sim.stations().iter().filter(|s| !s.is_ap()) {
        assert!(
            st.associated_ap.is_some(),
            "client {} not associated",
            st.id
        );
    }
}

#[test]
fn uplink_and_downlink_both_flow() {
    let mut sim = Simulator::new(SimConfig {
        seed: 9,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    sim.add_client(ClientConfig {
        pos: Pos::new(5.0, 0.0),
        channel_idx: 0,
        rts_policy: RtsPolicy::Never,
        adaptation: RateAdaptation::Arf(Rate::R11),
        traffic: TrafficProfile::symmetric(30.0),
        join_at_us: 0,
        leave_at_us: None,
        power_save_interval_us: None,
        frag_threshold: None,
    });
    sim.add_sniffer(SnifferConfig {
        capacity_fps: 100_000.0,
        burst: 10_000.0,
        ..SnifferConfig::default()
    });
    sim.run_until(5 * SEC);
    let ap_mac = sim.stations()[0].mac;
    let trace = &sim.sniffers()[0].trace;
    let up = trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data && r.dst == ap_mac)
        .count();
    let down = trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data && r.src == Some(ap_mac))
        .count();
    assert!(up > 50, "uplink frames {up}");
    assert!(down > 50, "downlink frames {down}");
}

#[test]
fn rts_cts_exchange_on_demand() {
    let mut sim = Simulator::new(SimConfig {
        seed: 10,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = client(Pos::new(5.0, 0.0), 50.0);
    c.rts_policy = RtsPolicy::Always;
    sim.add_client(c);
    sim.add_sniffer(SnifferConfig {
        capacity_fps: 100_000.0,
        burst: 10_000.0,
        ..SnifferConfig::default()
    });
    sim.run_until(5 * SEC);
    let trace = &sim.sniffers()[0].trace;
    let rts = trace.iter().filter(|r| r.kind == FrameKind::Rts).count();
    let cts = trace.iter().filter(|r| r.kind == FrameKind::Cts).count();
    let data = trace.iter().filter(|r| r.kind == FrameKind::Data).count();
    assert!(rts > 100, "RTS count {rts}");
    assert!(cts > 100, "CTS count {cts}");
    assert!(data > 100, "data count {data}");
    // On a clean channel RTS ≈ CTS ≈ data.
    assert!((rts as i64 - cts as i64).abs() < rts as i64 / 5);
}

#[test]
fn hidden_terminals_collide_and_rts_helps() {
    // Two clients 90 m apart (carrier-sense radius at default power is
    // ≈ 79 m), both 45 m from the AP: the classic hidden pair.
    let run = |rts: RtsPolicy, seed: u64| -> (f64, u64) {
        let mut sim = Simulator::new(SimConfig {
            seed,
            ..SimConfig::default()
        });
        sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
        for x in [-45.0f64, 45.0] {
            let mut c = client(Pos::new(x, 0.0), 120.0);
            c.rts_policy = rts;
            sim.add_client(c);
        }
        sim.run_until(10 * SEC);
        let delivered: u64 = sim
            .stations()
            .iter()
            .filter(|s| !s.is_ap())
            .map(|s| s.stats.delivered)
            .sum();
        let attempts: u64 = sim
            .stations()
            .iter()
            .filter(|s| !s.is_ap())
            .map(|s| s.stats.tx_attempts)
            .sum();
        let (_, collisions) = sim.medium_stats()[0];
        (delivered as f64 / attempts.max(1) as f64, collisions)
    };
    let (eff_no_rts, coll_no_rts) = run(RtsPolicy::Never, 11);
    let (eff_rts, _) = run(RtsPolicy::Always, 11);
    assert!(
        coll_no_rts > 100,
        "hidden terminals should collide: {coll_no_rts}"
    );
    assert!(
        eff_rts > eff_no_rts,
        "RTS/CTS should raise per-attempt delivery for hidden pairs: \
         {eff_rts:.3} vs {eff_no_rts:.3}"
    );
}

#[test]
fn sniffer_misses_out_of_range_traffic() {
    let mut sim = Simulator::new(SimConfig {
        seed: 12,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    sim.add_client(client(Pos::new(5.0, 0.0), 50.0));
    // A sniffer beyond sensitivity range of the client and AP, but above
    // the pair-coupling floor: traffic reaches it too weak to decode and
    // is tallied as range misses.
    sim.add_sniffer(SnifferConfig {
        pos: Pos::new(300.0, 0.0),
        ..SnifferConfig::default()
    });
    // A sniffer below the coupling floor: the traffic is not on its air at
    // all, so nothing is captured *or* counted missed (this is what makes
    // sniffer accounting independent of RF-isolation sharding).
    sim.add_sniffer(SnifferConfig {
        pos: Pos::new(10_000.0, 0.0),
        ..SnifferConfig::default()
    });
    sim.run_until(3 * SEC);
    let sn = &sim.sniffers()[0];
    assert_eq!(sn.trace.len(), 0);
    assert!(sn.stats.missed_range > 100);
    let far = &sim.sniffers()[1];
    assert_eq!(far.trace.len(), 0);
    assert_eq!(far.stats.missed_range, 0);
}

#[test]
fn ground_truth_supersets_any_capture() {
    let mut sim = small_cell(13, 8, 80.0);
    sim.config.record_ground_truth = true;
    sim.run_until(3 * SEC);
    let gt = sim.ground_truth.records.len();
    let cap = sim.sniffers()[0].trace.len();
    assert!(gt >= cap, "ground truth {gt} < captured {cap}");
    assert_eq!(gt as u64, sim.ground_truth.transmissions);
}

#[test]
fn leave_stops_traffic() {
    let mut sim = Simulator::new(SimConfig {
        seed: 14,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = client(Pos::new(5.0, 0.0), 100.0);
    c.leave_at_us = Some(2 * SEC);
    sim.add_client(c);
    sim.add_sniffer(SnifferConfig {
        capacity_fps: 100_000.0,
        burst: 10_000.0,
        ..SnifferConfig::default()
    });
    sim.run_until(6 * SEC);
    let late_data = sim.sniffers()[0]
        .trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data && r.timestamp_us > 3 * SEC)
        .count();
    assert_eq!(late_data, 0, "no data frames after the user left");
}

#[test]
fn channels_are_isolated() {
    let mut sim = Simulator::new(SimConfig::ietf_three_channels(15));
    // AP + client on channel index 0 only.
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    sim.add_client(client(Pos::new(3.0, 0.0), 50.0));
    // Sniffers on all three channels at the same spot.
    for idx in 0..3 {
        sim.add_sniffer(SnifferConfig {
            pos: Pos::new(1.0, 0.0),
            channel_idx: idx,
            ..SnifferConfig::default()
        });
    }
    sim.run_until(3 * SEC);
    assert!(!sim.sniffers()[0].trace.is_empty());
    assert!(sim.sniffers()[1].trace.is_empty());
    assert!(sim.sniffers()[2].trace.is_empty());
}

#[test]
fn snr_adaptation_holds_high_rate_near_ap() {
    let mut sim = Simulator::new(SimConfig {
        seed: 16,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = client(Pos::new(3.0, 0.0), 80.0);
    c.adaptation = RateAdaptation::Snr(3.0);
    sim.add_client(c);
    sim.add_sniffer(SnifferConfig {
        capacity_fps: 100_000.0,
        burst: 10_000.0,
        ..SnifferConfig::default()
    });
    sim.run_until(5 * SEC);
    let data: Vec<&FrameRecord> = sim.sniffers()[0]
        .trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data && !r.retry)
        .collect();
    let at11 = data.iter().filter(|r| r.rate == Rate::R11).count();
    // After the first SNR observation the client should sit at 11 Mbps.
    assert!(
        at11 as f64 > data.len() as f64 * 0.9,
        "{at11}/{} frames at 11 Mbps",
        data.len()
    );
}
