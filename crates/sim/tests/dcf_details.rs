//! Finer-grained DCF behaviour tests: duration fields, NAV protection,
//! queue overflow, fading-driven rate selection, DSSS processing gain, the
//! carrier-sense vulnerability window, and the exact DIFS/EIFS, NAV and
//! channel-switch boundaries of channel access.

use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Preamble, Rate};
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::{dcf, delay, frame_airtime_us};
use wifi_sim::geometry::Pos;
use wifi_sim::radio::{Fading, RadioConfig};
use wifi_sim::rate::RateAdaptation;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::{MacState, RtsPolicy};
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

mod common;
use common::{base_client, silent_client};

const SEC: u64 = 1_000_000;

fn wide_open_sniffer() -> SnifferConfig {
    SnifferConfig {
        capacity_fps: 1e6,
        burst: 1e5,
        ..SnifferConfig::default()
    }
}

#[test]
fn data_frame_duration_covers_the_ack() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    sim.add_client(base_client(Pos::new(5.0, 0.0), 20.0, 500));
    sim.add_sniffer(wide_open_sniffer());
    sim.run_until(3 * SEC);
    let trace = &sim.sniffers()[0].trace;
    for r in trace.iter().filter(|r| r.kind == FrameKind::Data) {
        assert_eq!(
            r.duration_us as u64,
            delay::SIFS + delay::ACK,
            "unicast data protects exactly one SIFS + ACK"
        );
    }
    for r in trace.iter().filter(|r| r.kind == FrameKind::Ack) {
        assert_eq!(r.duration_us, 0, "final ACK carries zero duration");
    }
}

#[test]
fn rts_duration_covers_the_whole_exchange() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = base_client(Pos::new(5.0, 0.0), 20.0, 1000);
    c.rts_policy = RtsPolicy::Always;
    sim.add_client(c);
    sim.add_sniffer(wide_open_sniffer());
    sim.run_until(3 * SEC);
    let trace = &sim.sniffers()[0].trace;
    let rts: Vec<_> = trace.iter().filter(|r| r.kind == FrameKind::Rts).collect();
    assert!(!rts.is_empty());
    // Duration = 3×SIFS + CTS + data air (1028 B at 11 Mbps: 192 + 748) + ACK.
    let data_air =
        wifi_frames::timing::frame_airtime_us(1028, Rate::R11, wifi_frames::phy::Preamble::Long);
    let expect = 3 * delay::SIFS + delay::CTS + data_air + delay::ACK;
    for r in &rts {
        assert_eq!(r.duration_us as u64, expect);
    }
    // And each CTS advertises the remaining time (duration - SIFS - CTS).
    for r in trace.iter().filter(|r| r.kind == FrameKind::Cts) {
        assert_eq!(r.duration_us as u64, expect - delay::SIFS - delay::CTS);
    }
}

#[test]
fn queue_overflow_drops_are_counted() {
    let mut sim = Simulator::new(SimConfig {
        queue_cap: 16,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    // 2000 fps of 1500-byte frames: far beyond an 11 Mbps channel.
    sim.add_client(base_client(Pos::new(5.0, 0.0), 2000.0, 1472));
    sim.run_until(5 * SEC);
    let client = &sim.stations()[1];
    assert!(
        client.stats.queue_drops > 1000,
        "expected heavy queue loss, got {}",
        client.stats.queue_drops
    );
    assert!(client.stats.delivered > 100, "channel still drains");
}

#[test]
fn slow_fade_pushes_arf_down_and_recovery_pulls_it_up() {
    // One client, ARF, with a fading link: over a long run the trace must
    // contain both high-rate and low-rate phases.
    let mut sim = Simulator::new(SimConfig {
        radio: RadioConfig {
            tx_power_dbm: 13.0,
            pathloss_exp: 3.5,
            fading: Fading {
                sigma_db: 10.0,
                coherence_us: 2_000_000,
                seed: 3,
            },
            ..RadioConfig::default()
        },
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = base_client(Pos::new(26.0, 0.0), 60.0, 800);
    c.adaptation = RateAdaptation::Arf(Rate::R11);
    sim.add_client(c);
    sim.add_sniffer(wide_open_sniffer());
    sim.run_until(60 * SEC);
    let trace = &sim.sniffers()[0].trace;
    let at = |rate: Rate| {
        trace
            .iter()
            .filter(|r| r.kind == FrameKind::Data && r.rate == rate)
            .count()
    };
    assert!(
        at(Rate::R11) > 100,
        "good phases run at 11 Mbps: {}",
        at(Rate::R11)
    );
    assert!(
        at(Rate::R1) + at(Rate::R2) + at(Rate::R5_5) > 50,
        "faded phases must push ARF below 11 Mbps ({} / {} / {})",
        at(Rate::R1),
        at(Rate::R2),
        at(Rate::R5_5)
    );
}

#[test]
fn processing_gain_lets_slow_frames_survive_equal_power_collisions() {
    // The despreading credit, checked at the radio model: an equal-power
    // interferer leaves raw SINR at ~0 dB, which kills CCK-11 outright but
    // leaves DBPSK-1 ~6 dB above its threshold.
    use wifi_sim::radio::{effective_sinr_db, frame_success_prob, processing_gain_db};
    let signal = -60.0;
    let interferer = [-60.0];
    let noise = -95.0;

    let sinr_1 = effective_sinr_db(signal, &interferer, noise, processing_gain_db(Rate::R1));
    let sinr_11 = effective_sinr_db(signal, &interferer, noise, processing_gain_db(Rate::R11));
    assert!(sinr_1 > 10.0, "despread SINR at 1 Mbps: {sinr_1:.1}");
    assert!(sinr_11 < 1.0, "CCK-11 sees nearly raw SINR: {sinr_11:.1}");

    let p1 = frame_success_prob(sinr_1, Rate::R1, 428);
    let p11 = frame_success_prob(sinr_11, Rate::R11, 428);
    assert!(p1 > 0.95, "1 Mbps survives the collision: {p1:.3}");
    assert!(p11 < 0.01, "11 Mbps dies in the collision: {p11:.3}");
}

#[test]
fn vulnerability_window_scales_with_cs_delay() {
    // A longer carrier-sense detection delay must produce more collisions
    // on a contended channel.
    let collisions = |cs_delay_us: u64| -> u64 {
        let mut sim = Simulator::new(SimConfig {
            seed: 6,
            cs_delay_us,
            ..SimConfig::default()
        });
        sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
        for i in 0..12 {
            let angle = i as f64;
            sim.add_client(base_client(
                Pos::new(8.0 * angle.cos(), 8.0 * angle.sin()),
                120.0,
                400,
            ));
        }
        sim.run_until(10 * SEC);
        sim.medium_stats()[0].1
    };
    let short = collisions(5);
    let long = collisions(40);
    assert!(
        long > short,
        "cs_delay 40µs should collide more than 5µs: {long} vs {short}"
    );
}

#[test]
fn eifs_config_toggle_changes_behaviour_deterministically() {
    let run = |eifs: bool| {
        let mut sim = Simulator::new(SimConfig {
            seed: 8,
            eifs_enabled: eifs,
            radio: RadioConfig {
                fading: Fading::crowded_hall(4),
                ..RadioConfig::default()
            },
            ..SimConfig::default()
        });
        sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
        for i in 0..6 {
            sim.add_client(base_client(Pos::new(5.0 + i as f64 * 6.0, 0.0), 80.0, 800));
        }
        sim.add_sniffer(wide_open_sniffer());
        sim.run_until(5 * SEC);
        sim.sniffers()[0].trace.len()
    };
    // Not asserting which direction (workload-dependent), only that the
    // toggle is wired through and runs are self-consistent.
    let a = run(true);
    let b = run(true);
    assert_eq!(a, b);
    let _ = run(false);
}

#[test]
fn sniffer_hardware_saturation_engages_under_load() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    for i in 0..6 {
        sim.add_client(base_client(Pos::new(4.0 + i as f64, 0.0), 150.0, 200));
    }
    sim.add_sniffer(SnifferConfig {
        capacity_fps: 100.0,
        burst: 20.0,
        ..SnifferConfig::default()
    });
    sim.run_until(5 * SEC);
    let st = &sim.sniffers()[0].stats;
    assert!(
        st.missed_hardware > 100,
        "a 100 fps sniffer on a busy channel must drop: {}",
        st.missed_hardware
    );
    assert!(st.captured > 300, "but it still captures at its capacity");
}

#[test]
fn ground_truth_tape_is_opt_in() {
    let run = |record_ground_truth| {
        let mut sim = Simulator::new(SimConfig {
            record_ground_truth,
            ..SimConfig::default()
        });
        sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
        sim.add_client(base_client(Pos::new(5.0, 0.0), 50.0, 500));
        sim.run_until(2 * SEC);
        sim
    };
    assert!(!SimConfig::default().record_ground_truth, "off by default");
    let off = run(false);
    assert!(off.ground_truth.records.is_empty());
    assert!(off.ground_truth.transmissions > 50, "counters still work");
    let on = run(true);
    assert_eq!(
        on.ground_truth.records.len() as u64,
        on.ground_truth.transmissions
    );
    assert_eq!(
        on.ground_truth.transmissions, off.ground_truth.transmissions,
        "recording changes nothing simulated"
    );
}

#[test]
fn power_save_null_frames_appear_and_are_acked() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = base_client(Pos::new(5.0, 0.0), 5.0, 300);
    c.power_save_interval_us = Some(2 * SEC);
    sim.add_client(c);
    sim.add_sniffer(wide_open_sniffer());
    sim.run_until(30 * SEC);
    let trace = &sim.sniffers()[0].trace;
    let nulls: Vec<_> = trace
        .iter()
        .filter(|r| r.kind == FrameKind::NullData)
        .collect();
    // ~12 ticks in 30 s at a 2–2.5 s jittered cadence.
    assert!(
        (8..=16).contains(&nulls.len()),
        "null frames: {}",
        nulls.len()
    );
    for n in &nulls {
        assert_eq!(n.mac_bytes, 28, "null frames carry no payload");
        assert_eq!(n.payload_bytes, 0);
    }
    // The analysis charges them as zero-payload data frames and they count
    // as acknowledged exchanges.
    let stats = congestion_smoke(trace);
    assert!(stats > 0, "nulls must be ACKed: {stats}");
}

/// Counts acknowledged NullData frames via DATA→ACK adjacency.
fn congestion_smoke(trace: &[wifi_frames::record::FrameRecord]) -> usize {
    trace
        .windows(2)
        .filter(|w| {
            w[0].kind == FrameKind::NullData
                && w[1].kind == FrameKind::Ack
                && Some(w[1].dst) == w[0].src
        })
        .count()
}

#[test]
fn fragmentation_splits_large_msdus_into_sifs_bursts() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = base_client(Pos::new(5.0, 0.0), 10.0, 1400);
    c.frag_threshold = Some(500);
    sim.add_client(c);
    sim.add_sniffer(wide_open_sniffer());
    sim.run_until(5 * SEC);
    let trace = &sim.sniffers()[0].trace;
    // Every 1400-byte MSDU becomes 500+500+400 fragments.
    let frag_sizes: Vec<u32> = trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data)
        .map(|r| r.payload_bytes)
        .collect();
    assert!(!frag_sizes.is_empty());
    assert!(
        frag_sizes.iter().all(|&s| s == 500 || s == 400),
        "only fragment-sized payloads on air: {:?}",
        &frag_sizes[..frag_sizes.len().min(6)]
    );
    // Fragments of one burst are SIFS-spaced: data→ack gap 314 µs, then the
    // next fragment ends ≈ SIFS + its air time later. Count bursts: the
    // client delivered MSDUs, each as 3 fragments.
    let client = &sim.stations()[1];
    // Every burst is exactly 500 + 500 + 400.
    let tails = frag_sizes.iter().filter(|&&s| s == 400).count() as u64;
    let heads = frag_sizes.iter().filter(|&&s| s == 500).count() as u64;
    assert_eq!(
        heads,
        tails * 2,
        "each burst carries two 500-byte fragments"
    );
    // `delivered` also counts the probe and association MSDUs. The run may
    // end with the final burst's tail on air but its ACK still pending, so
    // that one burst may not have completed delivery.
    assert!(
        client.stats.delivered == tails + 2 || client.stats.delivered + 1 == tails + 2,
        "one delivered MSDU per complete burst (+probe/assoc): delivered={} bursts={}",
        client.stats.delivered,
        tails
    );
    assert!(tails > 20, "MSDUs flow");
    assert_eq!(client.stats.retry_drops, 0);
}

#[test]
fn fragmentation_off_keeps_msdus_whole() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    sim.add_client(base_client(Pos::new(5.0, 0.0), 10.0, 1400));
    sim.add_sniffer(wide_open_sniffer());
    sim.run_until(3 * SEC);
    assert!(sim.sniffers()[0]
        .trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data)
        .all(|r| r.payload_bytes == 1400));
}

#[test]
fn small_frames_are_never_fragmented() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = base_client(Pos::new(5.0, 0.0), 10.0, 300);
    c.frag_threshold = Some(500);
    sim.add_client(c);
    sim.add_sniffer(wide_open_sniffer());
    sim.run_until(3 * SEC);
    assert!(sim.sniffers()[0]
        .trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data)
        .all(|r| r.payload_bytes == 300));
}

#[test]
fn probe_scan_precedes_association() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    sim.add_ap(Pos::new(20.0, 0.0), 0, 6);
    sim.add_client(base_client(Pos::new(5.0, 0.0), 5.0, 200));
    sim.add_sniffer(wide_open_sniffer());
    sim.run_until(2 * SEC);
    let trace = &sim.sniffers()[0].trace;
    let probe_req_at = trace
        .iter()
        .position(|r| r.kind == FrameKind::ProbeRequest)
        .expect("client probes before associating");
    let assoc_at = trace
        .iter()
        .position(|r| r.kind == FrameKind::AssocRequest)
        .expect("client associates");
    assert!(probe_req_at < assoc_at, "probe comes first");
    // Both APs answer the broadcast probe.
    let resps = trace
        .iter()
        .filter(|r| r.kind == FrameKind::ProbeResponse)
        .count();
    assert!(
        resps >= 2,
        "both APs should answer the probe, saw {resps} responses"
    );
    // Broadcast probes carry zero duration and draw no ACK.
    for r in trace.iter().filter(|r| r.kind == FrameKind::ProbeRequest) {
        assert_eq!(r.duration_us, 0);
    }
}

/// A client whose AP goes out of range mid-run, so that every MSDU it
/// sends afterwards exhausts the retry limit. Returns the client's frames
/// captured by a sniffer next to its new position, and the MSDUs it
/// dropped. Both are counted between two moments when the client had
/// nothing queued or in flight, so every drop is seen whole.
fn frames_after_ap_loss(rts_policy: RtsPolicy) -> (Vec<wifi_frames::record::FrameRecord>, u64) {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let mut c = base_client(Pos::new(5.0, 0.0), 4.0, 500);
    c.rts_policy = rts_policy;
    let client = sim.add_client(c);
    sim.add_sniffer(SnifferConfig {
        pos: Pos::new(1_005.0, 0.0),
        ..wide_open_sniffer()
    });
    let idle = |sim: &Simulator| {
        let st = &sim.stations()[client];
        st.current.is_none() && st.queue.is_empty()
    };
    let mut now = SEC;
    sim.run_until(now);
    while !idle(&sim) {
        now += 1_000;
        sim.run_until(now);
    }
    // 1 km out: past the pair-coupling floor, so the AP hears nothing (and
    // the sniffer heard nothing before the move).
    sim.move_station(client, Pos::new(1_000.0, 0.0));
    let drops_before = sim.stations()[client].stats.retry_drops;
    now += 3 * SEC;
    sim.run_until(now);
    while !idle(&sim) {
        now += 1_000;
        sim.run_until(now);
    }
    let drops = sim.stations()[client].stats.retry_drops - drops_before;
    assert!(drops >= 5, "only {drops} MSDUs dropped");
    let mac = sim.stations()[client].mac;
    let frames = sim.sniffers()[0]
        .trace
        .iter()
        .filter(|r| r.src == Some(mac))
        .copied()
        .collect();
    (frames, drops)
}

#[test]
fn one_retry_limit_drops_an_msdu_after_eight_attempts() {
    let (frames, drops) = frames_after_ap_loss(RtsPolicy::Never);
    assert!(frames.iter().all(|r| r.kind == FrameKind::Data));
    let mut attempts: std::collections::BTreeMap<u16, u64> = Default::default();
    for r in &frames {
        *attempts
            .entry(r.seq.expect("data frames carry a seq"))
            .or_default() += 1;
    }
    assert_eq!(attempts.len() as u64, drops, "one sequence number per drop");
    for (seq, n) in attempts {
        assert_eq!(n, 8, "seq {seq}: one first attempt plus 7 retries");
    }
    // The same limit applies under RTS/CTS protection: no CTS ever comes
    // back, so each drop costs 8 RTS frames and no data frame.
    let (frames, drops) = frames_after_ap_loss(RtsPolicy::Threshold(0));
    assert!(frames.iter().all(|r| r.kind == FrameKind::Rts));
    assert_eq!(frames.len() as u64, 8 * drops);
}

// ----------------------------------------------------------------------
// Channel-access boundaries. A station that joins queues its probe request
// and enters channel access at exactly its join time, so the tests below
// place that moment relative to a release read off a reference run's
// ground-truth tape (the same scenario with the station joining late).
// ----------------------------------------------------------------------

/// Air start of a ground-truth record (records carry the end time).
fn start_of(r: &FrameRecord) -> u64 {
    r.timestamp_us - frame_airtime_us(r.mac_bytes as u64, r.rate, Preamble::Long)
}

/// The first frame `src` sent that ends after `after`.
fn first_from(tape: &[FrameRecord], src: MacAddr, after: u64) -> &FrameRecord {
    tape.iter()
        .find(|r| r.src == Some(src) && r.timestamp_us > after)
        .expect("the station transmitted")
}

/// An AP and a silent client three metres away that joins at `join_at`;
/// the client's MAC and the ground-truth tape of the first 300 ms.
fn join_near_ap(join_at: u64) -> (MacAddr, Vec<FrameRecord>) {
    let mut sim = Simulator::new(SimConfig {
        record_ground_truth: true,
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let p = sim.add_client(silent_client(Pos::new(3.0, 0.0), 0, join_at));
    sim.run_until(300_000);
    (sim.stations()[p].mac, sim.ground_truth.records.clone())
}

#[test]
fn a_frame_queued_difs_after_a_sensed_release_goes_at_once() {
    let (_, reference) = join_near_ap(10 * SEC);
    let beacon = reference
        .iter()
        .find(|r| r.kind == FrameKind::Beacon)
        .expect("the AP beacons");
    let release = beacon.timestamp_us;

    // Exactly DIFS of idle air behind it, no backoff pending: straight on.
    let (p, tape) = join_near_ap(release + dcf::DIFS_US);
    let probe = first_from(&tape, p, release);
    assert_eq!(probe.kind, FrameKind::ProbeRequest);
    assert_eq!(start_of(probe), release + dcf::DIFS_US);

    // One microsecond short: it defers to the DIFS boundary, then backs off.
    let (p, tape) = join_near_ap(release + dcf::DIFS_US - 1);
    let probe = first_from(&tape, p, release);
    assert_eq!(probe.kind, FrameKind::ProbeRequest);
    let start = start_of(probe);
    assert!(start >= release + dcf::DIFS_US, "started at {start}");
    assert_eq!(
        (start - release - dcf::DIFS_US) % dcf::SLOT_US,
        0,
        "whole slots after DIFS"
    );
}

/// A talker that protects every data frame with RTS/CTS, its AP, and a
/// silent client `P` that joins at `join_at`. `P` sits next to the talker
/// but beyond carrier-sense range of the AP, so only the NAV it sets from
/// the talker's RTS covers the AP's CTS and ACK. Returns the talker's and
/// `P`'s MACs and the tape of the first 2 s.
fn nav_cell(join_at: u64) -> (MacAddr, MacAddr, Vec<FrameRecord>) {
    let mut sim = Simulator::new(SimConfig {
        record_ground_truth: true,
        ..SimConfig::default()
    });
    let cs_range = sim
        .config
        .radio
        .range_at_dbm(sim.config.radio.cs_threshold_dbm);
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let talker = sim.add_client(ClientConfig {
        rts_policy: RtsPolicy::Always,
        ..base_client(Pos::new(cs_range - 2.0, 0.0), 20.0, 1000)
    });
    let p = sim.add_client(silent_client(Pos::new(cs_range + 2.0, 0.0), 0, join_at));
    sim.run_until(2 * SEC);
    let mac = |i: usize| sim.stations()[i].mac;
    (mac(talker), mac(p), sim.ground_truth.records.clone())
}

#[test]
fn nav_outlives_the_releases_it_covers() {
    let (talker, _, reference) = nav_cell(10 * SEC);
    // The first RTS whose exchange went through: its data frame follows
    // the CTS by one SIFS.
    let data_after = |rts: &FrameRecord| {
        let cts_air = frame_airtime_us(14, Rate::R1, Preamble::Long);
        let data_start = rts.timestamp_us + 2 * delay::SIFS + cts_air;
        reference.iter().find(|r| {
            r.src == Some(talker) && r.kind == FrameKind::Data && start_of(r) == data_start
        })
    };
    let (rts, data) = reference
        .iter()
        .filter(|r| r.src == Some(talker) && r.kind == FrameKind::Rts)
        .find_map(|rts| Some((rts, data_after(rts)?)))
        .expect("an RTS-protected exchange");
    let nav_until = rts.timestamp_us + rts.duration_us as u64;
    assert!(
        data.timestamp_us < nav_until,
        "the NAV outlives the data frame"
    );

    // DIFS after the RTS (the CTS, which P cannot sense, is in the air),
    // and DIFS after the data frame (the ACK is): both wait out the NAV.
    for join_at in [
        rts.timestamp_us + dcf::DIFS_US,
        data.timestamp_us + dcf::DIFS_US,
    ] {
        let (_, p, tape) = nav_cell(join_at);
        let probe = first_from(&tape, p, join_at);
        assert_eq!(probe.kind, FrameKind::ProbeRequest);
        let start = start_of(probe);
        assert!(
            start >= nav_until + dcf::DIFS_US,
            "joined at {join_at}, started at {start}, NAV until {nav_until}"
        );
    }
}

/// An AP on the first of three channels and a silent client `P` three
/// metres away, tuned to the second, that joins at `join_at`: finding no
/// AP there, it switches to the AP's channel on the spot. Returns `P`'s
/// MAC, the AP's channel and the tape of the first 300 ms.
fn switch_cell(join_at: u64) -> (MacAddr, wifi_frames::phy::Channel, Vec<FrameRecord>) {
    let mut sim = Simulator::new(SimConfig {
        record_ground_truth: true,
        ..SimConfig::ietf_three_channels(2)
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    let p = sim.add_client(silent_client(Pos::new(3.0, 0.0), 1, join_at));
    sim.run_until(300_000);
    let channel = sim.config.channels[0];
    (
        sim.stations()[p].mac,
        channel,
        sim.ground_truth.records.clone(),
    )
}

#[test]
fn a_channel_switch_mid_frame_senses_the_frame_in_the_air() {
    let (_, _, reference) = switch_cell(10 * SEC);
    let beacon = reference
        .iter()
        .find(|r| r.kind == FrameKind::Beacon)
        .expect("the AP beacons");
    let (start, end) = (start_of(beacon), beacon.timestamp_us);
    // Halfway through the beacon, well after its carrier reached listeners.
    let join_at = (start + end) / 2;
    let (p, channel, tape) = switch_cell(join_at);
    let probe = first_from(&tape, p, join_at);
    assert_eq!(probe.kind, FrameKind::ProbeRequest);
    assert_eq!(probe.channel, channel, "P switched to the AP's channel");
    let probe_start = start_of(probe);
    assert!(
        probe_start >= end + dcf::DIFS_US,
        "switched at {join_at} into a beacon ending at {end}, started at {probe_start}"
    );
    assert_eq!(
        (probe_start - end - dcf::DIFS_US) % dcf::SLOT_US,
        0,
        "whole slots after DIFS"
    );
}

/// The EIFS cell: an AP sending 11 Mb/s downlink to a client `P` at the
/// edge of its range, where most data frames fail to decode (so `P` owes
/// EIFS) while 1 Mb/s management and ACKs get through, and a second AP
/// that `P` roams to. Carrier sense reaches a little further than the
/// default so that `P` senses the frames it cannot decode.
struct EifsCell {
    sim: Simulator,
    p: usize,
}

impl EifsCell {
    fn new(seed: u64) -> EifsCell {
        let radio = RadioConfig {
            cs_threshold_dbm: -89.0,
            ..RadioConfig::default()
        };
        let edge = radio.range_at_dbm(-86.0);
        let mut sim = Simulator::new(SimConfig {
            seed,
            eifs_enabled: true,
            record_ground_truth: true,
            radio,
            ..SimConfig::default()
        });
        sim.add_ap_with(
            Pos::new(0.0, 0.0),
            0,
            6,
            RateAdaptation::Fixed(Rate::R11),
            RtsPolicy::Never,
        );
        sim.add_ap(Pos::new(-2.0 * edge, 0.0), 0, 6);
        let p = sim.add_client(ClientConfig {
            traffic: TrafficProfile {
                uplink: FlowConfig::off(),
                downlink: FlowConfig::poisson(40.0, SizeDist::fixed(1000)),
            },
            ..silent_client(Pos::new(edge, 0.0), 0, 0)
        });
        EifsCell { sim, p }
    }

    /// The first release after the first downlink frame to `P` that is
    /// followed by at least two EIFS of silence on the whole channel.
    fn quiet_release(seed: u64) -> Option<u64> {
        let mut cell = EifsCell::new(seed);
        cell.sim.run_until(2 * SEC);
        let p_mac = cell.sim.stations()[cell.p].mac;
        let mut tape = cell.sim.ground_truth.records.clone();
        tape.sort_by_key(start_of);
        let first = tape
            .iter()
            .position(|r| r.kind == FrameKind::Data && r.dst == p_mac)?;
        (first..tape.len() - 1).find_map(|i| {
            let release = tape[i].timestamp_us;
            let in_flight = tape[..=i].iter().any(|r| r.timestamp_us > release);
            let next = start_of(&tape[i + 1]);
            (!in_flight && next > release + 2 * dcf::EIFS_US).then_some(release)
        })
    }

    /// Runs to `at`, then has `P` walk next to the second AP and roam to
    /// it, so its reassociation request enters channel access at `at`.
    /// Returns that request's air start.
    fn roam_at(mut self, at: u64) -> u64 {
        self.sim.run_until(at);
        let p = self.p;
        let near_second_ap = Pos::new(3.0 - 2.0 * self.sim.config.radio.range_at_dbm(-86.0), 0.0);
        self.sim.move_station(p, near_second_ap);
        assert!(self.sim.reassociate_strongest(p, 0.0), "P roams at {at}");
        self.sim.run_until(at + 50_000);
        let mac = self.sim.stations()[p].mac;
        let req = first_from(&self.sim.ground_truth.records, mac, at);
        assert_eq!(req.kind, FrameKind::AssocRequest);
        start_of(req)
    }
}

#[test]
fn eifs_boundary_after_a_failed_decode() {
    // Only a station with no backoff pending can go at once, and `P` draws
    // a backoff whenever a delivery of its own completes: take the first
    // seed whose quiet release finds `P` owing EIFS with none pending.
    let (seed, release) = (0..200)
        .find_map(|seed| {
            let release = EifsCell::quiet_release(seed)?;
            let mut probe = EifsCell::new(seed);
            probe.sim.run_until(release);
            let (access, p) = (probe.sim.station_access(probe.p), probe.p);
            let associated = probe.sim.stations()[p].associated_ap.is_some();
            (associated && access.use_eifs && access.backoff_slots == 0).then_some((seed, release))
        })
        .expect("some seed leaves P owing EIFS with no backoff pending");
    let roam = |at: u64| EifsCell::new(seed).roam_at(at);

    // Exactly EIFS of idle air behind it: straight on.
    assert_eq!(roam(release + dcf::EIFS_US), release + dcf::EIFS_US);
    // One microsecond short: it defers to the EIFS boundary, then backs off.
    let short = roam(release + dcf::EIFS_US - 1);
    assert!(short >= release + dcf::EIFS_US, "started at {short}");
    assert_eq!((short - release - dcf::EIFS_US) % dcf::SLOT_US, 0);
    // DIFS after the release the EIFS is still running.
    assert!(roam(release + dcf::DIFS_US) >= release + dcf::EIFS_US);
    // A release more than one EIFS old holds nothing back.
    let late = release + 2 * dcf::EIFS_US;
    assert_eq!(roam(late), late);
}

// ----------------------------------------------------------------------
// The end of a DIFS/EIFS defer against events of the same microsecond.
// The defer ends where a timer of its own would have run in the batch
// order: after the events of earlier batches and before the carrier-sense
// and end-of-frame events of its own batch, but after every event of a
// batch that armed it for that very microsecond. Its end clears the EIFS
// flag. A busy edge before the end consumes no slot and keeps the flag; a
// failed decode before the end is cleared with it. Each test below places
// one such event at the defer's end, read off a reference run (the same
// cell with the extra station silent), and checks the transmit times, the
// flag the next defer reads, and the event count of the two-timer scheme.
// ----------------------------------------------------------------------

/// A join time past the end of every run below.
const NEVER: u64 = 100 * SEC;
/// An AP's beacon interval (100 TU).
const BEACON_US: u64 = 102_400;

/// A client `P` at the edge of its AP's range: 11 Mb/s downlink frames to it
/// nearly always fail (it owes EIFS), its own 1 Mb/s uplink gets through,
/// and carrier sense reaches a little further than the default so that it
/// senses the AP. `Q`, two metres from `P`, stays silent until `q_join`:
/// its probe then goes out at once, and `P` senses it `cs_delay_us` later.
struct EdgeCell {
    sim: Simulator,
    p: usize,
    q: usize,
}

impl EdgeCell {
    fn new(cs_delay_us: u64, q_join: u64) -> EdgeCell {
        let radio = RadioConfig {
            cs_threshold_dbm: -89.0,
            ..RadioConfig::default()
        };
        let edge = radio.range_at_dbm(-88.0);
        let mut sim = Simulator::new(SimConfig {
            seed: 5,
            cs_delay_us,
            record_ground_truth: true,
            radio,
            ..SimConfig::default()
        });
        sim.add_ap_with(
            Pos::new(0.0, 0.0),
            0,
            6,
            RateAdaptation::Fixed(Rate::R11),
            RtsPolicy::Never,
        );
        let p = sim.add_client(ClientConfig {
            adaptation: RateAdaptation::Fixed(Rate::R1),
            traffic: TrafficProfile {
                uplink: FlowConfig::poisson(30.0, SizeDist::fixed(200)),
                downlink: FlowConfig::poisson(40.0, SizeDist::fixed(1000)),
            },
            ..silent_client(Pos::new(edge, 0.0), 0, 0)
        });
        let q = sim.add_client(silent_client(Pos::new(edge + 2.0, 0.0), 0, q_join));
        EdgeCell { sim, p, q }
    }

    /// `P`'s state, EIFS flag and backoff slots after everything up to `at`.
    fn p_at(cs_delay_us: u64, q_join: u64, at: u64) -> (MacState, bool, u32) {
        let mut cell = EdgeCell::new(cs_delay_us, q_join);
        cell.sim.run_until(at);
        let access = cell.sim.station_access(cell.p);
        (access.state, access.use_eifs, access.backoff_slots)
    }
}

/// The tape in air-start order.
fn by_start(tape: &[FrameRecord]) -> Vec<FrameRecord> {
    let mut tape = tape.to_vec();
    tape.sort_by_key(start_of);
    tape
}

/// The frames `src` started, each with the release before it: the latest
/// end among the frames that started earlier, when none is still on air.
fn starts_after_release(tape: &[FrameRecord], src: MacAddr) -> Vec<(u64, u64)> {
    let tape = by_start(tape);
    (1..tape.len())
        .filter(|&j| tape[j].src == Some(src))
        .filter_map(|j| {
            let release = tape[..j].iter().map(|r| r.timestamp_us).max()?;
            let start = start_of(&tape[j]);
            (release <= start).then_some((release, start))
        })
        .collect()
}

/// A countdown of `P` whose EIFS defer ends in the first batch of its
/// microsecond: `P` was frozen by a frame up to its release and then sent
/// EIFS and `k ≥ 1` whole slots later, with nothing else on the air. The
/// defer's end and `k`.
fn eifs_countdown(cs_delay_us: u64) -> (u64, u32) {
    let mut cell = EdgeCell::new(cs_delay_us, NEVER);
    cell.sim.run_until(3 * SEC);
    let p_mac = cell.sim.stations()[cell.p].mac;
    starts_after_release(&cell.sim.ground_truth.records, p_mac)
        .into_iter()
        .find_map(|(release, start)| {
            let gap = start - release;
            if gap < dcf::EIFS_US + dcf::SLOT_US
                || !(gap - dcf::EIFS_US).is_multiple_of(dcf::SLOT_US)
            {
                return None;
            }
            let (state, _, _) = EdgeCell::p_at(cs_delay_us, NEVER, release - 1);
            let k = ((gap - dcf::EIFS_US) / dcf::SLOT_US) as u32;
            (state == MacState::Frozen).then_some((release + dcf::EIFS_US, k))
        })
        .expect("P counts down behind an EIFS")
}

/// `Q` joins `cs_delay_us` before `busy_at`, so `P` senses its probe at
/// `busy_at`. Checks the probe's start and returns, after everything up to
/// `busy_at`, `P`'s state, EIFS flag and slots; then the start of `P`'s
/// next frame with the release before it, and the event count at 3 s.
fn busy_edge_at(cs_delay_us: u64, busy_at: u64) -> ((MacState, bool, u32), (u64, u64), u64) {
    let q_join = busy_at - cs_delay_us;
    let at_edge = EdgeCell::p_at(cs_delay_us, q_join, busy_at);
    let mut cell = EdgeCell::new(cs_delay_us, q_join);
    cell.sim.run_until(3 * SEC);
    let tape = &cell.sim.ground_truth.records;
    let q_mac = cell.sim.stations()[cell.q].mac;
    let probe = first_from(tape, q_mac, 0);
    assert_eq!(probe.kind, FrameKind::ProbeRequest);
    assert_eq!(start_of(probe), q_join, "Q's probe goes out as it joins");
    let p_mac = cell.sim.stations()[cell.p].mac;
    let next = starts_after_release(tape, p_mac)
        .into_iter()
        .find(|&(_, start)| start > busy_at)
        .expect("P sends again");
    (at_edge, next, cell.sim.events_processed())
}

#[test]
fn a_busy_edge_sorted_after_the_defer_end_comes_after_it() {
    // The busy edge lands in the defer's own batch, a class after it: the
    // defer has ended, so it cleared the EIFS flag, and the edge consumes
    // the zero slots elapsed since.
    let (end, k) = eifs_countdown(15);
    let ((state, eifs, slots), (release, start), events) = busy_edge_at(15, end);
    assert_eq!(state, MacState::Frozen);
    assert_eq!(slots, k, "no slot consumed");
    assert!(!eifs, "the defer's end cleared the EIFS flag");
    // So the next defer is a DIFS.
    assert_eq!((start - release - dcf::DIFS_US) % dcf::SLOT_US, 0);
    // The two-timer count: the defer's timer ran, and the slot timer it
    // armed was cancelled.
    assert_eq!((end, k, events), (184_107, 3, 3_445));
}

#[test]
fn a_busy_edge_in_a_later_batch_comes_after_the_defer_end() {
    // Without a detection delay, `Q`'s carrier reaches `P` in the follow-up
    // batch of its join: after the defer's end, as above.
    let (end, k) = eifs_countdown(0);
    let ((state, eifs, slots), (release, start), events) = busy_edge_at(0, end);
    assert_eq!(state, MacState::Frozen);
    assert_eq!(slots, k, "no slot consumed");
    assert!(!eifs, "the defer's end cleared the EIFS flag");
    assert_eq!((start - release - dcf::DIFS_US) % dcf::SLOT_US, 0);
    assert_eq!((end, k, events), (184_147, 3, 3_569));
}

/// A countdown of `P` armed for the very microsecond its defer ends: an
/// MSDU reaches `P` idle, owing EIFS, more than an EIFS after the last
/// release, with slots left from its previous delivery, and `P` sends
/// those slots later. That microsecond and the slots.
fn countdown_armed_for_now() -> (u64, u32) {
    let mut cell = EdgeCell::new(15, NEVER);
    cell.sim.run_until(3 * SEC);
    let p_mac = cell.sim.stations()[cell.p].mac;
    starts_after_release(&cell.sim.ground_truth.records, p_mac)
        .into_iter()
        .find_map(|(release, start)| {
            let owed = release + dcf::EIFS_US;
            if start <= owed {
                return None;
            }
            let (state, eifs, slots) = EdgeCell::p_at(15, NEVER, owed);
            if state != MacState::Idle || !eifs || slots == 0 {
                return None;
            }
            // The MSDU's arrival: `P` is idle at `lo` and busy at `hi`.
            let (mut lo, mut hi) = (owed, start);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if EdgeCell::p_at(15, NEVER, mid).0 == MacState::Idle {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            (start == hi + slots as u64 * dcf::SLOT_US).then_some((hi, slots))
        })
        .expect("an MSDU finds P idle and owing EIFS")
}

#[test]
fn a_busy_edge_in_the_batch_that_armed_the_defer_comes_before_its_end() {
    // The MSDU's arrival arms a defer that ends at once, in the follow-up
    // batch; the busy edge sorts after the arrival in the arrival's own
    // batch, so it comes first: nothing is consumed, and the EIFS flag
    // stays for the next defer.
    let (arrival, k) = countdown_armed_for_now();
    let ((state, eifs, slots), (release, start), events) = busy_edge_at(15, arrival);
    assert_eq!(state, MacState::Frozen);
    assert_eq!(slots, k, "no slot consumed");
    assert!(eifs, "the defer never ended: the EIFS flag stays");
    assert_eq!((start - release - dcf::EIFS_US) % dcf::SLOT_US, 0);
    // The two-timer count: the defer's timer was cancelled.
    assert_eq!((arrival, k, events), (61_781, 16, 3_528));
}

/// An AP `P` with two clients: `X` at the edge of its range, outside
/// carrier sense both ways, whose 11 Mb/s uplink frames nearly always fail
/// at `P` (so `P` owes EIFS for frames it never senses), joining at
/// `x_join`; and `Q`, two metres from `P`, silent until `q_join`, whose
/// probe `P` answers.
struct HiddenCell {
    sim: Simulator,
    p: usize,
    x: usize,
    q: usize,
}

impl HiddenCell {
    fn new(x_join: u64, q_join: u64) -> HiddenCell {
        let radio = RadioConfig::default();
        let edge = radio.range_at_dbm(-88.0);
        let mut sim = Simulator::new(SimConfig {
            seed: 9,
            record_ground_truth: true,
            radio,
            ..SimConfig::default()
        });
        let p = sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
        let x = sim.add_client(ClientConfig {
            adaptation: RateAdaptation::Fixed(Rate::R11),
            traffic: TrafficProfile {
                uplink: FlowConfig::poisson(30.0, SizeDist::fixed(1000)),
                downlink: FlowConfig::off(),
            },
            ..silent_client(Pos::new(edge, 0.0), 0, x_join)
        });
        let q = sim.add_client(silent_client(Pos::new(-2.0, 0.0), 0, q_join));
        HiddenCell { sim, p, x, q }
    }

    /// Runs to `until`; the cell and the MACs of `P`, `X` and `Q`.
    fn run(mut self, until: u64) -> (Self, [MacAddr; 3]) {
        self.sim.run_until(until);
        let mac = |i: usize| self.sim.stations()[i].mac;
        let macs = [mac(self.p), mac(self.x), mac(self.q)];
        (self, macs)
    }

    /// `P`'s state, EIFS flag and backoff slots after everything up to `at`.
    fn p_at(x_join: u64, q_join: u64, at: u64) -> (MacState, bool, u32) {
        let (cell, _) = HiddenCell::new(x_join, q_join).run(at);
        let access = cell.sim.station_access(cell.p);
        (access.state, access.use_eifs, access.backoff_slots)
    }
}

/// The ends of the data frames `from` sent to `to`.
fn data_ends(tape: &[FrameRecord], from: MacAddr, to: MacAddr) -> Vec<u64> {
    by_start(tape)
        .iter()
        .filter(|r| r.kind == FrameKind::Data && r.src == Some(from) && r.dst == to)
        .map(|r| r.timestamp_us)
        .collect()
}

#[test]
fn a_failed_decode_at_the_defer_end_after_it_survives() {
    // `Q`'s probe ends a DIFS before one of `X`'s frames does: `P` answers
    // the probe behind a defer that ends in the frame's end-of-frame batch,
    // a class before it. The defer's end clears the EIFS flag first; the
    // failed decode then sets it for the next defer.
    let (reference, [p_mac, x_mac, _]) = HiddenCell::new(0, NEVER).run(3 * SEC);
    let probe_air = {
        let (early, [_, _, q_mac]) = HiddenCell::new(NEVER, SEC).run(2 * SEC);
        first_from(&early.sim.ground_truth.records, q_mac, 0).timestamp_us - SEC
    };
    let (end, q_join) = data_ends(&reference.sim.ground_truth.records, x_mac, p_mac)
        .into_iter()
        .find_map(|end| {
            let q_join = end.checked_sub(dcf::DIFS_US + probe_air)?;
            let (state, eifs, _) = HiddenCell::p_at(0, NEVER, q_join + probe_air - 1);
            (state == MacState::Idle && !eifs).then_some((end, q_join))
        })
        .expect("a frame of X ends while P is idle and owes no EIFS");
    let (state, eifs, slots) = HiddenCell::p_at(0, q_join, end);
    assert!(slots > 0, "P counts down after the defer");
    assert!(
        matches!(state, MacState::Backoff { .. }),
        "P is counting down at the defer's end: {state:?}"
    );
    assert!(eifs, "the failed decode after the defer's end stands");
    let (cell, [_, x_mac, q_mac]) = HiddenCell::new(0, q_join).run(3 * SEC);
    let tape = &cell.sim.ground_truth.records;
    let probe = first_from(tape, q_mac, 0);
    assert_eq!(
        (probe.kind, start_of(probe)),
        (FrameKind::ProbeRequest, q_join)
    );
    assert_eq!(
        probe.timestamp_us + dcf::DIFS_US,
        end,
        "the defer ends with X's frame"
    );
    assert!(data_ends(tape, x_mac, p_mac).contains(&end));
    // `Q`'s association request interrupts the countdown; `P`'s next
    // defer, after its ACK to it, is an EIFS.
    let answer = first_from(tape, p_mac, end);
    assert_eq!(answer.kind, FrameKind::ProbeResponse);
    let start = start_of(answer);
    let release = sensed_release_before(tape, start, x_mac);
    assert!(start >= release + dcf::EIFS_US);
    assert_eq!((start - release - dcf::EIFS_US) % dcf::SLOT_US, 0);
    // The two-timer count: the defer's timer ran, and the slot timer it
    // armed was cancelled by `Q`'s request.
    assert_eq!(
        (end, slots, cell.sim.events_processed()),
        (37_695, 11, 2_724)
    );
}

#[test]
fn a_failed_decode_in_the_batch_that_armed_the_defer_is_cleared_by_its_end() {
    // A beacon falls due at an idle `P` as one of `X`'s frames ends: the
    // beacon's countdown is armed for that microsecond, so its defer ends
    // in the follow-up batch, after the failed decode of the frame, and
    // clears the EIFS flag the decode set.
    let beacon_due = first_beacon_due();
    let (_, [p_mac, x_mac, _]) = HiddenCell::new(NEVER, NEVER).run(0);
    // Joining later shifts `X`'s frames, piecewise: move its join until one
    // of its frames ends exactly as a beacon falls due.
    let (due, x_join, slots) = (1..12u64)
        .map(|n| beacon_due + n * BEACON_US)
        .find_map(|due| {
            let mut x_join = due - 50_000;
            for _ in 0..4 {
                let (cell, _) = HiddenCell::new(x_join, NEVER).run(due + 30_000);
                let tape = &cell.sim.ground_truth.records;
                let ends = data_ends(tape, x_mac, p_mac);
                let &near = ends.iter().min_by_key(|&&e| e.abs_diff(due))?;
                if near != due {
                    x_join = (x_join + due).checked_sub(near)?;
                    continue;
                }
                let quiet = sensed_release_before(tape, due - 1, x_mac) + dcf::EIFS_US <= due;
                let (state, _, slots) = HiddenCell::p_at(x_join, NEVER, due - 1);
                return (quiet && state == MacState::Idle && slots > 0)
                    .then_some((due, x_join, slots));
            }
            None
        })
        .expect("a frame of X can end as a beacon falls due");
    let (state, eifs, _) = HiddenCell::p_at(x_join, NEVER, due);
    assert!(
        matches!(state, MacState::Backoff { .. }),
        "P counts down for its beacon: {state:?}"
    );
    assert!(
        !eifs,
        "the defer's end cleared the failed decode's EIFS flag"
    );
    let (cell, _) = HiddenCell::new(x_join, NEVER).run(3 * SEC);
    let beacon = first_from(&cell.sim.ground_truth.records, p_mac, due);
    assert_eq!(beacon.kind, FrameKind::Beacon);
    assert_eq!(start_of(beacon), due + slots as u64 * dcf::SLOT_US);
    // The two-timer count: the defer's timer ran, then its slot timer.
    assert_eq!(
        (due, slots, cell.sim.events_processed()),
        (188_203, 11, 2_500)
    );
}

#[test]
fn a_hidden_failed_decode_during_the_countdown_survives_it() {
    // `P` counts down for a beacon while one of `X`'s frames, which it
    // cannot sense, ends and fails to decode: the countdown runs on, and
    // the EIFS flag the failure set outlives it for the next defer.
    let beacon_due = first_beacon_due();
    let (cell, [p_mac, x_mac, _]) = HiddenCell::new(0, NEVER).run(3 * SEC);
    let tape = &cell.sim.ground_truth.records;
    let ends = data_ends(tape, x_mac, p_mac);
    let (due, end, start) = by_start(tape)
        .iter()
        .filter(|r| r.kind == FrameKind::Beacon && r.src == Some(p_mac))
        .find_map(|beacon| {
            let start = start_of(beacon);
            let due = start - (start - beacon_due) % BEACON_US;
            let quiet = sensed_release_before(tape, due - 1, x_mac) + dcf::EIFS_US <= due;
            let slots = (start - due).is_multiple_of(dcf::SLOT_US) && start > due;
            let &end = ends.iter().find(|&&e| due < e && e < start)?;
            (quiet && slots).then_some((due, end, start))
        })
        .expect("one of X's frames ends while P counts down for a beacon");
    let (state, eifs, _) = HiddenCell::p_at(0, NEVER, end - 1);
    assert!(matches!(state, MacState::Backoff { .. }), "{state:?}");
    assert!(!eifs, "the countdown's defer cleared the flag");
    let (state, eifs, _) = HiddenCell::p_at(0, NEVER, end);
    assert!(matches!(state, MacState::Backoff { .. }), "{state:?}");
    assert!(eifs, "the failed decode owes an EIFS");
    // The countdown runs out on time, and the beacon leaves the flag for
    // the next defer.
    let beacon = first_from(tape, p_mac, end);
    assert_eq!((beacon.kind, start_of(beacon)), (FrameKind::Beacon, start));
    let (state, eifs, _) = HiddenCell::p_at(0, NEVER, beacon.timestamp_us);
    assert_eq!(state, MacState::Idle);
    assert!(eifs, "the EIFS flag survives the countdown");
    // The two-timer count: the defer's timer ran, then its slot timer.
    assert_eq!(
        (due, end, cell.sim.events_processed()),
        (1_417_003, 1_417_328, 2_576)
    );
}

/// When `P`'s beacons fall due: the first goes out at once in a cell where
/// nobody else ever transmits.
fn first_beacon_due() -> u64 {
    let (alone, [p_mac, _, _]) = HiddenCell::new(NEVER, NEVER).run(SEC);
    start_of(first_from(&alone.sim.ground_truth.records, p_mac, 0))
}

/// The latest end, before `at`, of a frame not sent by `hidden`.
fn sensed_release_before(tape: &[FrameRecord], at: u64, hidden: MacAddr) -> u64 {
    tape.iter()
        .filter(|r| r.src != Some(hidden) && r.timestamp_us <= at)
        .map(|r| r.timestamp_us)
        .max()
        .expect("a release")
}

/// A countdown armed in the first batch of a run is granted at its end:
/// here the reassociation request of a roam made between two `run_until`
/// calls, whose join runs at the start of the next call. The second call
/// to the same bound runs only that join, so the countdown's end can be
/// read before the run that reaches it.
#[test]
fn a_countdown_armed_after_a_roam_between_runs_is_granted_at_its_end() {
    let roam_at = 200_000;
    let (mut sim, p, end) = (1..20)
        .find_map(|seed| {
            let mut sim = Simulator::new(SimConfig {
                seed,
                record_ground_truth: true,
                ..SimConfig::default()
            });
            sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
            sim.add_ap(Pos::new(60.0, 0.0), 0, 6);
            let p = sim.add_client(silent_client(Pos::new(3.0, 0.0), 0, 0));
            sim.run_until(roam_at);
            sim.move_station(p, Pos::new(57.0, 0.0));
            assert!(sim.reassociate_strongest(p, 3.0), "seed {seed}: the roam");
            sim.run_until(roam_at);
            let access = sim.station_access(p);
            let end = access.countdown_end?;
            matches!(access.state, MacState::Backoff { .. }).then_some((sim, p, end))
        })
        .expect("a seed whose roam waits out a countdown");
    assert!(end > roam_at);
    sim.run_until(roam_at + 50_000);
    let tape = &sim.ground_truth.records;
    let mac = sim.stations()[p].mac;
    // Nothing else on the air meanwhile, so nothing froze the countdown.
    assert!(!tape
        .iter()
        .any(|r| r.src != Some(mac) && r.timestamp_us > roam_at && start_of(r) <= end));
    let req = first_from(tape, mac, roam_at);
    assert_eq!(req.kind, FrameKind::AssocRequest);
    assert_eq!(start_of(req), end);
}
