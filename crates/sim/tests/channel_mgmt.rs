//! Tests of dynamic channel assignment: load-imbalanced networks should
//! rebalance, clients must follow their AP, and all carrier-sense
//! bookkeeping must stay consistent across switches.

use wifi_frames::fc::FrameKind;
use wifi_frames::phy::Rate;
use wifi_sim::config::ChannelMgmt;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

const SEC: u64 = 1_000_000;

fn client(pos: Pos, channel_idx: usize, fps: f64) -> ClientConfig {
    ClientConfig {
        pos,
        channel_idx,
        rts_policy: RtsPolicy::Never,
        adaptation: RateAdaptation::Fixed(Rate::R11),
        traffic: TrafficProfile {
            uplink: FlowConfig::poisson(fps, SizeDist::fixed(800)),
            downlink: FlowConfig::off(),
        },
        join_at_us: 0,
        leave_at_us: None,
        power_save_interval_us: None,
        frag_threshold: None,
    }
}

/// Two APs crammed onto channel 0 of a three-channel network with heavy
/// load; channels 1 and 2 idle. With channel management on, at least one AP
/// must migrate off the hot channel and its clients must re-associate there.
fn imbalanced_sim(mgmt: Option<ChannelMgmt>) -> Simulator {
    let mut sim = Simulator::new(SimConfig {
        seed: 3,
        channel_mgmt: mgmt,
        ..SimConfig::ietf_three_channels(3)
    });
    sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
    sim.add_ap(Pos::new(30.0, 0.0), 0, 6);
    for i in 0..16 {
        let x = (i % 8) as f64 * 4.0;
        let y = 3.0 + (i / 8) as f64 * 3.0;
        sim.add_client(client(Pos::new(x, y), 0, 60.0));
    }
    for ch in 0..3 {
        sim.add_sniffer(SnifferConfig {
            pos: Pos::new(15.0, 5.0),
            channel_idx: ch,
            capacity_fps: 1e6,
            burst: 1e5,
        });
    }
    sim
}

#[test]
fn static_assignment_leaves_other_channels_idle() {
    let mut sim = imbalanced_sim(None);
    sim.run_until(30 * SEC);
    assert!(!sim.sniffers()[0].trace.is_empty());
    let ch1_data = sim.sniffers()[1]
        .trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data)
        .count();
    let ch2_data = sim.sniffers()[2]
        .trace
        .iter()
        .filter(|r| r.kind == FrameKind::Data)
        .count();
    assert_eq!(ch1_data + ch2_data, 0, "no management: nothing moves");
}

#[test]
fn dynamic_assignment_rebalances_the_hot_channel() {
    let mut sim = imbalanced_sim(Some(ChannelMgmt {
        eval_interval_us: 5 * SEC,
        switch_ratio: 1.5,
        follow_delay_max_us: 300_000,
    }));
    sim.run_until(60 * SEC);
    // An AP moved off channel 0…
    let ap_channels: Vec<usize> = sim
        .stations()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_ap())
        .map(|(i, _)| sim.hot().channel_idx[i])
        .collect();
    assert!(
        ap_channels.iter().any(|&c| c != 0),
        "at least one AP should leave the hot channel: {ap_channels:?}"
    );
    // …and took real traffic with it.
    let moved_data: usize = sim.sniffers()[1..]
        .iter()
        .map(|s| s.trace.iter().filter(|r| r.kind == FrameKind::Data).count())
        .sum();
    assert!(
        moved_data > 200,
        "data frames must flow on the new channel: {moved_data}"
    );
    // Followers re-associated (association handshakes on the new channel).
    let reassoc: usize = sim.sniffers()[1..]
        .iter()
        .map(|s| {
            s.trace
                .iter()
                .filter(|r| r.kind == FrameKind::AssocRequest)
                .count()
        })
        .sum();
    assert!(reassoc > 0, "clients must re-associate after following");
}

#[test]
fn balanced_load_does_not_flap() {
    // One AP per channel, equal load: evaluations must not trigger moves.
    let mut sim = Simulator::new(SimConfig {
        seed: 4,
        channel_mgmt: Some(ChannelMgmt {
            eval_interval_us: 3 * SEC,
            switch_ratio: 1.5,
            follow_delay_max_us: 200_000,
        }),
        ..SimConfig::ietf_three_channels(4)
    });
    for ch in 0..3usize {
        sim.add_ap(Pos::new(ch as f64 * 25.0, 0.0), ch, 6);
        for i in 0..4 {
            sim.add_client(client(Pos::new(ch as f64 * 25.0 + i as f64, 4.0), ch, 20.0));
        }
    }
    sim.run_until(30 * SEC);
    let ap_channels: Vec<usize> = sim
        .stations()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_ap())
        .map(|(i, _)| sim.hot().channel_idx[i])
        .collect();
    assert_eq!(ap_channels, vec![0, 1, 2], "balanced network must not flap");
}

#[test]
fn switching_is_deterministic() {
    let run = || {
        let mut sim = imbalanced_sim(Some(ChannelMgmt::default()));
        sim.run_until(40 * SEC);
        (
            sim.sniffers()[0].trace.len(),
            sim.sniffers()[1].trace.len(),
            sim.sniffers()[2].trace.len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn traffic_survives_the_migration() {
    let mut sim = imbalanced_sim(Some(ChannelMgmt {
        eval_interval_us: 5 * SEC,
        switch_ratio: 1.5,
        follow_delay_max_us: 300_000,
    }));
    sim.run_until(60 * SEC);
    // Every client keeps delivering after the shuffle: delivery counts are
    // healthy across the fleet (no one starves permanently). A couple of
    // clients may be mid-re-association when the run ends.
    let mut unassociated = 0;
    for st in sim.stations().iter().filter(|s| !s.is_ap()) {
        assert!(
            st.stats.delivered > 150,
            "client {} delivered only {}",
            st.id,
            st.stats.delivered
        );
        if st.associated_ap.is_none() {
            unassociated += 1;
        }
    }
    assert!(
        unassociated <= 3,
        "{unassociated} clients stranded without association"
    );
}
