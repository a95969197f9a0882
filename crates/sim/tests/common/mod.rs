//! Station builders shared by the DCF tests.

use wifi_frames::phy::Rate;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::ClientConfig;

/// A channel-0 client at `pos` with Poisson uplink of `fps` frames of
/// `payload` bytes, fixed at 11 Mb/s, no RTS, joining at once.
pub fn base_client(pos: Pos, fps: f64, payload: u32) -> ClientConfig {
    ClientConfig {
        pos,
        channel_idx: 0,
        rts_policy: RtsPolicy::Never,
        adaptation: RateAdaptation::Fixed(Rate::R11),
        traffic: TrafficProfile {
            uplink: FlowConfig::poisson(fps, SizeDist::fixed(payload)),
            downlink: FlowConfig::off(),
        },
        join_at_us: 0,
        leave_at_us: None,
        power_save_interval_us: None,
        frag_threshold: None,
    }
}

/// A client that joins at `join_at_us` and offers no traffic of its own.
pub fn silent_client(pos: Pos, channel_idx: usize, join_at_us: u64) -> ClientConfig {
    ClientConfig {
        channel_idx,
        traffic: TrafficProfile::silent(),
        join_at_us,
        ..base_client(pos, 0.0, 0)
    }
}
