//! Simulation-wide configuration.

use crate::radio::RadioConfig;
use wifi_frames::phy::Channel;

/// Dynamic channel-assignment policy for APs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelMgmt {
    /// How often each AP re-evaluates channel loads, microseconds.
    pub eval_interval_us: u64,
    /// Switch only when the current channel's recent air time exceeds the
    /// least-loaded channel's by this factor (hysteresis against flapping).
    pub switch_ratio: f64,
    /// Spread of the delay with which associated clients follow their AP
    /// to the new channel (they must notice beacon loss first), µs.
    pub follow_delay_max_us: u64,
}

impl Default for ChannelMgmt {
    fn default() -> Self {
        ChannelMgmt {
            eval_interval_us: 10_000_000,
            switch_ratio: 1.5,
            follow_delay_max_us: 500_000,
        }
    }
}

/// Top-level simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Radio propagation parameters.
    pub radio: RadioConfig,
    /// The channels simulated (each gets an independent medium).
    pub channels: Vec<Channel>,
    /// RNG seed: same seed ⇒ identical trace.
    pub seed: u64,
    /// Per-station transmit-queue capacity.
    pub queue_cap: usize,
    /// Apply EIFS after a failed decode at the intended receiver.
    pub eifs_enabled: bool,
    /// Carrier-sense detection delay: how long after a transmission starts
    /// other stations perceive the channel as busy (propagation + CCA +
    /// RX/TX turnaround). This is the collision vulnerability window; the
    /// 20 µs 802.11b slot time exists to cover it.
    pub cs_delay_us: u64,
    /// Record every on-air frame into `GroundTruth::records`: one record per
    /// transmission, O(frames) memory. Off by default; only code that reads
    /// the tape (capture-superset and shard-equivalence checks) turns it
    /// on. The on-air counters run either way.
    pub record_ground_truth: bool,
    /// Dynamic channel assignment for APs (the venue's Airespace
    /// controller switched AP channels to balance load; technical details
    /// were proprietary — this is a published-heuristic stand-in).
    /// `None` disables it.
    pub channel_mgmt: Option<ChannelMgmt>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            radio: RadioConfig::default(),
            channels: vec![Channel::new(1).unwrap()],
            seed: 1,
            queue_cap: 128,
            eifs_enabled: true,
            cs_delay_us: 15,
            record_ground_truth: false,
            channel_mgmt: None,
        }
    }
}

impl SimConfig {
    /// The three-orthogonal-channel configuration of the IETF network.
    pub fn ietf_three_channels(seed: u64) -> SimConfig {
        SimConfig {
            channels: Channel::ORTHOGONAL.to_vec(),
            seed,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert_eq!(c.channels.len(), 1);
        assert!(c.queue_cap > 0);
    }

    #[test]
    fn ietf_config_uses_orthogonal_channels() {
        let c = SimConfig::ietf_three_channels(7);
        assert_eq!(c.seed, 7);
        assert_eq!(
            c.channels.iter().map(|c| c.number()).collect::<Vec<_>>(),
            vec![1, 6, 11]
        );
    }
}
