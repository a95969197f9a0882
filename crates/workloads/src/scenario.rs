//! IETF-62 session scenarios: the day session, the plenary session, and a
//! load-ramp scenario that sweeps utilization across every bin the paper's
//! figures condition on.
//!
//! Geometry follows Figures 2–3 of the paper: a ~64 m × 36 m floor, three
//! sniffers inside the busiest room during the day (one per orthogonal
//! channel), and the same three sniffers co-located in the single merged
//! ballroom during the plenary. User counts, per-user activity, and the
//! 152-virtual-AP infrastructure are scaled down by default (and scalable
//! up) — DESIGN.md documents why the shape of every result survives the
//! scaling.

use crate::attendance::Attendance;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::Rate;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::{Micros, SECOND};
use wifi_sim::events::QueueStats;
use wifi_sim::geometry::Pos;
use wifi_sim::radio::{Fading, RadioConfig};
use wifi_sim::rate::RateAdaptation;
use wifi_sim::shard::ShardSpec;
use wifi_sim::sniffer::{SnifferConfig, SnifferStats};
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

/// Scale and seed of a session scenario.
#[derive(Clone, Copy, Debug)]
pub struct SessionScale {
    /// RNG seed (drives placement, schedules, traffic and the PHY draws).
    pub seed: u64,
    /// Number of users over the whole session.
    pub users: usize,
    /// Session length in seconds.
    pub duration_s: u64,
    /// Multiplier on per-user traffic intensity (1.0 = day-session level).
    pub activity: f64,
    /// Fraction of users whose cards use RTS/CTS (the paper saw minimal,
    /// optional usage).
    pub rts_fraction: f64,
}

impl SessionScale {
    /// Default day-session scale: enough users and time for stable
    /// statistics at interactive runtimes.
    pub fn day_default(seed: u64) -> SessionScale {
        SessionScale {
            seed,
            users: 240,
            duration_s: 600,
            activity: 0.75,
            rts_fraction: 0.02,
        }
    }

    /// Default plenary scale: fewer users than the day peak (as the paper
    /// observed) but much denser traffic in one room.
    pub fn plenary_default(seed: u64) -> SessionScale {
        SessionScale {
            seed,
            users: 200,
            duration_s: 300,
            activity: 3.0,
            rts_fraction: 0.02,
        }
    }
}

/// A ready-to-run scenario.
pub struct Scenario {
    /// Scenario name ("day", "plenary", "ramp", …).
    pub name: String,
    /// How long to run.
    pub duration_us: Micros,
    /// The configured simulator.
    pub sim: Simulator,
}

/// Per-station outcome summary (ground truth, for fairness ablations).
#[derive(Clone, Copy, Debug)]
pub struct StationSummary {
    /// Station MAC.
    pub mac: MacAddr,
    /// True for APs.
    pub is_ap: bool,
    /// Whether the station's policy uses RTS/CTS for data.
    pub uses_rts: bool,
    /// MSDUs delivered.
    pub delivered: u64,
    /// Transmission attempts (incl. retries).
    pub attempts: u64,
    /// MSDUs abandoned at the retry limit.
    pub retry_drops: u64,
    /// MSDUs dropped at the full queue.
    pub queue_drops: u64,
    /// Total enqueue→delivery delay, µs.
    pub delay_total_us: u64,
}

/// Everything a figure harness needs from one scenario run.
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// One captured trace per sniffer (the paper's per-channel data sets).
    pub traces: Vec<Vec<FrameRecord>>,
    /// Capture-performance counters per sniffer.
    pub sniffer_stats: Vec<SnifferStats>,
    /// Everything that actually went on air; empty unless the scenario's
    /// `SimConfig::record_ground_truth` was turned on
    /// ([`ScenarioResult::frames_on_air`] counts either way).
    pub ground_truth: Vec<FrameRecord>,
    /// `(transmissions, collisions)` per channel.
    pub medium_stats: Vec<(u64, u64)>,
    /// Per-station outcomes.
    pub stations: Vec<StationSummary>,
    /// Discrete events the simulator processed — the cost denominator run
    /// reports use for events-per-second throughput.
    pub events_processed: u64,
    /// Frames that actually went on air (ground-truth transmission count,
    /// independent of `record_ground_truth`).
    pub frames_on_air: u64,
    /// Event-queue churn counters (pushed/popped/stale-dropped/cascaded).
    pub queue: QueueStats,
}

impl Scenario {
    /// Runs the scenario to completion.
    pub fn run(mut self) -> ScenarioResult {
        self.sim.run_until(self.duration_us);
        collect_result(self.name, &mut self.sim)
    }
}

/// Drains a finished simulator into a [`ScenarioResult`] — shared by
/// [`Scenario::run`] and the mobility driver
/// ([`crate::mobility::MobileScenario::run`]).
pub(crate) fn collect_result(name: String, sim: &mut Simulator) -> ScenarioResult {
    let sniffer_stats = sim.sniffers().iter().map(|s| s.stats).collect();
    let traces = sim
        .sniffers_mut()
        .iter_mut()
        .map(|s| std::mem::take(&mut s.trace))
        .collect();
    let stations = sim
        .stations()
        .iter()
        .map(|s| StationSummary {
            mac: s.mac,
            is_ap: s.is_ap(),
            uses_rts: s.rts_policy != RtsPolicy::Never,
            delivered: s.stats.delivered,
            attempts: s.stats.tx_attempts,
            retry_drops: s.stats.retry_drops,
            queue_drops: s.stats.queue_drops,
            delay_total_us: s.stats.delivery_delay_total_us,
        })
        .collect();
    ScenarioResult {
        name,
        traces,
        sniffer_stats,
        ground_truth: std::mem::take(&mut sim.ground_truth.records),
        medium_stats: sim.medium_stats(),
        stations,
        events_processed: sim.events_processed(),
        frames_on_air: sim.ground_truth.transmissions,
        queue: sim.queue_stats(),
    }
}

/// Venue width (m), after Fig 2's ~210 ft.
pub const VENUE_W: f64 = 64.0;
/// Venue depth (m).
pub const VENUE_H: f64 = 36.0;

/// The calibrated radio environment of a crowded conference hall:
/// body-heavy path loss (exponent 3.5), modest card power, carrier sense
/// covering the hall (the venue had no significant hidden-terminal
/// pathology), and strong slow shadow fading (σ = 10 dB held ~4 s) from the
/// moving crowd — the mechanism that spreads links across all four rates
/// and lets ARF produce the paper's rate mix.
pub fn ietf_radio(seed: u64) -> RadioConfig {
    RadioConfig {
        tx_power_dbm: 13.0,
        pathloss_exp: 3.5,
        cs_threshold_dbm: -92.0,
        fading: Fading {
            sigma_db: 10.0,
            coherence_us: 4_000_000,
            seed,
        },
    }
}

/// Per-user mean frame rate (each direction), before the activity factor:
/// most attendees idle with occasional bursts, a few heavy users.
pub(crate) fn draw_user_fps(rng: &mut SmallRng) -> f64 {
    let roll: f64 = rng.gen();
    if roll < 0.70 {
        rng.gen_range(0.05..1.0)
    } else if roll < 0.95 {
        rng.gen_range(1.0..5.0)
    } else {
        rng.gen_range(5.0..20.0)
    }
}

/// Builds a client's two flows: conference traffic is download-dominated
/// and bursty (page loads, mail fetches); a small uploader minority pushes
/// data the other way.
pub(crate) fn draw_traffic(rng: &mut SmallRng, fps: f64) -> TrafficProfile {
    let uploader = rng.gen_bool(0.04);
    let (up, down) = if uploader {
        (fps * 3.0, fps * 0.5)
    } else {
        (fps * 0.25, fps * 4.0)
    };
    TrafficProfile {
        uplink: FlowConfig::bursty(up, SizeDist::ietf_mix(), 20.0),
        downlink: FlowConfig::bursty(down, SizeDist::ietf_mix(), 25.0),
    }
}

/// Laptops of the era aggressively toggled power save between fetches:
/// a sizeable minority of clients emit Null-frame chatter.
pub(crate) fn draw_power_save(rng: &mut SmallRng) -> Option<u64> {
    if rng.gen_bool(0.4) {
        Some(rng.gen_range(10_000_000..40_000_000))
    } else {
        None
    }
}

/// The AP grid: nine positions across the floor, channels assigned
/// round-robin over 1/6/11 so that every channel covers the venue.
pub fn ap_grid() -> Vec<(Pos, usize)> {
    let mut aps = Vec::new();
    let mut i = 0usize;
    for gx in 0..3 {
        for gy in 0..3 {
            let pos = Pos::new(
                VENUE_W * (0.17 + 0.33 * gx as f64),
                VENUE_H * (0.17 + 0.33 * gy as f64),
            );
            aps.push((pos, i % 3));
            i += 1;
        }
    }
    aps
}

fn build_session_spec(
    name: &str,
    scale: SessionScale,
    attendance: Attendance,
    user_pos: impl Fn(&mut SmallRng) -> Pos,
    sniffer_pos: [Pos; 3],
) -> ShardScenario {
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0x005e_5510);
    let mut spec = ShardSpec::new(SimConfig {
        radio: ietf_radio(scale.seed),
        ..SimConfig::ietf_three_channels(scale.seed)
    });
    let aps = ap_grid();
    for &(pos, ch) in &aps {
        spec.add_ap(pos, ch, 6); // ssid "ietf62"
    }
    for i in 0..scale.users {
        let pos = user_pos(&mut rng);
        // The Airespace controller balanced clients across the three
        // orthogonal channels; round-robin reproduces its gross effect.
        let channel_idx = i % 3;
        let (join, leave) = attendance.draw(&mut rng);
        let fps = draw_user_fps(&mut rng) * scale.activity;
        let rts = rng.gen_bool(scale.rts_fraction);
        let traffic = draw_traffic(&mut rng, fps);
        let power_save = draw_power_save(&mut rng);
        spec.add_client(ClientConfig {
            pos,
            channel_idx,
            rts_policy: if rts {
                RtsPolicy::Threshold(400)
            } else {
                RtsPolicy::Never
            },
            adaptation: RateAdaptation::Arf(Rate::R11),
            traffic,
            join_at_us: join,
            leave_at_us: leave,
            power_save_interval_us: power_save,
            frag_threshold: None,
        });
    }
    for (idx, pos) in sniffer_pos.into_iter().enumerate() {
        spec.add_sniffer(SnifferConfig {
            pos,
            channel_idx: idx,
            // 2005-era PCMCIA capture hardware saturates under load (Yeo et
            // al.), one of the paper's three loss causes.
            capacity_fps: 1_500.0,
            burst: 200.0,
        });
    }
    ShardScenario {
        name: name.to_string(),
        duration_us: scale.duration_s * SECOND,
        spec,
    }
}

fn build_session(
    name: &str,
    scale: SessionScale,
    attendance: Attendance,
    user_pos: impl Fn(&mut SmallRng) -> Pos,
    sniffer_pos: [Pos; 3],
) -> Scenario {
    // The spec replays the identical adder sequence, so this is
    // byte-identical to having called the `Simulator` adders directly.
    let s = build_session_spec(name, scale, attendance, user_pos, sniffer_pos);
    Scenario {
        name: s.name,
        duration_us: s.duration_us,
        sim: s.spec.build_unsharded(),
    }
}

/// The day session: users spread over every room of the floor, the three
/// sniffers placed at three spots inside the busiest room (Fig 2).
pub fn ietf_day(scale: SessionScale) -> Scenario {
    let attendance = Attendance::day(scale.duration_s);
    build_session(
        "day",
        scale,
        attendance,
        |rng| Pos::new(rng.gen_range(0.0..VENUE_W), rng.gen_range(0.0..VENUE_H)),
        [
            Pos::new(7.0, 27.0),
            Pos::new(13.0, 31.0),
            Pos::new(10.0, 25.0),
        ],
    )
}

/// The plenary session: every user packed into the single merged ballroom,
/// sniffers co-located at one point inside it (Fig 3).
pub fn ietf_plenary(scale: SessionScale) -> Scenario {
    let s = ietf_plenary_sharded(scale);
    Scenario {
        name: s.name,
        duration_us: s.duration_us,
        sim: s.spec.build_unsharded(),
    }
}

/// [`ietf_plenary`] recorded as a [`ShardScenario`], for
/// `congestion_bench::streaming::run_sharded`: one dense coupled cell per
/// channel (one RF-isolation component each), so it shards at most three
/// ways, one shard per channel.
pub fn ietf_plenary_sharded(scale: SessionScale) -> ShardScenario {
    let attendance = Attendance::plenary(scale.duration_s);
    let center = Pos::new(VENUE_W * 0.5, VENUE_H * 0.7);
    build_session_spec(
        "plenary",
        scale,
        attendance,
        move |rng| {
            // Clustered seating: gaussian-ish around the hall center.
            let r: f64 = rng.gen_range(0.0..1.0);
            let radius = 16.0 * r.sqrt();
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            Pos::new(
                (center.x + radius * theta.cos()).clamp(0.0, VENUE_W),
                (center.y + radius * theta.sin()).clamp(0.0, VENUE_H),
            )
        },
        [center, center, center],
    )
}

/// A single-channel load ramp: users join steadily through the run so the
/// channel sweeps from idle to far beyond saturation — populating every
/// utilization bin for Figures 6–15.
pub fn load_ramp(seed: u64, users: usize, duration_s: u64, per_user_fps: f64) -> Scenario {
    load_ramp_with(
        seed,
        users,
        duration_s,
        per_user_fps,
        RateAdaptation::Arf(Rate::R11),
        0.02,
    )
}

/// [`load_ramp`] with explicit rate adaptation and RTS fraction (for the
/// ablation benches).
pub fn load_ramp_with(
    seed: u64,
    users: usize,
    duration_s: u64,
    per_user_fps: f64,
    adaptation: RateAdaptation,
    rts_fraction: f64,
) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x004a_3b77);
    let mut spec = ShardSpec::new(SimConfig {
        seed,
        radio: ietf_radio(seed),
        ..SimConfig::default()
    });
    // Three APs sharing the channel, as co-channel cells in a dense
    // deployment do.
    spec.add_ap(Pos::new(16.0, 18.0), 0, 6);
    spec.add_ap(Pos::new(32.0, 18.0), 0, 6);
    spec.add_ap(Pos::new(48.0, 18.0), 0, 6);
    for i in 0..users {
        let frac = i as f64 / users.max(1) as f64;
        let join_us = (frac * 0.8 * duration_s as f64) as u64 * SECOND;
        let pos = Pos::new(rng.gen_range(0.0..VENUE_W), rng.gen_range(0.0..VENUE_H));
        let rts = rng.gen_bool(rts_fraction);
        let traffic = draw_traffic(&mut rng, per_user_fps);
        let power_save = draw_power_save(&mut rng);
        spec.add_client(ClientConfig {
            pos,
            channel_idx: 0,
            rts_policy: if rts {
                RtsPolicy::Threshold(400)
            } else {
                RtsPolicy::Never
            },
            adaptation,
            traffic,
            join_at_us: join_us,
            leave_at_us: None,
            power_save_interval_us: power_save,
            frag_threshold: None,
        });
    }
    spec.add_sniffer(SnifferConfig {
        pos: Pos::new(30.0, 17.0),
        channel_idx: 0,
        ..SnifferConfig::default()
    });
    Scenario {
        name: "ramp".to_string(),
        duration_us: duration_s * SECOND,
        sim: spec.build_unsharded(),
    }
}

/// Scale of the venue-campus scenario: several conference halls far enough
/// apart that their radios never interact — the workload whose RF-isolation
/// components the sharded runner parallelizes over.
#[derive(Clone, Copy, Debug)]
pub struct CampusScale {
    /// RNG seed.
    pub seed: u64,
    /// Number of halls. Each hall gets one AP per orthogonal channel.
    pub halls: usize,
    /// Total users across the campus (spread evenly over halls).
    pub users: usize,
    /// Session length in seconds.
    pub duration_s: u64,
    /// Multiplier on per-user traffic intensity.
    pub activity: f64,
}

impl CampusScale {
    /// The venue-5k pinned scale: ≈5,000 users and ~40 APs over channels
    /// 1/6/11 in 13 isolated halls — the whole conference campus rather
    /// than the one instrumented floor.
    pub fn venue_5k(seed: u64) -> CampusScale {
        CampusScale {
            seed,
            halls: 13,
            users: 5_000,
            duration_s: 10,
            activity: 0.5,
        }
    }
}

/// A scenario recorded as a [`ShardSpec`]: buildable unsharded (identical
/// to the plain adders) or partitioned into RF-isolation shards.
pub struct ShardScenario {
    /// Scenario name.
    pub name: String,
    /// How long to run.
    pub duration_us: Micros,
    /// The recorded build.
    pub spec: ShardSpec,
}

/// Hall spacing, metres. Far beyond the pair-coupling floor of
/// [`ietf_radio`] (≈235 m), so halls are RF-isolated by construction.
pub const HALL_SPACING: f64 = 1_000.0;

/// A multi-hall conference campus: `halls` copies of the venue floor in a
/// row, each with one AP per orthogonal channel and an even share of the
/// users; three sniffers instrument the first hall (one per channel), as
/// the paper instruments its busiest room. Every (hall, channel) pair is
/// one RF-isolation component.
pub fn venue_campus(scale: CampusScale) -> ShardScenario {
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0xca_3b05);
    let mut spec = ShardSpec::new(SimConfig {
        radio: ietf_radio(scale.seed),
        ..SimConfig::ietf_three_channels(scale.seed)
    });
    let halls = scale.halls.max(1);
    let hall_x = |h: usize| h as f64 * HALL_SPACING;
    // APs first (keys below every client), hall-major.
    for h in 0..halls {
        for ch in 0..3usize {
            spec.add_ap(
                Pos::new(
                    hall_x(h) + VENUE_W * (0.25 + 0.25 * ch as f64),
                    VENUE_H * 0.5,
                ),
                ch,
                6,
            );
        }
    }
    for i in 0..scale.users {
        let hall = i % halls;
        let pos = Pos::new(
            hall_x(hall) + rng.gen_range(0.0..VENUE_W),
            rng.gen_range(0.0..VENUE_H),
        );
        let channel_idx = (i / halls) % 3;
        let fps = draw_user_fps(&mut rng) * scale.activity;
        let rts = rng.gen_bool(0.02);
        let traffic = draw_traffic(&mut rng, fps);
        let power_save = draw_power_save(&mut rng);
        // Users trickle in over the first fifth of the session.
        let join_at_us = rng.gen_range(0..(scale.duration_s * SECOND / 5).max(1));
        spec.add_client(ClientConfig {
            pos,
            channel_idx,
            rts_policy: if rts {
                RtsPolicy::Threshold(400)
            } else {
                RtsPolicy::Never
            },
            adaptation: RateAdaptation::Arf(Rate::R11),
            traffic,
            join_at_us,
            leave_at_us: None,
            power_save_interval_us: power_save,
            frag_threshold: None,
        });
    }
    for ch in 0..3usize {
        spec.add_sniffer(SnifferConfig {
            pos: Pos::new(VENUE_W * 0.5, VENUE_H * 0.6),
            channel_idx: ch,
            capacity_fps: 1_500.0,
            burst: 200.0,
        });
    }
    ShardScenario {
        name: format!("campus-{}x{}", halls, scale.users),
        duration_us: scale.duration_s * SECOND,
        spec,
    }
}

/// Table 1 of the paper: the two data sets.
pub struct DataSetInfo {
    /// Data-set name.
    pub name: &'static str,
    /// Collection date.
    pub date: &'static str,
    /// Channel number.
    pub channel: u8,
    /// Collection time span.
    pub time: &'static str,
}

/// The rows of Table 1.
pub fn table1() -> Vec<DataSetInfo> {
    vec![
        DataSetInfo {
            name: "Day",
            date: "March 9 2005",
            channel: 1,
            time: "11:53–17:30 hrs",
        },
        DataSetInfo {
            name: "Day",
            date: "March 9 2005",
            channel: 6,
            time: "11:54–17:30 hrs",
        },
        DataSetInfo {
            name: "Day",
            date: "March 9 2005",
            channel: 11,
            time: "11:56–17:30 hrs",
        },
        DataSetInfo {
            name: "Plenary",
            date: "March 10 2005",
            channel: 1,
            time: "19:30–22:30 hrs",
        },
        DataSetInfo {
            name: "Plenary",
            date: "March 10 2005",
            channel: 6,
            time: "19:31–22:30 hrs",
        },
        DataSetInfo {
            name: "Plenary",
            date: "March 10 2005",
            channel: 11,
            time: "19:32–22:30 hrs",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ap_grid_covers_three_channels() {
        let aps = ap_grid();
        assert_eq!(aps.len(), 9);
        for ch in 0..3 {
            assert_eq!(aps.iter().filter(|&&(_, c)| c == ch).count(), 3);
        }
    }

    #[test]
    fn table1_has_six_rows() {
        let t = table1();
        assert_eq!(t.len(), 6);
        assert_eq!(t.iter().filter(|r| r.name == "Day").count(), 3);
        let channels: Vec<u8> = t.iter().map(|r| r.channel).collect();
        assert_eq!(&channels[..3], &[1, 6, 11]);
    }

    #[test]
    fn day_scenario_builds_and_runs_briefly() {
        let mut scale = SessionScale::day_default(42);
        scale.users = 30;
        scale.duration_s = 10;
        let result = ietf_day(scale).run();
        assert_eq!(result.traces.len(), 3);
        let total: usize = result.traces.iter().map(|t| t.len()).sum();
        assert!(total > 100, "day traces captured {total} frames");
        assert_eq!(result.stations.len(), 9 + 30);
    }

    #[test]
    fn plenary_users_are_clustered() {
        let mut scale = SessionScale::plenary_default(43);
        scale.users = 50;
        scale.duration_s = 5;
        let sc = ietf_plenary(scale);
        let center = Pos::new(VENUE_W * 0.5, VENUE_H * 0.7);
        let mean_dist: f64 = sc
            .sim
            .stations()
            .iter()
            .filter(|s| !s.is_ap())
            .map(|s| s.pos.distance_to(center))
            .sum::<f64>()
            / 50.0;
        assert!(mean_dist < 14.0, "mean distance {mean_dist}");
    }

    #[test]
    fn ramp_scenario_saturates_by_the_end() {
        let mut scenario = load_ramp(44, 60, 60, 4.0);
        scenario.sim.config.record_ground_truth = true; // read below
        let result = scenario.run();
        let trace = &result.traces[0];
        assert!(!trace.is_empty());
        // Frame rate in the last 10 s must exceed the first 10 s.
        let end = result.ground_truth.last().unwrap().timestamp_us;
        let early = trace
            .iter()
            .filter(|r| r.timestamp_us < 10 * SECOND)
            .count();
        let late = trace
            .iter()
            .filter(|r| r.timestamp_us > end - 10 * SECOND)
            .count();
        assert!(late > early * 2, "late {late} vs early {early}");
    }

    #[test]
    fn deterministic_scenarios() {
        let mut scale = SessionScale::day_default(7);
        scale.users = 20;
        scale.duration_s = 5;
        let run = || {
            let mut scenario = ietf_day(scale);
            scenario.sim.config.record_ground_truth = true;
            scenario.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.traces[0], b.traces[0]);
        assert!(!a.ground_truth.is_empty());
        assert_eq!(a.ground_truth.len(), b.ground_truth.len());
    }
}
