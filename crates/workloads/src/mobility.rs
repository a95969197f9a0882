//! Random-waypoint mobility: the churn workload family.
//!
//! The paper's congestion dynamics are driven by *churn* — attendees
//! arriving through the registration ramp, draining between rooms between
//! sessions, and roaming across the Airespace controller's APs as they
//! move. This module adds the movement half of that story on top of the
//! incrementally maintained sensing topology
//! ([`wifi_sim::topology::SensingTopology`]):
//!
//! * [`WaypointMobility`] walks a subset of clients between uniformly drawn
//!   waypoints on the venue floor, advanced once per *coherence tick* — the
//!   shadow-fading coherence interval, the natural timescale below which
//!   the channel model already treats positions as effectively static.
//! * Each move is one O(N) [`Simulator::move_station`] (dirty topology
//!   row + column, per-station fade-cache column invalidation — not a
//!   global flush), followed by a strongest-AP reassociation check with
//!   hysteresis ([`Simulator::reassociate_strongest`]), mirroring how
//!   aggressive-roaming-era cards hopped APs as RSSI shifted.
//! * [`MobileScenario`] pairs a simulator with its walkers and tick, and
//!   [`mobile_venue`] instantiates the pinned churn workload (perfbench's
//!   `churn`). It runs through the one chunk loop in [`crate::run`]
//!   ([`MobileScenario::run`], [`crate::run::run_streaming_mobile`]),
//!   which simulates to the next tick, moves the walkers, and repeats.
//!
//! Determinism: one seeded [`SmallRng`] drives every walker, advanced in
//! ascending node order each tick, and all moves of a tick are applied
//! before any reassociation scan — see `docs/DETERMINISM.md` §mobility for
//! the ordering contract.

use crate::scenario::{
    ap_grid, draw_power_save, draw_traffic, draw_user_fps, ietf_radio, VENUE_H, VENUE_W,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wifi_frames::phy::Rate;
use wifi_frames::timing::{Micros, SECOND};
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::shard::ShardSpec;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::{ClientConfig, SimConfig, Simulator};

/// Walkable floor, `(width, height)` metres; waypoints are uniform over it.
const BOUNDS: (f64, f64) = (VENUE_W, VENUE_H);
/// Walking speed draw, m/s (pedestrian: ~0.5–1.5).
const SPEED_MPS: (f64, f64) = (0.5, 1.5);
/// Dwell at each waypoint, in whole ticks.
const PAUSE_TICKS: (u32, u32) = (0, 3);
/// Reassociation hysteresis, dB: roam only when some other AP beats the
/// current one's path RSSI by at least this much.
const HYSTERESIS_DB: f64 = 6.0;

/// A waypoint uniform over [`BOUNDS`].
fn draw_waypoint(rng: &mut SmallRng) -> Pos {
    Pos::new(rng.gen_range(0.0..BOUNDS.0), rng.gen_range(0.0..BOUNDS.1))
}

/// One walking client.
#[derive(Clone, Copy, Debug)]
struct Walker {
    node: usize,
    pos: Pos,
    target: Pos,
    speed_mps: f64,
    pause_left: u32,
}

/// Random-waypoint walks for a set of clients, advanced on coherence
/// ticks. All randomness comes from one seeded RNG consumed in ascending
/// node order, so a walk schedule is a pure function of `(seed, ticks)`.
pub struct WaypointMobility {
    rng: SmallRng,
    walkers: Vec<Walker>,
    /// Total positions applied via [`Simulator::move_station`].
    pub moves: u64,
    /// Total roams triggered via [`Simulator::reassociate_strongest`].
    pub roams: u64,
}

impl WaypointMobility {
    /// A new mobility driver. `seed` is independent of the simulator's
    /// PHY/traffic seeds.
    pub fn new(seed: u64) -> WaypointMobility {
        WaypointMobility {
            rng: SmallRng::seed_from_u64(seed ^ 0x000b_17e5),
            walkers: Vec::new(),
            moves: 0,
            roams: 0,
        }
    }

    /// Registers station `node` (its current position `pos`) as a walker
    /// and draws its first waypoint. Call in ascending node order to keep
    /// the draw sequence canonical.
    pub fn add_walker(&mut self, node: usize, pos: Pos) {
        let target = draw_waypoint(&mut self.rng);
        let speed_mps = self.rng.gen_range(SPEED_MPS.0..=SPEED_MPS.1);
        self.walkers.push(Walker {
            node,
            pos,
            target,
            speed_mps,
            pause_left: 0,
        });
    }

    /// Number of registered walkers.
    pub fn walker_count(&self) -> usize {
        self.walkers.len()
    }

    /// Advances every walker by one tick of `tick_us` microseconds and
    /// applies the resulting moves to `sim`. Two strictly ordered passes —
    /// all moves first (ascending node order), then all reassociation
    /// checks (same order) — so every roam decision sees the tick's
    /// complete post-move topology, not a half-applied one.
    pub fn advance(&mut self, sim: &mut Simulator, tick_us: Micros) {
        let tick_s = tick_us as f64 / SECOND as f64;
        let mut moved: Vec<(usize, Pos)> = Vec::with_capacity(self.walkers.len());
        for w in &mut self.walkers {
            if w.pause_left > 0 {
                w.pause_left -= 1;
                continue;
            }
            let (dx, dy) = (w.target.x - w.pos.x, w.target.y - w.pos.y);
            let dist = (dx * dx + dy * dy).sqrt();
            let step = w.speed_mps * tick_s;
            if dist <= step {
                // Arrived: dwell, then pick the next waypoint.
                w.pos = w.target;
                w.pause_left = self.rng.gen_range(PAUSE_TICKS.0..=PAUSE_TICKS.1);
                w.target = draw_waypoint(&mut self.rng);
                w.speed_mps = self.rng.gen_range(SPEED_MPS.0..=SPEED_MPS.1);
            } else {
                w.pos = Pos::new(w.pos.x + dx / dist * step, w.pos.y + dy / dist * step);
            }
            moved.push((w.node, w.pos));
        }
        for &(node, pos) in &moved {
            sim.move_station(node, pos);
            self.moves += 1;
        }
        for &(node, _) in &moved {
            if sim.reassociate_strongest(node, HYSTERESIS_DB) {
                self.roams += 1;
            }
        }
    }
}

/// A scenario whose clients move: simulate to the next coherence tick,
/// advance the walkers, repeat. It runs whole, through [`crate::run`]'s
/// chunk loop: [`MobileScenario::run`] keeps whole traces, and
/// [`crate::run::run_streaming_mobile`] streams per-second rows.
pub struct MobileScenario {
    /// Scenario name ("churn", …).
    pub name: String,
    /// How long to run.
    pub duration_us: Micros,
    /// Mobility tick — the shadow-fading coherence interval.
    pub tick_us: Micros,
    /// The configured simulator.
    pub sim: Simulator,
    /// The walk driver.
    pub mobility: WaypointMobility,
}

/// Scale of the mobile-venue churn scenario.
#[derive(Clone, Copy, Debug)]
pub struct ChurnScale {
    /// RNG seed (placement, traffic, walks).
    pub seed: u64,
    /// Total users on the floor.
    pub users: usize,
    /// Session length in seconds.
    pub duration_s: u64,
    /// Multiplier on per-user traffic intensity.
    pub activity: f64,
    /// Fraction of users that walk (the rest sit).
    pub walker_fraction: f64,
}

impl ChurnScale {
    /// The pinned churn scale (perfbench's `churn` workload): a venue floor's
    /// worth of users, a third of them wandering between rooms for the
    /// whole session.
    pub fn venue_default(seed: u64) -> ChurnScale {
        ChurnScale {
            seed,
            users: 160,
            duration_s: 60,
            activity: 1.0,
            walker_fraction: 0.35,
        }
    }
}

/// The mobile venue: the nine-AP grid over channels 1/6/11, users joining
/// through a ramp, a walker subset wandering the floor and roaming between
/// APs, three sniffers (one per channel) watching the busiest room.
pub fn mobile_venue(scale: ChurnScale) -> MobileScenario {
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0x00c4_0a1e);
    let mut spec = ShardSpec::new(SimConfig {
        radio: ietf_radio(scale.seed),
        ..SimConfig::ietf_three_channels(scale.seed)
    });
    for (pos, ch) in ap_grid() {
        spec.add_ap(pos, ch, 6); // ssid "ietf62"
    }
    let mut mobility = WaypointMobility::new(scale.seed);
    let duration_us = scale.duration_s * SECOND;
    for i in 0..scale.users {
        let pos = Pos::new(rng.gen_range(0.0..VENUE_W), rng.gen_range(0.0..VENUE_H));
        let frac = i as f64 / scale.users.max(1) as f64;
        let join_us = (frac * 0.5 * duration_us as f64) as u64;
        let fps = draw_user_fps(&mut rng) * scale.activity;
        let traffic = draw_traffic(&mut rng, fps);
        let power_save = draw_power_save(&mut rng);
        let walks = rng.gen_bool(scale.walker_fraction);
        // The spec's station index is the built simulator's node id.
        let node = spec.add_client(ClientConfig {
            pos,
            channel_idx: i % 3,
            rts_policy: RtsPolicy::Never,
            adaptation: RateAdaptation::Arf(Rate::R11),
            traffic,
            join_at_us: join_us,
            leave_at_us: None,
            power_save_interval_us: power_save,
            frag_threshold: None,
        });
        if walks {
            mobility.add_walker(node, pos);
        }
    }
    for (idx, pos) in [
        Pos::new(7.0, 27.0),
        Pos::new(13.0, 31.0),
        Pos::new(10.0, 25.0),
    ]
    .into_iter()
    .enumerate()
    {
        spec.add_sniffer(SnifferConfig {
            pos,
            channel_idx: idx,
            capacity_fps: 1_500.0,
            burst: 200.0,
        });
    }
    MobileScenario {
        name: "churn".to_string(),
        duration_us,
        // The mobility tick is the fading coherence interval of
        // `ietf_radio` (4 s): below it the channel model already holds the
        // environment fixed, so finer movement would be invisible.
        tick_us: 4 * SECOND,
        sim: spec.build_unsharded(),
        mobility,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The mobility oracle, independent of the chunk loop: `sc` run to its
    /// end one tick at a time with nothing but [`Simulator::run_until`] and
    /// [`WaypointMobility::advance`]. A zero tick counts as 1 µs, the
    /// walkers move at every tick before the end, and a zero-length run
    /// still runs to 0 µs.
    pub(crate) fn tick_by_tick(sc: &mut MobileScenario) {
        let tick_us = sc.tick_us.max(1);
        let mut now = 0;
        loop {
            now = (now + tick_us).min(sc.duration_us);
            sc.sim.run_until(now);
            if now == sc.duration_us {
                break;
            }
            sc.mobility.advance(&mut sc.sim, tick_us);
        }
    }

    #[test]
    fn churn_run_is_deterministic_in_its_seed() {
        let run = |seed: u64| {
            let result = mobile_venue(ChurnScale {
                seed,
                users: 12,
                duration_s: 20,
                activity: 0.5,
                walker_fraction: 1.0,
            })
            .run();
            (result.events_processed, result.frames_on_air)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same churn run");
    }

    #[test]
    fn mobile_venue_roams_and_moves() {
        let mut sc = mobile_venue(ChurnScale {
            seed: 3,
            users: 24,
            duration_s: 40,
            activity: 0.5,
            walker_fraction: 1.0,
        });
        let ticks = sc.duration_us / sc.tick_us;
        tick_by_tick(&mut sc);
        assert!(sc.mobility.moves > 0, "walkers moved");
        assert!(
            sc.mobility.moves <= sc.mobility.walker_count() as u64 * ticks,
            "at most one move per walker per tick"
        );
        for w in &sc.mobility.walkers {
            assert!(w.pos.x >= 0.0 && w.pos.x <= VENUE_W);
            assert!(w.pos.y >= 0.0 && w.pos.y <= VENUE_H);
        }
    }
}
