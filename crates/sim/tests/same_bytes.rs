//! Same bytes: the checks a change that must not move simulated output
//! runs against, without building its parent.
//!
//! * `run_until_boundaries_change_nothing` (property): a small random cell
//!   run once to its end, and again through random `run_until` boundaries
//!   1 µs to 30 ms apart, ends with the same `events_processed`,
//!   ground-truth tape and per-station channel-access values, and so does
//!   every mobility tick on the way.
//! * `seeded_cells_match_committed_digests`: a fixed set of seeded random
//!   cells, each digested (events, tape, end state) against
//!   `tests/same_bytes_digests.txt`.
//!
//! The cells mix the ingredients of `dcf_details.rs`: hidden terminals
//! (stations beyond each other's carrier-sense range), RTS/CTS and the NAV
//! it sets, fragment bursts, EIFS after failed decodes at the edge of range
//! (a lower carrier-sense threshold in some cells), roams between runs
//! (`move_station` + `reassociate_strongest`), and channel switches
//! (clients tuned to a channel without an AP, and dynamic channel
//! assignment).
//!
//! The digest file records what the simulator does. Only a change meant to
//! alter simulated output — a benchmark change — may re-bless it, with
//! `GOLDEN_BLESS=1 cargo test -p wifi-sim --test same_bytes`, and says why in
//! CHANGES.md.

use proptest::prelude::*;
use rand::Rng;
use std::fmt::Write;
use wifi_frames::fc::FrameKind;
use wifi_frames::phy::{Channel, Rate};
use wifi_sim::config::ChannelMgmt;
use wifi_sim::geometry::Pos;
use wifi_sim::radio::{Fading, RadioConfig};
use wifi_sim::rate::RateAdaptation;
use wifi_sim::rng::SimRng;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

mod common;
use common::{base_client, silent_client};

/// How long every cell runs.
const END_US: u64 = 500_000;
/// Mobility ticks: every cell stops here, moves and roams.
const TICK_US: u64 = 50_000;
/// The widest gap between two random `run_until` boundaries.
const MAX_CUT_US: u64 = 30_000;
/// The seeded cells of the digest file.
const DIGEST_CELLS: u64 = 300;

/// A small random cell: its configuration, APs, clients and walks.
struct Cell {
    config: SimConfig,
    /// Position and channel of each AP (node ids `0..aps.len()`).
    aps: Vec<(Pos, usize)>,
    /// The clients, node ids after the APs.
    clients: Vec<ClientConfig>,
    /// `(tick, client, where, hysteresis)`: at that tick the client walks
    /// there and roams if an AP beats its own by the hysteresis (dB).
    walks: Vec<(u64, usize, Pos, f64)>,
}

impl Cell {
    fn random(seed: u64) -> Cell {
        let mut rng = SimRng::new(seed, 0x5a3e_b17e);
        let channels = rng.gen_range(1..=3usize);
        let radio = RadioConfig {
            // The lower threshold makes stations sense frames they cannot
            // decode: EIFS.
            cs_threshold_dbm: if rng.gen_bool(0.5) { -82.0 } else { -89.0 },
            fading: if rng.gen_bool(0.3) {
                Fading {
                    sigma_db: 6.0,
                    coherence_us: 70_000,
                    seed,
                }
            } else {
                Fading::NONE
            },
            ..RadioConfig::default()
        };
        let reach = radio.range_at_dbm(radio.cs_threshold_dbm);
        let at = |rng: &mut SimRng, spread: f64| {
            Pos::new(
                rng.gen_range(-spread..spread) * reach,
                rng.gen_range(-0.3..0.3) * reach,
            )
        };
        let config = SimConfig {
            radio,
            channels: Channel::ORTHOGONAL[..channels].to_vec(),
            seed,
            queue_cap: rng.gen_range(4..=32),
            eifs_enabled: rng.gen_bool(0.8),
            cs_delay_us: rng.gen_range(0..=20),
            record_ground_truth: true,
            channel_mgmt: (channels > 1 && rng.gen_bool(0.3)).then_some(ChannelMgmt {
                eval_interval_us: 60_000,
                switch_ratio: 1.2,
                follow_delay_max_us: 40_000,
            }),
        };
        let aps = (0..rng.gen_range(1..=2))
            .map(|_| (at(&mut rng, 0.6), rng.gen_range(0..channels)))
            .collect();
        let clients: Vec<ClientConfig> = (0..rng.gen_range(2..=7))
            .map(|_| {
                let pos = at(&mut rng, 1.2);
                let channel = rng.gen_range(0..channels);
                let join_at = rng.gen_range(0..80_000u64);
                if rng.gen_bool(0.15) {
                    return silent_client(pos, channel, join_at);
                }
                let uplink = FlowConfig::poisson(rng.gen_range(5.0..150.0), sizes(&mut rng));
                let downlink = if rng.gen_bool(0.5) {
                    FlowConfig::poisson(rng.gen_range(5.0..60.0), sizes(&mut rng))
                } else {
                    FlowConfig::off()
                };
                ClientConfig {
                    channel_idx: channel,
                    rts_policy: [
                        RtsPolicy::Never,
                        RtsPolicy::Always,
                        RtsPolicy::Threshold(400),
                    ][rng.gen_range(0..3usize)],
                    adaptation: [
                        RateAdaptation::Arf(Rate::R11),
                        RateAdaptation::Fixed(Rate::R11),
                        RateAdaptation::Fixed(Rate::R1),
                    ][rng.gen_range(0..3usize)],
                    traffic: TrafficProfile { uplink, downlink },
                    join_at_us: join_at,
                    leave_at_us: rng
                        .gen_bool(0.15)
                        .then(|| join_at + rng.gen_range(50_000..250_000u64)),
                    power_save_interval_us: rng
                        .gen_bool(0.2)
                        .then(|| rng.gen_range(20_000..100_000)),
                    frag_threshold: rng.gen_bool(0.25).then(|| rng.gen_range(256..=800)),
                    ..base_client(pos, 0.0, 0)
                }
            })
            .collect();
        let mut walks = Vec::new();
        for tick in (1..END_US / TICK_US).map(|k| k * TICK_US) {
            if rng.gen_bool(0.6) {
                let client = rng.gen_range(0..clients.len());
                walks.push((tick, client, at(&mut rng, 1.2), rng.gen_range(0.0..6.0)));
            }
        }
        Cell {
            config,
            aps,
            clients,
            walks,
        }
    }

    fn build(&self) -> Simulator {
        let mut sim = Simulator::new(self.config.clone());
        for &(pos, channel) in &self.aps {
            sim.add_ap(pos, channel, 6);
        }
        for client in &self.clients {
            sim.add_client(client.clone());
        }
        sim
    }

    /// Runs the cell to `END_US`, stopping at every tick to walk and roam
    /// and at each of `stops` (increasing) on the way. Returns the
    /// simulator, the outcome at every tick and how many roams took.
    fn run(&self, stops: &[u64]) -> (Simulator, Vec<Outcome>, usize) {
        let mut sim = self.build();
        let mut stops = stops.iter().copied().peekable();
        let mut outcomes = Vec::new();
        let mut roams = 0;
        for tick in (1..=END_US / TICK_US).map(|k| k * TICK_US) {
            while let Some(stop) = stops.next_if(|&s| s < tick) {
                sim.run_until(stop);
            }
            stops.next_if_eq(&tick);
            sim.run_until(tick);
            outcomes.push(Outcome::of(&sim));
            for &(_, client, pos, hysteresis) in self.walks.iter().filter(|w| w.0 == tick) {
                let node = self.aps.len() + client;
                sim.move_station(node, pos);
                roams += sim.reassociate_strongest(node, hysteresis) as usize;
            }
        }
        (sim, outcomes, roams)
    }

    /// Which of the cell's ingredients its run reached: RTS, fragments,
    /// a NAV, an EIFS flag, a channel switch, a roam.
    fn reached(&self, sim: &Simulator, roams: usize) -> [bool; 6] {
        let tape = &sim.ground_truth.records;
        let clients = || self.clients.iter().enumerate();
        let mac = |client: usize| sim.stations()[self.aps.len() + client].mac;
        let nodes = || (0..sim.stations().len()).map(|n| sim.station_access(n));
        [
            tape.iter().any(|r| r.kind == FrameKind::Rts),
            clients().any(|(i, c)| {
                c.frag_threshold.is_some_and(|thr| {
                    tape.iter().any(|r| {
                        r.src == Some(mac(i)) && r.kind == FrameKind::Data && r.payload_bytes == thr
                    })
                })
            }),
            nodes().any(|a| a.nav_until > 0),
            nodes().any(|a| a.use_eifs),
            clients().any(|(i, c)| {
                let tuned = sim.config.channels[c.channel_idx];
                tape.iter()
                    .any(|r| r.src == Some(mac(i)) && r.channel != tuned)
            }),
            roams > 0,
        ]
    }
}

/// What one run leaves: its event count, and digests of its ground-truth
/// tape and of every station's channel-access values.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    events: u64,
    tape: u64,
    state: u64,
}

impl Outcome {
    fn of(sim: &Simulator) -> Outcome {
        let mut tape = Fnv::new();
        for record in &sim.ground_truth.records {
            tape.write(format!("{record:?}").as_bytes());
        }
        // By value, in a fixed order: where the simulator keeps each value
        // cannot change the digest.
        let mut state = Fnv::new();
        for node in 0..sim.stations().len() {
            let a = sim.station_access(node);
            state.write(format!("{:?}", a.state).as_bytes());
            for v in [
                a.backoff_slots as u64,
                a.cw as u64,
                a.countdown_end.unwrap_or(u64::MAX),
                a.nav_until,
                a.idle_stamp,
                a.use_eifs as u64,
            ] {
                state.write(&v.to_le_bytes());
            }
        }
        Outcome {
            events: sim.events_processed(),
            tape: tape.0,
            state: state.0,
        }
    }
}

/// FNV-1a, as the goldens use it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// A random payload-size distribution: the IETF mix or one fixed size.
fn sizes(rng: &mut SimRng) -> SizeDist {
    match rng.gen_range(0..3) {
        0 => SizeDist::ietf_mix(),
        _ => SizeDist::fixed(rng.gen_range(40..=1500)),
    }
}

/// Increasing `run_until` boundaries before `END_US`, log-uniformly 1 µs to
/// `MAX_CUT_US` apart: runs of single microseconds and long strides both.
fn random_stops(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed, 0xc075);
    let widest = (MAX_CUT_US as f64).ln();
    let mut stops = Vec::new();
    let mut at = 0;
    loop {
        at += (rng.gen_range(0.0..=widest)).exp().round().max(1.0) as u64;
        if at >= END_US {
            return stops;
        }
        stops.push(at);
    }
}

proptest! {
    fn run_until_boundaries_change_nothing(cell_seed in any::<u64>(), stop_seed in any::<u64>()) {
        let cell = Cell::random(cell_seed);
        let (_, whole, _) = cell.run(&[]);
        let (_, cut, _) = cell.run(&random_stops(stop_seed));
        prop_assert_eq!(whole, cut);
    }
}

#[test]
fn seeded_cells_match_committed_digests() {
    let mut lines = String::new();
    let mut reached = [0; 6];
    for seed in 0..DIGEST_CELLS {
        let cell = Cell::random(seed);
        let (sim, mut outcomes, roams) = cell.run(&[]);
        for (n, hit) in reached.iter_mut().zip(cell.reached(&sim, roams)) {
            *n += hit as u32;
        }
        let end = outcomes.pop().expect("one tick at least");
        writeln!(
            lines,
            "cell {seed:03}\tevents={}\ttape={:016x}\tstate={:016x}",
            end.events, end.tape, end.state
        )
        .unwrap();
    }
    // Each ingredient in a good share of the cells, or the digests pin
    // less than they claim.
    let names = ["RTS", "fragments", "NAV", "EIFS", "channel switch", "roam"];
    for (name, n) in names.iter().zip(reached) {
        assert!(
            n as u64 >= DIGEST_CELLS / 10,
            "{name} reached in only {n} cells"
        );
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/same_bytes_digests.txt");
    if std::env::var("GOLDEN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &lines).expect("write digest file");
        eprintln!("blessed {} ({DIGEST_CELLS} cells)", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing digest file {} ({e})", path.display()));
    for (now, then) in lines.lines().zip(committed.lines()) {
        assert_eq!(
            now, then,
            "simulated output moved; only a change meant to alter it re-blesses \
             (GOLDEN_BLESS=1), saying why"
        );
    }
    assert_eq!(lines.lines().count(), committed.lines().count());
}
