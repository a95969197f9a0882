//! Property-based bit-identity: incremental [`SensingTopology`] maintenance
//! against the full O(N²) `rebuild` reference.
//!
//! Random join/move/add-sniffer sequences must leave every RSSI matrix
//! cell, both direction of both bitsets (`sensed`, `coupled`), and every
//! sniffer RSSI row *bit-identical* (`f64::to_bits`, not approximate
//! equality) to a fresh rebuild of the same positions. That is the
//! contract that lets every downstream consumer — carrier sense, SINR,
//! capture — treat the incrementally maintained cache as
//! indistinguishable from the from-scratch computation. Both are also
//! checked against `RadioConfig::rssi_dbm` of every ordered pair: the cache
//! keeps one triangle of the matrix, so each stored value must serve both
//! directions.

use proptest::prelude::*;
use wifi_sim::geometry::Pos;
use wifi_sim::radio::RadioConfig;
use wifi_sim::topology::SensingTopology;

/// One step of a maintenance schedule.
#[derive(Clone, Debug)]
enum Step {
    Join { x: f64, y: f64 },
    Move { which: usize, x: f64, y: f64 },
    Sniffer { x: f64, y: f64 },
}

/// Positions span co-located (< 1 m), mid-range, and far beyond the
/// coupling floor (~235 m for the default radio with exponent 3.5), so
/// bitset bits flip both ways across a schedule.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..30.0f64,
        0.0..400.0f64,
        // Exact repeats of a few lattice points force zero-distance pairs.
        (0u8..4).prop_map(|i| i as f64 * 100.0),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (coord(), coord()).prop_map(|(x, y)| Step::Join { x, y }),
        (coord(), coord()).prop_map(|(x, y)| Step::Join { x, y }),
        (any::<usize>(), coord(), coord()).prop_map(|(which, x, y)| Step::Move { which, x, y }),
        (any::<usize>(), coord(), coord()).prop_map(|(which, x, y)| Step::Move { which, x, y }),
        (coord(), coord()).prop_map(|(x, y)| Step::Sniffer { x, y }),
    ]
}

/// Applies `steps` to an incrementally maintained topology, mirroring the
/// positions, and checks bit-identity against a fresh rebuild at the end.
fn check_schedule(steps: &[Step], radio: &RadioConfig) {
    let mut topo = SensingTopology::default();
    let mut station_pos: Vec<Pos> = Vec::new();
    let mut sniffer_pos: Vec<Pos> = Vec::new();
    for s in steps {
        match *s {
            Step::Join { x, y } => {
                let p = Pos::new(x, y);
                let id = topo.add_station(p, radio);
                assert_eq!(id, station_pos.len());
                station_pos.push(p);
            }
            Step::Move { which, x, y } => {
                if station_pos.is_empty() {
                    continue;
                }
                let id = which % station_pos.len();
                let p = Pos::new(x, y);
                topo.update_station(id, p, radio);
                station_pos[id] = p;
            }
            Step::Sniffer { x, y } => {
                let p = Pos::new(x, y);
                let idx = topo.add_sniffer(p, radio);
                assert_eq!(idx, sniffer_pos.len());
                sniffer_pos.push(p);
            }
        }
    }

    let mut fresh = SensingTopology::default();
    fresh.rebuild(&station_pos, &sniffer_pos, radio);
    assert_eq!(topo.station_count(), station_pos.len());
    assert_eq!(topo.sniffer_count(), sniffer_pos.len());
    for a in 0..station_pos.len() {
        for b in 0..station_pos.len() {
            let direct = radio.rssi_dbm(station_pos[a], station_pos[b]);
            assert_eq!(topo.rssi(a, b).to_bits(), direct.to_bits(), "rssi({a},{b})");
            assert_eq!(
                topo.sensed(a, b),
                a != b && direct >= radio.cs_threshold_dbm,
                "sensed({a},{b}) against the direct RSSI"
            );
            assert_eq!(
                topo.rssi(a, b).to_bits(),
                fresh.rssi(a, b).to_bits(),
                "rssi({a},{b})"
            );
            assert_eq!(topo.sensed(a, b), fresh.sensed(a, b), "sensed({a},{b})");
            assert_eq!(topo.coupled(a, b), fresh.coupled(a, b), "coupled({a},{b})");
        }
        for s in 0..sniffer_pos.len() {
            assert_eq!(
                topo.sniffer_rssi(s, a).to_bits(),
                fresh.sniffer_rssi(s, a).to_bits(),
                "sniffer_rssi({s},{a})"
            );
        }
    }
}

proptest! {
    /// Mixed join/move/sniffer schedules, un-hinted (geometric growth).
    #[test]
    fn incremental_matches_rebuild(steps in prop::collection::vec(step(), 1..40)) {
        check_schedule(&steps, &RadioConfig::default());
    }

    /// The same property under a tighter carrier-sense threshold, so the
    /// `sensed`/`coupled` rows diverge from each other.
    #[test]
    fn incremental_matches_rebuild_tight_cs(steps in prop::collection::vec(step(), 1..40)) {
        let radio = RadioConfig {
            cs_threshold_dbm: -80.0,
            ..RadioConfig::default()
        };
        check_schedule(&steps, &radio);
    }

    /// Join-only ramps against a `reserve` hint: the pre-sized path must be
    /// as bit-identical as the doubling path.
    #[test]
    fn hinted_ramp_matches_rebuild(
        joins in prop::collection::vec((coord(), coord()), 1..64),
    ) {
        let radio = RadioConfig::default();
        let mut topo = SensingTopology::default();
        topo.reserve(joins.len(), 1);
        topo.add_sniffer(Pos::new(10.0, 10.0), &radio);
        let mut pos = Vec::new();
        for &(x, y) in &joins {
            let p = Pos::new(x, y);
            topo.add_station(p, &radio);
            pos.push(p);
        }
        let mut fresh = SensingTopology::default();
        fresh.rebuild(&pos, &[Pos::new(10.0, 10.0)], &radio);
        for a in 0..pos.len() {
            for b in 0..pos.len() {
                prop_assert_eq!(topo.rssi(a, b).to_bits(), fresh.rssi(a, b).to_bits());
                prop_assert_eq!(topo.sensed(a, b), fresh.sensed(a, b));
                prop_assert_eq!(topo.coupled(a, b), fresh.coupled(a, b));
            }
            prop_assert_eq!(
                topo.sniffer_rssi(0, a).to_bits(),
                fresh.sniffer_rssi(0, a).to_bits()
            );
        }
    }
}
