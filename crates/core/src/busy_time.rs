//! The channel busy-time (CBT) metric — Section 5.1 of the paper.
//!
//! Every captured frame is charged the air time of its bytes plus the
//! inter-frame spacing that precedes it (Equations 2–6; constants from
//! Table 2). Summing the charges inside a one-second interval gives
//! `CBT_TOTAL(t)` (Equation 7), and dividing by the second gives the
//! channel-utilization percentage `U(t)` (Equation 8); the per-second
//! analysis ([`crate::persec::SecondAccumulator`]) does both.
//!
//! The metric deliberately charges zero backoff time: in a heavily utilized
//! network at least one station's backoff timer has already expired at any
//! instant (the saturation argument of Section 5.1).

use wifi_frames::fc::{FrameClass, FrameKind};
use wifi_frames::frame::MGMT_OVERHEAD_BYTES;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::{cbt, Micros};

/// The busy-time charge of one captured frame, per Equations 2–6.
///
/// * data frames: `D_DIFS + D_DATA(size)(rate)` — `size` is the data payload
///   in bytes, exactly as the paper's formula takes it;
/// * RTS: `D_RTS`;
/// * CTS: `D_SIFS + D_CTS`;
/// * ACK: `D_SIFS + D_ACK`;
/// * beacons: `D_DIFS + D_BEACON`;
/// * other management frames are charged like data frames (they contend for
///   the channel the same way and carry a body); their body size is the
///   recorded frame size minus the management header + FCS
///   ([`MGMT_OVERHEAD_BYTES`]).
pub fn cbt_us(record: &FrameRecord) -> Micros {
    match record.kind {
        FrameKind::Rts => cbt::rts(),
        FrameKind::Cts => cbt::cts(),
        FrameKind::Ack => cbt::ack(),
        FrameKind::Beacon => cbt::beacon(),
        FrameKind::Data | FrameKind::NullData => {
            cbt::data(record.payload_bytes as u64, record.rate)
        }
        kind if kind.class() == FrameClass::Management => {
            let body = record.mac_bytes.saturating_sub(MGMT_OVERHEAD_BYTES as u32);
            cbt::data(body as u64, record.rate)
        }
        _ => cbt::data(record.payload_bytes as u64, record.rate),
    }
}

/// Utilization series at an arbitrary aggregation interval.
///
/// The paper fixes the interval at one second and calls it "an appropriate
/// granularity"; this function makes the choice explicit so its sensitivity
/// can be measured (ablation A8). Returns `(interval_start_us, percent)`
/// for every interval in the observed span.
pub fn utilization_series(records: &[FrameRecord], interval_us: Micros) -> Vec<(Micros, f64)> {
    assert!(interval_us > 0, "interval must be positive");
    let Some(first) = records.first() else {
        return Vec::new();
    };
    let last = records.last().expect("nonempty");
    let start = first.timestamp_us / interval_us * interval_us;
    let n = ((last.timestamp_us - start) / interval_us + 1) as usize;
    let mut busy = vec![0u64; n];
    for r in records {
        let idx = ((r.timestamp_us - start) / interval_us) as usize;
        busy[idx] += cbt_us(r);
    }
    busy.into_iter()
        .enumerate()
        .map(|(i, b)| {
            (
                start + i as Micros * interval_us,
                b as f64 / interval_us as f64 * 100.0,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifi_frames::mac::MacAddr;
    use wifi_frames::phy::{Channel, Rate};

    fn rec(kind: FrameKind, ts: Micros, payload: u32, rate: Rate) -> FrameRecord {
        FrameRecord {
            timestamp_us: ts,
            kind,
            rate,
            channel: Channel::new(1).unwrap(),
            dst: MacAddr::from_id(1),
            src: Some(MacAddr::from_id(2)),
            bssid: None,
            retry: false,
            seq: Some(0),
            mac_bytes: payload + 28,
            payload_bytes: payload,
            signal_dbm: -60,
            duration_us: 0,
        }
    }

    #[test]
    fn charges_match_paper_equations() {
        assert_eq!(cbt_us(&rec(FrameKind::Rts, 0, 0, Rate::R1)), 352);
        assert_eq!(cbt_us(&rec(FrameKind::Cts, 0, 0, Rate::R1)), 314);
        assert_eq!(cbt_us(&rec(FrameKind::Ack, 0, 0, Rate::R1)), 314);
        assert_eq!(cbt_us(&rec(FrameKind::Beacon, 0, 0, Rate::R1)), 354);
        // Data: DIFS + PLCP + 8*(34+1472)/11 = 50 + 192 + 1096 = 1338.
        assert_eq!(cbt_us(&rec(FrameKind::Data, 0, 1472, Rate::R11)), 1338);
        // Same frame at 1 Mbps: 50 + 192 + 12048 = 12290.
        assert_eq!(cbt_us(&rec(FrameKind::Data, 0, 1472, Rate::R1)), 12_290);
    }

    #[test]
    fn mgmt_frames_charged_like_data() {
        let mut r = rec(FrameKind::AssocRequest, 0, 0, Rate::R1);
        r.mac_bytes = 62; // 34-byte body
        r.payload_bytes = 0;
        // DIFS + PLCP + 8*(34+34)/1 = 50 + 192 + 544.
        assert_eq!(cbt_us(&r), 786);
    }

    #[test]
    fn utilization_series_interval_scaling() {
        // One ACK (314 µs) per 100 ms for one second.
        let recs: Vec<FrameRecord> = (0..10)
            .map(|i| rec(FrameKind::Ack, i * 100_000, 0, Rate::R1))
            .collect();
        // 1 s interval: one bucket at 0.314 % × 10 = 3.14 %.
        let s1 = utilization_series(&recs, 1_000_000);
        assert_eq!(s1.len(), 1);
        assert!((s1[0].1 - 0.314).abs() < 1e-9);
        // 100 ms intervals: ten buckets at 0.314 % each (charge ÷ window).
        let s100 = utilization_series(&recs, 100_000);
        assert_eq!(s100.len(), 10);
        for &(_, u) in &s100 {
            assert!((u - 0.314).abs() < 1e-9, "{u}");
        }
        // Averages agree across intervals (mass conservation).
        let m1: f64 = s1.iter().map(|&(_, u)| u).sum::<f64>() / s1.len() as f64;
        let m100: f64 = s100.iter().map(|&(_, u)| u).sum::<f64>() / s100.len() as f64;
        assert!((m1 - m100).abs() < 1e-9);
    }

    #[test]
    fn utilization_series_empty() {
        assert!(utilization_series(&[], 1_000_000).is_empty());
    }
}
