//! [`FrameRecord`] — the compact per-frame summary the congestion analysis
//! consumes.
//!
//! A record is what a sniffer log line boils down to: when the frame was
//! heard, what kind it was, at what rate and on which channel, who sent and
//! received it, how big it was, and whether it was marked as a retry. Both
//! the simulator and the pcap ingestion path produce `FrameRecord`s, so the
//! analysis crate is agnostic to where a trace came from.

use crate::fc::{FrameClass, FrameKind};
use crate::frame::DATA_OVERHEAD_BYTES;
use crate::mac::MacAddr;
use crate::phy::{Channel, Rate};
use crate::radiotap::CaptureMeta;
use crate::timing::Micros;
use crate::wire::HeaderInfo;

/// A compact summary of one captured frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameRecord {
    /// Capture timestamp in microseconds (end of frame on air).
    pub timestamp_us: Micros,
    /// Frame kind.
    pub kind: FrameKind,
    /// PHY rate the frame was sent at.
    pub rate: Rate,
    /// Channel it was heard on.
    pub channel: Channel,
    /// Receiver address (addr1).
    pub dst: MacAddr,
    /// Transmitter address (addr2); `None` for CTS and ACK frames.
    pub src: Option<MacAddr>,
    /// BSSID when determinable.
    pub bssid: Option<MacAddr>,
    /// Retry bit from the Frame Control field.
    pub retry: bool,
    /// Sequence number, for frames that carry one.
    pub seq: Option<u16>,
    /// Total MAC frame size on air, FCS included.
    pub mac_bytes: u32,
    /// Data payload size (zero for non-data frames) — the `size` argument of
    /// the paper's `D_DATA(size)(rate)` term.
    pub payload_bytes: u32,
    /// Received signal strength in dBm.
    pub signal_dbm: i8,
    /// NAV duration field, microseconds.
    pub duration_us: u16,
}

impl FrameRecord {
    /// Builds a record from a snaplen-truncated capture: the parsed header,
    /// the *original* (pre-truncation) frame length reported by the capture
    /// file, and the radiotap metadata.
    ///
    /// The payload size of a data frame is recovered as
    /// `orig_len - header - FCS`, exactly how an analysis of a 250-byte
    /// snaplen trace must do it. A data frame's BSSID follows its DS bits
    /// (addr1 to the AP, addr2 from it, addr3 otherwise), as
    /// [`crate::frame::Data::bssid`] infers it; every other frame's is its
    /// addr3, when it has one.
    pub fn from_header(header: &HeaderInfo, orig_len: u32, meta: &CaptureMeta) -> FrameRecord {
        let payload_bytes = if header.kind == FrameKind::Data {
            orig_len.saturating_sub(DATA_OVERHEAD_BYTES as u32)
        } else {
            0
        };
        let flags = header.fc.flags;
        let bssid = match (header.kind.class(), flags.to_ds, flags.from_ds) {
            (FrameClass::Data, true, false) => Some(header.receiver),
            (FrameClass::Data, false, true) => header.transmitter,
            _ => header.addr3,
        };
        FrameRecord {
            timestamp_us: meta.tsft_us,
            kind: header.kind,
            rate: meta.rate,
            channel: meta.channel,
            dst: header.receiver,
            src: header.transmitter,
            bssid,
            retry: header.fc.flags.retry,
            seq: header.seq.map(|s| s.seq),
            mac_bytes: orig_len,
            payload_bytes,
            signal_dbm: meta.signal_dbm,
            duration_us: header.duration,
        }
    }

    /// True for frames sent to a group address (no ACK expected).
    pub fn is_broadcast(&self) -> bool {
        self.dst.is_multicast()
    }

    /// The second (integer division of the timestamp) this frame falls in —
    /// the aggregation bucket used throughout the analysis.
    pub fn second(&self) -> u64 {
        self.timestamp_us / crate::timing::SECOND
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fc::FcFlags;
    use crate::frame::{Ack, Data, Frame, SeqCtl};
    use crate::radiotap::FLAG_FCS_AT_END;
    use crate::wire;

    fn meta(t: Micros, rate: Rate) -> CaptureMeta {
        CaptureMeta {
            tsft_us: t,
            flags: FLAG_FCS_AT_END,
            rate,
            channel: Channel::new(1).unwrap(),
            signal_dbm: -60,
            noise_dbm: -95,
            antenna: 0,
        }
    }

    /// The record a capture of `f` yields: its header parsed from the
    /// encoded bytes, untruncated.
    fn record(f: &Frame, meta: &CaptureMeta) -> FrameRecord {
        let bytes = wire::encode(f);
        let header = wire::parse_header(&bytes).unwrap();
        FrameRecord::from_header(&header, bytes.len() as u32, meta)
    }

    fn data_frame(payload: usize, retry: bool) -> Frame {
        Frame::Data(Data {
            flags: FcFlags {
                to_ds: true,
                retry,
                ..FcFlags::default()
            },
            duration: 314,
            addr1: MacAddr::from_id(1),
            addr2: MacAddr::from_id(2),
            addr3: MacAddr::from_id(1),
            seq: SeqCtl::new(99, 0),
            payload: vec![0xAB; payload],
            null: false,
        })
    }

    #[test]
    fn record_from_full_frame() {
        let f = data_frame(1000, true);
        let r = record(&f, &meta(2_500_000, Rate::R11));
        assert_eq!(r.kind, FrameKind::Data);
        assert_eq!(r.mac_bytes, 1028);
        assert_eq!(r.payload_bytes, 1000);
        assert!(r.retry);
        assert_eq!(r.seq, Some(99));
        assert_eq!(r.second(), 2);
        assert_eq!(r.src, Some(MacAddr::from_id(2)));
        assert_eq!(r.bssid, Some(MacAddr::from_id(1))); // to_ds: bssid = addr1
    }

    /// A from-DS data frame names its BSSID in addr2; addr3 is the source
    /// on the wired side, not the BSSID.
    #[test]
    fn from_ds_bssid_is_addr2() {
        let mut f = data_frame(100, false);
        if let Frame::Data(d) = &mut f {
            d.flags.to_ds = false;
            d.flags.from_ds = true;
            d.addr1 = MacAddr::from_id(5);
            d.addr2 = MacAddr::from_id(1);
            d.addr3 = MacAddr::from_id(77);
        }
        let r = record(&f, &meta(0, Rate::R11));
        assert_eq!(r.src, Some(MacAddr::from_id(1)));
        assert_eq!(r.bssid, Some(MacAddr::from_id(1)));
        assert_eq!(r.bssid, f.bssid());
    }

    #[test]
    fn record_from_truncated_header_recovers_payload_size() {
        let f = data_frame(1472, false);
        let bytes = wire::encode(&f);
        let orig_len = bytes.len() as u32;
        let header = wire::parse_header(&bytes[..250]).unwrap();
        let r = FrameRecord::from_header(&header, orig_len, &meta(0, Rate::R5_5));
        assert_eq!(r.mac_bytes, 1500);
        assert_eq!(r.payload_bytes, 1472);
        assert_eq!(r.rate, Rate::R5_5);
    }

    #[test]
    fn ack_record_has_no_src_or_payload() {
        let f = Frame::Ack(Ack {
            duration: 0,
            receiver: MacAddr::from_id(2),
        });
        let r = record(&f, &meta(10, Rate::R1));
        assert_eq!(r.src, None);
        assert_eq!(r.bssid, None);
        assert_eq!(r.payload_bytes, 0);
        assert_eq!(r.mac_bytes, 14);
        assert_eq!(r.seq, None);
    }

    #[test]
    fn broadcast_detection() {
        let mut f = data_frame(10, false);
        if let Frame::Data(d) = &mut f {
            d.addr1 = MacAddr::BROADCAST;
        }
        let r = record(&f, &meta(0, Rate::R1));
        assert!(r.is_broadcast());
    }

    #[test]
    fn second_bucketing_boundaries() {
        let f = data_frame(0, false);
        assert_eq!(record(&f, &meta(999_999, Rate::R1)).second(), 0);
        assert_eq!(record(&f, &meta(1_000_000, Rate::R1)).second(), 1);
    }
}
