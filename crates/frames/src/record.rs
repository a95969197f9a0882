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
    /// snaplen trace must do it. A data frame's BSSID follows its DS bits:
    /// addr1 when it goes to the AP, addr2 when it comes from it, addr3
    /// otherwise (no DS bit in an IBSS, both in a WDS link, whose addr4 is
    /// not read). Every other frame's BSSID is its addr3, when it has one.
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
    use crate::fc::{FcFlags, FrameControl};
    use crate::frame::SeqCtl;
    use crate::radiotap::FLAG_FCS_AT_END;

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

    fn sta(i: u32) -> MacAddr {
        MacAddr::from_id(i)
    }

    /// The header of a data frame from station 2 with addr1 = 1 and
    /// addr3 = 3, carrying the given DS bits.
    fn data_header(to_ds: bool, from_ds: bool, retry: bool) -> HeaderInfo {
        let mut fc = FrameControl::new(FrameKind::Data);
        fc.flags = FcFlags {
            to_ds,
            from_ds,
            retry,
            ..FcFlags::default()
        };
        HeaderInfo {
            kind: FrameKind::Data,
            fc,
            duration: 314,
            receiver: sta(1),
            transmitter: Some(sta(2)),
            addr3: Some(sta(3)),
            seq: Some(SeqCtl::new(99, 0)),
        }
    }

    #[test]
    fn record_from_data_header() {
        let h = data_header(true, false, true);
        let r = FrameRecord::from_header(&h, 1028, &meta(2_500_000, Rate::R11));
        assert_eq!(r.kind, FrameKind::Data);
        assert_eq!(r.mac_bytes, 1028);
        assert_eq!(r.payload_bytes, 1000);
        assert!(r.retry);
        assert_eq!(r.seq, Some(99));
        assert_eq!(r.second(), 2);
        assert_eq!(r.src, Some(sta(2)));
        assert_eq!(r.duration_us, 314);
        assert_eq!(r.rate, Rate::R11);
    }

    /// A data frame's BSSID follows its DS bits: addr1 to the AP, addr2
    /// from it (addr3 is then the source on the wired side), addr3 with no
    /// DS bit or with both.
    #[test]
    fn data_bssid_follows_ds_bits() {
        for ((to_ds, from_ds), bssid) in [
            ((true, false), sta(1)),
            ((false, true), sta(2)),
            ((false, false), sta(3)),
            ((true, true), sta(3)),
        ] {
            let h = data_header(to_ds, from_ds, false);
            let r = FrameRecord::from_header(&h, 128, &meta(0, Rate::R11));
            assert_eq!(r.bssid, Some(bssid), "to_ds {to_ds} from_ds {from_ds}");
        }
    }

    /// Management frames ignore the DS bits: their BSSID is addr3.
    #[test]
    fn mgmt_bssid_is_addr3() {
        let mut h = data_header(true, false, false);
        h.kind = FrameKind::ProbeResponse;
        h.fc.kind = FrameKind::ProbeResponse;
        let r = FrameRecord::from_header(&h, 60, &meta(0, Rate::R1));
        assert_eq!(r.bssid, Some(sta(3)));
        assert_eq!(r.payload_bytes, 0);
    }

    #[test]
    fn payload_size_comes_from_the_original_length() {
        // A 250-byte snaplen capture of a 1500-byte frame: the header is all
        // that was kept, the original length gives the payload.
        let h = data_header(true, false, false);
        let r = FrameRecord::from_header(&h, 1500, &meta(0, Rate::R5_5));
        assert_eq!(r.mac_bytes, 1500);
        assert_eq!(r.payload_bytes, 1472);
        let r = FrameRecord::from_header(&h, 20, &meta(0, Rate::R5_5));
        assert_eq!(r.payload_bytes, 0, "an undersized length saturates");
    }

    #[test]
    fn ack_record_has_no_src_or_payload() {
        let h = HeaderInfo {
            kind: FrameKind::Ack,
            fc: FrameControl::new(FrameKind::Ack),
            duration: 0,
            receiver: sta(2),
            transmitter: None,
            addr3: None,
            seq: None,
        };
        let r = FrameRecord::from_header(&h, 14, &meta(10, Rate::R1));
        assert_eq!(r.src, None);
        assert_eq!(r.bssid, None);
        assert_eq!(r.payload_bytes, 0);
        assert_eq!(r.mac_bytes, 14);
        assert_eq!(r.seq, None);
    }

    #[test]
    fn broadcast_detection() {
        let mut h = data_header(false, true, false);
        h.receiver = MacAddr::BROADCAST;
        let r = FrameRecord::from_header(&h, 38, &meta(0, Rate::R1));
        assert!(r.is_broadcast());
    }

    #[test]
    fn second_bucketing_boundaries() {
        let h = data_header(true, false, false);
        let at = |t| FrameRecord::from_header(&h, 28, &meta(t, Rate::R1)).second();
        assert_eq!(at(999_999), 0);
        assert_eq!(at(1_000_000), 1);
    }
}
