//! The simulator's lightweight frame descriptor.
//!
//! Frame bytes are only materialized, from the captured [`FrameRecord`]s by
//! [`wifi_frames::wire::encode`], when a trace is exported to pcap; on the
//! hot path the simulator moves [`SimFrame`] descriptors, which carry
//! exactly the fields the MAC rules and the analysis need.

use wifi_frames::fc::FrameKind;
use wifi_frames::frame;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Rate};
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;

/// A frame in flight inside the simulator.
#[derive(Clone, Debug)]
pub struct SimFrame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Transmitter address (absent for CTS/ACK, as on air).
    pub src: Option<MacAddr>,
    /// Receiver address.
    pub dst: MacAddr,
    /// BSSID, when the frame carries one.
    pub bssid: Option<MacAddr>,
    /// Retry flag.
    pub retry: bool,
    /// Sequence number, for data/management frames.
    pub seq: Option<u16>,
    /// NAV duration field, microseconds.
    pub duration_us: u16,
    /// Data payload bytes (zero except for data frames).
    pub payload_bytes: u32,
    /// Total MAC frame bytes on air, FCS included.
    pub mac_bytes: u32,
    /// True for to-DS (client→AP) data frames; false for from-DS.
    pub to_ds: bool,
    /// More fragments of this MSDU follow (fragment bursts).
    pub more_frag: bool,
    /// Fragment number within the MSDU.
    pub frag: u8,
}

impl SimFrame {
    /// A data frame descriptor.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        src: MacAddr,
        dst: MacAddr,
        bssid: MacAddr,
        seq: u16,
        payload_bytes: u32,
        retry: bool,
        duration_us: u16,
        to_ds: bool,
    ) -> SimFrame {
        SimFrame {
            kind: FrameKind::Data,
            src: Some(src),
            dst,
            bssid: Some(bssid),
            retry,
            seq: Some(seq),
            duration_us,
            payload_bytes,
            mac_bytes: frame::DATA_OVERHEAD_BYTES as u32 + payload_bytes,
            to_ds,
            more_frag: false,
            frag: 0,
        }
    }

    /// A data-fragment descriptor: one fragment of a larger MSDU.
    #[allow(clippy::too_many_arguments)]
    pub fn data_fragment(
        src: MacAddr,
        dst: MacAddr,
        bssid: MacAddr,
        seq: u16,
        frag: u8,
        payload_bytes: u32,
        retry: bool,
        duration_us: u16,
        to_ds: bool,
        more_frag: bool,
    ) -> SimFrame {
        let mut f = SimFrame::data(
            src,
            dst,
            bssid,
            seq,
            payload_bytes,
            retry,
            duration_us,
            to_ds,
        );
        f.frag = frag;
        f.more_frag = more_frag;
        f
    }

    /// An RTS descriptor.
    pub fn rts(src: MacAddr, dst: MacAddr, duration_us: u16) -> SimFrame {
        SimFrame {
            kind: FrameKind::Rts,
            src: Some(src),
            dst,
            bssid: None,
            retry: false,
            seq: None,
            duration_us,
            payload_bytes: 0,
            mac_bytes: frame::RTS_BYTES as u32,
            to_ds: false,
            more_frag: false,
            frag: 0,
        }
    }

    /// A CTS descriptor.
    pub fn cts(dst: MacAddr, duration_us: u16) -> SimFrame {
        SimFrame {
            kind: FrameKind::Cts,
            src: None,
            dst,
            bssid: None,
            retry: false,
            seq: None,
            duration_us,
            payload_bytes: 0,
            mac_bytes: frame::CTS_BYTES as u32,
            to_ds: false,
            more_frag: false,
            frag: 0,
        }
    }

    /// An ACK descriptor.
    pub fn ack(dst: MacAddr) -> SimFrame {
        SimFrame {
            kind: FrameKind::Ack,
            src: None,
            dst,
            bssid: None,
            retry: false,
            seq: None,
            duration_us: 0,
            payload_bytes: 0,
            mac_bytes: frame::ACK_BYTES as u32,
            to_ds: false,
            more_frag: false,
            frag: 0,
        }
    }

    /// A beacon descriptor. `body_bytes` is the management body size, which
    /// depends on the SSID length.
    pub fn beacon(ap: MacAddr, seq: u16, body_bytes: u32) -> SimFrame {
        SimFrame {
            kind: FrameKind::Beacon,
            src: Some(ap),
            dst: MacAddr::BROADCAST,
            bssid: Some(ap),
            retry: false,
            seq: Some(seq),
            duration_us: 0,
            payload_bytes: 0,
            mac_bytes: frame::MGMT_OVERHEAD_BYTES as u32 + body_bytes,
            to_ds: false,
            more_frag: false,
            frag: 0,
        }
    }

    /// A management frame descriptor (association handshake, etc.).
    #[allow(clippy::too_many_arguments)]
    pub fn mgmt(
        kind: FrameKind,
        src: MacAddr,
        dst: MacAddr,
        bssid: MacAddr,
        seq: u16,
        body_bytes: u32,
        retry: bool,
        duration_us: u16,
    ) -> SimFrame {
        SimFrame {
            kind,
            src: Some(src),
            dst,
            bssid: Some(bssid),
            retry,
            seq: Some(seq),
            duration_us,
            payload_bytes: 0,
            mac_bytes: frame::MGMT_OVERHEAD_BYTES as u32 + body_bytes,
            to_ds: false,
            more_frag: false,
            frag: 0,
        }
    }

    /// True when no ACK is expected (group-addressed).
    pub fn is_broadcast(&self) -> bool {
        self.dst.is_multicast()
    }

    /// Converts to the analysis record given capture context.
    pub fn to_record(
        &self,
        timestamp_us: Micros,
        rate: Rate,
        channel: Channel,
        signal_dbm: i8,
    ) -> FrameRecord {
        FrameRecord {
            timestamp_us,
            kind: self.kind,
            rate,
            channel,
            dst: self.dst,
            src: self.src,
            bssid: self.bssid,
            retry: self.retry,
            seq: self.seq,
            mac_bytes: self.mac_bytes,
            payload_bytes: self.payload_bytes,
            signal_dbm,
            duration_us: self.duration_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> MacAddr {
        MacAddr::from_id(i)
    }

    #[test]
    fn data_descriptor_sizes() {
        let f = SimFrame::data(a(1), a(2), a(3), 7, 1472, false, 314, true);
        assert_eq!(f.mac_bytes, 1500);
        assert_eq!(f.payload_bytes, 1472);
        assert!(!f.is_broadcast());
    }

    #[test]
    fn control_descriptor_sizes() {
        assert_eq!(SimFrame::rts(a(1), a(2), 100).mac_bytes, 20);
        assert_eq!(SimFrame::cts(a(1), 50).mac_bytes, 14);
        assert_eq!(SimFrame::ack(a(1)).mac_bytes, 14);
    }

    #[test]
    fn beacon_is_broadcast() {
        let b = SimFrame::beacon(a(5), 3, 29);
        assert!(b.is_broadcast());
        assert_eq!(b.mac_bytes, 57);
    }

    #[test]
    fn record_conversion_carries_fields() {
        let f = SimFrame::data(a(1), a(2), a(3), 42, 800, true, 314, false);
        let ch = Channel::new(6).unwrap();
        let r = f.to_record(5_000_000, Rate::R5_5, ch, -55);
        assert_eq!(r.timestamp_us, 5_000_000);
        assert_eq!(r.kind, FrameKind::Data);
        assert_eq!(r.rate, Rate::R5_5);
        assert_eq!(r.seq, Some(42));
        assert!(r.retry);
        assert_eq!(r.mac_bytes, 828);
        assert_eq!(r.payload_bytes, 800);
        assert_eq!(r.signal_dbm, -55);
    }
}
