//! # wifi-frames
//!
//! IEEE 802.11 (b) frame records, their on-air serialization, radiotap
//! capture metadata, and 802.11b PHY/DCF timing — the shared vocabulary of
//! the congestion-study workspace.
//!
//! This crate underpins the reproduction of *Understanding Congestion in IEEE
//! 802.11b Wireless Networks* (Jardosh et al., IMC 2005):
//!
//! * [`record::FrameRecord`] — the compact per-frame summary the simulator
//!   emits and the analysis pipeline consumes: the MAC header plus the
//!   frame's original length, all a 250-byte snaplen sniffer keeps.
//! * [`wire`] — a record's exact transmitted octets, FCS included, and the
//!   header-only parser that reads them back from truncated captures.
//! * [`radiotap`] — the per-frame metadata an RFMon sniffer records.
//! * [`timing`] — Table 2 of the paper (delay components), the channel
//!   busy-time charges of Equations 2–6, and the standard DCF parameter set
//!   used by the simulator.
//!
//! ## Example
//!
//! ```
//! use wifi_frames::mac::MacAddr;
//! use wifi_frames::phy::{Channel, Rate};
//! use wifi_frames::radiotap::CaptureMeta;
//! use wifi_frames::{timing, wire, FrameKind, FrameRecord};
//!
//! let record = FrameRecord {
//!     timestamp_us: 1_000,
//!     kind: FrameKind::Data,
//!     rate: Rate::R11,
//!     channel: Channel::new(6).unwrap(),
//!     dst: MacAddr::from_id(1),
//!     src: Some(MacAddr::from_id(2)),
//!     bssid: Some(MacAddr::from_id(1)),
//!     retry: false,
//!     seq: Some(7),
//!     mac_bytes: 1500,
//!     payload_bytes: 1472,
//!     signal_dbm: -60,
//!     duration_us: 314,
//! };
//! let bytes = wire::encode(&record);
//! assert_eq!(bytes.len(), 1500);
//!
//! // A sniffer with the study's 250-byte snap length keeps the header and
//! // the original length; the record comes back whole.
//! let header = wire::parse_header(&bytes[..250]).unwrap();
//! let meta = CaptureMeta {
//!     tsft_us: record.timestamp_us,
//!     flags: 0,
//!     rate: record.rate,
//!     channel: record.channel,
//!     signal_dbm: record.signal_dbm,
//!     noise_dbm: -95,
//!     antenna: 0,
//! };
//! assert_eq!(FrameRecord::from_header(&header, 1500, &meta), record);
//!
//! // The paper's busy-time charge for this frame at 11 Mbps:
//! let cbt = timing::cbt::data(1472, Rate::R11);
//! assert_eq!(cbt, 50 + 192 + 1096);
//! ```

#![warn(missing_docs)]

pub mod fc;
pub mod fcs;
pub mod frame;
pub mod mac;
pub mod phy;
pub mod radiotap;
pub mod record;
pub mod timing;
pub mod wire;

pub use fc::{FcFlags, FrameClass, FrameControl, FrameKind};
pub use mac::MacAddr;
pub use phy::{Channel, Preamble, Rate};
pub use record::FrameRecord;
pub use timing::{Micros, SECOND};
