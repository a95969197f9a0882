//! # wifi-frames
//!
//! IEEE 802.11 (b) MAC frame model, on-air serialization, radiotap capture
//! metadata, and 802.11b PHY/DCF timing — the shared vocabulary of the
//! congestion-study workspace.
//!
//! This crate underpins the reproduction of *Understanding Congestion in IEEE
//! 802.11b Wireless Networks* (Jardosh et al., IMC 2005):
//!
//! * [`frame::Frame`] / [`wire`] — typed frames and the exact transmitted
//!   octets, FCS included, plus header-only parsing for snaplen-truncated
//!   captures.
//! * [`radiotap`] — the per-frame metadata an RFMon sniffer records.
//! * [`timing`] — Table 2 of the paper (delay components), the channel
//!   busy-time charges of Equations 2–6, and the standard DCF parameter set
//!   used by the simulator.
//! * [`record::FrameRecord`] — the compact representation the analysis
//!   pipeline consumes.
//!
//! ## Example
//!
//! ```
//! use wifi_frames::frame::{Data, Frame, SeqCtl};
//! use wifi_frames::fc::FcFlags;
//! use wifi_frames::mac::MacAddr;
//! use wifi_frames::phy::Rate;
//! use wifi_frames::{timing, wire};
//!
//! let frame = Frame::Data(Data {
//!     flags: FcFlags::default(),
//!     duration: 0,
//!     addr1: MacAddr::from_id(1),
//!     addr2: MacAddr::from_id(2),
//!     addr3: MacAddr::from_id(1),
//!     seq: SeqCtl::new(0, 0),
//!     payload: vec![0; 1472],
//!     null: false,
//! });
//! let bytes = wire::encode(&frame);
//! assert_eq!(bytes.len(), 1500);
//! assert_eq!(wire::parse(&bytes).unwrap(), frame);
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
pub use frame::Frame;
pub use mac::MacAddr;
pub use phy::{Channel, Preamble, Rate};
pub use record::FrameRecord;
pub use timing::{Micros, SECOND};
