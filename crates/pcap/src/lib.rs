//! # wifi-pcap
//!
//! A from-scratch implementation of the classic libpcap and the pcapng
//! capture-file formats, sufficient to persist and re-read the sniffer
//! traces of the congestion study.
//!
//! Supports:
//!
//! * both byte orders (the magic number disambiguates),
//! * microsecond and nanosecond timestamp variants,
//! * snap-length truncation on write (the study used a 250-byte snaplen),
//! * streaming reads and writes over any [`std::io::Read`]/[`std::io::Write`].
//!
//! One decoder, [`PcapStream`], reads both containers: it detects the
//! container from the leading magic, and yields every record as a
//! [`PacketRef`] carrying its link type, timestamp, original length and
//! captured bytes. It resynchronizes past damage and accounts for every
//! skip in an [`IngestReport`], so a capture is read with its damage
//! counted, not refused; a file we wrote reads back with a clean report.
//! See [`stream`]. Both writers, [`PcapWriter`] and [`PcapNgWriter`], take
//! each record's original length, so a truncated capture copies across
//! containers whole.
//!
//! ```
//! use wifi_pcap::{LinkType, PcapNgWriter, PcapStream, PcapWriter};
//!
//! // A 1 500-byte frame, captured at the study's 250-byte snap length.
//! let frame = [0xB4; 1500];
//! let mut classic = Vec::new();
//! let mut w = PcapWriter::new(&mut classic, LinkType::Radiotap, 250).unwrap();
//! w.write_packet(1_000_000, &frame, 1500).unwrap();
//!
//! // Copied into pcapng with its original length.
//! let mut ng = Vec::new();
//! let mut r = PcapStream::new(&classic[..]).unwrap();
//! let mut w = PcapNgWriter::new(&mut ng, LinkType::Radiotap, 0).unwrap();
//! while let Some(p) = r.next_packet().unwrap() {
//!     w.write_packet(p.timestamp_us, p.data, p.orig_len).unwrap();
//! }
//!
//! // The same decoder reads both containers.
//! for bytes in [&classic, &ng] {
//!     let mut r = PcapStream::new(&bytes[..]).unwrap();
//!     let pkt = r.next_packet().unwrap().unwrap();
//!     assert_eq!(pkt.link, LinkType::Radiotap);
//!     assert_eq!((pkt.timestamp_us, pkt.orig_len), (1_000_000, 1500));
//!     assert_eq!(pkt.data, &frame[..250]);
//!     assert!(r.next_packet().unwrap().is_none() && r.report().is_clean());
//! }
//! ```

#![warn(missing_docs)]

pub mod chaos;
mod format;
pub mod lossy;
pub mod pcapng;
pub mod stream;
mod writer;

pub use format::{LinkType, PacketRef, PcapError, MAGIC_BE, MAGIC_LE, MAGIC_NS_LE};
pub use lossy::IngestReport;
pub use pcapng::PcapNgWriter;
pub use stream::{PcapStream, Polled};
pub use writer::PcapWriter;
