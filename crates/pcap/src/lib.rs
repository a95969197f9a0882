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
//! Each container has one decoder, [`PcapStream`] or [`PcapNgStream`]. It
//! resynchronizes past damage and accounts for every skip in an
//! [`IngestReport`], so a capture is read with its damage counted, not
//! refused; a file we wrote reads back with a clean report. See [`stream`].
//!
//! ```
//! use wifi_pcap::{LinkType, PcapStream, PcapWriter};
//!
//! let mut buf = Vec::new();
//! {
//!     let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 250).unwrap();
//!     w.write_packet(1_000_000, &[0xB4, 0x00, 0x12, 0x34]).unwrap();
//! }
//! let mut r = PcapStream::new(&buf[..]).unwrap();
//! let pkt = r.next_packet().unwrap().unwrap();
//! assert_eq!(pkt.timestamp_us, 1_000_000);
//! assert_eq!(pkt.data, [0xB4, 0x00, 0x12, 0x34]);
//! assert!(r.next_packet().unwrap().is_none() && r.report().is_clean());
//! ```

#![warn(missing_docs)]

pub mod chaos;
mod format;
pub mod lossy;
pub mod pcapng;
pub mod stream;
mod writer;

pub use format::{LinkType, PacketRef, PcapError, PcapPacket, MAGIC_BE, MAGIC_LE, MAGIC_NS_LE};
pub use lossy::{is_pcapng, IngestReport};
pub use pcapng::{NgPacket, NgPacketRef, PcapNgWriter};
pub use stream::{ChunkedSource, FillStatus, PcapNgStream, PcapStream, Polled};
pub use writer::PcapWriter;

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// Writes packets (already in `(timestamp_us, bytes)` form) to a pcap file.
pub fn write_file<'a>(
    path: &Path,
    link: LinkType,
    snaplen: u32,
    packets: impl IntoIterator<Item = (u64, &'a [u8])>,
) -> Result<(), PcapError> {
    let file = File::create(path)?;
    let mut writer = PcapWriter::new(BufWriter::new(file), link, snaplen)?;
    for (ts, data) in packets {
        writer.write_packet(ts, data)?;
    }
    writer.flush()?;
    Ok(())
}
