//! The one capture decoder.
//!
//! [`PcapStream`] reads both capture containers, classic pcap and pcapng,
//! in a single decode loop over a **bounded rolling window** fed from any
//! [`Read`] source, so a multi-gigabyte sniffer trace decodes in O(window)
//! memory. It detects the container from the leading magic. The decoder
//! skips damage, resynchronizes, and accounts for every skip in an
//! [`IngestReport`], so an undamaged file reads with a clean report. Each
//! container's head check decides what is damage and names it with a typed
//! [`PcapError`]; the only errors a stream returns are an unusable classic
//! global header and source I/O.
//!
//! # The window invariant
//!
//! Every structural decision the head checks make — "does this record's
//! body run past end-of-stream?", "does the stream end exactly after this
//! candidate?", "is the following header also sane?" — looks at most
//! `2 * MAX_SANE_CAPLEN + 64` bytes past the current position:
//!
//! * a classic record occupies at most `RECORD_HEADER_LEN +
//!   MAX_SANE_CAPLEN` bytes, and resync double-confirmation peeks one more
//!   record header past it;
//! * a pcapng block occupies at most `2 * MAX_SANE_CAPLEN` bytes (longer
//!   lengths are rejected as [`PcapError::OversizedRecord`]).
//!
//! The window guarantees that after a refill it holds at least that many
//! bytes *or* the source is exhausted and the window is exactly the
//! remainder of the stream. Under that invariant every boundary test
//! against `window.len()` means precisely what it would mean against the
//! whole remaining stream, so the decisions — including every
//! [`IngestReport`] counter — are the same for *any* chunking of the
//! underlying reads. The tests at the bottom enforce this by differencing
//! byte-at-a-time and coarser reads against whole-buffer reads over clean
//! and chaos-corrupted captures of both containers.
//!
//! # Live (non-blocking) sources
//!
//! A tailed live capture cannot satisfy the invariant: the last bytes of a
//! growing file are a partial window with no end-of-stream in sight. A
//! source that returns [`std::io::ErrorKind::WouldBlock`] leaves the window
//! partial, and [`PcapStream::poll_packet`] then follows one rule: on a
//! partial window, either act on a **fully-validated in-window record or
//! block** (a decision unchanged by any extension of the window, so a
//! decode of the final bytes makes it identically) or change nothing and
//! report [`Polled::Pending`]. Damage — a resync or a skipped block —
//! always waits for a full (or end-of-stream) window. Consequently a
//! poll-driven decode of a growing file converges, byte-for-byte in records
//! and accounting, to the decode of the final file contents.

use crate::format::{
    u16_at, u32_at, LinkType, PacketRef, PcapError, GLOBAL_HEADER_LEN, MAGIC_BE, MAGIC_LE,
    MAGIC_NS_BE, MAGIC_NS_LE, MAX_SANE_CAPLEN, RECORD_HEADER_LEN,
};
use crate::lossy::IngestReport;
use crate::pcapng::{
    parse_idb, parse_packet_block, Interface, BT_EPB, BT_IDB, BT_SHB, BT_SPB, BYTE_ORDER_MAGIC,
};
use std::io::Read;
use std::ops::Range;

/// Resync plausibility: a candidate record's whole-seconds timestamp must be
/// within this many seconds of the last good record (captures are sessions,
/// not decades).
const RESYNC_TS_TOLERANCE_S: u64 = 86_400;

/// The minimum number of bytes a non-exhausted window must hold: the
/// largest lookahead any head check needs (see the module docs).
pub const WINDOW_TARGET: usize = 2 * (MAX_SANE_CAPLEN as usize) + 64;

/// Refill high-water mark: topping up to twice the window target halves the
/// number of compaction memmoves per byte consumed.
const REFILL_TARGET: usize = 2 * WINDOW_TARGET;

/// Granularity of reads from the underlying source.
const READ_CHUNK: usize = 64 * 1024;

/// What a [`ChunkedSource::fill`] achieved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FillStatus {
    /// The window invariant holds: at least [`WINDOW_TARGET`] bytes, or
    /// end-of-stream with the window the exact remainder.
    Full,
    /// The source would block: the window is a prefix (possibly empty) of
    /// the eventual remainder and must not drive structural decisions.
    Partial,
}

/// Outcome of a single non-blocking [`PcapStream::poll_packet`].
#[derive(Debug)]
pub enum Polled<T> {
    /// The next surviving record.
    Packet(T),
    /// The source would block before enough bytes were visible to decide;
    /// nothing changed — poll again once the source may have more bytes.
    Pending,
    /// True end of stream.
    End,
}

/// A bounded rolling byte window over any [`Read`] source.
///
/// Invariant: after [`ChunkedSource::fill`] returns [`FillStatus::Full`],
/// either the window holds at least [`WINDOW_TARGET`] bytes, or
/// `eof` is true and the window is exactly the unconsumed remainder of the
/// stream.
struct ChunkedSource<R> {
    inner: R,
    /// Reads land here in place. Its capacity, reserved at construction,
    /// is `REFILL_TARGET + READ_CHUNK` bytes, the most a refill can hold;
    /// its length grows into it as reads first reach each byte.
    buf: Vec<u8>,
    /// Start of the unconsumed window.
    pos: usize,
    /// End of the bytes read so far: the window is `buf[pos..end]`.
    end: usize,
    /// The source has reported end-of-stream; the window then holds
    /// exactly the remaining bytes.
    eof: bool,
}

impl<R: Read> ChunkedSource<R> {
    /// Wraps a byte source. No bytes are read until the first [`fill`].
    ///
    /// [`fill`]: ChunkedSource::fill
    fn new(inner: R) -> ChunkedSource<R> {
        ChunkedSource {
            inner,
            buf: Vec::with_capacity(REFILL_TARGET + READ_CHUNK),
            pos: 0,
            end: 0,
            eof: false,
        }
    }

    /// Tops the window up to at least [`WINDOW_TARGET`] bytes (reading ahead
    /// to twice that), unless the source is exhausted first. Cheap no-op when
    /// the window is already full enough.
    ///
    /// A source that returns [`std::io::ErrorKind::WouldBlock`] before the
    /// target is met yields [`FillStatus::Partial`]: the window then holds a
    /// prefix of the eventual remainder and the invariant does **not** hold.
    /// Blocking sources never produce `Partial`.
    fn fill(&mut self) -> Result<FillStatus, PcapError> {
        if self.eof || self.end - self.pos >= WINDOW_TARGET {
            return Ok(FillStatus::Full);
        }
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        while self.end < REFILL_TARGET {
            if self.buf.len() < self.end + READ_CHUNK {
                // Within the capacity reserved at construction: zeroes only
                // bytes no read has reached yet, and never reallocates.
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
            match self
                .inner
                .read(&mut self.buf[self.end..self.end + READ_CHUNK])
            {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(if self.end >= WINDOW_TARGET {
                        FillStatus::Full
                    } else {
                        FillStatus::Partial
                    });
                }
                Err(e) => return Err(PcapError::Io(e)),
            }
        }
        Ok(FillStatus::Full)
    }

    /// The bytes currently visible at the stream position.
    fn window(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    /// Advances the stream position by `n` bytes (which must be within the
    /// current window).
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.pos);
        self.pos += n;
    }
}

/// Fills `src` until its window holds `n` bytes or the window invariant
/// holds; on a live source, waits for the bytes to arrive or the source to
/// end.
fn wait_for<R: Read>(src: &mut ChunkedSource<R>, n: usize) -> Result<&[u8], PcapError> {
    while src.fill()? == FillStatus::Partial && src.window().len() < n {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Ok(src.window())
}

struct ClassicHeader {
    big_endian: bool,
    nanos: bool,
    link: LinkType,
}

fn parse_global_header(bytes: &[u8]) -> Result<ClassicHeader, PcapError> {
    if bytes.len() < GLOBAL_HEADER_LEN {
        return Err(PcapError::TruncatedFile);
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let (big_endian, nanos) = match magic {
        MAGIC_LE => (false, false),
        MAGIC_NS_LE => (false, true),
        MAGIC_BE => (true, false),
        MAGIC_NS_BE => (true, true),
        other => return Err(PcapError::BadMagic(other)),
    };
    let major = u16_at(big_endian, bytes, 4);
    if major != 2 {
        let minor = u16_at(big_endian, bytes, 6);
        return Err(PcapError::UnsupportedVersion(major, minor));
    }
    Ok(ClassicHeader {
        big_endian,
        nanos,
        link: LinkType::from_code(u32_at(big_endian, bytes, 20)),
    })
}

/// A sane record at the window head. Its bytes are located by offsets, not
/// borrowed, so the decoder can keep moving the window until it emits.
pub(crate) struct Record {
    pub(crate) link: LinkType,
    pub(crate) timestamp_us: u64,
    pub(crate) orig_len: u32,
    /// The captured bytes' offsets from the window head.
    pub(crate) data: Range<usize>,
    /// One past the record's last byte.
    pub(crate) end: usize,
}

/// Record validation at the window head: a whole header, sane lengths,
/// the body inside the stream. [`PcapError::TruncatedFile`] means the
/// stream ends inside the record.
fn record_head(w: &[u8], h: &ClassicHeader) -> Result<Record, PcapError> {
    if w.len() < RECORD_HEADER_LEN {
        return Err(PcapError::TruncatedFile);
    }
    let ts_sec = u32_at(h.big_endian, w, 0) as u64;
    let ts_frac = u32_at(h.big_endian, w, 4) as u64;
    let caplen = u32_at(h.big_endian, w, 8);
    let orig_len = u32_at(h.big_endian, w, 12);
    if caplen > MAX_SANE_CAPLEN {
        return Err(PcapError::OversizedRecord(caplen));
    }
    if caplen > orig_len {
        return Err(PcapError::InconsistentLengths { caplen, orig_len });
    }
    let end = RECORD_HEADER_LEN + caplen as usize;
    if end > w.len() {
        return Err(PcapError::TruncatedFile);
    }
    let micros = if h.nanos { ts_frac / 1000 } else { ts_frac };
    Ok(Record {
        link: h.link,
        timestamp_us: ts_sec * 1_000_000 + micros,
        orig_len,
        data: RECORD_HEADER_LEN..end,
        end,
    })
}

/// Resync plausibility at the window head: stricter than [`record_head`] so
/// a scan does not lock onto payload bytes that merely look like a header.
fn plausible_record(w: &[u8], h: &ClassicHeader, last_sec: Option<u64>) -> bool {
    if w.len() < RECORD_HEADER_LEN {
        return false;
    }
    let ts_sec = u32_at(h.big_endian, w, 0) as u64;
    let ts_frac = u32_at(h.big_endian, w, 4) as u64;
    let caplen = u32_at(h.big_endian, w, 8);
    let orig_len = u32_at(h.big_endian, w, 12);
    let frac_bound = if h.nanos { 1_000_000_000 } else { 1_000_000 };
    if ts_frac >= frac_bound
        || caplen > MAX_SANE_CAPLEN
        || caplen > orig_len
        || orig_len > MAX_SANE_CAPLEN
    {
        return false;
    }
    if let Some(last) = last_sec {
        if ts_sec.abs_diff(last) > RESYNC_TS_TOLERANCE_S {
            return false;
        }
    }
    let next = RECORD_HEADER_LEN + caplen as usize;
    if next > w.len() {
        return false;
    }
    // Double confirmation: the stream must end exactly here, or the next
    // header must also look sane. (`next == w.len()` implies eof: a
    // non-exhausted window always holds more than one record's lookahead.)
    if next == w.len() {
        return true;
    }
    if next + RECORD_HEADER_LEN > w.len() {
        return false; // trailing sliver that can't be a record
    }
    let n_frac = u32_at(h.big_endian, w, next + 4) as u64;
    let n_caplen = u32_at(h.big_endian, w, next + 8);
    let n_orig = u32_at(h.big_endian, w, next + 12);
    n_frac < frac_bound && n_caplen <= MAX_SANE_CAPLEN && n_caplen <= n_orig
}

/// True when the bytes lead with a pcapng Section Header Block. The SHB
/// type bytes are byte-order palindromic, so one comparison covers both
/// endiannesses.
fn is_pcapng(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) == BT_SHB
}

/// Block framing at the window head, shared by in-stride parsing and
/// resync scanning: lead length in range and aligned, body inside the
/// stream, trailing length equal to the lead. Returns the total length.
fn ng_block_sane(w: &[u8], big_endian: bool) -> Result<usize, PcapError> {
    if w.len() < 8 {
        return Err(PcapError::TruncatedFile);
    }
    let total_len = u32_at(big_endian, w, 4);
    if total_len < 12 || !total_len.is_multiple_of(4) {
        return Err(PcapError::BadBlockLength(total_len));
    }
    if total_len > MAX_SANE_CAPLEN * 2 {
        return Err(PcapError::OversizedRecord(total_len));
    }
    let end = total_len as usize;
    if end > w.len() {
        return Err(PcapError::TruncatedFile);
    }
    let trailing = u32_at(big_endian, w, end - 4);
    if trailing != total_len {
        return Err(PcapError::BadBlockLength(trailing));
    }
    Ok(end)
}

/// Validates a Section Header Block at the window head; returns
/// `(big_endian, total_len)`.
fn ng_shb_sane(w: &[u8]) -> Result<(bool, usize), PcapError> {
    if w.len() < 8 {
        return Err(PcapError::TruncatedFile);
    }
    let block_type = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    if block_type != BT_SHB {
        return Err(PcapError::BadMagic(block_type));
    }
    if w.len() < 12 {
        return Err(PcapError::TruncatedFile);
    }
    let big_endian = match u32::from_le_bytes([w[8], w[9], w[10], w[11]]) {
        BYTE_ORDER_MAGIC => false,
        m if m == BYTE_ORDER_MAGIC.swap_bytes() => true,
        other => return Err(PcapError::BadMagic(other)),
    };
    let declared = u32_at(big_endian, w, 4);
    if declared < 28 {
        return Err(PcapError::BadBlockLength(declared));
    }
    let total_len = ng_block_sane(w, big_endian)?;
    let major = u16_at(big_endian, w, 12);
    if major != 1 {
        let minor = u16_at(big_endian, w, 14);
        return Err(PcapError::UnsupportedVersion(major, minor));
    }
    Ok((big_endian, total_len))
}

/// A pcapng stream's state: the current section's byte order and
/// interfaces.
#[derive(Default)]
struct NgSection {
    big_endian: bool,
    /// A section has started, so blocks other than an SHB can be framed.
    started: bool,
    /// The section's interfaces by id; `None` keeps an unusable interface's
    /// slot so later ids still resolve.
    interfaces: Vec<Option<Interface>>,
}

impl NgSection {
    /// The pcapng head check. SHB first: its type bytes are palindromic, so
    /// it is identifiable before the byte order is known. Any other block
    /// needs a section to have started.
    fn head(&mut self, w: &[u8]) -> Head {
        if let Ok((big_endian, len)) = ng_shb_sane(w) {
            self.big_endian = big_endian;
            self.started = true;
            self.interfaces.clear();
            return Head::Block {
                len,
                abandoned: false,
            };
        }
        let len = match ng_block_sane(w, self.big_endian) {
            Ok(len) if self.started => len,
            _ => {
                return Head::Damage {
                    truncated: w.len() < 12,
                }
            }
        };
        match u32_at(self.big_endian, w, 0) {
            BT_IDB => {
                let iface = parse_idb(self.big_endian, &w[8..len - 4]).ok();
                self.interfaces.push(iface);
                Head::Block {
                    len,
                    abandoned: iface.is_none(),
                }
            }
            block_type @ (BT_EPB | BT_SPB) => {
                match parse_packet_block(block_type, self.big_endian, &w[..len], &self.interfaces) {
                    Ok(rec) => Head::Record(rec),
                    Err(_) => Head::Block {
                        len,
                        abandoned: true,
                    },
                }
            }
            // Unknown block types are skipped by length.
            _ => Head::Block {
                len,
                abandoned: false,
            },
        }
    }

    /// Resync plausibility: pcapng is self-framing, so a candidate is an
    /// SHB or, within a section, a known block whose two length copies
    /// agree.
    fn resync_candidate(&self, w: &[u8]) -> bool {
        ng_shb_sane(w).is_ok()
            || (self.started
                && matches!(u32_at(self.big_endian, w, 0), BT_IDB | BT_EPB | BT_SPB)
                && ng_block_sane(w, self.big_endian).is_ok())
    }
}

/// The container a stream decodes, with the state its head check keeps.
enum Container {
    Classic {
        header: ClassicHeader,
        /// Whole seconds of the last good record: the resync scan's anchor.
        last_sec: Option<u64>,
    },
    Ng(NgSection),
}

/// What a head check made of the bytes at the window head.
enum Head {
    /// A sane packet record.
    Record(Record),
    /// A sane block that yields no packet — a section or interface
    /// description, an unknown block type, or a packet block that does not
    /// decode — skipped by its length. `abandoned` counts it as damage.
    Block { len: usize, abandoned: bool },
    /// No sane record or block starts here. `truncated` is the container's
    /// truncated-tail rule: for classic pcap, the stream ends inside the
    /// record; for pcapng, too few bytes remain for any block.
    Damage { truncated: bool },
}

impl Container {
    /// The fewest bytes a record or block takes: a shorter window at end of
    /// stream is a sliver.
    fn min_head(&self) -> usize {
        match self {
            Container::Classic { .. } => RECORD_HEADER_LEN,
            // The smallest pcapng block: type, leading and trailing lengths.
            Container::Ng(_) => 12,
        }
    }

    /// The head check: classifies the bytes at the window head, updating
    /// the container state (last timestamp, section, interfaces) with what
    /// it accepts.
    fn head(&mut self, w: &[u8]) -> Head {
        match self {
            Container::Classic { header, last_sec } => match record_head(w, header) {
                Ok(rec) => {
                    *last_sec = Some(rec.timestamp_us / 1_000_000);
                    Head::Record(rec)
                }
                Err(e) => Head::Damage {
                    truncated: matches!(e, PcapError::TruncatedFile),
                },
            },
            Container::Ng(section) => section.head(w),
        }
    }

    /// Resync plausibility at the window head: classic pcap has no
    /// framing, so a candidate must pass [`plausible_record`].
    fn resync_candidate(&self, w: &[u8]) -> bool {
        match self {
            Container::Classic { header, last_sec } => plausible_record(w, header, *last_sec),
            Container::Ng(section) => section.resync_candidate(w),
        }
    }
}

/// The capture decoder for both containers over any byte stream, in
/// O(window) memory (see the module docs).
pub struct PcapStream<R> {
    src: ChunkedSource<R>,
    container: Container,
    report: IngestReport,
    just_resynced: bool,
    /// Mid-resync-scan across a [`Polled::Pending`] return: re-entry resumes
    /// the scan instead of re-counting the resync entry.
    resyncing: bool,
    /// Length of the record last emitted, consumed by the next call.
    pending: usize,
}

impl<R: Read> PcapStream<R> {
    /// Detects the container from the leading magic. A pcapng stream is
    /// validated as it goes: recovery can start at any Section Header
    /// Block. A classic global header is validated now — the one part of
    /// the file without which there is nothing to recover. On a live
    /// (`WouldBlock`) source this waits until the magic (and a classic
    /// header) arrive or the source ends.
    pub fn new(inner: R) -> Result<PcapStream<R>, PcapError> {
        let mut src = ChunkedSource::new(inner);
        let container = if is_pcapng(wait_for(&mut src, 4)?) {
            Container::Ng(NgSection::default())
        } else {
            let header = parse_global_header(wait_for(&mut src, GLOBAL_HEADER_LEN)?)?;
            src.consume(GLOBAL_HEADER_LEN);
            Container::Classic {
                header,
                last_sec: None,
            }
        };
        Ok(PcapStream {
            src,
            container,
            report: IngestReport::default(),
            just_resynced: false,
            resyncing: false,
            pending: 0,
        })
    }

    /// The classic global header's data-link type; `None` for pcapng, whose
    /// interfaces each declare their own. Every [`PacketRef`] carries its
    /// record's.
    pub fn link(&self) -> Option<LinkType> {
        match &self.container {
            Container::Classic { header, .. } => Some(header.link),
            Container::Ng(_) => None,
        }
    }

    /// The accounting so far; final once `next_packet` returns `Ok(None)`.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// The next surviving record; `Ok(None)` at end of stream. The returned
    /// [`PacketRef`] borrows the internal window and is invalidated by the
    /// next call.
    ///
    /// Blocking-source convenience over [`PcapStream::poll_packet`]: a
    /// non-blocking source that reports [`Polled::Pending`] surfaces here as
    /// a [`std::io::ErrorKind::WouldBlock`] error.
    pub fn next_packet(&mut self) -> Result<Option<PacketRef<'_>>, PcapError> {
        match self.poll_packet()? {
            Polled::Packet(p) => Ok(Some(p)),
            Polled::End => Ok(None),
            Polled::Pending => Err(PcapError::Io(std::io::ErrorKind::WouldBlock.into())),
        }
    }

    /// Non-blocking decode step; see the module docs on live sources. On
    /// [`Polled::Pending`] no observable state (position, accounting)
    /// changes, so any interleaving of polls converges to the decode of the
    /// final bytes.
    pub fn poll_packet(&mut self) -> Result<Polled<PacketRef<'_>>, PcapError> {
        self.src.consume(self.pending);
        self.pending = 0;
        let rec = loop {
            if self.resyncing {
                loop {
                    if self.src.fill()? == FillStatus::Partial {
                        return Ok(Polled::Pending);
                    }
                    let w = self.src.window();
                    if w.len() < self.container.min_head() {
                        // Trailing sliver too small for a record: the
                        // scan discards it without a truncated-tail flag.
                        self.report.bytes_skipped += w.len() as u64;
                        let n = w.len();
                        self.src.consume(n);
                        return Ok(Polled::End);
                    }
                    if self.container.resync_candidate(w) {
                        break;
                    }
                    self.src.consume(1);
                    self.report.bytes_skipped += 1;
                }
                self.resyncing = false;
                self.just_resynced = true;
            }
            let status = self.src.fill()?;
            let len = self.src.window().len();
            if len == 0 {
                return Ok(match status {
                    FillStatus::Full => Polled::End,
                    FillStatus::Partial => Polled::Pending,
                });
            }
            match self.container.head(self.src.window()) {
                // In-window sane record or block: a decode over any
                // extension of this window takes it identically, so acting
                // is safe even on a partial window.
                Head::Record(rec) => {
                    if self.just_resynced {
                        self.report.records_recovered += 1;
                        self.just_resynced = false;
                    } else {
                        self.report.records_ok += 1;
                    }
                    break rec;
                }
                Head::Block { len, abandoned } => {
                    self.report.blocks_skipped += u64::from(abandoned);
                    self.src.consume(len);
                }
                Head::Damage { .. } if status == FillStatus::Partial => {
                    // Bytes not yet arrived look truncated, and even a bad
                    // head must not count as damage before the scan's
                    // full-window lookahead is available.
                    return Ok(Polled::Pending);
                }
                Head::Damage { truncated } => {
                    self.report.truncated_tail |= truncated;
                    if len < self.container.min_head() {
                        // The window invariant makes this end-of-stream by
                        // construction: too few bytes for a record.
                        self.report.bytes_skipped += len as u64;
                        self.src.consume(len);
                        return Ok(Polled::End);
                    }
                    // Resync: the scan runs at the top of the outer loop.
                    self.report.resyncs += 1;
                    self.report.blocks_skipped += 1;
                    self.src.consume(1);
                    self.report.bytes_skipped += 1;
                    self.resyncing = true;
                }
            }
        };
        self.pending = rec.end;
        Ok(Polled::Packet(PacketRef {
            link: rec.link,
            timestamp_us: rec.timestamp_us,
            orig_len: rec.orig_len,
            data: &self.src.window()[rec.data],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{corrupt_bytes, ChaosConfig, ChaosRng};
    use crate::format::{MAGIC_LE, MAGIC_NS_LE};
    use crate::pcapng::PcapNgWriter;
    use crate::writer::PcapWriter;

    /// One decoded record: link, timestamp, original length, bytes.
    type Packet = (LinkType, u64, u32, Vec<u8>);

    fn owned(p: PacketRef<'_>) -> Packet {
        (p.link, p.timestamp_us, p.orig_len, p.data.to_vec())
    }

    /// A reader that hands out at most `max` bytes per call, to exercise
    /// every possible record-straddles-chunk-boundary alignment.
    struct SmallReads<'a> {
        bytes: &'a [u8],
        pos: usize,
        max: usize,
    }

    impl Read for SmallReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.max).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn small(bytes: &[u8], max: usize) -> SmallReads<'_> {
        SmallReads { bytes, pos: 0, max }
    }

    fn classic_file(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        for i in 0..n {
            let data: Vec<u8> = (0..40).map(|b| (b + i) as u8).collect();
            w.write_packet(1_000_000 + i as u64 * 1_000, &data, 40)
                .unwrap();
        }
        buf
    }

    fn ng_file(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        for i in 0..n {
            let data: Vec<u8> = (0..40).map(|b| (b + i) as u8).collect();
            w.write_packet(1_000_000 + i as u64 * 1_000, &data, 40)
                .unwrap();
        }
        buf
    }

    /// Every packet of a read through `max`-byte reads, and its report.
    fn stream(bytes: &[u8], max: usize) -> (Vec<Packet>, IngestReport) {
        let mut s = PcapStream::new(small(bytes, max)).unwrap();
        let mut out = Vec::new();
        while let Some(p) = s.next_packet().unwrap() {
            out.push(owned(p));
        }
        (out, *s.report())
    }

    #[test]
    fn classic_chunking_is_invisible_on_clean_files() {
        let buf = classic_file(60);
        let (batch, batch_report) = stream(&buf, usize::MAX);
        for max in [1, 7, 64, 4096] {
            let (pkts, report) = stream(&buf, max);
            assert_eq!(pkts, batch, "read granularity {max}");
            assert_eq!(report, batch_report, "read granularity {max}");
        }
        assert!(batch_report.is_clean());
    }

    #[test]
    fn ng_chunking_is_invisible_on_clean_files() {
        let buf = ng_file(60);
        let (batch, batch_report) = stream(&buf, usize::MAX);
        for max in [1, 7, 64, 4096] {
            let (pkts, report) = stream(&buf, max);
            assert_eq!(pkts, batch, "read granularity {max}");
            assert_eq!(report, batch_report, "read granularity {max}");
        }
        assert!(batch_report.is_clean());
    }

    #[test]
    fn classic_chunking_is_invisible_under_chaos() {
        for seed in 0..40u64 {
            let mut buf = classic_file(30);
            let mut rng = ChaosRng::new(seed);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, GLOBAL_HEADER_LEN, &cfg, &mut rng);
            let (batch, batch_report) = stream(&buf, usize::MAX);
            for max in [1, 13, 256] {
                let (pkts, report) = stream(&buf, max);
                assert_eq!(pkts, batch, "seed {seed} granularity {max}");
                assert_eq!(report, batch_report, "seed {seed} granularity {max}");
            }
        }
    }

    #[test]
    fn ng_chunking_is_invisible_under_chaos() {
        for seed in 0..40u64 {
            let mut buf = ng_file(30);
            let mut rng = ChaosRng::new(seed ^ 0xA5A5);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, 0, &cfg, &mut rng);
            let (batch, batch_report) = stream(&buf, usize::MAX);
            for max in [1, 13, 256] {
                let (pkts, report) = stream(&buf, max);
                assert_eq!(pkts, batch, "seed {seed} granularity {max}");
                assert_eq!(report, batch_report, "seed {seed} granularity {max}");
            }
        }
    }

    #[test]
    fn classic_stream_reports_header_errors() {
        assert!(matches!(
            PcapStream::new(&[0u8; 40][..]).err(),
            Some(PcapError::BadMagic(_))
        ));
        assert!(matches!(
            PcapStream::new(&[1u8, 2, 3][..]).err(),
            Some(PcapError::TruncatedFile)
        ));
    }

    #[test]
    fn link_is_the_classic_headers_or_each_interfaces() {
        let buf = classic_file(3);
        let mut s = PcapStream::new(&buf[..]).unwrap();
        assert_eq!(s.link(), Some(LinkType::Radiotap));
        let p = s.next_packet().unwrap().unwrap();
        assert_eq!(
            (p.link, p.timestamp_us, p.data.len()),
            (LinkType::Radiotap, 1_000_000, 40)
        );
        let buf = ng_file(3);
        let mut s = PcapStream::new(&buf[..]).unwrap();
        assert_eq!(s.link(), None);
        assert_eq!(s.next_packet().unwrap().unwrap().link, LinkType::Radiotap);
    }

    /// A reader that serves bytes in small slices with a `WouldBlock` error
    /// interleaved before every successful read, imitating a tailed file
    /// that grows while being polled.
    struct BlockyReads<'a> {
        bytes: &'a [u8],
        pos: usize,
        max: usize,
        block_next: bool,
    }

    impl Read for BlockyReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.block_next && self.pos < self.bytes.len() {
                self.block_next = false;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.block_next = true;
            let n = buf.len().min(self.max).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// [`stream`] through polls of a source that blocks before every read.
    fn poll(bytes: &[u8], max: usize) -> (Vec<Packet>, IngestReport) {
        let src = BlockyReads {
            bytes,
            pos: 0,
            max,
            block_next: true,
        };
        let mut s = PcapStream::new(src).unwrap();
        let mut out = Vec::new();
        loop {
            match s.poll_packet().unwrap() {
                Polled::Packet(p) => out.push(owned(p)),
                Polled::Pending => continue, // next poll sees more bytes
                Polled::End => break,
            }
        }
        (out, *s.report())
    }

    #[test]
    fn classic_polling_converges_to_batch_on_clean_files() {
        let buf = classic_file(60);
        let (batch, batch_report) = stream(&buf, usize::MAX);
        for max in [7, 64, 4096] {
            let (pkts, report) = poll(&buf, max);
            assert_eq!(pkts, batch, "granularity {max}");
            assert_eq!(report, batch_report, "granularity {max}");
        }
    }

    #[test]
    fn ng_polling_converges_to_batch_on_clean_files() {
        let buf = ng_file(60);
        let (batch, batch_report) = stream(&buf, usize::MAX);
        for max in [7, 64, 4096] {
            let (pkts, report) = poll(&buf, max);
            assert_eq!(pkts, batch, "granularity {max}");
            assert_eq!(report, batch_report, "granularity {max}");
        }
    }

    #[test]
    fn classic_polling_converges_to_batch_under_chaos() {
        for seed in 0..25u64 {
            let mut buf = classic_file(30);
            let mut rng = ChaosRng::new(seed);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, GLOBAL_HEADER_LEN, &cfg, &mut rng);
            let (batch, batch_report) = stream(&buf, usize::MAX);
            for max in [13, 256] {
                let (pkts, report) = poll(&buf, max);
                assert_eq!(pkts, batch, "seed {seed} granularity {max}");
                assert_eq!(report, batch_report, "seed {seed} granularity {max}");
            }
        }
    }

    #[test]
    fn ng_polling_converges_to_batch_under_chaos() {
        for seed in 0..25u64 {
            let mut buf = ng_file(30);
            let mut rng = ChaosRng::new(seed ^ 0x5A5A);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, 0, &cfg, &mut rng);
            let (batch, batch_report) = stream(&buf, usize::MAX);
            for max in [13, 256] {
                let (pkts, report) = poll(&buf, max);
                assert_eq!(pkts, batch, "seed {seed} granularity {max}");
                assert_eq!(report, batch_report, "seed {seed} granularity {max}");
            }
        }
    }

    #[test]
    fn next_packet_surfaces_pending_as_would_block() {
        let buf = classic_file(3);
        // A source that blocks forever after the header: next_packet must
        // fail with WouldBlock, not spin or misreport end-of-stream.
        struct HeaderThenBlock<'a>(&'a [u8], usize);
        impl Read for HeaderThenBlock<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= GLOBAL_HEADER_LEN {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = out.len().min(GLOBAL_HEADER_LEN - self.1);
                out[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
                self.1 += n;
                Ok(n)
            }
        }
        let mut s = PcapStream::new(HeaderThenBlock(&buf, 0)).unwrap();
        match s.next_packet() {
            Err(PcapError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            other => panic!("expected WouldBlock, got {other:?}"),
        }
        assert!(
            s.report().is_clean(),
            "a pending poll must not change accounting"
        );
    }

    /// A reader that cycles through a short read, `Interrupted`, an
    /// unbounded read and `WouldBlock`, as a pipe or a growing file might.
    struct ChoppyReads<'a> {
        bytes: &'a [u8],
        pos: usize,
        calls: usize,
    }

    impl Read for ChoppyReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let max = match self.calls % 4 {
                1 => 1 + self.calls % 5_000,
                2 => return Err(std::io::ErrorKind::Interrupted.into()),
                3 => usize::MAX,
                _ => return Err(std::io::ErrorKind::WouldBlock.into()),
            };
            let n = buf.len().min(max).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Drains `src` through fills and consumes of up to `take` bytes,
    /// checking the window invariant, the meaning of `Partial` and the
    /// buffer bound after every fill. Returns the bytes consumed and the
    /// number of `Partial` fills.
    fn drain_checked<R: Read>(mut src: ChunkedSource<R>, take: usize) -> (Vec<u8>, usize) {
        let mut seen = Vec::new();
        let mut partials = 0;
        loop {
            match src.fill().unwrap() {
                FillStatus::Full => assert!(
                    src.window().len() >= WINDOW_TARGET || src.eof,
                    "window invariant violated"
                ),
                FillStatus::Partial => {
                    assert!(src.window().len() < WINDOW_TARGET && !src.eof);
                    partials += 1;
                }
            }
            assert!(src.buf.capacity() <= REFILL_TARGET + READ_CHUNK);
            if src.eof && src.window().is_empty() {
                return (seen, partials);
            }
            let n = src.window().len().min(take);
            seen.extend_from_slice(&src.window()[..n]);
            src.consume(n);
        }
    }

    #[test]
    fn chunked_source_window_invariant_holds() {
        // A stream longer than two refills: every fill either tops the
        // window past WINDOW_TARGET or exhausts the source, reads land in a
        // buffer that never grows past REFILL_TARGET + READ_CHUNK bytes, and
        // no byte is lost or duplicated across refills.
        let bytes: Vec<u8> = (0..(2 * REFILL_TARGET + 1234))
            .map(|i| (i % 251) as u8)
            .collect();
        let (seen, partials) = drain_checked(ChunkedSource::new(small(&bytes, 50_000)), 100_000);
        assert_eq!(seen, bytes, "no bytes lost or duplicated across refills");
        assert_eq!(partials, 0, "a blocking source never yields Partial");

        // Consuming less than a fill reads lets the window cross
        // WINDOW_TARGET inside a fill that then meets WouldBlock: that fill
        // must report Full.
        let choppy = ChoppyReads {
            bytes: &bytes,
            pos: 0,
            calls: 0,
        };
        let (seen, partials) = drain_checked(ChunkedSource::new(choppy), 20_000);
        assert_eq!(seen, bytes, "no bytes lost or duplicated across refills");
        assert!(partials > 0, "WouldBlock below the target yields Partial");
    }

    // Head checks: the typed error each finds, and what the stream makes of
    // that damage.

    fn sample_file() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 250).unwrap();
        w.write_packet(1_500_000, &[1, 2, 3], 3).unwrap();
        w.write_packet(2_750_001, &[4; 10], 10).unwrap();
        buf
    }

    /// Offset of `sample_file`'s second record header.
    const SECOND_RECORD: usize = GLOBAL_HEADER_LEN + RECORD_HEADER_LEN + 3;

    /// `record_head` at `off` in a classic file.
    fn head_at(buf: &[u8], off: usize) -> Result<Record, PcapError> {
        record_head(&buf[off..], &parse_global_header(buf).unwrap())
    }

    #[test]
    fn reads_what_writer_wrote() {
        let buf = sample_file();
        let mut r = PcapStream::new(&buf[..]).unwrap();
        assert_eq!(r.link(), Some(LinkType::Radiotap));
        let p1 = r.next_packet().unwrap().unwrap();
        assert_eq!(p1.timestamp_us, 1_500_000);
        assert_eq!(p1.data, [1, 2, 3]);
        assert_eq!(p1.orig_len, 3);
        let p2 = r.next_packet().unwrap().unwrap();
        assert_eq!(p2.timestamp_us, 2_750_001);
        assert!(r.next_packet().unwrap().is_none());
        // EOF is sticky.
        assert!(r.next_packet().unwrap().is_none());
        assert!(r.report().is_clean());
    }

    #[test]
    fn rejects_garbage_magic() {
        let buf = vec![
            0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert!(matches!(
            PcapStream::new(&buf[..]).err(),
            Some(PcapError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_short_global_header() {
        let buf = sample_file();
        assert!(matches!(
            PcapStream::new(&buf[..10]).err(),
            Some(PcapError::TruncatedFile)
        ));
    }

    #[test]
    fn rejects_truncated_record_header() {
        let buf = sample_file();
        // Cut in the middle of the second record header.
        let cut = SECOND_RECORD + 4;
        assert!(matches!(
            head_at(&buf[..cut], SECOND_RECORD),
            Err(PcapError::TruncatedFile)
        ));
        let (pkts, report) = stream(&buf[..cut], usize::MAX);
        assert_eq!(pkts.len(), 1);
        assert!(report.truncated_tail && report.bytes_skipped == 4);
    }

    #[test]
    fn rejects_truncated_record_body() {
        let buf = sample_file();
        let cut = buf.len() - 2;
        assert!(matches!(
            head_at(&buf[..cut], SECOND_RECORD),
            Err(PcapError::TruncatedFile)
        ));
        let (pkts, report) = stream(&buf[..cut], usize::MAX);
        assert_eq!(pkts.len(), 1);
        assert!(report.truncated_tail);
    }

    #[test]
    fn reads_big_endian_files() {
        // Hand-build a big-endian µs file with one 2-byte packet.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_LE.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_be_bytes()); // sigfigs
        buf.extend_from_slice(&65535u32.to_be_bytes()); // snaplen
        buf.extend_from_slice(&127u32.to_be_bytes()); // linktype
        buf.extend_from_slice(&3u32.to_be_bytes()); // ts_sec
        buf.extend_from_slice(&14u32.to_be_bytes()); // ts_usec
        buf.extend_from_slice(&2u32.to_be_bytes()); // caplen
        buf.extend_from_slice(&2u32.to_be_bytes()); // orig_len
        buf.extend_from_slice(&[0xAA, 0xBB]);
        let mut r = PcapStream::new(&buf[..]).unwrap();
        assert_eq!(r.link(), Some(LinkType::Radiotap));
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.timestamp_us, 3_000_014);
        assert_eq!(p.data, [0xAA, 0xBB]);
        assert!(r.next_packet().unwrap().is_none() && r.report().is_clean());
    }

    #[test]
    fn reads_nanosecond_files() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NS_LE.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&65535u32.to_le_bytes());
        buf.extend_from_slice(&105u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // ts_sec
        buf.extend_from_slice(&999_999_000u32.to_le_bytes()); // ts_nsec
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0x42);
        let mut r = PcapStream::new(&buf[..]).unwrap();
        assert_eq!(r.link(), Some(LinkType::Ieee80211));
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.timestamp_us, 1_999_999);
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut buf = sample_file();
        buf[4] = 9; // version major
        assert!(matches!(
            PcapStream::new(&buf[..]).err(),
            Some(PcapError::UnsupportedVersion(9, 4))
        ));
    }

    #[test]
    fn rejects_oversized_record() {
        let mut buf = sample_file();
        // Patch the first record's caplen to something absurd.
        let off = GLOBAL_HEADER_LEN + 8;
        buf[off..off + 4].copy_from_slice(&(MAX_SANE_CAPLEN + 1).to_le_bytes());
        assert!(matches!(
            head_at(&buf, GLOBAL_HEADER_LEN),
            Err(PcapError::OversizedRecord(n)) if n == MAX_SANE_CAPLEN + 1
        ));
        let (pkts, report) = stream(&buf, usize::MAX);
        assert_eq!(pkts.len(), 1, "the scan recovers the second record");
        assert_eq!((report.resyncs, report.records_recovered), (1, 1));
    }

    #[test]
    fn rejects_caplen_exceeding_origlen() {
        let mut buf = sample_file();
        let off = GLOBAL_HEADER_LEN + 12;
        buf[off..off + 4].copy_from_slice(&1u32.to_le_bytes()); // orig_len = 1 < caplen = 3
        assert!(matches!(
            head_at(&buf, GLOBAL_HEADER_LEN),
            Err(PcapError::InconsistentLengths {
                caplen: 3,
                orig_len: 1
            })
        ));
        let (pkts, report) = stream(&buf, usize::MAX);
        assert_eq!(pkts.len(), 1, "the scan recovers the second record");
        assert_eq!((report.resyncs, report.records_recovered), (1, 1));
    }

    /// One EPB of 8 bytes after the SHB (28 bytes) and IDB (20 bytes).
    const EPB_OFF: usize = 28 + 20;

    fn one_epb_file() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        w.write_packet(1, &[0xAA; 8], 8).unwrap();
        buf
    }

    #[test]
    fn misaligned_block_length_is_bad_block_length() {
        let mut buf = one_epb_file();
        // Patch the EPB's total length to a misaligned value.
        buf[EPB_OFF + 4..EPB_OFF + 8].copy_from_slice(&41u32.to_le_bytes());
        assert!(matches!(
            ng_block_sane(&buf[EPB_OFF..], false),
            Err(PcapError::BadBlockLength(41))
        ));
        // And an under-minimum length.
        buf[EPB_OFF + 4..EPB_OFF + 8].copy_from_slice(&8u32.to_le_bytes());
        assert!(matches!(
            ng_block_sane(&buf[EPB_OFF..], false),
            Err(PcapError::BadBlockLength(8))
        ));
        let (pkts, report) = stream(&buf, usize::MAX);
        assert!(pkts.is_empty());
        assert_eq!(report.resyncs, 1);
    }

    #[test]
    fn trailing_length_mismatch_is_bad_block_length() {
        let mut buf = one_epb_file();
        let last4 = buf.len() - 4;
        buf[last4..].copy_from_slice(&44u32.to_le_bytes());
        assert!(matches!(
            ng_block_sane(&buf[EPB_OFF..], false),
            Err(PcapError::BadBlockLength(44))
        ));
        let (pkts, report) = stream(&buf, usize::MAX);
        assert!(pkts.is_empty());
        assert_eq!(report.resyncs, 1);
    }

    #[test]
    fn truncated_block_is_truncated_file() {
        let buf = one_epb_file();
        let cut = buf.len() - 5;
        assert!(matches!(
            ng_block_sane(&buf[EPB_OFF..cut], false),
            Err(PcapError::TruncatedFile)
        ));
        let (pkts, report) = stream(&buf[..cut], usize::MAX);
        assert!(pkts.is_empty());
        assert_eq!(report.bytes_skipped, (cut - EPB_OFF) as u64);
    }

    #[test]
    fn ng_garbage_is_bad_magic() {
        let buf = [0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0];
        assert!(matches!(ng_shb_sane(&buf), Err(PcapError::BadMagic(_))));
        // Behind a section's type bytes, the scan skips it all.
        let buf = [&BT_SHB.to_le_bytes()[..], &buf].concat();
        let (pkts, report) = stream(&buf, usize::MAX);
        assert!(pkts.is_empty());
        assert_eq!(report.bytes_skipped, 12);
    }

    /// An SHB whose length claims ~4 GiB: the check rejects the length
    /// itself, before anything sizes a buffer from it.
    #[test]
    fn oversized_shb_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&BT_SHB.to_le_bytes());
        buf.extend_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        buf.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        assert_eq!(buf.len(), 32);
        assert!(matches!(
            ng_shb_sane(&buf),
            Err(PcapError::OversizedRecord(0xFFFF_FFF0))
        ));
        let (pkts, report) = stream(&buf, usize::MAX);
        assert!(pkts.is_empty());
        assert_eq!(report.bytes_skipped, 32);
    }
}
