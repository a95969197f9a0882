//! The one decoder per capture container.
//!
//! [`PcapStream`] (classic pcap) and [`PcapNgStream`] (pcapng) each run a
//! single decode loop over a **bounded rolling window** fed from any
//! [`Read`] source, so a multi-gigabyte sniffer trace decodes in O(window)
//! memory. The decoder skips damage, resynchronizes, and accounts for every
//! skip in an [`IngestReport`], so an undamaged file reads with a clean
//! report. The head checks decide what is damage and name it with a typed
//! [`PcapError`]; the only errors a stream returns are an unusable classic
//! global header and source I/O.
//!
//! # The window invariant
//!
//! Every structural decision the engines make — "does this record's body
//! run past end-of-stream?", "does the stream end exactly after this
//! candidate?", "is the following header also sane?" — looks at most
//! `2 * MAX_SANE_CAPLEN + 64` bytes past the current position:
//!
//! * a classic record occupies at most `RECORD_HEADER_LEN +
//!   MAX_SANE_CAPLEN` bytes, and resync double-confirmation peeks one more
//!   record header past it;
//! * a pcapng block occupies at most `2 * MAX_SANE_CAPLEN` bytes (longer
//!   lengths are rejected as [`PcapError::OversizedRecord`]).
//!
//! [`ChunkedSource`] guarantees that after a refill the window holds at
//! least that many bytes *or* the source is exhausted and the window is
//! exactly the remainder of the stream. Under that invariant every
//! boundary test against `window.len()` means precisely what it would mean
//! against the whole remaining stream, so the decisions — including every
//! [`IngestReport`] counter — are the same for *any* chunking of the
//! underlying reads. The tests at the bottom enforce this by differencing
//! byte-at-a-time and coarser reads against whole-buffer reads over clean
//! and chaos-corrupted captures.
//!
//! # Live (non-blocking) sources
//!
//! A tailed live capture cannot satisfy the invariant: the last bytes of a
//! growing file are a partial window with no end-of-stream in sight. Sources
//! that return [`std::io::ErrorKind::WouldBlock`] surface this as
//! [`FillStatus::Partial`], and the [`PcapStream::poll_packet`] /
//! [`PcapNgStream::poll_packet`] entry points then follow one rule: on
//! a partial window, either act on a **fully-validated in-window record**
//! (a decision unchanged by any extension of the window, so a decode of the
//! final bytes makes it identically) or change nothing and report
//! [`Polled::Pending`]. Damage — a resync or a skipped block — always
//! waits for a full (or end-of-stream) window. Consequently a poll-driven
//! decode of a growing file converges, byte-for-byte in records and
//! accounting, to the decode of the final file contents.

use crate::format::{
    u16_at, u32_at, LinkType, PacketRef, PcapError, GLOBAL_HEADER_LEN, MAGIC_BE, MAGIC_LE,
    MAGIC_NS_BE, MAGIC_NS_LE, MAX_SANE_CAPLEN, RECORD_HEADER_LEN,
};
use crate::lossy::IngestReport;
use crate::pcapng::{
    parse_idb, parse_packet_block, Interface, NgPacketRef, BT_EPB, BT_IDB, BT_SHB, BT_SPB,
    BYTE_ORDER_MAGIC,
};
use std::io::Read;

/// Resync plausibility: a candidate record's whole-seconds timestamp must be
/// within this many seconds of the last good record (captures are sessions,
/// not decades).
const RESYNC_TS_TOLERANCE_S: u64 = 86_400;

/// The minimum number of bytes a non-exhausted window must hold: the
/// largest lookahead any engine decision needs (see the module docs).
pub const WINDOW_TARGET: usize = 2 * (MAX_SANE_CAPLEN as usize) + 64;

/// Refill high-water mark: topping up to twice the window target halves the
/// number of compaction memmoves per byte consumed.
const REFILL_TARGET: usize = 2 * WINDOW_TARGET;

/// Granularity of reads from the underlying source.
const READ_CHUNK: usize = 64 * 1024;

/// What a [`ChunkedSource::fill`] achieved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FillStatus {
    /// The window invariant holds: at least [`WINDOW_TARGET`] bytes, or
    /// end-of-stream with the window the exact remainder.
    Full,
    /// The source would block: the window is a prefix (possibly empty) of
    /// the eventual remainder and must not drive structural decisions.
    Partial,
}

/// Outcome of a single non-blocking [`PcapStream::poll_packet`] /
/// [`PcapNgStream::poll_packet`].
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

impl<T> Polled<T> {
    /// Maps the record of a [`Polled::Packet`]; `Pending` and `End` pass
    /// through.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Polled<U> {
        match self {
            Polled::Packet(p) => Polled::Packet(f(p)),
            Polled::Pending => Polled::Pending,
            Polled::End => Polled::End,
        }
    }
}
/// A bounded rolling byte window over any [`Read`] source.
///
/// Invariant: after [`ChunkedSource::fill`] returns [`FillStatus::Full`],
/// either the window holds at least [`WINDOW_TARGET`] bytes, or
/// [`ChunkedSource::eof`] is true and the window is exactly the unconsumed
/// remainder of the stream.
pub struct ChunkedSource<R> {
    inner: R,
    /// Reads land here in place. Its capacity, reserved at construction,
    /// is `REFILL_TARGET + READ_CHUNK` bytes, the most a refill can hold;
    /// its length grows into it as reads first reach each byte.
    buf: Vec<u8>,
    /// Start of the unconsumed window.
    pos: usize,
    /// End of the bytes read so far: the window is `buf[pos..end]`.
    end: usize,
    eof: bool,
}

impl<R: Read> ChunkedSource<R> {
    /// Wraps a byte source. No bytes are read until the first [`fill`].
    ///
    /// [`fill`]: ChunkedSource::fill
    pub fn new(inner: R) -> ChunkedSource<R> {
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
    pub fn fill(&mut self) -> Result<FillStatus, PcapError> {
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
    pub fn window(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    /// Advances the stream position by `n` bytes (which must be within the
    /// current window).
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.pos);
        self.pos += n;
    }

    /// True once the underlying source has reported end-of-stream; the
    /// window then holds exactly the remaining bytes.
    pub fn eof(&self) -> bool {
        self.eof
    }
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

/// Record validation at the window head: a whole header, sane lengths,
/// the body inside the stream. Returns `(timestamp_us, orig_len, end)` with
/// `end` one past the body; [`PcapError::TruncatedFile`] means the stream
/// ends inside the record.
fn record_head(w: &[u8], h: &ClassicHeader) -> Result<(u64, u32, usize), PcapError> {
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
    Ok((ts_sec * 1_000_000 + micros, orig_len, end))
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

/// The classic-pcap decoder over any byte stream, in O(window) memory (see
/// the module docs).
pub struct PcapStream<R> {
    src: ChunkedSource<R>,
    header: ClassicHeader,
    report: IngestReport,
    last_sec: Option<u64>,
    just_resynced: bool,
    /// Mid-resync-scan across a [`Polled::Pending`] return: re-entry resumes
    /// the scan instead of re-counting the resync entry.
    resyncing: bool,
    pending: usize,
}

impl<R: Read> PcapStream<R> {
    /// Validates the global header now — the one part of the file without
    /// which there is nothing to recover — and later resynchronizes past
    /// damaged records, counting them in [`PcapStream::report`]. On a live
    /// (`WouldBlock`) source this waits until the header bytes arrive or the
    /// source ends.
    pub fn new(inner: R) -> Result<PcapStream<R>, PcapError> {
        let mut src = ChunkedSource::new(inner);
        loop {
            let status = src.fill()?;
            if status == FillStatus::Full || src.window().len() >= GLOBAL_HEADER_LEN {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let header = parse_global_header(src.window())?;
        src.consume(GLOBAL_HEADER_LEN);
        Ok(PcapStream {
            src,
            header,
            report: IngestReport::default(),
            last_sec: None,
            just_resynced: false,
            resyncing: false,
            pending: 0,
        })
    }

    /// The file's data-link type.
    pub fn link(&self) -> LinkType {
        self.header.link
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
        let (timestamp_us, orig_len, end) = loop {
            if self.resyncing {
                loop {
                    if self.src.fill()? == FillStatus::Partial {
                        return Ok(Polled::Pending);
                    }
                    let w = self.src.window();
                    if w.len() < RECORD_HEADER_LEN {
                        // Trailing sliver too small for a record: the
                        // scan discards it without a truncated-tail flag.
                        self.report.bytes_skipped += w.len() as u64;
                        let n = w.len();
                        self.src.consume(n);
                        return Ok(Polled::End);
                    }
                    if plausible_record(w, &self.header, self.last_sec) {
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
            match record_head(self.src.window(), &self.header) {
                Ok(rec) => {
                    // In-window sane record: a decode over any extension of
                    // this window takes it identically, so emitting is safe
                    // even on a partial window.
                    self.last_sec = Some(rec.0 / 1_000_000);
                    if self.just_resynced {
                        self.report.records_recovered += 1;
                        self.just_resynced = false;
                    } else {
                        self.report.records_ok += 1;
                    }
                    break rec;
                }
                Err(_) if status == FillStatus::Partial => {
                    // A header or body not yet arrived looks truncated, and
                    // even a bad header must not count as damage before the
                    // scan's full-window lookahead is available.
                    return Ok(Polled::Pending);
                }
                Err(e) => {
                    self.report.truncated_tail |= matches!(e, PcapError::TruncatedFile);
                    if len < RECORD_HEADER_LEN {
                        // The window invariant makes this end-of-stream by
                        // construction: too few bytes for a record header.
                        self.report.bytes_skipped += len as u64;
                        self.src.consume(len);
                        return Ok(Polled::End);
                    }
                    self.report.resyncs += 1;
                    self.report.blocks_skipped += 1;
                    self.src.consume(1);
                    self.report.bytes_skipped += 1;
                    self.resyncing = true;
                }
            }
        };
        self.pending = end;
        let data = &self.src.window()[RECORD_HEADER_LEN..end];
        Ok(Polled::Packet(PacketRef {
            timestamp_us,
            orig_len,
            data,
        }))
    }
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

/// What [`ng_head`] found at the window head.
enum NgHead {
    /// A valid Section Header Block: a new section starts.
    Section { big_endian: bool, len: usize },
    /// A block framed sanely in the current section's byte order.
    Block { block_type: u32, len: usize },
}

/// Classifies the block at the window head; `None` is damage. SHB first:
/// its type bytes are palindromic, so it is identifiable before the byte
/// order is known. Any other block needs a section to have started.
fn ng_head(w: &[u8], started: bool, big_endian: bool) -> Option<NgHead> {
    if let Ok((big_endian, len)) = ng_shb_sane(w) {
        return Some(NgHead::Section { big_endian, len });
    }
    if !started {
        return None;
    }
    let len = ng_block_sane(w, big_endian).ok()?;
    Some(NgHead::Block {
        block_type: u32_at(big_endian, w, 0),
        len,
    })
}

/// The pcapng decoder over any byte stream, in O(window) memory (see the
/// module docs).
pub struct PcapNgStream<R> {
    src: ChunkedSource<R>,
    report: IngestReport,
    big_endian: bool,
    started: bool,
    interfaces: Vec<Option<Interface>>,
    just_resynced: bool,
    /// Mid-resync-scan across a [`Polled::Pending`] return; see
    /// [`PcapStream`].
    resyncing: bool,
    pending: usize,
}

impl<R: Read> PcapNgStream<R> {
    /// Nothing is validated up front: recovery can start mid-stream at any
    /// Section Header Block, and a stream with no recoverable section yields
    /// zero packets with every byte accounted as skipped; only source I/O
    /// can error.
    pub fn new(inner: R) -> PcapNgStream<R> {
        PcapNgStream {
            src: ChunkedSource::new(inner),
            report: IngestReport::default(),
            big_endian: false,
            started: false,
            interfaces: Vec::new(),
            just_resynced: false,
            resyncing: false,
            pending: 0,
        }
    }

    /// The accounting so far; final once `next_packet` returns `Ok(None)`.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// The next surviving packet; `Ok(None)` at end of stream. The returned
    /// [`NgPacketRef`] borrows the internal window and is invalidated by the
    /// next call.
    ///
    /// Blocking-source convenience over [`PcapNgStream::poll_packet`]: a
    /// non-blocking source that reports [`Polled::Pending`] surfaces here as
    /// a [`std::io::ErrorKind::WouldBlock`] error.
    pub fn next_packet(&mut self) -> Result<Option<NgPacketRef<'_>>, PcapError> {
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
    pub fn poll_packet(&mut self) -> Result<Polled<NgPacketRef<'_>>, PcapError> {
        self.src.consume(self.pending);
        self.pending = 0;
        let (block_type, total_len) = loop {
            if self.resyncing {
                loop {
                    if self.src.fill()? == FillStatus::Partial {
                        return Ok(Polled::Pending);
                    }
                    let w = self.src.window();
                    if w.len() < 12 {
                        self.report.bytes_skipped += w.len() as u64;
                        let n = w.len();
                        self.src.consume(n);
                        return Ok(Polled::End);
                    }
                    if ng_shb_sane(w).is_ok() {
                        break;
                    }
                    if self.started {
                        let block_type = u32_at(self.big_endian, w, 0);
                        if matches!(block_type, BT_IDB | BT_EPB | BT_SPB)
                            && ng_block_sane(w, self.big_endian).is_ok()
                        {
                            break;
                        }
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
            match ng_head(self.src.window(), self.started, self.big_endian) {
                Some(NgHead::Section { big_endian, len }) => {
                    self.big_endian = big_endian;
                    self.started = true;
                    self.interfaces.clear();
                    self.src.consume(len);
                }
                Some(NgHead::Block {
                    block_type: BT_IDB,
                    len,
                }) => {
                    match parse_idb(self.big_endian, &self.src.window()[8..len - 4]) {
                        Ok(iface) => self.interfaces.push(Some(iface)),
                        Err(_) => {
                            // Keep interface ids aligned: the slot exists
                            // but is unusable; its packets are skipped.
                            self.interfaces.push(None);
                            self.report.blocks_skipped += 1;
                        }
                    }
                    self.src.consume(len);
                }
                Some(NgHead::Block {
                    block_type: block_type @ (BT_EPB | BT_SPB),
                    len,
                }) => {
                    let body = &self.src.window()[8..len - 4];
                    match parse_packet_block(block_type, self.big_endian, body, &self.interfaces) {
                        Ok(_) => {
                            if self.just_resynced {
                                self.report.records_recovered += 1;
                                self.just_resynced = false;
                            } else {
                                self.report.records_ok += 1;
                            }
                            break (block_type, len);
                        }
                        Err(_) => {
                            self.report.blocks_skipped += 1;
                            self.src.consume(len);
                        }
                    }
                }
                Some(NgHead::Block { len, .. }) => self.src.consume(len), // unknown: skipped by length
                None if status == FillStatus::Partial => {
                    // The head may be a block whose tail has not arrived
                    // yet (and a resync needs full-window lookahead): wait.
                    return Ok(Polled::Pending);
                }
                None => {
                    if len < 12 {
                        // End of stream by the window invariant: too few
                        // bytes for any block.
                        self.report.truncated_tail = true;
                        self.report.bytes_skipped += len as u64;
                        self.src.consume(len);
                        return Ok(Polled::End);
                    }
                    // Resync: scan for the next self-consistent known block
                    // (the scan itself runs at the top of the outer loop).
                    self.report.resyncs += 1;
                    self.report.blocks_skipped += 1;
                    self.src.consume(1);
                    self.report.bytes_skipped += 1;
                    self.resyncing = true;
                }
            }
        };
        self.pending = total_len;
        let body = &self.src.window()[8..total_len - 4];
        let pkt = parse_packet_block(block_type, self.big_endian, body, &self.interfaces)
            .expect("block decoded in the scan loop");
        Ok(Polled::Packet(pkt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{corrupt_bytes, ChaosConfig, ChaosRng};
    use crate::format::{MAGIC_LE, MAGIC_NS_LE};
    use crate::pcapng::PcapNgWriter;
    use crate::writer::PcapWriter;
    use crate::PcapPacket;

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
            w.write_packet(1_000_000 + i as u64 * 1_000, &data).unwrap();
        }
        buf
    }

    fn ng_file(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        for i in 0..n {
            let data: Vec<u8> = (0..40).map(|b| (b + i) as u8).collect();
            w.write_packet(1_000_000 + i as u64 * 1_000, &data).unwrap();
        }
        buf
    }

    fn stream_classic(bytes: &[u8], max: usize) -> (Vec<PcapPacket>, IngestReport) {
        let mut s = PcapStream::new(small(bytes, max)).unwrap();
        let mut out = Vec::new();
        while let Some(p) = s.next_packet().unwrap() {
            out.push(p.to_owned());
        }
        (out, *s.report())
    }

    fn stream_ng(bytes: &[u8], max: usize) -> (Vec<crate::NgPacket>, IngestReport) {
        let mut s = PcapNgStream::new(small(bytes, max));
        let mut out = Vec::new();
        while let Some(p) = s.next_packet().unwrap() {
            out.push(p.to_owned());
        }
        (out, *s.report())
    }

    #[test]
    fn classic_chunking_is_invisible_on_clean_files() {
        let buf = classic_file(60);
        let (batch, batch_report) = stream_classic(&buf, usize::MAX);
        for max in [1, 7, 64, 4096] {
            let (pkts, report) = stream_classic(&buf, max);
            assert_eq!(pkts, batch, "read granularity {max}");
            assert_eq!(report, batch_report, "read granularity {max}");
        }
        assert!(batch_report.is_clean());
    }

    #[test]
    fn ng_chunking_is_invisible_on_clean_files() {
        let buf = ng_file(60);
        let (batch, batch_report) = stream_ng(&buf, usize::MAX);
        for max in [1, 7, 64, 4096] {
            let (pkts, report) = stream_ng(&buf, max);
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
            let (batch, batch_report) = stream_classic(&buf, usize::MAX);
            for max in [1, 13, 256] {
                let (pkts, report) = stream_classic(&buf, max);
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
            let (batch, batch_report) = stream_ng(&buf, usize::MAX);
            for max in [1, 13, 256] {
                let (pkts, report) = stream_ng(&buf, max);
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
    fn packet_refs_borrow_then_convert() {
        let buf = classic_file(3);
        let mut s = PcapStream::new(&buf[..]).unwrap();
        let p = s.next_packet().unwrap().unwrap();
        assert_eq!(p.timestamp_us, 1_000_000);
        assert_eq!(p.data.len(), 40);
        assert!(!p.is_truncated());
        let owned = p.to_owned();
        assert_eq!(owned.data, p.data);
        assert_eq!(s.link(), LinkType::Radiotap);
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

    fn poll_classic(bytes: &[u8], max: usize) -> (Vec<PcapPacket>, IngestReport) {
        let src = BlockyReads {
            bytes,
            pos: 0,
            max,
            block_next: false,
        };
        let mut s = PcapStream::new(src).unwrap();
        let mut out = Vec::new();
        loop {
            match s.poll_packet().unwrap() {
                Polled::Packet(p) => out.push(p.to_owned()),
                Polled::Pending => continue, // next poll sees more bytes
                Polled::End => break,
            }
        }
        (out, *s.report())
    }

    fn poll_ng(bytes: &[u8], max: usize) -> (Vec<crate::NgPacket>, IngestReport) {
        let src = BlockyReads {
            bytes,
            pos: 0,
            max,
            block_next: true,
        };
        let mut s = PcapNgStream::new(src);
        let mut out = Vec::new();
        loop {
            match s.poll_packet().unwrap() {
                Polled::Packet(p) => out.push(p.to_owned()),
                Polled::Pending => continue,
                Polled::End => break,
            }
        }
        (out, *s.report())
    }

    #[test]
    fn classic_polling_converges_to_batch_on_clean_files() {
        let buf = classic_file(60);
        let (batch, batch_report) = stream_classic(&buf, usize::MAX);
        for max in [7, 64, 4096] {
            let (pkts, report) = poll_classic(&buf, max);
            assert_eq!(pkts, batch, "granularity {max}");
            assert_eq!(report, batch_report, "granularity {max}");
        }
    }

    #[test]
    fn ng_polling_converges_to_batch_on_clean_files() {
        let buf = ng_file(60);
        let (batch, batch_report) = stream_ng(&buf, usize::MAX);
        for max in [7, 64, 4096] {
            let (pkts, report) = poll_ng(&buf, max);
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
            let (batch, batch_report) = stream_classic(&buf, usize::MAX);
            for max in [13, 256] {
                let (pkts, report) = poll_classic(&buf, max);
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
            let (batch, batch_report) = stream_ng(&buf, usize::MAX);
            for max in [13, 256] {
                let (pkts, report) = poll_ng(&buf, max);
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
                    src.window().len() >= WINDOW_TARGET || src.eof(),
                    "window invariant violated"
                ),
                FillStatus::Partial => {
                    assert!(src.window().len() < WINDOW_TARGET && !src.eof());
                    partials += 1;
                }
            }
            assert!(src.buf.capacity() <= REFILL_TARGET + READ_CHUNK);
            if src.eof() && src.window().is_empty() {
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
        w.write_packet(1_500_000, &[1, 2, 3]).unwrap();
        w.write_packet(2_750_001, &[4; 10]).unwrap();
        buf
    }

    /// Offset of `sample_file`'s second record header.
    const SECOND_RECORD: usize = GLOBAL_HEADER_LEN + RECORD_HEADER_LEN + 3;

    /// `record_head` at `off` in a classic file.
    fn head_at(buf: &[u8], off: usize) -> Result<(u64, u32, usize), PcapError> {
        record_head(&buf[off..], &parse_global_header(buf).unwrap())
    }

    #[test]
    fn reads_what_writer_wrote() {
        let buf = sample_file();
        let mut r = PcapStream::new(&buf[..]).unwrap();
        assert_eq!(r.link(), LinkType::Radiotap);
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
        let (pkts, report) = stream_classic(&buf[..cut], usize::MAX);
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
        let (pkts, report) = stream_classic(&buf[..cut], usize::MAX);
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
        assert_eq!(r.link(), LinkType::Radiotap);
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
        assert_eq!(r.link(), LinkType::Ieee80211);
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
        let (pkts, report) = stream_classic(&buf, usize::MAX);
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
        let (pkts, report) = stream_classic(&buf, usize::MAX);
        assert_eq!(pkts.len(), 1, "the scan recovers the second record");
        assert_eq!((report.resyncs, report.records_recovered), (1, 1));
    }

    /// One EPB of 8 bytes after the SHB (28 bytes) and IDB (20 bytes).
    const EPB_OFF: usize = 28 + 20;

    fn one_epb_file() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        w.write_packet(1, &[0xAA; 8]).unwrap();
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
        let (pkts, report) = stream_ng(&buf, usize::MAX);
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
        let (pkts, report) = stream_ng(&buf, usize::MAX);
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
        let (pkts, report) = stream_ng(&buf[..cut], usize::MAX);
        assert!(pkts.is_empty());
        assert_eq!(report.bytes_skipped, (cut - EPB_OFF) as u64);
    }

    #[test]
    fn ng_garbage_is_bad_magic() {
        let buf = [0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0];
        assert!(matches!(ng_shb_sane(&buf), Err(PcapError::BadMagic(_))));
        let (pkts, report) = stream_ng(&buf, usize::MAX);
        assert!(pkts.is_empty());
        assert_eq!(report.bytes_skipped, 8);
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
        let (pkts, report) = stream_ng(&buf, usize::MAX);
        assert!(pkts.is_empty());
        assert_eq!(report.bytes_skipped, 32);
    }
}
