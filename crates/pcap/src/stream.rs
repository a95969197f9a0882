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
//! # The lookahead contract
//!
//! A head check sees the stream through `Ahead`: the window, and whether
//! the source has ended. It asks one question, "the stream's next `n`
//! bytes, if it holds that many", and asks it only for the bytes its
//! decision reads:
//!
//! * classic pcap: the 16-byte record header, then `16 + caplen`; a resync
//!   candidate asks 16 more for its double confirmation;
//! * pcapng: the 8-byte lead (12 for a section header's byte order), then
//!   the block's `total_len`.
//!
//! While the window holds fewer bytes and the source has not ended, the
//! check returns `Need` and changes nothing; the decoder reads until the
//! window holds them or the source ends, then runs the check again. So
//! each answer is the one the whole remaining stream gives, and every
//! decision, hence every record and every [`IngestReport`] counter, is the
//! same for any chunking of the underlying reads. A check reads only the
//! slices it was handed, so it cannot look past what it asked for, and no
//! request exceeds [`WINDOW_TARGET`]: the longest pcapng block the checks
//! accept, and a classic record with the header after it. The tests at the
//! bottom difference byte-at-a-time and coarser reads against a decode of
//! the whole buffer over clean, chaos-corrupted and near-`MAX_SANE_CAPLEN`
//! captures of both containers.
//!
//! The window buffer is `2 * READ_CHUNK` bytes and every read asks for
//! `READ_CHUNK`. A refill moves only the unconsumed tail to the front, and
//! that tail is shorter than the lookahead that asked for the refill: less
//! than one record on clean input. A check that asks for more than
//! `READ_CHUNK` bytes grows the buffer to its lookahead plus one read; the
//! next refill that needs no more than `READ_CHUNK` returns it to
//! `2 * READ_CHUNK`.
//!
//! # Live (non-blocking) sources
//!
//! A tailed live capture is a window with no end-of-stream in sight. When
//! its source returns [`std::io::ErrorKind::WouldBlock`] before the window
//! holds a check's lookahead, [`PcapStream::poll_packet`] reports
//! [`Polled::Pending`] and the check waits. A decision — a record, a
//! skipped block, damage and the resync it starts — is made only once the
//! bytes it reads have arrived, and then exactly as a decode of the final
//! bytes makes it. Consequently a poll-driven decode of a growing file
//! converges, byte-for-byte in records and accounting, to the decode of the
//! final file contents.

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

/// The most lookahead any head check asks for (see the module docs): the
/// longest pcapng block the checks accept, which also covers a classic
/// record of `MAX_SANE_CAPLEN` bytes with the header after it.
pub const WINDOW_TARGET: usize = 2 * (MAX_SANE_CAPLEN as usize) + 64;

/// Granularity of reads from the underlying source.
const READ_CHUNK: usize = 64 * 1024;

/// The window buffer's size whenever no check asks for more than one read.
const BASE_BUF_LEN: usize = 2 * READ_CHUNK;

/// What a [`ChunkedSource::fill`] achieved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FillStatus {
    /// The window holds the bytes asked for, or the source has ended and
    /// the window is the exact remainder of the stream.
    Full,
    /// The source would block first: the window is a prefix (possibly
    /// empty) of the eventual remainder, shorter than the bytes asked for.
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

/// A rolling byte window over any [`Read`] source, filled on demand.
struct ChunkedSource<R> {
    inner: R,
    /// Reads land here in place. Its capacity is [`BASE_BUF_LEN`], or one
    /// read past the lookahead of the refill that asked for more; its
    /// length grows into that capacity only as reads first reach each byte.
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
    /// Wraps a byte source. Nothing is read or allocated until the first
    /// [`fill`].
    ///
    /// [`fill`]: ChunkedSource::fill
    fn new(inner: R) -> ChunkedSource<R> {
        ChunkedSource {
            inner,
            buf: Vec::new(),
            pos: 0,
            end: 0,
            eof: false,
        }
    }

    /// Reads until the window holds `need` bytes or the source ends; a
    /// no-op when it already does.
    ///
    /// A source that returns [`std::io::ErrorKind::WouldBlock`] first yields
    /// [`FillStatus::Partial`]. Blocking sources never produce `Partial`.
    fn fill(&mut self, need: usize) -> Result<FillStatus, PcapError> {
        debug_assert!(need <= WINDOW_TARGET, "lookahead {need} past WINDOW_TARGET");
        if self.eof || self.end - self.pos >= need {
            return Ok(FillStatus::Full);
        }
        if self.pos > 0 {
            // The unconsumed tail, shorter than `need`, moves to the front.
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        // Room for the lookahead plus one read: every read starts below
        // `need`, so it fits.
        let cap = BASE_BUF_LEN.max(need + READ_CHUNK);
        let capacity = self.buf.capacity();
        if capacity < cap || (capacity > cap && cap == BASE_BUF_LEN) {
            // Resized around the tail, so a reallocation copies only it.
            self.buf.truncate(self.end);
            self.buf.shrink_to(cap);
            self.buf.reserve_exact(cap - self.end);
        }
        while self.end < need {
            if self.buf.len() < self.end + READ_CHUNK {
                // Within the capacity reserved above: zeroes only bytes no
                // read has reached yet, and never reallocates.
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
                    return Ok(FillStatus::Partial)
                }
                Err(e) => return Err(PcapError::Io(e)),
            }
        }
        debug_assert!(self.eof || self.window().len() >= need);
        Ok(FillStatus::Full)
    }

    /// The bytes currently visible at the stream position.
    fn window(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    /// The window as the head checks see it.
    fn ahead(&self) -> Ahead<'_> {
        Ahead {
            window: self.window(),
            eof: self.eof,
        }
    }

    /// Advances the stream position by `n` bytes (which must be within the
    /// current window).
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.pos);
        self.pos += n;
    }
}

/// Fills `src` until its window holds `n` bytes or the source ends; on a
/// live source, waits for the bytes to arrive.
fn wait_for<R: Read>(src: &mut ChunkedSource<R>, n: usize) -> Result<&[u8], PcapError> {
    while src.fill(n)? == FillStatus::Partial {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Ok(src.window())
}

/// What a head check may see of the stream past its position: the window,
/// and whether the source has ended, making the window all that is left.
#[derive(Clone, Copy)]
struct Ahead<'a> {
    window: &'a [u8],
    eof: bool,
}

/// A head check's unmet lookahead: it decides once the window holds this
/// many bytes or the source ends.
#[derive(Debug)]
struct Need(usize);

impl<'a> Ahead<'a> {
    /// The stream's next `n` bytes, or `None` when it ends sooner.
    fn get(self, n: usize) -> Result<Option<&'a [u8]>, Need> {
        debug_assert!(n <= WINDOW_TARGET, "a head check asked for {n} bytes");
        match self.window.get(..n) {
            Some(bytes) => Ok(Some(bytes)),
            None if self.eof => Ok(None),
            None => Err(Need(n)),
        }
    }
}

/// A head check's outcome: [`Need`] until the bytes it reads are in the
/// window, then its decision.
type Verdict<T> = Result<Result<T, PcapError>, Need>;

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
fn record_head(a: Ahead<'_>, h: &ClassicHeader) -> Verdict<Record> {
    let Some(w) = a.get(RECORD_HEADER_LEN)? else {
        return Ok(Err(PcapError::TruncatedFile));
    };
    let ts_sec = u32_at(h.big_endian, w, 0) as u64;
    let ts_frac = u32_at(h.big_endian, w, 4) as u64;
    let caplen = u32_at(h.big_endian, w, 8);
    let orig_len = u32_at(h.big_endian, w, 12);
    if caplen > MAX_SANE_CAPLEN {
        return Ok(Err(PcapError::OversizedRecord(caplen)));
    }
    if caplen > orig_len {
        return Ok(Err(PcapError::InconsistentLengths { caplen, orig_len }));
    }
    let end = RECORD_HEADER_LEN + caplen as usize;
    if a.get(end)?.is_none() {
        return Ok(Err(PcapError::TruncatedFile));
    }
    let micros = if h.nanos { ts_frac / 1000 } else { ts_frac };
    Ok(Ok(Record {
        link: h.link,
        timestamp_us: ts_sec * 1_000_000 + micros,
        orig_len,
        data: RECORD_HEADER_LEN..end,
        end,
    }))
}

/// Resync plausibility at the window head: stricter than [`record_head`] so
/// a scan does not lock onto payload bytes that merely look like a header.
fn plausible_record(a: Ahead<'_>, h: &ClassicHeader, last_sec: Option<u64>) -> Result<bool, Need> {
    let Some(w) = a.get(RECORD_HEADER_LEN)? else {
        return Ok(false);
    };
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
        return Ok(false);
    }
    if let Some(last) = last_sec {
        if ts_sec.abs_diff(last) > RESYNC_TS_TOLERANCE_S {
            return Ok(false);
        }
    }
    // Double confirmation: the next header must also look sane, or the
    // stream must end exactly after the candidate.
    let next = RECORD_HEADER_LEN + caplen as usize;
    let Some(w) = a.get(next + RECORD_HEADER_LEN)? else {
        return Ok(a.get(next)?.is_some() && a.get(next + 1)?.is_none());
    };
    let n_frac = u32_at(h.big_endian, w, next + 4) as u64;
    let n_caplen = u32_at(h.big_endian, w, next + 8);
    let n_orig = u32_at(h.big_endian, w, next + 12);
    Ok(n_frac < frac_bound && n_caplen <= MAX_SANE_CAPLEN && n_caplen <= n_orig)
}

/// True when the bytes lead with a pcapng Section Header Block. The SHB
/// type bytes are byte-order palindromic, so one comparison covers both
/// endiannesses.
fn is_pcapng(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) == BT_SHB
}

/// Block framing at the window head, shared by in-stride parsing and
/// resync scanning: lead length in range and aligned, body inside the
/// stream, trailing length equal to the lead. Returns the block's bytes.
fn ng_block_sane(a: Ahead<'_>, big_endian: bool) -> Verdict<&[u8]> {
    let Some(lead) = a.get(8)? else {
        return Ok(Err(PcapError::TruncatedFile));
    };
    let total_len = u32_at(big_endian, lead, 4);
    if total_len < 12 || !total_len.is_multiple_of(4) {
        return Ok(Err(PcapError::BadBlockLength(total_len)));
    }
    if total_len > MAX_SANE_CAPLEN * 2 {
        return Ok(Err(PcapError::OversizedRecord(total_len)));
    }
    let Some(block) = a.get(total_len as usize)? else {
        return Ok(Err(PcapError::TruncatedFile));
    };
    let trailing = u32_at(big_endian, block, block.len() - 4);
    if trailing != total_len {
        return Ok(Err(PcapError::BadBlockLength(trailing)));
    }
    Ok(Ok(block))
}

/// Validates a Section Header Block at the window head; returns its byte
/// order and bytes.
fn ng_shb_sane(a: Ahead<'_>) -> Verdict<(bool, &[u8])> {
    let Some(w) = a.get(8)? else {
        return Ok(Err(PcapError::TruncatedFile));
    };
    let block_type = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    if block_type != BT_SHB {
        return Ok(Err(PcapError::BadMagic(block_type)));
    }
    let Some(w) = a.get(12)? else {
        return Ok(Err(PcapError::TruncatedFile));
    };
    let big_endian = match u32::from_le_bytes([w[8], w[9], w[10], w[11]]) {
        BYTE_ORDER_MAGIC => false,
        m if m == BYTE_ORDER_MAGIC.swap_bytes() => true,
        other => return Ok(Err(PcapError::BadMagic(other))),
    };
    let declared = u32_at(big_endian, w, 4);
    if declared < 28 {
        return Ok(Err(PcapError::BadBlockLength(declared)));
    }
    let block = match ng_block_sane(a, big_endian)? {
        Ok(block) => block,
        Err(e) => return Ok(Err(e)),
    };
    let major = u16_at(big_endian, block, 12);
    if major != 1 {
        let minor = u16_at(big_endian, block, 14);
        return Ok(Err(PcapError::UnsupportedVersion(major, minor)));
    }
    Ok(Ok((big_endian, block)))
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
    fn head(&mut self, a: Ahead<'_>) -> Result<Head, Need> {
        if let Ok((big_endian, block)) = ng_shb_sane(a)? {
            self.big_endian = big_endian;
            self.started = true;
            self.interfaces.clear();
            return Ok(Head::Block {
                len: block.len(),
                abandoned: false,
            });
        }
        let framed = if self.started {
            ng_block_sane(a, self.big_endian)?.ok()
        } else {
            None
        };
        let Some(block) = framed else {
            return Ok(Head::Damage {
                truncated: a.get(12)?.is_none(),
            });
        };
        let len = block.len();
        Ok(match u32_at(self.big_endian, block, 0) {
            BT_IDB => {
                let iface = parse_idb(self.big_endian, &block[8..len - 4]).ok();
                self.interfaces.push(iface);
                Head::Block {
                    len,
                    abandoned: iface.is_none(),
                }
            }
            block_type @ (BT_EPB | BT_SPB) => {
                match parse_packet_block(block_type, self.big_endian, block, &self.interfaces) {
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
        })
    }

    /// Resync plausibility: pcapng is self-framing, so a candidate is an
    /// SHB or, within a section, a known block whose two length copies
    /// agree.
    fn resync_candidate(&self, a: Ahead<'_>) -> Result<bool, Need> {
        let known = |w: &[u8]| matches!(u32_at(self.big_endian, w, 0), BT_IDB | BT_EPB | BT_SPB);
        Ok(ng_shb_sane(a)?.is_ok()
            || (self.started
                && a.get(4)?.is_some_and(known)
                && ng_block_sane(a, self.big_endian)?.is_ok()))
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
    /// The fewest bytes a record or block takes: a shorter remainder of the
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
    fn head(&mut self, a: Ahead<'_>) -> Result<Head, Need> {
        Ok(match self {
            Container::Classic { header, last_sec } => match record_head(a, header)? {
                Ok(rec) => {
                    *last_sec = Some(rec.timestamp_us / 1_000_000);
                    Head::Record(rec)
                }
                Err(e) => Head::Damage {
                    truncated: matches!(e, PcapError::TruncatedFile),
                },
            },
            Container::Ng(section) => section.head(a)?,
        })
    }

    /// Resync plausibility at the window head: classic pcap has no
    /// framing, so a candidate must pass [`plausible_record`].
    fn resync_candidate(&self, a: Ahead<'_>) -> Result<bool, Need> {
        match self {
            Container::Classic { header, last_sec } => plausible_record(a, header, *last_sec),
            Container::Ng(section) => section.resync_candidate(a),
        }
    }
}

/// What one decision at the window head did.
enum Step {
    /// Accepted a record, which the stream emits next.
    Record(Record),
    /// Consumed bytes, or ended a resync scan on a candidate.
    Moved,
    /// Reached the end of the stream.
    End,
}

/// The capture decoder for both containers over any byte stream, in
/// O(lookahead) memory (see the module docs).
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
        PcapStream::over(ChunkedSource::new(inner))
    }

    /// [`PcapStream::new`] over a window source; the tests also build one
    /// that already holds a whole capture.
    fn over(mut src: ChunkedSource<R>) -> Result<PcapStream<R>, PcapError> {
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
    /// [`Polled::Pending`] the decision at hand has changed nothing, so any
    /// interleaving of polls converges to the decode of the final bytes.
    pub fn poll_packet(&mut self) -> Result<Polled<PacketRef<'_>>, PcapError> {
        self.src.consume(self.pending);
        self.pending = 0;
        let rec = loop {
            match self.step() {
                Ok(Step::Record(rec)) => break rec,
                Ok(Step::Moved) => {}
                Ok(Step::End) => return Ok(Polled::End),
                Err(Need(n)) => {
                    if self.src.fill(n)? == FillStatus::Partial {
                        return Ok(Polled::Pending);
                    }
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

    /// One decision at the window head, or the lookahead it needs first.
    /// Nothing changes before the decision, so the retry after a refill
    /// repeats none of it.
    fn step(&mut self) -> Result<Step, Need> {
        let a = self.src.ahead();
        let min_head = self.container.min_head();
        if self.resyncing {
            if a.get(min_head)?.is_none() {
                // Trailing sliver too small for a record: the scan
                // discards it without a truncated-tail flag.
                return Ok(self.skip_rest());
            }
            if self.container.resync_candidate(a)? {
                self.resyncing = false;
                self.just_resynced = true;
            } else {
                self.src.consume(1);
                self.report.bytes_skipped += 1;
            }
            return Ok(Step::Moved);
        }
        if a.get(1)?.is_none() {
            return Ok(Step::End);
        }
        match self.container.head(a)? {
            Head::Record(rec) => {
                if self.just_resynced {
                    self.report.records_recovered += 1;
                    self.just_resynced = false;
                } else {
                    self.report.records_ok += 1;
                }
                Ok(Step::Record(rec))
            }
            Head::Block { len, abandoned } => {
                self.report.blocks_skipped += u64::from(abandoned);
                self.src.consume(len);
                Ok(Step::Moved)
            }
            Head::Damage { truncated } => {
                let sliver = a.get(min_head)?.is_none();
                self.report.truncated_tail |= truncated;
                if sliver {
                    // Too few bytes left for a record.
                    return Ok(self.skip_rest());
                }
                // Resync: the scan runs from the next step.
                self.report.resyncs += 1;
                self.report.blocks_skipped += 1;
                self.src.consume(1);
                self.report.bytes_skipped += 1;
                self.resyncing = true;
                Ok(Step::Moved)
            }
        }
    }

    /// Counts the rest of the stream, all of it in the window, as skipped.
    fn skip_rest(&mut self) -> Step {
        let n = self.src.window().len();
        self.report.bytes_skipped += n as u64;
        self.src.consume(n);
        Step::End
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

    /// Every packet of `s`, and its report.
    fn drain<R: Read>(mut s: PcapStream<R>) -> (Vec<Packet>, IngestReport) {
        let mut out = Vec::new();
        while let Some(p) = s.next_packet().unwrap() {
            out.push(owned(p));
        }
        (out, *s.report())
    }

    /// Every packet of a read through `max`-byte reads, and its report.
    fn stream(bytes: &[u8], max: usize) -> (Vec<Packet>, IngestReport) {
        drain(PcapStream::new(small(bytes, max)).unwrap())
    }

    /// The reference decode: the whole buffer in the window and the source
    /// ended, so no check ever waits for a refill.
    fn whole(bytes: &[u8]) -> (Vec<Packet>, IngestReport) {
        let src = ChunkedSource {
            inner: std::io::empty(),
            buf: bytes.to_vec(),
            pos: 0,
            end: bytes.len(),
            eof: true,
        };
        drain(PcapStream::over(src).unwrap())
    }

    /// Caplens of [`long_records`]: one byte, more than a read, and
    /// `MAX_SANE_CAPLEN` itself.
    const LONG_CAPLENS: [u32; 7] = [
        1,
        MAX_SANE_CAPLEN,
        70_000,
        40,
        MAX_SANE_CAPLEN - 3,
        READ_CHUNK as u32 - 16,
        200,
    ];

    /// A record's bytes: `len` bytes counting up from `i`.
    fn payload(i: usize, len: u32) -> Vec<u8> {
        (0..len as usize).map(|b| (b + i) as u8).collect()
    }

    /// Clean records of [`LONG_CAPLENS`] in either container.
    fn long_records(ng: bool) -> Vec<u8> {
        let mut buf = Vec::new();
        let packets = LONG_CAPLENS.iter().enumerate();
        if ng {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
            for (i, &len) in packets {
                w.write_packet(1_000_000 + i as u64, &payload(i, len), len)
                    .unwrap();
            }
        } else {
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, MAX_SANE_CAPLEN).unwrap();
            for (i, &len) in packets {
                w.write_packet(1_000_000 + i as u64, &payload(i, len), len)
                    .unwrap();
            }
        }
        buf
    }

    /// A pcapng block of `block_type` declaring `total_len` bytes, holding
    /// `body` between its two length copies.
    fn ng_block(block_type: u32, total_len: u32, body: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&block_type.to_le_bytes());
        b.extend_from_slice(&total_len.to_le_bytes());
        b.extend_from_slice(body);
        b.extend_from_slice(&total_len.to_le_bytes());
        b
    }

    /// [`long_records`] in two pcapng sections with an unknown block of
    /// the largest accepted length, `2 * MAX_SANE_CAPLEN`, between them.
    fn ng_long_blocks() -> Vec<u8> {
        let longest = 2 * MAX_SANE_CAPLEN;
        let unknown = ng_block(0x0BAD, longest, &vec![0x5A; longest as usize - 12]);
        [long_records(true), unknown, ng_file(3)].concat()
    }

    /// A section, then a packet block whose length is past the accepted
    /// `2 * MAX_SANE_CAPLEN`, then garbage the scan walks to the next
    /// section.
    fn ng_oversized_block() -> Vec<u8> {
        let oversized = ng_block(BT_EPB, 2 * MAX_SANE_CAPLEN + 4, &[0xEE; 64]);
        [ng_file(3), oversized, long_records(true)].concat()
    }

    /// A classic record header.
    fn classic_head(ts_sec: u32, ts_usec: u32, caplen: u32, orig_len: u32) -> Vec<u8> {
        [ts_sec, ts_usec, caplen, orig_len]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    }

    /// Damage whose resync scan meets candidates that need more than one
    /// read to confirm: a record with a blasted caplen, then a fake header
    /// over `0xFF` filler whose double confirmation fails 100 000 bytes on,
    /// then a true 70 000-byte record and the records after it.
    fn classic_resync_across_reads() -> Vec<u8> {
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf, LinkType::Radiotap, MAX_SANE_CAPLEN)
            .unwrap()
            .write_packet(1_000_000, &[7; 40], 40)
            .unwrap();
        let blasted = MAX_SANE_CAPLEN + 1;
        buf.extend(classic_head(1, 5, blasted, blasted));
        buf.extend([0xFF; 30]);
        buf.extend(classic_head(1, 9, 100_000, 100_000));
        buf.extend(vec![0xFF; 100_020]);
        for (i, len) in [70_000, 40, MAX_SANE_CAPLEN, 40].into_iter().enumerate() {
            buf.extend(classic_head(2 + i as u32, 0, len, len));
            buf.extend(vec![0xFF; len as usize]);
        }
        buf
    }

    #[test]
    fn classic_chunking_is_invisible_on_clean_files() {
        for buf in [classic_file(60), long_records(false)] {
            let (batch, batch_report) = whole(&buf);
            for max in [1, 7, 64, 4096, usize::MAX] {
                let (pkts, report) = stream(&buf, max);
                assert_eq!(pkts, batch, "read granularity {max}");
                assert_eq!(report, batch_report, "read granularity {max}");
            }
            assert!(batch_report.is_clean());
        }
    }

    #[test]
    fn ng_chunking_is_invisible_on_clean_files() {
        for buf in [ng_file(60), long_records(true), ng_long_blocks()] {
            let (batch, batch_report) = whole(&buf);
            for max in [1, 7, 64, 4096, usize::MAX] {
                let (pkts, report) = stream(&buf, max);
                assert_eq!(pkts, batch, "read granularity {max}");
                assert_eq!(report, batch_report, "read granularity {max}");
            }
            assert!(batch_report.is_clean());
        }
    }

    #[test]
    fn classic_chunking_is_invisible_under_chaos() {
        let chaos = (0..40u64).map(|seed| {
            let mut buf = classic_file(30);
            let mut rng = ChaosRng::new(seed);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, GLOBAL_HEADER_LEN, &cfg, &mut rng);
            buf
        });
        let crafted = classic_resync_across_reads();
        for (input, buf) in chaos.chain([crafted.clone()]).enumerate() {
            let (batch, batch_report) = whole(&buf);
            for max in [1, 13, 256, usize::MAX] {
                let (pkts, report) = stream(&buf, max);
                assert_eq!(pkts, batch, "input {input} granularity {max}");
                assert_eq!(report, batch_report, "input {input} granularity {max}");
            }
        }
        // The crafted damage resyncs onto the long record.
        let (pkts, report) = whole(&crafted);
        assert_eq!((report.resyncs, report.records_recovered), (1, 1));
        assert_eq!(pkts.iter().map(|p| p.3.len()).nth(1), Some(70_000));
    }

    #[test]
    fn ng_chunking_is_invisible_under_chaos() {
        let chaos = (0..40u64).map(|seed| {
            let mut buf = ng_file(30);
            let mut rng = ChaosRng::new(seed ^ 0xA5A5);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, 0, &cfg, &mut rng);
            buf
        });
        let crafted = ng_oversized_block();
        for (input, buf) in chaos.chain([crafted.clone()]).enumerate() {
            let (batch, batch_report) = whole(&buf);
            for max in [1, 13, 256, usize::MAX] {
                let (pkts, report) = stream(&buf, max);
                assert_eq!(pkts, batch, "input {input} granularity {max}");
                assert_eq!(report, batch_report, "input {input} granularity {max}");
            }
        }
        // The oversized block is damage, and the scan finds the section
        // after it.
        let (pkts, report) = whole(&crafted);
        assert_eq!(report.resyncs, 1);
        assert_eq!(pkts.len(), 3 + LONG_CAPLENS.len());
    }

    /// Decodes `bytes` through the decoder's own reads, checking after
    /// every record that the window buffer stays within two reads plus
    /// `longest`; returns the buffer's final capacity.
    fn checked_capacity(bytes: &[u8], longest: usize) -> usize {
        let mut s = PcapStream::new(bytes).unwrap();
        while s.next_packet().unwrap().is_some() {
            let capacity = s.src.buf.capacity();
            assert!(capacity <= 2 * READ_CHUNK + longest, "{capacity} bytes");
        }
        assert!(s.report().is_clean());
        s.src.buf.capacity()
    }

    #[test]
    fn clean_decode_keeps_the_buffer_within_two_reads_and_the_longest_record() {
        // Multi-megabyte captures of short records with two longer than a
        // read, the longest `MAX_SANE_CAPLEN`: the buffer grows for those
        // two only, and is back at two reads once they are consumed.
        let caplens: Vec<u32> = (0..30_000)
            .map(|i| match i {
                9_000 => 300_000,
                20_000 => MAX_SANE_CAPLEN,
                _ => 60 + i % 250,
            })
            .collect();
        let mut classic = Vec::new();
        let mut ng = Vec::new();
        {
            let mut w = PcapWriter::new(&mut classic, LinkType::Radiotap, MAX_SANE_CAPLEN).unwrap();
            let mut n = PcapNgWriter::new(&mut ng, LinkType::Radiotap, 0).unwrap();
            for (i, &len) in caplens.iter().enumerate() {
                let data = payload(i, len);
                w.write_packet(i as u64 * 100, &data, len).unwrap();
                n.write_packet(i as u64 * 100, &data, len).unwrap();
            }
        }
        assert!(classic.len() > 5_000_000 && ng.len() > 5_000_000);
        let longest = MAX_SANE_CAPLEN as usize;
        let capacity = checked_capacity(&classic, RECORD_HEADER_LEN + longest);
        assert_eq!(capacity, BASE_BUF_LEN);
        // An enhanced packet block: 28 bytes of framing and fields, the
        // padded data, and the trailing length.
        let capacity = checked_capacity(&ng, 32 + longest);
        assert_eq!(capacity, BASE_BUF_LEN);
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
        for buf in [classic_file(60), long_records(false)] {
            let (batch, batch_report) = whole(&buf);
            for max in [7, 64, 4096] {
                let (pkts, report) = poll(&buf, max);
                assert_eq!(pkts, batch, "granularity {max}");
                assert_eq!(report, batch_report, "granularity {max}");
            }
        }
    }

    #[test]
    fn ng_polling_converges_to_batch_on_clean_files() {
        for buf in [ng_file(60), ng_long_blocks()] {
            let (batch, batch_report) = whole(&buf);
            for max in [7, 64, 4096] {
                let (pkts, report) = poll(&buf, max);
                assert_eq!(pkts, batch, "granularity {max}");
                assert_eq!(report, batch_report, "granularity {max}");
            }
        }
    }

    #[test]
    fn classic_polling_converges_to_batch_under_chaos() {
        let chaos = (0..25u64).map(|seed| {
            let mut buf = classic_file(30);
            let mut rng = ChaosRng::new(seed);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, GLOBAL_HEADER_LEN, &cfg, &mut rng);
            buf
        });
        for (input, buf) in chaos.chain([classic_resync_across_reads()]).enumerate() {
            let (batch, batch_report) = whole(&buf);
            for max in [13, 256] {
                let (pkts, report) = poll(&buf, max);
                assert_eq!(pkts, batch, "input {input} granularity {max}");
                assert_eq!(report, batch_report, "input {input} granularity {max}");
            }
        }
    }

    #[test]
    fn ng_polling_converges_to_batch_under_chaos() {
        let chaos = (0..25u64).map(|seed| {
            let mut buf = ng_file(30);
            let mut rng = ChaosRng::new(seed ^ 0x5A5A);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, 0, &cfg, &mut rng);
            buf
        });
        for (input, buf) in chaos.chain([ng_oversized_block()]).enumerate() {
            let (batch, batch_report) = whole(&buf);
            for max in [13, 256] {
                let (pkts, report) = poll(&buf, max);
                assert_eq!(pkts, batch, "input {input} granularity {max}");
                assert_eq!(report, batch_report, "input {input} granularity {max}");
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

    /// Drains `src` through fills asking for each lookahead of `needs` in
    /// turn and consumes of up to `take` bytes, checking after every fill
    /// the meaning of its status and the buffer's size. Returns the bytes
    /// consumed and the number of `Partial` fills.
    fn drain_checked<R: Read>(
        mut src: ChunkedSource<R>,
        needs: &[usize],
        take: usize,
    ) -> (Vec<u8>, usize) {
        let mut seen = Vec::new();
        let mut partials = 0;
        for &need in needs.iter().cycle() {
            let refill = src.window().len() < need && !src.eof;
            match src.fill(need).unwrap() {
                FillStatus::Full => assert!(
                    src.window().len() >= need || src.eof,
                    "a full fill holds the lookahead or the whole rest"
                ),
                FillStatus::Partial => {
                    assert!(src.window().len() < need && !src.eof);
                    partials += 1;
                }
            }
            let capacity = src.buf.capacity();
            assert!(capacity <= WINDOW_TARGET + READ_CHUNK);
            if refill {
                assert!(capacity >= need + READ_CHUNK);
                if need <= READ_CHUNK {
                    assert_eq!(capacity, BASE_BUF_LEN, "back to two reads");
                }
            }
            if src.eof && src.window().is_empty() {
                return (seen, partials);
            }
            let n = src.window().len().min(take);
            seen.extend_from_slice(&src.window()[..n]);
            src.consume(n);
        }
        unreachable!("the needs cycle until the source ends")
    }

    #[test]
    fn chunked_source_fills_each_lookahead() {
        // A stream several largest lookaheads long, drained while asking
        // for lookaheads from one byte to `WINDOW_TARGET`: every fill holds
        // the bytes asked for or the rest of the stream, the buffer grows
        // to one read past the largest lookahead only while a fill asks for
        // it, and no byte is lost or duplicated across refills.
        let bytes: Vec<u8> = (0..(3 * WINDOW_TARGET + 1234))
            .map(|i| (i % 251) as u8)
            .collect();
        let needs = [16, 300, 70_000, WINDOW_TARGET, 1, 16, READ_CHUNK];
        let src = ChunkedSource::new(small(&bytes, 50_000));
        let (seen, partials) = drain_checked(src, &needs, 100_000);
        assert_eq!(seen, bytes, "no bytes lost or duplicated across refills");
        assert_eq!(partials, 0, "a blocking source never yields Partial");

        // Consuming less than a fill reads, from a source that would block
        // between reads: a fill that meets WouldBlock short of its
        // lookahead reports Partial, and the next fill resumes it.
        let choppy = ChoppyReads {
            bytes: &bytes,
            pos: 0,
            calls: 0,
        };
        let (seen, partials) = drain_checked(ChunkedSource::new(choppy), &needs, 20_000);
        assert_eq!(seen, bytes, "no bytes lost or duplicated across refills");
        assert!(
            partials > 0,
            "WouldBlock short of the lookahead yields Partial"
        );
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
        record_head(at_end(&buf[off..]), &parse_global_header(buf).unwrap())
            .expect("the whole stream decides")
    }

    /// `w` as the rest of the stream.
    fn at_end(w: &[u8]) -> Ahead<'_> {
        Ahead {
            window: w,
            eof: true,
        }
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
        let (pkts, report) = whole(&buf[..cut]);
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
        let (pkts, report) = whole(&buf[..cut]);
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
        let (pkts, report) = whole(&buf);
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
        let (pkts, report) = whole(&buf);
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
            ng_block_sane(at_end(&buf[EPB_OFF..]), false),
            Ok(Err(PcapError::BadBlockLength(41)))
        ));
        // And an under-minimum length.
        buf[EPB_OFF + 4..EPB_OFF + 8].copy_from_slice(&8u32.to_le_bytes());
        assert!(matches!(
            ng_block_sane(at_end(&buf[EPB_OFF..]), false),
            Ok(Err(PcapError::BadBlockLength(8)))
        ));
        let (pkts, report) = whole(&buf);
        assert!(pkts.is_empty());
        assert_eq!(report.resyncs, 1);
    }

    #[test]
    fn trailing_length_mismatch_is_bad_block_length() {
        let mut buf = one_epb_file();
        let last4 = buf.len() - 4;
        buf[last4..].copy_from_slice(&44u32.to_le_bytes());
        assert!(matches!(
            ng_block_sane(at_end(&buf[EPB_OFF..]), false),
            Ok(Err(PcapError::BadBlockLength(44)))
        ));
        let (pkts, report) = whole(&buf);
        assert!(pkts.is_empty());
        assert_eq!(report.resyncs, 1);
    }

    #[test]
    fn truncated_block_is_truncated_file() {
        let buf = one_epb_file();
        let cut = buf.len() - 5;
        assert!(matches!(
            ng_block_sane(at_end(&buf[EPB_OFF..cut]), false),
            Ok(Err(PcapError::TruncatedFile))
        ));
        let (pkts, report) = whole(&buf[..cut]);
        assert!(pkts.is_empty());
        assert_eq!(report.bytes_skipped, (cut - EPB_OFF) as u64);
    }

    #[test]
    fn ng_garbage_is_bad_magic() {
        let buf = [0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0];
        assert!(matches!(
            ng_shb_sane(at_end(&buf)),
            Ok(Err(PcapError::BadMagic(_)))
        ));
        // Behind a section's type bytes, the scan skips it all.
        let buf = [&BT_SHB.to_le_bytes()[..], &buf].concat();
        let (pkts, report) = whole(&buf);
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
            ng_shb_sane(at_end(&buf)),
            Ok(Err(PcapError::OversizedRecord(0xFFFF_FFF0)))
        ));
        let (pkts, report) = whole(&buf);
        assert!(pkts.is_empty());
        assert_eq!(report.bytes_skipped, 32);
    }
}
