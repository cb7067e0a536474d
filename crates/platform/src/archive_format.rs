//! The `.puf` compacted binary telemetry archive (v1).
//!
//! The paper's §3.4 power analysis needs ~2 years of pooled data (≥1M
//! stream-hours) before scheme differences separate, and Appendix B commits
//! to publishing every day's telemetry.  At that volume the CSV dump is the
//! bottleneck: a `video_sent` row is ~90 text bytes and must be re-parsed
//! float-by-float on every analysis pass.  `.puf` is the compact,
//! append-only on-disk form of the same three measurements
//! (`video_sent`, `video_acked`, `client_buffer`), plus the day's
//! degradation incidents, designed so that
//!
//! * writing is **streaming and allocation-free** in steady state — the
//!   RCT's `archive_sink` spills telemetry as sessions finish, never holding
//!   a day's rows in RAM (one partially-filled block per measurement kind is
//!   the peak), and
//! * reading is **streaming and allocation-free** in steady state —
//!   [`ArchiveReader`] yields one decoded block at a time into buffers it
//!   keeps, so a ≥1M-stream-hour analysis runs in bounded memory, and
//! * the bytes are **deterministic** — a fixed little-endian layout with no
//!   timestamps, padding guaranteed zero, and a block-merge rule
//!   ([`merge_spools`]) keyed only on experiment-level tags, so the same
//!   experiment produces the same file at any worker count.
//!
//! ## Layout (v1)
//!
//! All integers are little-endian.  A file is an 8-byte header followed by
//! zero or more self-delimiting blocks:
//!
//! ```text
//! file   := magic "PUF!" (4) | version u8 (=1) | reserved [0u8; 3] | block*
//! block  := kind u8 | pad [0u8; 3] | rows u32 (> 0) | tag u64   — 16 bytes
//!         | col_len u32 × n_cols(kind)
//!         | col_bytes × n_cols(kind)
//! ```
//!
//! `kind` selects the row type ([`BlockKind`]) and fixes the column count;
//! the row type's [`PufRow`] codec fixes the column order.  `tag` groups
//! blocks belonging to one logical unit (the RCT uses the session's spec
//! index); writers flush pending rows on tag change so a block never spans
//! tags.
//!
//! ## Column encoding
//!
//! Every cell is first mapped to a `u64` *word* by its row's codec: `f64`
//! via `to_bits` (so round-trips are bit-exact, NaNs and `-0.0` included),
//! `u64`/`u32` as-is, and enums via their stable wire code.  A column is
//! then the LEB128 varint of each word XORed with its predecessor
//! (predecessor starts at 0 for each column of each block).  XOR-prev needs
//! no wrapping arithmetic and collapses near-constant columns (`stream_id`,
//! `expt_id`, `min_rtt`…) to one byte per row; monotone timestamps keep
//! their low bits short.  See `docs/ARCHIVE.md` for the full specification
//! and measured size/throughput vs the CSV dump.

use crate::faults::{DegradeAction, Incident, IncidentKind};
use crate::telemetry::{BufferEvent, ClientBuffer, StreamTelemetry, VideoAcked, VideoSent};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic, first 4 bytes of every `.puf` file.
pub const MAGIC: [u8; 4] = *b"PUF!";
/// Format version this module writes and the only one it reads.
pub const VERSION: u8 = 1;
/// File header size: magic + version + 3 reserved bytes.
pub const FILE_HEADER_LEN: usize = 8;
/// Fixed block header size: kind + 3 pad + rows (u32) + tag (u64).
pub const BLOCK_HEADER_LEN: usize = 16;
/// Rows per block the writer targets (the last block of a tag is shorter).
pub const DEFAULT_BLOCK_ROWS: usize = 4096;
/// Largest column count of any kind (`video_sent`).
const MAX_COLS: usize = 11;
/// Worst-case varint length of a u64 word.
const MAX_VARINT_LEN: usize = 10;

/// Which row type a block holds.  The discriminants are wire values and
/// must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BlockKind {
    /// `video_sent` rows, 11 columns.
    VideoSent = 0,
    /// `video_acked` rows, 5 columns.
    VideoAcked = 1,
    /// `client_buffer` rows, 6 columns.
    ClientBuffer = 2,
    /// Degradation-incident rows ([`Incident`]), 6 columns.
    Incident = 3,
}

impl BlockKind {
    /// Every kind, in wire-code order.
    const ALL: [BlockKind; 4] =
        [BlockKind::VideoSent, BlockKind::VideoAcked, BlockKind::ClientBuffer, BlockKind::Incident];

    /// Wire code of the kind (block header byte 0).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`BlockKind::code`]; `None` for codes v1 does not define.
    pub fn from_code(code: u8) -> Option<BlockKind> {
        BlockKind::ALL.get(usize::from(code)).copied()
    }

    /// Number of columns a block of this kind carries.
    pub const fn n_cols(self) -> usize {
        match self {
            BlockKind::VideoSent => 11,
            BlockKind::VideoAcked => 5,
            BlockKind::ClientBuffer | BlockKind::Incident => 6,
        }
    }
}

/// The codec of a row type stored in `.puf` blocks: its [`BlockKind`], its
/// `COLS` words in column order, and the checked inverse.  Each row type's
/// column order is written here and nowhere else.
///
/// The impls below mark `from_words` `#[inline]`: the reader calls it once
/// per row from generic code compiled in the caller's crate, where an
/// out-of-line call decoded `client_buffer` blocks at half speed.
pub trait PufRow<const COLS: usize>: Sized {
    /// The kind of the blocks that hold rows of this type.
    const KIND: BlockKind;

    /// The row's cells as words, in column order.
    fn words(&self) -> [u64; COLS];

    /// Rebuild a row from its words.  A word the field cannot hold — a
    /// `u32` column above 32 bits, a wire code no variant carries — is an
    /// [`io::ErrorKind::InvalidData`] error.
    fn from_words(words: [u64; COLS]) -> io::Result<Self>;
}

impl PufRow<11> for VideoSent {
    const KIND: BlockKind = BlockKind::VideoSent;

    fn words(&self) -> [u64; 11] {
        [
            self.time.to_bits(),
            self.stream_id,
            u64::from(self.expt_id),
            self.video_ts,
            self.size.to_bits(),
            self.ssim_index.to_bits(),
            self.cwnd.to_bits(),
            self.in_flight.to_bits(),
            self.min_rtt.to_bits(),
            self.rtt.to_bits(),
            self.delivery_rate.to_bits(),
        ]
    }

    #[inline]
    fn from_words(w: [u64; 11]) -> io::Result<VideoSent> {
        let [time, stream_id, expt_id, video_ts, size, ssim, cwnd, in_flight, min_rtt, rtt, rate] =
            w;
        Ok(VideoSent {
            time: f64::from_bits(time),
            stream_id,
            expt_id: narrow_u32(expt_id)?,
            video_ts,
            size: f64::from_bits(size),
            ssim_index: f64::from_bits(ssim),
            cwnd: f64::from_bits(cwnd),
            in_flight: f64::from_bits(in_flight),
            min_rtt: f64::from_bits(min_rtt),
            rtt: f64::from_bits(rtt),
            delivery_rate: f64::from_bits(rate),
        })
    }
}

impl PufRow<5> for VideoAcked {
    const KIND: BlockKind = BlockKind::VideoAcked;

    fn words(&self) -> [u64; 5] {
        [
            self.time.to_bits(),
            self.stream_id,
            u64::from(self.expt_id),
            self.video_ts,
            self.size.to_bits(),
        ]
    }

    #[inline]
    fn from_words([time, stream_id, expt_id, video_ts, size]: [u64; 5]) -> io::Result<VideoAcked> {
        Ok(VideoAcked {
            time: f64::from_bits(time),
            stream_id,
            expt_id: narrow_u32(expt_id)?,
            video_ts,
            size: f64::from_bits(size),
        })
    }
}

impl PufRow<6> for ClientBuffer {
    const KIND: BlockKind = BlockKind::ClientBuffer;

    fn words(&self) -> [u64; 6] {
        [
            self.time.to_bits(),
            self.stream_id,
            u64::from(self.expt_id),
            u64::from(self.event.code()),
            self.buffer.to_bits(),
            self.cum_rebuf.to_bits(),
        ]
    }

    #[inline]
    fn from_words(
        [time, stream_id, expt_id, event, buffer, cum_rebuf]: [u64; 6],
    ) -> io::Result<ClientBuffer> {
        Ok(ClientBuffer {
            time: f64::from_bits(time),
            stream_id,
            expt_id: narrow_u32(expt_id)?,
            event: wire_code(event, BufferEvent::from_code, "unknown client_buffer event code")?,
            buffer: f64::from_bits(buffer),
            cum_rebuf: f64::from_bits(cum_rebuf),
        })
    }
}

impl PufRow<6> for Incident {
    const KIND: BlockKind = BlockKind::Incident;

    fn words(&self) -> [u64; 6] {
        [
            u64::from(self.day),
            u64::from(self.arm),
            self.session,
            u64::from(self.kind.code()),
            u64::from(self.action.code()),
            self.value,
        ]
    }

    #[inline]
    fn from_words([day, arm, session, kind, action, value]: [u64; 6]) -> io::Result<Incident> {
        Ok(Incident {
            day: narrow_u32(day)?,
            arm: narrow_u32(arm)?,
            session,
            kind: wire_code(kind, IncidentKind::from_code, "unknown incident kind code")?,
            action: wire_code(action, DegradeAction::from_code, "unknown incident action code")?,
            value,
        })
    }
}

/// Narrow a decoded word to the struct's `u32` field, rejecting corrupt
/// values instead of truncating them.
fn narrow_u32(word: u64) -> io::Result<u32> {
    u32::try_from(word).map_err(|_| invalid("u32 column value exceeds 32 bits"))
}

/// Map a decoded word back to its enum through `from_code`; a word that is
/// no defined wire code is `InvalidData` with `msg`.
fn wire_code<T>(word: u64, from_code: impl Fn(u8) -> Option<T>, msg: &str) -> io::Result<T> {
    u8::try_from(word).ok().and_then(from_code).ok_or_else(|| invalid(msg))
}

pub(crate) fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Append the LEB128 varint encoding of `v`.
// lint: alloc-free — appends into column buffers reserved to block_rows*MAX_VARINT_LEN at construction and cleared per flush
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint starting at `*pos`, advancing `*pos`.
fn read_varint(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(invalid("truncated varint in column data"));
        };
        *pos += 1;
        let low = u64::from(b & 0x7f);
        if shift > 63 || (shift == 63 && low > 1) {
            return Err(invalid("varint overflows u64"));
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encode `words` as an XOR-prev varint column into `buf` (cleared first).
fn encode_column(buf: &mut Vec<u8>, words: &[u64]) {
    buf.clear();
    let mut prev = 0u64;
    for &w in words {
        push_varint(buf, w ^ prev);
        prev = w;
    }
}

/// Streaming `.puf` writer.
///
/// Rows arrive via [`ArchiveWriter::push`] (or a whole stream at once via
/// [`ArchiveWriter::add_stream`]) and are buffered as words per kind until
/// a block fills ([`DEFAULT_BLOCK_ROWS`] rows) or the tag changes, then
/// encoded into reused column buffers and written out.  After construction
/// the steady state allocates nothing per row (pinned by the
/// `tests/alloc_gate.rs` `archive_writer_steady_state_is_allocation_free`
/// gate).
#[derive(Debug)]
pub struct ArchiveWriter<W: Write> {
    out: W,
    block_rows: usize,
    tag: u64,
    /// Each kind's rows since its last block, indexed by wire code.
    pending: [PendingBlock; 4],
    /// Reused per-column encode buffers, sized for the worst case
    /// (`block_rows` × [`MAX_VARINT_LEN`] bytes) at construction.
    cols: [Vec<u8>; MAX_COLS],
    blocks_written: u64,
    rows_written: u64,
}

/// One kind's rows since its last block.
#[derive(Debug)]
struct PendingBlock {
    rows: usize,
    /// Column-major words: column `c` of row `r` is at `c·block_rows + r`;
    /// sized to `block_rows` rows of the kind's columns at construction.
    words: Vec<u64>,
}

impl<W: Write> ArchiveWriter<W> {
    /// Write the file header and return a writer targeting
    /// [`DEFAULT_BLOCK_ROWS`] rows per block.
    pub fn new(out: W) -> io::Result<ArchiveWriter<W>> {
        ArchiveWriter::with_block_rows(out, DEFAULT_BLOCK_ROWS)
    }

    /// Like [`ArchiveWriter::new`] with an explicit block size (rows).
    pub fn with_block_rows(mut out: W, block_rows: usize) -> io::Result<ArchiveWriter<W>> {
        assert!(block_rows > 0, "block_rows must be positive");
        assert!(block_rows <= u32::MAX as usize, "block row count must fit the u32 header field");
        let mut header = [0u8; FILE_HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        out.write_all(&header)?;
        let pending = BlockKind::ALL
            .map(|kind| PendingBlock { rows: 0, words: vec![0; block_rows * kind.n_cols()] });
        let cols = std::array::from_fn(|_| Vec::with_capacity(block_rows * MAX_VARINT_LEN));
        Ok(ArchiveWriter {
            out,
            block_rows,
            tag: 0,
            pending,
            cols,
            blocks_written: 0,
            rows_written: 0,
        })
    }

    /// Set the tag for subsequently pushed rows.  A tag change flushes all
    /// pending rows first, so no block ever spans two tags.
    pub fn set_tag(&mut self, tag: u64) -> io::Result<()> {
        if tag != self.tag {
            self.flush_pending()?;
            self.tag = tag;
        }
        Ok(())
    }

    /// Buffer one row's words in its kind's pending block (writes the block
    /// out when full).
    // lint-root: alloc-free
    pub fn push<const COLS: usize, R: PufRow<COLS>>(&mut self, row: &R) -> io::Result<()> {
        const { assert!(R::KIND.n_cols() == COLS, "a codec's width must match its kind") };
        let block = &mut self.pending[R::KIND as usize];
        for (col, word) in block.words.chunks_exact_mut(self.block_rows).zip(row.words()) {
            col[block.rows] = word;
        }
        block.rows += 1;
        if block.rows == self.block_rows {
            self.flush(R::KIND)?;
        }
        Ok(())
    }

    /// Buffer every row of one stream's telemetry under the current tag.
    pub fn add_stream(&mut self, t: &StreamTelemetry) -> io::Result<()> {
        for d in &t.video_sent {
            self.push(d)?;
        }
        for d in &t.video_acked {
            self.push(d)?;
        }
        for d in &t.client_buffer {
            self.push(d)?;
        }
        Ok(())
    }

    /// Blocks and rows written so far (pending rows not included).
    pub fn written(&self) -> (u64, u64) {
        (self.blocks_written, self.rows_written)
    }

    /// Flush all pending rows as (possibly short) blocks.
    fn flush_pending(&mut self) -> io::Result<()> {
        BlockKind::ALL.into_iter().try_for_each(|kind| self.flush(kind))
    }

    /// Write `kind`'s pending rows as one block — header, column length
    /// table, encoded columns — and empty it.  No pending rows, no block.
    fn flush(&mut self, kind: BlockKind) -> io::Result<()> {
        let block = &mut self.pending[kind as usize];
        if block.rows == 0 {
            return Ok(());
        }
        let cols = &mut self.cols[..kind.n_cols()];
        for (col, words) in cols.iter_mut().zip(block.words.chunks_exact(self.block_rows)) {
            encode_column(col, &words[..block.rows]);
        }
        let mut header = [0u8; BLOCK_HEADER_LEN];
        header[0] = kind.code();
        header[4..8].copy_from_slice(&(block.rows as u32).to_le_bytes());
        header[8..16].copy_from_slice(&self.tag.to_le_bytes());
        self.out.write_all(&header)?;
        let mut lens = [0u8; MAX_COLS * 4];
        for (len, col) in lens.chunks_exact_mut(4).zip(cols.iter()) {
            let n = u32::try_from(col.len()).expect("column shorter than 10 bytes/row");
            len.copy_from_slice(&n.to_le_bytes());
        }
        self.out.write_all(&lens[..cols.len() * 4])?;
        for col in cols.iter() {
            self.out.write_all(col)?;
        }
        self.blocks_written += 1;
        self.rows_written += block.rows as u64;
        block.rows = 0;
        Ok(())
    }

    /// Flush any pending rows and return the inner writer (callers flush it).
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_pending()?;
        Ok(self.out)
    }
}

/// One decoded block, owned by the reader and reused across
/// [`ArchiveReader::next_block`] calls.  Only the `Vec` matching
/// [`DecodedBlock::kind`] is populated; the other three are empty.
#[derive(Debug, Default)]
pub struct DecodedBlock {
    /// Row type of this block.
    pub kind: Option<BlockKind>,
    /// Writer-assigned group tag (the RCT uses the session's spec index).
    pub tag: u64,
    /// Decoded `video_sent` rows (empty unless `kind` says so).
    pub video_sent: Vec<VideoSent>,
    /// Decoded `video_acked` rows (empty unless `kind` says so).
    pub video_acked: Vec<VideoAcked>,
    /// Decoded `client_buffer` rows (empty unless `kind` says so).
    pub client_buffer: Vec<ClientBuffer>,
    /// Decoded incident rows (empty unless `kind` says so).
    pub incidents: Vec<Incident>,
}

/// Streaming `.puf` reader.
///
/// Validates the file header at construction, then yields one block at a
/// time via [`ArchiveReader::next_block`], decoding into buffers kept
/// across calls — memory stays bounded by the largest single block no
/// matter the file size, and a block no larger than one already read
/// allocates nothing (pinned by the `tests/alloc_gate.rs`
/// `archive_reader_steady_state_is_allocation_free` gate).  Every
/// malformed input (bad magic, unknown version or kind, nonzero padding, a
/// zero-row block, truncation mid-block, trailing or overrunning column
/// bytes, a word its field cannot hold) is an
/// [`io::ErrorKind::InvalidData`] error, never a panic; clean EOF at a
/// block boundary ends iteration.
#[derive(Debug)]
pub struct ArchiveReader<R: Read> {
    input: R,
    block: DecodedBlock,
    /// The current block's column bytes.
    raw: Vec<u8>,
    /// Set after an error or clean EOF so further calls yield `None`.
    done: bool,
}

impl<R: Read> ArchiveReader<R> {
    /// Read and validate the 8-byte file header.
    pub fn new(mut input: R) -> io::Result<ArchiveReader<R>> {
        read_file_header(&mut input)?;
        Ok(ArchiveReader { input, block: DecodedBlock::default(), raw: Vec::new(), done: false })
    }

    /// Decode the next block, or `Ok(None)` at clean end-of-file.  The
    /// returned reference borrows the reader's reused buffers and is valid
    /// until the next call.
    // lint-root: alloc-free
    pub fn next_block(&mut self) -> io::Result<Option<&DecodedBlock>> {
        if self.done {
            return Ok(None);
        }
        match self.read_block() {
            Ok(true) => Ok(Some(&self.block)),
            Ok(false) => {
                self.done = true;
                Ok(None)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    /// Read one block into `self.block`.  `Ok(false)` means clean EOF.
    fn read_block(&mut self) -> io::Result<bool> {
        let Some(frame) = read_frame(&mut self.input)? else {
            return Ok(false);
        };
        // lint: alloc-free — raw keeps its capacity across blocks and grows only for a block larger than any before
        self.raw.resize(frame.payload, 0);
        self.input.read_exact(&mut self.raw).map_err(|_| invalid("truncated column data"))?;
        let (raw, lens, rows) = (&self.raw[..], &frame.col_lens, frame.rows);
        let b = &mut self.block;
        b.kind = Some(frame.kind);
        b.tag = frame.tag;
        b.video_sent.clear();
        b.video_acked.clear();
        b.client_buffer.clear();
        b.incidents.clear();
        match frame.kind {
            BlockKind::VideoSent => decode_rows(raw, lens, rows, &mut b.video_sent),
            BlockKind::VideoAcked => decode_rows(raw, lens, rows, &mut b.video_acked),
            BlockKind::ClientBuffer => decode_rows(raw, lens, rows, &mut b.client_buffer),
            BlockKind::Incident => decode_rows(raw, lens, rows, &mut b.incidents),
        }?;
        Ok(true)
    }
}

/// Decode `rows` rows of `R` from a block's column bytes `raw` (column `c`
/// is the next `lens[c]` bytes), reading the columns' XOR-prev varints in
/// lockstep, and append them to `out`.  Bytes left in a column after the
/// last row are a format error.
fn decode_rows<const COLS: usize, R: PufRow<COLS>>(
    raw: &[u8],
    lens: &[usize; MAX_COLS],
    rows: usize,
    out: &mut Vec<R>,
) -> io::Result<()> {
    const { assert!(R::KIND.n_cols() == COLS, "a codec's width must match its kind") };
    let mut cols = [raw; COLS];
    let mut rest = raw;
    for (col, &len) in cols.iter_mut().zip(lens) {
        (*col, rest) = rest.split_at(len);
    }
    let mut pos = [0usize; COLS];
    let mut words = [0u64; COLS];
    for _ in 0..rows {
        for ((word, col), pos) in words.iter_mut().zip(&cols).zip(&mut pos) {
            *word ^= read_varint(col, pos)?;
        }
        // lint: alloc-free — `out` is one of the reader's row vectors, which keep their capacity across blocks
        out.push(R::from_words(words)?);
    }
    if cols.iter().zip(pos).any(|(col, pos)| pos != col.len()) {
        return Err(invalid("column has trailing bytes after the last row"));
    }
    Ok(())
}

/// Read exactly `buf.len()` bytes; `Ok(false)` on EOF *before any byte*,
/// an `InvalidData` error `msg` on EOF mid-read (truncation), `Ok(true)` on
/// success.
fn read_exact_or_eof<R: Read>(input: &mut R, buf: &mut [u8], msg: &str) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(invalid(msg));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read and check a `.puf` file header: magic, version, zero reserved bytes.
fn read_file_header<R: Read>(input: &mut R) -> io::Result<()> {
    let mut header = [0u8; FILE_HEADER_LEN];
    input.read_exact(&mut header).map_err(|_| invalid("missing or short .puf header"))?;
    if header[..4] != MAGIC {
        return Err(invalid("bad magic: not a .puf file"));
    }
    if header[4] != VERSION {
        return Err(invalid("unsupported .puf version"));
    }
    if header[5..] != [0, 0, 0] {
        return Err(invalid("nonzero reserved bytes in .puf header"));
    }
    Ok(())
}

/// One block's framing: its header fields and column byte lengths.
struct BlockFrame {
    kind: BlockKind,
    rows: usize,
    tag: u64,
    /// Byte length of each column; the first `kind.n_cols()` are used.
    col_lens: [usize; MAX_COLS],
    /// Column bytes in all, after the length table.
    payload: usize,
}

/// Read and check the next block's header and column length table, leaving
/// `input` at its column bytes; `Ok(None)` at clean end-of-file.
fn read_frame<R: Read>(input: &mut R) -> io::Result<Option<BlockFrame>> {
    let mut header = [0u8; BLOCK_HEADER_LEN];
    if !read_exact_or_eof(input, &mut header, "truncated block header")? {
        return Ok(None);
    }
    let [code, pad @ .., r0, r1, r2, r3, t0, t1, t2, t3, t4, t5, t6, t7] = header;
    let kind = BlockKind::from_code(code).ok_or_else(|| invalid("unknown block kind code"))?;
    if pad != [0, 0, 0] {
        return Err(invalid("nonzero padding in block header"));
    }
    let rows = u32::from_le_bytes([r0, r1, r2, r3]) as usize;
    if rows == 0 {
        return Err(invalid("zero-row block"));
    }
    let tag = u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]);
    let n_cols = kind.n_cols();
    let mut len_bytes = [0u8; MAX_COLS * 4];
    input
        .read_exact(&mut len_bytes[..n_cols * 4])
        .map_err(|_| invalid("truncated column length table"))?;
    let mut col_lens = [0usize; MAX_COLS];
    let mut payload = 0usize;
    for (len, bytes) in col_lens.iter_mut().zip(len_bytes[..n_cols * 4].chunks_exact(4)) {
        let l = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        // A column of `rows` u64 varints can never exceed 10 bytes/row;
        // a larger claim is corruption and must not drive an allocation.
        if l > rows * MAX_VARINT_LEN {
            return Err(invalid("column length exceeds the per-row varint bound"));
        }
        *len = l;
        payload += l;
    }
    Ok(Some(BlockFrame { kind, rows, tag, col_lens, payload }))
}

/// The `(tag, offset, len)` of every block in a `.puf` file — offset of the
/// block header, whole-block length — found by checking each block's
/// framing as [`ArchiveReader`] does and seeking over its column bytes: no
/// row is decoded, so this is O(blocks), not O(rows).  A block that runs
/// past the end of the file is an error.
fn scan_blocks<R: Read + Seek>(input: &mut R) -> io::Result<Vec<(u64, u64, u64)>> {
    let file_len = input.seek(SeekFrom::End(0))?;
    input.seek(SeekFrom::Start(0))?;
    read_file_header(input)?;
    let mut blocks = Vec::new();
    let mut offset = FILE_HEADER_LEN as u64;
    while let Some(frame) = read_frame(input)? {
        let end = offset + (BLOCK_HEADER_LEN + frame.kind.n_cols() * 4 + frame.payload) as u64;
        if end > file_len {
            return Err(invalid("truncated column data"));
        }
        blocks.push((frame.tag, offset, end - offset));
        offset = input.seek(SeekFrom::Start(end))?;
    }
    Ok(blocks)
}

/// Merge per-worker spools into one deterministic day archive at `out`,
/// ordering blocks by `(tag, source offset)` and copying their bytes
/// verbatim.
///
/// The RCT writes one spool per worker and tags every block with the
/// session's spec index; since a tag lives entirely in one spool and its
/// blocks appear there in write order, `(tag, offset)` is a total order
/// that depends only on the experiment — the merged file is byte-identical
/// at any worker count (pinned by `tests/telemetry_archive.rs`).  Every
/// spool's framing is checked before `out` is created, so a malformed or
/// truncated spool is an error and writes nothing.
pub fn merge_spools(spools: &[PathBuf], out: &Path) -> io::Result<()> {
    let mut files = Vec::with_capacity(spools.len());
    let mut plan: Vec<(u64, u64, usize, u64)> = Vec::new();
    for (fi, path) in spools.iter().enumerate() {
        let mut f = std::fs::File::open(path)?;
        for (tag, offset, len) in scan_blocks(&mut f)? {
            plan.push((tag, offset, fi, len));
        }
        files.push(f);
    }
    // Unique per-session tags make (tag, offset) a total order; offset
    // breaks ties only within one file, so the sort never compares blocks
    // across files with equal keys.
    plan.sort_unstable();
    let mut w = io::BufWriter::new(std::fs::File::create(out)?);
    let mut header = [0u8; FILE_HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    w.write_all(&header)?;
    for (_tag, offset, fi, len) in plan {
        let f = &mut files[fi];
        f.seek(SeekFrom::Start(offset))?;
        io::copy(&mut f.take(len), &mut w)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(i: u64) -> VideoSent {
        VideoSent {
            time: i as f64 * 2.002,
            stream_id: 42,
            expt_id: 3,
            video_ts: i * 180_180,
            size: 4e5 + i as f64,
            ssim_index: 0.97,
            cwnd: 20.0,
            in_flight: 2.0,
            min_rtt: 0.04,
            rtt: 0.05,
            delivery_rate: 9e5,
        }
    }

    fn acked(i: u64) -> VideoAcked {
        VideoAcked {
            time: i as f64 * 2.1,
            stream_id: 42,
            expt_id: 3,
            video_ts: i * 180_180,
            size: 4e5,
        }
    }

    fn buffer(i: u64) -> ClientBuffer {
        ClientBuffer {
            time: i as f64 * 0.25,
            stream_id: 42,
            expt_id: 3,
            event: BufferEvent::Periodic,
            buffer: 7.5,
            cum_rebuf: 0.25 * i as f64,
        }
    }

    fn write_all(rows: u64, block_rows: usize) -> Vec<u8> {
        let mut w = ArchiveWriter::with_block_rows(Vec::new(), block_rows).unwrap();
        for i in 0..rows {
            w.push(&sent(i)).unwrap();
            w.push(&acked(i)).unwrap();
            w.push(&buffer(i)).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn varint_round_trips_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes overflow a u64.
        let buf = vec![0xffu8; 11];
        assert!(read_varint(&buf, &mut 0).is_err());
        // A lone continuation byte is truncated.
        assert!(read_varint(&[0x80], &mut 0).is_err());
    }

    #[test]
    fn rows_round_trip_bit_exactly_across_block_sizes() {
        for block_rows in [1usize, 3, 4096] {
            let bytes = write_all(10, block_rows);
            let mut r = ArchiveReader::new(&bytes[..]).unwrap();
            let (mut s, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new());
            while let Some(block) = r.next_block().unwrap() {
                s.extend_from_slice(&block.video_sent);
                a.extend_from_slice(&block.video_acked);
                b.extend_from_slice(&block.client_buffer);
            }
            let want_s: Vec<VideoSent> = (0..10).map(sent).collect();
            let want_a: Vec<VideoAcked> = (0..10).map(acked).collect();
            let want_b: Vec<ClientBuffer> = (0..10).map(buffer).collect();
            assert_eq!(s, want_s, "block_rows={block_rows}");
            assert_eq!(a, want_a);
            assert_eq!(b, want_b);
        }
    }

    #[test]
    fn special_floats_round_trip_bit_exactly() {
        let mut row = sent(0);
        row.time = -0.0;
        row.size = f64::NAN;
        row.rtt = f64::INFINITY;
        row.min_rtt = f64::MIN_POSITIVE / 2.0; // subnormal
        let mut w = ArchiveWriter::new(Vec::new()).unwrap();
        w.push(&row).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ArchiveReader::new(&bytes[..]).unwrap();
        let block = r.next_block().unwrap().unwrap();
        let got = block.video_sent[0];
        assert_eq!(got.time.to_bits(), row.time.to_bits());
        assert_eq!(got.size.to_bits(), row.size.to_bits());
        assert_eq!(got.rtt.to_bits(), row.rtt.to_bits());
        assert_eq!(got.min_rtt.to_bits(), row.min_rtt.to_bits());
    }

    #[test]
    fn incidents_round_trip_through_their_block() {
        let incidents = [
            Incident::on_session(
                0,
                1,
                7,
                IncidentKind::SessionPanic,
                DegradeAction::Quarantined,
                2,
            ),
            Incident::on_day(1, IncidentKind::ArchiveIo, DegradeAction::CsvOnly, 0),
        ];
        let mut w = ArchiveWriter::new(Vec::new()).unwrap();
        for inc in &incidents {
            w.push(inc).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = ArchiveReader::new(&bytes[..]).unwrap();
        let block = r.next_block().unwrap().unwrap();
        assert_eq!(block.kind, Some(BlockKind::Incident));
        assert_eq!(block.incidents, incidents);
    }

    #[test]
    fn empty_archive_is_header_only_and_reads_back_empty() {
        let w = ArchiveWriter::new(Vec::new()).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), FILE_HEADER_LEN);
        let mut r = ArchiveReader::new(&bytes[..]).unwrap();
        assert!(r.next_block().unwrap().is_none());
    }

    #[test]
    fn near_constant_columns_compress_to_about_a_byte_per_row() {
        let bytes = write_all(4096, 4096);
        // 4096 rows × 22 cells as CSV would be ~700 KB; the columnar form
        // must land far below the fixed-width (8 B/cell) encoding.
        let fixed_width = 4096 * (11 + 5 + 6) * 8;
        assert!(
            bytes.len() * 2 < fixed_width,
            "compacted {} vs fixed-width {fixed_width}",
            bytes.len()
        );
    }

    #[test]
    fn tag_change_flushes_and_stamps_blocks() {
        let mut w = ArchiveWriter::new(Vec::new()).unwrap();
        w.set_tag(7).unwrap();
        w.push(&sent(0)).unwrap();
        w.set_tag(9).unwrap();
        w.push(&sent(1)).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ArchiveReader::new(&bytes[..]).unwrap();
        let tags: Vec<u64> =
            std::iter::from_fn(|| r.next_block().unwrap().map(|b| b.tag)).collect();
        assert_eq!(tags, vec![7, 9]);
    }

    #[test]
    fn corrupt_inputs_error_instead_of_panicking() {
        let good = write_all(5, 4096);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(ArchiveReader::new(&bad[..]).is_err());

        // Unsupported version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(ArchiveReader::new(&bad[..]).is_err());

        // Unknown block kind.
        let mut bad = good.clone();
        bad[FILE_HEADER_LEN] = 200;
        let mut r = ArchiveReader::new(&bad[..]).unwrap();
        assert!(r.next_block().is_err());

        // Truncation at every prefix length must error or end cleanly —
        // never panic, and never fabricate rows past the cut.
        for cut in FILE_HEADER_LEN..good.len() {
            let mut r = ArchiveReader::new(&good[..cut]).unwrap();
            let mut total = 0usize;
            let result = loop {
                match r.next_block() {
                    Ok(Some(b)) => {
                        total += b.video_sent.len() + b.video_acked.len() + b.client_buffer.len();
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            if cut < good.len() {
                assert!(result.is_err() || total < 15, "cut={cut} read too much");
            }
        }
    }

    #[test]
    fn oversized_column_claim_is_rejected_before_allocation() {
        let mut w = ArchiveWriter::new(Vec::new()).unwrap();
        w.push(&sent(0)).unwrap();
        let mut bytes = w.finish().unwrap();
        // Claim 4 GiB-ish for column 0 of a 1-row block.
        let len_at = FILE_HEADER_LEN + BLOCK_HEADER_LEN;
        bytes[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = ArchiveReader::new(&bytes[..]).unwrap();
        assert!(r.next_block().is_err());
    }

    #[test]
    fn scan_finds_written_blocks_and_rejects_a_cut_one() {
        let bytes = write_all(10, 4);
        let blocks = scan_blocks(&mut io::Cursor::new(&bytes)).unwrap();
        // 10 rows at 4/block → 3 blocks per kind, back to back.
        assert_eq!(blocks.len(), 9);
        let mut end = FILE_HEADER_LEN as u64;
        for &(_, offset, len) in &blocks {
            assert_eq!(offset, end);
            end += len;
        }
        assert_eq!(end, bytes.len() as u64);
        // Every cut inside a block is an error; cuts at block starts are not.
        for cut in FILE_HEADER_LEN..bytes.len() {
            let on_boundary = blocks.iter().any(|&(_, offset, _)| offset == cut as u64);
            let scan = scan_blocks(&mut io::Cursor::new(&bytes[..cut]));
            assert_eq!(scan.is_ok(), on_boundary, "cut={cut}");
        }
    }

    #[test]
    fn merge_orders_by_tag_regardless_of_input_split() {
        let dir = std::env::temp_dir().join("puf_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let write_spool = |name: &str, tags: &[u64]| -> PathBuf {
            let path = dir.join(name);
            let mut w =
                ArchiveWriter::new(io::BufWriter::new(std::fs::File::create(&path).unwrap()))
                    .unwrap();
            for &t in tags {
                w.set_tag(t).unwrap();
                w.push(&sent(t)).unwrap();
            }
            w.finish().unwrap().flush().unwrap();
            path
        };
        // The same sessions split across workers two different ways.
        let a1 = write_spool("a1.puf", &[0, 2]);
        let a2 = write_spool("a2.puf", &[1, 3]);
        let b1 = write_spool("b1.puf", &[0]);
        let b2 = write_spool("b2.puf", &[1, 2, 3]);
        let out_a = dir.join("merged_a.puf");
        let out_b = dir.join("merged_b.puf");
        merge_spools(&[a1, a2], &out_a).unwrap();
        merge_spools(&[b1, b2], &out_b).unwrap();
        let bytes_a = std::fs::read(&out_a).unwrap();
        let bytes_b = std::fs::read(&out_b).unwrap();
        assert_eq!(bytes_a, bytes_b, "merge must not depend on the worker split");
        let mut r = ArchiveReader::new(&bytes_a[..]).unwrap();
        let mut tags = Vec::new();
        while let Some(b) = r.next_block().unwrap() {
            tags.push(b.tag);
        }
        assert_eq!(tags, vec![0, 1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
