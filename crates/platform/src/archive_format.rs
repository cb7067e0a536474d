//! The `.puf` compacted binary telemetry archive (v1).
//!
//! The paper's §3.4 power analysis needs ~2 years of pooled data (≥1M
//! stream-hours) before scheme differences separate, and Appendix B commits
//! to publishing every day's telemetry.  At that volume the CSV dump is the
//! bottleneck: a `video_sent` row is ~90 text bytes and must be re-parsed
//! float-by-float on every analysis pass.  `.puf` is the compact,
//! append-only on-disk form of the same three measurements
//! (`video_sent`, `video_acked`, `client_buffer`), designed so that
//!
//! * writing is **streaming and allocation-free** in steady state — the
//!   RCT's `archive_sink` spills telemetry as sessions finish, never holding
//!   a day's rows in RAM (one partially-filled block per measurement kind is
//!   the peak), and
//! * reading is **streaming** — [`ArchiveReader`] yields one decoded block
//!   at a time into reused buffers, so a ≥1M-stream-hour analysis runs in
//!   bounded memory, and
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
//! block  := kind u8 | pad [0u8; 3] | rows u32 | tag u64     — 16 bytes
//!         | col_len u32 × n_cols(kind)
//!         | col_bytes × n_cols(kind)
//! ```
//!
//! `kind` selects the measurement ([`BlockKind`]) and fixes the column
//! count and order (the struct field order of
//! [`VideoSent`]/[`VideoAcked`]/[`ClientBuffer`]).  `tag` groups blocks
//! belonging to one logical unit (the RCT uses the session's spec index);
//! writers flush pending rows on tag change so a block never spans tags.
//!
//! ## Column encoding
//!
//! Every cell is first mapped to a `u64` *word*: `f64` via `to_bits` (so
//! round-trips are bit-exact, NaNs and `-0.0` included), `u64`/`u32` as-is,
//! and [`BufferEvent`] via its stable wire code.  A column is then the
//! LEB128 varint of each word XORed with its predecessor (predecessor starts
//! at 0 for each column of each block).  XOR-prev needs no wrapping
//! arithmetic and collapses near-constant columns (`stream_id`, `expt_id`,
//! `min_rtt`…) to one byte per row; monotone timestamps keep their low bits
//! short.  See `docs/ARCHIVE.md` for the full specification and measured
//! size/throughput vs the CSV dump.

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

/// Which measurement a block holds.  The discriminants are wire values and
/// must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// `video_sent` rows, 11 columns.
    VideoSent,
    /// `video_acked` rows, 5 columns.
    VideoAcked,
    /// `client_buffer` rows, 6 columns.
    ClientBuffer,
    /// Degradation-incident rows (`crate::faults::Incident`), 6 columns.
    Incident,
}

impl BlockKind {
    /// Wire code of the kind (block header byte 0).
    pub fn code(self) -> u8 {
        match self {
            BlockKind::VideoSent => 0,
            BlockKind::VideoAcked => 1,
            BlockKind::ClientBuffer => 2,
            BlockKind::Incident => 3,
        }
    }

    /// Inverse of [`BlockKind::code`]; `None` for codes v1 does not define.
    pub fn from_code(code: u8) -> Option<BlockKind> {
        match code {
            0 => Some(BlockKind::VideoSent),
            1 => Some(BlockKind::VideoAcked),
            2 => Some(BlockKind::ClientBuffer),
            3 => Some(BlockKind::Incident),
            _ => None,
        }
    }

    /// Number of columns a block of this kind carries.
    pub fn n_cols(self) -> usize {
        match self {
            BlockKind::VideoSent => 11,
            BlockKind::VideoAcked => 5,
            BlockKind::ClientBuffer => 6,
            BlockKind::Incident => 6,
        }
    }
}

/// One degradation-incident row in wire form: the six numeric columns of an
/// [`BlockKind::Incident`] block.  `crate::faults::Incident` converts to and
/// from this raw representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentRow {
    /// Simulated day.
    pub day: u64,
    /// Arm index (`u32::MAX` = none).
    pub arm: u64,
    /// Session index within the day (`u64::MAX` = none).
    pub session: u64,
    /// `IncidentKind` wire code.
    pub kind: u64,
    /// `DegradeAction` wire code.
    pub action: u64,
    /// Kind-specific detail value.
    pub value: u64,
}

fn invalid(msg: &str) -> io::Error {
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
fn encode_column<I: Iterator<Item = u64>>(buf: &mut Vec<u8>, words: I) {
    buf.clear();
    let mut prev = 0u64;
    for w in words {
        push_varint(buf, w ^ prev);
        prev = w;
    }
}

/// Decode an XOR-prev varint column of exactly `rows` words into `out`
/// (cleared first).  Trailing bytes are a format error.
fn decode_column(bytes: &[u8], rows: usize, out: &mut Vec<u64>) -> io::Result<()> {
    out.clear();
    let mut pos = 0usize;
    let mut prev = 0u64;
    for _ in 0..rows {
        prev ^= read_varint(bytes, &mut pos)?;
        out.push(prev);
    }
    if pos != bytes.len() {
        return Err(invalid("column has trailing bytes after the last row"));
    }
    Ok(())
}

/// Streaming `.puf` writer.
///
/// Rows arrive via [`ArchiveWriter::push_sent`] / `push_acked` /
/// `push_buffer` (or a whole stream at once via
/// [`ArchiveWriter::add_stream`]) and are buffered per kind until a block
/// fills ([`DEFAULT_BLOCK_ROWS`] rows) or the tag changes, then encoded into
/// reused column buffers and written out.  After construction the steady
/// state allocates nothing per row (pinned by the `tests/alloc_gate.rs`
/// `archive_writer_steady_state_is_allocation_free` gate).
#[derive(Debug)]
pub struct ArchiveWriter<W: Write> {
    out: W,
    block_rows: usize,
    tag: u64,
    pending_sent: Vec<VideoSent>,
    pending_acked: Vec<VideoAcked>,
    pending_buffer: Vec<ClientBuffer>,
    pending_incidents: Vec<IncidentRow>,
    /// Reused per-column encode buffers, sized for the worst case
    /// (`block_rows` × [`MAX_VARINT_LEN`] bytes) at construction.
    cols: [Vec<u8>; MAX_COLS],
    blocks_written: u64,
    rows_written: u64,
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
        let cols = std::array::from_fn(|_| Vec::with_capacity(block_rows * MAX_VARINT_LEN));
        Ok(ArchiveWriter {
            out,
            block_rows,
            tag: 0,
            pending_sent: Vec::with_capacity(block_rows),
            pending_acked: Vec::with_capacity(block_rows),
            pending_buffer: Vec::with_capacity(block_rows),
            pending_incidents: Vec::new(),
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

    /// Buffer one `video_sent` row (flushes a block when full).
    // lint-root: alloc-free
    // lint: alloc-free — pending_sent is reserved to block_rows at construction and drained at that size; push never reallocates
    pub fn push_sent(&mut self, row: &VideoSent) -> io::Result<()> {
        self.pending_sent.push(*row);
        if self.pending_sent.len() == self.block_rows {
            self.flush_sent()?;
        }
        Ok(())
    }

    /// Buffer one `video_acked` row (flushes a block when full).
    // lint-root: alloc-free
    // lint: alloc-free — pending_acked is reserved to block_rows at construction and drained at that size; push never reallocates
    pub fn push_acked(&mut self, row: &VideoAcked) -> io::Result<()> {
        self.pending_acked.push(*row);
        if self.pending_acked.len() == self.block_rows {
            self.flush_acked()?;
        }
        Ok(())
    }

    /// Buffer one `client_buffer` row (flushes a block when full).
    // lint-root: alloc-free
    // lint: alloc-free — pending_buffer is reserved to block_rows at construction and drained at that size; push never reallocates
    pub fn push_buffer(&mut self, row: &ClientBuffer) -> io::Result<()> {
        self.pending_buffer.push(*row);
        if self.pending_buffer.len() == self.block_rows {
            self.flush_buffer()?;
        }
        Ok(())
    }

    /// Buffer one degradation-incident row (flushes a block when full).
    /// Off the hot path: incidents are rare supervision events, appended
    /// once per day after the workers finish.
    pub fn push_incident(&mut self, row: &IncidentRow) -> io::Result<()> {
        self.pending_incidents.push(*row);
        if self.pending_incidents.len() == self.block_rows {
            self.flush_incidents()?;
        }
        Ok(())
    }

    /// Buffer every row of one stream's telemetry under the current tag.
    pub fn add_stream(&mut self, t: &StreamTelemetry) -> io::Result<()> {
        for d in &t.video_sent {
            self.push_sent(d)?;
        }
        for d in &t.video_acked {
            self.push_acked(d)?;
        }
        for d in &t.client_buffer {
            self.push_buffer(d)?;
        }
        Ok(())
    }

    /// Blocks and rows written so far (pending rows not included).
    pub fn written(&self) -> (u64, u64) {
        (self.blocks_written, self.rows_written)
    }

    /// Flush all pending rows as (possibly short) blocks.
    fn flush_pending(&mut self) -> io::Result<()> {
        self.flush_sent()?;
        self.flush_acked()?;
        self.flush_buffer()?;
        self.flush_incidents()
    }

    /// Write one block's framing: header, then the column length table, then
    /// the first `n_cols` encode buffers.
    fn write_block(&mut self, kind: BlockKind, rows: usize) -> io::Result<()> {
        let n_cols = kind.n_cols();
        let mut header = [0u8; BLOCK_HEADER_LEN];
        header[0] = kind.code();
        header[4..8].copy_from_slice(&(rows as u32).to_le_bytes());
        header[8..16].copy_from_slice(&self.tag.to_le_bytes());
        self.out.write_all(&header)?;
        let mut lens = [0u8; MAX_COLS * 4];
        for (i, col) in self.cols[..n_cols].iter().enumerate() {
            let len = u32::try_from(col.len()).expect("column shorter than 10 bytes/row");
            lens[i * 4..i * 4 + 4].copy_from_slice(&len.to_le_bytes());
        }
        self.out.write_all(&lens[..n_cols * 4])?;
        for col in &self.cols[..n_cols] {
            self.out.write_all(col)?;
        }
        self.blocks_written += 1;
        self.rows_written += rows as u64;
        Ok(())
    }

    fn flush_sent(&mut self) -> io::Result<()> {
        if self.pending_sent.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.pending_sent);
        encode_column(&mut self.cols[0], rows.iter().map(|d| d.time.to_bits()));
        encode_column(&mut self.cols[1], rows.iter().map(|d| d.stream_id));
        encode_column(&mut self.cols[2], rows.iter().map(|d| u64::from(d.expt_id)));
        encode_column(&mut self.cols[3], rows.iter().map(|d| d.video_ts));
        encode_column(&mut self.cols[4], rows.iter().map(|d| d.size.to_bits()));
        encode_column(&mut self.cols[5], rows.iter().map(|d| d.ssim_index.to_bits()));
        encode_column(&mut self.cols[6], rows.iter().map(|d| d.cwnd.to_bits()));
        encode_column(&mut self.cols[7], rows.iter().map(|d| d.in_flight.to_bits()));
        encode_column(&mut self.cols[8], rows.iter().map(|d| d.min_rtt.to_bits()));
        encode_column(&mut self.cols[9], rows.iter().map(|d| d.rtt.to_bits()));
        encode_column(&mut self.cols[10], rows.iter().map(|d| d.delivery_rate.to_bits()));
        let n = rows.len();
        self.pending_sent = rows;
        self.pending_sent.clear();
        self.write_block(BlockKind::VideoSent, n)
    }

    fn flush_acked(&mut self) -> io::Result<()> {
        if self.pending_acked.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.pending_acked);
        encode_column(&mut self.cols[0], rows.iter().map(|d| d.time.to_bits()));
        encode_column(&mut self.cols[1], rows.iter().map(|d| d.stream_id));
        encode_column(&mut self.cols[2], rows.iter().map(|d| u64::from(d.expt_id)));
        encode_column(&mut self.cols[3], rows.iter().map(|d| d.video_ts));
        encode_column(&mut self.cols[4], rows.iter().map(|d| d.size.to_bits()));
        let n = rows.len();
        self.pending_acked = rows;
        self.pending_acked.clear();
        self.write_block(BlockKind::VideoAcked, n)
    }

    fn flush_buffer(&mut self) -> io::Result<()> {
        if self.pending_buffer.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.pending_buffer);
        encode_column(&mut self.cols[0], rows.iter().map(|d| d.time.to_bits()));
        encode_column(&mut self.cols[1], rows.iter().map(|d| d.stream_id));
        encode_column(&mut self.cols[2], rows.iter().map(|d| u64::from(d.expt_id)));
        encode_column(&mut self.cols[3], rows.iter().map(|d| u64::from(d.event.code())));
        encode_column(&mut self.cols[4], rows.iter().map(|d| d.buffer.to_bits()));
        encode_column(&mut self.cols[5], rows.iter().map(|d| d.cum_rebuf.to_bits()));
        let n = rows.len();
        self.pending_buffer = rows;
        self.pending_buffer.clear();
        self.write_block(BlockKind::ClientBuffer, n)
    }

    fn flush_incidents(&mut self) -> io::Result<()> {
        if self.pending_incidents.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.pending_incidents);
        encode_column(&mut self.cols[0], rows.iter().map(|d| d.day));
        encode_column(&mut self.cols[1], rows.iter().map(|d| d.arm));
        encode_column(&mut self.cols[2], rows.iter().map(|d| d.session));
        encode_column(&mut self.cols[3], rows.iter().map(|d| d.kind));
        encode_column(&mut self.cols[4], rows.iter().map(|d| d.action));
        encode_column(&mut self.cols[5], rows.iter().map(|d| d.value));
        let n = rows.len();
        self.pending_incidents = rows;
        self.pending_incidents.clear();
        self.write_block(BlockKind::Incident, n)
    }

    /// Flush any pending rows and return the inner writer (callers flush it).
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_pending()?;
        Ok(self.out)
    }
}

/// One decoded block, owned by the reader and reused across
/// [`ArchiveReader::next_block`] calls.  Only the `Vec` matching
/// [`DecodedBlock::kind`] is populated; the other two are empty.
#[derive(Debug, Default)]
pub struct DecodedBlock {
    /// Measurement kind of this block.
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
    pub incidents: Vec<IncidentRow>,
}

/// Streaming `.puf` reader.
///
/// Validates the file header at construction, then yields one block at a
/// time via [`ArchiveReader::next_block`], decoding into buffers reused
/// across calls — memory stays bounded by the largest single block no
/// matter the file size.  Every malformed input (bad magic, unknown
/// version or kind, nonzero padding, truncation mid-block, trailing or
/// overrunning column bytes) is an [`io::ErrorKind::InvalidData`] error,
/// never a panic; clean EOF at a block boundary ends iteration.
#[derive(Debug)]
pub struct ArchiveReader<R: Read> {
    input: R,
    block: DecodedBlock,
    raw: Vec<u8>,
    words: Vec<u64>,
    /// Set after an error or clean EOF so further calls yield `None`.
    done: bool,
}

impl<R: Read> ArchiveReader<R> {
    /// Read and validate the 8-byte file header.
    pub fn new(mut input: R) -> io::Result<ArchiveReader<R>> {
        read_file_header(&mut input)?;
        Ok(ArchiveReader {
            input,
            block: DecodedBlock::default(),
            raw: Vec::new(),
            words: Vec::new(),
            done: false,
        })
    }

    /// Decode the next block, or `Ok(None)` at clean end-of-file.  The
    /// returned reference borrows the reader's reused buffers and is valid
    /// until the next call.
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
        let Some(BlockFrame { kind, rows, tag, col_lens, payload }) = read_frame(&mut self.input)?
        else {
            return Ok(false);
        };
        let n_cols = kind.n_cols();
        self.raw.resize(payload, 0);
        self.input.read_exact(&mut self.raw).map_err(|_| invalid("truncated column data"))?;

        self.block.kind = Some(kind);
        self.block.tag = tag;
        self.block.video_sent.clear();
        self.block.video_acked.clear();
        self.block.client_buffer.clear();
        self.block.incidents.clear();
        match kind {
            BlockKind::VideoSent => {
                let mut cols: [Vec<u64>; 11] = std::array::from_fn(|_| Vec::new());
                self.decode_cols(rows, &col_lens[..n_cols], &mut cols)?;
                #[allow(clippy::needless_range_loop)] // r indexes parallel columns
                for r in 0..rows {
                    self.block.video_sent.push(VideoSent {
                        time: f64::from_bits(cols[0][r]),
                        stream_id: cols[1][r],
                        expt_id: narrow_u32(cols[2][r])?,
                        video_ts: cols[3][r],
                        size: f64::from_bits(cols[4][r]),
                        ssim_index: f64::from_bits(cols[5][r]),
                        cwnd: f64::from_bits(cols[6][r]),
                        in_flight: f64::from_bits(cols[7][r]),
                        min_rtt: f64::from_bits(cols[8][r]),
                        rtt: f64::from_bits(cols[9][r]),
                        delivery_rate: f64::from_bits(cols[10][r]),
                    });
                }
            }
            BlockKind::VideoAcked => {
                let mut cols: [Vec<u64>; 5] = std::array::from_fn(|_| Vec::new());
                self.decode_cols(rows, &col_lens[..n_cols], &mut cols)?;
                #[allow(clippy::needless_range_loop)] // r indexes parallel columns
                for r in 0..rows {
                    self.block.video_acked.push(VideoAcked {
                        time: f64::from_bits(cols[0][r]),
                        stream_id: cols[1][r],
                        expt_id: narrow_u32(cols[2][r])?,
                        video_ts: cols[3][r],
                        size: f64::from_bits(cols[4][r]),
                    });
                }
            }
            BlockKind::ClientBuffer => {
                let mut cols: [Vec<u64>; 6] = std::array::from_fn(|_| Vec::new());
                self.decode_cols(rows, &col_lens[..n_cols], &mut cols)?;
                #[allow(clippy::needless_range_loop)] // r indexes parallel columns
                for r in 0..rows {
                    let code = narrow_u32(cols[3][r])?;
                    let code = u8::try_from(code)
                        .ok()
                        .and_then(BufferEvent::from_code)
                        .ok_or_else(|| invalid("unknown client_buffer event code"))?;
                    self.block.client_buffer.push(ClientBuffer {
                        time: f64::from_bits(cols[0][r]),
                        stream_id: cols[1][r],
                        expt_id: narrow_u32(cols[2][r])?,
                        event: code,
                        buffer: f64::from_bits(cols[4][r]),
                        cum_rebuf: f64::from_bits(cols[5][r]),
                    });
                }
            }
            BlockKind::Incident => {
                let mut cols: [Vec<u64>; 6] = std::array::from_fn(|_| Vec::new());
                self.decode_cols(rows, &col_lens[..n_cols], &mut cols)?;
                #[allow(clippy::needless_range_loop)] // r indexes parallel columns
                for r in 0..rows {
                    self.block.incidents.push(IncidentRow {
                        day: cols[0][r],
                        arm: cols[1][r],
                        session: cols[2][r],
                        kind: cols[3][r],
                        action: cols[4][r],
                        value: cols[5][r],
                    });
                }
            }
        }
        Ok(true)
    }

    /// Decode each column's raw slice into per-column word vectors.
    fn decode_cols<const N: usize>(
        &mut self,
        rows: usize,
        lens: &[usize],
        cols: &mut [Vec<u64>; N],
    ) -> io::Result<()> {
        let mut offset = 0usize;
        for (i, col) in cols.iter_mut().enumerate() {
            let bytes = &self.raw[offset..offset + lens[i]];
            offset += lens[i];
            decode_column(bytes, rows, &mut self.words)?;
            std::mem::swap(col, &mut self.words);
        }
        Ok(())
    }
}

/// Narrow a decoded word to the struct's `u32` field, rejecting corrupt
/// values instead of truncating them.
fn narrow_u32(word: u64) -> io::Result<u32> {
    u32::try_from(word).map_err(|_| invalid("u32 column value exceeds 32 bits"))
}

/// Read exactly `buf.len()` bytes; `Ok(false)` on EOF *before any byte*,
/// an `InvalidData` error on EOF mid-read (truncation), `Ok(true)` on
/// success.
fn read_exact_or_eof<R: Read>(input: &mut R, buf: &mut [u8], what: &str) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(invalid(&format!("truncated {what}")));
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
    if !read_exact_or_eof(input, &mut header, "block header")? {
        return Ok(None);
    }
    let [code, pad @ .., r0, r1, r2, r3, t0, t1, t2, t3, t4, t5, t6, t7] = header;
    let kind = BlockKind::from_code(code).ok_or_else(|| invalid("unknown block kind code"))?;
    if pad != [0, 0, 0] {
        return Err(invalid("nonzero padding in block header"));
    }
    let rows = u32::from_le_bytes([r0, r1, r2, r3]) as usize;
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
            w.push_sent(&sent(i)).unwrap();
            w.push_acked(&acked(i)).unwrap();
            w.push_buffer(&buffer(i)).unwrap();
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
        w.push_sent(&row).unwrap();
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
        w.push_sent(&sent(0)).unwrap();
        w.set_tag(9).unwrap();
        w.push_sent(&sent(1)).unwrap();
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
        w.push_sent(&sent(0)).unwrap();
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
                w.push_sent(&sent(t)).unwrap();
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
