//! The daily open-data archive (Appendix B, §7).
//!
//! "Along with this paper, we are publishing our full archive of traces and
//! results on the Puffer website.  The system posts new data each day" —
//! three measurements per day: `video_sent`, `video_acked`, and
//! `client_buffer`, with sensitive fields redacted.  The RCT's archive sink
//! spools each day's telemetry to a compacted `.puf` archive
//! ([`TelemetrySpool`], [`merge_spools`](crate::merge_spools));
//! [`export_csv`] streams one back out as the same three CSV files.

use crate::archive_format::{ArchiveReader, ArchiveWriter, DEFAULT_BLOCK_ROWS};
use crate::faults::{incidents_csv, Incident};
use crate::telemetry::{
    write_client_buffer_row, write_video_acked_row, write_video_sent_row, StreamTelemetry,
    CLIENT_BUFFER_CSV_HEADER, VIDEO_ACKED_CSV_HEADER, VIDEO_SENT_CSV_HEADER,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Stream the `.puf` archive at `puf` out as the three Appendix-B CSVs,
/// `video_sent_<day>.csv`, `video_acked_<day>.csv` and
/// `client_buffer_<day>.csv` under `out_dir`, plus `incidents_<day>.csv`
/// when the archive carries incident blocks.  Returns each file written
/// with its row count, in that order.
///
/// One bounded-memory pass: rows stream block by block through the row
/// writers of [`crate::telemetry`], so a paper-scale day (§3.4: hundreds of
/// thousands of chunks) is never rendered in memory.  Each file is written
/// under a temporary name (`<name>.tmp`) and renamed into place only once
/// the whole archive has been read, so a failed export (a truncated or
/// corrupt `.puf`, a full disk) leaves no partial CSV behind and keeps an
/// earlier export of the same day intact.
pub fn export_csv(puf: &Path, out_dir: &Path, day: u32) -> std::io::Result<Vec<(PathBuf, u64)>> {
    let mut reader = ArchiveReader::new(BufReader::new(File::open(puf)?))?;
    std::fs::create_dir_all(out_dir)?;
    let mut staged = Vec::new();
    let result = write_csvs(&mut reader, out_dir, day, &mut staged);
    for (tmp, path) in &staged {
        if result.is_ok() {
            std::fs::rename(tmp, path)?;
        } else {
            std::fs::remove_file(tmp).ok();
        }
    }
    result
}

/// [`export_csv`]'s pass over the archive: every CSV it creates is pushed
/// onto `staged` as `(temporary path, final path)` before its first byte.
fn write_csvs<R: std::io::Read>(
    reader: &mut ArchiveReader<R>,
    out_dir: &Path,
    day: u32,
    staged: &mut Vec<(PathBuf, PathBuf)>,
) -> std::io::Result<Vec<(PathBuf, u64)>> {
    let mut create = |name: String, head: &[u8]| -> std::io::Result<BufWriter<File>> {
        let tmp = out_dir.join(format!("{name}.tmp"));
        let file = File::create(&tmp)?;
        staged.push((tmp, out_dir.join(name)));
        let mut out = BufWriter::new(file);
        out.write_all(head)?;
        Ok(out)
    };
    let mut sent = create(format!("video_sent_{day}.csv"), VIDEO_SENT_CSV_HEADER)?;
    let mut acked = create(format!("video_acked_{day}.csv"), VIDEO_ACKED_CSV_HEADER)?;
    let mut buffer = create(format!("client_buffer_{day}.csv"), CLIENT_BUFFER_CSV_HEADER)?;
    let mut rows = vec![0u64; 3];
    let mut incidents: Vec<Incident> = Vec::new();
    while let Some(block) = reader.next_block()? {
        for d in &block.video_sent {
            write_video_sent_row(&mut sent, d)?;
        }
        for d in &block.video_acked {
            write_video_acked_row(&mut acked, d)?;
        }
        for d in &block.client_buffer {
            write_client_buffer_row(&mut buffer, d)?;
        }
        rows[0] += block.video_sent.len() as u64;
        rows[1] += block.video_acked.len() as u64;
        rows[2] += block.client_buffer.len() as u64;
        incidents.extend(block.incidents.iter().filter_map(Incident::from_row));
    }
    for out in [&mut sent, &mut acked, &mut buffer] {
        out.flush()?;
    }
    if !incidents.is_empty() {
        create(format!("incidents_{day}.csv"), incidents_csv(&incidents).as_bytes())?.flush()?;
        rows.push(incidents.len() as u64);
    }
    Ok(staged.iter().map(|(_, path)| path.clone()).zip(rows).collect())
}

/// Incremental per-worker `.puf` spool used by the RCT's `archive_sink`.
///
/// Each simulation worker owns one spool and appends every finished
/// session's telemetry as it completes, tagged with the session's spec index
/// so the end-of-day merge (`merge_spools`) can order blocks independently
/// of which worker simulated which session.  Peak memory is one partially
/// filled block per measurement kind, never a day's worth of rows.
#[derive(Debug)]
pub struct TelemetrySpool {
    writer: ArchiveWriter<BufWriter<File>>,
    path: PathBuf,
}

impl TelemetrySpool {
    /// Create `dir/<name>` and write the archive header.
    pub fn create(dir: &Path, name: &str) -> std::io::Result<TelemetrySpool> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let writer = ArchiveWriter::with_block_rows(
            BufWriter::new(File::create(&path)?),
            DEFAULT_BLOCK_ROWS,
        )?;
        Ok(TelemetrySpool { writer, path })
    }

    /// Append one session's telemetry under `tag` (its spec index).  Flushes
    /// the pending blocks of the previous tag first, so no block ever spans
    /// two sessions and the merge can reorder whole blocks by tag.
    pub fn add_session<'a, I>(&mut self, tag: u64, streams: I) -> std::io::Result<()>
    where
        I: IntoIterator<Item = &'a StreamTelemetry>,
    {
        self.writer.set_tag(tag)?;
        for t in streams {
            self.writer.add_stream(t)?;
        }
        Ok(())
    }

    /// Flush everything and return the spool's path.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        self.writer.finish()?.flush()?;
        Ok(self.path)
    }

    /// The spool's on-disk path (for cleanup after the day's merge, or when
    /// a spool is abandoned after a write error without reaching
    /// [`TelemetrySpool::finish`]).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Append incident rows to an existing day archive as
/// [`crate::archive_format::BlockKind::Incident`] blocks.
///
/// The rows are encoded with a fresh [`ArchiveWriter`] into memory, then the
/// blocks (everything past the file header) are appended to `path`.  The
/// incident tag is `u64::MAX`, past every session spec index, so a re-merge
/// ordered by `(tag, offset)` keeps incidents at the end of the file.
pub fn append_incidents(path: &Path, incidents: &[crate::faults::Incident]) -> std::io::Result<()> {
    use crate::archive_format::FILE_HEADER_LEN;
    if incidents.is_empty() {
        return Ok(());
    }
    let mut w = ArchiveWriter::new(Vec::new())?;
    w.set_tag(u64::MAX)?;
    for inc in incidents {
        w.push_incident(&inc.to_row())?;
    }
    let bytes = w.finish()?;
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    f.write_all(&bytes[FILE_HEADER_LEN..])?;
    f.flush()
}
