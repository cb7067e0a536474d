//! `.puf` telemetry archive I/O microbenchmarks: encode (write), decode
//! (read) and the CSV rendering they replace, all per 4096-row block of
//! realistic mixed telemetry.  The writer and the reader are built once,
//! outside the timed loop, and stay warm across iterations, as the RCT's
//! spools, `export_csv` and `read_dataset` run them: the writer encodes
//! into `io::sink()`, and the reader decodes an endless replay of the
//! encoded blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use puffer_platform::archive_format::FILE_HEADER_LEN;
use puffer_platform::telemetry::{
    write_client_buffer_row, write_video_acked_row, write_video_sent_row, BufferEvent,
    ClientBuffer, StreamTelemetry, VideoAcked, VideoSent,
};
use puffer_platform::{ArchiveReader, ArchiveWriter};
use std::hint::black_box;
use std::io::Read;

/// A realistic block's worth of telemetry: monotone times, repeated ids,
/// slowly varying floats — the shape the XOR-delta codec is built for.
fn fixture(rows: usize) -> StreamTelemetry {
    let mut t = StreamTelemetry::default();
    for i in 0..rows {
        let time = i as f64 * 2.002;
        let size = 320_000.0 + 997.0 * (i % 37) as f64;
        t.video_sent.push(VideoSent {
            time,
            stream_id: 12_345_000 + (i / 400) as u64,
            expt_id: 7,
            video_ts: i as u64 * 180_180,
            size,
            ssim_index: 0.93 + 0.0001 * (i % 50) as f64,
            cwnd: 40.0 + (i % 13) as f64,
            in_flight: 6.0 + (i % 5) as f64,
            min_rtt: 0.043,
            rtt: 0.05 + 0.001 * (i % 9) as f64,
            delivery_rate: 1.2e6 + 5_000.0 * (i % 21) as f64,
        });
        t.video_acked.push(VideoAcked {
            time: time + 0.08,
            stream_id: 12_345_000 + (i / 400) as u64,
            expt_id: 7,
            video_ts: i as u64 * 180_180,
            size,
        });
        t.client_buffer.push(ClientBuffer {
            time: time + 0.1,
            stream_id: 12_345_000 + (i / 400) as u64,
            expt_id: 7,
            event: BufferEvent::Periodic,
            buffer: 8.0 + 0.1 * (i % 60) as f64,
            cum_rebuf: 0.25,
        });
    }
    t
}

/// An endless `.puf` source: the encoded file once, then its blocks over
/// and over, so one reader never reaches end-of-file.
struct Replay {
    bytes: Vec<u8>,
    pos: usize,
}

impl Read for Replay {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.bytes.len() {
            self.pos = FILE_HEADER_LEN;
        }
        let n = buf.len().min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn bench(c: &mut Criterion) {
    const ROWS: usize = 4096;
    let data = fixture(ROWS);

    // Each iteration fills, and so writes, one full block per kind.
    c.bench_function("archive_write_puf_block", |b| {
        let mut w = ArchiveWriter::new(std::io::sink()).unwrap();
        b.iter(|| w.add_stream(black_box(&data)).unwrap())
    });

    let mut encoded = Vec::new();
    let mut w = ArchiveWriter::new(&mut encoded).unwrap();
    w.add_stream(&data).unwrap();
    w.finish().unwrap();
    c.bench_function("archive_read_puf_block", |b| {
        let mut reader = ArchiveReader::new(Replay { bytes: encoded.clone(), pos: 0 }).unwrap();
        b.iter(|| {
            let mut rows = 0usize;
            for _ in 0..3 {
                let block = reader.next_block().unwrap().expect("a replay never ends");
                rows +=
                    block.video_sent.len() + block.video_acked.len() + block.client_buffer.len();
            }
            black_box(rows)
        })
    });

    c.bench_function("archive_write_csv_block", |b| {
        let mut out = Vec::with_capacity(1 << 21);
        b.iter(|| {
            out.clear();
            for d in &data.video_sent {
                write_video_sent_row(&mut out, black_box(d)).unwrap();
            }
            for d in &data.video_acked {
                write_video_acked_row(&mut out, black_box(d)).unwrap();
            }
            for d in &data.client_buffer {
                write_client_buffer_row(&mut out, black_box(d)).unwrap();
            }
            black_box(out.len())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
