//! Client/server telemetry, mirroring the open-data measurements of
//! Appendix B.
//!
//! Puffer's public archive has three essential measurements: `video_sent`
//! (one datum per chunk sent, with `tcp_info` fields), `video_acked` (one
//! per acknowledgement; joined to its `video_sent` row it gives the chunk's
//! transmission time, [`crate::archive::join_sent_acked`]), and
//! `client_buffer` (quarter-second buffer/rebuffer reports and events).  We
//! reproduce the same schema so analyses written against the paper's archive
//! shape work against simulated data, and provide the CSV row writers for the
//! daily dumps.

/// Presentation timestamp increment per 2.002-second chunk, in the archive's
/// 90 kHz MPEG timebase: 90 000 × 2.002 = 180 180.
pub const VIDEO_TS_PER_CHUNK: u64 = 180_180;

/// One datum of `video_sent` (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoSent {
    /// Epoch time (simulation seconds) when the chunk was sent.
    pub time: f64,
    /// Unique stream identifier.
    pub stream_id: u64,
    /// Experimental-group identifier (scheme arm).
    pub expt_id: u32,
    /// Presentation timestamp of the chunk (90 kHz timebase) — the chunk's
    /// identity within the stream, used to join against `video_acked`.
    pub video_ts: u64,
    /// Chunk size, bytes.
    pub size: f64,
    /// SSIM index of the chunk (not dB — matching the archive field).
    pub ssim_index: f64,
    /// `tcpi_snd_cwnd`, packets.
    pub cwnd: f64,
    /// Packets in flight.
    pub in_flight: f64,
    /// `tcpi_min_rtt`, seconds.
    pub min_rtt: f64,
    /// `tcpi_rtt` (smoothed), seconds.
    pub rtt: f64,
    /// `tcpi_delivery_rate`, bytes/second.
    pub delivery_rate: f64,
}

/// One datum of `video_acked`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoAcked {
    /// Epoch time when the chunk's last byte was acknowledged.
    pub time: f64,
    pub stream_id: u64,
    pub expt_id: u32,
    /// Presentation timestamp of the acknowledged chunk (90 kHz timebase),
    /// matching the `video_sent` row it joins with.
    pub video_ts: u64,
    /// Byte count acknowledged (matches the `video_sent` size).
    pub size: f64,
}

/// Event type of a `client_buffer` datum.  The discriminants are the stable
/// wire codes of the binary archive (`docs/ARCHIVE.md`): part of the `.puf`
/// v1 format, never to be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BufferEvent {
    /// Periodic report (the client reports every quarter second; we emit one
    /// per chunk arrival to bound volume).
    Periodic = 0,
    /// Playback started.
    Startup = 1,
    /// The player entered rebuffering.
    Rebuffer = 2,
    /// The player resumed after rebuffering.
    Play = 3,
}

impl BufferEvent {
    /// Every event, in wire-code order.
    const ALL: [BufferEvent; 4] =
        [BufferEvent::Periodic, BufferEvent::Startup, BufferEvent::Rebuffer, BufferEvent::Play];

    pub fn name(self) -> &'static str {
        match self {
            BufferEvent::Periodic => "periodic",
            BufferEvent::Startup => "startup",
            BufferEvent::Rebuffer => "rebuffer",
            BufferEvent::Play => "play",
        }
    }

    /// Stable wire code used by the binary archive: the discriminant.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`BufferEvent::code`]; `None` for codes outside the v1
    /// format (the archive reader turns that into a decode error).
    pub fn from_code(code: u8) -> Option<BufferEvent> {
        BufferEvent::ALL.get(usize::from(code)).copied()
    }
}

/// One datum of `client_buffer`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientBuffer {
    pub time: f64,
    pub stream_id: u64,
    pub expt_id: u32,
    pub event: BufferEvent,
    /// Playback buffer size, seconds.
    pub buffer: f64,
    /// Cumulative rebuffer time in the current stream, seconds.
    pub cum_rebuf: f64,
}

/// All telemetry of one stream.
#[derive(Debug, Clone, Default)]
pub struct StreamTelemetry {
    pub video_sent: Vec<VideoSent>,
    pub video_acked: Vec<VideoAcked>,
    pub client_buffer: Vec<ClientBuffer>,
}

/// Schema header line of the `video_sent` daily CSV.
pub const VIDEO_SENT_CSV_HEADER: &[u8] =
    b"time,stream_id,expt_id,video_ts,size,ssim_index,cwnd,in_flight,min_rtt,rtt,delivery_rate\n";

/// Schema header line of the `video_acked` daily CSV.
pub const VIDEO_ACKED_CSV_HEADER: &[u8] = b"time,stream_id,expt_id,video_ts,size\n";

/// Schema header line of the `client_buffer` daily CSV.
pub const CLIENT_BUFFER_CSV_HEADER: &[u8] = b"time,stream_id,expt_id,event,buffer,cum_rebuf\n";

/// Write one `video_sent` CSV row (no header).  The single definition of the
/// row rendering: the streaming `.puf`→CSV export
/// ([`crate::archive::export_csv`]) and every test that renders a reference
/// CSV call it, so their bytes cannot drift apart.
pub fn write_video_sent_row<W: std::io::Write>(out: &mut W, d: &VideoSent) -> std::io::Result<()> {
    writeln!(
        out,
        "{:.3},{},{},{},{:.0},{:.5},{:.1},{:.1},{:.6},{:.6},{:.0}",
        d.time,
        d.stream_id,
        d.expt_id,
        d.video_ts,
        d.size,
        d.ssim_index,
        d.cwnd,
        d.in_flight,
        d.min_rtt,
        d.rtt,
        d.delivery_rate
    )
}

/// Write one `video_acked` CSV row (no header).
pub fn write_video_acked_row<W: std::io::Write>(
    out: &mut W,
    d: &VideoAcked,
) -> std::io::Result<()> {
    writeln!(out, "{:.3},{},{},{},{:.0}", d.time, d.stream_id, d.expt_id, d.video_ts, d.size)
}

/// Write one `client_buffer` CSV row (no header).
pub fn write_client_buffer_row<W: std::io::Write>(
    out: &mut W,
    d: &ClientBuffer,
) -> std::io::Result<()> {
    writeln!(
        out,
        "{:.3},{},{},{},{:.3},{:.3}",
        d.time,
        d.stream_id,
        d.expt_id,
        d.event.name(),
        d.buffer,
        d.cum_rebuf
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::join_sent_acked;

    fn sent_ts(time: f64, chunk: u64) -> VideoSent {
        VideoSent {
            time,
            stream_id: 7,
            expt_id: 2,
            video_ts: chunk * VIDEO_TS_PER_CHUNK,
            size: 500_000.0,
            ssim_index: 0.975,
            cwnd: 30.0,
            in_flight: 4.0,
            min_rtt: 0.04,
            rtt: 0.05,
            delivery_rate: 1.2e6,
        }
    }

    fn acked_ts(time: f64, chunk: u64) -> VideoAcked {
        VideoAcked {
            time,
            stream_id: 7,
            expt_id: 2,
            video_ts: chunk * VIDEO_TS_PER_CHUNK,
            size: 500_000.0,
        }
    }

    #[test]
    fn join_pairs_each_ack_with_its_own_sent_row() {
        // The middle chunk's ack is missing and the last chunk was in flight
        // when the user left.  A positional zip would pair chunk 2's ack with
        // chunk 1's send; the identity join must not.
        let sent = [sent_ts(10.0, 0), sent_ts(11.0, 1), sent_ts(12.0, 2), sent_ts(13.0, 3)];
        let joined = join_sent_acked(&sent, &[acked_ts(10.8, 0), acked_ts(12.5, 2)]).unwrap();
        let got: Vec<(u64, f64)> =
            joined.iter().map(|&(id, o)| (id, o.transmission_time)).collect();
        assert_eq!(got, [(7, 10.8 - 10.0), (7, 12.5 - 12.0)]);
        assert_eq!(joined[0].1.tcp_info.delivery_rate, 1.2e6);
    }

    #[test]
    fn join_rejects_bad_rows() {
        let invalid = |sent: &[VideoSent], acked: &[VideoAcked]| {
            join_sent_acked(sent, acked).unwrap_err().kind() == std::io::ErrorKind::InvalidData
        };
        assert!(invalid(&[sent_ts(10.0, 0)], &[acked_ts(11.0, 1)]), "an ack with no sent row");
        assert!(invalid(&[sent_ts(10.0, 0), sent_ts(10.5, 0)], &[]), "two sent rows for a chunk");
        let mut nan = sent_ts(10.0, 0);
        nan.delivery_rate = f64::NAN;
        assert!(invalid(&[nan], &[acked_ts(10.8, 0)]), "a non-finite feature");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut csv = VIDEO_SENT_CSV_HEADER.to_vec();
        for d in [sent_ts(1.0, 0), sent_ts(2.0, 1)] {
            write_video_sent_row(&mut csv, &d).unwrap();
        }
        let csv = String::from_utf8(csv).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("time,stream_id,expt_id,video_ts"));
        assert!(lines[1].starts_with("1.000,7,2,0,500000,0.97500"));
        assert!(lines[2].starts_with("2.000,7,2,180180,500000,0.97500"));
        let mut acked = VIDEO_ACKED_CSV_HEADER.to_vec();
        write_video_acked_row(&mut acked, &acked_ts(1.5, 1)).unwrap();
        assert_eq!(acked, b"time,stream_id,expt_id,video_ts,size\n1.500,7,2,180180,500000\n");
    }

    #[test]
    fn buffer_event_names() {
        assert_eq!(BufferEvent::Rebuffer.name(), "rebuffer");
        let mut csv = Vec::new();
        let row = ClientBuffer {
            time: 3.25,
            stream_id: 1,
            expt_id: 0,
            event: BufferEvent::Startup,
            buffer: 2.002,
            cum_rebuf: 0.0,
        };
        write_client_buffer_row(&mut csv, &row).unwrap();
        assert_eq!(csv, b"3.250,1,0,startup,2.002,0.000\n");
    }
}
