//! One stream: the server-side send loop.
//!
//! A "stream" is one continuously-played channel within a session; changing
//! channels starts a new stream on the same TCP connection (§3.2, Fig. A1).
//! Per chunk, the server (a) waits until the client's 15-second buffer has
//! room, (b) asks the assigned ABR scheme for a rung, (c) sends the chunk
//! over the connection, and (d) records telemetry.  The client plays the
//! video and the user may leave — at their intended time, in disgust during
//! a stall, or, deep in the session tail, when QoE stops justifying staying
//! (§5.1).

use crate::client::PlaybackBuffer;
use crate::telemetry::{
    BufferEvent, ClientBuffer, StreamTelemetry, VideoAcked, VideoSent, VIDEO_TS_PER_CHUNK,
};
use crate::user::{StreamIntent, UserModel};
use fugu::ChunkObservation;
use puffer_abr::{Abr, AbrContext, ChunkRecord, HISTORY_LEN, HORIZON};
use puffer_media::{ssim, ChunkMenu, VideoSource, MAX_BUFFER_SECONDS};
use puffer_net::Connection;
use puffer_stats::StreamSummary;
use rand::Rng;

/// Why the stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuitReason {
    /// The user left before the first chunk played ("did not begin playing",
    /// Fig. A1).
    NeverBegan,
    /// The user watched as long as they intended.
    IntentDone,
    /// A rebuffering event drove the user away.
    AbandonedStall,
    /// Deep-tail retention check failed (§5.1).
    AbandonedTail,
}

/// Per-chunk record kept for analysis and RL training.
#[derive(Debug, Clone, Copy)]
pub struct ChunkLog {
    pub rung: usize,
    pub size: f64,
    pub ssim_db: f64,
    pub transmission_time: f64,
    /// Stall incurred waiting for this chunk, seconds.
    pub stall: f64,
    /// Client buffer at the send decision, seconds.
    pub buffer_before: f64,
    pub send_time: f64,
}

/// Fixed player/startup overhead added to the startup delay metric
/// (WebSocket setup, MediaSource init, first decode), seconds.
const STARTUP_OVERHEAD: f64 = 0.4;

/// The telemetry identity of a stream run.  Every stream shows the ABR the
/// next [`HORIZON`] chunk menus, the horizon the planners plan over.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamConfig {
    pub stream_id: u64,
    pub expt_id: u32,
}

/// Everything a stream run produces.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Summary figures; `None` when playback never began.
    pub summary: Option<StreamSummary>,
    pub chunk_log: Vec<ChunkLog>,
    /// Per-chunk observations for TTP training (§4.3).
    pub observations: Vec<ChunkObservation>,
    pub telemetry: StreamTelemetry,
    /// Wall-clock time when the stream ended.
    pub end_time: f64,
    pub quit: QuitReason,
}

/// Number of recent chunks over which tail-retention QoE is assessed.
const RECENT_WINDOW: usize = 32;

/// The when-and-for-how-long of one stream: the viewer's intent plus the two
/// session clocks [`run_stream`] needs to place the stream on the simulated
/// timeline.
#[derive(Debug, Clone, Copy)]
pub struct StreamClock {
    /// What the viewer means to do with this stream (zap away or watch).
    pub intent: StreamIntent,
    /// Wall time already spent watching in this session before this stream
    /// starts, seconds (for the 2.5-hour tail-retention rule).
    pub session_watch_before: f64,
    /// Wall-clock time at which the stream starts.
    pub start_time: f64,
}

impl StreamClock {
    /// A stream starting at the session epoch with no prior watch time —
    /// the common single-stream case.
    pub fn starting(intent: StreamIntent) -> Self {
        StreamClock { intent, session_watch_before: 0.0, start_time: 0.0 }
    }
}

/// A staged chunk decision: everything sampled at the decision point, held
/// between [`StreamRun::poll_decision`] and [`StreamRun::advance`].
#[derive(Debug, Clone, Copy)]
struct PendingDecision {
    send_t: f64,
    tcp_info: puffer_net::TcpInfo,
}

/// One stream as a resumable per-chunk state machine.
///
/// [`run_stream`] used to be a single loop with the ABR's `choose` call in
/// the middle; splitting that loop at the decision point lets a scheduler
/// suspend *many* streams at their decision points simultaneously and answer
/// all of them with one batched TTP forward pass per step-net
/// (`crate::batch`, `docs/BATCHING.md`).  The protocol per chunk:
///
/// 1. [`StreamRun::poll_decision`] — advance to the next send opportunity
///    and stage the decision inputs (send time, `tcp_info`); returns `false`
///    when the stream is over.
/// 2. [`StreamRun::context`] — the staged [`AbrContext`], identical to what
///    the in-loop `choose` call saw.
/// 3. [`StreamRun::advance`] — commit a rung: send the chunk, record
///    telemetry, slide the lookahead, and run the user-behaviour checks;
///    returns `false` when the stream ended on this chunk.
/// 4. [`StreamRun::finish`] — consume the machine into a [`StreamOutcome`].
///
/// Every random draw happens in the same order as the original loop, from
/// the same `rng` handed to each call, so `run_stream` rebuilt on top of
/// this machine is bit-identical to the old single-loop implementation.
#[derive(Debug)]
pub struct StreamRun {
    cfg: StreamConfig,
    deadline: f64,
    start_time: f64,
    session_watch_before: f64,
    upcoming: Vec<ChunkMenu>,
    client: PlaybackBuffer,
    history: Vec<ChunkRecord>,
    telemetry: StreamTelemetry,
    chunk_log: Vec<ChunkLog>,
    observations: Vec<ChunkObservation>,
    prev_ssim_db: Option<f64>,
    prev_rung: Option<usize>,
    quit: QuitReason,
    end_time: f64,
    last_completion: f64,
    pending: Option<PendingDecision>,
    finished: bool,
}

impl StreamRun {
    /// Start a stream on an existing connection, placed on the timeline by
    /// `clock`.  Draws the initial lookahead window from `source` (the same
    /// `rng` consumption as the old loop's prologue).
    pub fn begin<R: Rng + ?Sized>(
        conn: &Connection,
        source: &mut VideoSource,
        clock: StreamClock,
        cfg: &StreamConfig,
        rng: &mut R,
    ) -> StreamRun {
        let StreamClock { intent, session_watch_before, start_time } = clock;
        let intent_secs = match intent {
            StreamIntent::Zap(d) | StreamIntent::Watch(d) => d,
        };
        let deadline = start_time + intent_secs.max(0.05);
        let upcoming: Vec<ChunkMenu> = (0..HORIZON).map(|_| source.next_chunk(rng)).collect();
        StreamRun {
            cfg: *cfg,
            deadline,
            start_time,
            session_watch_before,
            upcoming,
            client: PlaybackBuffer::new(start_time),
            history: Vec::new(),
            telemetry: StreamTelemetry::default(),
            chunk_log: Vec::new(),
            observations: Vec::new(),
            prev_ssim_db: None,
            prev_rung: None,
            quit: QuitReason::IntentDone,
            end_time: deadline,
            last_completion: start_time.max(conn.last_completion()),
            pending: None,
            finished: false,
        }
    }

    /// Advance to the next chunk decision.  Returns `true` with the decision
    /// staged (read it via [`StreamRun::context`], commit it via
    /// [`StreamRun::advance`]), or `false` when the stream is over.
    /// Idempotent while a decision is staged.
    pub fn poll_decision(&mut self, conn: &Connection) -> bool {
        if self.finished {
            return false;
        }
        if self.pending.is_some() {
            return true;
        }
        // Server sends the next chunk as soon as the client has room.
        let send_t = self.client.time_with_room(self.last_completion, MAX_BUFFER_SECONDS);
        if send_t >= self.deadline {
            // The user will leave before this chunk matters.  `end_time`
            // stays at the deadline and `quit` at its default; `finish`
            // downgrades to `NeverBegan` if playback never started.
            self.finished = true;
            return false;
        }
        self.pending = Some(PendingDecision { send_t, tcp_info: conn.tcp_info(send_t) });
        true
    }

    /// The ABR context of the staged decision — identical to what the
    /// original loop passed to `choose`.
    pub fn context(&self) -> AbrContext<'_> {
        let p = self.pending.as_ref().expect("poll_decision must stage a decision first");
        AbrContext {
            buffer: self.client.buffer_at(p.send_t),
            prev_ssim_db: self.prev_ssim_db,
            prev_rung: self.prev_rung,
            lookahead: &self.upcoming,
            history: &self.history[self.history.len().saturating_sub(HISTORY_LEN)..],
            tcp_info: p.tcp_info,
        }
    }

    /// Commit the staged decision: send the chunk at `rung` (clamped to the
    /// menu, as the original loop clamped `choose`'s answer), deliver or
    /// abandon it, record telemetry, slide the lookahead window, and apply
    /// the user-behaviour checks.  Returns `false` when the stream ended on
    /// this chunk.
    pub fn advance<R: Rng + ?Sized>(
        &mut self,
        rung: usize,
        conn: &mut Connection,
        source: &mut VideoSource,
        abr: &mut dyn Abr,
        user: &UserModel,
        rng: &mut R,
    ) -> bool {
        let PendingDecision { send_t, tcp_info } =
            self.pending.take().expect("poll_decision must stage a decision first");
        let rung = rung.min(self.upcoming[0].n_rungs() - 1);
        let opt = self.upcoming[0].options[rung];
        let video_ts = self.upcoming[0].index * VIDEO_TS_PER_CHUNK;

        self.telemetry.video_sent.push(VideoSent {
            time: send_t,
            stream_id: self.cfg.stream_id,
            expt_id: self.cfg.expt_id,
            video_ts,
            size: opt.size,
            ssim_index: ssim::db_to_index(opt.ssim_db),
            cwnd: tcp_info.cwnd,
            in_flight: tcp_info.in_flight,
            min_rtt: tcp_info.min_rtt,
            rtt: tcp_info.rtt,
            delivery_rate: tcp_info.delivery_rate,
        });

        let transfer = conn.send(send_t, opt.size);
        let arrival = transfer.completion;
        self.last_completion = arrival;

        if arrival >= self.deadline {
            // The user leaves while this chunk is still in flight: its last
            // byte is never acknowledged, so no `video_acked` row, no TTP
            // observation, and no history entry exist for it — only the
            // `video_sent` row above (the unacked tail the identity join,
            // [`crate::archive::join_sent_acked`], drops).
            if !self.client.playing() {
                self.quit = QuitReason::NeverBegan;
            }
            self.end_time = self.deadline;
            self.finished = true;
            return false;
        }

        self.telemetry.video_acked.push(VideoAcked {
            time: arrival,
            stream_id: self.cfg.stream_id,
            expt_id: self.cfg.expt_id,
            video_ts,
            size: opt.size,
        });
        let record =
            ChunkRecord { size: opt.size, transmission_time: transfer.transmission_time() };
        abr.on_chunk_delivered(record);
        self.history.push(record);
        self.observations.push(ChunkObservation {
            size: opt.size,
            transmission_time: transfer.transmission_time(),
            tcp_info,
        });

        let started = self.client.playing();
        self.client.on_chunk_arrival(arrival);
        let stall = self.client.last_gap_stall();
        self.telemetry.client_buffer.push(ClientBuffer {
            time: arrival,
            stream_id: self.cfg.stream_id,
            expt_id: self.cfg.expt_id,
            event: if !started {
                BufferEvent::Startup
            } else if stall > 0.0 {
                BufferEvent::Rebuffer
            } else {
                BufferEvent::Periodic
            },
            buffer: self.client.buffer_at(arrival),
            cum_rebuf: self.client.cum_stall(),
        });
        self.chunk_log.push(ChunkLog {
            rung,
            size: opt.size,
            ssim_db: opt.ssim_db,
            transmission_time: transfer.transmission_time(),
            stall,
            buffer_before: self.client.buffer_at(send_t.max(arrival - 1e-9)).min(15.0),
            send_time: send_t,
        });
        self.prev_ssim_db = Some(opt.ssim_db);
        self.prev_rung = Some(rung);

        // Slide the lookahead window.
        self.upcoming.remove(0);
        self.upcoming.push(source.next_chunk(rng));

        // --- user behaviour ---
        if stall > 0.0 && user.quits_on_stall(stall, rng) {
            self.quit = QuitReason::AbandonedStall;
            self.end_time = arrival;
            self.finished = true;
            return false;
        }
        let session_time = self.session_watch_before + (arrival - self.start_time);
        let recent = &self.chunk_log[self.chunk_log.len().saturating_sub(RECENT_WINDOW)..];
        let recent_ssim = recent.iter().map(|c| c.ssim_db).sum::<f64>() / recent.len() as f64;
        let recent_var = if recent.len() > 1 {
            recent.windows(2).map(|w| (w[1].ssim_db - w[0].ssim_db).abs()).sum::<f64>()
                / (recent.len() - 1) as f64
        } else {
            0.0
        };
        let recent_wall = arrival - recent[0].send_time;
        let recent_stall_frac = if recent_wall > 0.0 {
            recent.iter().map(|c| c.stall).sum::<f64>() / recent_wall
        } else {
            0.0
        };
        if user.quits_in_tail(session_time, recent_ssim, recent_var, recent_stall_frac, rng) {
            self.quit = QuitReason::AbandonedTail;
            self.end_time = arrival;
            self.finished = true;
            return false;
        }
        true
    }

    /// Consume the machine into a [`StreamOutcome`] — the old loop's
    /// epilogue, verbatim.
    pub fn finish(self) -> StreamOutcome {
        let StreamRun {
            start_time,
            client,
            telemetry,
            chunk_log,
            observations,
            quit,
            end_time,
            ..
        } = self;
        if !client.playing() {
            return StreamOutcome {
                summary: None,
                chunk_log,
                observations,
                telemetry,
                end_time,
                quit: QuitReason::NeverBegan,
            };
        }

        let play_start = client.play_start().expect("playing implies a start");
        let watch_time = (end_time - play_start).max(0.0);
        // Stall accounting includes any trailing rebuffer between the final
        // chunk arrival and the user's departure, but never exceeds the watch.
        let stall_time = client.cum_stall_at(end_time.max(play_start)).min(watch_time);
        let ssims: Vec<f64> = chunk_log.iter().map(|c| c.ssim_db).collect();
        let mean_ssim =
            if ssims.is_empty() { 0.0 } else { ssims.iter().sum::<f64>() / ssims.len() as f64 };
        let variation = if ssims.len() > 1 {
            ssims.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (ssims.len() - 1) as f64
        } else {
            0.0
        };
        let summary = StreamSummary {
            startup_delay: (play_start - start_time) + STARTUP_OVERHEAD,
            watch_time,
            stall_time,
            mean_ssim_db: mean_ssim,
            ssim_variation_db: variation,
            first_chunk_ssim_db: ssims.first().copied().unwrap_or(0.0),
            mean_delivery_rate: if telemetry.video_sent.is_empty() {
                0.0
            } else {
                telemetry.video_sent.iter().map(|s| s.delivery_rate).sum::<f64>()
                    / telemetry.video_sent.len() as f64
            },
            total_bytes: chunk_log.iter().map(|c| c.size).sum(),
            chunks: chunk_log.len(),
        };
        StreamOutcome { summary: Some(summary), chunk_log, observations, telemetry, end_time, quit }
    }
}

/// Run one stream over an existing connection, placed on the timeline by
/// `clock` — the synchronous driver over [`StreamRun`] (decision per chunk
/// answered inline by `abr`).
pub fn run_stream<R: Rng + ?Sized>(
    conn: &mut Connection,
    source: &mut VideoSource,
    abr: &mut dyn Abr,
    user: &UserModel,
    clock: StreamClock,
    cfg: &StreamConfig,
    rng: &mut R,
) -> StreamOutcome {
    let mut run = StreamRun::begin(conn, source, clock, cfg, rng);
    while run.poll_decision(conn) {
        let rung = abr.choose(&run.context());
        if !run.advance(rung, conn, source, abr, user, rng) {
            break;
        }
    }
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_abr::Bba;
    use puffer_net::CongestionControl;
    use puffer_trace::{RateTrace, MBPS};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn conn(rate_mbps: f64) -> Connection {
        Connection::new(
            RateTrace::constant(rate_mbps * MBPS, 600.0),
            0.04,
            250_000.0,
            CongestionControl::Bbr,
            0.0,
        )
    }

    fn run(rate_mbps: f64, intent: StreamIntent, seed: u64) -> StreamOutcome {
        let mut c = conn(rate_mbps);
        let mut src = VideoSource::puffer_default();
        let mut abr = Bba::default();
        let user = UserModel::default();
        run_stream(
            &mut c,
            &mut src,
            &mut abr,
            &user,
            StreamClock::starting(intent),
            &StreamConfig::default(),
            &mut rng(seed),
        )
    }

    #[test]
    fn healthy_stream_plays_without_stalls() {
        let out = run(20.0, StreamIntent::Watch(120.0), 1);
        let s = out.summary.expect("must play");
        assert_eq!(out.quit, QuitReason::IntentDone);
        assert!(s.stall_time < 0.01, "fast link shouldn't stall: {}", s.stall_time);
        // ~120 s of wall time => ~60 chunks played plus up to ~7 buffered
        // ahead (the 15-second buffer the server keeps full).
        assert!((50..=70).contains(&s.chunks), "{} chunks", s.chunks);
        assert!(s.mean_ssim_db > 10.0);
        assert!(s.startup_delay > 0.4 && s.startup_delay < 2.0, "{}", s.startup_delay);
    }

    #[test]
    fn starved_stream_stalls() {
        // 0.25 Mbit/s cannot even sustain the lowest (0.2 Mbit/s nominal)
        // rung with VBR excursions and RTT overheads → stalls appear.
        let out = run(0.22, StreamIntent::Watch(300.0), 2);
        if let Some(s) = out.summary {
            assert!(
                s.stall_time > 0.0 || out.quit == QuitReason::AbandonedStall,
                "starved stream should stall: {s:?}"
            );
        }
    }

    #[test]
    fn zap_before_startup_never_begins() {
        // Leave after 100 ms; startup takes at least one chunk delivery.
        let out = run(2.0, StreamIntent::Zap(0.1), 3);
        assert_eq!(out.quit, QuitReason::NeverBegan);
        assert!(out.summary.is_none());
    }

    #[test]
    fn telemetry_sent_acked_match() {
        let out = run(6.0, StreamIntent::Watch(60.0), 4);
        let sent = out.telemetry.video_sent.len();
        let acked = out.telemetry.video_acked.len();
        // At most one chunk (the one in flight when the user left) is sent
        // but never acknowledged.
        assert!(acked <= sent && sent <= acked + 1, "sent {sent} acked {acked}");
        let joined =
            crate::archive::join_sent_acked(&out.telemetry.video_sent, &out.telemetry.video_acked)
                .unwrap();
        assert_eq!(joined.len(), acked, "one joined observation per acknowledged chunk");
        assert_eq!(acked, out.chunk_log.len());
        for ((_, o), c) in joined.iter().zip(&out.chunk_log) {
            assert_eq!(o.transmission_time.to_bits(), c.transmission_time.to_bits());
            assert!(o.transmission_time > 0.0);
        }
    }

    #[test]
    fn buffer_never_exceeds_cap() {
        let out = run(30.0, StreamIntent::Watch(90.0), 5);
        for cb in &out.telemetry.client_buffer {
            assert!(cb.buffer <= MAX_BUFFER_SECONDS + 1e-6, "buffer {} exceeds cap", cb.buffer);
        }
    }

    #[test]
    fn observations_align_with_acked_chunks() {
        // Observations feed TTP training, which needs a measured transmission
        // time — so they align with `video_acked`, not `video_sent` (a chunk
        // in flight at departure yields no observation).
        let out = run(6.0, StreamIntent::Watch(45.0), 6);
        assert_eq!(out.observations.len(), out.telemetry.video_acked.len());
        for (o, a) in out.observations.iter().zip(&out.telemetry.video_acked) {
            assert_eq!(o.size, a.size);
        }
    }

    #[test]
    fn watch_time_invariant() {
        let out = run(6.0, StreamIntent::Watch(200.0), 7);
        let s = out.summary.unwrap();
        // watch = played + stalls; both non-negative; watch ≤ intent + slack.
        assert!(s.watch_time <= 200.0 + 1.0);
        assert!(s.stall_time >= 0.0 && s.stall_time <= s.watch_time);
    }

    #[test]
    fn faster_links_get_better_quality() {
        let slow = run(1.2, StreamIntent::Watch(240.0), 8).summary.unwrap();
        let fast = run(25.0, StreamIntent::Watch(240.0), 8).summary.unwrap();
        assert!(
            fast.mean_ssim_db > slow.mean_ssim_db + 1.0,
            "fast {} vs slow {}",
            fast.mean_ssim_db,
            slow.mean_ssim_db
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(4.0, StreamIntent::Watch(100.0), 42);
        let b = run(4.0, StreamIntent::Watch(100.0), 42);
        assert_eq!(a.chunk_log.len(), b.chunk_log.len());
        assert_eq!(a.summary.unwrap(), b.summary.unwrap());
    }
}
