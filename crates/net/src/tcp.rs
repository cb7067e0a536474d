//! Round-based TCP flow model over a trace-driven bottleneck.
//!
//! The model advances in RTT-sized "rounds" while the flow is window-limited
//! and switches to a link-limited integral once the window covers the
//! bandwidth-delay product, which is both fast (O(rounds + log trace) per
//! chunk) and captures the dynamics ABR cares about: slow start, slow-start
//! restart after idle, queueing delay under loss-based control, and regime
//! changes mid-transfer.

use crate::{INIT_CWND, MSS};
use puffer_trace::{PathProfile, RateTrace};

/// Which congestion controller shapes the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionControl {
    /// Model-based: tracks ~2× BDP of inflight data, keeps queues short.
    /// The primary Puffer experiment used BBR (§3.2).
    Bbr,
    /// Loss-based: fills the bottleneck buffer until overflow, multiplicative
    /// decrease on loss (β = 0.7 as in CUBIC).
    Cubic,
}

/// Sender-side TCP statistics, mirroring the `tcp_info` fields Puffer logs
/// with every `video_sent` datum (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpInfo {
    /// Congestion window, packets (`tcpi_snd_cwnd`).
    pub cwnd: f64,
    /// Unacknowledged packets in flight (`tcpi_unacked` − ...).
    pub in_flight: f64,
    /// Minimum RTT observed, seconds (`tcpi_min_rtt`).
    pub min_rtt: f64,
    /// Smoothed RTT estimate, seconds (`tcpi_rtt`).
    pub rtt: f64,
    /// Delivery-rate estimate, bytes/second (`tcpi_delivery_rate`).
    pub delivery_rate: f64,
}

/// The outcome of sending one chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// When the server started writing the chunk.
    pub start: f64,
    /// When the last byte was acknowledged.
    pub completion: f64,
    /// Bytes transferred.
    pub bytes: f64,
}

impl Transfer {
    /// Send-to-ack transmission time in seconds — the quantity the TTP
    /// predicts (§4.2).
    pub fn transmission_time(&self) -> f64 {
        self.completion - self.start
    }

    /// Achieved goodput in bytes/second.
    pub fn throughput(&self) -> f64 {
        self.bytes / self.transmission_time()
    }
}

/// One server→client TCP connection carrying a video session.
///
/// Channel changes reuse the connection ("Users can switch channels without
/// breaking their TCP connection", §3.2), so state like `min_rtt` and the
/// congestion window persists across streams within a session.
#[derive(Debug, Clone)]
pub struct Connection {
    trace: RateTrace,
    cc: CongestionControl,
    /// Propagation RTT of the path, seconds.
    prop_rtt: f64,
    /// Bottleneck queue capacity in bytes.
    queue_capacity: f64,

    // --- congestion state ---
    cwnd: f64,
    ssthresh: f64,
    srtt: f64,
    delivery_rate: f64,
    /// Completion time of the most recent transfer.
    last_completion: f64,
    /// Window size (packets) in the final round of the last transfer.
    last_window_pkts: f64,
    /// Total bytes carried over the connection's lifetime.
    bytes_sent: f64,
}

/// EWMA gain for the smoothed RTT (RFC 6298 uses 1/8).
const SRTT_GAIN: f64 = 0.125;
/// EWMA gain for the delivery-rate estimate.
const RATE_GAIN: f64 = 0.3;

impl Connection {
    /// Open a connection at time `now` over the given path.
    ///
    /// `queue_capacity` is the bottleneck buffer in bytes;
    /// `prop_rtt` the propagation round-trip in seconds.
    pub fn new(
        trace: RateTrace,
        prop_rtt: f64,
        queue_capacity: f64,
        cc: CongestionControl,
        now: f64,
    ) -> Self {
        assert!(prop_rtt > 0.0, "propagation RTT must be positive");
        assert!(queue_capacity >= MSS, "queue must hold at least one packet");
        Connection {
            trace,
            cc,
            prop_rtt,
            queue_capacity,
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            // The handshake measures the propagation RTT.
            srtt: prop_rtt,
            // Cold start: the kernel has only the implicit initial-window
            // estimate.  Deliberately weak — the interesting signal at cold
            // start is the RTT, which correlates with the path class (Fig. 9).
            delivery_rate: INIT_CWND * MSS / prop_rtt,
            last_completion: now,
            last_window_pkts: 0.0,
            bytes_sent: 0.0,
        }
    }

    /// Open a session's connection at time 0 over its sampled `path`: the
    /// path's propagation RTT and a bottleneck queue of `buffer_seconds` at
    /// its base rate, but never under 16 kB.
    pub fn over_path(path: &PathProfile, trace: RateTrace, cc: CongestionControl) -> Self {
        let queue_capacity = (path.buffer_seconds * path.base_rate).max(16_000.0);
        Connection::new(trace, path.min_rtt, queue_capacity, cc, 0.0)
    }

    pub fn bytes_sent(&self) -> f64 {
        self.bytes_sent
    }

    /// Completion time of the most recent transfer (connection-creation time
    /// if nothing has been sent yet).  The next send must not start earlier.
    pub fn last_completion(&self) -> f64 {
        self.last_completion
    }

    /// Retransmission-timeout-scale idle threshold after which the kernel
    /// performs slow-start restart.
    fn idle_threshold(&self) -> f64 {
        (2.0 * self.srtt).max(0.25)
    }

    /// Sender-side statistics as of time `now` (logged with `video_sent`).
    pub fn tcp_info(&self, now: f64) -> TcpInfo {
        // Packets still unacked decay over roughly one RTT after the last
        // transfer completes; back-to-back sends (low client buffer) keep
        // in_flight high, long idle gaps drain it to zero.
        let gap = (now - self.last_completion).max(0.0);
        let in_flight = self.last_window_pkts * (-gap / self.srtt.max(1e-3)).exp();
        TcpInfo {
            cwnd: self.cwnd,
            in_flight,
            min_rtt: self.prop_rtt,
            rtt: self.srtt,
            delivery_rate: self.delivery_rate,
        }
    }

    /// Standing queue delay for a given window, rate, and controller.
    fn queue_delay(&self, window_bytes: f64, link_rate: f64) -> f64 {
        match self.cc {
            CongestionControl::Bbr => {
                // BBR keeps queues short; small residual proportional to rtt.
                0.1 * self.prop_rtt
            }
            CongestionControl::Cubic => {
                let bdp = link_rate * self.prop_rtt;
                let queued = (window_bytes - bdp).clamp(0.0, self.queue_capacity);
                if link_rate > 0.0 {
                    queued / link_rate
                } else {
                    0.0
                }
            }
        }
    }

    /// Grow/shrink the window at the end of a round.
    fn update_cwnd(&mut self, link_rate: f64) {
        let bdp_pkts = (link_rate * self.prop_rtt / MSS).max(1.0);
        match self.cc {
            CongestionControl::Bbr => {
                let target = 2.0 * bdp_pkts;
                if self.cwnd < target {
                    // Startup: double per round, like slow start.
                    self.cwnd = (self.cwnd * 2.0).min(target.max(INIT_CWND));
                } else {
                    // ProbeBW-ish: relax toward the target.
                    self.cwnd = 0.75 * self.cwnd + 0.25 * target;
                }
                self.cwnd = self.cwnd.max(4.0);
            }
            CongestionControl::Cubic => {
                let overflow_pkts = bdp_pkts + self.queue_capacity / MSS;
                if self.cwnd >= overflow_pkts {
                    // Bottleneck buffer overflowed: multiplicative decrease.
                    self.cwnd = (self.cwnd * 0.7).max(2.0);
                    self.ssthresh = self.cwnd;
                } else if self.cwnd < self.ssthresh {
                    self.cwnd = (self.cwnd * 2.0).min(overflow_pkts);
                } else {
                    // Congestion avoidance: roughly +1 MSS per RTT, slightly
                    // superlinear to stand in for CUBIC's convex probe.
                    self.cwnd += 1.0 + 0.02 * self.cwnd;
                }
            }
        }
    }

    /// Fold one round's measurements into srtt / delivery_rate.
    fn update_estimates(&mut self, round_rtt: f64, bytes: f64, elapsed: f64) {
        self.srtt = (1.0 - SRTT_GAIN) * self.srtt + SRTT_GAIN * round_rtt;
        if elapsed > 0.0 {
            let sample = bytes / elapsed;
            self.delivery_rate = (1.0 - RATE_GAIN) * self.delivery_rate + RATE_GAIN * sample;
        }
    }

    /// Send `bytes` starting at time `now`; returns the completed transfer.
    ///
    /// `now` must not precede the previous transfer's completion (the video
    /// server writes chunks sequentially over the WebSocket).
    pub fn send(&mut self, now: f64, bytes: f64) -> Transfer {
        assert!(bytes > 0.0 && bytes.is_finite(), "chunk must have positive size");
        assert!(
            now >= self.last_completion - 1e-9,
            "sends must be sequential: now={now} < last_completion={}",
            self.last_completion
        );

        // Slow-start restart after idle (RFC 2861): the kernel collapses the
        // window when the connection has been quiet.  This is a major source
        // of filesize⇄throughput nonlinearity for streaming workloads where
        // a full client buffer means ~2 s gaps between chunks.
        if now - self.last_completion > self.idle_threshold() {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = INIT_CWND.min(self.cwnd);
        }

        let mut remaining = bytes;
        let mut t = now;
        loop {
            let link_rate = self.trace.rate_at(t).max(1.0);
            let window_bytes = self.cwnd * MSS;
            let qdelay = self.queue_delay(window_bytes, link_rate);

            if window_bytes >= remaining {
                // Final (possibly only) round: the window covers the rest, so
                // completion is limited by the link draining `remaining`
                // bytes, plus the return path for the final ack.
                let drained_at = self.trace.advance(t, remaining);
                let completion = drained_at + self.prop_rtt / 2.0 + qdelay;
                let round_rtt = (completion - t).max(self.prop_rtt);
                self.update_estimates(round_rtt, remaining, completion - t);
                self.update_cwnd(link_rate);
                self.last_window_pkts = remaining / MSS;
                self.last_completion = completion;
                self.bytes_sent += bytes;
                return Transfer { start: now, completion, bytes };
            }

            // Window-limited round: put a full window on the wire, wait for
            // acks.  The round lasts at least an RTT (+ queueing) and at
            // least as long as the link needs to drain the window.
            let drained_at = self.trace.advance(t, window_bytes);
            let drain_time = drained_at - t;
            let round_time = drain_time.max(self.prop_rtt + qdelay);
            remaining -= window_bytes;
            self.update_estimates(round_time, window_bytes, round_time);
            self.update_cwnd(link_rate);
            self.last_window_pkts = self.cwnd;
            t += round_time;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_trace::trace::Epoch;
    use puffer_trace::MBPS;

    fn fast_link() -> RateTrace {
        RateTrace::constant(6.0 * MBPS, 60.0)
    }

    fn conn(trace: RateTrace, cc: CongestionControl) -> Connection {
        // 40 ms RTT, 250 kB queue.
        Connection::new(trace, 0.040, 250_000.0, cc, 0.0)
    }

    #[test]
    fn large_transfer_approaches_link_rate() {
        let mut c = conn(fast_link(), CongestionControl::Bbr);
        // Warm up the window.
        let _ = c.send(0.0, 2_000_000.0);
        let start = c.tcp_info(10.0); // keep borrow checker happy
        let _ = start;
        let t = c.send(c.last_completion, 6_000_000.0);
        let tput = t.throughput();
        assert!(
            tput > 0.75 * 6.0 * MBPS,
            "large transfer got {:.2} of link rate",
            tput / (6.0 * MBPS)
        );
    }

    #[test]
    fn small_transfer_pays_rtt_floor() {
        let mut c = conn(fast_link(), CongestionControl::Bbr);
        let t = c.send(0.0, 5_000.0);
        assert!(t.transmission_time() >= 0.020, "sub-RTT completion impossible");
        // Effective throughput far below link rate.
        assert!(t.throughput() < 0.5 * 6.0 * MBPS);
    }

    #[test]
    fn throughput_grows_with_filesize() {
        // The core nonlinearity the TTP learns (§4.6): per-byte speed rises
        // with transfer size.  Use fresh connections so each starts cold.
        let sizes = [20_000.0, 100_000.0, 500_000.0, 2_500_000.0];
        let mut tputs = Vec::new();
        for &s in &sizes {
            let mut c = conn(fast_link(), CongestionControl::Bbr);
            let t = c.send(0.0, s);
            tputs.push(t.throughput());
        }
        for w in tputs.windows(2) {
            assert!(w[1] > w[0], "throughput must increase with size: {tputs:?}");
        }
    }

    #[test]
    fn slow_start_restart_penalizes_idle_gaps() {
        // Same chunk size, same link: a chunk sent after a long idle gap
        // must take longer than one sent back-to-back.  Use a fast link so
        // the window-limited slow-start rounds dominate the transfer.
        let link = || RateTrace::constant(25.0 * MBPS, 60.0);
        let mut warm = conn(link(), CongestionControl::Bbr);
        let _ = warm.send(0.0, 2_000_000.0);
        let t_back_to_back = warm.send(warm.last_completion, 300_000.0);

        let mut idle = conn(link(), CongestionControl::Bbr);
        let _ = idle.send(0.0, 2_000_000.0);
        let gap_start = idle.last_completion + 10.0; // way past idle threshold
        let t_after_idle = idle.send(gap_start, 300_000.0);

        assert!(
            t_after_idle.transmission_time() > 1.3 * t_back_to_back.transmission_time(),
            "idle {:.3}s vs warm {:.3}s",
            t_after_idle.transmission_time(),
            t_back_to_back.transmission_time()
        );
    }

    #[test]
    fn outage_mid_transfer_stalls_completion() {
        let trace = RateTrace::new(&[
            Epoch { duration: 1.0, rate: 4.0 * MBPS },
            Epoch { duration: 8.0, rate: 0.01 * MBPS },
            Epoch { duration: 60.0, rate: 4.0 * MBPS },
        ]);
        let mut c = conn(trace, CongestionControl::Bbr);
        // 2 MB: needs ~0.5 s at 4 Mbps... but the outage interrupts.
        let t = c.send(0.8, 2_000_000.0);
        assert!(t.transmission_time() > 5.0, "outage must delay: {:.2}s", t.transmission_time());
    }

    #[test]
    fn cubic_queues_more_than_bbr() {
        let run = |cc| {
            let mut c = conn(fast_link(), cc);
            for _ in 0..10 {
                let _ = c.send(c.last_completion, 1_000_000.0);
            }
            c.tcp_info(c.last_completion).rtt
        };
        let bbr_rtt = run(CongestionControl::Bbr);
        let cubic_rtt = run(CongestionControl::Cubic);
        assert!(
            cubic_rtt > bbr_rtt,
            "loss-based control must build queues: cubic {cubic_rtt} vs bbr {bbr_rtt}"
        );
    }

    #[test]
    fn tcp_info_fields_sane_on_cold_start() {
        let c = conn(fast_link(), CongestionControl::Bbr);
        let info = c.tcp_info(0.0);
        assert_eq!(info.cwnd, INIT_CWND);
        assert_eq!(info.min_rtt, 0.040);
        assert_eq!(info.rtt, 0.040);
        assert!(info.in_flight.abs() < 1e-9);
        assert!(info.delivery_rate > 0.0);
    }

    #[test]
    fn delivery_rate_tracks_link_after_transfers() {
        let mut c = conn(fast_link(), CongestionControl::Bbr);
        for _ in 0..8 {
            let _ = c.send(c.last_completion, 1_500_000.0);
        }
        let rate = c.tcp_info(c.last_completion).delivery_rate;
        assert!(
            (rate / (6.0 * MBPS) - 1.0).abs() < 0.5,
            "delivery_rate {:.0} vs link {:.0}",
            rate,
            6.0 * MBPS
        );
    }

    #[test]
    fn in_flight_decays_with_idle_time() {
        let mut c = conn(fast_link(), CongestionControl::Bbr);
        let t = c.send(0.0, 2_000_000.0);
        let right_after = c.tcp_info(t.completion).in_flight;
        let later = c.tcp_info(t.completion + 1.0).in_flight;
        assert!(right_after > later, "{right_after} vs {later}");
        assert!(later < 0.05 * right_after.max(1.0));
    }

    #[test]
    fn min_rtt_is_stable_but_srtt_moves() {
        let mut c = conn(fast_link(), CongestionControl::Cubic);
        for _ in 0..12 {
            let _ = c.send(c.last_completion, 2_000_000.0);
        }
        let info = c.tcp_info(c.last_completion);
        assert_eq!(info.min_rtt, 0.040, "min_rtt is the propagation delay");
        assert!(info.rtt >= info.min_rtt, "srtt includes queueing");
    }

    #[test]
    fn transfers_are_sequential_and_monotone() {
        let mut c = conn(fast_link(), CongestionControl::Bbr);
        let mut t = 0.0;
        for i in 0..20 {
            let tr = c.send(t, 200_000.0 + 50_000.0 * i as f64);
            assert!(tr.completion > tr.start);
            t = tr.completion + 0.5;
        }
        assert!(c.bytes_sent() > 0.0);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn overlapping_sends_rejected() {
        let mut c = conn(fast_link(), CongestionControl::Bbr);
        let t = c.send(1.0, 1_000_000.0);
        let _ = c.send(t.completion - 0.1, 1_000.0);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut c = conn(fast_link(), CongestionControl::Bbr);
            let mut times = Vec::new();
            for i in 0..10 {
                let tr = c.send(c.last_completion + (i % 3) as f64, 300_000.0);
                times.push(tr.transmission_time());
            }
            times
        };
        assert_eq!(run(), run());
    }
}
