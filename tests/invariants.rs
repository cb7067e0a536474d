//! Property-based tests over the simulation's core invariants.
//!
//! Each property runs the real cross-crate stream simulation with
//! proptest-chosen parameters (seed, link rate, RTT, watch intent, scheme)
//! and asserts physical invariants that must hold for *every* input:
//! conservation of time, buffer bounds, non-negative stalls, telemetry
//! alignment, and causality of transfers.
//!
//! Skipped under Miri: hundreds of proptest cases through the full
//! simulation are minutes-long in an interpreter, and the unsafe code
//! Miri exists to check is exercised by the faster unit tests.
#![cfg(not(miri))]

use proptest::prelude::*;
use puffer_repro::abr::{Abr, Bba, Mpc};
use puffer_repro::fugu::ChunkObservation;
use puffer_repro::media::{VideoSource, CHUNK_SECONDS, MAX_BUFFER_SECONDS};
use puffer_repro::net::{CongestionControl, Connection};
use puffer_repro::platform::user::StreamIntent;
use puffer_repro::platform::{
    join_sent_acked, run_stream, QuitReason, StreamClock, StreamConfig, StreamOutcome, UserModel,
};
use puffer_repro::trace::{PufferLikeProcess, RateProcess, MBPS};
use rand::SeedableRng;

fn simulate(
    seed: u64,
    rate_mbps: f64,
    rtt_ms: f64,
    intent: f64,
    volatility: f64,
    scheme: u8,
) -> StreamOutcome {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let trace =
        PufferLikeProcess::new(rate_mbps * MBPS, volatility).sample_trace(intent + 60.0, &mut rng);
    let mut conn = Connection::new(
        trace,
        rtt_ms / 1000.0,
        (rate_mbps * MBPS * 0.5).max(16_000.0),
        CongestionControl::Bbr,
        0.0,
    );
    let mut source = VideoSource::puffer_default();
    let mut abr: Box<dyn Abr> = match scheme % 3 {
        0 => Box::new(Bba::default()),
        1 => Box::new(Mpc::mpc_hm()),
        _ => Box::new(Mpc::robust_mpc_hm()),
    };
    let user = UserModel::default();
    run_stream(
        &mut conn,
        &mut source,
        abr.as_mut(),
        &user,
        StreamClock::starting(StreamIntent::Watch(intent)),
        &StreamConfig::default(),
        &mut rng,
    )
}

/// Each observation's seven fields as bits, so NaN and −0.0 compare exactly.
fn observation_bits<'a>(stream: impl IntoIterator<Item = &'a ChunkObservation>) -> Vec<[u64; 7]> {
    let bits = |o: &ChunkObservation| {
        let t = o.tcp_info;
        [o.size, o.transmission_time, t.cwnd, t.in_flight, t.min_rtt, t.rtt, t.delivery_rate]
            .map(f64::to_bits)
    };
    stream.into_iter().map(bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn stream_invariants_hold(
        seed in 0u64..10_000,
        rate_mbps in 0.3f64..60.0,
        rtt_ms in 5.0f64..200.0,
        intent in 10.0f64..240.0,
        volatility in 0.0f64..1.0,
        scheme in 0u8..3,
    ) {
        let out = simulate(seed, rate_mbps, rtt_ms, intent, volatility, scheme);

        // Telemetry alignment: every ack joins (by chunk identity) a sent row
        // that precedes it; at most one chunk — the one in flight when the
        // user left — is sent but never acked.
        let sent = &out.telemetry.video_sent;
        let acked = &out.telemetry.video_acked;
        prop_assert!(
            acked.len() <= sent.len() && sent.len() <= acked.len() + 1,
            "sent {} acked {}", sent.len(), acked.len()
        );
        let joined = join_sent_acked(sent, acked).expect("every ack joins a sent row");
        for ((_, o), a) in joined.iter().zip(acked) {
            prop_assert!(o.transmission_time > 0.0, "ack must follow send");
            prop_assert_eq!(o.size, a.size);
        }
        // The join gives back the stream's training observations exactly.
        prop_assert_eq!(
            observation_bits(joined.iter().map(|(_, o)| o)),
            observation_bits(&out.observations)
        );
        // Sends are sequential in time.
        for w in out.telemetry.video_sent.windows(2) {
            prop_assert!(w[1].time >= w[0].time);
        }
        // Buffer reports respect the 15-second cap and non-negativity.
        for cb in &out.telemetry.client_buffer {
            prop_assert!(cb.buffer >= -1e-9 && cb.buffer <= MAX_BUFFER_SECONDS + 1e-6);
            prop_assert!(cb.cum_rebuf >= -1e-9);
        }
        // Chunk log: positive sizes and times, stalls non-negative.
        for c in &out.chunk_log {
            prop_assert!(c.size > 0.0);
            prop_assert!(c.transmission_time > 0.0);
            prop_assert!(c.stall >= 0.0);
            prop_assert!(c.rung < 10);
        }

        if let Some(s) = &out.summary {
            // Conservation: watch = played + stalled, within numeric slack.
            prop_assert!(s.stall_time >= 0.0);
            prop_assert!(s.stall_time <= s.watch_time + 1e-6,
                "stall {} > watch {}", s.stall_time, s.watch_time);
            // Cannot watch more than intended (plus one chunk of slack).
            prop_assert!(s.watch_time <= intent + CHUNK_SECONDS + 1.0);
            // Sent video duration covers the watch time minus stalls.
            let sent_video = s.chunks as f64 * CHUNK_SECONDS;
            prop_assert!(sent_video + 1e-6 >= s.watch_time - s.stall_time,
                "sent {} vs played {}", sent_video, s.watch_time - s.stall_time);
            // Quality values within the ladder's physical range.
            prop_assert!((1.0..=24.0).contains(&s.mean_ssim_db));
            prop_assert!(s.ssim_variation_db >= 0.0 && s.ssim_variation_db < 10.0);
            prop_assert!(s.startup_delay >= 0.4, "includes fixed overhead");
        } else {
            prop_assert_eq!(out.quit, QuitReason::NeverBegan);
        }
    }

    #[test]
    fn determinism_under_replay(
        seed in 0u64..2_000,
        rate_mbps in 0.5f64..20.0,
        scheme in 0u8..3,
    ) {
        let a = simulate(seed, rate_mbps, 40.0, 60.0, 0.4, scheme);
        let b = simulate(seed, rate_mbps, 40.0, 60.0, 0.4, scheme);
        prop_assert_eq!(a.chunk_log.len(), b.chunk_log.len());
        prop_assert_eq!(a.summary.is_some(), b.summary.is_some());
        if let (Some(x), Some(y)) = (a.summary, b.summary) {
            prop_assert_eq!(x, y);
        }
    }

    #[test]
    fn faster_links_never_hurt_quality_much(
        seed in 0u64..2_000,
        rtt_ms in 10.0f64..100.0,
    ) {
        // Monotonicity-in-expectation probe: a 40 Mbit/s path should give at
        // least the SSIM of a 1 Mbit/s path for the same seed and scheme.
        let slow = simulate(seed, 1.0, rtt_ms, 120.0, 0.2, 0);
        let fast = simulate(seed, 40.0, rtt_ms, 120.0, 0.2, 0);
        if let (Some(s), Some(f)) = (slow.summary, fast.summary) {
            prop_assert!(f.mean_ssim_db + 0.5 >= s.mean_ssim_db,
                "fast {} vs slow {}", f.mean_ssim_db, s.mean_ssim_db);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Batching N streams' TTP queries into one forward pass is bit-identical
    /// to N one-query batches — for both prediction targets, ragged per-query
    /// rung counts, and partial histories.  This is the contract the batched
    /// RCT day loop rests on (`docs/BATCHING.md`).
    #[test]
    fn batched_ttp_queries_match_independent_queries(
        seed in 0u64..10_000,
        n_queries in 1usize..6,
        throughput_target in 0u8..2,
        step in 0usize..5,
    ) {
        use fugu::ttp::{Ttp, TtpBatchQuery, TtpConfig, TtpScratch};
        use fugu::{TtpVariant, N_BINS};
        use puffer_repro::abr::ChunkRecord;
        use puffer_repro::net::TcpInfo;
        use rand::Rng;

        let config = if throughput_target == 1 {
            TtpVariant::ThroughputPredictor.ttp_config()
        } else {
            TtpConfig::default()
        };
        let ttp = Ttp::new(config, seed ^ 0x5eed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let histories: Vec<Vec<ChunkRecord>> = (0..n_queries)
            .map(|_| {
                let len = rng.random_range(0usize..9);
                (0..len)
                    .map(|_| ChunkRecord {
                        size: rng.random_range(10_000.0..2.0e6),
                        transmission_time: rng.random_range(0.01..8.0),
                    })
                    .collect()
            })
            .collect();
        let infos: Vec<TcpInfo> = (0..n_queries)
            .map(|_| TcpInfo {
                cwnd: rng.random_range(4.0..80.0),
                in_flight: rng.random_range(0.0..40.0),
                min_rtt: rng.random_range(0.005..0.2),
                rtt: rng.random_range(0.005..0.3),
                delivery_rate: rng.random_range(20_000.0..4.0e6),
            })
            .collect();
        let sizes: Vec<Vec<f64>> = (0..n_queries)
            .map(|_| {
                let n = rng.random_range(1usize..6);
                (0..n).map(|_| rng.random_range(5_000.0..3.0e6)).collect()
            })
            .collect();
        let queries: Vec<TtpBatchQuery<'_>> = (0..n_queries)
            .map(|i| TtpBatchQuery {
                history: &histories[i],
                tcp_info: &infos[i],
                proposed_sizes: &sizes[i],
            })
            .collect();
        let total: usize = sizes.iter().map(Vec::len).sum();
        let mut batched = vec![0.0f64; total * N_BINS];
        let mut scratch = TtpScratch::new();
        ttp.predict_time_distributions_batched_into(step, &queries, &mut scratch, &mut batched);

        let mut single_scratch = TtpScratch::new();
        let mut row0 = 0;
        for (i, q) in queries.iter().enumerate() {
            let mut single = vec![0.0f64; sizes[i].len() * N_BINS];
            ttp.predict_time_distributions_batched_into(
                step,
                std::slice::from_ref(q),
                &mut single_scratch,
                &mut single,
            );
            let rows = &batched[row0 * N_BINS..(row0 + sizes[i].len()) * N_BINS];
            prop_assert_eq!(
                rows, &single[..],
                "query {} (throughput {}, step {}) must be bit-identical", i, throughput_target, step
            );
            row0 += sizes[i].len();
        }
    }
}
