//! TTP inference latency.
//!
//! §4.5: "A forward pass of TTP's neural network in C++ imposes minimal
//! overhead per chunk (less than 0.3 ms on average on a recent x86-64
//! core)."  The `full_decision_queries` benchmark measures everything Fugu
//! asks of the TTP per chunk decision (5 steps × 10 rungs, batched), which
//! should land comfortably under that budget.

use criterion::{criterion_group, criterion_main, Criterion};
use fugu::{Ttp, TtpBatchQuery, TtpConfig, TtpScratch, N_BINS};
use puffer_abr::ChunkRecord;
use puffer_net::TcpInfo;
use std::hint::black_box;

fn tcp() -> TcpInfo {
    TcpInfo { cwnd: 24.0, in_flight: 6.0, min_rtt: 0.035, rtt: 0.048, delivery_rate: 1.1e6 }
}

fn history() -> Vec<ChunkRecord> {
    (0..8).map(|i| ChunkRecord { size: 4e5 + 1e4 * i as f64, transmission_time: 0.6 }).collect()
}

fn bench(c: &mut Criterion) {
    let ttp = Ttp::new(TtpConfig::default(), 1);
    let hist = history();
    let info = tcp();

    c.bench_function("ttp_single_forward", |b| {
        b.iter(|| black_box(ttp.predict_time_distribution(0, black_box(&hist), &info, 9e5)))
    });

    // Steady state for the planner's one-query batches: scratch and output
    // buffers are reused across queries, as the planner reuses them across
    // decisions.
    let sizes: Vec<f64> = (1..=10).map(|r| 5e4 * r as f64 * 2.5).collect();
    c.bench_function("ttp_batched_step_all_rungs", |b| {
        let mut scratch = TtpScratch::new();
        let mut out = vec![0.0; sizes.len() * N_BINS];
        b.iter(|| {
            let q = TtpBatchQuery {
                history: black_box(&hist),
                tcp_info: &info,
                proposed_sizes: &sizes,
            };
            ttp.predict_time_distributions_batched_into(0, &[q], &mut scratch, &mut out);
            black_box(&mut out);
        })
    });

    c.bench_function("ttp_full_decision_queries", |b| {
        // Everything a chunk decision needs: 5 steps × 10 rungs.
        let q = TtpBatchQuery { history: &hist, tcp_info: &info, proposed_sizes: &sizes };
        let mut scratch = TtpScratch::new();
        let mut out = vec![0.0; sizes.len() * N_BINS];
        b.iter(|| {
            for step in 0..5 {
                ttp.predict_time_distributions_batched_into(step, &[q], &mut scratch, &mut out);
                black_box(&mut out);
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
