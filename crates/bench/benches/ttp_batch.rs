//! Cross-stream batched TTP inference vs. the per-stream loop.
//!
//! The batched scheduler (`puffer_platform::batch`) answers every concurrent
//! stream's chunk decision at the same lookahead step with one
//! `(streams · rungs) × features` forward pass per step-net, instead of each
//! stream cycling all five nets through cache alone.  This bench isolates
//! that kernel: 16 concurrent streams × 10 rungs × 5 steps, batched in one
//! call per step vs. 16 one-query calls per step.  Both produce
//! bit-identical distributions (pinned by `tests/invariants.rs`); the
//! difference is purely how the same arithmetic is scheduled.

use criterion::{criterion_group, criterion_main, Criterion};
use fugu::ttp::TtpBatchQuery;
use fugu::{Ttp, TtpConfig, TtpScratch, N_BINS};
use puffer_abr::ChunkRecord;
use puffer_net::TcpInfo;
use std::hint::black_box;

const N_STREAMS: usize = 16;
const N_RUNGS: usize = 10;

fn tcp(i: usize) -> TcpInfo {
    TcpInfo {
        cwnd: 18.0 + i as f64,
        in_flight: 4.0 + (i % 3) as f64,
        min_rtt: 0.030 + 0.002 * i as f64,
        rtt: 0.045 + 0.002 * i as f64,
        delivery_rate: 0.6e6 + 0.1e6 * i as f64,
    }
}

fn history(i: usize) -> Vec<ChunkRecord> {
    (0..8)
        .map(|k| ChunkRecord {
            size: 3e5 + 2e4 * ((i + k) % 7) as f64,
            transmission_time: 0.4 + 0.05 * (i % 5) as f64,
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let ttp = Ttp::new(TtpConfig::default(), 21);
    let histories: Vec<Vec<ChunkRecord>> = (0..N_STREAMS).map(history).collect();
    let infos: Vec<TcpInfo> = (0..N_STREAMS).map(tcp).collect();
    let sizes: Vec<f64> = (1..=N_RUNGS).map(|r| 5e4 * r as f64 * 2.5).collect();

    let mut group = c.benchmark_group("ttp_batch");

    // One batched pass per step-net answers all 16 streams at once.
    group.bench_function("16streams_batched", |b| {
        let queries: Vec<TtpBatchQuery<'_>> = (0..N_STREAMS)
            .map(|i| TtpBatchQuery {
                history: &histories[i],
                tcp_info: &infos[i],
                proposed_sizes: &sizes,
            })
            .collect();
        let mut scratch = TtpScratch::new();
        let mut out = vec![0.0; N_STREAMS * N_RUNGS * N_BINS];
        b.iter(|| {
            for step in 0..ttp.horizon() {
                ttp.predict_time_distributions_batched_into(
                    step,
                    black_box(&queries),
                    &mut scratch,
                    &mut out,
                );
                black_box(&mut out);
            }
        })
    });

    // Every stream planning alone, as a single Fugu instance does: a
    // one-query batch per stream walks all five step-nets on its own.
    group.bench_function("16streams_per_stream", |b| {
        let mut scratch = TtpScratch::new();
        let mut out = vec![0.0; N_RUNGS * N_BINS];
        b.iter(|| {
            for i in 0..N_STREAMS {
                let q = TtpBatchQuery {
                    history: black_box(&histories[i]),
                    tcp_info: &infos[i],
                    proposed_sizes: &sizes,
                };
                for step in 0..ttp.horizon() {
                    ttp.predict_time_distributions_batched_into(step, &[q], &mut scratch, &mut out);
                    black_box(&mut out);
                }
            }
        })
    });

    // Cross-arm batching: two arms (e.g. Full and PointEstimate over one
    // trained network) whose waves share a TTP snapshot.  Merged, their
    // 2 × 16 streams are one 32-query pass per step-net; unmerged, the same
    // arithmetic runs as two 16-query passes, cycling each step-net's
    // weights through cache twice.
    group.bench_function("2arms_shared_ttp_batched", |b| {
        let queries: Vec<TtpBatchQuery<'_>> = (0..2 * N_STREAMS)
            .map(|i| TtpBatchQuery {
                history: &histories[i % N_STREAMS],
                tcp_info: &infos[i % N_STREAMS],
                proposed_sizes: &sizes,
            })
            .collect();
        let mut scratch = TtpScratch::new();
        let mut out = vec![0.0; 2 * N_STREAMS * N_RUNGS * N_BINS];
        b.iter(|| {
            for step in 0..ttp.horizon() {
                ttp.predict_time_distributions_batched_into(
                    step,
                    black_box(&queries),
                    &mut scratch,
                    &mut out,
                );
                black_box(&mut out);
            }
        })
    });

    group.bench_function("2arms_shared_ttp_per_arm", |b| {
        let queries: Vec<TtpBatchQuery<'_>> = (0..N_STREAMS)
            .map(|i| TtpBatchQuery {
                history: &histories[i],
                tcp_info: &infos[i],
                proposed_sizes: &sizes,
            })
            .collect();
        let mut scratch = TtpScratch::new();
        let mut out = vec![0.0; N_STREAMS * N_RUNGS * N_BINS];
        b.iter(|| {
            for _arm in 0..2 {
                for step in 0..ttp.horizon() {
                    ttp.predict_time_distributions_batched_into(
                        step,
                        black_box(&queries),
                        &mut scratch,
                        &mut out,
                    );
                    black_box(&mut out);
                }
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
