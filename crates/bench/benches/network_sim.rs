//! Network-substrate microbenchmarks: trace generation, integral queries,
//! and chunk transfers through the TCP model.

use criterion::{criterion_group, criterion_main, Criterion};
use puffer_net::{CongestionControl, Connection};
use puffer_trace::{PufferLikeProcess, RateProcess, RateTrace, MBPS};
use rand::SeedableRng;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("trace_sample_10min", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            black_box(PufferLikeProcess::new(4.0 * MBPS, 0.5).sample_trace(600.0, &mut rng))
        })
    });

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let trace = PufferLikeProcess::new(4.0 * MBPS, 0.5).sample_trace(3600.0, &mut rng);
    // Steps of 1.7 s, one or two epochs of about a second: each lookup finds
    // its epoch at or just past the one the previous query found.
    c.bench_function("trace_advance_query", |b| {
        let mut t = 0.0;
        b.iter(|| {
            t = (t + 1.7) % 3000.0;
            black_box(trace.advance(black_box(t), 500_000.0))
        })
    });

    // The same query jumping about a thousand epochs each time, forward or
    // back: every lookup misses the remembered epoch and binary-searches.
    c.bench_function("trace_advance_cold", |b| {
        let mut t = 0.0;
        b.iter(|| {
            t = (t + 997.3) % 3000.0;
            black_box(trace.advance(black_box(t), 500_000.0))
        })
    });

    c.bench_function("tcp_chunk_transfer", |b| {
        let trace = RateTrace::constant(4.0 * MBPS, 600.0);
        let mut conn = Connection::new(trace, 0.04, 250_000.0, CongestionControl::Bbr, 0.0);
        b.iter(|| {
            let t = conn.last_completion() + 0.5;
            black_box(conn.send(t, 700_000.0))
        })
    });

    c.bench_function("tcp_session_100_chunks", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let trace = PufferLikeProcess::new(3.0 * MBPS, 0.5).sample_trace(400.0, &mut rng);
            let mut conn = Connection::new(trace, 0.04, 200_000.0, CongestionControl::Bbr, 0.0);
            let mut total = 0.0;
            for _ in 0..100 {
                let t = conn.last_completion() + 1.0;
                total += conn.send(t, 600_000.0).transmission_time();
            }
            black_box(total)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
