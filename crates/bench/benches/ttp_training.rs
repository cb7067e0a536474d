//! Nightly TTP retraining throughput.
//!
//! §4.3: the TTP is retrained every day on a 14-day telemetry window, so in a
//! production-scale reproduction the retrain is a recurring hot path.  These
//! benches measure one full warm-start retrain (sample building, scaler
//! refit, SGD over every step-net) at 1/2/5 worker threads — the trained
//! model is bit-identical at every thread count.

use criterion::{criterion_group, criterion_main, Criterion};
use fugu::{train, ChunkObservation, Dataset, TrainConfig, Ttp, TtpConfig};
use puffer_net::TcpInfo;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Telemetry with learnable structure: transmission time is a clean function
/// of the per-stream delivery rate.
fn synthetic_dataset(days: u32, streams_per_day: usize) -> Dataset {
    let mut d = Dataset::new();
    let mut r = rand::rngs::StdRng::seed_from_u64(99);
    for day in 1..=days {
        for _ in 0..streams_per_day {
            let rate = 1e5 + 9e5 * r.random::<f64>();
            let stream: Vec<ChunkObservation> = (0..30)
                .map(|_| {
                    let size = 1e5 + 1.4e6 * r.random::<f64>();
                    ChunkObservation {
                        size,
                        transmission_time: size / rate + 0.05,
                        tcp_info: TcpInfo {
                            cwnd: 20.0,
                            in_flight: 2.0,
                            min_rtt: 0.04,
                            rtt: 0.05,
                            delivery_rate: rate,
                        },
                    }
                })
                .collect();
            d.add_stream(day, stream);
        }
    }
    d
}

fn bench(c: &mut Criterion) {
    let data = synthetic_dataset(2, 10);
    let base = TrainConfig { epochs: 1, max_samples_per_step: 600, ..TrainConfig::default() };

    let mut group = c.benchmark_group("ttp_training");
    // One sample is a whole retrain (~tens of ms); keep the run short.
    group.sample_size(10);
    for threads in [1usize, 2, 5] {
        let cfg = TrainConfig { threads, ..base };
        let mut ttp = Ttp::new(TtpConfig::default(), 7);
        group.bench_function(format!("{threads}threads").as_str(), |b| {
            b.iter(|| {
                // Warm-start retrain in place, exactly like the nightly job.
                let mut rng = rand::rngs::StdRng::seed_from_u64(11);
                black_box(train(&mut ttp, black_box(&data), 2, &cfg, &mut rng).unwrap());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
