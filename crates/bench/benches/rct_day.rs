//! End-to-end RCT day-loop throughput: one simulated day of the randomized
//! trial (§3.4) — blinded randomization, parallel session fan-out through
//! each worker's wave, CONSORT accounting, telemetry aggregation.
//!
//! This is the quantity that decides how fast the paper-scale experiment
//! (1,595,356 streams) can be simulated, so it is tracked in
//! `BENCH_hotpath.json` alongside the per-decision microbenches.  Three arms
//! cover the cost spectrum: BBA (cheap control), MPC-HM (planning-bound),
//! and Fugu (TTP inference + stochastic planning).  The day runs on 1 and
//! on 2 workers; `run_rct` caps workers at the core count, so the 2-worker
//! id measures scaling only where `nproc` (recorded with the snapshot) is 2
//! or more.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fugu::{Ttp, TtpConfig, TtpVariant};
use puffer_platform::experiment::run_rct;
use puffer_platform::{ExperimentConfig, SchemeSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("rct_day");
    group.sample_size(10);
    let ttp = Ttp::new(TtpConfig::default(), 9);

    for workers in [1usize, 2] {
        let cfg = ExperimentConfig {
            seed: 11,
            sessions_per_day: 64,
            days: 1,
            threads: workers,
            // Retraining is benched separately (`ttp_training`); keep the
            // day-loop figure about session throughput.
            retrain: None,
            ..ExperimentConfig::default()
        };
        group.bench_function(BenchmarkId::new("3arms_64sessions", format!("{workers}w")), |b| {
            b.iter(|| {
                let schemes = vec![
                    SchemeSpec::Bba,
                    SchemeSpec::MpcHm,
                    SchemeSpec::fugu_frozen(ttp.clone(), TtpVariant::Full, "Fugu"),
                ];
                black_box(run_rct(schemes, &cfg).total_sessions)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
