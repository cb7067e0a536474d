//! Controller planning cost: the stochastic value iteration of §4.4 vs the
//! deterministic MPC it extends, per chunk decision.  `fugu_stochastic_plan`
//! includes the TTP inference that fills the distributions;
//! `fugu_plan_from_dists` times the value iteration alone.

use criterion::{criterion_group, criterion_main, Criterion};
use fugu::{ControllerConfig, PlanScratch, StochasticMpc, Ttp, TtpConfig};
use puffer_abr::{Abr, AbrContext, ChunkRecord, Mpc};
use puffer_media::{ChunkMenu, VideoSource};
use puffer_net::TcpInfo;
use rand::SeedableRng;
use std::hint::black_box;

fn context_parts() -> (Vec<ChunkMenu>, Vec<ChunkRecord>, TcpInfo) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut src = VideoSource::puffer_default();
    let menus: Vec<ChunkMenu> = (0..5).map(|_| src.next_chunk(&mut rng)).collect();
    let history: Vec<ChunkRecord> = (0..8)
        .map(|i| ChunkRecord { size: 5e5 + 2e4 * i as f64, transmission_time: 0.7 })
        .collect();
    let info = TcpInfo { cwnd: 30.0, in_flight: 8.0, min_rtt: 0.04, rtt: 0.05, delivery_rate: 9e5 };
    (menus, history, info)
}

fn bench(c: &mut Criterion) {
    let (menus, history, info) = context_parts();
    let ctx = AbrContext {
        buffer: 7.3,
        prev_ssim_db: Some(15.2),
        prev_rung: Some(6),
        lookahead: &menus,
        history: &history,
        tcp_info: info,
    };

    // Steady state: the scratch is reused across decisions exactly as
    // `Fugu::choose` reuses it, so the measured cost is allocation-free.
    let ttp = Ttp::new(TtpConfig::default(), 1);
    let stochastic = StochasticMpc::default();
    let mut scratch = PlanScratch::new();
    c.bench_function("fugu_stochastic_plan", |b| {
        b.iter(|| black_box(stochastic.plan_with(black_box(&ctx), &ttp, &mut scratch)))
    });

    // The value iteration alone: fill the distributions once, then plan
    // from them.  Planning without the point estimate leaves the
    // distributions as they are.
    let mut scratch = PlanScratch::new();
    stochastic.fill_dists(&ctx, &ttp, &mut scratch);
    c.bench_function("fugu_plan_from_dists", |b| {
        b.iter(|| {
            black_box(stochastic.plan_from_dists(black_box(&ctx), ttp.horizon(), &mut scratch))
        })
    });

    let point = StochasticMpc::new(ControllerConfig { point_estimate: true });
    let mut scratch = PlanScratch::new();
    c.bench_function("fugu_point_estimate_plan", |b| {
        b.iter(|| black_box(point.plan_with(black_box(&ctx), &ttp, &mut scratch)))
    });

    c.bench_function("mpc_hm_choose", |b| {
        let mut mpc = Mpc::mpc_hm();
        b.iter(|| black_box(mpc.choose(black_box(&ctx))))
    });

    c.bench_function("robust_mpc_choose", |b| {
        let mut mpc = Mpc::robust_mpc_hm();
        b.iter(|| black_box(mpc.choose(black_box(&ctx))))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
