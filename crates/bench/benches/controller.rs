//! Controller planning cost: the stochastic value iteration of §4.4 vs the
//! deterministic MPC it extends, per chunk decision.  `fugu_stochastic_plan`
//! includes the TTP inference that fills the distributions;
//! `fugu_plan_from_dists` times the value iteration alone; `mpc_plan_grid`
//! times the MPC planner over a grid of buffers and throughputs, and
//! `mpc_plan_deep_fast` over its deep-buffer, fast-link corner.

use criterion::{criterion_group, criterion_main, Criterion};
use fugu::{ControllerConfig, PlanScratch, StochasticMpc, Ttp, TtpConfig};
use puffer_abr::{Abr, AbrContext, ChunkRecord, Mpc, MpcScratch};
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

    // RobustMPC-HM divides the harmonic mean by one plus its largest recent
    // prediction error.  With no delivered chunk it has no error and plans
    // exactly what MPC-HM plans, so five chunks first arrive at 300 kB/s
    // against a prediction of about 714 kB/s (discount ≈ 1 / 2.4).
    c.bench_function("robust_mpc_choose", |b| {
        let mut mpc = Mpc::robust_mpc_hm();
        for _ in 0..5 {
            mpc.choose(&ctx);
            mpc.on_chunk_delivered(ChunkRecord { size: 3e5, transmission_time: 1.0 });
        }
        b.iter(|| black_box(mpc.choose(black_box(&ctx))))
    });

    // One context hides how the planner's cost moves with its reachable
    // spans: slow throughputs and deep buffers spread the rungs' landing
    // bins apart.  Both MPC variants run this planner and differ only in the
    // throughput they feed it, so one row sweeps it over 6 buffers × 5
    // throughputs (0.8 to 16 Mbit/s), 30 plans per iteration.
    let mpc = Mpc::mpc_hm();
    let mut scratch = MpcScratch::new();
    c.bench_function("mpc_plan_grid", |b| {
        b.iter(|| {
            let mut rungs = 0;
            for buffer in [0.0, 2.0, 5.0, 8.0, 11.0, 14.0] {
                let ctx = AbrContext { buffer, ..ctx.clone() };
                for throughput in [1e5, 2.5e5, 5e5, 1e6, 2e6] {
                    rungs += mpc.plan_with(black_box(&ctx), throughput, &mut scratch);
                }
            }
            black_box(rungs)
        })
    });

    // The corner where every rung's span is a bin or two: a deep buffer on
    // a fast link (12–14 s × 3–6 MB/s), 9 plans per iteration.  Here the
    // planner's fixed per-plan work, not its spans, sets the cost.
    c.bench_function("mpc_plan_deep_fast", |b| {
        b.iter(|| {
            let mut rungs = 0;
            for buffer in [12.0, 13.0, 14.0] {
                let ctx = AbrContext { buffer, ..ctx.clone() };
                for throughput in [3e6, 4.5e6, 6e6] {
                    rungs += mpc.plan_with(black_box(&ctx), throughput, &mut scratch);
                }
            }
            black_box(rungs)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
