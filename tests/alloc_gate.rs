//! Hard allocation gates for the pinned hot paths.
//!
//! Earlier work made the per-decision planners and the training minibatch
//! step allocation-free and *claimed* so in doc comments; this harness turns
//! those claims into assertions.  A counting `#[global_allocator]` wraps the
//! system allocator, and each gate warms its scratch buffers to steady-state
//! shape, then asserts the measured region performs **zero** heap operations
//! — so an accidental `Vec::new()` or format! on a hot path fails CI instead
//! of silently costing microseconds per chunk.
//!
//! The counter is thread-local: the libtest harness runs each `#[test]` on
//! its own thread, so allocations from a concurrently running gate can never
//! leak into another gate's count.

use fugu::controller::{PlanScratch, StochasticMpc};
use fugu::dataset::Sample;
use fugu::training::{train_one_net, TrainConfig, TrainScratch};
use fugu::ttp::{Ttp, TtpConfig, TtpScratch};
use fugu::N_BINS;
use puffer_repro::abr::mpc::{Mpc, MpcScratch};
use puffer_repro::abr::{AbrContext, ChunkRecord};
use puffer_repro::media::{ChunkMenu, ChunkOption, CHUNK_SECONDS};
use puffer_repro::net::TcpInfo;
use puffer_repro::nn::{Activation, Mlp, Scaler};
use puffer_repro::platform::telemetry::{
    BufferEvent, ClientBuffer, StreamTelemetry, VideoAcked, VideoSent,
};
use puffer_repro::platform::{ArchiveReader, ArchiveWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, counting every heap operation that can
/// acquire or move memory (`alloc`, `alloc_zeroed`, `realloc`) on the
/// current thread.  `dealloc` is deliberately not counted: a free in a
/// measured region implies a prior allocation that was already counted.
struct CountingAlloc;

thread_local! {
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the only addition is a thread-local counter bump,
// which itself performs no heap operations (const-initialized Cell).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, to which this forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc`, to which this forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller upholds the pointer/layout
        // contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`, to which this forwards.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`, to which this forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded verbatim; caller upholds the pointer/layout
        // contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap operations performed by `f` on this thread.
fn heap_ops_in(f: impl FnOnce()) -> u64 {
    let before = HEAP_OPS.with(Cell::get);
    f();
    HEAP_OPS.with(Cell::get) - before
}

// --- shared fixtures -------------------------------------------------------

fn menus(h: usize) -> Vec<ChunkMenu> {
    (0..h)
        .map(|i| ChunkMenu {
            index: i as u64,
            options: [0.2e6, 1.0e6, 3.0e6, 5.5e6]
                .iter()
                .enumerate()
                .map(|(r, &bps)| ChunkOption {
                    size: bps / 8.0 * CHUNK_SECONDS,
                    ssim_db: 8.0 + 3.0 * r as f64,
                })
                .collect(),
        })
        .collect()
}

fn tcp(rate: f64) -> TcpInfo {
    TcpInfo { cwnd: 20.0, in_flight: 1.0, min_rtt: 0.04, rtt: 0.05, delivery_rate: rate }
}

fn history(rate: f64) -> Vec<ChunkRecord> {
    (0..8).map(|_| ChunkRecord { size: rate, transmission_time: 1.0 }).collect()
}

fn ctx<'a>(menus: &'a [ChunkMenu], history: &'a [ChunkRecord]) -> AbrContext<'a> {
    AbrContext {
        buffer: 6.0,
        prev_ssim_db: Some(11.0),
        prev_rung: Some(1),
        lookahead: menus,
        history,
        tcp_info: tcp(1_400_000.0),
    }
}

// --- gates -----------------------------------------------------------------

/// The Fugu controller's per-chunk decision: zero heap operations once the
/// plan scratch has reached steady-state shape.  A randomly initialized TTP
/// exercises the same code path as a trained one — the planner's work per
/// decision does not depend on the weights.
#[test]
fn stochastic_mpc_plan_is_allocation_free() {
    let ttp = Ttp::new(TtpConfig::default(), 11);
    let m = menus(5);
    let h = history(1_400_000.0);
    let c = ctx(&m, &h);
    let smpc = StochasticMpc::default();
    let mut scratch = PlanScratch::new();

    smpc.plan_with(&c, &ttp, &mut scratch); // warm the scratch buffers
    let warm_rung = smpc.plan_with(&c, &ttp, &mut scratch);

    let mut rung = usize::MAX;
    let ops = heap_ops_in(|| {
        rung = smpc.plan_with(&c, &ttp, &mut scratch);
    });
    assert_eq!(ops, 0, "StochasticMpc::plan_with allocated on a warm scratch");
    assert_eq!(rung, warm_rung, "measured call must agree with the warm call");
}

/// The MPC-HM / RobustMPC-HM value iteration: zero heap operations on a
/// warm scratch, for both the plain and robust discounting variants.
#[test]
fn mpc_plan_is_allocation_free() {
    let m = menus(5);
    let h = history(1_400_000.0);
    let c = ctx(&m, &h);
    for mpc in [Mpc::mpc_hm(), Mpc::robust_mpc_hm()] {
        let mut scratch = MpcScratch::new();
        mpc.plan_with(&c, 1_400_000.0, &mut scratch); // warm
        let ops = heap_ops_in(|| {
            mpc.plan_with(&c, 1_400_000.0, &mut scratch);
        });
        assert_eq!(ops, 0, "Mpc::plan_with allocated on a warm scratch");
    }
}

/// The TTP inference entry point (one query per planner step, a whole wave
/// in the batch scheduler): zero heap operations once the scratch has seen
/// the wave's shape — the staging matrix, partial-row buffer, and output all
/// live in `TtpScratch` or the caller's flat buffer, so growing the wave is
/// the only thing that may ever allocate.  Both prediction targets are
/// gated: the transmission-time path (shared-prefix staged rows) and the
/// throughput ablation (plain batch + re-binning).
#[test]
fn ttp_batched_predict_into_is_allocation_free() {
    use fugu::ttp::TtpBatchQuery;
    use fugu::TtpVariant;
    for ttp in [
        Ttp::new(TtpConfig::default(), 7),
        Ttp::new(TtpVariant::ThroughputPredictor.ttp_config(), 8),
    ] {
        let histories: Vec<Vec<ChunkRecord>> =
            (0..6).map(|i| history(400_000.0 + 250_000.0 * i as f64)).collect();
        let infos: Vec<TcpInfo> = (0..6).map(|i| tcp(400_000.0 + 250_000.0 * i as f64)).collect();
        let sizes = [50_000.0, 250_000.0, 750_000.0, 1_375_000.0];
        let queries: Vec<TtpBatchQuery<'_>> = (0..6)
            .map(|i| TtpBatchQuery {
                history: &histories[i],
                tcp_info: &infos[i],
                proposed_sizes: &sizes,
            })
            .collect();
        let mut scratch = TtpScratch::new();
        let mut out = vec![0.0f64; 6 * sizes.len() * N_BINS];

        ttp.predict_time_distributions_batched_into(0, &queries, &mut scratch, &mut out); // warm
        for step in 0..ttp.horizon() {
            let ops = heap_ops_in(|| {
                ttp.predict_time_distributions_batched_into(step, &queries, &mut scratch, &mut out);
            });
            assert_eq!(
                ops, 0,
                "predict_time_distributions_batched_into allocated on a warm scratch (step {step})"
            );
        }
    }
}

fn sent_row(i: usize) -> VideoSent {
    VideoSent {
        time: i as f64 * 2.002,
        stream_id: 41_000,
        expt_id: 3,
        video_ts: i as u64 * 180_180,
        size: 350_000.0 + 11.0 * i as f64,
        ssim_index: 0.96,
        cwnd: 42.0,
        in_flight: 7.0,
        min_rtt: 0.043,
        rtt: 0.051,
        delivery_rate: 1.4e6,
    }
}

fn acked_row(i: usize) -> VideoAcked {
    VideoAcked {
        time: i as f64 * 2.002 + 0.08,
        stream_id: 41_000,
        expt_id: 3,
        video_ts: i as u64 * 180_180,
        size: 350_000.0 + 11.0 * i as f64,
    }
}

fn buffer_row(i: usize) -> ClientBuffer {
    ClientBuffer {
        time: i as f64 * 2.002 + 0.1,
        stream_id: 41_000,
        expt_id: 3,
        event: BufferEvent::Periodic,
        buffer: 8.5,
        cum_rebuf: 0.25,
    }
}

/// The `.puf` archive writer's steady state: zero heap operations to push a
/// full block of every measurement kind — including the implicit flush that
/// emits the block.  All scratch (each kind's per-column varint buffers) is
/// sized up-front in `with_block_rows`, so spilling a day of telemetry
/// costs the RCT loop no allocations per row.
#[test]
fn archive_writer_steady_state_is_allocation_free() {
    const BLOCK_ROWS: usize = 256;
    let mut w = ArchiveWriter::with_block_rows(std::io::sink(), BLOCK_ROWS).unwrap();

    // Warm: one full block of each kind, flushed on the wrap-around push.
    for i in 0..=BLOCK_ROWS {
        w.push(&sent_row(i)).unwrap();
        w.push(&acked_row(i)).unwrap();
        w.push(&buffer_row(i)).unwrap();
    }

    let ops = heap_ops_in(|| {
        for i in 0..BLOCK_ROWS {
            w.push(&sent_row(i)).unwrap();
            w.push(&acked_row(i)).unwrap();
            w.push(&buffer_row(i)).unwrap();
        }
    });
    assert_eq!(ops, 0, "ArchiveWriter allocated in steady state");
    assert!(w.written().1 >= 3 * BLOCK_ROWS as u64, "blocks actually flushed");
}

/// The `.puf` archive reader's steady state: zero heap operations to decode
/// a block no larger than one it has already read.  The column bytes and
/// each row kind's vector are kept across blocks, so folding a
/// ≥1M-stream-hour archive block by block costs no allocation per block.
#[test]
fn archive_reader_steady_state_is_allocation_free() {
    const BLOCK_ROWS: usize = 256;
    let mut t = StreamTelemetry::default();
    for i in 0..BLOCK_ROWS {
        t.video_sent.push(sent_row(i));
        t.video_acked.push(acked_row(i));
        t.client_buffer.push(buffer_row(i));
    }
    // Eight sessions, each one full block of every kind.
    let mut w = ArchiveWriter::with_block_rows(Vec::new(), BLOCK_ROWS).unwrap();
    for tag in 0..8 {
        w.set_tag(tag).unwrap();
        w.add_stream(&t).unwrap();
    }
    let bytes = w.finish().unwrap();
    let mut r = ArchiveReader::new(bytes.as_slice()).unwrap();

    // Warm: the first session's block of each kind.
    for _ in 0..3 {
        r.next_block().unwrap().expect("a warm-up block");
    }

    let mut rows = 0;
    let ops = heap_ops_in(|| {
        while let Some(block) = r.next_block().unwrap() {
            rows += block.video_sent.len() + block.video_acked.len() + block.client_buffer.len();
        }
    });
    assert_eq!(ops, 0, "ArchiveReader allocated in steady state");
    assert_eq!(rows, 7 * 3 * BLOCK_ROWS, "every later block decoded");
}

/// The training minibatch step: zero heap operations *per epoch* on a warm
/// `TrainScratch`.
///
/// A whole `train_one_net` call is not allocation-free — it constructs a
/// fresh `Sgd` whose velocity buffers are allocated lazily on the first
/// optimizer step — but that cost is fixed per call.  Differencing two
/// warmed calls that differ only in epoch count cancels every fixed cost
/// and isolates the per-epoch/per-batch loop, which must be exactly zero.
#[test]
fn train_one_net_epochs_are_allocation_free() {
    const FEATURES: usize = 22;
    let mut rng = StdRng::seed_from_u64(3);
    let samples: Vec<Sample> = (0..256)
        .map(|_| Sample {
            features: (0..FEATURES).map(|_| rng.random::<f32>()).collect(),
            target: rng.random_range(0..N_BINS),
            weight: 1.0,
        })
        .collect();
    let scaler = Scaler::identity(FEATURES);
    let mut net = Mlp::new(&[FEATURES, 32, N_BINS], Activation::Relu, &mut rng);
    let mut scratch = TrainScratch::new();
    let base = TrainConfig::default();
    let two = TrainConfig { epochs: 2, ..base };
    let four = TrainConfig { epochs: 4, ..base };

    // Warm the scratch (and the net's gradient/cache shapes) to steady state.
    train_one_net(&mut net, &scaler, &samples, &four, &mut StdRng::seed_from_u64(5), &mut scratch);

    let ops_two = heap_ops_in(|| {
        train_one_net(
            &mut net,
            &scaler,
            &samples,
            &two,
            &mut StdRng::seed_from_u64(5),
            &mut scratch,
        );
    });
    let ops_four = heap_ops_in(|| {
        train_one_net(
            &mut net,
            &scaler,
            &samples,
            &four,
            &mut StdRng::seed_from_u64(5),
            &mut scratch,
        );
    });
    assert_eq!(
        ops_four,
        ops_two,
        "two extra epochs performed {} heap operation(s): the minibatch loop is \
         no longer allocation-free",
        ops_four.saturating_sub(ops_two)
    );
}

/// The matmul family: zero heap operations on a warm output matrix, on
/// every kernel tier this CPU supports.  The shape is the batched RCT staged
/// pass — `(streams · rungs)` rows through a 64-wide hidden layer — and the
/// input is ReLU output (about half zeros), so the zero-packing row path,
/// its stack buffers, the masked column tail, and the dispatch itself are
/// all inside the measured region.
#[test]
fn blocked_matmul_is_allocation_free() {
    use puffer_repro::nn::{Matrix, Tier};
    // 2 arms × 16 streams × 10 rungs = 320 rows, 64-wide hidden layer; an
    // odd column count (21 = N_BINS) exercises the masked tail too.
    for (m, k, n) in [(320usize, 64usize, 64usize), (320, 64, 21)] {
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| ((i as f32) * 0.37).sin().max(0.0)).collect(),
        );
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| ((i as f32) * 0.11).cos()).collect());
        for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_into_with(tier, &b, &mut out); // warm to steady-state shape
            let ops = heap_ops_in(|| {
                a.matmul_into_with(tier, &b, &mut out);
            });
            assert_eq!(
                ops, 0,
                "matmul_into_with({tier:?}) allocated on a warm output ({m}x{k}x{n})"
            );
        }
    }
}

/// The cross-arm batched TTP pass: zero heap operations at *merged* query
/// counts.  When two arms share a TTP snapshot their waves stage into one
/// pass, so the query count doubles relative to the per-arm gate above —
/// the scratch must absorb that growth once and then stay flat.
#[test]
fn cross_arm_sized_batched_predict_is_allocation_free() {
    use fugu::ttp::TtpBatchQuery;
    const N_QUERIES: usize = 12; // two arms' 6-stream waves merged
    let ttp = Ttp::new(TtpConfig::default(), 9);
    let histories: Vec<Vec<ChunkRecord>> =
        (0..N_QUERIES).map(|i| history(400_000.0 + 120_000.0 * i as f64)).collect();
    let infos: Vec<TcpInfo> =
        (0..N_QUERIES).map(|i| tcp(400_000.0 + 120_000.0 * i as f64)).collect();
    let sizes = [50_000.0, 250_000.0, 750_000.0, 1_375_000.0];
    let queries: Vec<TtpBatchQuery<'_>> = (0..N_QUERIES)
        .map(|i| TtpBatchQuery {
            history: &histories[i],
            tcp_info: &infos[i],
            proposed_sizes: &sizes,
        })
        .collect();
    let mut scratch = TtpScratch::new();
    let mut out = vec![0.0f64; N_QUERIES * sizes.len() * N_BINS];

    ttp.predict_time_distributions_batched_into(0, &queries, &mut scratch, &mut out); // warm
    for step in 0..ttp.horizon() {
        let ops = heap_ops_in(|| {
            ttp.predict_time_distributions_batched_into(step, &queries, &mut scratch, &mut out);
        });
        assert_eq!(
            ops, 0,
            "merged cross-arm batched predict allocated on a warm scratch (step {step})"
        );
    }
}
