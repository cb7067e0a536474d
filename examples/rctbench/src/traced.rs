//! The traced pass: the workload's RCT re-driven from the benchmark through
//! public `SessionRun` state machines, with every call into a layer timed.
//!
//! It reproduces `run_rct`'s sessions exactly — the same arm assignment
//! and per-session seeds, the same aggregation order, the same
//! nightly retrain RNG streams and the same archive spill/merge — so its
//! result fingerprint must equal the untraced run's.  It runs every session
//! inline (no batch waves; those are private to `run_rct`), and splits each
//! Fugu decision through `SchemeSpec::fugu_planner()` into
//! `StochasticMpc::fill_dists` (TTP inference) and `plan_from_dists` (value
//! iteration).

use crate::layers::{Clock, Layer, Recorder, Span};
use crate::workload::{self, ArchiveRows, Setup, Size, Tail, Workload};
use fugu::{
    train, validate_retrained, ChunkObservation, Dataset, PlanScratch, RetrainGate, StochasticMpc,
    Ttp,
};
use puffer_abr::{Abr, AbrContext, ChunkRecord};
use puffer_platform::faults::observation_is_finite;
use puffer_platform::{
    merge_spools, ConsortCounts, ExperimentConfig, QuitReason, RctResult, SchemeArm, SchemeSpec,
    SessionOutcome, SessionRun, StreamConfig, TelemetrySpool, MIN_CONSIDERED_WATCH,
};
use puffer_stats::StreamSummary;
use puffer_trace::TraceBank;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every this many Fugu decisions, the split planner's rung is checked
/// against `StochasticMpc::plan_with`.
const SPLIT_CHECK_EVERY: u64 = 50;

/// What the traced pass measured.
pub struct Traced {
    pub result: RctResult,
    pub tail: Tail,
    /// Wall time of the traced RCT (days, merges, nightly retrains).
    pub rct_wall_s: f64,
    /// Wall time of the whole pass, tail included.
    pub pass_wall_s: f64,
    pub workers: usize,
    pub spans: Vec<Span>,
    /// TTP rows inferred (`horizon × rungs` per Fugu decision).
    pub ttp_rows: u64,
    /// Training samples of every retrain, the extra one included.
    pub train_samples: u64,
    /// Bytes of the merged day archives.
    pub archive_bytes: u64,
    /// Fugu decisions whose split was checked against `plan_with`.
    pub split_checks: u64,
    pub problems: Vec<String>,
}

/// `run_rct`'s per-session seed derivation (SplitMix64 over the master
/// seed, day, session index and arm), repeated here so the traced pass
/// simulates exactly the untraced run's sessions.
fn mix_seed(master: u64, day: u32, index: usize, arm: usize) -> u64 {
    // lint: seed-mix — replicates run_rct's SplitMix64 session seeds
    let d = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(day).wrapping_add(1));
    // lint: seed-mix — replicates run_rct's SplitMix64 session seeds
    let i = 0x2545_f491_4f6c_dd1du64.wrapping_mul((index as u64).wrapping_add(1));
    // lint: seed-mix — replicates run_rct's SplitMix64 session seeds
    let a = 0x6a09_e667_f3bc_c909u64.wrapping_mul((arm as u64).wrapping_add(1));
    // lint: seed-mix — replicates run_rct's SplitMix64 session seeds
    let mut z = master.wrapping_add(d).wrapping_add(i).wrapping_add(a);
    // lint: seed-mix — replicates run_rct's SplitMix64 session seeds
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    // lint: seed-mix — replicates run_rct's SplitMix64 session seeds
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `run_rct`'s session id: day in the high 32 bits, index in the low 32.
fn session_id(day: u32, index: usize) -> u64 {
    (u64::from(day) << 32) | index as u64
}

/// An `Abr` wrapper that times the callbacks the platform makes from inside
/// a stream step, so they can be subtracted from the step's self time.
struct TimedAbr {
    inner: Box<dyn Abr>,
    callback_ns: u64,
}

impl TimedAbr {
    fn take_callback_ns(&mut self) -> u64 {
        std::mem::take(&mut self.callback_ns)
    }
}

impl Abr for TimedAbr {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        self.inner.choose(ctx)
    }

    fn on_chunk_delivered(&mut self, record: ChunkRecord) {
        let t0 = crate::sys::now();
        self.inner.on_chunk_delivered(record);
        self.callback_ns += t0.elapsed().as_nanos() as u64;
    }

    fn reset_stream(&mut self) {
        let t0 = crate::sys::now();
        self.inner.reset_stream();
        self.callback_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// The layer a non-Fugu arm's `choose` is reported under.
fn choose_layer(spec: &SchemeSpec) -> Layer {
    match spec {
        SchemeSpec::Bba => Layer::BbaChoose,
        SchemeSpec::MpcHm => Layer::MpcHmChoose,
        SchemeSpec::RobustMpcHm => Layer::RobustMpcChoose,
        other => panic!("no layer for arm {}", other.name()),
    }
}

/// One finished session, folded the way `run_rct` folds it.
struct SessionDone {
    arm: usize,
    summaries: Vec<StreamSummary>,
    duration: f64,
    consort: ConsortCounts,
    observations: Vec<Vec<ChunkObservation>>,
}

fn account(arm: usize, out: SessionOutcome) -> SessionDone {
    let mut consort = ConsortCounts { sessions: 1, ..ConsortCounts::default() };
    let mut summaries = Vec::new();
    let mut observations = Vec::new();
    for s in out.streams {
        consort.streams += 1;
        match (&s.summary, s.quit) {
            (None, _) | (_, QuitReason::NeverBegan) => consort.never_began += 1,
            (Some(sum), _) if sum.watch_time < MIN_CONSIDERED_WATCH => consort.short_watch += 1,
            (Some(sum), _) => {
                consort.considered += 1;
                summaries.push(*sum);
            }
        }
        if !s.observations.is_empty() {
            observations.push(s.observations);
        }
    }
    SessionDone { arm, summaries, duration: out.total_time, consort, observations }
}

/// Everything one worker brings back from a traced day.
struct WorkerDay {
    rec: Recorder,
    done: Vec<(usize, SessionDone)>,
    spool: Option<PathBuf>,
    written: ArchiveRows,
    ttp_rows: u64,
    split_checks: u64,
    split_mismatches: u64,
    error: Option<String>,
}

struct DayCtx<'a> {
    specs: &'a [(usize, u64, u64)],
    next: &'a AtomicUsize,
    schemes: &'a [SchemeSpec],
    bank: &'a TraceBank,
    cfg: &'a ExperimentConfig,
    day: u32,
    origin: Instant,
}

/// One worker's share of a traced day: claim sessions off the shared
/// counter and run each inline, timing every layer call.
fn run_worker(d: &DayCtx<'_>, worker: usize) -> WorkerDay {
    let mut rec = Recorder::new(d.origin);
    rec.day = d.day;
    let mut out = WorkerDay {
        rec: Recorder::new(d.origin),
        done: Vec::new(),
        spool: None,
        written: ArchiveRows::default(),
        ttp_rows: 0,
        split_checks: 0,
        split_mismatches: 0,
        error: None,
    };
    let mut abrs: Vec<Option<TimedAbr>> = d.schemes.iter().map(|_| None).collect();
    let planners: Vec<Option<(Arc<Ttp>, StochasticMpc)>> = d
        .schemes
        .iter()
        .map(|s| s.fugu_planner().map(|(ttp, config)| (ttp, StochasticMpc::new(config))))
        .collect();
    let mut scratch: Vec<PlanScratch> = d.schemes.iter().map(|_| PlanScratch::new()).collect();
    let mut check_scratch = PlanScratch::new();
    let mut fugu_decisions = 0u64;
    let mut spool = match &d.cfg.archive_sink {
        None => None,
        Some(dir) => {
            match TelemetrySpool::create(dir, &format!(".traced_day{}_worker{worker}.puf", d.day)) {
                Ok(s) => Some(s),
                Err(e) => {
                    out.error = Some(format!("spool create: {e}"));
                    None
                }
            }
        }
    };
    loop {
        // Relaxed suffices: the read-modify-write alone claims the index.
        let i = d.next.fetch_add(1, Ordering::Relaxed);
        if i >= d.specs.len() {
            break;
        }
        let (arm, id, seed) = d.specs[i];
        rec.session = i as u32;
        let stream_cfg = StreamConfig { expt_id: arm as u32, ..StreamConfig::default() };
        let mut run = rec.span(Layer::SessionBegin, || {
            SessionRun::begin(d.bank, &d.cfg.user, d.cfg.cc, stream_cfg, id, seed)
        });
        let abr = abrs[arm].get_or_insert_with(|| TimedAbr {
            inner: d.schemes[arm].instantiate(),
            callback_ns: 0,
        });
        loop {
            let t0 = crate::sys::now();
            let more = run.poll_decision(abr, &d.cfg.user);
            let mut step_ns = t0.elapsed().as_nanos() as u64;
            if more {
                let ctx = run.context();
                let rung = match &planners[arm] {
                    Some((ttp, planner)) => {
                        let sc = &mut scratch[arm];
                        let t1 = crate::sys::now();
                        planner.fill_dists(&ctx, ttp, sc);
                        let t2 = crate::sys::now();
                        let rung = planner.plan_from_dists(&ctx, ttp.horizon(), sc);
                        let t3 = crate::sys::now();
                        let infer = t2.duration_since(t1).as_nanos() as u64;
                        let plan = t3.duration_since(t2).as_nanos() as u64;
                        rec.push(Layer::TtpInfer, None, t1, infer, infer);
                        rec.push(Layer::ControllerPlan, None, t2, plan, plan);
                        out.ttp_rows +=
                            (ttp.horizon().min(ctx.lookahead.len()) * ctx.n_rungs()) as u64;
                        fugu_decisions += 1;
                        if fugu_decisions.is_multiple_of(SPLIT_CHECK_EVERY) {
                            out.split_checks += 1;
                            if planner.plan_with(&ctx, ttp, &mut check_scratch) != rung {
                                out.split_mismatches += 1;
                            }
                        }
                        rung
                    }
                    None => {
                        let t1 = crate::sys::now();
                        let rung = abr.inner.choose(&ctx);
                        let ns = t1.elapsed().as_nanos() as u64;
                        rec.push(choose_layer(&d.schemes[arm]), None, t1, ns, ns);
                        rung
                    }
                };
                let t4 = crate::sys::now();
                run.advance(rung, abr, &d.cfg.user);
                step_ns += t4.elapsed().as_nanos() as u64;
            }
            let callbacks = abr.take_callback_ns();
            rec.push(Layer::StreamStep, None, t0, step_ns, step_ns.saturating_sub(callbacks));
            if callbacks > 0 {
                rec.push(Layer::AbrCallback, Some(Layer::StreamStep), t0, callbacks, callbacks);
            }
            if !more {
                break;
            }
        }
        let outcome = run.finish();
        if let Some(sp) = spool.as_mut() {
            for s in &outcome.streams {
                out.written.sent += s.telemetry.video_sent.len() as u64;
                out.written.acked += s.telemetry.video_acked.len() as u64;
                out.written.buffer += s.telemetry.client_buffer.len() as u64;
            }
            let spilled = rec.span(Layer::ArchiveSpill, || {
                sp.add_session(i as u64, outcome.streams.iter().map(|s| &s.telemetry))
            });
            if let Err(e) = spilled {
                out.error = Some(format!("spill: {e}"));
            }
        }
        out.done.push((i, account(arm, outcome)));
    }
    rec.session = u32::MAX;
    if let Some(sp) = spool {
        match sp.finish() {
            Ok(p) => out.spool = Some(p),
            Err(e) => out.error = Some(format!("spool finish: {e}")),
        }
    }
    out.rec = rec;
    out
}

/// Run the traced pass of workload `w` over the arms `setup` built.
pub fn traced_pass(
    w: Workload,
    size: Size,
    seed: u64,
    setup: &Setup,
    out_dir: &Path,
) -> std::io::Result<Traced> {
    let origin = crate::sys::now();
    let archive = w.in_situ().then(|| workload::archive_dir(out_dir, w, "traced"));
    let cfg = workload::experiment_config(w, size, seed, archive.clone());
    let mut schemes = setup.schemes.clone();
    let mut arms: Vec<SchemeArm> = schemes
        .iter()
        .enumerate()
        .map(|(i, s)| SchemeArm {
            name: s.name(),
            expt_id: i as u32,
            streams: Vec::new(),
            session_durations: Vec::new(),
            consort: ConsortCounts::default(),
        })
        .collect();
    let mut main = Recorder::new(origin);
    let mut spans: Vec<Span> = Vec::new();
    let mut dataset = Dataset::new();
    let mut archive_paths = Vec::new();
    let mut problems = Vec::new();
    let mut written = ArchiveRows::default();
    let (mut ttp_rows, mut train_samples, mut split_checks, mut split_mismatches) = (0, 0, 0, 0);
    let mut total_sessions = 0;
    let mut workers = 1;
    for day in 0..cfg.days {
        main.day = day;
        let n_arms = schemes.len();
        let specs: Vec<(usize, u64, u64)> = if cfg.paired {
            (0..cfg.sessions_per_day)
                .flat_map(|i| (0..n_arms).map(move |arm| (arm, i)))
                .map(|(arm, i)| (arm, session_id(day, i), mix_seed(cfg.seed, day, i, 0)))
                .collect()
        } else {
            let mut assign =
                rand::rngs::StdRng::seed_from_u64(mix_seed(cfg.seed, day, usize::MAX, 0));
            (0..cfg.sessions_per_day)
                .map(|i| {
                    let arm = assign.random_range(0..n_arms);
                    (arm, session_id(day, i), mix_seed(cfg.seed, day, i, 0))
                })
                .collect()
        };
        total_sessions += specs.len();
        let n_workers = crate::sys::nproc().min(specs.len()).max(1);
        workers = workers.max(n_workers);
        let next = AtomicUsize::new(0);
        let ctx = DayCtx {
            specs: &specs,
            next: &next,
            schemes: &schemes,
            bank: &setup.bank,
            cfg: &cfg,
            day,
            origin,
        };
        let worker_days: Vec<WorkerDay> = std::thread::scope(|scope| {
            let ctx = &ctx;
            let handles: Vec<_> =
                (0..n_workers).map(|wk| scope.spawn(move || run_worker(ctx, wk))).collect();
            handles.into_iter().map(|h| h.join().expect("traced worker panicked")).collect()
        });
        let mut indexed = Vec::with_capacity(specs.len());
        let mut spools = Vec::new();
        for wd in worker_days {
            spans.extend(wd.rec.spans);
            indexed.extend(wd.done);
            spools.extend(wd.spool);
            written.sent += wd.written.sent;
            written.acked += wd.written.acked;
            written.buffer += wd.written.buffer;
            ttp_rows += wd.ttp_rows;
            split_checks += wd.split_checks;
            split_mismatches += wd.split_mismatches;
            problems.extend(wd.error);
        }
        if let Some(dir) = &archive {
            let day_path = dir.join(format!("telemetry_day{day}.puf"));
            main.span(Layer::ArchiveMerge, || merge_spools(&spools, &day_path))?;
            for s in &spools {
                std::fs::remove_file(s)?;
            }
            archive_paths.push(day_path);
        }
        indexed.sort_unstable_by_key(|&(i, _)| i);
        for (_, r) in indexed {
            let arm = &mut arms[r.arm];
            arm.streams.extend(r.summaries);
            arm.session_durations.push(r.duration);
            arm.consort.sessions += r.consort.sessions;
            arm.consort.streams += r.consort.streams;
            arm.consort.never_began += r.consort.never_began;
            arm.consort.short_watch += r.consort.short_watch;
            arm.consort.considered += r.consort.considered;
            for stream_obs in r.observations {
                if stream_obs.iter().all(observation_is_finite) {
                    dataset.add_stream(day, stream_obs);
                } else {
                    problems.push(format!("day {day}: non-finite telemetry"));
                }
            }
        }
        // The nightly retrain, on the RNG stream `run_rct`'s first attempt
        // uses.
        if let Some(train_cfg) = &cfg.retrain {
            for spec in schemes.iter_mut().filter(|s| s.retrains_daily()) {
                let incumbent = spec.ttp().cloned().expect("retraining arms carry a TTP");
                let mut candidate: Ttp = (*incumbent).clone();
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(mix_seed(cfg.seed, day, usize::MAX - 1, 7));
                let report = main.span(Layer::Train, || {
                    train(&mut candidate, &dataset, day, train_cfg, &mut rng)
                });
                let Some(report) = report else { continue };
                train_samples += report.samples_per_step.iter().sum::<usize>() as u64;
                let verdict = main.span(Layer::Validate, || {
                    validate_retrained(
                        &candidate,
                        &incumbent,
                        &dataset,
                        day,
                        train_cfg.window_days,
                        &RetrainGate::default(),
                    )
                });
                if verdict.passed() {
                    spec.update_ttp(candidate);
                } else {
                    problems
                        .push(format!("day {day}: nightly retrain failed the gate: {verdict:?}"));
                }
            }
        }
    }
    let rct_wall_s = origin.elapsed().as_secs_f64();
    let mut archive_bytes = 0;
    for p in &archive_paths {
        archive_bytes += std::fs::metadata(p)?.len();
    }
    let result =
        RctResult { arms, dataset, total_sessions, archive_paths, incidents: Vec::new(), schemes };
    let tail = workload::run_tail(w, &result, seed, &mut main)?;
    let pass_wall_s = origin.elapsed().as_secs_f64();
    train_samples += tail.retrain_samples;
    spans.extend(main.spans);
    if split_mismatches > 0 {
        problems.push(format!("Fugu split disagreed with plan_with on {split_mismatches} of {split_checks} sampled decisions"));
    }
    if let Some(rows) = tail.archive_rows {
        if (rows.sent, rows.acked, rows.buffer) != (written.sent, written.acked, written.buffer) {
            problems.push(format!("traced archive read-back {rows:?} != written {written:?}"));
        }
    }
    Ok(Traced {
        result,
        tail,
        rct_wall_s,
        pass_wall_s,
        workers,
        spans,
        ttp_rows,
        train_samples,
        archive_bytes,
        split_checks,
        problems,
    })
}
