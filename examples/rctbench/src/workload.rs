//! The three workloads: set-up, experiment configuration, the post-run
//! tail (analysis, the extra nightly retrain), the result fingerprint and
//! the correctness gate.  The untraced and traced passes share all of it.

use crate::layers::{Clock, Layer};
use fugu::{train, validate_retrained, GateVerdict, RetrainGate, TrainConfig, Ttp, TtpVariant};
use puffer_platform::experiment::{collect_training_data, run_rct, train_ttp_on};
use puffer_platform::{
    ArchiveReader, BlockKind, ExperimentConfig, FaultPlan, RctResult, SchemeSpec, UserModel,
};
use puffer_stats::{bootstrap_ratio_ci, weighted_mean_ci, ConfidenceInterval};
use puffer_trace::TraceBank;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Seed used when `--seed` is not given; `expected.json` pins its result
/// fingerprints.
pub const DEFAULT_SEED: u64 = 1;

/// Cap on a session's intended time on the player, seconds.
pub const SESSION_CAP_S: f64 = 3600.0;

/// Bootstrap resamples per confidence interval.
const N_BOOT: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One RCT day with BBA, MPC-HM, RobustMPC-HM and a frozen Fugu.
    Primary,
    /// A BBA-only RCT day: decisions cost almost nothing.
    Bba,
    /// A multi-day RCT with nightly retraining and the `.puf` archive sink.
    Insitu,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Primary, Workload::Bba, Workload::Insitu];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Primary => "rct_primary",
            Workload::Bba => "rct_bba",
            Workload::Insitu => "rct_insitu",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this workload has a Fugu arm (and so a bootstrap-trained TTP).
    pub fn has_fugu(self) -> bool {
        self != Workload::Bba
    }

    /// Whether nightly retraining and the archive sink are on.
    pub fn in_situ(self) -> bool {
        self == Workload::Insitu
    }
}

/// Workload size: `Full` is what the benchmark measures; `Tiny` exists for
/// the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// How much one repetition of a workload simulates.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sessions per day; in paired mode every one runs under every arm.
    pub sessions_per_day: usize,
    pub days: u32,
    /// Sessions of the BBA bootstrap day the TTP is trained on.
    pub bootstrap_sessions: usize,
    /// Sessions of the warm-up day set-up runs through `run_rct`.
    pub warmup_sessions: usize,
}

pub fn shape(w: Workload, size: Size) -> Shape {
    let (sessions_per_day, days, bootstrap_sessions) = match (w, size) {
        (Workload::Primary, Size::Full) => (120, 1, 100),
        (Workload::Bba, Size::Full) => (800, 1, 0),
        (Workload::Insitu, Size::Full) => (48, 2, 100),
        (Workload::Primary, Size::Tiny) => (4, 1, 12),
        (Workload::Bba, Size::Tiny) => (24, 1, 0),
        (Workload::Insitu, Size::Tiny) => (4, 2, 12),
    };
    let warmup_sessions = match (w, size) {
        (Workload::Bba, Size::Full) => 96,
        (_, Size::Full) => 8,
        (_, Size::Tiny) => 2,
    };
    Shape { sessions_per_day, days, bootstrap_sessions, warmup_sessions }
}

/// Training configuration of the bootstrap TTP and of every nightly
/// retrain (one epoch, capped samples: the §4.3 loop at benchmark scale).
pub fn train_config() -> TrainConfig {
    TrainConfig { epochs: 1, max_samples_per_step: 20_000, ..TrainConfig::default() }
}

/// What set-up builds: the arms and the trace bank the traced pass samples
/// sessions from.
pub struct Setup {
    pub schemes: Vec<SchemeSpec>,
    pub bank: TraceBank,
}

/// Seed of everything set-up simulates.  It is fixed, not `--seed`, so set-up
/// does the same work on every run and `setup_s` compares across seeds.
const SETUP_SEED: u64 = 0xb007_5eed;

/// Build the trace bank and the arms — for Fugu workloads, collect a BBA
/// bootstrap day and train the TTP on it (no on-disk cache) — then run one
/// short warm-up day of the workload through `run_rct`, so thread start-up,
/// page faults and allocator growth are paid before anything is measured.
pub fn setup(w: Workload, size: Size) -> Setup {
    let bank = TraceBank::puffer();
    let ttp = w.has_fugu().then(|| {
        let boot = ExperimentConfig {
            seed: SETUP_SEED,
            sessions_per_day: shape(w, size).bootstrap_sessions,
            days: 1,
            threads: crate::sys::nproc(),
            retrain: None,
            ..ExperimentConfig::default()
        };
        let data = collect_training_data(&SchemeSpec::Bba, &boot);
        train_ttp_on(TtpVariant::Full, &data, &train_config(), SETUP_SEED)
    });
    let schemes = match (w, ttp) {
        (Workload::Bba, _) => vec![SchemeSpec::Bba],
        (Workload::Primary, Some(ttp)) => vec![
            SchemeSpec::Bba,
            SchemeSpec::MpcHm,
            SchemeSpec::RobustMpcHm,
            SchemeSpec::fugu_frozen(ttp, TtpVariant::Full, "Fugu"),
        ],
        (Workload::Insitu, Some(ttp)) => {
            // The retraining arm and the stale arm share the day-0 snapshot,
            // so they batch together until the first nightly swap.
            let day0 = Arc::new(ttp);
            vec![
                SchemeSpec::Fugu {
                    ttp: Arc::clone(&day0),
                    variant: TtpVariant::Full,
                    label: "Fugu",
                    retrain_daily: true,
                },
                SchemeSpec::fugu_frozen_shared(&day0, TtpVariant::Full, "Fugu (stale)"),
                SchemeSpec::Bba,
            ]
        }
        (_, None) => unreachable!("Fugu workloads train a TTP"),
    };
    let warmup = ExperimentConfig {
        sessions_per_day: shape(w, size).warmup_sessions,
        days: 1,
        retrain: None,
        ..experiment_config(w, size, SETUP_SEED, None)
    };
    std::hint::black_box(run_rct(schemes.clone(), &warmup).total_sessions);
    Setup { schemes, bank }
}

/// The RCT configuration of one repetition.
///
/// Two choices keep the cost of a stream-hour the same from seed to seed,
/// so throughput compares across seeds:
/// - paired (within-subjects) mode runs every session under every arm, so
///   the arm mix is fixed; under blinded randomization one seed's luck in
///   sending long sessions to the cheap arm moved throughput by tens of
///   percent;
/// - session intents are capped at [`SESSION_CAP_S`]: with the default
///   12-hour cap a handful of Pareto-tail sessions, whose length depends on
///   each arm's QoE, decided a repetition's arm mix of hours.
pub fn experiment_config(
    w: Workload,
    size: Size,
    seed: u64,
    archive_sink: Option<PathBuf>,
) -> ExperimentConfig {
    let s = shape(w, size);
    ExperimentConfig {
        seed,
        sessions_per_day: s.sessions_per_day,
        days: s.days,
        threads: crate::sys::nproc(),
        retrain: w.in_situ().then(train_config),
        archive_sink,
        paired: true,
        user: UserModel { intent_cap: SESSION_CAP_S, ..UserModel::default() },
        faults: FaultPlan::none(),
        ..ExperimentConfig::default()
    }
}

/// Stream-hours simulated: Σ session durations over every arm.
pub fn stream_hours(result: &RctResult) -> f64 {
    result.arms.iter().flat_map(|a| a.session_durations.iter()).sum::<f64>() / 3600.0
}

/// Rows read back from the `.puf` archives, by block kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveRows {
    pub sent: u64,
    pub acked: u64,
    pub buffer: u64,
    pub incidents: u64,
}

/// One arm's §3.4 statistics.
#[derive(Debug, Clone, Copy)]
pub struct ArmStats {
    pub stall_ratio: ConfidenceInterval,
    /// Watch-time-weighted mean SSIM (dB) with its 95% interval.
    pub ssim_db: (f64, f64, f64),
}

/// Everything that happens after `run_rct` returns.
#[derive(Debug, Clone, Default)]
pub struct Tail {
    /// Archive read-back plus the per-arm confidence intervals, seconds.
    pub analysis_s: f64,
    pub arm_stats: Vec<Option<ArmStats>>,
    pub archive_rows: Option<ArchiveRows>,
    /// Bytes of every `.puf` day archive.
    pub archive_bytes: Option<u64>,
    /// The extra nightly retrain (`train` + `validate_retrained`), seconds.
    pub retrain_s: Option<f64>,
    pub retrain_samples: u64,
    pub retrain_verdict: Option<GateVerdict>,
    /// Checkpoint of the extra retrain's candidate, for the fingerprint.
    pub retrained_checkpoint: Option<String>,
}

/// Read every block of the day archives back, one timed `next_block` call
/// at a time.
pub fn read_archives(paths: &[PathBuf], clock: &mut impl Clock) -> std::io::Result<ArchiveRows> {
    let mut rows = ArchiveRows::default();
    for path in paths {
        let file = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut reader = ArchiveReader::new(file)?;
        while let Some((kind, n)) = clock.span(Layer::ArchiveRead, || {
            reader.next_block().map(|b| {
                b.map(|b| {
                    let n = b.video_sent.len()
                        + b.video_acked.len()
                        + b.client_buffer.len()
                        + b.incidents.len();
                    (b.kind, n as u64)
                })
            })
        })? {
            match kind {
                Some(BlockKind::VideoSent) => rows.sent += n,
                Some(BlockKind::VideoAcked) => rows.acked += n,
                Some(BlockKind::ClientBuffer) => rows.buffer += n,
                Some(BlockKind::Incident) | None => rows.incidents += n,
            }
        }
    }
    Ok(rows)
}

/// Per-arm stall-ratio bootstrap CI and duration-weighted SSIM CI (§3.4),
/// each a timed call.  Arms without considered streams have no statistics.
pub fn arm_statistics(
    result: &RctResult,
    seed: u64,
    clock: &mut impl Clock,
) -> Vec<Option<ArmStats>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5747_5a75);
    result
        .arms
        .iter()
        .map(|arm| {
            let pairs: Vec<(f64, f64)> =
                arm.streams.iter().map(|s| (s.stall_time, s.watch_time)).collect();
            if pairs.iter().map(|p| p.1).sum::<f64>() <= 0.0 {
                return None;
            }
            let stall_ratio =
                clock.span(Layer::StatsCi, || bootstrap_ratio_ci(&pairs, N_BOOT, 0.95, &mut rng));
            let ssim: Vec<f64> = arm.streams.iter().map(|s| s.mean_ssim_db).collect();
            let watch: Vec<f64> = arm.streams.iter().map(|s| s.watch_time).collect();
            let ssim_db = clock.span(Layer::StatsCi, || weighted_mean_ci(&ssim, &watch, 1.96));
            Some(ArmStats { stall_ratio, ssim_db })
        })
        .collect()
}

/// The day on which the retrained arm's final nightly retrain ran.
fn last_day(result: &RctResult) -> u32 {
    result.dataset.days().last().copied().unwrap_or(0)
}

/// Analyse a finished RCT and, on the in-situ workload, time one extra
/// nightly retrain warm-started from the final TTP on the final dataset.
pub fn run_tail(
    w: Workload,
    result: &RctResult,
    seed: u64,
    clock: &mut impl Clock,
) -> std::io::Result<Tail> {
    let mut tail = Tail::default();
    let t0 = crate::sys::now();
    if w.in_situ() {
        tail.archive_rows = Some(read_archives(&result.archive_paths, clock)?);
    }
    tail.arm_stats = arm_statistics(result, seed, clock);
    tail.analysis_s = t0.elapsed().as_secs_f64();
    if !w.in_situ() {
        return Ok(tail);
    }
    let mut bytes = 0;
    for p in &result.archive_paths {
        bytes += std::fs::metadata(p)?.len();
    }
    tail.archive_bytes = Some(bytes);
    let incumbent: Arc<Ttp> = result
        .schemes
        .iter()
        .find(|s| s.retrains_daily())
        .and_then(|s| s.ttp().cloned())
        .expect("the in-situ workload has a retraining Fugu arm");
    let cfg = train_config();
    let day = last_day(result);
    let t0 = crate::sys::now();
    let mut candidate: Ttp = (*incumbent).clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7e7a_1a11);
    let report =
        clock.span(Layer::Train, || train(&mut candidate, &result.dataset, day, &cfg, &mut rng));
    let verdict = clock.span(Layer::Validate, || {
        validate_retrained(
            &candidate,
            &incumbent,
            &result.dataset,
            day,
            cfg.window_days,
            &RetrainGate::default(),
        )
    });
    tail.retrain_s = Some(t0.elapsed().as_secs_f64());
    tail.retrain_samples = report.map_or(0, |r| r.samples_per_step.iter().sum::<usize>() as u64);
    tail.retrain_verdict = Some(verdict);
    tail.retrained_checkpoint = Some(fugu::checkpoint::save_to_string(&candidate));
    Ok(tail)
}

/// FNV-1a, 64-bit: a stable hash for result fingerprints.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            // lint: seed-mix — FNV-1a multiplies modulo 2^64 by definition
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of everything a repetition computed: CONSORT counts, every stream
/// summary and session duration, the training dataset's size, every arm's
/// final TTP, the archive bytes, the statistics and the extra retrain.
/// Identical across repetitions, thread counts, kernel tiers and tracing.
pub fn fingerprint(result: &RctResult, tail: &Tail) -> std::io::Result<u64> {
    let mut h = Fnv::default();
    h.u64(result.total_sessions as u64);
    for arm in &result.arms {
        h.bytes(arm.name.as_bytes());
        let c = arm.consort;
        for n in [c.sessions, c.streams, c.never_began, c.short_watch, c.considered, c.quarantined]
        {
            h.u64(n as u64);
        }
        for s in &arm.streams {
            for x in [
                s.startup_delay,
                s.watch_time,
                s.stall_time,
                s.mean_ssim_db,
                s.ssim_variation_db,
                s.first_chunk_ssim_db,
                s.mean_delivery_rate,
                s.total_bytes,
            ] {
                h.f64(x);
            }
            h.u64(s.chunks as u64);
        }
        for &d in &arm.session_durations {
            h.f64(d);
        }
    }
    h.u64(result.dataset.n_observations() as u64);
    h.u64(result.dataset.n_streams() as u64);
    h.u64(result.incidents.len() as u64);
    for spec in &result.schemes {
        if let Some(ttp) = spec.ttp() {
            h.bytes(fugu::checkpoint::save_to_string(ttp).as_bytes());
        }
    }
    for p in &result.archive_paths {
        h.bytes(&std::fs::read(p)?);
    }
    for st in tail.arm_stats.iter().flatten() {
        for x in [st.stall_ratio.lo, st.stall_ratio.point, st.stall_ratio.hi] {
            h.f64(x);
        }
        for x in [st.ssim_db.0, st.ssim_db.1, st.ssim_db.2] {
            h.f64(x);
        }
    }
    if let Some(ckpt) = &tail.retrained_checkpoint {
        h.bytes(ckpt.as_bytes());
    }
    Ok(h.finish())
}

/// The output-correctness gate; returns every violation found.
pub fn check(w: Workload, cfg: &ExperimentConfig, result: &RctResult, tail: &Tail) -> Vec<String> {
    let mut bad = Vec::new();
    let arms = if cfg.paired { result.arms.len() } else { 1 };
    let expected_sessions = cfg.sessions_per_day * cfg.days as usize * arms;
    if result.total_sessions != expected_sessions {
        bad.push(format!(
            "total_sessions {} != requested {expected_sessions}",
            result.total_sessions
        ));
    }
    let sessions: usize = result.arms.iter().map(|a| a.consort.sessions).sum();
    if sessions != result.total_sessions {
        bad.push(format!("arm sessions {sessions} != total_sessions {}", result.total_sessions));
    }
    for arm in &result.arms {
        let c = arm.consort;
        if c.streams != c.never_began + c.short_watch + c.considered {
            bad.push(format!(
                "{}: CONSORT streams {} != never_began + short_watch + considered",
                arm.name, c.streams
            ));
        }
        if arm.streams.len() != c.considered || arm.session_durations.len() != c.sessions {
            bad.push(format!("{}: summaries do not match the CONSORT counts", arm.name));
        }
        if c.quarantined != 0 {
            bad.push(format!("{}: {} sessions quarantined", arm.name, c.quarantined));
        }
    }
    if !result.incidents.is_empty() {
        bad.push(format!("{} incidents on a zero-fault run", result.incidents.len()));
    }
    if w.in_situ() {
        if result.archive_paths.len() != cfg.days as usize {
            bad.push(format!("{} day archives for {} days", result.archive_paths.len(), cfg.days));
        }
        match tail.archive_rows {
            Some(rows)
                if rows.acked == result.dataset.n_observations() as u64 && rows.incidents == 0 => {}
            rows => bad.push(format!(
                "archive read-back {rows:?} does not match {} written acked rows",
                result.dataset.n_observations()
            )),
        }
        if !tail.retrain_verdict.is_some_and(|v| v.passed()) {
            bad.push(format!(
                "extra retrain failed the validation gate: {:?}",
                tail.retrain_verdict
            ));
        }
    }
    bad
}

/// A fresh directory for one repetition's archive sink, inside `out`.
pub fn archive_dir(out: &Path, w: Workload, tag: &str) -> PathBuf {
    out.join(format!("archive-{}-{}-{tag}", w.name(), std::process::id()))
}
