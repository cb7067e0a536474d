//! Golden fingerprints of fixed-seed RCT runs.
//!
//! Each scenario runs `run_rct` at a fixed seed, at a size the tier-1 suite
//! can afford, on 1 and 2 worker threads (1 and `FAULT_MATRIX_THREADS` when
//! that is set, as the CI fault matrix does at 2 and 8), and hashes
//! everything the run returns or writes with 64-bit FNV-1a:
//!
//! * total sessions and every arm's CONSORT counts;
//! * every field of every considered stream's `StreamSummary`, bit-exact via
//!   `to_bits`;
//! * every session duration, and the size of the training dataset;
//! * each arm's final TTP checkpoint text;
//! * the bytes of every `.puf` day archive and of `incidents.csv`;
//! * the incident log.
//!
//! One more scenario hashes a trained Pensieve policy's checkpoint text:
//! its actor-critic update is the only training that runs the allocating
//! `Mlp::backward`, over batches longer than the TTP's.
//!
//! The constants pin the day loop's output *across commits*, not one code
//! path against another inside one commit.  They were recorded once; a
//! change that moves one of them changes the experiment's results, and on a
//! mismatch the test prints the hash it computed.

use puffer_repro::abr::PensievePolicy;
use puffer_repro::fugu::{checkpoint, TrainConfig, Ttp, TtpConfig, TtpVariant};
use puffer_repro::platform::experiment::run_rct;
use puffer_repro::platform::{
    train_pensieve, DivergenceMode, ExperimentConfig, FaultPlan, ModelOutage, PensieveTrainConfig,
    PufRow, RctResult, RetrainFault, SchemeSpec,
};
use puffer_repro::stats::StreamSummary;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

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

    /// Length-prefixed, so adjacent strings cannot alias.
    fn text(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        self.bytes(s);
    }
}

fn fingerprint(result: &RctResult, sink: Option<&Path>) -> u64 {
    let mut h = Fnv::new();
    h.u64(result.total_sessions as u64);
    for arm in &result.arms {
        h.text(arm.name.as_bytes());
        h.u64(u64::from(arm.expt_id));
        let c = arm.consort;
        for n in [c.sessions, c.streams, c.never_began, c.short_watch, c.considered, c.quarantined]
        {
            h.u64(n as u64);
        }
        h.u64(arm.streams.len() as u64);
        for s in &arm.streams {
            let StreamSummary {
                startup_delay,
                watch_time,
                stall_time,
                mean_ssim_db,
                ssim_variation_db,
                first_chunk_ssim_db,
                mean_delivery_rate,
                total_bytes,
                chunks,
            } = *s;
            for x in [
                startup_delay,
                watch_time,
                stall_time,
                mean_ssim_db,
                ssim_variation_db,
                first_chunk_ssim_db,
                mean_delivery_rate,
                total_bytes,
            ] {
                h.f64(x);
            }
            h.u64(chunks as u64);
        }
        h.u64(arm.session_durations.len() as u64);
        for &d in &arm.session_durations {
            h.f64(d);
        }
    }
    h.u64(result.dataset.n_observations() as u64);
    h.u64(result.dataset.n_streams() as u64);
    for spec in &result.schemes {
        match spec.ttp() {
            Some(ttp) => h.text(checkpoint::save_to_string(ttp).as_bytes()),
            None => h.u64(0),
        }
    }
    h.u64(result.archive_paths.len() as u64);
    for p in &result.archive_paths {
        let name = p.file_name().expect("archive paths name a file");
        h.text(name.to_string_lossy().as_bytes());
        h.text(&std::fs::read(p).expect("day archive is readable"));
    }
    if let Some(csv) = sink.and_then(|dir| std::fs::read(dir.join("incidents.csv")).ok()) {
        h.text(&csv);
    }
    h.u64(result.incidents.len() as u64);
    for inc in &result.incidents {
        for x in inc.words() {
            h.u64(x);
        }
    }
    h.0
}

fn temp_dir(tag: &str, threads: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("puffer_golden_{tag}_t{threads}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Worker counts each scenario runs at: 1 and `FAULT_MATRIX_THREADS`,
/// defaulting to 2.
fn thread_counts() -> [usize; 2] {
    let n = std::env::var("FAULT_MATRIX_THREADS").ok().and_then(|v| v.parse().ok());
    [1, n.unwrap_or(2)]
}

/// Run one scenario at each of [`thread_counts`] and compare each run's
/// fingerprint with the recorded one.  `build` gets a fresh archive
/// directory when `with_sink` is set.
fn check(
    tag: &str,
    golden: u64,
    with_sink: bool,
    build: impl Fn(usize, Option<PathBuf>) -> (Vec<SchemeSpec>, ExperimentConfig),
) {
    for threads in thread_counts() {
        let sink = with_sink.then(|| temp_dir(tag, threads));
        let (schemes, cfg) = build(threads, sink.clone());
        let result = run_rct(schemes, &cfg);
        let got = fingerprint(&result, sink.as_deref());
        if let Some(dir) = &sink {
            let _ = std::fs::remove_dir_all(dir);
        }
        assert_eq!(
            got, golden,
            "{tag} at {threads} thread(s): fingerprint {got:#018x}, recorded {golden:#018x}"
        );
    }
}

const GOLDEN_BLINDED_STATEFUL_ARMS: u64 = 0x7e07_9e7d_2475_c997;
const GOLDEN_SHARED_TTP_PAIRED: u64 = 0x0779_912b_1caa_9a8e;
const GOLDEN_RETRAIN_AND_ARCHIVE: u64 = 0x32d4_4250_f146_ad36;
const GOLDEN_EVERY_FAULT_CLASS: u64 = 0x6eea_268b_5dc3_f518;
const GOLDEN_PENSIEVE_TRAINING: u64 = 0xc81a_ac8a_b86b_4b76;

/// Every stateful scheme on a blinded arm over two days: any per-stream
/// state a reused ABR fails to clear between sessions moves this hash.
#[test]
fn blinded_stateful_arms_match_golden() {
    check("blinded", GOLDEN_BLINDED_STATEFUL_ARMS, false, |threads, _| {
        let schemes = vec![
            SchemeSpec::MpcHm,
            SchemeSpec::RobustMpcHm,
            SchemeSpec::Pensieve(Arc::new(PensievePolicy::new(17))),
            SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 8)),
        ];
        let cfg = ExperimentConfig {
            seed: 21,
            sessions_per_day: 16,
            days: 2,
            threads,
            retrain: None,
            ..ExperimentConfig::default()
        };
        (schemes, cfg)
    });
}

/// Full and PointEstimate around one shared `Arc` (their decisions share a
/// batched pass), the throughput-predictor ablation (re-binned rows), and
/// BBA, paired so every session runs under every arm.
#[test]
fn shared_ttp_ablations_match_golden() {
    check("shared", GOLDEN_SHARED_TTP_PAIRED, false, |threads, _| {
        let shared = Arc::new(TtpVariant::Full.build_ttp(21));
        let schemes = vec![
            SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::Full, "Fugu"),
            SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::PointEstimate, "Point Estimate"),
            SchemeSpec::fugu_frozen(
                TtpVariant::ThroughputPredictor.build_ttp(14),
                TtpVariant::ThroughputPredictor,
                "Throughput Predictor",
            ),
            SchemeSpec::Bba,
        ];
        let cfg = ExperimentConfig {
            seed: 13,
            sessions_per_day: 6,
            days: 2,
            threads,
            retrain: None,
            paired: true,
            ..ExperimentConfig::default()
        };
        (schemes, cfg)
    });
}

fn small_retrain() -> TrainConfig {
    TrainConfig { epochs: 1, max_samples_per_step: 400, ..TrainConfig::default() }
}

/// A retraining Fugu and a stale Fugu sharing its day-0 `Arc` (they batch
/// together until the first nightly swap), plus BBA, with the `.puf`
/// archive sink on.
#[test]
fn retraining_and_archive_match_golden() {
    check("retrain", GOLDEN_RETRAIN_AND_ARCHIVE, true, |threads, sink| {
        let day0 = Arc::new(Ttp::new(TtpConfig::default(), 31));
        let schemes = vec![
            SchemeSpec::Fugu {
                ttp: Arc::clone(&day0),
                variant: TtpVariant::Full,
                label: "Fugu",
                retrain_daily: true,
            },
            SchemeSpec::fugu_frozen_shared(&day0, TtpVariant::Full, "Fugu (stale)"),
            SchemeSpec::Bba,
        ];
        let cfg = ExperimentConfig {
            seed: 33,
            sessions_per_day: 12,
            days: 2,
            threads,
            retrain: Some(small_retrain()),
            archive_sink: sink,
            ..ExperimentConfig::default()
        };
        (schemes, cfg)
    });
}

/// One plan hitting every fault class.  Paired mode fixes which arm each
/// session index lands on (`index = session · 3 + arm`): arm 0 is BBA,
/// arms 1 and 2 are retraining Fugus.
///
/// * panics: Fugu A at its first decision, BBA after two decisions, Fugu A
///   on day 1, and a Fugu B session whose panic point lies past its end (it
///   runs to its end and its results count);
/// * NaN telemetry on a Fugu A session;
/// * an archive-sink error on day 1, which degrades that day to CSV-only;
/// * day 0: Fugu A diverges once and recovers on retry, Fugu B diverges on
///   both attempts and rolls back;
/// * day 1: Fugu A's accepted checkpoint is truncated, Fugu A serves its
///   frozen snapshot and Fugu B falls back to BBA.
#[test]
fn every_fault_class_matches_golden() {
    check("faults", GOLDEN_EVERY_FAULT_CLASS, true, |threads, sink| {
        let schemes = vec![
            SchemeSpec::Bba,
            SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 41)),
            SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 42)),
        ];
        let faults = FaultPlan::none()
            .with_session_panic(0, 1, 0)
            .with_session_panic(0, 3, 2)
            .with_session_panic(0, 5, 1_000_000)
            .with_session_panic(1, 4, 3)
            .with_nan_telemetry(0, 7)
            .with_archive_error(1, 6)
            .with_retrain_divergence(
                0,
                1,
                RetrainFault { mode: DivergenceMode::NonFiniteWeights, attempts: 0b01 },
            )
            .with_retrain_divergence(
                0,
                2,
                RetrainFault { mode: DivergenceMode::ExplodingLoss, attempts: 0b11 },
            )
            .with_checkpoint_truncation(1, 1)
            .with_model_outage(1, 1, ModelOutage::Primary)
            .with_model_outage(1, 2, ModelOutage::PrimaryAndFrozen);
        let cfg = ExperimentConfig {
            seed: 43,
            sessions_per_day: 6,
            days: 2,
            threads,
            retrain: Some(small_retrain()),
            paired: true,
            archive_sink: sink,
            faults,
            ..ExperimentConfig::default()
        };
        (schemes, cfg)
    });
}

/// Three actor-critic updates of Pensieve, each on four four-minute
/// emulation episodes, so each update's batch is longer than the nn
/// kernels' 256-pair packing buffer.
#[test]
fn pensieve_training_matches_golden() {
    let cfg = PensieveTrainConfig {
        iterations: 3,
        episodes_per_iter: 4,
        episode_seconds: 240.0,
        ..PensieveTrainConfig::default()
    };
    let mut h = Fnv::new();
    h.text(train_pensieve(&cfg, 5).save_to_string().as_bytes());
    let (got, golden) = (h.0, GOLDEN_PENSIEVE_TRAINING);
    assert_eq!(got, golden, "pensieve: fingerprint {got:#018x}, recorded {golden:#018x}");
}
