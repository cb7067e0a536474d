//! Reproducibility: the entire experiment is a pure function of its seed.

use puffer_repro::platform::experiment::run_rct;
use puffer_repro::platform::{ExperimentConfig, SchemeSpec};

fn cfg(seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        sessions_per_day: 20,
        days: 2,
        threads,
        retrain: None,
        ..ExperimentConfig::default()
    }
}

fn fingerprint(result: &puffer_repro::platform::RctResult) -> Vec<(usize, f64, f64)> {
    result
        .arms
        .iter()
        .map(|a| {
            (
                a.consort.streams,
                a.streams.iter().map(|s| s.watch_time).sum::<f64>(),
                a.streams.iter().map(|s| s.mean_ssim_db).sum::<f64>(),
            )
        })
        .collect()
}

#[test]
fn identical_seeds_identical_results() {
    let schemes = || vec![SchemeSpec::Bba, SchemeSpec::MpcHm];
    let a = run_rct(schemes(), &cfg(5, 1));
    let b = run_rct(schemes(), &cfg(5, 1));
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn thread_count_does_not_change_results() {
    let schemes = || vec![SchemeSpec::Bba, SchemeSpec::RobustMpcHm];
    let seq = run_rct(schemes(), &cfg(6, 1));
    let par8 = run_rct(schemes(), &cfg(6, 8));
    assert_eq!(fingerprint(&seq), fingerprint(&par8));
}

#[test]
fn retraining_is_deterministic_across_thread_counts() {
    // The nightly in-situ retraining loop (§4.3) consumes telemetry gathered
    // by the parallel session runner; its model — and therefore every
    // decision the next day — must be bit-identical no matter how the
    // sessions were scheduled across threads.
    // Training itself also fans out (one step-net per worker); every
    // combination of session threads × training threads must agree bitwise.
    use puffer_repro::fugu::{TrainConfig, Ttp, TtpConfig};
    let schemes = || vec![SchemeSpec::Bba, SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 42))];
    let mk = |threads, train_threads| ExperimentConfig {
        seed: 9,
        sessions_per_day: 6,
        days: 2,
        threads,
        retrain: Some(TrainConfig {
            epochs: 1,
            max_samples_per_step: 400,
            threads: train_threads,
            ..TrainConfig::default()
        }),
        ..ExperimentConfig::default()
    };
    let t1 = run_rct(schemes(), &mk(1, 1));
    let t2 = run_rct(schemes(), &mk(2, 2));
    let t8 = run_rct(schemes(), &mk(8, 5));
    assert_eq!(fingerprint(&t1), fingerprint(&t2), "1/1 vs 2/2 threads");
    assert_eq!(fingerprint(&t1), fingerprint(&t8), "1/1 vs 8/5 threads");
}

#[test]
fn different_seeds_differ() {
    let schemes = || vec![SchemeSpec::Bba];
    let a = run_rct(schemes(), &cfg(7, 2));
    let b = run_rct(schemes(), &cfg(8, 2));
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different seeds should explore different sessions"
    );
}
