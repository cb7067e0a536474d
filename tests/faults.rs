//! Fault injection and supervised degradation (docs/ROBUSTNESS.md).
//!
//! The contract under test: a seeded [`FaultPlan`] produces the *same*
//! incidents, the same CONSORT exclusions, and the same surviving results at
//! every thread count; a zero-fault plan leaves the run byte-identical to a
//! build that never heard of faults; and every fault class degrades the way
//! the incident log says it does.
//!
//! The CI fault matrix re-runs this file with `FAULT_MATRIX_THREADS` set to
//! 1, 2, and 8; without the variable each test sweeps all three locally.

use puffer_repro::fugu::{TrainConfig, Ttp, TtpConfig, TtpVariant};
use puffer_repro::platform::experiment::run_rct;
use puffer_repro::platform::{
    DegradeAction, ExperimentConfig, FaultPlan, Incident, IncidentKind, ModelOutage, RetrainFault,
    SchemeSpec,
};
use std::path::PathBuf;
use std::sync::Arc;

fn thread_counts() -> Vec<usize> {
    match std::env::var("FAULT_MATRIX_THREADS").ok().and_then(|v| v.parse().ok()) {
        Some(n) => vec![1, n],
        None => vec![1, 2, 8],
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puffer_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Per-arm `(streams, quarantined, total watch, total SSIM)` summary.
type Fingerprint = Vec<(usize, usize, f64, f64)>;

fn fingerprint(result: &puffer_repro::platform::RctResult) -> Fingerprint {
    result
        .arms
        .iter()
        .map(|a| {
            (
                a.consort.streams,
                a.consort.quarantined,
                a.streams.iter().map(|s| s.watch_time).sum::<f64>(),
                a.streams.iter().map(|s| s.mean_ssim_db).sum::<f64>(),
            )
        })
        .collect()
}

fn base_cfg(seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        sessions_per_day: 16,
        days: 2,
        threads,
        retrain: None,
        ..ExperimentConfig::default()
    }
}

#[test]
fn zero_fault_plan_changes_nothing() {
    let schemes = || vec![SchemeSpec::Bba, SchemeSpec::MpcHm];
    let plain_dir = temp_dir("zero_plain");
    let faulted_dir = temp_dir("zero_none");

    let mut plain_cfg = base_cfg(21, 2);
    plain_cfg.archive_sink = Some(plain_dir.clone());
    let plain = run_rct(schemes(), &plain_cfg);

    let mut none_cfg = base_cfg(21, 2);
    none_cfg.archive_sink = Some(faulted_dir.clone());
    none_cfg.faults = FaultPlan::none();
    let none = run_rct(schemes(), &none_cfg);

    assert_eq!(fingerprint(&plain), fingerprint(&none));
    assert!(plain.incidents.is_empty());
    assert!(none.incidents.is_empty());
    // Nothing fault-related on disk, and the day archives are
    // byte-identical: the supervision layer is invisible at zero faults.
    assert!(!plain_dir.join("incidents.csv").exists());
    assert!(!faulted_dir.join("incidents.csv").exists());
    assert_eq!(plain.archive_paths.len(), none.archive_paths.len());
    for (a, b) in plain.archive_paths.iter().zip(&none.archive_paths) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "day archive bytes diverged under an empty fault plan"
        );
    }
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&faulted_dir);
}

/// A plan exercising every in-day fault class at fixed coordinates.
fn mixed_plan() -> FaultPlan {
    FaultPlan::none()
        .with_session_panic(0, 3, 2)
        .with_session_panic(1, 7, 0)
        .with_nan_telemetry(0, 5)
        .with_archive_error(0, 9)
}

#[test]
fn faulted_runs_are_deterministic_across_thread_counts() {
    let schemes = || vec![SchemeSpec::Bba, SchemeSpec::MpcHm];
    let mut baseline: Option<(Fingerprint, Vec<Incident>)> = None;
    for threads in thread_counts() {
        let dir = temp_dir(&format!("det_t{threads}"));
        let mut cfg = base_cfg(22, threads);
        cfg.archive_sink = Some(dir.clone());
        cfg.faults = mixed_plan();
        let result = run_rct(schemes(), &cfg);

        // The panicked sessions surface as quarantines, never as a crash.
        let quarantined: usize = result.arms.iter().map(|a| a.consort.quarantined).sum();
        assert_eq!(quarantined, 2, "threads {threads}");
        assert!(result.incidents.iter().any(|i| i.kind == IncidentKind::BadTelemetry
            && i.action == DegradeAction::ObservationsDropped));

        // Day 0's sink fault degrades that whole day to CSV-only at every
        // thread count; day 1 still archives.
        assert!(result
            .incidents
            .iter()
            .any(|i| i.kind == IncidentKind::ArchiveIo && i.action == DegradeAction::CsvOnly));
        assert!(!dir.join("telemetry_day0.puf").exists(), "threads {threads}");
        assert!(dir.join("telemetry_day1.puf").exists(), "threads {threads}");
        assert_eq!(result.archive_paths, vec![dir.join("telemetry_day1.puf")]);

        // The deterministic incident log landed next to the archives.
        let csv = std::fs::read_to_string(dir.join("incidents.csv")).unwrap();
        assert!(csv.starts_with("day,arm,session,kind,action,value"));

        let fp = (fingerprint(&result), result.incidents);
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => {
                assert_eq!(b.0, fp.0, "results diverged at {threads} threads");
                assert_eq!(b.1, fp.1, "incident log diverged at {threads} threads");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn retrain_cfg(seed: u64, faults: FaultPlan) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        sessions_per_day: 12,
        days: 1,
        threads: 2,
        retrain: Some(TrainConfig {
            epochs: 1,
            max_samples_per_step: 400,
            ..TrainConfig::default()
        }),
        faults,
        ..ExperimentConfig::default()
    }
}

#[test]
fn diverged_retrain_rolls_back_to_the_incumbent() {
    let ttp = Ttp::new(TtpConfig::default(), 42);
    let schemes = vec![SchemeSpec::Bba, SchemeSpec::fugu(ttp)];
    let incumbent = schemes[1].ttp().unwrap().clone();
    let fault = RetrainFault {
        mode: puffer_repro::platform::DivergenceMode::NonFiniteWeights,
        attempts: 0b11,
    };
    let result =
        run_rct(schemes, &retrain_cfg(23, FaultPlan::none().with_retrain_divergence(0, 1, fault)));

    // Both attempts diverged: one retry incident, one rollback incident,
    // and the serving model is the *same* Arc the day started with.
    let rejected: Vec<&Incident> =
        result.incidents.iter().filter(|i| i.kind == IncidentKind::RetrainRejected).collect();
    assert_eq!(rejected.len(), 2, "incidents: {:?}", result.incidents);
    assert_eq!(rejected[0].action, DegradeAction::RetriedTraining);
    assert_eq!(rejected[1].action, DegradeAction::RolledBack);
    assert!(
        Arc::ptr_eq(&incumbent, result.schemes[1].ttp().unwrap()),
        "rollback must leave the incumbent model serving"
    );
}

#[test]
fn single_attempt_divergence_recovers_on_retry() {
    let ttp = Ttp::new(TtpConfig::default(), 42);
    let schemes = vec![SchemeSpec::Bba, SchemeSpec::fugu(ttp)];
    let incumbent = schemes[1].ttp().unwrap().clone();
    let fault = RetrainFault {
        mode: puffer_repro::platform::DivergenceMode::NonFiniteWeights,
        attempts: 0b01,
    };
    let result =
        run_rct(schemes, &retrain_cfg(23, FaultPlan::none().with_retrain_divergence(0, 1, fault)));

    assert!(result
        .incidents
        .iter()
        .any(|i| i.kind == IncidentKind::RetrainRecovered
            && i.action == DegradeAction::RetrySucceeded));
    assert!(
        !Arc::ptr_eq(&incumbent, result.schemes[1].ttp().unwrap()),
        "the retried candidate must be swapped in"
    );
}

#[test]
fn clean_retrain_still_swaps_the_model() {
    let ttp = Ttp::new(TtpConfig::default(), 42);
    let schemes = vec![SchemeSpec::Bba, SchemeSpec::fugu(ttp)];
    let incumbent = schemes[1].ttp().unwrap().clone();
    let result = run_rct(schemes, &retrain_cfg(23, FaultPlan::none()));

    assert!(result.incidents.is_empty(), "incidents: {:?}", result.incidents);
    assert!(
        !Arc::ptr_eq(&incumbent, result.schemes[1].ttp().unwrap()),
        "a clean nightly retrain must swap the serving model"
    );
}

#[test]
fn truncated_checkpoint_keeps_the_incumbent() {
    let ttp = Ttp::new(TtpConfig::default(), 42);
    let schemes = vec![SchemeSpec::Bba, SchemeSpec::fugu(ttp)];
    let incumbent = schemes[1].ttp().unwrap().clone();
    let result =
        run_rct(schemes, &retrain_cfg(23, FaultPlan::none().with_checkpoint_truncation(0, 1)));

    assert!(result
        .incidents
        .iter()
        .any(|i| i.kind == IncidentKind::CheckpointTruncated
            && i.action == DegradeAction::KeptIncumbent));
    assert!(
        Arc::ptr_eq(&incumbent, result.schemes[1].ttp().unwrap()),
        "an unloadable checkpoint must not replace the serving model"
    );
}

#[test]
fn model_outage_falls_back_down_the_ladder() {
    let schemes = || vec![SchemeSpec::Bba, SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 42))];

    // Primary model unavailable: the arm serves its frozen day-0 snapshot.
    let mut cfg = base_cfg(24, 2);
    cfg.faults = FaultPlan::none().with_model_outage(1, 1, ModelOutage::Primary);
    let frozen = run_rct(schemes(), &cfg);
    assert!(frozen.incidents.iter().any(
        |i| i.kind == IncidentKind::ModelUnavailable && i.action == DegradeAction::ServedFrozen
    ));

    // Frozen snapshot gone too: last rung of the ladder is BBA.
    let mut cfg = base_cfg(24, 2);
    cfg.faults = FaultPlan::none().with_model_outage(1, 1, ModelOutage::PrimaryAndFrozen);
    let bba = run_rct(schemes(), &cfg);
    assert!(bba
        .incidents
        .iter()
        .any(|i| i.kind == IncidentKind::ModelUnavailable && i.action == DegradeAction::ServedBba));

    // Either way every session of every day still completes.
    assert_eq!(frozen.total_sessions, bba.total_sessions);
}

#[test]
fn quarantine_accounting_is_exact() {
    // A quarantined session is excluded from *every* CONSORT count except
    // `quarantined`, so downstream invariants (durations per session) hold.
    let schemes = || vec![SchemeSpec::Bba];
    let mut cfg = base_cfg(25, 2);
    cfg.faults = FaultPlan::none().with_session_panic(0, 2, 1).with_session_panic(1, 4, 3);
    let result = run_rct(schemes(), &cfg);
    let arm = &result.arms[0];
    assert_eq!(arm.consort.quarantined, 2);
    assert_eq!(arm.consort.sessions, result.total_sessions - 2);
    assert_eq!(arm.session_durations.len(), arm.consort.sessions);
    let panics: Vec<&Incident> =
        result.incidents.iter().filter(|i| i.kind == IncidentKind::SessionPanic).collect();
    assert_eq!(panics.len(), 2);
    assert!(panics.iter().all(|i| i.action == DegradeAction::Quarantined));
}

#[test]
fn in_wave_panic_quarantines_only_its_session() {
    // Two Fugu arms around one `Arc` co-batch their decisions in the wave;
    // paired mode puts spec index `session · 3 + arm` on `arm`, so the
    // panic lands on the Full arm's session 2, inside the wave.
    let shared = Arc::new(TtpVariant::Full.build_ttp(5));
    let schemes = || {
        vec![
            SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::Full, "Fugu"),
            SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::PointEstimate, "Point Estimate"),
            SchemeSpec::Bba,
        ]
    };
    let cfg = |threads, faults| ExperimentConfig {
        sessions_per_day: 6,
        days: 1,
        paired: true,
        faults,
        ..base_cfg(26, threads)
    };
    let (session, after_decisions) = (2usize, 3u32);
    let clean = run_rct(schemes(), &cfg(1, FaultPlan::none()));
    for threads in thread_counts() {
        let plan = FaultPlan::none().with_session_panic(0, session as u64 * 3, after_decisions);
        let faulted = run_rct(schemes(), &cfg(threads, plan));

        let panics: Vec<&Incident> =
            faulted.incidents.iter().filter(|i| i.kind == IncidentKind::SessionPanic).collect();
        assert_eq!(panics.len(), 1, "threads {threads}: {:?}", faulted.incidents);
        assert_eq!(panics[0].value, u64::from(after_decisions), "decisions made before the panic");

        for (arm, (c, f)) in clean.arms.iter().zip(&faulted.arms).enumerate() {
            if arm != 0 {
                assert_eq!(c.consort, f.consort, "{} at {threads} threads", c.name);
                assert_eq!(c.streams, f.streams, "{} at {threads} threads", c.name);
                assert_eq!(c.session_durations, f.session_durations, "{}", c.name);
                continue;
            }
            assert_eq!(f.consort.quarantined, 1);
            let mut durations = c.session_durations.clone();
            durations.remove(session);
            assert_eq!(f.session_durations, durations, "threads {threads}");
            // The quarantined session's considered streams are one
            // contiguous block of the clean run's.
            let block = c.streams.len() - f.streams.len();
            let start = c.streams.iter().zip(&f.streams).take_while(|(x, y)| x == y).count();
            assert_eq!(f.streams[start..], c.streams[start + block..], "threads {threads}");
        }
    }
}
