//! Cross-tier × cross-arm-batching bit-identity at the experiment level.
//!
//! The kernel family in `puffer-nn` dispatches AVX2+FMA → AVX+FMA → scalar
//! at runtime; `docs/BATCHING.md` argues all tiers are bit-identical, and the
//! unit/property tests pin that per kernel.  This test pins it end-to-end:
//! a whole RCT — including two ablation arms sharing one TTP snapshot, the
//! cross-arm batching case — must produce identical arm summaries on every
//! supported tier and at threads 1/2/8 (which changes how sessions are dealt
//! into each worker's wave).
//!
//! This lives in its own integration-test binary on purpose: `force_tier` is
//! a process-global override, and a separate binary means no other test can
//! observe it (forcing a supported tier is bitwise unobservable anyway, but
//! the isolation keeps the reasoning trivial).

use puffer_repro::fugu::TtpVariant;
use puffer_repro::nn::matrix::{force_tier, Tier};
use puffer_repro::platform::experiment::run_rct;
use puffer_repro::platform::{ExperimentConfig, SchemeSpec};
use std::sync::Arc;

fn schemes() -> Vec<SchemeSpec> {
    // Full and PointEstimate around ONE trained network (`Arc` shared — the
    // cross-arm batching case), an independently seeded Fugu that must stay
    // in its own TTP group, and a non-batchable control arm.
    let shared = Arc::new(TtpVariant::Full.build_ttp(21));
    vec![
        SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::Full, "Fugu"),
        SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::PointEstimate, "Point Estimate"),
        SchemeSpec::fugu_frozen(TtpVariant::Full.build_ttp(22), TtpVariant::Full, "Fugu B"),
        SchemeSpec::Bba,
    ]
}

fn assert_same(
    baseline: &puffer_repro::platform::RctResult,
    other: &puffer_repro::platform::RctResult,
    what: &str,
) {
    assert_eq!(baseline.total_sessions, other.total_sessions, "sessions, {what}");
    assert_eq!(
        baseline.dataset.n_observations(),
        other.dataset.n_observations(),
        "dataset, {what}"
    );
    for (a, b) in baseline.arms.iter().zip(&other.arms) {
        assert_eq!(a.consort, b.consort, "consort, arm {}, {what}", a.name);
        assert_eq!(a.streams, b.streams, "stream summaries, arm {}, {what}", a.name);
        assert_eq!(a.session_durations, b.session_durations, "durations, arm {}, {what}", a.name);
    }
}

#[test]
fn tiers_and_cross_arm_batching_are_bit_identical() {
    let mk = |threads| ExperimentConfig {
        seed: 23,
        sessions_per_day: 10,
        days: 1,
        threads,
        retrain: None,
        ..ExperimentConfig::default()
    };

    // Ground truth: scalar kernels, sequential.
    force_tier(Some(Tier::Scalar));
    let baseline = run_rct(schemes(), &mk(1));

    for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
        force_tier(Some(tier));
        for threads in [1, 2, 8] {
            let r = run_rct(schemes(), &mk(threads));
            assert_same(&baseline, &r, &format!("tier {tier:?}, threads {threads}"));
        }
    }
    force_tier(None);
}
