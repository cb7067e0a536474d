//! Property-based tests for trace arithmetic: the integral/inverse-integral
//! pair must be mutually consistent for *any* piecewise-constant trace.
//!
//! Skipped under Miri: hundreds of proptest cases through the full
//! simulation are minutes-long in an interpreter, and the unsafe code
//! Miri exists to check is exercised by the faster unit tests.
#![cfg(not(miri))]

use proptest::prelude::*;
use puffer_trace::trace::{Epoch, RateTrace};
use puffer_trace::{mahimahi, Cs2pLikeProcess, FccLikeProcess, PufferLikeProcess, RateProcess};
use rand::SeedableRng;

fn arb_epochs() -> impl Strategy<Value = Vec<Epoch>> {
    // 1..12 epochs, durations 0.05..5 s, rates 0..2e6 B/s, at least one
    // epoch carrying bytes.
    prop::collection::vec((0.05f64..5.0, 0.0f64..2e6), 1..12)
        .prop_filter("must carry bytes", |v| v.iter().any(|&(d, r)| d * r > 0.0))
        .prop_map(|v| v.into_iter().map(|(duration, rate)| Epoch { duration, rate }).collect())
}

fn arb_trace() -> impl Strategy<Value = RateTrace> {
    arb_epochs().prop_map(|epochs| RateTrace::new(&epochs))
}

/// The epochs of a 600 s Puffer-like trace: about 600 epochs of about a
/// second each, so a jump of a few seconds passes more epochs than a lookup
/// steps through before it binary-searches.
fn puffer_like_epochs(seed: u64) -> Vec<Epoch> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut process = PufferLikeProcess::new(5e5, 0.5);
    let mut epochs = Vec::new();
    let mut t = 0.0;
    while t < 600.0 {
        let e = process.next_epoch(&mut rng);
        t += e.duration;
        epochs.push(e);
    }
    epochs
}

/// Query `kind` (rate, advance, bytes) at absolute time `t`, sized by `x`
/// in [0, 1).
fn query(trace: &RateTrace, kind: u8, t: f64, x: f64) -> f64 {
    match kind {
        0 => trace.rate_at(t),
        1 => trace.advance(t, x * 2e6),
        _ => trace.bytes_between(t, t + 5.0 * x),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn advance_is_inverse_of_bytes_between(
        trace in arb_trace(),
        t0 in 0.0f64..50.0,
        bytes in 0.0f64..5e7,
    ) {
        let t1 = trace.advance(t0, bytes);
        prop_assert!(t1 >= t0);
        let carried = trace.bytes_between(t0, t1);
        prop_assert!((carried - bytes).abs() < 1e-6 * bytes.max(1.0),
            "carried {carried} vs requested {bytes}");
    }

    #[test]
    fn bytes_between_is_additive(
        trace in arb_trace(),
        t0 in 0.0f64..30.0,
        d1 in 0.0f64..20.0,
        d2 in 0.0f64..20.0,
    ) {
        let whole = trace.bytes_between(t0, t0 + d1 + d2);
        let parts = trace.bytes_between(t0, t0 + d1) + trace.bytes_between(t0 + d1, t0 + d1 + d2);
        prop_assert!((whole - parts).abs() < 1e-6 * whole.max(1.0));
    }

    #[test]
    fn bytes_between_is_monotone_and_bounded(
        trace in arb_trace(),
        t0 in 0.0f64..30.0,
        d in 0.0f64..40.0,
    ) {
        let b = trace.bytes_between(t0, t0 + d);
        prop_assert!(b >= 0.0);
        // Bounded by max rate × duration.
        let max_rate = trace.epochs().map(|(_, r)| r).fold(0.0, f64::max);
        prop_assert!(b <= max_rate * d + 1e-6);
    }

    #[test]
    fn advance_is_monotone_in_bytes(
        trace in arb_trace(),
        t0 in 0.0f64..20.0,
        b1 in 0.0f64..1e6,
        b2 in 0.0f64..1e6,
    ) {
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(trace.advance(t0, lo) <= trace.advance(t0, hi) + 1e-12);
    }

    /// A trace remembers the epoch its last lookup found; its answers must
    /// not depend on that.  One long-lived trace answers a walk of queries
    /// — mostly forward like the TCP model's rounds, with steps back of up
    /// to 1e-9 s, jumps past the loop's end and back, −0.0 and exact epoch
    /// starts — and each answer must equal, bit for bit, a fresh trace's.
    #[test]
    fn answers_do_not_depend_on_earlier_queries(
        arb in arb_epochs(),
        puffer_like in any::<bool>(),
        seed in 0u64..1_000,
        walk in prop::collection::vec((0u8..10, 0.0f64..1.0, 0u8..3, 0.0f64..1.0), 1..300),
    ) {
        let epochs = if puffer_like { puffer_like_epochs(seed) } else { arb };
        let trace = RateTrace::new(&epochs);
        let starts: Vec<f64> = trace.epochs().map(|(s, _)| s).collect();
        let loop_s = trace.loop_duration();
        let mut t = 0.0f64;
        let mut reached = 0.0f64;
        for &(step, x, kind, size) in &walk {
            t = match step {
                0..=2 => t + 0.5 * x,
                3 => (t - 1e-9 * x).max(0.0),
                4 => reached,
                5 => t + 20.0 * x,
                6 => t + loop_s * (1.0 + 3.0 * x),
                7 => loop_s * x,
                8 => -0.0,
                _ => starts[(x * starts.len() as f64) as usize],
            };
            let got = query(&trace, kind, t, size);
            let want = query(&RateTrace::new(&epochs), kind, t, size);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "query {} at t = {:e}: {} vs {}",
                kind, t, got, want);
            if kind == 1 {
                reached = got;
            }
        }
    }

    /// A time a few ulps from a multiple of the loop duration `d` can wrap a
    /// few ulps below the loop's start or past its end, when `t0 / d`
    /// rounds across the boundary.  Queries there answer like any others:
    /// `advance` and `bytes_between` invert each other, and a later
    /// `rate_at` answers like a fresh trace's.
    #[test]
    fn queries_a_few_ulps_from_a_loop_boundary(
        arb in arb_epochs(),
        constant in any::<bool>(),
        d in 0.5f64..5000.0,
        k in 1u64..100_000,
        bytes in 0.0f64..1e6,
    ) {
        let epochs = if constant { vec![Epoch { duration: d, rate: 1000.0 }] } else { arb };
        let trace = RateTrace::new(&epochs);
        let d = trace.loop_duration();
        let max_rate = trace.epochs().map(|(_, r)| r).fold(0.0, f64::max);
        for ulps in -8i64..=8 {
            let t0 = f64::from_bits(((k as f64 * d).to_bits() as i64 + ulps) as u64);
            let t1 = trace.advance(t0, bytes);
            prop_assert!(t1 >= t0, "advance({:e}) went back to {:e}", t0, t1);
            let carried = trace.bytes_between(t0, t1);
            // Absolute times near 1e7 s carry ~1e-9 s of rounding each.
            let tolerance = 1e-6 * bytes.max(1.0) + max_rate * 64.0 * f64::EPSILON * t1;
            prop_assert!((carried - bytes).abs() <= tolerance,
                "t0 = {:e}: carried {} vs requested {}", t0, carried, bytes);
            prop_assert!(trace.bytes_between(t0, t0) == 0.0);
            let fresh = RateTrace::new(&epochs);
            prop_assert_eq!(trace.rate_at(t0).to_bits(), fresh.rate_at(t0).to_bits());
        }
    }

    #[test]
    fn processes_produce_valid_traces(seed in 0u64..5_000, base in 5e4f64..2e6) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for trace in [
            PufferLikeProcess::new(base, 0.5).sample_trace(120.0, &mut rng),
            FccLikeProcess::new(base).sample_trace(120.0, &mut rng),
            Cs2pLikeProcess::fig2_default().sample_trace(120.0, &mut rng),
        ] {
            prop_assert!(trace.loop_duration() >= 120.0);
            prop_assert!(trace.mean_rate() > 0.0);
            prop_assert!(trace.epochs().all(|(_, r)| r.is_finite() && r >= 0.0));
        }
    }

    #[test]
    fn mahimahi_roundtrip_preserves_bytes(
        trace in arb_trace(),
    ) {
        let opportunities = mahimahi::from_rate_trace(&trace);
        // Only meaningful when the trace carries at least a few packets.
        prop_assume!(opportunities.len() >= 10);
        let back = mahimahi::to_rate_trace(&opportunities, 50).unwrap();
        // Cumulative bytes agree within one MTU per bucket boundary effect.
        let orig = trace.bytes_between(0.0, trace.loop_duration());
        let got = back.bytes_between(0.0, back.loop_duration());
        let tolerance = 2.0 * mahimahi::MTU_BYTES + 0.02 * orig;
        prop_assert!((orig - got).abs() <= tolerance, "orig {orig} got {got}");
    }
}
