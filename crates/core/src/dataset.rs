//! In-situ training data aggregation (§4.3).
//!
//! "Puffer collects training data D by saving client telemetry from real
//! usage, aggregating pairs of (a) the input 4-vector and, (b) the true
//! transmission time for the chunk."  The raw unit of telemetry is one
//! completed chunk transfer ([`ChunkObservation`]); the dataset stores them
//! grouped by stream and by (simulated) day so that the trainer can apply
//! the 14-day sliding window and recency weights.  The RCT aggregates one as
//! it runs; `puffer_platform::read_dataset` rebuilds the same dataset from a
//! run's `.puf` day archives.
//!
//! Training samples for lookahead step *i* pair the decision-time state
//! before chunk *n* (the previous eight transfers plus `tcp_info`) with the
//! size and transmission time of chunk *n + i* — exactly the information the
//! controller will have when it queries network *i* at serving time.

use crate::ttp::Ttp;
use puffer_abr::ChunkRecord;
use puffer_net::TcpInfo;
use std::collections::BTreeMap;

/// One chunk transfer as recorded by the platform.
#[derive(Debug, Clone, Copy)]
pub struct ChunkObservation {
    /// Compressed size of the chunk actually sent, bytes.
    pub size: f64,
    /// Observed send-to-ack transmission time, seconds.
    pub transmission_time: f64,
    /// Sender-side TCP statistics sampled when the chunk was sent.
    pub tcp_info: TcpInfo,
}

/// A labelled training sample for one lookahead step.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Raw (unscaled) feature vector per the TTP configuration.
    pub features: Vec<f32>,
    /// Class index (time bin or throughput bin per the TTP's target).
    pub target: usize,
    /// Per-sample weight (recency).
    pub weight: f32,
}

/// Where one training sample comes from: the decision before chunk `n` of
/// the `stream`-th stream recorded on `day`.
#[derive(Debug, Clone, Copy)]
pub struct SamplePos {
    day: u32,
    stream: u32,
    n: u32,
}

/// Telemetry grouped by day → streams → chunk observations.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    days: BTreeMap<u32, Vec<Vec<ChunkObservation>>>,
}

impl Dataset {
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Record one stream's chunk observations under the given day.
    pub fn add_stream(&mut self, day: u32, stream: Vec<ChunkObservation>) {
        if !stream.is_empty() {
            self.days.entry(day).or_default().push(stream);
        }
    }

    /// Days present, ascending.
    pub fn days(&self) -> Vec<u32> {
        self.days.keys().copied().collect()
    }

    /// Total chunk observations stored.
    pub fn n_observations(&self) -> usize {
        self.days.values().flatten().map(Vec::len).sum()
    }

    /// Total streams stored.
    pub fn n_streams(&self) -> usize {
        self.days.values().map(Vec::len).sum()
    }

    /// Drop days older than `keep_from` (bounding memory in a long-running
    /// deployment — the trainer never looks past the 14-day window anyway).
    pub fn prune_before(&mut self, keep_from: u32) {
        self.days.retain(|&day, _| day >= keep_from);
    }

    /// Iterate all stored streams (all days, ascending day order).
    pub fn streams(&self) -> impl Iterator<Item = &[ChunkObservation]> {
        self.days.values().flatten().map(Vec::as_slice)
    }

    /// The streams stored under `day`, in the order they were added.
    pub fn day_streams(&self, day: u32) -> &[Vec<ChunkObservation>] {
        self.days.get(&day).map_or(&[], Vec::as_slice)
    }

    /// Every step-`step` sample position of the `window_days`-day window
    /// ending at `current_day`, in build order: days ascending, each day's
    /// streams in the order they were added, decisions ascending.  A stream
    /// of length L has `L - step` positions (none when it is shorter).
    pub fn sample_positions(
        &self,
        step: usize,
        current_day: u32,
        window_days: u32,
    ) -> Vec<SamplePos> {
        let from_day = current_day.saturating_sub(window_days.saturating_sub(1));
        let mut out = Vec::new();
        for (&day, streams) in self.days.range(from_day..=current_day) {
            for (stream, obs) in streams.iter().enumerate() {
                let stream = u32::try_from(stream).expect("stream index fits in 32 bits");
                let decisions = obs.len().saturating_sub(step);
                out.extend((0..decisions).map(|n| SamplePos {
                    day,
                    stream,
                    n: u32::try_from(n).expect("decision index fits in 32 bits"),
                }));
            }
        }
        out
    }

    /// Build the step-`step` training samples at `positions` (from
    /// [`Dataset::sample_positions`] with the same `step`), in the order
    /// given, weighted by recency relative to `current_day` with the given
    /// half-life (in days).
    ///
    /// Feature construction and target binning delegate to the `ttp` so that
    /// every ablation variant trains on exactly the inputs it will see at
    /// serving time.
    pub fn build_samples(
        &self,
        ttp: &Ttp,
        step: usize,
        current_day: u32,
        recency_half_life: f64,
        positions: &[SamplePos],
    ) -> Vec<Sample> {
        let history_len = ttp.config().history_len;
        let mut records = Vec::with_capacity(history_len);
        let mut weight_of = (u32::MAX, 0.0f32);
        positions
            .iter()
            .map(|&SamplePos { day, stream, n }| {
                if weight_of.0 != day {
                    let age = f64::from(current_day - day);
                    weight_of = (day, 0.5f64.powf(age / recency_half_life) as f32);
                }
                // The decision before chunk n sees chunks [0, n) — only the
                // last `history_len` of them reach the features — and is
                // labelled by chunk n + step.
                let obs = &self.days[&day][stream as usize];
                let n = n as usize;
                records.clear();
                records.extend(
                    obs[n.saturating_sub(history_len)..n].iter().map(|o| ChunkRecord {
                        size: o.size,
                        transmission_time: o.transmission_time,
                    }),
                );
                let labelled = &obs[n + step];
                let mut features = Vec::with_capacity(ttp.config().n_features());
                ttp.raw_features_into(&records, &obs[n].tcp_info, labelled.size, &mut features);
                let target = ttp.target_bin(labelled.size, labelled.transmission_time);
                Sample { features, target, weight: weight_of.1 }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttp::TtpConfig;

    fn tcp() -> TcpInfo {
        TcpInfo { cwnd: 10.0, in_flight: 0.0, min_rtt: 0.04, rtt: 0.05, delivery_rate: 4e5 }
    }

    fn obs(size: f64, time: f64) -> ChunkObservation {
        ChunkObservation { size, transmission_time: time, tcp_info: tcp() }
    }

    /// Every sample of the 14-day window, in build order.
    fn all_samples(d: &Dataset, ttp: &Ttp, step: usize, day: u32, half_life: f64) -> Vec<Sample> {
        d.build_samples(ttp, step, day, half_life, &d.sample_positions(step, day, 14))
    }

    fn stream(n: usize) -> Vec<ChunkObservation> {
        (0..n).map(|i| obs(100_000.0 + 1000.0 * i as f64, 0.5 + 0.01 * i as f64)).collect()
    }

    #[test]
    fn counts() {
        let mut d = Dataset::new();
        d.add_stream(1, stream(10));
        d.add_stream(1, stream(5));
        d.add_stream(3, stream(7));
        assert_eq!(d.n_streams(), 3);
        assert_eq!(d.n_observations(), 22);
        assert_eq!(d.days(), vec![1, 3]);
        let lens = |day| d.day_streams(day).iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!((lens(1), lens(2), lens(3)), (vec![10, 5], vec![], vec![7]));
    }

    #[test]
    fn empty_streams_ignored() {
        let mut d = Dataset::new();
        d.add_stream(1, vec![]);
        assert_eq!(d.n_streams(), 0);
    }

    #[test]
    fn step0_sample_count() {
        // A stream of length L yields L step-0 samples (every chunk is
        // labelled by itself).
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let mut d = Dataset::new();
        d.add_stream(5, stream(10));
        let s = all_samples(&d, &ttp, 0, 5, 4.0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn deeper_steps_yield_fewer_samples() {
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let mut d = Dataset::new();
        d.add_stream(5, stream(10));
        for step in 0..5 {
            let s = all_samples(&d, &ttp, step, 5, 4.0);
            assert_eq!(s.len(), 10 - step, "step {step}");
        }
    }

    #[test]
    fn window_excludes_old_days() {
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let mut d = Dataset::new();
        d.add_stream(1, stream(4)); // too old for a 14-day window at day 20
        d.add_stream(10, stream(4));
        d.add_stream(20, stream(4));
        let s = all_samples(&d, &ttp, 0, 20, 4.0);
        // Days 7..=20 qualify: day 10 and day 20 → 8 samples.
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn recency_weights_decay_with_half_life() {
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let mut d = Dataset::new();
        d.add_stream(16, stream(1));
        d.add_stream(20, stream(1));
        let s = all_samples(&d, &ttp, 0, 20, 4.0);
        assert_eq!(s.len(), 2);
        let (old, new) = (s[0].weight, s[1].weight);
        // Day 16 is one half-life (4 days) older than day 20.
        assert!((new - 1.0).abs() < 1e-6);
        assert!((old - 0.5).abs() < 1e-6);
    }

    #[test]
    fn features_are_serving_time_consistent() {
        // The first decision of a stream must have an all-zero history, like
        // a cold start at serving time.
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let mut d = Dataset::new();
        d.add_stream(1, stream(3));
        let s = all_samples(&d, &ttp, 0, 1, 4.0);
        let first = &s[0];
        for k in 0..16 {
            assert_eq!(first.features[k], 0.0, "history slot {k} must be padding");
        }
        // Proposed size is the labelled chunk's size.
        assert_eq!(first.features[21], 100_000.0);
    }

    #[test]
    fn prune_before_drops_old_days() {
        let mut d = Dataset::new();
        d.add_stream(1, stream(2));
        d.add_stream(5, stream(2));
        d.add_stream(9, stream(2));
        d.prune_before(5);
        assert_eq!(d.days(), vec![5, 9]);
    }

    #[test]
    fn targets_are_valid_bins() {
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let mut d = Dataset::new();
        d.add_stream(1, stream(20));
        for s in all_samples(&d, &ttp, 2, 1, 4.0) {
            assert!(s.target < crate::bins::N_BINS);
        }
    }

    /// A dataset of `days` random days (with gaps) holding up to three
    /// streams each, from empty to 11 chunks long.
    fn random_dataset(rng: &mut proptest::TestRng, days: usize) -> Dataset {
        let mut d = Dataset::new();
        let mut day = 0u32;
        for _ in 0..days {
            day += 1 + rng.below(3) as u32;
            for _ in 0..rng.below(4) {
                let len = rng.below(12) as usize;
                let stream = (0..len)
                    .map(|_| ChunkObservation {
                        size: 1e4 + 2e6 * rng.unit_f64(),
                        transmission_time: 5.0 * rng.unit_f64(),
                        tcp_info: TcpInfo {
                            cwnd: 100.0 * rng.unit_f64(),
                            in_flight: 10.0 * rng.unit_f64(),
                            min_rtt: 0.2 * rng.unit_f64(),
                            rtt: 0.4 * rng.unit_f64(),
                            delivery_rate: 1e7 * rng.unit_f64(),
                        },
                    })
                    .collect();
                d.add_stream(day, stream);
            }
        }
        d
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 200,
            ..proptest::ProptestConfig::default()
        })]

        /// Shuffling the window's positions, truncating them to a cap and
        /// building only those samples gives the samples (and leaves the
        /// RNG where) building every sample, shuffling and truncating did:
        /// the shuffle draws the same indices whatever it permutes.
        #[test]
        fn position_shuffled_build_matches_build_shuffle_truncate(
            seed in 0u64..u64::MAX,
            days in 0usize..5,
            step in 0usize..5,
            current_day in 0u32..14,
            window in 1u32..6,
            cap_kind in 0u8..3,
        ) {
            use rand::seq::SliceRandom;
            use rand::{Rng, SeedableRng};
            let mut gen = proptest::TestRng::new(seed);
            let d = random_dataset(&mut gen, days);
            let ttp = Ttp::new(TtpConfig::default(), 1);
            let every = d.sample_positions(step, current_day, window);
            let cap = match cap_kind {
                0 => every.len().saturating_sub(1 + every.len() / 3),
                1 => every.len(),
                _ => every.len() + 3,
            };

            let mut reference_rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut reference = d.build_samples(&ttp, step, current_day, 4.0, &every);
            if reference.len() > cap {
                reference.shuffle(&mut reference_rng);
                reference.truncate(cap);
            }

            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut kept = every.clone();
            if kept.len() > cap {
                kept.shuffle(&mut rng);
                kept.truncate(cap);
            }
            let built = d.build_samples(&ttp, step, current_day, 4.0, &kept);

            proptest::prop_assert_eq!(built.len(), reference.len());
            for (a, b) in built.iter().zip(&reference) {
                let bits = |s: &Sample| s.features.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(a), bits(b));
                proptest::prop_assert_eq!(a.target, b.target);
                proptest::prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
            proptest::prop_assert_eq!(rng.random::<u64>(), reference_rng.random::<u64>());
        }
    }
}
