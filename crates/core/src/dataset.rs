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

    /// Build step-`step` training samples from the `window_days`-day window
    /// ending at `current_day`, weighted by recency with the given half-life
    /// (in days).
    ///
    /// Feature construction and target binning delegate to the `ttp` so that
    /// every ablation variant trains on exactly the inputs it will see at
    /// serving time.
    pub fn build_samples(
        &self,
        ttp: &Ttp,
        step: usize,
        current_day: u32,
        window_days: u32,
        recency_half_life: f64,
    ) -> Vec<Sample> {
        let from_day = current_day.saturating_sub(window_days.saturating_sub(1));
        let mut out = Vec::new();
        let mut records = Vec::new();
        for (&day, streams) in self.days.range(from_day..=current_day) {
            let age = f64::from(current_day - day);
            let weight = 0.5f64.powf(age / recency_half_life) as f32;
            for stream in streams {
                records.clear();
                records.extend(
                    stream.iter().map(|o| ChunkRecord {
                        size: o.size,
                        transmission_time: o.transmission_time,
                    }),
                );
                // For decision point n (deciding chunk n), the history is
                // chunks [0, n) and the label comes from chunk n + step.
                for n in 0..stream.len() {
                    let Some(labelled) = stream.get(n + step) else { break };
                    let (history, info) = (&records[..n], &stream[n].tcp_info);
                    let mut features = Vec::with_capacity(ttp.config().n_features());
                    ttp.raw_features_into(history, info, labelled.size, &mut features);
                    let target = ttp.target_bin(labelled.size, labelled.transmission_time);
                    out.push(Sample { features, target, weight });
                }
            }
        }
        out
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
        let s = d.build_samples(&ttp, 0, 5, 14, 4.0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn deeper_steps_yield_fewer_samples() {
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let mut d = Dataset::new();
        d.add_stream(5, stream(10));
        for step in 0..5 {
            let s = d.build_samples(&ttp, step, 5, 14, 4.0);
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
        let s = d.build_samples(&ttp, 0, 20, 14, 4.0);
        // Days 7..=20 qualify: day 10 and day 20 → 8 samples.
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn recency_weights_decay_with_half_life() {
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let mut d = Dataset::new();
        d.add_stream(16, stream(1));
        d.add_stream(20, stream(1));
        let s = d.build_samples(&ttp, 0, 20, 14, 4.0);
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
        let s = d.build_samples(&ttp, 0, 1, 14, 4.0);
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
        for s in d.build_samples(&ttp, 2, 1, 14, 4.0) {
            assert!(s.target < crate::bins::N_BINS);
        }
    }
}
