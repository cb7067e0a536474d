//! The Transmission Time Predictor (§4.2, §4.5).
//!
//! One fully-connected network *per lookahead step* ("if optimizing for the
//! total QoE of the next five chunks, five neural networks are trained" —
//! multiple networks in parallel are functionally equivalent to one that
//! takes the future step as input, §4.2).  Each network takes:
//!
//! 1. sizes of the past *t* = 8 chunks,
//! 2. transmission times of the past 8 chunks,
//! 3. internal TCP statistics (`tcp_info`: cwnd, in-flight, min RTT,
//!    smoothed RTT, delivery rate),
//! 4. the size of the chunk proposed for transmission,
//!
//! and outputs a probability distribution over the 21 transmission-time bins
//! of [`crate::bins`].
//!
//! The ablation variants of §4.6 are expressed through [`TtpConfig`]:
//! `hidden: vec![]` is the linear-regression ablation, `use_tcp_info: false`
//! drops input (3), and `target: Throughput` predicts a throughput
//! distribution with no regard to the proposed size (input 4), which is then
//! re-binned into time bins at query time for an apples-to-apples comparison.

use crate::bins::{self, N_BINS};
use puffer_abr::ChunkRecord;
use puffer_net::TcpInfo;
use puffer_nn::{loss, Activation, Matrix, Mlp, MlpScratch, Scaler};

/// What the network's output distribution ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionTarget {
    /// Distribution over transmission-time bins of the *proposed* chunk
    /// (the real TTP).
    TransmissionTime,
    /// Distribution over throughput bins, ignoring the proposed chunk size
    /// (the "Throughput Predictor" ablation of Fig. 7).
    Throughput,
}

/// Geometric throughput-bin centers for the throughput ablation, bytes/s.
/// 21 bins spanning ≈ 0.2–120 Mbit/s.
// lint: panic-free — the entry assert is the bin-index contract; callers iterate 0..N_BINS
pub fn throughput_bin_center(bin: usize) -> f64 {
    assert!(bin < N_BINS);
    25_000.0 * 1.45f64.powi(bin as i32)
}

/// Bin index for an observed throughput (bytes/s): nearest geometric center
/// in log space.
///
/// Total over all of `f64`: telemetry joins can produce degenerate
/// throughputs — a zero-duration transfer divides to `+inf`, a zero-size or
/// clock-skewed one to `0`, negative, or NaN — and a panic here would take
/// down retraining for the whole day's data.  Non-positive and NaN inputs
/// clamp to the lowest bin, `+inf` to the highest.
pub fn throughput_bin_index(throughput: f64) -> usize {
    if throughput.is_nan() || throughput <= 0.0 {
        return 0;
    }
    if throughput == f64::INFINITY {
        return N_BINS - 1;
    }
    let ratio = 1.45f64.ln();
    let idx = ((throughput / 25_000.0).ln() / ratio).round();
    (idx.max(0.0) as usize).min(N_BINS - 1)
}

/// Architecture and feature configuration of a TTP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TtpConfig {
    /// Lookahead steps (networks trained): paper uses 5.
    pub horizon: usize,
    /// Past chunks in the input window: paper uses 8.
    pub history_len: usize,
    /// Hidden-layer widths: paper uses [64, 64]; empty = linear model.
    pub hidden: Vec<usize>,
    /// Include the five `tcp_info` fields.
    pub use_tcp_info: bool,
    /// What the output distribution ranges over.
    pub target: PredictionTarget,
}

impl Default for TtpConfig {
    fn default() -> Self {
        TtpConfig {
            horizon: 5,
            history_len: 8,
            hidden: vec![64, 64],
            use_tcp_info: true,
            target: PredictionTarget::TransmissionTime,
        }
    }
}

impl TtpConfig {
    /// Input dimensionality implied by the configuration.
    pub fn n_features(&self) -> usize {
        let mut n = 2 * self.history_len;
        if self.use_tcp_info {
            n += 5;
        }
        if self.target == PredictionTarget::TransmissionTime {
            n += 1; // proposed chunk size
        }
        n
    }

    /// Layer widths of every step-net, input first: the features, the
    /// hidden layers, the time bins.
    pub(crate) fn net_dims(&self) -> Vec<usize> {
        let mut dims = vec![self.n_features()];
        dims.extend_from_slice(&self.hidden);
        dims.push(N_BINS);
        dims
    }
}

/// Reusable buffers for [`Ttp::predict_time_distributions_batched_into`], so
/// the controller's inner loop (5 steps × all ladder rungs per chunk decision)
/// performs no heap allocations in steady state.
#[derive(Debug, Clone, Default)]
pub struct TtpScratch {
    /// Raw feature row (shared across rungs except the proposed-size column).
    raw: Vec<f32>,
    /// Standardized feature row.
    scaled: Vec<f32>,
    /// Standardized proposed-size column, one entry per rung.
    lasts: Vec<f32>,
    /// Standardized input block of [`Ttp::score_rows`] (the throughput
    /// ablation and evaluation; the transmission-time path stages
    /// first-layer rows instead of materializing the batch).
    features: Matrix,
    /// Hidden-width accumulator for one query's shared-prefix response while
    /// the staged batch matrix is lent out.
    partial: Vec<f32>,
    /// Ping/pong activation buffers for the forward pass.
    mlp: MlpScratch,
}

impl TtpScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Spread a throughput distribution over transmission-time bins for one
/// proposed size: each throughput bin's center implies a transmission time
/// `size / center`, whose time bin accumulates that bin's probability mass.
///
/// Uses [`bins::bin_index_total`] so the loop is total: a degenerate
/// proposed size (NaN, ±inf, negative) yields a non-finite or negative time
/// for some centers, which clamps to an edge bin instead of panicking — and
/// is bit-identical to the partial `bin_index` on every well-formed size.
// lint: panic-free — f64 division is total and bin_index_total clamps into time_row's fixed N_BINS range
fn rebin_throughput_to_time(probs: &[f32], size: f64, time_row: &mut [f64]) {
    for (b, &p) in probs.iter().enumerate() {
        let t = size / throughput_bin_center(b);
        time_row[bins::bin_index_total(t)] += f64::from(p);
    }
}

/// Rows per forward pass of [`Ttp::score_rows`].
pub(crate) const SCORE_BLOCK: usize = 256;

/// One stream's query within a batched TTP call
/// ([`Ttp::predict_time_distributions_batched_into`]): the (history,
/// tcp_info, proposed sizes) of one decision step, borrowed so a scheduler
/// can assemble one query per concurrent stream without copying.  A single
/// stream's decision is a batch of one query.
#[derive(Debug, Clone, Copy)]
pub struct TtpBatchQuery<'a> {
    /// Delivered-chunk history, oldest first (zero-padded on the left when
    /// shorter than the configured window).
    pub history: &'a [ChunkRecord],
    /// Kernel TCP statistics at the decision point.
    pub tcp_info: &'a TcpInfo,
    /// Candidate chunk sizes — one output row per entry; must be non-empty.
    pub proposed_sizes: &'a [f64],
}

/// The predictor: `horizon` networks plus a shared input scaler.
#[derive(Debug, Clone)]
pub struct Ttp {
    config: TtpConfig,
    nets: Vec<Mlp>,
    scaler: Scaler,
}

impl Ttp {
    /// Randomly-initialized TTP (scaler starts as identity; training fits it).
    pub fn new(config: TtpConfig, seed: u64) -> Self {
        assert!(config.horizon >= 1);
        assert!(config.history_len >= 1);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dims = config.net_dims();
        let nets =
            (0..config.horizon).map(|_| Mlp::new(&dims, Activation::Relu, &mut rng)).collect();
        let scaler = Scaler::identity(config.n_features());
        Ttp { config, nets, scaler }
    }

    /// A TTP from trained step-nets and their input scaler, which the
    /// checkpoint loader has checked against `config`.
    pub(crate) fn from_parts(config: TtpConfig, nets: Vec<Mlp>, scaler: Scaler) -> Self {
        Ttp { config, nets, scaler }
    }

    pub fn config(&self) -> &TtpConfig {
        &self.config
    }

    pub fn horizon(&self) -> usize {
        self.config.horizon
    }

    pub fn scaler(&self) -> &Scaler {
        &self.scaler
    }

    pub fn set_scaler(&mut self, scaler: Scaler) {
        assert_eq!(scaler.dim(), self.config.n_features());
        self.scaler = scaler;
    }

    /// Mutable access to the per-step networks (training).
    pub fn nets_mut(&mut self) -> &mut [Mlp] {
        &mut self.nets
    }

    /// Split borrow for training: mutable step-nets alongside the shared
    /// scaler, so the trainer can standardize features while updating weights
    /// without cloning the scaler.
    pub fn nets_and_scaler_mut(&mut self) -> (&mut [Mlp], &Scaler) {
        (&mut self.nets, &self.scaler)
    }

    pub fn nets(&self) -> &[Mlp] {
        &self.nets
    }

    /// Whether every weight and bias in every step-net is finite.  The
    /// nightly retrain validation gate rejects a candidate that fails this
    /// before it can reach the serving path.
    pub fn weights_finite(&self) -> bool {
        self.nets.iter().all(|net| {
            net.layers().iter().all(|l| {
                l.w.data().iter().all(|w| w.is_finite()) && l.b.iter().all(|b| b.is_finite())
            })
        })
    }

    /// Raw (unscaled) feature vector for a prediction, into a reusable
    /// buffer (cleared first).
    ///
    /// `history` is oldest-first and zero-padded on the left when shorter
    /// than `history_len` — the same convention at training and serving time.
    // lint: alloc-free — pushes refill the caller's reused feature buffer (cleared, never shrunk); capacity is steady after the first call
    pub fn raw_features_into(
        &self,
        history: &[ChunkRecord],
        tcp_info: &TcpInfo,
        proposed_size: f64,
        f: &mut Vec<f32>,
    ) {
        let h = self.config.history_len;
        f.clear();
        let pad = h.saturating_sub(history.len());
        let recent = || history.iter().skip(history.len().saturating_sub(h));
        // Left-pad each block with zeros when the history is short.
        f.resize(pad, 0.0);
        f.extend(recent().map(|r| r.size as f32));
        f.resize(h + pad, 0.0);
        f.extend(recent().map(|r| r.transmission_time as f32));
        if self.config.use_tcp_info {
            f.push(tcp_info.cwnd as f32);
            f.push(tcp_info.in_flight as f32);
            f.push(tcp_info.min_rtt as f32);
            f.push(tcp_info.rtt as f32);
            f.push(tcp_info.delivery_rate as f32);
        }
        if self.config.target == PredictionTarget::TransmissionTime {
            f.push(proposed_size as f32);
        }
        debug_assert_eq!(f.len(), self.config.n_features());
    }

    /// Score `n` raw feature rows at lookahead `step` (0 = the chunk about
    /// to be sent): `raw_row(i, buf)` writes row `i`'s raw features into
    /// `buf`, and `f(i, probs)` receives its output distribution, over
    /// throughput bins for the throughput target, in row order.  Rows are
    /// standardized into blocks of [`SCORE_BLOCK`], one forward pass and
    /// softmax per block; both are row-wise, so no row's value depends on
    /// the block it lands in.
    // lint: panic-free — `step` is below the horizon: the batched entry point asserts it, and evaluation scores step 0
    // lint: alloc-free — the input block and raw row grow once to their steady shapes; warm calls are allocation-free per tests/alloc_gate.rs
    pub(crate) fn score_rows(
        &self,
        step: usize,
        n: usize,
        mut raw_row: impl FnMut(usize, &mut Vec<f32>),
        scratch: &mut TtpScratch,
        mut f: impl FnMut(usize, &[f32]),
    ) {
        let net = &self.nets[step];
        for start in (0..n).step_by(SCORE_BLOCK) {
            let rows = start..n.min(start + SCORE_BLOCK);
            scratch.features.resize(rows.len(), net.input_dim());
            for (r, i) in rows.clone().enumerate() {
                raw_row(i, &mut scratch.raw);
                self.scaler.transform_into(&scratch.raw, scratch.features.row_mut(r));
            }
            let probs = net.forward_into(&scratch.features, &mut scratch.mlp);
            loss::softmax_rows_inplace(probs);
            for (r, i) in rows.enumerate() {
                f(i, probs.row(r));
            }
        }
    }

    /// Probability distribution over *transmission-time* bins for sending a
    /// chunk of `proposed_size` at lookahead `step` — a one-size, one-query
    /// call of [`Ttp::predict_time_distributions_batched_into`], uniform
    /// across targets.
    pub fn predict_time_distribution(
        &self,
        step: usize,
        history: &[ChunkRecord],
        tcp_info: &TcpInfo,
        proposed_size: f64,
    ) -> Vec<f64> {
        let query = TtpBatchQuery { history, tcp_info, proposed_sizes: &[proposed_size] };
        let mut out = vec![0.0f64; N_BINS];
        self.predict_time_distributions_batched_into(
            step,
            &[query],
            &mut TtpScratch::new(),
            &mut out,
        );
        out
    }

    /// Probability distributions over *transmission-time* bins for every
    /// query's candidate sizes at lookahead `step` — the TTP's one inference
    /// entry point.  One forward pass per call covers every query's rungs (a
    /// controller's ladder, or a whole wave of concurrent streams).  Rows are
    /// written to `out` contiguously in query order — query `q`'s rung `r`
    /// lands at flat row `Σ_{i<q} sizes_i.len() + r` — and every row is
    /// **bit-identical** to what that query would produce in a batch of its
    /// own:
    ///
    /// * each query's first-layer rows are staged by
    ///   [`Mlp::first_layer_shared_last_rows`]: the shared feature prefix is
    ///   accumulated once and each rung adds its own proposed-size term, the
    ///   same op sequence as the full matmul on the materialized row (the
    ///   last feature is its final accumulation step);
    /// * bias, activation, the tail matmuls, and the softmax are all
    ///   row-wise independent with a fixed per-element operation order, so
    ///   batch size cannot change any row's value
    ///   ([`Mlp::forward_staged_into`], `docs/BATCHING.md`).
    ///
    /// Zero heap operations once `scratch` has grown to the steady-state
    /// batch shape (pinned by `tests/alloc_gate.rs`).
    // lint-root: panic-free, alloc-free
    // lint: panic-free — entry asserts pin per-query dims; batch row offsets are multiples of the asserted strides
    // lint: alloc-free — the scratch buffers grow once to the max batch shape; warm calls are allocation-free per tests/alloc_gate.rs
    pub fn predict_time_distributions_batched_into(
        &self,
        step: usize,
        queries: &[TtpBatchQuery<'_>],
        scratch: &mut TtpScratch,
        out: &mut [f64],
    ) {
        assert!(step < self.config.horizon, "step {step} beyond horizon");
        assert!(!queries.is_empty());
        let total: usize = queries.iter().map(|q| q.proposed_sizes.len()).sum();
        assert!(queries.iter().all(|q| !q.proposed_sizes.is_empty()));
        assert_eq!(out.len(), total * N_BINS, "output buffer shape mismatch");
        match self.config.target {
            PredictionTarget::TransmissionTime => {
                let f = self.config.n_features();
                scratch.scaled.resize(f, 0.0);
                let net = &self.nets[step];
                let (mean, std) = (self.scaler.mean()[f - 1], self.scaler.std()[f - 1]);
                let staged = scratch.mlp.staged_rows_mut(total, net.layers()[0].out_dim());
                let mut row0 = 0;
                for q in queries {
                    self.raw_features_into(
                        q.history,
                        q.tcp_info,
                        q.proposed_sizes[0],
                        &mut scratch.raw,
                    );
                    self.scaler.transform_into(&scratch.raw, &mut scratch.scaled);
                    scratch.lasts.clear();
                    scratch.lasts.extend(q.proposed_sizes.iter().map(|&s| (s as f32 - mean) / std));
                    net.first_layer_shared_last_rows(
                        &scratch.scaled[..f - 1],
                        &scratch.lasts,
                        &mut scratch.partial,
                        staged,
                        row0,
                    );
                    row0 += q.proposed_sizes.len();
                }
                let logits = net.forward_staged_into(&mut scratch.mlp);
                loss::softmax_rows_inplace(logits);
                for (o, &p) in out.iter_mut().zip(logits.data()) {
                    *o = f64::from(p);
                }
            }
            PredictionTarget::Throughput => {
                // The throughput net ignores the proposed size, so one row
                // per *query* suffices; each query's row is then re-binned
                // once per rung (each throughput bin implies a time).
                out.fill(0.0);
                let mut rows = out.chunks_exact_mut(N_BINS);
                self.score_rows(
                    step,
                    queries.len(),
                    |i, raw| {
                        let q = &queries[i];
                        self.raw_features_into(q.history, q.tcp_info, q.proposed_sizes[0], raw);
                    },
                    scratch,
                    |i, probs| {
                        for (&size, time_row) in queries[i].proposed_sizes.iter().zip(&mut rows) {
                            rebin_throughput_to_time(probs, size, time_row);
                        }
                    },
                );
            }
        }
    }

    /// Expected transmission time under the predicted distribution.
    pub fn expected_time(
        &self,
        step: usize,
        history: &[ChunkRecord],
        tcp_info: &TcpInfo,
        proposed_size: f64,
    ) -> f64 {
        self.predict_time_distribution(step, history, tcp_info, proposed_size)
            .iter()
            .enumerate()
            .map(|(b, &p)| p * bins::bin_midpoint(b))
            .sum()
    }

    /// The training target bin for an observed transfer, per the configured
    /// prediction target.
    pub fn target_bin(&self, size: f64, transmission_time: f64) -> usize {
        match self.config.target {
            PredictionTarget::TransmissionTime => bins::bin_index(transmission_time),
            PredictionTarget::Throughput => throughput_bin_index(size / transmission_time),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn tcp() -> TcpInfo {
        TcpInfo { cwnd: 20.0, in_flight: 5.0, min_rtt: 0.04, rtt: 0.05, delivery_rate: 500_000.0 }
    }

    fn raw_features(ttp: &Ttp, history: &[ChunkRecord], info: &TcpInfo, size: f64) -> Vec<f32> {
        let mut f = Vec::new();
        ttp.raw_features_into(history, info, size, &mut f);
        f
    }

    /// The naive per-row reference for the staged batch and the block scorer:
    /// standardize one raw row, a one-row forward pass, softmax.
    pub(crate) fn naive_probs(ttp: &Ttp, step: usize, raw: &[f32]) -> Vec<f32> {
        let (mut x, mut scratch) = (Matrix::zeros(1, raw.len()), MlpScratch::new());
        ttp.scaler().transform_into(raw, x.row_mut(0));
        let logits = ttp.nets()[step].forward_into(&x, &mut scratch);
        loss::softmax_rows_inplace(logits);
        logits.row(0).to_vec()
    }

    fn history(n: usize) -> Vec<ChunkRecord> {
        (0..n)
            .map(|i| ChunkRecord { size: 400_000.0 + 10_000.0 * i as f64, transmission_time: 0.8 })
            .collect()
    }

    #[test]
    fn default_config_matches_paper() {
        let c = TtpConfig::default();
        assert_eq!(c.horizon, 5);
        assert_eq!(c.history_len, 8);
        assert_eq!(c.hidden, vec![64, 64]);
        assert!(c.use_tcp_info);
        // 8 sizes + 8 times + 5 tcp stats + proposed size = 22.
        assert_eq!(c.n_features(), 22);
    }

    #[test]
    fn ablation_feature_counts() {
        let no_tcp = TtpConfig { use_tcp_info: false, ..TtpConfig::default() };
        assert_eq!(no_tcp.n_features(), 17);
        let tput = TtpConfig { target: PredictionTarget::Throughput, ..TtpConfig::default() };
        assert_eq!(tput.n_features(), 21, "throughput ablation drops the proposed size");
        let linear = TtpConfig { hidden: vec![], ..TtpConfig::default() };
        assert_eq!(linear.n_features(), 22);
    }

    #[test]
    fn linear_config_builds_single_layer_net() {
        let ttp = Ttp::new(TtpConfig { hidden: vec![], ..TtpConfig::default() }, 1);
        assert_eq!(ttp.nets()[0].layers().len(), 1);
    }

    #[test]
    fn feature_padding_on_short_history() {
        let ttp = Ttp::new(TtpConfig::default(), 2);
        let f = raw_features(&ttp, &history(3), &tcp(), 1_000_000.0);
        assert_eq!(f.len(), 22);
        // First five size slots and first five time slots are zero.
        for k in 0..5 {
            assert_eq!(f[k], 0.0, "size pad {k}");
            assert_eq!(f[8 + k], 0.0, "time pad {k}");
        }
        assert!(f[5] > 0.0);
        // Proposed size is last.
        assert_eq!(f[21], 1_000_000.0);
    }

    #[test]
    fn long_history_is_truncated_to_last_eight() {
        let ttp = Ttp::new(TtpConfig::default(), 3);
        let h = history(20);
        let f = raw_features(&ttp, &h, &tcp(), 500_000.0);
        // First size slot should be h[12].size (the 8th-from-last).
        assert_eq!(f[0], h[12].size as f32);
    }

    #[test]
    fn distributions_are_normalized() {
        let ttp = Ttp::new(TtpConfig::default(), 4);
        for step in 0..5 {
            let d = ttp.predict_time_distribution(step, &history(8), &tcp(), 800_000.0);
            assert_eq!(d.len(), N_BINS);
            let s: f64 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "step {step} sums to {s}");
            assert!(d.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn throughput_variant_rebins_to_time() {
        let ttp =
            Ttp::new(TtpConfig { target: PredictionTarget::Throughput, ..TtpConfig::default() }, 5);
        let d = ttp.predict_time_distribution(0, &history(8), &tcp(), 800_000.0);
        let s: f64 = d.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        // Bigger proposed chunks shift probability mass toward longer bins.
        let small = ttp.expected_time(0, &history(8), &tcp(), 50_000.0);
        let big = ttp.expected_time(0, &history(8), &tcp(), 8_000_000.0);
        assert!(big > small, "throughput model must still scale time with size via re-binning");
    }

    #[test]
    fn throughput_bins_roundtrip() {
        for b in 0..N_BINS {
            assert_eq!(throughput_bin_index(throughput_bin_center(b)), b);
        }
        assert_eq!(throughput_bin_index(1.0), 0);
        assert_eq!(throughput_bin_index(1e12), N_BINS - 1);
    }

    #[test]
    fn throughput_bin_index_is_total_on_degenerate_input() {
        // Degenerate observed transfers (zero duration, zero size, clock
        // skew) must clamp instead of panicking mid-retrain.
        assert_eq!(throughput_bin_index(0.0), 0);
        assert_eq!(throughput_bin_index(-5_000.0), 0);
        assert_eq!(throughput_bin_index(f64::NAN), 0);
        assert_eq!(throughput_bin_index(f64::NEG_INFINITY), 0);
        assert_eq!(throughput_bin_index(f64::INFINITY), N_BINS - 1);
        assert_eq!(throughput_bin_index(f64::MIN_POSITIVE), 0);
        assert_eq!(throughput_bin_index(f64::MAX), N_BINS - 1);
    }

    #[test]
    fn target_bin_handles_zero_duration_transfer() {
        let tput_ttp =
            Ttp::new(TtpConfig { target: PredictionTarget::Throughput, ..TtpConfig::default() }, 7);
        // size / 0.0 = +inf throughput: the fastest bin, not a panic.
        assert_eq!(tput_ttp.target_bin(1_000_000.0, 0.0), N_BINS - 1);
        // 0-byte "transfer" with zero duration: 0/0 = NaN clamps low.
        assert_eq!(tput_ttp.target_bin(0.0, 0.0), 0);
    }

    /// Every query's sizes at `step` as one batch through a fresh scratch.
    fn predict_batch(ttp: &Ttp, step: usize, queries: &[TtpBatchQuery<'_>]) -> Vec<f64> {
        let rows: usize = queries.iter().map(|q| q.proposed_sizes.len()).sum();
        let mut out = vec![0.0f64; rows * N_BINS];
        ttp.predict_time_distributions_batched_into(
            step,
            queries,
            &mut TtpScratch::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn rungs_of_one_query_match_single_size_queries() {
        let sizes: Vec<f64> = (1..=10).map(|r| 120_000.0 * r as f64).collect();
        let (h, info) = (history(8), tcp());
        for (seed, target) in
            [(11, PredictionTarget::TransmissionTime), (12, PredictionTarget::Throughput)]
        {
            let ttp = Ttp::new(TtpConfig { target, ..TtpConfig::default() }, seed);
            let mut scratch = TtpScratch::new();
            let mut flat = vec![0.0f64; sizes.len() * N_BINS];
            // Reuse the same scratch across steps.
            for step in 0..ttp.horizon() {
                let q = TtpBatchQuery { history: &h, tcp_info: &info, proposed_sizes: &sizes };
                ttp.predict_time_distributions_batched_into(step, &[q], &mut scratch, &mut flat);
                for (r, &size) in sizes.iter().enumerate() {
                    let row = &flat[r * N_BINS..(r + 1) * N_BINS];
                    let one = ttp.predict_time_distribution(step, &h, &info, size);
                    assert_eq!(row, one, "step {step} rung {r}");
                    // Pin against the naive per-size path; the throughput
                    // net's bins are re-binned into time bins for the size.
                    let naive = naive_probs(&ttp, step, &raw_features(&ttp, &h, &info, size));
                    let want: Vec<f64> = match target {
                        PredictionTarget::TransmissionTime => {
                            naive.iter().map(|&p| f64::from(p)).collect()
                        }
                        PredictionTarget::Throughput => {
                            let mut time_row = vec![0.0f64; N_BINS];
                            rebin_throughput_to_time(&naive, size, &mut time_row);
                            time_row
                        }
                    };
                    assert_eq!(row, want, "naive path step {step} rung {r}");
                }
            }
        }
    }

    #[test]
    fn cross_stream_batched_matches_independent_queries() {
        // The batching contract: one batched call over N streams' queries is
        // bit-identical to N one-query batches, for both targets and ragged
        // per-query rung counts.
        for (seed, target) in
            [(21, PredictionTarget::TransmissionTime), (22, PredictionTarget::Throughput)]
        {
            let ttp = Ttp::new(TtpConfig { target, ..TtpConfig::default() }, seed);
            let histories: Vec<Vec<ChunkRecord>> = (0..4).map(|i| history(2 + 3 * i)).collect();
            let infos: Vec<TcpInfo> = (0..4)
                .map(|i| TcpInfo { delivery_rate: 200_000.0 * (i + 1) as f64, ..tcp() })
                .collect();
            let sizes: Vec<Vec<f64>> =
                (0..4).map(|i| (0..=i).map(|r| 90_000.0 * (r + i + 1) as f64).collect()).collect();
            let queries: Vec<TtpBatchQuery> = (0..4)
                .map(|i| TtpBatchQuery {
                    history: &histories[i],
                    tcp_info: &infos[i],
                    proposed_sizes: &sizes[i],
                })
                .collect();
            let total: usize = sizes.iter().map(Vec::len).sum();
            let mut batched = vec![0.0f64; total * N_BINS];
            let mut scratch = TtpScratch::new();
            for step in 0..ttp.horizon() {
                ttp.predict_time_distributions_batched_into(
                    step,
                    &queries,
                    &mut scratch,
                    &mut batched,
                );
                let mut row0 = 0;
                for (i, q) in queries.iter().enumerate() {
                    let single = predict_batch(&ttp, step, std::slice::from_ref(q));
                    assert_eq!(
                        single[..],
                        batched[row0 * N_BINS..(row0 + q.proposed_sizes.len()) * N_BINS],
                        "step {step} query {i}"
                    );
                    row0 += q.proposed_sizes.len();
                }
            }
        }
    }

    #[test]
    fn throughput_rebinning_is_total_on_degenerate_sizes() {
        // A menu carrying a NaN, infinite, or negative size must clamp into
        // the edge time bins, not panic mid-plan; mass is conserved per row.
        let ttp =
            Ttp::new(TtpConfig { target: PredictionTarget::Throughput, ..TtpConfig::default() }, 9);
        let sizes = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0e9,
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            800_000.0,
        ];
        let (h, info) = (history(8), tcp());
        let q = TtpBatchQuery { history: &h, tcp_info: &info, proposed_sizes: &sizes };
        let out = predict_batch(&ttp, 0, &[q]);
        for (r, row) in out.chunks(N_BINS).enumerate() {
            let mass: f64 = row.iter().sum();
            assert!((mass - 1.0).abs() < 1e-5, "row {r} mass {mass}");
        }
        // NaN times clamp low; +inf sizes clamp to the slowest bin.
        assert!((out[0] - 1.0).abs() < 1e-5, "NaN size concentrates in bin 0");
        assert!((out[N_BINS + N_BINS - 1] - 1.0).abs() < 1e-5, "inf size in last bin");
    }

    #[test]
    fn target_bin_respects_variant() {
        let time_ttp = Ttp::new(TtpConfig::default(), 6);
        assert_eq!(time_ttp.target_bin(1_000_000.0, 1.0), crate::bins::bin_index(1.0));
        let tput_ttp =
            Ttp::new(TtpConfig { target: PredictionTarget::Throughput, ..TtpConfig::default() }, 7);
        assert_eq!(tput_ttp.target_bin(1_000_000.0, 1.0), throughput_bin_index(1_000_000.0));
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn step_beyond_horizon_panics() {
        let ttp = Ttp::new(TtpConfig::default(), 10);
        let _ = ttp.predict_time_distribution(5, &history(8), &tcp(), 1.0);
    }
}
