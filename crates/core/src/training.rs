//! Supervised training of the TTP (§4.3).
//!
//! "We train the TTP on D with standard supervised learning: the training
//! minimizes the cross-entropy loss between the output probability
//! distribution and the discretized actual transmission time using stochastic
//! gradient descent.  We retrain the TTP every day, using training data
//! collected on Puffer over the prior 14 days ... we weight more recent days
//! more heavily, and we shuffle the sampled data ... The weights from the
//! previous day's model are loaded to warm-start the retraining."
//!
//! [`train`] performs one (re)training pass; warm starting falls out of
//! mutating the caller's existing [`Ttp`] in place.  [`evaluate`] computes
//! the prediction-accuracy metrics the ablation study reports (Fig. 7).
//!
//! ## Determinism and parallelism
//!
//! The nightly retrain is part of the experiment's reproducible surface: a
//! replayed experiment must produce bit-identical models.  [`train`] therefore
//! derives one independent RNG stream per lookahead step — `horizon` seeds
//! drawn from the caller's RNG in fixed step order — and each step-net trains
//! entirely from its own stream.  Since the five step-nets share no mutable
//! state, they train on scoped worker threads ([`TrainConfig::threads`]; one
//! worker takes every step in order) with results reduced in fixed step
//! order, and the retrained model is bit-identical at any thread count.
//!
//! The per-minibatch path is allocation-free in steady state: each worker owns
//! a [`TrainScratch`] whose buffers (scaled-feature matrix, minibatch gather
//! buffers, per-layer activations, logit gradients, backprop ping/pong) are
//! resized in place and reused across batches, epochs, and steps.
//! The naive allocating sequential trainer is kept beside the tests as the
//! pinned equivalence oracle for both properties.

use crate::dataset::{Dataset, Sample};
use crate::ttp::{Ttp, TtpScratch};
use puffer_nn::{loss, optim::Sgd, BackwardScratch, Matrix, Scaler, TrainCache};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// SGD learning rate.
const LR: f32 = 0.01;

/// SGD momentum.
const MOMENTUM: f32 = 0.9;

/// Minibatch size.
const BATCH_SIZE: usize = 64;

/// Recency half-life in days for sample weights: "we weight more recent
/// days more heavily" (§4.3).
const RECENCY_HALF_LIFE: f64 = 4.0;

/// The size of one retraining pass.  Every pass refits the input scaler on
/// its window's step-0 features.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Passes over the window's samples.
    pub epochs: usize,
    /// Sliding window length in days (paper: 14).
    pub window_days: u32,
    /// Cap on samples per step (subsampled uniformly) to bound retrain cost.
    pub max_samples_per_step: usize,
    /// Worker threads for the per-step fan-out (0 = all available cores).
    /// The trained model is bit-identical at any value.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 3, window_days: 14, max_samples_per_step: 200_000, threads: 0 }
    }
}

/// Per-worker reusable buffers for the minibatch training loop.
///
/// One scratch serves any number of step-nets sequentially: every buffer is
/// resized in place, so after the first batch of steady-state shape the
/// entire `gather → forward → loss → backward → step` cycle performs no heap
/// allocations.  Parallel training gives each worker thread its own scratch.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    /// Standardized features of the current step's full sample set
    /// (`n_samples × n_features`).
    scaled: Matrix,
    /// Sample visit order, reshuffled every epoch (§4.3).
    order: Vec<usize>,
    /// Minibatch gather buffer: target bins.
    targets: Vec<usize>,
    /// Minibatch gather buffer: recency weights.
    weights: Vec<f32>,
    /// Per-layer activations of the forward pass (input gathered in place).
    cache: TrainCache,
    /// Gradient of the loss w.r.t. the logits.
    dlogits: Matrix,
    /// Backprop ping/pong gradient buffers.
    backward: BackwardScratch,
}

impl TrainScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// What a training pass saw and achieved.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Samples used per lookahead step.
    pub samples_per_step: Vec<usize>,
    /// Final-epoch mean cross-entropy per step (nats).
    pub final_ce_per_step: Vec<f32>,
}

impl TrainReport {
    /// Mean cross-entropy across steps.
    pub fn mean_ce(&self) -> f32 {
        if self.final_ce_per_step.is_empty() {
            return f32::NAN;
        }
        self.final_ce_per_step.iter().sum::<f32>() / self.final_ce_per_step.len() as f32
    }
}

/// One seed per lookahead step, drawn from the caller's RNG in fixed step
/// order.  [`train`] and the reference trainer in the tests consume the
/// caller's RNG identically (exactly `horizon` draws), so the two — and any
/// thread count — stay interchangeable mid-experiment.
fn per_step_seeds<R: Rng + ?Sized>(horizon: usize, rng: &mut R) -> Vec<u64> {
    (0..horizon).map(|_| rng.random::<u64>()).collect()
}

/// Resolve [`TrainConfig::threads`]: 0 means all available cores, and more
/// workers than step-nets is pointless.
fn effective_threads(requested: usize, horizon: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    t.clamp(1, horizon.max(1))
}

/// Train one step-net on its sample set using `scratch`'s reusable buffers;
/// returns the final-epoch mean cross-entropy.
///
/// Allocation-free once the scratch has grown to steady-state shape, except
/// for the fresh [`Sgd`] whose velocity buffers are allocated lazily on the
/// first optimizer step of each call — so the *per-epoch* allocation count
/// is exactly zero, which `tests/alloc_gate.rs` asserts by differencing two
/// warmed calls that differ only in epoch count.  Public primarily for that
/// gate; [`train`] is the intended entry point.
// lint-root: panic-free, alloc-free
// lint: panic-free — shuffle/batch indices are ranges over the dataset length computed in the same loop
// lint: alloc-free — scratch and shuffle buffers grow once; the per-epoch allocation delta is asserted zero by tests/alloc_gate.rs
pub fn train_one_net(
    net: &mut puffer_nn::Mlp,
    scaler: &Scaler,
    samples: &[Sample],
    cfg: &TrainConfig,
    rng: &mut StdRng,
    scratch: &mut TrainScratch,
) -> f32 {
    let f = net.input_dim();
    let n = samples.len();
    // Pre-scale features once per step.
    scratch.scaled.resize(n, f);
    for (i, s) in samples.iter().enumerate() {
        scaler.transform_into(&s.features, scratch.scaled.row_mut(i));
    }
    scratch.order.clear();
    scratch.order.extend(0..n);
    let mut opt = Sgd::new(LR, MOMENTUM);
    let mut last_epoch_ce = 0.0f64;
    for epoch in 0..cfg.epochs {
        // "we shuffle the sampled data to remove correlation in the
        // sequence of inputs" (§4.3).
        scratch.order.shuffle(rng);
        let mut epoch_ce = 0.0f64;
        let mut batches = 0usize;
        for batch in scratch.order.chunks(BATCH_SIZE) {
            let x = scratch.cache.input_mut(batch.len(), f);
            for (r, &i) in batch.iter().enumerate() {
                x.row_mut(r).copy_from_slice(scratch.scaled.row(i));
            }
            scratch.targets.clear();
            scratch.targets.extend(batch.iter().map(|&i| samples[i].target));
            scratch.weights.clear();
            scratch.weights.extend(batch.iter().map(|&i| samples[i].weight));
            net.forward_train(&mut scratch.cache);
            let ce = loss::softmax_cross_entropy_into(
                scratch.cache.logits(),
                &scratch.targets,
                Some(&scratch.weights),
                &mut scratch.dlogits,
            );
            net.zero_grad();
            net.backward_into(&scratch.cache, &scratch.dlogits, &mut scratch.backward);
            net.clip_grad_norm(5.0);
            net.step(&mut opt);
            epoch_ce += f64::from(ce);
            batches += 1;
        }
        if epoch == cfg.epochs - 1 {
            last_epoch_ce = epoch_ce / batches.max(1) as f64;
        }
    }
    last_epoch_ce as f32
}

/// Retrain `ttp` in place on the dataset window ending at `current_day`.
///
/// Returns `None` when the window holds no samples (nothing to train on).
///
/// The per-step nets are independent, so both phases — sample building and
/// SGD — fan out over [`TrainConfig::threads`] scoped worker threads, each
/// step driven by its own RNG stream and each worker owning one
/// [`TrainScratch`].  Steps are partitioned into contiguous chunks and
/// results reduced in fixed step order, making the retrained model
/// bit-identical to the naive sequential reference trainer (pinned in the
/// tests) at any thread count.
pub fn train<R: Rng + ?Sized>(
    ttp: &mut Ttp,
    data: &Dataset,
    current_day: u32,
    cfg: &TrainConfig,
    rng: &mut R,
) -> Option<TrainReport> {
    let horizon = ttp.horizon();
    let seeds = per_step_seeds(horizon, rng);
    let threads = effective_threads(cfg.threads, horizon);
    let chunk = horizon.div_ceil(threads);

    // Phase 1: materialize per-step samples, subsampled from each step's own
    // RNG stream; the stream carries over into that step's SGD shuffles.
    let ttp_ref: &Ttp = ttp;
    let build_step = |step: usize| -> (Vec<Sample>, StdRng) {
        let mut srng = StdRng::seed_from_u64(seeds[step]);
        let mut s =
            data.build_samples(ttp_ref, step, current_day, cfg.window_days, RECENCY_HALF_LIFE);
        if s.len() > cfg.max_samples_per_step {
            s.shuffle(&mut srng);
            s.truncate(cfg.max_samples_per_step);
        }
        (s, srng)
    };
    let build_step = &build_step;
    let mut per_step: Vec<(Vec<Sample>, StdRng)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..horizon)
            .step_by(chunk)
            .map(|first| {
                let steps = first..(first + chunk).min(horizon);
                scope.spawn(move || steps.map(build_step).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sample builder panicked")).collect()
    });
    if per_step[0].0.is_empty() {
        return None;
    }

    // Fit on step-0 features (all steps share the feature layout).
    ttp.set_scaler(Scaler::fit_from(per_step[0].0.iter().map(|s| s.features.as_slice())));

    // Phase 2: train each step-net from its own stream; workers take
    // contiguous chunks of steps and results are concatenated in step order.
    let (nets, scaler) = ttp.nets_and_scaler_mut();
    let run_step = |net: &mut puffer_nn::Mlp,
                    state: &mut (Vec<Sample>, StdRng),
                    scratch: &mut TrainScratch|
     -> (usize, f32) {
        let (samples, srng) = state;
        if samples.is_empty() {
            return (0, f32::NAN);
        }
        (samples.len(), train_one_net(net, scaler, samples, cfg, srng, scratch))
    };
    let run_step = &run_step;
    let results: Vec<(usize, f32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = nets
            .chunks_mut(chunk)
            .zip(per_step.chunks_mut(chunk))
            .map(|(net_chunk, state_chunk)| {
                scope.spawn(move || {
                    let mut scratch = TrainScratch::new();
                    net_chunk
                        .iter_mut()
                        .zip(state_chunk.iter_mut())
                        .map(|(net, state)| run_step(net, state, &mut scratch))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("step trainer panicked")).collect()
    });
    let (samples_per_step, final_ce_per_step) = results.into_iter().unzip();
    Some(TrainReport { samples_per_step, final_ce_per_step })
}

/// Prediction-quality metrics on held-out data (the quantities compared in
/// the Fig. 7 ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Mean cross-entropy over step-0 samples (nats; lower is better).
    pub cross_entropy: f32,
    /// Mean probability assigned to the correct bin ("expected accuracy",
    /// §4.6; higher is better).
    pub expected_accuracy: f32,
    /// Fraction of samples whose argmax bin is correct ("maximum likelihood"
    /// accuracy; higher is better).
    pub argmax_accuracy: f32,
    /// Samples evaluated.
    pub n: usize,
}

/// Evaluate step-0 prediction quality on a dataset window.
pub fn evaluate(ttp: &Ttp, data: &Dataset, current_day: u32, window_days: u32) -> EvalReport {
    let samples = data.build_samples(ttp, 0, current_day, window_days, f64::INFINITY);
    assert!(!samples.is_empty(), "cannot evaluate on an empty window");
    let mut ce = 0.0f64;
    let mut expected = 0.0f64;
    let mut correct = 0usize;
    let raw_row = |i: usize, raw: &mut Vec<f32>| raw.clone_from(&samples[i].features);
    ttp.score_rows(0, samples.len(), raw_row, &mut TtpScratch::new(), |i, probs| {
        let target = samples[i].target;
        let p_true = f64::from(probs[target]).max(1e-12);
        ce += -p_true.ln();
        expected += p_true;
        if loss::argmax(probs) == target {
            correct += 1;
        }
    });
    let n = samples.len();
    EvalReport {
        cross_entropy: (ce / n as f64) as f32,
        expected_accuracy: (expected / n as f64) as f32,
        argmax_accuracy: correct as f32 / n as f32,
        n,
    }
}

/// Acceptance thresholds for a retrained candidate (the stability check a
/// learned policy must pass before it serves traffic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainGate {
    /// Maximum allowed ratio of candidate holdout cross-entropy to the
    /// incumbent's.  A diverged retrain blows far past this; a normal one
    /// lands at or below 1.0 (it just trained on this window).
    pub max_ce_ratio: f32,
    /// Additive slack on the ratio bound, so a near-zero incumbent CE cannot
    /// make the gate impossibly tight.
    pub ce_slack: f32,
}

impl Default for RetrainGate {
    fn default() -> Self {
        RetrainGate { max_ce_ratio: 2.0, ce_slack: 0.05 }
    }
}

/// Outcome of [`validate_retrained`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateVerdict {
    /// The candidate may be swapped into the serving path.
    Pass,
    /// The candidate carries NaN/Inf weights.
    NonFiniteWeights,
    /// The candidate's holdout cross-entropy regressed past the gate bound.
    HoldoutRegression {
        /// Candidate's mean step-0 cross-entropy on the holdout window.
        candidate_ce: f32,
        /// Incumbent's mean step-0 cross-entropy on the same window.
        incumbent_ce: f32,
    },
}

impl GateVerdict {
    /// Whether the candidate passed.
    pub fn passed(&self) -> bool {
        matches!(self, GateVerdict::Pass)
    }

    /// Compact numeric code for incident records: 0 = pass, 1 = non-finite
    /// weights, 2 = holdout regression.
    pub fn code(&self) -> u8 {
        match self {
            GateVerdict::Pass => 0,
            GateVerdict::NonFiniteWeights => 1,
            GateVerdict::HoldoutRegression { .. } => 2,
        }
    }
}

/// Mean step-0 cross-entropy of `ttp` over pre-built samples, one `f64`
/// sum in sample order.  NaN model outputs map to the 1e-12 probability
/// floor, so a numerically broken model scores a huge *finite* CE rather
/// than poisoning the comparison.
fn holdout_ce(ttp: &Ttp, samples: &[Sample]) -> f32 {
    let mut ce = 0.0f64;
    let raw_row = |i: usize, raw: &mut Vec<f32>| raw.clone_from(&samples[i].features);
    ttp.score_rows(0, samples.len(), raw_row, &mut TtpScratch::new(), |i, probs| {
        ce += -f64::from(probs[samples[i].target]).max(1e-12).ln();
    });
    (ce / samples.len() as f64) as f32
}

/// Validation gate between the nightly retrain and the serving Arc swap:
/// reject any candidate with non-finite weights, then require its holdout
/// cross-entropy to stay within `gate`'s tolerance of the incumbent on the
/// same step-0 window the retrain drew from.
///
/// An empty window passes (there is nothing to compare on — the caller's
/// trainer would have skipped the retrain anyway), and the check consumes no
/// RNG, so gating a clean retrain leaves the run's outputs bit-identical.
pub fn validate_retrained(
    candidate: &Ttp,
    incumbent: &Ttp,
    data: &Dataset,
    current_day: u32,
    window_days: u32,
    gate: &RetrainGate,
) -> GateVerdict {
    if !candidate.weights_finite() {
        return GateVerdict::NonFiniteWeights;
    }
    let samples = data.build_samples(candidate, 0, current_day, window_days, f64::INFINITY);
    if samples.is_empty() {
        return GateVerdict::Pass;
    }
    let candidate_ce = holdout_ce(candidate, &samples);
    let incumbent_ce = holdout_ce(incumbent, &samples);
    let bound = incumbent_ce * gate.max_ce_ratio + gate.ce_slack;
    if candidate_ce.is_finite() && (!incumbent_ce.is_finite() || candidate_ce <= bound) {
        GateVerdict::Pass
    } else {
        GateVerdict::HoldoutRegression { candidate_ce, incumbent_ce }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ChunkObservation;
    use crate::ttp::TtpConfig;
    use puffer_abr::ChunkRecord;
    use puffer_net::TcpInfo;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// A world where transmission time is a clean function of delivery_rate:
    /// learnable signal for the TTP.
    fn synthetic_dataset(days: std::ops::RangeInclusive<u32>, streams_per_day: usize) -> Dataset {
        let mut d = Dataset::new();
        let mut r = rng(99);
        for day in days {
            for _ in 0..streams_per_day {
                // Per-stream rate regime.
                let rate = 100_000.0 + 900_000.0 * r.random::<f64>(); // B/s
                let stream: Vec<ChunkObservation> = (0..30)
                    .map(|_| {
                        let size = 100_000.0 + 1_400_000.0 * r.random::<f64>();
                        let time = size / rate + 0.05;
                        ChunkObservation {
                            size,
                            transmission_time: time,
                            tcp_info: TcpInfo {
                                cwnd: 20.0,
                                in_flight: 2.0,
                                min_rtt: 0.04,
                                rtt: 0.05,
                                delivery_rate: rate,
                            },
                        }
                    })
                    .collect();
                d.add_stream(day, stream);
            }
        }
        d
    }

    /// The naive allocating sequential trainer, pinned as the equivalence
    /// reference for [`train`]: per-batch row clones and fresh training
    /// buffers per batch, with the same per-step RNG streams as [`train`] so
    /// the two produce bit-identical models.
    fn train_reference<R: Rng + ?Sized>(
        ttp: &mut Ttp,
        data: &Dataset,
        current_day: u32,
        cfg: &TrainConfig,
        rng: &mut R,
    ) -> Option<TrainReport> {
        let seeds = per_step_seeds(ttp.horizon(), rng);
        let mut step_rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        // Materialize per-step samples.
        let mut per_step: Vec<Vec<Sample>> = (0..ttp.horizon())
            .map(|step| {
                let mut s =
                    data.build_samples(ttp, step, current_day, cfg.window_days, RECENCY_HALF_LIFE);
                if s.len() > cfg.max_samples_per_step {
                    s.shuffle(&mut step_rngs[step]);
                    s.truncate(cfg.max_samples_per_step);
                }
                s
            })
            .collect();
        if per_step[0].is_empty() {
            return None;
        }

        // Fit on step-0 features (all steps share the feature layout).
        let rows: Vec<Vec<f32>> = per_step[0].iter().map(|s| s.features.clone()).collect();
        ttp.set_scaler(Scaler::fit_from(rows.iter().map(Vec::as_slice)));
        let scaler = ttp.scaler().clone();

        let mut samples_per_step = Vec::with_capacity(ttp.horizon());
        let mut final_ce_per_step = Vec::with_capacity(ttp.horizon());
        for (step, samples) in per_step.iter_mut().enumerate() {
            samples_per_step.push(samples.len());
            if samples.is_empty() {
                final_ce_per_step.push(f32::NAN);
                continue;
            }
            // Pre-scale features once.
            let scaled: Vec<Vec<f32>> = samples
                .iter()
                .map(|s| {
                    let mut row = vec![0.0; s.features.len()];
                    scaler.transform_into(&s.features, &mut row);
                    row
                })
                .collect();
            let mut order: Vec<usize> = (0..samples.len()).collect();
            let mut opt = Sgd::new(LR, MOMENTUM);
            let mut last_epoch_ce = 0.0f64;
            for epoch in 0..cfg.epochs {
                // "we shuffle the sampled data to remove correlation in the
                // sequence of inputs" (§4.3).
                order.shuffle(&mut step_rngs[step]);
                let mut epoch_ce = 0.0f64;
                let mut batches = 0usize;
                for batch in order.chunks(BATCH_SIZE) {
                    let rows: Vec<f32> = batch.iter().flat_map(|&i| scaled[i].clone()).collect();
                    let targets: Vec<usize> = batch.iter().map(|&i| samples[i].target).collect();
                    let weights: Vec<f32> = batch.iter().map(|&i| samples[i].weight).collect();
                    let mut cache = TrainCache::new();
                    cache.input_mut(batch.len(), scaler.dim()).data_mut().copy_from_slice(&rows);
                    let net = &mut ttp.nets_mut()[step];
                    net.forward_train(&mut cache);
                    let mut dlogits = Matrix::default();
                    let ce = loss::softmax_cross_entropy_into(
                        cache.logits(),
                        &targets,
                        Some(&weights),
                        &mut dlogits,
                    );
                    net.zero_grad();
                    net.backward_into(&cache, &dlogits, &mut BackwardScratch::new());
                    net.clip_grad_norm(5.0);
                    net.step(&mut opt);
                    epoch_ce += f64::from(ce);
                    batches += 1;
                }
                if epoch == cfg.epochs - 1 {
                    last_epoch_ce = epoch_ce / batches.max(1) as f64;
                }
            }
            final_ce_per_step.push(last_epoch_ce as f32);
        }
        Some(TrainReport { samples_per_step, final_ce_per_step })
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig { epochs: 4, max_samples_per_step: 5_000, ..TrainConfig::default() }
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn training_reduces_cross_entropy_below_uniform() {
        let data = synthetic_dataset(1..=3, 20);
        let mut ttp = Ttp::new(TtpConfig::default(), 1);
        let before = evaluate(&ttp, &data, 3, 14);
        let report = train(&mut ttp, &data, 3, &quick_cfg(), &mut rng(1)).unwrap();
        let after = evaluate(&ttp, &data, 3, 14);
        let uniform_ce = (crate::bins::N_BINS as f32).ln();
        assert!(
            report.mean_ce() < uniform_ce,
            "train CE {} vs uniform {uniform_ce}",
            report.mean_ce()
        );
        assert!(after.cross_entropy < before.cross_entropy, "{after:?} vs {before:?}");
        assert!(after.cross_entropy < 0.8 * uniform_ce);
        assert!(after.expected_accuracy > before.expected_accuracy);
    }

    #[test]
    fn empty_window_returns_none() {
        let data = Dataset::new();
        let mut ttp = Ttp::new(TtpConfig::default(), 2);
        assert!(train(&mut ttp, &data, 5, &quick_cfg(), &mut rng(2)).is_none());
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn report_counts_match_window() {
        let data = synthetic_dataset(1..=2, 5);
        let mut ttp = Ttp::new(TtpConfig::default(), 3);
        let report = train(&mut ttp, &data, 2, &quick_cfg(), &mut rng(3)).unwrap();
        assert_eq!(report.samples_per_step.len(), 5);
        // Step 0: 10 streams × 30 chunks = 300 samples.
        assert_eq!(report.samples_per_step[0], 300);
        // Deeper steps lose `step` samples per stream.
        assert_eq!(report.samples_per_step[4], 300 - 4 * 10);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn warm_start_converges_faster_than_cold() {
        let data = synthetic_dataset(1..=3, 15);
        // Pre-train one TTP.
        let mut warm = Ttp::new(TtpConfig::default(), 4);
        let _ = train(&mut warm, &data, 3, &quick_cfg(), &mut rng(4)).unwrap();
        // One more *single-epoch* pass from warm vs from scratch.  Both refit
        // the scaler on the same window, so both train on the statistics the
        // warm model was fit with, and the comparison is fair.
        let one_epoch = TrainConfig { epochs: 1, ..quick_cfg() };
        let mut cold = Ttp::new(TtpConfig::default(), 5);
        let _ = train(&mut warm, &data, 3, &one_epoch, &mut rng(6)).unwrap();
        let _ = train(&mut cold, &data, 3, &one_epoch, &mut rng(6)).unwrap();
        let warm_eval = evaluate(&warm, &data, 3, 14);
        let cold_eval = evaluate(&cold, &data, 3, 14);
        assert!(
            warm_eval.cross_entropy < cold_eval.cross_entropy,
            "warm {warm_eval:?} vs cold {cold_eval:?}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn linear_ablation_trains_but_worse_than_dnn() {
        // §4.6: "A linear-regression model ... performs much worse on
        // prediction accuracy."  The advantage comes from nonlinearity; our
        // synthetic world has time ≈ size/rate, which is multiplicative and
        // not linearly representable.
        let data = synthetic_dataset(1..=3, 20);
        let cfg = quick_cfg();
        let mut dnn = Ttp::new(TtpConfig::default(), 6);
        let mut linear = Ttp::new(TtpConfig { hidden: vec![], ..TtpConfig::default() }, 7);
        train(&mut dnn, &data, 3, &cfg, &mut rng(8)).unwrap();
        train(&mut linear, &data, 3, &cfg, &mut rng(8)).unwrap();
        let dnn_eval = evaluate(&dnn, &data, 3, 14);
        let lin_eval = evaluate(&linear, &data, 3, 14);
        assert!(
            dnn_eval.cross_entropy < lin_eval.cross_entropy,
            "dnn {dnn_eval:?} vs linear {lin_eval:?}"
        );
    }

    /// Exact model fingerprint: the checkpoint text round-trips every weight
    /// and scaler statistic at full precision.
    fn fingerprint(ttp: &Ttp) -> String {
        crate::checkpoint::save_to_string(ttp)
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn scratch_trainer_matches_reference_bitwise() {
        let data = synthetic_dataset(1..=2, 8);
        // Subsampling must engage so the per-step streams' shuffle order is
        // exercised on both paths.
        let cfg = TrainConfig {
            epochs: 2,
            max_samples_per_step: 150,
            threads: 1,
            ..TrainConfig::default()
        };
        let mut scratch_ttp = Ttp::new(TtpConfig::default(), 11);
        let mut reference_ttp = scratch_ttp.clone();
        let a = train(&mut scratch_ttp, &data, 2, &cfg, &mut rng(13)).unwrap();
        let b = train_reference(&mut reference_ttp, &data, 2, &cfg, &mut rng(13)).unwrap();
        assert_eq!(a.samples_per_step, b.samples_per_step);
        assert_eq!(a.final_ce_per_step, b.final_ce_per_step);
        assert_eq!(fingerprint(&scratch_ttp), fingerprint(&reference_ttp));
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn parallel_training_is_bit_identical_across_thread_counts() {
        let data = synthetic_dataset(1..=2, 8);
        let base_cfg =
            TrainConfig { epochs: 2, max_samples_per_step: 150, ..TrainConfig::default() };
        let mut fingerprints = Vec::new();
        let mut reports = Vec::new();
        for threads in [1usize, 2, 5] {
            let cfg = TrainConfig { threads, ..base_cfg };
            let mut ttp = Ttp::new(TtpConfig::default(), 21);
            let report = train(&mut ttp, &data, 2, &cfg, &mut rng(22)).unwrap();
            fingerprints.push(fingerprint(&ttp));
            reports.push(report);
        }
        for (i, fp) in fingerprints.iter().enumerate().skip(1) {
            assert_eq!(fingerprints[0], *fp, "thread count diverged at index {i}");
            assert_eq!(reports[0].final_ce_per_step, reports[i].final_ce_per_step);
        }
        // Every one of the five step-nets actually trained.
        assert_eq!(reports[0].samples_per_step.len(), 5);
        assert!(reports[0].samples_per_step.iter().all(|&n| n > 0));
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn checkpoint_roundtrip_after_parallel_retrain() {
        let data = synthetic_dataset(1..=2, 8);
        let cfg = TrainConfig {
            epochs: 1,
            max_samples_per_step: 200,
            threads: 5,
            ..TrainConfig::default()
        };
        let mut ttp = Ttp::new(TtpConfig::default(), 31);
        train(&mut ttp, &data, 2, &cfg, &mut rng(32)).unwrap();
        let loaded = crate::checkpoint::load_from_str(&fingerprint(&ttp)).unwrap();
        // Bit-identical predictions from the reloaded model, on every step.
        let stream = data.streams().next().unwrap();
        let history: Vec<ChunkRecord> = stream[..8]
            .iter()
            .map(|o| ChunkRecord { size: o.size, transmission_time: o.transmission_time })
            .collect();
        let (info, size) = (stream[8].tcp_info, stream[8].size);
        for step in 0..ttp.horizon() {
            assert_eq!(
                ttp.predict_time_distribution(step, &history, &info, size),
                loaded.predict_time_distribution(step, &history, &info, size),
                "step {step} predictions diverged after save/load"
            );
        }
        assert_eq!(fingerprint(&ttp), fingerprint(&loaded));
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn caller_rng_consumption_is_identical_on_empty_and_full_windows() {
        // `train` must draw the same number of caller-RNG values no matter
        // how many threads run or whether it early-returns, so downstream
        // draws in an experiment replay stay aligned.
        let full = synthetic_dataset(1..=2, 4);
        let empty = Dataset::new();
        let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
        let mut r1 = rng(41);
        let mut r2 = rng(41);
        let mut r3 = rng(41);
        let mut ttp1 = Ttp::new(TtpConfig::default(), 42);
        let mut ttp2 = Ttp::new(TtpConfig::default(), 42);
        let mut ttp3 = Ttp::new(TtpConfig::default(), 42);
        assert!(train(&mut ttp1, &full, 2, &cfg, &mut r1).is_some());
        assert!(train(&mut ttp2, &empty, 2, &cfg, &mut r2).is_none());
        assert!(train_reference(&mut ttp3, &empty, 2, &cfg, &mut r3).is_none());
        // Draw each RNG exactly once: equal values mean equal consumption.
        let (a, b, c) = (r1.random::<u64>(), r2.random::<u64>(), r3.random::<u64>());
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn gate_rejects_non_finite_weights() {
        let data = synthetic_dataset(1..=1, 3);
        let incumbent = Ttp::new(TtpConfig::default(), 11);
        let mut candidate = Ttp::new(TtpConfig::default(), 11);
        candidate.nets_mut()[0].layers_mut()[0].w.data_mut()[0] = f32::NAN;
        assert!(!candidate.weights_finite());
        let verdict =
            validate_retrained(&candidate, &incumbent, &data, 1, 14, &RetrainGate::default());
        assert_eq!(verdict, GateVerdict::NonFiniteWeights);
        assert_eq!(verdict.code(), 1);
    }

    #[test]
    fn gate_rejects_exploding_holdout_loss() {
        let data = synthetic_dataset(1..=1, 3);
        // A freshly initialized net has an unfit scaler, so its raw-scale
        // inputs already saturate the softmax; zero the incumbent's output
        // layer to get the uniform predictor (CE = ln N_BINS), the worst any
        // *sane* incumbent can be.
        let mut incumbent = Ttp::new(TtpConfig::default(), 12);
        for net in incumbent.nets_mut() {
            let last = net.layers_mut().last_mut().unwrap();
            last.w.data_mut().fill(0.0);
            last.b.fill(0.0);
        }
        // Saturate every candidate step-net onto the last bin — finite
        // weights, but the holdout loss hits the probability floor on nearly
        // every sample (the same recipe as the fault harness's
        // ExplodingLoss).
        let mut candidate = Ttp::new(TtpConfig::default(), 12);
        for net in candidate.nets_mut() {
            let last = net.layers_mut().last_mut().unwrap();
            last.w.data_mut().fill(0.0);
            let n = last.b.len();
            for (i, b) in last.b.iter_mut().enumerate() {
                *b = if i + 1 == n { 50.0 } else { 0.0 };
            }
        }
        assert!(candidate.weights_finite(), "exploding candidate is still finite");
        let verdict =
            validate_retrained(&candidate, &incumbent, &data, 1, 14, &RetrainGate::default());
        assert!(
            matches!(verdict, GateVerdict::HoldoutRegression { .. }),
            "saturated softmax must regress past the gate, got {verdict:?}"
        );
        assert_eq!(verdict.code(), 2);
        assert!(!verdict.passed());
    }

    #[test]
    #[cfg_attr(miri, ignore = "full SGD retrain; minutes-long under Miri")]
    fn gate_passes_a_clean_retrain() {
        let data = synthetic_dataset(1..=2, 10);
        let incumbent = Ttp::new(TtpConfig::default(), 13);
        let mut candidate = incumbent.clone();
        train(&mut candidate, &data, 2, &quick_cfg(), &mut rng(13)).unwrap();
        let verdict =
            validate_retrained(&candidate, &incumbent, &data, 2, 14, &RetrainGate::default());
        assert!(verdict.passed(), "clean retrain rejected: {verdict:?}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP; minutes-long under Miri")]
    fn blocked_scoring_matches_the_per_sample_loop() {
        // 300 samples: one full block and a ragged one.
        let data = synthetic_dataset(1..=1, 10);
        let mut ttp = Ttp::new(TtpConfig::default(), 17);
        train(&mut ttp, &data, 1, &quick_cfg(), &mut rng(17)).unwrap();
        let samples = data.build_samples(&ttp, 0, 1, 14, f64::INFINITY);
        assert!(samples.len() > crate::ttp::SCORE_BLOCK);
        let mut ce = 0.0f64;
        for s in &samples {
            let probs = crate::ttp::tests::naive_probs(&ttp, 0, &s.features);
            ce += -f64::from(probs[s.target]).max(1e-12).ln();
        }
        let per_sample = (ce / samples.len() as f64) as f32;
        assert_eq!(holdout_ce(&ttp, &samples).to_bits(), per_sample.to_bits());
        assert_eq!(evaluate(&ttp, &data, 1, 14).cross_entropy.to_bits(), per_sample.to_bits());
    }

    #[test]
    fn gate_passes_on_empty_window() {
        let data = Dataset::new();
        let incumbent = Ttp::new(TtpConfig::default(), 14);
        let mut candidate = Ttp::new(TtpConfig::default(), 15);
        assert!(validate_retrained(&candidate, &incumbent, &data, 3, 14, &RetrainGate::default())
            .passed());
        // ...but non-finite weights are rejected even with nothing to
        // compare on.
        candidate.nets_mut()[0].layers_mut()[0].w.data_mut()[0] = f32::INFINITY;
        assert_eq!(
            validate_retrained(&candidate, &incumbent, &data, 3, 14, &RetrainGate::default()),
            GateVerdict::NonFiniteWeights
        );
    }

    #[test]
    fn max_samples_cap_is_respected() {
        let data = synthetic_dataset(1..=2, 30);
        let mut ttp = Ttp::new(TtpConfig::default(), 9);
        let cfg = TrainConfig { max_samples_per_step: 100, epochs: 1, ..TrainConfig::default() };
        let report = train(&mut ttp, &data, 2, &cfg, &mut rng(9)).unwrap();
        assert!(report.samples_per_step.iter().all(|&n| n <= 100));
    }
}
