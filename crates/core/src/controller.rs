//! Stochastic model-predictive control by value iteration (§4.4).
//!
//! The controller maximizes the expected sum of QoE over an H-step horizon:
//!
//! ```text
//! v*ᵢ(Bᵢ, Kᵢ₋₁) = max_{Kᵢˢ} Σ_{Tᵢ} Pr[T̂(Kᵢˢ) = Tᵢ]·(QoE(Kᵢˢ, Kᵢ₋₁) + v*ᵢ₊₁(Bᵢ₊₁, Kᵢˢ))
//! ```
//!
//! where the transmission-time distribution comes from the TTP.  "To make the
//! DP computationally feasible, it discretizes Bᵢ into bins" — the recursion
//! runs backward over (previous rung × buffer bin) on the value-iteration
//! core the deterministic MPC in `puffer-abr` runs on ([`ValueTables`]): the
//! same grid ([`BUFFER_BINS`] bins [`BIN_W`] apart), buffer rule
//! ([`buffer_after`], [`buffer_bin`]), objective ([`chunk_qoe`]), reachable
//! spans, three-piece value-to-go ([`Landing`]) and select max-plus.  The
//! only difference is the expectation over the 21 time bins: a rung's
//! transfer takes a span to the images of its ends under every time bin the
//! planner keeps, and `W` sums over them.  With `point_estimate = true` the
//! distribution is collapsed to its maximum-likelihood bin, which is the
//! "Point Estimate" ablation deployed in August 2019 (§4.6) whose
//! rebuffering was 3–9× worse.
//!
//! Every `bin_midpoint(b)` is a multiple of `BIN_W` for `b ≥ 1` and half a
//! bin for `b = 0`, so no time bin sits near a rounding tie of the buffer
//! rule, and each has one [`Landing`] for the whole process (`Transfers`).
//! Each lane of `W`'s expectation performs the same IEEE operations on the
//! same operands in the same order as the one-bin-at-a-time loop.

use crate::bins::{bin_midpoint, N_BINS};
use crate::ttp::{Ttp, TtpBatchQuery, TtpScratch};
use puffer_abr::mpc::{buffer_after, buffer_bin, Landing, ValueTables, BIN_W, BUFFER_BINS};
use puffer_abr::AbrContext;
use puffer_media::qoe::{chunk_qoe, MU};
use puffer_nn::loss::argmax;
use std::sync::LazyLock;

/// Time-bin probabilities below this are skipped, by the backward pass, the
/// root and the reachable-span pass alike: the TTP's distributions
/// concentrate in a handful of bins.
const PROB_EPSILON: f64 = 1e-4;

/// The controller option the ablations vary; the grid, horizon and QoE
/// weights are the constants both planners share.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerConfig {
    /// Collapse the TTP's distribution to its MLE bin (ablation, §4.6).
    pub point_estimate: bool,
}

/// The buffer transition at every (time bin, buffer bin) pair, one table
/// per process: `t = bin_midpoint(b)` seconds of transfer from `buffer =
/// bin · BIN_W`.  The post-transfer bin is stored as three pieces per time
/// bin ([`Landing`]), checked against the buffer rule the root evaluates
/// inline at every pair when the table is built, so a table lookup and the
/// root's direct evaluation agree bit for bit.  Row `b` is flat at the
/// drained bin 8 up to bin `2b` (bin 0 for `b = 0`, bin 48 for `b = 20`),
/// then rises one bin per bin, then is flat at the full bin 60 where it gets
/// there (row 20 never does).
struct Transfers {
    /// `(t − buffer).max(0)`: the stall, `[b][bin]`.
    stall: [[f64; BUFFER_BINS]; N_BINS],
    /// The post-transfer bin, `[b]`, as its three pieces.
    landing: [Landing; N_BINS],
}

static TRANSFERS: LazyLock<Transfers> = LazyLock::new(|| Transfers {
    stall: std::array::from_fn(|b| {
        std::array::from_fn(|bin| (bin_midpoint(b) - bin as f64 * BIN_W).max(0.0))
    }),
    landing: std::array::from_fn(|b| {
        let t = bin_midpoint(b);
        let landing = Landing::of(t).expect("time bins sit off the buffer rule's rounding ties");
        for bin in 0..BUFFER_BINS {
            let rule = buffer_bin(buffer_after(bin as f64 * BIN_W, t));
            assert_eq!(landing.at(bin), rule, "time bin {b}, buffer bin {bin}");
        }
        landing
    }),
});

/// Reusable flat tables for [`StochasticMpc::plan_with`].
///
/// Every per-decision quantity lives here as a flat `Vec` indexed
/// arithmetically — `dists[(step·R + a)·T + b]` beside the shared core's
/// [`ValueTables`], whose first row holds `W[a·B + bin]` — so steady-state
/// planning (one call per chunk, ~every 2 s per stream, thousands of
/// streams) allocates nothing.  The stall and post-transfer bin of every
/// (time bin, buffer bin) pair are the same for every decision, so they live
/// in one table per process (`Transfers`), built on first use.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// Time distributions, `(step * n_rungs + a) * N_BINS + b`.
    dists: Vec<f64>,
    /// The value iteration's tables.
    tables: ValueTables,
    /// Candidate sizes for the batched TTP query.
    sizes: Vec<f64>,
    /// TTP inference buffers.
    ttp: TtpScratch,
}

impl PlanScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the per-(step, rung) time-distribution table for a `horizon ×
    /// n_rungs` plan and return it for external filling — the cross-stream
    /// batch scheduler scatters batched TTP rows straight into this table
    /// and then calls [`StochasticMpc::plan_from_dists`].  Layout:
    /// `(step * n_rungs + rung) * N_BINS + bin`.  Contents are unspecified
    /// after resize; overwrite every step's block.
    pub fn dists_for(&mut self, horizon: usize, n_rungs: usize) -> &mut [f64] {
        self.dists.resize(horizon * n_rungs * N_BINS, 0.0);
        &mut self.dists
    }
}

/// The value-iteration planner.  Stateless; all inputs arrive per decision.
#[derive(Debug, Clone, Copy, Default)]
pub struct StochasticMpc {
    pub config: ControllerConfig,
}

impl StochasticMpc {
    pub fn new(config: ControllerConfig) -> Self {
        StochasticMpc { config }
    }

    /// Plan over `ctx.lookahead` with time distributions from `ttp`; returns
    /// the rung for the immediate chunk.  All tables live in the caller's
    /// [`PlanScratch`], so warm calls make zero heap allocations.
    ///
    /// The expected QoE of an action separates into a quality/variation term
    /// `M[prev][a]` (independent of the transmission time) and a
    /// stall-plus-value-to-go term `W[a][buffer bin]` (independent of the
    /// previous rung), so one backward step costs
    /// O(rungs·span·(time bins + rungs)) rather than the naive
    /// O(bins·rungs²·time bins), where the span is the step's reachable
    /// buffer bins (see [`StochasticMpc::plan_from_dists`]).  Probability
    /// mass below `PROB_EPSILON` is skipped; the TTP's distributions
    /// concentrate in a handful of bins.
    // lint-root: panic-free, alloc-free
    pub fn plan_with(&self, ctx: &AbrContext, ttp: &Ttp, scratch: &mut PlanScratch) -> usize {
        self.fill_dists(ctx, ttp, scratch);
        self.plan_from_dists(ctx, ttp.horizon(), scratch)
    }

    /// The TTP-query half of [`StochasticMpc::plan_with`]: fill the
    /// scratch's per-(step, rung) time-distribution table with one batch of
    /// one query per step ([`Ttp::predict_time_distributions_batched_into`]).
    /// The cross-stream batch scheduler replaces this half — scattering rows
    /// of a many-query batch into [`PlanScratch::dists_for`] — and both
    /// halves feed the same [`StochasticMpc::plan_from_dists`].
    // lint: panic-free — step/rung offsets are multiples of the same stride that sizes scratch.dists
    // lint: alloc-free — dists/sizes grow once to horizon*stride; warm calls only overwrite (tests/alloc_gate.rs)
    pub fn fill_dists(&self, ctx: &AbrContext, ttp: &Ttp, scratch: &mut PlanScratch) {
        let horizon = ttp.horizon().min(ctx.lookahead.len());
        let n_rungs = ctx.n_rungs();
        let stride = n_rungs * N_BINS;
        scratch.dists.resize(horizon * stride, 0.0);
        for step in 0..horizon {
            scratch.sizes.clear();
            scratch.sizes.extend(ctx.lookahead[step].options.iter().map(|o| o.size));
            let query = TtpBatchQuery {
                history: ctx.history,
                tcp_info: &ctx.tcp_info,
                proposed_sizes: &scratch.sizes,
            };
            let out = &mut scratch.dists[step * stride..(step + 1) * stride];
            ttp.predict_time_distributions_batched_into(step, &[query], &mut scratch.ttp, out);
        }
    }

    /// The value-iteration half of [`StochasticMpc::plan_with`]: plan from
    /// the already-filled distribution table (see
    /// [`StochasticMpc::fill_dists`] / [`PlanScratch::dists_for`]).
    /// `ttp_horizon` is the predictor's horizon; the effective plan horizon
    /// is its minimum with the visible lookahead, exactly as before the
    /// split.  The point-estimate collapse (§4.6) happens here, per
    /// (step, rung) — order-independent, so collapsing after the fill is
    /// bit-identical to collapsing inside the fill loop.
    ///
    /// The root reads rung `a`'s step-1 value at the real buffer's image
    /// under each time bin of `a`'s distribution it does not skip (`p <
    /// PROB_EPSILON`), and a rung's transfer takes a span to the images of
    /// its ends under its own unskipped time bins; each step's span, which
    /// [`ValueTables`] computes every rung's value over, is the union of
    /// those images over the rungs.  `W[a]` sums `p·(v − µ·stall)` over the
    /// unskipped time bins, and the combine is `M + W`.  Every value the
    /// core stores is bit-identical to the full table's, because each is the
    /// same sum of the same terms in the same order and the same strict-`>`
    /// first-max over rungs in ascending order.
    // lint: panic-free — every index is a bin of a reachable span or a landing bin (< bins), a time bin < N_BINS, or a rung/step below the dims that size the tables
    pub fn plan_from_dists(
        &self,
        ctx: &AbrContext,
        ttp_horizon: usize,
        scratch: &mut PlanScratch,
    ) -> usize {
        let horizon = ttp_horizon.min(ctx.lookahead.len());
        let n_rungs = ctx.n_rungs();
        let bins = BUFFER_BINS;
        let stride = n_rungs * N_BINS;
        assert!(scratch.dists.len() >= horizon * stride, "fill dists before planning");
        let transfers = &*TRANSFERS;

        if self.config.point_estimate {
            for d in scratch.dists[..horizon * stride].chunks_exact_mut(N_BINS) {
                // Argmax the f64 table directly: round-tripping through an
                // intermediate Vec<f32> (as this used to) can flip near-ties
                // and costs an allocation per rung.
                let mle = argmax(d);
                d.fill(0.0);
                d[mle] = 1.0;
            }
        }

        // The root's stall and post-transfer bin per time bin, from the real
        // buffer.
        let mut root_stall = [0.0; N_BINS];
        let mut root_bin = [0; N_BINS];
        for (b, (stall, bin)) in root_stall.iter_mut().zip(&mut root_bin).enumerate() {
            let t = bin_midpoint(b);
            *stall = (t - ctx.buffer).max(0.0);
            *bin = buffer_bin(buffer_after(ctx.buffer, t));
        }

        let dists = &scratch.dists;
        let value = scratch.tables.solve(
            &ctx.lookahead[..horizon],
            n_rungs,
            // Every rung's span is the union of their images: per-rung spans
            // would save only about 12% of the max-plus cells, and measured
            // 2–3% slower.
            |step, from, spans| {
                let (mut lo, mut hi) = (usize::MAX, 0);
                for da in dists[step * stride..(step + 1) * stride].chunks_exact(N_BINS) {
                    for (b, &p) in da.iter().enumerate() {
                        if p < PROB_EPSILON {
                            continue;
                        }
                        let landing = transfers.landing[b];
                        let (to_lo, to_hi) = if step == 0 {
                            (root_bin[b], root_bin[b])
                        } else {
                            (landing.at(from.start), landing.at(from.end - 1))
                        };
                        (lo, hi) = (lo.min(to_lo), hi.max(to_hi));
                    }
                }
                spans.fill(if lo <= hi { lo..hi + 1 } else { 0..0 });
            },
            // W[a][bin]: expected (−µ·stall + value-to-go).
            |step, span, value, [w, _]| {
                let dists_step = &dists[step * stride..(step + 1) * stride];
                for (a, da) in dists_step.chunks_exact(N_BINS).enumerate() {
                    let row = a * bins..(a + 1) * bins;
                    let wa = &mut w[row.clone()][span.clone()];
                    let value_a = &value[row];
                    wa.fill(0.0);
                    for (b, &p) in da.iter().enumerate() {
                        if p < PROB_EPSILON {
                            continue;
                        }
                        let stall_row = &transfers.stall[b][span.clone()];
                        if step + 1 == horizon {
                            for (wab, &stall) in wa.iter_mut().zip(stall_row) {
                                *wab += p * (0.0 - MU * stall);
                            }
                            continue;
                        }
                        // The drained and full pieces read one value-to-go
                        // each, the rising piece a contiguous slice.
                        let landing = transfers.landing[b];
                        let (drained, rising) = landing.pieces(span.clone());
                        let (w_drained, w_rest) = wa.split_at_mut(drained);
                        let (w_rising, w_full) = w_rest.split_at_mut(rising);
                        let (stall_drained, stall_rest) = stall_row.split_at(drained);
                        let (stall_rising, stall_full) = stall_rest.split_at(rising);
                        let v = value_a[landing.at(span.start)];
                        for (wab, &stall) in w_drained.iter_mut().zip(stall_drained) {
                            *wab += p * (v - MU * stall);
                        }
                        let at = landing.at(span.start + drained);
                        let to_go = &value_a[at..at + rising];
                        for ((wab, &stall), &v) in w_rising.iter_mut().zip(stall_rising).zip(to_go)
                        {
                            *wab += p * (v - MU * stall);
                        }
                        let v = value_a[bins - 1];
                        for (wab, &stall) in w_full.iter_mut().zip(stall_full) {
                            *wab += p * (v - MU * stall);
                        }
                    }
                }
            },
            |ma, w, _| ma + w,
        );

        // Step 0 with the true buffer and previous-chunk quality.
        let mut best_rung = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (a, opt) in ctx.lookahead[0].options.iter().enumerate() {
            let quality = chunk_qoe(opt.ssim_db, ctx.prev_ssim_db, 0.0);
            let mut expect = 0.0;
            for (b, &p) in dists[a * N_BINS..(a + 1) * N_BINS].iter().enumerate() {
                if p < PROB_EPSILON {
                    continue;
                }
                expect += p * (quality - MU * root_stall[b] + value[a * bins + root_bin[b]]);
            }
            if expect > best_score {
                best_score = expect;
                best_rung = a;
            }
        }
        best_rung
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{ChunkObservation, Dataset};
    use crate::training::{train, TrainConfig};
    use crate::ttp::{Ttp, TtpConfig};
    use puffer_abr::{ChunkRecord, HORIZON};
    use puffer_media::{ChunkMenu, ChunkOption, CHUNK_SECONDS, MAX_BUFFER_SECONDS};
    use puffer_net::TcpInfo;
    use rand::SeedableRng;

    fn menus(h: usize) -> Vec<ChunkMenu> {
        (0..h)
            .map(|i| ChunkMenu {
                index: i as u64,
                options: [0.2e6, 1.0e6, 3.0e6, 5.5e6]
                    .iter()
                    .enumerate()
                    .map(|(r, &bps)| ChunkOption {
                        size: bps / 8.0 * CHUNK_SECONDS,
                        ssim_db: 8.0 + 3.0 * r as f64,
                    })
                    .collect(),
            })
            .collect()
    }

    fn tcp(rate: f64) -> TcpInfo {
        TcpInfo { cwnd: 20.0, in_flight: 1.0, min_rtt: 0.04, rtt: 0.05, delivery_rate: rate }
    }

    fn history(rate: f64) -> Vec<ChunkRecord> {
        (0..8).map(|_| ChunkRecord { size: rate, transmission_time: 1.0 }).collect()
    }

    /// One decision through a fresh scratch.
    fn plan(planner: &StochasticMpc, ctx: &AbrContext, ttp: &Ttp) -> usize {
        planner.plan_with(ctx, ttp, &mut PlanScratch::new())
    }

    /// Train a TTP on a world where time ≈ size/delivery_rate + 50 ms with
    /// multiplicative noise, so its predictions are meaningful (and genuinely
    /// uncertain) for controller tests.  Shared across tests — training in
    /// debug builds is slow.
    fn trained_ttp() -> &'static Ttp {
        use std::sync::OnceLock;
        static TTP: OnceLock<Ttp> = OnceLock::new();
        TTP.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut data = Dataset::new();
            use rand::Rng;
            for _ in 0..50 {
                let rate = 40_000.0 + 1_500_000.0 * rng.random::<f64>();
                let stream: Vec<ChunkObservation> = (0..20)
                    .map(|_| {
                        let size = 50_000.0 + 1_400_000.0 * rng.random::<f64>();
                        let noise = 0.6 + 0.8 * rng.random::<f64>();
                        ChunkObservation {
                            size,
                            transmission_time: size / rate * noise + 0.05,
                            tcp_info: tcp(rate),
                        }
                    })
                    .collect();
                data.add_stream(1, stream);
            }
            let mut ttp = Ttp::new(TtpConfig::default(), 11);
            let cfg =
                TrainConfig { epochs: 4, max_samples_per_step: 4000, ..TrainConfig::default() };
            train(&mut ttp, &data, 1, &cfg, &mut rng).unwrap();
            ttp
        })
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn fast_path_full_buffer_gets_high_quality() {
        let ttp = trained_ttp();
        let m = menus(5);
        let h = history(1_400_000.0);
        let ctx = AbrContext {
            buffer: 12.0,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead: &m,
            history: &h,
            tcp_info: tcp(1_400_000.0),
        };
        let rung = plan(&StochasticMpc::default(), &ctx, ttp);
        assert!(rung >= 2, "fast path should pick a high rung, got {rung}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn slow_path_low_buffer_is_conservative() {
        let ttp = trained_ttp();
        let m = menus(5);
        let h = history(60_000.0);
        let ctx = AbrContext {
            buffer: 1.0,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead: &m,
            history: &h,
            tcp_info: tcp(60_000.0),
        };
        let rung = plan(&StochasticMpc::default(), &ctx, ttp);
        assert_eq!(rung, 0, "slow path + shallow buffer must pick the bottom rung");
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn buffer_level_changes_the_decision() {
        let ttp = trained_ttp();
        let m = menus(5);
        // Rate where the top rung is marginal: ~0.7 MB/s (top chunk 1.37 MB
        // takes ~2 s).
        let h = history(700_000.0);
        let plan_at = |buffer: f64| {
            let ctx = AbrContext {
                buffer,
                prev_ssim_db: None,
                prev_rung: None,
                lookahead: &m,
                history: &h,
                tcp_info: tcp(700_000.0),
            };
            plan(&StochasticMpc::default(), &ctx, ttp)
        };
        assert!(plan_at(0.5) <= plan_at(13.0), "deeper buffer must not reduce quality");
        assert!(plan_at(0.5) < 3, "shallow buffer should not gamble on the top rung");
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn point_estimate_differs_from_probabilistic_under_uncertainty() {
        // A trained TTP on noisy data produces genuinely-spread
        // distributions; collapsing them to the MLE bin discards tail risk.
        // Scan a grid of (buffer, rate) contexts and require (a) at least one
        // decision to differ and (b) the probabilistic controller to be at
        // least as cautious on average (§4.6: the deployed point-estimate
        // Fugu had 3–9× worse rebuffering).
        let ttp = trained_ttp();
        let m = menus(5);
        let prob = StochasticMpc::default();
        let point = StochasticMpc::new(ControllerConfig { point_estimate: true });
        let mut differs = 0usize;
        let mut prob_sum = 0usize;
        let mut point_sum = 0usize;
        for bi in 0..8 {
            for ri in 0..10 {
                let buffer = 0.5 + 1.5 * bi as f64;
                let rate = 60_000.0 + 130_000.0 * ri as f64;
                let h = history(rate);
                let ctx = AbrContext {
                    buffer,
                    prev_ssim_db: Some(12.0),
                    prev_rung: Some(1),
                    lookahead: &m,
                    history: &h,
                    tcp_info: tcp(rate),
                };
                let a = plan(&prob, &ctx, ttp);
                let b = plan(&point, &ctx, ttp);
                prob_sum += a;
                point_sum += b;
                if a != b {
                    differs += 1;
                }
            }
        }
        assert!(differs > 0, "MLE collapse should change some decision");
        assert!(
            prob_sum <= point_sum + 5,
            "probabilistic planning should not be much more aggressive: {prob_sum} vs {point_sum}"
        );
    }

    /// A deliberately-naive reference implementation of the §4.4 recursion
    /// (no M/W decomposition, no reachable spans, no transfer tables, no
    /// probability pruning, every buffer bin of every step) used to validate
    /// the optimized planner, fed its distribution table (`(step · R + a) ·
    /// N_BINS + b`, `horizon` steps).  The point-estimate ablation collapses
    /// each distribution to a one-hot at its MLE bin.  Returns the rung,
    /// every rung's expected QoE at the root, and step 1's value table,
    /// `[bin][prev]`.
    fn naive_plan_from_dists(
        cfg: &ControllerConfig,
        ctx: &AbrContext,
        horizon: usize,
        table: &[f64],
    ) -> (usize, Vec<f64>, Vec<Vec<f64>>) {
        let n_rungs = ctx.n_rungs();
        let bins = BUFFER_BINS;
        let to_bin = |buffer: f64| ((buffer / BIN_W).round() as usize).min(bins - 1);
        let dists: Vec<Vec<Vec<f64>>> = table[..horizon * n_rungs * N_BINS]
            .chunks_exact(n_rungs * N_BINS)
            .map(|step| {
                step.chunks_exact(N_BINS)
                    .map(|d| {
                        let mut d = d.to_vec();
                        if cfg.point_estimate {
                            let mle = argmax(&d);
                            d = vec![0.0; d.len()];
                            d[mle] = 1.0;
                        }
                        d
                    })
                    .collect()
            })
            .collect();
        let mut value = vec![vec![0.0f64; n_rungs]; bins];
        for step in (1..horizon).rev() {
            let menu = &ctx.lookahead[step];
            let prev_menu = &ctx.lookahead[step - 1];
            let mut next = vec![vec![f64::NEG_INFINITY; n_rungs]; bins];
            for (bin, next_row) in next.iter_mut().enumerate() {
                let buffer = bin as f64 * BIN_W;
                for (prev, best) in next_row.iter_mut().enumerate() {
                    for (a, opt) in menu.options.iter().enumerate() {
                        let mut e = 0.0;
                        for (b, &p) in dists[step][a].iter().enumerate() {
                            let t = bin_midpoint(b);
                            let stall = (t - buffer).max(0.0);
                            let q = chunk_qoe(
                                opt.ssim_db,
                                Some(prev_menu.options[prev].ssim_db),
                                stall,
                            );
                            let nb =
                                ((buffer - t).max(0.0) + CHUNK_SECONDS).min(MAX_BUFFER_SECONDS);
                            let to_go = if step + 1 < horizon { value[to_bin(nb)][a] } else { 0.0 };
                            e += p * (q + to_go);
                        }
                        if e > *best {
                            *best = e;
                        }
                    }
                }
            }
            value = next;
        }
        let menu = &ctx.lookahead[0];
        let mut best = (0usize, f64::NEG_INFINITY);
        let mut scores = Vec::new();
        for (a, opt) in menu.options.iter().enumerate() {
            let mut e = 0.0;
            for (b, &p) in dists[0][a].iter().enumerate() {
                let t = bin_midpoint(b);
                let stall = (t - ctx.buffer).max(0.0);
                let q = chunk_qoe(opt.ssim_db, ctx.prev_ssim_db, stall);
                let nb = ((ctx.buffer - t).max(0.0) + CHUNK_SECONDS).min(MAX_BUFFER_SECONDS);
                let to_go = if horizon > 1 { value[to_bin(nb)][a] } else { 0.0 };
                e += p * (q + to_go);
            }
            scores.push(e);
            if e > best.1 {
                best = (a, e);
            }
        }
        (best.0, scores, value)
    }

    /// [`naive_plan_from_dists`] over the distributions `ttp` predicts, one
    /// query per (step, rung).
    fn naive_plan(cfg: &ControllerConfig, ctx: &AbrContext, ttp: &Ttp) -> usize {
        let horizon = ttp.horizon().min(ctx.lookahead.len());
        let table: Vec<f64> = (0..horizon)
            .flat_map(|step| {
                ctx.lookahead[step].options.iter().flat_map(move |opt| {
                    ttp.predict_time_distribution(step, ctx.history, &ctx.tcp_info, opt.size)
                })
            })
            .collect();
        naive_plan_from_dists(cfg, ctx, horizon, &table).0
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn optimized_planner_matches_naive_reference() {
        let ttp = trained_ttp();
        let m = menus(5);
        // One scratch reused across every context: stale tables and spans
        // from earlier decisions must never influence later ones.
        let mut scratch = PlanScratch::new();
        let mut checked = 0;
        for point_estimate in [false, true] {
            let planner = StochasticMpc::new(ControllerConfig { point_estimate });
            // Empty and full buffers sit on the grid's end bins.
            let buffers = (0..5).map(|bi| 0.5 + 2.8 * bi as f64).chain([0.0, 15.0]);
            for buffer in buffers {
                for ri in 0..6 {
                    let rate = 80_000.0 + 220_000.0 * ri as f64;
                    let h = history(rate);
                    let ctx = AbrContext {
                        buffer,
                        prev_ssim_db: Some(13.0),
                        prev_rung: Some(2),
                        lookahead: &m,
                        history: &h,
                        tcp_info: tcp(rate),
                    };
                    let at = format!("point={point_estimate} buffer={buffer} rate={rate}");
                    let fast = plan(&planner, &ctx, ttp);
                    let slow = naive_plan(&planner.config, &ctx, ttp);
                    assert_eq!(fast, slow, "{at}");
                    let scratched = planner.plan_with(&ctx, ttp, &mut scratch);
                    assert_eq!(scratched, fast, "scratch reuse, {at}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 2 * 7 * 6);
    }

    /// One random time distribution, of a kind the planner treats
    /// differently: all mass in the fastest or the slowest time bin (the two
    /// edge rows of the transfer table), or a few bins of random weight
    /// beside entries exactly at `PROB_EPSILON` (kept) and just below it
    /// (skipped).  The kept entries sum to 1, as a probability distribution
    /// does, so the reference's Σ p·(QoE + v) and the planner's
    /// M + Σ p·(v − µ·stall) differ only by rounding.
    fn random_dist(rng: &mut proptest::TestRng) -> [f64; N_BINS] {
        let mut d = [0.0; N_BINS];
        match rng.below(4) {
            0 => d[0] = 1.0,
            1 => d[N_BINS - 1] = 1.0,
            _ => {
                let below = f64::from_bits(PROB_EPSILON.to_bits() - 1);
                for p in &mut d {
                    *p = match rng.below(6) {
                        0 => PROB_EPSILON,
                        1 => below,
                        2 => 0.05 + rng.unit_f64(),
                        _ => 0.0,
                    };
                }
                d[rng.below(N_BINS as u64) as usize] = 0.05 + rng.unit_f64();
                let at_epsilon = d.iter().filter(|&&p| p == PROB_EPSILON).count() as f64;
                let weight: f64 = d.iter().filter(|&&p| p > PROB_EPSILON).sum();
                let scale = (1.0 - at_epsilon * PROB_EPSILON) / weight;
                for p in d.iter_mut().filter(|p| **p > PROB_EPSILON) {
                    *p *= scale;
                }
            }
        }
        d
    }

    // Needs no trained TTP, so Miri runs it too, on a reduced case count.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: if cfg!(miri) { 4 } else { 256 },
            ..proptest::ProptestConfig::default()
        })]

        /// The planner chooses the reference's rung on random distributions
        /// written through `dists_for`: buffers empty, full and off the
        /// grid, one-hot mass at either edge time bin, entries at and just
        /// below `PROB_EPSILON`, duplicated rungs (exact ties, decided by the
        /// first max), lookaheads of 1 to 5 chunks, with and without the
        /// point estimate, through tables poisoned with a huge finite value
        /// before the plan.  Step 1's values agree with the reference's up to
        /// rounding over each rung's reachable span.  Rungs that tie in exact
        /// arithmetic (a quality drop at every later step lets the
        /// value-to-go cancel the immediate quality) may round apart either
        /// way in the two evaluation orders, so a rung the reference scores
        /// within rounding of its best passes too.  The reference, which
        /// prunes nothing, reads the table with the entries below
        /// `PROB_EPSILON` zeroed: a zero entry adds 0·x and cannot win the
        /// MLE argmax, so it plans exactly what the planner's pruning
        /// defines.
        #[test]
        fn planner_matches_reference_on_random_distributions(
            h in 1usize..6,
            n_rungs in 1usize..7,
            buffer in 0.0f64..15.0,
            edge in 0u8..4,
            seed in proptest::any::<u64>(),
            dup in proptest::any::<bool>(),
            point_estimate in proptest::any::<bool>(),
        ) {
            let buffer = match edge {
                0 => 0.0,
                1 => MAX_BUFFER_SECONDS,
                _ => buffer,
            };
            let mut rng = proptest::TestRng::new(seed);
            let mut m: Vec<ChunkMenu> = (0..h)
                .map(|i| ChunkMenu {
                    index: i as u64,
                    options: (0..n_rungs)
                        .map(|_| ChunkOption { size: 1e5, ssim_db: 4.0 + 16.0 * rng.unit_f64() })
                        .collect(),
                })
                .collect();
            let mut table: Vec<f64> =
                (0..h * n_rungs).flat_map(|_| random_dist(&mut rng)).collect();
            if dup {
                // Every other rung repeats its predecessor, distribution too.
                for (step, menu) in m.iter_mut().enumerate() {
                    for r in (1..n_rungs).step_by(2) {
                        menu.options[r] = menu.options[r - 1];
                        let from = (step * n_rungs + r - 1) * N_BINS;
                        table.copy_within(from..from + N_BINS, from + N_BINS);
                    }
                }
            }
            let ctx = AbrContext {
                buffer,
                prev_ssim_db: (seed % 2 == 0).then_some(12.0),
                prev_rung: None,
                lookahead: &m,
                history: &[],
                tcp_info: tcp(1e6),
            };
            let planner = StochasticMpc::new(ControllerConfig { point_estimate });
            let pruned: Vec<f64> =
                table.iter().map(|&p| if p < PROB_EPSILON { 0.0 } else { p }).collect();
            let (expected, scores, value) =
                naive_plan_from_dists(&planner.config, &ctx, h, &pruned);
            // Poisoned tables: a value or `W` entry read outside the spans
            // the plan computes wins the max and flips the decision.
            let mut scratch = PlanScratch::new();
            scratch.tables.poison(n_rungs);
            scratch.dists_for(h, n_rungs).copy_from_slice(&table);
            let rung = planner.plan_from_dists(&ctx, HORIZON, &mut scratch);
            let (best, got) = (scores[expected], scores[rung]);
            proptest::prop_assert!(
                rung == expected || (best - got).abs() <= 1e-9 * (1.0 + best.abs()),
                "rung {} vs {} (scores {} vs {}), h={} rungs={} buffer={} dup={} point={}",
                rung, expected, got, best, h, n_rungs, buffer, dup, point_estimate
            );
            // A duplicated rung ties its predecessor bit for bit, and the
            // first max keeps the predecessor.
            proptest::prop_assert!(!dup || rung.is_multiple_of(2), "duplicate rung {} chosen", rung);
            // Step 1's values, each rung's over its own span: the rest of
            // the table is not computed.
            for (prev, (span, values)) in scratch.tables.step_one(n_rungs).enumerate() {
                for bin in span {
                    let (fast, slow) = (values[bin], value[bin][prev]);
                    proptest::prop_assert!(
                        (fast - slow).abs() <= 1e-9 * (1.0 + slow.abs()),
                        "value {} vs {} at bin {} prev {}", fast, slow, bin, prev
                    );
                }
            }
        }
    }

    #[test]
    fn landing_pieces_reproduce_the_buffer_rule() {
        let transfers = &*TRANSFERS;
        for (b, &landing) in transfers.landing.iter().enumerate() {
            for bin in 0..BUFFER_BINS {
                let rule = buffer_bin(buffer_after(bin as f64 * BIN_W, bin_midpoint(b)));
                assert_eq!(landing.at(bin), rule, "time bin {b}, buffer bin {bin}");
            }
        }
        // The fastest time bin drains the empty buffer to bin 8 and moves
        // every other bin up by 8, to the full bin at most.
        let fastest = transfers.landing[0];
        assert_eq!(buffer_bin(CHUNK_SECONDS), 8);
        assert_eq!(fastest.at(0), 8);
        for bin in 1..BUFFER_BINS {
            assert_eq!(fastest.at(bin), (bin + 8).min(BUFFER_BINS - 1), "buffer bin {bin}");
        }
        // The slowest drains everything up to bin 48 and never fills.
        let slowest = transfers.landing[N_BINS - 1];
        assert!((0..=48).all(|bin| slowest.at(bin) == 8));
        assert!((0..BUFFER_BINS).all(|bin| slowest.at(bin) < BUFFER_BINS - 1));
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn scratch_survives_changing_shapes() {
        // Alternate between lookahead lengths with one scratch; every answer
        // must match a fresh allocation's.
        let ttp = trained_ttp();
        let mut scratch = PlanScratch::new();
        let h = history(500_000.0);
        let planner = StochasticMpc::default();
        for len in [5, 2, 3, 1, 5] {
            let m = menus(len);
            let ctx = AbrContext {
                buffer: 4.0,
                prev_ssim_db: Some(11.0),
                prev_rung: Some(1),
                lookahead: &m,
                history: &h,
                tcp_info: tcp(500_000.0),
            };
            assert_eq!(
                planner.plan_with(&ctx, ttp, &mut scratch),
                plan(&planner, &ctx, ttp),
                "lookahead={len}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn horizon_respects_lookahead_length() {
        let ttp = trained_ttp();
        let m = menus(2); // shorter than the TTP's 5-step horizon
        let h = history(800_000.0);
        let ctx = AbrContext {
            buffer: 8.0,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead: &m,
            history: &h,
            tcp_info: tcp(800_000.0),
        };
        // Must not panic and must return a valid rung.
        let rung = plan(&StochasticMpc::default(), &ctx, ttp);
        assert!(rung < 4);
    }
}
