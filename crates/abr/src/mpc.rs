//! Model-predictive control (MPC-HM / RobustMPC-HM), Yin et al. \[43\].
//!
//! MPC plans the rung sequence for the next [`crate::HORIZON`] chunks that
//! maximizes the total QoE of Eq. 1, given (a) the known sizes and SSIMs of
//! the upcoming chunks and (b) a throughput prediction — here the harmonic
//! mean of the last five samples (MPC-HM), optionally discounted by recent
//! prediction error (RobustMPC-HM).  After sending one chunk it replans
//! (receding horizon).
//!
//! The plan is computed by value iteration over a discretized buffer
//! ([`BUFFER_BINS`] levels [`BIN_W`] apart), the same grid and structure
//! Fugu's stochastic controller uses (§4.4) — the only
//! difference is that here the transmission time is a point estimate, so the
//! expectation collapses to a single term.  Using the identical machinery for
//! MPC, RobustMPC, and Fugu mirrors the paper's claim that "MPC and Fugu even
//! share most of their codebase" (§5.1).

use crate::predictor::{HarmonicMean, RobustDiscount, ThroughputPredictor};
use crate::{Abr, AbrContext, ChunkRecord, HORIZON};
use puffer_media::qoe::{chunk_qoe, LAMBDA, MU};
use puffer_media::{ChunkMenu, CHUNK_SECONDS, MAX_BUFFER_SECONDS};
use std::ops::Range;
use std::sync::Arc;

/// Buffer levels both planners discretize `[0, MAX_BUFFER_SECONDS]` into
/// (§4.4: "it discretizes Bᵢ into bins").
pub const BUFFER_BINS: usize = 61;

/// Width of one buffer bin: 0.25 s.  A power of two, so `bin as f64 *
/// BIN_W` and its division back by `BIN_W` are exact.
pub const BIN_W: f64 = MAX_BUFFER_SECONDS / (BUFFER_BINS - 1) as f64;

/// Throughput assumed before any samples exist, bytes/s (0.4 Mbit/s).
/// Conservative, which is why every MPC variant starts at low quality on a
/// cold start (Fig. 9).
const COLD_START_THROUGHPUT: f64 = 50_000.0;

/// Nearest buffer bin to `buffer`: exactly `((buffer / BIN_W).round() as
/// usize).min(BUFFER_BINS - 1)`, the discretization both MPC and Fugu's
/// planner (§4.4) use, without the `round` libm call.  With `x = buffer /
/// BIN_W` and `i = ⌊x⌋`, `x − i` is exact for 0 ≤ x < 2⁵³, so rounding half
/// away from zero is `i + 1` exactly when `x − i ≥ 0.5`; negative `x` gives
/// 0 like the saturating cast of a rounded negative.
#[inline]
pub fn buffer_bin(buffer: f64) -> usize {
    let x: f64 = buffer / BIN_W;
    let i = x as usize;
    if i >= BUFFER_BINS - 1 {
        BUFFER_BINS - 1
    } else if x - i as f64 >= 0.5 {
        i + 1
    } else {
        i
    }
}

/// Playback buffer after a chunk that takes `t` seconds to send: it drains
/// for `t` (never below empty), gains the chunk, and caps at the client's
/// maximum.  The one buffer transition both planners evaluate; it is
/// monotone non-decreasing in `buffer`, which the planners' reachable-bin
/// spans rely on.
#[inline]
pub fn buffer_after(buffer: f64, t: f64) -> f64 {
    ((buffer - t).max(0.0) + CHUNK_SECONDS).min(MAX_BUFFER_SECONDS)
}

/// Reusable flat tables for [`Mpc::plan_with`].
///
/// The MPC family plans once per chunk on every stream of every MPC arm, so
/// the planner is a simulation hot path (§5.1: "MPC and Fugu even share most
/// of their codebase" — Fugu's `PlanScratch` got this treatment first).
/// Every per-decision table lives here as a flat `Vec`, rung-major with the
/// buffer bin innermost — `value[prev·B + bin]`, `mu_stall`/`to_go[a·B +
/// bin]`, `m[prev·R + a]` — so steady-state planning allocates nothing and
/// the maximization runs over contiguous bins.  `reach[step]` holds the
/// bins a forward pass from the real buffer can reach at each step; only
/// those are ever computed or read.
#[derive(Debug, Clone, Default)]
pub struct MpcScratch {
    /// Value table for the step below, `prev * bins + bin`.
    value: Vec<f64>,
    /// Value table being built for this step (ping/pong partner of `value`).
    next_value: Vec<f64>,
    /// `µ · stall` per `a * bins + bin` — `prev`-independent.
    mu_stall: Vec<f64>,
    /// Value-to-go after action `a` from `bin`, `a * bins + bin`.
    to_go: Vec<f64>,
    /// Quality-minus-smoothness term per `prev * n_rungs + a`.
    m: Vec<f64>,
    /// Transmission time per `step * n_rungs + a`.
    times: Vec<f64>,
    /// Buffer bins reachable from the root at each step.
    reach: Vec<Range<usize>>,
}

impl MpcScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// MPC-HM (and RobustMPC-HM with `robust = true`).
///
/// A custom throughput predictor — e.g. the CS2P-style Markov model — can be
/// plugged in with [`Mpc::with_custom_predictor`], reproducing the paper's
/// description of CS2P and Oboe as "better throughput predictors that inform
/// the same control strategy (MPC)" (§2).
#[derive(Clone)]
pub struct Mpc {
    /// Apply RobustMPC's error discount to the predictor.
    robust: bool,
    predictor: RobustDiscount<HarmonicMean>,
    custom: Option<Arc<dyn ThroughputPredictor + Send + Sync>>,
    /// Planner tables reused across decisions (planning is allocation-free
    /// after the first chunk).  Not per-stream state: every entry is fully
    /// rewritten by each plan, so `reset_stream` leaves it alone.
    scratch: MpcScratch,
    name: &'static str,
}

impl std::fmt::Debug for Mpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mpc")
            .field("robust", &self.robust)
            .field("name", &self.name)
            .field("custom_predictor", &self.custom.is_some())
            .finish()
    }
}

impl Mpc {
    fn build(
        robust: bool,
        custom: Option<Arc<dyn ThroughputPredictor + Send + Sync>>,
        name: &'static str,
    ) -> Self {
        Mpc {
            robust,
            predictor: RobustDiscount::new(HarmonicMean),
            custom,
            scratch: MpcScratch::new(),
            name,
        }
    }

    /// MPC with a custom throughput predictor (e.g. [`crate::Cs2pModel`]) in
    /// place of the harmonic mean.
    pub fn with_custom_predictor(
        predictor: Arc<dyn ThroughputPredictor + Send + Sync>,
        name: &'static str,
    ) -> Self {
        Mpc::build(false, Some(predictor), name)
    }

    /// The paper's MPC-HM.
    pub fn mpc_hm() -> Self {
        Mpc::build(false, None, "MPC-HM")
    }

    /// The paper's RobustMPC-HM.
    pub fn robust_mpc_hm() -> Self {
        Mpc::build(true, None, "RobustMPC-HM")
    }

    fn predict(&self, ctx: &AbrContext) -> f64 {
        let p = if let Some(custom) = &self.custom {
            custom.predict(ctx.history)
        } else if self.robust {
            self.predictor.predict(ctx.history)
        } else {
            HarmonicMean.predict(ctx.history)
        };
        p.unwrap_or(COLD_START_THROUGHPUT).max(1.0)
    }

    /// Receding-horizon plan through caller-owned [`MpcScratch`] tables;
    /// returns the rung for the immediate chunk, with zero heap allocations
    /// once the scratch has warmed up to the menu's rung count.
    ///
    /// Total: an empty `ctx.lookahead` (no upcoming chunk known — e.g. the
    /// tail of a live stream's encoder queue) falls back to rung 0 instead
    /// of panicking on `menus[0]`.
    ///
    /// Like the deployed controller's forward recursion with memoization,
    /// the value iteration only visits the states the root can reach: a
    /// forward pass from `ctx.buffer` bounds, per step, the span of buffer
    /// bins reachable through any rung's transmission time.  The
    /// post-transfer bin is monotone non-decreasing in the pre-transfer
    /// buffer, so the bins reached from a span lie between the images of its
    /// two ends, and every value the backward pass reads lies inside the next
    /// step's span.
    ///
    /// Everything that does not depend on the previous rung is hoisted out of
    /// the inner `(prev, rung, bin)` loop: the transmission time `t = size /
    /// throughput` (per step × rung), the stall term `µ·(t − buffer)⁺` and the
    /// value-to-go after the transfer (per rung × bin), and the quality part
    /// of `chunk_qoe` (folded into the per-`(prev, rung)` smoothness table
    /// `m`).  The surviving inner-loop work is one subtraction, one addition,
    /// and a max, over contiguous bins.
    ///
    /// Decision equivalence with the naive reference value iteration (kept
    /// beside the tests) is exact, not approximate: every floating-point
    /// expression keeps the reference's operand association —
    /// `(m − µ·stall) + to_go` reassociates `((ssim − λ·|Δ|) − µ·stall) +
    /// to_go` only at the subtraction the reference also performs — and
    /// each value folds its rungs through `f64::max` in the same ascending
    /// order, so the DP values are bit-identical; the step-0 argmax scans
    /// rungs in the same order with the same strict `>` (first max wins), so
    /// the chosen rung matches the reference on ties too.  Pinned by the
    /// property tests below.
    // lint-root: panic-free, alloc-free
    // lint: panic-free — every index is a bin of a reachable span (< bins) or a rung/step below the dims that size the tables at the top of the fn
    // lint: alloc-free — scratch tables grow once to horizon*bins; warm calls are allocation-free per tests/alloc_gate.rs
    pub fn plan_with(&self, ctx: &AbrContext, throughput: f64, scratch: &mut MpcScratch) -> usize {
        if ctx.lookahead.is_empty() {
            return 0;
        }
        let horizon = HORIZON.min(ctx.lookahead.len());
        let menus: &[ChunkMenu] = &ctx.lookahead[..horizon];
        let n_rungs = menus[0].n_rungs();
        let bins = BUFFER_BINS;

        // (Re)shape the tables.  Each entry is written before it is read,
        // so stale contents from an earlier decision never leak in.
        scratch.value.resize(n_rungs * bins, 0.0);
        scratch.next_value.resize(n_rungs * bins, 0.0);
        scratch.mu_stall.resize(n_rungs * bins, 0.0);
        scratch.to_go.resize(n_rungs * bins, 0.0);
        scratch.m.resize(n_rungs * n_rungs, 0.0);
        scratch.times.resize(horizon * n_rungs, 0.0);
        scratch.reach.resize(horizon, 0..0);

        // Per step and rung: the deterministic transmission time.
        for (step, menu) in menus.iter().enumerate() {
            let row = &mut scratch.times[step * n_rungs..(step + 1) * n_rungs];
            for (t, opt) in row.iter_mut().zip(&menu.options) {
                *t = opt.size / throughput;
            }
        }

        // Forward pass: the span of bins each step's value is read at.  The
        // root's span is the real buffer's image; a step's span is the
        // images of the previous span's two ends.
        let (mut lo_buf, mut hi_buf) = (ctx.buffer, ctx.buffer);
        for step in 1..horizon {
            let (mut lo, mut hi) = (usize::MAX, 0);
            for &t in &scratch.times[(step - 1) * n_rungs..step * n_rungs] {
                lo = lo.min(buffer_bin(buffer_after(lo_buf, t)));
                hi = hi.max(buffer_bin(buffer_after(hi_buf, t)));
            }
            // Empty only without rungs, when nothing below is read either.
            scratch.reach[step] = if lo <= hi { lo..hi + 1 } else { 0..0 };
            (lo_buf, hi_buf) = (lo as f64 * BIN_W, hi as f64 * BIN_W);
        }

        for step in (1..horizon).rev() {
            let menu = &menus[step];
            let prev_menu = &menus[step - 1];
            let span = scratch.reach[step].clone();
            let times = &scratch.times[step * n_rungs..(step + 1) * n_rungs];

            // Per (rung, reachable bin): µ·stall and the value-to-go after
            // the transfer — both independent of the previous rung.
            let last_step = step + 1 >= horizon;
            for (a, &t) in times.iter().enumerate() {
                let row = a * bins..(a + 1) * bins;
                let ms_row = &mut scratch.mu_stall[row.clone()][span.clone()];
                let tg_row = &mut scratch.to_go[row.clone()][span.clone()];
                let value_a = &scratch.value[row];
                for ((ms, tg), bin) in ms_row.iter_mut().zip(tg_row).zip(span.clone()) {
                    let buffer = bin as f64 * BIN_W;
                    *ms = MU * (t - buffer).max(0.0);
                    *tg =
                        if last_step { 0.0 } else { value_a[buffer_bin(buffer_after(buffer, t))] };
                }
            }
            // Per (previous rung, rung): quality minus the λ·|Δssim|
            // smoothness penalty.
            for (prev, popt) in prev_menu.options.iter().enumerate() {
                let m_row = &mut scratch.m[prev * n_rungs..(prev + 1) * n_rungs];
                for (ma, opt) in m_row.iter_mut().zip(&menu.options) {
                    *ma = opt.ssim_db - LAMBDA * (opt.ssim_db - popt.ssim_db).abs();
                }
            }
            // The maximization: rungs in ascending order, bins innermost.
            for prev in 0..n_rungs {
                let nv = &mut scratch.next_value[prev * bins..(prev + 1) * bins][span.clone()];
                nv.fill(f64::NEG_INFINITY);
                for (a, &ma) in scratch.m[prev * n_rungs..(prev + 1) * n_rungs].iter().enumerate() {
                    let ms_row = &scratch.mu_stall[a * bins..(a + 1) * bins][span.clone()];
                    let tg_row = &scratch.to_go[a * bins..(a + 1) * bins][span.clone()];
                    for ((v, &ms), &tg) in nv.iter_mut().zip(ms_row).zip(tg_row) {
                        *v = v.max((ma - ms) + tg);
                    }
                }
            }
            std::mem::swap(&mut scratch.value, &mut scratch.next_value);
        }

        // Step 0: the real buffer and the real previous chunk — O(rungs),
        // evaluated exactly as the reference does.
        let menu = &menus[0];
        let mut best_rung = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (a, (opt, &t)) in menu.options.iter().zip(&scratch.times[..n_rungs]).enumerate() {
            let stall = (t - ctx.buffer).max(0.0);
            let q = chunk_qoe(opt.ssim_db, ctx.prev_ssim_db, stall);
            let to_go = if horizon > 1 {
                scratch.value[a * bins + buffer_bin(buffer_after(ctx.buffer, t))]
            } else {
                0.0
            };
            let score = q + to_go;
            if score > best_score {
                best_score = score;
                best_rung = a;
            }
        }
        best_rung
    }
}

impl Abr for Mpc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let throughput = self.predict(ctx);
        if self.robust {
            self.predictor.note_prediction(throughput);
        }
        // Detach the scratch so `plan_with` can borrow `self` immutably;
        // the default `MpcScratch` holds empty Vecs, so the swap allocates
        // nothing.
        let mut scratch = std::mem::take(&mut self.scratch);
        let rung = self.plan_with(ctx, throughput, &mut scratch);
        self.scratch = scratch;
        rung
    }

    fn on_chunk_delivered(&mut self, record: ChunkRecord) {
        self.predictor.observe(record);
    }

    fn reset_stream(&mut self) {
        self.predictor.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_media::ChunkOption;
    use puffer_net::TcpInfo;

    /// A static 4-rung menu repeated over the horizon.
    fn menus(h: usize) -> Vec<ChunkMenu> {
        (0..h)
            .map(|i| ChunkMenu {
                index: i as u64,
                options: [0.2e6, 1.0e6, 3.0e6, 5.5e6]
                    .iter()
                    .enumerate()
                    .map(|(r, &b)| ChunkOption {
                        size: b / 8.0 * CHUNK_SECONDS,
                        ssim_db: 8.0 + 3.0 * r as f64,
                    })
                    .collect(),
            })
            .collect()
    }

    impl Mpc {
        /// Naive reference implementation of the value iteration, kept verbatim
        /// as the ground truth the optimized [`Mpc::plan_with`] is pinned
        /// against.  Allocates fresh tables every call and re-evaluates the full
        /// QoE expression in the innermost `(bin, prev, rung)` loop.
        // Buffer-bin and rung indices are the DP state; explicit loops keep
        // the recursion readable next to the paper's Eq. (value iteration).
        #[allow(clippy::needless_range_loop)]
        fn plan_reference(&self, ctx: &AbrContext, throughput: f64) -> usize {
            if ctx.lookahead.is_empty() {
                return 0;
            }
            let horizon = HORIZON.min(ctx.lookahead.len());
            let menus: &[ChunkMenu] = &ctx.lookahead[..horizon];
            let n_rungs = menus[0].n_rungs();
            let bins = BUFFER_BINS;
            let to_bin =
                |buffer: f64| -> usize { ((buffer / BIN_W).round() as usize).min(bins - 1) };

            // value[bin][prev_rung] = best QoE-to-go from `step`, where prev_rung
            // indexes the previous step's menu.
            let mut value = vec![vec![0.0f64; n_rungs]; bins];
            for step in (1..horizon).rev() {
                let mut next_value = vec![vec![f64::NEG_INFINITY; n_rungs]; bins];
                let menu = &menus[step];
                let prev_menu = &menus[step - 1];
                for bin in 0..bins {
                    let buffer = bin as f64 * BIN_W;
                    for prev in 0..n_rungs {
                        let prev_ssim = prev_menu.options[prev].ssim_db;
                        let mut best = f64::NEG_INFINITY;
                        for (a, opt) in menu.options.iter().enumerate() {
                            let t = opt.size / throughput;
                            let stall = (t - buffer).max(0.0);
                            let q = chunk_qoe(opt.ssim_db, Some(prev_ssim), stall);
                            let next_buf =
                                ((buffer - t).max(0.0) + CHUNK_SECONDS).min(MAX_BUFFER_SECONDS);
                            let to_go =
                                if step + 1 < horizon { value[to_bin(next_buf)][a] } else { 0.0 };
                            best = best.max(q + to_go);
                        }
                        next_value[bin][prev] = best;
                    }
                }
                value = next_value;
            }

            // Step 0: the real buffer and the real previous chunk.
            let menu = &menus[0];
            let mut best_rung = 0;
            let mut best_score = f64::NEG_INFINITY;
            for (a, opt) in menu.options.iter().enumerate() {
                let t = opt.size / throughput;
                let stall = (t - ctx.buffer).max(0.0);
                let q = chunk_qoe(opt.ssim_db, ctx.prev_ssim_db, stall);
                let next_buf = ((ctx.buffer - t).max(0.0) + CHUNK_SECONDS).min(MAX_BUFFER_SECONDS);
                let to_go = if horizon > 1 { value[to_bin(next_buf)][a] } else { 0.0 };
                let score = q + to_go;
                if score > best_score {
                    best_score = score;
                    best_rung = a;
                }
            }
            best_rung
        }
    }

    fn info() -> TcpInfo {
        TcpInfo { cwnd: 10.0, in_flight: 0.0, min_rtt: 0.04, rtt: 0.04, delivery_rate: 1e6 }
    }

    fn history_at(throughput: f64) -> Vec<ChunkRecord> {
        (0..5).map(|_| ChunkRecord { size: throughput, transmission_time: 1.0 }).collect()
    }

    fn ctx<'a>(
        buffer: f64,
        lookahead: &'a [ChunkMenu],
        history: &'a [ChunkRecord],
    ) -> AbrContext<'a> {
        AbrContext {
            buffer,
            prev_ssim_db: Some(14.0),
            prev_rung: Some(2),
            lookahead,
            history,
            tcp_info: info(),
        }
    }

    #[test]
    fn fast_network_full_buffer_chooses_top() {
        let m = menus(5);
        let h = history_at(10e6 / 8.0); // 10 Mbit/s
        assert_eq!(Mpc::mpc_hm().choose(&ctx(12.0, &m, &h)), 3);
    }

    #[test]
    fn slow_network_chooses_bottom() {
        let m = menus(5);
        let h = history_at(0.3e6 / 8.0); // 0.3 Mbit/s
        let rung = Mpc::mpc_hm().choose(&ctx(4.0, &m, &h));
        assert_eq!(rung, 0);
    }

    #[test]
    fn lower_buffer_is_more_conservative() {
        let m = menus(5);
        // 3.2 Mbit/s: rung 2 (3 Mbit/s) takes ~1.9 s per 2 s chunk — safe
        // with a deep buffer, risky with a shallow one.
        let h = history_at(3.2e6 / 8.0);
        let low = Mpc::mpc_hm().choose(&ctx(0.5, &m, &h));
        let high = Mpc::mpc_hm().choose(&ctx(12.0, &m, &h));
        assert!(low < high, "low-buffer rung {low} must be below high-buffer rung {high}");
    }

    #[test]
    fn cold_start_is_conservative() {
        let m = menus(5);
        let rung = Mpc::mpc_hm().choose(&ctx(0.0, &m, &[]));
        assert_eq!(rung, 0, "no history → assume little throughput (Fig. 9)");
    }

    #[test]
    fn robust_variant_is_no_more_aggressive() {
        let m = menus(5);
        let h = history_at(3.5e6 / 8.0);
        let mut robust = Mpc::robust_mpc_hm();
        // Seed a large prediction error.
        robust.choose(&ctx(6.0, &m, &h));
        robust.predictor.note_prediction(3.5e6 / 8.0);
        robust.on_chunk_delivered(ChunkRecord { size: 1.0e6 / 8.0, transmission_time: 1.0 });
        let r_rung = robust.choose(&ctx(6.0, &m, &h));
        let plain_rung = Mpc::mpc_hm().choose(&ctx(6.0, &m, &h));
        assert!(r_rung <= plain_rung, "robust {r_rung} vs plain {plain_rung}");
    }

    #[test]
    fn horizon_one_still_works() {
        let m = menus(1);
        let h = history_at(10e6 / 8.0);
        let mut mpc = Mpc::mpc_hm();
        // A one-menu lookahead plans one step.  No previous chunk → no
        // variation penalty → pure quality max.
        let c = AbrContext { prev_ssim_db: None, prev_rung: None, ..ctx(10.0, &m, &h) };
        assert_eq!(mpc.choose(&c), 3);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Mpc::mpc_hm().name(), "MPC-HM");
        assert_eq!(Mpc::robust_mpc_hm().name(), "RobustMPC-HM");
    }

    #[test]
    fn smoothness_penalty_avoids_pointless_oscillation() {
        // Menu where rung 2 and 3 are close in quality: after sending rung 3,
        // a throughput that can sustain rung 3 should not drop to rung 2 and
        // back (the λ term).  Run several decisions under static conditions
        // and check the chosen rung is constant.
        let m = menus(5);
        let h = history_at(6e6 / 8.0);
        let mut mpc = Mpc::mpc_hm();
        let first = mpc.choose(&ctx(10.0, &m, &h));
        for _ in 0..5 {
            let again = mpc.choose(&ctx(10.0, &m, &h));
            assert_eq!(again, first, "static conditions must give a static plan");
        }
    }

    #[test]
    fn empty_lookahead_is_total() {
        // Regression: `plan` used to index `menus[0]` and panic when the
        // lookahead was empty.  Both planners must fall back to rung 0.
        let h = history_at(5e6 / 8.0);
        let c = ctx(6.0, &[], &h);
        let mut mpc = Mpc::mpc_hm();
        assert_eq!(mpc.choose(&c), 0);
        assert_eq!(mpc.plan_reference(&c, 1e6), 0);
        assert_eq!(mpc.plan_with(&c, 1e6, &mut MpcScratch::new()), 0);
        let mut robust = Mpc::robust_mpc_hm();
        assert_eq!(robust.choose(&c), 0);
    }

    #[test]
    fn scratch_survives_changing_shapes() {
        // Alternate lookahead lengths with one scratch; stale table contents
        // must never leak into a decision.
        let h = history_at(3.0e6 / 8.0);
        let mut scratch = MpcScratch::new();
        let mpc = Mpc::mpc_hm();
        for len in [5, 1, 3, 2, 5] {
            let m = menus(len);
            let c = ctx(5.0, &m, &h);
            assert_eq!(
                mpc.plan_with(&c, 400_000.0, &mut scratch),
                mpc.plan_reference(&c, 400_000.0),
                "lookahead={len}"
            );
        }
    }

    /// Random menus for the equivalence sweep: `h` steps × `n_rungs` rungs
    /// with sizes/SSIMs drawn from the given unit samples.  When `dup` is
    /// set, every other rung duplicates its predecessor exactly (size and
    /// SSIM), manufacturing exact score ties that exercise the first-max
    /// tie-breaking.
    fn random_menus(
        h: usize,
        n_rungs: usize,
        unit: &mut impl FnMut() -> f64,
        dup: bool,
    ) -> Vec<ChunkMenu> {
        (0..h)
            .map(|i| ChunkMenu {
                index: i as u64,
                options: (0..n_rungs)
                    .map(|_| ChunkOption {
                        size: (0.05e6 + 1.8e6 * unit()) / 8.0 * CHUNK_SECONDS,
                        ssim_db: 4.0 + 16.0 * unit(),
                    })
                    .collect(),
            })
            .map(|mut menu| {
                if dup {
                    for r in (1..n_rungs).step_by(2) {
                        menu.options[r] = menu.options[r - 1];
                    }
                }
                menu
            })
            .collect()
    }

    // Skipped under Miri: 200 cases through the full DP are minutes-long in
    // an interpreter, and the planner has no unsafe code for Miri to check.
    #[cfg(not(miri))]
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 200,
            ..proptest::ProptestConfig::default()
        })]

        /// The scratch planner must choose the reference's rung on random
        /// menus (varying rung counts and horizons), buffers (exactly empty
        /// and full among them), and throughputs —
        /// including menus with exactly-duplicated rungs, where the scores
        /// tie bit-for-bit and first-max tie-breaking decides.
        #[test]
        fn scratch_planner_matches_reference(
            h in 1usize..7,
            n_rungs in 1usize..12,
            buffer in 0.0f64..15.0,
            edge in 0u8..8,
            throughput in 10_000.0f64..3_000_000.0,
            seed in 0u64..u64::MAX,
            dup in proptest::any::<bool>(),
            robust in proptest::any::<bool>(),
        ) {
            let buffer = match edge {
                0 => 0.0,
                1 => MAX_BUFFER_SECONDS,
                _ => buffer,
            };
            let mut rng = proptest::TestRng::new(seed);
            let mut unit = move || rng.unit_f64();
            let m = random_menus(h, n_rungs, &mut unit, dup);
            let hist = history_at(throughput);
            let prev = if buffer > 7.5 { Some(11.0) } else { None };
            let c = AbrContext { prev_ssim_db: prev, ..ctx(buffer, &m, &hist) };
            let mpc = if robust { Mpc::robust_mpc_hm() } else { Mpc::mpc_hm() };
            let mut scratch = MpcScratch::new();
            let fast = mpc.plan_with(&c, throughput, &mut scratch);
            let slow = mpc.plan_reference(&c, throughput);
            proptest::prop_assert_eq!(
                fast, slow,
                "h={} rungs={} buffer={} throughput={} dup={}",
                h, n_rungs, buffer, throughput, dup
            );
            // Reusing the warmed scratch must not change the answer.
            let again = mpc.plan_with(&c, throughput, &mut scratch);
            proptest::prop_assert_eq!(again, fast);
        }

        /// `choose` (predictor + scratch planner) agrees with the reference
        /// plan at the predicted throughput — end-to-end equivalence of the
        /// deployed path.
        #[test]
        fn choose_matches_reference_plan(
            buffer in 0.0f64..15.0,
            rate in 20_000.0f64..2_000_000.0,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let mut unit = move || rng.unit_f64();
            let m = random_menus(5, 10, &mut unit, false);
            let hist = history_at(rate);
            let c = ctx(buffer, &m, &hist);
            let mut mpc = Mpc::mpc_hm();
            let predicted = mpc.predict(&c);
            proptest::prop_assert_eq!(mpc.choose(&c), mpc.plan_reference(&c, predicted));
        }
    }

    #[test]
    fn buffer_bin_matches_round() {
        // Rounding is decided near half-integers of the grid: check every
        // f64 within ±2000 ulps of each one up to three bins past the last,
        // where the clamp takes over, plus the largest f64 below 0.5, whose
        // `x + 0.5` rounds up to 1.0 in naive implementations.  `BIN_W` is
        // a power of two, so `x · BIN_W / BIN_W == x` exactly.
        let check = |x: f64| {
            let want = (x.round() as usize).min(BUFFER_BINS - 1);
            assert_eq!(buffer_bin(x * BIN_W), want, "x={x:e}");
        };
        check(0.49999999999999994);
        for k in 0..BUFFER_BINS as u32 + 3 {
            let half = (f64::from(k) + 0.5).to_bits();
            for bits in half - 2000..=half + 2000 {
                check(f64::from_bits(bits));
            }
        }
    }

    #[test]
    fn duplicate_rungs_tie_break_to_first() {
        // All rungs identical → every score ties exactly; both planners must
        // return rung 0 (strict `>` keeps the first maximum).
        let m: Vec<ChunkMenu> = (0..5)
            .map(|i| ChunkMenu {
                index: i as u64,
                options: (0..6)
                    .map(|_| ChunkOption { size: 1.0e6 / 8.0 * CHUNK_SECONDS, ssim_db: 12.0 })
                    .collect(),
            })
            .collect();
        let h = history_at(1.0e6 / 8.0);
        let c = ctx(7.0, &m, &h);
        let mpc = Mpc::mpc_hm();
        assert_eq!(mpc.plan_reference(&c, 125_000.0), 0);
        assert_eq!(mpc.plan_with(&c, 125_000.0, &mut MpcScratch::new()), 0);
    }

    #[test]
    fn reset_stream_clears_robust_errors() {
        let m = menus(5);
        let h = history_at(3.5e6 / 8.0);
        let mut robust = Mpc::robust_mpc_hm();
        robust.predictor.note_prediction(1e9);
        robust.on_chunk_delivered(ChunkRecord { size: 1000.0, transmission_time: 1.0 });
        robust.reset_stream();
        let plain = Mpc::mpc_hm().choose(&ctx(6.0, &m, &h));
        assert_eq!(robust.choose(&ctx(6.0, &m, &h)), plain);
    }
}
