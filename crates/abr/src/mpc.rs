//! Model-predictive control (MPC-HM / RobustMPC-HM), Yin et al. \[43\], and
//! the value-iteration core it shares with Fugu's stochastic controller.
//!
//! MPC plans the rung sequence for the next [`crate::HORIZON`] chunks that
//! maximizes the total QoE of Eq. 1, given (a) the known sizes and SSIMs of
//! the upcoming chunks and (b) a throughput prediction — here the harmonic
//! mean of the last five samples (MPC-HM), optionally discounted by recent
//! prediction error (RobustMPC-HM).  After sending one chunk it replans
//! (receding horizon).
//!
//! # One planner core
//!
//! "MPC and Fugu even share most of their codebase" (§5.1): Fugu is this
//! MPC with a probabilistic transmission-time predictor (§4.4).  Both plan
//! by value iteration over a discretized buffer ([`BUFFER_BINS`] levels
//! [`BIN_W`] apart) through one core, [`ValueTables::solve`]: a forward
//! pass records the reachable spans, then for each step from the last one
//! back the planner fills its two `W` rows and the core runs the `M` fill
//! and the max-plus.  Each planner brings only its transfer, its `W` rows,
//! its combine and its root.
//!
//! - **Reachable spans.**  Like the deployed controller's forward recursion
//!   with memoization, the core visits only states the root can reach.  The
//!   root reads each rung's step-1 value at that rung's own post-transfer
//!   bins, and step s reads rung `prev`'s value at step s + 1 only at the
//!   images of step s's bins under `prev`'s own transfer, which the images of
//!   the span's two ends bound: the post-transfer bin is monotone.  `W` is
//!   computed over the hull of a step's spans, each rung's value over its
//!   own span only.  MPC's spans are per rung (its one point time per rung
//!   spreads them apart, so this nearly halves its max-plus cells); Fugu
//!   gives every rung the union, since per-rung spans save it about 12% of
//!   its cells and measured 2–3% slower.
//! - **Value-to-go from a [`Landing`]**, one per transfer time instead of
//!   the buffer rule per bin.  A span's bins drain to one bin, rise one bin
//!   per bin, or fill to the last bin, so Fugu reads one value, a
//!   contiguous slice and one value; MPC, whose spans are a few bins wide,
//!   reads each bin's landing, a clamped shift, and evaluates the rule per
//!   bin only near a tie (below).
//! - **A select max-plus.**  Each value folds the rungs in ascending order
//!   through `score > best ? score : best`, which is what a packed `max`
//!   computes.  The combine is the planner's: MPC-HM's reference groups
//!   `(m − µ·stall) + to_go`, Fugu `m + Σ p·(v − µ·stall)`, and regrouping
//!   either sum changes results.
//!
//! None of this moves a decision by a bit.  The spans skip only entries
//! nothing reads; each piece reads, bin for bin, the value the per-bin
//! index reads; and on finite scores the select equals `f64::max` up to the
//! sign of an exact zero, which no comparison sees.
//!
//! # MPC's landing
//!
//! For a point time `t ≤ MAX_BUFFER_SECONDS`, let `c = (CHUNK_SECONDS − t)
//! / BIN_W` (`CHUNK_SECONDS` is 2.002 s, not 2).  The buffer rule
//! `buffer_bin(buffer_after(bin · BIN_W, t))` rounds `4 · ((bin · BIN_W −
//! t) + CHUNK_SECONDS)` (the drain clamped at 0, the result at the last
//! bin), and in floating point that differs from `bin + c` by less than
//! 1.5e-14: two roundings of values below 16 and one below 32, times 4.  So
//! away from ties the rule is `clamp(bin + ⌊c + ½⌋, buffer_bin(CHUNK_SECONDS),
//! BUFFER_BINS − 1)` at every bin: a drained piece, a rising shift, a full
//! piece.  Where `c + ½` lies within 1e-9 of an integer, bins may round
//! apart and the rising piece need not be a shift, so [`Landing::of`]
//! declines and MPC evaluates the rule bin by bin.  A time above
//! `MAX_BUFFER_SECONDS` drains every bin.  Reading the landing instead of
//! the rule at every bin plans about 1.5× faster on mixed contexts (0–15 s
//! buffers, 0.1–2.5 MB/s) and about 3% slower where every span is a bin or
//! two (12–13 s, 3–6 MB/s), on a 2-vCPU Xeon.

use crate::predictor::{HarmonicMean, RobustDiscount, ThroughputPredictor};
use crate::{Abr, AbrContext, ChunkRecord, HORIZON};
use puffer_media::qoe::{chunk_qoe, LAMBDA, MU};
use puffer_media::{ChunkMenu, CHUNK_SECONDS, MAX_BUFFER_SECONDS};
use std::ops::Range;

/// Buffer levels both planners discretize `[0, MAX_BUFFER_SECONDS]` into
/// (§4.4: "it discretizes Bᵢ into bins").
pub const BUFFER_BINS: usize = 61;

/// Width of one buffer bin: 0.25 s.  A power of two, so `bin as f64 *
/// BIN_W` and its division back by `BIN_W` are exact.
pub const BIN_W: f64 = MAX_BUFFER_SECONDS / (BUFFER_BINS - 1) as f64;

/// The grid's buffers, `bin · BIN_W`: a table, because a `usize → f64`
/// conversion per bin does not vectorize on the baseline target.
const GRID: [f64; BUFFER_BINS] = {
    let mut grid = [0.0; BUFFER_BINS];
    let mut bin = 0;
    while bin < BUFFER_BINS {
        grid[bin] = bin as f64 * BIN_W;
        bin += 1;
    }
    grid
};

/// Throughput assumed before any samples exist, bytes/s (0.4 Mbit/s).
/// Conservative, which is why every MPC variant starts at low quality on a
/// cold start (Fig. 9).
const COLD_START_THROUGHPUT: f64 = 50_000.0;

/// Nearest buffer bin to `buffer`: exactly `((buffer / BIN_W).round() as
/// usize).min(BUFFER_BINS - 1)`, the discretization both MPC and Fugu's
/// planner (§4.4) use, without the `round` libm call or a branch.  With `x
/// = buffer / BIN_W` and `i = ⌊x⌋`, `x − i` is exact for 0 ≤ x < 2⁵³, so
/// rounding half away from zero is `i + 1` exactly when `x − i ≥ 0.5`
/// (clamping `i` first changes nothing below the last bin); negative `x`
/// gives 0 like the saturating cast of a rounded negative.
#[inline]
pub fn buffer_bin(buffer: f64) -> usize {
    let x: f64 = buffer / BIN_W;
    let i = (x as usize).min(BUFFER_BINS - 1);
    (i + usize::from(x - i as f64 >= 0.5)).min(BUFFER_BINS - 1)
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

/// Where one transfer time leaves each buffer bin: bin `bin` lands on
/// `clamp(bin + shift, drained, BUFFER_BINS − 1)`, with `drained =
/// buffer_bin(CHUNK_SECONDS)`.  So the grid falls into three pieces, any of
/// them empty: bins below `rise` drain, bins from `rise` to `full` land one
/// bin further per bin, and bins from `full` on fill the buffer.
#[derive(Debug, Clone, Copy)]
pub struct Landing {
    shift: isize,
    rise: usize,
    full: usize,
}

impl Landing {
    /// The buffer rule under transfer time `t`, or `None` within 1e-9 of a
    /// rounding tie, where the rule must be evaluated bin by bin (see the
    /// module docs for the derivation and its bound).
    pub fn of(t: f64) -> Option<Landing> {
        // `⌊c + ½⌋` by truncation (no libm `floor` on the baseline target):
        // `c + ½ + 64` is positive for every `t ≤ MAX_BUFFER_SECONDS`.
        let y = (CHUNK_SECONDS - t) / BIN_W + 64.5;
        let shift = if t > MAX_BUFFER_SECONDS {
            -(BUFFER_BINS as isize)
        } else if (y - (y as isize) as f64 - 0.5).abs() < 0.5 - 1e-9 {
            y as isize - 64
        } else {
            return None;
        };
        let bins = BUFFER_BINS as isize;
        let rise = (buffer_bin(CHUNK_SECONDS) as isize + 1 - shift).clamp(0, bins);
        let full = (bins - 1 - shift).clamp(rise, bins);
        Some(Landing { shift, rise: rise as usize, full: full as usize })
    }

    /// The bin `bin` lands on.
    #[inline]
    pub fn at(self, bin: usize) -> usize {
        let drained = buffer_bin(CHUNK_SECONDS) as isize;
        (bin as isize + self.shift).clamp(drained, BUFFER_BINS as isize - 1) as usize
    }

    /// How many of `span`'s first bins drain, and how many after them
    /// rise; the rest fill the buffer.
    #[inline]
    pub fn pieces(self, span: Range<usize>) -> (usize, usize) {
        let rise = self.rise.clamp(span.start, span.end);
        (rise - span.start, self.full.clamp(span.start, span.end) - rise)
    }
}

/// The smallest range holding every non-empty span (empty if none is).
#[inline]
fn hull(spans: &[Range<usize>]) -> Range<usize> {
    let mut spans = spans.iter().filter(|span| !span.is_empty());
    let first = spans.next().cloned().unwrap_or(0..0);
    spans.fold(first, |hull, span| hull.start.min(span.start)..hull.end.max(span.end))
}

/// The value iteration both planners run, in flat tables reused across
/// decisions: rung-major with the buffer bin innermost — `value[prev·B +
/// bin]`, `rows[k][a·B + bin]`, `m[prev·R + a]`, `reach[step·R + prev]` —
/// so steady-state planning allocates nothing and the maximization runs
/// over contiguous bins.  Every entry a plan reads is written by that plan.
#[derive(Debug, Clone, Default)]
pub struct ValueTables {
    /// Value of each previous rung at each bin, for the step below.
    value: Vec<f64>,
    /// The table being built for this step (ping/pong partner of `value`).
    next_value: Vec<f64>,
    /// The value past the horizon: zero.
    zeros: Vec<f64>,
    /// The planner's two `W` rows per rung, which its combine reads.
    rows: [Vec<f64>; 2],
    /// Quality minus the λ·|Δssim| variation penalty per (prev, rung).
    m: Vec<f64>,
    /// Bins each step reads each previous rung's value at; step 0's are
    /// empty.
    reach: Vec<Range<usize>>,
}

impl ValueTables {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run the value iteration over `menus` (the plan's horizon) and return
    /// step 1's value table, `[prev·B + bin]`, for the planner's root (zero
    /// for a one-step horizon).
    ///
    /// - `image(step, span, spans)` writes as `spans[a]` the bins rung `a`'s
    ///   transfer at `step` takes the bins `span` to (the root's buffer when
    ///   `step` is 0), empty when it takes them nowhere.  A wider span is
    ///   also correct, only slower.
    /// - `fill_w(step, span, value, rows)` writes the rows `combine` reads,
    ///   for every rung over `span`, from `value`, the value table of the
    ///   step below (zero past the horizon).
    /// - `combine(m, x, y)` scores rung `a` from `m[prev][a]` and its rows.
    // lint: alloc-free — the tables grow once per shape change; warm plans are allocation-free per tests/alloc_gate.rs
    pub fn solve(
        &mut self,
        menus: &[ChunkMenu],
        n_rungs: usize,
        mut image: impl FnMut(usize, Range<usize>, &mut [Range<usize>]),
        mut fill_w: impl FnMut(usize, Range<usize>, &[f64], &mut [Vec<f64>; 2]),
        combine: impl Fn(f64, f64, f64) -> f64,
    ) -> &[f64] {
        let (horizon, n) = (menus.len(), n_rungs);
        for table in [&mut self.value, &mut self.next_value, &mut self.zeros] {
            table.resize(n * BUFFER_BINS, 0.0);
        }
        self.rows.iter_mut().for_each(|row| row.resize(n * BUFFER_BINS, 0.0));
        self.m.resize(n * n, 0.0);
        self.reach.clear();
        self.reach.resize(horizon * n, 0..0);
        // Forward pass.  Spans stay empty below a step nothing reads.
        let mut from = 0..0;
        for step in 1..horizon {
            if step > 1 && from.is_empty() {
                break;
            }
            let spans = self.reach.get_mut(step * n..(step + 1) * n).unwrap_or_default();
            image(step - 1, from, spans);
            from = hull(spans);
        }

        for (step, pair) in menus.windows(2).enumerate().rev().map(|(s, p)| (s + 1, p)) {
            let spans = self.reach.get(step * n..(step + 1) * n).unwrap_or_default();
            let value = if step + 1 < horizon { &self.value } else { &self.zeros };
            fill_w(step, hull(spans), value, &mut self.rows);
            let [prev_menu, menu] = pair else { continue };
            for (prev, popt) in prev_menu.options.iter().enumerate() {
                let m_row = self.m.get_mut(prev * n..(prev + 1) * n).unwrap_or_default();
                for (ma, opt) in m_row.iter_mut().zip(&menu.options) {
                    *ma = opt.ssim_db - LAMBDA * (opt.ssim_db - popt.ssim_db).abs();
                }
            }
            // The max-plus: each rung's value over its own span, rungs in
            // ascending order, bins innermost.  Each span is copied out:
            // read through `self.reach`, it would be reloaded after every
            // store to `next_value`, which costs Fugu's plan about 4%.
            let [xs, ys] = &self.rows;
            let tables = self.next_value.chunks_exact_mut(BUFFER_BINS).zip(spans.iter().cloned());
            for (prev, (nv, span)) in tables.enumerate() {
                let nv = nv.get_mut(span.clone()).unwrap_or_default();
                nv.fill(f64::NEG_INFINITY);
                let m_row = self.m.get(prev * n..(prev + 1) * n).unwrap_or_default();
                let rows = xs.chunks_exact(BUFFER_BINS).zip(ys.chunks_exact(BUFFER_BINS));
                for (&ma, (x, y)) in m_row.iter().zip(rows) {
                    let x = x.get(span.clone()).unwrap_or_default();
                    let y = y.get(span.clone()).unwrap_or_default();
                    for ((best, &x), &y) in nv.iter_mut().zip(x).zip(y) {
                        let score = combine(ma, x, y);
                        *best = if score > *best { score } else { *best };
                    }
                }
            }
            std::mem::swap(&mut self.value, &mut self.next_value);
        }
        if horizon > 1 {
            &self.value
        } else {
            &self.zeros
        }
    }

    /// Each rung's step-1 span and value row after a [`ValueTables::solve`]
    /// of `n_rungs` rungs (none for a one-step horizon).  For tests.
    #[doc(hidden)]
    pub fn step_one(&self, n_rungs: usize) -> impl Iterator<Item = (Range<usize>, &[f64])> {
        let spans = self.reach.get(n_rungs..2 * n_rungs).unwrap_or_default();
        spans.iter().cloned().zip(self.value.chunks_exact(BUFFER_BINS))
    }

    /// Fill every value and `W` entry with a huge finite value, so that a
    /// plan reading an entry it did not write wins the max and flips its
    /// decision.  For tests.
    #[doc(hidden)]
    pub fn poison(&mut self, n_rungs: usize) {
        let [x, y] = &mut self.rows;
        for table in [&mut self.value, &mut self.next_value, x, y] {
            table.clear();
            table.resize(n_rungs * BUFFER_BINS, f64::MAX / 4.0);
        }
    }
}

/// Reusable tables for [`Mpc::plan_with`]: the shared core's, with `µ ·
/// stall` and the value-to-go after the transfer as its two rows, and each
/// (step, rung)'s transfer time, `times[step·R + a]`.
#[derive(Debug, Clone, Default)]
pub struct MpcScratch {
    tables: ValueTables,
    times: Vec<f64>,
}

impl MpcScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// MPC-HM (and RobustMPC-HM with `robust = true`).
#[derive(Clone)]
pub struct Mpc {
    /// Apply RobustMPC's error discount to the predictor.
    robust: bool,
    predictor: RobustDiscount<HarmonicMean>,
    /// Planner tables reused across decisions (planning is allocation-free
    /// after the first chunk).  Not per-stream state: every entry is fully
    /// rewritten by each plan, so `reset_stream` leaves it alone.
    scratch: MpcScratch,
    name: &'static str,
}

impl std::fmt::Debug for Mpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mpc").field("robust", &self.robust).field("name", &self.name).finish()
    }
}

impl Mpc {
    fn build(robust: bool, name: &'static str) -> Self {
        Mpc {
            robust,
            predictor: RobustDiscount::new(HarmonicMean),
            scratch: MpcScratch::new(),
            name,
        }
    }

    /// The paper's MPC-HM.
    pub fn mpc_hm() -> Self {
        Mpc::build(false, "MPC-HM")
    }

    /// The paper's RobustMPC-HM.
    pub fn robust_mpc_hm() -> Self {
        Mpc::build(true, "RobustMPC-HM")
    }

    fn predict(&self, ctx: &AbrContext) -> f64 {
        let p = if self.robust {
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
    /// Runs the [`ValueTables`] core with the transmission time `t = size /
    /// throughput` of each (step, rung), computed once per plan, one
    /// [`Landing`] per (step, rung) for the value-to-go, and the rows
    /// `µ·(t − buffer)⁺` and value-to-go combined as `(m − µ·stall) +
    /// to_go`: the reference's `((ssim − λ·|Δ|) − µ·stall) + to_go` with the
    /// quality folded into `m`.
    ///
    /// Decision equivalence with the naive reference value iteration (kept
    /// beside the tests) is exact, not approximate: every floating-point
    /// expression keeps the reference's operand association, and the DP
    /// values are bit-identical (see the module docs); the step-0 argmax
    /// scans rungs in the same order with the same strict `>` (first max
    /// wins), so the chosen rung matches the reference on ties too.  Pinned
    /// by the property tests below.
    // lint-root: panic-free, alloc-free
    // lint: panic-free — every index is a step/rung of the horizon's menus or a bin below BUFFER_BINS
    // lint: alloc-free — the transfer times grow once to horizon*rungs; warm calls are allocation-free per tests/alloc_gate.rs
    pub fn plan_with(&self, ctx: &AbrContext, throughput: f64, scratch: &mut MpcScratch) -> usize {
        if ctx.lookahead.is_empty() {
            return 0;
        }
        let menus = &ctx.lookahead[..HORIZON.min(ctx.lookahead.len())];
        let (bins, n_rungs) = (BUFFER_BINS, menus[0].n_rungs());
        scratch.times.resize(menus.len() * n_rungs, 0.0);
        for (step, menu) in menus.iter().enumerate() {
            let row = &mut scratch.times[step * n_rungs..(step + 1) * n_rungs];
            for (t, opt) in row.iter_mut().zip(&menu.options) {
                *t = opt.size / throughput;
            }
        }
        let times = &scratch.times;
        let value = scratch.tables.solve(
            menus,
            n_rungs,
            |step, from, spans| {
                let (lo, hi) = if step == 0 {
                    (ctx.buffer, ctx.buffer)
                } else {
                    (GRID[from.start], GRID[from.end - 1])
                };
                for (span, &t) in spans.iter_mut().zip(&times[step * n_rungs..]) {
                    *span = buffer_bin(buffer_after(lo, t))..buffer_bin(buffer_after(hi, t)) + 1;
                }
            },
            |step, span, value, [mu_stall, to_go]| {
                for (a, &t) in times[step * n_rungs..(step + 1) * n_rungs].iter().enumerate() {
                    let row = a * bins..(a + 1) * bins;
                    let landing = Landing::of(t);
                    let value = &value[row.clone()];
                    let ms = mu_stall[row.clone()][span.clone()].iter_mut();
                    let tg = to_go[row][span.clone()].iter_mut();
                    for ((ms, tg), bin) in ms.zip(tg).zip(span.clone()) {
                        let buffer = GRID[bin];
                        *ms = MU * (t - buffer).max(0.0);
                        *tg = value[match landing {
                            Some(landing) => landing.at(bin),
                            None => buffer_bin(buffer_after(buffer, t)),
                        }];
                    }
                }
            },
            |ma, mu_stall, to_go| (ma - mu_stall) + to_go,
        );

        // Step 0: the real buffer and the real previous chunk — O(rungs),
        // evaluated exactly as the reference does.
        let mut best_rung = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (a, (opt, &t)) in menus[0].options.iter().zip(times).enumerate() {
            let stall = (t - ctx.buffer).max(0.0);
            let q = chunk_qoe(opt.ssim_db, ctx.prev_ssim_db, stall);
            let score = q + value[a * bins + buffer_bin(buffer_after(ctx.buffer, t))];
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

    /// `Landing::of(t)` either lands every bin where the buffer rule does,
    /// also when read as the pieces of `span`, or declines within 1e-9 of a
    /// rounding tie `CHUNK_SECONDS − (m + ½)·BIN_W` (rule-sized bins apart
    /// from the shift).
    fn check_landing(t: f64, span: Range<usize>) {
        let rule = |bin: usize| buffer_bin(buffer_after(bin as f64 * BIN_W, t));
        let Some(landing) = Landing::of(t) else {
            let tie = ((CHUNK_SECONDS - t) / BIN_W - 0.5).round();
            let off = t - (CHUNK_SECONDS - (tie + 0.5) * BIN_W);
            assert!(
                t <= MAX_BUFFER_SECONDS && off.abs() < 1e-9,
                "t={t:e} declined {off:e} off a tie"
            );
            return;
        };
        for bin in 0..BUFFER_BINS {
            assert_eq!(landing.at(bin), rule(bin), "t={t:e} bin={bin}");
        }
        // Read as Fugu reads the pieces: the drained bins land where the
        // span's first bin does, the rising ones one bin apart from where
        // the first of them lands.
        let (drained, rising) = landing.pieces(span.clone());
        assert!(drained + rising <= span.len(), "t={t:e} span={span:?}");
        for (i, bin) in span.clone().enumerate() {
            let got = if i < drained {
                landing.at(span.start)
            } else if i < drained + rising {
                landing.at(span.start + drained) + (i - drained)
            } else {
                BUFFER_BINS - 1
            };
            assert_eq!(got, rule(bin), "t={t:e} span={span:?} bin={bin}");
        }
    }

    #[test]
    fn landing_matches_the_buffer_rule_near_ties() {
        // Every tie inside [0, MAX_BUFFER_SECONDS] and ±1000 ulps around it,
        // each over the whole grid; plus the edges of the time range.
        let mut declined = 0;
        for m in -52..=7 {
            let tie = CHUNK_SECONDS - (f64::from(m) + 0.5) * BIN_W;
            for ulps in -1000i64..=1000 {
                let t = f64::from_bits((tie.to_bits() as i64 + ulps) as u64);
                check_landing(t, 0..BUFFER_BINS);
                declined += usize::from(Landing::of(t).is_none());
            }
        }
        assert!(declined > 0, "no time near a tie was declined");
        for t in [0.0, MAX_BUFFER_SECONDS, MAX_BUFFER_SECONDS.next_up(), f64::INFINITY] {
            check_landing(t, 0..BUFFER_BINS);
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
            scratch.tables.poison(n_rungs);
            let fast = mpc.plan_with(&c, throughput, &mut scratch);
            let slow = mpc.plan_reference(&c, throughput);
            proptest::prop_assert_eq!(
                fast, slow,
                "h={} rungs={} buffer={} throughput={} dup={}",
                h, n_rungs, buffer, throughput, dup
            );
            // Reusing the warmed scratch must not change the answer.
            scratch.tables.poison(n_rungs);
            let again = mpc.plan_with(&c, throughput, &mut scratch);
            proptest::prop_assert_eq!(again, fast);
        }

        /// [`Landing::of`] reproduces the buffer rule at all 61 bins, through
        /// `at` and through `pieces` over a random span, for random transfer
        /// times and times past `MAX_BUFFER_SECONDS`.
        #[test]
        fn landing_matches_the_buffer_rule(
            t in 0.0f64..MAX_BUFFER_SECONDS,
            late in MAX_BUFFER_SECONDS..1e6,
            lo in 0..BUFFER_BINS,
            len in 0..BUFFER_BINS + 1,
        ) {
            let span = lo..(lo + len).min(BUFFER_BINS);
            check_landing(t, span.clone());
            check_landing(late, span);
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
