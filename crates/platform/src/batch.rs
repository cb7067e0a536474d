//! Cross-stream batched TTP inference for the RCT day loop.
//!
//! One Fugu chunk decision queries the TTP `horizon × rungs` times; a stream
//! planning alone cycles all five step-nets' weights through cache per
//! decision.  A [`BatchRunner`] instead holds a *wave* of concurrent
//! Fugu-family sessions suspended at their chunk decisions (the
//! [`SessionRun`] state machine) and answers all of them per round: for
//! every lookahead step, the staged decisions of every session in the wave
//! become one `(streams · rungs) × features` forward pass through that
//! step's network ([`Ttp::predict_time_distributions_batched_into`]), so
//! each weight matrix is streamed through cache once per round instead of
//! once per stream.
//!
//! Arms that share the same TTP snapshot (`Arc` identity — e.g. ablation
//! arms built with [`SchemeSpec::fugu_frozen_shared`]) are merged into one
//! *TTP group*: their sessions' staged decisions join the same batched pass
//! per step-net, growing the effective batch the blocked kernels were built
//! for.  Planning stays per-arm — each session's value iteration runs with
//! its own arm's controller configuration — only the network forward is
//! shared.
//!
//! Co-batching cannot change any session's distributions
//! (`docs/BATCHING.md`): every kernel in the forward pass is row-independent
//! with a fixed per-element operation order, so a query's rows are the same
//! in a wave as in a batch of one — pinned by the property test in
//! `tests/invariants.rs` and, end to end, by the golden fingerprints in
//! `tests/golden.rs`.
//!
//! Admission contract under fault injection: sessions carrying an injected
//! panic (`FaultPlan::session_panic_after`) are *never* admitted to a wave —
//! the worker runs them inline under `catch_unwind` so an unwinding session
//! can only take itself down, not the co-batched wave.  An inline Fugu
//! decision is a one-query batch through the same entry point, so routing a
//! session inline never changes its outcome.

use crate::experiment::{ArmAbrs, ExperimentConfig};
use crate::scheme::SchemeSpec;
use crate::session::{SessionOutcome, SessionRun};
use crate::stream::StreamConfig;
use crate::user::UserModel;
use fugu::{PlanScratch, StochasticMpc, Ttp, TtpBatchQuery, TtpScratch, N_BINS};
use puffer_abr::ChunkRecord;
use puffer_net::TcpInfo;
use puffer_trace::TraceBank;
use std::sync::Arc;

/// Wave size: sessions a worker keeps in flight at once.  Large enough that
/// a full batch row count (`sessions × rungs`) dwarfs per-pass overhead,
/// small enough that per-session state (connection, buffers, planner
/// scratch) stays cache-resident.
pub(crate) const MAX_ACTIVE: usize = 64;

/// One suspended session in the wave.
struct ActiveSession {
    /// Position in the day's spec list (aggregation order).
    index: usize,
    arm: usize,
    run: SessionRun,
    /// Planner tables for this session's staged decision; reused across
    /// sessions via the spare list.
    scratch: PlanScratch,
}

/// The planner half of a Fugu arm, shared read-only across the wave (the
/// TTP `Arc` is the same object [`SchemeSpec::instantiate`] clones).
struct ArmPlanner {
    ttp: Arc<Ttp>,
    planner: StochasticMpc,
}

/// Per-query slice bounds into the round's flat staging buffers.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Index into `active`.
    s: usize,
    /// Effective plan horizon of this session's decision.
    horizon: usize,
    n_rungs: usize,
    hist: (usize, usize),
    sizes: (usize, usize),
}

/// Group arms sharing the *same* TTP snapshot (`Arc` identity — the batching
/// key `SchemeSpec::fugu_planner` documents) so their staged decisions merge
/// into one batched pass.  Returns `(groups, arm → group index)`.  Workers
/// build a fresh runner every day, after any nightly retraining has swapped
/// an arm's `Arc`, so the groups always reflect the snapshots actually in
/// play.
fn ttp_groups_for(planners: &[Option<ArmPlanner>]) -> (Vec<Vec<usize>>, Vec<Option<usize>>) {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: Vec<Option<usize>> = vec![None; planners.len()];
    for arm in 0..planners.len() {
        let Some(ap) = planners[arm].as_ref() else { continue };
        let joined = groups.iter().position(|grp| {
            let lead = planners[grp[0]].as_ref().expect("groups hold batchable arms");
            Arc::ptr_eq(&lead.ttp, &ap.ttp)
        });
        match joined {
            Some(g) => {
                groups[g].push(arm);
                group_of[arm] = Some(g);
            }
            None => {
                group_of[arm] = Some(groups.len());
                groups.push(vec![arm]);
            }
        }
    }
    (groups, group_of)
}

/// Per-worker scheduler: admits sessions, runs decision rounds, retires
/// finished sessions.  No synchronization — each worker owns one.
pub(crate) struct BatchRunner<'a> {
    bank: &'a TraceBank,
    cfg: &'a ExperimentConfig,
    /// Per arm: `Some` iff the arm is Fugu-family (batchable).
    planners: Vec<Option<ArmPlanner>>,
    /// Arms whose staged decisions merge into one batched pass: each inner
    /// vec holds the arm indices of one TTP-sharing group (`Arc::ptr_eq` on
    /// the arms' TTPs).
    ttp_groups: Vec<Vec<usize>>,
    /// Arm index → its TTP group (`None` for non-batchable arms).
    group_of: Vec<Option<usize>>,
    active: Vec<ActiveSession>,
    /// Retired sessions' planner scratch, reused by later admissions.
    spare: Vec<PlanScratch>,
    ttp_scratch: TtpScratch,
    // Round staging buffers, reused across rounds (warm rounds allocate
    // only the short-lived borrow-carrying query vector).
    hist_flat: Vec<ChunkRecord>,
    infos: Vec<TcpInfo>,
    sizes_flat: Vec<f64>,
    flat_out: Vec<f64>,
    group: Vec<(usize, usize, usize)>,
    spans: Vec<Span>,
}

impl<'a> BatchRunner<'a> {
    pub(crate) fn new(
        schemes: &[SchemeSpec],
        bank: &'a TraceBank,
        cfg: &'a ExperimentConfig,
    ) -> Self {
        let planners: Vec<Option<ArmPlanner>> = schemes
            .iter()
            .map(|s| {
                s.fugu_planner()
                    .map(|(ttp, config)| ArmPlanner { ttp, planner: StochasticMpc::new(config) })
            })
            .collect();
        let (ttp_groups, group_of) = ttp_groups_for(&planners);
        BatchRunner {
            bank,
            cfg,
            planners,
            ttp_groups,
            group_of,
            active: Vec::new(),
            spare: Vec::new(),
            ttp_scratch: TtpScratch::default(),
            hist_flat: Vec::new(),
            infos: Vec::new(),
            sizes_flat: Vec::new(),
            flat_out: Vec::new(),
            group: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether this arm's decisions can be answered by the batched planner.
    pub(crate) fn is_batchable(&self, arm: usize) -> bool {
        self.planners[arm].is_some()
    }

    pub(crate) fn has_room(&self) -> bool {
        self.active.len() < MAX_ACTIVE
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Add a session to the wave (it first runs at the next round).
    pub(crate) fn admit(&mut self, index: usize, arm: usize, session_id: u64, seed: u64) {
        debug_assert!(self.is_batchable(arm) && self.has_room());
        let stream_cfg = StreamConfig { expt_id: arm as u32, ..StreamConfig::default() };
        let run =
            SessionRun::begin(self.bank, &self.cfg.user, self.cfg.cc, stream_cfg, session_id, seed);
        let scratch = self.spare.pop().unwrap_or_default();
        self.active.push(ActiveSession { index, arm, run, scratch });
    }

    /// One decision round: poll every session to its next staged decision
    /// (retiring finished sessions into `finished` as
    /// `(spec index, arm, outcome)`), answer all staged decisions with one
    /// batched TTP pass per (arm, lookahead step), then commit every
    /// session's chosen rung.
    pub(crate) fn round(
        &mut self,
        pool: &mut ArmAbrs<'_>,
        user: &UserModel,
        finished: &mut Vec<(usize, usize, SessionOutcome)>,
    ) {
        // --- poll / retire ---
        let mut i = 0;
        while i < self.active.len() {
            let a = &mut self.active[i];
            if a.run.poll_decision(pool.get(a.arm), user) {
                i += 1;
            } else {
                let a = self.active.swap_remove(i);
                self.spare.push(a.scratch);
                finished.push((a.index, a.arm, a.run.finish()));
            }
        }

        // --- batched TTP fill + plan + advance, TTP group by TTP group ---
        // Sessions of every arm in a group stage into the same flat buffers
        // and are answered by one batched pass per step-net.  Within each
        // arm the sessions keep their `active`-order relative order (the
        // same order the old per-arm loop used), and different arms touch
        // disjoint pooled ABRs, per-session scratch, and a read-only shared
        // TTP — so the merge only changes how many rows each forward pass
        // carries, never what any row computes.
        for g in 0..self.ttp_groups.len() {
            self.group.clear();
            for s in 0..self.active.len() {
                let arm = self.active[s].arm;
                if self.group_of[arm] != Some(g) {
                    continue;
                }
                let (h, nr) = {
                    let ctx = self.active[s].run.context();
                    let ttp = &self.planners[arm].as_ref().expect("grouped arms are batchable").ttp;
                    (ttp.horizon().min(ctx.lookahead.len()), ctx.n_rungs())
                };
                self.group.push((s, h, nr));
            }
            if self.group.is_empty() {
                continue;
            }
            let max_h = self.group.iter().map(|&(_, h, _)| h).max().expect("non-empty");

            for step in 0..max_h {
                self.hist_flat.clear();
                self.infos.clear();
                self.sizes_flat.clear();
                self.spans.clear();
                for &(s, h, nr) in &self.group {
                    if step >= h {
                        continue;
                    }
                    let ctx = self.active[s].run.context();
                    let h0 = self.hist_flat.len();
                    self.hist_flat.extend_from_slice(ctx.history);
                    let z0 = self.sizes_flat.len();
                    self.sizes_flat.extend(ctx.lookahead[step].options.iter().map(|o| o.size));
                    // `fill_dists` writes `lookahead[step]`'s sizes into a
                    // `n_rungs`-wide slot; a ragged ladder would trip its
                    // length assert, so mirror that contract.
                    assert_eq!(self.sizes_flat.len() - z0, nr, "ladder width varies by step");
                    self.infos.push(ctx.tcp_info);
                    self.spans.push(Span {
                        s,
                        horizon: h,
                        n_rungs: nr,
                        hist: (h0, self.hist_flat.len()),
                        sizes: (z0, self.sizes_flat.len()),
                    });
                }
                if self.spans.is_empty() {
                    continue;
                }
                let total_rows = self.sizes_flat.len();
                self.flat_out.resize(total_rows * N_BINS, 0.0);
                let queries: Vec<TtpBatchQuery<'_>> = self
                    .spans
                    .iter()
                    .zip(&self.infos)
                    .map(|(sp, info)| TtpBatchQuery {
                        history: &self.hist_flat[sp.hist.0..sp.hist.1],
                        tcp_info: info,
                        proposed_sizes: &self.sizes_flat[sp.sizes.0..sp.sizes.1],
                    })
                    .collect();
                // Any group member's TTP is *the* group TTP (same `Arc`);
                // use the lead arm's.
                let lead = self.ttp_groups[g][0];
                let ttp = &self.planners[lead].as_ref().expect("grouped arms are batchable").ttp;
                ttp.predict_time_distributions_batched_into(
                    step,
                    &queries,
                    &mut self.ttp_scratch,
                    &mut self.flat_out,
                );
                drop(queries);
                // Scatter each query's rows into its session's dists table
                // at this step's offset — the same slot `fill_dists` writes.
                let mut row0 = 0;
                for sp in &self.spans {
                    let n = sp.sizes.1 - sp.sizes.0;
                    let stride = sp.n_rungs * N_BINS;
                    let dists = self.active[sp.s].scratch.dists_for(sp.horizon, sp.n_rungs);
                    dists[step * stride..step * stride + n * N_BINS]
                        .copy_from_slice(&self.flat_out[row0 * N_BINS..(row0 + n) * N_BINS]);
                    row0 += n;
                }
            }

            // Every session's distributions are in place: run the value
            // iteration per session — with the session's *own* arm's
            // controller configuration (the ablation arms in a group differ
            // exactly here) — and commit the chosen rung.
            for gi in 0..self.group.len() {
                let (s, _, _) = self.group[gi];
                let arm = self.active[s].arm;
                let planner = self.planners[arm].as_ref().expect("grouped arms are batchable");
                let a = &mut self.active[s];
                let rung = {
                    let ctx = a.run.context();
                    planner.planner.plan_from_dists(&ctx, planner.ttp.horizon(), &mut a.scratch)
                };
                a.run.advance(rung, pool.get(arm), user);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fugu::{Ttp, TtpConfig, TtpVariant};

    fn planners_for(schemes: &[SchemeSpec]) -> Vec<Option<ArmPlanner>> {
        schemes
            .iter()
            .map(|s| {
                s.fugu_planner()
                    .map(|(ttp, config)| ArmPlanner { ttp, planner: StochasticMpc::new(config) })
            })
            .collect()
    }

    #[test]
    fn ttp_groups_follow_arc_identity() {
        let shared = Arc::new(Ttp::new(TtpConfig::default(), 1));
        let schemes = vec![
            SchemeSpec::Bba,
            SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::Full, "Fugu"),
            SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::PointEstimate, "Point Estimate"),
            // Bit-equal weights but a fresh `Arc`: must NOT merge.
            SchemeSpec::fugu_frozen(Ttp::new(TtpConfig::default(), 1), TtpVariant::Full, "Copy"),
        ];
        let planners = planners_for(&schemes);

        let (groups, group_of) = ttp_groups_for(&planners);
        assert_eq!(groups, vec![vec![1, 2], vec![3]]);
        assert_eq!(group_of, vec![None, Some(0), Some(0), Some(1)]);
    }
}
