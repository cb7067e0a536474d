//! The worker's session scheduler, with cross-stream batched TTP inference.
//!
//! Every session a worker claims is admitted to its [`BatchRunner`] and runs
//! through one contained function, [`step`].  Sessions of Fugu-family arms
//! stop at each chunk decision and wait in the worker's *wave* (the
//! [`SessionRun`] state machine holds them there); every other session runs
//! to its end in the step that admits it.
//!
//! One Fugu chunk decision queries the TTP `horizon × rungs` times; a stream
//! planning alone cycles all five step-nets' weights through cache per
//! decision.  The wave instead answers all of its waiting decisions per
//! round: for every lookahead step, the staged decisions of every session in
//! the wave become one `(streams · rungs) × features` forward pass through
//! that step's network ([`Ttp::predict_time_distributions_batched_into`]),
//! so each weight matrix is streamed through cache once per round instead of
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
//! Containment: a panic inside [`step`], injected by the fault plan or real,
//! unwinds only its session, which retires with the number of chunk
//! decisions it made.  The shared batched forward pass runs outside every
//! session's step, so a panic there still unwinds the worker.

use crate::experiment::ExperimentConfig;
use crate::faults::InjectedPanic;
use crate::scheme::SchemeSpec;
use crate::session::{SessionOutcome, SessionRun};
use crate::stream::StreamConfig;
use crate::user::UserModel;
use fugu::{PlanScratch, StochasticMpc, Ttp, TtpBatchQuery, TtpScratch, N_BINS};
use puffer_abr::{Abr, ChunkRecord};
use puffer_net::TcpInfo;
use puffer_trace::TraceBank;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Wave size: sessions a worker keeps in flight at once.  Large enough that
/// a full batch row count (`sessions × rungs`) dwarfs per-pass overhead,
/// small enough that per-session state (connection, buffers, planner
/// scratch) stays cache-resident.
pub(crate) const MAX_ACTIVE: usize = 64;

/// A retired session: `(spec index, arm, outcome)`, where the outcome is
/// `Err(decisions)` when the session unwound after making that many chunk
/// decisions.
pub(crate) type Retired = (usize, usize, Result<SessionOutcome, u32>);

/// One admitted session.
struct ActiveSession {
    /// Position in the day's spec list (aggregation order).
    index: usize,
    arm: usize,
    run: SessionRun,
    /// This session's own instance of its arm's ABR.
    abr: Box<dyn Abr>,
    /// Planner tables for this session's staged decision; reused across
    /// sessions via the spare list.
    scratch: PlanScratch,
    /// Chunk decisions committed so far.
    decisions: u32,
    /// The fault plan's injected panic fires as the decision after this
    /// many is staged.
    panic_after: Option<u32>,
    /// A staged decision waits on the round's batched TTP pass.
    waiting: bool,
}

/// Run one session, under `catch_unwind`, until it stages a decision that
/// waits for the next batched TTP pass (`Ok(true)`) or ends (`Ok(false)`).
///
/// Sessions of a TTP arm (`planner` is `Some`) wait at every decision; the
/// next step answers it with `plan_from_dists` over the distributions the
/// batched pass filled in.  Any other session's own ABR answers every
/// decision, so one step runs it to its end.  An unwind, injected or real,
/// returns `Err` with the number of decisions the session made.
fn step(
    a: &mut ActiveSession,
    planner: Option<&ArmPlanner>,
    user: &UserModel,
) -> Result<bool, u32> {
    catch_unwind(AssertUnwindSafe(|| {
        if std::mem::take(&mut a.waiting) {
            let p = planner.expect("only sessions of TTP arms wait");
            let rung = p.planner.plan_from_dists(&a.run.context(), p.ttp.horizon(), &mut a.scratch);
            a.run.advance(rung, a.abr.as_mut(), user);
            a.decisions += 1;
        }
        while a.run.poll_decision(a.abr.as_mut(), user) {
            if a.panic_after == Some(a.decisions) {
                std::panic::panic_any(InjectedPanic);
            }
            if planner.is_some() {
                a.waiting = true;
                return true;
            }
            let rung = a.abr.choose(&a.run.context());
            a.run.advance(rung, a.abr.as_mut(), user);
            a.decisions += 1;
        }
        false
    }))
    .map_err(|_| a.decisions)
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
/// ended sessions.  No synchronization — each worker owns one.
pub(crate) struct BatchRunner<'a> {
    schemes: &'a [SchemeSpec],
    bank: &'a TraceBank,
    cfg: &'a ExperimentConfig,
    day: u32,
    /// Per arm: `Some` iff the arm is Fugu-family (its sessions wait on
    /// batched inference).
    planners: Vec<Option<ArmPlanner>>,
    /// Arms whose staged decisions merge into one batched pass: each inner
    /// vec holds the arm indices of one TTP-sharing group (`Arc::ptr_eq` on
    /// the arms' TTPs).
    ttp_groups: Vec<Vec<usize>>,
    /// Arm index → its TTP group (`None` for non-TTP arms).
    group_of: Vec<Option<usize>>,
    /// The wave: sessions waiting on the next batched TTP pass.
    active: Vec<ActiveSession>,
    /// Per arm: ABR instances of retired sessions, reused by later
    /// admissions (`reset_stream` readies one for each stream).
    spare_abrs: Vec<Vec<Box<dyn Abr>>>,
    /// Retired sessions' planner scratch, reused by later admissions.
    spare_scratch: Vec<PlanScratch>,
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
        schemes: &'a [SchemeSpec],
        bank: &'a TraceBank,
        cfg: &'a ExperimentConfig,
        day: u32,
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
            schemes,
            bank,
            cfg,
            day,
            planners,
            ttp_groups,
            group_of,
            active: Vec::new(),
            spare_abrs: schemes.iter().map(|_| Vec::new()).collect(),
            spare_scratch: Vec::new(),
            ttp_scratch: TtpScratch::default(),
            hist_flat: Vec::new(),
            infos: Vec::new(),
            sizes_flat: Vec::new(),
            flat_out: Vec::new(),
            group: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub(crate) fn has_room(&self) -> bool {
        self.active.len() < MAX_ACTIVE
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Begin session `index` and step it once: it joins the wave if it now
    /// waits on batched inference, and retires into `retired` otherwise.
    pub(crate) fn admit(
        &mut self,
        index: usize,
        arm: usize,
        session_id: u64,
        seed: u64,
        retired: &mut Vec<Retired>,
    ) {
        debug_assert!(self.has_room());
        let cfg = self.cfg;
        let stream_cfg = StreamConfig { expt_id: arm as u32, ..StreamConfig::default() };
        // Beginning a session samples its path; contain that like a step.
        let begun = catch_unwind(AssertUnwindSafe(|| {
            SessionRun::begin(self.bank, &cfg.user, cfg.cc, stream_cfg, session_id, seed)
        }));
        let Ok(run) = begun else {
            retired.push((index, arm, Err(0)));
            return;
        };
        let abr = self.spare_abrs[arm].pop().unwrap_or_else(|| self.schemes[arm].instantiate());
        self.active.push(ActiveSession {
            index,
            arm,
            run,
            abr,
            scratch: self.spare_scratch.pop().unwrap_or_default(),
            decisions: 0,
            panic_after: cfg.faults.session_panic_after(self.day, index as u64),
            waiting: false,
        });
        self.step_at(self.active.len() - 1, retired);
    }

    /// Step `active[i]`.  Returns whether it stays in the wave; otherwise
    /// it is swap-removed and retired into `retired`, handing its ABR and
    /// planner scratch back unless it unwound.
    fn step_at(&mut self, i: usize, retired: &mut Vec<Retired>) -> bool {
        let a = &mut self.active[i];
        let stepped = step(a, self.planners[a.arm].as_ref(), &self.cfg.user);
        if stepped == Ok(true) {
            return true;
        }
        let a = self.active.swap_remove(i);
        let outcome = stepped.map(|_| {
            self.spare_abrs[a.arm].push(a.abr);
            self.spare_scratch.push(a.scratch);
            a.run.finish()
        });
        retired.push((a.index, a.arm, outcome));
        false
    }

    /// One decision round: answer every waiting session's staged decision
    /// with one batched TTP pass per (TTP group, lookahead step), then step
    /// every session to its next waiting decision, retiring the ones that
    /// end or unwind into `retired`.
    pub(crate) fn round(&mut self, retired: &mut Vec<Retired>) {
        // Sessions of every arm in a group stage into the same flat buffers
        // and are answered by one batched pass per step-net.  Each query's
        // rows land in its own session's scratch, and the shared TTP is
        // read-only — so the merge only changes how many rows each forward
        // pass carries, never what any row computes.
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
        }

        // Every staged decision's distributions are in place.
        let mut i = 0;
        while i < self.active.len() {
            if self.step_at(i, retired) {
                i += 1;
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
