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
//!
//! Across workers, the [`DaySchedule`] hands out the day's sessions and moves
//! waiting sessions from a busy wave to an idle worker: between rounds every
//! waiting session holds a staged decision, its ABR and its planner scratch,
//! so it finishes the same in any worker's wave (`docs/BATCHING.md`,
//! "Scheduling across workers").

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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
pub(crate) struct ActiveSession {
    /// Position in the day's spec list (aggregation order).
    index: usize,
    arm: usize,
    run: SessionRun,
    /// This session's own instance of its arm's ABR.
    abr: Box<dyn Abr + Send>,
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
/// ended sessions.  Each worker owns one; waiting sessions move between
/// runners only through the [`DaySchedule`].
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
    spare_abrs: Vec<Vec<Box<dyn Abr + Send>>>,
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

    /// Between rounds: hand half of the wave to a parked worker, if there
    /// is one ([`DaySchedule::offer`]).
    pub(crate) fn share(&mut self, schedule: &DaySchedule<ActiveSession>) {
        schedule.offer(&mut self.active);
    }

    /// Take over sessions another worker's wave handed over; each joins
    /// this wave with its staged decision and is answered by the next round.
    pub(crate) fn adopt(&mut self, sessions: Vec<ActiveSession>) {
        self.active.extend(sessions);
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

/// Who runs which of the day's sessions: the claim counter, the idle
/// workers and the sessions handed to them, under one lock.
///
/// Workers [claim](DaySchedule::claim) the day's sessions in index order.  A
/// worker whose claims are exhausted and whose wave is empty parks in
/// [`DaySchedule::park`] without spinning.  Between rounds a busy worker
/// [offers](DaySchedule::offer) half of its wave when a worker is parked; the
/// parked worker adopts it.  The day is over when every worker still
/// present is parked and no session waits to be adopted.  Each worker holds
/// an [`Attendance`] for the day: it counts as present from
/// [`DaySchedule::attend`] until the guard drops, on return or on unwind, so
/// neither a worker that panics nor one whose thread never started can leave
/// another parked forever.  A worker parks only once every session has been
/// claimed, so one that attends late has nothing to claim and finds the day
/// over or the others still busy.
pub(crate) struct DaySchedule<T> {
    state: Mutex<ScheduleState<T>>,
    wake: Condvar,
}

struct ScheduleState<T> {
    /// The day's session count.
    sessions: usize,
    /// The next unclaimed session index.
    next: usize,
    /// Handed-over items waiting for a parked worker.
    pool: Vec<T>,
    /// Workers waiting in [`DaySchedule::park`].
    parked: usize,
    /// Workers that have attended and not departed.
    present: usize,
    /// Set once every present worker was parked with the pool empty.
    over: bool,
}

impl<T> DaySchedule<T> {
    /// A day of `sessions` sessions, none claimed and no worker present.
    pub(crate) fn new(sessions: usize) -> Self {
        let state = ScheduleState {
            sessions,
            next: 0,
            pool: Vec::new(),
            parked: 0,
            present: 0,
            over: false,
        };
        DaySchedule { state: Mutex::new(state), wake: Condvar::new() }
    }

    /// Every critical section is a few field updates that cannot unwind
    /// halfway, so a lock poisoned by a panicking worker is still sound.
    fn lock(&self) -> MutexGuard<'_, ScheduleState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Join the day; the returned guard departs when dropped.
    pub(crate) fn attend(&self) -> Attendance<'_, T> {
        self.lock().present += 1;
        Attendance(self)
    }

    /// The index of the next unclaimed session, or `None` once every
    /// session is claimed.
    pub(crate) fn claim(&self) -> Option<usize> {
        let mut s = self.lock();
        let i = s.next;
        (i < s.sessions).then(|| {
            s.next += 1;
            i
        })
    }

    /// Hand the back half of `wave` to a parked worker when one is parked,
    /// nothing is waiting for it yet and `wave` holds at least two items.
    pub(crate) fn offer(&self, wave: &mut Vec<T>) {
        if wave.len() < 2 {
            return;
        }
        let mut s = self.lock();
        if s.parked == 0 || !s.pool.is_empty() {
            return;
        }
        s.pool.extend(wave.drain(wave.len() - wave.len() / 2..));
        drop(s);
        self.wake.notify_one();
    }

    /// Wait for handed-over items to adopt (`Some`), or for the end of the
    /// day (`None`).
    pub(crate) fn park(&self) -> Option<Vec<T>> {
        let mut s = self.lock();
        s.parked += 1;
        loop {
            if !s.pool.is_empty() {
                s.parked -= 1;
                return Some(std::mem::take(&mut s.pool));
            }
            if s.over || s.parked == s.present {
                s.over = true;
                drop(s);
                self.wake.notify_all();
                return None;
            }
            s = self.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A worker's presence in a [`DaySchedule`]; dropping it departs and wakes
/// every parked worker to re-check whether the day is over.
pub(crate) struct Attendance<'h, T>(&'h DaySchedule<T>);

impl<T> Drop for Attendance<'_, T> {
    fn drop(&mut self) {
        self.0.lock().present -= 1;
        self.0.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use fugu::{Ttp, TtpConfig, TtpVariant};
    use puffer_stats::StreamSummary;
    use std::sync::mpsc;
    use std::time::Duration;

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

    /// Sessions in the hand-over test; session `PANICKY` unwinds as it
    /// stages its `PANIC_AFTER + 1`-th decision.
    const SESSIONS: usize = 6;
    const PANICKY: usize = 4;
    const PANIC_AFTER: u32 = 5;

    /// A retired session's outcome reduced to bits: every summary field of
    /// every stream, the session duration, and each stream's observation
    /// count; or the decision count of a quarantined session.
    fn outcome_bits(retired: &mut [Retired]) -> Vec<(usize, Result<Vec<u64>, u32>)> {
        retired.sort_unstable_by_key(|r| r.0);
        let summary_bits = |s: &StreamSummary| {
            let f = [
                s.startup_delay,
                s.watch_time,
                s.stall_time,
                s.mean_ssim_db,
                s.ssim_variation_db,
                s.first_chunk_ssim_db,
                s.mean_delivery_rate,
                s.total_bytes,
            ];
            f.iter().map(|x| x.to_bits()).chain([s.chunks as u64]).collect::<Vec<_>>()
        };
        retired
            .iter()
            .map(|(i, _, outcome)| {
                let bits = outcome.as_ref().map_err(|&d| d).map(|o| {
                    let mut bits = vec![o.total_time.to_bits()];
                    for stream in &o.streams {
                        bits.push(stream.observations.len() as u64);
                        bits.extend(stream.summary.as_ref().map(summary_bits).unwrap_or_default());
                    }
                    bits
                });
                (*i, bits)
            })
            .collect()
    }

    /// Admit every session of the hand-over test to `runner`.
    fn admit_all(runner: &mut BatchRunner<'_>, retired: &mut Vec<Retired>) {
        for i in 0..SESSIONS {
            runner.admit(i, 0, i as u64, 1000 + i as u64, retired);
        }
    }

    #[test]
    fn a_moved_session_finishes_as_if_it_never_moved() {
        let ttp = Ttp::new(TtpConfig { hidden: vec![8], ..TtpConfig::default() }, 3);
        let schemes = [SchemeSpec::fugu_frozen(ttp, TtpVariant::Full, "Fugu")];
        let cfg = ExperimentConfig {
            user: UserModel { intent_cap: 60.0, ..UserModel::default() },
            faults: FaultPlan::none().with_session_panic(0, PANICKY as u64, PANIC_AFTER),
            ..ExperimentConfig::default()
        };
        crate::faults::install_quiet_panic_hook();
        let bank = TraceBank::puffer();

        let mut alone = BatchRunner::new(&schemes, &bank, &cfg, 0);
        let mut expected = Vec::new();
        admit_all(&mut alone, &mut expected);
        while !alone.is_empty() {
            alone.round(&mut expected);
        }
        let expected = outcome_bits(&mut expected);
        assert_eq!(expected.len(), SESSIONS);
        assert_eq!(expected[PANICKY].1, Err(PANIC_AFTER), "the injected panic fires");

        for rounds_before in [1, 3] {
            for panicky_moves in [false, true] {
                let mut a = BatchRunner::new(&schemes, &bank, &cfg, 0);
                let mut b = BatchRunner::new(&schemes, &bank, &cfg, 0);
                let mut retired = Vec::new();
                admit_all(&mut a, &mut retired);
                for _ in 0..rounds_before {
                    a.round(&mut retired);
                }
                // `offer` hands over the back half of the wave: put the
                // panicking session where this case wants it.
                let at = a.active.iter().position(|s| s.index == PANICKY).expect("still waiting");
                let to = if panicky_moves { a.active.len() - 1 } else { 0 };
                a.active.swap(at, to);

                let wave = a.active.len();
                let counts = |runners: [&BatchRunner<'_>; 2]| {
                    let mut c: Vec<_> = runners
                        .iter()
                        .flat_map(|r| {
                            r.active.iter().map(|s| (s.index, s.decisions, s.panic_after))
                        })
                        .collect();
                    c.sort_unstable();
                    c
                };
                let before = counts([&a, &b]);
                let schedule = DaySchedule::new(SESSIONS);
                let _a_attends = schedule.attend();
                let adopted = std::thread::scope(|scope| {
                    let parked = scope.spawn(|| {
                        let _b_attends = schedule.attend();
                        schedule.park()
                    });
                    while schedule.lock().parked == 0 {
                        std::thread::yield_now();
                    }
                    a.share(&schedule);
                    parked.join().expect("parking never panics")
                });
                let adopted = adopted.expect("the parked worker adopts half the wave");
                assert_eq!((adopted.len(), a.active.len()), (wave / 2, wave - wave / 2));
                assert_eq!(adopted.iter().any(|s| s.index == PANICKY), panicky_moves);
                b.adopt(adopted);
                assert_eq!(counts([&a, &b]), before, "moved sessions keep their counts");
                while !a.is_empty() || !b.is_empty() {
                    for runner in [&mut a, &mut b] {
                        if !runner.is_empty() {
                            runner.round(&mut retired);
                        }
                    }
                }
                let case = format!("{rounds_before} rounds before, panicky moves: {panicky_moves}");
                assert_eq!(outcome_bits(&mut retired), expected, "{case}");
            }
        }
    }

    /// Wait up to 10 s for a parked worker's return on `rx`.  On a timeout,
    /// release the worker (so its scope can end) and fail.
    fn parked_return<R>(schedule: &DaySchedule<u32>, rx: &mpsc::Receiver<R>, case: &str) -> R {
        rx.recv_timeout(Duration::from_secs(10)).unwrap_or_else(|_| {
            schedule.offer(&mut vec![0, 0]);
            panic!("the parked worker was left waiting: {case}");
        })
    }

    #[test]
    fn an_unwinding_worker_never_leaves_a_parked_worker_waiting() {
        let schedule = DaySchedule::<u32>::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let schedule = &schedule;
            scope.spawn(move || {
                let _attendance = schedule.attend();
                tx.send(schedule.park()).ok();
            });
            let unwound = scope.spawn(|| {
                let _attendance = schedule.attend();
                while schedule.lock().parked == 0 {
                    std::thread::yield_now();
                }
                // A worker-level bug, unwinding without the panic report.
                std::panic::resume_unwind(Box::new("worker bug"));
            });
            assert!(unwound.join().is_err(), "the second worker unwinds");
            let woke = parked_return(schedule, &rx, "the other unwound");
            assert_eq!(woke, None, "the parked worker returns \"day over\"");
        });
    }

    #[test]
    fn a_worker_that_never_attends_cannot_hold_up_the_day() {
        // Two workers are spawned, but only one ever attends, as when the
        // OS refuses to start the other's thread.
        let schedule = DaySchedule::<u32>::new(3);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let schedule = &schedule;
            scope.spawn(move || {
                let _attendance = schedule.attend();
                let claimed: Vec<_> = std::iter::from_fn(|| schedule.claim()).collect();
                tx.send((claimed, schedule.park())).ok();
            });
            scope.spawn(|| {});
            let woke = parked_return(schedule, &rx, "a worker never attended");
            assert_eq!(woke, (vec![0, 1, 2], None), "it claims every session, then the day ends");
        });
        // A worker that attends after the day ended has nothing to claim
        // and nothing to adopt.
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let schedule = &schedule;
            scope.spawn(move || {
                let _attendance = schedule.attend();
                tx.send((schedule.claim(), schedule.park())).ok();
            });
            let woke = parked_return(schedule, &rx, "a worker attended late");
            assert_eq!(woke, (None, None));
        });
    }
}
