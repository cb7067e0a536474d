//! The randomized controlled trial (§3.4, §5, Fig. A1).
//!
//! Sessions are randomized among arms with users blinded to the assignment;
//! each simulated day's sessions run in parallel (one deterministic seed per
//! session, so thread scheduling cannot change results), telemetry is
//! aggregated into the in-situ training dataset, and at the end of each day
//! any Fugu arm marked for daily retraining gets a freshly trained TTP warm-
//! started from yesterday's weights (§4.3).  Exclusions are accounted in the
//! CONSORT style of Fig. A1.

use crate::archive::TelemetrySpool;
use crate::batch::{ActiveSession, BatchRunner, DaySchedule, Retired};
use crate::faults::{
    observation_is_finite, poison_observations, DegradeAction, FaultPlan, Incident, IncidentKind,
    ModelOutage,
};
use crate::scheme::SchemeSpec;
use crate::session::{SessionOutcome, STREAM_ID_STRIDE};
use crate::stream::QuitReason;
use crate::user::UserModel;
use crate::MIN_CONSIDERED_WATCH;
use fugu::{
    train, validate_retrained, Dataset, GateVerdict, RetrainGate, TrainConfig, Ttp, TtpVariant,
};
use puffer_net::CongestionControl;
use puffer_stats::StreamSummary;
use puffer_trace::TraceBank;
use rand::Rng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// CONSORT-style stream accounting for one arm (Fig. A1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsortCounts {
    /// Sessions randomized to this arm that completed the protocol.
    pub sessions: usize,
    /// Streams started.
    pub streams: usize,
    /// Streams excluded: never began playing.
    pub never_began: usize,
    /// Streams excluded: watch time under 4 s.
    pub short_watch: usize,
    /// Streams entering the primary analysis.
    pub considered: usize,
    /// Sessions quarantined after a mid-run panic and excluded from every
    /// other count, statistic, and the training dataset (docs/ROBUSTNESS.md).
    pub quarantined: usize,
}

/// Results of one arm.
#[derive(Debug, Clone)]
pub struct SchemeArm {
    pub name: &'static str,
    pub expt_id: u32,
    /// Considered streams (≥ 4 s watch time).
    pub streams: Vec<StreamSummary>,
    /// Total time on the player per session, seconds (Fig. 10).
    pub session_durations: Vec<f64>,
    pub consort: ConsortCounts,
}

/// Experiment-wide configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Sessions randomized per simulated day (across all arms).
    pub sessions_per_day: usize,
    /// Number of simulated days.
    pub days: u32,
    /// Worker threads (1 = fully sequential).
    pub threads: usize,
    /// Deployment world (Puffer for the primary experiment, Emulation for
    /// Fig. 11's left panel).
    pub emulation_world: bool,
    /// Congestion control for all arms (§3.2: BBR in the primary analysis).
    pub cc: CongestionControl,
    /// Nightly TTP retraining configuration for `retrain_daily` Fugu arms;
    /// `None` disables retraining entirely.
    pub retrain: Option<TrainConfig>,
    /// Participant behaviour.
    pub user: UserModel,
    /// Paired (within-subjects) mode: run *every* session under *every* arm
    /// with identical user/path randomness.  A real deployment cannot do
    /// this — §5.3 notes that emulators "allow experimenters to run two
    /// different algorithms on the same conditions, eliminating the effect
    /// of the play of chance" — but a simulator can, and the figure
    /// binaries use it so orderings stabilize at laptop scale.  `false`
    /// gives the paper's honest between-subjects RCT.
    pub paired: bool,
    /// Spill telemetry to compacted `.puf` archives under this directory as
    /// sessions finish, one `telemetry_day<d>.puf` per simulated day
    /// (`docs/ARCHIVE.md`).  Workers write private spool files incrementally
    /// — a multi-month RCT never holds a day's telemetry rows in RAM — and
    /// the end-of-day merge orders blocks by session index, so the archives
    /// are byte-identical at any thread count.  `None` (the default) keeps
    /// telemetry out of the RCT entirely, as before.
    pub archive_sink: Option<std::path::PathBuf>,
    /// Deterministic fault-injection schedule (docs/ROBUSTNESS.md).  The
    /// default, [`FaultPlan::none`], injects nothing and leaves every output
    /// byte-identical to a run without the supervision layer.
    pub faults: FaultPlan,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 1,
            sessions_per_day: 200,
            days: 3,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            emulation_world: false,
            cc: CongestionControl::Bbr,
            retrain: Some(TrainConfig::default()),
            user: UserModel::default(),
            paired: false,
            archive_sink: None,
            faults: FaultPlan::none(),
        }
    }
}

/// Results of the whole RCT.
#[derive(Debug, Clone)]
pub struct RctResult {
    pub arms: Vec<SchemeArm>,
    /// All telemetry aggregated for training (day-tagged).
    pub dataset: Dataset,
    /// Total sessions randomized (CONSORT headline).
    pub total_sessions: usize,
    /// Per-day `.puf` archives written when
    /// [`ExperimentConfig::archive_sink`] is set (empty otherwise), in day
    /// order.  A day whose archive sink failed (degraded to CSV-only) has no
    /// entry.
    pub archive_paths: Vec<std::path::PathBuf>,
    /// Every degradation event the supervision layer absorbed, in
    /// deterministic order (docs/ROBUSTNESS.md).  Empty on a clean run.
    pub incidents: Vec<Incident>,
    /// The arm specs after the final day (nightly retrains applied), so
    /// callers can inspect which model each arm ended up serving.
    pub schemes: Vec<SchemeSpec>,
}

/// SplitMix64 — derive independent per-session seeds from the master seed.
fn mix_seed(master: u64, day: u32, index: usize, arm: usize) -> u64 {
    // `index` is usize::MAX for the assignment stream, so the +1 offsets
    // must wrap rather than overflow.
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul((day as u64).wrapping_add(1)))
        .wrapping_add(0x2545_f491_4f6c_dd1du64.wrapping_mul((index as u64).wrapping_add(1)))
        .wrapping_add(0x6a09_e667_f3bc_c909u64.wrapping_mul((arm as u64).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct SessionResult {
    arm: usize,
    summaries: Vec<StreamSummary>,
    session_duration: f64,
    consort: ConsortCounts,
    observations: Vec<Vec<fugu::ChunkObservation>>,
    /// `Some(decisions)`: the session panicked after making that many chunk
    /// decisions and was caught.  Exclude it from every statistic and record
    /// a quarantine incident at aggregation.
    quarantined: Option<u32>,
}

/// Collision-free session id: day in the high 32 bits, session index in the
/// low 32.  The previous `day * 1_000_000 + i` packing silently collided
/// once `sessions_per_day` reached one million — paper scale is 337,170
/// sessions over 118 days, so a long bank of simulated days at deployment
/// rates walks straight into ids that alias across days and corrupt the
/// telemetry joins keyed on `stream_id` (which embeds the session id).
fn session_id(day: u32, index: usize) -> u64 {
    assert!((index as u64) < u64::from(u32::MAX), "session index must fit in 32 bits");
    (u64::from(day) << 32) | index as u64
}

/// The day a stream ran on, read back from its id: the stream id embeds its
/// session id ([`STREAM_ID_STRIDE`]), whose high 32 bits are the day.
pub(crate) fn stream_day(stream_id: u64) -> u32 {
    ((stream_id / STREAM_ID_STRIDE) >> 32) as u32
}

/// Fold one session's outcome into the CONSORT accounting (Fig. A1).
fn account_session(arm: usize, out: SessionOutcome) -> SessionResult {
    let mut consort = ConsortCounts { sessions: 1, ..ConsortCounts::default() };
    let mut summaries = Vec::new();
    let mut observations = Vec::new();
    let session_duration = out.total_time;
    // Streams are consumed by value so each one's TTP observations move into
    // the result instead of being cloned.
    for s in out.streams {
        consort.streams += 1;
        match (&s.summary, s.quit) {
            (None, _) | (_, QuitReason::NeverBegan) => consort.never_began += 1,
            (Some(sum), _) => {
                if sum.watch_time < MIN_CONSIDERED_WATCH {
                    consort.short_watch += 1;
                } else {
                    consort.considered += 1;
                    summaries.push(*sum);
                }
            }
        }
        if !s.observations.is_empty() {
            observations.push(s.observations);
        }
    }
    SessionResult { arm, summaries, session_duration, consort, observations, quarantined: None }
}

/// The placeholder result of a session caught panicking after `decisions`
/// chunk decisions: counted only under [`ConsortCounts::quarantined`],
/// contributing no streams, duration, telemetry, or training observations.
fn quarantined_session(arm: usize, decisions: u32) -> SessionResult {
    SessionResult {
        arm,
        summaries: Vec::new(),
        session_duration: 0.0,
        consort: ConsortCounts::default(),
        observations: Vec::new(),
        quarantined: Some(decisions),
    }
}

/// One worker's account of its day, built up as its sessions retire.
struct WorkerDay<'c> {
    day: u32,
    faults: &'c FaultPlan,
    /// `(spec index, result)` pairs in completion order — the caller sorts
    /// by index before aggregating.
    results: Vec<(usize, SessionResult)>,
    /// The worker's telemetry spool while its archive sink is healthy.
    spool: Option<TelemetrySpool>,
    /// The spool's file, finished or abandoned after a write error;
    /// [`merge_archive`] removes it.
    spool_path: Option<PathBuf>,
    /// Archive-degradation incidents this worker hit (the caller sorts them
    /// by session coordinate, restoring scheduling independence).
    incidents: Vec<Incident>,
    /// Any archive-sink operation failed: the day degrades to CSV-only.
    archive_failed: bool,
}

impl<'c> WorkerDay<'c> {
    /// Start the day.  With the archive sink on, each worker spools
    /// telemetry to its own `.puf` file as sessions finish; the per-day
    /// merge in [`merge_archive`] restores session order.
    fn open(cfg: &'c ExperimentConfig, day: u32, worker: usize) -> Self {
        let mut w = WorkerDay {
            day,
            faults: &cfg.faults,
            results: Vec::new(),
            spool: None,
            spool_path: None,
            incidents: Vec::new(),
            archive_failed: false,
        };
        if let Some(dir) = &cfg.archive_sink {
            match TelemetrySpool::create(dir, &format!(".spool_day{day}_worker{worker}.puf")) {
                Ok(spool) => {
                    w.spool_path = Some(spool.path().to_owned());
                    w.spool = Some(spool);
                }
                Err(_) => w.archive_fault(None),
            }
        }
        w
    }

    /// Record an archive-sink failure — at `(arm, session)` when one was
    /// being spilled — and degrade the day to CSV-only.
    fn archive_fault(&mut self, at: Option<(usize, usize)>) {
        let (kind, action) = (IncidentKind::ArchiveIo, DegradeAction::CsvOnly);
        self.incidents.push(match at {
            Some((arm, i)) => Incident::on_session(self.day, arm, i, kind, action, 0),
            None => Incident::on_day(self.day, kind, action, 0),
        });
        self.archive_failed = true;
    }

    /// Spill a finished session's telemetry to the spool, tagged with its
    /// spec index, then fold it into the CONSORT accounting; a session that
    /// unwound is only quarantined.  A spill error abandons the spool:
    /// telemetry keeps flowing to the in-memory statistics, only the on-disk
    /// archive degrades.
    fn retire(&mut self, (i, arm, outcome): Retired) {
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(decisions) => {
                self.results.push((i, quarantined_session(arm, decisions)));
                return;
            }
        };
        if self.spill(i, &outcome).is_err() {
            self.archive_fault(Some((arm, i)));
            self.spool = None;
        }
        let mut res = account_session(arm, outcome);
        if self.faults.nan_telemetry_at(self.day, i as u64) {
            poison_observations(&mut res.observations);
        }
        self.results.push((i, res));
    }

    /// An injected archive fault at this coordinate surfaces as a synthetic
    /// I/O error, exactly like a real disk failure.
    fn spill(&mut self, i: usize, outcome: &SessionOutcome) -> std::io::Result<()> {
        let Some(spool) = self.spool.as_mut() else { return Ok(()) };
        if self.faults.archive_error_at(self.day, i as u64) {
            return Err(std::io::Error::other("injected archive-sink fault"));
        }
        spool.add_session(i as u64, outcome.streams.iter().map(|s| &s.telemetry))
    }

    /// End the day: finish the spool file.
    fn close(mut self) -> Self {
        if let Some(spool) = self.spool.take() {
            if spool.finish().is_err() {
                self.archive_fault(None);
            }
        }
        self
    }
}

/// One worker's day: claim sessions off the day's schedule and admit each
/// to the worker's [`BatchRunner`] until its wave is full or the day's
/// sessions run out, then run a decision round while the wave is not empty,
/// offering half of it to a parked worker after each round.  With its
/// claims exhausted and its wave empty, the worker parks until another
/// worker hands it sessions or the day is over.
///
/// Every session runs contained inside the wave's `step`: a panic (injected
/// or real) quarantines that session instead of killing the worker and the
/// day.  Archive-sink errors abandon the spool and mark the day
/// `archive_failed` instead of aborting.
fn run_day_worker<'c>(
    specs: &[(usize, u64, u64)],
    schedule: &DaySchedule<ActiveSession>,
    schemes: &[SchemeSpec],
    bank: &TraceBank,
    cfg: &'c ExperimentConfig,
    day: u32,
    worker: usize,
) -> WorkerDay<'c> {
    // Departs on return and on unwind, so a parked worker always wakes.
    let _attendance = schedule.attend();
    let mut account = WorkerDay::open(cfg, day, worker);
    let mut wave = BatchRunner::new(schemes, bank, cfg, day);
    let mut retired: Vec<Retired> = Vec::new();
    let mut exhausted = false;
    loop {
        if !exhausted && wave.has_room() {
            match schedule.claim() {
                Some(i) => {
                    let (arm, id, seed) = specs[i];
                    wave.admit(i, arm, id, seed, &mut retired);
                }
                None => exhausted = true,
            }
        } else if !wave.is_empty() {
            wave.round(&mut retired);
            wave.share(schedule);
        } else if let Some(sessions) = schedule.park() {
            wave.adopt(sessions);
        } else {
            break;
        }
        for r in retired.drain(..) {
            account.retire(r);
        }
    }
    account.close()
}

/// Run the RCT.  `schemes` defines the arms; Fugu arms flagged
/// `retrain_daily` are retrained after each simulated day on all telemetry
/// collected so far (14-day window, recency-weighted, warm-started) —
/// behind a validation gate with one bounded retry and rollback
/// (docs/ROBUSTNESS.md).
///
/// Every day runs the same seven stages, in order: `degrade`, `assign`,
/// `run_sessions`, `merge_archive`, `aggregate`, `retrain` and
/// `persist_incidents`.  The incident log is appended in that order too.
pub fn run_rct(mut schemes: Vec<SchemeSpec>, cfg: &ExperimentConfig) -> RctResult {
    assert!(!schemes.is_empty(), "need at least one arm");
    assert!(cfg.sessions_per_day > 0 && cfg.days > 0);
    let bank = if cfg.emulation_world { TraceBank::emulation() } else { TraceBank::puffer() };
    if cfg.faults.has_session_panics() {
        crate::faults::install_quiet_panic_hook();
    }

    let mut arms: Vec<SchemeArm> = schemes
        .iter()
        .enumerate()
        .map(|(i, s)| SchemeArm {
            name: s.name(),
            expt_id: i as u32,
            streams: Vec::new(),
            session_durations: Vec::new(),
            consort: ConsortCounts::default(),
        })
        .collect();
    // Day-0 snapshots back the Fugu → frozen-snapshot → BBA fallback ladder
    // when an arm's serving model is unavailable.
    let frozen_snapshots: Vec<Option<Arc<Ttp>>> =
        schemes.iter().map(|s| s.ttp().cloned()).collect();
    let mut dataset = Dataset::new();
    let mut total_sessions = 0usize;
    let mut archive_paths = Vec::new();
    let mut incidents: Vec<Incident> = Vec::new();

    for day in 0..cfg.days {
        let day_incident_start = incidents.len();
        let day_schemes = degrade(&schemes, &frozen_snapshots, &cfg.faults, day, &mut incidents);
        let specs = assign(cfg, day, schemes.len());
        total_sessions += specs.len();
        let workers = run_sessions(&specs, &day_schemes, &bank, cfg, day);
        let (results, day_archive) = merge_archive(workers, cfg, day, &mut incidents);
        aggregate(results, day, &mut arms, &mut dataset, &mut incidents);
        retrain(&mut schemes, &dataset, cfg, day, &mut incidents);
        persist_incidents(day_archive.as_deref(), &incidents[day_incident_start..]);
        archive_paths.extend(day_archive);
    }

    // The deterministic incident log lands next to the archives.  Nothing is
    // written on a clean zero-fault run, keeping its outputs byte-identical
    // to a build without the supervision layer.
    if let Some(dir) = &cfg.archive_sink {
        if !cfg.faults.is_empty() || !incidents.is_empty() {
            std::fs::write(dir.join("incidents.csv"), crate::faults::incidents_csv(&incidents))
                .ok();
        }
    }

    RctResult { arms, dataset, total_sessions, archive_paths, incidents, schemes }
}

/// Stage 1, the degradation ladder: an arm whose serving model is
/// unavailable today falls back to its `frozen` day-0 snapshot, and if that
/// is unavailable too, to BBA.  Returns the day's specs: clones of the live
/// `schemes` (Arc identity preserved, so batching groups are unchanged),
/// which stay the retraining target.
fn degrade(
    schemes: &[SchemeSpec],
    frozen: &[Option<Arc<Ttp>>],
    faults: &FaultPlan,
    day: u32,
    incidents: &mut Vec<Incident>,
) -> Vec<SchemeSpec> {
    let mut day_schemes = schemes.to_vec();
    for (a, spec) in day_schemes.iter_mut().enumerate() {
        let Some(outage) = faults.model_outage(day, a as u32) else {
            continue;
        };
        let &mut SchemeSpec::Fugu { variant, label, retrain_daily, .. } = spec else {
            continue; // only Fugu arms carry a servable model
        };
        let (served, action, step) = match outage {
            ModelOutage::Primary => {
                let Some(ttp) = &frozen[a] else {
                    continue;
                };
                let ttp = ttp.clone();
                (
                    SchemeSpec::Fugu { ttp, variant, label, retrain_daily },
                    DegradeAction::ServedFrozen,
                    1,
                )
            }
            ModelOutage::PrimaryAndFrozen => (SchemeSpec::Bba, DegradeAction::ServedBba, 2),
        };
        *spec = served;
        incidents.push(Incident::on_arm(day, a, IncidentKind::ModelUnavailable, action, step));
    }
    day_schemes
}

/// Stage 2, blinded randomization: one `(arm, session id, seed)` per
/// session, in session-index order.  Arm assignment depends only on the
/// seed stream, never on the user or path.  The session's own randomness
/// (user intent, path, trace, content) is seeded *without* the arm — common
/// random numbers, so identical sessions landing in different arms differ
/// only through the algorithm's decisions.
fn assign(cfg: &ExperimentConfig, day: u32, n_arms: usize) -> Vec<(usize, u64, u64)> {
    if cfg.paired {
        // Within-subjects: every session under every arm.
        (0..cfg.sessions_per_day)
            .flat_map(|i| (0..n_arms).map(move |arm| (arm, i)))
            .map(|(arm, i)| (arm, session_id(day, i), mix_seed(cfg.seed, day, i, 0)))
            .collect()
    } else {
        let mut assign_rng =
            rand::rngs::StdRng::seed_from_u64(mix_seed(cfg.seed, day, usize::MAX, 0));
        (0..cfg.sessions_per_day)
            .map(|i| {
                let arm = assign_rng.random_range(0..n_arms);
                (arm, session_id(day, i), mix_seed(cfg.seed, day, i, 0))
            })
            .collect()
    }
}

/// Stage 3: run the day's sessions on scoped workers, each claiming specs
/// into its own wave ([`run_day_worker`]).  Workers claim specs in index
/// order off the day's [`DaySchedule`], which balances the sessions that
/// run to their end when admitted.  It cannot balance a wave: a worker
/// claims its share of waiting sessions before its first round, and their
/// heavy-tailed lengths leave one wave running long after the other has
/// emptied.  So a worker with nothing left parks, and a busy worker hands it
/// half of its wave between rounds ([`DaySchedule::offer`]).  Which worker
/// runs (and retires) which session is therefore scheduling-dependent — but
/// every session is a pure function of its seed, [`aggregate`] folds results
/// back in session-index order, and the archive merge orders spooled blocks
/// by session, so the output is deterministic and thread-count-independent.
///
/// `cfg.threads` is an upper bound, not a demand: oversubscribing the
/// machine's cores costs real time on this pure-CPU workload (context
/// switches, and each extra worker splits the batch wave and carries its
/// own spare ABRs) while results are thread-count-independent, so capping at
/// the available parallelism is observationally free.
fn run_sessions<'c>(
    specs: &[(usize, u64, u64)],
    schemes: &[SchemeSpec],
    bank: &TraceBank,
    cfg: &'c ExperimentConfig,
    day: u32,
) -> Vec<WorkerDay<'c>> {
    let hw = std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZero::get);
    let n_workers = cfg.threads.min(hw).min(specs.len()).max(1);
    let schedule = &DaySchedule::new(specs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                scope.spawn(move || run_day_worker(specs, schedule, schemes, bank, cfg, day, w))
            })
            .collect();
        // A panic escaping here is a worker-level bug, not a session
        // failure — sessions are isolated inside the worker.
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// Stage 4: collect the workers' session results (in completion order) and
/// archive incidents, and merge their spools into the day's archive, which
/// it returns.
///
/// Blocks are reordered by session index during the merge, so the merged
/// bytes are independent of which worker ran which session.  If *any*
/// worker's sink failed, the day's archive would be missing sessions
/// non-deterministically — so the whole day degrades to CSV-only
/// (deterministic at every thread count).  Every spool is removed either
/// way.
fn merge_archive(
    workers: Vec<WorkerDay>,
    cfg: &ExperimentConfig,
    day: u32,
    incidents: &mut Vec<Incident>,
) -> (Vec<(usize, SessionResult)>, Option<PathBuf>) {
    let archive_failed = workers.iter().any(|w| w.archive_failed);
    let mut results = Vec::new();
    let mut spools = Vec::new();
    let mut worker_incidents = Vec::new();
    for w in workers {
        results.extend(w.results);
        spools.extend(w.spool_path);
        worker_incidents.extend(w.incidents);
    }
    // Which worker hit an archive fault is scheduling-dependent; the
    // incident coordinates are not.  Sorting restores a deterministic log
    // for injected faults (coordinate-keyed); real faults keep their
    // coordinates but may legitimately vary across runs.
    worker_incidents.sort_unstable_by_key(|inc| {
        (inc.session, inc.arm, inc.kind.code(), inc.action.code(), inc.value)
    });
    incidents.extend(worker_incidents);

    let day_archive = match &cfg.archive_sink {
        Some(dir) if !archive_failed => {
            let path = dir.join(format!("telemetry_day{day}.puf"));
            if crate::archive_format::merge_spools(&spools, &path).is_ok() {
                Some(path)
            } else {
                incidents.push(Incident::on_day(
                    day,
                    IncidentKind::ArchiveIo,
                    DegradeAction::CsvOnly,
                    0,
                ));
                std::fs::remove_file(&path).ok();
                None
            }
        }
        _ => None,
    };
    for s in &spools {
        std::fs::remove_file(s).ok();
    }
    (results, day_archive)
}

/// Stage 5: fold the day's session results into the arms and the training
/// dataset in deterministic (session-index) order.  Quarantined sessions are
/// excluded here — identically at any thread count, because exclusion keys
/// on the session's spec index, not on which worker caught the panic.
/// Streams carrying non-finite telemetry features are kept in the QoE
/// statistics but dropped from the training dataset: one NaN would poison
/// the nightly retrain's scaler and every gradient after it.
fn aggregate(
    mut results: Vec<(usize, SessionResult)>,
    day: u32,
    arms: &mut [SchemeArm],
    dataset: &mut Dataset,
    incidents: &mut Vec<Incident>,
) {
    results.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(results.iter().enumerate().all(|(k, &(i, _))| k == i));
    for (i, r) in results {
        let arm = &mut arms[r.arm];
        if let Some(decisions) = r.quarantined {
            arm.consort.quarantined += 1;
            incidents.push(Incident::on_session(
                day,
                r.arm,
                i,
                IncidentKind::SessionPanic,
                DegradeAction::Quarantined,
                u64::from(decisions),
            ));
            continue;
        }
        arm.streams.extend(r.summaries);
        arm.session_durations.push(r.session_duration);
        arm.consort.sessions += r.consort.sessions;
        arm.consort.streams += r.consort.streams;
        arm.consort.never_began += r.consort.never_began;
        arm.consort.short_watch += r.consort.short_watch;
        arm.consort.considered += r.consort.considered;
        for stream_obs in r.observations {
            if stream_obs.iter().all(observation_is_finite) {
                dataset.add_stream(day, stream_obs);
            } else {
                incidents.push(Incident::on_session(
                    day,
                    r.arm,
                    i,
                    IncidentKind::BadTelemetry,
                    DegradeAction::ObservationsDropped,
                    stream_obs.len() as u64,
                ));
            }
        }
    }
}

/// Stage 6, nightly retraining (§4.3): warm start every `retrain_daily` arm
/// from today's weights, gated before the swap (docs/ROBUSTNESS.md).  A
/// candidate that fails the validation gate gets one bounded retry on an
/// independent RNG stream; if that fails too, the incumbent keeps serving.
fn retrain(
    schemes: &mut [SchemeSpec],
    dataset: &Dataset,
    cfg: &ExperimentConfig,
    day: u32,
    incidents: &mut Vec<Incident>,
) {
    let Some(train_cfg) = &cfg.retrain else {
        return;
    };
    for (a, spec) in schemes.iter_mut().enumerate() {
        if !spec.retrains_daily() {
            continue;
        }
        let Some(incumbent) = spec.ttp().cloned() else {
            incidents.push(Incident::on_arm(
                day,
                a,
                IncidentKind::RetrainSkipped,
                DegradeAction::SkippedRetrain,
                0,
            ));
            continue;
        };
        let gate = RetrainGate::default();
        let fault = cfg.faults.retrain_fault(day, a as u32);
        let mut accepted: Option<Ttp> = None;
        for attempt in 0..2u8 {
            let mut candidate: Ttp = (*incumbent).clone();
            // Attempt 0 uses the stream retrains have always used
            // (zero-fault identity); the retry draws an independent one so
            // the re-shuffle differs.
            let stream = if attempt == 0 { usize::MAX - 1 } else { usize::MAX - 2 };
            let mut rng = rand::rngs::StdRng::seed_from_u64(mix_seed(cfg.seed, day, stream, 7));
            if train(&mut candidate, dataset, day, train_cfg, &mut rng).is_none() {
                break; // empty window: nothing to retrain on
            }
            if let Some(f) = fault {
                if f.hits(attempt) {
                    crate::faults::corrupt_ttp(f.mode, &mut candidate);
                }
            }
            let verdict = validate_retrained(
                &candidate,
                &incumbent,
                dataset,
                day,
                train_cfg.window_days,
                &gate,
            );
            if verdict == GateVerdict::Pass {
                if attempt > 0 {
                    incidents.push(Incident::on_arm(
                        day,
                        a,
                        IncidentKind::RetrainRecovered,
                        DegradeAction::RetrySucceeded,
                        0,
                    ));
                }
                accepted = Some(candidate);
                break;
            }
            // The action, not the value, records which attempt was rejected.
            let action = if attempt == 0 {
                DegradeAction::RetriedTraining
            } else {
                DegradeAction::RolledBack
            };
            let code = u64::from(verdict.code());
            incidents.push(Incident::on_arm(day, a, IncidentKind::RetrainRejected, action, code));
        }
        let Some(new_ttp) = accepted else {
            continue; // incumbent keeps serving
        };
        // Injected checkpoint truncation: the accepted model's checkpoint is
        // cut mid-file before reload.  The loader must reject it (never
        // panic), and the incumbent keeps serving — exactly what a crash
        // between write and rename would do without the atomic-save path.
        if cfg.faults.checkpoint_truncated(day, a as u32) {
            let text = fugu::checkpoint::save_to_string(&new_ttp);
            let cut = text.len() / 2;
            match fugu::checkpoint::load_from_str(&text[..cut]) {
                Err(_) => {
                    incidents.push(Incident::on_arm(
                        day,
                        a,
                        IncidentKind::CheckpointTruncated,
                        DegradeAction::KeptIncumbent,
                        cut as u64,
                    ));
                }
                Ok(reloaded) => spec.update_ttp(reloaded),
            }
        } else {
            spec.update_ttp(new_ttp);
        }
    }
}

/// Stage 7: append the day's incidents to its archive (when one was
/// written) as `BlockKind::Incident` blocks.  Failure here degrades silently
/// — the run-level `incidents.csv` still carries the log.
fn persist_incidents(day_archive: Option<&Path>, day_incidents: &[Incident]) {
    if let Some(path) = day_archive {
        crate::archive::append_incidents(path, day_incidents).ok();
    }
}

/// Collect a TTP training dataset by running `sessions_per_day × days`
/// sessions of the given scheme in a world — the bootstrap phase before
/// Fugu can be deployed (the paper's Fugu entered the primary experiment
/// already trained on prior Puffer telemetry).
pub fn collect_training_data(scheme: &SchemeSpec, cfg: &ExperimentConfig) -> Dataset {
    let result = run_rct(vec![scheme.clone()], &ExperimentConfig { retrain: None, ..cfg.clone() });
    result.dataset
}

/// Train a fresh TTP variant on a dataset (the in-situ or in-emulation
/// bootstrap training).
pub fn train_ttp_on(
    variant: TtpVariant,
    dataset: &Dataset,
    train_cfg: &TrainConfig,
    seed: u64,
) -> Ttp {
    let mut ttp = variant.build_ttp(seed);
    let last_day = dataset.days().last().copied().unwrap_or(0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd_ef01_2345_6789);
    train(&mut ttp, dataset, last_day, train_cfg, &mut rng);
    ttp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::run_session;
    use crate::stream::StreamConfig;
    use fugu::TtpConfig;

    fn tiny_cfg(threads: usize) -> ExperimentConfig {
        ExperimentConfig {
            seed: 42,
            sessions_per_day: 30,
            days: 2,
            threads,
            retrain: None,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn rct_runs_and_accounts_streams() {
        let result = run_rct(vec![SchemeSpec::Bba, SchemeSpec::MpcHm], &tiny_cfg(1));
        assert_eq!(result.total_sessions, 60);
        let sessions: usize = result.arms.iter().map(|a| a.consort.sessions).sum();
        assert_eq!(sessions, 60);
        for arm in &result.arms {
            assert_eq!(
                arm.consort.streams,
                arm.consort.never_began + arm.consort.short_watch + arm.consort.considered,
                "CONSORT accounting must balance for {}",
                arm.name
            );
            assert_eq!(arm.streams.len(), arm.consort.considered);
            assert_eq!(arm.session_durations.len(), arm.consort.sessions);
        }
        assert!(result.dataset.n_observations() > 0);
    }

    #[test]
    fn parallel_equals_sequential() {
        let seq = run_rct(vec![SchemeSpec::Bba, SchemeSpec::RobustMpcHm], &tiny_cfg(1));
        let par = run_rct(vec![SchemeSpec::Bba, SchemeSpec::RobustMpcHm], &tiny_cfg(4));
        for (a, b) in seq.arms.iter().zip(&par.arms) {
            assert_eq!(a.consort, b.consort, "arm {}", a.name);
            assert_eq!(a.streams.len(), b.streams.len());
            for (x, y) in a.streams.iter().zip(&b.streams) {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn randomization_balances_arms() {
        let cfg = ExperimentConfig {
            sessions_per_day: 300,
            days: 1,
            threads: 4,
            retrain: None,
            ..ExperimentConfig::default()
        };
        let result =
            run_rct(vec![SchemeSpec::Bba, SchemeSpec::MpcHm, SchemeSpec::RobustMpcHm], &cfg);
        for arm in &result.arms {
            let frac = arm.consort.sessions as f64 / 300.0;
            assert!((0.2..0.5).contains(&frac), "{}: {}", arm.name, frac);
        }
    }

    #[test]
    fn daily_retraining_updates_fugu_model() {
        let spec = SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 9));
        let day0 = fugu::checkpoint::save_to_string(spec.ttp().unwrap());
        let cfg = ExperimentConfig {
            seed: 5,
            sessions_per_day: 25,
            days: 1,
            threads: 2,
            retrain: Some(TrainConfig {
                epochs: 1,
                max_samples_per_step: 500,
                ..TrainConfig::default()
            }),
            ..ExperimentConfig::default()
        };
        let result = run_rct(vec![spec], &cfg);
        assert!(result.dataset.n_observations() > 0);
        assert!(result.arms[0].consort.considered > 0, "Fugu arm must produce streams");
        let served = result.schemes[0].ttp().expect("the Fugu arm still serves a TTP");
        assert_ne!(
            fugu::checkpoint::save_to_string(served),
            day0,
            "the nightly retrain must swap in a model with different weights"
        );
    }

    #[test]
    fn collect_and_train_bootstrap() {
        let cfg = ExperimentConfig { sessions_per_day: 20, days: 1, threads: 2, ..tiny_cfg(2) };
        let data = collect_training_data(&SchemeSpec::Bba, &cfg);
        assert!(data.n_observations() > 100, "{}", data.n_observations());
        let ttp = train_ttp_on(
            TtpVariant::Full,
            &data,
            &TrainConfig { epochs: 1, max_samples_per_step: 1000, ..TrainConfig::default() },
            3,
        );
        assert_eq!(ttp.horizon(), 5);
    }

    #[test]
    fn session_ids_are_unique_at_paper_scale() {
        // The old `day * 1_000_000 + i` packing collided exactly here:
        // (day 0, i = 1_500_000) and (day 1, i = 500_000) both mapped to
        // 1_500_000 once `sessions_per_day` crossed one million.
        assert_ne!(session_id(0, 1_500_000), session_id(1, 500_000));
        // lint: order-insensitive — set only detects duplicate ids
        let mut seen = std::collections::HashSet::new();
        for day in [0u32, 1, 2, 117, 4096] {
            for i in [0usize, 1, 999_999, 1_000_000, 1_500_000, u32::MAX as usize - 1] {
                assert!(seen.insert(session_id(day, i)), "collision at day {day} i {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fit in 32 bits")]
    fn session_index_overflow_is_rejected() {
        session_id(0, u32::MAX as usize);
    }

    #[test]
    fn paper_scale_stream_ids_round_trip_through_csv() {
        // Stream ids embed the session id (`session_id * 1000 + seq`); the
        // telemetry CSVs and the sent↔acked join must survive ids from the
        // widened packing (day in the high half) without truncation.
        use crate::telemetry::{write_video_sent_row, VIDEO_SENT_CSV_HEADER};
        let bank = TraceBank::puffer();
        let mut abr = puffer_abr::Bba::default();
        let id = session_id(117, 1_500_000);
        let out = run_session(
            &bank,
            &mut abr,
            &UserModel::default(),
            CongestionControl::Bbr,
            StreamConfig::default(),
            id,
            99,
        );
        let sent: Vec<_> =
            out.streams.iter().flat_map(|s| s.telemetry.video_sent.iter().copied()).collect();
        assert!(!sent.is_empty(), "session produced no telemetry");
        let mut csv = VIDEO_SENT_CSV_HEADER.to_vec();
        for v in &sent {
            write_video_sent_row(&mut csv, v).unwrap();
        }
        let csv = String::from_utf8(csv).unwrap();
        for (row, v) in csv.lines().skip(1).zip(&sent) {
            let sid: u64 = row.split(',').nth(1).expect("stream_id column").parse().unwrap();
            assert_eq!(sid, v.stream_id, "stream id must round-trip through the CSV");
            assert_eq!(sid / 1000, id, "stream id must still embed the session id");
        }
        for s in &out.streams {
            let t = &s.telemetry;
            let joined = crate::archive::join_sent_acked(&t.video_sent, &t.video_acked)
                .expect("every acked chunk joins back to its sent row");
            assert_eq!(joined.len(), t.video_acked.len());
            assert!(joined.iter().all(|&(sid, _)| stream_day(sid) == 117), "day from stream id");
        }
    }

    #[test]
    fn seeds_differ_across_sessions_and_days() {
        let a = mix_seed(1, 0, 0, 0);
        let b = mix_seed(1, 0, 1, 0);
        let c = mix_seed(1, 1, 0, 0);
        let d = mix_seed(2, 0, 0, 0);
        // lint: order-insensitive — set only checks the four seeds are distinct
        let set: std::collections::HashSet<u64> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 4);
    }
}
