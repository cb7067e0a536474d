//! Deterministic fault injection and incident accounting for the RCT loop.
//!
//! The paper's system ran *in situ* for months (§5): it had to survive
//! diverged nightly retrains, corrupt telemetry, crashed sessions, and
//! infrastructure failures without stopping the experiment.  This module is
//! the harness that proves our loop does too.  A [`FaultPlan`] schedules
//! failures at *deterministic coordinates* — `(day, session index)` for
//! per-session faults, `(day, arm)` for model-lifecycle faults — so an
//! injected-fault run is still a pure function of the seed and plan:
//! identical incident logs and arm fingerprints at any thread count, even
//! though which *worker* hits a given fault is scheduling-dependent.
//!
//! The supervision layer in [`crate::experiment`] absorbs each class:
//!
//! | fault class                | degradation                                   |
//! |----------------------------|-----------------------------------------------|
//! | session panic              | `catch_unwind`; session quarantined            |
//! | NaN/Inf telemetry features | stream's observations dropped from the dataset |
//! | retrain divergence         | validation gate → one retry → rollback         |
//! | truncated checkpoint       | incumbent keeps serving                        |
//! | model unavailable          | frozen day-0 snapshot, then BBA                |
//! | archive-sink I/O error     | day degrades to CSV-only (no `.puf`)           |
//!
//! Every degradation lands in a deterministic [`Incident`] record
//! (`incidents.csv`, plus an `.puf` block of kind
//! [`crate::archive_format::BlockKind::Incident`]).  An empty plan
//! ([`FaultPlan::none`]) injects nothing and the supervision layer is a pure
//! pass-through — outputs are byte-identical to a build without it.  See
//! `docs/ROBUSTNESS.md` for the full contract.

use fugu::{ChunkObservation, Ttp};
use std::collections::{BTreeMap, BTreeSet};

/// `arm` column value for incidents not tied to one arm.
pub const NO_ARM: u32 = u32::MAX;
/// `session` column value for incidents not tied to one session.
pub const NO_SESSION: u64 = u64::MAX;

/// What failed.  The discriminants are wire codes (`.puf` incident block
/// column 3) and must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum IncidentKind {
    /// A session panicked mid-run (injected or real) and was quarantined.
    SessionPanic = 0,
    /// A stream carried non-finite (NaN/Inf) training features.
    BadTelemetry = 1,
    /// A nightly retrain attempt failed the validation gate.
    RetrainRejected = 2,
    /// A rejected retrain's bounded retry passed the gate and was swapped in.
    RetrainRecovered = 3,
    /// An arm was flagged for retraining but carries no TTP.
    RetrainSkipped = 4,
    /// A freshly retrained checkpoint failed to reload (truncated on disk).
    CheckpointTruncated = 5,
    /// The archive sink hit an I/O error; the day has no `.puf` archive.
    ArchiveIo = 6,
    /// An arm's serving model was unavailable for a day.
    ModelUnavailable = 7,
}

impl IncidentKind {
    /// Every kind, in wire-code order.
    const ALL: [IncidentKind; 8] = [
        IncidentKind::SessionPanic,
        IncidentKind::BadTelemetry,
        IncidentKind::RetrainRejected,
        IncidentKind::RetrainRecovered,
        IncidentKind::RetrainSkipped,
        IncidentKind::CheckpointTruncated,
        IncidentKind::ArchiveIo,
        IncidentKind::ModelUnavailable,
    ];

    /// Wire code (`.puf` incident block column 3).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`IncidentKind::code`].
    pub fn from_code(code: u8) -> Option<IncidentKind> {
        IncidentKind::ALL.get(usize::from(code)).copied()
    }

    /// Stable name used in `incidents.csv`.
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::SessionPanic => "session-panic",
            IncidentKind::BadTelemetry => "bad-telemetry",
            IncidentKind::RetrainRejected => "retrain-rejected",
            IncidentKind::RetrainRecovered => "retrain-recovered",
            IncidentKind::RetrainSkipped => "retrain-skipped",
            IncidentKind::CheckpointTruncated => "checkpoint-truncated",
            IncidentKind::ArchiveIo => "archive-io",
            IncidentKind::ModelUnavailable => "model-unavailable",
        }
    }
}

/// How the supervision layer degraded.  The discriminants are wire codes
/// (`.puf` incident block column 4), like [`IncidentKind`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum DegradeAction {
    /// Session excluded from every statistic, archive, and the dataset.
    Quarantined = 0,
    /// Stream's observations dropped from the training dataset.
    ObservationsDropped = 1,
    /// Rejected attempt triggered the one bounded retry.
    RetriedTraining = 2,
    /// Final attempt rejected; the incumbent snapshot keeps serving.
    RolledBack = 3,
    /// The retry passed the gate and was swapped in.
    RetrySucceeded = 4,
    /// The freshly trained model was discarded; the incumbent keeps serving.
    KeptIncumbent = 5,
    /// The day's telemetry exists only as in-memory/CSV rows, no `.puf`.
    CsvOnly = 6,
    /// The arm served its frozen day-0 snapshot.
    ServedFrozen = 7,
    /// The arm fell all the way back to BBA.
    ServedBba = 8,
    /// The nightly loop skipped the arm.
    SkippedRetrain = 9,
}

impl DegradeAction {
    /// Every action, in wire-code order.
    const ALL: [DegradeAction; 10] = [
        DegradeAction::Quarantined,
        DegradeAction::ObservationsDropped,
        DegradeAction::RetriedTraining,
        DegradeAction::RolledBack,
        DegradeAction::RetrySucceeded,
        DegradeAction::KeptIncumbent,
        DegradeAction::CsvOnly,
        DegradeAction::ServedFrozen,
        DegradeAction::ServedBba,
        DegradeAction::SkippedRetrain,
    ];

    /// Wire code (`.puf` incident block column 4).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`DegradeAction::code`].
    pub fn from_code(code: u8) -> Option<DegradeAction> {
        DegradeAction::ALL.get(usize::from(code)).copied()
    }

    /// Stable name used in `incidents.csv`.
    pub fn name(self) -> &'static str {
        match self {
            DegradeAction::Quarantined => "quarantined",
            DegradeAction::ObservationsDropped => "observations-dropped",
            DegradeAction::RetriedTraining => "retried-training",
            DegradeAction::RolledBack => "rolled-back",
            DegradeAction::RetrySucceeded => "retry-succeeded",
            DegradeAction::KeptIncumbent => "kept-incumbent",
            DegradeAction::CsvOnly => "csv-only",
            DegradeAction::ServedFrozen => "served-frozen",
            DegradeAction::ServedBba => "served-bba",
            DegradeAction::SkippedRetrain => "skipped-retrain",
        }
    }
}

/// One degradation event.  All fields are numeric so incidents serialize
/// losslessly into the columnar `.puf` incident block (its codec is in
/// `archive_format`); `incidents.csv` renders the same record with stable
/// kind/action names.
///
/// `value` is kind-specific detail: the chunk decisions a panicked session
/// made before it unwound, the observation count for dropped telemetry, the gate
/// verdict code for a retrain rejection (1 = non-finite weights, 2 = holdout
/// regression — the action tells the attempt: [`DegradeAction::RetriedTraining`]
/// for the first, [`DegradeAction::RolledBack`] for the retry), the
/// truncation length for a bad checkpoint, and the outage level for model
/// unavailability (1 = served frozen, 2 = served BBA).  Everything else
/// records 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Incident {
    /// Simulated day the event happened on.
    pub day: u32,
    /// Arm index, or [`NO_ARM`].
    pub arm: u32,
    /// Session index within the day's spec list, or [`NO_SESSION`].
    pub session: u64,
    /// What failed.
    pub kind: IncidentKind,
    /// How the loop degraded.
    pub action: DegradeAction,
    /// Kind-specific detail (see the type docs).
    pub value: u64,
}

impl Incident {
    /// A day-level incident, tied to no arm and no session (e.g. the day's
    /// archive sink failed).
    pub fn on_day(day: u32, kind: IncidentKind, action: DegradeAction, value: u64) -> Incident {
        Incident { day, arm: NO_ARM, session: NO_SESSION, kind, action, value }
    }

    /// An arm-level incident, tied to no session (the model lifecycle:
    /// retrains, checkpoints, outages).
    pub fn on_arm(
        day: u32,
        arm: usize,
        kind: IncidentKind,
        action: DegradeAction,
        value: u64,
    ) -> Incident {
        Incident { day, arm: arm as u32, session: NO_SESSION, kind, action, value }
    }

    /// A session-level incident at `(day, session index)` on `arm`.
    pub fn on_session(
        day: u32,
        arm: usize,
        session: usize,
        kind: IncidentKind,
        action: DegradeAction,
        value: u64,
    ) -> Incident {
        Incident { day, arm: arm as u32, session: session as u64, kind, action, value }
    }

    fn csv_row(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{},", self.day);
        if self.arm == NO_ARM {
            out.push('-');
        } else {
            let _ = write!(out, "{}", self.arm);
        }
        out.push(',');
        if self.session == NO_SESSION {
            out.push('-');
        } else {
            let _ = write!(out, "{}", self.session);
        }
        let _ = writeln!(out, ",{},{},{}", self.kind.name(), self.action.name(), self.value);
    }
}

/// Header line of `incidents.csv`.
pub const INCIDENTS_CSV_HEADER: &str = "day,arm,session,kind,action,value\n";

/// Render an incident log as the deterministic `incidents.csv` text.
pub fn incidents_csv(incidents: &[Incident]) -> String {
    let mut out = String::from(INCIDENTS_CSV_HEADER);
    for inc in incidents {
        inc.csv_row(&mut out);
    }
    out
}

/// How an injected retrain divergence corrupts the candidate model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceMode {
    /// NaN weights — the classic diverged-SGD signature.
    NonFiniteWeights,
    /// Finite but absurd weights: the holdout loss explodes while every
    /// weight individually looks plausible to a finiteness check.
    ExplodingLoss,
}

/// An injected nightly-retrain divergence at one `(day, arm)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainFault {
    /// How the candidate is corrupted.
    pub mode: DivergenceMode,
    /// Bitmask of attempts to corrupt: bit 0 = first attempt, bit 1 = the
    /// bounded retry.  `0b01` diverges once and recovers on retry; `0b11`
    /// diverges both attempts and forces a rollback.
    pub attempts: u8,
}

impl RetrainFault {
    /// Whether this fault corrupts the given attempt (0 or 1).
    pub fn hits(&self, attempt: u8) -> bool {
        self.attempts & (1 << attempt) != 0
    }
}

/// How much of an arm's model stack is unavailable for one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelOutage {
    /// The serving TTP is unavailable; the arm serves its frozen day-0
    /// snapshot.
    Primary,
    /// Both the serving TTP and the frozen snapshot are unavailable; the arm
    /// serves BBA.
    PrimaryAndFrozen,
}

/// A deterministic schedule of injected faults.
///
/// Coordinates are `(day, session index)` for session-level classes and
/// `(day, arm index)` for model-level classes.  The *session index* is the
/// position in the day's spec list — the same coordinate the RCT uses for
/// seeding and result merging — so a plan hits the same logical session at
/// any thread count, regardless of which worker happens to run it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(day, session) → panic after this many chunk decisions`.
    session_panics: BTreeMap<(u32, u64), u32>,
    nan_telemetry: BTreeSet<(u32, u64)>,
    archive_errors: BTreeSet<(u32, u64)>,
    retrain_faults: BTreeMap<(u32, u32), RetrainFault>,
    checkpoint_truncations: BTreeSet<(u32, u32)>,
    outages: BTreeMap<(u32, u32), ModelOutage>,
}

impl FaultPlan {
    /// The empty plan: injects nothing; the supervision layer is a pure
    /// pass-through and every output is byte-identical to a fault-free
    /// build.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.session_panics.is_empty()
            && self.nan_telemetry.is_empty()
            && self.archive_errors.is_empty()
            && self.retrain_faults.is_empty()
            && self.checkpoint_truncations.is_empty()
            && self.outages.is_empty()
    }

    /// Schedule a panic in session `(day, session)` after `after_decisions`
    /// chunk decisions.
    pub fn with_session_panic(mut self, day: u32, session: u64, after_decisions: u32) -> Self {
        self.session_panics.insert((day, session), after_decisions);
        self
    }

    /// Schedule NaN/Inf poisoning of session `(day, session)`'s training
    /// features.
    pub fn with_nan_telemetry(mut self, day: u32, session: u64) -> Self {
        self.nan_telemetry.insert((day, session));
        self
    }

    /// Schedule an archive-sink I/O error when session `(day, session)` is
    /// spilled.
    pub fn with_archive_error(mut self, day: u32, session: u64) -> Self {
        self.archive_errors.insert((day, session));
        self
    }

    /// Schedule a retrain divergence for `(day, arm)`.
    pub fn with_retrain_divergence(mut self, day: u32, arm: u32, fault: RetrainFault) -> Self {
        self.retrain_faults.insert((day, arm), fault);
        self
    }

    /// Schedule a checkpoint truncation on `(day, arm)`'s accepted nightly
    /// model.
    pub fn with_checkpoint_truncation(mut self, day: u32, arm: u32) -> Self {
        self.checkpoint_truncations.insert((day, arm));
        self
    }

    /// Declare `(day, arm)`'s model stack (partially) unavailable.
    pub fn with_model_outage(mut self, day: u32, arm: u32, outage: ModelOutage) -> Self {
        self.outages.insert((day, arm), outage);
        self
    }

    /// Derive a plan pseudo-randomly from the experiment seed: each fault
    /// class draws an independent Bernoulli stream at `rate` over its
    /// coordinates, visited in a fixed order, so the plan — like everything
    /// else in the RCT — is a pure function of `(seed, shape, rate)`.
    pub fn seeded(
        seed: u64,
        days: u32,
        sessions_per_day: usize,
        n_arms: usize,
        rate: f64,
    ) -> FaultPlan {
        // Class `class`'s hits over `(day, 0..n)`, days outer: session
        // classes take n = sessions per day, model classes n = arms.
        let hits = move |class: u64, n: usize| {
            let mut state = fault_mix(seed, class);
            (0..days)
                .flat_map(move |day| (0..n as u64).map(move |i| (day, i)))
                .filter(move |_| bernoulli(&mut state, rate))
        };
        let arm_hits = |class| hits(class, n_arms).map(|(day, arm)| (day, arm as u32));
        FaultPlan {
            session_panics: hits(1, sessions_per_day).map(|at| (at, 2)).collect(),
            nan_telemetry: hits(2, sessions_per_day).collect(),
            archive_errors: hits(3, sessions_per_day).collect(),
            retrain_faults: arm_hits(4)
                .map(|(day, arm)| {
                    // Alternate recoverable and unrecoverable divergences so
                    // a seeded soak exercises both paths.
                    let attempts = if (day + arm) % 2 == 0 { 0b01 } else { 0b11 };
                    let mode = if arm % 2 == 0 {
                        DivergenceMode::NonFiniteWeights
                    } else {
                        DivergenceMode::ExplodingLoss
                    };
                    ((day, arm), RetrainFault { mode, attempts })
                })
                .collect(),
            checkpoint_truncations: arm_hits(5).collect(),
            outages: arm_hits(6)
                .map(|(day, arm)| {
                    let outage = if (day + arm) % 3 == 0 {
                        ModelOutage::PrimaryAndFrozen
                    } else {
                        ModelOutage::Primary
                    };
                    ((day, arm), outage)
                })
                .collect(),
        }
    }

    /// Whether any session panics are scheduled (the experiment installs the
    /// quiet panic hook only then).
    pub fn has_session_panics(&self) -> bool {
        !self.session_panics.is_empty()
    }

    /// The scheduled panic point for `(day, session)`, if any.
    pub fn session_panic_after(&self, day: u32, session: u64) -> Option<u32> {
        self.session_panics.get(&(day, session)).copied()
    }

    /// Whether `(day, session)`'s training features are poisoned.
    pub fn nan_telemetry_at(&self, day: u32, session: u64) -> bool {
        self.nan_telemetry.contains(&(day, session))
    }

    /// Whether spilling `(day, session)` to the archive sink fails.
    pub fn archive_error_at(&self, day: u32, session: u64) -> bool {
        self.archive_errors.contains(&(day, session))
    }

    /// The scheduled retrain divergence for `(day, arm)`, if any.
    pub fn retrain_fault(&self, day: u32, arm: u32) -> Option<RetrainFault> {
        self.retrain_faults.get(&(day, arm)).copied()
    }

    /// Whether `(day, arm)`'s accepted nightly checkpoint is truncated.
    pub fn checkpoint_truncated(&self, day: u32, arm: u32) -> bool {
        self.checkpoint_truncations.contains(&(day, arm))
    }

    /// The scheduled model outage for `(day, arm)`, if any.
    pub fn model_outage(&self, day: u32, arm: u32) -> Option<ModelOutage> {
        self.outages.get(&(day, arm)).copied()
    }
}

/// SplitMix64 over `(seed, class)` — each fault class gets an independent
/// deterministic stream.
fn fault_mix(seed: u64, class: u64) -> u64 {
    // lint: seed-mix — SplitMix64 fault-class stream derivation
    let mut z = seed ^ class.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // lint: seed-mix — SplitMix64 finalizer
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    // lint: seed-mix — SplitMix64 finalizer
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One Bernoulli draw off a SplitMix64 state, advancing it.
fn bernoulli(state: &mut u64, rate: f64) -> bool {
    // lint: seed-mix — SplitMix64 state advance
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    // lint: seed-mix — SplitMix64 finalizer
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    // lint: seed-mix — SplitMix64 finalizer
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 53-bit uniform in [0, 1).
    (z >> 11) as f64 / ((1u64 << 53) as f64) < rate
}

/// Payload of an injected session panic.  The quiet panic hook suppresses
/// the default report for exactly this payload type, so injected-fault test
/// runs don't spray panic backtraces; real panics still report normally.
pub struct InjectedPanic;

/// Install (once, process-wide) a panic hook that silences [`InjectedPanic`]
/// payloads and delegates everything else to the previous hook.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedPanic>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Whether one observation's features are all finite — the telemetry
/// sanitizer's predicate.  A single NaN here would propagate through feature
/// scaling into every gradient of the nightly retrain.
pub fn observation_is_finite(o: &ChunkObservation) -> bool {
    o.size.is_finite()
        && o.transmission_time.is_finite()
        && o.tcp_info.cwnd.is_finite()
        && o.tcp_info.in_flight.is_finite()
        && o.tcp_info.min_rtt.is_finite()
        && o.tcp_info.rtt.is_finite()
        && o.tcp_info.delivery_rate.is_finite()
}

/// Poison the first observation of a session's first observed stream with
/// NaN/Inf features — the injected "corrupt telemetry off the wire" fault.
/// Only training features are touched; the session's QoE telemetry (and the
/// `.puf` rows) are left intact.
pub fn poison_observations(observations: &mut [Vec<ChunkObservation>]) {
    if let Some(first) = observations.iter_mut().find(|s| !s.is_empty()) {
        first[0].tcp_info.delivery_rate = f64::NAN;
        first[0].transmission_time = f64::INFINITY;
    }
}

/// Corrupt a retrained candidate in place, simulating diverged training.
///
/// `ExplodingLoss` pins every step-net's saturated softmax mass on the last
/// transmission-time bin (`[9.75 s, ∞)` — almost never the target): every
/// weight stays individually finite and plausible, but the holdout
/// cross-entropy hits the probability floor on nearly every sample, the
/// signature of a diverged-but-not-NaN retrain that only an output-level
/// gate can catch.
pub fn corrupt_ttp(mode: DivergenceMode, ttp: &mut Ttp) {
    for net in ttp.nets_mut() {
        match mode {
            DivergenceMode::NonFiniteWeights => {
                for layer in net.layers_mut() {
                    if let Some(w) = layer.w.data_mut().first_mut() {
                        *w = f32::NAN;
                    }
                }
            }
            DivergenceMode::ExplodingLoss => {
                for layer in net.layers_mut() {
                    for w in layer.w.data_mut() {
                        *w *= 1.0e4;
                    }
                    for b in &mut layer.b {
                        *b *= 1.0e4;
                    }
                }
                let last = net.layers_mut().last_mut().expect("an MLP has at least one layer");
                for w in last.w.data_mut() {
                    *w = 0.0;
                }
                let n = last.b.len();
                for (i, b) in last.b.iter_mut().enumerate() {
                    *b = if i + 1 == n { 50.0 } else { 0.0 };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::none().with_session_panic(0, 3, 2).is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(7, 3, 40, 2, 0.25);
        let b = FaultPlan::seeded(7, 3, 40, 2, 0.25);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(8, 3, 40, 2, 0.25);
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn seeded_rates_land_in_the_right_ballpark() {
        let plan = FaultPlan::seeded(1, 10, 200, 2, 0.1);
        let n = plan.session_panics.len();
        // 2000 draws at p = 0.1: far outside [100, 300] means a broken
        // uniform draw, not bad luck.
        assert!((100..300).contains(&n), "panic count {n}");
    }

    /// The class order and each class's SplitMix64 stream are part of the
    /// plan: these two plans were recorded from the six-rate `seeded` that
    /// the one-rate form replaced, and must never move.
    #[test]
    fn seeded_plans_are_pinned() {
        let (nonfinite, exploding) =
            (DivergenceMode::NonFiniteWeights, DivergenceMode::ExplodingLoss);
        let (primary, both) = (ModelOutage::Primary, ModelOutage::PrimaryAndFrozen);
        let small = FaultPlan {
            session_panics: [(0, 4), (1, 1), (1, 3)].map(|at| (at, 2)).into(),
            nan_telemetry: [(0, 2), (0, 3)].into(),
            archive_errors: [(0, 0), (0, 1), (1, 4)].into(),
            retrain_faults: BTreeMap::new(),
            checkpoint_truncations: [(1, 0)].into(),
            outages: [((0, 1), primary), ((1, 1), primary)].into(),
        };
        assert_eq!(FaultPlan::seeded(7, 2, 6, 2, 0.3), small);
        let fault = |mode, attempts| RetrainFault { mode, attempts };
        let dense = FaultPlan {
            session_panics: [(0, 1), (0, 2), (0, 3), (1, 3), (2, 0), (2, 2)]
                .map(|at| (at, 2))
                .into(),
            nan_telemetry: [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)].into(),
            archive_errors: [(0, 0), (1, 0), (1, 2), (1, 3), (2, 0), (2, 2)].into(),
            retrain_faults: [
                ((0, 0), fault(nonfinite, 0b01)),
                ((0, 1), fault(exploding, 0b11)),
                ((0, 2), fault(nonfinite, 0b01)),
                ((2, 0), fault(nonfinite, 0b01)),
                ((2, 2), fault(nonfinite, 0b01)),
            ]
            .into(),
            checkpoint_truncations: [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)].into(),
            outages: [
                ((0, 1), primary),
                ((1, 0), primary),
                ((1, 1), primary),
                ((1, 2), both),
                ((2, 2), primary),
            ]
            .into(),
        };
        assert_eq!(FaultPlan::seeded(11, 3, 4, 3, 0.5), dense);
    }

    #[test]
    fn incident_csv_is_stable() {
        let incidents = vec![
            Incident::on_session(
                0,
                1,
                7,
                IncidentKind::SessionPanic,
                DegradeAction::Quarantined,
                2,
            ),
            Incident::on_day(1, IncidentKind::ArchiveIo, DegradeAction::CsvOnly, 0),
        ];
        assert_eq!(
            incidents_csv(&incidents),
            "day,arm,session,kind,action,value\n\
             0,1,7,session-panic,quarantined,2\n\
             1,-,-,archive-io,csv-only,0\n"
        );
    }

    #[test]
    fn kind_and_action_codes_round_trip() {
        for code in 0..=7u8 {
            let kind = IncidentKind::from_code(code).expect("defined code");
            assert_eq!(kind.code(), code);
        }
        assert!(IncidentKind::from_code(8).is_none());
        for code in 0..=9u8 {
            let action = DegradeAction::from_code(code).expect("defined code");
            assert_eq!(action.code(), code);
        }
        assert!(DegradeAction::from_code(10).is_none());
    }

    #[test]
    fn retrain_fault_attempt_mask() {
        let once = RetrainFault { mode: DivergenceMode::NonFiniteWeights, attempts: 0b01 };
        assert!(once.hits(0));
        assert!(!once.hits(1));
        let both = RetrainFault { mode: DivergenceMode::ExplodingLoss, attempts: 0b11 };
        assert!(both.hits(0) && both.hits(1));
    }

    #[test]
    fn poison_and_sanitize_agree() {
        use puffer_net::TcpInfo;
        let clean = ChunkObservation {
            size: 4e5,
            transmission_time: 0.5,
            tcp_info: TcpInfo {
                cwnd: 10.0,
                in_flight: 2.0,
                min_rtt: 0.03,
                rtt: 0.05,
                delivery_rate: 8e5,
            },
        };
        assert!(observation_is_finite(&clean));
        let mut streams = vec![vec![], vec![clean, clean]];
        poison_observations(&mut streams);
        assert!(!observation_is_finite(&streams[1][0]), "first observation must be poisoned");
        assert!(observation_is_finite(&streams[1][1]), "only the first observation is poisoned");
    }

    #[test]
    fn corrupt_ttp_modes() {
        use fugu::TtpConfig;
        let mut nonfinite = Ttp::new(TtpConfig::default(), 1);
        corrupt_ttp(DivergenceMode::NonFiniteWeights, &mut nonfinite);
        assert!(!nonfinite.weights_finite());
        let mut exploding = Ttp::new(TtpConfig::default(), 1);
        corrupt_ttp(DivergenceMode::ExplodingLoss, &mut exploding);
        assert!(exploding.weights_finite(), "exploding mode keeps weights finite");
    }
}
