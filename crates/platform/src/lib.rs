//! # puffer-platform — the randomized controlled trial
//!
//! Puffer (§3) is "a free, publicly accessible website that live-streams six
//! over-the-air commercial television channels", operated "as a randomized
//! controlled trial; sessions are randomly assigned to one of a set of ABR or
//! congestion-control schemes", with users blinded to the assignment.  This
//! crate is that experiment, run against the synthetic substrates:
//!
//! * [`client`] — the playback-buffer state machine of the browser player
//!   (startup, steady drain at 1 s/s, stalls, the 15-second cap);
//! * [`stream`] — one stream: the server-side send loop over a
//!   [`puffer_net::Connection`], invoking an [`puffer_abr::Abr`] per chunk
//!   and recording telemetry;
//! * [`session`] — sessions carrying many streams over one TCP connection
//!   (channel changes, §3.2);
//! * [`user`] — participant behaviour: heavy-tailed watch intents, rapid
//!   channel zapping, stall abandonment, and QoE-sensitive tail retention
//!   (the Fig. 10 phenomenon);
//! * [`telemetry`] — the `video_sent` / `video_acked` / `client_buffer`
//!   measurements of Appendix B, plus their CSV row writers;
//! * [`archive`] — the RCT's per-day telemetry spools and the `.puf`→CSV
//!   export of the daily dump;
//! * [`archive_format`] — the `.puf` compacted binary telemetry archive
//!   (streaming writer/reader, deterministic multi-spool merge) that lets a
//!   multi-month RCT spill telemetry to disk instead of holding days of
//!   rows in RAM;
//! * [`scheme`] — the scheme registry mapping experiment arms to algorithms
//!   (Fig. 5);
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`]) and
//!   the incident records ([`faults::Incident`]) the supervision layer in
//!   [`experiment`] emits when it degrades instead of dying
//!   (docs/ROBUSTNESS.md);
//! * [`experiment`] — the day-by-day RCT driver: blinded randomization,
//!   parallel session execution, CONSORT-style exclusion accounting
//!   (Fig. A1), nightly in-situ retraining of Fugu's TTP (§4.3), and
//!   Pensieve's emulation training environment (§3.3, §5.2).

pub mod archive;
pub mod archive_format;
pub(crate) mod batch;
pub mod client;
pub mod experiment;
pub mod faults;
pub mod pensieve_env;
pub mod scheme;
pub mod session;
pub mod stream;
pub mod telemetry;
pub mod user;

pub use archive::{append_incidents, export_csv, TelemetrySpool};
pub use archive_format::{
    merge_spools, ArchiveReader, ArchiveWriter, BlockKind, DecodedBlock, IncidentRow,
};
pub use experiment::{run_rct, ConsortCounts, ExperimentConfig, RctResult, SchemeArm};
pub use faults::{
    incidents_csv, DegradeAction, DivergenceMode, FaultPlan, FaultRates, Incident, IncidentKind,
    ModelOutage, RetrainFault,
};
pub use pensieve_env::{train_pensieve, PensieveTrainConfig};
pub use scheme::SchemeSpec;
pub use session::{run_session, SessionOutcome, SessionRun};
pub use stream::{
    run_stream, ChunkLog, QuitReason, StreamClock, StreamConfig, StreamOutcome, StreamRun,
};
pub use user::UserModel;

/// Minimum watch time for a stream to enter the primary analysis:
/// "counting all streams that played at least 4 seconds of video" (§5).
pub const MIN_CONSIDERED_WATCH: f64 = 4.0;
