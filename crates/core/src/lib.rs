//! # fugu — the paper's core contribution
//!
//! Fugu (§4) is "a control algorithm for bitrate selection, designed to be
//! feasibly trained in place (in situ) on a real deployment environment",
//! combining:
//!
//! * a classical controller — stochastic model-predictive control solved by
//!   value iteration over a discretized buffer ([`controller`], §4.4) — with
//! * a learned network predictor — the **Transmission Time Predictor**
//!   ([`ttp`], §4.2): a fully-connected network (2 × 64 hidden units) that
//!   maps the past eight chunks' sizes and transmission times, the kernel's
//!   `tcp_info` statistics, and a *proposed* chunk size to a **probability
//!   distribution over 21 transmission-time bins** ([`bins`], §4.5) — and
//! * a supervised training pipeline over telemetry recorded from the actual
//!   deployment ([`dataset`], [`training`], §4.3): daily retraining over a
//!   14-day window, recent days weighted more heavily, warm-started from the
//!   previous day's weights.
//!
//! The ablations of §4.6 / Fig. 7 — point-estimate output, throughput (not
//! transmission-time) prediction, a linear model, and dropping `tcp_info` —
//! are first-class configurations ([`ablation`]), because the paper's claim
//! is precisely that *each* of these pieces is necessary.
//!
//! [`Fugu`] implements the same [`puffer_abr::Abr`] trait as the baselines,
//! and deliberately shares the QoE objective and value-iteration structure
//! with the MPC implementations ("MPC and Fugu even share most of their
//! codebase", §5.1).

pub mod ablation;
pub mod bins;
pub mod checkpoint;
pub mod controller;
pub mod dataset;
pub mod fugu;
pub mod training;
pub mod ttp;

pub use ablation::TtpVariant;
pub use bins::{bin_index, bin_midpoint, N_BINS};
pub use controller::{ControllerConfig, PlanScratch, StochasticMpc};
pub use dataset::{ChunkObservation, Dataset};
pub use fugu::Fugu;
pub use training::{
    train, validate_retrained, GateVerdict, RetrainGate, TrainConfig, TrainReport, TrainScratch,
};
pub use ttp::{Ttp, TtpBatchQuery, TtpConfig, TtpScratch};
