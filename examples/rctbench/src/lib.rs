//! The RCT benchmark: simulated stream-hours per second on three RCT
//! workloads, with a traced per-layer breakdown.  See `README.md` for the
//! metrics, the workloads and how to run it.

pub mod json;
pub mod layers;
pub mod metrics;
pub mod sys;
pub mod traced;
pub mod workload;
