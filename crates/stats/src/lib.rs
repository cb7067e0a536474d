//! # puffer-stats — the paper's statistical machinery
//!
//! §3.4 is unusually explicit about methodology, and this crate implements
//! all of it:
//!
//! * per-stream summary figures ([`summary`]): startup time, watch time,
//!   stall time, mean SSIM, chunk-to-chunk SSIM variation — the columns of
//!   Fig. 1;
//! * bootstrap confidence intervals on rebuffering ratio ([`bootstrap`]):
//!   "We calculate confidence intervals on rebuffering ratio with the
//!   bootstrap method \[12\], simulating streams drawn empirically from each
//!   scheme's observed distribution";
//! * duration-weighted standard errors for SSIM ([`weighted`]): "We
//!   calculate confidence intervals on average SSIM using the formula for
//!   weighted standard error, weighting each stream by its duration";
//! * CCDFs for the time-on-site analysis of Fig. 10 ([`ccdf`]);
//! * the detectability analysis ([`detect`]) behind "it takes about 2
//!   stream-years of data to reliably distinguish two ABR schemes whose
//!   innate 'true' performance differs by 15%" (§5.3);
//! * mergeable streaming accumulators ([`streaming`]) so the stall-ratio
//!   statistics run out-of-core over `.puf` telemetry archives at paper
//!   scale (≥1M stream-hours) in one bounded-memory pass.

pub mod bootstrap;
pub mod ccdf;
pub mod detect;
pub mod streaming;
pub mod summary;
pub mod weighted;

pub use bootstrap::{bootstrap_ratio_ci, ConfidenceInterval};
pub use ccdf::ccdf_points;
pub use detect::{stream_years_to_distinguish, PowerCurve, PowerPoint};
pub use streaming::{PoissonBootstrap, RatioAccumulator, Reservoir};
pub use summary::{SchemeSummary, StreamSummary};
pub use weighted::{weighted_mean, weighted_mean_ci};

/// Seconds in a year — the paper reports data volumes in "stream-years".
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

#[cfg(test)]
mod tests {
    #[test]
    fn seconds_per_year() {
        assert!((super::SECONDS_PER_YEAR - 31_557_600.0).abs() < 1.0);
    }
}
