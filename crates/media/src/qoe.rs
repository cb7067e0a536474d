//! Quality-of-experience objectives.
//!
//! Eq. 1 of the paper (following Yin et al. \[43\]):
//!
//! ```text
//! QoE(Kᵢˢ, Kᵢ₋₁) = Q(Kᵢˢ) − λ·|Q(Kᵢˢ) − Q(Kᵢ₋₁)| − µ·max{T(Kᵢˢ) − Bᵢ, 0}
//! ```
//!
//! with `Q` in SSIM dB, `T` the (uncertain) transmission time, `B` the
//! playback buffer, and λ = 1, µ = 100 (§4.5).  "We emphasize that we use the
//! exact same objective function in our version of MPC and RobustMPC as well"
//! (§4.1) — so it lives here, shared by every scheme.
//!
//! Pensieve optimizes a different objective — "+bitrate, –stalls, –∆bitrate"
//! (Fig. 5) — implemented as [`pensieve_reward`].

/// Weight λ on quality variation |Q(Kᵢ) − Q(Kᵢ₋₁)| (§4.5).
pub const LAMBDA: f64 = 1.0;

/// Weight µ on stall time, per second (§4.5).
pub const MU: f64 = 100.0;

/// QoE of sending a chunk of quality `ssim_db` after a chunk of quality
/// `prev_ssim_db`, incurring `stall_seconds` of rebuffering.
///
/// `prev_ssim_db` is `None` for the first chunk of a stream, in which case
/// the variation term is zero.
pub fn chunk_qoe(ssim_db: f64, prev_ssim_db: Option<f64>, stall_seconds: f64) -> f64 {
    debug_assert!(stall_seconds >= 0.0);
    let variation = prev_ssim_db.map_or(0.0, |p| (ssim_db - p).abs());
    ssim_db - LAMBDA * variation - MU * stall_seconds
}

/// Pensieve's per-chunk reward: `bitrate(Mbit/s) − µ_reb·rebuffer(s) −
/// |Δbitrate|` — the multi-video Pensieve model's linear QoE with the
/// standard rebuffer penalty of 4.3 used in its released code.
pub fn pensieve_reward(
    bitrate_bps: f64,
    prev_bitrate_bps: Option<f64>,
    rebuffer_seconds: f64,
) -> f64 {
    let mbps = bitrate_bps / 1e6;
    let prev = prev_bitrate_bps.map_or(mbps, |p| p / 1e6);
    mbps - 4.3 * rebuffer_seconds - (mbps - prev).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qoe_decomposition() {
        // Quality 15 dB after 13 dB with 0.1 s stall: 15 - 2 - 10 = 3.
        let q = chunk_qoe(15.0, Some(13.0), 0.1);
        assert!((q - 3.0).abs() < 1e-12);
    }

    #[test]
    fn first_chunk_has_no_variation_penalty() {
        assert_eq!(chunk_qoe(15.0, None, 0.0), 15.0);
    }

    #[test]
    fn variation_is_symmetric() {
        assert_eq!(chunk_qoe(10.0, Some(14.0), 0.0), chunk_qoe(10.0, Some(6.0), 0.0));
    }

    #[test]
    fn stalls_dominate() {
        // µ = 100: a 200 ms stall costs 20 dB — more than the entire ladder
        // quality span plus the worst possible variation penalty.  This is
        // what makes MPC conservative.
        let with_stall = chunk_qoe(17.0, Some(17.0), 0.2);
        let low_quality = chunk_qoe(8.6, Some(17.0), 0.0);
        assert!(low_quality > with_stall);
    }

    #[test]
    fn pensieve_reward_prefers_bitrate() {
        let smooth_high = pensieve_reward(5_500_000.0, Some(5_500_000.0), 0.0);
        let smooth_low = pensieve_reward(200_000.0, Some(200_000.0), 0.0);
        assert!(smooth_high > smooth_low);
        // A switch is penalized.
        let switched = pensieve_reward(5_500_000.0, Some(200_000.0), 0.0);
        assert!(switched < smooth_high);
        // Rebuffering is penalized at 4.3/s.
        let stalled = pensieve_reward(5_500_000.0, Some(5_500_000.0), 1.0);
        assert!((smooth_high - stalled - 4.3).abs() < 1e-12);
    }
}
