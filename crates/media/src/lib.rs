//! # puffer-media — video source, encoder ladder, SSIM, and QoE
//!
//! Puffer decodes six over-the-air TV channels and encodes each 2.002-second
//! chunk "in ten different H.264 versions ... from 240p60 with constant rate
//! factor (CRF) of 26 (about 200 kbps) to 1080p60 with CRF of 20 (about
//! 5,500 kbps)", then computes each encoded chunk's SSIM with ffmpeg (§3.1).
//! We cannot ship an antenna, libx264, or ffmpeg, so this crate synthesizes
//! the *observable consequences* of that pipeline:
//!
//! * [`ladder::EncoderLadder`] — the ten-rung encoding ladder;
//! * [`source::VideoSource`] — a per-channel scene-complexity process that
//!   emits, for every chunk, a menu of (compressed size, SSIM) pairs whose
//!   within-stream variation matches Fig. 3 (sizes varying several-fold at a
//!   fixed rung; SSIM moving with content);
//! * [`ssim`] — SSIM index ↔ decibel conversions (the paper reports SSIM in
//!   dB throughout);
//! * [`qoe`] — the linear QoE objective of Eq. 1, [`qoe::chunk_qoe`], with
//!   its fixed weights [`qoe::LAMBDA`] = 1 and [`qoe::MU`] = 100 (§4.5): the
//!   one objective MPC, RobustMPC, and Fugu plan with, plus the
//!   bitrate-flavoured objective Pensieve optimizes (Fig. 5).
//!
//! ABR algorithms never see "video"; they see exactly what this crate
//! produces — a menu of sizes and qualities per chunk — so the decision
//! problem is preserved even though the pixels are synthetic.

pub mod ladder;
pub mod qoe;
pub mod source;
pub mod ssim;

pub use ladder::{EncoderLadder, Rung};
pub use qoe::pensieve_reward;
pub use source::{ChunkMenu, ChunkOption, VideoSource};

/// Video chunk duration in seconds: 2.002 s, "reflecting the 1/1001 factor
/// for NTSC frame rates" (§3.1).
pub const CHUNK_SECONDS: f64 = 2.002;

/// Maximum client playback buffer in seconds (§3.3: BBA reservoir chosen
/// "consistent with a 15-second maximum buffer"; Pensieve's threshold was set
/// to 15 s too).
pub const MAX_BUFFER_SECONDS: f64 = 15.0;

#[cfg(test)]
mod tests {
    #[test]
    fn constants_match_paper() {
        assert!((super::CHUNK_SECONDS - 2.002).abs() < 1e-12);
        assert_eq!(super::MAX_BUFFER_SECONDS, 15.0);
    }
}
