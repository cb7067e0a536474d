//! # puffer-abr — adaptive-bitrate algorithms
//!
//! The interface every scheme implements ([`Abr`]), the decision context the
//! server hands it ([`AbrContext`]), and the baseline algorithms of the
//! primary experiment (Figs. 1, 5, 8):
//!
//! | Scheme | Control | Predictor | Module |
//! |--------|---------|-----------|--------|
//! | BBA | proportional buffer control | — | [`bba`] |
//! | MPC-HM | model-predictive control | harmonic mean | [`mpc`] |
//! | RobustMPC-HM | robust MPC | discounted harmonic mean | [`mpc`] |
//! | Pensieve | learned policy (DNN) | — | [`pensieve`] |
//!
//! Fugu (the paper's contribution) implements the same trait but lives in its
//! own crate (`fugu`), mirroring how the paper separates the platform's
//! baselines (§3.3) from the proposed scheme (§4).
//!
//! Like Puffer, all schemes are *server-side*: they see the playback buffer
//! telemetry reported by the client, the menu of upcoming encoded chunks
//! (sizes and SSIMs), the history of past transfers, and the sender's
//! `tcp_info` — nothing else (§3.2–3.3).

pub mod bba;
pub mod bola;
pub mod cs2p;
pub mod mpc;
pub mod pensieve;
pub mod predictor;

pub use bba::Bba;
pub use bola::Bola;
pub use cs2p::Cs2pModel;
pub use mpc::{Mpc, MpcScratch};
pub use pensieve::{PensievePolicy, PensieveTrainer};
pub use predictor::{HarmonicMean, RobustDiscount, ThroughputPredictor};

use puffer_media::ChunkMenu;
use puffer_net::TcpInfo;

/// Planning horizon in chunks: "The MPC controller optimizes over H = 5
/// future steps (about 10 seconds)" (§4.5).
pub const HORIZON: usize = 5;

/// How many past chunks of history the server keeps for predictors:
/// "TTP takes as input the past t = 8 chunks" (§4.5).
pub const HISTORY_LEN: usize = 8;

/// One completed chunk transfer, as seen by predictors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkRecord {
    /// Compressed size in bytes.
    pub size: f64,
    /// Send-to-ack transmission time in seconds.
    pub transmission_time: f64,
}

impl ChunkRecord {
    /// Observed throughput of this transfer, bytes/second.
    pub fn throughput(&self) -> f64 {
        self.size / self.transmission_time
    }
}

/// Everything an ABR scheme may look at when choosing the next chunk's rung.
#[derive(Debug, Clone)]
pub struct AbrContext<'a> {
    /// Client playback buffer in seconds at decision time.
    pub buffer: f64,
    /// SSIM (dB) of the previously chosen chunk, `None` at stream start.
    pub prev_ssim_db: Option<f64>,
    /// Rung index of the previously chosen chunk, `None` at stream start.
    pub prev_rung: Option<usize>,
    /// Menus for the next chunks; `lookahead[0]` is the chunk being chosen.
    /// At least one entry; MPC-family schemes use up to [`HORIZON`].
    pub lookahead: &'a [ChunkMenu],
    /// Completed transfers of this stream, oldest first, at most
    /// [`HISTORY_LEN`] entries.
    pub history: &'a [ChunkRecord],
    /// Sender-side TCP statistics at decision time.
    pub tcp_info: TcpInfo,
}

impl AbrContext<'_> {
    /// Number of rungs on the menu being decided.
    // lint: panic-free — lookahead is never empty: the platform builds a context only when a next chunk exists
    pub fn n_rungs(&self) -> usize {
        self.lookahead[0].n_rungs()
    }
}

/// An adaptive-bitrate scheme.
///
/// Implementations are per-stream stateful (predictor history, RL hidden
/// state); the platform calls [`Abr::reset_stream`] on a channel change,
/// which starts a new stream over the same TCP connection (§3.2).
pub trait Abr {
    /// Scheme name as it appears in the paper's figures.
    fn name(&self) -> &'static str;

    /// Pick the rung index (0 = lowest quality) for `ctx.lookahead[0]`.
    fn choose(&mut self, ctx: &AbrContext) -> usize;

    /// Observe a completed transfer (all schemes receive this, whether or
    /// not they use it).
    fn on_chunk_delivered(&mut self, _record: ChunkRecord) {}

    /// A new stream began on the same connection (channel change).
    fn reset_stream(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_record_throughput() {
        let r = ChunkRecord { size: 500_000.0, transmission_time: 2.0 };
        assert!((r.throughput() - 250_000.0).abs() < 1e-9);
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(HORIZON, 5);
        assert_eq!(HISTORY_LEN, 8);
    }
}
