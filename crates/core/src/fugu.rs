//! Fugu: the TTP plus the stochastic MPC controller behind the [`Abr`] trait.

use crate::controller::{ControllerConfig, PlanScratch, StochasticMpc};
use crate::ttp::Ttp;
use puffer_abr::{Abr, AbrContext};
use std::sync::Arc;

/// The deployed Fugu algorithm (Fig. 6): a server-side controller that, per
/// chunk, queries the Transmission Time Predictor for every candidate
/// (step, rung) and maximizes expected QoE by value iteration, then replans
/// after each chunk (receding horizon).
///
/// The TTP is shared read-only behind an `Arc`, so instances serving the
/// same model cost one controller and one set of planner tables each.  The
/// daily in-situ retraining loop serves a freshly trained model by building
/// new instances around the new `Arc` ("update model", Fig. 6).
#[derive(Debug, Clone)]
pub struct Fugu {
    ttp: Arc<Ttp>,
    controller: StochasticMpc,
    /// Planner tables reused across decisions (planning is allocation-free
    /// after the first chunk).
    scratch: PlanScratch,
    name: &'static str,
}

impl Fugu {
    /// Standard Fugu with the given (typically trained) TTP.
    pub fn new(ttp: impl Into<Arc<Ttp>>) -> Self {
        Fugu {
            ttp: ttp.into(),
            controller: StochasticMpc::default(),
            scratch: PlanScratch::new(),
            name: "Fugu",
        }
    }

    /// Fugu with a custom controller configuration (used by ablations — e.g.
    /// the point-estimate controller) and display name.
    pub fn with_controller(
        ttp: impl Into<Arc<Ttp>>,
        config: ControllerConfig,
        name: &'static str,
    ) -> Self {
        Fugu {
            ttp: ttp.into(),
            controller: StochasticMpc::new(config),
            scratch: PlanScratch::new(),
            name,
        }
    }

    pub fn ttp(&self) -> &Ttp {
        &self.ttp
    }
}

impl Abr for Fugu {
    fn name(&self) -> &'static str {
        self.name
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        self.controller.plan_with(ctx, &self.ttp, &mut self.scratch)
    }

    // History and tcp_info arrive through the context; Fugu keeps no
    // per-stream state of its own, so delivery/reset notifications are no-ops.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttp::TtpConfig;
    use puffer_abr::ChunkRecord;
    use puffer_media::{ChunkMenu, ChunkOption, CHUNK_SECONDS};
    use puffer_net::TcpInfo;

    fn menus() -> Vec<ChunkMenu> {
        (0..5)
            .map(|i| ChunkMenu {
                index: i,
                options: (0..10)
                    .map(|r| ChunkOption {
                        size: (0.2e6 + 0.55e6 * r as f64) / 8.0 * CHUNK_SECONDS,
                        ssim_db: 8.0 + r as f64,
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn implements_abr_and_returns_valid_rung() {
        let mut fugu = Fugu::new(Ttp::new(TtpConfig::default(), 1));
        let m = menus();
        let h: Vec<ChunkRecord> = vec![];
        let ctx = AbrContext {
            buffer: 0.0,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead: &m,
            history: &h,
            tcp_info: TcpInfo {
                cwnd: 10.0,
                in_flight: 0.0,
                min_rtt: 0.04,
                rtt: 0.04,
                delivery_rate: 187_500.0,
            },
        };
        let rung = fugu.choose(&ctx);
        assert!(rung < 10);
        assert_eq!(fugu.name(), "Fugu");
    }
}
