//! The ablation variants of §4.6 / Fig. 7.
//!
//! "Removing each of the TTP's inputs, outputs, or features reduced its
//! ability to predict the transmission time of a video chunk."  Each variant
//! below is a full Fugu configuration: the same controller machinery with one
//! ingredient removed, trainable and deployable exactly like the real thing.

use crate::ttp::{PredictionTarget, Ttp, TtpConfig};

/// Which ingredient is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TtpVariant {
    /// The complete TTP (probabilistic, transmission-time, DNN, tcp_info).
    Full,
    /// Collapse the output distribution to its maximum-likelihood bin
    /// ("Point Estimate"; deployed Aug 2019, rebuffering 3–9× worse).
    PointEstimate,
    /// Predict throughput with no regard to the proposed chunk size
    /// ("Throughput Predictor").
    ThroughputPredictor,
    /// No hidden layers ("Linear"; deployed Sept 2019, rebuffering 2–5×
    /// worse).
    Linear,
    /// Drop the kernel `tcp_info` inputs (RTT, CWND, in-flight, delivery
    /// rate) — also removes the cold-start advantage of Fig. 9.
    NoTcpInfo,
}

impl TtpVariant {
    /// All variants in the order Fig. 7 lists them.
    pub const ALL: [TtpVariant; 5] = [
        TtpVariant::Full,
        TtpVariant::PointEstimate,
        TtpVariant::ThroughputPredictor,
        TtpVariant::Linear,
        TtpVariant::NoTcpInfo,
    ];

    /// Label as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TtpVariant::Full => "Fugu (full TTP)",
            TtpVariant::PointEstimate => "Point Estimate",
            TtpVariant::ThroughputPredictor => "Throughput Predictor",
            TtpVariant::Linear => "Linear",
            TtpVariant::NoTcpInfo => "No tcp_info",
        }
    }

    /// The TTP architecture for this variant.
    pub fn ttp_config(self) -> TtpConfig {
        let base = TtpConfig::default();
        match self {
            // Point-estimate differs at the *controller*, not the network.
            TtpVariant::Full | TtpVariant::PointEstimate => base,
            TtpVariant::ThroughputPredictor => {
                TtpConfig { target: PredictionTarget::Throughput, ..base }
            }
            TtpVariant::Linear => TtpConfig { hidden: vec![], ..base },
            TtpVariant::NoTcpInfo => TtpConfig { use_tcp_info: false, ..base },
        }
    }

    /// Whether the controller collapses the distribution to its MLE bin.
    pub fn point_estimate_controller(self) -> bool {
        self == TtpVariant::PointEstimate
    }

    /// Fresh (untrained) TTP for this variant.
    pub fn build_ttp(self, seed: u64) -> Ttp {
        Ttp::new(self.ttp_config(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_configs_differ_where_expected() {
        assert_eq!(
            TtpVariant::Full.ttp_config(),
            TtpVariant::PointEstimate.ttp_config(),
            "point estimate shares the network"
        );
        assert_ne!(TtpVariant::Full.ttp_config(), TtpVariant::Linear.ttp_config());
        assert!(!TtpVariant::NoTcpInfo.ttp_config().use_tcp_info);
        assert_eq!(
            TtpVariant::ThroughputPredictor.ttp_config().target,
            PredictionTarget::Throughput
        );
    }

    #[test]
    fn only_point_estimate_collapses() {
        for v in TtpVariant::ALL {
            assert_eq!(v.point_estimate_controller(), v == TtpVariant::PointEstimate);
        }
    }

    #[test]
    fn names_are_unique() {
        // lint: order-insensitive — set only checks name uniqueness via len()
        let names: std::collections::HashSet<_> =
            TtpVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), TtpVariant::ALL.len());
    }
}
