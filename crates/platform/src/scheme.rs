//! The scheme registry: experiment arms → algorithm instances (Fig. 5).
//!
//! Each session is assigned to one arm; the arm's [`SchemeSpec`] instantiates
//! the algorithm.  Every session in the day loop holds an instance of its
//! own, taken from a per-worker spare list and handed back when the session
//! ends, and its per-stream state (such as predictor history) is reset
//! before every stream.  Learned models (Pensieve's policy, Fugu's TTP) are
//! shared read-only behind `Arc`, and instances are rebuilt every day, which
//! is what lets the day loop swap in a freshly retrained TTP between days
//! (§4.3) without touching sessions already in flight.

use fugu::{Fugu, Ttp, TtpVariant};
use puffer_abr::{Abr, Bba, Bola, Mpc, PensievePolicy};
use std::sync::Arc;

/// One experimental arm.
#[derive(Debug, Clone)]
pub enum SchemeSpec {
    /// Buffer-based control \[17\].
    Bba,
    /// BOLA \[36\] — extension baseline (not in the paper's primary trial).
    Bola,
    /// MPC with harmonic-mean prediction \[43\].
    MpcHm,
    /// RobustMPC with harmonic-mean prediction \[43\].
    RobustMpcHm,
    /// Pensieve \[23\] with a trained (usually emulation-trained) policy,
    /// deployed greedily.
    Pensieve(Arc<PensievePolicy>),
    /// Fugu (or one of its ablations) around a trained TTP.
    Fugu {
        ttp: Arc<Ttp>,
        variant: TtpVariant,
        /// Display label ("Fugu", "Emulation-trained Fugu", "Point
        /// Estimate", ...).
        label: &'static str,
        /// Whether the nightly retraining loop updates this arm's TTP.
        retrain_daily: bool,
    },
}

impl SchemeSpec {
    /// Standard Fugu with daily in-situ retraining.
    pub fn fugu(ttp: Ttp) -> Self {
        SchemeSpec::Fugu {
            ttp: Arc::new(ttp),
            variant: TtpVariant::Full,
            label: "Fugu",
            retrain_daily: true,
        }
    }

    /// A frozen Fugu variant (ablations, stale models, emulation-trained).
    pub fn fugu_frozen(ttp: Ttp, variant: TtpVariant, label: &'static str) -> Self {
        SchemeSpec::Fugu { ttp: Arc::new(ttp), variant, label, retrain_daily: false }
    }

    /// A frozen Fugu variant that *shares* an existing TTP snapshot instead
    /// of wrapping its own copy.  Arms built from the same `Arc` are merged
    /// by the batched scheduler into one TTP group — their staged decisions
    /// join a single batched forward pass per step-net (see `crate::batch`)
    /// — which [`SchemeSpec::fugu_frozen`] can never get: it creates a fresh
    /// `Arc`, so even bit-equal weights run as separate passes.
    ///
    /// The canonical use is ablations that differ only in the controller
    /// (e.g. Full vs PointEstimate over one trained network): the network
    /// forward is shared, the per-arm value iteration is not.
    pub fn fugu_frozen_shared(ttp: &Arc<Ttp>, variant: TtpVariant, label: &'static str) -> Self {
        SchemeSpec::Fugu { ttp: Arc::clone(ttp), variant, label, retrain_daily: false }
    }

    /// Arm name as shown in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeSpec::Bba => "BBA",
            SchemeSpec::Bola => "BOLA",
            SchemeSpec::MpcHm => "MPC-HM",
            SchemeSpec::RobustMpcHm => "RobustMPC-HM",
            SchemeSpec::Pensieve(_) => "Pensieve",
            SchemeSpec::Fugu { label, .. } => label,
        }
    }

    /// Build an algorithm instance; `reset_stream` readies it for each new
    /// stream.  It is `Send` so that a waiting session can move, with its
    /// instance, to another worker's wave.
    pub fn instantiate(&self) -> Box<dyn Abr + Send> {
        match self {
            SchemeSpec::Bba => Box::new(Bba::default()),
            SchemeSpec::Bola => Box::new(Bola::default()),
            SchemeSpec::MpcHm => Box::new(Mpc::mpc_hm()),
            SchemeSpec::RobustMpcHm => Box::new(Mpc::robust_mpc_hm()),
            SchemeSpec::Pensieve(policy) => {
                let mut p = (**policy).clone();
                p.set_stochastic(false); // deployment: greedy
                Box::new(p)
            }
            SchemeSpec::Fugu { label, .. } => {
                let (ttp, config) = self.fugu_planner().expect("Fugu arm has a planner");
                Box::new(Fugu::with_controller(ttp, config, label))
            }
        }
    }

    /// TTP and controller configuration of a Fugu-family arm — what the
    /// batched scheduler (`crate::batch`) needs to answer this arm's chunk
    /// decisions out-of-band.  [`SchemeSpec::instantiate`] builds its
    /// [`Fugu`] from the same pair, so the inline and batched planners
    /// cannot drift.  `None` for arms that are not Fugu-family (their
    /// decisions cannot be batched).
    ///
    /// The returned `Arc`'s *identity* is the cross-arm batching key: the
    /// batched scheduler groups arms whose planners return pointer-equal
    /// TTPs (`Arc::ptr_eq`) into one batched pass per step-net.  Arms
    /// created via [`SchemeSpec::fugu_frozen_shared`] share that identity;
    /// nightly retraining (`update_ttp`) replaces the `Arc` and thereby
    /// splits a retrained arm out of its group from the next day on.
    pub fn fugu_planner(&self) -> Option<(Arc<Ttp>, fugu::ControllerConfig)> {
        match self {
            SchemeSpec::Fugu { ttp, variant, .. } => {
                let config =
                    fugu::ControllerConfig { point_estimate: variant.point_estimate_controller() };
                Some((Arc::clone(ttp), config))
            }
            _ => None,
        }
    }

    /// Replace the TTP of a Fugu arm (nightly model update).
    pub fn update_ttp(&mut self, new_ttp: Ttp) {
        match self {
            SchemeSpec::Fugu { ttp, .. } => *ttp = Arc::new(new_ttp),
            _ => panic!("only Fugu arms carry a TTP"),
        }
    }

    /// Current TTP of a Fugu arm, if any.
    pub fn ttp(&self) -> Option<&Arc<Ttp>> {
        match self {
            SchemeSpec::Fugu { ttp, .. } => Some(ttp),
            _ => None,
        }
    }

    /// Whether the nightly loop should retrain this arm.
    pub fn retrains_daily(&self) -> bool {
        matches!(self, SchemeSpec::Fugu { retrain_daily: true, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fugu::TtpConfig;

    #[test]
    fn names_match_figure_one() {
        assert_eq!(SchemeSpec::Bba.name(), "BBA");
        assert_eq!(SchemeSpec::MpcHm.name(), "MPC-HM");
        assert_eq!(SchemeSpec::RobustMpcHm.name(), "RobustMPC-HM");
        let f = SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 1));
        assert_eq!(f.name(), "Fugu");
    }

    #[test]
    fn instantiate_produces_working_abrs() {
        let specs = [
            SchemeSpec::Bba,
            SchemeSpec::Bola,
            SchemeSpec::MpcHm,
            SchemeSpec::RobustMpcHm,
            SchemeSpec::Pensieve(Arc::new(PensievePolicy::new(1))),
            SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 2)),
        ];
        for s in &specs {
            let abr = s.instantiate();
            assert!(!abr.name().is_empty());
        }
    }

    #[test]
    fn update_ttp_swaps_model() {
        let mut spec = SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 3));
        let before = Arc::as_ptr(spec.ttp().unwrap());
        spec.update_ttp(Ttp::new(TtpConfig::default(), 4));
        let after = Arc::as_ptr(spec.ttp().unwrap());
        assert_ne!(before, after);
    }

    #[test]
    fn retrain_flags() {
        assert!(SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 5)).retrains_daily());
        let frozen = SchemeSpec::fugu_frozen(
            Ttp::new(TtpConfig::default(), 6),
            TtpVariant::Full,
            "Emulation-trained Fugu",
        );
        assert!(!frozen.retrains_daily());
        assert_eq!(frozen.name(), "Emulation-trained Fugu");
        assert!(!SchemeSpec::Bba.retrains_daily());
    }

    #[test]
    #[should_panic(expected = "only Fugu arms")]
    fn update_ttp_on_non_fugu_panics() {
        SchemeSpec::Bba.update_ttp(Ttp::new(TtpConfig::default(), 7));
    }
}
