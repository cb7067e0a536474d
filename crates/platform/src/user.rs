//! Participant behaviour.
//!
//! The paper's users are anonymous members of the public recruited through
//! ads and press coverage (§3.4); what the analysis depends on is the *shape*
//! of their behaviour:
//!
//! * watch times are "skewed" and heavy-tailed (Fig. 10 is a CCDF over three
//!   decades with a power-law tail);
//! * many streams never begin playing or last under 4 seconds — "often users
//!   rapidly changing channels" (Fig. A1);
//! * time-on-site responds to QoE, "driven solely by the upper 5% tail of
//!   viewership duration (sessions lasting more than 2.5 hours)" (§5.1).
//!
//! [`UserModel`] encodes those three facts: log-normal session intents with
//! a Pareto tail, a zap/watch stream mixture, stall-triggered abandonment,
//! and a QoE-sensitive continuation hazard that only activates beyond the
//! 2.5-hour mark.

use puffer_trace::dist;
use rand::Rng;

/// Session-duration threshold beyond which retention becomes QoE-sensitive:
/// "sessions lasting more than 2.5 hours" (§5.1).
pub const TAIL_THRESHOLD: f64 = 2.5 * 3600.0;

/// Median of the log-normal session-intent body, seconds (5 min).
const INTENT_MEDIAN: f64 = 300.0;
/// Sigma of the log-normal body.
const INTENT_SIGMA: f64 = 1.5;
/// Probability a session draws from the Pareto tail instead.
const TAIL_PROB: f64 = 0.085;
/// Pareto scale (seconds) and shape of the tail.
const TAIL_SCALE: f64 = 3600.0;
const TAIL_ALPHA: f64 = 1.30;

/// What the user intends to do with the next stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamIntent {
    /// Rapid channel change: leave after this many seconds, usually before
    /// or shortly after playback begins.
    Zap(f64),
    /// Watch for up to this many seconds (unless the session budget or an
    /// abandonment event ends it first).
    Watch(f64),
}

/// Behavioural parameters of the participant population.
#[derive(Debug, Clone, Copy)]
pub struct UserModel {
    /// Hard cap on session intent, seconds.
    pub intent_cap: f64,
    /// Probability that a stream is a zap rather than a watch segment.
    pub zap_prob: f64,
    /// Abandonment hazard per second of stall.
    pub stall_quit_rate: f64,
    /// Base per-chunk quit probability beyond [`TAIL_THRESHOLD`].
    pub tail_quit_base: f64,
}

impl Default for UserModel {
    fn default() -> Self {
        UserModel {
            intent_cap: 12.0 * 3600.0,
            zap_prob: 0.55,
            stall_quit_rate: 0.05,
            tail_quit_base: 4.0e-4,
        }
    }
}

impl UserModel {
    /// Total time this participant intends to spend on the player (seconds).
    pub fn session_intent<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let intent = if rng.random::<f64>() < TAIL_PROB {
            dist::pareto(rng, TAIL_SCALE, TAIL_ALPHA)
        } else {
            dist::log_normal_median(rng, INTENT_MEDIAN, INTENT_SIGMA)
        };
        intent.min(self.intent_cap).max(1.0)
    }

    /// Intent for the next stream given the remaining session budget.
    pub fn next_stream_intent<R: Rng + ?Sized>(&self, remaining: f64, rng: &mut R) -> StreamIntent {
        if rng.random::<f64>() < self.zap_prob {
            // Zap durations: a bimodal mix of rapid channel-surfing (often
            // leaving before the first chunk even plays — Fig. A1's "did not
            // begin playing" arm) and brief sampling of a channel.
            let d = if rng.random::<f64>() < 0.45 {
                dist::uniform(rng, 0.1, 1.0)
            } else {
                dist::uniform(rng, 0.8, 6.0)
            };
            StreamIntent::Zap(d.min(remaining))
        } else {
            // A watch segment: a chunk of the session, log-normal.
            let seg = dist::log_normal_median(rng, INTENT_MEDIAN, 1.0);
            StreamIntent::Watch(seg.min(remaining))
        }
    }

    /// Does a stall of `stall_seconds` drive the user away?
    pub fn quits_on_stall<R: Rng + ?Sized>(&self, stall_seconds: f64, rng: &mut R) -> bool {
        debug_assert!(stall_seconds >= 0.0);
        let p = 1.0 - (-self.stall_quit_rate * stall_seconds).exp();
        rng.random::<f64>() < p
    }

    /// Per-chunk continuation check in the deep tail (session time beyond
    /// [`TAIL_THRESHOLD`]): the quit hazard rises with poor quality, high
    /// quality variation, and recent stalls — so better QoE begets longer
    /// tails, reproducing Fig. 10's divergence.
    ///
    /// * `recent_ssim_db` — mean SSIM over recent chunks;
    /// * `recent_variation_db` — mean |ΔSSIM| over recent chunks;
    /// * `recent_stall_frac` — stall time / wall time over recent chunks.
    pub fn quits_in_tail<R: Rng + ?Sized>(
        &self,
        session_time: f64,
        recent_ssim_db: f64,
        recent_variation_db: f64,
        recent_stall_frac: f64,
        rng: &mut R,
    ) -> bool {
        if session_time <= TAIL_THRESHOLD {
            return false;
        }
        let hazard = self.tail_hazard(recent_ssim_db, recent_variation_db, recent_stall_frac);
        rng.random::<f64>() < hazard
    }

    /// Per-chunk quit hazard deep in the tail, as a probability.
    pub fn tail_hazard(
        &self,
        recent_ssim_db: f64,
        recent_variation_db: f64,
        recent_stall_frac: f64,
    ) -> f64 {
        let quality_pain = (17.0 - recent_ssim_db).max(0.0);
        let hazard = self.tail_quit_base
            * (1.0 + 0.35 * quality_pain + 0.8 * recent_variation_db + 150.0 * recent_stall_frac);
        hazard.min(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn session_intents_are_heavy_tailed_with_plausible_mean() {
        let m = UserModel::default();
        let mut r = rng(1);
        let n = 30_000;
        let intents: Vec<f64> = (0..n).map(|_| m.session_intent(&mut r)).collect();
        let mean = intents.iter().sum::<f64>() / n as f64;
        // Fig. 10: scheme means are 27–33 minutes.  The *intent* mean sits a
        // bit above the realized mean (abandonment shortens sessions).
        assert!((20.0 * 60.0..70.0 * 60.0).contains(&mean), "mean intent {:.1} min", mean / 60.0);
        // Tail: some sessions beyond 2.5 h, none beyond the cap.
        let tail_frac = intents.iter().filter(|&&x| x > TAIL_THRESHOLD).count() as f64 / n as f64;
        assert!((0.005..0.10).contains(&tail_frac), "tail fraction {tail_frac}");
        assert!(intents.iter().all(|&x| x <= m.intent_cap));
    }

    #[test]
    fn median_matches_configuration() {
        let m = UserModel::default();
        let mut r = rng(2);
        let mut intents: Vec<f64> = (0..20_001).map(|_| m.session_intent(&mut r)).collect();
        intents.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = intents[10_000];
        // Body median 300 s, slightly shifted by the tail mixture.
        assert!((200.0..500.0).contains(&median), "median {median}");
    }

    #[test]
    fn zap_streams_are_short() {
        let m = UserModel::default();
        let mut r = rng(3);
        let mut zaps = 0;
        for _ in 0..2000 {
            match m.next_stream_intent(1e9, &mut r) {
                StreamIntent::Zap(d) => {
                    zaps += 1;
                    assert!((0.0..=6.0).contains(&d));
                }
                StreamIntent::Watch(d) => assert!(d > 0.0),
            }
        }
        let frac = zaps as f64 / 2000.0;
        assert!((0.45..0.65).contains(&frac), "zap fraction {frac}");
    }

    #[test]
    fn stream_intent_respects_remaining_budget() {
        let m = UserModel::default();
        let mut r = rng(4);
        for _ in 0..500 {
            let d = match m.next_stream_intent(10.0, &mut r) {
                StreamIntent::Zap(d) | StreamIntent::Watch(d) => d,
            };
            assert!(d <= 10.0);
        }
    }

    #[test]
    fn long_stalls_drive_users_away_more_often() {
        let m = UserModel::default();
        let mut r = rng(5);
        let rate = |stall: f64, r: &mut rand::rngs::StdRng| {
            (0..4000).filter(|_| m.quits_on_stall(stall, r)).count() as f64 / 4000.0
        };
        let short = rate(0.5, &mut r);
        let long = rate(20.0, &mut r);
        assert!(long > short + 0.2, "short {short} long {long}");
    }

    #[test]
    fn tail_hazard_inactive_before_threshold() {
        let m = UserModel::default();
        let mut r = rng(6);
        for _ in 0..1000 {
            assert!(!m.quits_in_tail(3600.0, 10.0, 3.0, 0.5, &mut r));
        }
    }

    #[test]
    fn tail_hazard_prefers_good_qoe() {
        let m = UserModel::default();
        // Fugu-like (16.9 dB, 0.68 dB variation) vs BBA-like (16.8, 1.03):
        // the hazard gap drives the 10–20% longer Fugu sessions of Fig. 10.
        let fugu = m.tail_hazard(16.9, 0.68, 0.001);
        let bba = m.tail_hazard(16.8, 1.03, 0.001);
        assert!(
            bba > fugu * 1.1 && bba < fugu * 1.6,
            "worse QoE must quit meaningfully (but not wildly) more often: \
             fugu {fugu} bba {bba}"
        );
        // Monte-Carlo sanity: the sampled decision respects the hazard.
        let mut r = rng(7);
        let n = 200_000;
        let quits = (0..n)
            .filter(|_| m.quits_in_tail(TAIL_THRESHOLD + 1.0, 16.9, 0.68, 0.001, &mut r))
            .count() as f64;
        let rate = quits / n as f64;
        assert!((rate - fugu).abs() < 0.3 * fugu, "sampled {rate} vs hazard {fugu}");
    }
}
