//! Pensieve, Mao et al. \[23\]: a learned ABR *policy*.
//!
//! Unlike the MPC family (and Fugu), which learn or compute predictions and
//! feed a classical controller, Pensieve's neural network directly outputs
//! the chunk decision, and therefore must be trained with reinforcement
//! learning in an environment that responds to its decisions (§2).  Per
//! §3.3, the deployed model is the "multi-video model", trained in
//! simulation/emulation over FCC+Norway traces, optimizing a bitrate-based
//! QoE (it "considers the average bitrate of each Puffer stream", not SSIM).
//!
//! We implement the policy network ([`PensievePolicy`]) and an actor–critic
//! policy-gradient trainer with entropy regularization
//! ([`PensieveTrainer`]) — the same family as Pensieve's A3C, single-threaded
//! for determinism.  The training *environment* (simulated streams over
//! FCC-like traces) lives in `puffer-platform`, which feeds completed
//! episodes back here as [`Trajectory`] values.

use crate::{Abr, AbrContext, ChunkRecord, HISTORY_LEN};
use puffer_media::MAX_BUFFER_SECONDS;
use puffer_nn::serialize::{self as nn_ser, LoadError};
use puffer_nn::{
    loss, optim::Adam, Activation, BackwardScratch, Matrix, Mlp, MlpScratch, TrainCache,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of ladder rungs the policy is built for (Puffer's ladder).
pub const N_RUNGS: usize = 10;

/// Feature-vector length: last bitrate, buffer, 8 throughputs, 8 download
/// times, 10 next-chunk sizes, chunks-remaining placeholder.
pub const N_FEATURES: usize = 2 + 2 * HISTORY_LEN + N_RUNGS + 1;

// Normalization constants (Pensieve normalizes all inputs to ~[0, 1]).
const BITRATE_NORM: f64 = 5.5e6; // top-rung nominal bitrate, bits/s
const THROUGHPUT_NORM: f64 = 1.5e6; // bytes/s
const TIME_NORM: f64 = 10.0; // seconds
const SIZE_NORM: f64 = 4.0e6; // bytes

/// Layer widths of the actor (one logit per rung) and the critic.
const ACTOR_DIMS: [usize; 4] = [N_FEATURES, 64, 64, N_RUNGS];
const CRITIC_DIMS: [usize; 4] = [N_FEATURES, 64, 64, 1];

/// The learned ABR policy (actor) and its critic.
#[derive(Debug, Clone)]
pub struct PensievePolicy {
    policy: Mlp,
    value: Mlp,
    /// The actor's input row and forward-pass buffers, reused by every
    /// decision so steady-state inference allocates nothing.
    input: Matrix,
    scratch: MlpScratch,
    /// Sample from the softmax (training) instead of argmax (deployment).
    stochastic: bool,
    /// Probability of starting a sticky exploration burst per decision
    /// (training only; 0 in deployment).
    epsilon: f32,
    /// Active exploration burst: (forced action, remaining chunks).
    burst: Option<(usize, u8)>,
    rng: SmallRng,
    /// Bitrate (bits/s) of the previously chosen chunk.
    prev_bitrate: f64,
}

impl PensievePolicy {
    /// Fresh random policy.  `seed` drives both initialization and action
    /// sampling, so training runs are reproducible.
    pub fn new(seed: u64) -> Self {
        let mut init_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = Mlp::new(&ACTOR_DIMS, Activation::Relu, &mut init_rng);
        let value = Mlp::new(&CRITIC_DIMS, Activation::Relu, &mut init_rng);
        Self::from_nets(policy, value, seed)
    }

    /// A greedy policy over given networks; `seed` drives action sampling.
    fn from_nets(policy: Mlp, value: Mlp, seed: u64) -> Self {
        PensievePolicy {
            policy,
            value,
            input: Matrix::default(),
            scratch: MlpScratch::new(),
            stochastic: false,
            epsilon: 0.0,
            burst: None,
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            prev_bitrate: 0.0,
        }
    }

    /// Switch between stochastic (training) and greedy (deployment) action
    /// selection.
    pub fn set_stochastic(&mut self, stochastic: bool) {
        self.stochastic = stochastic;
    }

    /// Set the sticky-exploration rate used while stochastic (training
    /// only; deployment is greedy and ignores it).
    ///
    /// Exploration is *temporally extended*: with probability `epsilon` per
    /// decision, the policy commits to a uniformly-random rung for a
    /// geometric handful of consecutive chunks.  Single-chunk deviations are
    /// uninformative under Pensieve's objective — the |Δbitrate| smoothness
    /// penalty cancels any one-chunk bitrate gain, so the benefit of a
    /// higher rung only shows up when the switch is *sustained*.
    pub fn set_exploration_epsilon(&mut self, epsilon: f32) {
        assert!((0.0..=1.0).contains(&epsilon));
        self.epsilon = epsilon;
        if epsilon == 0.0 {
            self.burst = None;
        }
    }

    // The zero-padding pushes are intentional (fixed-layout feature
    // vector) — resize() would hide the block structure.
    #[allow(clippy::same_item_push)]
    /// Build the observation vector from the decision context.
    pub fn features(&self, ctx: &AbrContext) -> Vec<f32> {
        let menu = &ctx.lookahead[0];
        assert_eq!(
            menu.n_rungs(),
            N_RUNGS,
            "Pensieve's network is built for the {N_RUNGS}-rung Puffer ladder"
        );
        let mut f = Vec::with_capacity(N_FEATURES);
        f.push((self.prev_bitrate / BITRATE_NORM) as f32);
        f.push((ctx.buffer / MAX_BUFFER_SECONDS) as f32);
        // Past throughputs and download times, zero-padded on the left.
        let pad = HISTORY_LEN.saturating_sub(ctx.history.len());
        for _ in 0..pad {
            f.push(0.0);
        }
        for r in ctx.history.iter().rev().take(HISTORY_LEN).rev() {
            // Clip well above the (emulation) training range: the FCC-like
            // world is capped at 12 Mbit/s (feature 1.0), so a wild-Internet
            // fibre path would otherwise push the feature 40x outside the
            // training distribution; a moderate ceiling bounds the
            // extrapolation without hiding that a path is fast.
            f.push((r.throughput() / THROUGHPUT_NORM).min(4.0) as f32);
        }
        for _ in 0..pad {
            f.push(0.0);
        }
        for r in ctx.history.iter().rev().take(HISTORY_LEN).rev() {
            f.push((r.transmission_time / TIME_NORM) as f32);
        }
        for opt in &menu.options {
            f.push((opt.size / SIZE_NORM) as f32);
        }
        // Live stream: Pensieve's video_num_chunks was set to 24 h of video
        // so it "does not expect the video to end" (§3.3) — the remaining-
        // chunks feature is effectively constant.
        f.push(1.0);
        debug_assert_eq!(f.len(), N_FEATURES);
        f
    }

    /// Action probabilities for a feature vector.
    pub fn action_probs(&mut self, features: &[f32]) -> &[f32] {
        self.input.resize(1, features.len());
        self.input.data_mut().copy_from_slice(features);
        let logits = self.policy.forward_into(&self.input, &mut self.scratch);
        loss::softmax_rows_inplace(logits);
        logits.row(0)
    }

    /// Select an action for a feature vector (stochastic or greedy per
    /// configuration).
    pub fn act(&mut self, features: &[f32]) -> usize {
        let mut probs = [0.0f32; N_RUNGS];
        probs.copy_from_slice(self.action_probs(features));
        if self.stochastic {
            if let Some((action, left)) = self.burst {
                self.burst = if left > 1 { Some((action, left - 1)) } else { None };
                return action;
            }
            if self.epsilon > 0.0 && self.rng.random::<f32>() < self.epsilon {
                let action = self.rng.random_range(0..probs.len());
                // Geometric burst length, mean 4 chunks (~8 s of video).
                let mut len = 1u8;
                while len < 12 && self.rng.random::<f32>() < 0.75 {
                    len += 1;
                }
                self.burst = if len > 1 { Some((action, len - 1)) } else { None };
                return action;
            }
            let u: f64 = self.rng.random();
            let mut acc = 0.0f64;
            for (i, &p) in probs.iter().enumerate() {
                acc += f64::from(p);
                if u < acc {
                    return i;
                }
            }
            probs.len() - 1
        } else {
            loss::argmax(&probs)
        }
    }
}

impl PensievePolicy {
    /// Serialize the actor and critic networks to text (the artifact the
    /// experiment caches between figure runs).
    pub fn save_to_string(&self) -> String {
        let mut out = String::from("pensieve-policy v1\n");
        for net in [&self.policy, &self.value] {
            let ckpt = nn_ser::Checkpoint {
                net: net.clone(),
                scaler: puffer_nn::Scaler::identity(net.input_dim()),
            };
            out.push_str(&nn_ser::save_to_string(&ckpt));
        }
        out
    }

    /// Parse a policy checkpoint; `seed` re-seeds the action sampler only
    /// (weights come from the checkpoint).  Both networks must have the
    /// architecture [`PensievePolicy::new`] builds.
    pub fn load_from_str(s: &str, seed: u64) -> Result<Self, LoadError> {
        let mut lines = s.lines();
        if lines.next() != Some("pensieve-policy v1") {
            return Err(LoadError::Format("missing pensieve-policy magic".into()));
        }
        let nets = nn_ser::load_concatenated(lines)?;
        let [actor, critic] = <[nn_ser::Checkpoint; 2]>::try_from(nets).map_err(|v| {
            LoadError::Format(format!("expected actor + critic, found {} networks", v.len()))
        })?;
        actor.check_architecture("actor", &ACTOR_DIMS, Activation::Relu)?;
        critic.check_architecture("critic", &CRITIC_DIMS, Activation::Relu)?;
        Ok(Self::from_nets(actor.net, critic.net, seed))
    }
}

impl Abr for PensievePolicy {
    fn name(&self) -> &'static str {
        "Pensieve"
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let f = self.features(ctx);
        let a = self.act(&f);
        self.prev_bitrate = ctx.lookahead[0].options[a].bitrate();
        a
    }

    fn on_chunk_delivered(&mut self, _record: ChunkRecord) {}

    fn reset_stream(&mut self) {
        self.prev_bitrate = 0.0;
    }
}

/// One training episode: aligned states, actions, and per-step rewards.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    pub states: Vec<Vec<f32>>,
    pub actions: Vec<usize>,
    pub rewards: Vec<f32>,
}

impl Trajectory {
    pub fn push(&mut self, state: Vec<f32>, action: usize, reward: f32) {
        self.states.push(state);
        self.actions.push(action);
        self.rewards.push(reward);
    }

    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Summary statistics of one trainer update.
#[derive(Debug, Clone, Copy)]
pub struct TrainStats {
    pub mean_return: f32,
    pub policy_entropy: f32,
    pub value_loss: f32,
}

/// Actor–critic policy-gradient trainer with entropy regularization.
///
/// §3.3: the Pensieve authors "recommended that we use a longer-running
/// training and that we tune the entropy parameter"; [`PensieveTrainer::decay_entropy`]
/// implements the entropy-reduction schedule.
#[derive(Debug)]
pub struct PensieveTrainer {
    /// Discount factor over chunks.
    pub gamma: f32,
    /// Entropy-bonus weight β (decayed over training).
    pub entropy_weight: f32,
    policy_opt: Adam,
    value_opt: Adam,
    /// The update batch and every layer's activations, for the critic's
    /// pass and then the actor's.
    cache: TrainCache,
    /// The actor's action probabilities over the batch.
    probs: Matrix,
    scratch: BackwardScratch,
}

impl PensieveTrainer {
    pub fn new(lr: f32) -> Self {
        PensieveTrainer {
            gamma: 0.99,
            entropy_weight: 0.1,
            policy_opt: Adam::new(lr),
            value_opt: Adam::new(lr),
            cache: TrainCache::new(),
            probs: Matrix::default(),
            scratch: BackwardScratch::new(),
        }
    }

    /// Multiply the entropy weight by `factor` (an "entropy reduction
    /// scheme", §3.3).
    pub fn decay_entropy(&mut self, factor: f32, floor: f32) {
        self.entropy_weight = (self.entropy_weight * factor).max(floor);
    }

    // Reverse-index loop mirrors the standard discounted-return recurrence.
    #[allow(clippy::needless_range_loop)]
    /// One synchronous update from a batch of completed episodes.
    pub fn update(
        &mut self,
        agent: &mut PensievePolicy,
        trajectories: &[Trajectory],
    ) -> TrainStats {
        let n: usize = trajectories.iter().map(Trajectory::len).sum();
        assert!(n > 0, "cannot update from empty trajectories");

        // Write the states into the batch and compute discounted returns
        // per episode.
        let x = self.cache.input_mut(n, N_FEATURES);
        let mut actions = Vec::with_capacity(n);
        let mut returns = Vec::with_capacity(n);
        for traj in trajectories {
            assert_eq!(traj.states.len(), traj.actions.len());
            assert_eq!(traj.states.len(), traj.rewards.len());
            let mut g = 0.0f32;
            let mut ep_returns = vec![0.0f32; traj.len()];
            for i in (0..traj.len()).rev() {
                g = traj.rewards[i] + self.gamma * g;
                ep_returns[i] = g;
            }
            for i in 0..traj.len() {
                x.row_mut(returns.len()).copy_from_slice(&traj.states[i]);
                actions.push(traj.actions[i]);
                returns.push(ep_returns[i]);
            }
        }

        // Critic update: fit V(s) to returns.
        agent.value.forward_train(&mut self.cache);
        let (value_loss, dv) = loss::mse(self.cache.logits(), &returns);

        // Advantages from the pre-update critic, normalized across the batch
        // — without this, the raw return scale (tens to hundreds of QoE
        // units across a 300-chunk episode) makes the policy step size
        // depend on the reward units and training diverges.
        let baselines = self.cache.logits().data();
        let mut advantages: Vec<f32> = returns.iter().zip(baselines).map(|(r, b)| r - b).collect();
        let mean_adv = advantages.iter().sum::<f32>() / n as f32;
        let std_adv = (advantages.iter().map(|a| (a - mean_adv).powi(2)).sum::<f32>() / n as f32)
            .sqrt()
            .max(1e-6);
        for a in &mut advantages {
            *a = (*a - mean_adv) / std_adv;
        }
        agent.value.zero_grad();
        agent.value.backward_into(&self.cache, &dv, &mut self.scratch);
        agent.value.clip_grad_norm(5.0);
        agent.value.step(&mut self.value_opt);

        // Actor update: ∇(−logπ(a|s)·A − β·H(π)), over the same batch.
        agent.policy.forward_train(&mut self.cache);
        let probs = &mut self.probs;
        probs.resize(n, N_RUNGS);
        probs.data_mut().copy_from_slice(self.cache.logits().data());
        loss::softmax_rows_inplace(probs);
        let entropies = loss::entropy_rows(probs);
        let mut dlogits = Matrix::zeros(n, N_RUNGS);
        let beta = self.entropy_weight;
        for i in 0..n {
            let adv = advantages[i] / n as f32;
            let h = entropies[i];
            for j in 0..N_RUNGS {
                let p = probs.get(i, j);
                // d(−logπ(a))/ds_j = p_j − 1{j=a}; scaled by advantage.
                let pg = (p - if j == actions[i] { 1.0 } else { 0.0 }) * adv;
                // d(−H)/ds_j = p_j (ln p_j + H).
                let ent = p * (p.max(1e-12).ln() + h) * beta / n as f32;
                dlogits.set(i, j, pg + ent);
            }
        }
        agent.policy.zero_grad();
        agent.policy.backward_into(&self.cache, &dlogits, &mut self.scratch);
        agent.policy.clip_grad_norm(5.0);
        agent.policy.step(&mut self.policy_opt);

        TrainStats {
            mean_return: returns.iter().sum::<f32>() / n as f32,
            policy_entropy: entropies.iter().sum::<f32>() / n as f32,
            value_loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_media::{ChunkMenu, ChunkOption};
    use puffer_net::TcpInfo;

    fn menu10() -> ChunkMenu {
        ChunkMenu {
            index: 0,
            options: (0..10)
                .map(|r| ChunkOption { size: 50_000.0 * (r + 1) as f64, ssim_db: 8.0 + r as f64 })
                .collect(),
        }
    }

    fn ctx<'a>(lookahead: &'a [ChunkMenu], history: &'a [ChunkRecord]) -> AbrContext<'a> {
        AbrContext {
            buffer: 7.5,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead,
            history,
            tcp_info: TcpInfo {
                cwnd: 10.0,
                in_flight: 0.0,
                min_rtt: 0.04,
                rtt: 0.04,
                delivery_rate: 1e6,
            },
        }
    }

    #[test]
    fn feature_vector_shape_and_padding() {
        let p = PensievePolicy::new(1);
        let m = [menu10()];
        let hist = vec![ChunkRecord { size: 300_000.0, transmission_time: 1.0 }; 3];
        let f = p.features(&ctx(&m, &hist));
        assert_eq!(f.len(), N_FEATURES);
        // Buffer feature is 7.5/15 = 0.5.
        assert!((f[1] - 0.5).abs() < 1e-6);
        // First 5 throughput slots padded with zero.
        for k in 0..5 {
            assert_eq!(f[2 + k], 0.0);
        }
        assert!(f[2 + 5] > 0.0);
    }

    #[test]
    fn greedy_act_is_deterministic() {
        let mut p = PensievePolicy::new(2);
        let m = [menu10()];
        let f = p.features(&ctx(&m, &[]));
        let a1 = p.act(&f);
        let a2 = p.act(&f);
        assert_eq!(a1, a2);
    }

    #[test]
    fn stochastic_act_covers_multiple_actions() {
        let mut p = PensievePolicy::new(3);
        p.set_stochastic(true);
        let m = [menu10()];
        let f = p.features(&ctx(&m, &[]));
        // lint: order-insensitive — set only counts distinct actions, never iterated
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(p.act(&f));
        }
        assert!(seen.len() > 1, "a fresh policy should explore");
    }

    #[test]
    fn action_probs_are_a_distribution() {
        let mut p = PensievePolicy::new(4);
        let m = [menu10()];
        let f = p.features(&ctx(&m, &[]));
        let probs = p.action_probs(&f);
        assert_eq!(probs.len(), N_RUNGS);
        let s: f32 = probs.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    /// A contextual-bandit smoke test: reward 1 for action 7, else 0.
    /// The trainer must shift the policy toward action 7.
    #[test]
    fn trainer_learns_a_bandit() {
        let mut agent = PensievePolicy::new(5);
        agent.set_stochastic(true);
        let mut trainer = PensieveTrainer::new(0.003);
        trainer.entropy_weight = 0.01;
        trainer.gamma = 0.0; // bandit: no bootstrapping

        let state: Vec<f32> = (0..N_FEATURES).map(|i| (i as f32 * 0.01).sin()).collect();
        for _ in 0..120 {
            let mut traj = Trajectory::default();
            for _ in 0..16 {
                let a = agent.act(&state);
                let r = if a == 7 { 1.0 } else { 0.0 };
                traj.push(state.clone(), a, r);
            }
            trainer.update(&mut agent, &[traj]);
        }
        let probs = agent.action_probs(&state);
        assert!(probs[7] > 0.5, "policy should concentrate on the rewarded action: {probs:?}");
    }

    #[test]
    fn entropy_decay_has_floor() {
        let mut t = PensieveTrainer::new(0.001);
        for _ in 0..100 {
            t.decay_entropy(0.5, 0.01);
        }
        assert!((t.entropy_weight - 0.01).abs() < 1e-9);
    }

    #[test]
    fn returns_are_discounted_correctly() {
        // Indirect check via mean_return: rewards [0, 0, 1] with γ=0.5 give
        // returns [0.25, 0.5, 1.0] → mean ≈ 0.5833.
        let mut agent = PensievePolicy::new(6);
        let mut trainer = PensieveTrainer::new(1e-5);
        trainer.gamma = 0.5;
        let state = vec![0.1f32; N_FEATURES];
        let mut traj = Trajectory::default();
        traj.push(state.clone(), 0, 0.0);
        traj.push(state.clone(), 1, 0.0);
        traj.push(state, 2, 1.0);
        let stats = trainer.update(&mut agent, &[traj]);
        assert!((stats.mean_return - 0.5833).abs() < 1e-3, "{}", stats.mean_return);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_update_panics() {
        let mut agent = PensievePolicy::new(7);
        let mut trainer = PensieveTrainer::new(0.001);
        trainer.update(&mut agent, &[]);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_actions() {
        let mut p = PensievePolicy::new(11);
        let s = p.save_to_string();
        let mut loaded = PensievePolicy::load_from_str(&s, 999).unwrap();
        let f: Vec<f32> = (0..N_FEATURES).map(|i| (i as f32 * 0.03).cos()).collect();
        assert_eq!(p.action_probs(&f), loaded.action_probs(&f));
        assert_eq!(p.save_to_string(), loaded.save_to_string(), "actor and critic round-trip");
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(PensievePolicy::load_from_str("junk", 0).is_err());
        let p = PensievePolicy::new(12);
        let s = p.save_to_string();
        assert!(PensievePolicy::load_from_str(&s[..s.len() / 3], 0).is_err());
    }

    #[test]
    fn abr_impl_tracks_prev_bitrate() {
        let mut p = PensievePolicy::new(8);
        let m = [menu10()];
        let _ = p.choose(&ctx(&m, &[]));
        assert!(p.prev_bitrate > 0.0);
        p.reset_stream();
        assert_eq!(p.prev_bitrate, 0.0);
    }
}
