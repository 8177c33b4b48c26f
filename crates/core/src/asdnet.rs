//! ASDNet: Anomalous Subtrajectory Detection Network (paper §IV-D).
//!
//! Labelling road segments is modelled as an MDP:
//!
//! * **state** `s_i = [z_i ; v(e_{i-1}.l)]` — RSRNet's representation
//!   concatenated with an embedding of the previous segment's label;
//! * **action** `a_i ∈ {0, 1}` — label the segment normal or anomalous;
//! * **rewards** — a *local* continuity reward
//!   `sign(e_{i-1}.l = e_i.l) · cos(z_{i-1}, z_i)` (Eq. 2) and a *global*
//!   quality reward `1 / (1 + L)` from RSRNet's loss on the refined labels
//!   (Eq. 3), combined as `R_n = mean(local) + global` (Eq. 5).
//!
//! The stochastic policy is a single-layer feed-forward network with
//! softmax (paper §V-A) trained with REINFORCE (Eq. 4). A running-mean
//! baseline is subtracted from `R_n` to reduce gradient variance — this
//! leaves the gradient estimator unbiased and is the standard REINFORCE
//! stabilisation; the paper does not specify one.

use crate::config::Rl4oasdConfig;
use nn::ops;
use nn::{Embedding, Linear};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The policy network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsdNet {
    /// Label embedding `v(·)`, `2 × label_dim`.
    pub label_embed: Embedding,
    /// Single-layer policy over `[z ; v(prev label)]`, output dim 2.
    pub policy: Linear,
    /// Running-mean reward baseline.
    baseline: f32,
    /// Baseline update momentum.
    baseline_beta: f32,
}

/// One recorded decision of an episode (for the REINFORCE update).
#[derive(Debug, Clone)]
pub struct Step {
    /// The state vector the action was sampled from.
    pub state: Vec<f32>,
    /// Previous label fed into the state (for label-embedding gradients).
    pub prev_label: u8,
    /// The sampled action.
    pub action: u8,
}

impl AsdNet {
    /// Builds the policy network for representations of dimension `z_dim`.
    pub fn new(config: &Rl4oasdConfig, z_dim: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA5D);
        AsdNet {
            label_embed: Embedding::new(2, config.label_dim, &mut rng),
            policy: Linear::new(z_dim + config.label_dim, 2, &mut rng),
            baseline: 0.0,
            baseline_beta: 0.95,
        }
    }

    /// Builds the state `s_i = [z_i ; v(prev_label)]`.
    pub fn state(&self, z: &[f32], prev_label: u8) -> Vec<f32> {
        ops::concat(z, self.label_embed.lookup(prev_label as usize))
    }

    /// Action probabilities `π(a | s)`.
    pub fn action_probs(&self, state: &[f32]) -> [f32; 2] {
        let mut logits = vec![0.0; 2];
        self.policy.infer(state, &mut logits);
        ops::softmax2([logits[0], logits[1]])
    }

    /// Greedy action from raw logits: the larger logit wins (softmax is
    /// monotone, so no `exp` is needed to take its argmax). Shared by the
    /// scalar path and the engine's batched head pass — for both heads,
    /// ASDNet's policy and the w/o-ASDNet RSRNet classifier — so every
    /// path makes bit-identical decisions.
    pub fn greedy_from_logits(logits: [f32; 2]) -> u8 {
        u8::from(logits[1] > logits[0])
    }

    /// Samples an action from the stochastic policy.
    pub fn sample(&self, state: &[f32], rng: &mut StdRng) -> u8 {
        let p = self.action_probs(state);
        u8::from(rng.gen::<f32>() >= p[0])
    }

    /// The local (continuity) reward of Eq. 2 for consecutive
    /// representations and labels.
    pub fn local_reward(prev_label: u8, label: u8, z_prev: &[f32], z: &[f32]) -> f32 {
        let sign = if prev_label == label { 1.0 } else { -1.0 };
        sign * ops::cosine(z_prev, z)
    }

    /// The global reward of Eq. 3 from an RSRNet loss.
    pub fn global_reward(loss: f32) -> f32 {
        1.0 / (1.0 + loss)
    }

    /// REINFORCE update (Eq. 4) for one episode: ascends
    /// `Σ_i R_n ∇ ln π(a_i | s_i)` with the running-mean baseline
    /// subtracted from `R_n`. Returns the advantage used.
    pub fn reinforce(&mut self, steps: &[Step], reward: f32, lr: f32) -> f32 {
        if steps.is_empty() {
            return 0.0;
        }
        // Update the baseline first, then use the residual advantage.
        self.baseline = self.baseline_beta * self.baseline + (1.0 - self.baseline_beta) * reward;
        let advantage = reward - self.baseline;
        self.zero_grad();
        let label_dim = self.label_embed.dim();
        for step in steps {
            let (logits, ctx) = self.policy.forward(&step.state);
            let p = ops::softmax2([logits[0], logits[1]]);
            // d(-R ln π(a|s)) / dlogits = R * (π - onehot(a))
            let mut dlogits = [advantage * p[0], advantage * p[1]];
            dlogits[step.action as usize] -= advantage;
            let dstate = self.policy.backward(&ctx, &dlogits);
            let z_dim = step.state.len() - label_dim;
            self.label_embed
                .backward(step.prev_label as usize, &dstate[z_dim..]);
        }
        let mut params = self.params_mut();
        nn::param::clip_global_norm(&mut params, 5.0);
        // Plain SGD here, deliberately: REINFORCE gradients vanish as the
        // policy grows confident, so SGD steps shrink to zero and the
        // policy is stable at convergence. Adam's bias-corrected steps stay
        // ~lr-sized on pure gradient noise and slowly random-walk a
        // converged policy back to high entropy.
        for p in params {
            p.sgd_step(lr);
        }
        advantage
    }

    /// Behaviour-cloning step for the warm start: the paper pre-trains
    /// ASDNet by "specifying its actions as the noisy labels" and ascending
    /// Eq. 4 — with the actions fixed, that gradient is exactly the
    /// cross-entropy gradient towards the forced actions (scaled by the
    /// reward, which is constant within an episode). Returns the mean CE.
    pub fn clone_step(&mut self, steps: &[Step], lr: f32) -> f32 {
        if steps.is_empty() {
            return 0.0;
        }
        self.zero_grad();
        let label_dim = self.label_embed.dim();
        let scale = 1.0 / steps.len() as f32;
        let mut loss = 0.0f32;
        for step in steps {
            let (logits, ctx) = self.policy.forward(&step.state);
            let p = ops::softmax2([logits[0], logits[1]]);
            loss -= p[step.action as usize].max(1e-12).ln() * scale;
            let mut dlogits = [p[0] * scale, p[1] * scale];
            dlogits[step.action as usize] -= scale;
            let dstate = self.policy.backward(&ctx, &dlogits);
            let z_dim = step.state.len() - label_dim;
            self.label_embed
                .backward(step.prev_label as usize, &dstate[z_dim..]);
        }
        let mut params = self.params_mut();
        nn::param::clip_global_norm(&mut params, 5.0);
        for p in params {
            p.adam_step(lr);
        }
        loss
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// All learnable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut nn::Param> {
        let mut v = Vec::new();
        v.extend(self.label_embed.params_mut());
        v.extend(self.policy.params_mut());
        v
    }

    /// Current reward baseline (diagnostics).
    pub fn baseline(&self) -> f32 {
        self.baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> AsdNet {
        let cfg = Rl4oasdConfig {
            label_dim: 4,
            ..Rl4oasdConfig::tiny(seed)
        };
        AsdNet::new(&cfg, 6)
    }

    #[test]
    fn probs_sum_to_one() {
        let net = tiny(1);
        let s = net.state(&[0.1, -0.2, 0.3, 0.0, 0.5, -0.5], 0);
        let p = net.action_probs(&s);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-6);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn local_reward_signs() {
        let z = vec![1.0, 0.0];
        // same labels, identical z: +1
        assert!((AsdNet::local_reward(0, 0, &z, &z) - 1.0).abs() < 1e-6);
        // different labels, identical z: -1
        assert!((AsdNet::local_reward(0, 1, &z, &z) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn global_reward_range() {
        assert!((AsdNet::global_reward(0.0) - 1.0).abs() < 1e-6);
        assert!(AsdNet::global_reward(10.0) < 0.1);
        assert!(AsdNet::global_reward(0.5) > 0.6);
    }

    #[test]
    fn reinforce_increases_rewarded_action_probability() {
        // Rewarding action 1 in a fixed state must raise π(1|s). The
        // running baseline starts at 0, so a positive reward yields a
        // positive advantage.
        let mut net = tiny(2);
        let z = vec![0.2, -0.1, 0.4, 0.3, -0.2, 0.1];
        let state = net.state(&z, 0);
        let before = net.action_probs(&state)[1];
        for _ in 0..30 {
            let state = net.state(&z, 0);
            let steps = vec![Step {
                state: state.clone(),
                prev_label: 0,
                action: 1,
            }];
            net.reinforce(&steps, 1.0, 0.05);
        }
        let state = net.state(&z, 0);
        let after = net.action_probs(&state)[1];
        assert!(after > before, "π(1|s) {before} -> {after}");
    }

    #[test]
    fn negative_advantage_decreases_probability() {
        let mut net = tiny(3);
        let z = vec![0.5; 6];
        // Saturate the baseline high so a zero reward has negative
        // advantage.
        for _ in 0..50 {
            let s = net.state(&z, 1);
            net.reinforce(
                &[Step {
                    state: s,
                    prev_label: 1,
                    action: 0,
                }],
                2.0,
                0.0001,
            );
        }
        let s = net.state(&z, 1);
        let before = net.action_probs(&s)[0];
        for _ in 0..30 {
            let s = net.state(&z, 1);
            net.reinforce(
                &[Step {
                    state: s,
                    prev_label: 1,
                    action: 0,
                }],
                0.0,
                0.05,
            );
        }
        let s = net.state(&z, 1);
        let after = net.action_probs(&s)[0];
        assert!(after < before, "π(0|s) {before} -> {after}");
    }

    #[test]
    fn sampling_is_distributed() {
        let net = tiny(4);
        let z = vec![0.0; 6];
        let s = net.state(&z, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut ones = 0;
        for _ in 0..200 {
            ones += net.sample(&s, &mut rng) as usize;
        }
        // near-uniform policy at init: both actions sampled
        assert!(ones > 20 && ones < 180, "ones = {ones}");
    }

    #[test]
    fn empty_episode_is_noop() {
        let mut net = tiny(5);
        assert_eq!(net.reinforce(&[], 1.0, 0.1), 0.0);
    }
}
