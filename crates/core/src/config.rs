//! Configuration of the RL4OASD pipeline.

use serde::{Deserialize, Serialize};

/// Hyperparameters and ablation switches for RL4OASD.
///
/// Defaults follow the paper's §V-A parameter setting scaled to CPU
/// training (the paper uses 128-dimensional embeddings/hidden units on a
/// GPU; [`Rl4oasdConfig::paper`] restores those sizes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rl4oasdConfig {
    /// Noisy-label transition-fraction threshold α (paper: 0.5; default
    /// tuned to 0.25 for the synthetic corpus — its secondary normal
    /// routes carry ~30–38% of traffic, so α must sit below that band;
    /// see the parameter study, `repro_all --only params`).
    pub alpha: f64,
    /// Normal-route fraction threshold δ (paper: 0.4; default tuned to 0.2
    /// for the synthetic corpus for the same reason as α; see the
    /// parameter study).
    pub delta: f64,
    /// Delayed-labeling window D (paper: 8).
    pub delay_d: usize,
    /// Road-segment (TCF) embedding dimension.
    pub embed_dim: usize,
    /// LSTM hidden units.
    pub hidden_dim: usize,
    /// Normal-route-feature embedding dimension.
    pub nrf_dim: usize,
    /// Previous-label embedding dimension in ASDNet states.
    pub label_dim: usize,
    /// RSRNet learning rate (paper: 0.01).
    pub lr_rsrnet: f32,
    /// ASDNet learning rate (paper: 0.001).
    pub lr_asdnet: f32,
    /// Trajectories used for warm-start pre-training (paper: 200).
    pub pretrain_trajs: usize,
    /// Warm-start passes over the pre-training set. The paper pre-trains
    /// "separately" without stating a count; several passes are needed for
    /// the warm start to actually steer the joint loop away from the all-
    /// normal degenerate policy.
    pub pretrain_epochs: usize,
    /// Trajectories sampled for joint training (paper: 10,000).
    pub joint_trajs: usize,
    /// Joint-training epochs over the sampled set (paper: 5).
    pub joint_epochs: usize,
    /// Minimum (SD pair, time slot) group size before falling back to the
    /// whole-pair group when computing fractions. The paper's datasets have
    /// hundreds of trajectories per labelled pair; synthetic corpora can be
    /// sparser, and per-slot fractions over a handful of trajectories are
    /// meaningless.
    pub min_group_size: usize,
    /// Skip-gram epochs for Toast-style embedding pre-training.
    pub toast_epochs: usize,
    /// Weight (relative learning-rate multiplier) of the noisy-label anchor
    /// kept on RSRNet during joint training. The paper trains RSRNet only
    /// on the policy's refined labels after the warm start; without an
    /// anchor that loop has a degenerate all-normal fixed point (the policy
    /// labels everything 0, RSRNet fits it, the global reward saturates).
    /// The paper escapes it by selecting "the best model during the
    /// process" on a labelled dev set; we instead keep a small anchor,
    /// which is ablated together with `use_noisy_labels`. Set to 0.0 for
    /// the paper's exact protocol.
    pub noisy_anchor_weight: f32,
    /// Learning-rate scale applied to RSRNet during the joint phase. The
    /// warm start uses the full `lr_rsrnet`; the joint loop must move the
    /// representations slowly or the policy's decision boundary is
    /// invalidated faster than REINFORCE can track it.
    pub joint_lr_scale: f32,
    /// Weight of the continued behaviour-cloning anchor on the policy
    /// during the joint phase (relative to `lr_asdnet`). Stabilises the
    /// policy against REINFORCE variance; ablated with `use_noisy_labels`.
    pub policy_anchor_weight: f32,
    /// Evaluate the model on the dev set (if one is provided) every this
    /// many joint episodes, keeping the best snapshot — the paper's "the
    /// best model is chosen during the process".
    pub dev_eval_every: usize,
    /// RNG seed for model init and action sampling.
    pub seed: u64,
    // ---- ablation switches (Table IV) --------------------------------
    /// Use heuristic noisy labels for warm-start (ablation: random labels).
    pub use_noisy_labels: bool,
    /// Initialise the embedding layer from Toast vectors (ablation: random).
    pub use_toast_init: bool,
    /// Road Network Enhanced Labeling rules at inference.
    pub use_rnel: bool,
    /// Delayed Labeling post-processing at inference.
    pub use_delayed_labeling: bool,
    /// Local (continuity) reward.
    pub use_local_reward: bool,
    /// Global (label-quality) reward.
    pub use_global_reward: bool,
    /// Use the RL network; `false` replaces ASDNet with an ordinary
    /// classifier on RSRNet outputs (ablation "w/o ASDNet").
    pub use_asdnet: bool,
}

impl Default for Rl4oasdConfig {
    fn default() -> Self {
        Rl4oasdConfig {
            alpha: 0.25,
            delta: 0.2,
            delay_d: 8,
            embed_dim: 64,
            hidden_dim: 64,
            nrf_dim: 16,
            label_dim: 16,
            lr_rsrnet: 0.01,
            lr_asdnet: 0.001,
            pretrain_trajs: 200,
            pretrain_epochs: 3,
            joint_trajs: 2_000,
            joint_epochs: 3,
            min_group_size: 50,
            toast_epochs: 3,
            noisy_anchor_weight: 0.3,
            joint_lr_scale: 0.1,
            policy_anchor_weight: 0.3,
            dev_eval_every: 500,
            seed: 0x5EED,
            use_noisy_labels: true,
            use_toast_init: true,
            use_rnel: true,
            use_delayed_labeling: true,
            use_local_reward: true,
            use_global_reward: true,
            use_asdnet: true,
        }
    }
}

impl Rl4oasdConfig {
    /// The paper's exact parameter setting (§V-A): 128-dimensional
    /// embeddings and hidden units, 10,000 joint-training trajectories,
    /// 5 epochs.
    pub fn paper() -> Self {
        Rl4oasdConfig {
            alpha: 0.5,
            delta: 0.4,
            embed_dim: 128,
            hidden_dim: 128,
            nrf_dim: 128,
            label_dim: 128,
            joint_trajs: 10_000,
            joint_epochs: 5,
            ..Default::default()
        }
    }

    /// Small configuration for unit tests: tiny dimensions, few training
    /// trajectories, deterministic.
    pub fn tiny(seed: u64) -> Self {
        Rl4oasdConfig {
            embed_dim: 12,
            hidden_dim: 12,
            nrf_dim: 4,
            label_dim: 4,
            pretrain_trajs: 60,
            pretrain_epochs: 4,
            joint_trajs: 60,
            joint_epochs: 2,
            toast_epochs: 1,
            seed,
            ..Default::default()
        }
    }

    /// Validates the configuration, panicking with a descriptive message on
    /// nonsense values. Called by the training entry points.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.alpha), "alpha must be in [0,1]");
        assert!((0.0..=1.0).contains(&self.delta), "delta must be in [0,1]");
        assert!(self.embed_dim > 0 && self.hidden_dim > 0);
        assert!(self.nrf_dim > 0 && self.label_dim > 0);
        assert!(self.lr_rsrnet > 0.0 && self.lr_asdnet > 0.0);
        assert!(self.joint_epochs > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        Rl4oasdConfig::default().validate();
        Rl4oasdConfig::paper().validate();
        Rl4oasdConfig::tiny(1).validate();
    }

    #[test]
    fn paper_preset_matches_section_5a() {
        let c = Rl4oasdConfig::paper();
        assert_eq!(c.embed_dim, 128);
        assert_eq!(c.hidden_dim, 128);
        assert_eq!(c.joint_trajs, 10_000);
        assert_eq!(c.joint_epochs, 5);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.delta, 0.4);
        assert_eq!(c.delay_d, 8);
        assert_eq!(c.pretrain_trajs, 200);
        assert!((c.lr_rsrnet - 0.01).abs() < 1e-9);
        assert!((c.lr_asdnet - 0.001).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        Rl4oasdConfig {
            alpha: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
