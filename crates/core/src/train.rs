//! Joint training of RSRNet and ASDNet (paper §IV-D) and online learning
//! for concept drift (§IV-E, §V-G).
//!
//! Protocol (paper "Joint Training of RSRNet and ASDNet"):
//!
//! 1. map-match + noisy labels (done upstream / [`Preprocessor`]);
//! 2. **warm start**: 200 random trajectories pre-train RSRNet supervised
//!    on the noisy labels, and pre-train ASDNet with its actions *forced to*
//!    the noisy labels (a REINFORCE step towards the heuristic behaviour);
//! 3. **joint loop**: sample 10,000 trajectories × 5 epochs; per
//!    trajectory, the policy refines labels (sampled actions), the episode
//!    reward `R_n = mean(local) + global` (Eq. 5) updates the policy
//!    (Eq. 4), and RSRNet trains on the refined labels, improving the
//!    representations the policy sees next.

use crate::asdnet::{AsdNet, Step};
use crate::config::Rl4oasdConfig;
use crate::preprocess::{Preprocessor, TrajectoryFeatures};
use crate::rsrnet::{RsrForward, RsrNet};
use crate::toast::{self, ToastConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rnet::RoadNetwork;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use traj::{Dataset, MappedTrajectory};

/// A trained RL4OASD model: preprocessor statistics plus the two networks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The configuration the model was trained with.
    pub config: Rl4oasdConfig,
    /// Fitted group statistics (α-labels, δ-routes).
    pub preprocessor: Preprocessor,
    /// Representation network.
    pub rsrnet: RsrNet,
    /// Policy network.
    pub asdnet: AsdNet,
    /// Lazily-built packed hot-path weights (see [`TrainedModel::packed`]).
    /// Derived from the networks above, so excluded from serialisation via
    /// the [`packed_cache`] adapter and rebuilt on first use after load.
    #[serde(with = "packed_cache")]
    packed: PackedCache,
}

/// The once-built packed form of a model's networks. A clone starts
/// empty: the clone's networks may change (e.g. by fine-tuning) before it
/// is first packed, and a copied cache would then serve stale weights.
#[derive(Debug, Default)]
struct PackedCache(std::sync::OnceLock<crate::packed::PackedModel>);

impl Clone for PackedCache {
    fn clone(&self) -> Self {
        PackedCache::default()
    }
}

impl TrainedModel {
    /// Assembles a model from its trained parts. The networks' gradients
    /// and Adam moments are released: no server reads them, and they
    /// would triple the model's memory and its JSON.
    pub fn from_parts(
        config: Rl4oasdConfig,
        preprocessor: Preprocessor,
        rsrnet: RsrNet,
        asdnet: AsdNet,
    ) -> Self {
        let mut model = TrainedModel {
            config,
            preprocessor,
            rsrnet,
            asdnet,
            packed: PackedCache::default(),
        };
        model.release_optimizer_state();
        model
    }

    /// Drops the optimizer state of both networks (see
    /// [`nn::Param::release_optimizer`]).
    fn release_optimizer_state(&mut self) {
        for p in self.rsrnet.params_mut() {
            p.release_optimizer();
        }
        for p in self.asdnet.params_mut() {
            p.release_optimizer();
        }
    }

    /// The packed hot-path weights, built on first use and cached for the
    /// model's lifetime. Every serving engine sharing this model (via
    /// `Arc`) hits the same packed copy — packing happens once per loaded
    /// model, never per session or per tick.
    ///
    /// # Example
    ///
    /// ```
    /// use rl4oasd::Rl4oasdConfig;
    /// use rnet::{CityBuilder, CityConfig};
    /// use traj::{Dataset, TrafficConfig, TrafficSimulator};
    ///
    /// let net = CityBuilder::new(CityConfig::tiny(3)).build();
    /// let data = TrafficSimulator::new(&net, TrafficConfig::tiny(3)).generate();
    /// let model = rl4oasd::train(&net, &Dataset::from_generated(&data), &Rl4oasdConfig::tiny(3));
    ///
    /// // Packing happens on the first call; later calls hit the cache.
    /// let packed = model.packed();
    /// assert!(std::ptr::eq(packed, model.packed()));
    ///
    /// // The cache is derived data: it survives neither serialisation...
    /// let json = serde_json::to_string(&model).unwrap();
    /// assert!(!json.contains("\"packed\":{"));
    /// // ...nor deserialisation — the loaded model repacks on first use.
    /// let reloaded: rl4oasd::TrainedModel = serde_json::from_str(&json).unwrap();
    /// let _ = reloaded.packed();
    /// ```
    pub fn packed(&self) -> &crate::packed::PackedModel {
        self.packed
            .0
            .get_or_init(|| crate::packed::PackedModel::of(&self.rsrnet, &self.asdnet))
    }

    /// Whether the packed form has been built (see [`TrainedModel::packed`]).
    #[cfg(test)]
    pub(crate) fn is_packed(&self) -> bool {
        self.packed.0.get().is_some()
    }
}

/// Serde adapter for the packed-kernel cache: serialised as `null`
/// (the packed form is derived data), deserialised as an empty cache.
mod packed_cache {
    use super::PackedCache;

    pub fn serialize(_: &PackedCache) -> serde::Value {
        serde::Value::Null
    }

    pub fn deserialize(_: &serde::Value) -> Result<PackedCache, serde::Error> {
        Ok(PackedCache::default())
    }
}

/// Diagnostics of a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainStats {
    /// Mean RSRNet loss per joint epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean episode reward per joint epoch.
    pub epoch_rewards: Vec<f32>,
    /// Wall-clock seconds of the whole run, preprocessor fit included.
    pub train_seconds: f64,
    /// Where [`TrainStats::train_seconds`] went.
    pub phases: PhaseSeconds,
}

/// Wall-clock seconds per training phase (the training cost ledger).
/// The phases run one after another and together make up nearly all of
/// a run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PhaseSeconds {
    /// Fitting the preprocessor's group statistics.
    pub preprocess: f64,
    /// Toast embedding pre-training.
    pub toast: f64,
    /// RSRNet warm start on the noisy labels.
    pub rsrnet_warm: f64,
    /// ASDNet warm start (behaviour cloning of the noisy labels).
    pub asdnet_warm: f64,
    /// The joint RSRNet + ASDNet loop, dev evaluations excluded.
    pub joint: f64,
    /// Dev-set evaluations for model selection.
    pub dev_eval: f64,
}

/// Trains RL4OASD on a road network and an (unlabelled) trajectory corpus.
pub fn train(net: &RoadNetwork, data: &Dataset, config: &Rl4oasdConfig) -> TrainedModel {
    train_with_dev(net, data, None, config).0
}

/// [`train`] returning per-epoch diagnostics (used by Table V / Fig. 6).
pub fn train_with_stats(
    net: &RoadNetwork,
    data: &Dataset,
    config: &Rl4oasdConfig,
) -> (TrainedModel, TrainStats) {
    train_with_dev(net, data, None, config)
}

/// Full training entry point with an optional labelled dev set.
///
/// The paper keeps a small manually labelled development set (100
/// trajectories, §V-A) and "the best model is chosen during the process";
/// when `dev` is provided, the model is evaluated every
/// `config.dev_eval_every` joint episodes and the best-F1 snapshot is
/// returned.
pub fn train_with_dev(
    net: &RoadNetwork,
    data: &Dataset,
    dev: Option<&Dataset>,
    config: &Rl4oasdConfig,
) -> (TrainedModel, TrainStats) {
    config.validate();
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let started = Instant::now();
    let mut stats = TrainStats::default();
    let mut phases = PhaseSeconds::default();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Preprocessing statistics (noisy labels + NRF).
    let clock = Instant::now();
    let preprocessor = Preprocessor::fit(config, data);
    phases.preprocess = clock.elapsed().as_secs_f64();

    // Toast-style embedding pre-training.
    let clock = Instant::now();
    let toast_init = if config.use_toast_init {
        Some(toast::train_embeddings(
            net,
            data,
            &ToastConfig {
                embed_dim: config.embed_dim,
                epochs: config.toast_epochs,
                seed: config.seed ^ 0x70,
                ..Default::default()
            },
        ))
    } else {
        None
    };
    phases.toast = clock.elapsed().as_secs_f64();

    let mut rsrnet = RsrNet::new(config, net.num_segments(), toast_init);
    let mut asdnet = AsdNet::new(config, rsrnet.z_dim());
    let mut model_ctx = ModelCtx {
        config,
        preprocessor: &preprocessor,
        rng: &mut rng,
    };

    // ---- warm start -----------------------------------------------------
    // Phase 1: RSRNet supervised on the noisy labels (several passes so the
    // representations actually encode the heuristic before the policy sees
    // them). The preprocessor is fitted, so each trajectory's features are
    // computed once.
    let clock = Instant::now();
    let pretrain_ids = model_ctx.sample_ids(data, config.pretrain_trajs);
    let warm: Vec<(&MappedTrajectory, Vec<u8>, Vec<u8>)> = pretrain_ids
        .iter()
        .map(|&id| &data.trajectories[id])
        .filter(|traj| traj.len() >= 2)
        .map(|traj| {
            let labels = model_ctx.warmstart_labels(traj);
            (traj, preprocessor.features(traj).nrf, labels)
        })
        .collect();
    for _ in 0..config.pretrain_epochs {
        for (traj, nrf, labels) in &warm {
            rsrnet.train_step(&traj.segments, nrf, labels, config.lr_rsrnet);
        }
    }
    phases.rsrnet_warm = clock.elapsed().as_secs_f64();
    // Phase 2: ASDNet warm start with actions forced to the noisy labels
    // (behaviour cloning; see AsdNet::clone_step). A higher warm-start rate
    // is used — the joint loop then continues at the paper's lr. Skipped
    // entirely for the "w/o ASDNet" ablation, which replaces the policy
    // with an ordinary classifier trained on the noisy labels. RSRNet is
    // frozen here, so each trajectory's representations are computed once.
    let clock = Instant::now();
    if config.use_asdnet {
        let zs: Vec<Vec<Vec<f32>>> = warm
            .iter()
            .map(|(traj, nrf, _)| rsrnet.forward(&traj.segments, nrf).zs)
            .collect();
        for _ in 0..config.pretrain_epochs {
            for ((_, _, labels), zs) in warm.iter().zip(&zs) {
                let steps = forced_steps(&asdnet, zs, labels);
                asdnet.clone_step(&steps, config.lr_rsrnet);
            }
        }
    }
    phases.asdnet_warm = clock.elapsed().as_secs_f64();

    // ---- joint training --------------------------------------------------
    let clock = Instant::now();
    let joint: Vec<(&MappedTrajectory, TrajectoryFeatures)> = model_ctx
        .sample_ids(data, config.joint_trajs)
        .into_iter()
        .map(|id| &data.trajectories[id])
        .filter(|traj| traj.len() >= 2)
        .map(|traj| (traj, preprocessor.features(traj)))
        .collect();
    let joint_lr = config.lr_rsrnet * config.joint_lr_scale;
    let mut best: Option<(f64, RsrNet, AsdNet)> = None;
    let mut consider_best = |rsrnet: &RsrNet, asdnet: &AsdNet, dev: &Dataset| {
        let clock = Instant::now();
        let f1 = dev_f1(config, &preprocessor, rsrnet, asdnet, net, dev);
        if best.as_ref().map(|(b, _, _)| f1 > *b).unwrap_or(true) {
            best = Some((f1, rsrnet.clone(), asdnet.clone()));
        }
        phases.dev_eval += clock.elapsed().as_secs_f64();
    };
    let mut episode = 0usize;
    for _epoch in 0..config.joint_epochs {
        let mut loss_sum = 0.0f32;
        let mut reward_sum = 0.0f32;
        let mut count = 0usize;
        for (traj, feats) in &joint {
            if !config.use_asdnet {
                // "w/o ASDNet": keep training the classifier on the noisy
                // labels; no refinement loop exists without the policy.
                let loss =
                    rsrnet.train_step(&traj.segments, &feats.nrf, &feats.noisy_labels, joint_lr);
                loss_sum += loss;
                count += 1;
                continue;
            }
            let (loss, reward) =
                joint_episode(config, &mut rsrnet, &mut asdnet, traj, feats, model_ctx.rng);
            // A small noisy-label anchor (Rl4oasdConfig::noisy_anchor_weight)
            // also slows RSRNet's drift. It needs a forward of its own: the
            // refined-label step just moved the weights.
            if config.use_noisy_labels && config.noisy_anchor_weight > 0.0 {
                rsrnet.train_step(
                    &traj.segments,
                    &feats.nrf,
                    &feats.noisy_labels,
                    joint_lr * config.noisy_anchor_weight,
                );
            }
            loss_sum += loss;
            reward_sum += reward;
            count += 1;
            episode += 1;
            if let Some(dev) = dev {
                if episode.is_multiple_of(config.dev_eval_every.max(1)) {
                    consider_best(&rsrnet, &asdnet, dev);
                }
            }
        }
        stats.epoch_losses.push(loss_sum / count.max(1) as f32);
        stats.epoch_rewards.push(reward_sum / count.max(1) as f32);
    }
    // Final candidate also competes for best.
    if let Some(dev) = dev {
        consider_best(&rsrnet, &asdnet, dev);
    }
    if let Some((_, r, a)) = best {
        rsrnet = r;
        asdnet = a;
    }
    phases.joint = clock.elapsed().as_secs_f64() - phases.dev_eval;
    stats.phases = phases;
    stats.train_seconds = started.elapsed().as_secs_f64();

    (
        TrainedModel::from_parts(config.clone(), preprocessor, rsrnet, asdnet),
        stats,
    )
}

/// Dev-set F1 of the current model parts (paper's model-selection metric).
fn dev_f1(
    config: &Rl4oasdConfig,
    preprocessor: &Preprocessor,
    rsrnet: &RsrNet,
    asdnet: &AsdNet,
    net: &RoadNetwork,
    dev: &Dataset,
) -> f64 {
    let mut detector =
        crate::detector::Rl4oasdDetector::from_parts(config, preprocessor, rsrnet, asdnet, net);
    let mut outputs = Vec::with_capacity(dev.len());
    let mut truths = Vec::with_capacity(dev.len());
    for t in &dev.trajectories {
        if let Some(gt) = dev.truth(t.id) {
            outputs.push(traj::OnlineDetector::label_trajectory(&mut detector, t));
            truths.push(gt.to_vec());
        }
    }
    eval::evaluate(&outputs, &truths).f1
}

/// One joint episode on one trajectory (paper §IV-D): the policy samples
/// refined labels from RSRNet's representations (endpoints pinned 0 per
/// Algorithm 1 lines 2–3), the episode reward updates the policy, a
/// behaviour-cloning anchor towards the noisy labels follows, and RSRNet
/// takes one step on the refined labels. One RSRNet forward serves the
/// rollout, the global reward and that step: RSRNet's weights do not move
/// in between. Returns the RSRNet loss before its step and the reward.
fn joint_episode(
    config: &Rl4oasdConfig,
    rsrnet: &mut RsrNet,
    asdnet: &mut AsdNet,
    traj: &MappedTrajectory,
    feats: &TrajectoryFeatures,
    rng: &mut StdRng,
) -> (f32, f32) {
    let fwd = rsrnet.forward(&traj.segments, &feats.nrf);
    let n = traj.len();
    let mut refined = vec![0u8; n];
    let mut steps = Vec::with_capacity(n.saturating_sub(2));
    let mut prev = 0u8;
    #[allow(clippy::needless_range_loop)]
    for i in 1..n - 1 {
        let state = asdnet.state(&fwd.zs[i], prev);
        let action = asdnet.sample(&state, rng);
        steps.push(Step {
            state,
            prev_label: prev,
            action,
        });
        refined[i] = action;
        prev = action;
    }
    let reward = episode_reward(config, rsrnet, &fwd, &refined);
    asdnet.reinforce(&steps, reward, config.lr_asdnet);
    // Continued policy anchor (behaviour cloning towards the noisy
    // labels) — keeps the policy from random-walking under REINFORCE
    // variance.
    if config.use_noisy_labels && config.policy_anchor_weight > 0.0 {
        let anchor_steps = forced_steps(asdnet, &fwd.zs, &feats.noisy_labels);
        asdnet.clone_step(
            &anchor_steps,
            config.lr_asdnet * config.policy_anchor_weight,
        );
    }
    // RSRNet trains on the refined labels at a reduced joint-phase rate
    // (see Rl4oasdConfig::joint_lr_scale), so the representation geometry
    // the policy depends on moves slowly.
    let joint_lr = config.lr_rsrnet * config.joint_lr_scale;
    let loss = rsrnet.train_step_from(&fwd, &refined, joint_lr);
    (loss, reward)
}

/// The episode reward `R_n` (Eq. 5): mean local continuity reward over
/// positions 2..n plus the global reward from RSRNet's loss on the refined
/// labels, both read off the episode's forward pass. Ablations can disable
/// either part.
fn episode_reward(config: &Rl4oasdConfig, rsrnet: &RsrNet, fwd: &RsrForward, labels: &[u8]) -> f32 {
    let n = labels.len();
    let zs = &fwd.zs;
    let mut reward = 0.0f32;
    if config.use_local_reward && n >= 2 {
        let mut local = 0.0f32;
        for i in 1..n {
            local += AsdNet::local_reward(labels[i - 1], labels[i], &zs[i - 1], &zs[i]);
        }
        reward += local / (n - 1) as f32;
    }
    if config.use_global_reward {
        reward += AsdNet::global_reward(rsrnet.loss_of(fwd, labels));
    }
    reward
}

/// Builds forced-action steps for the ASDNet warm start.
fn forced_steps(asdnet: &AsdNet, zs: &[Vec<f32>], labels: &[u8]) -> Vec<Step> {
    let n = labels.len();
    let mut steps = Vec::with_capacity(n.saturating_sub(2));
    let mut prev = 0u8;
    for i in 1..n.saturating_sub(1) {
        steps.push(Step {
            state: asdnet.state(&zs[i], prev),
            prev_label: prev,
            action: labels[i],
        });
        prev = labels[i];
    }
    steps
}

struct ModelCtx<'a> {
    config: &'a Rl4oasdConfig,
    preprocessor: &'a Preprocessor,
    rng: &'a mut StdRng,
}

impl ModelCtx<'_> {
    /// Samples `n` trajectory indices (with replacement once exhausted).
    fn sample_ids(&mut self, data: &Dataset, n: usize) -> Vec<usize> {
        let total = data.len();
        if n >= total {
            let mut ids: Vec<usize> = (0..total).collect();
            ids.shuffle(self.rng);
            ids
        } else {
            let mut ids: Vec<usize> = (0..total).collect();
            ids.shuffle(self.rng);
            ids.truncate(n);
            ids
        }
    }

    /// Warm-start labels: the preprocessor's noisy labels, or uniform
    /// random labels for the "w/o noisy labels" ablation.
    fn warmstart_labels(&mut self, traj: &MappedTrajectory) -> Vec<u8> {
        if self.config.use_noisy_labels {
            self.preprocessor.features(traj).noisy_labels
        } else {
            let n = traj.len();
            (0..n)
                .map(|i| {
                    if i == 0 || i == n - 1 {
                        0
                    } else {
                        self.rng.gen_range(0..2) as u8
                    }
                })
                .collect()
        }
    }
}

/// Online learning for concept drift (paper §V-G): refreshes the
/// preprocessor's fraction statistics with newly recorded trajectories and
/// fine-tunes both networks on them.
///
/// The learner owns its model copy, so fine-tuning never mutates weights a
/// serving engine is reading: publish a snapshot (`learner.model.clone()`
/// behind an `Arc`) into a running engine with
/// [`StreamEngine::swap_model`](crate::StreamEngine::swap_model) /
/// [`SwapModel`](crate::SwapModel) — the train → serve → fine-tune → swap
/// loop of `examples/drift_adaptation.rs`.
///
/// # Example
///
/// ```
/// use rl4oasd::{OnlineLearner, Rl4oasdConfig};
/// use rnet::{CityBuilder, CityConfig};
/// use traj::{Dataset, TrafficConfig, TrafficSimulator};
///
/// let net = CityBuilder::new(CityConfig::tiny(4)).build();
/// let data = TrafficSimulator::new(&net, TrafficConfig::tiny(4)).generate();
/// let ds = Dataset::from_generated(&data);
/// let model = rl4oasd::train(&net, &ds, &Rl4oasdConfig::tiny(4));
///
/// // Newly recorded traffic under a drifted regime...
/// let drifted = TrafficSimulator::new(&net, TrafficConfig::tiny(5)).generate();
/// let recent = Dataset::from_generated(&drifted);
///
/// // ...refreshes the statistics and fine-tunes both networks in place.
/// let mut learner = OnlineLearner::new(model);
/// let seconds = learner.fine_tune(&net, &recent);
/// assert!(seconds >= 0.0);
/// let snapshot = std::sync::Arc::new(learner.model.clone()); // publishable
/// # let _ = snapshot;
/// ```
pub struct OnlineLearner {
    /// The model being kept up to date.
    pub model: TrainedModel,
}

impl OnlineLearner {
    /// Wraps a trained model for continued learning.
    pub fn new(model: TrainedModel) -> Self {
        OnlineLearner { model }
    }

    /// Fine-tunes on newly recorded data, refreshing the preprocessing
    /// statistics first. Returns the wall-clock seconds spent.
    ///
    /// Concept drift changes which routes are *normal*, so the refreshed
    /// noisy labels and normal-route features may contradict what the
    /// networks learned. Fine-tuning therefore repeats the training recipe
    /// in miniature on the new data: supervised adaptation of RSRNet and
    /// the policy towards the new noisy labels, followed by the joint
    /// refinement pass.
    ///
    /// Each call starts a new Adam optimizer and releases its state at the
    /// end, so the tuned model is as lean as a freshly trained one and its
    /// packed form is rebuilt from the tuned weights.
    pub fn fine_tune(&mut self, net: &RoadNetwork, new_data: &Dataset) -> f64 {
        let _ = net;
        let started = Instant::now();
        self.model.packed = PackedCache::default();
        self.model.release_optimizer_state();
        let config = self.model.config.clone();
        self.model.preprocessor.refresh(&config, new_data);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xF17E);
        let trajs: Vec<(&MappedTrajectory, TrajectoryFeatures)> = new_data
            .trajectories
            .iter()
            .filter(|traj| traj.len() >= 2)
            .map(|traj| (traj, self.model.preprocessor.features(traj)))
            .collect();
        let TrainedModel { rsrnet, asdnet, .. } = &mut self.model;
        // Phase 1: adapt to the new regime's noisy labels.
        for _ in 0..config.pretrain_epochs.min(2) {
            for (traj, feats) in &trajs {
                rsrnet.train_step(
                    &traj.segments,
                    &feats.nrf,
                    &feats.noisy_labels,
                    config.lr_rsrnet,
                );
                let fwd = rsrnet.forward(&traj.segments, &feats.nrf);
                let steps = forced_steps(asdnet, &fwd.zs, &feats.noisy_labels);
                asdnet.clone_step(&steps, config.lr_rsrnet);
            }
        }
        // Phase 2: one joint refinement pass (as in training).
        for (traj, feats) in &trajs {
            joint_episode(&config, rsrnet, asdnet, traj, feats, &mut rng);
        }
        self.model.release_optimizer_state();
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnet::{CityBuilder, CityConfig};
    use traj::{TrafficConfig, TrafficSimulator};

    fn setup(seed: u64) -> (RoadNetwork, Dataset) {
        let net = CityBuilder::new(CityConfig::tiny(seed)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 3,
            trajs_per_pair: (40, 60),
            anomaly_ratio: 0.12,
            ..TrafficConfig::tiny(seed)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        (net, Dataset::from_generated(&data))
    }

    #[test]
    fn training_completes_and_is_finite() {
        let (net, ds) = setup(1);
        let cfg = Rl4oasdConfig::tiny(1);
        let (model, stats) = train_with_stats(&net, &ds, &cfg);
        assert_eq!(stats.epoch_losses.len(), cfg.joint_epochs);
        assert!(stats.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(stats.epoch_rewards.iter().all(|r| r.is_finite()));
        assert!(model.preprocessor.num_pairs() > 0);
        assert!(stats.train_seconds > 0.0);
    }

    #[test]
    fn rewards_do_not_collapse() {
        // Episode rewards should stay in a sane range (local ∈ [-1, 1],
        // global ∈ (0, 1]) — a sign bug would push them outside.
        let (net, ds) = setup(2);
        let (_, stats) = train_with_stats(&net, &ds, &Rl4oasdConfig::tiny(2));
        for &r in &stats.epoch_rewards {
            assert!((-2.0..=2.0).contains(&r), "reward {r} out of range");
        }
    }

    #[test]
    fn same_seed_models_serialise_to_the_same_bytes() {
        let (net, ds) = setup(5);
        let cfg = Rl4oasdConfig::tiny(5);
        let first = serde_json::to_string(&train(&net, &ds, &cfg)).unwrap();
        let second = serde_json::to_string(&train(&net, &ds, &cfg)).unwrap();
        assert!(first == second, "two same-seed trainings differ in JSON");
        let loaded: TrainedModel = serde_json::from_str(&first).unwrap();
        assert!(
            serde_json::to_string(&loaded).unwrap() == first,
            "save → load → save changed the bytes"
        );
    }

    #[test]
    fn ledger_phases_make_up_the_run() {
        let (net, ds) = setup(6);
        let (_, stats) = train_with_stats(&net, &ds, &Rl4oasdConfig::tiny(6));
        let p = stats.phases;
        let parts = [p.preprocess, p.toast, p.rsrnet_warm, p.asdnet_warm, p.joint];
        assert!(parts.iter().all(|&s| s >= 0.0), "{p:?}");
        assert!(p.joint > 0.0 && p.dev_eval == 0.0, "{p:?}");
        let sum: f64 = parts.iter().sum();
        assert!(
            sum <= stats.train_seconds,
            "{p:?} vs {}",
            stats.train_seconds
        );
    }

    #[test]
    fn fine_tune_runs() {
        let (net, ds) = setup(3);
        let model = train(&net, &ds, &Rl4oasdConfig::tiny(3));
        let mut learner = OnlineLearner::new(model);
        let secs = learner.fine_tune(&net, &ds);
        assert!(secs >= 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let (net, _) = setup(4);
        train(&net, &Dataset::default(), &Rl4oasdConfig::tiny(4));
    }
}
