//! RL4OASD: Online Anomalous Subtrajectory Detection on Road Networks with
//! Deep Reinforcement Learning (ICDE 2023) — from-scratch reproduction.
//!
//! The system has three components (paper Fig. 2):
//!
//! 1. **Data preprocessing** ([`preprocess`]): map-matched trajectories are
//!    grouped by SD pair and one-hour time slot; per-transition travel
//!    fractions yield *noisy labels* (threshold α) and per-route fractions
//!    yield *normal-route features* (threshold δ).
//! 2. **RSRNet** ([`rsrnet`]): an LSTM over traffic-context features
//!    (road-segment embeddings pre-trained by a Toast-style skip-gram,
//!    [`toast`]) concatenated with embedded normal-route features produces
//!    a representation `z_i` per road segment, trained with cross-entropy
//!    against noisy (later: refined) labels.
//! 3. **ASDNet** ([`asdnet`]): labelling road segments is a Markov decision
//!    process; a policy network over states `s_i = [z_i ; v(label_{i-1})]`
//!    is trained with REINFORCE, rewarding label continuity (local reward,
//!    cosine similarity of consecutive `z`) and refined-label quality
//!    (global reward, `1/(1+L)` of the RSRNet loss).
//!
//! The networks are trained iteratively without any manual labels
//! ([`train()`]), and the resulting [`detector::Rl4oasdDetector`] labels
//! ongoing trajectories online (Algorithm 1) with the Road Network Enhanced
//! Labeling and Delayed Labeling enhancements. Online learning handles
//! concept drift ([`train::OnlineLearner`]); [`ablation`] builds the
//! paper's Table IV variants.
//!
//! The serving stack on top — [`engine::StreamEngine`] →
//! [`ingest::IngestEngine`], with zero-downtime model hot-swap via
//! [`engine::StreamEngine::swap_model`] / [`ingest::SwapModel`], and
//! [`sharded::ShardedEngine`] as the synchronous reference the
//! byte-identity tests compare against — is documented layer by layer,
//! with its bit-identity invariants and the tests enforcing each, in
//! `docs/ARCHITECTURE.md` at the repository root.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
pub mod asdnet;
pub mod config;
pub mod detector;
pub mod engine;
pub mod ingest;
pub mod packed;
pub mod pipeline;
pub mod preprocess;
pub mod rsrnet;
pub mod sharded;
pub mod toast;
pub mod train;

pub use config::Rl4oasdConfig;
pub use detector::Rl4oasdDetector;
pub use engine::{EngineStats, EpochStats, HibernationConfig, StreamEngine};
pub use ingest::{IngestEngine, IngestReport, SwapModel};
pub use packed::PackedModel;
pub use pipeline::{load_model, save_model, train_from_gps, PipelineResult};
pub use preprocess::{GroupStats, Preprocessor};
pub use sharded::ShardedEngine;
pub use train::{train, train_with_dev, train_with_stats, OnlineLearner, TrainedModel};
