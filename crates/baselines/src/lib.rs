//! Baseline detectors from the paper's evaluation (§V-A):
//!
//! * [`iboat::Iboat`] — isolation-based online detection with an adaptive
//!   window over historical support \[8\];
//! * [`dbtod::Dbtod`] — probabilistic driving-behaviour model (road level,
//!   turning angle, historical frequency) \[9\];
//! * [`ctss::Ctss`] — continuous trajectory similarity search via discrete
//!   Fréchet distance to a reference route \[10\];
//! * [`vsae`] — the deep generative family of \[11\]: SAE (plain seq2seq
//!   autoencoder), VSAE (variational), GM-VSAE (Gaussian-mixture latent)
//!   and SD-VSAE (single-component fast variant).
//!
//! All of them natively emit per-segment *anomaly scores*; the paper adapts
//! them to the subtrajectory task by thresholding, with thresholds tuned on
//! a labelled dev set. [`scoring::ScoringDetector`] is that native
//! interface and [`scoring::Thresholded`] the adapter implementing
//! [`traj::OnlineDetector`].

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ctss;
pub mod dbtod;
pub mod iboat;
pub mod scoring;
pub mod stats;
pub mod vsae;

pub use ctss::Ctss;
pub use dbtod::Dbtod;
pub use iboat::Iboat;
pub use scoring::{ScoringDetector, Thresholded};
pub use stats::RouteStats;
pub use vsae::{Seq2SeqDetector, Seq2SeqKind, VsaeConfig};
