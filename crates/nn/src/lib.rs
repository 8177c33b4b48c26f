//! Minimal neural-network substrate for the RL4OASD reproduction.
//!
//! The paper implements its models in TensorFlow 1.8; no comparable
//! framework exists in this workspace's allowed dependency set, and the
//! models involved are small (an LSTM with 128 hidden units, single-layer
//! policy and classifier heads, small GRU seq2seq autoencoders for the
//! GM-VSAE baseline family). This crate therefore implements exactly the
//! pieces those models need, with **manual backpropagation** and
//! finite-difference gradient checks on every layer:
//!
//! * [`Param`]: a learnable tensor with gradient and Adam moments;
//! * [`Linear`], [`Embedding`]: dense and lookup layers;
//! * [`LstmCell`], [`GruCell`]: recurrent cells with explicit
//!   forward-context / backward passes (BPTT is driven by the caller, which
//!   keeps this crate free of any graph machinery);
//! * [`ops`]: softmax / cross-entropy / cosine similarity and small vector
//!   helpers;
//! * Adam optimisation via [`Param::adam_step`] and plain SGD via
//!   [`Param::sgd_step`].
//!
//! Everything is `f32`, row-major, and allocation-conscious (per-step
//! scratch buffers are reused by callers where hot).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod embedding;
pub mod gradcheck;
pub mod init;
pub mod linear;
pub mod ops;
pub mod pack;
pub mod param;
pub mod rnn;

pub use embedding::Embedding;
pub use linear::{Linear, LinearCtx};
pub use pack::{
    GruScratch, LstmScratch, PackedGru, PackedI8, PackedLinear, PackedLstm, PackedLstmI8,
    PackedWeights,
};
pub use param::Param;
pub use rnn::{GruCell, GruCtx, LstmCell, LstmCtx, LstmState};
