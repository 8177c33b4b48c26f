//! Packed (inference-ready) form of a trained RL4OASD model.
//!
//! Serving never mutates weights, so the dense matrices on the per-point
//! hot path — RSRNet's LSTM gate matrix, its classification head and
//! ASDNet's policy head — are re-packed once into the row-padded layout
//! the vectorized `nn::ops::kernels` prefer (see `nn::pack`).
//! [`crate::TrainedModel`] caches a [`PackedModel`] once per model, so
//! every engine — [`crate::StreamEngine`], [`crate::ShardedEngine`],
//! [`crate::IngestEngine`] and the single-session
//! [`crate::Rl4oasdDetector`] — shares one packed copy with zero per-tick
//! repacking.
//!
//! RSRNet's LSTM input is the segment embedding and nothing else (the NRF
//! embedding bypasses the LSTM), so the input half of every gate
//! pre-activation, `u = W_x·embed[seg] + b`, is a function of the segment
//! id. The packed model tabulates it: one `4H` row per segment, built
//! with [`nn::PackedLstm::input_gates`] in `f32`. A streaming step then
//! reads that row and the int8 `W_h` ([`nn::PackedLstmI8`]), never `W_x`
//! or the embedding, and keeps its hidden state as int8 at scale 1/127
//! (the integer gate of `nn::ops::kernels`).
//!
//! The table and both heads are bit-identical to the training forward.
//! The recurrent gate is not: it is quantised, a post-training transform
//! (training, the model JSON and the weights stay `f32`). Every serving
//! path — scalar, batched, sharded, ingest-driven, hibernated — runs the
//! same integer gate, whose sums are exact in any order, which is what
//! keeps the repo's batched-vs-scalar, shard-invariance and
//! ingest-vs-sync byte-identity guarantees intact.

use crate::asdnet::AsdNet;
use crate::rsrnet::RsrNet;
use nn::{PackedLinear, PackedLstm, PackedLstmI8};
use rnet::SegmentId;

/// The packed hot-path weights of one trained model.
#[derive(Debug, Clone)]
pub struct PackedModel {
    /// RSRNet's LSTM, packed in `f32` (`W_x` and `W_h` separately): the
    /// reference form, which builds the input-gate table.
    pub lstm: PackedLstm,
    /// RSRNet's LSTM serving step: `W_h` in int8.
    pub lstm_i8: PackedLstmI8,
    /// RSRNet's classification head (the "w/o ASDNet" ablation path).
    pub head: PackedLinear,
    /// ASDNet's policy head.
    pub policy: PackedLinear,
    /// `vocab × 4H` row-major: row `s` is `lstm.input_gates(embed[s])`.
    input_gates: Vec<f32>,
}

impl PackedModel {
    /// Packs the hot-path weights of a trained network pair, builds the
    /// per-segment input-gate table and quantises `W_h`.
    pub fn of(rsrnet: &RsrNet, asdnet: &AsdNet) -> Self {
        let lstm = PackedLstm::of(&rsrnet.lstm);
        let gates = 4 * lstm.hidden_dim();
        let mut input_gates = vec![0.0; rsrnet.embed.vocab() * gates];
        for (s, row) in input_gates.chunks_exact_mut(gates).enumerate() {
            lstm.input_gates(rsrnet.embed.lookup(s), row);
        }
        PackedModel {
            lstm_i8: PackedLstmI8::of(&lstm),
            lstm,
            head: PackedLinear::of(&rsrnet.head),
            policy: PackedLinear::of(&asdnet.policy),
            input_gates,
        }
    }

    /// The input half of the LSTM gates for `seg`:
    /// `W_x·embed[seg] + b`, `4H` long.
    ///
    /// # Panics
    /// Panics if `seg` is outside the model's vocabulary.
    #[inline]
    pub fn input_gates(&self, seg: SegmentId) -> &[f32] {
        let gates = 4 * self.lstm.hidden_dim();
        &self.input_gates[seg.idx() * gates..(seg.idx() + 1) * gates]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Rl4oasdConfig;
    use nn::LstmState;

    #[test]
    fn table_rows_are_the_input_gates_of_each_embedding() {
        let cfg = Rl4oasdConfig {
            embed_dim: 11,
            hidden_dim: 9,
            ..Rl4oasdConfig::tiny(3)
        };
        let rsrnet = RsrNet::new(&cfg, 17, None);
        let packed = PackedModel::of(&rsrnet, &AsdNet::new(&cfg, rsrnet.z_dim()));
        let mut u = vec![0.0; 4 * cfg.hidden_dim];
        let state = LstmState::zeros(cfg.hidden_dim);
        for s in 0..rsrnet.embed.vocab() {
            let x = rsrnet.embed.lookup(s);
            packed.lstm.input_gates(x, &mut u);
            let row = packed.input_gates(SegmentId(s as u32));
            assert_eq!(row, &u[..], "segment {s}");
            // From the zero state the integer gate is exactly zero, so the
            // serving step's first state is the training forward's, with
            // `h` quantised.
            let want = rsrnet.lstm.forward(x, &state).0;
            let (mut c, mut h) = (vec![0.0; cfg.hidden_dim], vec![0i8; cfg.hidden_dim]);
            packed
                .lstm_i8
                .step(row, &mut c, &mut h, &mut Default::default());
            assert_eq!(c, want.c, "segment {s}");
            let want_h: Vec<i8> = want
                .h
                .iter()
                .map(|&v| nn::ops::kernels::quantize_h(v))
                .collect();
            assert_eq!(h, want_h, "segment {s}");
        }
    }
}
