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
//! with [`nn::PackedLstm::input_gates`]. A streaming step then reads that
//! row and `W_h`, never `W_x` or the embedding.
//!
//! Packing changes the memory layout and where the input half is
//! computed, never the values or the kernel reduction order: packed
//! inference is bit-identical to the training forward, which is what
//! keeps the repo's batched-vs-scalar, shard-invariance and
//! ingest-vs-sync byte-identity guarantees intact.

use crate::asdnet::AsdNet;
use crate::rsrnet::RsrNet;
use nn::{PackedLinear, PackedLstm};
use rnet::SegmentId;

/// The packed hot-path weights of one trained model.
#[derive(Debug, Clone)]
pub struct PackedModel {
    /// RSRNet's LSTM, packed (`W_x` and `W_h` separately).
    pub lstm: PackedLstm,
    /// RSRNet's classification head (the "w/o ASDNet" ablation path).
    pub head: PackedLinear,
    /// ASDNet's policy head.
    pub policy: PackedLinear,
    /// `vocab × 4H` row-major: row `s` is `lstm.input_gates(embed[s])`.
    input_gates: Vec<f32>,
}

impl PackedModel {
    /// Packs the hot-path weights of a trained network pair and builds
    /// the per-segment input-gate table.
    pub fn of(rsrnet: &RsrNet, asdnet: &AsdNet) -> Self {
        let lstm = PackedLstm::of(&rsrnet.lstm);
        let gates = 4 * lstm.hidden_dim();
        let mut input_gates = vec![0.0; rsrnet.embed.vocab() * gates];
        for (s, row) in input_gates.chunks_exact_mut(gates).enumerate() {
            lstm.input_gates(rsrnet.embed.lookup(s), row);
        }
        PackedModel {
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
            // and the row drives the same step as the raw cell
            let mut got = state.clone();
            packed
                .lstm
                .infer_step_from(row, &mut got, &mut Default::default());
            assert_eq!(got, rsrnet.lstm.forward(x, &state).0, "segment {s}");
        }
    }
}
