//! RSRNet: Road Segment Representation Network (paper §IV-C).
//!
//! Architecture (paper Fig. 2): a trainable road-segment embedding layer
//! (initialised from Toast vectors) feeds an LSTM; the hidden state `h_i`
//! is concatenated with the embedded normal-route feature `x^n_i` to form
//! the representation `z_i = [h_i ; x^n_i]`; a softmax head predicts the
//! segment's label. Training minimises the mean cross-entropy (Eq. 1)
//! against noisy labels (warm-start) or ASDNet-refined labels (joint
//! training). The NRF embedding deliberately bypasses the LSTM ("we do not
//! let x^n go through the LSTM since it preserves the normal route feature
//! at each road segment").

use crate::config::Rl4oasdConfig;
use crate::packed::PackedModel;
use nn::ops;
use nn::{Embedding, Linear, LstmCell, LstmCtx, LstmScratch, LstmState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rnet::SegmentId;
use serde::{Deserialize, Serialize};

/// Global gradient-norm clip of every training step.
const MAX_GRAD_NORM: f32 = 5.0;

/// The parameters a training step updates densely: all but the segment
/// embedding, in [`RsrNet::params_mut`] order.
fn dense_params<'a>(
    nrf_embed: &'a mut Embedding,
    lstm: &'a mut LstmCell,
    head: &'a mut Linear,
) -> Vec<&'a mut nn::Param> {
    let mut v = nrf_embed.params_mut();
    v.extend(lstm.params_mut());
    v.extend(head.params_mut());
    v
}

/// The representation network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RsrNet {
    /// Traffic-context (road segment) embedding, `vocab × embed_dim`.
    pub embed: Embedding,
    /// Normal-route-feature embedding, `2 × nrf_dim`.
    pub nrf_embed: Embedding,
    /// Sequence encoder.
    pub lstm: LstmCell,
    /// Classification head over `z = [h ; nrf]`, output dim 2.
    pub head: Linear,
}

/// Cached forward pass of a whole trajectory (training path).
pub struct RsrForward {
    /// Representations `z_i = [h_i ; x^n_i]`.
    pub zs: Vec<Vec<f32>>,
    /// Softmax label probabilities per position.
    pub probs: Vec<[f32; 2]>,
    lstm_ctxs: Vec<LstmCtx>,
    head_ctxs: Vec<nn::LinearCtx>,
    segs: Vec<SegmentId>,
    nrf: Vec<u8>,
}

/// Streaming state for online inference (one LSTM step per observed
/// segment; no gradient bookkeeping): the hidden state quantised to int8
/// at scale 1/127 — the only form serving ever stores — and the `f32`
/// cell state. `5·hidden_dim` bytes of vectors (320 B at hidden 64).
#[derive(Debug, Clone)]
pub struct RsrStream {
    h: Vec<i8>,
    c: Vec<f32>,
}

impl RsrStream {
    /// The quantised hidden state (session hibernation encodes it).
    pub(crate) fn h(&self) -> &[i8] {
        &self.h
    }

    /// The cell state (session hibernation encodes it).
    pub(crate) fn c(&self) -> &[f32] {
        &self.c
    }

    /// Rebuilds a stream from explicit state vectors (session thaw). The
    /// caller guarantees the vectors came from a stream of the same
    /// `hidden_dim`.
    pub(crate) fn from_parts(h: Vec<i8>, c: Vec<f32>) -> Self {
        debug_assert_eq!(h.len(), c.len());
        RsrStream { h, c }
    }

    /// Heap bytes of the state vectors.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.h.capacity() + self.c.capacity() * std::mem::size_of::<f32>()
    }
}

/// Appends `z = [q_h / 127 ; nrf]`: the representation the heads read,
/// the same expression in every path.
#[inline]
fn push_z(z: &mut Vec<f32>, h: &[i8], nrf: &[f32]) {
    z.extend(h.iter().map(|&q| f32::from(q) / nn::ops::kernels::H_SCALE));
    z.extend_from_slice(nrf);
}

/// Reusable gather/scatter buffers for [`RsrNet::stream_step_batch`], so a
/// serving engine allocates nothing per round once warm.
#[derive(Debug, Default)]
pub struct RsrBatch {
    c: Vec<f32>,
    h: Vec<i8>,
    z: Vec<f32>,
}

impl RsrNet {
    /// Builds the network. `toast_init` (if given) must be a
    /// `vocab × embed_dim` matrix.
    pub fn new(config: &Rl4oasdConfig, vocab: usize, toast_init: Option<Vec<f32>>) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5A5A);
        let embed = match toast_init {
            Some(v) => Embedding::from_pretrained(vocab, config.embed_dim, v),
            None => Embedding::new(vocab, config.embed_dim, &mut rng),
        };
        RsrNet {
            embed,
            nrf_embed: Embedding::new(2, config.nrf_dim, &mut rng),
            lstm: LstmCell::new(config.embed_dim, config.hidden_dim, &mut rng),
            head: Linear::new(config.hidden_dim + config.nrf_dim, 2, &mut rng),
        }
    }

    /// Dimension of `z` (LSTM hidden + NRF embedding).
    pub fn z_dim(&self) -> usize {
        self.lstm.hidden_dim() + self.nrf_embed.dim()
    }

    /// Full-sequence forward pass keeping gradient contexts.
    ///
    /// # Panics
    /// Panics if `segs.len() != nrf.len()` or the input is empty.
    pub fn forward(&self, segs: &[SegmentId], nrf: &[u8]) -> RsrForward {
        assert_eq!(segs.len(), nrf.len(), "segment/NRF length mismatch");
        assert!(!segs.is_empty(), "empty trajectory");
        let n = segs.len();
        let mut zs = Vec::with_capacity(n);
        let mut probs = Vec::with_capacity(n);
        let mut lstm_ctxs = Vec::with_capacity(n);
        let mut head_ctxs = Vec::with_capacity(n);
        let mut state = LstmState::zeros(self.lstm.hidden_dim());
        for i in 0..n {
            let x = self.embed.lookup(segs[i].idx());
            let (next, ctx) = self.lstm.forward(x, &state);
            state = next;
            let z = ops::concat(&state.h, self.nrf_embed.lookup(nrf[i] as usize));
            let (logits, hctx) = self.head.forward(&z);
            let p = ops::softmax2([logits[0], logits[1]]);
            zs.push(z);
            probs.push(p);
            lstm_ctxs.push(ctx);
            head_ctxs.push(hctx);
        }
        RsrForward {
            zs,
            probs,
            lstm_ctxs,
            head_ctxs,
            segs: segs.to_vec(),
            nrf: nrf.to_vec(),
        }
    }

    /// Mean cross-entropy loss (Eq. 1) of a forward pass against labels.
    pub fn loss_of(&self, fwd: &RsrForward, labels: &[u8]) -> f32 {
        debug_assert_eq!(fwd.probs.len(), labels.len());
        let n = labels.len() as f32;
        fwd.probs
            .iter()
            .zip(labels)
            .map(|(p, &y)| -p[y as usize].max(1e-12).ln())
            .sum::<f32>()
            / n
    }

    /// Convenience: loss without keeping the forward pass.
    pub fn loss(&self, segs: &[SegmentId], nrf: &[u8], labels: &[u8]) -> f32 {
        let fwd = self.forward(segs, nrf);
        self.loss_of(&fwd, labels)
    }

    /// One supervised training step (forward, BPTT, Adam). Returns the
    /// pre-step loss.
    pub fn train_step(&mut self, segs: &[SegmentId], nrf: &[u8], labels: &[u8], lr: f32) -> f32 {
        let fwd = self.forward(segs, nrf);
        self.train_step_from(&fwd, labels, lr)
    }

    /// [`RsrNet::train_step`] on a forward pass the caller already holds,
    /// which must have been computed with the current weights (no step
    /// since). Bit-identical to `train_step` on the same inputs. Returns
    /// the pre-step loss.
    ///
    /// The segment embedding's gradient is kept all-zero between steps:
    /// a step writes only the rows of its trajectory's segments, and its
    /// norm, clip and clean-up visit only those rows. Adam stays dense.
    pub fn train_step_from(&mut self, fwd: &RsrForward, labels: &[u8], lr: f32) -> f32 {
        let loss = self.loss_of(fwd, labels);
        let mut rows: Vec<usize> = fwd.segs.iter().map(|s| s.idx()).collect();
        rows.sort_unstable();
        rows.dedup();
        let table = &mut self.embed.table;
        if table.grad.len() != table.len() {
            // A released table: re-create its gradient and Adam state.
            table.zero_grad();
        }
        debug_assert!(
            table.grad.iter().all(|&g| g.to_bits() == 0),
            "embedding gradient not clear between steps"
        );
        for p in dense_params(&mut self.nrf_embed, &mut self.lstm, &mut self.head) {
            p.zero_grad();
        }
        self.backward(fwd, labels);
        let table = &mut self.embed.table;
        let mut dense = dense_params(&mut self.nrf_embed, &mut self.lstm, &mut self.head);
        nn::param::clip_global_norm_rows(table, &rows, &mut dense, MAX_GRAD_NORM);
        table.adam_step(lr);
        for p in dense {
            p.adam_step(lr);
        }
        table.zero_grad_rows(&rows);
        loss
    }

    /// Accumulates gradients of the mean-CE loss for a cached forward pass.
    fn backward(&mut self, fwd: &RsrForward, labels: &[u8]) {
        let n = fwd.probs.len();
        let hidden = self.lstm.hidden_dim();
        let scale = 1.0 / n as f32;
        // Head + NRF gradients per position; collect dh for BPTT.
        let mut dh_from_head: Vec<Vec<f32>> = Vec::with_capacity(n);
        for (i, &label) in labels.iter().enumerate().take(n) {
            let p = &fwd.probs[i];
            let y = label as usize;
            let mut dlogits = [p[0] * scale, p[1] * scale];
            dlogits[y] -= scale;
            let dz = self.head.backward(&fwd.head_ctxs[i], &dlogits);
            self.nrf_embed.backward(fwd.nrf[i] as usize, &dz[hidden..]);
            dh_from_head.push(dz[..hidden].to_vec());
        }
        // BPTT through the LSTM and into the segment embeddings.
        let mut dh = vec![0.0f32; hidden];
        let mut dc = vec![0.0f32; hidden];
        for i in (0..n).rev() {
            for (a, b) in dh.iter_mut().zip(&dh_from_head[i]) {
                *a += b;
            }
            let (dx, dh_prev, dc_prev) = self.lstm.backward(&fwd.lstm_ctxs[i], &dh, &dc);
            self.embed.backward(fwd.segs[i].idx(), &dx);
            dh = dh_prev;
            dc = dc_prev;
        }
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// All learnable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut nn::Param> {
        let mut v = self.embed.params_mut();
        v.extend(dense_params(
            &mut self.nrf_embed,
            &mut self.lstm,
            &mut self.head,
        ));
        v
    }

    /// Opens a streaming pass (online detection).
    pub fn stream(&self) -> RsrStream {
        let hidden = self.lstm.hidden_dim();
        RsrStream {
            h: vec![0; hidden],
            c: vec![0.0; hidden],
        }
    }

    /// One streaming step on packed weights, allocation-free: consumes a
    /// segment and its NRF, advances the LSTM from the segment's row of
    /// `packed`'s input-gate table through the integer gate (`packed` is
    /// the packed form of `self`) with reusable scratch, and writes
    /// `z_i = [q_h / 127 ; nrf]` into `z`. The quantised counterpart of
    /// [`RsrNet::forward`]'s `z_i`: the table row holds the input half of
    /// the gates the training forward computes, the recurrent half is the
    /// int8 `W_h·h`.
    pub fn stream_step(
        &self,
        packed: &PackedModel,
        stream: &mut RsrStream,
        seg: SegmentId,
        nrf: u8,
        scratch: &mut LstmScratch,
        z: &mut Vec<f32>,
    ) {
        packed.lstm_i8.step(
            packed.input_gates(seg),
            &mut stream.c,
            &mut stream.h,
            scratch,
        );
        z.clear();
        push_z(z, &stream.h, self.nrf_embed.lookup(nrf as usize));
    }

    /// Batched streaming step: advances `inputs.len()` independent streams
    /// in one pass of the integer gate kernel, each lane reading its
    /// segment's input-gate row in place, and writes each lane's `z_i`
    /// into the flat `batch × z_dim` row-major `zs` buffer (cleared first;
    /// lane `i`'s representation is `zs[i*z_dim..(i+1)*z_dim]`). Only the
    /// lanes' `(h, c)` are gathered, and the flat layout keeps the serving
    /// hot path allocation-free once buffers are warm.
    ///
    /// Per-lane results are **bit-identical** to [`RsrNet::stream_step`] —
    /// integer sums are exact in any blocking — so a serving engine can
    /// mix scalar and batched ticks freely without changing labels.
    ///
    /// # Panics
    /// Panics if `inputs` and `streams` have different lengths.
    pub fn stream_step_batch(
        &self,
        packed: &PackedModel,
        scratch: &mut RsrBatch,
        inputs: &[(SegmentId, u8)],
        streams: &mut [&mut RsrStream],
        zs: &mut Vec<f32>,
    ) {
        assert_eq!(inputs.len(), streams.len(), "lane count mismatch");
        let hidden = self.lstm.hidden_dim();
        scratch.h.clear();
        scratch.c.clear();
        for stream in streams.iter() {
            scratch.h.extend_from_slice(&stream.h);
            scratch.c.extend_from_slice(&stream.c);
        }
        packed.lstm_i8.step_batch(
            inputs.len(),
            |lane| packed.input_gates(inputs[lane].0),
            &mut scratch.c,
            &mut scratch.h,
            &mut scratch.z,
        );
        zs.clear();
        for (lane, (&(_, nrf), stream)) in inputs.iter().zip(streams.iter_mut()).enumerate() {
            let h = &scratch.h[lane * hidden..(lane + 1) * hidden];
            stream.h.copy_from_slice(h);
            stream
                .c
                .copy_from_slice(&scratch.c[lane * hidden..(lane + 1) * hidden]);
            push_z(zs, h, self.nrf_embed.lookup(nrf as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net(seed: u64) -> RsrNet {
        let cfg = Rl4oasdConfig {
            embed_dim: 10,
            hidden_dim: 8,
            nrf_dim: 4,
            ..Rl4oasdConfig::tiny(seed)
        };
        RsrNet::new(&cfg, 20, None)
    }

    /// The packed form of `net` (with an untrained policy head).
    fn packed(net: &RsrNet) -> PackedModel {
        let asdnet = crate::asdnet::AsdNet::new(&Rl4oasdConfig::tiny(0), net.z_dim());
        PackedModel::of(net, &asdnet)
    }

    fn toy_batch() -> (Vec<SegmentId>, Vec<u8>, Vec<u8>) {
        let segs: Vec<SegmentId> = [0u32, 3, 7, 7, 2, 9]
            .iter()
            .map(|&i| SegmentId(i))
            .collect();
        let nrf = vec![0, 0, 1, 1, 1, 0];
        let labels = vec![0, 0, 1, 1, 1, 0];
        (segs, nrf, labels)
    }

    #[test]
    fn forward_shapes() {
        let net = tiny_net(1);
        let (segs, nrf, _) = toy_batch();
        let fwd = net.forward(&segs, &nrf);
        assert_eq!(fwd.zs.len(), 6);
        assert_eq!(fwd.zs[0].len(), net.z_dim());
        for p in &fwd.probs {
            assert!((p[0] + p[1] - 1.0).abs() < 1e-5);
            assert!(p[0] > 0.0 && p[1] > 0.0);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = tiny_net(2);
        let (segs, nrf, labels) = toy_batch();
        let first = net.loss(&segs, &nrf, &labels);
        let mut last = first;
        for _ in 0..60 {
            last = net.train_step(&segs, &nrf, &labels, 0.01);
        }
        let final_loss = net.loss(&segs, &nrf, &labels);
        assert!(
            final_loss < first * 0.5,
            "loss did not decrease: {first} -> {final_loss} (last step {last})"
        );
    }

    #[test]
    fn gradcheck_full_model() {
        // Finite-difference check through embedding, LSTM, NRF and head.
        let mut net = tiny_net(3);
        let (segs, nrf, labels) = toy_batch();
        net.zero_grad();
        let fwd = net.forward(&segs, &nrf);
        net.backward(&fwd, &labels);
        let segs2 = segs.clone();
        let nrf2 = nrf.clone();
        let labels2 = labels.clone();
        nn::gradcheck::check_model_gradients(
            &mut net,
            &move |m: &RsrNet| m.loss(&segs2, &nrf2, &labels2),
            &|m: &mut RsrNet| m.params_mut(),
            2e-2,
            5e-2,
        );
    }

    /// The model-level bridge: the integer streaming step tracks the
    /// training forward's representations. The NRF half is the same bits;
    /// the hidden half differs by the int8 gate and the 1/127 grid of
    /// `h`, held within `STREAM_Z_BOUND` over the toy trajectory.
    #[test]
    fn stream_matches_batch_forward() {
        // Half a grid step is 1/254 ≈ 0.0039; the toy trajectory's worst
        // is 0.0039 at seed 4.
        const STREAM_Z_BOUND: f32 = 0.01;
        let net = tiny_net(4);
        let packed = packed(&net);
        let (segs, nrf, _) = toy_batch();
        let fwd = net.forward(&segs, &nrf);
        let mut stream = net.stream();
        let mut scratch = LstmScratch::default();
        let mut z = Vec::new();
        let hidden = net.lstm.hidden_dim();
        let mut worst = 0.0f32;
        for i in 0..segs.len() {
            net.stream_step(&packed, &mut stream, segs[i], nrf[i], &mut scratch, &mut z);
            assert_eq!(z[hidden..], fwd.zs[i][hidden..], "position {i}");
            for (a, b) in z[..hidden].iter().zip(&fwd.zs[i][..hidden]) {
                worst = worst.max((a - b).abs());
            }
        }
        assert!(worst <= STREAM_Z_BOUND, "worst |z - z_fwd| = {worst}");
    }

    #[test]
    fn stream_step_batch_matches_scalar_bitwise() {
        let net = tiny_net(8);
        let packed = packed(&net);
        let (segs, nrf, _) = toy_batch();
        let mut lstm_scratch = LstmScratch::default();
        let mut z = Vec::new();
        // Three lanes at different positions of the same toy trajectory.
        let mut scalar: Vec<RsrStream> = (0..3).map(|_| net.stream()).collect();
        for (lane, s) in scalar.iter_mut().enumerate() {
            for i in 0..lane {
                net.stream_step(&packed, s, segs[i], nrf[i], &mut lstm_scratch, &mut z);
            }
        }
        let mut batched = scalar.clone();
        // Advance all three lanes twice: once scalar, once batched.
        let mut scratch = RsrBatch::default();
        for step in 0..2 {
            let inputs: Vec<(SegmentId, u8)> = (0..3)
                .map(|lane| (segs[lane + step], nrf[lane + step]))
                .collect();
            let mut streams: Vec<&mut RsrStream> = batched.iter_mut().collect();
            let mut zs = Vec::new();
            net.stream_step_batch(&packed, &mut scratch, &inputs, &mut streams, &mut zs);
            let z_dim = net.z_dim();
            for (lane, s) in scalar.iter_mut().enumerate() {
                let (seg, nrf) = inputs[lane];
                net.stream_step(&packed, s, seg, nrf, &mut lstm_scratch, &mut z);
                assert_eq!(
                    &zs[lane * z_dim..(lane + 1) * z_dim],
                    &z[..],
                    "step {step} lane {lane}"
                );
            }
        }
    }

    /// The "w/o ASDNet" ablation classifies `z` through the packed RSRNet
    /// head; its probabilities are the training forward's.
    #[test]
    fn classify_matches_forward_probs() {
        let net = tiny_net(5);
        let head = nn::PackedLinear::of(&net.head);
        let (segs, nrf, _) = toy_batch();
        let fwd = net.forward(&segs, &nrf);
        for i in 0..segs.len() {
            let mut logits = [0.0f32; 2];
            head.infer(&fwd.zs[i], &mut logits);
            assert_eq!(ops::softmax2(logits), fwd.probs[i], "position {i}");
        }
    }

    /// The dense reference step: zero every gradient, clip the global norm
    /// over every parameter, Adam. Returns the loss and the pre-clip norm.
    fn dense_reference_step(
        net: &mut RsrNet,
        segs: &[SegmentId],
        nrf: &[u8],
        labels: &[u8],
        lr: f32,
    ) -> (f32, f32) {
        let fwd = net.forward(segs, nrf);
        let loss = net.loss_of(&fwd, labels);
        net.zero_grad();
        net.backward(&fwd, labels);
        let mut params = net.params_mut();
        let norm = nn::param::clip_global_norm(&mut params, MAX_GRAD_NORM);
        for p in params {
            p.adam_step(lr);
        }
        (loss, norm)
    }

    fn value_bits(net: &mut RsrNet) -> Vec<u32> {
        net.params_mut()
            .iter()
            .flat_map(|p| p.value.iter().map(|v| v.to_bits()))
            .collect()
    }

    /// `(segment, nrf, label)` triples as the three input slices.
    fn unzip(traj: &[(u32, u8, u8)]) -> (Vec<SegmentId>, Vec<u8>, Vec<u8>) {
        let segs = traj.iter().map(|&(s, _, _)| SegmentId(s)).collect();
        let nrf = traj.iter().map(|&(_, f, _)| f).collect();
        let labels = traj.iter().map(|&(_, _, l)| l).collect();
        (segs, nrf, labels)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random trajectories over 12 of the 20 segments (so segments
        /// repeat within and across trajectories); `big` scales the NRF
        /// embedding so far that every step's gradient is clipped, and
        /// `released` starts from a net whose optimizer state was dropped.
        #[test]
        fn sparse_steps_match_the_dense_reference(
            trajs in collection::vec(collection::vec((0u32..12, 0u8..2, 0u8..2), 1..9), 1..5),
            big in 0usize..2,
            released in 0usize..2,
            seed in 0u64..1000,
        ) {
            let mut sparse = tiny_net(seed);
            if big == 1 {
                sparse.nrf_embed.table.value.iter_mut().for_each(|v| *v *= 300.0);
            }
            if released == 1 {
                sparse.params_mut().into_iter().for_each(nn::Param::release_optimizer);
            }
            let mut dense = sparse.clone();
            let mut clipped = false;
            for traj in &trajs {
                let (segs, nrf, labels) = unzip(traj);
                let loss = sparse.train_step(&segs, &nrf, &labels, 0.01);
                prop_assert!(
                    sparse.embed.table.grad.iter().all(|g| g.to_bits() == 0),
                    "embedding gradient left non-zero"
                );
                let (want, norm) = dense_reference_step(&mut dense, &segs, &nrf, &labels, 0.01);
                clipped |= norm > MAX_GRAD_NORM;
                prop_assert_eq!(loss.to_bits(), want.to_bits());
                prop_assert_eq!(value_bits(&mut sparse), value_bits(&mut dense));
            }
            prop_assert!(big == 0 || clipped, "the scaled case never clipped");
        }

        #[test]
        fn train_step_from_matches_train_step(
            trajs in collection::vec(collection::vec((0u32..12, 0u8..2, 0u8..2), 1..9), 1..5),
            seed in 0u64..1000,
        ) {
            let mut stepped = tiny_net(seed);
            let mut from = stepped.clone();
            for traj in &trajs {
                let (segs, nrf, labels) = unzip(traj);
                let loss = stepped.train_step(&segs, &nrf, &labels, 0.01);
                let fwd = from.forward(&segs, &nrf);
                prop_assert_eq!(from.train_step_from(&fwd, &labels, 0.01).to_bits(), loss.to_bits());
                prop_assert_eq!(value_bits(&mut from), value_bits(&mut stepped));
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let net = tiny_net(6);
        net.forward(&[SegmentId(0)], &[0, 1]);
    }

    #[test]
    fn toast_init_is_used() {
        let cfg = Rl4oasdConfig {
            embed_dim: 10,
            hidden_dim: 8,
            nrf_dim: 4,
            ..Rl4oasdConfig::tiny(7)
        };
        let init: Vec<f32> = (0..20 * 10).map(|i| i as f32 / 100.0).collect();
        let net = RsrNet::new(&cfg, 20, Some(init.clone()));
        assert_eq!(net.embed.lookup(3), &init[30..40]);
    }
}
