//! Packed (inference-ready) weight representations for the serving hot
//! path.
//!
//! Training mutates [`Param`](crate::Param) values in place, so layers
//! keep their weights in plain dense row-major storage. Serving never
//! mutates weights — so a model can be *packed once at load time* into a
//! layout the vectorized [`kernels`](mod@crate::ops::kernels) prefer:
//!
//! * **row padding** — each weight row starts at a multiple of
//!   [`LANES`] `f32`s, so every row's 8-wide
//!   k-blocks sit on consistent 32-byte boundaries (padding is
//!   zero-filled and *never read*: the kernels stop at the logical
//!   column count, which is also why packed results are bit-identical to
//!   the unpacked path — same values, same fixed reduction order);
//! * **precomputed shapes** — the bias is carried alongside and the
//!   stride is resolved once, so the per-tick code is pure kernel calls.
//!
//! [`PackedLinear`], [`PackedLstm`] and [`PackedGru`] are the inference
//! forms of [`Linear`], [`LstmCell`] and [`GruCell`]: each step is
//! bit-identical to the layer's training `forward` value path (this
//! module's tests and `tests/kernels.rs` pin that bridge). A trained model
//! caches them once (e.g. `rl4oasd`'s `TrainedModel` holds a `OnceLock`-ed
//! packed form) and every engine tick — scalar or batched, sharded or
//! ingest-driven — runs on the packed weights with zero per-tick
//! repacking. The steps take reusable [`LstmScratch`] / [`GruScratch`]
//! buffers instead of allocating the `[x; h]` concatenations and gate
//! vectors per point, so a warm session allocates nothing.
//!
//! A transposed layout for the batch≥4 path was evaluated and rejected:
//! it forces a sequential-k accumulation per output cell, a different
//! reduction order than the scalar path, which would break the repo's
//! batched-vs-scalar bit-identity invariants (see the
//! [`kernels`](mod@crate::ops::kernels) docs).

use crate::linear::Linear;
use crate::ops::kernels::{self, LANES};
use crate::ops::{sigmoid, tanh};
use crate::rnn::{GruCell, LstmCell, LstmState};

/// Reusable buffers for the allocation-free scalar LSTM inference step:
/// the `[x; h]` concatenation and the `4H` pre-activation gate vector.
#[derive(Debug, Clone, Default)]
pub struct LstmScratch {
    xh: Vec<f32>,
    gates: Vec<f32>,
}

/// Reusable buffers for the allocation-free scalar GRU inference step:
/// `[x; h]` / `[x; r⊙h]` concatenations and the `z`/`r` gate vectors.
#[derive(Debug, Clone, Default)]
pub struct GruScratch {
    xh: Vec<f32>,
    xrh: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
}

/// A row-major weight matrix re-laid-out with each row padded to the
/// kernel lane width. The padding is zero-filled and never read.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
    stride: usize,
}

impl PackedWeights {
    /// Packs a dense row-major `rows × cols` matrix.
    ///
    /// # Panics
    /// Panics if `values.len() != rows * cols`.
    pub fn pack(values: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(values.len(), rows * cols, "shape mismatch");
        let stride = cols.div_ceil(LANES) * LANES;
        let mut data = vec![0.0f32; rows * stride];
        for r in 0..rows {
            data[r * stride..r * stride + cols].copy_from_slice(&values[r * cols..(r + 1) * cols]);
        }
        PackedWeights {
            data,
            rows,
            cols,
            stride,
        }
    }

    /// Number of logical rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of logical columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Padded row stride in `f32`s (a multiple of the kernel lane width).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The logical (unpadded) row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.stride..r * self.stride + self.cols]
    }

    /// `y = W x`. Bit-identical to `ops::matvec` on the unpacked values.
    #[inline]
    pub fn matvec(&self, x: &[f32], y: &mut [f32]) {
        kernels::matvec(&self.data, self.stride, self.rows, self.cols, x, y)
    }

    /// Batched `ys[b] = W x_b` over `batch` contiguous input rows
    /// (`batch × cols` row-major `xs`, `batch × rows` row-major `ys`).
    /// Bit-identical per lane to [`PackedWeights::matvec`].
    #[inline]
    pub fn matvec_batch(&self, xs: &[f32], batch: usize, ys: &mut [f32]) {
        debug_assert_eq!(xs.len(), batch * self.cols);
        kernels::gemm_micro(
            &self.data,
            self.stride,
            self.rows,
            self.cols,
            xs,
            self.cols,
            batch,
            ys,
        )
    }
}

/// Inference-ready form of a [`Linear`] layer: packed weights plus the
/// bias. Built once per trained model; see the module docs.
#[derive(Debug, Clone)]
pub struct PackedLinear {
    /// Packed `out × in` weight matrix.
    pub w: PackedWeights,
    b: Vec<f32>,
}

impl PackedLinear {
    /// Packs a trained layer.
    pub fn of(layer: &Linear) -> Self {
        PackedLinear {
            w: PackedWeights::pack(&layer.w.value, layer.w.rows, layer.w.cols),
            b: layer.b.value.clone(),
        }
    }

    /// Input dimension.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// `y = W x + b`. Bit-identical to [`Linear::forward`]'s output.
    pub fn infer(&self, x: &[f32], y: &mut [f32]) {
        self.w.matvec(x, y);
        for (yi, bi) in y.iter_mut().zip(&self.b) {
            *yi += bi;
        }
    }

    /// Batched inference: `xs` holds `batch` input rows (`batch × in_dim`,
    /// row-major); writes `batch × out_dim` into `ys`. Bit-identical per
    /// lane to [`PackedLinear::infer`], but walks the weight matrix once
    /// for all lanes.
    pub fn infer_batch(&self, xs: &[f32], batch: usize, ys: &mut [f32]) {
        let out = self.out_dim();
        self.w.matvec_batch(xs, batch, ys);
        for b in 0..batch {
            for (yi, bi) in ys[b * out..(b + 1) * out].iter_mut().zip(&self.b) {
                *yi += bi;
            }
        }
    }
}

/// Inference-ready form of an [`LstmCell`]: the combined `4H × (I+H)`
/// gate matrix packed, bias carried alongside.
#[derive(Debug, Clone)]
pub struct PackedLstm {
    w: PackedWeights,
    b: Vec<f32>,
    input: usize,
    hidden: usize,
}

impl PackedLstm {
    /// Packs a trained cell.
    pub fn of(cell: &LstmCell) -> Self {
        PackedLstm {
            w: PackedWeights::pack(&cell.w.value, cell.w.rows, cell.w.cols),
            b: cell.b.value.clone(),
            input: cell.input_dim(),
            hidden: cell.hidden_dim(),
        }
    }

    /// Input dimension.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimension.
    #[inline]
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Allocation-free scalar step advancing `state` in place.
    /// Bit-identical to [`LstmCell::forward`]'s value path. The gate
    /// buffer is sized once: the mat-vec overwrites every cell.
    pub fn infer_step(&self, x: &[f32], state: &mut LstmState, scratch: &mut LstmScratch) {
        debug_assert_eq!(x.len(), self.input);
        debug_assert_eq!(state.h.len(), self.hidden);
        scratch.xh.clear();
        scratch.xh.extend_from_slice(x);
        scratch.xh.extend_from_slice(&state.h);
        scratch.gates.resize(4 * self.hidden, 0.0);
        self.w.matvec(&scratch.xh, &mut scratch.gates);
        kernels::lstm_cell(&scratch.gates, &self.b, &mut state.c, &mut state.h);
    }

    /// Batched step advancing `batch` independent lanes in one matrix pass.
    ///
    /// * `xh` — `batch × (input + hidden)` row-major, each lane's input
    ///   concatenated with its previous hidden vector;
    /// * `c` — `batch × hidden` cell states, updated in place;
    /// * `h` — `batch × hidden` output hidden vectors, overwritten;
    /// * `z_scratch` — reusable gate buffer (resized to `batch × 4·hidden`,
    ///   never zeroed: the mat-vec overwrites every cell).
    ///
    /// Per-lane results are **bit-identical** to [`LstmCell::forward`] and
    /// to [`PackedLstm::infer_step`] (same kernel accumulation order, same
    /// element-wise gate expressions); the batched form exists so one pass
    /// over the `4H × (I+H)` weight matrix serves every lane that advanced
    /// this tick.
    pub fn infer_step_batch(
        &self,
        batch: usize,
        xh: &[f32],
        c: &mut [f32],
        h: &mut [f32],
        z_scratch: &mut Vec<f32>,
    ) {
        let hidden = self.hidden;
        debug_assert_eq!(xh.len(), batch * (self.input + hidden));
        debug_assert_eq!(c.len(), batch * hidden);
        debug_assert_eq!(h.len(), batch * hidden);
        z_scratch.resize(batch * 4 * hidden, 0.0);
        self.w.matvec_batch(xh, batch, z_scratch);
        for b in 0..batch {
            kernels::lstm_cell(
                &z_scratch[b * 4 * hidden..(b + 1) * 4 * hidden],
                &self.b,
                &mut c[b * hidden..(b + 1) * hidden],
                &mut h[b * hidden..(b + 1) * hidden],
            );
        }
    }
}

/// Inference-ready form of a [`GruCell`]: all three gate matrices packed.
#[derive(Debug, Clone)]
pub struct PackedGru {
    wz: PackedWeights,
    wr: PackedWeights,
    wn: PackedWeights,
    bz: Vec<f32>,
    br: Vec<f32>,
    bn: Vec<f32>,
    input: usize,
    hidden: usize,
}

impl PackedGru {
    /// Packs a trained cell.
    pub fn of(cell: &GruCell) -> Self {
        PackedGru {
            wz: PackedWeights::pack(&cell.wz.value, cell.wz.rows, cell.wz.cols),
            wr: PackedWeights::pack(&cell.wr.value, cell.wr.rows, cell.wr.cols),
            wn: PackedWeights::pack(&cell.wn.value, cell.wn.rows, cell.wn.cols),
            bz: cell.bz.value.clone(),
            br: cell.br.value.clone(),
            bn: cell.bn.value.clone(),
            input: cell.input_dim(),
            hidden: cell.hidden_dim(),
        }
    }

    /// Input dimension.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimension.
    #[inline]
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Allocation-free scalar step writing the new hidden vector into
    /// `h_new`. Bit-identical to [`GruCell::forward`]'s value path.
    pub fn infer_step(
        &self,
        x: &[f32],
        h_prev: &[f32],
        h_new: &mut Vec<f32>,
        scratch: &mut GruScratch,
    ) {
        let hidden = self.hidden;
        debug_assert_eq!(x.len(), self.input);
        debug_assert_eq!(h_prev.len(), hidden);
        scratch.xh.clear();
        scratch.xh.extend_from_slice(x);
        scratch.xh.extend_from_slice(h_prev);
        scratch.z.resize(hidden, 0.0);
        scratch.r.resize(hidden, 0.0);
        self.wz.matvec(&scratch.xh, &mut scratch.z);
        self.wr.matvec(&scratch.xh, &mut scratch.r);
        for k in 0..hidden {
            scratch.z[k] = sigmoid(scratch.z[k] + self.bz[k]);
            scratch.r[k] = sigmoid(scratch.r[k] + self.br[k]);
        }
        scratch.xrh.clear();
        scratch.xrh.extend_from_slice(x);
        scratch
            .xrh
            .extend(scratch.r.iter().zip(h_prev).map(|(rk, hk)| rk * hk));
        h_new.resize(hidden, 0.0);
        self.wn.matvec(&scratch.xrh, h_new);
        for (nk, bk) in h_new.iter_mut().zip(&self.bn) {
            *nk = tanh(*nk + bk);
        }
        for k in 0..hidden {
            h_new[k] = (1.0 - scratch.z[k]) * h_new[k] + scratch.z[k] * h_prev[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn packed_weights_pad_rows_and_preserve_values() {
        let values: Vec<f32> = (0..6).map(|i| i as f32).collect(); // 2×3
        let p = PackedWeights::pack(&values, 2, 3);
        assert_eq!(p.stride(), LANES);
        assert_eq!(p.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(p.row(1), &[3.0, 4.0, 5.0]);
        // padding zero-filled
        assert!(p.data[3..8].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packed_matvec_is_bit_identical_to_unpacked() {
        let values: Vec<f32> = (0..35).map(|i| (i as f32 - 17.0) * 0.21).collect(); // 5×7
        let p = PackedWeights::pack(&values, 5, 7);
        let x: Vec<f32> = (0..7).map(|i| (i as f32) * 0.4 - 1.0).collect();
        let mut y0 = vec![0.0; 5];
        let mut y1 = vec![0.0; 5];
        crate::ops::matvec(&values, 5, 7, &x, &mut y0);
        p.matvec(&x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn packed_linear_matches_raw_bitwise() {
        let l = Linear::new(13, 9, &mut seeded_rng(3));
        let p = PackedLinear::of(&l);
        let xs: Vec<f32> = (0..39).map(|i| (i as f32 - 20.0) * 0.11).collect();
        let mut y = vec![0.0; 9];
        let mut ys = vec![0.0; 27];
        p.infer_batch(&xs, 3, &mut ys);
        for b in 0..3 {
            let (expect, _) = l.forward(&xs[b * 13..(b + 1) * 13]);
            p.infer(&xs[b * 13..(b + 1) * 13], &mut y);
            assert_eq!(y, expect, "scalar lane {b}");
            assert_eq!(&ys[b * 9..(b + 1) * 9], &expect[..], "batched lane {b}");
        }
    }

    #[test]
    fn packed_lstm_scalar_and_batched_match_forward_bitwise() {
        let (input, hidden) = (3, 5);
        let cell = LstmCell::new(input, hidden, &mut seeded_rng(4));
        let p = PackedLstm::of(&cell);
        let x = [0.4, -0.2, 0.9];

        // two chained steps through the packed scalar path
        let mut state = LstmState::zeros(hidden);
        let mut scratch = LstmScratch::default();
        p.infer_step(&x, &mut state, &mut scratch);
        p.infer_step(&x, &mut state, &mut scratch);
        let mut expect = LstmState::zeros(hidden);
        expect = cell.forward(&x, &expect).0;
        expect = cell.forward(&x, &expect).0;
        assert_eq!(state, expect);

        // a third step as a one-lane batch continues the chain; the
        // multi-lane, desynchronised case is
        // `rnn::tests::lstm_batched_step_matches_scalar_bitwise`
        let xh = [&x[..], &state.h[..]].concat();
        let mut c = state.c.clone();
        let mut h = vec![0.0; hidden];
        let mut z = Vec::new();
        p.infer_step_batch(1, &xh, &mut c, &mut h, &mut z);
        let expect = cell.forward(&x, &expect).0;
        assert_eq!(h, expect.h);
        assert_eq!(c, expect.c);
    }

    #[test]
    fn packed_gru_matches_forward_bitwise() {
        let cell = GruCell::new(4, 6, &mut seeded_rng(5));
        let p = PackedGru::of(&cell);
        let x = [0.1, -0.5, 0.3, 0.8];
        let h0 = vec![0.05; 6];
        let (expect, _) = cell.forward(&x, &h0);
        let mut scratch = GruScratch::default();
        let mut got = Vec::new();
        p.infer_step(&x, &h0, &mut got, &mut scratch);
        assert_eq!(got, expect);
    }
}
