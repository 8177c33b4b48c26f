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
//! caches them once (e.g. `rl4oasd`'s `TrainedModel` holds a once-built
//! packed form) and every engine tick — scalar or batched, sharded or
//! ingest-driven — runs on the packed weights with zero per-tick
//! repacking. The steps take reusable [`LstmScratch`] / [`GruScratch`]
//! buffers instead of allocating gate vectors per point, so a warm
//! session allocates nothing.
//!
//! [`PackedLstm`] keeps the input half `W_x` and the recurrent half `W_h`
//! of the gate matrix as two packed matrices, so its steps never build an
//! `[x; h]` concatenation: the gate definition in [`LstmCell`] is two
//! separate dots. [`PackedLstm::input_gates`] is the `W_x` half, which a
//! caller may tabulate per input, and [`PackedLstm::infer_step_from`] is
//! the one serving step, which reads only `W_h` and that half.
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
/// the `4H` input half of the gates and the `4H` recurrent half.
#[derive(Debug, Clone, Default)]
pub struct LstmScratch {
    u: Vec<f32>,
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

/// Inference-ready form of an [`LstmCell`]: the input half `W_x` and the
/// recurrent half `W_h` of the gate matrix packed separately, bias
/// carried alongside.
///
/// A step is split at the gate definition of [`LstmCell`]:
/// [`PackedLstm::input_gates`] computes `u = W_x x + b`, and
/// [`PackedLstm::infer_step_from`] adds `W_h h` and runs the cell update.
/// A caller whose inputs come from a finite vocabulary tabulates `u` once
/// per input and calls only the second half per step, which reads `W_h`
/// and one `4H` row instead of the whole `4H × (I+H)` matrix.
#[derive(Debug, Clone)]
pub struct PackedLstm {
    wx: PackedWeights,
    wh: PackedWeights,
    b: Vec<f32>,
}

impl PackedLstm {
    /// Packs a trained cell.
    pub fn of(cell: &LstmCell) -> Self {
        let (input, hidden) = (cell.input_dim(), cell.hidden_dim());
        let (mut wx, mut wh) = (Vec::new(), Vec::new());
        for row in cell.w.value.chunks(input + hidden) {
            wx.extend_from_slice(&row[..input]);
            wh.extend_from_slice(&row[input..]);
        }
        PackedLstm {
            wx: PackedWeights::pack(&wx, 4 * hidden, input),
            wh: PackedWeights::pack(&wh, 4 * hidden, hidden),
            b: cell.b.value.clone(),
        }
    }

    /// Input dimension.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.wx.cols()
    }

    /// Hidden dimension.
    #[inline]
    pub fn hidden_dim(&self) -> usize {
        self.wh.cols()
    }

    /// The input half of the gate pre-activations, `u = W_x x + b`, into
    /// the `4H` slice `u`.
    pub fn input_gates(&self, x: &[f32], u: &mut [f32]) {
        self.wx.matvec(x, u);
        for (ui, bi) in u.iter_mut().zip(&self.b) {
            *ui += bi;
        }
    }

    /// The serving step: advances `state` in place from the input half
    /// `u` of the gates ([`PackedLstm::input_gates`] of this step's
    /// input). Reads `W_h` and `u`, never `W_x`. The gate buffer is sized
    /// once: the mat-vec overwrites every cell.
    pub fn infer_step_from(&self, u: &[f32], state: &mut LstmState, scratch: &mut LstmScratch) {
        debug_assert_eq!(u.len(), self.b.len());
        debug_assert_eq!(state.h.len(), self.hidden_dim());
        scratch.gates.resize(self.b.len(), 0.0);
        self.wh.matvec(&state.h, &mut scratch.gates);
        kernels::lstm_cell(&scratch.gates, u, &mut state.c, &mut state.h);
    }

    /// Allocation-free scalar step from a raw input `x`:
    /// [`PackedLstm::input_gates`] followed by
    /// [`PackedLstm::infer_step_from`]. Bit-identical to
    /// [`LstmCell::forward`]'s value path.
    pub fn infer_step(&self, x: &[f32], state: &mut LstmState, scratch: &mut LstmScratch) {
        debug_assert_eq!(x.len(), self.input_dim());
        let mut u = std::mem::take(&mut scratch.u);
        u.resize(self.b.len(), 0.0);
        self.input_gates(x, &mut u);
        self.infer_step_from(&u, state, scratch);
        scratch.u = u;
    }

    /// Batched [`PackedLstm::infer_step_from`]: advances `batch`
    /// independent lanes in one pass over `W_h`.
    ///
    /// * `u` — lane `b`'s `4H` input half of the gates, read in place
    ///   (e.g. a row of a per-input table), so nothing is gathered;
    /// * `c` — `batch × hidden` cell states, updated in place;
    /// * `h` — `batch × hidden` hidden vectors, read and then overwritten;
    /// * `z_scratch` — reusable gate buffer (resized to `batch × 4·hidden`,
    ///   never zeroed: the mat-vec overwrites every cell).
    ///
    /// Per-lane results are **bit-identical** to
    /// [`PackedLstm::infer_step_from`] (same kernel accumulation order,
    /// same element-wise gate expressions).
    pub fn infer_step_from_batch<'u>(
        &self,
        batch: usize,
        u: impl Fn(usize) -> &'u [f32],
        c: &mut [f32],
        h: &mut [f32],
        z_scratch: &mut Vec<f32>,
    ) {
        z_scratch.resize(batch * self.b.len(), 0.0);
        self.cells_from_batch(batch, u, c, h, z_scratch);
    }

    /// Batched [`PackedLstm::infer_step`], for inputs not drawn from a
    /// table: `xh` is `batch × (input + hidden)` row-major, each lane's
    /// input concatenated with its previous hidden vector; `c`, `h` and
    /// `z_scratch` as in [`PackedLstm::infer_step_from_batch`] (`h` is
    /// only written; `z_scratch` also holds the lanes' input halves).
    /// Bit-identical per lane to [`PackedLstm::infer_step`].
    pub fn infer_step_batch(
        &self,
        batch: usize,
        xh: &[f32],
        c: &mut [f32],
        h: &mut [f32],
        z_scratch: &mut Vec<f32>,
    ) {
        let (input, hidden, gates) = (self.input_dim(), self.hidden_dim(), self.b.len());
        let row = input + hidden;
        debug_assert_eq!(xh.len(), batch * row);
        z_scratch.resize(2 * batch * gates, 0.0);
        let (us, zs) = z_scratch.split_at_mut(batch * gates);
        let wx = &self.wx;
        kernels::gemm_micro(&wx.data, wx.stride, wx.rows, input, xh, row, batch, us);
        for ub in us.chunks_exact_mut(gates) {
            for (ui, bi) in ub.iter_mut().zip(&self.b) {
                *ui += bi;
            }
        }
        for (hb, xhb) in h.chunks_exact_mut(hidden).zip(xh.chunks_exact(row)) {
            hb.copy_from_slice(&xhb[input..]);
        }
        let us = &*us;
        self.cells_from_batch(batch, |b| &us[b * gates..(b + 1) * gates], c, h, zs);
    }

    /// `zs = W_h h` for every lane, then each lane's cell update with its
    /// input half `u(b)` as the bias.
    fn cells_from_batch<'u>(
        &self,
        batch: usize,
        u: impl Fn(usize) -> &'u [f32],
        c: &mut [f32],
        h: &mut [f32],
        zs: &mut [f32],
    ) {
        let (hidden, gates) = (self.hidden_dim(), self.b.len());
        debug_assert_eq!(c.len(), batch * hidden);
        debug_assert_eq!(h.len(), batch * hidden);
        self.wh.matvec_batch(h, batch, zs);
        for (b, ((zb, cb), hb)) in zs
            .chunks_exact(gates)
            .zip(c.chunks_exact_mut(hidden))
            .zip(h.chunks_exact_mut(hidden))
            .enumerate()
        {
            kernels::lstm_cell(zb, u(b), cb, hb);
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
