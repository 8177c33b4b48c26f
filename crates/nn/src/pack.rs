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
//! caller may tabulate per input.
//!
//! Serving does not step the `f32` cell. [`PackedLstmI8`] is the one
//! serving step: `W_h` quantised to int8 per row ([`PackedI8`]), the
//! hidden state kept as int8 at scale 1/127, the gate an exact integer
//! dot dequantised before the unchanged `f32` cell update (the integer
//! gate of the [`kernels`](mod@crate::ops::kernels) docs). It is *not*
//! bit-identical to [`LstmCell::forward`]; the `f32` [`PackedLstm`] steps
//! stay as the reference form that is.

use crate::linear::Linear;
use crate::ops::kernels::{self, I8Rows, LANES};
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
/// [`PackedLstm::input_gates`] computes `u = W_x x + b`, then `W_h h` is
/// added and the cell update runs. A caller whose inputs come from a
/// finite vocabulary tabulates `u` once per input; the serving step on
/// such a table is [`PackedLstmI8::step`]. The `f32` steps here are the
/// reference form, bit-identical to training.
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

    /// Allocation-free scalar step from a raw input `x`:
    /// [`PackedLstm::input_gates`], then `W_h h` and the cell update.
    /// Bit-identical to [`LstmCell::forward`]'s value path.
    pub fn infer_step(&self, x: &[f32], state: &mut LstmState, scratch: &mut LstmScratch) {
        debug_assert_eq!(x.len(), self.input_dim());
        debug_assert_eq!(state.h.len(), self.hidden_dim());
        scratch.u.resize(self.b.len(), 0.0);
        scratch.gates.resize(self.b.len(), 0.0);
        self.input_gates(x, &mut scratch.u);
        self.wh.matvec(&state.h, &mut scratch.gates);
        kernels::lstm_cell(&scratch.gates, &scratch.u, &mut state.c, &mut state.h);
    }

    /// Batched [`PackedLstm::infer_step`]: `xh` is `batch × (input +
    /// hidden)` row-major, each lane's input concatenated with its
    /// previous hidden vector; `c` is `batch × hidden` cell states,
    /// updated in place; `h` is `batch × hidden`, only written;
    /// `z_scratch` is a reusable buffer (resized, never zeroed: the
    /// mat-vecs overwrite every cell). Walks `W_x` and `W_h` once for all
    /// lanes, and is bit-identical per lane to [`PackedLstm::infer_step`].
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
        debug_assert_eq!(c.len(), batch * hidden);
        debug_assert_eq!(h.len(), batch * hidden);
        z_scratch.resize(2 * batch * gates, 0.0);
        let (us, zs) = z_scratch.split_at_mut(batch * gates);
        let (wx, wh) = (&self.wx, &self.wh);
        kernels::gemm_micro(&wx.data, wx.stride, wx.rows, input, xh, row, batch, us);
        let xh_h = &xh[input..];
        kernels::gemm_micro(&wh.data, wh.stride, wh.rows, hidden, xh_h, row, batch, zs);
        for (b, ((zb, cb), hb)) in zs
            .chunks_exact(gates)
            .zip(c.chunks_exact_mut(hidden))
            .zip(h.chunks_exact_mut(hidden))
            .enumerate()
        {
            let ub = &mut us[b * gates..(b + 1) * gates];
            for (ui, bi) in ub.iter_mut().zip(&self.b) {
                *ui += bi;
            }
            kernels::lstm_cell(zb, ub, cb, hb);
        }
    }
}

/// A matrix quantised to int8 with one scale per row — the form the
/// integer kernels ([`kernels::gemm_i8`]) read. Row `r` keeps
/// `s_r = max|w_r| / 127`, the codes `q = round_half_even(w / s_r)` in
/// `[−127, 127]`, the dequantisation factor `k_r = s_r / 127` (the hidden
/// state's scale folded in) and the VNNI correction `128·Σ q_r`.
///
/// The codes are stored **row-interleaved**: blocks of 8 rows, each block
/// as `⌈cols / 4⌉` groups of 32 bytes holding its 8 rows × 4 consecutive
/// columns. One 32-byte load then
/// feeds eight rows' `i32` lanes (`vpdpbusd` sums 4 products per lane),
/// so no kernel reduces horizontally. Rows and columns are zero-padded to
/// whole blocks and groups; the padding contributes exact zeros.
#[derive(Debug, Clone)]
pub struct PackedI8 {
    blocks: Vec<i8>,
    scale: Vec<f32>,
    corr: Vec<i32>,
    rows: usize,
    cols: usize,
}

/// Rows per interleaved block of a [`PackedI8`] (one `i32` lane of a
/// 256-bit register each).
const I8_BLOCK_ROWS: usize = 8;

impl PackedI8 {
    /// Quantises a dense row-major `rows × cols` matrix. An all-zero row
    /// gets codes 0 and `k = 0`.
    ///
    /// # Panics
    /// Panics if `values.len() != rows * cols`.
    pub fn quantize(values: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(values.len(), rows * cols, "shape mismatch");
        let mut q = Vec::with_capacity(rows * cols);
        let mut k = Vec::with_capacity(rows);
        for row in values.chunks_exact(cols.max(1)).take(rows) {
            let s = row.iter().fold(0.0f32, |m, w| m.max(w.abs())) / 127.0;
            if s > 0.0 {
                q.extend(
                    row.iter()
                        .map(|&w| (w / s).round_ties_even().clamp(-127.0, 127.0) as i8),
                );
            } else {
                q.resize(q.len() + cols, 0);
            }
            k.push(s / 127.0);
        }
        Self::from_codes(&q, k, rows, cols)
    }

    /// A matrix from row-major codes (each in `[−127, 127]`) and per-row
    /// dequantisation factors `k_r`.
    ///
    /// # Panics
    /// Panics on a shape mismatch or a code of −128.
    pub fn from_codes(q: &[i8], k: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(q.len(), rows * cols, "shape mismatch");
        assert_eq!(k.len(), rows, "one factor per row");
        assert!(q.iter().all(|&v| v != i8::MIN), "codes live in [-127, 127]");
        let (row_blocks, groups) = (rows.div_ceil(I8_BLOCK_ROWS), cols.div_ceil(4));
        let padded = row_blocks * I8_BLOCK_ROWS;
        let mut blocks = vec![0i8; padded * groups * 4];
        let mut corr = vec![0i32; padded];
        for r in 0..rows {
            let row = &q[r * cols..(r + 1) * cols];
            for (c, &v) in row.iter().enumerate() {
                blocks[Self::offset(groups, r, c)] = v;
            }
            corr[r] = 128 * row.iter().map(|&v| i32::from(v)).sum::<i32>();
        }
        let mut scale = k;
        scale.resize(padded, 0.0);
        PackedI8 {
            blocks,
            scale,
            corr,
            rows,
            cols,
        }
    }

    /// Index of code `(r, c)` in the interleaved layout.
    #[inline]
    fn offset(groups: usize, r: usize, c: usize) -> usize {
        let (block, lane) = (r / I8_BLOCK_ROWS, r % I8_BLOCK_ROWS);
        ((block * groups + c / 4) * I8_BLOCK_ROWS + lane) * 4 + c % 4
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The code of row `r`, column `c`.
    #[inline]
    pub fn code(&self, r: usize, c: usize) -> i8 {
        assert!(r < self.rows && c < self.cols, "code out of range");
        self.blocks[Self::offset(self.cols.div_ceil(4), r, c)]
    }

    /// Row `r`'s dequantisation factor `k_r = s_r / 127`.
    #[inline]
    pub fn factor(&self, r: usize) -> f32 {
        assert!(r < self.rows, "row out of range");
        self.scale[r]
    }

    /// The view the integer kernels take.
    #[inline]
    pub fn view(&self) -> I8Rows<'_> {
        I8Rows {
            blocks: &self.blocks,
            rows: self.rows,
            cols: self.cols,
            scale: &self.scale,
            corr: &self.corr,
        }
    }
}

/// The serving form of an [`LstmCell`]'s step: `W_h` as int8
/// ([`PackedI8`]) and the hidden state as int8 at scale 1/127 (see the
/// integer gate in the [`kernels`](mod@crate::ops::kernels) docs). The
/// input half of the gates, `u = W_x x + b`, comes from the caller —
/// typically a table of [`PackedLstm::input_gates`] rows — so a step reads
/// only the int8 `W_h` and one `4H` row of `u`.
///
/// A step computes `z_r = (Σ_k q_w[r,k]·q_h[k]) as f32 * k_r`, runs
/// [`kernels::lstm_cell_q`] on `z + u` and writes the new `h` quantised;
/// the cell state `c` stays `f32`.
#[derive(Debug, Clone)]
pub struct PackedLstmI8 {
    wh: PackedI8,
}

impl PackedLstmI8 {
    /// Quantises the recurrent half of a packed cell.
    pub fn of(lstm: &PackedLstm) -> Self {
        let (rows, cols) = (lstm.wh.rows(), lstm.wh.cols());
        let dense: Vec<f32> = (0..rows).flat_map(|r| lstm.wh.row(r)).copied().collect();
        PackedLstmI8 {
            wh: PackedI8::quantize(&dense, rows, cols),
        }
    }

    /// Hidden dimension.
    #[inline]
    pub fn hidden_dim(&self) -> usize {
        self.wh.cols()
    }

    /// The quantised `W_h` (`4H × H`).
    #[inline]
    pub fn wh(&self) -> &PackedI8 {
        &self.wh
    }

    /// The serving step: advances `(c, h)` in place from the input half
    /// `u` of the gates. `h` is the quantised hidden state, read by the
    /// gate and overwritten by the cell update.
    pub fn step(&self, u: &[f32], c: &mut [f32], h: &mut [i8], scratch: &mut LstmScratch) {
        debug_assert_eq!(u.len(), self.wh.rows());
        scratch.gates.resize(self.wh.rows(), 0.0);
        kernels::gemm_i8(self.wh.view(), h, h.len(), 1, &mut scratch.gates);
        kernels::lstm_cell_q(&scratch.gates, u, c, h);
    }

    /// Batched [`PackedLstmI8::step`]: advances `batch` independent lanes.
    ///
    /// * `u` — lane `b`'s `4H` input half of the gates, read in place
    ///   (e.g. a row of a per-input table), so nothing is gathered;
    /// * `c` — `batch × hidden` cell states, updated in place;
    /// * `h` — `batch × hidden` quantised hidden states, read and then
    ///   overwritten;
    /// * `z_scratch` — reusable gate buffer (resized to `batch × 4·hidden`,
    ///   never zeroed: the mat-vec overwrites every cell).
    ///
    /// Per-lane results are bit-identical to [`PackedLstmI8::step`]: the
    /// integer sums are exact, and the cell update is per lane.
    pub fn step_batch<'u>(
        &self,
        batch: usize,
        u: impl Fn(usize) -> &'u [f32],
        c: &mut [f32],
        h: &mut [i8],
        z_scratch: &mut Vec<f32>,
    ) {
        let (hidden, gates) = (self.hidden_dim(), self.wh.rows());
        debug_assert_eq!(c.len(), batch * hidden);
        debug_assert_eq!(h.len(), batch * hidden);
        z_scratch.resize(batch * gates, 0.0);
        kernels::gemm_i8(self.wh.view(), h, hidden, batch, z_scratch);
        for (b, ((zb, cb), hb)) in z_scratch
            .chunks_exact(gates)
            .zip(c.chunks_exact_mut(hidden))
            .zip(h.chunks_exact_mut(hidden))
            .enumerate()
        {
            kernels::lstm_cell_q(zb, u(b), cb, hb);
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
