//! Recurrent cells (LSTM, GRU) with manual backprop.
//!
//! Cells are *stateless* computation units: callers own the hidden state
//! and drive sequences / BPTT explicitly (RSRNet unrolls an LSTM over a
//! trajectory; the GM-VSAE baselines unroll GRU encoders/decoders).
//!
//! Inference runs on the packed forms in [`crate::pack`], which are
//! bit-identical to these cells' `forward` value paths.

use crate::ops::{self, kernels, sigmoid, tanh};
use crate::param::Param;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Hidden state of an LSTM: `(h, c)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LstmState {
    /// Hidden vector.
    pub h: Vec<f32>,
    /// Cell vector.
    pub c: Vec<f32>,
}

impl LstmState {
    /// Zero state of the given hidden size.
    pub fn zeros(hidden: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }
}

/// An LSTM cell (Hochreiter & Schmidhuber \[35\]) with combined gate weights
/// `W = [W_x | W_h]: 4H × (I+H)` and gate order `i, f, g, o`.
///
/// The gate pre-activation of row `r` is defined as
/// `z_r = (dot(W_x,r, x) + b_r) + dot(W_h,r, h)`: two fixed-order dots
/// (see [`kernels`](mod@crate::ops::kernels)), the input half and the bias
/// summed first. The input half `u = W_x x + b` depends on `x` alone, so a
/// serving model whose inputs come from a finite vocabulary can tabulate
/// it once per input ([`PackedLstm::input_gates`](crate::PackedLstm::input_gates)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmCell {
    /// Combined gate weights, `4H × (I+H)`.
    pub w: Param,
    /// Combined gate bias, `4H` (forget-gate slice initialised to 1.0).
    pub b: Param,
    input: usize,
    hidden: usize,
}

/// Backward context of one LSTM step.
#[derive(Debug, Clone)]
pub struct LstmCtx {
    xh: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    c_prev: Vec<f32>,
    tanh_c: Vec<f32>,
}

impl LstmCell {
    /// Creates a Xavier-initialised cell with forget bias 1.0.
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let w = crate::init::xavier(4 * hidden, input + hidden, rng);
        let mut b = Param::zeros(4 * hidden, 1);
        // Forget-gate bias of 1.0 is the standard trick for gradient flow.
        for v in &mut b.value[hidden..2 * hidden] {
            *v = 1.0;
        }
        LstmCell {
            w,
            b,
            input,
            hidden,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// One step: consumes `x` and the previous state, returns the new state
    /// and the backward context.
    pub fn forward(&self, x: &[f32], prev: &LstmState) -> (LstmState, LstmCtx) {
        debug_assert_eq!(x.len(), self.input);
        debug_assert_eq!(prev.h.len(), self.hidden);
        let h = self.hidden;
        let cols = self.input + h;
        let mut u = vec![0.0; 4 * h];
        kernels::matvec(&self.w.value, cols, 4 * h, self.input, x, &mut u);
        for (ui, bi) in u.iter_mut().zip(&self.b.value) {
            *ui += bi;
        }
        let mut z = vec![0.0; 4 * h];
        kernels::matvec(&self.w.value[self.input..], cols, 4 * h, h, &prev.h, &mut z);
        for (zi, ui) in z.iter_mut().zip(&u) {
            *zi += ui;
        }
        let mut i = vec![0.0; h];
        let mut f = vec![0.0; h];
        let mut g = vec![0.0; h];
        let mut o = vec![0.0; h];
        for k in 0..h {
            i[k] = sigmoid(z[k]);
            f[k] = sigmoid(z[h + k]);
            g[k] = tanh(z[2 * h + k]);
            o[k] = sigmoid(z[3 * h + k]);
        }
        let mut c = vec![0.0; h];
        let mut hv = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        for k in 0..h {
            c[k] = f[k] * prev.c[k] + i[k] * g[k];
            tanh_c[k] = tanh(c[k]);
            hv[k] = o[k] * tanh_c[k];
        }
        (
            LstmState { h: hv, c },
            LstmCtx {
                xh: ops::concat(x, &prev.h),
                i,
                f,
                g,
                o,
                c_prev: prev.c.clone(),
                tanh_c,
            },
        )
    }

    /// Backward for one step. `dh`/`dc` are the gradients flowing into this
    /// step's output state. Accumulates parameter gradients and returns
    /// `(dx, dh_prev, dc_prev)`.
    pub fn backward(
        &mut self,
        ctx: &LstmCtx,
        dh: &[f32],
        dc: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let h = self.hidden;
        let mut dz = vec![0.0; 4 * h];
        let mut dc_prev = vec![0.0; h];
        for k in 0..h {
            let dct = dc[k] + dh[k] * ctx.o[k] * (1.0 - ctx.tanh_c[k] * ctx.tanh_c[k]);
            let d_o = dh[k] * ctx.tanh_c[k];
            let d_i = dct * ctx.g[k];
            let d_f = dct * ctx.c_prev[k];
            let d_g = dct * ctx.i[k];
            dz[k] = d_i * ctx.i[k] * (1.0 - ctx.i[k]);
            dz[h + k] = d_f * ctx.f[k] * (1.0 - ctx.f[k]);
            dz[2 * h + k] = d_g * (1.0 - ctx.g[k] * ctx.g[k]);
            dz[3 * h + k] = d_o * ctx.o[k] * (1.0 - ctx.o[k]);
            dc_prev[k] = dct * ctx.f[k];
        }
        ops::outer_acc(&mut self.w.grad, 4 * h, self.input + h, &dz, &ctx.xh);
        ops::axpy(1.0, &dz, &mut self.b.grad);
        let mut dxh = vec![0.0; self.input + h];
        ops::matvec_t_acc(&self.w.value, 4 * h, self.input + h, &dz, &mut dxh);
        let dx = dxh[..self.input].to_vec();
        let dh_prev = dxh[self.input..].to_vec();
        (dx, dh_prev, dc_prev)
    }

    /// Parameters for optimiser iteration.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }
}

/// A GRU cell (used by the GM-VSAE baseline family's encoders/decoders).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    /// Update-gate weights, `H × (I+H)`.
    pub wz: Param,
    /// Update-gate bias.
    pub bz: Param,
    /// Reset-gate weights, `H × (I+H)`.
    pub wr: Param,
    /// Reset-gate bias.
    pub br: Param,
    /// Candidate weights, `H × (I+H)` (acting on `[x; r⊙h]`).
    pub wn: Param,
    /// Candidate bias.
    pub bn: Param,
    input: usize,
    hidden: usize,
}

/// Backward context of one GRU step.
#[derive(Debug, Clone)]
pub struct GruCtx {
    xh: Vec<f32>,
    xrh: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    n: Vec<f32>,
    h_prev: Vec<f32>,
}

impl GruCell {
    /// Creates a Xavier-initialised GRU cell.
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        GruCell {
            wz: crate::init::xavier(hidden, input + hidden, rng),
            bz: Param::zeros(hidden, 1),
            wr: crate::init::xavier(hidden, input + hidden, rng),
            br: Param::zeros(hidden, 1),
            wn: crate::init::xavier(hidden, input + hidden, rng),
            bn: Param::zeros(hidden, 1),
            input,
            hidden,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// One step: returns the new hidden vector and the backward context.
    pub fn forward(&self, x: &[f32], h_prev: &[f32]) -> (Vec<f32>, GruCtx) {
        debug_assert_eq!(x.len(), self.input);
        debug_assert_eq!(h_prev.len(), self.hidden);
        let h = self.hidden;
        let xh = ops::concat(x, h_prev);
        let mut z = vec![0.0; h];
        let mut r = vec![0.0; h];
        ops::matvec(&self.wz.value, h, self.input + h, &xh, &mut z);
        ops::matvec(&self.wr.value, h, self.input + h, &xh, &mut r);
        for k in 0..h {
            z[k] = sigmoid(z[k] + self.bz.value[k]);
            r[k] = sigmoid(r[k] + self.br.value[k]);
        }
        let rh: Vec<f32> = r.iter().zip(h_prev).map(|(rk, hk)| rk * hk).collect();
        let xrh = ops::concat(x, &rh);
        let mut n = vec![0.0; h];
        ops::matvec(&self.wn.value, h, self.input + h, &xrh, &mut n);
        for (nk, bk) in n.iter_mut().zip(&self.bn.value) {
            *nk = tanh(*nk + bk);
        }
        let h_new: Vec<f32> = (0..h)
            .map(|k| (1.0 - z[k]) * n[k] + z[k] * h_prev[k])
            .collect();
        (
            h_new,
            GruCtx {
                xh,
                xrh,
                z,
                r,
                n,
                h_prev: h_prev.to_vec(),
            },
        )
    }

    /// Backward for one step: accumulates parameter gradients, returns
    /// `(dx, dh_prev)`.
    pub fn backward(&mut self, ctx: &GruCtx, dh: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let h = self.hidden;
        let inp = self.input;
        let mut dz_pre = vec![0.0; h];
        let mut dn_pre = vec![0.0; h];
        let mut dh_prev = vec![0.0; h];
        for k in 0..h {
            let dn = dh[k] * (1.0 - ctx.z[k]);
            let dzg = dh[k] * (ctx.h_prev[k] - ctx.n[k]);
            dh_prev[k] = dh[k] * ctx.z[k];
            dz_pre[k] = dzg * ctx.z[k] * (1.0 - ctx.z[k]);
            dn_pre[k] = dn * (1.0 - ctx.n[k] * ctx.n[k]);
        }
        // Candidate path: input was [x; r ⊙ h_prev].
        ops::outer_acc(&mut self.wn.grad, h, inp + h, &dn_pre, &ctx.xrh);
        ops::axpy(1.0, &dn_pre, &mut self.bn.grad);
        let mut dxrh = vec![0.0; inp + h];
        ops::matvec_t_acc(&self.wn.value, h, inp + h, &dn_pre, &mut dxrh);
        let mut dx = dxrh[..inp].to_vec();
        let mut dr_pre = vec![0.0; h];
        for k in 0..h {
            let drh = dxrh[inp + k];
            dh_prev[k] += drh * ctx.r[k];
            let dr = drh * ctx.h_prev[k];
            dr_pre[k] = dr * ctx.r[k] * (1.0 - ctx.r[k]);
        }
        // Gate paths: input was [x; h_prev].
        ops::outer_acc(&mut self.wz.grad, h, inp + h, &dz_pre, &ctx.xh);
        ops::axpy(1.0, &dz_pre, &mut self.bz.grad);
        ops::outer_acc(&mut self.wr.grad, h, inp + h, &dr_pre, &ctx.xh);
        ops::axpy(1.0, &dr_pre, &mut self.br.grad);
        let mut dxh = vec![0.0; inp + h];
        ops::matvec_t_acc(&self.wz.value, h, inp + h, &dz_pre, &mut dxh);
        ops::matvec_t_acc(&self.wr.value, h, inp + h, &dr_pre, &mut dxh);
        for k in 0..inp {
            dx[k] += dxh[k];
        }
        for k in 0..h {
            dh_prev[k] += dxh[inp + k];
        }
        (dx, dh_prev)
    }

    /// Parameters for optimiser iteration.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wz,
            &mut self.bz,
            &mut self.wr,
            &mut self.br,
            &mut self.wn,
            &mut self.bn,
        ]
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_gradients;
    use crate::init::seeded_rng;

    const I: usize = 3;
    const H: usize = 4;

    fn seq() -> Vec<Vec<f32>> {
        vec![
            vec![0.5, -0.3, 0.8],
            vec![-0.2, 0.9, 0.1],
            vec![0.3, 0.3, -0.7],
        ]
    }

    /// Loss: sum of the final hidden vector after unrolling the sequence.
    fn lstm_loss(cell: &LstmCell) -> f32 {
        let mut state = LstmState::zeros(H);
        for x in seq() {
            let (s, _) = cell.forward(&x, &state);
            state = s;
        }
        state.h.iter().sum()
    }

    #[test]
    fn lstm_gradcheck_through_time() {
        let mut cell = LstmCell::new(I, H, &mut seeded_rng(1));
        cell.zero_grad();
        // forward, keeping contexts
        let mut state = LstmState::zeros(H);
        let mut ctxs = Vec::new();
        for x in seq() {
            let (s, ctx) = cell.forward(&x, &state);
            ctxs.push(ctx);
            state = s;
        }
        // BPTT
        let mut dh = vec![1.0; H];
        let mut dc = vec![0.0; H];
        for ctx in ctxs.iter().rev() {
            let (_dx, dhp, dcp) = cell.backward(ctx, &dh, &dc);
            dh = dhp;
            dc = dcp;
        }
        check_model_gradients(
            &mut cell,
            &lstm_loss,
            &|c| vec![&mut c.w, &mut c.b],
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn lstm_batched_step_matches_scalar_bitwise() {
        // Three lanes with different inputs and different prior states must
        // advance through the packed batched step exactly as three scalar
        // forward() calls would.
        let cell = LstmCell::new(I, H, &mut seeded_rng(11));
        let packed = crate::pack::PackedLstm::of(&cell);
        let inputs = seq();
        let states: Vec<LstmState> = (0..3)
            .map(|lane| {
                let mut s = LstmState::zeros(H);
                // desynchronise the lanes
                for x in inputs.iter().take(lane) {
                    s = cell.forward(x, &s).0;
                }
                s
            })
            .collect();

        let mut xh = Vec::new();
        let mut c = Vec::new();
        for (lane, s) in states.iter().enumerate() {
            xh.extend_from_slice(&inputs[lane]);
            xh.extend_from_slice(&s.h);
            c.extend_from_slice(&s.c);
        }
        let mut h = vec![0.0; 3 * H];
        let mut z = Vec::new();
        packed.infer_step_batch(3, &xh, &mut c, &mut h, &mut z);

        for (lane, s) in states.iter().enumerate() {
            let (expect, _) = cell.forward(&inputs[lane], s);
            assert_eq!(&h[lane * H..(lane + 1) * H], &expect.h[..], "h lane {lane}");
            assert_eq!(&c[lane * H..(lane + 1) * H], &expect.c[..], "c lane {lane}");
        }
    }

    #[test]
    fn lstm_state_shapes_and_bounds() {
        let cell = LstmCell::new(I, H, &mut seeded_rng(2));
        let (s, _) = cell.forward(&[1.0, 2.0, 3.0], &LstmState::zeros(H));
        assert_eq!(s.h.len(), H);
        assert_eq!(s.c.len(), H);
        // h = o * tanh(c) is in (-1, 1)
        assert!(s.h.iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn lstm_forget_bias_initialised() {
        let cell = LstmCell::new(I, H, &mut seeded_rng(3));
        assert!(cell.b.value[H..2 * H].iter().all(|&v| v == 1.0));
        assert!(cell.b.value[..H].iter().all(|&v| v == 0.0));
    }

    fn gru_loss(cell: &GruCell) -> f32 {
        let mut h = vec![0.0; H];
        for x in seq() {
            let (hn, _) = cell.forward(&x, &h);
            h = hn;
        }
        h.iter().sum()
    }

    #[test]
    fn gru_gradcheck_through_time() {
        let mut cell = GruCell::new(I, H, &mut seeded_rng(4));
        cell.zero_grad();
        let mut h = vec![0.0; H];
        let mut ctxs = Vec::new();
        for x in seq() {
            let (hn, ctx) = cell.forward(&x, &h);
            ctxs.push(ctx);
            h = hn;
        }
        let mut dh = vec![1.0; H];
        for ctx in ctxs.iter().rev() {
            let (_dx, dhp) = cell.backward(ctx, &dh);
            dh = dhp;
        }
        check_model_gradients(
            &mut cell,
            &gru_loss,
            &|c| {
                vec![
                    &mut c.wz, &mut c.bz, &mut c.wr, &mut c.br, &mut c.wn, &mut c.bn,
                ]
            },
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn gru_interpolates_between_prev_and_candidate() {
        // With z forced to 1 (huge bias), h_new == h_prev.
        let mut cell = GruCell::new(I, H, &mut seeded_rng(5));
        for v in &mut cell.bz.value {
            *v = 50.0;
        }
        let h_prev = vec![0.3; H];
        let (h, _) = cell.forward(&[0.1, 0.2, 0.3], &h_prev);
        for k in 0..H {
            assert!((h[k] - h_prev[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn lstm_input_gradient_direction() {
        // dL/dx from backward must match finite differences on the input.
        fn loss_of_x(cell: &LstmCell, x: &[f32]) -> f32 {
            let (s, _) = cell.forward(x, &LstmState::zeros(H));
            s.h.iter().sum()
        }
        let mut cell = LstmCell::new(I, H, &mut seeded_rng(6));
        let x = vec![0.2f32, -0.4, 0.6];
        let base_ctx = cell.forward(&x, &LstmState::zeros(H)).1;
        cell.zero_grad();
        let (dx, _, _) = cell.backward(&base_ctx, &[1.0; H], &[0.0; H]);
        for k in 0..I {
            let mut xp = x.clone();
            xp[k] += 1e-2;
            let mut xm = x.clone();
            xm[k] -= 1e-2;
            let numeric = (loss_of_x(&cell, &xp) - loss_of_x(&cell, &xm)) / 2e-2;
            assert!(
                (dx[k] - numeric).abs() / 1.0f32.max(numeric.abs()) < 3e-2,
                "dx[{k}]={} numeric={numeric}",
                dx[k]
            );
        }
    }
}
