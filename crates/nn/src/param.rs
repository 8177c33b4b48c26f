//! Learnable parameters and optimisers.

use serde::{Deserialize, Serialize};

/// A learnable tensor (row-major matrix, or vector with `cols == 1`),
/// carrying its gradient accumulator and Adam moment estimates.
///
/// The gradient and the moments are training state, three times the size
/// of the values. A finished model drops them with
/// [`Param::release_optimizer`]; [`Param::zero_grad`], which every
/// training step calls before its backward pass, re-creates them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current values, row-major, `rows * cols` entries.
    pub value: Vec<f32>,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Vec<f32>,
    /// First-moment (Adam `m`).
    m: Vec<f32>,
    /// Second-moment (Adam `v`).
    v: Vec<f32>,
    /// Adam time step.
    t: u64,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Param {
    /// Creates a parameter from explicit values.
    ///
    /// # Panics
    /// Panics if `value.len() != rows * cols`.
    pub fn from_values(rows: usize, cols: usize, value: Vec<f32>) -> Self {
        assert_eq!(value.len(), rows * cols, "shape mismatch");
        let n = value.len();
        Param {
            value,
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            rows,
            cols,
        }
    }

    /// Creates a zero-initialised parameter.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Param::from_values(rows, cols, vec![0.0; rows * cols])
    }

    /// Number of scalar entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.value[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r` of the gradient.
    #[inline]
    pub fn grad_row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.grad[r * self.cols..(r + 1) * self.cols]
    }

    /// Clears the gradient accumulator. After
    /// [`Param::release_optimizer`] it re-creates the gradient and a fresh
    /// Adam state instead, so training restarts as with a new optimizer.
    pub fn zero_grad(&mut self) {
        if self.grad.len() == self.value.len() {
            self.grad.fill(0.0);
        } else {
            let n = self.value.len();
            self.grad = vec![0.0; n];
            self.m = vec![0.0; n];
            self.v = vec![0.0; n];
            self.t = 0;
        }
    }

    /// Frees the gradient and the Adam state; only the values stay.
    pub fn release_optimizer(&mut self) {
        self.grad = Vec::new();
        self.m = Vec::new();
        self.v = Vec::new();
        self.t = 0;
    }

    /// Whether the parameter holds any optimizer state (gradient or Adam
    /// moments).
    pub fn has_optimizer_state(&self) -> bool {
        !(self.grad.is_empty() && self.m.is_empty() && self.v.is_empty())
    }

    /// Sum of squared gradient entries (for clipping / diagnostics).
    pub fn grad_norm_sq(&self) -> f64 {
        self.grad.iter().map(|&g| (g as f64) * (g as f64)).sum()
    }

    /// Scales the gradient in place (used for global-norm clipping).
    pub fn scale_grad(&mut self, factor: f32) {
        self.grad.iter_mut().for_each(|g| *g *= factor);
    }

    /// Clears the gradient of `rows` (a sparse [`Param::zero_grad`] for a
    /// gradient known to be zero elsewhere).
    pub fn zero_grad_rows(&mut self, rows: &[usize]) {
        for &r in rows {
            self.grad_row_mut(r).fill(0.0);
        }
    }

    /// One Adam step with the given learning rate and default
    /// `(beta1, beta2, eps) = (0.9, 0.999, 1e-8)`. Does **not** clear the
    /// gradient; call [`Param::zero_grad`] afterwards.
    pub fn adam_step(&mut self, lr: f32) {
        self.adam_step_with(lr, 0.9, 0.999, 1e-8);
    }

    /// One Adam step with explicit hyperparameters.
    pub fn adam_step_with(&mut self, lr: f32, beta1: f32, beta2: f32, eps: f32) {
        self.t += 1;
        let bc1 = 1.0 - beta1.powi(self.t.min(1_000_000) as i32);
        let bc2 = 1.0 - beta2.powi(self.t.min(1_000_000) as i32);
        for i in 0..self.value.len() {
            let g = self.grad[i];
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            self.value[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// One plain SGD step (`value -= lr * grad`). Does not clear the
    /// gradient.
    pub fn sgd_step(&mut self, lr: f32) {
        for i in 0..self.value.len() {
            self.value[i] -= lr * self.grad[i];
        }
    }
}

/// Clips the global gradient norm of a set of parameters to `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_global_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let norm_sq: f64 = params.iter().map(|p| p.grad_norm_sq()).sum();
    let norm = norm_sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let factor = max_norm / norm;
        for p in params.iter_mut() {
            p.scale_grad(factor);
        }
    }
    norm
}

/// [`clip_global_norm`] over `sparse` followed by `dense`, for a `sparse`
/// parameter whose gradient is zero outside `rows` (ascending, distinct):
/// the norm sums and the rescale visit only those rows.
///
/// The result is bit-identical to the dense call on the same parameters
/// in the same order. The squared norm is summed in the same order with
/// only `+0.0` terms left out, and adding `+0.0` to a non-negative sum
/// leaves it unchanged. Scaling a zero entry leaves it zero.
pub fn clip_global_norm_rows(
    sparse: &mut Param,
    rows: &[usize],
    dense: &mut [&mut Param],
    max_norm: f32,
) -> f32 {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows not ascending");
    let cols = sparse.cols;
    let sparse_sq: f64 = rows
        .iter()
        .flat_map(|&r| &sparse.grad[r * cols..(r + 1) * cols])
        .map(|&g| (g as f64) * (g as f64))
        .sum();
    let norm_sq: f64 = std::iter::once(sparse_sq)
        .chain(dense.iter().map(|p| p.grad_norm_sq()))
        .sum();
    let norm = norm_sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let factor = max_norm / norm;
        for &r in rows {
            sparse.grad_row_mut(r).iter_mut().for_each(|g| *g *= factor);
        }
        for p in dense.iter_mut() {
            p.scale_grad(factor);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = Param::from_values(1, 2, vec![1.0, -1.0]);
        p.grad.copy_from_slice(&[0.5, -0.5]);
        p.sgd_step(0.1);
        assert!((p.value[0] - 0.95).abs() < 1e-6);
        assert!((p.value[1] + 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimise f(x) = (x - 3)^2; gradient 2(x-3)
        let mut p = Param::from_values(1, 1, vec![0.0]);
        for _ in 0..2000 {
            p.zero_grad();
            p.grad[0] = 2.0 * (p.value[0] - 3.0);
            p.adam_step(0.05);
        }
        assert!((p.value[0] - 3.0).abs() < 1e-2, "x = {}", p.value[0]);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the first Adam step is ~lr in the gradient
        // direction regardless of gradient magnitude.
        let mut p = Param::from_values(1, 1, vec![0.0]);
        p.grad[0] = 123.0;
        p.adam_step(0.01);
        assert!((p.value[0] + 0.01).abs() < 1e-4, "step = {}", p.value[0]);
    }

    #[test]
    fn rows_and_grad_rows() {
        let mut p = Param::from_values(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(p.row(1), &[4., 5., 6.]);
        p.grad_row_mut(0)[2] = 9.0;
        assert_eq!(p.grad[2], 9.0);
        p.zero_grad();
        assert!(p.grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn global_clipping() {
        let mut a = Param::from_values(1, 2, vec![0.0, 0.0]);
        let mut b = Param::from_values(1, 1, vec![0.0]);
        a.grad.copy_from_slice(&[3.0, 0.0]);
        b.grad[0] = 4.0;
        let norm = clip_global_norm(&mut [&mut a, &mut b], 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let after: f64 = a.grad_norm_sq() + b.grad_norm_sq();
        assert!((after.sqrt() - 1.0).abs() < 1e-5);
        // direction preserved
        assert!(a.grad[0] > 0.0 && b.grad[0] > 0.0);
    }

    /// Gradients of a `vocab × 3` table with `rows` written (including
    /// negative and zero entries), plus a small dense parameter.
    fn sparse_case(rows: &[usize], scale: f32) -> (Param, Param) {
        let mut table = Param::zeros(6, 3);
        for (k, &r) in rows.iter().enumerate() {
            let g = scale * (k as f32 + 1.0);
            table.grad_row_mut(r).copy_from_slice(&[g, -0.5 * g, 0.0]);
        }
        let mut dense = Param::zeros(1, 2);
        dense.grad.copy_from_slice(&[0.25 * scale, -1.5]);
        (table, dense)
    }

    #[test]
    fn row_clipping_matches_dense_clipping_bitwise() {
        for scale in [0.01f32, 0.3, 7.0] {
            for rows in [&[0usize][..], &[1, 4], &[0, 2, 3, 5]] {
                let (mut t0, mut d0) = sparse_case(rows, scale);
                let (mut t1, mut d1) = sparse_case(rows, scale);
                let dense_norm = clip_global_norm(&mut [&mut t0, &mut d0], 1.0);
                let rows_norm = clip_global_norm_rows(&mut t1, rows, &mut [&mut d1], 1.0);
                assert_eq!(
                    dense_norm.to_bits(),
                    rows_norm.to_bits(),
                    "{rows:?} × {scale}"
                );
                let bits = |p: &Param| p.grad.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&t0), bits(&t1), "{rows:?} × {scale}");
                assert_eq!(bits(&d0), bits(&d1), "{rows:?} × {scale}");
                t1.zero_grad_rows(rows);
                assert!(t1.grad.iter().all(|&g| g.to_bits() == 0));
            }
        }
    }

    #[test]
    fn released_optimizer_restarts_on_zero_grad() {
        let mut trained = Param::from_values(1, 1, vec![0.0]);
        trained.grad[0] = 2.0;
        trained.adam_step(0.01);
        trained.release_optimizer();
        assert!(!trained.has_optimizer_state());
        assert_eq!(trained.value.len(), 1);

        // A released parameter steps exactly like a fresh one.
        let mut fresh = Param::from_values(1, 1, trained.value.clone());
        for p in [&mut trained, &mut fresh] {
            p.zero_grad();
            p.grad[0] = 123.0;
            p.adam_step(0.01);
        }
        assert!(trained.has_optimizer_state());
        assert_eq!(trained.value, fresh.value);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        Param::from_values(2, 2, vec![0.0; 3]);
    }
}
