//! Fully connected layer with manual backprop.

use crate::ops;
use crate::param::Param;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = W x + b` (`W`: `out × in`, `b`: `out`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, `out_dim × in_dim`.
    pub w: Param,
    /// Bias vector, `out_dim`.
    pub b: Param,
}

/// Forward context: the input needed to compute gradients.
#[derive(Debug, Clone)]
pub struct LinearCtx {
    x: Vec<f32>,
}

impl Linear {
    /// Creates a Xavier-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Linear {
            w: crate::init::xavier(out_dim, in_dim, rng),
            b: Param::zeros(out_dim, 1),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.cols
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.rows
    }

    /// Forward pass returning the output and the backward context.
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, LinearCtx) {
        let mut y = vec![0.0; self.out_dim()];
        ops::matvec(&self.w.value, self.w.rows, self.w.cols, x, &mut y);
        for (yi, bi) in y.iter_mut().zip(&self.b.value) {
            *yi += bi;
        }
        (y, LinearCtx { x: x.to_vec() })
    }

    /// Forward pass without keeping a context: training-time inference
    /// (ASDNet's action probabilities, the VSAE baselines' heads). Serving
    /// runs on [`crate::PackedLinear`].
    pub fn infer(&self, x: &[f32], y: &mut [f32]) {
        ops::matvec(&self.w.value, self.w.rows, self.w.cols, x, y);
        for (yi, bi) in y.iter_mut().zip(&self.b.value) {
            *yi += bi;
        }
    }

    /// Backward pass: accumulates `dL/dW`, `dL/db` and returns `dL/dx`.
    pub fn backward(&mut self, ctx: &LinearCtx, dy: &[f32]) -> Vec<f32> {
        debug_assert_eq!(dy.len(), self.out_dim());
        ops::outer_acc(&mut self.w.grad, self.w.rows, self.w.cols, dy, &ctx.x);
        ops::axpy(1.0, dy, &mut self.b.grad);
        let mut dx = vec![0.0; self.in_dim()];
        ops::matvec_t_acc(&self.w.value, self.w.rows, self.w.cols, dy, &mut dx);
        dx
    }

    /// All parameters, for optimiser iteration.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Clears gradients of all parameters.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_gradients;
    use crate::init::seeded_rng;

    #[test]
    fn forward_matches_manual() {
        let mut l = Linear::new(2, 2, &mut seeded_rng(1));
        l.w.value.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        l.b.value.copy_from_slice(&[0.5, -0.5]);
        let (y, _) = l.forward(&[1.0, 1.0]);
        assert!((y[0] - 3.5).abs() < 1e-6);
        assert!((y[1] - 6.5).abs() < 1e-6);
    }

    #[test]
    fn infer_matches_forward() {
        let l = Linear::new(3, 4, &mut seeded_rng(5));
        let x = [0.1, -0.2, 0.7];
        let (y, _) = l.forward(&x);
        let mut y2 = vec![0.0; 4];
        l.infer(&x, &mut y2);
        assert_eq!(y, y2);
    }

    /// Loss = sum(tanh(y)); analytic gradients must match finite
    /// differences for weights, bias and input.
    #[test]
    fn gradcheck_weights_and_bias() {
        let x = vec![0.3f32, -0.7, 0.9];
        let loss = {
            let x = x.clone();
            move |l: &Linear| -> f32 {
                let (y, _) = l.forward(&x);
                y.iter().map(|&v| crate::ops::tanh(v)).sum()
            }
        };
        let mut l = Linear::new(3, 2, &mut seeded_rng(2));
        l.zero_grad();
        let (y, ctx) = l.forward(&x);
        // dL/dy for L = sum tanh(y)
        let dy: Vec<f32> = y
            .iter()
            .map(|&v| 1.0 - crate::ops::tanh(v) * crate::ops::tanh(v))
            .collect();
        let dx = l.backward(&ctx, &dy);
        // dL/dx via chain rule must equal W^T dy
        let mut expect = vec![0.0; 3];
        crate::ops::matvec_t_acc(&l.w.value, 2, 3, &dy, &mut expect);
        for j in 0..3 {
            assert!((dx[j] - expect[j]).abs() < 1e-5);
        }
        check_model_gradients(&mut l, &loss, &|m| vec![&mut m.w, &mut m.b], 1e-2, 2e-2);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut l = Linear::new(2, 1, &mut seeded_rng(3));
        let (_, c1) = l.forward(&[1.0, 0.0]);
        l.backward(&c1, &[1.0]);
        let g1 = l.w.grad.clone();
        let (_, c2) = l.forward(&[1.0, 0.0]);
        l.backward(&c2, &[1.0]);
        assert!((l.w.grad[0] - 2.0 * g1[0]).abs() < 1e-6);
        l.zero_grad();
        assert!(l.w.grad.iter().all(|&g| g == 0.0));
    }
}
