//! Numeric primitives: activations, softmax/cross-entropy, cosine
//! similarity and small vector helpers.
//!
//! The dot-product-shaped entry points ([`dot`], [`matvec`]) are thin
//! wrappers over the vectorized [`kernels`] layer and share its fixed
//! reduction order, and the activations
//! ([`exp`], [`sigmoid`], [`tanh`]) *are* the kernel layer's owned
//! non-linearities — the one definition training and serving share; see
//! the module docs there for why that keeps the repo's bit-identity
//! invariants intact across hosts.

pub mod kernels;

pub use kernels::{exp, sigmoid, tanh, Activation};

/// In-place numerically stable softmax.
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    for v in x.iter_mut() {
        *v -= max;
    }
    Activation::Exp.apply(x);
    let inv = 1.0 / x.iter().sum::<f32>();
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Two-way softmax `[e₀, e₁] / (e₀ + e₁)`, shifted by the larger logit.
/// The probability head of RSRNet and ASDNet.
#[inline]
pub fn softmax2(logits: [f32; 2]) -> [f32; 2] {
    let m = logits[0].max(logits[1]);
    let e0 = exp(logits[0] - m);
    let e1 = exp(logits[1] - m);
    let s = e0 + e1;
    [e0 / s, e1 / s]
}

/// Softmax into a fresh vector.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    softmax_inplace(&mut out);
    out
}

/// Cross-entropy loss `-ln(probs[target])` for a softmax output.
/// Probabilities are floored at `1e-12` for numerical safety.
#[inline]
pub fn cross_entropy(probs: &[f32], target: usize) -> f32 {
    -probs[target].max(1e-12).ln()
}

/// Gradient of [`cross_entropy`] composed with softmax, with respect to the
/// *logits*: `probs - onehot(target)`, written into `grad`.
pub fn cross_entropy_softmax_grad(probs: &[f32], target: usize, grad: &mut [f32]) {
    grad.copy_from_slice(probs);
    grad[target] -= 1.0;
}

/// Cosine similarity of two equal-length vectors; 0.0 when either vector is
/// (near-)zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for i in 0..a.len() {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    let denom = (na.sqrt()) * (nb.sqrt());
    if denom < 1e-12 {
        0.0
    } else {
        dot / denom
    }
}

/// Dot product (vectorized; [`kernels`] fixed reduction order).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kernels::dot(a, b)
}

/// `y += alpha * x` (element-wise; see [`kernels::axpy`]).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    kernels::axpy(alpha, x, y)
}

/// Concatenates two slices into a fresh vector.
pub fn concat(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// Matrix–vector product `y = W x` for a row-major `rows × cols` matrix
/// (vectorized; each output element is one [`kernels::dot`]).
pub fn matvec(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    kernels::matvec(w, cols, rows, cols, x, y)
}

/// Transposed matrix–vector product `y += W^T g` (accumulates into `y`).
///
/// Built on [`kernels::axpy`]; the accumulation stays
/// row-by-row over `g` (element-wise in `y`), so results are bit-identical
/// to the pre-kernel implementation and `⟨Wx, g⟩ ≈ ⟨x, Wᵀg⟩` adjointness
/// with [`matvec`] holds to normal `f32` tolerance.
pub fn matvec_t_acc(w: &[f32], rows: usize, cols: usize, g: &[f32], y: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(g.len(), rows);
    debug_assert_eq!(y.len(), cols);
    for (r, &gr) in g.iter().enumerate() {
        if gr == 0.0 {
            continue;
        }
        let row = &w[r * cols..(r + 1) * cols];
        axpy(gr, row, y);
    }
}

/// Outer-product accumulation `W_grad += g x^T` (row-wise
/// [`kernels::axpy`]; element-wise, so bit-identical to the naive loops).
pub fn outer_acc(wg: &mut [f32], rows: usize, cols: usize, g: &[f32], x: &[f32]) {
    debug_assert_eq!(wg.len(), rows * cols);
    debug_assert_eq!(g.len(), rows);
    debug_assert_eq!(x.len(), cols);
    for (r, &gr) in g.iter().enumerate() {
        if gr == 0.0 {
            continue;
        }
        let row = &mut wg[r * cols..(r + 1) * cols];
        axpy(gr, x, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut x = vec![1000.0, 1000.0, 999.0];
        softmax_inplace(&mut x);
        let s: f32 = x.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(x.iter().all(|&p| p.is_finite() && p > 0.0));
        assert!((x[0] - x[1]).abs() < 1e-6);
        assert!(x[2] < x[0]);
    }

    #[test]
    fn softmax_empty_noop() {
        let mut x: Vec<f32> = vec![];
        softmax_inplace(&mut x);
        assert!(x.is_empty());
    }

    #[test]
    fn cross_entropy_of_confident_prediction_is_small() {
        let probs = softmax(&[10.0, 0.0]);
        assert!(cross_entropy(&probs, 0) < 1e-3);
        assert!(cross_entropy(&probs, 1) > 5.0);
    }

    #[test]
    fn ce_softmax_grad_matches_probs_minus_onehot() {
        let probs = softmax(&[0.3, -0.2, 1.0]);
        let mut g = vec![0.0; 3];
        cross_entropy_softmax_grad(&probs, 2, &mut g);
        assert!((g[0] - probs[0]).abs() < 1e-7);
        assert!((g[2] - (probs[2] - 1.0)).abs() < 1e-7);
        // gradient sums to zero
        assert!(g.iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn cosine_properties() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        assert!(cosine(&a, &b).abs() < 1e-6);
        let c = [-1.0, 0.0];
        assert!((cosine(&a, &c) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &a), 0.0);
    }

    #[test]
    fn matvec_and_transpose_are_adjoint() {
        // <Wx, g> == <x, W^T g>
        let w = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let x = vec![0.5, -1.0, 2.0];
        let g = vec![0.7, -0.3];
        let mut y = vec![0.0; 2];
        matvec(&w, 2, 3, &x, &mut y);
        let lhs = dot(&y, &g);
        let mut xt = vec![0.0; 3];
        matvec_t_acc(&w, 2, 3, &g, &mut xt);
        let rhs = dot(&x, &xt);
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn outer_acc_accumulates() {
        let mut wg = vec![0.0; 6];
        outer_acc(&mut wg, 2, 3, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(wg, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        outer_acc(&mut wg, 2, 3, &[1.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(wg[0], 4.0);
        assert_eq!(wg[3], 6.0); // untouched by zero gradient row
    }

    #[test]
    fn concat_and_axpy() {
        let c = concat(&[1.0], &[2.0, 3.0]);
        assert_eq!(c, vec![1.0, 2.0, 3.0]);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }
}
