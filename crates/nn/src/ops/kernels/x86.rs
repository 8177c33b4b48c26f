//! The x86_64 instruction sets of the kernel layer: SSE2 (the baseline,
//! always present) and AVX2 (runtime-detected). Each computes exactly the
//! bits of the portable definitions in the parent module.

use super::{apply_with, fma_tail, lstm_cell_with, reduce, Activation, Lanes, EXP2I_BIAS, LANES};
use core::arch::x86_64::*;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Four SSE2 lanes.
#[derive(Clone, Copy)]
struct F32x4(__m128);

/// Eight AVX lanes. Only constructed inside `#[target_feature(enable =
/// "avx2")]` functions, which an [`Avx2`] token guards.
#[derive(Clone, Copy)]
struct F32x8(__m256);

macro_rules! arith {
    ($t:ident, $add:ident, $sub:ident, $mul:ident, $div:ident, $xor:ident, $set1:ident) => {
        impl Add for $t {
            type Output = $t;
            #[inline(always)]
            fn add(self, o: $t) -> $t {
                $t(unsafe { $add(self.0, o.0) })
            }
        }
        impl Sub for $t {
            type Output = $t;
            #[inline(always)]
            fn sub(self, o: $t) -> $t {
                $t(unsafe { $sub(self.0, o.0) })
            }
        }
        impl Mul for $t {
            type Output = $t;
            #[inline(always)]
            fn mul(self, o: $t) -> $t {
                $t(unsafe { $mul(self.0, o.0) })
            }
        }
        impl Div for $t {
            type Output = $t;
            #[inline(always)]
            fn div(self, o: $t) -> $t {
                $t(unsafe { $div(self.0, o.0) })
            }
        }
        impl Neg for $t {
            type Output = $t;
            #[inline(always)]
            fn neg(self) -> $t {
                $t(unsafe { $xor(self.0, $set1(-0.0)) })
            }
        }
    };
}

arith!(
    F32x4,
    _mm_add_ps,
    _mm_sub_ps,
    _mm_mul_ps,
    _mm_div_ps,
    _mm_xor_ps,
    _mm_set1_ps
);
arith!(
    F32x8,
    _mm256_add_ps,
    _mm256_sub_ps,
    _mm256_mul_ps,
    _mm256_div_ps,
    _mm256_xor_ps,
    _mm256_set1_ps
);

impl Lanes for F32x4 {
    const WIDTH: usize = 4;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        F32x4(unsafe { _mm_set1_ps(v) })
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        let s = &s[..4];
        F32x4(unsafe { _mm_loadu_ps(s.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        let s = &mut s[..4];
        unsafe { _mm_storeu_ps(s.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn maxps(self, o: Self) -> Self {
        F32x4(unsafe { _mm_max_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn minps(self, o: Self) -> Self {
        F32x4(unsafe { _mm_min_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn abs(self) -> Self {
        F32x4(unsafe { _mm_andnot_ps(_mm_set1_ps(-0.0), self.0) })
    }

    #[inline(always)]
    fn or_sign(self, sign: Self) -> Self {
        F32x4(unsafe { _mm_or_ps(self.0, _mm_and_ps(sign.0, _mm_set1_ps(-0.0))) })
    }

    #[inline(always)]
    fn select_ge(self, o: Self, a: Self, b: Self) -> Self {
        unsafe {
            let m = _mm_cmpge_ps(self.0, o.0);
            F32x4(_mm_or_ps(_mm_and_ps(m, a.0), _mm_andnot_ps(m, b.0)))
        }
    }

    #[inline(always)]
    fn nan_or(self, v: Self) -> Self {
        unsafe {
            let m = _mm_cmpunord_ps(self.0, self.0);
            F32x4(_mm_or_ps(
                _mm_and_ps(m, _mm_set1_ps(f32::NAN)),
                _mm_andnot_ps(m, v.0),
            ))
        }
    }

    #[inline(always)]
    fn exp2i(self) -> Self {
        unsafe {
            let n = _mm_sub_epi32(_mm_castps_si128(self.0), _mm_set1_epi32(EXP2I_BIAS as i32));
            F32x4(_mm_castsi128_ps(_mm_slli_epi32::<23>(n)))
        }
    }
}

impl Lanes for F32x8 {
    const WIDTH: usize = 8;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        F32x8(unsafe { _mm256_set1_ps(v) })
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        let s = &s[..8];
        F32x8(unsafe { _mm256_loadu_ps(s.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        let s = &mut s[..8];
        unsafe { _mm256_storeu_ps(s.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn maxps(self, o: Self) -> Self {
        F32x8(unsafe { _mm256_max_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn minps(self, o: Self) -> Self {
        F32x8(unsafe { _mm256_min_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn abs(self) -> Self {
        F32x8(unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), self.0) })
    }

    #[inline(always)]
    fn or_sign(self, sign: Self) -> Self {
        F32x8(unsafe { _mm256_or_ps(self.0, _mm256_and_ps(sign.0, _mm256_set1_ps(-0.0))) })
    }

    #[inline(always)]
    fn select_ge(self, o: Self, a: Self, b: Self) -> Self {
        unsafe {
            let m = _mm256_cmp_ps::<_CMP_GE_OQ>(self.0, o.0);
            F32x8(_mm256_blendv_ps(b.0, a.0, m))
        }
    }

    #[inline(always)]
    fn nan_or(self, v: Self) -> Self {
        unsafe {
            let m = _mm256_cmp_ps::<_CMP_UNORD_Q>(self.0, self.0);
            F32x8(_mm256_blendv_ps(v.0, _mm256_set1_ps(f32::NAN), m))
        }
    }

    #[inline(always)]
    fn exp2i(self) -> Self {
        unsafe {
            let n = _mm256_sub_epi32(
                _mm256_castps_si256(self.0),
                _mm256_set1_epi32(EXP2I_BIAS as i32),
            );
            F32x8(_mm256_castsi256_ps(_mm256_slli_epi32::<23>(n)))
        }
    }
}

// ---------------------------------------------------------------------------
// SSE2 dot kernels: each cell's eight lane accumulators live in two
// `__m128`s (lanes 0–3 / 4–7); after the block loop they are stored back
// to the lane array so the tail and the reduction tree are shared with the
// portable path.

/// Loads one 8-wide block as two `__m128`s.
#[inline(always)]
fn load8(p: &[f32; LANES]) -> (__m128, __m128) {
    unsafe { (_mm_loadu_ps(p.as_ptr()), _mm_loadu_ps(p.as_ptr().add(4))) }
}

#[inline(always)]
fn spill(lo: __m128, hi: __m128) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    unsafe {
        _mm_storeu_ps(acc.as_mut_ptr(), lo);
        _mm_storeu_ps(acc.as_mut_ptr().add(4), hi);
    }
    acc
}

#[inline]
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (ab, at) = a.as_chunks::<LANES>();
    let (bb, bt) = b.as_chunks::<LANES>();
    // SAFETY: SSE2 is part of the x86_64 baseline.
    let mut acc = unsafe {
        let (mut lo, mut hi) = (_mm_setzero_ps(), _mm_setzero_ps());
        for (x, y) in ab.iter().zip(bb) {
            let (x0, x1) = load8(x);
            let (y0, y1) = load8(y);
            lo = _mm_add_ps(lo, _mm_mul_ps(x0, y0));
            hi = _mm_add_ps(hi, _mm_mul_ps(x1, y1));
        }
        spill(lo, hi)
    };
    fma_tail(&mut acc, at, bt);
    reduce(&acc)
}

/// Two weight rows against one input, sharing the input's loads.
#[inline]
fn dot_2x1(w0: &[f32], w1: &[f32], x: &[f32]) -> [f32; 2] {
    let (w0b, w0t) = w0.as_chunks::<LANES>();
    let (w1b, w1t) = w1.as_chunks::<LANES>();
    let (xb, xt) = x.as_chunks::<LANES>();
    // SAFETY: SSE2 is part of the x86_64 baseline.
    let (mut a0, mut a1) = unsafe {
        let (mut lo0, mut hi0) = (_mm_setzero_ps(), _mm_setzero_ps());
        let (mut lo1, mut hi1) = (_mm_setzero_ps(), _mm_setzero_ps());
        for ((r0, r1), c) in w0b.iter().zip(w1b).zip(xb) {
            let (c0, c1) = load8(c);
            let (p0, p1) = load8(r0);
            lo0 = _mm_add_ps(lo0, _mm_mul_ps(p0, c0));
            hi0 = _mm_add_ps(hi0, _mm_mul_ps(p1, c1));
            let (q0, q1) = load8(r1);
            lo1 = _mm_add_ps(lo1, _mm_mul_ps(q0, c0));
            hi1 = _mm_add_ps(hi1, _mm_mul_ps(q1, c1));
        }
        (spill(lo0, hi0), spill(lo1, hi1))
    };
    fma_tail(&mut a0, w0t, xt);
    fma_tail(&mut a1, w1t, xt);
    [reduce(&a0), reduce(&a1)]
}

/// One weight row against two inputs, sharing the row's loads.
#[inline]
fn dot_1x2(w: &[f32], x0: &[f32], x1: &[f32]) -> [f32; 2] {
    let (wb, wt) = w.as_chunks::<LANES>();
    let (x0b, x0t) = x0.as_chunks::<LANES>();
    let (x1b, x1t) = x1.as_chunks::<LANES>();
    // SAFETY: SSE2 is part of the x86_64 baseline.
    let (mut a0, mut a1) = unsafe {
        let (mut lo0, mut hi0) = (_mm_setzero_ps(), _mm_setzero_ps());
        let (mut lo1, mut hi1) = (_mm_setzero_ps(), _mm_setzero_ps());
        for ((r, c0), c1) in wb.iter().zip(x0b).zip(x1b) {
            let (p0, p1) = load8(r);
            let (u0, u1) = load8(c0);
            lo0 = _mm_add_ps(lo0, _mm_mul_ps(p0, u0));
            hi0 = _mm_add_ps(hi0, _mm_mul_ps(p1, u1));
            let (v0, v1) = load8(c1);
            lo1 = _mm_add_ps(lo1, _mm_mul_ps(p0, v0));
            hi1 = _mm_add_ps(hi1, _mm_mul_ps(p1, v1));
        }
        (spill(lo0, hi0), spill(lo1, hi1))
    };
    fma_tail(&mut a0, wt, x0t);
    fma_tail(&mut a1, wt, x1t);
    [reduce(&a0), reduce(&a1)]
}

/// The SSE2 kernels. SSE2 is part of the x86_64 baseline, so these are
/// always callable; the dispatching entry points use them when the CPU has
/// no AVX2.
#[derive(Debug, Clone, Copy)]
pub struct Sse2;

impl Sse2 {
    /// [`Activation::apply`], 4 lanes at a time.
    pub fn apply(self, act: Activation, xs: &mut [f32]) {
        apply_with::<F32x4>(act, xs)
    }

    /// [`lstm_cell`](super::lstm_cell), 4 hidden units at a time.
    pub fn lstm_cell(self, z: &[f32], bias: &[f32], c: &mut [f32], h: &mut [f32]) {
        lstm_cell_with::<F32x4>(z, bias, c, h)
    }

    /// [`matvec`](super::matvec) with rows in pairs (the 2×1 micro-kernel:
    /// the input's loads are shared by both rows).
    pub fn matvec(
        self,
        w: &[f32],
        stride: usize,
        rows: usize,
        cols: usize,
        x: &[f32],
        y: &mut [f32],
    ) {
        let row = |r: usize| &w[r * stride..r * stride + cols];
        let mut r = 0;
        while r + 2 <= rows {
            [y[r], y[r + 1]] = dot_2x1(row(r), row(r + 1), x);
            r += 2;
        }
        if r < rows {
            y[r] = dot(row(r), x);
        }
    }

    /// [`gemm_micro`](super::gemm_micro) with each weight row against two
    /// batch lanes at a time (the 1×2 micro-kernel); `batch == 1` is
    /// [`Sse2::matvec`].
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_micro(
        self,
        w: &[f32],
        w_stride: usize,
        rows: usize,
        cols: usize,
        xs: &[f32],
        x_stride: usize,
        batch: usize,
        ys: &mut [f32],
    ) {
        if batch == 1 {
            return self.matvec(w, w_stride, rows, cols, &xs[..cols], ys);
        }
        let xrow = |b: usize| &xs[b * x_stride..b * x_stride + cols];
        for r in 0..rows {
            let w0 = &w[r * w_stride..r * w_stride + cols];
            let mut b = 0;
            while b + 2 <= batch {
                [ys[b * rows + r], ys[(b + 1) * rows + r]] = dot_1x2(w0, xrow(b), xrow(b + 1));
                b += 2;
            }
            if b < batch {
                ys[b * rows + r] = dot(w0, xrow(b));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2.

/// Proof that the running CPU has AVX2: [`Avx2::detect`] is the only way to
/// get one, so its methods may run the `avx2` code.
#[derive(Debug, Clone, Copy)]
pub struct Avx2(());

impl Avx2 {
    /// `Some` iff the CPU has AVX2 — `is_x86_feature_detected!`, a cached
    /// atomic load at run time and a constant under a `-C target-cpu` that
    /// has AVX2.
    #[inline]
    pub fn detect() -> Option<Avx2> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// [`Activation::apply`], 8 lanes at a time.
    pub fn apply(self, act: Activation, xs: &mut [f32]) {
        // SAFETY: `self` proves the CPU has AVX2.
        unsafe { apply_avx2(act, xs) }
    }

    /// [`lstm_cell`](super::lstm_cell), 8 hidden units at a time.
    pub fn lstm_cell(self, z: &[f32], bias: &[f32], c: &mut [f32], h: &mut [f32]) {
        // SAFETY: as above.
        unsafe { lstm_cell_avx2(z, bias, c, h) }
    }

    /// [`matvec`](super::matvec): [`Avx2::gemm_micro`] at batch 1.
    pub fn matvec(
        self,
        w: &[f32],
        stride: usize,
        rows: usize,
        cols: usize,
        x: &[f32],
        y: &mut [f32],
    ) {
        self.gemm_micro(w, stride, rows, cols, x, cols, 1, y)
    }

    /// [`gemm_micro`](super::gemm_micro) with 4 weight rows × 2 batch lanes
    /// in flight (8 accumulators, 2 input and 1 weight register of the 16).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_micro(
        self,
        w: &[f32],
        w_stride: usize,
        rows: usize,
        cols: usize,
        xs: &[f32],
        x_stride: usize,
        batch: usize,
        ys: &mut [f32],
    ) {
        let g = Gemm {
            w,
            w_stride,
            rows,
            cols,
            xs,
            x_stride,
            batch,
        };
        // SAFETY: as above.
        unsafe { gemm_avx2(&g, ys) }
    }
}

#[target_feature(enable = "avx2")]
fn apply_avx2(act: Activation, xs: &mut [f32]) {
    apply_with::<F32x8>(act, xs)
}

#[target_feature(enable = "avx2")]
fn lstm_cell_avx2(z: &[f32], bias: &[f32], c: &mut [f32], h: &mut [f32]) {
    lstm_cell_with::<F32x8>(z, bias, c, h)
}

/// The shape of one [`gemm_micro`](super::gemm_micro) call.
struct Gemm<'a> {
    w: &'a [f32],
    w_stride: usize,
    rows: usize,
    cols: usize,
    xs: &'a [f32],
    x_stride: usize,
    batch: usize,
}

impl Gemm<'_> {
    #[inline(always)]
    fn w_row(&self, r: usize) -> &[f32] {
        &self.w[r * self.w_stride..r * self.w_stride + self.cols]
    }

    #[inline(always)]
    fn x_row(&self, b: usize) -> &[f32] {
        &self.xs[b * self.x_stride..b * self.x_stride + self.cols]
    }
}

#[target_feature(enable = "avx2")]
fn gemm_avx2(g: &Gemm, ys: &mut [f32]) {
    let mut r = 0;
    // SAFETY: this function runs with AVX2 enabled.
    unsafe {
        while r + 4 <= g.rows {
            gemm_rows::<4>(g, r, ys);
            r += 4;
        }
        for r in r..g.rows {
            gemm_rows::<1>(g, r, ys);
        }
    }
}

/// Rows `r..r + R` against every batch lane, two lanes at a time.
///
/// # Safety
/// The CPU must have AVX2 (callers run under `target_feature(avx2)`).
#[inline(always)]
unsafe fn gemm_rows<const R: usize>(g: &Gemm, r: usize, ys: &mut [f32]) {
    let mut w = [&[][..]; R];
    for (i, row) in w.iter_mut().enumerate() {
        *row = g.w_row(r + i);
    }
    let mut b = 0;
    while b + 2 <= g.batch {
        let out = cells(w, [g.x_row(b), g.x_row(b + 1)]);
        for (i, [y0, y1]) in out.into_iter().enumerate() {
            ys[b * g.rows + r + i] = y0;
            ys[(b + 1) * g.rows + r + i] = y1;
        }
        b += 2;
    }
    if b < g.batch {
        let out = cells(w, [g.x_row(b)]);
        for (i, [y]) in out.into_iter().enumerate() {
            ys[b * g.rows + r + i] = y;
        }
    }
}

/// The `R × B` dot products of `w` rows against `x` rows (all of one
/// length), one `__m256` of lane partials per cell.
///
/// # Safety
/// As [`gemm_rows`].
#[inline(always)]
unsafe fn cells<const R: usize, const B: usize>(w: [&[f32]; R], x: [&[f32]; B]) -> [[f32; B]; R] {
    let cols = x[0].len();
    debug_assert!(w.iter().chain(&x).all(|s| s.len() == cols));
    let full = cols / LANES * LANES;
    // Loops, not `array::from_fn`: a closure would not inherit the caller's
    // `target_feature`, and its intrinsics would not inline.
    let mut acc = [[_mm256_setzero_ps(); B]; R];
    let mut xv = [_mm256_setzero_ps(); B];
    let mut k = 0;
    while k < full {
        // Every row holds `cols >= k + 8` elements here.
        for (v, xb) in xv.iter_mut().zip(&x) {
            *v = _mm256_loadu_ps(xb.as_ptr().add(k));
        }
        for (acc_r, w_r) in acc.iter_mut().zip(&w) {
            let wv = _mm256_loadu_ps(w_r.as_ptr().add(k));
            for (a, &xb) in acc_r.iter_mut().zip(&xv) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, xb));
            }
        }
        k += LANES;
    }
    let mut out = [[0.0f32; B]; R];
    for ((out_r, acc_r), w_r) in out.iter_mut().zip(&acc).zip(&w) {
        for ((o, &a), xb) in out_r.iter_mut().zip(acc_r).zip(&x) {
            *o = finish(a, &w_r[full..], &xb[full..]);
        }
    }
    out
}

/// One cell's value from its lane partials plus the `cols % 8` tail.
///
/// # Safety
/// As [`gemm_rows`].
#[inline(always)]
unsafe fn finish(acc: __m256, w_tail: &[f32], x_tail: &[f32]) -> f32 {
    if w_tail.is_empty() {
        // ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7)), in registers.
        let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
        let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
        _mm_cvtss_f32(_mm_add_ss(t, _mm_shuffle_ps::<0b01>(t, t)))
    } else {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        fma_tail(&mut lanes, w_tail, x_tail);
        reduce(&lanes)
    }
}
