//! The x86_64 instruction sets of the kernel layer: SSE2 (the baseline,
//! always present), AVX2 and AVX-VNNI (runtime-detected). Each computes
//! exactly the bits of the portable definitions in the parent module.

use super::{
    apply_with, fma_tail, lstm_cell_with, quantize_with, reduce, Activation, I8Rows, Lanes,
    EXP2I_BIAS, LANES, Q_MAX,
};
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

    #[inline(always)]
    fn store_i8(self, s: &mut [i8]) {
        let s = &mut s[..4];
        // NaN lanes to +0, clamp, then `cvtps2dq` rounds half to even (the
        // default MXCSR mode); the packs cannot saturate in [−127, 127].
        let q = unsafe {
            let v = _mm_and_ps(self.0, _mm_cmpord_ps(self.0, self.0));
            let v = _mm_min_ps(_mm_max_ps(v, _mm_set1_ps(-Q_MAX)), _mm_set1_ps(Q_MAX));
            let w = _mm_packs_epi32(_mm_cvtps_epi32(v), _mm_setzero_si128());
            _mm_cvtsi128_si32(_mm_packs_epi16(w, w))
        };
        for (d, b) in s.iter_mut().zip(q.to_le_bytes()) {
            *d = b as i8;
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

    #[inline(always)]
    fn store_i8(self, s: &mut [i8]) {
        let s = &mut s[..8];
        // As the SSE2 lanes: NaN → +0, clamp, round half to even, pack.
        // SAFETY: AVX2 is enabled where `F32x8` exists; the store writes
        // the 8 bytes of `s`.
        unsafe {
            let ord = _mm256_cmp_ps::<_CMP_ORD_Q>(self.0, self.0);
            let v = _mm256_and_ps(self.0, ord);
            let v = _mm256_min_ps(
                _mm256_max_ps(v, _mm256_set1_ps(-Q_MAX)),
                _mm256_set1_ps(Q_MAX),
            );
            let q = _mm256_cvtps_epi32(v);
            let w = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            _mm_storel_epi64(s.as_mut_ptr().cast(), _mm_packs_epi16(w, w));
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
        lstm_cell_with::<F32x4, _>(z, bias, c, h)
    }

    /// [`lstm_cell_q`](super::lstm_cell_q), 4 hidden units at a time.
    pub fn lstm_cell_q(self, z: &[f32], bias: &[f32], c: &mut [f32], h: &mut [i8]) {
        lstm_cell_with::<F32x4, _>(z, bias, c, h)
    }

    /// [`quantize`](super::quantize), 4 lanes at a time.
    pub fn quantize(self, xs: &[f32], out: &mut [i8]) {
        quantize_with::<F32x4>(xs, out)
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

    /// [`lstm_cell_q`](super::lstm_cell_q), 8 hidden units at a time.
    pub fn lstm_cell_q(self, z: &[f32], bias: &[f32], c: &mut [f32], h: &mut [i8]) {
        // SAFETY: as above.
        unsafe { lstm_cell_q_avx2(z, bias, c, h) }
    }

    /// [`quantize`](super::quantize), 8 lanes at a time.
    pub fn quantize(self, xs: &[f32], out: &mut [i8]) {
        // SAFETY: as above.
        unsafe { quantize_avx2(xs, out) }
    }

    /// [`gemm_i8`](super::gemm_i8) with `vpmaddwd`: each 32-byte code
    /// group (8 rows × 4 columns) sign-extended to `i16` in two halves and
    /// multiplied against the group's 4 hidden codes, 32 rows in flight.
    pub fn gemm_i8(self, m: I8Rows, hs: &[i8], h_stride: usize, batch: usize, zs: &mut [f32]) {
        // SAFETY: as above.
        unsafe { gemm_i8_avx2(m, hs, h_stride, batch, zs) }
    }

    /// [`matvec`](super::matvec): 4 rows in flight, each row's `__m256`
    /// holding its eight `i % 8` lane partials — the cells of
    /// [`Avx2::gemm_micro`] at one input, without its batch loop.
    pub fn matvec(
        self,
        w: &[f32],
        stride: usize,
        rows: usize,
        cols: usize,
        x: &[f32],
        y: &mut [f32],
    ) {
        // SAFETY: as above.
        unsafe { matvec_avx2(w, stride, rows, cols, x, y) }
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
    lstm_cell_with::<F32x8, _>(z, bias, c, h)
}

#[target_feature(enable = "avx2")]
fn lstm_cell_q_avx2(z: &[f32], bias: &[f32], c: &mut [f32], h: &mut [i8]) {
    lstm_cell_with::<F32x8, _>(z, bias, c, h)
}

#[target_feature(enable = "avx2")]
fn quantize_avx2(xs: &[f32], out: &mut [i8]) {
    quantize_with::<F32x8>(xs, out)
}

#[target_feature(enable = "avx2")]
fn matvec_avx2(w: &[f32], stride: usize, rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    let full = cols / LANES * LANES;
    let x = &x[..cols];
    let row = |r: usize| &w[r * stride..r * stride + cols];
    let mut r = 0;
    while r + 4 <= rows {
        let ws = [row(r), row(r + 1), row(r + 2), row(r + 3)];
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut k = 0;
        while k < full {
            // SAFETY: every row and `x` hold `cols >= k + 8` elements.
            unsafe {
                let xv = _mm256_loadu_ps(x.as_ptr().add(k));
                for (a, wr) in acc.iter_mut().zip(&ws) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_loadu_ps(wr.as_ptr().add(k)), xv));
                }
            }
            k += LANES;
        }
        for (i, (&a, wr)) in acc.iter().zip(&ws).enumerate() {
            // SAFETY: this function runs with AVX2 enabled.
            y[r + i] = unsafe { finish(a, &wr[full..], &x[full..]) };
        }
        r += 4;
    }
    for (r, yr) in y.iter_mut().enumerate().take(rows).skip(r) {
        // SAFETY: as above.
        *yr = unsafe { cells([row(r)], [x])[0][0] };
    }
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

// ---------------------------------------------------------------------------
// The integer gate: exact `i32` sums, so any blocking gives the bits of
// `gemm_i8_portable`.

/// Proof that the running CPU has AVX-VNNI and AVX2: [`AvxVnni::detect`]
/// is the only way to get one.
#[derive(Debug, Clone, Copy)]
pub struct AvxVnni(());

impl AvxVnni {
    /// `Some` iff the CPU has AVX2 and AVX-VNNI (`vpdpbusd` on 256-bit
    /// registers); cached detection, as [`Avx2::detect`].
    #[inline]
    pub fn detect() -> Option<AvxVnni> {
        (is_x86_feature_detected!("avx2") && is_x86_feature_detected!("avxvnni"))
            .then_some(AvxVnni(()))
    }

    /// [`gemm_i8`](super::gemm_i8) with `vpdpbusd`: each 32-byte code
    /// group (8 rows × 4 columns) against the group's 4 hidden codes + 128
    /// as `u8`, the per-row correction `128·Σ q` subtracted at the end; 32
    /// rows in flight.
    pub fn gemm_i8(self, m: I8Rows, hs: &[i8], h_stride: usize, batch: usize, zs: &mut [f32]) {
        // SAFETY: `self` proves the CPU has AVX2 and AVX-VNNI.
        unsafe { gemm_i8_vnni(m, hs, h_stride, batch, zs) }
    }
}

/// Row blocks of a gate mat-vec in flight: four independent accumulator
/// chains hide the multiply-add latency and share each hidden group.
const BLOCKS: usize = 4;

/// One integer gate kernel: how a hidden group (4 codes, one
/// little-endian `i32`) is prepared once per `BLOCKS` blocks, how a
/// block's 32-byte code group is accumulated, and how a block's
/// accumulators become its eight exact row sums.
///
/// # Safety
/// Every method needs the kernel's instruction set; `accumulate` reads 32
/// bytes at `codes`, `sums` 8 `i32`s at `corr`.
trait GateKernel {
    type H: Copy;
    type Acc: Copy;
    unsafe fn zero() -> Self::Acc;
    unsafe fn prepare(group: i32) -> Self::H;
    unsafe fn accumulate(acc: Self::Acc, h: Self::H, codes: *const i8) -> Self::Acc;
    unsafe fn sums(acc: Self::Acc, corr: *const i32) -> __m256i;
}

/// Runs `K` over every lane: row blocks `BLOCKS` at a time, then one at a
/// time. Generic, not a closure: a closure would not inherit the caller's
/// `target_feature`.
///
/// # Safety
/// As `K`'s methods.
#[inline(always)]
unsafe fn gemm_i8_with<K: GateKernel>(
    m: I8Rows,
    hs: &[i8],
    h_stride: usize,
    batch: usize,
    zs: &mut [f32],
) {
    let row_blocks = m.rows.div_ceil(8);
    assert!(m.blocks.len() >= row_blocks * m.groups() * 32);
    assert!(m.scale.len() >= row_blocks * 8 && m.corr.len() >= row_blocks * 8);
    for b in 0..batch {
        let h = &hs[b * h_stride..b * h_stride + m.cols];
        let z = &mut zs[b * m.rows..(b + 1) * m.rows];
        let mut blk = 0;
        while blk + BLOCKS <= row_blocks {
            blocks_n::<K, BLOCKS>(&m, blk, h, z);
            blk += BLOCKS;
        }
        for blk in blk..row_blocks {
            blocks_n::<K, 1>(&m, blk, h, z);
        }
    }
}

/// Row blocks `blk..blk + N` of one lane: `z[8·blk..]` (clipped to the
/// real rows) from the exact row sums.
///
/// # Safety
/// As `K`'s methods; `blk + N` blocks must exist (asserted by the caller).
#[inline(always)]
unsafe fn blocks_n<K: GateKernel, const N: usize>(m: &I8Rows, blk: usize, h: &[i8], z: &mut [f32]) {
    // Every pointer below stays inside block `blk + j < row_blocks` of
    // `m.blocks` (group `g < groups`), or inside the first `row_blocks · 8`
    // entries of `m.corr` / `m.scale`: the lengths `gemm_i8_with` asserts.
    let block_bytes = m.groups() * 32;
    let base = m.blocks.as_ptr().add(blk * block_bytes);
    let mut acc = [K::zero(); N];
    let (full, tail) = h.as_chunks::<4>();
    for (g, group) in full.iter().enumerate() {
        let hg = K::prepare(i32::from_le_bytes(group.map(|x| x as u8)));
        for (j, a) in acc.iter_mut().enumerate() {
            *a = K::accumulate(*a, hg, base.add(j * block_bytes + g * 32));
        }
    }
    if !tail.is_empty() {
        // The last, partial group: its padded codes are zero.
        let mut group = [0u8; 4];
        for (d, &x) in group.iter_mut().zip(tail) {
            *d = x as u8;
        }
        let hg = K::prepare(i32::from_le_bytes(group));
        for (j, a) in acc.iter_mut().enumerate() {
            *a = K::accumulate(*a, hg, base.add(j * block_bytes + full.len() * 32));
        }
    }
    for (j, &a) in acc.iter().enumerate() {
        let r = (blk + j) * 8;
        let sums = K::sums(a, m.corr.as_ptr().add(r));
        let k = _mm256_loadu_ps(m.scale.as_ptr().add(r));
        let v = _mm256_mul_ps(_mm256_cvtepi32_ps(sums), k);
        if r + 8 <= m.rows {
            _mm256_storeu_ps(z[r..r + 8].as_mut_ptr(), v);
        } else {
            let mut last = [0.0f32; 8];
            _mm256_storeu_ps(last.as_mut_ptr(), v);
            z[r..].copy_from_slice(&last[..m.rows - r]);
        }
    }
}

/// AVX2: a group's 16-byte halves (rows 0–3, 4–7) sign-extended to `i16`
/// and `vpmaddwd`-ed against the 4 hidden codes broadcast as `i16`; each
/// `i32` lane holds one row's two-column partial, so a block ends with one
/// `vphaddd` and a lane permute.
struct MaddAvx2;

impl GateKernel for MaddAvx2 {
    type H = __m256i;
    type Acc = (__m256i, __m256i);

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        (_mm256_setzero_si256(), _mm256_setzero_si256())
    }

    #[inline(always)]
    unsafe fn prepare(group: i32) -> __m256i {
        _mm256_broadcastq_epi64(_mm_cvtepi8_epi16(_mm_cvtsi32_si128(group)))
    }

    #[inline(always)]
    unsafe fn accumulate(acc: Self::Acc, h: __m256i, codes: *const i8) -> Self::Acc {
        let lo = _mm256_cvtepi8_epi16(_mm_loadu_si128(codes.cast()));
        let hi = _mm256_cvtepi8_epi16(_mm_loadu_si128(codes.add(16).cast()));
        (
            _mm256_add_epi32(acc.0, _mm256_madd_epi16(lo, h)),
            _mm256_add_epi32(acc.1, _mm256_madd_epi16(hi, h)),
        )
    }

    #[inline(always)]
    unsafe fn sums(acc: Self::Acc, _corr: *const i32) -> __m256i {
        // [r0 r1 r4 r5 | r2 r3 r6 r7] → rows in order.
        _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_hadd_epi32(acc.0, acc.1))
    }
}

/// AVX-VNNI: `vpdpbusd` of the group's codes against the broadcast 4
/// hidden codes plus 128 (as `u8`); each `i32` lane holds one row's sum
/// plus `128·Σ q`, removed once per block.
struct DpbusdVnni;

impl GateKernel for DpbusdVnni {
    type H = __m256i;
    type Acc = __m256i;

    #[inline(always)]
    unsafe fn zero() -> __m256i {
        _mm256_setzero_si256()
    }

    #[inline(always)]
    unsafe fn prepare(group: i32) -> __m256i {
        // `x ^ 0x80` is `x + 128` as u8.
        _mm256_set1_epi32(group ^ i32::from_le_bytes([0x80; 4]))
    }

    #[inline(always)]
    unsafe fn accumulate(acc: __m256i, h: __m256i, codes: *const i8) -> __m256i {
        _mm256_dpbusd_avx_epi32(acc, h, _mm256_loadu_si256(codes.cast()))
    }

    #[inline(always)]
    unsafe fn sums(acc: __m256i, corr: *const i32) -> __m256i {
        _mm256_sub_epi32(acc, _mm256_loadu_si256(corr.cast()))
    }
}

#[target_feature(enable = "avx2")]
fn gemm_i8_avx2(m: I8Rows, hs: &[i8], h_stride: usize, batch: usize, zs: &mut [f32]) {
    // SAFETY: this function runs with AVX2 enabled.
    unsafe { gemm_i8_with::<MaddAvx2>(m, hs, h_stride, batch, zs) }
}

#[target_feature(enable = "avx2,avxvnni")]
fn gemm_i8_vnni(m: I8Rows, hs: &[i8], h_stride: usize, batch: usize, zs: &mut [f32]) {
    // SAFETY: this function runs with AVX2 and AVX-VNNI enabled.
    unsafe { gemm_i8_with::<DpbusdVnni>(m, hs, h_stride, batch, zs) }
}
