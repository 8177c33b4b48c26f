//! The kernel layer: the inference hot path's dot products, mat-vecs and
//! gate non-linearities, each with **one** bit-exact definition that every
//! instruction set reproduces.
//!
//! # The fixed reduction order
//!
//! Every dot-product-shaped value in this module is accumulated the same
//! way, regardless of which public entry point or instruction set
//! computed it:
//!
//! 1. **Lane-strided partial sums.** Eight `f32` accumulators start at
//!    `+0.0`; the product at index `i` is added to accumulator `i % 8`, in
//!    increasing `i`. (A tail of `len % 8` elements therefore lands in
//!    lanes `0..len % 8`, continuing each lane's running sum.)
//! 2. **Fixed pairwise tree.** The eight partials are combined as
//!    `((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7))` — never reassociated.
//!
//! This is *not* a left-to-right summation, so absolute values differ
//! from a sequential sum by normal `f32` reassociation noise. What the
//! fixed order buys is **bit-identity between every path that computes
//! the same logical value**:
//!
//! * [`matvec`] and [`gemm_micro`] produce identical bits per output cell
//!   at any batch and on any instruction set — register blocking only
//!   changes *which* cells are in flight, never the order of additions
//!   within a cell;
//! * a [`PackedWeights`](crate::pack::PackedWeights) row (padded to the
//!   lane width) feeds the same kernel as the unpadded row-major slice —
//!   the padding is never read (the `cols` bound stops before it), so
//!   packed and unpacked results are equal bit-for-bit;
//! * consequently the repo's serving invariants — batched-vs-scalar,
//!   shard-invariance (`tests/sharded.rs`), ingest-vs-sync
//!   (`tests/ingest.rs`) — survive vectorization *by construction*: there
//!   is exactly one accumulation order in the whole inference stack.
//!
//! # The owned non-linearities
//!
//! [`exp`], [`sigmoid`] and [`tanh`] are this module's own, not libm's
//! (whose precision is platform-defined): range reduction plus a
//! fixed-degree polynomial, IEEE `+ - * /` and bit operations only —
//! **never FMA** (a fused multiply-add rounds once where the definition
//! rounds twice). One generic body per function is written over a lane
//! type; its `f32` instance is the **definition**, and the SSE2 (4-wide)
//! and AVX2 (8-wide) instances execute the same operations in the same
//! order, so they are bit-identical to it for every input (proptested in
//! `tests/kernels.rs` over arbitrary bit patterns). Training and serving
//! call the same functions, so the labels and the invariant table hold
//! across hosts, not per libm.
//!
//! **`exp(x)`** (Cephes `expf`):
//!
//! 1. NaN → `f32::NAN` (`0x7FC0_0000`, whatever the input payload);
//! 2. clamp `xc = min(HI, max(LO, x))` with `HI = 88.37626`,
//!    `LO = −87.33654` — so `exp(+∞) = e^HI ≈ 2.41e38` and
//!    `exp(−∞) = e^LO ≈ 1.18e−38`: finite, never `inf`/`0`;
//! 3. `t = xc·log2(e) + 1.5·2²³` (the add rounds to the nearest integer
//!    `n`, ties to even, and leaves it in `t`'s low mantissa bits),
//!    `n = t − 1.5·2²³`;
//! 4. `r = (xc − n·0.693359375) − n·(−2.12194440e−4)` (Cody–Waite);
//! 5. `p = ((((P0·r + P1)·r + P2)·r + P3)·r + P4)·r + P5` with
//!    `P = [1.9875691e−4, 1.3981999e−3, 8.3334519e−3, 4.1665796e−2,
//!    1.6666665e−1, 0.5]`, `y = (p·(r·r) + r) + 1`;
//! 6. result `y · 2ⁿ`, with `2ⁿ` built from `t`'s bits:
//!    `from_bits((bits(t) − (0x4B40_0000 − 127)) << 23)`.
//!
//! **`sigmoid(x)`** = `1 / (1 + exp(−x))` with step 1 applied to `x`
//! (so `sigmoid(+∞) = 1`, `sigmoid(−∞) = 1/(1+e^HI) ≈ 4.2e−39`).
//!
//! **`tanh(x)`** (Cephes `tanhf`): NaN → `f32::NAN`; `a = |x|`;
//! `a ≥ 0.625`: `1 − 2/(exp(a+a) + 1)`; otherwise, with `z = a·a`,
//! `((((T0·z + T1)·z + T2)·z + T3)·z + T4)·z·a + a` with
//! `T = [−5.7049889e−3, 2.063909e−2, −5.3739716e−2, 1.3331442e−1,
//! −3.333328e−1]` (evaluated left to right); then `x`'s sign bit is OR-ed
//! in. So `tanh` is exactly odd, `tanh(±0) = ±0`, `tanh(±∞) = ±1`.
//!
//! **Error** against an `f64` reference, over every 13th `f32` bit
//! pattern (worst case measured in brackets; the bounds are asserted on a
//! sample by `nonlinearities_stay_within_the_stated_error`):
//!
//! | function | absolute | relative |
//! |---|---|---|
//! | `exp` on `[LO, HI]` | — | ≤ 1e−7 (8.2e−8) |
//! | `sigmoid` | ≤ 1e−7 (9.0e−8) | ≤ 2e−7 for `x ≥ −87` (1.5e−7) |
//! | `tanh` | ≤ 1e−7 (7.9e−8) | ≤ 2e−7 for normal `x` (1.4e−7) |
//!
//! # Instruction sets
//!
//! The order-defining implementations are the portable [`dot_portable`]
//! and the `f32` instances of the non-linearities (plain safe Rust). On
//! `x86_64` the entry points dispatch by CPU feature detection alone — no
//! flag, env var or cargo feature selects a path:
//!
//! * **AVX2** (`is_x86_feature_detected!("avx2")`, resolved at compile
//!   time under `-C target-cpu` with AVX2): each mat-vec cell keeps one
//!   `__m256` whose lanes *are* the eight `i % 8` accumulators, 4 rows
//!   (× 2 inputs in [`gemm_micro`]) in flight, reduced in registers by
//!   extract-high/add, movehl/add, shuffle/add — exactly the tree above.
//!   The non-linearities and the fused [`lstm_cell`] run 8 lanes at a time.
//! * **SSE2** (the x86_64 baseline, so no detection): each cell's
//!   accumulators live in two `__m128` (lanes 0–3 / 4–7), 2 cells in
//!   flight; non-linearities 4 lanes at a time.
//!
//! Each is reachable directly through the [`Sse2`] / [`Avx2`] tokens (an
//! [`Avx2`] only exists on a CPU that has it), which is how the tests pin
//! every path to the definition. Tails shorter than a vector fall back to
//! the portable code, which computes the same bits.
//!
//! Why explicit intrinsics rather than autovectorization: LLVM's SLP
//! vectorizer (rustc 1.95) packs the lane accumulators to optimise the
//! *reduction tree* rather than the loop, emitting shuffle-heavy bodies
//! that ran no faster than ~1.7× scalar, and it cannot vectorize the
//! reduction without reassociating it.
//!
//! A transposed weight layout does not by itself change the reduction
//! order: an 8 × 8 row-transposed block layout (eight rows' `k..k+8`
//! blocks interleaved) still keeps each row's `i % 8` partials in separate
//! accumulators and closes them with vertical adds in the same tree. A
//! prototype of it at 256 × 64 was bit-identical and ran about as fast as
//! the direct row-major loop of [`Avx2::matvec`] (1 189 against 1 232 ns
//! on a 2.1 GHz Xeon), so the row-major layout stays.
//!
//! # The integer gate
//!
//! Serving's LSTM gate `W_h·h` runs in integers (the third numerics
//! epoch): the weights are int8 with one scale per row, the hidden state
//! is int8 at the fixed scale 1/127, and the dot product is an exact `i32`
//! sum. Integer addition is associative, so **every blocking, lane
//! assignment and instruction set computes the same bits by
//! construction** — no reduction order needs to be fixed on this path.
//!
//! * **Hidden quantiser** ([`quantize_h`]): `q = clamp(round_half_even(h ·
//!   127), −127, 127)`, NaN → 0. [`lstm_cell_q`] writes `h = σ(o)⊙tanh(c)`
//!   through it; the `f32` value of `h` is never stored.
//! * **Weights** ([`PackedI8`](crate::pack::PackedI8)): row `r` has
//!   `s_r = max|w_r| / 127`, `q_w = round_half_even(w / s_r)` in
//!   `[−127, 127]`, and keeps `k_r = s_r / 127` (`q = 0`, `k = 0` for an
//!   all-zero row).
//! * **Mat-vec** ([`gemm_i8`]): `acc_r = Σ_k q_w[r,k]·q_h[k]` in `i32`,
//!   then `z_r = acc_r as f32 * k_r`. `|acc_r| ≤ H·127²` (1.03 M at
//!   `H = 64`, 2.06 M at 128) is below 2²⁴ for `H ≤ 1040`, so the
//!   conversion is exact; the gate is then `z_r + u_r` inside the
//!   unchanged [`lstm_cell`] update, a multiply and an add, never an FMA.
//!   The codes are stored row-interleaved (8 rows × 4 columns per 32
//!   bytes), so each `i32` lane of a vector accumulates one row and no
//!   kernel reduces horizontally.
//!
//! The portable `i32` loop ([`gemm_i8_portable`]) is the definition. On
//! `x86_64` [`gemm_i8`] dispatches by CPU detection alone: **AVX-VNNI**
//! ([`AvxVnni`]) runs `vpdpbusd` on `q_h + 128` as `u8` and subtracts the
//! per-row correction `128·Σ_k q_w[r,k]`; **AVX2** ([`Avx2`]) sign-extends
//! to `i16` and uses `vpmaddwd` (never `vpmaddubsw`, which saturates);
//! otherwise the portable loop runs.

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx2, AvxVnni, Sse2};

use std::ops::{Add, Div, Mul, Neg, Sub};

/// Vector width of the kernel layer: every reduction runs over this many
/// lane-strided partial accumulators, and packed rows are padded to a
/// multiple of this many `f32`s.
pub const LANES: usize = 8;

/// Combines the eight lane partials with the fixed pairwise tree
/// documented in the module docs. Inlined everywhere so all entry points
/// share one reduction order.
#[inline(always)]
fn reduce(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Adds `a[k] * b[k]` for one 8-wide block into the lane accumulators
/// (portable path). Fixed-size array operands so the loop carries no
/// bounds checks.
#[inline(always)]
fn fma_block(acc: &mut [f32; LANES], a: &[f32; LANES], b: &[f32; LANES]) {
    for l in 0..LANES {
        acc[l] += a[l] * b[l];
    }
}

/// Adds the `len % 8` trailing products into lanes `0..tail`, continuing
/// each lane's running sum (same lane assignment `i % 8` as the blocks).
#[inline(always)]
fn fma_tail(acc: &mut [f32; LANES], a: &[f32], b: &[f32]) {
    for (l, (&x, &y)) in a.iter().zip(b).enumerate() {
        acc[l] += x * y;
    }
}

/// The portable lane-strided dot product — the *definition* of the fixed
/// reduction order. [`dot`] dispatches here on non-x86 targets; on
/// `x86_64` the SSE2 path computes the same bits faster.
#[inline]
pub fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let (ab, at) = a.as_chunks::<LANES>();
    let (bb, bt) = b.as_chunks::<LANES>();
    for (x, y) in ab.iter().zip(bb) {
        fma_block(&mut acc, x, y);
    }
    fma_tail(&mut acc, at, bt);
    reduce(&acc)
}

/// Dot product in the fixed reduction order.
///
/// # Panics
/// Debug-asserts equal lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        x86::dot(a, b)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot_portable(a, b)
    }
}

/// `y += alpha * x`, element-wise (no reduction), so any vectorization of
/// it is bit-identical to the scalar loop. It is written as the plain
/// `zip` loop on purpose: LLVM vectorizes that form, while a hand-chunked
/// 8-lane form measured about 5× slower on the training path's
/// outer products (a 256 × 128 `outer_acc`: 24 µs chunked, 4.6 µs plain).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Strided matrix–vector product `y = W x`: row `r` of `W` is
/// `w[r*stride .. r*stride + cols]`. `stride == cols` is the plain
/// row-major case; packed weights pass their padded stride (the padding is
/// never read).
pub fn matvec(w: &[f32], stride: usize, rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    debug_assert!(stride >= cols);
    debug_assert!(w.len() >= rows.saturating_sub(1) * stride + cols * usize::from(rows > 0));
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows);
    #[cfg(target_arch = "x86_64")]
    match Avx2::detect() {
        Some(avx2) => avx2.matvec(w, stride, rows, cols, x, y),
        None => Sse2.matvec(w, stride, rows, cols, x, y),
    }
    #[cfg(not(target_arch = "x86_64"))]
    for (r, yr) in y.iter_mut().enumerate() {
        *yr = dot_portable(&w[r * stride..r * stride + cols], x);
    }
}

/// Register-blocked micro-GEMM for the batched inference path:
/// `ys[b*rows + r] = dot(W_row_r, x_b)` for `batch` input rows stored at
/// `x_stride` (`xs[b*x_stride .. b*x_stride + cols]`).
///
/// Several weight rows are dotted against two batch lanes at a time,
/// sharing register loads across cells. Every cell uses the fixed
/// reduction order, so the output is bit-identical to `batch` independent
/// [`matvec`] calls — the invariant the serving engines' batched rounds
/// rely on.
#[allow(clippy::too_many_arguments)]
pub fn gemm_micro(
    w: &[f32],
    w_stride: usize,
    rows: usize,
    cols: usize,
    xs: &[f32],
    x_stride: usize,
    batch: usize,
    ys: &mut [f32],
) {
    debug_assert!(w_stride >= cols && x_stride >= cols);
    debug_assert!(xs.len() >= batch.saturating_sub(1) * x_stride + cols * usize::from(batch > 0));
    debug_assert_eq!(ys.len(), batch * rows);
    #[cfg(target_arch = "x86_64")]
    match Avx2::detect() {
        Some(avx2) => avx2.gemm_micro(w, w_stride, rows, cols, xs, x_stride, batch, ys),
        None => Sse2.gemm_micro(w, w_stride, rows, cols, xs, x_stride, batch, ys),
    }
    #[cfg(not(target_arch = "x86_64"))]
    for b in 0..batch {
        let x = &xs[b * x_stride..b * x_stride + cols];
        matvec(
            w,
            w_stride,
            rows,
            cols,
            x,
            &mut ys[b * rows..(b + 1) * rows],
        );
    }
}

// ---------------------------------------------------------------------------
// Owned non-linearities (see the module docs for the specification).

const SIGN: u32 = 0x8000_0000;
const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -87.336_54;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// 1.5·2²³: adding it rounds to an integer kept in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `bits(ROUND_MAGIC)` minus the exponent bias: `(bits(n + ROUND_MAGIC) −
/// EXP2I_BIAS) << 23` are the bits of `2ⁿ`.
const EXP2I_BIAS: u32 = 0x4B40_0000 - 127;
const LN2_HI: f32 = 0.693_359_4; // 0.693359375 exactly
const LN2_LO: f32 = -2.121_944_4e-4;
const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];
const TANH_SPLIT: f32 = 0.625;
const TANH_P: [f32; 5] = [
    -5.704_988_7e-3,
    2.063_909e-2,
    -5.373_971_6e-2,
    1.333_144_2e-1,
    -3.333_328e-1,
];

/// A vector of `f32` lanes the non-linearities are written over: `f32`
/// itself (the portable definition), and on x86_64 an SSE2 4-lane and an
/// AVX2 8-lane type. Arithmetic is the IEEE operators; every other
/// operation is specified by its per-lane scalar meaning, which the SIMD
/// implementations match bit for bit.
trait Lanes:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Number of `f32` lanes.
    const WIDTH: usize;
    /// All lanes `v`.
    fn splat(v: f32) -> Self;
    /// The first `WIDTH` elements of `s`.
    fn load(s: &[f32]) -> Self;
    /// Writes the lanes to the first `WIDTH` elements of `s`.
    fn store(self, s: &mut [f32]);
    /// `if self > o { self } else { o }` (x86 `maxps`; a NaN `self` gives `o`).
    fn maxps(self, o: Self) -> Self;
    /// `if self < o { self } else { o }` (x86 `minps`).
    fn minps(self, o: Self) -> Self;
    /// The sign bit cleared.
    fn abs(self) -> Self;
    /// `self`'s bits OR the sign bit of `sign`.
    fn or_sign(self, sign: Self) -> Self;
    /// `if self >= o { a } else { b }` (false for NaN).
    fn select_ge(self, o: Self, a: Self, b: Self) -> Self;
    /// `f32::NAN` where `self` is NaN, else `v`.
    fn nan_or(self, v: Self) -> Self;
    /// `2ⁿ` for `self = n + ROUND_MAGIC`:
    /// `from_bits((bits(self) − EXP2I_BIAS) << 23)` in wrapping `u32`.
    fn exp2i(self) -> Self;
    /// Per lane: `0` for NaN, else `clamp(round_half_even(v), −127, 127)`,
    /// written as `i8` to the first `WIDTH` elements of `s`.
    fn store_i8(self, s: &mut [i8]);
}

impl Lanes for f32 {
    const WIDTH: usize = 1;

    #[inline(always)]
    fn splat(v: f32) -> f32 {
        v
    }

    #[inline(always)]
    fn load(s: &[f32]) -> f32 {
        s[0]
    }

    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        s[0] = self;
    }

    #[inline(always)]
    fn maxps(self, o: f32) -> f32 {
        if self > o {
            self
        } else {
            o
        }
    }

    #[inline(always)]
    fn minps(self, o: f32) -> f32 {
        if self < o {
            self
        } else {
            o
        }
    }

    #[inline(always)]
    fn abs(self) -> f32 {
        f32::from_bits(self.to_bits() & !SIGN)
    }

    #[inline(always)]
    fn or_sign(self, sign: f32) -> f32 {
        f32::from_bits(self.to_bits() | (sign.to_bits() & SIGN))
    }

    #[inline(always)]
    fn select_ge(self, o: f32, a: f32, b: f32) -> f32 {
        if self >= o {
            a
        } else {
            b
        }
    }

    #[inline(always)]
    fn nan_or(self, v: f32) -> f32 {
        if self.is_nan() {
            f32::NAN
        } else {
            v
        }
    }

    #[inline(always)]
    fn exp2i(self) -> f32 {
        f32::from_bits(self.to_bits().wrapping_sub(EXP2I_BIAS) << 23)
    }

    #[inline(always)]
    fn store_i8(self, s: &mut [i8]) {
        s[0] = if self.is_nan() {
            0
        } else {
            self.round_ties_even().clamp(-Q_MAX, Q_MAX) as i8
        };
    }
}

/// Steps 2–6 of `exp` (no NaN rule: a NaN input gives *some* NaN).
#[inline(always)]
fn exp_core<V: Lanes>(x: V) -> V {
    let k = V::splat;
    let xc = k(EXP_HI).minps(k(EXP_LO).maxps(x));
    let t = xc * k(LOG2E) + k(ROUND_MAGIC);
    let n = t - k(ROUND_MAGIC);
    let r = xc - n * k(LN2_HI) - n * k(LN2_LO);
    let p = ((((k(EXP_P[0]) * r + k(EXP_P[1])) * r + k(EXP_P[2])) * r + k(EXP_P[3])) * r
        + k(EXP_P[4]))
        * r
        + k(EXP_P[5]);
    let y = p * (r * r) + r + k(1.0);
    y * t.exp2i()
}

#[inline(always)]
fn exp_lanes<V: Lanes>(x: V) -> V {
    x.nan_or(exp_core(x))
}

#[inline(always)]
fn sigmoid_lanes<V: Lanes>(x: V) -> V {
    let one = V::splat(1.0);
    x.nan_or(one / (one + exp_core(-x)))
}

#[inline(always)]
fn tanh_lanes<V: Lanes>(x: V) -> V {
    let k = V::splat;
    let a = x.abs();
    let big = k(1.0) - k(2.0) / (exp_core(a + a) + k(1.0));
    let z = a * a;
    let small = ((((k(TANH_P[0]) * z + k(TANH_P[1])) * z + k(TANH_P[2])) * z + k(TANH_P[3])) * z
        + k(TANH_P[4]))
        * z
        * a
        + a;
    x.nan_or(a.select_ge(k(TANH_SPLIT), big, small).or_sign(x))
}

/// `eˣ` — the portable definition (order, clamp and NaN rule in the module
/// docs).
#[inline]
pub fn exp(x: f32) -> f32 {
    exp_lanes(x)
}

/// Logistic sigmoid `1 / (1 + e⁻ˣ)` — the portable definition.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    sigmoid_lanes(x)
}

/// Hyperbolic tangent — the portable definition.
#[inline]
pub fn tanh(x: f32) -> f32 {
    tanh_lanes(x)
}

/// The owned element-wise non-linearities, for the slice entry point
/// [`Activation::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// [`exp`].
    Exp,
    /// [`sigmoid`].
    Sigmoid,
    /// [`tanh`].
    Tanh,
}

impl Activation {
    /// All three, for tests and probes.
    pub const ALL: [Activation; 3] = [Activation::Exp, Activation::Sigmoid, Activation::Tanh];

    /// The portable definition at one point.
    #[inline]
    pub fn of(self, x: f32) -> f32 {
        act_lanes(self, x)
    }

    /// Applies the function to every element in place, on the widest
    /// instruction set the CPU has. Bit-identical to [`Activation::of`]
    /// per element.
    pub fn apply(self, xs: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        match Avx2::detect() {
            Some(avx2) => avx2.apply(self, xs),
            None => Sse2.apply(self, xs),
        }
        #[cfg(not(target_arch = "x86_64"))]
        apply_with::<f32>(self, xs)
    }
}

#[inline(always)]
fn act_lanes<V: Lanes>(act: Activation, x: V) -> V {
    match act {
        Activation::Exp => exp_lanes(x),
        Activation::Sigmoid => sigmoid_lanes(x),
        Activation::Tanh => tanh_lanes(x),
    }
}

/// [`Activation::apply`] over `V`'s width, the tail in the portable code.
#[inline(always)]
fn apply_with<V: Lanes>(act: Activation, xs: &mut [f32]) {
    let mut k = 0;
    while k + V::WIDTH <= xs.len() {
        act_lanes(act, V::load(&xs[k..])).store(&mut xs[k..]);
        k += V::WIDTH;
    }
    for x in &mut xs[k..] {
        *x = act_lanes(act, *x);
    }
}

/// The fused LSTM cell update of one lane: with pre-activations
/// `z + bias` (`4H`, gate order `i, f, g, o`), `c ← σ(f)⊙c + σ(i)⊙tanh(g)`
/// and `h ← σ(o)⊙tanh(c)`. `z` is read once and not written. The same
/// expressions as [`LstmCell::forward`](crate::LstmCell::forward), so the
/// packed `f32` scalar and batched steps are bit-identical to training.
pub fn lstm_cell(z: &[f32], bias: &[f32], c: &mut [f32], h: &mut [f32]) {
    debug_assert_eq!(z.len(), 4 * c.len());
    debug_assert_eq!(bias.len(), 4 * c.len());
    debug_assert_eq!(h.len(), c.len());
    #[cfg(target_arch = "x86_64")]
    match Avx2::detect() {
        Some(avx2) => avx2.lstm_cell(z, bias, c, h),
        None => Sse2.lstm_cell(z, bias, c, h),
    }
    #[cfg(not(target_arch = "x86_64"))]
    lstm_cell_with::<f32, _>(z, bias, c, h)
}

/// [`lstm_cell`] with the new hidden state stored quantised: `h[k] =
/// quantize_h(σ(o)⊙tanh(c))[k]`, bit-identical to running [`lstm_cell`]
/// and then [`quantize_h`] on each element. The serving step's cell
/// update.
pub fn lstm_cell_q(z: &[f32], bias: &[f32], c: &mut [f32], h: &mut [i8]) {
    debug_assert_eq!(z.len(), 4 * c.len());
    debug_assert_eq!(bias.len(), 4 * c.len());
    debug_assert_eq!(h.len(), c.len());
    #[cfg(target_arch = "x86_64")]
    match Avx2::detect() {
        Some(avx2) => avx2.lstm_cell_q(z, bias, c, h),
        None => Sse2.lstm_cell_q(z, bias, c, h),
    }
    #[cfg(not(target_arch = "x86_64"))]
    lstm_cell_with::<f32, _>(z, bias, c, h)
}

/// Where `lstm_cell_with` writes the new hidden state: an `f32` slice
/// as is, an `i8` slice through the hidden quantiser.
trait HiddenOut {
    fn put<V: Lanes>(&mut self, k: usize, h: V);
}

impl HiddenOut for [f32] {
    #[inline(always)]
    fn put<V: Lanes>(&mut self, k: usize, h: V) {
        h.store(&mut self[k..]);
    }
}

impl HiddenOut for [i8] {
    #[inline(always)]
    fn put<V: Lanes>(&mut self, k: usize, h: V) {
        quantize_lanes(h, &mut self[k..]);
    }
}

/// [`lstm_cell`] `V::WIDTH` hidden units at a time, the tail in the
/// portable code.
#[inline(always)]
fn lstm_cell_with<V: Lanes, O: HiddenOut + ?Sized>(
    z: &[f32],
    bias: &[f32],
    c: &mut [f32],
    h: &mut O,
) {
    let hd = c.len();
    let mut k = 0;
    while k + V::WIDTH <= hd {
        lstm_cell_block::<V, O>(z, bias, c, h, k);
        k += V::WIDTH;
    }
    for k in k..hd {
        lstm_cell_block::<f32, O>(z, bias, c, h, k);
    }
}

// No closures in the generic bodies: a closure does not inherit the
// `target_feature` of the AVX2 function it is instantiated in, so its
// intrinsics would not inline.
#[inline(always)]
fn lstm_cell_block<V: Lanes, O: HiddenOut + ?Sized>(
    z: &[f32],
    bias: &[f32],
    c: &mut [f32],
    h: &mut O,
    k: usize,
) {
    let hd = c.len();
    let i = sigmoid_lanes(V::load(&z[k..]) + V::load(&bias[k..]));
    let f = sigmoid_lanes(V::load(&z[hd + k..]) + V::load(&bias[hd + k..]));
    let g = tanh_lanes(V::load(&z[2 * hd + k..]) + V::load(&bias[2 * hd + k..]));
    let o = sigmoid_lanes(V::load(&z[3 * hd + k..]) + V::load(&bias[3 * hd + k..]));
    let c_new = f * V::load(&c[k..]) + i * g;
    c_new.store(&mut c[k..]);
    h.put(k, o * tanh_lanes(c_new));
}

// ---------------------------------------------------------------------------
// The integer gate (see the module docs for the specification).

/// Bound of a quantised value: int8 codes live in `[−127, 127]` (−128 is
/// never produced, so negation and the symmetric scale stay exact).
const Q_MAX: f32 = 127.0;

/// Fixed scale of the quantised hidden state: `h ≈ q / H_SCALE`.
pub const H_SCALE: f32 = Q_MAX;

/// The hidden-state quantiser — the portable definition:
/// `clamp(round_half_even(x · 127), −127, 127)`, with NaN → 0 (so ±∞ give
/// ±127).
#[inline]
pub fn quantize_h(x: f32) -> i8 {
    let mut q = [0i8];
    quantize_lanes(x, &mut q);
    q[0]
}

#[inline(always)]
fn quantize_lanes<V: Lanes>(x: V, out: &mut [i8]) {
    (x * V::splat(H_SCALE)).store_i8(out);
}

/// [`quantize_h`] of every element of `xs` into `out`, on the widest
/// instruction set the CPU has; bit-identical to the portable definition.
pub fn quantize(xs: &[f32], out: &mut [i8]) {
    debug_assert_eq!(xs.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    match Avx2::detect() {
        Some(avx2) => avx2.quantize(xs, out),
        None => Sse2.quantize(xs, out),
    }
    #[cfg(not(target_arch = "x86_64"))]
    quantize_with::<f32>(xs, out)
}

/// [`quantize`] `V::WIDTH` elements at a time, the tail in the portable
/// code.
#[inline(always)]
fn quantize_with<V: Lanes>(xs: &[f32], out: &mut [i8]) {
    let mut k = 0;
    while k + V::WIDTH <= xs.len() {
        quantize_lanes(V::load(&xs[k..]), &mut out[k..]);
        k += V::WIDTH;
    }
    for k in k..xs.len() {
        out[k] = quantize_h(xs[k]);
    }
}

/// A row-quantised int8 matrix as the integer kernels read it: the codes
/// in [`PackedI8`](crate::pack::PackedI8)'s row-interleaved layout (8-row
/// blocks × 4-column groups of 32 bytes, zero-padded), each row's
/// dequantisation factor `k_r` and each row's `128·Σ_k q[r,k]` (the VNNI
/// offset correction), both padded to whole blocks. Only `PackedI8`
/// builds one, so the parts always agree.
#[derive(Debug, Clone, Copy)]
pub struct I8Rows<'a> {
    pub(crate) blocks: &'a [i8],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) scale: &'a [f32],
    pub(crate) corr: &'a [i32],
}

impl I8Rows<'_> {
    /// Column groups per block (`⌈cols / 4⌉`).
    #[inline(always)]
    fn groups(&self) -> usize {
        self.cols.div_ceil(4)
    }
}

/// The integer gate mat-vec — the portable definition:
/// `zs[b*rows + r] = (Σ_k q[r,k]·hs[b*h_stride + k]) as f32 * k_r` (the
/// sum exact in `i32`) for `batch` quantised hidden vectors stored
/// `h_stride` apart. It walks the codes in layout order: per 8-row block,
/// per 4-column group, each row's four products into that row's sum.
pub fn gemm_i8_portable(m: I8Rows, hs: &[i8], h_stride: usize, batch: usize, zs: &mut [f32]) {
    debug_assert!(h_stride >= m.cols);
    debug_assert_eq!(zs.len(), batch * m.rows);
    let block_bytes = m.groups() * 32;
    for b in 0..batch {
        let h = &hs[b * h_stride..b * h_stride + m.cols];
        let z = &mut zs[b * m.rows..(b + 1) * m.rows];
        for (blk, codes) in m.blocks.chunks_exact(block_bytes).enumerate() {
            let mut acc = [0i32; 8];
            for (group, hg) in codes.as_chunks::<32>().0.iter().zip(h.chunks(4)) {
                // The partial last group reads zeros past `h` (its codes
                // are zero there too).
                let mut x = [0i32; 4];
                for (x, &v) in x.iter_mut().zip(hg) {
                    *x = i32::from(v);
                }
                for (a, row) in acc.iter_mut().zip(group.as_chunks::<4>().0) {
                    for (&q, &x) in row.iter().zip(&x) {
                        *a += i32::from(q) * x;
                    }
                }
            }
            let rows = blk * 8..(blk * 8 + 8).min(m.rows);
            for ((zr, a), k) in z[rows.clone()].iter_mut().zip(acc).zip(&m.scale[rows]) {
                *zr = a as f32 * k;
            }
        }
    }
}

/// [`gemm_i8_portable`] on the fastest integer kernel the CPU has:
/// AVX-VNNI, else AVX2, else the portable loop. Every path computes the
/// same bits (integer sums are exact in any order).
pub fn gemm_i8(m: I8Rows, hs: &[i8], h_stride: usize, batch: usize, zs: &mut [f32]) {
    debug_assert!(h_stride >= m.cols);
    debug_assert!(hs.len() >= batch.saturating_sub(1) * h_stride + m.cols * usize::from(batch > 0));
    debug_assert_eq!(zs.len(), batch * m.rows);
    #[cfg(target_arch = "x86_64")]
    if let Some(vnni) = AvxVnni::detect() {
        return vnni.gemm_i8(m, hs, h_stride, batch, zs);
    } else if let Some(avx2) = Avx2::detect() {
        return avx2.gemm_i8(m, hs, h_stride, batch, zs);
    }
    gemm_i8_portable(m, hs, h_stride, batch, zs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 - shift) * scale).collect()
    }

    #[test]
    fn dot_matches_reference_within_tolerance() {
        for n in [0, 1, 3, 7, 8, 9, 16, 31, 64, 100] {
            let a = vals(n, 0.13, 20.0);
            let b = vals(n, -0.07, 3.0);
            let got = dot(&a, &b);
            let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (got - want).abs() <= 1e-3 * (1.0 + want.abs()),
                "n={n}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn dot_is_bit_identical_to_portable_definition() {
        // The dispatched kernel (SSE2 on x86_64) must match the portable
        // order-defining implementation exactly, at every length.
        for n in 0..130 {
            let a = vals(n, 0.31, (n / 2) as f32);
            let b = vals(n, -0.17, 3.0);
            assert_eq!(dot(&a, &b), dot_portable(&a, &b), "n={n}");
        }
    }

    #[test]
    fn dot_is_lane_order_not_sequential() {
        // Sanity that the documented order is what is implemented: compute
        // the lane-strided sum by hand for an awkward length.
        let n = 13;
        let a = vals(n, 0.31, 5.0);
        let b = vals(n, 0.17, 2.0);
        let mut acc = [0.0f32; LANES];
        for i in 0..n {
            acc[i % LANES] += a[i] * b[i];
        }
        let want =
            ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
        assert_eq!(dot(&a, &b), want);
    }

    #[test]
    fn matvec_strided_ignores_padding() {
        // A 3×5 matrix stored at stride 8 with NaN padding must equal the
        // dense layout: the kernel may never read past `cols`.
        let rows = 3;
        let cols = 5;
        let dense = vals(rows * cols, 0.21, 7.0);
        let mut padded = vec![f32::NAN; rows * LANES];
        for r in 0..rows {
            padded[r * LANES..r * LANES + cols].copy_from_slice(&dense[r * cols..(r + 1) * cols]);
        }
        let x = vals(cols, -0.4, 2.0);
        let mut y0 = vec![0.0; rows];
        let mut y1 = vec![0.0; rows];
        matvec(&dense, cols, rows, cols, &x, &mut y0);
        matvec(&padded, LANES, rows, cols, &x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn gemm_micro_is_bit_identical_to_matvec_per_lane() {
        for rows in [1, 2, 3, 5, 8] {
            for cols in [1, 7, 8, 17] {
                for batch in [0, 1, 2, 3, 5] {
                    let w = vals(rows * cols, 0.19, 11.0);
                    let xs = vals(batch * cols, -0.23, 6.0);
                    let mut ys = vec![0.0; batch * rows];
                    gemm_micro(&w, cols, rows, cols, &xs, cols, batch, &mut ys);
                    for b in 0..batch {
                        let mut y = vec![0.0; rows];
                        matvec(&w, cols, rows, cols, &xs[b * cols..(b + 1) * cols], &mut y);
                        assert_eq!(
                            &ys[b * rows..(b + 1) * rows],
                            &y[..],
                            "rows={rows} cols={cols} batch={batch} lane={b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn micro_kernel_cells_match_single_dot_bitwise() {
        // Blocked kernels must not change per-cell bits vs `dot` — on every
        // instruction set, through shapes that hit each block size.
        for cols in [1, 4, 8, 9, 24, 64, 65] {
            for rows in [1, 2, 4, 5] {
                let w = vals(rows * cols, 0.23, 9.0);
                let xs = [vals(cols, -0.11, 4.0), vals(cols, 0.37, 1.0)].concat();
                let mut ys = vec![0.0; 2 * rows];
                gemm_micro(&w, cols, rows, cols, &xs, cols, 2, &mut ys);
                for (cell, &y) in ys.iter().enumerate() {
                    let (b, r) = (cell / rows, cell % rows);
                    let want = dot(&w[r * cols..(r + 1) * cols], &xs[b * cols..(b + 1) * cols]);
                    assert_eq!(y, want, "rows={rows} cols={cols} lane={b} row={r}");
                }
            }
        }
    }

    #[test]
    fn axpy_matches_naive_bitwise() {
        for n in [0, 1, 7, 8, 9, 33] {
            let x = vals(n, 0.11, 4.0);
            let mut y0 = vals(n, 0.05, 1.0);
            let mut y1 = y0.clone();
            axpy(1.7, &x, &mut y0);
            for (yi, &xi) in y1.iter_mut().zip(&x) {
                *yi += 1.7 * xi;
            }
            assert_eq!(y0, y1, "n={n}");
        }
    }

    #[test]
    fn empty_shapes_are_noops() {
        let mut y: Vec<f32> = vec![];
        matvec(&[], 0, 0, 0, &[], &mut y);
        gemm_micro(&[], 0, 0, 0, &[], 0, 0, &mut y);
        assert_eq!(dot(&[], &[]), 0.0);
        // rows with zero cols
        let mut y = vec![1.0; 3];
        matvec(&[], 0, 3, 0, &[], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }

    /// The module doc's error table, on a bit-pattern stride and a dense
    /// sweep of the range the LSTM gates live in.
    #[test]
    fn nonlinearities_stay_within_the_stated_error() {
        let strided = (0..=u32::MAX / 32_771).map(|i| f32::from_bits(i * 32_771));
        let dense = (0..=100_000).map(|i| -20.0 + i as f32 * 4e-4);
        let mut worst = [0.0f64; 5];
        for x in strided.chain(dense).filter(|x| x.is_finite()) {
            let xd = f64::from(x);
            if (EXP_LO..=EXP_HI).contains(&x) {
                let r = xd.exp();
                worst[0] = worst[0].max(((f64::from(exp(x)) - r) / r).abs());
            }
            let r = 1.0 / (1.0 + (-xd).exp());
            let e = (f64::from(sigmoid(x)) - r).abs();
            worst[1] = worst[1].max(e);
            if x >= -87.0 {
                worst[2] = worst[2].max(e / r);
            }
            let r = xd.tanh();
            let e = (f64::from(tanh(x)) - r).abs();
            worst[3] = worst[3].max(e);
            if x.is_normal() {
                worst[4] = worst[4].max(e / r.abs());
            }
        }
        let bounds = [1e-7, 1e-7, 2e-7, 1e-7, 2e-7];
        for (k, (w, b)) in worst.iter().zip(bounds).enumerate() {
            assert!(
                w <= &b,
                "bound {k}: worst {w:e} > {b:e} (exp rel, sigmoid abs/rel, tanh abs/rel)"
            );
        }
    }

    #[test]
    fn nonlinearities_follow_the_documented_edge_rules() {
        let nan_bits = f32::NAN.to_bits();
        for nan in [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFC1_2345),
        ] {
            for act in Activation::ALL {
                assert_eq!(act.of(nan).to_bits(), nan_bits, "{act:?}({nan:?})");
            }
        }
        assert_eq!(exp(f32::INFINITY), exp(EXP_HI));
        assert_eq!(exp(f32::NEG_INFINITY), exp(EXP_LO));
        assert!(exp(EXP_HI).is_finite() && exp(EXP_HI) > 2.4e38);
        assert!(exp(EXP_LO) > 1.1e-38);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert!(sigmoid(f32::NEG_INFINITY) > 0.0 && sigmoid(f32::NEG_INFINITY) < 1e-38);
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        let tiny = f32::from_bits(1);
        assert_eq!(tanh(tiny), tiny);
        // exactly odd, on both sides of the branch split
        for x in [1e-3f32, 0.3, 0.624_999_9, TANH_SPLIT, 0.7, 3.0, 9.5, 40.0] {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x={x}");
        }
    }

    /// Every instruction set the CPU has computes the portable bits, for
    /// the edge values the module doc specifies and a bit-pattern sweep;
    /// the vector bodies must also survive vectors mixing the two `tanh`
    /// branches and NaN with ordinary lanes.
    #[test]
    fn instruction_sets_match_the_portable_nonlinearities() {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xFFC0_0001),
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            EXP_HI,
            EXP_LO,
            TANH_SPLIT,
            -TANH_SPLIT,
            0.624_999_9,
        ];
        for e in [EXP_HI, EXP_LO, -EXP_HI, -EXP_LO, TANH_SPLIT] {
            xs.extend([
                f32::from_bits(e.to_bits() - 1),
                f32::from_bits(e.to_bits() + 1),
            ]);
        }
        xs.extend((0..=u32::MAX / 65_537).map(|i| f32::from_bits(i.wrapping_mul(65_537 * 7))));
        xs.extend((0..4000).map(|i| (i as f32 - 2000.0) * 0.013));
        for act in Activation::ALL {
            let want: Vec<u32> = xs.iter().map(|&x| act.of(x).to_bits()).collect();
            let mut got = xs.clone();
            act.apply(&mut got);
            assert_eq!(bits(&got), want, "dispatched {act:?}");
            #[cfg(target_arch = "x86_64")]
            {
                let mut got = xs.clone();
                Sse2.apply(act, &mut got);
                assert_eq!(bits(&got), want, "SSE2 {act:?}");
                match Avx2::detect() {
                    Some(avx2) => {
                        let mut got = xs.clone();
                        avx2.apply(act, &mut got);
                        assert_eq!(bits(&got), want, "AVX2 {act:?}");
                    }
                    None => eprintln!("note: CPU has no AVX2; AVX2 {act:?} not checked"),
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lstm_cell_is_bit_identical_on_every_instruction_set() {
        for hidden in [1, 3, 4, 8, 12, 64, 67] {
            let z = vals(4 * hidden, 0.37, (2 * hidden) as f32);
            let bias = vals(4 * hidden, -0.05, 7.0);
            let c0 = vals(hidden, 0.21, 3.0);
            let (mut c_want, mut h_want) = (c0.clone(), vec![0.0; hidden]);
            lstm_cell_with::<f32, _>(&z, &bias, &mut c_want, &mut h_want[..]);
            let check = |name: &str, run: &dyn Fn(&mut [f32], &mut [f32])| {
                let (mut c, mut h) = (c0.clone(), vec![f32::NAN; hidden]);
                run(&mut c, &mut h);
                assert_eq!(bits(&c), bits(&c_want), "{name} c hidden={hidden}");
                assert_eq!(bits(&h), bits(&h_want), "{name} h hidden={hidden}");
            };
            check("dispatched", &|c, h| lstm_cell(&z, &bias, c, h));
            #[cfg(target_arch = "x86_64")]
            {
                check("SSE2", &|c, h| Sse2.lstm_cell(&z, &bias, c, h));
                if let Some(avx2) = Avx2::detect() {
                    check("AVX2", &|c, h| avx2.lstm_cell(&z, &bias, c, h));
                }
            }
        }
    }
}
