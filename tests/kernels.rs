//! Property tests for the vectorized kernel layer (`nn::ops::kernels`)
//! and the packed-weight representations (`nn::pack`).
//!
//! The serving stack's byte-identity guarantees (batched-vs-scalar,
//! shard-invariance, ingest-vs-sync) all reduce to three kernel-level
//! invariants, each verified here over adversarial shapes — rows/cols/
//! batch that are not multiples of the 8-lane width, 1×1 matrices, empty
//! batches:
//!
//! 1. packed weights produce **exactly** the bits of the unpacked
//!    row-major path (padding is never read);
//! 2. the packed batched product (`gemm_micro`) is bit-identical, lane by
//!    lane, to the dense `matvec` under the shared fixed reduction order;
//! 3. `matvec` / `matvec_t_acc` remain numerically adjoint
//!    (`⟨Wx, g⟩ ≈ ⟨x, Wᵀg⟩`), which is what keeps training gradients
//!    honest on top of the vectorized forward kernels.
//!
//! And every instruction set computes the portable definition's bits: the
//! SSE2 and AVX2 mat-vecs equal `dot_portable` cell by cell, and the owned
//! `exp` / `sigmoid` / `tanh` equal their portable definitions over
//! arbitrary `f32` bit patterns. Each implementation is called directly;
//! the AVX2 arms are skipped, with a note, on a CPU without AVX2.
//!
//! The serving gate is integer (`kernels::gemm_i8`, `PackedLstmI8`): the
//! AVX2 and AVX-VNNI integer mat-vecs equal the portable `i32` loop, the
//! hidden quantiser equals its definition on every instruction set, and
//! the batched integer step equals the scalar one lane by lane.
//! `integer_paths_checked_are_reported` prints which integer paths this
//! CPU exercised (run with `--show-output` to see it).

use nn::ops::kernels::Activation;
use nn::ops::{self, kernels};
use nn::{
    GruCell, GruScratch, Linear, LstmCell, LstmScratch, LstmState, PackedGru, PackedI8,
    PackedLinear, PackedLstm, PackedLstmI8, PackedWeights,
};
use proptest::prelude::*;

/// Deterministic value stream from a seed (xorshift): wide enough to
/// exercise cancellation and rounding, always finite.
fn values(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
        })
        .collect()
}

/// `dot_portable` per cell: the definition every mat-vec path must match.
#[allow(clippy::too_many_arguments)]
fn gemm_by_definition(
    w: &[f32],
    w_stride: usize,
    rows: usize,
    cols: usize,
    xs: &[f32],
    x_stride: usize,
    batch: usize,
) -> Vec<f32> {
    let mut ys = Vec::with_capacity(batch * rows);
    for b in 0..batch {
        let x = &xs[b * x_stride..b * x_stride + cols];
        ys.extend(
            (0..rows).map(|r| kernels::dot_portable(&w[r * w_stride..r * w_stride + cols], x)),
        );
    }
    ys
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Packed (row-padded) weights are bit-identical to the dense layout
    /// for the scalar product, across awkward shapes including 1×1.
    #[test]
    fn packed_matvec_is_bit_identical_to_unpacked(
        rows in 1usize..24,
        cols in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let w = values(rows * cols, seed);
        let x = values(cols, seed ^ 0xABCD);
        let packed = PackedWeights::pack(&w, rows, cols);
        prop_assert_eq!(packed.rows(), rows);
        prop_assert_eq!(packed.cols(), cols);
        prop_assert_eq!(packed.stride() % kernels::LANES, 0);

        let mut y0 = vec![0.0f32; rows];
        let mut y1 = vec![0.0f32; rows];
        ops::matvec(&w, rows, cols, &x, &mut y0);
        packed.matvec(&x, &mut y1);
        prop_assert_eq!(&y0, &y1);
    }

    /// Packed `matvec_batch` (the engine's batched round kernel) is
    /// bit-identical, lane by lane, to the dense scalar `matvec` under the
    /// shared reduction order, including the empty batch — the kernel form
    /// of the batched-vs-scalar serving invariant.
    #[test]
    fn matvec_batch_is_bit_identical_per_lane(
        rows in 1usize..24,
        cols in 1usize..40,
        batch in 0usize..9,
        seed in 0u64..1_000_000,
    ) {
        let w = values(rows * cols, seed);
        let xs = values(batch * cols, seed ^ 0x5EED);
        let packed = PackedWeights::pack(&w, rows, cols);
        let mut ys = vec![0.0f32; batch * rows];
        packed.matvec_batch(&xs, batch, &mut ys);
        let mut y = vec![0.0f32; rows];
        for b in 0..batch {
            ops::matvec(&w, rows, cols, &xs[b * cols..(b + 1) * cols], &mut y);
            prop_assert!(ys[b * rows..(b + 1) * rows] == y[..], "lane {} differs", b);
        }
    }

    /// `⟨Wx, g⟩ ≈ ⟨x, Wᵀg⟩`: the forward kernel and the backward
    /// accumulation stay adjoint to f32 tolerance after vectorization.
    #[test]
    fn matvec_and_matvec_t_acc_are_adjoint(
        rows in 1usize..16,
        cols in 1usize..16,
        seed in 0u64..1_000_000,
    ) {
        let w = values(rows * cols, seed);
        let x = values(cols, seed ^ 0xF00);
        let g = values(rows, seed ^ 0xBA5);
        let mut wx = vec![0.0f32; rows];
        ops::matvec(&w, rows, cols, &x, &mut wx);
        let lhs: f64 = wx.iter().zip(&g).map(|(&a, &b)| a as f64 * b as f64).sum();
        let mut wtg = vec![0.0f32; cols];
        ops::matvec_t_acc(&w, rows, cols, &g, &mut wtg);
        let rhs: f64 = x.iter().zip(&wtg).map(|(&a, &b)| a as f64 * b as f64).sum();
        let scale = 1.0 + lhs.abs().max(rhs.abs());
        prop_assert!(
            (lhs - rhs).abs() / scale < 1e-4,
            "adjointness broken: {} vs {}", lhs, rhs
        );
    }

    /// The packed LSTM/GRU/Linear inference steps advance sessions with
    /// exactly the bits of the raw-cell forward passes, for any shape.
    #[test]
    fn packed_cells_match_raw_forward_bitwise(
        input in 1usize..12,
        hidden in 1usize..18,
        steps in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = nn::init::seeded_rng(seed);
        let x = values(input, seed ^ 0x11);

        let lstm = LstmCell::new(input, hidden, &mut rng);
        let packed = PackedLstm::of(&lstm);
        let mut expect = LstmState::zeros(hidden);
        let mut got = LstmState::zeros(hidden);
        let mut scratch = LstmScratch::default();
        for step in 0..steps {
            expect = lstm.forward(&x, &expect).0;
            packed.infer_step(&x, &mut got, &mut scratch);
            prop_assert!(got == expect, "lstm step {} differs", step);
        }

        let gru = GruCell::new(input, hidden, &mut rng);
        let pgru = PackedGru::of(&gru);
        let mut h = vec![0.0f32; hidden];
        let mut gscratch = GruScratch::default();
        for step in 0..steps {
            let (next, _) = gru.forward(&x, &h);
            let mut out = Vec::new();
            pgru.infer_step(&x, &h, &mut out, &mut gscratch);
            prop_assert!(out == next, "gru step {} differs", step);
            h = next;
        }

        let linear = Linear::new(input, hidden, &mut rng);
        let plin = PackedLinear::of(&linear);
        let mut y = vec![0.0f32; hidden];
        plin.infer(&x, &mut y);
        prop_assert_eq!(&y, &linear.forward(&x).0);
    }

    /// The gate split `(W_x x + b) + W_h h`: the training forward, the
    /// scalar step from `x` and its batched twin advance every lane to the
    /// same bits. Odd `I`/`H` exercise the 8-lane tails; the lanes start
    /// from different states.
    #[test]
    fn lstm_gate_split_steps_agree_bitwise(
        input in 1usize..21,
        hidden in 1usize..21,
        batch in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let cell = LstmCell::new(input, hidden, &mut nn::init::seeded_rng(seed));
        let packed = PackedLstm::of(&cell);
        let xs: Vec<Vec<f32>> = (0..batch as u64).map(|b| values(input, seed ^ b)).collect();
        let starts: Vec<LstmState> = (0..batch)
            .map(|b| {
                let mut s = LstmState::zeros(hidden);
                for _ in 0..b {
                    s = cell.forward(&xs[b], &s).0;
                }
                s
            })
            .collect();
        let expect: Vec<LstmState> =
            starts.iter().zip(&xs).map(|(s, x)| cell.forward(x, s).0).collect();

        let mut scratch = LstmScratch::default();
        for b in 0..batch {
            let mut from_x = starts[b].clone();
            packed.infer_step(&xs[b], &mut from_x, &mut scratch);
            prop_assert!(from_x == expect[b], "infer_step lane {}", b);
        }

        let mut xh = Vec::new();
        let mut c = Vec::new();
        for (s, x) in starts.iter().zip(&xs) {
            xh.extend_from_slice(x);
            xh.extend_from_slice(&s.h);
            c.extend_from_slice(&s.c);
        }
        let mut h = vec![f32::NAN; batch * hidden];
        let mut z = Vec::new();
        packed.infer_step_batch(batch, &xh, &mut c, &mut h, &mut z);
        for (b, e) in expect.iter().enumerate() {
            let lane = b * hidden..(b + 1) * hidden;
            prop_assert!(h[lane.clone()] == e.h[..] && c[lane] == e.c[..],
                "infer_step_batch lane {}", b);
        }
    }

    /// The integer serving step: the batched twin equals the scalar step
    /// lane by lane (lanes at different states, each reading its own
    /// input-gate row), and from the zero state — where the integer gate
    /// is exactly zero — a step is the `f32` step with `h` quantised.
    #[test]
    fn int8_steps_agree_bitwise(
        input in 1usize..21,
        hidden in 1usize..21,
        batch in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let cell = LstmCell::new(input, hidden, &mut nn::init::seeded_rng(seed));
        let packed = PackedLstm::of(&cell);
        let serving = PackedLstmI8::of(&packed);
        let gates = 4 * hidden;
        let mut table = vec![0.0f32; batch * gates];
        for (b, row) in table.chunks_exact_mut(gates).enumerate() {
            packed.input_gates(&values(input, seed ^ b as u64), row);
        }
        let row = |b: usize| &table[b * gates..(b + 1) * gates];
        let mut scratch = LstmScratch::default();

        let x0 = values(input, seed);
        let want = cell.forward(&x0, &LstmState::zeros(hidden)).0;
        let (mut c, mut h) = (vec![0.0f32; hidden], vec![0i8; hidden]);
        serving.step(row(0), &mut c, &mut h, &mut scratch);
        let want_h: Vec<i8> = want.h.iter().map(|&v| kernels::quantize_h(v)).collect();
        prop_assert!(c == want.c && h == want_h, "first step differs from f32");

        // Lane b starts after b scalar steps.
        let mut cs = vec![0.0f32; batch * hidden];
        let mut hs = vec![0i8; batch * hidden];
        for b in 0..batch {
            let lane = b * hidden..(b + 1) * hidden;
            for _ in 0..b {
                serving.step(row(b), &mut cs[lane.clone()], &mut hs[lane.clone()], &mut scratch);
            }
        }
        let (mut c_want, mut h_want) = (cs.clone(), hs.clone());
        for b in 0..batch {
            let lane = b * hidden..(b + 1) * hidden;
            serving.step(row(b), &mut c_want[lane.clone()], &mut h_want[lane], &mut scratch);
        }
        let mut z = Vec::new();
        serving.step_batch(batch, row, &mut cs, &mut hs, &mut z);
        prop_assert!(bits(&cs) == bits(&c_want), "batched c differs");
        prop_assert_eq!(hs, h_want);
    }

    /// SSE2 and AVX2 `matvec` / `gemm_micro` equal `dot_portable` in every
    /// cell: `cols % 8 != 0`, odd `rows`, batch 0..5, padded strides (the
    /// padding is NaN, so reading it would show).
    #[test]
    fn every_gemm_path_equals_dot_portable(
        rows in 1usize..19,
        cols in 1usize..42,
        (batch, w_pad, x_pad) in (0usize..6, 0usize..9, 0usize..5),
        seed in 0u64..1_000_000,
    ) {
        let (w_stride, x_stride) = (cols + w_pad, cols + x_pad);
        let mut w = vec![f32::NAN; rows * w_stride];
        for (r, v) in values(rows * cols, seed).chunks(cols).enumerate() {
            w[r * w_stride..r * w_stride + cols].copy_from_slice(v);
        }
        let mut xs = vec![f32::NAN; batch.max(1) * x_stride];
        for (b, v) in values(batch.max(1) * cols, seed ^ 0x77).chunks(cols).enumerate() {
            xs[b * x_stride..b * x_stride + cols].copy_from_slice(v);
        }
        let want = gemm_by_definition(&w, w_stride, rows, cols, &xs, x_stride, batch);
        let want_mv = gemm_by_definition(&w, w_stride, rows, cols, &xs, x_stride, 1);
        let x = &xs[..cols];
        let mut ys = vec![f32::NAN; batch * rows];
        let mut y = vec![f32::NAN; rows];
        kernels::gemm_micro(&w, w_stride, rows, cols, &xs, x_stride, batch, &mut ys);
        kernels::matvec(&w, w_stride, rows, cols, x, &mut y);
        prop_assert!(bits(&ys) == bits(&want), "dispatched gemm_micro differs");
        prop_assert!(bits(&y) == bits(&want_mv), "dispatched matvec differs");

        #[cfg(target_arch = "x86_64")]
        {
            ys.fill(f32::NAN);
            y.fill(f32::NAN);
            kernels::Sse2.gemm_micro(&w, w_stride, rows, cols, &xs, x_stride, batch, &mut ys);
            kernels::Sse2.matvec(&w, w_stride, rows, cols, x, &mut y);
            prop_assert!(bits(&ys) == bits(&want), "SSE2 gemm_micro differs");
            prop_assert!(bits(&y) == bits(&want_mv), "SSE2 matvec differs");
            if let Some(avx2) = kernels::Avx2::detect() {
                ys.fill(f32::NAN);
                y.fill(f32::NAN);
                avx2.gemm_micro(&w, w_stride, rows, cols, &xs, x_stride, batch, &mut ys);
                avx2.matvec(&w, w_stride, rows, cols, x, &mut y);
                prop_assert!(bits(&ys) == bits(&want), "AVX2 gemm_micro differs");
                prop_assert!(bits(&y) == bits(&want_mv), "AVX2 matvec differs");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The owned non-linearities: SSE2 and AVX2 equal the portable
    /// definition bit for bit on arbitrary `f32` bit patterns (NaNs of any
    /// payload, infinities, subnormals and both saturation edges included),
    /// in vectors that mix them with ordinary lanes.
    #[test]
    fn nonlinearities_are_bit_identical_on_every_instruction_set(
        raw in collection::vec(0u32..u32::MAX, 1..40),
        near in collection::vec(-30.0f32..30.0, 0..24),
    ) {
        let mut xs: Vec<f32> = raw.into_iter().map(f32::from_bits).collect();
        xs.extend(near);
        for act in Activation::ALL {
            let want: Vec<u32> = xs.iter().map(|&x| act.of(x).to_bits()).collect();
            let mut got = xs.clone();
            act.apply(&mut got);
            prop_assert!(bits(&got) == want, "dispatched {:?} differs", act);
            #[cfg(target_arch = "x86_64")]
            {
                let mut got = xs.clone();
                kernels::Sse2.apply(act, &mut got);
                prop_assert!(bits(&got) == want, "SSE2 {:?} differs", act);
                if let Some(avx2) = kernels::Avx2::detect() {
                    let mut got = xs.clone();
                    avx2.apply(act, &mut got);
                    prop_assert!(bits(&got) == want, "AVX2 {:?} differs", act);
                }
            }
        }
    }
}

/// Codes for an integer-kernel case: uniform in `[−127, 127]`; with
/// `extreme`, half of them pinned to +127 and −127.
fn codes(n: usize, seed: u64, extreme: bool) -> Vec<i8> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match (extreme, i % 4) {
                (true, 0) => 127,
                (true, 1) => -127,
                _ => (((s >> 32) % 255) as i32 - 127) as i8,
            }
        })
        .collect()
}

/// The integer gate mat-vec by the definition, from row-major codes, in
/// `i64` (so the test would see an `i32` overflow rather than share it).
fn gemm_i8_by_definition(
    q: &[i8],
    m: &PackedI8,
    hs: &[i8],
    h_stride: usize,
    batch: usize,
) -> Vec<f32> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut zs = Vec::with_capacity(batch * rows);
    for b in 0..batch {
        let h = &hs[b * h_stride..b * h_stride + cols];
        zs.extend((0..rows).map(|r| {
            let row = &q[r * cols..(r + 1) * cols];
            let acc: i64 = row
                .iter()
                .zip(h)
                .map(|(&q, &x)| i64::from(q) * i64::from(x))
                .sum();
            i32::try_from(acc).expect("i32 sum") as f32 * m.factor(r)
        }));
    }
    zs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every integer mat-vec path — the portable `i32` loop, the
    /// dispatched entry, AVX2 `vpmaddwd` and AVX-VNNI `vpdpbusd` — equals
    /// the definition in every cell: `H` over the tails of the 16- and
    /// 32-code blocks, batch 0..5, ±127 extremes (the VNNI offset's worst
    /// case), an all-zero row, padded lane strides.
    #[test]
    fn every_integer_gate_path_equals_the_definition(
        hidden_ix in 0usize..8,
        batch in 0usize..6,
        h_pad in 0usize..5,
        extreme in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let hidden = [1, 3, 12, 16, 31, 64, 67, 128][hidden_ix];
        let (rows, cols) = (4 * hidden, hidden);
        let mut q = codes(rows * cols, seed, extreme == 1);
        let zero_row = seed as usize % rows;
        q[zero_row * cols..(zero_row + 1) * cols].fill(0);
        let k: Vec<f32> = values(rows, seed ^ 0x51).iter().map(|v| v.abs() * 1e-3).collect();
        let m = PackedI8::from_codes(&q, k, rows, cols);
        for (r, row) in q.chunks_exact(cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                prop_assert!(m.code(r, c) == v, "layout lost code ({}, {})", r, c);
            }
        }
        let h_stride = cols + h_pad;
        let hs = codes(batch.max(1) * h_stride, seed ^ 0x77, extreme == 1);
        let want = bits(&gemm_i8_by_definition(&q, &m, &hs, h_stride, batch));
        let mut zs = vec![f32::NAN; batch * rows];
        kernels::gemm_i8_portable(m.view(), &hs, h_stride, batch, &mut zs);
        prop_assert!(bits(&zs) == want, "portable gemm_i8 differs");
        zs.fill(f32::NAN);
        kernels::gemm_i8(m.view(), &hs, h_stride, batch, &mut zs);
        prop_assert!(bits(&zs) == want, "dispatched gemm_i8 differs");
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(avx2) = kernels::Avx2::detect() {
                zs.fill(f32::NAN);
                avx2.gemm_i8(m.view(), &hs, h_stride, batch, &mut zs);
                prop_assert!(bits(&zs) == want, "AVX2 gemm_i8 differs");
            }
            if let Some(vnni) = kernels::AvxVnni::detect() {
                zs.fill(f32::NAN);
                vnni.gemm_i8(m.view(), &hs, h_stride, batch, &mut zs);
                prop_assert!(bits(&zs) == want, "AVX-VNNI gemm_i8 differs");
            }
        }
    }

    /// Quantising a trained-style matrix: codes stay in `[−127, 127]`,
    /// each non-zero row reaches ±127 at its largest weight, an all-zero
    /// row gets codes 0 and factor 0, and dequantising is within half a
    /// step of the weight.
    #[test]
    fn row_quantisation_follows_its_definition(
        rows in 1usize..12,
        cols in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let mut w = values(rows * cols, seed);
        w[..cols].fill(0.0);
        let m = PackedI8::quantize(&w, rows, cols);
        let m = &m;
        let codes = |r: usize| (0..cols).map(move |c| m.code(r, c));
        prop_assert!(codes(0).all(|q| q == 0) && m.factor(0) == 0.0);
        for r in 1..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let s = row.iter().fold(0.0f32, |a, v| a.max(v.abs())) / 127.0;
            prop_assert_eq!(m.factor(r), s / 127.0);
            prop_assert!(codes(r).any(|q| q.abs() == 127));
            for (q, &v) in codes(r).zip(row) {
                prop_assert!(q != i8::MIN);
                prop_assert!((f32::from(q) * s - v).abs() <= s * 0.5 + 1e-6,
                    "row {} code {} for {}", r, q, v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The hidden quantiser on arbitrary `f32` bit patterns (NaNs of any
    /// payload, ±∞, subnormals, values past ±1 and exact half-steps): the
    /// definition's rules, and the same codes from the dispatched entry
    /// and from SSE2 and AVX2 directly.
    #[test]
    fn hidden_quantiser_is_identical_on_every_instruction_set(
        raw in collection::vec(0u32..u32::MAX, 1..40),
        steps in collection::vec(-300i32..300, 0..24),
    ) {
        let mut xs: Vec<f32> = raw.into_iter().map(f32::from_bits).collect();
        xs.extend([f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0]);
        // k/254 lands on (or rounds next to) a half-step of the 1/127 grid.
        xs.extend(steps.iter().map(|&k| k as f32 / 254.0));
        let want: Vec<i8> = xs.iter().map(|&x| kernels::quantize_h(x)).collect();
        for (&x, &q) in xs.iter().zip(&want) {
            let expect = if x.is_nan() {
                0
            } else {
                (x * 127.0).round_ties_even().clamp(-127.0, 127.0) as i8
            };
            prop_assert!(q == expect, "quantize_h({:?}) = {}, want {}", x, q, expect);
        }
        let mut got = vec![0i8; xs.len()];
        kernels::quantize(&xs, &mut got);
        prop_assert!(got == want, "dispatched quantize differs");
        #[cfg(target_arch = "x86_64")]
        {
            got.fill(0);
            kernels::Sse2.quantize(&xs, &mut got);
            prop_assert!(got == want, "SSE2 quantize differs");
            if let Some(avx2) = kernels::Avx2::detect() {
                got.fill(0);
                avx2.quantize(&xs, &mut got);
                prop_assert!(got == want, "AVX2 quantize differs");
            }
        }
    }
}

/// The quantising cell update equals the `f32` one followed by the
/// quantiser, on every instruction set, with pre-activations wide enough
/// to saturate the gates.
#[test]
fn quantising_cell_update_equals_cell_then_quantiser() {
    for hidden in [1, 3, 4, 8, 12, 64, 67] {
        let z: Vec<f32> = values(4 * hidden, hidden as u64)
            .iter()
            .map(|v| v * 3.0)
            .collect();
        let bias = values(4 * hidden, 7 + hidden as u64);
        let c0 = values(hidden, 9 + hidden as u64);
        let (mut c_want, mut h_f32) = (c0.clone(), vec![0.0; hidden]);
        kernels::lstm_cell(&z, &bias, &mut c_want, &mut h_f32);
        let h_want: Vec<i8> = h_f32.iter().map(|&v| kernels::quantize_h(v)).collect();
        let check = |name: &str, run: &dyn Fn(&mut [f32], &mut [i8])| {
            let (mut c, mut h) = (c0.clone(), vec![i8::MIN; hidden]);
            run(&mut c, &mut h);
            assert_eq!(bits(&c), bits(&c_want), "{name} c hidden={hidden}");
            assert_eq!(h, h_want, "{name} h hidden={hidden}");
        };
        check("dispatched", &|c, h| kernels::lstm_cell_q(&z, &bias, c, h));
        #[cfg(target_arch = "x86_64")]
        {
            check("SSE2", &|c, h| kernels::Sse2.lstm_cell_q(&z, &bias, c, h));
            if let Some(avx2) = kernels::Avx2::detect() {
                check("AVX2", &|c, h| avx2.lstm_cell_q(&z, &bias, c, h));
            }
        }
    }
}

#[test]
fn avx2_availability_is_reported() {
    #[cfg(target_arch = "x86_64")]
    if kernels::Avx2::detect().is_none() {
        eprintln!("note: this CPU has no AVX2; the AVX2 arms of tests/kernels.rs were skipped");
    }
}

/// Names the integer gate paths this run checked against the portable
/// definition and the ones the CPU could not run, so a skipped path shows
/// in a CI log (`cargo test --test kernels -- --show-output`).
#[test]
fn integer_paths_checked_are_reported() {
    let mut checked = vec!["portable"];
    let mut skipped: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("AVX2", kernels::Avx2::detect().is_some()),
            ("AVX-VNNI", kernels::AvxVnni::detect().is_some()),
        ] {
            if present {
                checked.push(name);
            } else {
                skipped.push(name);
            }
        }
    }
    println!(
        "integer gate paths checked: {}; not available on this CPU: {}; \
         AVX-512 VNNI: no kernel (the AVX-VNNI path serves those CPUs)",
        checked.join(", "),
        if skipped.is_empty() {
            "none".to_string()
        } else {
            skipped.join(", ")
        },
    );
}

#[test]
fn empty_batch_and_tiny_shapes_are_safe() {
    let p = PackedWeights::pack(&[2.5], 1, 1);
    let mut y = vec![0.0f32];
    p.matvec(&[4.0], &mut y);
    assert_eq!(y[0], 10.0);
    let mut ys: Vec<f32> = vec![];
    p.matvec_batch(&[], 0, &mut ys);
    assert!(ys.is_empty());

    // zero-row matrix
    let p0 = PackedWeights::pack(&[], 0, 3);
    let mut none: Vec<f32> = vec![];
    p0.matvec(&[1.0, 2.0, 3.0], &mut none);
    assert!(none.is_empty());
}

/// The kernel dispatch (SSE2 on x86_64) must equal the portable
/// order-defining implementation bit-for-bit at every alignment and tail
/// length — this is the test that pins the documented reduction order to
/// what actually executes.
#[test]
fn dispatched_dot_equals_portable_definition() {
    for n in 0..200 {
        let a = values(n, n as u64 * 7 + 1);
        let b = values(n, n as u64 * 13 + 5);
        assert_eq!(kernels::dot(&a, &b), kernels::dot_portable(&a, &b), "n={n}");
    }
}
