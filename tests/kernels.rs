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

use nn::ops::kernels::Activation;
use nn::ops::{self, kernels};
use nn::{
    GruCell, GruScratch, Linear, LstmCell, LstmScratch, LstmState, PackedGru, PackedLinear,
    PackedLstm, PackedWeights,
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
    /// scalar step from `x`, the serving step from the input half
    /// `input_gates(x)`, and both batched twins advance every lane to the
    /// same bits. Odd `I`/`H` exercise the 8-lane tails; the lanes start
    /// from different states and read their input halves from one table.
    #[test]
    fn lstm_gate_split_steps_agree_bitwise(
        input in 1usize..21,
        hidden in 1usize..21,
        batch in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let cell = LstmCell::new(input, hidden, &mut nn::init::seeded_rng(seed));
        let packed = PackedLstm::of(&cell);
        let gates = 4 * hidden;
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

        let mut table = vec![0.0f32; batch * gates];
        for (row, x) in table.chunks_exact_mut(gates).zip(&xs) {
            packed.input_gates(x, row);
        }
        let mut scratch = LstmScratch::default();
        for b in 0..batch {
            let mut from_x = starts[b].clone();
            packed.infer_step(&xs[b], &mut from_x, &mut scratch);
            prop_assert!(from_x == expect[b], "infer_step lane {}", b);
            let mut from_u = starts[b].clone();
            packed.infer_step_from(&table[b * gates..(b + 1) * gates], &mut from_u, &mut scratch);
            prop_assert!(from_u == expect[b], "infer_step_from lane {}", b);
        }

        let mut xh = Vec::new();
        let (mut c, mut h) = (Vec::new(), Vec::new());
        for (s, x) in starts.iter().zip(&xs) {
            xh.extend_from_slice(x);
            xh.extend_from_slice(&s.h);
            c.extend_from_slice(&s.c);
            h.extend_from_slice(&s.h);
        }
        let mut c_x = c.clone();
        let mut h_x = vec![f32::NAN; batch * hidden];
        let mut z = Vec::new();
        packed.infer_step_batch(batch, &xh, &mut c_x, &mut h_x, &mut z);
        packed.infer_step_from_batch(
            batch,
            |b| &table[b * gates..(b + 1) * gates],
            &mut c,
            &mut h,
            &mut z,
        );
        for (b, e) in expect.iter().enumerate() {
            let lane = b * hidden..(b + 1) * hidden;
            prop_assert!(h_x[lane.clone()] == e.h[..] && c_x[lane.clone()] == e.c[..],
                "infer_step_batch lane {}", b);
            prop_assert!(h[lane.clone()] == e.h[..] && c[lane] == e.c[..],
                "infer_step_from_batch lane {}", b);
        }
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

#[test]
fn avx2_availability_is_reported() {
    #[cfg(target_arch = "x86_64")]
    if kernels::Avx2::detect().is_none() {
        eprintln!("note: this CPU has no AVX2; the AVX2 arms of tests/kernels.rs were skipped");
    }
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
