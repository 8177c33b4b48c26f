//! Probes of single layers that do not depend on the workload: the `nn`
//! kernels at the serving model's own shapes, and the wire codec on the
//! workload's own frames. Run at the end of every traced run.

use crate::inputs::{Fixture, Inputs, Op};
use crate::metrics::Readings;
use crate::transport::request_frame;
use bytes::BytesMut;
use nn::ops::kernels;
use nn::{LstmScratch, LstmState};
use serve::proto::{encode_frame, Frame, FrameReader};
use std::hint::black_box;
use std::time::Instant;

/// Lanes of the batched probes: a full `engine_fleet` round is thousands
/// of lanes, 256 is past where the per-lane cost has flattened.
const BATCH: usize = 256;

/// Times `f` and returns the median ns per call over several bursts of
/// `burst_ms` each; the median shrugs off a burst the host interrupted.
fn ns_per_call(burst_ms: u64, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    let per_burst = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let took = t.elapsed();
        if took.as_millis() as u64 >= burst_ms / 4 {
            break ((iters as f64 * burst_ms as f64 / 1e3 / took.as_secs_f64()) as u64).max(1);
        }
        iters *= 4;
    };
    let mut bursts: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_burst {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_burst as f64
        })
        .collect();
    crate::stats::percentile(&mut bursts, 0.5)
}

fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = crate::schedule::SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_f64() as f32 - 0.5) * 0.4)
        .collect()
}

/// `nn.*`: the LSTM gate mat-vec and the whole LSTM step, at batch 1 (what
/// `engine_single` runs per point) and at [`BATCH`] lanes (what a batched
/// `engine_fleet` round runs), on the trained model's packed weights.
pub fn nn_readings(fx: &Fixture, readings: &mut Readings) {
    let lstm = &fx.model.packed().lstm;
    let (input, hidden) = (lstm.input_dim(), lstm.hidden_dim());
    let (rows, cols) = (4 * hidden, input + hidden);
    let stride = cols.div_ceil(kernels::LANES) * kernels::LANES;
    let burst_ms = 40;

    // The gate matrix alone: same shape and padded layout as the model's,
    // synthetic values (the packed weights themselves are private).
    let w = fill(rows * stride, 1);
    let x = fill(cols, 2);
    let mut y = vec![0.0f32; rows];
    let matvec_ns = ns_per_call(burst_ms, || {
        kernels::matvec(black_box(&w), stride, rows, cols, black_box(&x), &mut y);
        black_box(&y);
    });
    let xs = fill(BATCH * cols, 3);
    let mut ys = vec![0.0f32; BATCH * rows];
    let gemm_ns = ns_per_call(burst_ms, || {
        kernels::gemm_micro(
            black_box(&w),
            stride,
            rows,
            cols,
            black_box(&xs),
            cols,
            BATCH,
            &mut ys,
        );
        black_box(&ys);
    });

    let x_in = fill(input, 4);
    let mut state = LstmState::zeros(hidden);
    let mut scratch = LstmScratch::default();
    let step_ns = ns_per_call(burst_ms, || {
        lstm.infer_step(black_box(&x_in), &mut state, &mut scratch);
        black_box(&state);
    });
    let xh = fill(BATCH * cols, 5);
    let mut c = vec![0.0f32; BATCH * hidden];
    let mut h = vec![0.0f32; BATCH * hidden];
    let mut z = Vec::new();
    let step_batch_ns = ns_per_call(burst_ms, || {
        lstm.infer_step_batch(BATCH, black_box(&xh), &mut c, &mut h, &mut z);
        black_box(&h);
    });

    readings.set("nn.gate_matvec_ns", matvec_ns);
    readings.set("nn.lstm_step_ns", step_ns);
    readings.set("nn.gate_gemm_ns_per_lane", gemm_ns / BATCH as f64);
    readings.set(
        "nn.lstm_step_batch_ns_per_lane",
        step_batch_ns / BATCH as f64,
    );
    readings.set("nn.gflops", (2 * rows * cols) as f64 / matvec_ns);
}

/// `proto.*`: encode and decode cost per frame, and wire bytes per point
/// in both directions, on the first few thousand frames of the workload's
/// own script (`Submit` up, `Label` down).
pub fn proto_readings(inputs: &Inputs, readings: &mut Readings) {
    let points: Vec<Op> = inputs
        .script()
        .into_iter()
        .filter(|op| matches!(op, Op::Point(..)))
        .take(4096)
        .collect();
    if points.is_empty() {
        return;
    }
    let up: Vec<Frame> = points
        .iter()
        .map(|&op| request_frame(&inputs.sessions, op, 0))
        .collect();
    let down: Vec<Frame> = points
        .iter()
        .map(|&op| match op {
            Op::Point(id, _) => Frame::Label {
                session: u64::from(id),
                label: 0,
            },
            _ => unreachable!(),
        })
        .collect();

    let mut buf = BytesMut::new();
    let encode_ns = ns_per_call(20, || {
        // The vendored `BytesMut` has no `clear`; one allocation per
        // 8192 frames does not show.
        buf = BytesMut::with_capacity(buf.len());
        for frame in up.iter().chain(&down) {
            encode_frame(black_box(frame), &mut buf);
        }
        black_box(&buf);
    });
    let bytes = buf.to_vec();
    let decode_ns = ns_per_call(20, || {
        let mut reader = FrameReader::new();
        reader.push(black_box(&bytes));
        let mut n = 0usize;
        while let Ok(Some(frame)) = reader.next() {
            black_box(frame);
            n += 1;
        }
        assert_eq!(n, up.len() + down.len());
    });
    let frames = (up.len() + down.len()) as f64;
    readings.set("proto.encode_ns_per_frame", encode_ns / frames);
    readings.set("proto.decode_ns_per_frame", decode_ns / frames);
    readings.set(
        "proto.bytes_per_point",
        bytes.len() as f64 / points.len() as f64,
    );
}
