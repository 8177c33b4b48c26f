//! The numerics epoch pinned across hosts: a fixed tiny fixture is
//! trained and replayed, and its labels must reproduce
//! `tests/golden/labels_tiny.txt` byte for byte. The trained weights
//! themselves are pinned too: an FNV-1a digest of every network
//! parameter's `f32` bit pattern must reproduce
//! `tests/golden/weights_tiny.txt`, so any change to the training path
//! that moves a single bit of a single weight fails here.
//!
//! Training (`LstmCell::forward`, softmax, the SGNS sigmoid) and serving
//! (the batched engine: AVX2 / SSE2 gate mat-vec, fused `lstm_cell`) run
//! only on the kernel layer's own non-linearities and fixed reduction
//! order, so the file holds on every x86_64 host whatever its libm and
//! whichever instruction set the CPU dispatches to. CI runs this test in
//! the default job (runtime dispatch) and in the `native` job
//! (`-C target-cpu=native`, compile-time AVX2); both must match the one
//! committed file.
//!
//! The shapes are chosen to leave tails on every vector path: embed 10 +
//! hidden 12 = 22 mat-vec columns (`22 % 8 = 6`), 48 gate rows, 12 hidden
//! units (one 8-wide block and a 4-unit tail).
//!
//! To re-record after a deliberate numerics change, delete the file and
//! run the test once; it writes the file and fails, so the change is seen.
//! Each golden file is re-recorded on its own.

mod common;

use common::{build_city, interleaved, CityKind};
use rl4oasd_repro::prelude::*;
use std::sync::{Arc, OnceLock};

const SEED: u64 = 3;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/labels_tiny.txt");
const WEIGHTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/weights_tiny.txt");

/// The network, the trained model and the test corpus, trained once and
/// shared by both tests.
struct Fixture {
    net: Arc<RoadNetwork>,
    model: Arc<TrainedModel>,
    test: Dataset,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(train_fixture)
}

fn train_fixture() -> Fixture {
    let net = Arc::new(build_city(CityKind::ChengduGrid, SEED));
    let sim = TrafficSimulator::new(
        &net,
        TrafficConfig {
            num_sd_pairs: 3,
            trajs_per_pair: (40, 50),
            anomaly_ratio: 0.15,
            ..TrafficConfig::tiny(SEED)
        },
    );
    let generated = sim.generate();
    let train = Dataset::from_generated(&generated);
    let test =
        Dataset::from_generated(&sim.generate_from_pairs(&generated.pairs, (10, 12), 0.4, 1));
    let config = Rl4oasdConfig {
        embed_dim: 10,
        hidden_dim: 12,
        ..Rl4oasdConfig::tiny(SEED)
    };
    let model = Arc::new(rl4oasd::train(&net, &train, &config));
    Fixture { net, model, test }
}

/// Compares `text` with the golden file at `path`, or records it (and
/// fails, so the recording is seen) when the file is missing.
fn check_golden(path: &str, text: &str, what: &str) {
    match std::fs::read_to_string(path) {
        Ok(golden) => assert!(
            text == golden,
            "{what} drifted from {path} — if the change is deliberate, delete the file and \
             re-run to re-record it"
        ),
        Err(_) => {
            std::fs::write(path, text).expect("record the golden file");
            panic!("recorded {path}; commit it and re-run");
        }
    }
}

#[test]
fn tiny_fixture_labels_match_the_golden_file() {
    let Fixture { net, model, test } = fixture();
    let trajs: Vec<&MappedTrajectory> =
        test.trajectories.iter().filter(|t| !t.is_empty()).collect();
    let mut engine = StreamEngine::new(Arc::clone(model), Arc::clone(net));
    let rows = interleaved(&mut engine, &trajs, SEED);
    let mut detector = Rl4oasdDetector::new(model, net);
    for (t, row) in trajs.iter().zip(&rows) {
        assert_eq!(
            &detector.label_trajectory(t),
            row,
            "batched replay != scalar detector"
        );
    }

    let text: String = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|&l| char::from(b'0' + l))
                .chain(['\n'])
                .collect::<String>()
        })
        .collect();
    check_golden(GOLDEN, &text, "labels");
}

/// 64-bit FNV-1a over the little-endian bit pattern of every value of
/// every RSRNet and ASDNet parameter, in `params_mut` order.
fn weights_digest(model: &TrainedModel) -> u64 {
    let mut model = model.clone();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut params = model.rsrnet.params_mut();
    params.extend(model.asdnet.params_mut());
    for p in params {
        for v in &p.value {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn tiny_fixture_weights_match_the_golden_digest() {
    let text = format!("fnv1a64 {:016x}\n", weights_digest(&fixture().model));
    check_golden(WEIGHTS, &text, "trained weights");
}

/// The serving gate's stated bound on the fixture: replaying every test
/// trip through the integer step, the int8 gate `z_r + u_r` stays within
/// `GATE_BOUND` of the `f32` gate `u_r + Σ_k W_h[r,k]·h_k` on the same
/// hidden state `h = q_h / 127` (an `f64` reference on the trained `f32`
/// weights), and within each row's analytic bound: every code is off by
/// at most half a step `s_r / 2`, so the row is off by at most
/// `Σ_k |h_k|·s_r / 2`.
#[test]
fn int8_gate_stays_within_the_stated_bound_of_the_f32_gate() {
    const GATE_BOUND: f64 = 0.01;
    let Fixture { model, test, .. } = fixture();
    let packed = model.packed();
    let wq = packed.lstm_i8.wh();
    let (input, hidden) = (
        model.rsrnet.lstm.input_dim(),
        model.rsrnet.lstm.hidden_dim(),
    );
    let gates = 4 * hidden;
    let w = &model.rsrnet.lstm.w.value;
    let wh = |r: usize| &w[r * (input + hidden) + input..(r + 1) * (input + hidden)];
    let mut z = vec![0.0f32; gates];
    let mut scratch = nn::LstmScratch::default();
    let (mut worst, mut steps) = (0.0f64, 0usize);
    for t in &test.trajectories {
        let (mut c, mut h) = (vec![0.0f32; hidden], vec![0i8; hidden]);
        for &seg in &t.segments {
            let u = packed.input_gates(seg);
            nn::ops::kernels::gemm_i8(wq.view(), &h, hidden, 1, &mut z);
            let hf: Vec<f64> = h.iter().map(|&q| f64::from(q) / 127.0).collect();
            for r in 0..gates {
                let exact: f64 = wh(r).iter().zip(&hf).map(|(&w, x)| f64::from(w) * x).sum();
                let err = (f64::from(z[r] + u[r]) - (f64::from(u[r]) + exact)).abs();
                let s = f64::from(wq.factor(r)) * 127.0;
                let analytic: f64 = hf.iter().map(|x| x.abs() * s / 2.0).sum();
                assert!(
                    err <= analytic + 1e-6 * (1.0 + exact.abs() + f64::from(u[r]).abs()),
                    "row {r}: error {err} above its analytic bound {analytic}"
                );
                worst = worst.max(err);
            }
            packed.lstm_i8.step(u, &mut c, &mut h, &mut scratch);
            steps += 1;
        }
    }
    assert!(steps > 0);
    assert!(
        worst <= GATE_BOUND,
        "worst |int8 gate - f32 gate| = {worst} over {steps} steps, bound {GATE_BOUND}"
    );
    eprintln!("worst |int8 gate - f32 gate| = {worst:.2e} over {steps} steps");
}
