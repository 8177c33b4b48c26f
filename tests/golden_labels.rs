//! The numerics epoch pinned across hosts: a fixed tiny fixture is
//! trained and replayed, and its labels must reproduce
//! `tests/golden/labels_tiny.txt` byte for byte.
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

mod common;

use common::{build_city, interleaved, CityKind};
use rl4oasd_repro::prelude::*;
use std::sync::Arc;

const SEED: u64 = 3;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/labels_tiny.txt");

#[test]
fn tiny_fixture_labels_match_the_golden_file() {
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

    let trajs: Vec<&MappedTrajectory> =
        test.trajectories.iter().filter(|t| !t.is_empty()).collect();
    let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
    let rows = interleaved(&mut engine, &trajs, SEED);
    let mut detector = Rl4oasdDetector::new(&model, &net);
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
    match std::fs::read_to_string(GOLDEN) {
        Ok(golden) => assert!(
            text == golden,
            "labels drifted from tests/golden/labels_tiny.txt — a numerics change; if it is \
             deliberate, delete the file and re-run to re-record it"
        ),
        Err(_) => {
            std::fs::write(GOLDEN, &text).expect("record the golden file");
            panic!("recorded tests/golden/labels_tiny.txt; commit it and re-run");
        }
    }
}
