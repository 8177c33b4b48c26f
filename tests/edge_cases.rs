//! Edge-case and idempotence tests across crate boundaries — behaviours a
//! downstream user would hit that the per-module unit tests don't cover.

use proptest::prelude::*;
use rl4oasd_repro::prelude::*;
use rnet::{CityBuilder, CityConfig, NodeId, SegmentIndex};

fn city(seed: u64) -> RoadNetwork {
    CityBuilder::new(CityConfig::tiny(seed)).build()
}

#[test]
fn single_segment_trajectory_is_normal() {
    // A trip consisting of the source segment only: endpoints pinned, so
    // the label must be [0] for every detector kind.
    let net = city(31);
    let sim = TrafficSimulator::new(
        &net,
        TrafficConfig {
            num_sd_pairs: 2,
            trajs_per_pair: (25, 30),
            ..TrafficConfig::tiny(31)
        },
    );
    let train = Dataset::from_generated(&sim.generate());
    let model = rl4oasd::train(&net, &train, &Rl4oasdConfig::tiny(31));
    let mut det = Rl4oasdDetector::new(&model, &net);
    let seg = train.trajectories[0].segments[0];
    let t = MappedTrajectory {
        id: traj::TrajectoryId(0),
        segments: vec![seg],
        start_time: 0.0,
    };
    assert_eq!(det.label_trajectory(&t), vec![0]);
}

#[test]
fn detector_handles_unseen_sd_pair() {
    // A trip between segments never seen together in training must not
    // panic; the NRF falls back to "anomalous" for unknown transitions.
    let net = city(32);
    let sim = TrafficSimulator::new(
        &net,
        TrafficConfig {
            num_sd_pairs: 2,
            trajs_per_pair: (25, 30),
            ..TrafficConfig::tiny(32)
        },
    );
    let train = Dataset::from_generated(&sim.generate());
    let model = rl4oasd::train(&net, &train, &Rl4oasdConfig::tiny(32));
    let mut det = Rl4oasdDetector::new(&model, &net);
    // fabricate a connected path that is not a trained SD pair
    let start = SegmentId(0);
    let mut segments = vec![start];
    let mut cur = start;
    for _ in 0..6 {
        let succ = net.successors(cur);
        cur = succ[0];
        segments.push(cur);
    }
    let t = MappedTrajectory {
        id: traj::TrajectoryId(0),
        segments,
        start_time: 7.5 * 3600.0,
    };
    let labels = det.label_trajectory(&t);
    assert_eq!(labels.len(), t.len());
    assert_eq!(labels[0], 0);
    assert_eq!(*labels.last().unwrap(), 0);
}

#[test]
fn online_learner_is_cumulative() {
    // Fine-tuning twice on the same data must not degrade below a single
    // fine-tune catastrophically (sanity on optimizer statefulness).
    let net = city(33);
    let sim = TrafficSimulator::new(
        &net,
        TrafficConfig {
            num_sd_pairs: 3,
            trajs_per_pair: (50, 60),
            anomaly_ratio: 0.1,
            ..TrafficConfig::tiny(33)
        },
    );
    let generated = sim.generate();
    let train = Dataset::from_generated(&generated);
    let model = rl4oasd::train(&net, &train, &Rl4oasdConfig::tiny(33));
    let mut learner = rl4oasd::OnlineLearner::new(model);
    let f1_of = |m: &TrainedModel| {
        let mut det = Rl4oasdDetector::new(m, &net);
        let outputs: Vec<Vec<u8>> = train
            .trajectories
            .iter()
            .map(|t| det.label_trajectory(t))
            .collect();
        let truths: Vec<Vec<u8>> = train
            .trajectories
            .iter()
            .map(|t| train.truth(t.id).unwrap().to_vec())
            .collect();
        evaluate(&outputs, &truths).f1
    };
    // Each fine-tune re-creates the optimizer state it needs (a trained
    // model carries none) and releases it again when done.
    assert!(!has_optimizer_state(&learner.model));
    learner.fine_tune(&net, &train);
    assert!(!has_optimizer_state(&learner.model));
    let after_one = f1_of(&learner.model);
    learner.fine_tune(&net, &train);
    assert!(!has_optimizer_state(&learner.model));
    let after_two = f1_of(&learner.model);
    assert!(
        after_two > after_one - 0.25,
        "second fine-tune collapsed: {after_one} -> {after_two}"
    );
}

/// Whether any parameter of the model's two networks holds a gradient or
/// Adam moments.
fn has_optimizer_state(model: &TrainedModel) -> bool {
    let mut m = model.clone();
    m.rsrnet
        .params_mut()
        .into_iter()
        .chain(m.asdnet.params_mut())
        .any(|p| p.has_optimizer_state())
}

/// A tiny city, a model trained on it and a corpus recorded under a
/// different traffic seed (a drifted regime for the learner).
fn model_and_drift(seed: u64) -> (RoadNetwork, TrainedModel, Dataset) {
    let net = city(seed);
    let corpus = |s: u64| {
        let cfg = TrafficConfig {
            num_sd_pairs: 3,
            trajs_per_pair: (30, 40),
            anomaly_ratio: 0.1,
            ..TrafficConfig::tiny(s)
        };
        Dataset::from_generated(&TrafficSimulator::new(&net, cfg).generate())
    };
    let model = rl4oasd::train(&net, &corpus(seed), &Rl4oasdConfig::tiny(seed));
    let drifted = corpus(seed + 1);
    (net, model, drifted)
}

fn labels_of(model: &TrainedModel, net: &RoadNetwork, data: &Dataset) -> Vec<Vec<u8>> {
    let mut det = Rl4oasdDetector::new(model, net);
    data.trajectories
        .iter()
        .map(|t| det.label_trajectory(t))
        .collect()
}

#[test]
fn fine_tuned_model_serves_its_own_weights() {
    // The learner starts from a clone of a model that is already packed,
    // as a server's live model is. The tuned model (and any clone of it)
    // must serve the tuned weights, not that packing.
    let (net, v1, drifted) = model_and_drift(35);
    let v1_row = v1.packed().policy.w.row(0).to_vec();
    let mut learner = OnlineLearner::new(v1.clone());
    learner.fine_tune(&net, &drifted);
    let tuned = nn::PackedLinear::of(&learner.model.asdnet.policy);
    assert_ne!(tuned.w.row(0), &v1_row[..], "fine-tune moved the policy");
    assert_eq!(learner.model.packed().policy.w.row(0), tuned.w.row(0));
    let snapshot = learner.model.clone();
    assert_eq!(snapshot.packed().policy.w.row(0), tuned.w.row(0));

    let json = serde_json::to_string(&learner.model).unwrap();
    let reloaded: TrainedModel = serde_json::from_str(&json).unwrap();
    assert_eq!(
        labels_of(&snapshot, &net, &drifted),
        labels_of(&reloaded, &net, &drifted),
        "served labels differ from the tuned model's"
    );
}

#[test]
fn trained_model_carries_no_optimizer_state_and_old_files_load() {
    let (net, model, drifted) = model_and_drift(36);
    assert!(!has_optimizer_state(&model));

    // A file written before the release: the same weights plus a gradient
    // and Adam moments (a zero learning rate moves the moments, not the
    // values).
    let mut legacy = model.clone();
    for p in legacy
        .rsrnet
        .params_mut()
        .into_iter()
        .chain(legacy.asdnet.params_mut())
    {
        p.zero_grad();
        for (i, g) in p.grad.iter_mut().enumerate() {
            *g = ((i % 97) as f32 - 48.0) * 1e-3 + 1e-4;
        }
        p.adam_step(0.0);
    }
    assert!(has_optimizer_state(&legacy));
    let lean_json = serde_json::to_string(&model).unwrap();
    let legacy_json = serde_json::to_string(&legacy).unwrap();
    assert!(
        3 * lean_json.len() <= legacy_json.len(),
        "lean {} B vs legacy {} B",
        lean_json.len(),
        legacy_json.len()
    );

    let loaded: TrainedModel = serde_json::from_str(&legacy_json).unwrap();
    assert_eq!(
        labels_of(&loaded, &net, &drifted),
        labels_of(&model, &net, &drifted)
    );

    // Fine-tuning restarts Adam, so the old file's moments do not leak
    // into the tuned weights.
    let tune = |m: TrainedModel| {
        let mut learner = OnlineLearner::new(m);
        learner.fine_tune(&net, &drifted);
        let m = learner.model;
        serde_json::to_string(&(m.rsrnet, m.asdnet)).unwrap()
    };
    assert_eq!(tune(loaded), tune(model));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Projection onto a polyline is never farther than to any vertex.
    #[test]
    fn projection_beats_vertices(px in -500.0f64..1500.0, py in -500.0f64..1500.0) {
        let net = city(34);
        let p = rnet::Point::new(px, py);
        for seg in net.segments().iter().take(50) {
            let (proj, _) = rnet::geo::project_onto_polyline(&p, &seg.geometry).unwrap();
            for v in &seg.geometry {
                prop_assert!(proj.distance <= p.dist(v) + 1e-9);
            }
        }
    }

    /// Spatial-index candidates always include the true nearest segment
    /// when the radius is large enough to contain it.
    #[test]
    fn index_finds_true_nearest(px in 0.0f64..700.0, py in 0.0f64..700.0) {
        let net = city(35);
        let index = SegmentIndex::build(&net, 80.0);
        let p = rnet::Point::new(px, py);
        // brute force nearest
        let mut best = (f64::INFINITY, SegmentId(0));
        for seg in net.segments() {
            let (proj, _) = rnet::geo::project_onto_polyline(&p, &seg.geometry).unwrap();
            if proj.distance < best.0 {
                best = (proj.distance, seg.id);
            }
        }
        let got = index.nearest(&net, &p, best.0 + 1.0).expect("in range");
        prop_assert!((got.distance - best.0).abs() < 1e-9);
    }

    /// Dijkstra satisfies the triangle inequality over intermediate nodes.
    #[test]
    fn dijkstra_triangle_inequality(a in 0u32..64, b in 0u32..64, c in 0u32..64) {
        let net = city(36);
        let cost = |x: u32, y: u32| {
            rnet::shortest_path(&net, NodeId(x), NodeId(y)).map(|p| p.cost)
        };
        if let (Some(ab), Some(bc), Some(ac)) = (cost(a, b), cost(b, c), cost(a, c)) {
            prop_assert!(ac <= ab + bc + 1e-6);
        }
    }

    /// Thresholded detectors are monotone: a higher threshold never flags
    /// more segments.
    #[test]
    fn threshold_monotonicity(t1 in 0.0f64..1.0, t2 in 0.0f64..1.0) {
        use baselines::{Iboat, RouteStats, Thresholded};
        use std::sync::Arc;
        let net = city(37);
        let sim = TrafficSimulator::new(&net, TrafficConfig {
            num_sd_pairs: 2,
            trajs_per_pair: (15, 20),
            ..TrafficConfig::tiny(37)
        });
        let ds = Dataset::from_generated(&sim.generate());
        let stats = Arc::new(RouteStats::fit(&ds));
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let mut d_lo = Thresholded::new(Iboat::new(Arc::clone(&stats), 0.05), lo);
        let mut d_hi = Thresholded::new(Iboat::new(Arc::clone(&stats), 0.05), hi);
        for t in ds.trajectories.iter().take(5) {
            let flags_lo: usize = d_lo.label_trajectory(t).iter().map(|&l| l as usize).sum();
            let flags_hi: usize = d_hi.label_trajectory(t).iter().map(|&l| l as usize).sum();
            prop_assert!(flags_hi <= flags_lo, "threshold {hi} flagged more than {lo}");
        }
    }

    /// F1 evaluation is invariant to the order of the corpus.
    #[test]
    fn metric_order_invariance(seed in 0u64..200) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..8)
            .map(|k| {
                let n = 4 + (k % 5);
                let o: Vec<u8> = (0..n).map(|i| ((i + k) % 3 == 0) as u8).collect();
                let t: Vec<u8> = (0..n).map(|i| ((i * 2 + k) % 4 == 0) as u8).collect();
                (o, t)
            })
            .collect();
        let m1 = evaluate(
            &pairs.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>(),
            &pairs.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>(),
        );
        pairs.shuffle(&mut rng);
        let m2 = evaluate(
            &pairs.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>(),
            &pairs.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>(),
        );
        prop_assert!((m1.f1 - m2.f1).abs() < 1e-12);
        prop_assert!((m1.tf1 - m2.tf1).abs() < 1e-12);
    }
}
