//! Table experiments (paper Tables II–VI and the α/δ/D parameter study).

use crate::{City, Context, Method};
use eval::report::{f3, Table};
use eval::{evaluate, evaluate_pairs, group_of_len, DetectionMetrics, LengthGroup};
use mapmatch::{MapMatcher, MatchConfig};
use rl4oasd::ablation::{variant_config, AblationVariant, TransitionFrequencyDetector};
use rl4oasd::{train_with_dev, Rl4oasdConfig, Rl4oasdDetector};
use std::time::Instant;
use traj::{Dataset, OnlineDetector, TrafficConfig, TrafficSimulator};

/// Table II: dataset statistics for both cities.
pub fn table2(ctxs: &[&Context]) -> String {
    let mut t = Table::new([
        "Dataset",
        "# trajectories",
        "# segments",
        "# intersections",
        "# labeled routes (trajs)",
        "# anomalous routes (trajs)",
        "anomalous ratio",
        "sampling rate",
    ]);
    for ctx in ctxs {
        let train_stats = ctx.train.stats();
        let test_stats = ctx.test.stats();
        t.row([
            ctx.city.name().to_string(),
            format!(
                "{}",
                train_stats.num_trajectories + test_stats.num_trajectories
            ),
            format!("{}", ctx.net.num_segments()),
            format!("{}", ctx.net.num_nodes()),
            format!(
                "{} ({})",
                test_stats.num_routes, test_stats.num_trajectories
            ),
            format!(
                "{} ({})",
                test_stats.num_anomalous_routes, test_stats.num_anomalous_trajectories
            ),
            format!("{:.1}%", whole_corpus_ratio(ctx) * 100.0),
            "2s - 4s".to_string(),
        ]);
    }
    format!("## Table II — dataset statistics\n\n{}", t.render())
}

fn whole_corpus_ratio(ctx: &Context) -> f64 {
    // anomaly ratio over the full (train) corpus, like the paper's raw data
    let anomalous = ctx
        .generated
        .ground_truth
        .iter()
        .filter(|g| g.contains(&1))
        .count();
    anomalous as f64 / ctx.generated.ground_truth.len().max(1) as f64
}

/// Per-method metrics split by length group plus overall.
pub struct Table3Result {
    /// `(method, per-group metrics, overall metrics)`.
    pub rows: Vec<(Method, Vec<DetectionMetrics>, DetectionMetrics)>,
}

/// Table III: effectiveness comparison on one city.
pub fn table3(ctx: &Context) -> (Table3Result, String) {
    let truths = ctx.test_truths();
    let groups: Vec<LengthGroup> = ctx
        .test
        .trajectories
        .iter()
        .map(|t| group_of_len(t.len()))
        .collect();
    let mut rows = Vec::new();
    for method in Method::ALL {
        let (outputs, _, _) = ctx.run_method(method);
        let mut per_group = Vec::new();
        for g in LengthGroup::ALL {
            let m = evaluate_pairs(
                outputs
                    .iter()
                    .zip(&truths)
                    .zip(&groups)
                    .filter(|(_, gg)| **gg == g)
                    .map(|((o, t), _)| (o.as_slice(), t.as_slice())),
            );
            per_group.push(m);
        }
        let overall = evaluate(&outputs, &truths);
        rows.push((method, per_group, overall));
    }
    let mut t = Table::new(["Method", "G1", "G2", "G3", "G4", "Overall"]);
    for (method, per_group, overall) in &rows {
        let mut cells = vec![method.name().to_string()];
        for m in per_group {
            cells.push(format!("{} {}", f3(m.f1), f3(m.tf1)));
        }
        cells.push(format!("{} {}", f3(overall.f1), f3(overall.tf1)));
        t.row(cells);
    }
    let report = format!(
        "## Table III — effectiveness on {} (each cell: F1 TF1)\n\n{}",
        ctx.city.name(),
        t.render()
    );
    (Table3Result { rows }, report)
}

/// Table IV: ablation study (trained on the context's city).
pub fn table4(ctx: &Context, base: &Rl4oasdConfig) -> String {
    let truths = ctx.test_truths();
    let mut t = Table::new(["Effectiveness", "F1-score"]);
    for variant in AblationVariant::ALL {
        let f1 = match variant {
            AblationVariant::TransitionFrequencyOnly => {
                let mut det = TransitionFrequencyDetector::new(&ctx.model.preprocessor);
                let outputs: Vec<Vec<u8>> = ctx
                    .test
                    .trajectories
                    .iter()
                    .map(|tr| det.label_trajectory(tr))
                    .collect();
                evaluate(&outputs, &truths).f1
            }
            AblationVariant::NoRnel | AblationVariant::NoDelayedLabeling => {
                // inference-time switches: reuse the trained full model
                let mut model = (*ctx.model).clone();
                model.config = variant_config(base, variant);
                let mut det = Rl4oasdDetector::new(&model, &ctx.net);
                let outputs: Vec<Vec<u8>> = ctx
                    .test
                    .trajectories
                    .iter()
                    .map(|tr| det.label_trajectory(tr))
                    .collect();
                evaluate(&outputs, &truths).f1
            }
            AblationVariant::Full => {
                let (outputs, _, _) = ctx.run_method(Method::Rl4oasd);
                evaluate(&outputs, &truths).f1
            }
            _ => {
                // training-time ablations: retrain
                let cfg = variant_config(base, variant);
                let (model, _) = train_with_dev(&ctx.net, &ctx.train, Some(&ctx.dev), &cfg);
                let mut det = Rl4oasdDetector::new(&model, &ctx.net);
                let outputs: Vec<Vec<u8>> = ctx
                    .test
                    .trajectories
                    .iter()
                    .map(|tr| det.label_trajectory(tr))
                    .collect();
                evaluate(&outputs, &truths).f1
            }
        };
        t.row([variant.name().to_string(), f3(f1)]);
    }
    format!(
        "## Table IV — ablation study ({})\n\n{}",
        ctx.city.name(),
        t.render()
    )
}

/// Table V: preprocessing and training time vs data size.
pub fn table5(city: City, sizes: &[usize], base: &Rl4oasdConfig) -> String {
    let net = rnet::CityBuilder::new(city.net_config()).build();
    let mut traffic = city.traffic_config();
    // a corpus large enough for the biggest size
    let max = *sizes.iter().max().unwrap_or(&4000);
    traffic.num_sd_pairs = (max / 100).max(20);
    traffic.trajs_per_pair = (90, 140);
    let sim = TrafficSimulator::new(&net, traffic);
    let generated = sim.generate();
    let full = Dataset::from_generated(&generated);
    let dev =
        Dataset::from_generated(&sim.generate_from_pairs(&generated.pairs, (2, 2), 0.35, 0xDE));
    let test =
        Dataset::from_generated(&sim.generate_from_pairs(&generated.pairs, (4, 6), 0.40, 0x7E57));
    let truths: Vec<Vec<u8>> = test
        .trajectories
        .iter()
        .map(|t| test.truth(t.id).unwrap().to_vec())
        .collect();

    // Map-matching cost measured on a raw-GPS sample, scaled per size.
    let sample_cfg = TrafficConfig {
        generate_raw: true,
        num_sd_pairs: 10,
        trajs_per_pair: (20, 20),
        ..city.traffic_config()
    };
    let sample = TrafficSimulator::new(&net, sample_cfg).generate();
    let matcher = MapMatcher::new(&net, MatchConfig::default());
    let t0 = Instant::now();
    for raw in &sample.raw {
        let _ = matcher.match_trajectory(raw);
    }
    let mm_per_traj = t0.elapsed().as_secs_f64() / sample.raw.len().max(1) as f64;

    let mut t = Table::new([
        "Data size",
        "Map matching (s)",
        "Noisy labeling (s)",
        "Training time (s)",
        "F1-score",
    ]);
    let mut ledger = Table::new([
        "Data size",
        "Fit (s)",
        "Toast (s)",
        "RSRNet warm (s)",
        "ASDNet warm (s)",
        "Joint (s)",
        "Dev eval (s)",
    ]);
    for &size in sizes {
        let subset = subset_of(&full, size);
        let t1 = Instant::now();
        let _pre = rl4oasd::Preprocessor::fit(base, &subset);
        let label_secs = t1.elapsed().as_secs_f64();
        let cfg = Rl4oasdConfig {
            joint_trajs: size.min(base.joint_trajs),
            ..base.clone()
        };
        let (model, stats) = train_with_dev(&net, &subset, Some(&dev), &cfg);
        let mut det = Rl4oasdDetector::new(&model, &net);
        let outputs: Vec<Vec<u8>> = test
            .trajectories
            .iter()
            .map(|tr| det.label_trajectory(tr))
            .collect();
        let f1 = evaluate(&outputs, &truths).f1;
        t.row([
            format!("{size}"),
            format!("{:.2}", mm_per_traj * size as f64),
            format!("{label_secs:.2}"),
            format!("{:.1}", stats.train_seconds),
            f3(f1),
        ]);
        let p = &stats.phases;
        let phases = [
            p.preprocess,
            p.toast,
            p.rsrnet_warm,
            p.asdnet_warm,
            p.joint,
            p.dev_eval,
        ];
        ledger.row(std::iter::once(format!("{size}")).chain(phases.map(|s| format!("{s:.2}"))));
    }
    format!(
        "## Table V — preprocessing and training time vs data size ({})\n\
         (map matching measured on a {}-trajectory raw-GPS sample and scaled)\n\n{}\n\
         Training time by phase:\n\n{}",
        city.name(),
        sample.raw.len(),
        t.render(),
        ledger.render()
    )
}

fn subset_of(data: &Dataset, size: usize) -> Dataset {
    let count = std::cell::Cell::new(0usize);
    data.filter(|_| {
        count.set(count.get() + 1);
        count.get() <= size
    })
}

/// Table VI: cold-start — drop historical trajectories per SD pair.
pub fn table6(ctx: &Context, base: &Rl4oasdConfig, drop_rates: &[f64]) -> String {
    let truths = ctx.test_truths();
    let mut t = Table::new(["Drop rate", "F1-score"]);
    for &rate in drop_rates {
        let f1 = if rate == 0.0 {
            let (outputs, _, _) = ctx.run_method(Method::Rl4oasd);
            evaluate(&outputs, &truths).f1
        } else {
            let dropped = ctx.train.drop_per_pair(rate, 0xD20 + (rate * 100.0) as u64);
            let (model, _) = train_with_dev(&ctx.net, &dropped, Some(&ctx.dev), base);
            let mut det = Rl4oasdDetector::new(&model, &ctx.net);
            let outputs: Vec<Vec<u8>> = ctx
                .test
                .trajectories
                .iter()
                .map(|tr| det.label_trajectory(tr))
                .collect();
            evaluate(&outputs, &truths).f1
        };
        t.row([format!("{rate:.1}"), f3(f1)]);
    }
    format!(
        "## Table VI — cold-start (drop rate vs F1, {})\n\n{}",
        ctx.city.name(),
        t.render()
    )
}

/// Parameter study (§V-C / technical report): α, δ and D sweeps.
pub fn params(ctx: &Context, base: &Rl4oasdConfig) -> String {
    let truths = ctx.test_truths();
    let eval_model = |model: &rl4oasd::TrainedModel| -> f64 {
        let mut det = Rl4oasdDetector::new(model, &ctx.net);
        let outputs: Vec<Vec<u8>> = ctx
            .test
            .trajectories
            .iter()
            .map(|tr| det.label_trajectory(tr))
            .collect();
        evaluate(&outputs, &truths).f1
    };
    let sweep_cfg = Rl4oasdConfig {
        joint_trajs: base.joint_trajs / 2,
        ..base.clone()
    };

    let mut ta = Table::new(["alpha", "F1-score"]);
    for alpha in [0.1, 0.2, 0.25, 0.3, 0.4, 0.5] {
        let cfg = Rl4oasdConfig {
            alpha,
            ..sweep_cfg.clone()
        };
        let (model, _) = train_with_dev(&ctx.net, &ctx.train, Some(&ctx.dev), &cfg);
        ta.row([format!("{alpha:.2}"), f3(eval_model(&model))]);
    }
    let mut td = Table::new(["delta", "F1-score"]);
    for delta in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let cfg = Rl4oasdConfig {
            delta,
            ..sweep_cfg.clone()
        };
        let (model, _) = train_with_dev(&ctx.net, &ctx.train, Some(&ctx.dev), &cfg);
        td.row([format!("{delta:.2}"), f3(eval_model(&model))]);
    }
    // D is an inference-time knob: reuse the context's trained model.
    let mut tdd = Table::new(["D", "F1-score"]);
    for d in [0usize, 2, 4, 8, 12, 16] {
        let mut model = (*ctx.model).clone();
        model.config.delay_d = d;
        model.config.use_delayed_labeling = d > 0;
        tdd.row([format!("{d}"), f3(eval_model(&model))]);
    }
    format!(
        "## Parameter study ({})\n\n### Varying alpha (noisy-label threshold)\n\n{}\n\
         ### Varying delta (normal-route threshold)\n\n{}\n\
         ### Varying D (delayed labeling window)\n\n{}",
        ctx.city.name(),
        ta.render(),
        td.render(),
        tdd.render()
    )
}
