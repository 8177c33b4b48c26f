//! Benchmark harness regenerating every table and figure of the RL4OASD
//! paper (see DESIGN.md §5 for the experiment index).
//!
//! The harness builds one [`Context`] per synthetic city — network, traffic
//! simulation, trained RL4OASD model, fitted baselines with dev-set-tuned
//! thresholds — and the experiment modules ([`experiments`], [`figures`])
//! drive the detectors over labelled test sets to produce paper-style
//! reports. The `repro_all` binary composes them into `EXPERIMENTS.md`,
//! or prints one section with `--only <section>`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod figures;

use baselines::{
    Ctss, Dbtod, Iboat, RouteStats, ScoringDetector, Seq2SeqDetector, Seq2SeqKind, Thresholded,
    VsaeConfig,
};
use rl4oasd::{train_with_dev, Rl4oasdConfig, Rl4oasdDetector, TrainedModel};
use rnet::{CityBuilder, CityConfig, RoadNetwork};
use std::sync::Arc;
use std::time::Instant;
use traj::{Dataset, OnlineDetector, TrafficConfig, TrafficSimulator};

/// The two evaluation cities (synthetic stand-ins for the paper's datasets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// Chengdu-scale city (~4.9k segments in the paper).
    Chengdu,
    /// Xi'an-scale city (~5.1k segments in the paper).
    Xian,
}

impl City {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            City::Chengdu => "Chengdu-sim",
            City::Xian => "Xian-sim",
        }
    }

    /// Road-network preset.
    pub fn net_config(self) -> CityConfig {
        match self {
            City::Chengdu => CityConfig::chengdu_like(),
            City::Xian => CityConfig::xian_like(),
        }
    }

    /// Traffic preset: Xi'an has fewer, shorter trajectories (paper
    /// Table II / §V-D observes shorter trajectories in Xi'an).
    pub fn traffic_config(self) -> TrafficConfig {
        match self {
            City::Chengdu => TrafficConfig {
                num_sd_pairs: 50,
                trajs_per_pair: (80, 160),
                anomaly_ratio: 0.05,
                min_route_len: 10,
                max_route_len: 70,
                seed: 0xC4E6,
                ..Default::default()
            },
            City::Xian => TrafficConfig {
                num_sd_pairs: 40,
                trajs_per_pair: (70, 140),
                anomaly_ratio: 0.06,
                min_route_len: 8,
                max_route_len: 45,
                seed: 0x71A6,
                ..Default::default()
            },
        }
    }
}

/// The eight detection methods of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// IBOAT \[8\].
    Iboat,
    /// DBTOD \[9\].
    Dbtod,
    /// GM-VSAE \[11\].
    GmVsae,
    /// SD-VSAE \[11\].
    SdVsae,
    /// SAE \[11\].
    Sae,
    /// VSAE \[11\].
    Vsae,
    /// CTSS \[10\].
    Ctss,
    /// This paper.
    Rl4oasd,
}

impl Method {
    /// All methods in the paper's table order.
    pub const ALL: [Method; 8] = [
        Method::Iboat,
        Method::Dbtod,
        Method::GmVsae,
        Method::SdVsae,
        Method::Sae,
        Method::Vsae,
        Method::Ctss,
        Method::Rl4oasd,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Iboat => "IBOAT",
            Method::Dbtod => "DBTOD",
            Method::GmVsae => "GM-VSAE",
            Method::SdVsae => "SD-VSAE",
            Method::Sae => "SAE",
            Method::Vsae => "VSAE",
            Method::Ctss => "CTSS",
            Method::Rl4oasd => "RL4OASD",
        }
    }
}

/// A fully prepared evaluation context for one city.
pub struct Context {
    /// Which city.
    pub city: City,
    /// Road network (shared with serving engines).
    pub net: Arc<RoadNetwork>,
    /// Route families (for test-set generation and case studies).
    pub generated: traj::generator::GeneratedTraffic,
    /// Training corpus (unlabelled).
    pub train: Dataset,
    /// Labelled dev set (threshold tuning, model selection; paper: 100
    /// trajectories).
    pub dev: Dataset,
    /// Labelled test set (anomaly-heavy, like the paper's labelled routes).
    pub test: Dataset,
    /// Trained RL4OASD model (shared with serving engines).
    pub model: Arc<TrainedModel>,
    /// Historical statistics shared by the heuristic baselines.
    pub stats: Arc<RouteStats>,
    /// Trained GM-VSAE model (SD-VSAE reuses it; SAE and VSAE are trained
    /// separately).
    pub gm_vsae: Seq2SeqDetector,
    /// Trained SAE model.
    pub sae: Seq2SeqDetector,
    /// Trained VSAE model.
    pub vsae: Seq2SeqDetector,
    /// Fitted DBTOD weights.
    pub dbtod_weights: [f64; 6],
    /// Dev-tuned thresholds per method (score-based methods only).
    pub thresholds: Thresholds,
    /// Wall-clock seconds spent preparing (per stage).
    pub prep: PrepTimings,
}

/// Dev-set-tuned decision thresholds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Thresholds {
    /// IBOAT threshold on `1 - support`.
    pub iboat: f64,
    /// DBTOD threshold on per-choice NLL.
    pub dbtod: f64,
    /// GM-VSAE threshold on generation NLL.
    pub gm_vsae: f64,
    /// SD-VSAE threshold.
    pub sd_vsae: f64,
    /// SAE threshold.
    pub sae: f64,
    /// VSAE threshold.
    pub vsae: f64,
    /// CTSS threshold on Fréchet deviation (metres).
    pub ctss: f64,
}

/// Preparation timings (used by Table V).
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepTimings {
    /// RL4OASD training seconds.
    pub rl4oasd_train: f64,
    /// Seq2seq baselines training seconds (total).
    pub vsae_train: f64,
}

impl Context {
    /// Builds the full context for a city (simulation, training, tuning).
    pub fn build(city: City) -> Self {
        Self::build_custom(
            city,
            &Rl4oasdConfig::default(),
            city.traffic_config(),
            VsaeConfig::default(),
        )
    }

    /// Fully customisable build.
    pub fn build_custom(
        city: City,
        config: &Rl4oasdConfig,
        traffic: TrafficConfig,
        vsae_config: VsaeConfig,
    ) -> Self {
        let net = CityBuilder::new(city.net_config()).build();
        let sim = TrafficSimulator::new(&net, traffic);
        let generated = sim.generate();
        let train = Dataset::from_generated(&generated);
        // Dev: ~100 labelled trajectories (paper §V-A); test: anomaly-heavy
        // labelled set sharing the route families.
        let dev_data = sim.generate_from_pairs(&generated.pairs, (2, 3), 0.35, 0xDE);
        let dev = Dataset::from_generated(&dev_data);
        let test_data = sim.generate_from_pairs(&generated.pairs, (8, 12), 0.40, 0x7E57);
        let test = Dataset::from_generated(&test_data);

        let t0 = Instant::now();
        let (model, _) = train_with_dev(&net, &train, Some(&dev), config);
        let rl4oasd_train = t0.elapsed().as_secs_f64();

        let stats = Arc::new(RouteStats::fit(&train));

        let t1 = Instant::now();
        let vocab = net.num_segments();
        let mut gm_vsae = Seq2SeqDetector::new(Seq2SeqKind::GmVsae(5), vocab, vsae_config.clone());
        gm_vsae.fit(&train);
        let mut sae = Seq2SeqDetector::new(Seq2SeqKind::Sae, vocab, vsae_config.clone());
        sae.fit(&train);
        let mut vsae = Seq2SeqDetector::new(Seq2SeqKind::Vsae, vocab, vsae_config);
        vsae.fit(&train);
        let vsae_train = t1.elapsed().as_secs_f64();

        let mut dbtod = Dbtod::new(&net, Arc::clone(&stats));
        dbtod.fit(&train, 2, 0.05);
        let dbtod_weights = dbtod.weights;

        let mut ctx = Context {
            city,
            net: Arc::new(net),
            generated,
            train,
            dev,
            test,
            model: Arc::new(model),
            stats,
            gm_vsae,
            sae,
            vsae,
            dbtod_weights,
            thresholds: Thresholds::default(),
            prep: PrepTimings {
                rl4oasd_train,
                vsae_train,
            },
        };
        ctx.thresholds = ctx.tune_thresholds();
        ctx
    }

    /// Tunes every score-based method's threshold on the dev set.
    fn tune_thresholds(&mut self) -> Thresholds {
        let truths: Vec<Vec<u8>> = self
            .dev
            .trajectories
            .iter()
            .map(|t| self.dev.truth(t.id).expect("dev is labelled").to_vec())
            .collect();
        let tune = |scores: Vec<Vec<f64>>| -> f64 {
            // Replace infinities with a large finite ceiling for tuning.
            let scores: Vec<Vec<f64>> = scores
                .into_iter()
                .map(|tr| tr.into_iter().map(|s| s.min(1e6)).collect())
                .collect();
            eval::tune_threshold(&scores, &truths, 60).0
        };
        let dev = &self.dev;
        let score_all = |d: &mut dyn ScoringDetector| -> Vec<Vec<f64>> {
            dev.trajectories
                .iter()
                .map(|t| d.score_trajectory(t))
                .collect()
        };
        let mut iboat = Iboat::new(Arc::clone(&self.stats), 0.05);
        let iboat_thr = tune(score_all(&mut iboat));
        let mut dbtod = Dbtod::new(&self.net, Arc::clone(&self.stats));
        dbtod.weights = self.dbtod_weights;
        let dbtod_thr = tune(score_all(&mut dbtod));
        let mut ctss = Ctss::new(&self.net, Arc::clone(&self.stats));
        let ctss_thr = tune(score_all(&mut ctss));
        let gm_thr = tune(score_all(&mut self.gm_vsae));
        let mut sd = self.sd_vsae();
        let sd_thr = tune(score_all(&mut sd));
        let sae_thr = tune(score_all(&mut self.sae));
        let vsae_thr = tune(score_all(&mut self.vsae));
        Thresholds {
            iboat: iboat_thr,
            dbtod: dbtod_thr,
            gm_vsae: gm_thr,
            sd_vsae: sd_thr,
            sae: sae_thr,
            vsae: vsae_thr,
            ctss: ctss_thr,
        }
    }

    /// SD-VSAE is the fast inference variant of the trained GM-VSAE model.
    pub fn sd_vsae(&self) -> Seq2SeqDetector {
        let mut clone = Seq2SeqDetector::new(
            Seq2SeqKind::SdVsae(5),
            self.net.num_segments(),
            VsaeConfig::default(),
        );
        clone.copy_weights_from(&self.gm_vsae);
        clone
    }

    /// Ground-truth labels of the test set, aligned with its trajectories.
    pub fn test_truths(&self) -> Vec<Vec<u8>> {
        self.test
            .trajectories
            .iter()
            .map(|t| self.test.truth(t.id).expect("test is labelled").to_vec())
            .collect()
    }

    /// Runs a method over the test set, returning `(labels per trajectory,
    /// total points, total seconds)`.
    pub fn run_method(&self, method: Method) -> (Vec<Vec<u8>>, usize, f64) {
        self.run_method_on(method, &self.test)
    }

    /// Runs a method over an arbitrary dataset.
    pub fn run_method_on(&self, method: Method, data: &Dataset) -> (Vec<Vec<u8>>, usize, f64) {
        let mut detector: Box<dyn OnlineDetector + '_> = self.detector(method);
        let mut outputs = Vec::with_capacity(data.len());
        let mut points = 0usize;
        let t0 = Instant::now();
        for t in &data.trajectories {
            points += t.len();
            outputs.push(detector.label_trajectory(t));
        }
        (outputs, points, t0.elapsed().as_secs_f64())
    }

    /// Constructs a ready-to-run detector for a method.
    pub fn detector(&self, method: Method) -> Box<dyn OnlineDetector + '_> {
        match method {
            Method::Iboat => Box::new(Thresholded::new(
                Iboat::new(Arc::clone(&self.stats), 0.05),
                self.thresholds.iboat,
            )),
            Method::Dbtod => {
                let mut d = Dbtod::new(&self.net, Arc::clone(&self.stats));
                d.weights = self.dbtod_weights;
                Box::new(Thresholded::new(d, self.thresholds.dbtod))
            }
            Method::Ctss => Box::new(Thresholded::new(
                Ctss::new(&self.net, Arc::clone(&self.stats)),
                self.thresholds.ctss,
            )),
            Method::GmVsae => {
                let mut d = Seq2SeqDetector::new(
                    Seq2SeqKind::GmVsae(5),
                    self.net.num_segments(),
                    VsaeConfig::default(),
                );
                d.copy_weights_from(&self.gm_vsae);
                Box::new(Thresholded::new(d, self.thresholds.gm_vsae))
            }
            Method::SdVsae => Box::new(Thresholded::new(self.sd_vsae(), self.thresholds.sd_vsae)),
            Method::Sae => {
                let mut d = Seq2SeqDetector::new(
                    Seq2SeqKind::Sae,
                    self.net.num_segments(),
                    VsaeConfig::default(),
                );
                d.copy_weights_from(&self.sae);
                Box::new(Thresholded::new(d, self.thresholds.sae))
            }
            Method::Vsae => {
                let mut d = Seq2SeqDetector::new(
                    Seq2SeqKind::Vsae,
                    self.net.num_segments(),
                    VsaeConfig::default(),
                );
                d.copy_weights_from(&self.vsae);
                Box::new(Thresholded::new(d, self.thresholds.vsae))
            }
            Method::Rl4oasd => Box::new(Rl4oasdDetector::new(&self.model, &self.net)),
        }
    }
}
