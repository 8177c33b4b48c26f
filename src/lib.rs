//! # RL4OASD reproduction — umbrella crate
//!
//! This crate re-exports the workspace's public API so the examples and
//! downstream users can depend on a single crate:
//!
//! * [`rnet`] — road networks and the synthetic city generator;
//! * [`traj`] — trajectories, SD pairs, the traffic simulator and the
//!   [`traj::OnlineDetector`] trait;
//! * [`mapmatch`] — HMM map matching;
//! * [`nn`] — the minimal neural-network substrate;
//! * [`rl4oasd`] — the paper's contribution: preprocessing, RSRNet, ASDNet,
//!   training and the online detector;
//! * [`baselines`] — IBOAT, DBTOD, CTSS and the GM-VSAE family;
//! * [`eval`] — NER-style F1/TF1 metrics and threshold tuning;
//! * [`scenario`] — the city-scale scenario engine with deterministic
//!   `(seed, spec)` replay, driving every serving path cross-network;
//! * [`serve`] — the `oasd-serve` network front door: a length-prefixed
//!   binary wire protocol plus an HTTP ops surface over the ingest
//!   engine, with multi-tenant model scopes and quotas;
//! * [`obs`] — the zero-dependency telemetry spine: metrics registry,
//!   stage-level tracing, ops event log, JSON/Prometheus export.
//!
//! ## Quickstart
//!
//! ```no_run
//! use rl4oasd_repro::prelude::*;
//!
//! // 1. a synthetic city and its traffic
//! let net = CityBuilder::new(CityConfig::chengdu_like()).build();
//! let sim = TrafficSimulator::new(&net, TrafficConfig::default());
//! let data = sim.generate();
//! let train = Dataset::from_generated(&data);
//!
//! // 2. train RL4OASD without any labels
//! let model = rl4oasd::train(&net, &train, &Rl4oasdConfig::default());
//!
//! // 3. detect anomalous subtrajectories online
//! let mut detector = Rl4oasdDetector::new(&model, &net);
//! let labels = detector.label_trajectory(&train.trajectories[0]);
//! println!("anomalous spans: {:?}", traj::extract_subtrajectories(&labels));
//! ```

pub use baselines;
pub use eval;
pub use mapmatch;
pub use nn;
pub use obs;
pub use rl4oasd;
pub use rnet;
pub use scenario;
pub use serve;
pub use traj;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use baselines::{Ctss, Dbtod, Iboat, RouteStats, ScoringDetector, Thresholded};
    pub use eval::{evaluate, DetectionMetrics};
    pub use mapmatch::{MapMatcher, MatchConfig};
    pub use obs::{Obs, ObsConfig, OpsEvent, Snapshot, Stage};
    pub use rl4oasd::{
        EngineStats, EpochStats, HibernationConfig, IngestEngine, IngestReport, OnlineLearner,
        Rl4oasdConfig, Rl4oasdDetector, ShardedEngine, StreamEngine, SwapModel, TrainedModel,
    };
    pub use rnet::{
        CityBuilder, CityConfig, RadialCityBuilder, RadialCityConfig, RoadNetwork, SegmentId,
    };
    pub use scenario::{
        standard_suite, Backpressure, Driver, EventTrace, Fault, FaultOutcome, FaultPlan,
        NetworkKind, Regime, RunOutcome, ScenarioRunner, ScenarioSpec, World, POISON_SEGMENT,
    };
    pub use serve::{
        run_load, Client, Frame, FrameError, FrameReader, LoadReport, LoadSpec, Server,
        ServerConfig, TenantSpec, WireError,
    };
    pub use traj::{
        silence_injected_panic_output, Dataset, DriftConfig, FlushPolicy, IngestConfig,
        IngestFrontDoor, IngestHandle, IngestStats, LatencyHistogram, MappedTrajectory,
        OnlineDetector, Priority, RetryPolicy, SdPair, SessionEngine, SessionFault, SessionId,
        SessionMux, Sharded, SubmitError, TrafficConfig, TrafficSimulator, FAULT_INJECTION_MARKER,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles() {
        use crate::prelude::*;
        let _ = Rl4oasdConfig::default();
        let _ = TrafficConfig::default();
        let _ = MatchConfig::default();
    }
}
