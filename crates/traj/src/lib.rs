//! Trajectory substrate for the RL4OASD reproduction.
//!
//! Provides the data model of the paper's preliminaries (§III-A) — raw GPS
//! trajectories, map-matched trajectories (segment sequences), SD pairs,
//! time slots, transitions and subtrajectories — plus the two pieces the
//! reproduction must synthesise because the DiDi Chengdu/Xi'an data is
//! proprietary:
//!
//! * [`generator::TrafficSimulator`]: builds per-SD-pair *route families*
//!   (a few popular "normal" routes and rare detours), samples trajectories
//!   from them with realistic start times, speeds and 2–4 s GPS sampling,
//!   and emits ground-truth anomalous-subtrajectory labels for the injected
//!   detours (replacing the paper's manual labelling);
//! * [`dataset::Dataset`]: the container used by preprocessing, training
//!   and evaluation, with SD-pair/time-slot grouping and Table II-style
//!   statistics.
//!
//! The [`OnlineDetector`] trait (shared by RL4OASD and all baselines) lives
//! here so that the evaluation and benchmark harnesses are detector-agnostic,
//! together with its fleet-scale counterpart [`session::SessionEngine`]:
//! a session-oriented serving API (`open`/`observe`/`close`) that
//! multiplexes many concurrent trajectories over one detector, with
//! [`session::SessionMux`] lifting any detector factory to an engine and
//! [`session::Sharded`] hashing sessions onto independent shards driven
//! on the calling thread (the synchronous reference the byte-identity
//! tests compare against). [`ingest::IngestFrontDoor`] is the multi-core,
//! asynchronous entry point over any engine: per-shard bounded ingress
//! queues and persistent worker threads group-commit independent
//! per-point arrivals into `observe_batch` ticks and push the labels into
//! bounded, push-woken [`sink::LabelSink`]s,
//! with typed [`ingest::IngestHandle::control`] commands (e.g. model
//! hot-swaps) applied at flush boundaries.
//!
//! How these layers compose into the full serving stack — and which test
//! enforces each bit-identity invariant — is documented in
//! `docs/ARCHITECTURE.md` at the repository root.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod dataset;
pub mod detector;
pub mod generator;
pub mod hibernate;
pub mod ingest;
pub mod labels;
pub mod session;
pub mod sink;
pub mod types;

pub use dataset::{Dataset, DatasetStats};
pub use detector::OnlineDetector;
pub use generator::{DriftConfig, RouteKind, SdPairData, TrafficConfig, TrafficSimulator};
pub use hibernate::{FrozenArena, FrozenRef, Hibernate};
pub use ingest::{
    silence_injected_panic_output, CloseTicket, FlushPolicy, IngestConfig, IngestFrontDoor,
    IngestHandle, IngestStats, LatencyHistogram, Priority, RetryPolicy, SessionFault,
    ShutdownReport, SubmitError, Subscription, FAULT_INJECTION_MARKER,
};
pub use labels::{extract_subtrajectories, LabelSpan};
pub use session::{SessionEngine, SessionId, SessionMux, SessionSlab, Sharded};
pub use sink::{LabelSink, SinkConsumer, SinkEvent};
pub use types::{
    slot_of_time, GpsPoint, MappedTrajectory, RawTrajectory, SdPair, TrajectoryId, Transition,
    HOURS_PER_DAY, SECONDS_PER_DAY,
};
