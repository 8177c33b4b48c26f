//! City-scale scenario engine with deterministic replay.
//!
//! The correctness spine of this reproduction (byte-identity across
//! shards, ingest, hibernation, hot-swap) proves that every serving path
//! agrees — it says nothing about whether detection *quality* survives
//! realistic workloads. This crate turns quality-under-load into a
//! regression suite:
//!
//! * a [`ScenarioSpec`] composes **workload regimes** — rush-hour arrival
//!   waves, incident injection with MTTH-style recurrence, detour hotspots
//!   around a blocked edge, fleet-wide drift switchpoints, GPS dropout
//!   bursts — over a pluggable road network ([`NetworkKind`]: the
//!   Chengdu-like grid or the Porto-like radial city);
//! * every scenario is a **`(seed, spec)` pair**: [`EventTrace::generate`]
//!   is a pure function of the world, the spec and the seed, so any run
//!   replays byte-identically (same event stream, same ground truth) —
//!   property-tested in `tests/scenarios.rs`;
//! * a [`ScenarioRunner`] drives the **same trace** through the
//!   synchronous reference `ShardedEngine`, the multi-core async
//!   `IngestFrontDoor`, or a loopback `oasd-serve` network server
//!   ([`Driver::Net`]) — and scores the emitted labels against the trace's
//!   ground truth (segment-level precision/recall/F1 and the paper's
//!   span-level metrics), plus latency percentiles;
//! * [`standard_suite`] is the fixed scenario battery the soak bin
//!   (`crates/bench/src/bin/scenarios.rs`) records to
//!   `BENCH_scenarios.json`;
//! * a [`FaultPlan`] layers **deterministic fault injection** (poison
//!   events, worker panics, queue stalls, slow shards) over any trace:
//!   [`ScenarioRunner::run_supervised`] replays it through the ingest
//!   shards and reports recovery metrics (labels lost, restarts, MTTR in
//!   ticks) next to the usual scores — the drills of `tests/faults.rs`.
//!
//! Every future detector (ensemble, CroTad-style contrastive, graph
//! enhanced) is benchmarked on this harness.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod faults;
pub mod runner;
pub mod spec;
pub mod suite;
pub mod trace;
pub mod world;

pub use faults::{Fault, FaultPlan, POISON_SEGMENT};
pub use runner::{Backpressure, Driver, FaultOutcome, RunOutcome, ScenarioRunner};
pub use spec::{NetworkKind, Regime, ScenarioSpec};
pub use suite::standard_suite;
pub use trace::{EventTrace, TickEvents};
pub use world::World;
