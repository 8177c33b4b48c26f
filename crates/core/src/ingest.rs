//! Async serving entry point for RL4OASD: the
//! [`traj::IngestFrontDoor`] instantiated over [`StreamEngine`] shards.
//!
//! [`IngestEngine`] is the multi-core serving engine for the paper's
//! arrival pattern (independent per-point GPS events from a fleet). It has
//! the shard layout of the synchronous reference [`crate::ShardedEngine`]
//! — N [`StreamEngine`]s behind one `Arc<TrainedModel>` +
//! `Arc<RoadNetwork>`, zero weight duplication — but each shard is owned
//! by a **persistent worker thread** fed through a bounded ingress queue,
//! group-committing arrivals into `observe_batch` ticks
//! ([`traj::FlushPolicy`]).
//!
//! Producers keep only a cheap cloneable [`IngestHandle`]; labels return
//! through per-session [`traj::Subscription`]s — or, for a consumer with
//! many sessions, one shared [`traj::LabelSink`]. Per-session label
//! sequences are byte-identical to the synchronous engines for any flush
//! policy and shard count (property-tested in `tests/ingest.rs`).
//!
//! The engine also serves through **model hot-swaps**: [`SwapModel`] lets
//! any handle broadcast a retrained model into the running engine, applied
//! per shard at a flush boundary with per-session model epochs — see the
//! trait docs and `docs/ARCHITECTURE.md`.

use crate::engine::{EngineStats, EpochStats, HibernationConfig, StreamEngine};
use crate::sharded::ShardedEngine;
use crate::train::TrainedModel;
use obs::{Obs, Snapshot};
use rnet::RoadNetwork;
use std::sync::Arc;
use traj::{IngestConfig, IngestFrontDoor, IngestHandle, IngestStats, SubmitError};

/// Aggregate outcome of a graceful [`IngestEngine::shutdown`].
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Front-door counters: accepted/rejected submits, flushes and the
    /// submit→label latency histogram.
    pub ingest: IngestStats,
    /// Serving statistics summed across all shard engines.
    pub engine: EngineStats,
    /// Per-shard serving statistics (index = shard).
    pub shard_stats: Vec<EngineStats>,
    /// `(RNEL short-circuits, policy invocations)` summed across shards.
    pub decision_counts: (usize, usize),
    /// Per-epoch decision/alert counters summed across shards, indexed by
    /// swap sequence number (0 = construction model).
    pub epoch_stats: Vec<EpochStats>,
    /// Final telemetry snapshot, taken after the last worker joined (so
    /// every flush, sweep and swap is in). Empty when the engine ran with
    /// telemetry disabled ([`IngestConfig::obs`]).
    pub obs: Snapshot,
}

/// The asynchronous RL4OASD serving engine: a [`traj::IngestFrontDoor`]
/// over N [`StreamEngine`] shards sharing one immutable trained model.
///
/// Unlike [`crate::ShardedEngine`], the synchronous reference that the
/// caller ticks through `observe_batch` on its own thread, this engine is
/// fed from any number of producer threads via [`IngestEngine::handle`]
/// and does its model work on persistent per-shard workers. See [`crate::ingest`] module docs.
pub struct IngestEngine {
    door: IngestFrontDoor<StreamEngine>,
    /// The telemetry handle the engine was built with
    /// ([`IngestConfig::obs`]); disabled by default.
    obs: Obs,
}

impl IngestEngine {
    /// Builds `shards` stream engines over one shared trained model and
    /// road network (the `Arc`s are cloned per shard; the weights are
    /// not), each behind its own ingress queue and worker thread.
    ///
    /// Every shard worker runs its batch loop under a panic boundary
    /// ([`IngestFrontDoor::build`]). A panicking shard (torn state,
    /// injected fault) is restarted in place: the sessions implicated in
    /// the aborted batch end with an explicit [`traj::SessionFault`], and
    /// the shard's [`StreamEngine`] hands over to its successor, which
    /// keeps every swap, every counter and every other session
    /// (byte-identical labels; property-tested in `tests/faults.rs`).
    /// Out-of-range segments are poison: they quarantine their own
    /// session and never reach the engine.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(
        model: Arc<TrainedModel>,
        net: Arc<RoadNetwork>,
        shards: usize,
        config: IngestConfig,
    ) -> Self {
        Self::start(model, net, shards, config, None)
    }

    /// [`IngestEngine::new`] with idle-session hibernation enabled on
    /// every shard engine. Each shard worker also forces a sweep at every
    /// flush boundary (the [`traj::SessionEngine::maintain`] hook — the
    /// same seam hot-swap control commands are applied at), so idle
    /// sessions are evicted even when the worker's tick clock advances
    /// slowly. Labels are unchanged by construction; see
    /// `tests/hibernate.rs`.
    pub fn with_hibernation(
        model: Arc<TrainedModel>,
        net: Arc<RoadNetwork>,
        shards: usize,
        config: IngestConfig,
        hibernation: HibernationConfig,
    ) -> Self {
        Self::start(model, net, shards, config, Some(hibernation))
    }

    fn start(
        model: Arc<TrainedModel>,
        net: Arc<RoadNetwork>,
        shards: usize,
        config: IngestConfig,
        hibernation: Option<HibernationConfig>,
    ) -> Self {
        let obs = config.obs.clone();
        let factory_obs = obs.clone();
        IngestEngine {
            door: IngestFrontDoor::build(
                shards,
                move |i| {
                    let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
                    engine.set_hibernation(hibernation);
                    engine.set_obs(&factory_obs, i);
                    engine
                },
                config,
            ),
            obs,
        }
    }

    /// The engine's telemetry handle — snapshot it any time for a live
    /// ops view ([`Obs::snapshot`] is safe concurrently with serving).
    /// Disabled unless the engine was built with an enabled
    /// [`IngestConfig::obs`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A cheap, cloneable producer handle (open/submit/close, plus the
    /// [`SwapModel::swap_model`] hot-swap broadcast).
    pub fn handle(&self) -> IngestHandle<StreamEngine> {
        self.door.handle()
    }

    /// Number of shards (= ingress queues = persistent worker threads).
    pub fn num_shards(&self) -> usize {
        self.door.num_shards()
    }

    /// Gracefully shuts down: drains every accepted event, joins the
    /// workers and aggregates serving + ingestion statistics.
    pub fn shutdown(self) -> IngestReport {
        let IngestEngine { door, obs } = self;
        let report = door.shutdown();
        let shards = ShardedEngine::from_shards(report.engines);
        IngestReport {
            ingest: report.stats,
            engine: shards.stats(),
            shard_stats: shards.shard_stats(),
            decision_counts: shards.decision_counts(),
            epoch_stats: shards.epoch_stats(),
            obs: obs.snapshot(),
        }
    }
}

/// Zero-downtime model hot-swap on a **running** [`IngestEngine`]: the
/// extension of the typed [`IngestHandle<StreamEngine>`] that broadcasts a
/// retrained [`TrainedModel`] to every shard worker.
///
/// The swap rides the existing per-shard FIFO ingress queues as a control
/// command, applied by each worker at its next **flush boundary** (pending
/// micro-batch flushed first), so it never splits a batch and never drops,
/// reorders or relabels an in-flight event. Per the [`StreamEngine`] epoch
/// contract, sessions opened *after* the swap (their `open` is behind the
/// command in the same queue) run the new weights; sessions already open
/// drain to completion on the `Arc` of the model they started with, which
/// each shard engine drops when their last session closes. A restarted
/// shard keeps every swap; only a shard whose successor handover itself
/// panics falls back to the construction model, which its factory keeps
/// referenced until shutdown. Property-tested end-to-end in
/// `tests/hotswap.rs` and `tests/faults.rs`.
pub trait SwapModel {
    /// Broadcasts `model` to every shard; see the trait docs for the
    /// exact semantics. Blocks only for queue space (a partial swap would
    /// be worse); returns [`SubmitError::ShutDown`] once the engine shut
    /// down.
    ///
    /// # Example
    ///
    /// ```
    /// use rl4oasd::{IngestEngine, Rl4oasdConfig, SwapModel};
    /// use rnet::{CityBuilder, CityConfig};
    /// use std::sync::Arc;
    /// use traj::{Dataset, IngestConfig, TrafficConfig, TrafficSimulator};
    ///
    /// let net = CityBuilder::new(CityConfig::tiny(9)).build();
    /// let data = TrafficSimulator::new(&net, TrafficConfig::tiny(9)).generate();
    /// let ds = Dataset::from_generated(&data);
    /// let v1 = Arc::new(rl4oasd::train(&net, &ds, &Rl4oasdConfig::tiny(9)));
    /// let v2 = Arc::new(rl4oasd::train(&net, &ds, &Rl4oasdConfig::tiny(10)));
    ///
    /// let engine = IngestEngine::new(v1, Arc::new(net), 2, IngestConfig::default());
    /// let handle = engine.handle();
    /// let trip = ds.trajectories.iter().find(|t| !t.is_empty()).unwrap();
    /// let (old_session, _labels) = handle.open(trip.sd_pair().unwrap(), trip.start_time).unwrap();
    ///
    /// handle.swap_model(v2).unwrap(); // live: the stream keeps flowing
    ///
    /// // `old_session` keeps serving on v1; sessions opened now run v2.
    /// let (new_session, _labels) = handle.open(trip.sd_pair().unwrap(), trip.start_time).unwrap();
    /// for &segment in &trip.segments {
    ///     handle.submit_blocking(old_session, segment).unwrap();
    ///     handle.submit_blocking(new_session, segment).unwrap();
    /// }
    /// assert_eq!(handle.close(old_session).unwrap().wait().unwrap().len(), trip.len());
    /// assert_eq!(handle.close(new_session).unwrap().wait().unwrap().len(), trip.len());
    /// let report = engine.shutdown();
    /// assert_eq!(report.engine.model_swaps, 2); // one per shard
    /// ```
    fn swap_model(&self, model: Arc<TrainedModel>) -> Result<(), SubmitError>;

    /// Broadcasts `model` as the serving model for **scope** (tenant)
    /// `scope` only — the multi-tenant form of
    /// [`SwapModel::swap_model`], backed by
    /// [`StreamEngine::set_scope_model`] on every shard. Sessions opened
    /// afterwards via `IngestHandle::open_scoped` with this scope run the
    /// new model; the scope's already-open sessions drain on their
    /// original weights, and **other scopes (and plain opens) are never
    /// relabelled** — tenant isolation is property-tested in
    /// `tests/serve.rs`. Same delivery guarantees as `swap_model`.
    fn swap_scope_model(&self, scope: u32, model: Arc<TrainedModel>) -> Result<(), SubmitError>;
}

impl SwapModel for IngestHandle<StreamEngine> {
    fn swap_model(&self, model: Arc<TrainedModel>) -> Result<(), SubmitError> {
        // Pack the hot-path weights here, once, on the publisher's thread —
        // not lazily on a shard worker between flushes.
        model.packed();
        self.control(move |engine: &mut StreamEngine| engine.swap_model(Arc::clone(&model)))
    }

    fn swap_scope_model(&self, scope: u32, model: Arc<TrainedModel>) -> Result<(), SubmitError> {
        model.packed();
        self.control(move |engine: &mut StreamEngine| {
            engine.set_scope_model(scope, Arc::clone(&model))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Rl4oasdConfig;
    use crate::train::train;
    use rnet::{CityBuilder, CityConfig};
    use traj::{Dataset, FlushPolicy, SessionEngine, TrafficConfig, TrafficSimulator};

    fn setup(seed: u64) -> (Arc<RoadNetwork>, Dataset, Arc<TrainedModel>) {
        let net = CityBuilder::new(CityConfig::tiny(seed)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 3,
            trajs_per_pair: (25, 40),
            anomaly_ratio: 0.15,
            ..TrafficConfig::tiny(seed)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        let ds = Dataset::from_generated(&data);
        let model = train(&net, &ds, &Rl4oasdConfig::tiny(seed));
        (Arc::new(net), ds, Arc::new(model))
    }

    #[test]
    fn ingest_engine_packs_on_the_constructing_thread() {
        let (net, _, model) = setup(48);
        assert!(!model.is_packed());
        let engine = IngestEngine::new(Arc::clone(&model), net, 2, IngestConfig::default());
        assert!(model.is_packed());
        engine.shutdown();
    }

    #[test]
    fn ingest_engine_matches_synchronous_labels() {
        let (net, ds, model) = setup(47);
        let trajs: Vec<_> = ds
            .trajectories
            .iter()
            .filter(|t| !t.is_empty())
            .take(8)
            .cloned()
            .collect();

        // Synchronous reference: one StreamEngine, one session at a time.
        let mut single = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        let expected: Vec<Vec<u8>> = trajs
            .iter()
            .map(|t| {
                let h = single.open(t.sd_pair().unwrap(), t.start_time);
                for &seg in &t.segments {
                    single.observe(h, seg);
                }
                single.close(h)
            })
            .collect();

        let engine = IngestEngine::new(
            Arc::clone(&model),
            Arc::clone(&net),
            2,
            IngestConfig {
                flush: FlushPolicy::new(4),
                ..Default::default()
            },
        );
        let handle = engine.handle();
        let opened: Vec<_> = trajs
            .iter()
            .map(|t| handle.open(t.sd_pair().unwrap(), t.start_time).unwrap())
            .collect();
        // Round-robin interleaved submission across all sessions.
        let max_len = trajs.iter().map(|t| t.len()).max().unwrap();
        for tick in 0..max_len {
            for (k, t) in trajs.iter().enumerate() {
                if tick < t.len() {
                    while handle.submit(opened[k].0, t.segments[tick])
                        == Err(traj::SubmitError::QueueFull)
                    {
                        std::thread::yield_now();
                    }
                }
            }
        }
        let got: Vec<Vec<u8>> = opened
            .iter()
            .map(|(id, _)| handle.close(*id).unwrap().wait().unwrap())
            .collect();
        assert_eq!(got, expected);

        let report = engine.shutdown();
        let total: usize = trajs.iter().map(|t| t.len()).sum();
        assert_eq!(report.ingest.submitted, total as u64);
        assert_eq!(report.ingest.flushed_events, total as u64);
        assert_eq!(report.engine.observe_events, total as u64);
        assert_eq!(report.engine.sessions_opened, trajs.len() as u64);
        assert_eq!(report.engine.sessions_closed, trajs.len() as u64);
        assert_eq!(report.shard_stats.len(), 2);
        assert_eq!(report.ingest.latency.count(), total as u64);
        assert!(report.decision_counts.0 + report.decision_counts.1 > 0);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let (net, _, model) = setup(48);
        let _ = IngestEngine::new(model, net, 0, IngestConfig::default());
    }
}
