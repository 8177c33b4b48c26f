//! The synchronous sharded reference: N [`StreamEngine`] shards behind one
//! shared trained model, driven on the calling thread.
//!
//! Sessions are hashed onto one of N `StreamEngine` shards; every shard
//! owns its own `SessionSlab` + tick scratch, and all shards share **one**
//! `Arc<TrainedModel>` + `Arc<RoadNetwork>` — zero weight duplication.
//! [`traj::SessionEngine::observe_batch`] partitions each tick's events by
//! shard and runs each shard's batched round in turn, then scatters the
//! labels back into caller order.
//!
//! Because a session's events always reach the same shard in order, the
//! [`StreamEngine`] interleaving-invariance contract lifts directly:
//! labels, decisions and per-session outputs are **byte-identical for
//! every shard count** (property-tested in `tests/sharded.rs`). That makes
//! [`ShardedEngine`] the oracle the hot-swap, telemetry, hibernation and
//! scenario suites compare the multi-core [`crate::IngestEngine`] against;
//! multi-core serving itself is `IngestEngine`, with one persistent worker
//! thread per shard.

use crate::engine::{EngineStats, EpochStats, HibernationConfig, StreamEngine};
use crate::train::TrainedModel;
use obs::Obs;
use rnet::{RoadNetwork, SegmentId};
use std::sync::Arc;
use traj::{SdPair, SessionEngine, SessionId, Sharded};

/// A sharded [`StreamEngine`]: N independent shards, one shared immutable
/// model, sessions hashed to shards, ticks driven on the calling thread.
/// Implements the same [`SessionEngine`] surface as a single engine, with
/// aggregated [`ShardedEngine::stats`] /
/// [`ShardedEngine::decision_counts`].
pub struct ShardedEngine {
    inner: Sharded<StreamEngine>,
}

impl ShardedEngine {
    /// Builds `shards` engines over one shared trained model and road
    /// network (the `Arc`s are cloned per shard; the weights are not).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use rl4oasd::{Rl4oasdConfig, ShardedEngine};
    /// use rnet::{CityBuilder, CityConfig};
    /// use std::sync::Arc;
    /// use traj::{Dataset, SessionEngine, TrafficConfig, TrafficSimulator};
    ///
    /// let net = CityBuilder::new(CityConfig::tiny(7)).build();
    /// let data = TrafficSimulator::new(&net, TrafficConfig::tiny(7)).generate();
    /// let ds = Dataset::from_generated(&data);
    /// let model = rl4oasd::train(&net, &ds, &Rl4oasdConfig::tiny(7));
    ///
    /// let mut engine = ShardedEngine::new(Arc::new(model), Arc::new(net), 4);
    /// let trip = ds.trajectories.iter().find(|t| !t.is_empty()).unwrap();
    /// let session = engine.open(trip.sd_pair().unwrap(), trip.start_time);
    /// for &segment in &trip.segments {
    ///     engine.observe(session, segment);
    /// }
    /// let labels = engine.close(session);
    /// assert_eq!(labels.len(), trip.len());
    /// ```
    pub fn new(model: Arc<TrainedModel>, net: Arc<RoadNetwork>, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedEngine {
            inner: Sharded::build(shards, |_| {
                StreamEngine::new(Arc::clone(&model), Arc::clone(&net))
            }),
        }
    }

    /// Wraps already-built shards — how [`crate::IngestEngine::shutdown`]
    /// aggregates its drained shard engines with this type's stats
    /// methods.
    pub(crate) fn from_shards(shards: Vec<StreamEngine>) -> Self {
        ShardedEngine {
            inner: Sharded::from_shards(shards),
        }
    }

    /// Builder form of [`ShardedEngine::set_hibernation`].
    pub fn with_hibernation(mut self, cfg: HibernationConfig) -> Self {
        self.set_hibernation(Some(cfg));
        self
    }

    /// Builder form of [`ShardedEngine::set_obs`].
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Wires telemetry through every shard: shard `i` records under the
    /// label `shard="i"` — same contract as [`StreamEngine::set_obs`].
    /// All shards feed one shared registry, span ring and event log, so
    /// one [`Obs::snapshot`] covers the whole fleet.
    pub fn set_obs(&mut self, obs: &Obs) {
        for (i, shard) in self.inner.shards_mut().iter_mut().enumerate() {
            shard.set_obs(obs, i);
        }
    }

    /// Enables (or disables) idle-session hibernation on every shard —
    /// same contract as [`StreamEngine::set_hibernation`]; each shard
    /// sweeps its own slab at its own tick boundaries.
    pub fn set_hibernation(&mut self, cfg: Option<HibernationConfig>) {
        for shard in self.inner.shards_mut() {
            shard.set_hibernation(cfg);
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    /// The model new sessions are currently opened under (held by every
    /// shard; pre-swap sessions may still run older epochs).
    pub fn model(&self) -> &Arc<TrainedModel> {
        self.inner.shards()[0].model()
    }

    /// Hot-swaps the serving model on every shard, synchronously. Holding
    /// `&mut self` means no tick is in flight, so this is always applied
    /// at a tick boundary: sessions opened afterwards run `model`,
    /// sessions already open drain to completion on the model they
    /// started with (per-shard epoch refcounts free each old model when
    /// its last session closes — same contract as
    /// [`StreamEngine::swap_model`], property-tested in
    /// `tests/hotswap.rs`). The asynchronous counterpart is
    /// `SwapModel::swap_model` on the ingest handle.
    pub fn swap_model(&mut self, model: Arc<TrainedModel>) {
        for shard in self.inner.shards_mut() {
            shard.swap_model(Arc::clone(&model));
        }
    }

    /// Installs `model` for scope (tenant) `scope` on every shard — the
    /// sharded form of [`StreamEngine::set_scope_model`]: future
    /// [`SessionEngine::open_scoped`] opens with this scope pin the new
    /// epoch on whichever shard they hash to; other scopes and plain
    /// opens are untouched.
    pub fn set_scope_model(&mut self, scope: u32, model: Arc<TrainedModel>) {
        for shard in self.inner.shards_mut() {
            shard.set_scope_model(scope, Arc::clone(&model));
        }
    }

    /// Model generations alive per shard (index = shard): `1` everywhere
    /// when no swap is mid-drain; an old epoch stays alive on a shard only
    /// while that shard still serves one of its pre-swap sessions.
    pub fn shard_live_model_epochs(&self) -> Vec<usize> {
        self.inner
            .shards()
            .iter()
            .map(|s| s.live_model_epochs())
            .collect()
    }

    /// The shared road network (held by every shard).
    pub fn network(&self) -> &Arc<RoadNetwork> {
        self.inner.shards()[0].network()
    }

    /// Which shard serves the given open session.
    pub fn shard_of(&self, session: SessionId) -> usize {
        self.inner.shard_of(session)
    }

    /// Cumulative serving statistics, aggregated across all shards.
    pub fn stats(&self) -> EngineStats {
        self.shard_stats().into_iter().sum()
    }

    /// Per-shard serving statistics (index = shard).
    pub fn shard_stats(&self) -> Vec<EngineStats> {
        self.inner.shards().iter().map(|s| s.stats()).collect()
    }

    /// `(RNEL short-circuits, policy invocations)` summed across shards.
    pub fn decision_counts(&self) -> (usize, usize) {
        self.shard_decision_counts()
            .into_iter()
            .fold((0, 0), |(r, p), (sr, sp)| (r + sr, p + sp))
    }

    /// Per-shard `(RNEL short-circuits, policy invocations)` (index = shard).
    pub fn shard_decision_counts(&self) -> Vec<(usize, usize)> {
        self.inner
            .shards()
            .iter()
            .map(|s| s.decision_counts())
            .collect()
    }

    /// Per-epoch decision/alert counters summed across shards, indexed by
    /// swap sequence number. Swaps broadcast to every shard, so sequence
    /// numbers line up shard-to-shard by construction.
    pub fn epoch_stats(&self) -> Vec<EpochStats> {
        let mut total: Vec<EpochStats> = Vec::new();
        for shard in self.inner.shards() {
            for (seq, &stats) in shard.epoch_stats().iter().enumerate() {
                if seq == total.len() {
                    total.push(EpochStats::default());
                }
                total[seq] += stats;
            }
        }
        total
    }
}

impl SessionEngine for ShardedEngine {
    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn open(&mut self, sd: SdPair, start_time: f64) -> SessionId {
        self.inner.open(sd, start_time)
    }

    fn open_scoped(&mut self, scope: u32, sd: SdPair, start_time: f64) -> SessionId {
        self.inner.open_scoped(scope, sd, start_time)
    }

    fn observe(&mut self, session: SessionId, segment: SegmentId) -> u8 {
        self.inner.observe(session, segment)
    }

    fn observe_batch(&mut self, events: &[(SessionId, SegmentId)], out: &mut Vec<u8>) {
        self.inner.observe_batch(events, out)
    }

    fn close(&mut self, session: SessionId) -> Vec<u8> {
        self.inner.close(session)
    }

    fn active_sessions(&self) -> usize {
        self.inner.active_sessions()
    }

    fn maintain(&mut self) {
        self.inner.maintain()
    }

    fn admit(&self, segment: SegmentId) -> bool {
        self.inner.admit(segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Rl4oasdConfig;
    use crate::train::train;
    use rnet::{CityBuilder, CityConfig};
    use traj::{Dataset, TrafficConfig, TrafficSimulator};

    fn setup(seed: u64) -> (Arc<RoadNetwork>, Dataset, Arc<TrainedModel>) {
        let net = CityBuilder::new(CityConfig::tiny(seed)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 4,
            trajs_per_pair: (30, 50),
            anomaly_ratio: 0.15,
            ..TrafficConfig::tiny(seed)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        let ds = Dataset::from_generated(&data);
        let cfg = Rl4oasdConfig::tiny(seed);
        let model = train(&net, &ds, &cfg);
        (Arc::new(net), ds, Arc::new(model))
    }

    #[test]
    fn sharded_matches_single_engine_tick_for_tick() {
        let (net, ds, model) = setup(31);
        let trajs: Vec<_> = ds.trajectories.iter().take(20).cloned().collect();

        let mut single = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        let mut sharded = ShardedEngine::new(Arc::clone(&model), Arc::clone(&net), 4);
        assert_eq!(sharded.engine_name(), "RL4OASD");
        assert_eq!(sharded.num_shards(), 4);

        let hs: Vec<_> = trajs
            .iter()
            .map(|t| single.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        let hp: Vec<_> = trajs
            .iter()
            .map(|t| sharded.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        assert_eq!(sharded.active_sessions(), trajs.len());

        let max_len = trajs.iter().map(|t| t.len()).max().unwrap();
        let (mut out_s, mut out_p) = (Vec::new(), Vec::new());
        for tick in 0..max_len {
            let ev = |handles: &[SessionId]| -> Vec<_> {
                trajs
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| tick < t.len())
                    .map(|(k, t)| (handles[k], t.segments[tick]))
                    .collect()
            };
            single.observe_batch(&ev(&hs), &mut out_s);
            sharded.observe_batch(&ev(&hp), &mut out_p);
            assert_eq!(out_p, out_s, "tick {tick} labels diverged");
        }
        for (hs, hp) in hs.iter().zip(&hp) {
            assert_eq!(sharded.close(*hp), single.close(*hs));
        }
        assert_eq!(sharded.active_sessions(), 0);

        // Workload-invariant aggregates match the single engine; the
        // batched/scalar split legitimately differs (smaller per-shard
        // rounds), but every event is still accounted for exactly once.
        let (agg, one) = (sharded.stats(), single.stats());
        assert_eq!(agg.observe_events, one.observe_events);
        assert_eq!(agg.sessions_opened, one.sessions_opened);
        assert_eq!(agg.sessions_closed, one.sessions_closed);
        assert_eq!(
            agg.batched_events + agg.scalar_events,
            one.batched_events + one.scalar_events
        );
        assert_eq!(sharded.decision_counts(), single.decision_counts());
    }

    #[test]
    fn sessions_spread_across_shards() {
        let (net, _, model) = setup(32);
        let mut engine = ShardedEngine::new(model, net, 4);
        let sd = SdPair {
            source: SegmentId(0),
            dest: SegmentId(1),
        };
        let handles: Vec<_> = (0..64).map(|i| engine.open(sd, i as f64)).collect();
        let mut per_shard = vec![0usize; engine.num_shards()];
        for &h in &handles {
            per_shard[engine.shard_of(h)] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "64 sessions left a shard empty: {per_shard:?}"
        );
        let opened: u64 = engine.shard_stats().iter().map(|s| s.sessions_opened).sum();
        assert_eq!(opened, 64);
        for h in handles {
            engine.close(h);
        }
        assert_eq!(engine.stats().sessions_closed, 64);
    }

    #[test]
    fn admit_matches_single_engine() {
        let (net, _, model) = setup(34);
        let single = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        let last = SegmentId(net.num_segments() as u32 - 1);
        let past = SegmentId(net.num_segments() as u32);
        assert!(single.admit(last));
        assert!(!single.admit(past));
        for shards in [1, 2, 8] {
            let sharded = ShardedEngine::new(Arc::clone(&model), Arc::clone(&net), shards);
            for segment in [last, past] {
                assert_eq!(
                    sharded.admit(segment),
                    single.admit(segment),
                    "{shards} shards disagree on {segment:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let (net, _, model) = setup(33);
        let _ = ShardedEngine::new(model, net, 0);
    }
}
