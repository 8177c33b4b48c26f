//! Fleet-scale serving: multiplex thousands of concurrent trajectory
//! sessions over one shared, immutable trained model.
//!
//! The paper's motivating scenario is an operator watching *many* ongoing
//! trips at once. [`StreamEngine`] is that serving layer for RL4OASD:
//!
//! * **shared state** — `Arc<TrainedModel>` + `Arc<RoadNetwork>`, never
//!   mutated while serving (cheap to share across engines or threads).
//!   Model ownership is **per-session**, organised in *epochs*: every
//!   session is pinned at `open` to the engine's current model epoch, and
//!   [`StreamEngine::swap_model`] installs a new epoch for *future* opens
//!   without touching the sessions already running — their label streams
//!   stay self-consistent on the weights they started with, and an old
//!   epoch's `Arc<TrainedModel>` is released the moment its last session
//!   closes (live-session refcounts per epoch; see `tests/hotswap.rs`);
//! * **per-session state** — a compact crate-private `SessionState`: the
//!   LSTM stream
//!   vectors, previous segment/label and the provisional label buffer,
//!   plus the session's model-epoch id; opening a session allocates two
//!   `hidden_dim` vectors and nothing else;
//! * **batched ticks** — [`StreamEngine::observe_batch`] advances every
//!   session that received a point in the same tick through *one* LSTM
//!   pass over the packed recurrent gate matrix, each lane reading its
//!   segment's input-gate table row (`RsrNet::stream_step_batch`), and
//!   one policy-head pass, instead of N scalar passes. The batched
//!   kernels use the exact accumulation order of the scalar path, so
//!   labels are **bit-identical** to driving each trajectory alone
//!   through [`Rl4oasdDetector`](crate::Rl4oasdDetector) — interleaving never
//!   changes results (property-tested in `tests/engine.rs`).
//!
//! The engine implements [`traj::SessionEngine`]; the per-trajectory
//! [`traj::OnlineDetector`] view of the same model is
//! [`Rl4oasdDetector`](crate::Rl4oasdDetector).

use crate::detector::{DecisionCounters, ModelView, Pending, SessionState, StepScratch};
use crate::rsrnet::RsrBatch;
use crate::train::TrainedModel;
use obs::{names, Counter, Gauge, Obs, OpsEvent, Span, Stage, StageHandle};
use rnet::{RoadNetwork, SegmentId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use traj::{Hibernate, SdPair, SessionEngine, SessionId, SessionSlab};

/// Lanes a batched round advances together. The round's gather, gate and
/// head buffers are sized by this, not by the round — a loaded door's
/// round is its whole flush, an `observe_batch` over a fleet thousands of
/// sessions — so they stay cache-resident and the engine's scratch does not
/// grow with the batch. 16 lanes already reuse each gate-matrix load as
/// well as 256 do. Labels cannot depend on it: every lane is bit-identical
/// to the scalar path.
const ROUND_BLOCK: usize = 16;

/// Serving statistics (cumulative counters since construction, plus
/// point-in-time memory-tier gauges sampled at [`StreamEngine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions closed.
    pub sessions_closed: u64,
    /// Total `observe` events processed (scalar and batched).
    pub observe_events: u64,
    /// Events advanced through the batched nn pass.
    pub batched_events: u64,
    /// Batched rounds executed (each is one LSTM matrix pass per 16
    /// lanes).
    pub batched_rounds: u64,
    /// Events advanced through the scalar path (single-session ticks).
    pub scalar_events: u64,
    /// Model hot-swaps applied ([`StreamEngine::swap_model`]). Sharded and
    /// ingest engines broadcast one swap per shard, so their aggregated
    /// count is `shards × swaps`.
    pub model_swaps: u64,
    /// Sessions frozen into the cold tier (cumulative; a session
    /// hibernating twice counts twice).
    pub sessions_hibernated: u64,
    /// Sessions rehydrated from the cold tier (cumulative).
    pub sessions_rehydrated: u64,
    /// Gauge: open sessions currently resident (hot tier).
    pub resident_sessions: u64,
    /// Gauge: open sessions currently hibernated (cold tier).
    pub frozen_sessions: u64,
    /// Gauge: estimated bytes of the hot tier — per-session entry + heap
    /// (stream vectors, label buffers) plus the slot-map overhead.
    pub resident_bytes: u64,
    /// Gauge: payload bytes of all frozen sessions (the per-session
    /// cold-tier cost; divide by [`EngineStats::frozen_sessions`]).
    pub frozen_bytes: u64,
    /// Gauge: total allocated cold-tier footprint (arena chunks + entry
    /// table), ≥ [`EngineStats::frozen_bytes`].
    pub frozen_footprint_bytes: u64,
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: Self) {
        // Exhaustive destructuring: adding a field to EngineStats without
        // aggregating it here must fail to compile, not silently report 0
        // in sharded totals. Gauges sum to fleet-wide totals.
        let EngineStats {
            sessions_opened,
            sessions_closed,
            observe_events,
            batched_events,
            batched_rounds,
            scalar_events,
            model_swaps,
            sessions_hibernated,
            sessions_rehydrated,
            resident_sessions,
            frozen_sessions,
            resident_bytes,
            frozen_bytes,
            frozen_footprint_bytes,
        } = rhs;
        self.sessions_opened += sessions_opened;
        self.sessions_closed += sessions_closed;
        self.observe_events += observe_events;
        self.batched_events += batched_events;
        self.batched_rounds += batched_rounds;
        self.scalar_events += scalar_events;
        self.model_swaps += model_swaps;
        self.sessions_hibernated += sessions_hibernated;
        self.sessions_rehydrated += sessions_rehydrated;
        self.resident_sessions += resident_sessions;
        self.frozen_sessions += frozen_sessions;
        self.resident_bytes += resident_bytes;
        self.frozen_bytes += frozen_bytes;
        self.frozen_footprint_bytes += frozen_footprint_bytes;
    }
}

/// Per-model-epoch serving counters, indexed by **swap sequence number**:
/// entry 0 is the model the engine was built with, entry `k` the model
/// installed by the `k`-th [`StreamEngine::swap_model`]. Entries persist
/// after their epoch retires, so post-hoc slicing (e.g. the memory bench)
/// sees every epoch that ever served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Labels decided under this epoch (one per observed segment).
    pub decisions: u64,
    /// Anomalous (label 1) decisions under this epoch.
    pub alerts: u64,
}

impl std::ops::AddAssign for EpochStats {
    fn add_assign(&mut self, rhs: Self) {
        let EpochStats { decisions, alerts } = rhs;
        self.decisions += decisions;
        self.alerts += alerts;
    }
}

/// Idle-session hibernation policy of a [`StreamEngine`]. TTLs are in
/// engine **ticks** (one `observe_batch` call, or one standalone scalar
/// `observe`) — never wall clock, so the hot path stays clock-free and
/// runs are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HibernationConfig {
    /// Freeze a session once at least this many ticks passed since its
    /// last event. `0` freezes every hot session at every sweep (the
    /// adversarial schedule of the equivalence property test).
    pub idle_ticks: u64,
    /// Run the idle sweep every this many ticks (clamped to ≥ 1).
    /// Sweeps also run at every ingest flush boundary via
    /// [`traj::SessionEngine::maintain`].
    pub sweep_every: u64,
}

impl Default for HibernationConfig {
    fn default() -> Self {
        HibernationConfig {
            idle_ticks: 64,
            sweep_every: 16,
        }
    }
}

impl HibernationConfig {
    /// The adversarial schedule: every hot session is frozen at every
    /// tick boundary (and thawed again on its next event). Maximises
    /// freeze/thaw churn; labels must still be byte-identical to a
    /// never-hibernated engine.
    pub fn freeze_every_tick() -> Self {
        HibernationConfig {
            idle_ticks: 0,
            sweep_every: 1,
        }
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(EngineStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

/// Reusable per-tick buffers so a warm engine allocates almost nothing.
#[derive(Default)]
struct TickScratch {
    rsr: RsrBatch,
    /// Scalar-path step buffers (single-session `observe` ticks).
    step: StepScratch,
    inputs: Vec<(SegmentId, u8)>,
    /// Flat `batch × z_dim` representations of the current round.
    zs: Vec<f32>,
    head_in: Vec<f32>,
    head_out: Vec<f32>,
    policy_lanes: Vec<usize>,
    round: Vec<u32>,
    deferred: Vec<u32>,
    remaining: Vec<u32>,
    seen: HashSet<SessionId>,
    /// Sessions moved out of the slab for the current round. The per-round
    /// `Vec<&mut RsrStream>` of phase 2 cannot live here (it borrows into
    /// these lanes), so that one small pointer array remains the only
    /// per-round allocation.
    lanes: Vec<(u32, SegmentId, SessionState, Pending)>,
    /// Session ids collected by the idle sweep (reused across sweeps).
    sweep: Vec<SessionId>,
}

/// One model generation an engine is (or was) serving: the shared weights
/// plus how many open sessions still run on them. Retired (dropped) as
/// soon as it is no longer current *and* its last session closed — the
/// engine never pins more `Arc<TrainedModel>`s than it has live
/// generations.
struct ModelEpoch {
    model: Arc<TrainedModel>,
    live_sessions: u32,
    /// Swap sequence number: index of this epoch's row in
    /// `StreamEngine::epoch_log`. Epoch *slots* are reused across swaps;
    /// `seq` is monotone and never reused.
    seq: u32,
}

/// Pre-resolved telemetry handles for one engine (= one shard). Built
/// once by [`StreamEngine::set_obs`], so serving never takes the registry
/// mutex — gauge mirroring and span recording go straight to relaxed
/// atomics. Engines without telemetry store `None` and pay one branch.
struct EngineObs {
    obs: Obs,
    shard: u32,
    shard_label: String,
    sweep: StageHandle,
    swap: StageHandle,
    hot_sessions: Gauge,
    frozen_sessions: Gauge,
    arena_bytes: Gauge,
    decisions: Counter,
    alerts: Counter,
    swaps: Counter,
    /// Arena compaction count at the last mirror; a higher value now
    /// means the cold tier compacted since (one `ArenaCompaction` event
    /// per observed step).
    last_compactions: u64,
}

impl EngineObs {
    fn resolve(obs: &Obs, shard: usize) -> Self {
        let shard_label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard_label)];
        EngineObs {
            obs: obs.clone(),
            shard: shard as u32,
            sweep: obs.stage(Stage::HibernateSweep, shard as u32),
            swap: obs.stage(Stage::SwapApply, shard as u32),
            hot_sessions: obs.gauge(
                names::ENGINE_SESSIONS,
                &[("shard", &shard_label), ("tier", "hot")],
            ),
            frozen_sessions: obs.gauge(
                names::ENGINE_SESSIONS,
                &[("shard", &shard_label), ("tier", "frozen")],
            ),
            arena_bytes: obs.gauge(names::ENGINE_ARENA_BYTES, labels),
            decisions: obs.counter(names::ENGINE_DECISIONS, labels),
            alerts: obs.counter(names::ENGINE_ALERTS, labels),
            swaps: obs.counter(names::ENGINE_SWAPS, labels),
            last_compactions: 0,
            shard_label,
        }
    }

    /// Resolves the per-epoch live-session gauge for swap sequence `seq`.
    /// Takes the registry mutex, so callers keep this off the per-flush
    /// path (epochs appear at swaps and disappear at retirement — rare).
    fn epoch_gauge(&self, seq: u32) -> Gauge {
        let seq = seq.to_string();
        self.obs.gauge(
            names::EPOCH_SESSIONS,
            &[("shard", &self.shard_label), ("epoch", &seq)],
        )
    }
}

/// One open session: the algorithmic state plus the id of the model epoch
/// it was opened under (and will run on until it closes).
struct SessionEntry {
    epoch: u32,
    /// Engine tick of this session's last event (or open/rehydration);
    /// the idle sweep freezes sessions whose `last_tick` is old enough.
    last_tick: u64,
    state: SessionState,
}

/// A multiplexing detection engine: one shared model, thousands of cheap
/// concurrent sessions, batched nn steps per tick, and zero-downtime model
/// hot-swap ([`StreamEngine::swap_model`]) with per-session model epochs.
pub struct StreamEngine {
    /// Model epochs by id; retired entries are `None` (slots are reused by
    /// later swaps, so the vec stays as short as the number of epochs that
    /// ever ran concurrently — typically 1 or 2).
    epochs: Vec<Option<ModelEpoch>>,
    /// Epoch id new sessions are opened under.
    current: u32,
    /// Scoped model registry: scope (tenant) id → epoch id. Sessions
    /// opened via [`SessionEngine::open_scoped`] with a mapped scope pin
    /// that scope's epoch instead of `current`; unmapped scopes (and
    /// scope 0 by convention) fall back to `current`. A mapped epoch is
    /// pinned — never retired — even with zero live sessions, since the
    /// scope needs it for future opens.
    scopes: HashMap<u32, u32>,
    net: Arc<RoadNetwork>,
    sessions: SessionSlab<SessionEntry>,
    counters: DecisionCounters,
    stats: EngineStats,
    scratch: TickScratch,
    /// Idle-session hibernation policy; `None` keeps every session hot.
    hibernation: Option<HibernationConfig>,
    /// Engine tick counter: one per `observe_batch` call and one per
    /// standalone scalar `observe`. The clock of the idle-TTL sweep.
    tick: u64,
    /// Per-epoch serving counters by swap sequence number (grows by one
    /// per swap, entries are never removed).
    epoch_log: Vec<EpochStats>,
    /// Pre-resolved telemetry handles; `None` (the default) keeps the
    /// serving path telemetry-free. See [`StreamEngine::set_obs`].
    obs: Option<EngineObs>,
}

impl StreamEngine {
    /// Builds an engine over a shared trained model and road network.
    /// The model is packed here, on the constructing thread, so the first
    /// `observe` never pays for it.
    pub fn new(model: Arc<TrainedModel>, net: Arc<RoadNetwork>) -> Self {
        model.packed();
        StreamEngine {
            epochs: vec![Some(ModelEpoch {
                model,
                live_sessions: 0,
                seq: 0,
            })],
            current: 0,
            scopes: HashMap::new(),
            net,
            sessions: SessionSlab::new(),
            counters: DecisionCounters::default(),
            stats: EngineStats::default(),
            scratch: TickScratch::default(),
            hibernation: None,
            tick: 0,
            epoch_log: vec![EpochStats::default()],
            obs: None,
        }
    }

    /// Builder form of [`StreamEngine::set_obs`].
    pub fn with_obs(mut self, obs: &Obs, shard: usize) -> Self {
        self.set_obs(obs, shard);
        self
    }

    /// Wires telemetry: resolves this engine's counter/gauge/stage
    /// handles from `obs` under the shard label `shard`. Passing a
    /// disabled handle clears the wiring, restoring the zero-cost
    /// default. Labels are never affected either way (property-tested in
    /// `tests/obs.rs`).
    pub fn set_obs(&mut self, obs: &Obs, shard: usize) {
        self.obs = obs.enabled().then(|| EngineObs::resolve(obs, shard));
    }

    /// Builder form of [`StreamEngine::set_hibernation`].
    pub fn with_hibernation(mut self, cfg: HibernationConfig) -> Self {
        self.set_hibernation(Some(cfg));
        self
    }

    /// Enables (or, with `None`, disables) idle-session hibernation.
    /// Disabling stops future sweeps; already-frozen sessions stay cold
    /// and thaw lazily on their next event or close.
    pub fn set_hibernation(&mut self, cfg: Option<HibernationConfig>) {
        self.hibernation = cfg;
    }

    /// The active hibernation policy, if any.
    pub fn hibernation(&self) -> Option<HibernationConfig> {
        self.hibernation
    }

    /// The model new sessions are currently opened under (sessions opened
    /// before the last [`StreamEngine::swap_model`] may still be running
    /// on an older one).
    pub fn model(&self) -> &Arc<TrainedModel> {
        &self.epoch(self.current).model
    }

    /// Installs `model` as the serving model for every session opened from
    /// now on. Zero-downtime by construction: sessions already open keep
    /// the `Arc` of the model they started with (their label streams stay
    /// self-consistent — no event is dropped, reordered or relabelled),
    /// and that old model is freed when its last session closes. The swap
    /// itself touches no session state, so it is safe at any point between
    /// ticks; under the async front door it is applied at a flush boundary
    /// (see `SwapModel::swap_model`).
    ///
    /// Swapping while the *current* epoch has no open sessions retires it
    /// immediately.
    pub fn swap_model(&mut self, model: Arc<TrainedModel>) {
        let span = match &self.obs {
            Some(o) => o.swap.start(),
            None => Span::none(),
        };
        let outgoing = self.current;
        let (id, seq) = self.install_epoch(model);
        self.current = id;
        let retired_seq = self.retire_if_idle(outgoing);
        self.stats.model_swaps += 1;
        if let Some(o) = &self.obs {
            o.swaps.set(self.stats.model_swaps);
            o.obs.event(OpsEvent::ModelSwapApplied {
                shard: o.shard,
                seq: u64::from(seq),
                retired: u64::from(retired_seq.is_some()),
            });
            o.swap.finish(span);
        }
    }

    /// Installs `model` as the serving model for **scope** (tenant)
    /// `scope`: sessions opened via [`SessionEngine::open_scoped`] with
    /// this scope id pin the new epoch; every other scope — and plain
    /// [`SessionEngine::open`], which serves scope 0 — is untouched. Like
    /// [`StreamEngine::swap_model`] this is zero-downtime: the scope's
    /// already-open sessions keep the model they started with, and the
    /// scope's previous epoch retires once its last session closes.
    pub fn set_scope_model(&mut self, scope: u32, model: Arc<TrainedModel>) {
        let (id, seq) = self.install_epoch(model);
        let prev = self.scopes.insert(scope, id);
        // The previous scope epoch is unpinned now; with no open
        // sessions it retires immediately, otherwise `release_epoch`
        // retires it when the last one closes.
        let retired = match prev {
            Some(prev) => self.retire_if_idle(prev).is_some(),
            None => false,
        };
        self.stats.model_swaps += 1;
        if let Some(o) = &self.obs {
            o.swaps.set(self.stats.model_swaps);
            o.obs.event(OpsEvent::ModelSwapApplied {
                shard: o.shard,
                seq: u64::from(seq),
                retired: u64::from(retired),
            });
        }
    }

    /// The swap sequence number of the epoch that a
    /// [`SessionEngine::open_scoped`] for `scope` would pin right now
    /// (the scope's mapped epoch, falling back to the engine-wide
    /// current one). Serving tiers report this to clients so a tenant
    /// can tell which model generation labelled its stream.
    pub fn scope_epoch_seq(&self, scope: u32) -> u32 {
        let id = self.scopes.get(&scope).copied().unwrap_or(self.current);
        self.epoch(id).seq
    }

    /// Allocates a fresh epoch (slot + swap sequence number) for `model`
    /// without re-pointing anything at it — the shared tail of
    /// [`StreamEngine::swap_model`] and [`StreamEngine::set_scope_model`].
    fn install_epoch(&mut self, model: Arc<TrainedModel>) -> (u32, u32) {
        model.packed();
        let seq = u32::try_from(self.epoch_log.len()).expect("more than 2^32 model swaps");
        self.epoch_log.push(EpochStats::default());
        let epoch = ModelEpoch {
            model,
            live_sessions: 0,
            seq,
        };
        let id = match self.epochs.iter().position(Option::is_none) {
            Some(free) => {
                self.epochs[free] = Some(epoch);
                free
            }
            None => {
                self.epochs.push(Some(epoch));
                self.epochs.len() - 1
            }
        };
        let id = u32::try_from(id).expect("more than 2^32 live model epochs");
        (id, seq)
    }

    /// Opens a session pinned to epoch `id` — the shared tail of the
    /// trait `open` (current epoch) and `open_scoped` (scope-mapped
    /// epoch).
    fn open_on_epoch(&mut self, epoch: u32, sd: SdPair, start_time: f64) -> SessionId {
        let e = self.epochs[epoch as usize]
            .as_mut()
            .expect("opening epoch is always live");
        e.live_sessions += 1;
        let view = ModelView::of(&e.model, &self.net);
        let state = SessionState::open(&view, sd, start_time);
        self.stats.sessions_opened += 1;
        let last_tick = self.tick;
        self.sessions.insert(SessionEntry {
            epoch,
            last_tick,
            state,
        })
    }

    /// Retires epoch `id` — freeing its `Arc<TrainedModel>` — iff it has
    /// no live sessions and nothing pins it: neither the engine-wide
    /// `current` pointer nor any scope mapping. Returns the retired
    /// epoch's swap sequence number, or `None` if it stays live.
    fn retire_if_idle(&mut self, id: u32) -> Option<u32> {
        let pinned = id == self.current || self.scopes.values().any(|&e| e == id);
        let e = self.epochs[id as usize]
            .as_ref()
            .expect("model epoch retired while referenced");
        if pinned || e.live_sessions != 0 {
            return None;
        }
        let seq = e.seq;
        self.epochs[id as usize] = None;
        if let Some(o) = &self.obs {
            // Retirement is rare, so resolving the gauge (registry
            // lock) here is fine; zeroing it keeps the export from
            // showing sessions pinned to a model that is gone.
            o.epoch_gauge(seq).set(0);
            o.obs.event(OpsEvent::EpochRetired {
                shard: o.shard,
                seq: u64::from(seq),
            });
        }
        Some(seq)
    }

    /// Number of model generations currently alive in this engine: the
    /// serving model plus every older model kept alive by still-open
    /// pre-swap sessions. `1` when no swap is mid-drain.
    pub fn live_model_epochs(&self) -> usize {
        self.epochs.iter().filter(|e| e.is_some()).count()
    }

    fn epoch(&self, id: u32) -> &ModelEpoch {
        self.epochs[id as usize]
            .as_ref()
            .expect("model epoch retired while referenced")
    }

    /// Drops one session's claim on its epoch, retiring the epoch (and
    /// releasing its `Arc<TrainedModel>`) when it was the last session of
    /// a no-longer-current model.
    fn release_epoch(&mut self, id: u32) {
        let e = self.epochs[id as usize]
            .as_mut()
            .expect("model epoch retired while referenced");
        e.live_sessions -= 1;
        if e.live_sessions == 0 {
            self.retire_if_idle(id);
        }
    }

    /// The shared road network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// Cumulative serving statistics, with memory-tier gauges sampled now:
    /// resident/frozen session counts and estimated bytes per tier.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.resident_sessions = self.sessions.resident_len() as u64;
        stats.frozen_sessions = self.sessions.frozen_len() as u64;
        let hot_heap: usize = self
            .sessions
            .iter_hot()
            .map(|(_, e)| std::mem::size_of::<SessionEntry>() + e.state.resident_heap_bytes())
            .sum();
        stats.resident_bytes = (hot_heap + self.sessions.slot_overhead_bytes()) as u64;
        stats.frozen_bytes = self.sessions.frozen_bytes() as u64;
        stats.frozen_footprint_bytes = self.sessions.frozen_footprint_bytes() as u64;
        if let Some(o) = &self.obs {
            // Full mirror: the cheap per-flush set, plus the per-epoch
            // live-session gauges (resolved on demand — epochs come and
            // go, and stats() is never on the flush path).
            self.mirror_cheap_gauges(o);
            for e in self.epochs.iter().flatten() {
                o.epoch_gauge(e.seq).set(u64::from(e.live_sessions));
            }
        }
        stats
    }

    /// Mirrors the O(1) serving gauges and cumulative counters into the
    /// telemetry registry through pre-resolved handles — no locks, no
    /// session walk, safe at every flush boundary.
    fn mirror_cheap_gauges(&self, o: &EngineObs) {
        o.hot_sessions.set(self.sessions.resident_len() as u64);
        o.frozen_sessions.set(self.sessions.frozen_len() as u64);
        o.arena_bytes
            .set(self.sessions.frozen_footprint_bytes() as u64);
        let (decisions, alerts) = self
            .epoch_log
            .iter()
            .fold((0, 0), |(d, a), e| (d + e.decisions, a + e.alerts));
        o.decisions.set(decisions);
        o.alerts.set(alerts);
        o.swaps.set(self.stats.model_swaps);
    }

    /// Flush-boundary telemetry hook: mirrors the cheap gauges and emits
    /// an [`OpsEvent::ArenaCompaction`] when the cold-tier arena
    /// compacted since the last mirror.
    fn mirror_obs(&mut self) {
        let compactions = self.sessions.compactions();
        if let Some(o) = &mut self.obs {
            if compactions > o.last_compactions {
                o.last_compactions = compactions;
                o.obs.event(OpsEvent::ArenaCompaction {
                    shard: o.shard,
                    compactions,
                });
            }
        }
        if let Some(o) = &self.obs {
            self.mirror_cheap_gauges(o);
        }
    }

    /// Per-epoch decision/alert counters by swap sequence number: entry 0
    /// is the construction model, entry `k` the model installed by the
    /// `k`-th [`StreamEngine::swap_model`]. Retired epochs keep their row.
    pub fn epoch_stats(&self) -> &[EpochStats] {
        &self.epoch_log
    }

    /// Freezes one hot session into the cold tier: its state is
    /// delta-encoded against its epoch's initial stream state and parked
    /// in the slab's frozen arena. The epoch id rides as a 4-byte prefix
    /// *outside* the blob, so the epoch's `live_sessions` pin is
    /// untouched — a frozen session keeps its pre-swap model alive
    /// exactly like a hot one (hot-swap drop-order is preserved).
    fn hibernate_session(&mut self, id: SessionId) {
        let epochs = &self.epochs;
        let net = &self.net;
        self.sessions.freeze_with(id, |entry, out| {
            out.extend_from_slice(&entry.epoch.to_le_bytes());
            let view = ModelView::of(
                &epochs[entry.epoch as usize]
                    .as_ref()
                    .expect("model epoch retired while referenced")
                    .model,
                net,
            );
            entry.state.freeze(&view, out);
        });
        self.stats.sessions_hibernated += 1;
    }

    /// Thaws one frozen session back into the hot tier (exact restore:
    /// the rebuilt state is byte-identical to the state that froze) and
    /// stamps it live at the current tick.
    fn rehydrate_session(&mut self, id: SessionId) {
        let epochs = &self.epochs;
        let net = &self.net;
        let tick = self.tick;
        self.sessions.thaw_with(id, |bytes| {
            let (head, rest) = bytes.split_at(4);
            let epoch = u32::from_le_bytes(head.try_into().expect("4-byte epoch prefix"));
            let view = ModelView::of(
                &epochs[epoch as usize]
                    .as_ref()
                    .expect("model epoch retired while referenced")
                    .model,
                net,
            );
            SessionEntry {
                epoch,
                last_tick: tick,
                state: SessionState::thaw(&view, rest),
            }
        });
        self.stats.sessions_rehydrated += 1;
    }

    /// Freezes every hot session idle for at least `idle_ticks`. No-op
    /// without a hibernation policy.
    fn sweep_idle(&mut self) {
        let Some(cfg) = self.hibernation else { return };
        let span = match &self.obs {
            Some(o) => o.sweep.start(),
            None => Span::none(),
        };
        let tick = self.tick;
        let mut sweep = std::mem::take(&mut self.scratch.sweep);
        sweep.clear();
        sweep.extend(
            self.sessions
                .iter_hot()
                .filter(|(_, e)| tick.saturating_sub(e.last_tick) >= cfg.idle_ticks)
                .map(|(id, _)| id),
        );
        for &id in &sweep {
            self.hibernate_session(id);
        }
        let swept = sweep.len() as u64;
        self.scratch.sweep = sweep;
        if let Some(o) = &self.obs {
            o.sweep.finish(span);
            if swept > 0 {
                o.obs.event(OpsEvent::SweepStats {
                    shard: o.shard,
                    tick,
                    swept,
                });
            }
        }
    }

    /// Advances the tick clock and runs the idle sweep on `sweep_every`
    /// boundaries. Called once per tick, *after* every event of the tick
    /// has been applied — never mid-batch, so a sweep can never freeze a
    /// session that still has deferred events in the current tick.
    fn end_tick(&mut self) {
        self.tick = self.tick.wrapping_add(1);
        if let Some(cfg) = self.hibernation {
            if self.tick.is_multiple_of(cfg.sweep_every.max(1)) {
                self.sweep_idle();
            }
        }
    }

    /// `(RNEL short-circuits, policy invocations)` since construction.
    pub fn decision_counts(&self) -> (usize, usize) {
        (self.counters.rnel_hits, self.counters.policy_calls)
    }

    /// One scalar event, without touching the tick clock or sweeping —
    /// the shared core of the trait `observe` and the single-event rounds
    /// of `observe_batch` (which must not sweep mid-batch).
    fn observe_scalar(&mut self, session: SessionId, segment: SegmentId) -> u8 {
        if self.sessions.is_frozen(session) {
            self.rehydrate_session(session);
        }
        let epoch = self.sessions.get(session).epoch;
        // Field-precise borrows: the view borrows `epochs` + `net` only,
        // leaving `sessions`/`counters`/`scratch` free for the step.
        let view = ModelView::of(
            &self.epochs[epoch as usize]
                .as_ref()
                .expect("model epoch retired while referenced")
                .model,
            &self.net,
        );
        let entry = self.sessions.get_mut(session);
        entry.last_tick = self.tick;
        let label = entry
            .state
            .observe(&view, segment, &mut self.counters, &mut self.scratch.step);
        self.stats.observe_events += 1;
        self.stats.scalar_events += 1;
        let seq = self.epoch(epoch).seq as usize;
        self.epoch_log[seq].decisions += 1;
        self.epoch_log[seq].alerts += u64::from(label != 0);
        label
    }

    /// Advances one round of events whose sessions are pairwise distinct
    /// and share the model epoch `epoch`, using the batched LSTM and
    /// policy-head kernels of that epoch's packed weights, [`ROUND_BLOCK`]
    /// lanes at a time.
    fn observe_round(&mut self, events: &[(SessionId, SegmentId)], out: &mut [u8], epoch: u32) {
        let round = std::mem::take(&mut self.scratch.round);
        let batch = round.len();
        debug_assert!(batch > 1);
        let view = ModelView::of(
            &self.epochs[epoch as usize]
                .as_ref()
                .expect("model epoch retired while referenced")
                .model,
            &self.net,
        );

        let mut lanes = std::mem::take(&mut self.scratch.lanes);
        let mut alerts = 0u64;
        for block in round.chunks(ROUND_BLOCK) {
            // Phase 1: move the block's sessions out of the slab, resolve the
            // pre-nn plan (endpoint pinning, RNEL) and gather the nn inputs.
            lanes.clear();
            self.scratch.inputs.clear();
            for &ei in block {
                let (session, segment) = events[ei as usize];
                let entry = self.sessions.take(session);
                debug_assert_eq!(entry.epoch, epoch, "round mixes model epochs");
                let state = entry.state;
                let (nrf, is_endpoint) = state.pre_step(&view, segment);
                let pending = state.plan(&view, segment, is_endpoint, &mut self.counters);
                self.scratch.inputs.push((segment, nrf));
                lanes.push((ei, segment, state, pending));
            }

            // Phase 2: one batched LSTM pass (over the packed `W_h`, each
            // lane reading its segment's input-gate row) advances every
            // lane's stream.
            {
                let mut streams: Vec<&mut crate::rsrnet::RsrStream> = lanes
                    .iter_mut()
                    .map(|(_, _, state, _)| state.stream_mut())
                    .collect();
                view.rsrnet.stream_step_batch(
                    view.packed,
                    &mut self.scratch.rsr,
                    &self.scratch.inputs,
                    &mut streams,
                    &mut self.scratch.zs,
                );
            }

            // Phase 3: one batched head pass for the block's lanes whose
            // label was not fixed by endpoint pinning or RNEL.
            let z_dim = view.rsrnet.z_dim();
            self.scratch.policy_lanes.clear();
            self.scratch.policy_lanes.extend(
                lanes
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, _, _, pending))| *pending == Pending::Policy)
                    .map(|(lane, _)| lane),
            );
            if !self.scratch.policy_lanes.is_empty() {
                self.scratch.head_in.clear();
                let head = if view.config.use_asdnet {
                    for &lane in &self.scratch.policy_lanes {
                        let z = &self.scratch.zs[lane * z_dim..(lane + 1) * z_dim];
                        lanes[lane]
                            .2
                            .append_policy_state(&view, z, &mut self.scratch.head_in);
                    }
                    &view.packed.policy
                } else {
                    for &lane in &self.scratch.policy_lanes {
                        self.scratch
                            .head_in
                            .extend_from_slice(&self.scratch.zs[lane * z_dim..(lane + 1) * z_dim]);
                    }
                    &view.packed.head
                };
                self.scratch.head_out.clear();
                self.scratch
                    .head_out
                    .resize(self.scratch.policy_lanes.len() * 2, 0.0);
                head.infer_batch(
                    &self.scratch.head_in,
                    self.scratch.policy_lanes.len(),
                    &mut self.scratch.head_out,
                );
                for (k, &lane) in self.scratch.policy_lanes.iter().enumerate() {
                    let logits = [
                        self.scratch.head_out[2 * k],
                        self.scratch.head_out[2 * k + 1],
                    ];
                    lanes[lane].3 =
                        Pending::Fixed(crate::asdnet::AsdNet::greedy_from_logits(logits));
                }
            }

            // Phase 4: commit labels and return the sessions to the slab.
            for (ei, segment, mut state, pending) in lanes.drain(..) {
                let (session, _) = events[ei as usize];
                let label = match pending {
                    Pending::Fixed(label) => label,
                    Pending::Policy => unreachable!("all policy lanes decided in phase 3"),
                };
                state.commit(segment, label);
                out[ei as usize] = label;
                alerts += u64::from(label != 0);
                self.sessions.restore(
                    session,
                    SessionEntry {
                        epoch,
                        last_tick: self.tick,
                        state,
                    },
                );
            }
        }

        self.stats.observe_events += batch as u64;
        self.stats.batched_events += batch as u64;
        self.stats.batched_rounds += 1;
        let seq = self.epoch(epoch).seq as usize;
        self.epoch_log[seq].decisions += batch as u64;
        self.epoch_log[seq].alerts += alerts;
        self.scratch.round = round;
        self.scratch.lanes = lanes;
    }
}

impl SessionEngine for StreamEngine {
    fn engine_name(&self) -> &'static str {
        "RL4OASD"
    }

    /// Poison pre-screen: a segment id at or beyond the road network's
    /// segment count would index out of range inside the embedding lookup
    /// (an `observe` panic, not a label). Rejecting it here lets the
    /// ingest supervisor quarantine the one offending session instead of
    /// crash-restarting the whole shard.
    fn admit(&self, segment: SegmentId) -> bool {
        segment.idx() < self.net.num_segments()
    }

    /// Opens a session pinned to the engine's **current** model epoch; a
    /// later [`StreamEngine::swap_model`] does not affect it.
    fn open(&mut self, sd: SdPair, start_time: f64) -> SessionId {
        let epoch = self.current;
        self.open_on_epoch(epoch, sd, start_time)
    }

    /// Opens a session pinned to `scope`'s mapped model epoch (see
    /// [`StreamEngine::set_scope_model`]); an unmapped scope — including
    /// scope 0, the default tenant — pins the engine-wide current epoch,
    /// making this identical to [`SessionEngine::open`].
    fn open_scoped(&mut self, scope: u32, sd: SdPair, start_time: f64) -> SessionId {
        let epoch = self.scopes.get(&scope).copied().unwrap_or(self.current);
        self.open_on_epoch(epoch, sd, start_time)
    }

    /// A standalone scalar event is one engine tick: frozen sessions thaw
    /// transparently on access, and the idle sweep may run afterwards.
    fn observe(&mut self, session: SessionId, segment: SegmentId) -> u8 {
        let label = self.observe_scalar(session, segment);
        self.end_tick();
        label
    }

    /// Batched tick: every session that received a point this tick advances
    /// through one LSTM matrix pass (and one head pass) instead of N scalar
    /// passes. Sessions appearing multiple times in `events` are applied in
    /// order across successive sub-rounds. After a hot-swap, sessions on
    /// different model epochs may share a tick; each round runs sessions of
    /// one epoch (one set of packed weights), deferring the rest — the
    /// batched kernels stay bit-identical to the scalar path per epoch, so
    /// mixing epochs in a tick never changes labels.
    fn observe_batch(&mut self, events: &[(SessionId, SegmentId)], out: &mut Vec<u8>) {
        out.clear();
        out.resize(events.len(), 0);
        // Thaw prepass: every frozen session with an event this tick comes
        // back hot before round selection reads its epoch. Gated on the
        // cold tier being non-empty so the hibernation-off path pays one
        // counter read per batch, not a per-event branch.
        if self.sessions.frozen_len() > 0 {
            for &(session, _) in events {
                if self.sessions.is_frozen(session) {
                    self.rehydrate_session(session);
                }
            }
        }
        let mut remaining = std::mem::take(&mut self.scratch.remaining);
        remaining.clear();
        remaining.extend(0..events.len() as u32);
        let mut seen = std::mem::take(&mut self.scratch.seen);
        while !remaining.is_empty() {
            // Select a round in which each session appears at most once and
            // every session shares the first event's model epoch; later
            // duplicates and other-epoch sessions are deferred to the next
            // round (per-session event order is preserved: once a session
            // is deferred, all its later events defer behind it).
            seen.clear();
            let mut round = std::mem::take(&mut self.scratch.round);
            let mut deferred = std::mem::take(&mut self.scratch.deferred);
            round.clear();
            deferred.clear();
            let mut round_epoch = self.current;
            for &ei in &remaining {
                let session = events[ei as usize].0;
                let epoch = self.sessions.get(session).epoch;
                if round.is_empty() {
                    round_epoch = epoch;
                }
                if epoch == round_epoch && seen.insert(session) {
                    round.push(ei);
                } else {
                    deferred.push(ei);
                }
            }
            if round.len() == 1 {
                let ei = round[0] as usize;
                let (session, segment) = events[ei];
                // observe_scalar, not observe: the whole batch is ONE tick,
                // and sweeping mid-batch could freeze a session that still
                // has deferred events in a later round.
                out[ei] = self.observe_scalar(session, segment);
                self.scratch.round = round;
            } else {
                self.scratch.round = round;
                self.observe_round(events, out, round_epoch);
            }
            std::mem::swap(&mut remaining, &mut deferred);
            self.scratch.deferred = deferred;
        }
        self.scratch.remaining = remaining;
        self.scratch.seen = seen;
        self.end_tick();
    }

    fn close(&mut self, session: SessionId) -> Vec<u8> {
        // A frozen session can be closed: thaw (exact restore) and finish.
        if self.sessions.is_frozen(session) {
            self.rehydrate_session(session);
        }
        let SessionEntry {
            epoch, mut state, ..
        } = self.sessions.remove(session);
        self.stats.sessions_closed += 1;
        let labels = {
            let view = ModelView::of(
                &self.epochs[epoch as usize]
                    .as_ref()
                    .expect("model epoch retired while referenced")
                    .model,
                &self.net,
            );
            state.finish(&view)
        };
        // Last pre-swap session of an old epoch gone => the old model's
        // `Arc` is released right here (property-tested in
        // `tests/hotswap.rs`).
        self.release_epoch(epoch);
        labels
    }

    fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Flush-boundary hook: the async ingest workers call this after each
    /// flush (the same seam hot-swap control commands use), forcing one
    /// idle sweep under the configured policy. No-op when hibernation is
    /// disabled; never changes labels.
    fn maintain(&mut self) {
        self.sweep_idle();
        self.mirror_obs();
    }

    /// Crash salvage: the successor takes this engine's whole control
    /// plane (epochs, scopes, `epoch_log`, stats, counters, hibernation,
    /// telemetry, tick) and its slab, so a restart rolls back no swap and
    /// every salvaged session keeps its `SessionId`; only the tick scratch
    /// is new. Slots an aborted round left taken are dropped, and so is
    /// any session that fails a freeze → thaw round trip (a frozen one,
    /// its thaw) under `catch_unwind`. Epoch live counts are recounted
    /// from the survivors and unpinned epochs retire: no old model leaks.
    fn successor(&mut self) -> Option<(Self, Vec<SessionId>)> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut next = StreamEngine {
            epochs: std::mem::take(&mut self.epochs),
            scopes: std::mem::take(&mut self.scopes),
            net: Arc::clone(&self.net),
            sessions: std::mem::take(&mut self.sessions),
            scratch: TickScratch::default(),
            epoch_log: std::mem::take(&mut self.epoch_log),
            obs: self.obs.take(),
            // current, counters, stats, hibernation, tick: copied.
            ..*self
        };
        next.sessions.drop_taken();
        let mut blob = Vec::new();
        let hot: Vec<SessionId> = next.sessions.iter_hot().map(|(id, _)| id).collect();
        for id in hot {
            let sound = catch_unwind(AssertUnwindSafe(|| {
                let entry = next.sessions.get_mut(id);
                let view = ModelView::of(
                    &next.epochs[entry.epoch as usize]
                        .as_ref()
                        .expect("model epoch retired while referenced")
                        .model,
                    &next.net,
                );
                blob.clear();
                entry.state.freeze(&view, &mut blob);
                entry.state = SessionState::thaw(&view, &blob);
            }));
            if sound.is_err() {
                next.sessions.remove(id);
            }
        }
        let frozen: Vec<SessionId> = next.sessions.frozen_ids().collect();
        for id in frozen {
            if catch_unwind(AssertUnwindSafe(|| next.rehydrate_session(id))).is_err() {
                next.sessions.take_frozen(id);
            }
        }
        for e in next.epochs.iter_mut().flatten() {
            e.live_sessions = 0;
        }
        let mut kept = Vec::with_capacity(next.sessions.len());
        for (id, entry) in next.sessions.iter_hot() {
            kept.push(id);
            next.epochs[entry.epoch as usize]
                .as_mut()
                .expect("a thawed session's epoch is live")
                .live_sessions += 1;
        }
        for id in 0..next.epochs.len() as u32 {
            if next.epochs[id as usize].is_some() {
                next.retire_if_idle(id);
            }
        }
        Some((next, kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Rl4oasdConfig;
    use crate::detector::Rl4oasdDetector;
    use crate::train::train;
    use rnet::{CityBuilder, CityConfig};
    use traj::{Dataset, OnlineDetector, TrafficConfig, TrafficSimulator};

    fn setup(seed: u64) -> (Arc<RoadNetwork>, Dataset, Arc<TrainedModel>) {
        let net = CityBuilder::new(CityConfig::tiny(seed)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 4,
            trajs_per_pair: (40, 60),
            anomaly_ratio: 0.15,
            ..TrafficConfig::tiny(seed)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        let ds = Dataset::from_generated(&data);
        let cfg = Rl4oasdConfig::tiny(seed);
        let model = train(&net, &ds, &cfg);
        (Arc::new(net), ds, Arc::new(model))
    }

    /// Sequential per-trajectory labels via the single-session detector.
    fn sequential_labels(
        model: &TrainedModel,
        net: &RoadNetwork,
        trajs: &[traj::MappedTrajectory],
    ) -> Vec<Vec<u8>> {
        let mut det = Rl4oasdDetector::new(model, net);
        trajs.iter().map(|t| det.label_trajectory(t)).collect()
    }

    #[test]
    fn models_are_packed_before_the_first_observe() {
        let (net, _, model) = setup(22);
        assert!(!model.is_packed());
        let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        assert!(
            model.is_packed(),
            "new() leaves packing to the first observe"
        );
        // A clone starts unpacked; swapping it in packs it.
        for scoped in [false, true] {
            let next = Arc::new(TrainedModel::clone(&model));
            assert!(!next.is_packed());
            if scoped {
                engine.set_scope_model(7, Arc::clone(&next));
            } else {
                engine.swap_model(Arc::clone(&next));
            }
            assert!(next.is_packed(), "scoped swap: {scoped}");
        }
    }

    #[test]
    fn interleaved_ticks_match_sequential_labels() {
        let (net, ds, model) = setup(21);
        let trajs: Vec<_> = ds.trajectories.iter().take(24).cloned().collect();
        let expected = sequential_labels(&model, &net, &trajs);

        let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        let handles: Vec<_> = trajs
            .iter()
            .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        assert_eq!(engine.active_sessions(), trajs.len());

        // Tick-synchronous interleaving: every still-active trip advances
        // one segment per tick through the batched path.
        let max_len = trajs.iter().map(|t| t.len()).max().unwrap();
        let mut out = Vec::new();
        for tick in 0..max_len {
            let events: Vec<_> = trajs
                .iter()
                .enumerate()
                .filter(|(_, t)| tick < t.len())
                .map(|(k, t)| (handles[k], t.segments[tick]))
                .collect();
            engine.observe_batch(&events, &mut out);
            assert_eq!(out.len(), events.len());
        }
        let got: Vec<Vec<u8>> = handles.iter().map(|&h| engine.close(h)).collect();
        assert_eq!(got, expected, "interleaving changed labels");
        assert_eq!(engine.active_sessions(), 0);

        let stats = engine.stats();
        assert!(stats.batched_rounds > 0, "batched path never used");
        assert!(stats.batched_events > stats.scalar_events);
        assert_eq!(
            stats.observe_events,
            trajs.iter().map(|t| t.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn scalar_observe_matches_sequential_labels() {
        let (net, ds, model) = setup(22);
        let trajs: Vec<_> = ds.trajectories.iter().take(8).cloned().collect();
        let expected = sequential_labels(&model, &net, &trajs);

        // Round-robin single observes across all sessions at once.
        let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        let handles: Vec<_> = trajs
            .iter()
            .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        let max_len = trajs.iter().map(|t| t.len()).max().unwrap();
        for tick in 0..max_len {
            for (k, t) in trajs.iter().enumerate() {
                if tick < t.len() {
                    engine.observe(handles[k], t.segments[tick]);
                }
            }
        }
        let got: Vec<Vec<u8>> = handles.iter().map(|&h| engine.close(h)).collect();
        assert_eq!(got, expected);
        assert_eq!(engine.stats().batched_rounds, 0);
    }

    #[test]
    fn repeated_sessions_within_one_tick_are_ordered() {
        let (net, ds, model) = setup(23);
        let t = ds.trajectories[0].clone();
        let expected = sequential_labels(&model, &net, std::slice::from_ref(&t));

        // Feed an entire trajectory as one observe_batch call (the same
        // session repeats); sub-rounds must preserve per-session order.
        let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        let h = engine.open(t.sd_pair().unwrap(), t.start_time);
        let events: Vec<_> = t.segments.iter().map(|&s| (h, s)).collect();
        let mut out = Vec::new();
        engine.observe_batch(&events, &mut out);
        assert_eq!(out.len(), t.len());
        assert_eq!(engine.close(h), expected[0]);
    }

    #[test]
    fn sessions_are_cheap_to_open_and_close() {
        let (net, _, model) = setup(25);
        let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        let sd = SdPair {
            source: SegmentId(0),
            dest: SegmentId(1),
        };
        let handles: Vec<_> = (0..5000).map(|i| engine.open(sd, i as f64)).collect();
        assert_eq!(engine.active_sessions(), 5000);
        for h in handles {
            assert!(engine.close(h).is_empty());
        }
        assert_eq!(engine.active_sessions(), 0);
        assert_eq!(engine.stats().sessions_closed, 5000);
    }

    #[test]
    fn swap_model_affects_only_sessions_opened_after() {
        let (net, ds, old) = setup(27);
        let new = {
            let cfg = Rl4oasdConfig::tiny(0xD1FF);
            Arc::new(train(
                &net,
                &Dataset::from_generated(
                    &TrafficSimulator::new(
                        &net,
                        TrafficConfig {
                            num_sd_pairs: 4,
                            trajs_per_pair: (40, 60),
                            anomaly_ratio: 0.15,
                            ..TrafficConfig::tiny(0xD1FF)
                        },
                    )
                    .generate(),
                ),
                &cfg,
            ))
        };
        let trajs: Vec<_> = ds.trajectories.iter().take(8).cloned().collect();
        let (before, after) = trajs.split_at(4);
        let expected_before = sequential_labels(&old, &net, before);
        let expected_after = sequential_labels(&new, &net, after);

        let mut engine = StreamEngine::new(Arc::clone(&old), Arc::clone(&net));
        let hb: Vec<_> = before
            .iter()
            .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        // Advance the pre-swap sessions partway, then swap mid-stream.
        let mut out = Vec::new();
        for tick in 0..2 {
            let events: Vec<_> = before
                .iter()
                .enumerate()
                .filter(|(_, t)| tick < t.len())
                .map(|(k, t)| (hb[k], t.segments[tick]))
                .collect();
            engine.observe_batch(&events, &mut out);
        }
        engine.swap_model(Arc::clone(&new));
        assert!(Arc::ptr_eq(engine.model(), &new));
        assert_eq!(
            engine.live_model_epochs(),
            2,
            "old epoch drains, new serves"
        );

        let ha: Vec<_> = after
            .iter()
            .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        // Mixed-epoch ticks: old-epoch and new-epoch sessions share
        // observe_batch calls; rounds split by epoch internally.
        let max_len = trajs.iter().map(|t| t.len()).max().unwrap();
        for tick in 0..max_len {
            let mut events = Vec::new();
            for (k, t) in before.iter().enumerate() {
                if tick >= 2 && tick < t.len() {
                    events.push((hb[k], t.segments[tick]));
                }
            }
            for (k, t) in after.iter().enumerate() {
                if tick < t.len() {
                    events.push((ha[k], t.segments[tick]));
                }
            }
            if !events.is_empty() {
                engine.observe_batch(&events, &mut out);
            }
        }
        let got_before: Vec<Vec<u8>> = hb.iter().map(|&h| engine.close(h)).collect();
        let got_after: Vec<Vec<u8>> = ha.iter().map(|&h| engine.close(h)).collect();
        assert_eq!(got_before, expected_before, "pre-swap sessions relabelled");
        assert_eq!(got_after, expected_after, "post-swap sessions on old model");
        assert_eq!(engine.stats().model_swaps, 1);
        assert_eq!(engine.live_model_epochs(), 1, "drained epoch was retired");
    }

    #[test]
    fn swap_with_no_open_sessions_retires_old_epoch_immediately() {
        let (net, _, model) = setup(28);
        let mut engine = StreamEngine::new(Arc::clone(&model), net);
        assert_eq!(engine.live_model_epochs(), 1);
        engine.swap_model(Arc::clone(&model));
        assert_eq!(engine.live_model_epochs(), 1, "idle epoch freed at swap");
        assert_eq!(engine.stats().model_swaps, 1);
    }

    #[test]
    #[should_panic(expected = "stale session")]
    fn closed_sessions_cannot_be_observed() {
        let (net, ds, model) = setup(26);
        let t = &ds.trajectories[0];
        let mut engine = StreamEngine::new(model, net);
        let h = engine.open(t.sd_pair().unwrap(), t.start_time);
        engine.close(h);
        let _h2 = engine.open(t.sd_pair().unwrap(), t.start_time);
        engine.observe(h, t.segments[0]);
    }

    #[test]
    fn freeze_every_tick_matches_sequential_labels() {
        let (net, ds, model) = setup(36);
        let trajs: Vec<_> = ds.trajectories.iter().take(8).cloned().collect();
        let expected = sequential_labels(&model, &net, &trajs);

        // Adversarial schedule: every session freezes at every tick and
        // thaws on its next event — labels must not change.
        let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net))
            .with_hibernation(HibernationConfig::freeze_every_tick());
        let handles: Vec<_> = trajs
            .iter()
            .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        let max_len = trajs.iter().map(|t| t.len()).max().unwrap();
        for tick in 0..max_len {
            for (k, t) in trajs.iter().enumerate() {
                if tick < t.len() {
                    engine.observe(handles[k], t.segments[tick]);
                }
            }
        }
        let got: Vec<Vec<u8>> = handles.iter().map(|&h| engine.close(h)).collect();
        assert_eq!(got, expected, "hibernation changed scalar labels");
        let stats = engine.stats();
        assert!(stats.sessions_hibernated > 0, "schedule never froze");
        assert!(
            stats.sessions_rehydrated > 0,
            "frozen sessions never thawed"
        );

        // Same schedule through the batched path (mid-tick thaw prepass).
        let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net))
            .with_hibernation(HibernationConfig::freeze_every_tick());
        let handles: Vec<_> = trajs
            .iter()
            .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        let mut out = Vec::new();
        for tick in 0..max_len {
            let events: Vec<_> = trajs
                .iter()
                .enumerate()
                .filter(|(_, t)| tick < t.len())
                .map(|(k, t)| (handles[k], t.segments[tick]))
                .collect();
            engine.observe_batch(&events, &mut out);
        }
        let got: Vec<Vec<u8>> = handles.iter().map(|&h| engine.close(h)).collect();
        assert_eq!(got, expected, "hibernation changed batched labels");
        assert!(engine.stats().sessions_rehydrated > 0);
    }

    #[test]
    fn hibernated_sessions_pin_their_model_epoch() {
        let (net, ds, model) = setup(37);
        let t = ds
            .trajectories
            .iter()
            .find(|t| t.len() >= 2)
            .unwrap()
            .clone();

        // Never-hibernated reference for the same 1-event session.
        let mut plain = StreamEngine::new(Arc::clone(&model), Arc::clone(&net));
        let hp = plain.open(t.sd_pair().unwrap(), t.start_time);
        plain.observe(hp, t.segments[0]);
        let expected = plain.close(hp);

        let mut engine = StreamEngine::new(Arc::clone(&model), Arc::clone(&net))
            .with_hibernation(HibernationConfig::freeze_every_tick());
        let h = engine.open(t.sd_pair().unwrap(), t.start_time);
        engine.observe(h, t.segments[0]); // end of tick: h freezes
        assert_eq!(engine.stats().frozen_sessions, 1);

        // The frozen session must keep its pre-swap model alive exactly
        // like a hot one (its epoch id rides outside the frozen blob).
        engine.swap_model(Arc::clone(&model));
        assert_eq!(
            engine.live_model_epochs(),
            2,
            "frozen session no longer pins its epoch"
        );

        // Closing a frozen session thaws (exact restore) and finishes.
        assert_eq!(engine.close(h), expected, "freeze/thaw changed labels");
        assert_eq!(engine.stats().sessions_rehydrated, 1);
        assert_eq!(engine.live_model_epochs(), 1, "drained epoch not retired");
    }

    #[test]
    fn memory_tier_gauges_account_for_every_open_session() {
        let (net, _, model) = setup(38);
        let mut engine =
            StreamEngine::new(model, net).with_hibernation(HibernationConfig::freeze_every_tick());
        let sd = SdPair {
            source: SegmentId(0),
            dest: SegmentId(1),
        };
        let handles: Vec<_> = (0..100).map(|i| engine.open(sd, i as f64)).collect();
        let s = engine.stats();
        assert_eq!(s.resident_sessions, 100);
        assert_eq!(s.frozen_sessions, 0);
        assert!(s.resident_bytes > 0);

        // The flush-boundary hook forces one sweep: everything freezes.
        engine.maintain();
        let s = engine.stats();
        assert_eq!(s.frozen_sessions, 100);
        assert_eq!(s.resident_sessions, 0);
        assert_eq!(s.sessions_hibernated, 100);
        assert!(s.frozen_bytes > 0);
        assert!(s.frozen_footprint_bytes >= s.frozen_bytes);
        assert!(
            s.frozen_bytes / 100 < 1024,
            "tiny-config frozen sessions should be well under 1 KiB each, got {}",
            s.frozen_bytes / 100
        );

        for h in handles {
            assert!(engine.close(h).is_empty());
        }
        let s = engine.stats();
        assert_eq!(s.frozen_sessions, 0);
        assert_eq!(s.resident_sessions, 0);
        assert_eq!(s.sessions_rehydrated, 100);
        assert_eq!(s.frozen_bytes, 0);
        assert_eq!(
            s.frozen_footprint_bytes, 0,
            "a drained cold tier kept its arena"
        );
    }

    /// A resident session's heap is its int8 `h` (`H` bytes) and f32 `c`
    /// (`4H`): `3H` bytes less than the two f32 vectors it replaced.
    #[test]
    fn resident_bytes_count_an_int8_hidden_state() {
        let (net, _, model) = setup(39);
        let hidden = model.config.hidden_dim;
        let mut engine = StreamEngine::new(model, net);
        let sd = SdPair {
            source: SegmentId(0),
            dest: SegmentId(1),
        };
        let n = 64;
        for i in 0..n {
            engine.open(sd, i as f64);
        }
        let s = engine.stats();
        let per_session = (s.resident_bytes as usize - engine.sessions.slot_overhead_bytes()) / n;
        let entry = std::mem::size_of::<SessionEntry>();
        assert_eq!(per_session, entry + hidden + 4 * hidden);
    }

    /// The torn-round path of crash salvage: a session an aborted round
    /// left taken is dropped and its now-empty epoch retires, a
    /// scope-pinned epoch without sessions stays, and every other session
    /// keeps its handle and labels on as before.
    #[test]
    fn successor_drops_torn_sessions_and_keeps_the_control_plane() {
        let (net, ds, v2) = setup(40);
        let mut trips = ds.trajectories.iter().filter(|t| t.len() >= 4).take(3);
        let torn_trip = trips.next().unwrap();
        let rest: Vec<_> = trips.cloned().collect();
        let v1 = Arc::new(TrainedModel::clone(&v2));
        let v1_weak = Arc::downgrade(&v1);
        let mut engine = StreamEngine::new(v1, Arc::clone(&net));
        let torn = engine.open(torn_trip.sd_pair().unwrap(), torn_trip.start_time);
        engine.swap_model(Arc::clone(&v2));
        let hs: Vec<_> = rest
            .iter()
            .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
            .collect();
        engine.set_scope_model(7, Arc::new(TrainedModel::clone(&v2)));
        let mut out = Vec::new();
        let tick = |k: usize| {
            hs.iter()
                .zip(&rest)
                .filter(move |(_, t)| k < t.len())
                .map(move |(&h, t)| (h, t.segments[k]))
        };
        for k in 0..2 {
            let events: Vec<_> = tick(k).chain([(torn, torn_trip.segments[k])]).collect();
            engine.observe_batch(&events, &mut out);
        }
        let before = engine.stats();

        let _lane = engine.sessions.take(torn); // moved out, never restored
        let (mut next, kept) = engine.successor().expect("always hands over");
        drop(engine);
        assert_eq!(kept, hs, "survivors keep their ids; the torn one goes");
        assert!(
            v1_weak.upgrade().is_none(),
            "the torn session's epoch leaked"
        );
        assert_eq!(next.live_model_epochs(), 2, "current + scope-pinned epoch");
        assert_eq!(next.scope_epoch_seq(7), 2);
        assert!(Arc::ptr_eq(next.model(), &v2));
        let counters = |s: EngineStats| (s.sessions_opened, s.observe_events, s.model_swaps);
        assert_eq!(counters(next.stats()), counters(before));
        for k in 2..rest.iter().map(|t| t.len()).max().unwrap() {
            next.observe_batch(&tick(k).collect::<Vec<_>>(), &mut out);
        }
        let got: Vec<Vec<u8>> = hs.iter().map(|&h| next.close(h)).collect();
        assert_eq!(got, sequential_labels(&v2, &net, &rest));
    }

    #[test]
    fn epoch_stats_attribute_decisions_to_serving_epoch() {
        let (net, ds, model) = setup(39);
        let trajs: Vec<_> = ds
            .trajectories
            .iter()
            .filter(|t| !t.is_empty())
            .take(4)
            .cloned()
            .collect();
        let (first, second) = trajs.split_at(2);
        let mut engine = StreamEngine::new(Arc::clone(&model), net);

        // Two sessions per phase so batched rounds attribute too.
        let drive = |engine: &mut StreamEngine, pair: &[traj::MappedTrajectory]| {
            let hs: Vec<_> = pair
                .iter()
                .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
                .collect();
            let mut out = Vec::new();
            let max_len = pair.iter().map(|t| t.len()).max().unwrap();
            for tick in 0..max_len {
                let events: Vec<_> = pair
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| tick < t.len())
                    .map(|(k, t)| (hs[k], t.segments[tick]))
                    .collect();
                engine.observe_batch(&events, &mut out);
            }
            for h in hs {
                engine.close(h);
            }
        };
        drive(&mut engine, first);
        engine.swap_model(model);
        drive(&mut engine, second);

        let log = engine.epoch_stats().to_vec();
        assert_eq!(log.len(), 2, "one row per epoch, retired rows kept");
        let events =
            |pair: &[traj::MappedTrajectory]| -> u64 { pair.iter().map(|t| t.len() as u64).sum() };
        assert_eq!(log[0].decisions, events(first));
        assert_eq!(log[1].decisions, events(second));
        assert_eq!(
            log[0].decisions + log[1].decisions,
            engine.stats().observe_events
        );
        assert!(log.iter().all(|e| e.alerts <= e.decisions));
    }
}
