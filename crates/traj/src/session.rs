//! Session-oriented serving API: multiplex many concurrent trajectories
//! over one detector implementation.
//!
//! The paper's motivating scenario is a ride-hailing operator watching
//! *many* ongoing trips at once (Problem 1 is stated per trip, but the
//! serving system is fleet-scale). [`crate::OnlineDetector`] models exactly
//! one ongoing trajectory per detector value; [`SessionEngine`] is the
//! fleet-scale counterpart: `open` admits a new trip, `observe` feeds one
//! segment of *any* open trip, and `close` finalises a trip and returns its
//! labels. Engines may override [`SessionEngine::observe_batch`] to advance
//! every session that received a point in the same tick in one batched
//! model pass (see `rl4oasd::StreamEngine`).
//!
//! [`SessionMux`] lifts any [`OnlineDetector`] factory to a
//! [`SessionEngine`] by giving each session its own detector value; the
//! door and routing tests build their stand-in engines with it.
//! [`Sharded`] is the synchronous, single-threaded reference driver that
//! the byte-identity tests compare the multi-core
//! [`crate::ingest::IngestFrontDoor`] against.

use crate::detector::OnlineDetector;
use crate::hibernate::{FrozenArena, FrozenRef, Hibernate};
use crate::types::SdPair;
use rnet::SegmentId;

/// Opaque handle of one open trajectory session within an engine.
///
/// Handles are generational: closing a session invalidates its id, and a
/// stale id panics instead of silently touching a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    #[inline]
    fn new(index: u32, generation: u32) -> Self {
        SessionId(((generation as u64) << 32) | index as u64)
    }

    #[inline]
    fn index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Rebuilds a handle from its raw transport form (ingest front door:
    /// handles cross thread boundaries as plain counters).
    #[inline]
    pub(crate) fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw transport form of this handle.
    #[inline]
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}g{}", self.index(), self.generation())
    }
}

/// A detector serving many concurrent trajectory sessions.
///
/// Contract: per session, the label sequence produced by `open` /
/// `observe`* / `close` is identical to what the same detector would emit
/// for that trajectory alone through [`OnlineDetector`] — interleaving
/// sessions never changes labels.
pub trait SessionEngine {
    /// Method name as used in the paper's tables (e.g. `"RL4OASD"`).
    fn engine_name(&self) -> &'static str;

    /// Opens a session for a trip with the given SD pair and start time
    /// (seconds since midnight), returning its handle.
    fn open(&mut self, sd: SdPair, start_time: f64) -> SessionId;

    /// Opens a session under a **scope** — an engine-interpreted
    /// namespace id (the serving tier keys it by tenant, so each tenant
    /// can pin its own model epoch; see `rl4oasd::StreamEngine::
    /// set_scope_model`). Scope 0 is the default namespace: for every
    /// engine, `open_scoped(0, ..)` must behave exactly like `open`.
    /// Engines without scoped state ignore the scope entirely — the
    /// default forwards to [`SessionEngine::open`].
    fn open_scoped(&mut self, scope: u32, sd: SdPair, start_time: f64) -> SessionId {
        let _ = scope;
        self.open(sd, start_time)
    }

    /// Feeds the next road segment of one open session, returning the
    /// provisional label (0 normal / 1 anomalous).
    fn observe(&mut self, session: SessionId, segment: SegmentId) -> u8;

    /// Closes a session, returning the final labels of all its observed
    /// segments (detectors with delayed decisions may revise here).
    fn close(&mut self, session: SessionId) -> Vec<u8>;

    /// Advances every `(session, segment)` event of one tick, appending one
    /// label per event to `out` (cleared first, same order as `events`).
    ///
    /// A session may appear multiple times in `events`; occurrences are
    /// applied in order. The default implementation loops over
    /// [`SessionEngine::observe`]; engines with batched model steps
    /// override this.
    fn observe_batch(&mut self, events: &[(SessionId, SegmentId)], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(events.len());
        for &(session, segment) in events {
            out.push(self.observe(session, segment));
        }
    }

    /// Background-maintenance hook, invoked by drivers at batch
    /// boundaries — the [`crate::IngestFrontDoor`] workers call it at
    /// every flush boundary (the same seam that applies control
    /// commands), and synchronous drivers may call it between ticks.
    /// Engines use it for work that must never split a batch, e.g.
    /// sweeping idle sessions into a hibernated cold tier
    /// (`rl4oasd::StreamEngine`). Must not change any label a session
    /// would otherwise emit. Default: no-op.
    fn maintain(&mut self) {}

    /// Whether `segment` is a value this engine can process without
    /// panicking — the poison-event pre-screen of the ingest door's
    /// shard workers. Must be cheap, side-effect free and deterministic.
    /// Engines whose `observe` indexes by segment (embedding lookups)
    /// override this with their bounds check; the default admits
    /// everything.
    fn admit(&self, segment: SegmentId) -> bool {
        let _ = segment;
        true
    }

    /// Number of currently open sessions.
    fn active_sessions(&self) -> usize;

    /// Crash salvage: hands this engine over to a sound successor. The
    /// ingest door's shard workers call it on the wrecked engine after a
    /// panic and serve on with the engine it returns, together with the
    /// handles of the sessions it carried over — under the **same**
    /// [`SessionId`]s, so every session not implicated in the fault keeps
    /// byte-identical labels. Everything that is not per-session state
    /// (model epochs, counters, configuration) should move across too, so
    /// a restart rolls nothing back. Implementations typically check each
    /// session through their [`Hibernate`] freeze/thaw round trip.
    ///
    /// **Must not panic**, even on an engine whose last batch panicked
    /// mid-flight: wrap per-session checks in `catch_unwind` and leave
    /// out sessions whose state is torn — the caller quarantines every
    /// session missing from the returned list. The default, `None`,
    /// salvages nothing: the caller rebuilds the engine from its factory
    /// and every session on that shard ends with
    /// `SessionFault::Unsalvageable`.
    ///
    /// [`Sharded`] and `rl4oasd::ShardedEngine` do not forward this: they
    /// are synchronous reference drivers and never run behind a door.
    fn successor(&mut self) -> Option<(Self, Vec<SessionId>)>
    where
        Self: Sized,
    {
        None
    }
}

/// Which tier a slot's session currently lives in.
#[derive(Debug, Clone)]
enum Tier<T> {
    /// No session (slot is on the free list, or about to be truncated).
    Vacant,
    /// Live session, resident in memory.
    Hot(T),
    /// Live session, hibernated: its frozen blob lives in the arena.
    Cold(FrozenRef),
    /// Live session temporarily moved out via [`SessionSlab::take`].
    Taken,
}

/// Generational slot map backing session storage in engines — a
/// **two-tier** store since the hibernation work.
///
/// O(1) insert / lookup / remove with index reuse; generations catch stale
/// handles. [`SessionSlab::take`] / [`SessionSlab::restore`] let an engine
/// move several sessions out simultaneously for a batched pass without
/// aliasing the slab.
///
/// **Cold tier.** [`SessionSlab::freeze_with`] (or the [`Hibernate`]-trait
/// convenience [`SessionSlab::hibernate`]) converts a hot slot into a
/// compact frozen blob stored in an internal [`FrozenArena`], keyed by the
/// same generational [`SessionId`]; [`SessionSlab::thaw_with`] /
/// [`SessionSlab::rehydrate`] restore it. Frozen sessions still count as
/// live ([`SessionSlab::len`]) and keep their handle, but direct access
/// (`get`/`get_mut`/`take`/`remove`) panics until they are thawed — the
/// owner decides when to rehydrate (engines do it transparently on the
/// session's next event).
///
/// **Capacity compaction.** `slots`/`free` historically only ever grew, so
/// a burst of opens pinned peak capacity forever. The slab now shrinks its
/// tail of vacant slots (live handles cannot be relocated, so only the
/// tail is reclaimable) whenever live count falls far below capacity; a
/// slab-wide generation floor guarantees handles into truncated slots can
/// never alias later reincarnations of the same index.
#[derive(Debug, Clone)]
pub struct SessionSlab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    active: usize,
    /// Live sessions currently in the cold tier.
    frozen: usize,
    arena: FrozenArena,
    /// Reused encode buffer for [`SessionSlab::freeze_with`].
    scratch: Vec<u8>,
    /// Generation assigned to freshly pushed slots. Raised past every
    /// truncated slot's generation when the tail shrinks, so a stale
    /// handle into a truncated-then-recreated index can never validate.
    generation_floor: u32,
}

#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Tier<T>,
}

/// Below this capacity the slab never bothers shrinking.
const MIN_SHRINK_CAPACITY: usize = 1024;

impl<T> Default for SessionSlab<T> {
    fn default() -> Self {
        SessionSlab {
            slots: Vec::new(),
            free: Vec::new(),
            active: 0,
            frozen: 0,
            arena: FrozenArena::new(),
            scratch: Vec::new(),
            generation_floor: 0,
        }
    }
}

impl<T> SessionSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live sessions (hot, frozen and temporarily taken ones).
    pub fn len(&self) -> usize {
        self.active
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// Stores a value, returning its handle.
    pub fn insert(&mut self, value: T) -> SessionId {
        self.active += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(matches!(slot.value, Tier::Vacant));
            slot.value = Tier::Hot(value);
            SessionId::new(index, slot.generation)
        } else {
            let index = u32::try_from(self.slots.len()).expect("more than 2^32 sessions");
            let generation = self.generation_floor;
            self.slots.push(Slot {
                generation,
                value: Tier::Hot(value),
            });
            SessionId::new(index, generation)
        }
    }

    fn slot(&self, id: SessionId) -> &Slot<T> {
        let slot = self
            .slots
            .get(id.index())
            .unwrap_or_else(|| panic!("unknown session {id}"));
        assert_eq!(
            slot.generation,
            id.generation(),
            "stale session handle {id} (session was closed)"
        );
        slot
    }

    fn slot_mut(&mut self, id: SessionId) -> &mut Slot<T> {
        let slot = self
            .slots
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("unknown session {id}"));
        assert_eq!(
            slot.generation,
            id.generation(),
            "stale session handle {id} (session was closed)"
        );
        slot
    }

    /// Shared access to a session's value.
    ///
    /// # Panics
    /// Panics on unknown, closed, taken or hibernated handles.
    pub fn get(&self, id: SessionId) -> &T {
        match &self.slot(id).value {
            Tier::Hot(value) => value,
            Tier::Cold(_) => panic!("session {id} is hibernated (thaw it first)"),
            Tier::Vacant | Tier::Taken => panic!("session {id} is taken or closed"),
        }
    }

    /// Mutable access to a session's value.
    ///
    /// # Panics
    /// Panics on unknown, closed, taken or hibernated handles.
    pub fn get_mut(&mut self, id: SessionId) -> &mut T {
        match &mut self.slot_mut(id).value {
            Tier::Hot(value) => value,
            Tier::Cold(_) => panic!("session {id} is hibernated (thaw it first)"),
            Tier::Vacant | Tier::Taken => panic!("session {id} is taken or closed"),
        }
    }

    /// Moves a session's value out, keeping its slot reserved. Pair with
    /// [`SessionSlab::restore`].
    ///
    /// # Panics
    /// Panics on unknown, closed, taken or hibernated handles (a frozen
    /// session must be thawed before it can be taken).
    pub fn take(&mut self, id: SessionId) -> T {
        let slot = self.slot_mut(id);
        match std::mem::replace(&mut slot.value, Tier::Taken) {
            Tier::Hot(value) => value,
            Tier::Cold(r) => {
                slot.value = Tier::Cold(r);
                panic!("session {id} is hibernated (thaw it first)")
            }
            Tier::Vacant | Tier::Taken => panic!("session {id} is taken or closed"),
        }
    }

    /// Puts back a value previously [`SessionSlab::take`]n.
    pub fn restore(&mut self, id: SessionId, value: T) {
        let slot = self.slot_mut(id);
        assert!(
            matches!(slot.value, Tier::Taken),
            "session {id} was not taken"
        );
        slot.value = Tier::Hot(value);
    }

    /// Removes a session, invalidating its handle (and shrinking the slot
    /// tail when live count has fallen far below capacity).
    ///
    /// # Panics
    /// Panics on unknown, closed, taken or hibernated handles (a frozen
    /// session must be thawed before it can be removed).
    pub fn remove(&mut self, id: SessionId) -> T {
        let index = id.index();
        let slot = self.slot_mut(id);
        let value = match std::mem::replace(&mut slot.value, Tier::Vacant) {
            Tier::Hot(value) => value,
            Tier::Cold(r) => {
                slot.value = Tier::Cold(r);
                panic!("session {id} is hibernated (thaw it first)")
            }
            Tier::Vacant | Tier::Taken => panic!("session {id} is taken or closed"),
        };
        self.slots[index].generation = self.slots[index].generation.wrapping_add(1);
        self.free.push(index as u32);
        self.active -= 1;
        self.maybe_shrink();
        value
    }

    /// Hibernates a hot session: `encode` serialises its value into the
    /// provided buffer and the blob moves to the internal arena. The
    /// handle stays valid; direct access panics until
    /// [`SessionSlab::thaw_with`].
    ///
    /// # Panics
    /// Panics on unknown, closed, taken or already-hibernated handles.
    pub fn freeze_with(&mut self, id: SessionId, encode: impl FnOnce(&T, &mut Vec<u8>)) {
        let slot = self.slot_mut(id);
        let value = match std::mem::replace(&mut slot.value, Tier::Taken) {
            Tier::Hot(value) => value,
            Tier::Cold(r) => {
                slot.value = Tier::Cold(r);
                panic!("session {id} is already hibernated")
            }
            Tier::Vacant | Tier::Taken => panic!("session {id} is taken or closed"),
        };
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        encode(&value, &mut buf);
        let r = self.arena.alloc(&buf);
        self.scratch = buf;
        self.slot_mut(id).value = Tier::Cold(r);
        self.frozen += 1;
    }

    /// Rehydrates a hibernated session: `decode` rebuilds the value from
    /// the frozen blob, which is then freed from the arena.
    ///
    /// # Panics
    /// Panics on unknown, closed handles, or handles that are not
    /// currently hibernated.
    pub fn thaw_with(&mut self, id: SessionId, decode: impl FnOnce(&[u8]) -> T) {
        let r = match &self.slot(id).value {
            Tier::Cold(r) => *r,
            _ => panic!("session {id} is not hibernated"),
        };
        let value = decode(self.arena.get(r));
        self.arena.free(r);
        self.slot_mut(id).value = Tier::Hot(value);
        self.frozen -= 1;
    }

    /// Hibernates a hot session through its [`Hibernate`] impl.
    pub fn hibernate<C: ?Sized>(&mut self, id: SessionId, ctx: &C)
    where
        T: Hibernate<C>,
    {
        self.freeze_with(id, |value, out| value.freeze(ctx, out));
    }

    /// Rehydrates a hibernated session through its [`Hibernate`] impl.
    pub fn rehydrate<C: ?Sized>(&mut self, id: SessionId, ctx: &C)
    where
        T: Hibernate<C>,
    {
        self.thaw_with(id, |bytes| T::thaw(ctx, bytes));
    }

    /// Whether the session is currently hibernated.
    ///
    /// # Panics
    /// Panics on unknown or stale handles.
    pub fn is_frozen(&self, id: SessionId) -> bool {
        matches!(self.slot(id).value, Tier::Cold(_))
    }

    /// Number of live sessions currently in the cold tier.
    pub fn frozen_len(&self) -> usize {
        self.frozen
    }

    /// Number of live sessions currently resident (hot or taken).
    pub fn resident_len(&self) -> usize {
        self.active - self.frozen
    }

    /// Payload bytes of all frozen sessions (live arena bytes).
    pub fn frozen_bytes(&self) -> usize {
        self.arena.live_bytes()
    }

    /// Total allocated footprint of the cold tier (arena chunks + entry
    /// table), ≥ [`SessionSlab::frozen_bytes`].
    pub fn frozen_footprint_bytes(&self) -> usize {
        self.arena.footprint_bytes()
    }

    /// Cumulative compactions the cold-tier arena has run so far (edge
    /// detection for telemetry: a delta since the last observation means
    /// the arena compacted in between).
    pub fn compactions(&self) -> u64 {
        self.arena.compactions()
    }

    /// Bookkeeping bytes of the slot map itself (slot and free-list
    /// capacity), excluding the values.
    pub fn slot_overhead_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<T>>() + self.free.capacity() * 4
    }

    /// Allocated slot capacity (≥ [`SessionSlab::len`]); shrinks when
    /// live count falls far below it.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over the **frozen** (hibernated) sessions' handles — the
    /// salvage surface for shard-worker crash recovery, which thaws each
    /// one and discards those that fail with [`SessionSlab::take_frozen`].
    pub fn frozen_ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.slots.iter().enumerate().filter_map(|(index, slot)| {
            if matches!(slot.value, Tier::Cold(_)) {
                Some(SessionId::new(index as u32, slot.generation))
            } else {
                None
            }
        })
    }

    /// Removes a frozen session, returning an owned copy of its
    /// serialised blob (the arena bytes are freed) and invalidating its
    /// handle — `remove` for the cold tier.
    ///
    /// # Panics
    /// Panics on handles that are not currently hibernated.
    pub fn take_frozen(&mut self, id: SessionId) -> Vec<u8> {
        let index = id.index();
        let r = match &self.slot(id).value {
            Tier::Cold(r) => *r,
            _ => panic!("session {id} is not hibernated"),
        };
        let blob = self.arena.get(r).to_vec();
        self.arena.free(r);
        self.frozen -= 1;
        self.slot_mut(id).value = Tier::Vacant;
        self.slots[index].generation = self.slots[index].generation.wrapping_add(1);
        self.free.push(index as u32);
        self.active -= 1;
        self.maybe_shrink();
        blob
    }

    /// Vacates every slot still [`SessionSlab::take`]n and never
    /// restored — values a panic unwound away mid-batch — invalidating
    /// their handles (crash salvage).
    pub fn drop_taken(&mut self) {
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if matches!(slot.value, Tier::Taken) {
                slot.value = Tier::Vacant;
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(index as u32);
                self.active -= 1;
            }
        }
        self.maybe_shrink();
    }

    /// Iterates over the **hot** sessions (not frozen, not taken) with
    /// their handles — the sweep surface for idle-session hibernation.
    pub fn iter_hot(&self) -> impl Iterator<Item = (SessionId, &T)> {
        self.slots.iter().enumerate().filter_map(|(index, slot)| {
            if let Tier::Hot(value) = &slot.value {
                Some((SessionId::new(index as u32, slot.generation), value))
            } else {
                None
            }
        })
    }

    /// Tail-truncates vacant slots once live count drops below a quarter
    /// of capacity (down to twice the live count). Live handles pin their
    /// slots, so interior vacancies stay; the generation floor makes sure
    /// truncated indices can never resurrect an old handle.
    fn maybe_shrink(&mut self) {
        let cap = self.slots.len();
        if cap < MIN_SHRINK_CAPACITY || self.active >= cap / 4 {
            return;
        }
        let keep = (self.active * 2).max(MIN_SHRINK_CAPACITY / 2);
        let mut new_len = cap;
        while new_len > keep && matches!(self.slots[new_len - 1].value, Tier::Vacant) {
            new_len -= 1;
        }
        if new_len == cap {
            return;
        }
        for slot in &self.slots[new_len..] {
            // `wrapping_add` mirrors the generation bump in `remove`; on
            // the astronomically unlikely wrap the floor still moves past
            // the last issued generation for these indices.
            self.generation_floor = self.generation_floor.max(slot.generation.wrapping_add(1));
        }
        self.slots.truncate(new_len);
        self.slots.shrink_to_fit();
        self.free.retain(|&i| (i as usize) < new_len);
        self.free.shrink_to_fit();
    }
}

/// Where a routed session lives: its shard and its shard-local handle.
#[derive(Debug, Clone, Copy)]
struct Route {
    shard: u32,
    inner: SessionId,
}

/// Per-shard scratch of one [`Sharded::observe_batch`] tick: the shard's
/// slice of the tick's events, the original event indices (for scattering
/// labels back in caller order) and the shard's label output.
#[derive(Debug, Default)]
struct ShardLane {
    events: Vec<(SessionId, SegmentId)>,
    idx: Vec<u32>,
    out: Vec<u8>,
}

/// Shards any [`SessionEngine`] across N independent instances, driven
/// synchronously on the calling thread: the single-threaded reference the
/// byte-identity tests compare the multi-core paths against.
///
/// New sessions are hashed to a shard on `open`; from then on every event
/// of that session goes to the same shard, so per-shard event order equals
/// per-session event order and the [`SessionEngine`] contract (interleaving
/// never changes labels) lifts to the sharded engine: labels are
/// **byte-identical for every shard count**, including 1 (property-tested
/// in `tests/sharded.rs`).
///
/// [`Sharded::observe_batch`] partitions the tick's events by shard, runs
/// each shard's own `observe_batch` in turn (so every shard still sees
/// batched rounds) and scatters the labels back into caller order. Shards
/// share whatever their constructor shared (e.g. one `Arc` of model
/// weights). Multi-core serving is [`crate::ingest::IngestFrontDoor`]: one
/// persistent worker thread per shard behind a bounded ingress queue.
pub struct Sharded<E> {
    shards: Vec<E>,
    routes: SessionSlab<Route>,
    lanes: Vec<ShardLane>,
}

impl<E: SessionEngine> Sharded<E> {
    /// Builds a sharded engine from pre-constructed shards (at least one).
    pub fn from_shards(shards: Vec<E>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let lanes = shards.iter().map(|_| ShardLane::default()).collect();
        Sharded {
            shards,
            routes: SessionSlab::new(),
            lanes,
        }
    }

    /// Builds `n` shards from a factory called with each shard index.
    pub fn build(n: usize, mut factory: impl FnMut(usize) -> E) -> Self {
        Self::from_shards((0..n).map(&mut factory).collect())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, for per-shard inspection (stats aggregation etc.).
    pub fn shards(&self) -> &[E] {
        &self.shards
    }

    /// Mutable access to the shards, for control operations applied
    /// between ticks (e.g. broadcasting a model hot-swap to every shard —
    /// see `rl4oasd::ShardedEngine::swap_model`). Holding `&mut self`
    /// guarantees no tick is in flight, so this is always a tick boundary.
    pub fn shards_mut(&mut self) -> &mut [E] {
        &mut self.shards
    }

    /// Which shard serves the given open session.
    ///
    /// # Panics
    /// Panics on unknown or closed handles.
    pub fn shard_of(&self, session: SessionId) -> usize {
        self.routes.get(session).shard as usize
    }

    /// Fibonacci-hashes a fresh route index onto a shard.
    fn hash_to_shard(&self, index: usize) -> u32 {
        let h = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.shards.len() as u64) as u32
    }
}

impl<E: SessionEngine> SessionEngine for Sharded<E> {
    fn engine_name(&self) -> &'static str {
        self.shards[0].engine_name()
    }

    fn open(&mut self, sd: SdPair, start_time: f64) -> SessionId {
        // Reserve the outer handle first so the shard is a pure hash of it.
        let outer = self.routes.insert(Route {
            shard: 0,
            inner: SessionId::new(0, 0),
        });
        let shard = self.hash_to_shard(outer.index());
        let inner = self.shards[shard as usize].open(sd, start_time);
        *self.routes.get_mut(outer) = Route { shard, inner };
        outer
    }

    fn open_scoped(&mut self, scope: u32, sd: SdPair, start_time: f64) -> SessionId {
        let outer = self.routes.insert(Route {
            shard: 0,
            inner: SessionId::new(0, 0),
        });
        let shard = self.hash_to_shard(outer.index());
        let inner = self.shards[shard as usize].open_scoped(scope, sd, start_time);
        *self.routes.get_mut(outer) = Route { shard, inner };
        outer
    }

    fn observe(&mut self, session: SessionId, segment: SegmentId) -> u8 {
        let route = *self.routes.get(session);
        self.shards[route.shard as usize].observe(route.inner, segment)
    }

    /// Partitions the tick's events by shard, advances each shard that
    /// received events through its own `observe_batch` (so batched nn
    /// kernels still apply within a shard), then scatters the labels back
    /// into caller order.
    fn observe_batch(&mut self, events: &[(SessionId, SegmentId)], out: &mut Vec<u8>) {
        for lane in &mut self.lanes {
            lane.events.clear();
            lane.idx.clear();
            // Cleared here, not by the shard: a shard with no events this
            // tick never runs, and its stale labels must not linger.
            lane.out.clear();
        }
        for (i, &(session, segment)) in events.iter().enumerate() {
            let route = *self.routes.get(session);
            let lane = &mut self.lanes[route.shard as usize];
            lane.events.push((route.inner, segment));
            lane.idx.push(i as u32);
        }
        for (shard, lane) in self.shards.iter_mut().zip(&mut self.lanes) {
            if !lane.events.is_empty() {
                shard.observe_batch(&lane.events, &mut lane.out);
            }
        }

        out.clear();
        out.resize(events.len(), 0);
        for lane in &self.lanes {
            debug_assert_eq!(lane.out.len(), lane.events.len());
            for (k, &i) in lane.idx.iter().enumerate() {
                out[i as usize] = lane.out[k];
            }
        }
    }

    fn close(&mut self, session: SessionId) -> Vec<u8> {
        let route = self.routes.remove(session);
        self.shards[route.shard as usize].close(route.inner)
    }

    /// Broadcasts maintenance to every shard. Holding `&mut self` means
    /// no tick is in flight, so this is always a tick boundary.
    fn maintain(&mut self) {
        for shard in &mut self.shards {
            shard.maintain();
        }
    }

    /// Shards are homogeneous, so any shard's validity check speaks for
    /// the whole engine.
    fn admit(&self, segment: SegmentId) -> bool {
        self.shards[0].admit(segment)
    }

    fn active_sessions(&self) -> usize {
        self.routes.len()
    }
}

/// Lifts an [`OnlineDetector`] factory to a [`SessionEngine`]: each session
/// owns one detector value produced by the factory, so per-session labels
/// are identical to the per-trajectory path by construction.
///
/// It is the cheapest way to put a stand-in engine behind the session API:
/// the door and routing tests, and the `IngestFrontDoor` example, build
/// their test engines with it.
pub struct SessionMux<D, F> {
    name: &'static str,
    factory: F,
    sessions: SessionSlab<D>,
}

impl<D: OnlineDetector, F: FnMut() -> D> SessionMux<D, F> {
    /// Builds a mux around a detector factory. One probe detector is
    /// created (and dropped) to capture the method name; when the factory
    /// produces heavyweight detectors, prefer [`SessionMux::named`].
    pub fn new(mut factory: F) -> Self {
        let name = factory().name();
        Self::named(name, factory)
    }

    /// Builds a mux with an explicit engine name, skipping the probe
    /// construction (for factories whose detectors are expensive to
    /// build, e.g. ones copying trained model weights).
    pub fn named(name: &'static str, factory: F) -> Self {
        SessionMux {
            name,
            factory,
            sessions: SessionSlab::new(),
        }
    }
}

impl<D: OnlineDetector, F: FnMut() -> D> SessionEngine for SessionMux<D, F> {
    fn engine_name(&self) -> &'static str {
        self.name
    }

    fn open(&mut self, sd: SdPair, start_time: f64) -> SessionId {
        let mut detector = (self.factory)();
        detector.begin(sd, start_time);
        self.sessions.insert(detector)
    }

    fn observe(&mut self, session: SessionId, segment: SegmentId) -> u8 {
        self.sessions.get_mut(session).observe(segment)
    }

    fn close(&mut self, session: SessionId) -> Vec<u8> {
        self.sessions.remove(session).finish()
    }

    fn active_sessions(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::AlwaysNormal;

    fn sd(a: u32, b: u32) -> SdPair {
        SdPair {
            source: SegmentId(a),
            dest: SegmentId(b),
        }
    }

    #[test]
    fn slab_insert_get_remove() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(*slab.get_mut(a), "a");
        assert_eq!(slab.remove(a), "a");
        assert_eq!(slab.len(), 1);
        assert_eq!(*slab.get_mut(b), "b");
        // slot reuse with a fresh generation
        let c = slab.insert("c");
        assert_eq!(c.index(), a.index());
        assert_ne!(c, a);
    }

    #[test]
    #[should_panic(expected = "stale session")]
    fn slab_rejects_stale_handles() {
        let mut slab = SessionSlab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let _b = slab.insert(2); // reuses the slot
        slab.get_mut(a);
    }

    #[test]
    fn slab_take_and_restore() {
        let mut slab = SessionSlab::new();
        let a = slab.insert(vec![1, 2]);
        let v = slab.take(a);
        assert_eq!(slab.len(), 1, "taken sessions stay live");
        slab.restore(a, v);
        assert_eq!(*slab.get_mut(a), vec![1, 2]);
        assert_eq!(*slab.get(a), vec![1, 2]);
    }

    #[test]
    fn slab_survives_repeated_take_restore_remove_cycles() {
        let mut slab = SessionSlab::new();
        let mut ids = Vec::new();
        for cycle in 0..4 {
            // Refill the slab, exercising the free list left by the
            // previous cycle's removals.
            for k in 0..8 {
                ids.push(slab.insert(cycle * 8 + k));
            }
            assert_eq!(slab.len(), 8);
            // A couple of take/restore round-trips on every live session.
            for &id in &ids {
                let v = slab.take(id);
                slab.restore(id, v);
                let v = slab.take(id);
                slab.restore(id, v + 100);
            }
            for (k, id) in ids.drain(..).enumerate() {
                assert_eq!(slab.remove(id), cycle * 8 + k as i32 + 100);
            }
            assert!(slab.is_empty());
        }
    }

    #[test]
    fn slab_reuses_ids_with_fresh_generations_after_remove() {
        let mut slab = SessionSlab::new();
        let first: Vec<_> = (0..4).map(|k| slab.insert(k)).collect();
        for &id in &first {
            slab.remove(id);
        }
        let second: Vec<_> = (10..14).map(|k| slab.insert(k)).collect();
        // All four slots are reused (LIFO over the free list), but every
        // reused handle differs from its predecessor by generation.
        let mut first_idx: Vec<_> = first.iter().map(|id| id.index()).collect();
        let mut second_idx: Vec<_> = second.iter().map(|id| id.index()).collect();
        first_idx.sort_unstable();
        second_idx.sort_unstable();
        assert_eq!(first_idx, second_idx, "slots were not reused");
        for (old, new) in first.iter().zip(second.iter().rev()) {
            assert_eq!(old.index(), new.index());
            assert_ne!(old.generation(), new.generation());
            assert_ne!(old, new);
        }
    }

    #[test]
    #[should_panic(expected = "stale session")]
    fn slab_get_mut_on_removed_id_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert(1);
        slab.remove(a);
        slab.get_mut(a);
    }

    #[test]
    #[should_panic(expected = "stale session")]
    fn slab_take_on_removed_id_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert(1);
        slab.remove(a);
        slab.take(a);
    }

    #[test]
    #[should_panic(expected = "is taken or closed")]
    fn slab_take_twice_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert(1);
        let _v = slab.take(a);
        slab.take(a);
    }

    #[test]
    #[should_panic(expected = "was not taken")]
    fn slab_restore_without_take_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert(1);
        slab.restore(a, 2);
    }

    #[test]
    #[should_panic(expected = "unknown session")]
    fn slab_get_on_never_issued_id_panics() {
        let slab: SessionSlab<i32> = SessionSlab::new();
        slab.get(SessionId::new(7, 0));
    }

    /// Trivial [`Hibernate`] impl for slab-level tests: the string's
    /// bytes, no context.
    impl Hibernate<()> for String {
        fn freeze(&self, _ctx: &(), out: &mut Vec<u8>) {
            out.extend_from_slice(self.as_bytes());
        }
        fn thaw(_ctx: &(), bytes: &[u8]) -> Self {
            String::from_utf8(bytes.to_vec()).unwrap()
        }
    }

    #[test]
    fn slab_freeze_thaw_roundtrip() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("alpha".to_string());
        let b = slab.insert("beta".to_string());
        assert_eq!(slab.frozen_len(), 0);
        assert_eq!(slab.resident_len(), 2);

        slab.hibernate(a, &());
        assert!(slab.is_frozen(a));
        assert!(!slab.is_frozen(b));
        assert_eq!(slab.frozen_len(), 1);
        assert_eq!(slab.resident_len(), 1);
        assert_eq!(slab.len(), 2, "frozen sessions stay live");
        assert_eq!(slab.frozen_bytes(), "alpha".len());

        slab.rehydrate(a, &());
        assert!(!slab.is_frozen(a));
        assert_eq!(slab.frozen_len(), 0);
        assert_eq!(slab.frozen_bytes(), 0);
        assert_eq!(*slab.get(a), "alpha");
        assert_eq!(slab.remove(a), "alpha");
        assert_eq!(slab.remove(b), "beta");
    }

    #[test]
    fn slab_iter_hot_skips_frozen_and_taken() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("a".to_string());
        let b = slab.insert("b".to_string());
        let c = slab.insert("c".to_string());
        slab.hibernate(b, &());
        let taken = slab.take(c);
        let hot: Vec<_> = slab.iter_hot().map(|(id, v)| (id, v.clone())).collect();
        assert_eq!(hot, vec![(a, "a".to_string())]);
        slab.restore(c, taken);
        assert_eq!(slab.iter_hot().count(), 2);
    }

    #[test]
    #[should_panic(expected = "is hibernated")]
    fn slab_take_while_frozen_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("a".to_string());
        slab.hibernate(a, &());
        slab.take(a);
    }

    #[test]
    #[should_panic(expected = "is hibernated")]
    fn slab_get_while_frozen_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("a".to_string());
        slab.hibernate(a, &());
        slab.get(a);
    }

    #[test]
    #[should_panic(expected = "is hibernated")]
    fn slab_remove_while_frozen_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("a".to_string());
        slab.hibernate(a, &());
        slab.remove(a);
    }

    #[test]
    #[should_panic(expected = "is already hibernated")]
    fn slab_double_freeze_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("a".to_string());
        slab.hibernate(a, &());
        slab.hibernate(a, &());
    }

    #[test]
    #[should_panic(expected = "is taken or closed")]
    fn slab_freeze_while_taken_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("a".to_string());
        let _v = slab.take(a);
        slab.hibernate(a, &());
    }

    #[test]
    #[should_panic(expected = "is not hibernated")]
    fn slab_thaw_of_hot_session_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("a".to_string());
        slab.rehydrate(a, &());
    }

    #[test]
    #[should_panic(expected = "stale session")]
    fn slab_stale_generation_on_hibernated_slot_panics() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("first".to_string());
        slab.remove(a);
        // Reincarnate the slot and hibernate the new tenant: the old
        // handle must still die on the generation check, not reach the
        // frozen blob.
        let b = slab.insert("second".to_string());
        assert_eq!(a.index(), b.index());
        slab.hibernate(b, &());
        slab.is_frozen(a);
    }

    #[test]
    fn slab_frozen_sessions_survive_take_restore_of_others() {
        let mut slab = SessionSlab::new();
        let a = slab.insert("frozen".to_string());
        let b = slab.insert("hot".to_string());
        slab.hibernate(a, &());
        let v = slab.take(b);
        slab.restore(b, v);
        slab.rehydrate(a, &());
        assert_eq!(*slab.get(a), "frozen");
        assert_eq!(*slab.get(b), "hot");
    }

    #[test]
    fn slab_shrinks_capacity_after_burst() {
        let mut slab = SessionSlab::new();
        let ids: Vec<_> = (0..10_000).map(|k| slab.insert(k)).collect();
        assert_eq!(slab.capacity(), 10_000);
        for &id in &ids {
            slab.remove(id);
        }
        assert!(slab.is_empty());
        assert!(
            slab.capacity() <= MIN_SHRINK_CAPACITY,
            "burst capacity was pinned: {} slots",
            slab.capacity()
        );
        // The slab keeps working after shrinking.
        let id = slab.insert(42);
        assert_eq!(*slab.get(id), 42);
    }

    #[test]
    fn slab_shrink_keeps_live_tail_sessions() {
        let mut slab = SessionSlab::new();
        let ids: Vec<_> = (0..8192).map(|k| slab.insert(k)).collect();
        // Keep a survivor near (but not at) the tail; everything else goes.
        let survivor = ids[8000];
        for &id in &ids {
            if id != survivor {
                slab.remove(id);
            }
        }
        assert_eq!(slab.len(), 1);
        assert_eq!(*slab.get(survivor), 8000);
        // The tail beyond the survivor is reclaimed; the survivor pins
        // everything at or below its index.
        assert!(slab.capacity() > 8000 && slab.capacity() <= 8192);
        slab.remove(survivor);
        assert!(slab.capacity() <= MIN_SHRINK_CAPACITY);
    }

    #[test]
    #[should_panic(expected = "stale session")]
    fn slab_shrink_never_resurrects_old_handles() {
        let mut slab = SessionSlab::new();
        let ids: Vec<_> = (0..4096).map(|k| slab.insert(k)).collect();
        let ghost = ids[4000]; // lives in the to-be-truncated tail
        for &id in &ids {
            slab.remove(id);
        }
        assert!(slab.capacity() < 4000, "tail was not truncated");
        // Regrow past the ghost's index: its slot is reincarnated with a
        // generation above the floor, so the ghost must read as stale —
        // never as the new tenant.
        let regrown: Vec<_> = (0..4096).map(|k| slab.insert(k + 10_000)).collect();
        let reincarnated = regrown.iter().find(|id| id.index() == ghost.index());
        assert!(reincarnated.is_some());
        assert_ne!(
            *reincarnated.unwrap(),
            ghost,
            "handle aliasing after shrink"
        );
        slab.get(ghost);
    }

    #[test]
    fn mux_sessions_are_independent() {
        let mut mux = SessionMux::new(AlwaysNormal::default);
        assert_eq!(mux.engine_name(), "AlwaysNormal");
        let s1 = mux.open(sd(0, 9), 0.0);
        let s2 = mux.open(sd(1, 8), 0.0);
        assert_eq!(mux.active_sessions(), 2);
        mux.observe(s1, SegmentId(0));
        mux.observe(s2, SegmentId(1));
        mux.observe(s1, SegmentId(5));
        assert_eq!(mux.close(s1).len(), 2);
        assert_eq!(mux.close(s2).len(), 1);
        assert_eq!(mux.active_sessions(), 0);
    }

    #[test]
    fn default_observe_batch_matches_sequential() {
        let mut mux = SessionMux::new(AlwaysNormal::default);
        let s1 = mux.open(sd(0, 9), 0.0);
        let s2 = mux.open(sd(1, 8), 0.0);
        let events = vec![
            (s1, SegmentId(0)),
            (s2, SegmentId(1)),
            (s1, SegmentId(2)),
            (s1, SegmentId(9)),
        ];
        let mut out = Vec::new();
        mux.observe_batch(&events, &mut out);
        assert_eq!(out, vec![0, 0, 0, 0]);
        assert_eq!(mux.close(s1).len(), 3);
        assert_eq!(mux.close(s2).len(), 1);
    }

    /// Labels each segment by parity and echoes the history on finish —
    /// discriminative enough to catch routing or ordering mistakes.
    #[derive(Default)]
    struct Parity {
        labels: Vec<u8>,
    }

    impl OnlineDetector for Parity {
        fn name(&self) -> &'static str {
            "Parity"
        }
        fn begin(&mut self, _sd: SdPair, _start_time: f64) {
            self.labels.clear();
        }
        fn observe(&mut self, segment: SegmentId) -> u8 {
            let label = (segment.0 & 1) as u8;
            self.labels.push(label);
            label
        }
        fn finish(&mut self) -> Vec<u8> {
            std::mem::take(&mut self.labels)
        }
    }

    #[test]
    fn sharded_mux_routes_and_orders_events() {
        let mut engine = Sharded::build(3, |_| SessionMux::new(Parity::default));
        assert_eq!(engine.num_shards(), 3);
        assert_eq!(engine.engine_name(), "Parity");

        let handles: Vec<_> = (0..10).map(|k| engine.open(sd(k, k + 1), 0.0)).collect();
        assert_eq!(engine.active_sessions(), 10);
        for &h in &handles {
            // Routing is stable: repeated queries agree, and the shard is
            // in range.
            assert_eq!(engine.shard_of(h), engine.shard_of(h));
            assert!(engine.shard_of(h) < 3);
        }

        // One tick with duplicates: session 0 appears three times; labels
        // must come back in event order (parity of each segment).
        let events = vec![
            (handles[0], SegmentId(2)),
            (handles[1], SegmentId(3)),
            (handles[0], SegmentId(5)),
            (handles[2], SegmentId(4)),
            (handles[0], SegmentId(7)),
        ];
        let mut out = Vec::new();
        engine.observe_batch(&events, &mut out);
        assert_eq!(out, vec![0, 1, 1, 0, 1]);

        // Scalar observes interleave with batched ticks on the same shard.
        assert_eq!(engine.observe(handles[1], SegmentId(8)), 0);

        // Per-session history survives routing: close returns the labels
        // in per-session order.
        assert_eq!(engine.close(handles[0]), vec![0, 1, 1]);
        assert_eq!(engine.close(handles[1]), vec![1, 0]);
        assert_eq!(engine.close(handles[2]), vec![0]);
        for &h in &handles[3..] {
            assert!(engine.close(h).is_empty());
        }
        assert_eq!(engine.active_sessions(), 0);
    }

    #[test]
    fn sharded_spreads_sessions() {
        let mut engine = Sharded::build(4, |_| SessionMux::new(AlwaysNormal::default));
        let mut per_shard = [0usize; 4];
        let handles: Vec<_> = (0..64).map(|_| engine.open(sd(0, 9), 0.0)).collect();
        for &h in &handles {
            per_shard[engine.shard_of(h)] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "64 sessions left a shard empty: {per_shard:?}"
        );
        for h in handles {
            engine.close(h);
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn sharded_rejects_zero_shards() {
        let _ = Sharded::build(0, |_| SessionMux::new(AlwaysNormal::default));
    }

    #[test]
    #[should_panic(expected = "stale session")]
    fn sharded_rejects_closed_handles() {
        let mut engine = Sharded::build(2, |_| SessionMux::new(AlwaysNormal::default));
        let h = engine.open(sd(0, 9), 0.0);
        engine.close(h);
        engine.observe(h, SegmentId(0));
    }
}
