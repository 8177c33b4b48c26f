//! Async ingestion front door: turn independent per-point arrivals into
//! batched [`SessionEngine::observe_batch`] ticks without ever making a
//! point wait for company.
//!
//! The paper's workload is *online* — each GPS point of each ongoing trip
//! must be labelled as it arrives — but [`crate::session::Sharded`] is
//! driven tick-synchronously by one caller that already holds a whole
//! tick's events. A fleet does not arrive in ticks: thousands of producer
//! threads (one per gateway connection, per Kafka partition, per vehicle
//! pool) each hold *one* point at a time. [`IngestFrontDoor`] is the
//! missing subsystem between the two shapes:
//!
//! * **one bounded ingress queue per shard** — sessions are hashed to a
//!   shard at [`IngestHandle::open`]; every later event of that session
//!   lands in the same FIFO queue, so per-session order is preserved and a
//!   slow shard never stalls the others;
//! * **persistent worker threads** — each shard is owned by one worker
//!   spawned once at construction, so shards advance in parallel with no
//!   thread start-up on the hot path; the worker also owns its
//!   batch/label scratch buffers, reused across flushes;
//! * **opportunistic group commit** — a worker with events pending takes
//!   whatever is already queued (up to [`FlushPolicy::max_batch`]) and
//!   flushes it into its shard as one `observe_batch` tick the moment the
//!   queue is empty. No timer anywhere: a lone point on an idle shard is
//!   labelled at once, and a backlog becomes larger flushes, not later
//!   ones;
//! * **explicit backpressure** — [`IngestHandle::submit`] never blocks: a
//!   full ingress queue is reported as [`SubmitError::QueueFull`] and the
//!   producer decides (drop, retry, shed);
//! * **an event-driven return path** — labels, faults and close results
//!   are pushed into a bounded [`LabelSink`] and its consumer is woken
//!   once per flush (see [`crate::sink`]): a [`Subscription`] is a
//!   one-session view over a private sink, a server connection opens all
//!   its sessions onto one ([`IngestHandle::open_onto`]). A consumer that
//!   stops draining eventually stalls only its own shard's flush;
//! * **graceful shutdown** — [`IngestFrontDoor::shutdown`] drains every
//!   event whose `submit` returned `Ok` (a quiescence barrier covers even
//!   submits racing the shutdown call), flushes it, and hands the shard
//!   engines back together with aggregate [`IngestStats`] (including an
//!   HDR-style submit→label [`LatencyHistogram`]);
//! * **control commands at flush boundaries** — [`IngestHandle::control`]
//!   broadcasts an engine mutation (e.g. a model hot-swap, see
//!   `rl4oasd::SwapModel`) through the same FIFO ingress queues; each
//!   worker first flushes its pending micro-batch, then applies the
//!   command, so a control never splits a micro-batch and everything
//!   submitted before the broadcast is processed under the pre-command
//!   engine state. The handle is typed by its engine (`IngestHandle<E>`),
//!   so commands for the wrong engine type are a compile error, not a
//!   runtime surprise;
//! * **fault tolerance** — every shard worker runs under a supervisor: a
//!   panic in batch processing quarantines only the sessions implicated
//!   in the aborted micro-batch (their subscriptions terminate with an
//!   explicit [`SessionFault`], never a hang), hands the engine over to
//!   its [`SessionEngine::successor`] — which keeps the engine's model
//!   epochs and counters and every sound session under its old handle
//!   (checked through the hibernate freeze/thaw path for
//!   `rl4oasd::StreamEngine`) — and resumes: unaffected sessions keep
//!   byte-identical labels. Events the engine rejects as unprocessable
//!   ([`SessionEngine::admit`]) are *poison*: they quarantine their
//!   session before ever reaching the engine, so one malformed trip can
//!   never crash a shard. Producers get policy
//!   tools on the handle — bounded [`RetryPolicy`] backoff,
//!   [`IngestHandle::submit_with_deadline`], and degraded-mode admission
//!   control that sheds [`Priority::Low`] opens while a shard is
//!   restarting or persistently full. Accounting stays exact across
//!   faults: `flushed + shed + quarantined == submitted`.
//!
//! Because a session's events reach its shard in submit order and
//! [`SessionEngine`] guarantees interleaving never changes labels, the
//! per-session label sequence is **byte-identical** to driving
//! `observe_batch` synchronously — for any [`FlushPolicy`] and any shard
//! count (property-tested in `tests/ingest.rs`).

use crate::session::{SessionEngine, SessionId};
use crate::sink::{label_sink, LabelSink, SinkConsumer, SinkEvent};
use crate::types::SdPair;
use obs::{names, Counter, Gauge, Histo, Obs, OpsEvent, Stage, StageHandle};
use rnet::SegmentId;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When a worker flushes its pending micro-batch into its shard.
///
/// The worker commits opportunistically: with events pending it takes
/// whatever is **already queued** and flushes the moment the ingress
/// queue is empty, or earlier when `max_batch` events are pending
/// (throughput bound: larger batches amortise the per-tick cost and widen
/// the batched nn kernels). It never sleeps while it holds events it
/// could label, so a lone event on an idle shard is flushed at once, and
/// a backlog produces *larger* flushes, never later ones.
///
/// There is deliberately no time bound: a batch only grows while the
/// queue hands over commands back to back, at well under a microsecond
/// each, so its age is bounded by `max_batch` itself — a deadline could
/// only ever end a batch that an empty queue or `max_batch` ends within
/// microseconds anyway.
///
/// [`FlushPolicy::immediate`] flushes every event alone (no batching
/// win); a huge `max_batch` batches everything a backlog holds. Shutdown,
/// `close` and control commands always flush whatever is pending,
/// regardless of policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush when this many events are pending (clamped to at least 1).
    pub max_batch: usize,
}

impl FlushPolicy {
    /// Flush every event by itself: no batching.
    pub fn immediate() -> Self {
        FlushPolicy { max_batch: 1 }
    }

    /// A policy flushing at `max_batch` pending events (or, before that,
    /// as soon as the ingress queue is empty).
    pub fn new(max_batch: usize) -> Self {
        FlushPolicy { max_batch }
    }
}

impl Default for FlushPolicy {
    /// 64-event batches — enough lanes for the batched kernels, a few
    /// hundred microseconds of engine work per flush at most.
    fn default() -> Self {
        FlushPolicy { max_batch: 64 }
    }
}

/// Construction-time knobs of an [`IngestFrontDoor`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Micro-batching bounds (see [`FlushPolicy`]).
    pub flush: FlushPolicy,
    /// Capacity of each per-shard ingress queue; a full queue turns
    /// [`IngestHandle::submit`] into [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Undelivered labels a consumer's [`LabelSink`] holds — per
    /// [`Subscription`], or per sink a caller opens many sessions onto.
    /// A full sink blocks its shard's flush (backpressure toward the
    /// consumer), so size it for how far the consumer may fall behind.
    pub outbox_capacity: usize,
    /// Telemetry handle. [`obs::Obs::disabled`] (the default) keeps the
    /// door's hot path free of any telemetry work; an enabled handle gets
    /// per-shard ingress counters, per-stage latency histograms
    /// (enqueue-wait / batch-compute / label-delivery) and the
    /// submit→label histogram registered under the `oasd_ingest_*` /
    /// `oasd_stage_nanos` names.
    pub obs: Obs,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            flush: FlushPolicy::default(),
            queue_capacity: 1024,
            outbox_capacity: 256,
            obs: Obs::disabled(),
        }
    }
}

/// Why an [`IngestHandle`] call was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The session's shard queue is full — backpressure. The event was
    /// **not** accepted; retry, shed or slow down.
    QueueFull,
    /// The front door is shutting down (or already shut down); no further
    /// events are accepted.
    ShutDown,
    /// [`IngestHandle::submit_with_deadline`] ran out of budget while the
    /// shard queue stayed full. The event was **not** accepted.
    DeadlineExceeded,
    /// Degraded-mode admission control shed this [`Priority::Low`] open:
    /// the target shard is restarting after a fault or its queue has been
    /// full past the watermark. Nothing was enqueued.
    Degraded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "shard ingress queue is full"),
            SubmitError::ShutDown => write!(f, "ingest front door is shut down"),
            SubmitError::DeadlineExceeded => {
                write!(f, "submit deadline elapsed while the shard queue was full")
            }
            SubmitError::Degraded => {
                write!(
                    f,
                    "low-priority open shed by degraded-mode admission control"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a session was quarantined (or a close rejected): the terminal
/// status a faulted session's [`CloseTicket`] resolves with and its
/// [`Subscription::fault`] reports. Every fault is explicit — a faulted
/// session's consumer always observes a disconnect plus one of these,
/// never a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionFault {
    /// The session submitted an event its engine rejected as
    /// unprocessable ([`SessionEngine::admit`]). Events labelled before
    /// the poison event were delivered normally; the poison event and
    /// everything after it were quarantined.
    PoisonEvent,
    /// The session's events were in the micro-batch a shard worker
    /// panicked on; its engine state could not be trusted afterwards.
    WorkerCrash,
    /// The session survived the panic but the engine's successor could
    /// not carry its state over (torn state, or an engine with no
    /// successor, rebuilt from its factory).
    Unsalvageable,
    /// The close targeted a session its shard does not know — a double
    /// close, or a session that was never opened.
    UnknownSession,
}

impl std::fmt::Display for SessionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionFault::PoisonEvent => write!(f, "session quarantined: poison event"),
            SessionFault::WorkerCrash => {
                write!(f, "session quarantined: implicated in a shard-worker panic")
            }
            SessionFault::Unsalvageable => {
                write!(
                    f,
                    "session quarantined: state not salvageable across restart"
                )
            }
            SessionFault::UnknownSession => write!(f, "close of an unknown or closed session"),
        }
    }
}

impl std::error::Error for SessionFault {}

/// Marker every *injected* panic message carries (fault-injection
/// harnesses panic with it) so [`silence_injected_panic_output`] can
/// suppress exactly that noise and nothing else.
pub const FAULT_INJECTION_MARKER: &str = "oasd-fault-injection";

/// Installs (once per process) a chained panic hook that swallows the
/// default "thread panicked" stderr report for panics whose message
/// contains [`FAULT_INJECTION_MARKER`]. Genuine panics still print
/// through the previously installed hook. Supervised workers *recover*
/// from injected panics by design, so their unwind reports are pure
/// noise in chaos tests and benches.
pub fn silence_injected_panic_output() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains(FAULT_INJECTION_MARKER) {
                previous(info);
            }
        }));
    });
}

/// SplitMix64 — the same tiny generator the scenario traces use; here it
/// de-correlates retry jitter across producers deterministically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bounded exponential backoff with seeded, deterministic jitter for
/// `QueueFull` retries — the replacement for hot-spin retry loops.
///
/// The delay for attempt `k` doubles from [`base`](RetryPolicy::base) up
/// to the [`max_backoff`](RetryPolicy::max_backoff) cap, then a jitter
/// drawn from SplitMix64 over `(jitter_seed, salt, k)` scatters it into
/// `[delay/2, delay]` so colliding producers de-synchronise the same way
/// on every run — chaos runs stay replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt; `u32::MAX` means retry until the
    /// call stops reporting `QueueFull` (use for lossless producers).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Backoff cap; doubling stops here.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 10 retries, 20 µs doubling to a 2 ms cap.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 10,
            base: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 0x0A5D_FA17,
        }
    }
}

impl RetryPolicy {
    /// Retries forever (bounded *backoff*, unbounded *attempts*) — for
    /// producers that must not lose events, replacing unbounded hot
    /// spins with capped sleeps.
    pub fn unbounded(jitter_seed: u64) -> Self {
        RetryPolicy {
            max_retries: u32::MAX,
            jitter_seed,
            ..RetryPolicy::default()
        }
    }

    /// The jittered delay before retry `attempt` (0-based). Deterministic
    /// in `(jitter_seed, salt, attempt)`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let doubled = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff)
            .max(self.base);
        let nanos = doubled.as_nanos().min(u128::from(u64::MAX)) as u64;
        let half = nanos / 2;
        let mix = splitmix64(
            self.jitter_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt)
                .wrapping_add(u64::from(attempt)),
        );
        Duration::from_nanos(half + mix % (half + 1))
    }

    /// Runs `op`, retrying `QueueFull` under this policy (sleeping the
    /// jittered backoff between attempts; `salt` de-correlates concurrent
    /// callers). Any other outcome — success, `ShutDown`, … — returns
    /// immediately; exhausted retries return the last `QueueFull`.
    pub fn run<T>(
        &self,
        salt: u64,
        mut op: impl FnMut() -> Result<T, SubmitError>,
    ) -> Result<T, SubmitError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(SubmitError::QueueFull) if attempt < self.max_retries => {
                    let delay = self.backoff(attempt, salt);
                    if delay.is_zero() {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(delay);
                    }
                    attempt = attempt.saturating_add(1);
                }
                other => return other,
            }
        }
    }
}

/// Admission class of an open under degraded-mode admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Admitted whenever the queue has room, degraded or not. Plain
    /// [`IngestHandle::open`] uses this.
    High,
    /// Shed with [`SubmitError::Degraded`] while the target shard is
    /// restarting or its queue has been full past the watermark.
    Low,
}

/// One session's label stream: accepted events yield provisional labels
/// here, in submit order. Disconnects (all further receives return `None`)
/// once the session is closed and every delivered label has been taken.
///
/// A subscription is a one-session view over a private [`LabelSink`] —
/// the same push-woken sink a server connection shares between all its
/// sessions ([`IngestHandle::open_onto`]) — so [`recv`](Self::recv) parks
/// until the shard worker's next flush wakes it; nothing polls.
///
/// Delivery is bounded (`outbox_capacity`): a consumer that stops
/// draining eventually blocks its shard's flush — consumer-directed
/// backpressure — so drain promptly, and never block waiting for *later*
/// labels while leaving earlier ones untaken. One deliberate exception
/// keeps close from deadlocking: labels still pending when
/// [`IngestHandle::close`] is processed are delivered to the stream only
/// as sink room allows (the closer is waiting on the [`CloseTicket`],
/// whose final labels cover every accepted event regardless).
pub struct Subscription {
    sink: SinkConsumer,
}

impl Subscription {
    /// Takes the next label without blocking; `None` if nothing is ready
    /// (including after the session closed and the stream drained).
    pub fn try_recv(&self) -> Option<u8> {
        self.sink.pop_label(false)
    }

    /// The session's terminal fault, if it was quarantined. A faulted
    /// session's stream disconnects (receives return `None`) and this
    /// reports why; `None` here means the session is healthy (or closed
    /// normally).
    pub fn fault(&self) -> Option<SessionFault> {
        self.sink.terminal_fault()
    }

    /// Blocks for the next label; `None` once the session is closed (or
    /// quarantined) and the stream is drained.
    pub fn recv(&self) -> Option<u8> {
        self.sink.pop_label(true)
    }

    /// Drains every currently ready label into `out`, returning how many
    /// were appended.
    pub fn drain_into(&self, out: &mut Vec<u8>) -> usize {
        self.sink.drain_labels(out)
    }
}

/// Pending result of an [`IngestHandle::close`]: the session's final
/// labels arrive once its shard worker has flushed the session's pending
/// events and closed it in the engine.
pub struct CloseTicket {
    sink: SinkConsumer,
}

impl CloseTicket {
    /// Blocks until the close completes. `Ok` carries the session's final
    /// labels (engines with delayed decisions may have revised them);
    /// `Err` is the session's terminal [`SessionFault`] — a quarantined
    /// session, a double close, or (as [`SessionFault::WorkerCrash`]) a
    /// worker that died before replying. Never panics, never hangs.
    pub fn wait(self) -> Result<Vec<u8>, SessionFault> {
        self.sink
            .pop_closed(true)
            .unwrap_or(Err(SessionFault::WorkerCrash))
    }

    /// Non-blocking probe; `Some` once the close has completed (same
    /// payload as [`wait`](Self::wait)).
    pub fn try_wait(&self) -> Option<Result<Vec<u8>, SessionFault>> {
        self.sink.pop_closed(false)
    }
}

// The HDR histogram grew into the telemetry crate (where the registry
// shares its bucket math); re-exported here so `traj::LatencyHistogram`
// keeps working for every existing caller.
pub use obs::LatencyHistogram;

/// Aggregate counters of one front door's lifetime, returned by
/// [`IngestFrontDoor::shutdown`] (live counters are also visible through
/// [`IngestHandle::accepted_events`] / [`IngestHandle::rejected_events`]).
#[derive(Debug, Clone)]
pub struct IngestStats {
    /// Observe events accepted by `submit`.
    pub submitted: u64,
    /// `submit` calls rejected with [`SubmitError::QueueFull`].
    pub rejected_full: u64,
    /// Events flushed into shard engines (equals `submitted` after a
    /// graceful shutdown).
    pub flushed_events: u64,
    /// Micro-batch flushes executed (each is one `observe_batch` tick).
    pub flushes: u64,
    /// Largest single flush.
    pub max_flush_batch: usize,
    /// Accepted events dropped as stray (their session was unknown to the
    /// shard — e.g. submitted after close). Zero in a fault-free run.
    pub shed_events: u64,
    /// Accepted events charged to quarantined sessions (the poison event
    /// itself, events in a panic-aborted batch, and later arrivals for an
    /// already-quarantined session). Zero in a fault-free run.
    pub quarantined_events: u64,
    /// Sessions quarantined with a terminal [`SessionFault`].
    pub quarantined_sessions: u64,
    /// Supervised-worker restarts performed.
    pub worker_restarts: u64,
    /// `submit_with_deadline` calls that gave up at their deadline.
    pub deadline_exceeded: u64,
    /// Submit→label latency of every flushed event.
    pub latency: LatencyHistogram,
}

/// Everything a graceful [`IngestFrontDoor::shutdown`] hands back: the
/// shard engines (with any still-open sessions intact) and the aggregate
/// ingestion statistics.
pub struct ShutdownReport<E> {
    /// The shard engines, in shard order.
    pub engines: Vec<E>,
    /// Aggregate counters and the merged latency histogram.
    pub stats: IngestStats,
}

/// Consecutive producer-side `QueueFull` rejections on one shard that
/// flip it into queue-degraded admission control (any accepted submit
/// resets the streak and lifts it).
const DEGRADED_WATERMARK: u64 = 256;

/// A type-erased control command. The queues carry the erased form so
/// [`Shared`] stays untyped; the typed [`IngestHandle::control`] builds the
/// closure from a concrete `FnOnce(&mut E)`, and the worker hands it
/// `&mut E` as `&mut dyn Any` (the downcast cannot fail: handles are only
/// minted by an `IngestFrontDoor<E>` of the same `E`).
type ControlFn = Box<dyn FnOnce(&mut dyn Any) + Send>;

enum Cmd {
    Open {
        outer: u64,
        /// Engine scope (tenant) the session opens under; 0 is the
        /// default namespace (see [`SessionEngine::open_scoped`]).
        scope: u32,
        sd: SdPair,
        start_time: f64,
        /// Where the session's labels and terminal fault go, and the
        /// consumer's name for the session there.
        sink: LabelSink,
        key: u64,
    },
    Observe {
        outer: u64,
        segment: SegmentId,
        submitted: Instant,
    },
    Close {
        outer: u64,
        reply: CloseReply,
    },
    /// Engine mutation applied at the worker's next flush boundary.
    Control(ControlFn),
    Shutdown,
}

/// Where a close's result goes: a [`SinkEvent::Closed`] under `key` on
/// `sink`. The worker arms it on dequeue; if it is then dropped
/// unanswered — the worker panicked while closing — it answers
/// [`SessionFault::WorkerCrash`] itself, so a closer on a shared sink
/// (which never disconnects under it) does not hang either.
struct CloseReply {
    sink: LabelSink,
    key: u64,
    armed: bool,
}

impl CloseReply {
    fn send(mut self, result: Result<Vec<u8>, SessionFault>) {
        self.armed = false;
        self.sink.push_event(SinkEvent::Closed {
            key: self.key,
            result,
        });
    }
}

impl Drop for CloseReply {
    fn drop(&mut self) {
        if self.armed {
            self.sink.push_event(SinkEvent::Closed {
                key: self.key,
                result: Err(SessionFault::WorkerCrash),
            });
        }
    }
}

/// Per-shard fault/degradation state shared between the shard's worker
/// and every producer handle. All plain atomics — readable live, exact
/// after shutdown.
#[derive(Default)]
struct ShardHealth {
    /// The worker is mid-recovery (between catching a panic and resuming
    /// its serve loop).
    restarting: AtomicBool,
    /// Degraded because the ingress queue stayed full past the watermark.
    queue_degraded: AtomicBool,
    /// Consecutive `QueueFull` rejections observed by producers; any
    /// accepted submit resets it.
    full_streak: AtomicU64,
    restarts: AtomicU64,
    quarantined_sessions: AtomicU64,
    quarantined_events: AtomicU64,
    shed_events: AtomicU64,
    /// Low-priority opens shed while degraded ("count everything").
    shed_opens: AtomicU64,
}

impl ShardHealth {
    fn degraded(&self) -> bool {
        self.restarting.load(Ordering::SeqCst) || self.queue_degraded.load(Ordering::SeqCst)
    }
}

struct Shared {
    queues: Vec<SyncSender<Cmd>>,
    next_session: AtomicU64,
    closed: AtomicBool,
    /// Producers inside a check-closed + enqueue critical section right
    /// now. `shutdown` waits for this to reach zero after setting `closed`
    /// (a quiescence barrier), so every command whose submit returned `Ok`
    /// — even one racing the shutdown call — is in its queue before the
    /// `Shutdown` markers go out and is therefore drained, never dropped.
    inflight: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
    outbox_capacity: usize,
    /// Consecutive `QueueFull` rejections on one shard that flip it into
    /// queue-degraded mode.
    degraded_watermark: u64,
    /// Per-shard fault/degradation state (index = shard), shared with the
    /// shard workers.
    health: Vec<Arc<ShardHealth>>,
    /// Pre-resolved per-shard telemetry counters (index = shard); inert
    /// no-op handles when the door was built without telemetry.
    obs_submitted: Vec<Counter>,
    obs_rejected: Vec<Counter>,
    obs_deadline: Vec<Counter>,
    obs_degraded: Vec<Gauge>,
    obs: Obs,
}

impl Shared {
    /// Fibonacci-hashes a session's raw id onto a shard (the same spread
    /// as [`crate::session::Sharded`]).
    fn shard_of(&self, raw: u64) -> usize {
        let h = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.queues.len() as u64) as usize
    }

    /// Producer-side degraded bookkeeping on an accepted submit: any
    /// success proves the queue is accepting again, so the streak resets
    /// and queue-degradation (if set) lifts.
    fn note_accept(&self, shard: usize) {
        let health = &self.health[shard];
        if health.full_streak.swap(0, Ordering::Relaxed) > 0
            && health.queue_degraded.swap(false, Ordering::SeqCst)
        {
            self.obs_degraded[shard].set(u64::from(health.degraded()));
            self.obs.event(OpsEvent::DegradedExit {
                shard: shard as u32,
            });
        }
    }

    /// Producer-side degraded bookkeeping on a `QueueFull` rejection:
    /// crossing the watermark flips the shard into queue-degraded mode.
    fn note_full(&self, shard: usize) {
        let health = &self.health[shard];
        let streak = health.full_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.degraded_watermark && !health.queue_degraded.swap(true, Ordering::SeqCst)
        {
            self.obs_degraded[shard].set(1);
            self.obs.event(OpsEvent::DegradedEnter {
                shard: shard as u32,
            });
        }
    }
}

/// Cheap, cloneable producer handle of an [`IngestFrontDoor<E>`]: any
/// number of threads submit per-point events concurrently; none of the
/// calls blocks on engine work (except [`IngestHandle::submit_blocking`]
/// and [`IngestHandle::control`], which wait for queue space).
///
/// The handle carries the front door's engine type `E` purely at the type
/// level (it stores no engine), so engine-specific control commands —
/// like the RL4OASD model hot-swap, `rl4oasd::SwapModel::swap_model` —
/// are compile-time checked against the engine actually behind the door.
///
/// # Example
///
/// ```
/// use traj::detector::AlwaysNormal;
/// use traj::{IngestConfig, IngestFrontDoor, SdPair, SessionMux};
/// use rnet::SegmentId;
///
/// let door = IngestFrontDoor::build(
///     2,
///     |_| SessionMux::new(AlwaysNormal::default),
///     IngestConfig::default(),
/// );
/// let handle = door.handle();
/// let sd = SdPair { source: SegmentId(0), dest: SegmentId(9) };
/// let (session, labels) = handle.open(sd, 0.0).unwrap();
/// handle.submit(session, SegmentId(3)).unwrap(); // never blocks
/// let finals = handle.close(session).unwrap().wait().unwrap();
/// assert_eq!(finals, vec![0]);
/// assert_eq!(labels.recv(), Some(0));
/// let report = door.shutdown();
/// assert_eq!(report.stats.flushed_events, 1);
/// ```
pub struct IngestHandle<E> {
    shared: Arc<Shared>,
    /// `fn(&mut E)` keeps the handle `Send + Sync` (and covariant enough)
    /// regardless of `E`, while still naming the engine type.
    _engine: PhantomData<fn(&mut E)>,
}

impl<E> Clone for IngestHandle<E> {
    fn clone(&self) -> Self {
        IngestHandle {
            shared: Arc::clone(&self.shared),
            _engine: PhantomData,
        }
    }
}

/// Whether a queued command counts toward the observe-event tallies.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tally {
    Observe,
    Control,
}

impl<E> IngestHandle<E> {
    /// The shutdown quiescence barrier, single-sourced for every enqueue
    /// path (`push`, [`IngestHandle::submit_blocking`],
    /// [`IngestHandle::control`]): `inflight` is held across the closed
    /// check, the enqueue *and* the stats tally, so `shutdown` can wait
    /// out every concurrent producer before sealing the queues — any
    /// command whose enqueue returned `Ok` is already in its queue (and
    /// tallied) when the `Shutdown` markers go out, hence drained, never
    /// dropped or under-counted.
    fn with_inflight<T>(
        &self,
        enqueue: impl FnOnce() -> Result<T, SubmitError>,
    ) -> Result<T, SubmitError> {
        self.shared.inflight.fetch_add(1, Ordering::SeqCst);
        let result = if self.shared.closed.load(Ordering::SeqCst) {
            Err(SubmitError::ShutDown)
        } else {
            enqueue()
        };
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Enqueues a command (non-blocking) inside the quiescence barrier.
    fn push(&self, shard: usize, cmd: Cmd, tally: Tally) -> Result<(), SubmitError> {
        self.with_inflight(|| {
            let result = match self.shared.queues[shard].try_send(cmd) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(_)) => Err(SubmitError::QueueFull),
                Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShutDown),
            };
            match result {
                Ok(()) => {
                    if tally == Tally::Observe {
                        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                        self.shared.obs_submitted[shard].inc();
                    }
                    self.shared.note_accept(shard);
                }
                Err(SubmitError::QueueFull) => {
                    if tally == Tally::Observe {
                        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                        self.shared.obs_rejected[shard].inc();
                    }
                    self.shared.note_full(shard);
                }
                Err(_) => {}
            }
            result
        })
    }

    /// Opens a session for a trip, returning its handle and the
    /// [`Subscription`] its provisional labels will arrive on.
    ///
    /// The open travels through the session's shard queue like any other
    /// event (FIFO), so events submitted afterwards are guaranteed to be
    /// processed after it.
    pub fn open(
        &self,
        sd: SdPair,
        start_time: f64,
    ) -> Result<(SessionId, Subscription), SubmitError> {
        self.open_with_priority(sd, start_time, Priority::High)
    }

    /// Like [`open`](Self::open), but subject to degraded-mode admission
    /// control: a [`Priority::Low`] open is shed with
    /// [`SubmitError::Degraded`] (nothing enqueued, the shed counted)
    /// while its target shard is restarting after a fault or its queue
    /// has stayed full past the watermark. [`Priority::High`] opens are
    /// never shed by degradation — only by a genuinely full queue.
    pub fn open_with_priority(
        &self,
        sd: SdPair,
        start_time: f64,
        priority: Priority,
    ) -> Result<(SessionId, Subscription), SubmitError> {
        self.open_scoped(0, sd, start_time, priority)
    }

    /// Like [`open_with_priority`](Self::open_with_priority), but opens
    /// the session under engine scope (tenant) `scope` — forwarded to
    /// [`SessionEngine::open_scoped`] on the shard worker, so a
    /// scope-aware engine pins the session to that scope's model epoch.
    /// Scope 0 is exactly [`open_with_priority`](Self::open_with_priority).
    pub fn open_scoped(
        &self,
        scope: u32,
        sd: SdPair,
        start_time: f64,
        priority: Priority,
    ) -> Result<(SessionId, Subscription), SubmitError> {
        let (sink, consumer) = self.label_sink();
        let session = self.open_onto(&sink, 0, scope, sd, start_time, priority)?;
        Ok((session, Subscription { sink: consumer }))
    }

    /// A fresh [`LabelSink`] bounded by this door's `outbox_capacity`,
    /// for a consumer that opens many sessions onto one sink with
    /// [`open_onto`](Self::open_onto).
    pub fn label_sink(&self) -> (LabelSink, SinkConsumer) {
        label_sink(self.shared.outbox_capacity)
    }

    /// Like [`open_scoped`](Self::open_scoped), but the session's labels
    /// and terminal fault are pushed onto the caller's `sink` as
    /// [`SinkEvent`]s carrying `key` — the consumer's own name for the
    /// session — instead of onto a private [`Subscription`]. No
    /// per-session channel is allocated: a consumer with many sessions
    /// (a server connection) opens them all onto one sink and blocks on
    /// that sink alone.
    pub fn open_onto(
        &self,
        sink: &LabelSink,
        key: u64,
        scope: u32,
        sd: SdPair,
        start_time: f64,
        priority: Priority,
    ) -> Result<SessionId, SubmitError> {
        let raw = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let shard = self.shared.shard_of(raw);
        if priority == Priority::Low && self.shared.health[shard].degraded() {
            self.shared.health[shard]
                .shed_opens
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Degraded);
        }
        self.push(
            shard,
            Cmd::Open {
                outer: raw,
                scope,
                sd,
                start_time,
                sink: sink.clone(),
                key,
            },
            Tally::Control,
        )?;
        Ok(SessionId::from_raw(raw))
    }

    /// Submits the next road segment of an open session. Never blocks: a
    /// full shard queue is reported as [`SubmitError::QueueFull`] and the
    /// event is **not** accepted.
    ///
    /// Submitting to a session that was never opened (or already closed)
    /// is a contract violation, but a tolerated one: the shard worker
    /// sheds the stray event (counted in
    /// [`IngestStats::shed_events`]) instead of panicking.
    pub fn submit(&self, session: SessionId, segment: SegmentId) -> Result<(), SubmitError> {
        let raw = session.raw();
        self.push(
            self.shared.shard_of(raw),
            Cmd::Observe {
                outer: raw,
                segment,
                submitted: Instant::now(),
            },
            Tally::Observe,
        )
    }

    /// Like [`submit`](Self::submit), but retries `QueueFull` under
    /// `policy`'s bounded, jittered backoff (salted by the session id so
    /// concurrent producers de-synchronise deterministically). Exhausted
    /// retries return the last `QueueFull`.
    pub fn submit_with_retry(
        &self,
        session: SessionId,
        segment: SegmentId,
        policy: &RetryPolicy,
    ) -> Result<(), SubmitError> {
        policy.run(session.raw(), || self.submit(session, segment))
    }

    /// Like [`submit`](Self::submit), but keeps retrying a full queue
    /// until `deadline`; past it the call gives up with
    /// [`SubmitError::DeadlineExceeded`] (counted in
    /// [`IngestStats::deadline_exceeded`] and per shard under
    /// `oasd_ingest_deadline_exceeded_total`). The event is **not**
    /// accepted on the error path.
    pub fn submit_with_deadline(
        &self,
        session: SessionId,
        segment: SegmentId,
        deadline: Instant,
    ) -> Result<(), SubmitError> {
        loop {
            match self.submit(session, segment) {
                Err(SubmitError::QueueFull) => {
                    if Instant::now() >= deadline {
                        let shard = self.shared.shard_of(session.raw());
                        self.shared
                            .deadline_exceeded
                            .fetch_add(1, Ordering::Relaxed);
                        self.shared.obs_deadline[shard].inc();
                        return Err(SubmitError::DeadlineExceeded);
                    }
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// Like [`IngestHandle::submit`], but waits for queue space instead of
    /// reporting [`SubmitError::QueueFull`] — the blocking producer style
    /// for callers that prefer waiting over shedding.
    pub fn submit_blocking(
        &self,
        session: SessionId,
        segment: SegmentId,
    ) -> Result<(), SubmitError> {
        let raw = session.raw();
        let shard = self.shared.shard_of(raw);
        self.with_inflight(|| {
            self.shared.queues[shard]
                .send(Cmd::Observe {
                    outer: raw,
                    segment,
                    submitted: Instant::now(),
                })
                .map_err(|_| SubmitError::ShutDown)
                .map(|()| {
                    self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                    self.shared.obs_submitted[shard].inc();
                })
        })
    }

    /// Requests the session's close. The shard worker first flushes the
    /// session's pending events, then closes it; the final labels arrive
    /// on the returned [`CloseTicket`].
    pub fn close(&self, session: SessionId) -> Result<CloseTicket, SubmitError> {
        let (sink, consumer) = label_sink(0);
        self.close_onto(&sink, 0, session)?;
        Ok(CloseTicket { sink: consumer })
    }

    /// Like [`close`](Self::close), but the result arrives on the
    /// caller's `sink` as [`SinkEvent::Closed`] under `key` — after every
    /// label of the session when `sink` is the one it was opened onto.
    pub fn close_onto(
        &self,
        sink: &LabelSink,
        key: u64,
        session: SessionId,
    ) -> Result<(), SubmitError> {
        let raw = session.raw();
        self.push(
            self.shared.shard_of(raw),
            Cmd::Close {
                outer: raw,
                reply: CloseReply {
                    sink: sink.clone(),
                    key,
                    armed: false,
                },
            },
            Tally::Control,
        )
    }

    /// Number of shards (and ingress queues) behind this handle.
    pub fn num_shards(&self) -> usize {
        self.shared.queues.len()
    }

    /// Live count of events accepted by `submit` so far.
    pub fn accepted_events(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Live count of `submit` calls rejected with `QueueFull` so far.
    pub fn rejected_events(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Live count of shard-worker restarts (one per caught panic) across
    /// all shards.
    pub fn worker_restarts(&self) -> u64 {
        self.sum_health(|h| h.restarts.load(Ordering::Relaxed))
    }

    /// Live count of sessions quarantined with a terminal fault.
    pub fn quarantined_sessions(&self) -> u64 {
        self.sum_health(|h| h.quarantined_sessions.load(Ordering::Relaxed))
    }

    /// Live count of accepted events charged to quarantined sessions.
    pub fn quarantined_events(&self) -> u64 {
        self.sum_health(|h| h.quarantined_events.load(Ordering::Relaxed))
    }

    /// Live count of accepted events shed as stray (unknown session).
    pub fn shed_events(&self) -> u64 {
        self.sum_health(|h| h.shed_events.load(Ordering::Relaxed))
    }

    /// Live count of low-priority opens shed by degraded-mode admission.
    pub fn shed_opens(&self) -> u64 {
        self.sum_health(|h| h.shed_opens.load(Ordering::Relaxed))
    }

    /// Live count of `submit_with_deadline` calls that hit their deadline.
    pub fn deadline_exceeded_events(&self) -> u64 {
        self.shared.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Whether `shard` is currently in degraded-mode admission control
    /// (restarting after a fault, or queue full past the watermark).
    pub fn is_degraded(&self, shard: usize) -> bool {
        self.shared.health[shard].degraded()
    }

    /// Whether any shard is currently degraded.
    pub fn any_degraded(&self) -> bool {
        self.shared.health.iter().any(|h| h.degraded())
    }

    fn sum_health(&self, read: impl Fn(&ShardHealth) -> u64) -> u64 {
        self.shared.health.iter().map(|h| read(h)).sum()
    }
}

impl<E: SessionEngine + 'static> IngestHandle<E> {
    /// Broadcasts an engine mutation to every shard worker, each applying
    /// it at its next **flush boundary**: the worker first flushes its
    /// pending micro-batch (labelled under the pre-command engine state),
    /// then runs `command` on its engine.
    ///
    /// Ordering is per shard queue (FIFO): everything this thread enqueued
    /// before the broadcast is processed before the command, everything
    /// after it (e.g. an `open` issued after `control` returns) is
    /// processed after. Commands from different threads race per shard;
    /// for state-replacing commands like a model swap this is plain
    /// last-writer-wins.
    ///
    /// Unlike [`IngestHandle::submit`], the broadcast **waits for queue
    /// space** instead of reporting [`SubmitError::QueueFull`] — a partial
    /// broadcast (some shards swapped, some not) would be worse than a
    /// short blocking send on queues the workers are actively draining.
    /// Returns [`SubmitError::ShutDown`] if the door is (or becomes)
    /// closed; workers that already exited simply never apply it.
    pub fn control(
        &self,
        command: impl FnOnce(&mut E) + Clone + Send + 'static,
    ) -> Result<(), SubmitError> {
        self.with_inflight(|| {
            for queue in &self.shared.queues {
                let apply = command.clone();
                let erased: ControlFn = Box::new(move |engine: &mut dyn Any| {
                    let engine = engine
                        .downcast_mut::<E>()
                        .expect("front-door engine type matches its handle type");
                    apply(engine);
                });
                if queue.send(Cmd::Control(erased)).is_err() {
                    return Err(SubmitError::ShutDown);
                }
            }
            Ok(())
        })
    }
}

/// Per-worker report handed back on shutdown.
struct WorkerReport<E> {
    engine: E,
    flushed_events: u64,
    flushes: u64,
    max_flush_batch: usize,
    latency: LatencyHistogram,
}

/// One session's shard-side routing state.
struct Route {
    /// Shard-local engine handle.
    inner: SessionId,
    /// The consumer's sink: labels and a terminal fault go here. Dropping
    /// the route detaches the session (a private sink then disconnects).
    sink: LabelSink,
    /// The consumer's name for the session on `sink`.
    key: u64,
}

/// Builds shard `i`'s engine; kept by every worker to rebuild its engine
/// after a caught panic that the engine's successor cannot take over.
type ShardFactory<E> = dyn Fn(usize) -> E + Send + Sync;

/// One persistent shard worker: owns its engine and its reused batch
/// scratch; drains its ingress queue; flushes micro-batches per the
/// [`FlushPolicy`].
struct Worker<E> {
    engine: E,
    rx: Receiver<Cmd>,
    /// [`FlushPolicy::max_batch`], clamped to at least 1.
    max_batch: usize,
    shard: usize,
    /// outer raw id → routing state
    routes: HashMap<u64, Route>,
    /// Sessions terminated with a fault and not yet closed: later events
    /// are counted as quarantined, and the close replies with the fault
    /// and removes the entry. Bounded by the sessions left open.
    quarantined: HashMap<u64, SessionFault>,
    /// Pending micro-batch, in shard-local handles (fed to the engine).
    batch: Vec<(SessionId, SegmentId)>,
    /// Outer id + submit time per pending event (for delivery + latency).
    meta: Vec<(u64, Instant)>,
    /// Label output of the last flush (reused allocation).
    out: Vec<u8>,
    /// `(key, label)` run bound for one sink (delivery scratch).
    run: Vec<(u64, u8)>,
    /// Sinks the current flush pushed into, each owed one wake-up.
    touched: Vec<LabelSink>,
    report: WorkerReportCounters,
    /// Fault/degradation state shared with the producer handles.
    health: Arc<ShardHealth>,
    /// Pre-resolved telemetry handles for this shard; all inert no-ops
    /// when the door was built without telemetry, so the flush path does
    /// no extra clock reads or atomics in that case.
    tele: WorkerTelemetry,
}

/// Per-shard telemetry handles, resolved once at worker construction.
struct WorkerTelemetry {
    /// submit → flush-start wait per event (histogram only, no span
    /// record: millions of events would flood the span ring).
    enqueue_wait: StageHandle,
    /// Whole micro-batch flush (drain + compute + deliver + maintain).
    flush: StageHandle,
    /// The `observe_batch` call.
    batch_compute: StageHandle,
    /// Outbox fan-out of fresh labels.
    label_delivery: StageHandle,
    /// One shard-worker recovery (quarantine + successor handover).
    restart_sweep: StageHandle,
    /// submit→label end-to-end latency (mirror of the per-worker
    /// [`LatencyHistogram`] so snapshots and Prometheus scrapes see it).
    latency: Histo,
    flushed_events: Counter,
    flushes: Counter,
    worker_restarts: Counter,
    quarantined_sessions: Counter,
    quarantined_events: Counter,
    shed_events: Counter,
    /// 1 while this shard is degraded (restarting or queue-degraded).
    degraded: Gauge,
    /// For structured ops events (worker_restart, session_quarantined,
    /// degraded_enter/exit).
    obs: Obs,
}

impl WorkerTelemetry {
    fn resolve(obs: &Obs, shard: usize) -> Self {
        let shard_label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard_label)];
        let shard = shard as u32;
        WorkerTelemetry {
            enqueue_wait: obs.stage(Stage::EnqueueWait, shard),
            flush: obs.stage(Stage::Flush, shard),
            batch_compute: obs.stage(Stage::BatchCompute, shard),
            label_delivery: obs.stage(Stage::LabelDelivery, shard),
            restart_sweep: obs.stage(Stage::RestartSweep, shard),
            latency: obs.histogram(names::INGEST_LATENCY, labels),
            flushed_events: obs.counter(names::INGEST_FLUSHED, labels),
            flushes: obs.counter(names::INGEST_FLUSHES, labels),
            worker_restarts: obs.counter(names::INGEST_WORKER_RESTARTS, labels),
            quarantined_sessions: obs.counter(names::INGEST_QUARANTINED_SESSIONS, labels),
            quarantined_events: obs.counter(names::INGEST_QUARANTINED_EVENTS, labels),
            shed_events: obs.counter(names::INGEST_SHED_EVENTS, labels),
            degraded: obs.gauge(names::INGEST_DEGRADED, labels),
            obs: obs.clone(),
        }
    }
}

#[derive(Default)]
struct WorkerReportCounters {
    flushed_events: u64,
    flushes: u64,
    max_flush_batch: usize,
    latency: LatencyHistogram,
}

enum Control {
    Continue,
    Drain,
}

impl<E: SessionEngine + 'static> Worker<E> {
    fn new(
        engine: E,
        rx: Receiver<Cmd>,
        policy: FlushPolicy,
        obs: &Obs,
        shard: usize,
        health: Arc<ShardHealth>,
    ) -> Self {
        let max_batch = policy.max_batch.max(1);
        Worker {
            engine,
            rx,
            max_batch,
            shard,
            routes: HashMap::new(),
            quarantined: HashMap::new(),
            batch: Vec::with_capacity(max_batch),
            meta: Vec::with_capacity(max_batch),
            out: Vec::new(),
            run: Vec::new(),
            touched: Vec::new(),
            report: WorkerReportCounters::default(),
            health,
            tele: WorkerTelemetry::resolve(obs, shard),
        }
    }

    /// Flushes the pending micro-batch into the engine and fans the labels
    /// out to the sessions' sinks ([`deliver`](Self::deliver)).
    fn flush(&mut self, closing: Option<u64>) {
        if self.batch.is_empty() {
            return;
        }
        // Stage tracing is resolved per shard at construction; with
        // telemetry disabled `t_start` is never read and no extra clock
        // read or atomic happens on this path. With telemetry on the
        // adjacent stages share timestamps (`t_start`, the `done` stamp
        // the latency loop needs anyway, and one read per remaining
        // boundary) — micro-batches are often just a few events, so
        // per-flush clock reads are the dominant telemetry cost.
        let t_start = if self.tele.flush.is_live() {
            Some(Instant::now())
        } else {
            None
        };
        if let Some(t0) = t_start {
            for &(_, submitted) in &self.meta {
                self.tele
                    .enqueue_wait
                    .record_nanos(t0.saturating_duration_since(submitted).as_nanos() as u64);
            }
        }
        self.engine.observe_batch(&self.batch, &mut self.out);
        debug_assert_eq!(self.out.len(), self.batch.len());
        let done = Instant::now();
        if let Some(t0) = t_start {
            // Includes the enqueue-wait bookkeeping above — a handful of
            // atomic adds, noise next to the batched forward pass.
            self.tele.batch_compute.record_span(t0, done);
        }
        self.report.flushes += 1;
        self.report.flushed_events += self.batch.len() as u64;
        self.report.max_flush_batch = self.report.max_flush_batch.max(self.batch.len());
        self.tele.flushes.inc();
        self.tele.flushed_events.add(self.batch.len() as u64);
        for &(_, submitted) in &self.meta {
            let latency = done.saturating_duration_since(submitted);
            self.report.latency.record(latency);
            self.tele.latency.record(latency);
        }
        self.deliver(closing);
        if self.tele.label_delivery.is_live() {
            self.tele.label_delivery.record_span(done, Instant::now());
        }
        self.batch.clear();
        self.meta.clear();
        // Flush boundary (the same seam control commands use): let the
        // engine run its background maintenance — e.g. sweeping idle
        // sessions into the hibernated cold tier — where it can never
        // split a micro-batch.
        self.engine.maintain();
        if let Some(t0) = t_start {
            self.tele.flush.record_span(t0, Instant::now());
        }
    }

    /// Fans the labels of the flush just computed out to the sessions'
    /// sinks. Each contiguous run of events bound for one sink goes in
    /// under one lock, and every sink touched is woken once, when the
    /// whole flush is in — a consumer never wakes to half a flush.
    ///
    /// A full sink blocks the flush until its consumer makes room
    /// (consumer-directed backpressure; a dropped consumer just discards
    /// its labels) **except** for the session named in `closing`: its
    /// closer is, by protocol, waiting on the [`CloseTicket`] rather than
    /// draining the stream, so blocking on its full sink would deadlock
    /// the shard. Labels that do not fit are dropped from the *stream*
    /// only — the final labels returned by the close still cover every
    /// accepted event.
    fn deliver(&mut self, closing: Option<u64>) {
        let mut k = 0;
        while k < self.meta.len() {
            let outer = self.meta[k].0;
            let Some(route) = self.routes.get(&outer) else {
                k += 1;
                continue;
            };
            let droppable = closing == Some(outer);
            self.run.clear();
            self.run.push((route.key, self.out[k]));
            k += 1;
            while let Some(&(next, _)) = self.meta.get(k) {
                match self.routes.get(&next) {
                    Some(r)
                        if r.sink.id() == route.sink.id()
                            && (closing == Some(next)) == droppable =>
                    {
                        self.run.push((r.key, self.out[k]));
                    }
                    _ => break,
                }
                k += 1;
            }
            let sink = route.sink.clone();
            let mut rest = &self.run[..];
            loop {
                rest = &rest[sink.offer(rest)..];
                if rest.is_empty() || droppable {
                    break;
                }
                // Before stalling on one full sink, hand every consumer
                // what this flush already pushed at it.
                for pushed in self.touched.drain(..) {
                    pushed.notify();
                }
                if !sink.wait_room() {
                    break; // consumer gone: the rest is discarded
                }
            }
            self.touched.push(sink);
        }
        if self.touched.len() > 1 {
            self.touched.sort_unstable_by_key(LabelSink::id);
            self.touched.dedup_by_key(|sink| sink.id());
        }
        for sink in self.touched.drain(..) {
            sink.notify();
        }
    }

    /// Terminates a session with `fault`: its consumer gets a
    /// [`SinkEvent::Fault`] (a [`Subscription`] reports it and
    /// disconnects), later events are counted as quarantined,
    /// the next close replies with the fault. With `close_in_engine` the
    /// session's (still-consistent) engine state is also released — the
    /// poison path uses this; panic recovery does not (the state may be
    /// torn, so the successor handover checks it first).
    fn quarantine(&mut self, outer: u64, fault: SessionFault, close_in_engine: bool) {
        let Some(route) = self.routes.remove(&outer) else {
            return;
        };
        route.sink.push_event(SinkEvent::Fault {
            key: route.key,
            fault,
        });
        if close_in_engine {
            let inner = route.inner;
            let _ = catch_unwind(AssertUnwindSafe(|| self.engine.close(inner)));
        }
        self.quarantined.insert(outer, fault);
        self.health
            .quarantined_sessions
            .fetch_add(1, Ordering::Relaxed);
        self.tele.quarantined_sessions.inc();
        self.tele.obs.event(OpsEvent::SessionQuarantined {
            shard: self.shard as u32,
        });
    }

    fn handle(&mut self, cmd: Cmd) -> Control {
        match cmd {
            Cmd::Open {
                outer,
                scope,
                sd,
                start_time,
                sink,
                key,
            } => {
                let inner = self.engine.open_scoped(scope, sd, start_time);
                self.routes.insert(outer, Route { inner, sink, key });
            }
            Cmd::Observe {
                outer,
                segment,
                submitted,
            } => {
                if self.quarantined.contains_key(&outer) {
                    // Late arrival for a terminated session: count, drop.
                    self.health
                        .quarantined_events
                        .fetch_add(1, Ordering::Relaxed);
                    self.tele.quarantined_events.inc();
                } else if let Some(route) = self.routes.get(&outer) {
                    let inner = route.inner;
                    if self.engine.admit(segment) {
                        self.batch.push((inner, segment));
                        self.meta.push((outer, submitted));
                        if self.batch.len() >= self.max_batch {
                            self.flush(None);
                        }
                    } else {
                        // Poison: the engine pre-screened this event as
                        // unprocessable, so it never enters a batch and can
                        // never panic a flush. Label what the session
                        // already has pending, then terminate it.
                        self.flush(None);
                        self.health
                            .quarantined_events
                            .fetch_add(1, Ordering::Relaxed);
                        self.tele.quarantined_events.inc();
                        self.quarantine(outer, SessionFault::PoisonEvent, true);
                    }
                } else {
                    // Stray: session unknown to this shard (submitted after
                    // close, or never opened). Shed instead of panicking.
                    self.health.shed_events.fetch_add(1, Ordering::Relaxed);
                    self.tele.shed_events.inc();
                }
            }
            Cmd::Close { outer, mut reply } => {
                reply.armed = true;
                let result = if let Some(fault) = self.quarantined.remove(&outer) {
                    // Answered once: the tombstone goes, so a second close
                    // is `UnknownSession` and later strays are shed.
                    Err(fault)
                } else if let Some(route) = self.routes.get(&outer) {
                    // The session's pending events must land before the
                    // close. A closer waiting on a sink of its own (a
                    // ticket) is not draining the session's stream, so
                    // that delivery is downgraded to non-blocking; one
                    // taking the result from the session's own sink is.
                    let closing = (route.sink.id() != reply.sink.id()).then_some(outer);
                    self.flush(closing);
                    let route = self
                        .routes
                        .remove(&outer)
                        .expect("route checked present; flush removes none");
                    Ok(self.engine.close(route.inner))
                } else {
                    // Double close or never-opened session: an error on
                    // the ticket, not a worker panic.
                    Err(SessionFault::UnknownSession)
                };
                reply.send(result);
            }
            Cmd::Control(apply) => {
                // Flush boundary: the pending micro-batch is labelled
                // under the pre-command engine state before the command
                // lands, so a control never splits a batch.
                self.flush(None);
                apply(&mut self.engine as &mut dyn Any);
            }
            Cmd::Shutdown => return Control::Drain,
        }
        Control::Continue
    }

    /// The serve loop: drains the ingress queue until shutdown (or every
    /// sender is gone). Split from [`run`](Self::run) so the supervisor
    /// can re-enter it after recovering from a panic.
    ///
    /// Opportunistic group commit: with events pending the worker takes
    /// whatever is already queued and flushes the moment the queue is
    /// empty — it never sleeps while holding events it could label, and
    /// a backlog turns into larger flushes, not later ones.
    fn serve(&mut self) {
        loop {
            let cmd = if self.batch.is_empty() {
                // Idle: park until work arrives (or every sender is gone).
                match self.rx.recv() {
                    Ok(cmd) => cmd,
                    Err(_) => return,
                }
            } else {
                match self.rx.try_recv() {
                    Ok(cmd) => cmd,
                    Err(TryRecvError::Empty) => {
                        self.flush(None);
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => return,
                }
            };
            if let Control::Drain = self.handle(cmd) {
                // Graceful shutdown: everything enqueued before the
                // Shutdown marker has already been received (FIFO); sweep
                // any stragglers that raced the marker, then stop.
                while let Ok(cmd) = self.rx.try_recv() {
                    let _ = self.handle(cmd);
                }
                return;
            }
        }
    }

    fn finish(mut self) -> WorkerReport<E> {
        self.flush(None);
        WorkerReport {
            engine: self.engine,
            flushed_events: self.report.flushed_events,
            flushes: self.report.flushes,
            max_flush_batch: self.report.max_flush_batch,
            latency: self.report.latency,
        }
    }

    /// The supervised serve loop: any panic that escapes batch processing
    /// is caught, the shard recovers in place (quarantine + successor
    /// handover), and serving resumes — the worker thread never
    /// dies from an engine panic. The boundary is set up once per
    /// [`serve`](Self::serve) entry, not per batch.
    fn run(mut self, factory: Arc<ShardFactory<E>>) -> WorkerReport<E> {
        while catch_unwind(AssertUnwindSafe(|| self.serve())).is_err() {
            self.recover(&*factory);
        }
        self.finish()
    }

    /// One recovery sweep after a caught panic.
    ///
    /// The aborted micro-batch's events are unlabelled and the engine
    /// state behind them cannot be trusted, so every session implicated
    /// in that batch is quarantined ([`SessionFault::WorkerCrash`]).
    /// Every *other* session is salvaged byte-exactly: the wrecked engine
    /// hands itself over to its [`SessionEngine::successor`], which keeps
    /// the engine's control plane and the sessions' handles, so routes
    /// need no rewriting. Sessions the successor does not carry across
    /// are quarantined as [`SessionFault::Unsalvageable`] — never
    /// silently dropped; an engine without a successor (or whose handover
    /// panics) is rebuilt by `factory` and loses them all. Panics
    /// injected at a flush boundary (the batch is empty there) therefore
    /// lose nothing at all on an engine that implements the handover.
    fn recover(&mut self, factory: &ShardFactory<E>) {
        self.health.restarting.store(true, Ordering::SeqCst);
        self.tele.degraded.set(1);
        self.tele.obs.event(OpsEvent::DegradedEnter {
            shard: self.shard as u32,
        });
        let span = self.tele.restart_sweep.start();
        let quarantined_before = self.quarantined.len();

        // 1. Quarantine every session implicated in the aborted batch.
        let aborted_events = self.meta.len() as u64;
        if aborted_events > 0 {
            self.health
                .quarantined_events
                .fetch_add(aborted_events, Ordering::Relaxed);
            self.tele.quarantined_events.add(aborted_events);
        }
        let mut implicated: Vec<u64> = self.meta.iter().map(|&(outer, _)| outer).collect();
        implicated.sort_unstable();
        implicated.dedup();
        self.batch.clear();
        self.meta.clear();
        for outer in implicated {
            self.quarantine(outer, SessionFault::WorkerCrash, false);
        }

        // 2. Hand the engine over to its successor (or, failing that,
        // rebuild it); routed sessions it did not carry are quarantined
        // explicitly, never left to hang.
        let mut kept: HashSet<SessionId> =
            match catch_unwind(AssertUnwindSafe(|| self.engine.successor())) {
                Ok(Some((next, kept))) => {
                    self.engine = next;
                    kept.into_iter().collect()
                }
                _ => {
                    self.engine = factory(self.shard);
                    HashSet::new()
                }
            };
        let lost: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, route)| !kept.remove(&route.inner))
            .map(|(&outer, _)| outer)
            .collect();
        let salvaged = (self.routes.len() - lost.len()) as u64;
        for outer in lost {
            self.quarantine(outer, SessionFault::Unsalvageable, false);
        }
        // What is left is sound state no route reaches any more: sessions
        // of the aborted batch, already quarantined in step 1.
        for inner in kept {
            let _ = catch_unwind(AssertUnwindSafe(|| self.engine.close(inner)));
        }

        self.health.restarts.fetch_add(1, Ordering::Relaxed);
        self.tele.worker_restarts.inc();
        self.tele.obs.event(OpsEvent::WorkerRestart {
            shard: self.shard as u32,
            quarantined: (self.quarantined.len() - quarantined_before) as u64,
            salvaged,
        });
        self.tele.restart_sweep.finish(span);
        self.health.restarting.store(false, Ordering::SeqCst);
        self.tele.degraded.set(u64::from(self.health.degraded()));
        self.tele.obs.event(OpsEvent::DegradedExit {
            shard: self.shard as u32,
        });
    }
}

/// The async ingestion front door: one bounded ingress queue + one
/// persistent worker thread per shard, micro-batching per-point arrivals
/// into [`SessionEngine::observe_batch`] ticks under a [`FlushPolicy`].
///
/// See the [module docs](self) for the full contract. Construct with
/// [`IngestFrontDoor::build`], produce through cloned [`IngestHandle`]s,
/// and finish with [`IngestFrontDoor::shutdown`] to drain in-flight
/// events and recover the shard engines.
pub struct IngestFrontDoor<E> {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<WorkerReport<E>>>,
}

impl<E: SessionEngine + Send + 'static> IngestFrontDoor<E> {
    /// Builds `n` shard engines with `factory` (called with each shard
    /// index) and spawns one persistent worker per shard.
    ///
    /// Every worker runs under a supervisor: a panic in batch processing
    /// is caught, the sessions implicated in the aborted micro-batch are
    /// quarantined with an explicit [`SessionFault`], the engine hands
    /// itself over to its [`SessionEngine::successor`] with every other
    /// session salvaged byte-exactly, and serving resumes. `factory` only
    /// constructs: it is retained for the door's lifetime as the fallback
    /// for an engine that has no successor (the default) or whose
    /// handover panics — that shard restarts from `factory(i)`, and its
    /// sessions end [`SessionFault::Unsalvageable`].
    ///
    /// Poison events ([`SessionEngine::admit`] returning `false`) never
    /// reach the engine at all: they quarantine their own session without
    /// a restart.
    ///
    /// # Panics
    /// Panics if `n` is zero or `config.queue_capacity` is zero.
    pub fn build(
        n: usize,
        factory: impl Fn(usize) -> E + Send + Sync + 'static,
        config: IngestConfig,
    ) -> Self {
        assert!(n > 0, "need at least one shard");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let factory: Arc<ShardFactory<E>> = Arc::new(factory);
        let health: Vec<Arc<ShardHealth>> =
            (0..n).map(|_| Arc::new(ShardHealth::default())).collect();
        let mut queues = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for (i, health) in health.iter().enumerate() {
            let (tx, rx) = sync_channel(config.queue_capacity);
            queues.push(tx);
            let worker = Worker::new(
                factory(i),
                rx,
                config.flush,
                &config.obs,
                i,
                Arc::clone(health),
            );
            let factory = Arc::clone(&factory);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ingest-shard-{i}"))
                    .spawn(move || worker.run(factory))
                    .expect("spawn ingest worker"),
            );
        }
        let shard_counter = |name: &str| -> Vec<Counter> {
            (0..n)
                .map(|i| config.obs.counter(name, &[("shard", &i.to_string())]))
                .collect()
        };
        let obs_degraded = (0..n)
            .map(|i| {
                config
                    .obs
                    .gauge(names::INGEST_DEGRADED, &[("shard", &i.to_string())])
            })
            .collect();
        IngestFrontDoor {
            shared: Arc::new(Shared {
                queues,
                next_session: AtomicU64::new(0),
                closed: AtomicBool::new(false),
                inflight: AtomicU64::new(0),
                accepted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                deadline_exceeded: AtomicU64::new(0),
                outbox_capacity: config.outbox_capacity.max(1),
                degraded_watermark: DEGRADED_WATERMARK,
                health,
                obs_submitted: shard_counter(names::INGEST_SUBMITTED),
                obs_rejected: shard_counter(names::INGEST_REJECTED),
                obs_deadline: shard_counter(names::INGEST_DEADLINE_EXCEEDED),
                obs_degraded,
                obs: config.obs.clone(),
            }),
            workers,
        }
    }

    /// A cheap, cloneable producer handle, typed by this door's engine.
    pub fn handle(&self) -> IngestHandle<E> {
        IngestHandle {
            shared: Arc::clone(&self.shared),
            _engine: PhantomData,
        }
    }

    /// Number of shards (= ingress queues = worker threads).
    pub fn num_shards(&self) -> usize {
        self.shared.queues.len()
    }

    /// Gracefully shuts down: rejects further submits, drains **every**
    /// event whose `submit` returned `Ok` — including ones racing this
    /// call — flushes, joins the workers and returns the shard engines
    /// plus aggregate [`IngestStats`].
    ///
    /// The drain guarantee is a quiescence barrier, not best-effort: after
    /// sealing the door this method waits for all in-flight producer
    /// enqueues to land before the shutdown markers enter the queues, so
    /// an accepted event is always *ahead of* the marker and gets flushed,
    /// and an accepted close always completes its [`CloseTicket`].
    ///
    /// Sessions still open keep their state inside the returned engines
    /// (their subscriptions disconnect without final labels).
    ///
    /// # Panics
    /// Propagates a panic that escaped a worker's supervisor: one raised
    /// while recovering from an earlier panic (by the shard factory, say)
    /// or by the final flush of the batch pending at shutdown. A panic in
    /// ordinary batch processing is caught and recovered from, and never
    /// reaches this call.
    pub fn shutdown(mut self) -> ShutdownReport<E> {
        self.shared.closed.store(true, Ordering::SeqCst);
        // Quiescence: wait out producers already past the closed check.
        // Their critical section is a handful of instructions (plus, for
        // `submit_blocking`, a queue wait the draining worker unblocks),
        // so this spin is short-lived by construction.
        while self.shared.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        for queue in &self.shared.queues {
            // Blocking send is fine: the worker is draining this queue.
            // An already-dead worker returns Err, which is exactly the
            // state Shutdown would have produced.
            let _ = queue.send(Cmd::Shutdown);
        }
        let mut engines = Vec::with_capacity(self.workers.len());
        let mut stats = IngestStats {
            submitted: 0,
            rejected_full: 0,
            flushed_events: 0,
            flushes: 0,
            max_flush_batch: 0,
            shed_events: 0,
            quarantined_events: 0,
            quarantined_sessions: 0,
            worker_restarts: 0,
            deadline_exceeded: 0,
            latency: LatencyHistogram::new(),
        };
        for worker in std::mem::take(&mut self.workers) {
            match worker.join() {
                Ok(report) => {
                    stats.flushed_events += report.flushed_events;
                    stats.flushes += report.flushes;
                    stats.max_flush_batch = stats.max_flush_batch.max(report.max_flush_batch);
                    stats.latency.merge(&report.latency);
                    engines.push(report.engine);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        // Read the tallies after the barrier + joins so they cover every
        // producer that got an `Ok` (`submitted == flushed_events` is the
        // graceful-shutdown invariant the tests pin).
        stats.submitted = self.shared.accepted.load(Ordering::SeqCst);
        stats.rejected_full = self.shared.rejected.load(Ordering::SeqCst);
        stats.deadline_exceeded = self.shared.deadline_exceeded.load(Ordering::SeqCst);
        for health in &self.shared.health {
            stats.shed_events += health.shed_events.load(Ordering::SeqCst);
            stats.quarantined_events += health.quarantined_events.load(Ordering::SeqCst);
            stats.quarantined_sessions += health.quarantined_sessions.load(Ordering::SeqCst);
            stats.worker_restarts += health.restarts.load(Ordering::SeqCst);
        }
        ShutdownReport { engines, stats }
    }
}

impl<E> Drop for IngestFrontDoor<E> {
    /// Best-effort teardown when dropped without [`IngestFrontDoor::shutdown`]:
    /// flags the door closed and nudges the workers to exit. Does not join
    /// (detached workers exit once their queues disconnect); prefer an
    /// explicit `shutdown` for drain guarantees and stats.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // shutdown already ran
        }
        self.shared.closed.store(true, Ordering::Release);
        for queue in &self.shared.queues {
            let _ = queue.try_send(Cmd::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::OnlineDetector;
    use crate::session::SessionMux;

    fn sd(a: u32, b: u32) -> SdPair {
        SdPair {
            source: SegmentId(a),
            dest: SegmentId(b),
        }
    }

    /// Labels each segment by parity — discriminative enough to catch
    /// routing or ordering mistakes through the queues.
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

    fn parity_door(
        shards: usize,
        config: IngestConfig,
    ) -> IngestFrontDoor<SessionMux<Parity, fn() -> Parity>> {
        IngestFrontDoor::build(
            shards,
            |_| SessionMux::new(Parity::default as fn() -> Parity),
            config,
        )
    }

    /// Parks every shard worker inside a control command until the
    /// returned gate is set: whatever is enqueued meanwhile is all in the
    /// queue when the workers resume.
    fn hold_workers<E: SessionEngine + 'static>(handle: &IngestHandle<E>) -> Arc<AtomicBool> {
        let gate = Arc::new(AtomicBool::new(false));
        let hold = Arc::clone(&gate);
        handle
            .control(move |_engine: &mut E| {
                while !hold.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        gate
    }

    #[test]
    fn submit_labels_flow_back_in_order() {
        let door = parity_door(3, IngestConfig::default());
        let handle = door.handle();
        assert_eq!(handle.num_shards(), 3);
        let (s1, sub1) = handle.open(sd(0, 9), 0.0).unwrap();
        let (s2, sub2) = handle.open(sd(1, 8), 0.0).unwrap();
        for seg in [2u32, 3, 5] {
            handle.submit(s1, SegmentId(seg)).unwrap();
        }
        handle.submit(s2, SegmentId(7)).unwrap();
        let t1 = handle.close(s1).unwrap();
        let t2 = handle.close(s2).unwrap();
        assert_eq!(t1.wait().unwrap(), vec![0, 1, 1]);
        assert_eq!(t2.wait().unwrap(), vec![1]);
        // Subscriptions carry the provisional stream, then disconnect.
        let mut got = Vec::new();
        while let Some(l) = sub1.recv() {
            got.push(l);
        }
        assert_eq!(got, vec![0, 1, 1]);
        assert_eq!(sub2.recv(), Some(1));
        assert_eq!(sub2.recv(), None);
        let report = door.shutdown();
        assert_eq!(report.stats.submitted, 4);
        assert_eq!(report.stats.flushed_events, 4);
        assert_eq!(report.stats.rejected_full, 0);
        assert_eq!(report.stats.latency.count(), 4);
        assert_eq!(report.engines.len(), 3);
    }

    #[test]
    fn max_batch_one_flushes_every_event_alone() {
        let door = parity_door(
            1,
            IngestConfig {
                flush: FlushPolicy::immediate(),
                ..Default::default()
            },
        );
        let handle = door.handle();
        let (s, sub) = handle.open(sd(0, 9), 0.0).unwrap();
        for seg in 0..10u32 {
            handle.submit(s, SegmentId(seg)).unwrap();
        }
        handle.close(s).unwrap().wait().unwrap();
        let mut labels = Vec::new();
        while let Some(l) = sub.recv() {
            labels.push(l);
        }
        assert_eq!(labels, vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
        let report = door.shutdown();
        assert_eq!(report.stats.flushes, 10, "immediate policy batches nothing");
        assert_eq!(report.stats.max_flush_batch, 1);
    }

    #[test]
    fn shutdown_drains_unflushed_batches() {
        let door = parity_door(2, IngestConfig::default());
        let handle = door.handle();
        // Nothing can be flushed while the workers are held.
        let gate = hold_workers(&handle);
        let (s, sub) = handle.open(sd(0, 9), 0.0).unwrap();
        for seg in [1u32, 2, 3] {
            handle.submit(s, SegmentId(seg)).unwrap();
        }
        let shutdown = std::thread::spawn(move || door.shutdown());
        while !handle.shared.closed.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The door is sealed with all three events still unflushed.
        gate.store(true, Ordering::SeqCst);
        let report = shutdown.join().unwrap();
        assert_eq!(report.stats.flushed_events, 3, "shutdown flushed the batch");
        let mut labels = Vec::new();
        sub.drain_into(&mut labels);
        assert_eq!(labels, vec![1, 0, 1]);
        // The session never closed: its state is still in the engine.
        let open_sessions: usize = report.engines.iter().map(|e| e.active_sessions()).sum();
        assert_eq!(open_sessions, 1);
        assert_eq!(handle.submit(s, SegmentId(9)), Err(SubmitError::ShutDown));
    }

    /// No timer is needed (or left) to label a lone point: the worker
    /// flushes the moment its queue is empty, whatever `max_batch` is.
    #[test]
    fn idle_door_flushes_a_lone_submit_at_once() {
        let door = parity_door(
            1,
            IngestConfig {
                flush: FlushPolicy::new(1_000_000),
                ..Default::default()
            },
        );
        let handle = door.handle();
        let (s, sub) = handle.open(sd(0, 9), 0.0).unwrap();
        handle.submit(s, SegmentId(3)).unwrap();
        let deadline = Instant::now() + Duration::from_millis(100);
        let label = loop {
            if let Some(label) = sub.try_recv() {
                break label;
            }
            assert!(Instant::now() < deadline, "lone submit still unlabelled");
            std::thread::yield_now();
        };
        assert_eq!(label, 1);
        let report = door.shutdown();
        assert_eq!(report.stats.flushes, 1);
        assert_eq!(report.stats.flushed_events, 1);
    }

    #[test]
    fn handles_are_cloneable_across_threads() {
        let door = parity_door(2, IngestConfig::default());
        let handle = door.handle();
        let mut joins = Vec::new();
        for p in 0..4u32 {
            let h = handle.clone();
            joins.push(std::thread::spawn(move || {
                let (s, _sub) = h.open(sd(p, p + 1), 0.0).unwrap();
                for seg in 0..50u32 {
                    while h.submit(s, SegmentId(seg)) == Err(SubmitError::QueueFull) {
                        std::thread::yield_now();
                    }
                }
                h.close(s).unwrap().wait().unwrap().len()
            }));
        }
        let total: usize = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert_eq!(total, 200);
        let report = door.shutdown();
        assert_eq!(report.stats.flushed_events, 200);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let _ = parity_door(0, IngestConfig::default());
    }

    /// Regression: closing a session whose pending labels exceed the
    /// outbox capacity must not deadlock the shard — the close-triggered
    /// flush downgrades that session's stream delivery to non-blocking,
    /// and the final labels still cover every event.
    #[test]
    fn close_with_overfull_outbox_does_not_deadlock() {
        const OUTBOX: usize = 2;
        const EVENTS: u32 = 10;
        let door = parity_door(
            1,
            IngestConfig {
                outbox_capacity: OUTBOX,
                ..Default::default()
            },
        );
        let handle = door.handle();
        // Hold the worker so that everything is still pending at close.
        let gate = hold_workers(&handle);
        let (s, sub) = handle.open(sd(0, 9), 0.0).unwrap();
        for seg in 0..EVENTS {
            handle.submit(s, SegmentId(seg)).unwrap();
        }
        // Close without draining the subscription first — the pattern
        // that would deadlock against a blocking delivery.
        let ticket = handle.close(s).unwrap();
        gate.store(true, Ordering::SeqCst);
        let finals = ticket.wait().unwrap();
        assert_eq!(finals.len(), EVENTS as usize);
        // The stream got what fit; the rest went only to the finals.
        let mut streamed = Vec::new();
        while let Some(l) = sub.recv() {
            streamed.push(l);
        }
        assert_eq!(streamed.len(), OUTBOX);
        assert_eq!(streamed, finals[..OUTBOX]);
        let report = door.shutdown();
        assert_eq!(report.stats.flushed_events, EVENTS as u64);
    }

    /// A consumer with many sessions opens them all onto one sink: every
    /// label arrives under its session's key, in submit order and ahead
    /// of that session's `Closed` — and because the close result travels
    /// on the same sink the consumer is draining, the closing session's
    /// labels block on a full sink like any others instead of being
    /// dropped from the stream.
    #[test]
    fn sessions_opened_onto_one_sink_share_it_in_order() {
        const SINK: usize = 2;
        let door = parity_door(
            2,
            IngestConfig {
                outbox_capacity: SINK,
                ..Default::default()
            },
        );
        let handle = door.handle();
        let (sink, consumer) = handle.label_sink();
        let gate = hold_workers(&handle);
        let keys = [10u64, 20, 30];
        let sessions: Vec<SessionId> = keys
            .iter()
            .map(|&key| {
                handle
                    .open_onto(&sink, key, 0, sd(0, 9), 0.0, Priority::High)
                    .unwrap()
            })
            .collect();
        for seg in 0..6u32 {
            for (k, &session) in sessions.iter().enumerate() {
                handle.submit(session, SegmentId(seg + k as u32)).unwrap();
            }
        }
        for (&key, &session) in keys.iter().zip(&sessions) {
            handle.close_onto(&sink, key, session).unwrap();
        }
        drop(sink);
        gate.store(true, Ordering::SeqCst);
        let mut streamed: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut closed: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut events = std::collections::VecDeque::new();
        while consumer.recv_into(&mut events) {
            assert!(
                events
                    .iter()
                    .filter(|e| matches!(e, SinkEvent::Label { .. }))
                    .count()
                    <= SINK,
                "the sink never holds more labels than its capacity"
            );
            for event in events.drain(..) {
                match event {
                    SinkEvent::Label { key, label } => {
                        assert!(!closed.contains_key(&key), "label after Closed");
                        streamed.entry(key).or_default().push(label);
                    }
                    SinkEvent::Closed { key, result } => {
                        closed.insert(key, result.unwrap());
                    }
                    SinkEvent::Fault { .. } => panic!("no session faulted"),
                }
            }
        }
        // Disconnected: the owner's handle and every session are gone.
        for (k, key) in keys.iter().enumerate() {
            let want: Vec<u8> = (0..6u32).map(|seg| ((seg + k as u32) & 1) as u8).collect();
            assert_eq!(streamed[key], want, "stream of key {key}");
            assert_eq!(closed[key], want, "finals of key {key}");
        }
        let report = door.shutdown();
        assert_eq!(report.stats.flushed_events, 18);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for nanos in [1u64, 2, 3, 15] {
            h.record(Duration::from_nanos(nanos));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(0.0), Duration::from_nanos(1));
        assert_eq!(h.percentile(1.0), Duration::from_nanos(15));
        assert_eq!(h.max(), Duration::from_nanos(15));
    }

    #[test]
    fn histogram_percentiles_within_bucket_resolution() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(Duration::from_nanos(i * 1_000)); // 1us..10ms
        }
        for (q, want_nanos) in [(0.5, 5_000_000.0), (0.95, 9_500_000.0), (0.99, 9_900_000.0)] {
            let got = h.percentile(q).as_nanos() as f64;
            let err = (got - want_nanos).abs() / want_nanos;
            assert!(err < 0.08, "p{q}: got {got}, want {want_nanos}, err {err}");
        }
        assert_eq!(h.max(), Duration::from_nanos(10_000_000));
        let mean = h.mean().as_nanos() as f64;
        assert!((mean - 5_000_500.0).abs() < 1_000.0);
    }

    /// A minimal engine with swappable shared state: each session is
    /// stamped with the engine's `current` value at `open` and every one
    /// of its events is labelled with that stamp — a miniature of the
    /// RL4OASD model-epoch hot-swap (new sessions see the new state, open
    /// sessions keep the old).
    struct Stamp {
        current: u8,
        sessions: crate::SessionSlab<(u8, Vec<u8>)>,
    }

    impl SessionEngine for Stamp {
        fn engine_name(&self) -> &'static str {
            "Stamp"
        }
        fn open(&mut self, _sd: SdPair, _start_time: f64) -> SessionId {
            let stamp = self.current;
            self.sessions.insert((stamp, Vec::new()))
        }
        fn observe(&mut self, session: SessionId, _segment: SegmentId) -> u8 {
            let (stamp, history) = self.sessions.get_mut(session);
            history.push(*stamp);
            *stamp
        }
        fn close(&mut self, session: SessionId) -> Vec<u8> {
            self.sessions.remove(session).1
        }
        fn active_sessions(&self) -> usize {
            self.sessions.len()
        }
    }

    /// Control commands are applied at a flush boundary, strictly after
    /// everything enqueued before the broadcast and strictly before
    /// everything enqueued after it — so sessions opened before the
    /// command keep the old engine state and sessions opened after see
    /// the new one, even when all of it sits in one backlog.
    #[test]
    fn control_applies_at_flush_boundary_between_opens() {
        let door = IngestFrontDoor::build(
            2,
            |_| Stamp {
                current: 0,
                sessions: crate::SessionSlab::new(),
            },
            IngestConfig::default(),
        );
        let handle = door.handle();
        // Hold the workers: the whole script is queued before any of it
        // runs, so only the command's flush-first step can separate the
        // pre-control events from what follows.
        let gate = hold_workers(&handle);
        let (before, _sub_b) = handle.open(sd(0, 9), 0.0).unwrap();
        for seg in 0..3u32 {
            handle.submit(before, SegmentId(seg)).unwrap();
        }
        handle
            .control(|engine: &mut Stamp| engine.current = 1)
            .unwrap();
        let (after, _sub_a) = handle.open(sd(1, 8), 0.0).unwrap();
        for seg in 0..2u32 {
            handle.submit(after, SegmentId(seg)).unwrap();
            handle.submit(before, SegmentId(seg)).unwrap();
        }
        let close_before = handle.close(before).unwrap();
        let close_after = handle.close(after).unwrap();
        gate.store(true, Ordering::SeqCst);
        // Pre-control sessions keep their stamp for their whole life, even
        // for events submitted after the control; post-control sessions
        // carry the new stamp from their first event.
        assert_eq!(close_before.wait().unwrap(), vec![0; 5]);
        assert_eq!(close_after.wait().unwrap(), vec![1; 2]);
        let report = door.shutdown();
        assert_eq!(report.stats.flushed_events, 7);
        // The control's flush-first step ran on the shard that had the
        // pending pre-control batch (the close flushes account for the
        // rest).
        assert!(report.stats.flushes >= 2);
        for engine in &report.engines {
            assert_eq!(engine.current, 1, "every shard applied the control");
        }
    }

    #[test]
    fn control_after_shutdown_reports_shutdown() {
        let door = parity_door(1, IngestConfig::default());
        let handle = door.handle();
        door.shutdown();
        assert_eq!(
            handle.control(|_engine: &mut SessionMux<Parity, fn() -> Parity>| {}),
            Err(SubmitError::ShutDown)
        );
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_micros(1000));
    }

    /// An admitted segment on which [`Fragile`] panics mid-batch.
    const CRASH: SegmentId = SegmentId(u32::MAX - 1);

    /// Parity labels with a poison segment (`u32::MAX`), a crash segment
    /// ([`CRASH`]) and a successor that moves its slab across — the
    /// miniature of a salvageable `StreamEngine` shard for fault tests.
    struct Fragile {
        sessions: crate::SessionSlab<Vec<u8>>,
    }

    impl Fragile {
        fn new() -> Self {
            Fragile {
                sessions: crate::SessionSlab::new(),
            }
        }
    }

    impl SessionEngine for Fragile {
        fn engine_name(&self) -> &'static str {
            "Fragile"
        }
        fn open(&mut self, _sd: SdPair, _start_time: f64) -> SessionId {
            self.sessions.insert(Vec::new())
        }
        fn observe(&mut self, session: SessionId, segment: SegmentId) -> u8 {
            assert_ne!(segment, CRASH, "{}: crash segment", FAULT_INJECTION_MARKER);
            let label = (segment.0 & 1) as u8;
            self.sessions.get_mut(session).push(label);
            label
        }
        fn close(&mut self, session: SessionId) -> Vec<u8> {
            self.sessions.remove(session)
        }
        fn active_sessions(&self) -> usize {
            self.sessions.len()
        }
        fn admit(&self, segment: SegmentId) -> bool {
            segment.0 != u32::MAX
        }
        fn successor(&mut self) -> Option<(Self, Vec<SessionId>)> {
            let kept = self.sessions.iter_hot().map(|(id, _)| id).collect();
            let sessions = std::mem::take(&mut self.sessions);
            Some((Fragile { sessions }, kept))
        }
    }

    fn fragile_door(shards: usize, config: IngestConfig) -> IngestFrontDoor<Fragile> {
        IngestFrontDoor::build(shards, |_| Fragile::new(), config)
    }

    fn assert_exact_accounting(stats: &IngestStats) {
        assert_eq!(
            stats.submitted,
            stats.flushed_events + stats.shed_events + stats.quarantined_events,
            "delivered + shed + quarantined must equal submitted"
        );
    }

    #[test]
    fn double_close_reports_unknown_session_without_killing_worker() {
        let door = parity_door(1, IngestConfig::default());
        let handle = door.handle();
        let (s, _sub) = handle.open(sd(0, 9), 0.0).unwrap();
        handle.submit(s, SegmentId(3)).unwrap();
        assert_eq!(handle.close(s).unwrap().wait().unwrap(), vec![1]);
        // Second close: an error on the ticket, not a worker panic.
        assert_eq!(
            handle.close(s).unwrap().wait(),
            Err(SessionFault::UnknownSession)
        );
        // The worker survived and keeps serving.
        let (s2, _sub2) = handle.open(sd(1, 8), 0.0).unwrap();
        handle.submit(s2, SegmentId(2)).unwrap();
        assert_eq!(handle.close(s2).unwrap().wait().unwrap(), vec![0]);
        let report = door.shutdown();
        assert_eq!(report.stats.flushed_events, 2);
        assert_exact_accounting(&report.stats);
    }

    #[test]
    fn submit_after_close_is_shed_not_a_panic() {
        let door = parity_door(1, IngestConfig::default());
        let handle = door.handle();
        let (s, _sub) = handle.open(sd(0, 9), 0.0).unwrap();
        handle.submit(s, SegmentId(1)).unwrap();
        handle.close(s).unwrap().wait().unwrap();
        // Stray event for a closed session: accepted, then shed.
        handle.submit(s, SegmentId(2)).unwrap();
        let report = door.shutdown();
        assert_eq!(report.stats.submitted, 2);
        assert_eq!(report.stats.flushed_events, 1);
        assert_eq!(report.stats.shed_events, 1);
        assert_exact_accounting(&report.stats);
    }

    #[test]
    fn poison_event_quarantines_only_its_session() {
        let door = fragile_door(1, IngestConfig::default());
        let handle = door.handle();
        let (a, sub_a) = handle.open(sd(0, 9), 0.0).unwrap();
        let (b, sub_b) = handle.open(sd(1, 8), 0.0).unwrap();
        handle.submit(a, SegmentId(1)).unwrap();
        handle.submit(a, SegmentId(2)).unwrap();
        handle.submit(b, SegmentId(3)).unwrap();
        handle.submit(a, SegmentId(u32::MAX)).unwrap(); // poison
        handle.submit(a, SegmentId(4)).unwrap(); // after the fault: quarantined
        handle.submit(b, SegmentId(5)).unwrap();
        assert_eq!(
            handle.close(a).unwrap().wait(),
            Err(SessionFault::PoisonEvent)
        );
        // The fault is answered once: a second close finds no session.
        assert_eq!(
            handle.close(a).unwrap().wait(),
            Err(SessionFault::UnknownSession)
        );
        assert_eq!(handle.close(b).unwrap().wait().unwrap(), vec![1, 1]);
        assert_eq!(sub_a.fault(), Some(SessionFault::PoisonEvent));
        assert_eq!(sub_b.fault(), None);
        // Labels before the poison event were delivered to the stream.
        let mut streamed = Vec::new();
        while let Some(label) = sub_a.recv() {
            streamed.push(label);
        }
        assert_eq!(streamed, vec![1, 0]);
        let report = door.shutdown();
        assert_eq!(report.stats.worker_restarts, 0, "poison needs no restart");
        assert_eq!(report.stats.quarantined_sessions, 1);
        assert_eq!(report.stats.quarantined_events, 2);
        assert_eq!(report.stats.flushed_events, 4);
        assert_exact_accounting(&report.stats);
    }

    /// A panic at a flush boundary loses nothing; one inside a batch costs
    /// that batch's session only, and the successor closes its leftover
    /// state instead of carrying it.
    #[test]
    fn injected_panic_restarts_worker_and_salvages_sessions() {
        silence_injected_panic_output();
        let config = IngestConfig {
            flush: FlushPolicy::immediate(),
            ..Default::default()
        };
        let door = fragile_door(1, config);
        let handle = door.handle();
        let (a, _sub_a) = handle.open(sd(0, 9), 0.0).unwrap();
        let (b, _sub_b) = handle.open(sd(1, 8), 0.0).unwrap();
        let (c, _sub_c) = handle.open(sd(2, 7), 0.0).unwrap();
        handle.submit(a, SegmentId(1)).unwrap();
        handle.submit(b, SegmentId(2)).unwrap();
        handle
            .control(|_engine: &mut Fragile| panic!("{}: worker panic", FAULT_INJECTION_MARKER))
            .unwrap();
        handle.submit(a, SegmentId(3)).unwrap();
        handle.submit(c, CRASH).unwrap(); // panics inside its own batch
        handle.submit(b, SegmentId(4)).unwrap();
        assert_eq!(handle.close(a).unwrap().wait().unwrap(), vec![1, 1]);
        assert_eq!(handle.close(b).unwrap().wait().unwrap(), vec![0, 0]);
        let crashed = handle.close(c).unwrap().wait();
        assert_eq!(crashed, Err(SessionFault::WorkerCrash));
        assert_eq!(handle.worker_restarts(), 2);
        let report = door.shutdown();
        assert_eq!(report.stats.worker_restarts, 2);
        assert_eq!(report.stats.quarantined_sessions, 1, "only c is lost");
        assert_eq!(report.stats.flushed_events, 4);
        assert_eq!(report.engines[0].active_sessions(), 0);
        assert_exact_accounting(&report.stats);
    }

    /// An engine that keeps the default (no) successor still
    /// survives a panic: the worker restarts once, every session it held
    /// ends with an explicit `Unsalvageable` fault instead of a hang, and
    /// sessions opened afterwards are served by the factory-built engine.
    #[test]
    fn panic_without_salvage_quarantines_as_unsalvageable_and_serves_on() {
        silence_injected_panic_output();
        let door = parity_door(1, IngestConfig::default());
        let handle = door.handle();
        let (s, sub) = handle.open(sd(0, 9), 0.0).unwrap();
        handle.submit(s, SegmentId(1)).unwrap();
        handle
            .control(|_engine: &mut SessionMux<Parity, fn() -> Parity>| {
                panic!("{}: worker panic", FAULT_INJECTION_MARKER)
            })
            .unwrap();
        assert_eq!(
            handle.close(s).unwrap().wait(),
            Err(SessionFault::Unsalvageable)
        );
        assert_eq!(sub.fault(), Some(SessionFault::Unsalvageable));
        assert_eq!(handle.worker_restarts(), 1);
        let (after, _sub_after) = handle.open(sd(1, 8), 0.0).unwrap();
        handle.submit(after, SegmentId(2)).unwrap();
        handle.submit(after, SegmentId(3)).unwrap();
        assert_eq!(handle.close(after).unwrap().wait().unwrap(), vec![0, 1]);
        let report = door.shutdown();
        assert_eq!(report.stats.worker_restarts, 1);
        assert_eq!(report.stats.quarantined_sessions, 1);
        assert_eq!(report.stats.flushed_events, 3);
        assert_exact_accounting(&report.stats);
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        for attempt in 0..20 {
            let d1 = policy.backoff(attempt, 7);
            let d2 = policy.backoff(attempt, 7);
            assert_eq!(d1, d2, "same (seed, salt, attempt) → same delay");
            assert!(d1 <= policy.max_backoff, "delay capped at max_backoff");
            assert!(d1 >= policy.base / 2, "delay at least half the base");
        }
        assert_ne!(
            policy.backoff(3, 1),
            policy.backoff(3, 2),
            "different salts de-correlate"
        );
        // run() stops after max_retries + 1 attempts.
        let mut attempts = 0u32;
        let tight = RetryPolicy {
            max_retries: 3,
            base: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let result: Result<(), SubmitError> = tight.run(0, || {
            attempts += 1;
            Err(SubmitError::QueueFull)
        });
        assert_eq!(result, Err(SubmitError::QueueFull));
        assert_eq!(attempts, 4);
        // Non-QueueFull outcomes return immediately.
        let mut calls = 0u32;
        let result: Result<(), SubmitError> = tight.run(0, || {
            calls += 1;
            Err(SubmitError::ShutDown)
        });
        assert_eq!(result, Err(SubmitError::ShutDown));
        assert_eq!(calls, 1);
    }

    #[test]
    fn deadline_submit_gives_up_with_explicit_error() {
        // One-slot queue with the worker wedged in a control command:
        // the first submit is accepted into the queue, later ones stay
        // QueueFull until past the deadline.
        let door = parity_door(
            1,
            IngestConfig {
                queue_capacity: 1,
                ..Default::default()
            },
        );
        let handle = door.handle();
        let (s, _sub) = handle.open(sd(0, 9), 0.0).unwrap();
        let gate = hold_workers(&handle);
        // Fill the single queue slot, then exhaust a short deadline.
        while handle.submit(s, SegmentId(1)) == Err(SubmitError::QueueFull) {
            std::thread::yield_now();
        }
        let deadline = Instant::now() + Duration::from_millis(5);
        let mut saw_deadline = false;
        loop {
            match handle.submit_with_deadline(s, SegmentId(2), deadline) {
                Err(SubmitError::DeadlineExceeded) => {
                    saw_deadline = true;
                    break;
                }
                Ok(()) => {
                    // The wedged worker still made room in time; extend
                    // the experiment with an already-expired deadline,
                    // which must fail deterministically on a full queue.
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        gate.store(true, Ordering::SeqCst);
        if saw_deadline {
            assert!(handle.deadline_exceeded_events() >= 1);
        }
        let report = door.shutdown();
        assert_exact_accounting(&report.stats);
    }

    #[test]
    fn degraded_mode_sheds_low_priority_opens() {
        let door = parity_door(
            1,
            IngestConfig {
                queue_capacity: 1,
                ..Default::default()
            },
        );
        let handle = door.handle();
        let (s, _sub) = handle.open(sd(0, 9), 0.0).unwrap();
        let gate = hold_workers(&handle);
        // Wedge the queue full, then reject past the watermark.
        while handle.submit(s, SegmentId(1)) == Err(SubmitError::QueueFull) {
            std::thread::yield_now();
        }
        let mut rejects = 0u64;
        while rejects < DEGRADED_WATERMARK + 8 {
            if handle.submit(s, SegmentId(1)) == Err(SubmitError::QueueFull) {
                rejects += 1;
            }
        }
        assert!(handle.is_degraded(0), "watermark crossed → degraded");
        assert_eq!(
            handle
                .open_with_priority(sd(1, 8), 0.0, Priority::Low)
                .map(|_| ())
                .unwrap_err(),
            SubmitError::Degraded,
            "low-priority opens shed while degraded"
        );
        assert_eq!(handle.shed_opens(), 1);
        // Recovery: un-wedge the worker; the next accepted submit lifts
        // the degradation and low-priority opens are admitted again.
        gate.store(true, Ordering::SeqCst);
        while handle.submit(s, SegmentId(1)) == Err(SubmitError::QueueFull) {
            std::thread::yield_now();
        }
        assert!(!handle.is_degraded(0), "accepted submit lifts degradation");
        // That submit may still occupy the one queue slot, so the re-open
        // can meet `QueueFull` — retried — but never `Degraded` again.
        let reopened = RetryPolicy::unbounded(1).run(0, || {
            handle.open_with_priority(sd(2, 7), 0.0, Priority::Low)
        });
        assert_eq!(reopened.map(|_| ()), Ok(()));
        let report = door.shutdown();
        assert_exact_accounting(&report.stats);
    }
}
