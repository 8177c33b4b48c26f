//! Zero-dependency telemetry spine for the serving stack.
//!
//! One [`Obs`] handle (cheap to clone — an `Arc` or nothing) carries
//! four cooperating pieces through every serving layer:
//!
//! 1. a **metrics registry** — atomic counters, gauges and HDR latency
//!    histograms addressed by *name + static label set* (shard, epoch,
//!    tier, regime, stage), resolved once into lock-free handles
//!    ([`Counter`], [`Gauge`], [`Histo`]);
//! 2. **stage-level tracing** — [`Span`]s finished through a
//!    [`StageHandle`] feed per-stage histograms and a bounded ring of
//!    fixed-size [`SpanRecord`]s (no per-event allocation);
//! 3. a bounded **structured event log** of discrete [`OpsEvent`]s with
//!    monotone sequence numbers for loss-aware tailing;
//! 4. **export** — [`Snapshot`] (JSON via the vendored serde subset, or
//!    Prometheus text exposition) plus a background [`Sampler`] thread
//!    recording gauge history.
//!
//! Telemetry is strictly opt-in: [`Obs::disabled`] (the
//! [`ObsConfig::disabled`] / `Default` state) hands out handles that
//! never read the clock, never lock and never allocate, so the disabled
//! path is provably inert — `tests/obs.rs` property-checks that labels
//! are byte-identical with telemetry on and off.
//!
//! # Metric naming scheme
//!
//! Every metric name starts with `oasd_`; counters end in `_total`;
//! durations are nanosecond histograms ending in `_nanos`. Label keys
//! come from the fixed vocabulary `{shard, epoch, tier, regime, stage}`.
//! The [`names`] module holds the canonical constants.
//!
//! ```
//! use obs::{names, Obs, ObsConfig, OpsEvent, Stage};
//!
//! let obs = Obs::new(ObsConfig::enabled());
//! let accepted = obs.counter(names::INGEST_SUBMITTED, &[("shard", "0")]);
//! accepted.add(41);
//! accepted.inc();
//!
//! let flush = obs.stage(Stage::Flush, 0);
//! let span = flush.start();
//! // ... do the work being timed ...
//! flush.finish(span);
//!
//! obs.event(OpsEvent::BackpressureShed { shed: 7 });
//!
//! let snap = obs.snapshot();
//! assert!(!snap.is_empty());
//! assert!(snap.to_prometheus().contains("oasd_ingest_submitted_total{shard=\"0\"} 42"));
//!
//! // The same calls against a disabled handle are no-ops:
//! let off = Obs::disabled();
//! off.counter(names::INGEST_SUBMITTED, &[("shard", "0")]).inc();
//! assert!(off.snapshot().is_empty());
//! ```

#![deny(missing_docs)]

mod events;
mod export;
mod hist;
mod registry;
mod sampler;
mod span;

pub use events::{EventTail, OpsEvent, SeqEvent};
pub use export::{GaugeSample, HistogramSnapshot, MetricValue, Snapshot};
pub use hist::LatencyHistogram;
pub use registry::{Counter, Gauge, Histo};
pub use sampler::Sampler;
pub use span::{Span, SpanRecord, Stage, StageHandle};

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Canonical metric names (see the crate docs for the naming scheme).
pub mod names {
    /// Per-stage latency histogram, labelled `{stage, shard}`.
    pub const STAGE_NANOS: &str = "oasd_stage_nanos";
    /// Events accepted by `submit`, per shard.
    pub const INGEST_SUBMITTED: &str = "oasd_ingest_submitted_total";
    /// Submits rejected with `QueueFull`, per shard.
    pub const INGEST_REJECTED: &str = "oasd_ingest_rejected_total";
    /// Events flushed into shard engines, per shard.
    pub const INGEST_FLUSHED: &str = "oasd_ingest_flushed_events_total";
    /// Micro-batch flushes executed, per shard.
    pub const INGEST_FLUSHES: &str = "oasd_ingest_flushes_total";
    /// Submit→label latency histogram, per shard.
    pub const INGEST_LATENCY: &str = "oasd_ingest_latency_nanos";
    /// Supervised worker restarts after a panic, per shard.
    pub const INGEST_WORKER_RESTARTS: &str = "oasd_ingest_worker_restarts_total";
    /// Sessions quarantined with a terminal `SessionFault`, per shard.
    pub const INGEST_QUARANTINED_SESSIONS: &str = "oasd_ingest_quarantined_sessions_total";
    /// Events charged to quarantined sessions (counted, never delivered),
    /// per shard.
    pub const INGEST_QUARANTINED_EVENTS: &str = "oasd_ingest_quarantined_events_total";
    /// Events shed inside a worker (stray or undeliverable), per shard.
    pub const INGEST_SHED_EVENTS: &str = "oasd_ingest_shed_events_total";
    /// Submits rejected because their deadline expired, per shard.
    pub const INGEST_DEADLINE_EXCEEDED: &str = "oasd_ingest_deadline_exceeded_total";
    /// Degraded-mode admission gauge, per shard (1 while degraded).
    pub const INGEST_DEGRADED: &str = "oasd_ingest_degraded";
    /// Sessions currently held, labelled `{shard, tier}` with
    /// `tier="hot"` (resident) or `tier="frozen"` (hibernated).
    pub const ENGINE_SESSIONS: &str = "oasd_engine_sessions";
    /// Bytes pinned by the frozen-state arena, per shard.
    pub const ENGINE_ARENA_BYTES: &str = "oasd_engine_arena_bytes";
    /// Label decisions made, per shard.
    pub const ENGINE_DECISIONS: &str = "oasd_engine_decisions_total";
    /// Anomalous labels emitted, per shard.
    pub const ENGINE_ALERTS: &str = "oasd_engine_alerts_total";
    /// Model swaps applied, per shard.
    pub const ENGINE_SWAPS: &str = "oasd_engine_model_swaps_total";
    /// Live sessions pinned per model epoch, labelled `{shard, epoch}`.
    pub const EPOCH_SESSIONS: &str = "oasd_epoch_live_sessions";
    /// Events delivered by a scenario replay, labelled `{regime}` by the
    /// scenario driver.
    pub const SCENARIO_EVENTS: &str = "oasd_scenario_events_total";
    /// Events shed by a scenario replay under `Backpressure::Shed`.
    pub const SCENARIO_SHED: &str = "oasd_scenario_shed_total";
    /// Wire connections accepted by the serving front door.
    pub const SERVE_CONNECTIONS: &str = "oasd_serve_connections_total";
    /// Request frames decoded off the wire, labelled `{op}`.
    pub const SERVE_FRAMES: &str = "oasd_serve_frames_total";
    /// Typed wire errors sent to clients, labelled `{error}`.
    pub const SERVE_WIRE_ERRORS: &str = "oasd_serve_wire_errors_total";
    /// Sessions opened over the wire, labelled `{tenant}`.
    pub const SERVE_OPENS: &str = "oasd_serve_opens_total";
    /// Opens shed by per-tenant session quotas, labelled `{tenant}`.
    pub const SERVE_QUOTA_SHED: &str = "oasd_serve_quota_shed_total";
    /// Ops (HTTP) requests served, labelled `{path}`.
    pub const SERVE_HTTP_REQUESTS: &str = "oasd_serve_http_requests_total";
    /// Times a connection's label pump came back from its sink — one per
    /// flush that delivered to the connection; zero while it is idle.
    pub const SERVE_PUMP_WAKEUPS: &str = "oasd_serve_pump_wakeups_total";
    /// `Label` frames written to clients by the label pumps.
    pub const SERVE_LABEL_FRAMES: &str = "oasd_serve_label_frames_total";
}

/// Construction options for [`Obs::new`]. `Default` is
/// [`disabled`](ObsConfig::disabled), so embedding an `ObsConfig` in a
/// larger config keeps telemetry off unless asked for.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Master switch; `false` makes [`Obs::new`] return
    /// [`Obs::disabled`].
    pub enabled: bool,
    /// Capacity of the ops-event ring.
    pub event_capacity: usize,
    /// Capacity of the span-record ring.
    pub span_capacity: usize,
    /// Capacity of the background-sampler gauge-history ring.
    pub sample_capacity: usize,
}

impl ObsConfig {
    /// Telemetry off — every handle minted is a no-op.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            event_capacity: 0,
            span_capacity: 0,
            sample_capacity: 0,
        }
    }

    /// Telemetry on with default ring capacities (1024 events, 4096
    /// spans, 4096 samples).
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            event_capacity: 1024,
            span_capacity: 4096,
            sample_capacity: 4096,
        }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::disabled()
    }
}

pub(crate) struct Inner {
    registry: registry::Registry,
    events: events::EventLog,
    spans: Arc<span::SpanRing>,
    samples: sampler::Samples,
    start: Instant,
}

impl Inner {
    /// Copies every gauge into the sample ring (one sampler tick).
    pub(crate) fn sample(&self) {
        let at_nanos = hist::clamp_nanos(self.start.elapsed());
        let mut rows = Vec::new();
        self.registry.visit(
            |_, _| {},
            |key, value| {
                rows.push(GaugeSample {
                    at_nanos,
                    name: key.render(),
                    value,
                })
            },
            |_, _| {},
        );
        let mut ring = self.samples.lock().unwrap();
        for row in rows {
            ring.push(row);
        }
    }
}

/// The telemetry handle threaded through the serving stack.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled); every
/// layer that wants to record resolves its handles once at wiring time
/// and the hot path touches only relaxed atomics. See the crate docs for
/// the full tour.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// The inert handle: no registry, no rings, no clock reads.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// Builds a handle from `cfg` ([`Obs::disabled`] when
    /// `cfg.enabled` is `false`).
    pub fn new(cfg: ObsConfig) -> Self {
        if !cfg.enabled {
            return Obs::disabled();
        }
        Obs {
            inner: Some(Arc::new(Inner {
                registry: registry::Registry::new(),
                events: events::EventLog::new(cfg.event_capacity.max(1)),
                spans: Arc::new(span::SpanRing::new(cfg.span_capacity.max(1))),
                samples: Mutex::new(sampler::SampleRing::new(cfg.sample_capacity.max(1))),
                start: Instant::now(),
            })),
        }
    }

    /// `true` when this handle actually records.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) a counter handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            Some(inner) => Counter::live(inner.registry.counter(name, labels)),
            None => Counter::disabled(),
        }
    }

    /// Resolves (registering on first use) a gauge handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            Some(inner) => Gauge::live(inner.registry.gauge(name, labels)),
            None => Gauge::disabled(),
        }
    }

    /// Resolves (registering on first use) a histogram handle.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histo {
        match &self.inner {
            Some(inner) => Histo::live(inner.registry.histogram(name, labels)),
            None => Histo::disabled(),
        }
    }

    /// Resolves a stage tracer for `(stage, shard)`: the
    /// [`names::STAGE_NANOS`] histogram plus the shared span ring.
    pub fn stage(&self, stage: Stage, shard: u32) -> StageHandle {
        match &self.inner {
            Some(inner) => {
                let shard_label = shard.to_string();
                let histo = Histo::live(inner.registry.histogram(
                    names::STAGE_NANOS,
                    &[("stage", stage.name()), ("shard", &shard_label)],
                ));
                StageHandle::live(histo, Arc::clone(&inner.spans), stage, shard)
            }
            None => StageHandle::disabled(),
        }
    }

    /// Logs one ops event, returning its sequence number (0 and a no-op
    /// when disabled).
    pub fn event(&self, event: OpsEvent) -> u64 {
        match &self.inner {
            Some(inner) => inner.events.push(event),
            None => 0,
        }
    }

    /// Tails the event log from sequence `since` (an empty, loss-free
    /// tail when disabled).
    pub fn tail_events(&self, since: u64) -> EventTail {
        match &self.inner {
            Some(inner) => inner.events.tail(since),
            None => EventTail {
                events: Vec::new(),
                missed: 0,
            },
        }
    }

    /// Takes one gauge sample synchronously (what the background sampler
    /// does on its interval); useful in tests and at shutdown.
    pub fn sample_now(&self) {
        if let Some(inner) = &self.inner {
            inner.sample();
        }
    }

    /// Spawns the background sampler thread, one gauge sweep per
    /// `every`. Returns an inert guard when disabled. The thread holds
    /// only a weak reference: dropping the last `Obs` (or the guard)
    /// stops it.
    pub fn start_sampler(&self, every: Duration) -> Sampler {
        match &self.inner {
            Some(inner) => Sampler::spawn(Arc::downgrade(inner), every),
            None => Sampler::inert(),
        }
    }

    /// Point-in-time export of everything recorded so far (an empty
    /// [`Snapshot`] when disabled).
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let mut snap = Snapshot::default();
        inner.registry.visit(
            |key, value| {
                snap.counters.push(MetricValue {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value,
                })
            },
            |key, value| {
                snap.gauges.push(MetricValue {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value,
                })
            },
            |key, h| {
                snap.histograms.push(HistogramSnapshot::from_hist(
                    key.name.clone(),
                    key.labels.clone(),
                    &h,
                ))
            },
        );
        let tail = inner.events.tail(0);
        snap.events = tail.events;
        snap.events_total = inner.events.pushed();
        let (spans, dropped) = inner.spans.drain();
        snap.spans = spans;
        snap.spans_dropped = dropped;
        snap.samples = inner.samples.lock().unwrap().rows();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.counter("oasd_x_total", &[]).inc();
        obs.gauge("oasd_g", &[]).set(3);
        obs.histogram("oasd_h_nanos", &[])
            .record(Duration::from_micros(1));
        let h = obs.stage(Stage::Flush, 0);
        let span = h.start();
        h.finish(span);
        obs.event(OpsEvent::BackpressureShed { shed: 1 });
        obs.sample_now();
        let _sampler = obs.start_sampler(Duration::from_millis(1));
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn snapshot_carries_all_four_pieces() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.counter(names::INGEST_SUBMITTED, &[("shard", "0")])
            .add(7);
        obs.gauge(names::ENGINE_SESSIONS, &[("shard", "0"), ("tier", "hot")])
            .set(5);
        let stage = obs.stage(Stage::BatchCompute, 0);
        let span = stage.start();
        stage.finish(span);
        obs.event(OpsEvent::EpochRetired { shard: 0, seq: 1 });
        obs.sample_now();
        let snap = obs.snapshot();
        assert!(!snap.is_empty());
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 7);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.samples.len(), 1);
        assert_eq!(snap.samples[0].value, 5);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(ObsConfig::enabled());
        let other = obs.clone();
        other.counter("oasd_shared_total", &[]).add(2);
        obs.counter("oasd_shared_total", &[]).add(3);
        assert_eq!(obs.snapshot().counters[0].value, 5);
    }

    #[test]
    fn background_sampler_samples_and_stops() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.gauge("oasd_g", &[]).set(9);
        let sampler = obs.start_sampler(Duration::from_millis(5));
        let deadline = Instant::now() + Duration::from_secs(5);
        while obs.snapshot().samples.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        let snap = obs.snapshot();
        assert!(!snap.samples.is_empty(), "sampler never ticked");
        assert_eq!(snap.samples[0].value, 9);
        assert_eq!(snap.samples[0].name, "oasd_g");
    }
}
