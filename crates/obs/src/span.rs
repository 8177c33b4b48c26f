//! Stage-level tracing.
//!
//! A [`Span`] is a monotonic start timestamp; finishing it through a
//! [`StageHandle`] folds the elapsed time into that stage's registered
//! histogram and appends one fixed-size [`SpanRecord`] to a bounded ring
//! — no per-event allocation anywhere on the path. When telemetry is
//! disabled, [`StageHandle::start`] returns an empty span without ever
//! reading the clock.

use crate::registry::Histo;
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The pipeline stages the serving stack traces. The per-stage histogram
/// is registered as `oasd_stage_nanos{stage="<name>", shard="<n>"}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stage {
    /// submit → flush start: time an event sat in the shard's ingress
    /// queue (recorded per event from the worker's arrival stamps).
    EnqueueWait,
    /// One whole micro-batch flush (drain + compute + deliver).
    #[default]
    Flush,
    /// The `observe_batch` call inside a flush.
    BatchCompute,
    /// Fan-out of freshly computed labels into the consumers' sinks.
    LabelDelivery,
    /// One wake-up of a serving connection's label pump: sink take →
    /// frames encoded → `write_all` returned.
    PumpWrite,
    /// One idle-session hibernation sweep in `StreamEngine`.
    HibernateSweep,
    /// One `swap_model` application (epoch publish + retire scan).
    SwapApply,
    /// One supervised-worker recovery: quarantine the aborted batch's
    /// sessions, hand the engine over to its successor.
    RestartSweep,
}

impl Stage {
    /// The stage's label value in metrics and span records.
    pub fn name(self) -> &'static str {
        match self {
            Stage::EnqueueWait => "enqueue_wait",
            Stage::Flush => "flush",
            Stage::BatchCompute => "batch_compute",
            Stage::LabelDelivery => "label_delivery",
            Stage::PumpWrite => "pump_write",
            Stage::HibernateSweep => "hibernate_sweep",
            Stage::SwapApply => "swap_apply",
            Stage::RestartSweep => "restart_sweep",
        }
    }
}

impl Serialize for Stage {
    fn serialize(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

/// An in-flight timed section. Empty (no clock read) when telemetry is
/// disabled, so the hot path cost of a disabled span is two branches.
#[must_use = "finish the span through the StageHandle that started it"]
#[derive(Debug)]
pub struct Span {
    t0: Option<Instant>,
}

impl Span {
    /// A span that records nothing when finished.
    pub fn none() -> Self {
        Span { t0: None }
    }

    pub(crate) fn started() -> Self {
        Span {
            t0: Some(Instant::now()),
        }
    }
}

/// One completed span, as kept in the bounded trace ring.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SpanRecord {
    /// Monotone sequence number (gap-free; see
    /// [`Snapshot::spans_dropped`](crate::Snapshot::spans_dropped)).
    pub seq: u64,
    /// Which pipeline stage this span timed.
    pub stage: Stage,
    /// Shard that ran the stage.
    pub shard: u32,
    /// Elapsed wall time in nanoseconds.
    pub nanos: u64,
}

struct SpanRingInner {
    buf: VecDeque<SpanRecord>,
    next_seq: u64,
    dropped: u64,
    cap: usize,
}

/// Bounded ring of recent [`SpanRecord`]s shared by every stage handle of
/// one [`Obs`](crate::Obs).
pub(crate) struct SpanRing {
    inner: Mutex<SpanRingInner>,
}

impl SpanRing {
    pub(crate) fn new(cap: usize) -> Self {
        SpanRing {
            inner: Mutex::new(SpanRingInner {
                buf: VecDeque::with_capacity(cap.min(4096)),
                next_seq: 0,
                dropped: 0,
                cap: cap.max(1),
            }),
        }
    }

    fn push(&self, stage: Stage, shard: u32, nanos: u64) {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == inner.cap {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(SpanRecord {
            seq,
            stage,
            shard,
            nanos,
        });
    }

    /// (retained records oldest-first, records evicted so far).
    pub(crate) fn drain(&self) -> (Vec<SpanRecord>, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.buf.iter().copied().collect(), inner.dropped)
    }
}

/// Pre-resolved tracer for one (stage, shard) pair: a histogram handle
/// plus the shared span ring. Cheap to clone; inert when built from a
/// disabled [`Obs`](crate::Obs).
#[derive(Clone, Default)]
pub struct StageHandle {
    histo: Histo,
    ring: Option<Arc<SpanRing>>,
    stage: Stage,
    shard: u32,
}

impl StageHandle {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        StageHandle::default()
    }

    pub(crate) fn live(histo: Histo, ring: Arc<SpanRing>, stage: Stage, shard: u32) -> Self {
        StageHandle {
            histo,
            ring: Some(ring),
            stage,
            shard,
        }
    }

    /// `true` when this handle actually records (telemetry enabled).
    /// Callers computing inputs for [`record_nanos`](Self::record_nanos)
    /// gate that work on this so the disabled path stays free.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.histo.is_live()
    }

    /// Starts a span. Reads the clock only when telemetry is enabled.
    #[inline]
    pub fn start(&self) -> Span {
        if self.histo.is_live() {
            Span::started()
        } else {
            Span::none()
        }
    }

    /// Finishes a span: elapsed time goes to the stage histogram and one
    /// record joins the span ring. No-op for [`Span::none`].
    #[inline]
    pub fn finish(&self, span: Span) {
        if let Some(t0) = span.t0 {
            let nanos = crate::hist::clamp_nanos(t0.elapsed());
            self.histo.record_nanos(nanos);
            if let Some(ring) = &self.ring {
                ring.push(self.stage, self.shard, nanos);
            }
        }
    }

    /// Folds a pre-measured duration into the stage histogram *without*
    /// pushing a span record — the per-event path (enqueue-wait) uses
    /// this so the ring holds per-flush spans, not millions of per-event
    /// rows.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.histo.record_nanos(nanos);
    }

    /// Records a completed span from two pre-read timestamps: elapsed
    /// time goes to the stage histogram and one record joins the span
    /// ring, exactly like [`finish`](Self::finish). Lets a caller timing
    /// several adjacent stages share clock reads instead of paying
    /// `start`/`finish` clock pairs per stage.
    #[inline]
    pub fn record_span(&self, t0: Instant, end: Instant) {
        if self.histo.is_live() {
            let nanos = crate::hist::clamp_nanos(end.saturating_duration_since(t0));
            self.histo.record_nanos(nanos);
            if let Some(ring) = &self.ring {
                ring.push(self.stage, self.shard, nanos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_reads_clock() {
        let h = StageHandle::disabled();
        let span = h.start();
        assert!(span.t0.is_none());
        h.finish(span);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = SpanRing::new(2);
        ring.push(Stage::Flush, 0, 10);
        ring.push(Stage::Flush, 0, 20);
        ring.push(Stage::Flush, 0, 30);
        let (records, dropped) = ring.drain();
        assert_eq!(dropped, 1);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[1].seq, 2);
        assert_eq!(records[1].nanos, 30);
    }
}
