//! Bounded structured event log.
//!
//! Discrete ops events (model swap applied, epoch retired, arena
//! compaction, backpressure shed, sweep stats) are pushed into a ring of
//! fixed capacity. Every event carries a monotone sequence number, so a
//! tailer that remembers the last sequence it saw can detect exactly how
//! many events it missed when the ring wrapped — loss-*aware* tailing,
//! never silent loss.

use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::sync::Mutex;

/// A discrete operational event. All variants are `Copy` — pushing one
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpsEvent {
    /// A new model epoch was published on a shard.
    ModelSwapApplied {
        /// Shard that applied the swap.
        shard: u32,
        /// The new epoch's swap sequence number.
        seq: u64,
        /// Epochs retired immediately (outgoing epoch had no live
        /// sessions).
        retired: u64,
    },
    /// A model epoch's last session closed and its slot was reclaimed.
    EpochRetired {
        /// Shard that retired the epoch.
        shard: u32,
        /// The retired epoch's swap sequence number.
        seq: u64,
    },
    /// The frozen-state arena compacted itself.
    ArenaCompaction {
        /// Shard whose arena compacted.
        shard: u32,
        /// Cumulative compactions on that shard so far.
        compactions: u64,
    },
    /// Load shedding: submits rejected with `QueueFull` were dropped
    /// rather than retried.
    BackpressureShed {
        /// Events shed in this episode.
        shed: u64,
    },
    /// An idle-session hibernation sweep completed.
    SweepStats {
        /// Shard that swept.
        shard: u32,
        /// Engine tick at which the sweep ran.
        tick: u64,
        /// Sessions frozen by this sweep.
        swept: u64,
    },
    /// A supervised shard worker panicked and was restarted in place.
    WorkerRestart {
        /// Shard whose worker restarted.
        shard: u32,
        /// Sessions quarantined by this restart (poisoned or unsalvageable).
        quarantined: u64,
        /// Sessions the restarted engine carried over.
        salvaged: u64,
    },
    /// One session was quarantined (terminal `SessionFault`).
    SessionQuarantined {
        /// Shard the session lived on.
        shard: u32,
    },
    /// A shard entered degraded-mode admission control.
    DegradedEnter {
        /// Shard that degraded.
        shard: u32,
    },
    /// A shard left degraded mode.
    DegradedExit {
        /// Shard that recovered.
        shard: u32,
    },
}

impl Serialize for OpsEvent {
    fn serialize(&self) -> Value {
        let map = |tag: &str, fields: Vec<(&str, Value)>| {
            let mut m = vec![("type".to_string(), Value::Str(tag.to_string()))];
            m.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            Value::Map(m)
        };
        match *self {
            OpsEvent::ModelSwapApplied {
                shard,
                seq,
                retired,
            } => map(
                "model_swap_applied",
                vec![
                    ("shard", shard.serialize()),
                    ("seq", seq.serialize()),
                    ("retired", retired.serialize()),
                ],
            ),
            OpsEvent::EpochRetired { shard, seq } => map(
                "epoch_retired",
                vec![("shard", shard.serialize()), ("seq", seq.serialize())],
            ),
            OpsEvent::ArenaCompaction { shard, compactions } => map(
                "arena_compaction",
                vec![
                    ("shard", shard.serialize()),
                    ("compactions", compactions.serialize()),
                ],
            ),
            OpsEvent::BackpressureShed { shed } => {
                map("backpressure_shed", vec![("shed", shed.serialize())])
            }
            OpsEvent::SweepStats { shard, tick, swept } => map(
                "sweep_stats",
                vec![
                    ("shard", shard.serialize()),
                    ("tick", tick.serialize()),
                    ("swept", swept.serialize()),
                ],
            ),
            OpsEvent::WorkerRestart {
                shard,
                quarantined,
                salvaged,
            } => map(
                "worker_restart",
                vec![
                    ("shard", shard.serialize()),
                    ("quarantined", quarantined.serialize()),
                    ("salvaged", salvaged.serialize()),
                ],
            ),
            OpsEvent::SessionQuarantined { shard } => {
                map("session_quarantined", vec![("shard", shard.serialize())])
            }
            OpsEvent::DegradedEnter { shard } => {
                map("degraded_enter", vec![("shard", shard.serialize())])
            }
            OpsEvent::DegradedExit { shard } => {
                map("degraded_exit", vec![("shard", shard.serialize())])
            }
        }
    }
}

/// One event with its log sequence number.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SeqEvent {
    /// Monotone, gap-free sequence number assigned at push time.
    pub seq: u64,
    /// The event.
    pub event: OpsEvent,
}

/// What [`Obs::tail_events`](crate::Obs::tail_events) hands back.
#[derive(Debug, Clone, Serialize)]
pub struct EventTail {
    /// Events with `seq >= since`, oldest first.
    pub events: Vec<SeqEvent>,
    /// Events in `since..` that were already evicted from the ring —
    /// `0` means the tail is loss-free.
    pub missed: u64,
}

struct EventLogInner {
    buf: VecDeque<SeqEvent>,
    next_seq: u64,
    cap: usize,
}

/// The bounded ring itself.
pub(crate) struct EventLog {
    inner: Mutex<EventLogInner>,
}

impl EventLog {
    pub(crate) fn new(cap: usize) -> Self {
        EventLog {
            inner: Mutex::new(EventLogInner {
                buf: VecDeque::with_capacity(cap.min(4096)),
                next_seq: 0,
                cap: cap.max(1),
            }),
        }
    }

    pub(crate) fn push(&self, event: OpsEvent) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == inner.cap {
            inner.buf.pop_front();
        }
        inner.buf.push_back(SeqEvent { seq, event });
        seq
    }

    /// Events with `seq >= since`, plus how many such events were
    /// already evicted.
    pub(crate) fn tail(&self, since: u64) -> EventTail {
        let inner = self.inner.lock().unwrap();
        let oldest = inner.buf.front().map_or(inner.next_seq, |e| e.seq);
        let missed = oldest.saturating_sub(since.min(inner.next_seq));
        let events = inner
            .buf
            .iter()
            .filter(|e| e.seq >= since)
            .copied()
            .collect();
        EventTail { events, missed }
    }

    /// Total events ever pushed (== next sequence number).
    pub(crate) fn pushed(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shed(n: u64) -> OpsEvent {
        OpsEvent::BackpressureShed { shed: n }
    }

    #[test]
    fn sequences_are_monotone_and_gap_free() {
        let log = EventLog::new(8);
        for i in 0..5 {
            assert_eq!(log.push(shed(i)), i);
        }
        let tail = log.tail(0);
        assert_eq!(tail.missed, 0);
        let seqs: Vec<u64> = tail.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wrap_reports_exact_gap() {
        let log = EventLog::new(3);
        for i in 0..10 {
            log.push(shed(i));
        }
        // Ring holds seqs 7, 8, 9; a tailer resuming from 2 missed 5.
        let tail = log.tail(2);
        assert_eq!(tail.missed, 5);
        assert_eq!(
            tail.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        // A tailer that is fully caught up misses nothing.
        let tail = log.tail(10);
        assert_eq!(tail.missed, 0);
        assert!(tail.events.is_empty());
    }

    #[test]
    fn event_json_shape() {
        let v = OpsEvent::SweepStats {
            shard: 1,
            tick: 64,
            swept: 9,
        }
        .serialize();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("sweep_stats"));
        assert_eq!(v.get("swept"), Some(&Value::UInt(9)));
    }
}
