//! Bounded, push-woken label sink: the return path of the ingest door.
//!
//! A shard worker pushes what its flushes produce — `(key, label)` runs,
//! terminal faults, close results — into the sink of whichever consumer
//! each session was opened onto, and wakes that consumer **once per
//! flush**. The consumer blocks on its sink alone, with no timeout and no
//! polling, so an idle consumer costs no wake-ups at all.
//!
//! One type serves every consumer shape: a server connection opens all
//! its sessions onto one sink ([`IngestHandle::open_onto`]) and its pump
//! thread takes whole batches with [`SinkConsumer::recv_into`]; a
//! [`Subscription`] is a one-session view over a private sink and a
//! [`CloseTicket`] a one-event one.
//!
//! * **FIFO** — events leave in push order, so the labels of one session
//!   reach the consumer in submit order and before that session's
//!   [`SinkEvent::Closed`].
//! * **Bounded, blocking** — a sink holds at most `capacity` undelivered
//!   *labels*; a flush pushing into a full sink waits for the consumer
//!   (consumer-directed backpressure). Faults and close results are rare
//!   and never wait. A dropped consumer discards everything pushed at it.
//! * **Wake-ups are paid only when someone sleeps** — the consumer raises
//!   `parked` under the sink's lock before it waits and a pusher notifies
//!   only if it finds the flag up, so pushing at a busy consumer is a
//!   plain locked append with no syscall. The wait predicate is re-checked
//!   under the same lock, so no wake-up can be lost.
//!
//! [`IngestHandle::open_onto`]: crate::IngestHandle::open_onto
//! [`Subscription`]: crate::Subscription
//! [`CloseTicket`]: crate::CloseTicket

use crate::ingest::SessionFault;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One delivery from a shard worker to a sink's consumer. `key` is the
/// consumer's own name for the session, given at
/// [`IngestHandle::open_onto`](crate::IngestHandle::open_onto).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkEvent {
    /// The provisional label of the session's next accepted event.
    Label {
        /// Consumer-chosen session key.
        key: u64,
        /// The label.
        label: u8,
    },
    /// The session was quarantined; nothing more follows for it except
    /// the (failed) result of a later close.
    Fault {
        /// Consumer-chosen session key.
        key: u64,
        /// Why the session was terminated.
        fault: SessionFault,
    },
    /// A close issued with
    /// [`IngestHandle::close_onto`](crate::IngestHandle::close_onto)
    /// completed: the session's final labels, or its terminal fault.
    Closed {
        /// Consumer-chosen session key.
        key: u64,
        /// Same payload as [`CloseTicket::wait`](crate::CloseTicket::wait).
        result: Result<Vec<u8>, SessionFault>,
    },
}

struct State {
    queue: VecDeque<SinkEvent>,
    /// `Label` events in `queue` — what `capacity` bounds.
    labels: usize,
    consumer_gone: bool,
    /// The consumer is (about to be) blocked on `ready`; whoever makes
    /// its wait predicate true lowers the flag and notifies.
    parked: bool,
    /// A pusher is blocked on `space`; whoever makes room lowers the flag
    /// and notifies.
    pusher_waiting: bool,
    /// [`LabelSink::wake`] was called since the last `recv_into`.
    poked: bool,
}

struct Shared {
    state: Mutex<State>,
    ready: Condvar,
    space: Condvar,
    capacity: usize,
    /// Live [`LabelSink`] handles; at zero the sink is disconnected.
    /// Outside the lock so attaching and detaching a session is one
    /// atomic op; the handle that brings it to zero then takes the lock
    /// to wake the consumer, which reads it under the same lock before
    /// it parks — so that wake-up cannot be lost either.
    producers: AtomicUsize,
}

impl Shared {
    /// Every critical section below is a handful of field updates that
    /// leave `State` valid at each step, so a poisoned lock (a thread
    /// died holding it) is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes the consumer if — and only if — it is parked.
    fn notify_consumer(&self, mut state: MutexGuard<'_, State>) {
        let parked = std::mem::take(&mut state.parked);
        drop(state);
        if parked {
            self.ready.notify_one();
        }
    }

    /// Wakes pushers blocked on a full sink, if any.
    fn notify_pushers(&self, mut state: MutexGuard<'_, State>) {
        let waiting = std::mem::take(&mut state.pusher_waiting);
        drop(state);
        if waiting {
            self.space.notify_all();
        }
    }
}

/// Creates a sink holding at most `capacity` undelivered labels,
/// returning its producer and consumer ends. Front-door callers use
/// [`IngestHandle::label_sink`](crate::IngestHandle::label_sink), which
/// applies the door's configured `outbox_capacity`.
pub fn label_sink(capacity: usize) -> (LabelSink, SinkConsumer) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            labels: 0,
            consumer_gone: false,
            parked: false,
            pusher_waiting: false,
            poked: false,
        }),
        ready: Condvar::new(),
        space: Condvar::new(),
        capacity,
        producers: AtomicUsize::new(1),
    });
    (
        LabelSink {
            shared: Arc::clone(&shared),
        },
        SinkConsumer { shared },
    )
}

/// The producer end of a label sink: what sessions are opened *onto*.
/// Cloning attaches another producer; once every clone is gone (the
/// owner dropped its handle and every attached session has closed) the
/// consumer sees the sink disconnect after draining it.
pub struct LabelSink {
    shared: Arc<Shared>,
}

impl Clone for LabelSink {
    fn clone(&self) -> Self {
        self.shared.producers.fetch_add(1, Ordering::SeqCst);
        LabelSink {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for LabelSink {
    fn drop(&mut self) {
        if self.shared.producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.notify_consumer(self.shared.lock());
        }
    }
}

impl LabelSink {
    /// Makes the consumer's pending (or next) [`SinkConsumer::recv_into`]
    /// return even if no event is queued — how the owner of a consumer
    /// thread tells it to look at state they share outside the sink.
    pub fn wake(&self) {
        let mut state = self.shared.lock();
        state.poked = true;
        self.shared.notify_consumer(state);
    }

    /// Appends as many labels of `run` (`(key, label)` pairs) as the
    /// capacity admits and returns how many were taken; a sink whose
    /// consumer is gone swallows the whole run. Never blocks and never
    /// wakes the consumer — the pusher follows up with
    /// [`notify`](Self::notify) once per flush.
    pub(crate) fn offer(&self, run: &[(u64, u8)]) -> usize {
        let mut state = self.shared.lock();
        if state.consumer_gone {
            return run.len();
        }
        let taken = run
            .len()
            .min(self.shared.capacity.saturating_sub(state.labels));
        state.queue.extend(
            run[..taken]
                .iter()
                .map(|&(key, label)| SinkEvent::Label { key, label }),
        );
        state.labels += taken;
        taken
    }

    /// Blocks until the sink has room for at least one label (waking the
    /// consumer first: it may be asleep on labels not yet notified).
    /// Returns `false` if the consumer is gone instead.
    pub(crate) fn wait_room(&self) -> bool {
        self.notify();
        let mut state = self.shared.lock();
        while !state.consumer_gone && state.labels >= self.shared.capacity {
            state.pusher_waiting = true;
            state = self
                .shared
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        !state.consumer_gone
    }

    /// Queues a fault or close result (never bounded, never blocks) and
    /// wakes the consumer.
    pub(crate) fn push_event(&self, event: SinkEvent) {
        let mut state = self.shared.lock();
        if !state.consumer_gone {
            state.queue.push_back(event);
            self.shared.notify_consumer(state);
        }
    }

    /// Wakes the consumer if it is parked (no syscall otherwise).
    pub(crate) fn notify(&self) {
        self.shared.notify_consumer(self.shared.lock());
    }

    /// Address of the shared sink: equal for handles of the same sink.
    pub(crate) fn id(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }
}

/// The consumer end of a label sink. Exactly one exists per sink;
/// dropping it makes every later push a no-op (and releases any flush
/// blocked on the sink).
pub struct SinkConsumer {
    shared: Arc<Shared>,
}

impl Drop for SinkConsumer {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.consumer_gone = true;
        state.queue.clear();
        state.labels = 0;
        self.shared.notify_pushers(state);
    }
}

impl SinkConsumer {
    /// Parks — with no timeout — until an event is queued, the sink was
    /// [poked](LabelSink::wake) or every producer is gone.
    fn wait_ready<'a>(&'a self, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        while state.queue.is_empty()
            && !state.poked
            && self.shared.producers.load(Ordering::SeqCst) > 0
        {
            state.parked = true;
            state = self
                .shared
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.parked = false;
        state
    }

    /// Blocks until the sink has something for its consumer — an event,
    /// a [`LabelSink::wake`], or the last producer leaving — then moves
    /// every queued event onto the back of `out` (a buffer swap when
    /// `out` is empty, which is the intended use). Returns `false` once
    /// every producer is gone and nothing was left to deliver.
    pub fn recv_into(&self, out: &mut VecDeque<SinkEvent>) -> bool {
        let mut state = self.wait_ready(self.shared.lock());
        state.poked = false;
        let alive = self.shared.producers.load(Ordering::SeqCst) > 0 || !state.queue.is_empty();
        if out.is_empty() {
            std::mem::swap(&mut state.queue, out);
        } else {
            out.append(&mut state.queue);
        }
        state.labels = 0;
        self.shared.notify_pushers(state);
        alive
    }

    /// Pops the head event if it is a label; with `block`, first parks
    /// while the sink is empty and connected. `None` when the head is a
    /// terminal [`SinkEvent::Fault`] (left in place) or nothing is there.
    pub(crate) fn pop_label(&self, block: bool) -> Option<u8> {
        let mut state = self.shared.lock();
        if block {
            state = self.wait_ready(state);
        }
        let Some(&SinkEvent::Label { label, .. }) = state.queue.front() else {
            return None;
        };
        state.queue.pop_front();
        state.labels -= 1;
        self.shared.notify_pushers(state);
        Some(label)
    }

    /// Pops every label at the head of the queue into `out`, returning
    /// how many.
    pub(crate) fn drain_labels(&self, out: &mut Vec<u8>) -> usize {
        let mut state = self.shared.lock();
        let before = out.len();
        while let Some(&SinkEvent::Label { label, .. }) = state.queue.front() {
            state.queue.pop_front();
            out.push(label);
        }
        let drained = out.len() - before;
        state.labels -= drained;
        self.shared.notify_pushers(state);
        drained
    }

    /// The fault that terminated the (single) session of this sink: a
    /// quarantine pushes [`SinkEvent::Fault`] and detaches the session,
    /// so the fault is the last event the sink will ever hold.
    pub(crate) fn terminal_fault(&self) -> Option<SessionFault> {
        match self.shared.lock().queue.back() {
            Some(&SinkEvent::Fault { fault, .. }) => Some(fault),
            _ => None,
        }
    }

    /// Pops the head event if it is a close result; with `block`, first
    /// parks until an event arrives or the sink disconnects.
    pub(crate) fn pop_closed(&self, block: bool) -> Option<Result<Vec<u8>, SessionFault>> {
        let mut state = self.shared.lock();
        if block {
            state = self.wait_ready(state);
        }
        match state.queue.pop_front()? {
            SinkEvent::Closed { result, .. } => Some(result),
            other => {
                state.queue.push_front(other);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(events: &VecDeque<SinkEvent>) -> Vec<(u64, u8)> {
        events
            .iter()
            .map(|event| match *event {
                SinkEvent::Label { key, label } => (key, label),
                ref other => panic!("not a label: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn events_leave_in_push_order_across_keys() {
        let (sink, consumer) = label_sink(16);
        assert_eq!(sink.offer(&[(7, 1), (9, 0), (7, 0)]), 3);
        sink.push_event(SinkEvent::Fault {
            key: 9,
            fault: SessionFault::PoisonEvent,
        });
        assert_eq!(sink.offer(&[(7, 1)]), 1);
        sink.push_event(SinkEvent::Closed {
            key: 7,
            result: Ok(vec![1, 0, 1]),
        });
        let mut got = VecDeque::new();
        assert!(consumer.recv_into(&mut got));
        assert_eq!(got.len(), 6);
        assert_eq!(
            got.pop_back(),
            Some(SinkEvent::Closed {
                key: 7,
                result: Ok(vec![1, 0, 1]),
            })
        );
        assert_eq!(got.pop_back(), Some(SinkEvent::Label { key: 7, label: 1 }));
        assert_eq!(
            got.pop_back(),
            Some(SinkEvent::Fault {
                key: 9,
                fault: SessionFault::PoisonEvent,
            })
        );
        assert_eq!(labels(&got), vec![(7, 1), (9, 0), (7, 0)]);
    }

    #[test]
    fn full_sink_blocks_the_pusher_until_the_consumer_takes() {
        let (sink, consumer) = label_sink(2);
        assert_eq!(sink.offer(&[(1, 0), (1, 1), (1, 0)]), 2, "capacity caps");
        assert_eq!(sink.offer(&[(1, 0)]), 0, "full sink takes nothing");
        // Faults and close results are never bounded.
        sink.push_event(SinkEvent::Fault {
            key: 2,
            fault: SessionFault::WorkerCrash,
        });
        let pusher = std::thread::spawn(move || {
            // Blocks here: the consumer has not taken anything yet.
            assert!(sink.wait_room());
            assert_eq!(sink.offer(&[(1, 0), (1, 1)]), 2);
            sink.notify();
        });
        let mut got = VecDeque::new();
        let mut seen = 0;
        while seen < 5 {
            assert!(consumer.recv_into(&mut got));
            seen += got.drain(..).count();
        }
        pusher.join().unwrap();
        assert!(!consumer.recv_into(&mut got), "drained and disconnected");
    }

    #[test]
    fn dropped_consumer_discards_pushes_and_never_blocks() {
        let (sink, consumer) = label_sink(1);
        assert_eq!(sink.offer(&[(1, 1)]), 1);
        let blocked = {
            let sink = sink.clone();
            std::thread::spawn(move || sink.wait_room())
        };
        drop(consumer);
        assert!(!blocked.join().unwrap(), "a blocked pusher is released");
        assert_eq!(sink.offer(&[(1, 1), (1, 0), (1, 1)]), 3, "swallowed");
        assert!(!sink.wait_room());
        sink.push_event(SinkEvent::Closed {
            key: 1,
            result: Ok(Vec::new()),
        });
        sink.wake();
    }

    #[test]
    fn last_producer_gone_and_drained_means_disconnected() {
        let (sink, consumer) = label_sink(4);
        let attached = sink.clone();
        drop(sink);
        assert_eq!(attached.offer(&[(3, 1)]), 1);
        let waiter = std::thread::spawn(move || {
            let mut got = VecDeque::new();
            let mut batches = Vec::new();
            while consumer.recv_into(&mut got) {
                batches.push(labels(&got));
                got.clear();
            }
            batches
        });
        drop(attached); // wakes the parked consumer with nothing queued
        let batches = waiter.join().unwrap();
        assert_eq!(batches.concat(), vec![(3, 1)]);
    }

    #[test]
    fn wake_returns_an_empty_batch_once() {
        let (sink, consumer) = label_sink(4);
        sink.wake();
        let mut got = VecDeque::new();
        assert!(consumer.recv_into(&mut got));
        assert!(got.is_empty());
        // The poke is consumed: the next take needs a real event.
        assert_eq!(sink.offer(&[(1, 1)]), 1);
        assert!(consumer.recv_into(&mut got));
        assert_eq!(labels(&got), vec![(1, 1)]);
    }

    /// One pusher, one consumer that parks between every label, 100 000
    /// round trips and not a single timeout: a lost wake-up on either
    /// sink hangs this test instead of hiding as a latency spike.
    #[test]
    fn ping_pong_never_loses_a_wakeup() {
        const ROUNDS: u64 = 100_000;
        let (ping, ping_rx) = label_sink(1);
        let (pong, pong_rx) = label_sink(1);
        let echo = std::thread::spawn(move || {
            let mut got = VecDeque::new();
            for round in 0..ROUNDS {
                assert!(ping_rx.recv_into(&mut got));
                assert_eq!(labels(&got), vec![(round, (round & 1) as u8)]);
                got.clear();
                assert_eq!(pong.offer(&[(round, 1)]), 1);
                pong.notify();
            }
        });
        let mut got = VecDeque::new();
        for round in 0..ROUNDS {
            assert_eq!(ping.offer(&[(round, (round & 1) as u8)]), 1);
            ping.notify();
            assert!(pong_rx.recv_into(&mut got));
            assert_eq!(labels(&got), vec![(round, 1)]);
            got.clear();
        }
        echo.join().unwrap();
    }
}
