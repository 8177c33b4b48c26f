//! Ingest/sync equivalence harness for the async front door: for any
//! [`FlushPolicy`] and any shard count, the per-session label sequence
//! coming out of [`IngestFrontDoor`] / [`IngestEngine`] must be
//! **byte-identical** to driving the same engine synchronously through
//! `observe_batch` — micro-batching and queueing are pure scheduling
//! transformations, never behavioural ones. Also pins the operational
//! contracts: graceful shutdown drains every accepted event, and a full
//! ingress queue reports `QueueFull` backpressure instead of blocking or
//! dropping.
//!
//! Run in CI's release job too, so the persistent-worker threading path is
//! exercised with optimisations on.

use proptest::prelude::*;
use rl4oasd::IngestEngine;
use rl4oasd_repro::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

mod common;
use common::{hold_workers, interleaved, trained_fixture, CityKind, EngineFixture};

/// One shared trained fixture for every test in this file (training is the
/// expensive part; the properties only exercise serving).
fn fixture() -> &'static EngineFixture {
    static FIXTURE: OnceLock<EngineFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| trained_fixture(CityKind::ChengduGrid, 0x1A6E))
}

/// The shard counts the equivalence properties sweep (acceptance: 1/2/8).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The flush-policy corners the properties sweep: one-event flushes, a
/// tiny batch bound, no effective bound (only an empty queue flushes),
/// and the default.
fn policies() -> [FlushPolicy; 4] {
    [
        FlushPolicy::immediate(),
        FlushPolicy::new(3),
        FlushPolicy::new(1_000_000),
        FlushPolicy::default(),
    ]
}

/// Submits every trajectory through the front door with a seed-dependent
/// irregular interleaving (the same xorshift schedule shape as
/// `common::interleaved`), then closes every session, returning per-session
/// `(subscription labels, final labels)`.
fn drive_ingest<E>(
    handle: &IngestHandle<E>,
    trajs: &[&MappedTrajectory],
    schedule_seed: u64,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let opened: Vec<(SessionId, traj::Subscription)> = trajs
        .iter()
        .map(|t| {
            handle
                .open(t.sd_pair().unwrap(), t.start_time)
                .expect("open accepted")
        })
        .collect();
    let mut pos = vec![0usize; trajs.len()];
    let mut rng = schedule_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    loop {
        let mut advanced = false;
        for (k, t) in trajs.iter().enumerate() {
            if pos[k] < t.len() && next() % 3 != 0 {
                let segment = t.segments[pos[k]];
                while handle.submit(opened[k].0, segment) == Err(SubmitError::QueueFull) {
                    std::thread::yield_now();
                }
                pos[k] += 1;
                advanced = true;
            }
        }
        if !advanced && pos.iter().zip(trajs).all(|(&p, t)| p == t.len()) {
            break;
        }
    }
    opened
        .into_iter()
        .map(|(session, sub)| {
            let finals = handle
                .close(session)
                .expect("close accepted")
                .wait()
                .expect("session healthy");
            let mut provisional = Vec::new();
            while let Some(label) = sub.recv() {
                provisional.push(label);
            }
            (provisional, finals)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// RL4OASD: for random interleavings of `submit` calls, every shard
    /// count and every flush-policy corner, the async front door delivers
    /// per-session subscription streams and final labels byte-identical
    /// to the synchronous `observe_batch` drive of a single StreamEngine.
    #[test]
    fn ingest_matches_sync_observe_batch(seed in 0u64..10_000, n in 2usize..12) {
        let fx = fixture();
        let trajs: Vec<&MappedTrajectory> = fx.trajs.iter().take(n).collect();
        let mut single = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net));
        let expected_finals = interleaved(&mut single, &trajs, seed);
        // The provisional per-event labels of the sync path: observe one
        // session at a time (the engine contract makes the interleaving
        // irrelevant, so this is THE reference stream).
        let expected_stream: Vec<Vec<u8>> = trajs
            .iter()
            .map(|t| {
                let h = single.open(t.sd_pair().unwrap(), t.start_time);
                let labels = t.segments.iter().map(|&s| single.observe(h, s)).collect();
                single.close(h);
                labels
            })
            .collect();

        for shards in SHARD_COUNTS {
            for policy in policies() {
                let engine = IngestEngine::new(
                    Arc::clone(&fx.model),
                    Arc::clone(&fx.net),
                    shards,
                    IngestConfig { flush: policy, ..Default::default() },
                );
                let got = drive_ingest(&engine.handle(), &trajs, seed);
                let report = engine.shutdown();
                for (k, (stream, finals)) in got.iter().enumerate() {
                    prop_assert!(
                        finals == &expected_finals[k],
                        "final labels diverged: session {} shards {} policy {:?}",
                        k, shards, policy
                    );
                    prop_assert!(
                        stream == &expected_stream[k],
                        "subscription stream diverged: session {} shards {} policy {:?}",
                        k, shards, policy
                    );
                }
                let total: u64 = trajs.iter().map(|t| t.len() as u64).sum();
                prop_assert_eq!(report.ingest.flushed_events, total);
                prop_assert_eq!(report.engine.observe_events, total);
                prop_assert_eq!(report.engine.sessions_closed, trajs.len() as u64);
            }
        }
    }
}

/// Graceful shutdown flushes and delivers every event accepted before the
/// door was sealed — here all of them still sit unprocessed in the queues
/// at that moment — and the still-open sessions survive inside the
/// returned engines.
#[test]
fn shutdown_drains_every_accepted_event() {
    let fx = fixture();
    let trajs: Vec<&MappedTrajectory> = fx.trajs.iter().take(6).collect();
    let engine = IngestEngine::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.net),
        2,
        IngestConfig {
            // Room for whatever the sealing probe below gets accepted
            // (at most a queue's worth) on top of the scripted events.
            outbox_capacity: 4096,
            ..Default::default()
        },
    );
    let handle = engine.handle();
    let gate = hold_workers(&handle);
    let opened: Vec<_> = trajs
        .iter()
        .map(|t| handle.open(t.sd_pair().unwrap(), t.start_time).unwrap())
        .collect();
    let mut submitted = 0u64;
    for (k, t) in trajs.iter().enumerate() {
        for &seg in t.segments.iter().take(5) {
            handle.submit(opened[k].0, seg).unwrap();
            submitted += 1;
        }
    }
    let shutdown = std::thread::spawn(move || engine.shutdown());
    // Release the workers only once the door is sealed, so that nothing
    // was flushed before the shutdown began. The probe is a real submit:
    // whatever it gets accepted meanwhile must be drained like the rest.
    loop {
        match handle.submit(opened[0].0, trajs[0].segments[0]) {
            Ok(()) => submitted += 1,
            Err(SubmitError::QueueFull) => {}
            Err(SubmitError::ShutDown) => break,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        std::thread::yield_now();
    }
    gate.store(true, Ordering::SeqCst);
    let report = shutdown.join().unwrap();
    assert_eq!(report.ingest.submitted, submitted);
    assert_eq!(
        report.ingest.flushed_events, submitted,
        "shutdown must flush what was still queued"
    );
    assert_eq!(report.ingest.latency.count(), submitted);
    // Every accepted event's label is deliverable after shutdown returns.
    let mut delivered = 0usize;
    for (_, sub) in &opened {
        let mut labels = Vec::new();
        while let Some(l) = sub.recv() {
            labels.push(l);
        }
        delivered += labels.len();
    }
    assert_eq!(delivered as u64, submitted);
    // Sessions were never closed: their state is intact in the engines.
    assert_eq!(report.engine.sessions_opened, trajs.len() as u64);
    assert_eq!(report.engine.sessions_closed, 0);
    // And the door is now sealed.
    assert_eq!(
        handle.submit(opened[0].0, trajs[0].segments[0]),
        Err(SubmitError::ShutDown)
    );
    assert!(handle.open(trajs[0].sd_pair().unwrap(), 0.0).is_err());
}

/// A deliberately stalled engine: `observe` blocks until the test releases
/// it, so the ingress queue backs up deterministically.
#[derive(Clone)]
struct Gate {
    entered: std::sync::mpsc::Sender<()>,
    release: Arc<std::sync::Mutex<std::sync::mpsc::Receiver<()>>>,
}

struct GatedDetector {
    gate: Gate,
    labels: Vec<u8>,
}

impl OnlineDetector for GatedDetector {
    fn name(&self) -> &'static str {
        "Gated"
    }
    fn begin(&mut self, _sd: SdPair, _start_time: f64) {
        self.labels.clear();
    }
    fn observe(&mut self, _segment: SegmentId) -> u8 {
        self.gate.entered.send(()).expect("test is listening");
        self.gate
            .release
            .lock()
            .unwrap()
            .recv()
            .expect("test releases every event");
        self.labels.push(0);
        0
    }
    fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.labels)
    }
}

/// Backpressure contract: once the worker is stalled inside a flush and
/// the bounded ingress queue is full, `submit` reports `QueueFull` without
/// blocking or dropping; accepted events all survive and get labelled once
/// the stall clears.
#[test]
fn full_queue_reports_queue_full_and_loses_nothing() {
    const CAPACITY: usize = 4;
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel();
    let gate = Gate {
        entered: entered_tx,
        release: Arc::new(std::sync::Mutex::new(release_rx)),
    };
    let door = IngestFrontDoor::build(
        1,
        move |_| {
            let gate = gate.clone();
            SessionMux::named("Gated", move || GatedDetector {
                gate: gate.clone(),
                labels: Vec::new(),
            })
        },
        IngestConfig {
            flush: FlushPolicy::immediate(),
            queue_capacity: CAPACITY,
            ..Default::default()
        },
    );
    let handle = door.handle();
    let (session, sub) = handle
        .open(
            SdPair {
                source: SegmentId(0),
                dest: SegmentId(9),
            },
            0.0,
        )
        .unwrap();

    // First event: the worker picks it up and stalls inside observe_batch,
    // leaving the queue empty.
    handle.submit(session, SegmentId(1)).unwrap();
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker entered the stalled flush");

    // Fill the queue to capacity behind the stalled worker...
    for seg in 0..CAPACITY as u32 {
        assert_eq!(handle.submit(session, SegmentId(seg)), Ok(()));
    }
    // ...and the next submit must be rejected, not blocked or dropped.
    assert_eq!(
        handle.submit(session, SegmentId(99)),
        Err(SubmitError::QueueFull)
    );
    assert_eq!(handle.rejected_events(), 1);
    assert_eq!(handle.accepted_events(), (CAPACITY + 1) as u64);

    // Release the stall: one release per accepted event.
    for _ in 0..CAPACITY + 1 {
        release_tx.send(()).unwrap();
    }
    // The queue may still be draining; close retries through backpressure.
    let ticket = loop {
        match handle.close(session) {
            Ok(ticket) => break ticket,
            Err(SubmitError::QueueFull) => std::thread::yield_now(),
            Err(e) => panic!("close rejected: {e}"),
        }
    };
    let finals = ticket.wait().unwrap();
    assert_eq!(finals.len(), CAPACITY + 1, "every accepted event labelled");
    let mut streamed = Vec::new();
    while let Some(l) = sub.recv() {
        streamed.push(l);
    }
    assert_eq!(streamed.len(), CAPACITY + 1);

    let report = door.shutdown();
    assert_eq!(report.stats.submitted, (CAPACITY + 1) as u64);
    assert_eq!(report.stats.rejected_full, 1);
    assert_eq!(report.stats.flushed_events, (CAPACITY + 1) as u64);
}

/// `close` flushes the session's pending events first: final labels cover
/// every accepted event even when they were all still queued, unflushed,
/// when the close was issued.
#[test]
fn close_flushes_pending_events_first() {
    let fx = fixture();
    let t = &fx.trajs[0];
    let engine = IngestEngine::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.net),
        1,
        IngestConfig {
            flush: FlushPolicy::new(1_000_000),
            ..Default::default()
        },
    );
    let handle = engine.handle();
    let gate = hold_workers(&handle);
    let (session, _sub) = handle.open(t.sd_pair().unwrap(), t.start_time).unwrap();
    for &seg in &t.segments {
        handle.submit(session, seg).unwrap();
    }
    let ticket = handle.close(session).unwrap();
    gate.store(true, Ordering::SeqCst);
    let finals = ticket.wait().unwrap();
    assert_eq!(finals.len(), t.len());
    let report = engine.shutdown();
    assert_eq!(report.ingest.flushes, 1, "the close forced the one flush");
}

/// A backlog becomes one large flush, not many small ones: with the
/// worker held, N events over several sessions pile up in the queue; on
/// release the worker takes all that is queued and commits it as a single
/// `observe_batch` tick — with labels byte-identical to the sync drive.
#[test]
fn backlog_is_committed_as_one_flush() {
    let fx = fixture();
    let per_session = 8usize;
    let trajs: Vec<&MappedTrajectory> = fx
        .trajs
        .iter()
        .filter(|t| t.len() >= per_session)
        .take(5)
        .collect();
    let total = trajs.len() * per_session;
    assert!((2..=FlushPolicy::default().max_batch).contains(&total));
    let mut single = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net));
    let expected: Vec<Vec<u8>> = trajs
        .iter()
        .map(|t| {
            let h = single.open(t.sd_pair().unwrap(), t.start_time);
            let labels = t.segments[..per_session]
                .iter()
                .map(|&s| single.observe(h, s))
                .collect();
            single.close(h);
            labels
        })
        .collect();

    let engine = IngestEngine::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.net),
        1,
        IngestConfig::default(),
    );
    let handle = engine.handle();
    let gate = hold_workers(&handle);
    let opened: Vec<_> = trajs
        .iter()
        .map(|t| handle.open(t.sd_pair().unwrap(), t.start_time).unwrap())
        .collect();
    for step in 0..per_session {
        for (k, t) in trajs.iter().enumerate() {
            handle.submit(opened[k].0, t.segments[step]).unwrap();
        }
    }
    gate.store(true, Ordering::SeqCst);
    let streams: Vec<Vec<u8>> = opened
        .iter()
        .map(|(_, sub)| (0..per_session).map(|_| sub.recv().unwrap()).collect())
        .collect();
    assert_eq!(streams, expected);
    let report = engine.shutdown();
    assert_eq!(report.ingest.flushed_events, total as u64);
    assert_eq!(report.ingest.flushes, 1, "one flush for the whole backlog");
    assert_eq!(report.ingest.max_flush_batch, total);
}
