//! Drives one [`EventTrace`] through a serving engine and scores the
//! result.
//!
//! The same trace can be replayed through the synchronous sharded path
//! or the async ingest front door; because `SessionEngine` guarantees
//! interleaving never changes labels, both drivers (at any shard count
//! and flush policy) must emit byte-identical final labels — the
//! cross-driver half of the replay-determinism property in
//! `tests/scenarios.rs`.

use crate::faults::{Fault, FaultPlan, POISON_SEGMENT};
use crate::trace::EventTrace;
use eval::{evaluate, Confusion, DetectionMetrics};
use obs::{names, Obs, OpsEvent, Snapshot};
use rl4oasd::{IngestEngine, ShardedEngine, StreamEngine, TrainedModel};
use rnet::RoadNetwork;
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj::{
    FlushPolicy, IngestConfig, IngestStats, LatencyHistogram, RetryPolicy, SessionEngine,
    SessionFault, SessionId, SubmitError, Subscription,
};

/// Jitter seed for the runner's producer-side backoff policy. Backoff
/// timing never reaches the engines, so labels are independent of it;
/// fixing the seed just makes replays' retry schedules reproducible too.
const BACKOFF_SEED: u64 = 0x0A5D_BAC0FF;

/// What to do when the ingest door reports [`SubmitError::QueueFull`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Spin (yielding) until the queue drains — no event is ever lost, so
    /// the outcome is comparable to the sync driver.
    Retry,
    /// Shed the event: count it as rejected and drop its ground-truth
    /// label too, so scoring stays aligned with what the engine saw.
    Shed,
}

/// Which serving path replays the trace.
#[derive(Debug, Clone)]
pub enum Driver {
    /// The synchronous [`ShardedEngine`]: one `observe_batch` per tick.
    /// Latency samples are per-tick batch walltimes.
    Sync {
        /// Shard count.
        shards: usize,
    },
    /// The async `IngestFrontDoor`: every point goes through `submit`,
    /// micro-batched under the flush policy. Latency samples are the
    /// door's own submit→label histogram.
    Ingest {
        /// Shard count.
        shards: usize,
        /// Micro-batching policy under test.
        flush: FlushPolicy,
        /// Per-shard ingress queue capacity.
        queue_capacity: usize,
        /// Reaction to a full ingress queue.
        backpressure: Backpressure,
    },
    /// The full network path: an `oasd-serve` loopback server wrapping
    /// the same ingest front door, driven by one wire-protocol client
    /// connection. Lossless by construction (the server retries
    /// `QueueFull` under an unbounded policy), so the final labels must
    /// be byte-identical to both in-process drivers — invariant 16,
    /// property-tested in `tests/serve.rs`. Latency samples are the
    /// door's submit→label histogram (transport excluded; the wire
    /// round-trip is measured by the serve load generator instead).
    Net {
        /// Shard count behind the server.
        shards: usize,
        /// Micro-batching policy of the server's front door.
        flush: FlushPolicy,
        /// Per-shard ingress queue capacity.
        queue_capacity: usize,
    },
}

/// Labels, aligned ground truth and operational counters of one replay.
pub struct RunOutcome {
    /// Final labels per scenario session (empty for zero-length sessions).
    pub labels: Vec<Vec<u8>>,
    /// Ground truth aligned with `labels`; under [`Backpressure::Shed`]
    /// the labels of rejected events are removed here too.
    pub truth: Vec<Vec<u8>>,
    /// Sessions replayed.
    pub sessions: usize,
    /// Events delivered to the engine.
    pub events: u64,
    /// Events shed on `QueueFull` (always 0 for sync / retry runs).
    pub rejected: u64,
    /// Latency histogram (see [`Driver`] for what a sample means).
    pub latency: LatencyHistogram,
    /// Telemetry snapshot taken at the end of the replay. Empty unless
    /// the runner was built with [`ScenarioRunner::with_obs`].
    pub obs: Snapshot,
}

impl RunOutcome {
    /// Segment-level confusion over every (label, truth) pair.
    pub fn confusion(&self) -> Confusion {
        Confusion::of_corpus(&self.labels, &self.truth)
    }

    /// Span-level metrics (the paper's F1/TF1 protocol).
    pub fn span_metrics(&self) -> DetectionMetrics {
        evaluate(&self.labels, &self.truth)
    }
}

/// Outcome of a fault-injection replay ([`ScenarioRunner::run_supervised`]).
///
/// Sessions that terminated with an explicit [`SessionFault`] have empty
/// `labels`/`truth` rows and their fault recorded in `faults`; every
/// other row is scored exactly like a [`RunOutcome`].
pub struct FaultOutcome {
    /// Final labels per scenario session (empty for faulted sessions).
    pub labels: Vec<Vec<u8>>,
    /// Ground truth aligned with `labels` (cleared for faulted sessions).
    pub truth: Vec<Vec<u8>>,
    /// Terminal fault per session; `None` for sessions that closed clean.
    pub faults: Vec<Option<SessionFault>>,
    /// Sessions replayed.
    pub sessions: usize,
    /// Events accepted by `submit` (poison events included).
    pub delivered: u64,
    /// Poison events injected by the plan.
    pub poisons_injected: u64,
    /// Supervised worker restarts observed over the whole replay.
    pub worker_restarts: u64,
    /// Mean-time-to-recover proxy: the largest number of scenario ticks
    /// between injecting a [`Fault::WorkerPanic`] and observing every
    /// shard's restart counter tick over. `None` when the plan injected
    /// no panic (or the replay ended first — shutdown still drains).
    pub mttr_ticks: Option<u64>,
    /// Whether any shard entered degraded-mode admission control at any
    /// polled tick boundary.
    pub degraded_entered: bool,
    /// Final front-door counters (shed/quarantine accounting included).
    pub ingest: IngestStats,
    /// Telemetry snapshot taken after shutdown. Empty unless the runner
    /// was built with [`ScenarioRunner::with_obs`].
    pub obs: Snapshot,
}

impl FaultOutcome {
    /// Scenario session ids that terminated with a fault.
    pub fn faulted_sessions(&self) -> Vec<u32> {
        self.faults
            .iter()
            .enumerate()
            .filter_map(|(id, f)| f.map(|_| id as u32))
            .collect()
    }

    /// Sessions whose final labels were lost to a fault (the recovery
    /// metric: a clean drill loses only the sessions the plan poisoned).
    pub fn labels_lost(&self) -> u64 {
        self.faults.iter().filter(|f| f.is_some()).count() as u64
    }

    /// The exact-accounting invariant: every accepted event was either
    /// flushed into a shard engine, shed as a stray, or charged to a
    /// quarantined session — nothing vanished.
    pub fn accounting_exact(&self) -> bool {
        self.ingest.submitted
            == self.ingest.flushed_events + self.ingest.shed_events + self.ingest.quarantined_events
    }

    /// Segment-level confusion over the surviving sessions.
    pub fn confusion(&self) -> Confusion {
        Confusion::of_corpus(&self.labels, &self.truth)
    }
}

/// Replays event traces through serving engines built from one model.
pub struct ScenarioRunner {
    model: Arc<TrainedModel>,
    net: Arc<RoadNetwork>,
    obs: Obs,
}

impl ScenarioRunner {
    /// A runner serving `model` over `net` (the world's network).
    pub fn new(model: Arc<TrainedModel>, net: Arc<RoadNetwork>) -> Self {
        ScenarioRunner {
            model,
            net,
            obs: Obs::disabled(),
        }
    }

    /// Wires telemetry through every replay: the engines built by
    /// [`ScenarioRunner::run`] record under `obs`, replays count
    /// delivered/shed events (`oasd_scenario_*`, labelled
    /// `regime="sync"|"ingest"` by driver), and each [`RunOutcome`]
    /// carries a final [`Snapshot`]. Labels are unchanged either way
    /// (the replay-determinism property holds with telemetry on).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Replays `trace` through the chosen driver.
    pub fn run(&self, trace: &EventTrace, driver: &Driver) -> RunOutcome {
        match *driver {
            Driver::Sync { shards } => self.run_sync(trace, shards),
            Driver::Ingest {
                shards,
                flush,
                queue_capacity,
                backpressure,
            } => self.run_ingest(trace, shards, flush, queue_capacity, backpressure),
            Driver::Net {
                shards,
                flush,
                queue_capacity,
            } => self.run_net(trace, shards, flush, queue_capacity),
        }
    }

    fn run_sync(&self, trace: &EventTrace, shards: usize) -> RunOutcome {
        let mut engine = ShardedEngine::new(Arc::clone(&self.model), Arc::clone(&self.net), shards)
            .with_obs(&self.obs);
        let n = trace.sessions as usize;
        let mut handles: Vec<Option<SessionId>> = (0..n).map(|_| None).collect();
        let mut labels: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut latency = LatencyHistogram::new();
        let mut events: Vec<(SessionId, rnet::SegmentId)> = Vec::new();
        let mut out = Vec::new();
        for tick in &trace.ticks {
            for &(id, sd, t0) in &tick.opens {
                handles[id as usize] = Some(engine.open(sd, t0));
            }
            if !tick.points.is_empty() {
                events.clear();
                events.extend(tick.points.iter().map(|&(id, seg)| {
                    (
                        handles[id as usize].expect("point for unopened session"),
                        seg,
                    )
                }));
                let t = Instant::now();
                engine.observe_batch(&events, &mut out);
                latency.record(t.elapsed());
                debug_assert_eq!(out.len(), events.len());
            }
            for &id in &tick.closes {
                let h = handles[id as usize].take().expect("double close");
                labels[id as usize] = engine.close(h);
            }
        }
        self.obs
            .counter(names::SCENARIO_EVENTS, &[("regime", "sync")])
            .add(trace.events);
        if self.obs.enabled() {
            // stats() runs the full gauge mirror, so the snapshot shows
            // the end-of-replay fleet state, not the last flush's.
            let _ = engine.stats();
        }
        RunOutcome {
            labels,
            truth: trace.truth.clone(),
            sessions: n,
            events: trace.events,
            rejected: 0,
            latency,
            obs: self.obs.snapshot(),
        }
    }

    fn run_ingest(
        &self,
        trace: &EventTrace,
        shards: usize,
        flush: FlushPolicy,
        queue_capacity: usize,
        backpressure: Backpressure,
    ) -> RunOutcome {
        let engine = IngestEngine::new(
            Arc::clone(&self.model),
            Arc::clone(&self.net),
            shards,
            IngestConfig {
                flush,
                queue_capacity,
                obs: self.obs.clone(),
                ..Default::default()
            },
        );
        let handle = engine.handle();
        // Bounded exponential backoff with unlimited retries: no event is
        // ever lost under `Backpressure::Retry`, but a congested queue is
        // polled with doubling sleeps instead of a hot spin.
        let retry = RetryPolicy::unbounded(BACKOFF_SEED);
        let n = trace.sessions as usize;
        let mut open: Vec<Option<(SessionId, Subscription)>> = (0..n).map(|_| None).collect();
        let mut labels: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut truth: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut pos = vec![0usize; n];
        let mut delivered = 0u64;
        let mut rejected = 0u64;
        for tick in &trace.ticks {
            for &(id, sd, t0) in &tick.opens {
                // Opens and closes are control commands: they ride the same
                // bounded ingress queue as data points, but shedding one
                // would corrupt the session ledger — so both backpressure
                // modes retry them until the queue drains.
                let opened = retry
                    .run(u64::from(id), || handle.open(sd, t0))
                    .unwrap_or_else(|e| panic!("open rejected: {e:?}"));
                open[id as usize] = Some(opened);
            }
            for &(id, seg) in &tick.points {
                let k = id as usize;
                let session = open[k].as_ref().expect("point for unopened session").0;
                let t = trace.truth[k][pos[k]];
                pos[k] += 1;
                match backpressure {
                    Backpressure::Retry => {
                        retry
                            .run(u64::from(id), || handle.submit(session, seg))
                            .unwrap_or_else(|e| panic!("unexpected submit error: {e:?}"));
                        truth[k].push(t);
                        delivered += 1;
                    }
                    Backpressure::Shed => match handle.submit(session, seg) {
                        Ok(()) => {
                            truth[k].push(t);
                            delivered += 1;
                        }
                        Err(SubmitError::QueueFull) => rejected += 1,
                        Err(e) => panic!("unexpected submit error: {e:?}"),
                    },
                }
            }
            for &id in &tick.closes {
                let (session, sub) = open[id as usize].take().expect("double close");
                let ticket = retry
                    .run(u64::from(id), || handle.close(session))
                    .unwrap_or_else(|e| panic!("close rejected: {e:?}"));
                labels[id as usize] = ticket
                    .wait()
                    .expect("a replay without injected faults never faults a session");
                drop(sub);
            }
        }
        self.obs
            .counter(names::SCENARIO_EVENTS, &[("regime", "ingest")])
            .add(delivered);
        self.obs
            .counter(names::SCENARIO_SHED, &[("regime", "ingest")])
            .add(rejected);
        if rejected > 0 {
            self.obs
                .event(OpsEvent::BackpressureShed { shed: rejected });
        }
        // Counters land before shutdown's final snapshot picks them up.
        let report = engine.shutdown();
        RunOutcome {
            labels,
            truth,
            sessions: n,
            events: delivered,
            rejected,
            latency: report.ingest.latency,
            obs: report.obs,
        }
    }

    fn run_net(
        &self,
        trace: &EventTrace,
        shards: usize,
        flush: FlushPolicy,
        queue_capacity: usize,
    ) -> RunOutcome {
        use serve::{Client, Frame, Server, ServerConfig};
        let server = Server::start(
            Arc::clone(&self.model),
            Arc::clone(&self.net),
            ServerConfig {
                shards,
                ingest: IngestConfig {
                    flush,
                    queue_capacity,
                    obs: self.obs.clone(),
                    ..Default::default()
                },
                // Open admission (tenant 0) + unbounded server-side
                // retry: the wire path sheds nothing, like
                // `Backpressure::Retry`.
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback serve listeners");
        let mut client = Client::connect(server.wire_addr()).expect("connect loopback server");
        let n = trace.sessions as usize;
        let mut labels: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut delivered = 0u64;
        // The wire session id IS the scenario session id, so `Closed`
        // frames route straight back to their rows.
        let absorb = |labels: &mut Vec<Vec<u8>>, frame: Frame| match frame {
            Frame::Opened { .. } | Frame::Label { .. } => {}
            Frame::Closed {
                session,
                labels: finals,
            } => {
                labels[session as usize] = finals;
            }
            Frame::Rejected { session, error } => {
                panic!("session {session} rejected over the wire: {error}")
            }
            Frame::Fault { session, fault } => {
                panic!("session {session} faulted over the wire (code {fault})")
            }
            other => panic!("unexpected frame from server: {other:?}"),
        };
        // FIFO per connection means opens/points/closes need no
        // acknowledgement round-trips — pipeline everything, draining
        // responses often enough that neither the connection's label
        // sink nor the client-side socket buffer backs up.
        let mut since_drain = 0u32;
        for tick in &trace.ticks {
            for &(id, sd, t0) in &tick.opens {
                client
                    .send(&Frame::Open {
                        session: u64::from(id),
                        tenant: 0,
                        source: sd.source.0,
                        dest: sd.dest.0,
                        start_time: t0,
                        priority: 0,
                    })
                    .expect("send open");
            }
            for &(id, seg) in &tick.points {
                client
                    .send(&Frame::Submit {
                        session: u64::from(id),
                        segment: seg.0,
                    })
                    .expect("send submit");
                delivered += 1;
                since_drain += 1;
                if since_drain >= 64 {
                    since_drain = 0;
                    while let Some(frame) = client.try_recv().expect("drain during replay") {
                        absorb(&mut labels, frame);
                    }
                }
            }
            for &id in &tick.closes {
                client
                    .send(&Frame::Close {
                        session: u64::from(id),
                    })
                    .expect("send close");
            }
        }
        for frame in client.goodbye().expect("goodbye") {
            absorb(&mut labels, frame);
        }
        self.obs
            .counter(names::SCENARIO_EVENTS, &[("regime", "net")])
            .add(delivered);
        let report = server.shutdown();
        RunOutcome {
            labels,
            truth: trace.truth.clone(),
            sessions: n,
            events: delivered,
            rejected: 0,
            latency: report.ingest.latency,
            obs: report.obs,
        }
    }

    /// Replays `trace` through the (always supervised) ingest shards while
    /// injecting `plan`'s faults, and reports recovery metrics next to
    /// the usual labels.
    ///
    /// Poison faults ride the data path (an out-of-range segment id for
    /// the victim session); panics and stalls ride the control path as
    /// injected closures applied at flush boundaries. Every open, data
    /// point and close is delivered under an unbounded bounded-backoff
    /// retry, so the only sessions that lose labels are the ones the
    /// supervisor explicitly quarantined — the fault-isolation invariant
    /// checked in `tests/faults.rs`.
    pub fn run_supervised(
        &self,
        trace: &EventTrace,
        shards: usize,
        flush: FlushPolicy,
        queue_capacity: usize,
        plan: &FaultPlan,
    ) -> FaultOutcome {
        traj::silence_injected_panic_output();
        let engine = IngestEngine::new(
            Arc::clone(&self.model),
            Arc::clone(&self.net),
            shards,
            IngestConfig {
                flush,
                queue_capacity,
                obs: self.obs.clone(),
                ..Default::default()
            },
        );
        let handle = engine.handle();
        let retry = RetryPolicy::unbounded(BACKOFF_SEED);
        let n = trace.sessions as usize;
        let mut open: Vec<Option<(SessionId, Subscription)>> = (0..n).map(|_| None).collect();
        let mut labels: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut truth: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut faults: Vec<Option<SessionFault>> = vec![None; n];
        let mut poisoned = vec![false; n];
        let mut pos = vec![0usize; n];
        let mut delivered = 0u64;
        let mut poisons_injected = 0u64;
        let mut poison_budget = 0u32;
        let mut degraded_entered = false;
        // `(injection tick, restart-counter target)` of the most recent
        // panic injection still awaiting full recovery.
        let mut pending_recovery: Option<(u64, u64)> = None;
        let mut mttr_ticks: Option<u64> = None;
        for (t, tick) in trace.ticks.iter().enumerate() {
            let t = t as u32;
            for fault in &plan.faults {
                match *fault {
                    Fault::Poison { at_tick, victims } if at_tick == t => {
                        poison_budget += victims;
                    }
                    Fault::WorkerPanic { at_tick } if at_tick == t => {
                        let target = handle.worker_restarts() + shards as u64;
                        retry
                            .run(u64::from(t), || {
                                handle.control(|_: &mut StreamEngine| {
                                    panic!(
                                        "{}: injected worker panic",
                                        traj::FAULT_INJECTION_MARKER
                                    )
                                })
                            })
                            .expect("panic injection accepted");
                        // Overlapping panics extend the pending window to
                        // the new target but keep the first injection tick
                        // (MTTR measures the whole outage).
                        pending_recovery =
                            Some((pending_recovery.map_or(u64::from(t), |(t0, _)| t0), target));
                    }
                    Fault::QueueStall { at_tick, millis } if at_tick == t => {
                        retry
                            .run(u64::from(t), || {
                                handle.control(move |_: &mut StreamEngine| {
                                    std::thread::sleep(Duration::from_millis(millis));
                                })
                            })
                            .expect("stall injection accepted");
                    }
                    Fault::SlowShard {
                        from_tick,
                        every,
                        micros,
                    } if t >= from_tick && (t - from_tick).is_multiple_of(every.max(1)) => {
                        retry
                            .run(u64::from(t), || {
                                handle.control(move |_: &mut StreamEngine| {
                                    std::thread::sleep(Duration::from_micros(micros));
                                })
                            })
                            .expect("slowdown injection accepted");
                    }
                    _ => {}
                }
            }
            for &(id, sd, t0) in &tick.opens {
                let opened = retry
                    .run(u64::from(id), || handle.open(sd, t0))
                    .unwrap_or_else(|e| panic!("open rejected: {e:?}"));
                open[id as usize] = Some(opened);
            }
            for &(id, seg) in &tick.points {
                let k = id as usize;
                let session = open[k].as_ref().expect("point for unopened session").0;
                let truth_label = trace.truth[k][pos[k]];
                pos[k] += 1;
                let seg = if poison_budget > 0 && !poisoned[k] {
                    poison_budget -= 1;
                    poisons_injected += 1;
                    poisoned[k] = true;
                    POISON_SEGMENT
                } else {
                    seg
                };
                retry
                    .run(u64::from(id), || {
                        let r = handle.submit(session, seg);
                        // Sample degraded-mode entry while the rejection
                        // streak is hot — a per-tick probe would miss it
                        // once the backlog drains and the shard recovers.
                        if r.is_err() {
                            degraded_entered |= handle.any_degraded();
                        }
                        r
                    })
                    .unwrap_or_else(|e| panic!("unexpected submit error: {e:?}"));
                delivered += 1;
                if !poisoned[k] {
                    truth[k].push(truth_label);
                }
            }
            for &id in &tick.closes {
                let (session, sub) = open[id as usize].take().expect("double close");
                let ticket = retry
                    .run(u64::from(id), || handle.close(session))
                    .unwrap_or_else(|e| panic!("close rejected: {e:?}"));
                match ticket.wait() {
                    Ok(finals) => labels[id as usize] = finals,
                    Err(fault) => {
                        faults[id as usize] = Some(fault);
                        truth[id as usize].clear();
                    }
                }
                drop(sub);
            }
            degraded_entered |= handle.any_degraded();
            if let Some((t0, target)) = pending_recovery {
                if handle.worker_restarts() >= target {
                    let span = u64::from(t) - t0;
                    mttr_ticks = Some(mttr_ticks.map_or(span, |m| m.max(span)));
                    pending_recovery = None;
                }
            }
        }
        if let Some((t0, target)) = pending_recovery {
            // The panic command is already queued, so the restart is
            // guaranteed; wait it out and charge the remaining trace as
            // the outage so the drill always reports an MTTR.
            while handle.worker_restarts() < target {
                std::thread::yield_now();
            }
            let span = (trace.ticks.len() as u64).saturating_sub(t0);
            mttr_ticks = Some(mttr_ticks.map_or(span, |m| m.max(span)));
        }
        let report = engine.shutdown();
        FaultOutcome {
            labels,
            truth,
            faults,
            sessions: n,
            delivered,
            poisons_injected,
            worker_restarts: report.ingest.worker_restarts,
            mttr_ticks,
            degraded_entered,
            ingest: report.ingest,
            obs: report.obs,
        }
    }
}
