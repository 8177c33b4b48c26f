//! Fault-tolerance invariants of the supervised serving stack
//! (ARCHITECTURE.md invariant 15).
//!
//! The contract under test: for **any** seeded [`FaultPlan`] replayed at
//! 1, 2 and 8 shards,
//!
//! * sessions untouched by a fault produce final labels **byte-identical**
//!   to the fault-free replay of the same trace;
//! * faulted sessions terminate with an **explicit** [`SessionFault`] —
//!   a close ticket never hangs and never panics the caller;
//! * accounting is exact: every accepted event is flushed, shed or
//!   charged to a quarantined session — nothing vanishes silently;
//! * a restarted shard keeps its engine's control plane: every hot swap
//!   and scoped swap survives, and so do the engine's counters.
//!
//! Run in CI's release job too, so the catch_unwind/restart path is
//! exercised with optimisations on.

mod common;

use proptest::prelude::*;
use rl4oasd_repro::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Trained scenario fixture shared across every test in this file.
struct FaultFixture {
    world: World,
    model: Arc<TrainedModel>,
}

fn fixture() -> &'static FaultFixture {
    static FIXTURE: OnceLock<FaultFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        silence_injected_panic_output();
        let kind = NetworkKind::ChengduGrid;
        let world = World::tiny(kind, 0xFA_0001);
        let model = Arc::new(world.train(&Rl4oasdConfig::tiny(0xFA_0001)));
        FaultFixture { world, model }
    })
}

fn runner(fx: &FaultFixture) -> ScenarioRunner {
    ScenarioRunner::new(Arc::clone(&fx.model), Arc::clone(&fx.world.net))
}

/// A short fault-drill workload: no regimes, enough arrivals that every
/// shard count sees multi-session ticks.
fn drill_trace(fx: &FaultFixture, seed: u64, ticks: u32) -> EventTrace {
    let spec = ScenarioSpec {
        name: "fault_drill".into(),
        network: NetworkKind::ChengduGrid,
        ticks,
        arrivals_per_tick: 0.8,
        regimes: Vec::new(),
    };
    EventTrace::generate(&fx.world, &spec, seed)
}

/// Fault-free reference labels for the same trace through the same
/// ingest shape (shards/flush/queue) under lossless retry.
fn baseline(
    fx: &FaultFixture,
    trace: &EventTrace,
    shards: usize,
    flush: FlushPolicy,
) -> RunOutcome {
    runner(fx).run(
        trace,
        &Driver::Ingest {
            shards,
            flush,
            queue_capacity: 256,
            backpressure: Backpressure::Retry,
        },
    )
}

/// Asserts invariant 15 on one drill: byte-identity for unaffected
/// sessions, explicit faults for the rest, exact accounting.
fn assert_fault_isolation(out: &FaultOutcome, reference: &RunOutcome) {
    assert_eq!(out.labels.len(), reference.labels.len());
    for (id, fault) in out.faults.iter().enumerate() {
        match fault {
            None => assert_eq!(
                out.labels[id], reference.labels[id],
                "unaffected session {id} diverged from the fault-free run"
            ),
            Some(_) => assert!(
                out.labels[id].is_empty(),
                "faulted session {id} must not also deliver final labels"
            ),
        }
    }
    assert_eq!(
        out.labels_lost(),
        out.faulted_sessions().len() as u64,
        "labels_lost out of step with the fault ledger"
    );
    assert!(
        out.accounting_exact(),
        "accounting leak: submitted={} flushed={} shed={} quarantined={}",
        out.ingest.submitted,
        out.ingest.flushed_events,
        out.ingest.shed_events,
        out.ingest.quarantined_events
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Invariant 15, property form: any seeded `FaultPlan` (mixed poison /
    /// panic / stall / slowdown faults) at 1, 2 and 8 shards isolates its
    /// faults exactly. No fault class may leak into another session's
    /// labels, hang a close ticket, or break the event ledger.
    #[test]
    fn seeded_fault_plans_isolate_faults(seed in 0u64..10_000) {
        let fx = fixture();
        let trace = drill_trace(fx, seed ^ 0xD811, 32);
        let plan = FaultPlan::seeded(seed, trace.ticks.len() as u32);
        let flush = FlushPolicy::new(4);
        for shards in [1usize, 2, 8] {
            let reference = baseline(fx, &trace, shards, flush);
            let out = runner(fx).run_supervised(&trace, shards, flush, 256, &plan);
            assert_fault_isolation(&out, &reference);
            // Only the plan's poison victims may lose labels: injected
            // panics land at flush boundaries, so the supervisor must
            // salvage every non-poisoned session.
            prop_assert_eq!(out.labels_lost(), out.poisons_injected);
            for fault in out.faults.iter().flatten() {
                prop_assert_eq!(*fault, SessionFault::PoisonEvent);
            }
            // Panic faults broadcast to every shard; each restarts once.
            let panics = plan
                .faults
                .iter()
                .filter(|f| matches!(f, Fault::WorkerPanic { .. }))
                .count() as u64;
            prop_assert_eq!(out.worker_restarts, panics * shards as u64);
            prop_assert_eq!(out.mttr_ticks.is_some(), panics > 0);
        }
    }
}

/// A worker panic with no poison in flight is a **zero-loss** event: the
/// supervisor rebuilds the shard engine and salvages every session with
/// byte-identical labels, and the drill reports a finite MTTR.
#[test]
fn worker_panic_salvages_every_session_byte_identically() {
    let fx = fixture();
    let trace = drill_trace(fx, 0xC4A5, 40);
    let plan = FaultPlan {
        faults: vec![Fault::WorkerPanic { at_tick: 5 }],
    };
    let flush = FlushPolicy::new(4);
    for shards in [1usize, 2, 8] {
        let reference = baseline(fx, &trace, shards, flush);
        let out = runner(fx).run_supervised(&trace, shards, flush, 256, &plan);
        assert_fault_isolation(&out, &reference);
        assert_eq!(out.labels_lost(), 0, "a flush-boundary panic loses nothing");
        assert_eq!(out.labels, reference.labels);
        assert_eq!(out.worker_restarts, shards as u64);
        assert!(out.mttr_ticks.is_some(), "recovery time must be measured");
    }
}

/// The empty plan through the fault-injection replay is the plain
/// replay: nothing lost, nothing restarted, labels byte-identical.
#[test]
fn fault_free_plan_loses_nothing() {
    let fx = fixture();
    let trace = drill_trace(fx, 0xBA5E, 32);
    let flush = FlushPolicy::new(4);
    for shards in [1usize, 2] {
        let reference = baseline(fx, &trace, shards, flush);
        let out = runner(fx).run_supervised(&trace, shards, flush, 256, &FaultPlan::none());
        assert_fault_isolation(&out, &reference);
        assert_eq!(out.labels_lost(), 0);
        assert_eq!(out.labels, reference.labels);
        assert_eq!(out.worker_restarts, 0);
        assert_eq!(out.mttr_ticks, None);
    }
}

/// Degraded-mode admission engages under a real backlog: a stall behind
/// a capacity-1 queue keeps the lossless producer's retries failing past
/// the degraded watermark (256 consecutive `QueueFull`s; at the retry
/// policy's 2 ms backoff cap that takes ≈ 400 ms of stall), and the
/// drill still loses nothing.
#[test]
fn stall_behind_tiny_queue_enters_degraded_mode_and_loses_nothing() {
    let fx = fixture();
    let trace = drill_trace(fx, 0xDE64, 24);
    let plan = FaultPlan {
        faults: vec![Fault::QueueStall {
            at_tick: 8,
            millis: 600,
        }],
    };
    let flush = FlushPolicy::new(64);
    let reference = baseline(fx, &trace, 2, flush);
    let out = runner(fx).run_supervised(&trace, 2, flush, 1, &plan);
    assert!(
        out.degraded_entered,
        "the capacity-1 stall must cross the degraded watermark"
    );
    assert_fault_isolation(&out, &reference);
    assert_eq!(out.labels_lost(), 0);
    assert_eq!(out.labels, reference.labels);
    assert_eq!(out.worker_restarts, 0);
}

/// Poison events quarantine exactly their victims with
/// [`SessionFault::PoisonEvent`]; every other session is untouched.
#[test]
fn poison_quarantines_only_its_victims() {
    let fx = fixture();
    let trace = drill_trace(fx, 0x9015, 40);
    let plan = FaultPlan {
        faults: vec![Fault::Poison {
            at_tick: 4,
            victims: 2,
        }],
    };
    let flush = FlushPolicy::immediate();
    let reference = baseline(fx, &trace, 2, flush);
    let out = runner(fx).run_supervised(&trace, 2, flush, 256, &plan);
    assert_fault_isolation(&out, &reference);
    assert_eq!(out.poisons_injected, 2);
    assert_eq!(out.labels_lost(), 2);
    assert_eq!(out.faulted_sessions().len(), 2);
    for id in out.faulted_sessions() {
        assert_eq!(out.faults[id as usize], Some(SessionFault::PoisonEvent));
    }
    assert_eq!(out.worker_restarts, 0, "poison must not restart a worker");
    assert!(
        out.ingest.quarantined_events >= 2,
        "poison events are charged"
    );
}

/// Queue stalls and slow shards are pure scheduling faults: with lossless
/// producer backoff the labels still match the fault-free run exactly.
#[test]
fn stalls_and_slowdowns_lose_nothing() {
    let fx = fixture();
    let trace = drill_trace(fx, 0x57A7, 32);
    let plan = FaultPlan {
        faults: vec![
            Fault::QueueStall {
                at_tick: 3,
                millis: 10,
            },
            Fault::SlowShard {
                from_tick: 8,
                every: 4,
                micros: 300,
            },
        ],
    };
    let flush = FlushPolicy::new(4);
    let reference = baseline(fx, &trace, 2, flush);
    // A tiny queue so the stall genuinely backs up the producer.
    let out = runner(fx).run_supervised(&trace, 2, flush, 4, &plan);
    assert_fault_isolation(&out, &reference);
    assert_eq!(out.labels_lost(), 0);
    assert_eq!(out.labels, reference.labels);
    assert_eq!(out.worker_restarts, 0);
}

/// The deadline policy bounds producer latency end-to-end: while a shard
/// worker is stalled and its capacity-1 queue is full, `submit_with_deadline`
/// returns [`SubmitError::DeadlineExceeded`] instead of blocking, and the
/// give-up is counted.
#[test]
fn deadline_bounds_submit_latency_under_stall() {
    use std::time::Instant;
    let fx = fixture();
    let engine = rl4oasd::IngestEngine::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.world.net),
        1,
        IngestConfig {
            flush: FlushPolicy::immediate(),
            queue_capacity: 1,
            ..Default::default()
        },
    );
    let handle = engine.handle();
    let trace = drill_trace(fx, 0xDEAD, 8);
    let &(_, sd, t0) = trace
        .ticks
        .iter()
        .find_map(|t| t.opens.first())
        .expect("trace opens at least one session");
    let (session, _sub) = handle.open(sd, t0).expect("open accepted");
    let segment = fx.world.net.segments()[0].id;
    // Stall the worker long enough to wedge the capacity-1 queue, then
    // demand a deadline that must expire while it sleeps.
    handle
        .control(|_: &mut StreamEngine| std::thread::sleep(Duration::from_millis(150)))
        .expect("stall accepted");
    let mut expired = 0u64;
    for _ in 0..64 {
        match handle.submit_with_deadline(session, segment, Instant::now()) {
            Err(SubmitError::DeadlineExceeded) => expired += 1,
            Ok(()) | Err(SubmitError::QueueFull) => {}
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    assert!(
        expired > 0,
        "a wedged queue must expire at least one deadline"
    );
    assert_eq!(handle.deadline_exceeded_events(), expired);
    let report = engine.shutdown();
    assert_eq!(report.ingest.deadline_exceeded, expired);
}

/// Handle-edge faults return errors instead of wedging a worker: closing
/// twice, submitting after close, and racing shutdown against an
/// in-flight close all resolve explicitly (integration-level mirror of
/// the unit tests in `traj::ingest`).
#[test]
fn handle_edge_faults_resolve_explicitly() {
    let fx = fixture();
    let engine = rl4oasd::IngestEngine::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.world.net),
        2,
        IngestConfig::default(),
    );
    let handle = engine.handle();
    let trace = drill_trace(fx, 0xE55E, 8);
    let &(_, sd, t0) = trace
        .ticks
        .iter()
        .find_map(|t| t.opens.first())
        .expect("trace opens at least one session");
    let segment = fx.world.net.segments()[0].id;

    let (session, _sub) = handle.open(sd, t0).expect("open accepted");
    handle
        .submit_blocking(session, segment)
        .expect("submit accepted");
    let first = handle.close(session).expect("first close accepted");
    assert_eq!(first.wait().expect("healthy session").len(), 1);
    // Double close: an explicit fault on the ticket, not a worker panic.
    assert_eq!(
        handle.close(session).expect("command accepted").wait(),
        Err(SessionFault::UnknownSession)
    );
    // A stray submit for the closed session is accepted, then shed.
    handle
        .submit_blocking(session, segment)
        .expect("stray submit accepted");
    let report = engine.shutdown();
    assert_eq!(report.ingest.submitted, 2);
    assert_eq!(report.ingest.flushed_events, 1);
    assert_eq!(report.ingest.shed_events, 1);
}

/// The swap drill's models and trips: v1 serves from construction, v2 is
/// swapped in for every scope, v3 for scope 7 only; one trip per model.
struct SwapDrill {
    models: [Arc<TrainedModel>; 3],
    trips: Vec<MappedTrajectory>,
}

fn swap_drill() -> &'static SwapDrill {
    static DRILL: OnceLock<SwapDrill> = OnceLock::new();
    DRILL.get_or_init(|| {
        let fx = fixture();
        let train = |seed| Arc::new(fx.world.train(&Rl4oasdConfig::tiny(seed)));
        let data = TrafficSimulator::new(&fx.world.net, fx.world.traffic.clone()).generate();
        let trips = Dataset::from_generated(&data)
            .trajectories
            .into_iter()
            .filter(|t| t.len() >= 4)
            .take(3)
            .collect();
        SwapDrill {
            models: [Arc::clone(&fx.model), train(0xFA_0002), train(0xFA_0003)],
            trips,
        }
    })
}

/// What one run of the swap drill saw: final labels per trip, each
/// shard's `(serves v2, scope 7's epoch seq)` read by a control at the
/// end, and the engine's report.
struct SwapDrillRun {
    labels: Vec<Vec<u8>>,
    seen: Vec<(bool, u32)>,
    report: IngestReport,
}

/// Opens trip 0 on v1, swaps in v2 and opens trip 1, swaps v3 into
/// scope 7 and opens trip 2 there (the two swaps in the other order with
/// `scoped_first`), feeding each trip half-way as it opens; then feeds
/// the rest and closes all three. A panic is injected through `control`
/// before step `panic_at` of those seven.
fn run_swap_drill(shards: usize, scoped_first: bool, panic_at: Option<usize>) -> SwapDrillRun {
    let drill = swap_drill();
    let [v1, v2, v3] = &drill.models;
    let engine = IngestEngine::new(
        Arc::clone(v1),
        Arc::clone(&fixture().world.net),
        shards,
        IngestConfig::default(),
    );
    let handle = engine.handle();
    let half = |t: &MappedTrajectory| t.len() / 2;
    let feed = |session, segments: &[SegmentId]| {
        for &segment in segments {
            handle
                .submit_blocking(session, segment)
                .expect("submit accepted");
        }
    };
    let open = |k: usize| {
        let t = &drill.trips[k];
        let scope = if k == 2 { 7 } else { 0 };
        let (session, sub) = handle
            .open_scoped(scope, t.sd_pair().unwrap(), t.start_time, Priority::High)
            .expect("open accepted");
        feed(session, &t.segments[..half(t)]);
        (k, session, sub)
    };
    let swap = |k: usize| {
        if k == 1 {
            handle.swap_model(Arc::clone(v2))
        } else {
            handle.swap_scope_model(7, Arc::clone(v3))
        }
        .expect("swap accepted")
    };
    let (first, second) = if scoped_first { (2, 1) } else { (1, 2) };
    let mut sessions = Vec::new();
    for step in 0..7 {
        if panic_at == Some(step) {
            handle
                .control(|_: &mut StreamEngine| {
                    panic!("{FAULT_INJECTION_MARKER}: injected worker panic")
                })
                .expect("panic injection accepted");
        }
        match step {
            0 => sessions.push(open(0)),
            1 => swap(first),
            2 => sessions.push(open(first)),
            3 => swap(second),
            4 => sessions.push(open(second)),
            5 => {
                for (k, session, _) in &sessions {
                    let t = &drill.trips[*k];
                    feed(*session, &t.segments[half(t)..]);
                }
            }
            _ => {}
        }
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let probe = Arc::clone(v2);
    handle
        .control(move |engine: &mut StreamEngine| {
            let seen = (
                Arc::ptr_eq(engine.model(), &probe),
                engine.scope_epoch_seq(7),
            );
            tx.send(seen).expect("drill is listening");
        })
        .expect("probe accepted");
    let seen = rx.iter().take(shards).collect();
    sessions.sort_by_key(|&(k, _, _)| k);
    let labels = sessions
        .iter()
        .map(|&(_, session, _)| {
            let ticket = handle.close(session).expect("close accepted");
            ticket.wait().expect("every drill session is salvaged")
        })
        .collect();
    SwapDrillRun {
        labels,
        seen,
        report: engine.shutdown(),
    }
}

/// Invariant 15 for swaps: wherever a worker panic lands in a swap
/// schedule, the restarted shards still serve v2 and scope 7's v3, every
/// trip's labels equal the panic-free run's, and the report conserves
/// the engine's counters across the restart.
fn assert_swaps_survive_restart(shards: usize, scoped_first: bool, panic_at: usize) {
    let clean = run_swap_drill(shards, scoped_first, None);
    let run = run_swap_drill(shards, scoped_first, Some(panic_at));
    let case =
        format!("shards {shards}, scoped_first {scoped_first}, panic before step {panic_at}");
    assert_eq!(run.labels, clean.labels, "{case}: labels changed");
    let scope_seq = if scoped_first { 1 } else { 2 };
    for &(serves_v2, seq) in &run.seen {
        assert!(serves_v2, "{case}: a restarted shard rolled back to v1");
        assert_eq!(seq, scope_seq, "{case}: scope 7 lost its model");
    }
    let report = &run.report;
    assert_eq!(report.ingest.worker_restarts, shards as u64, "{case}");
    assert_eq!(report.ingest.quarantined_sessions, 0, "{case}");
    assert_eq!(report.engine.sessions_opened, 3, "{case}");
    assert_eq!(report.engine.model_swaps, 2 * shards as u64, "{case}");
    assert_eq!(report.epoch_stats.len(), 3, "{case}");
    assert_eq!(
        report.engine.observe_events, report.ingest.flushed_events,
        "{case}: observe counts lost in the restart"
    );
    assert_eq!(
        report.engine.frozen_footprint_bytes, clean.report.engine.frozen_footprint_bytes,
        "{case}: the restart left a cold-tier arena behind"
    );
    assert_eq!(report.engine, clean.report.engine, "{case}");
}

/// ROADMAP 28's drill: one shard, v2 swapped in and v3 scoped to 7, one
/// half-fed trip on each, then a worker panic at the flush boundary.
#[test]
fn a_restarted_shard_keeps_its_swaps_and_counters() {
    assert_swaps_survive_restart(1, false, 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same drill at 1, 2 and 8 shards, with the two swaps in either
    /// order and the panic anywhere in the schedule.
    #[test]
    fn swaps_survive_a_restart_anywhere_in_the_schedule(
        shard_ix in 0usize..3,
        scoped_first in 0u8..2,
        panic_at in 0usize..7,
    ) {
        assert_swaps_survive_restart([1, 2, 8][shard_ix], scoped_first == 1, panic_at);
    }
}
