//! The two over-the-wire workloads against a loopback `oasd-serve`:
//! `wire_steady` (open loop, Poisson arrivals, clean-window latency) and
//! `wire_saturate` (closed loop, a fixed number of points in flight) —
//! and, in a traced run, the same schedules driven in-process through the
//! ingest door, so that the wire's share of a label's wait can be told
//! from the door's.

use crate::closed_loop::ClosedLoop;
use crate::engine::{cohort_members, Limit, Tally, COHORT_POINTS};
use crate::inputs::{Checker, Fixture, Inputs, Op, Session};
use crate::open_loop::{self, OpenLoopClock, WireSteadyRun};
use crate::run::{Outcome, Scale};
use crate::spans::{SpanLog, NO_PARENT};
use crate::transport::{DoorConn, Event, Plan, Transport, WireConn, TRANSPORT_SPAN_CAP};
use crate::windows::WINDOW_NS;
use crate::{alloc, host, schedule, stats, Args};
use rl4oasd::{IngestEngine, IngestReport, StreamEngine};
use serve::{Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj::{IngestConfig, SessionEngine, SessionId};

/// Offered load of `wire_steady`, points per second. About 2 % of what
/// the stack sustains, so queues are empty and latency is the idle floor.
pub const STEADY_RATE: f64 = 2000.0;

/// Points `wire_saturate` keeps in flight.
const IN_FLIGHT: usize = 256;

/// Trace length that outlasts a `wire_steady` run (≈ 50 points per tick
/// once ~50 sessions are open, fewer while they ramp up).
pub fn steady_ticks(seconds: f64, smoke: bool) -> u32 {
    let (warm, ext) = open_loop::margins(smoke);
    let points = STEADY_RATE * (warm + seconds + ext) * 1.1;
    (points / 45.0) as u32 + 60
}

/// `oasd-serve` on loopback: one shard, everything else the crate's
/// defaults (64-event / 1 ms flush, telemetry off).
fn start_server(fx: &Fixture) -> Server {
    Server::start(
        Arc::clone(&fx.model),
        Arc::clone(&fx.world.net),
        ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback listeners")
}

pub struct WireSystem {
    server: Server,
    plan: Plan,
}

impl WireSystem {
    /// Starts the server and sends the head of the plan through one
    /// throw-away connection.
    pub fn build(fx: &Fixture, inputs: &Inputs, warm_points: u64) -> WireSystem {
        let server = start_server(fx);
        let plan = Plan::new(inputs.script(), inputs.sessions.len());
        let mut conn = WireConn::connect(server.wire_addr(), inputs.sessions.len(), None);
        let mut client = ClosedLoop::new(&plan, inputs.sessions.len(), 64);
        let limit = Limit {
            deadline: None,
            max_points: warm_points,
        };
        client.pass(
            &mut conn,
            &inputs.sessions,
            &plan,
            limit,
            &mut Tally::default(),
            None,
            None,
        );
        conn.goodbye(&mut Vec::new());
        WireSystem { server, plan }
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Events the door's own ledger says never reached an engine.
fn accounting_gap(report: &IngestReport) -> u64 {
    let s = &report.ingest;
    let accounted = s.flushed_events + s.shed_events + s.quarantined_events;
    s.submitted.abs_diff(accounted) + s.shed_events + s.quarantined_events
}

/// Per-thread CPU and wake-ups between two usage readings, per point.
fn thread_readings(usage: &(host::ThreadUsage, host::ThreadUsage), points: u64, out: &mut Outcome) {
    let (before, after) = usage;
    let points = points.max(1) as f64;
    let cpu_us = |prefix: &str| after.delta(before, prefix).0 as f64 * host::TICK_US / points;
    let rows = [
        ("serve.conn_cpu_us_per_point", cpu_us("serve-conn")),
        ("serve.pump_cpu_us_per_point", cpu_us("serve-pump")),
        ("door.worker_cpu_us_per_point", cpu_us("ingest-shard")),
        ("load.client_cpu_us_per_point", cpu_us("load-")),
    ];
    out.readings
        .set("proc.cpu_us_per_point", rows.iter().map(|r| r.1).sum());
    for (name, value) in rows {
        out.readings.set(name, value);
    }
    out.readings.set(
        "serve.pump_wakeups_per_kpoint",
        after.delta(before, "serve-pump").1 as f64 / points * 1e3,
    );
}

/// Flush sizes and engine shares out of the server's shutdown report.
fn report_readings(report: &IngestReport, out: &mut Outcome) {
    let s = &report.ingest;
    let flushed = s.flushed_events.max(1) as f64;
    out.readings
        .set("door.mean_flush_batch", flushed / s.flushes.max(1) as f64);
    out.readings
        .set("door.flushes_per_kpoint", s.flushes as f64 / flushed * 1e3);
    let e = &report.engine;
    out.readings.set(
        "engine.batched_share",
        e.batched_events as f64 / e.observe_events.max(1) as f64,
    );
    out.readings.set(
        "engine.lanes_per_round",
        e.batched_events as f64 / e.batched_rounds.max(1) as f64,
    );
    let (rnel, policy) = report.decision_counts;
    out.readings.set(
        "engine.policy_share",
        policy as f64 / (rnel + policy).max(1) as f64,
    );
}

/// Live heap the whole process gains per session when `cohort` sessions
/// are opened on a fresh server and fed [`COHORT_POINTS`] points each:
/// engine state, door outboxes, server maps, all of it. (A fresh server,
/// so that the measured one's shutdown report holds the workload alone.)
fn bytes_per_session(fx: &Fixture, inputs: &Inputs, cohort: usize) -> f64 {
    let server = start_server(fx);
    // Cohort slot k is a copy of the k-th long-enough trip of the trace.
    let sessions: Vec<Session> = cohort_members(inputs, cohort)
        .into_iter()
        .map(|m| {
            let s = &inputs.sessions[m];
            Session {
                sd: s.sd,
                start_time: s.start_time,
                segs: s.segs[..COHORT_POINTS].to_vec(),
            }
        })
        .collect();
    let mut ops: Vec<Op> = (0..cohort as u32).map(Op::Open).collect();
    for k in 0..COHORT_POINTS {
        ops.extend((0..cohort).map(|slot| Op::Point(slot as u32, sessions[slot].segs[k])));
    }
    let plan = Plan::new(ops, cohort);
    let mut conn = WireConn::connect(server.wire_addr(), cohort, None);
    let mut client = ClosedLoop::new(&plan, cohort, IN_FLIGHT);
    let mut tally = Tally::default();
    // One session there and back first, so that whatever the server sets
    // up per connection exists before counting starts.
    let hello = Plan::new(
        vec![Op::Open(0), Op::Point(0, sessions[0].segs[0]), Op::Close(0)],
        cohort,
    );
    client.pass(
        &mut conn,
        &sessions,
        &hello,
        Limit::WHOLE,
        &mut tally,
        None,
        None,
    );
    tally.points = 0;

    alloc::set_counting(true);
    let before = alloc::read();
    // No closes in the plan: `drive` returns once every label is in, with
    // all sessions still open.
    client.drive(
        &mut conn,
        &sessions,
        &plan,
        Limit::WHOLE,
        &mut tally,
        None,
        None,
    );
    let after = alloc::read();
    alloc::set_counting(false);
    assert_eq!(
        tally.points as usize, plan.points,
        "every cohort point labelled"
    );
    conn.goodbye(&mut Vec::new());
    server.shutdown();
    (after.live_bytes - before.live_bytes) as f64 / cohort as f64
}

/// Ends a traced run's in-process door phase: collects the door's spans,
/// shuts its engine down and books `(p50 µs, p90 µs, points/s)` with what
/// the spans and the connection counted.
fn door_readings(
    mut door: DoorConn,
    engine: IngestEngine,
    log: &mut SpanLog,
    (p50_us, p90_us, rate): (f64, f64, f64),
    out: &mut Outcome,
) {
    door.take_spans(log);
    out.readings
        .set("door.queue_full_retries", door.queue_full_retries as f64);
    drop(door);
    engine.shutdown();
    let mut submit = log.durations("door.submit");
    out.readings.set(
        "door.submit_call_ns_p50",
        stats::percentile(&mut submit, 0.5),
    );
    out.readings.set("door.label_p50_us", p50_us);
    out.readings.set("door.label_p90_us", p90_us);
    out.readings.set("door.points_per_sec", rate);
}

/// Runs a wire workload, untraced or traced, and fills `out`.
pub fn run(
    args: &Args,
    scale: Scale,
    fx: &Fixture,
    inputs: &Inputs,
    sys: WireSystem,
    spans: Option<&mut SpanLog>,
    out: &mut Outcome,
) {
    if args.workload.as_deref() == Some("wire_steady") {
        run_steady(args, scale, fx, inputs, sys, spans, out);
    } else {
        run_saturate(args, scale, fx, inputs, sys, spans, out);
    }
}

fn fresh_door(fx: &Fixture) -> IngestEngine {
    IngestEngine::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.world.net),
        1,
        IngestConfig::default(),
    )
}

fn run_steady(
    args: &Args,
    scale: Scale,
    fx: &Fixture,
    inputs: &Inputs,
    sys: WireSystem,
    mut spans: Option<&mut SpanLog>,
    out: &mut Outcome,
) {
    let WireSystem { server, plan } = sys;
    let sessions = &inputs.sessions;
    let due_ns = schedule::poisson_due_ns(args.seed, STEADY_RATE, plan.points);
    let span_epoch = spans.as_ref().map(|_| Instant::now());
    // A traced run splits its time between the wire and the door.
    let seconds = if args.trace {
        args.seconds * 0.45
    } else {
        args.seconds
    };
    let clock = OpenLoopClock::new(seconds, args.smoke);

    let mut conn = WireConn::connect(server.wire_addr(), sessions.len(), span_epoch);
    conn.set_tracing(args.trace);
    let WireSteadyRun {
        record,
        others,
        usage,
        mut conn,
    } = open_loop::over_wire(conn, sessions, &plan, &due_ns, &clock);
    out.note_rss_peak();
    let result = open_loop::pool_clean(&due_ns, &record, clock.warm_windows, clock.need);
    if let Some(log) = spans.as_deref_mut() {
        conn.take_spans(log);
        // One root span per point: due → the read that brought its label.
        for point in (0..record.sent).take(TRANSPORT_SPAN_CAP) {
            if record.recv_ns[point] != u64::MAX {
                log.leaf(
                    "wire.point",
                    NO_PARENT,
                    plan.session_of_point[point],
                    record.epoch + Duration::from_nanos(due_ns[point]),
                    record.epoch + Duration::from_nanos(record.recv_ns[point]),
                );
            }
        }
    }
    drop(conn);

    // Points each session was sent before the run stopped.
    let mut fed = vec![0usize; sessions.len()];
    for &id in &plan.session_of_point[..record.sent] {
        fed[id as usize] += 1;
    }
    // The sessions that count towards F1 are those sent whole before the
    // *shortest* run this seed could have had — a set the seed alone
    // decides, so `f1` repeats exactly however long the run went on.
    let floor_ns = clock.min_windows as u64 * WINDOW_NS;
    let certain_points = due_ns.partition_point(|&d| d < floor_ns).min(record.sent);
    let scored = |id: usize| {
        plan.session_points[id]
            .last()
            .is_some_and(|&last| (last as usize) < certain_points)
    };

    let mut checker = Checker::new(inputs);
    let mut answered = vec![false; sessions.len()];
    for event in others {
        match event {
            Event::Closed(id, labels) => {
                answered[id as usize] = true;
                checker.closed(id, fed[id as usize], labels);
            }
            Event::Lost(id) => {
                answered[id as usize] = true;
                checker.lost(fed[id as usize] as u64);
            }
            Event::Label(_) => unreachable!("labels are booked by the receiver"),
        }
    }
    // Sessions that were sent points and never heard of again, and points
    // whose provisional label never streamed back.
    for id in 0..fed.len() {
        if fed[id] > 0 && !answered[id] {
            checker.lost(fed[id] as u64);
        }
    }
    checker.lost(
        (0..record.sent)
            .filter(|&p| record.recv_ns[p] == u64::MAX)
            .count() as u64,
    );

    out.readings.set("points_per_sec", result.goodput);
    out.readings.set("label_p50_us", result.p50_us);
    out.readings.set("label_p90_us", result.p90_us);
    out.readings.set("wire.label_p99_us", result.tail_us);
    out.readings
        .set("wire.label_raw_p99_us", result.raw_tail_us);
    out.readings.set("host.steal_pct", result.steal_pct);
    out.readings
        .set("host.clean_window_share", result.clean_share);
    out.readings
        .set("host.degraded", f64::from(u8::from(result.degraded)));
    out.readings.set("load.late_p99_us", result.late_p99_us);
    out.readings.set("load.sent_per_sec", result.sent_per_sec);
    out.notes.extend([
        ("label_samples_pooled", result.pooled as f64, "count"),
        ("label_tail_quantile", result.tail_q, "ratio"),
        ("run_elapsed_s", record.elapsed_s, "s"),
    ]);

    let report = server.shutdown();
    checker.lost(accounting_gap(&report));
    out.readings.set(
        "bytes_per_session",
        bytes_per_session(fx, inputs, scale.cohort),
    );

    if args.trace {
        thread_readings(&usage, result.measured_points, out);
        report_readings(&report, out);

        // The same schedule through the door alone.
        let engine = fresh_door(fx);
        let mut door = DoorConn::new(engine.handle(), sessions.len(), span_epoch);
        door.set_tracing(true);
        let door_clock = OpenLoopClock::new(args.seconds * 0.3, args.smoke);
        let door_record = open_loop::through_door(&mut door, sessions, &plan, &due_ns, &door_clock);
        let door_result = open_loop::pool_clean(
            &due_ns,
            &door_record,
            door_clock.warm_windows,
            door_clock.need,
        );
        let log = spans.expect("traced run has a span log");
        let figures = (
            door_result.p50_us,
            door_result.p90_us,
            door_result.sent_per_sec,
        );
        door_readings(door, engine, log, figures, out);

        // What the engine itself takes for a flush of the size the door
        // made — the part of a label's wait that is model compute. The
        // three rows sum to this run's wire p50 by construction.
        let batch = out
            .readings
            .get("door.mean_flush_batch")
            .unwrap_or(1.0)
            .round()
            .max(1.0);
        let engine_us = flush_compute_us(fx, inputs, &plan, batch as usize);
        let transport_us = result.p50_us - door_result.p50_us;
        out.readings.set("waterfall.engine_us", engine_us);
        out.readings
            .set("waterfall.door_wait_us", door_result.p50_us - engine_us);
        out.readings.set("waterfall.transport_us", transport_us);
        out.readings.set("serve.transport_p50_us", transport_us);
    }

    let verdict = checker.finish_scored(fx, inputs, scored);
    out.readings.set("f1", verdict.f1);
    out.attempted = verdict.attempted;
    out.failed = verdict.failed;
}

/// Median time a `StreamEngine` takes for an `observe_batch` of `batch`
/// events, replaying the head of the plan with the plan's own session
/// mix open.
fn flush_compute_us(fx: &Fixture, inputs: &Inputs, plan: &Plan, batch: usize) -> f64 {
    let mut engine = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.world.net));
    let mut handles: Vec<Option<SessionId>> = vec![None; inputs.sessions.len()];
    let mut events = Vec::with_capacity(batch);
    let mut labels = Vec::new();
    let mut took_us = Vec::new();
    for &op in plan.ops.iter().take(60_000) {
        match op {
            Op::Open(id) => {
                let s = &inputs.sessions[id as usize];
                handles[id as usize] = Some(engine.open(s.sd, s.start_time));
            }
            Op::Point(id, seg) => {
                events.push((handles[id as usize].expect("open session"), seg));
                if events.len() == batch {
                    let t = Instant::now();
                    engine.observe_batch(&events, &mut labels);
                    took_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    events.clear();
                }
            }
            Op::Close(id) => {
                // A session's pending events must land before its close.
                if !events.is_empty() {
                    engine.observe_batch(&events, &mut labels);
                    events.clear();
                }
                engine.close(handles[id as usize].take().expect("open session"));
            }
        }
    }
    stats::percentile(&mut took_us, 0.5)
}

fn run_saturate(
    args: &Args,
    scale: Scale,
    fx: &Fixture,
    inputs: &Inputs,
    sys: WireSystem,
    mut spans: Option<&mut SpanLog>,
    out: &mut Outcome,
) {
    let WireSystem { server, plan } = sys;
    let sessions = &inputs.sessions;
    let span_epoch = spans.as_ref().map(|_| Instant::now());
    let mut checker = Checker::new(inputs);
    // Client and server together keep both cores busy.
    let mut tally = Tally::paired();
    if args.trace {
        tally.norm.alternate_tracing();
    }
    let budget = if args.trace {
        args.seconds * 0.55
    } else {
        args.seconds
    };
    let deadline = Instant::now() + Duration::from_secs_f64(budget);

    let mut conn = WireConn::connect(server.wire_addr(), sessions.len(), span_epoch);
    let mut client = ClosedLoop::new(&plan, sessions.len(), IN_FLIGHT);
    let mut usage = (host::ThreadUsage::default(), host::ThreadUsage::default());
    // The client loop runs on a named thread so that its CPU can be told
    // from this thread's set-up work.
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("load-loop".to_string())
            .spawn_scoped(scope, || {
                usage.0 = host::ThreadUsage::read();
                // The first pass runs whole: it is the one scored.
                let mut limit = Limit::WHOLE;
                while client.pass(
                    &mut conn,
                    sessions,
                    &plan,
                    limit,
                    &mut tally,
                    Some(&mut checker),
                    spans.as_deref_mut(),
                ) && Instant::now() < deadline
                {
                    limit.deadline = Some(deadline);
                }
                usage.1 = host::ThreadUsage::read();
            })
            .expect("spawn client loop");
    });
    assert!(checker.first_pass_complete(), "first pass runs whole");
    out.note_rss_peak();
    conn.goodbye(&mut Vec::new());
    if let Some(log) = spans.as_deref_mut() {
        conn.take_spans(log);
    }
    drop(conn);
    let norm = &tally.norm;

    let pps = norm.rate();
    let (p50_us, tail_us) = norm.latency_us();
    out.readings.set("points_per_sec", pps);
    out.readings.set("label_p50_us", p50_us);
    out.readings.set("label_p90_us", tail_us);
    out.readings.set("host.ref_ms", norm.ref_ms());
    out.readings.set("host.raw_points_per_sec", norm.raw_rate());
    out.notes
        .push(("points_measured", tally.points as f64, "count"));

    let report = server.shutdown();
    checker.lost(accounting_gap(&report));
    out.readings.set(
        "bytes_per_session",
        bytes_per_session(fx, inputs, scale.cohort),
    );

    if args.trace {
        out.readings
            .set("trace.overhead_ratio", norm.traced_rate() / pps);
        thread_readings(&usage, tally.points, out);
        report_readings(&report, out);

        // The same closed loop through the door alone.
        let engine = fresh_door(fx);
        let mut door = DoorConn::new(engine.handle(), sessions.len(), span_epoch);
        let mut door_client = ClosedLoop::new(&plan, sessions.len(), IN_FLIGHT);
        door_client.point_span = "door.point";
        let mut door_tally = Tally::paired();
        door_tally.norm.alternate_tracing();
        let limit = Limit {
            deadline: Some(Instant::now() + Duration::from_secs_f64(args.seconds * 0.25)),
            max_points: u64::MAX,
        };
        while door_client.pass(
            &mut door,
            sessions,
            &plan,
            limit,
            &mut door_tally,
            None,
            spans.as_deref_mut(),
        ) {}
        let log = spans.expect("traced run has a span log");
        let (p50_us, tail_us) = door_tally.norm.latency_us();
        let figures = (p50_us, tail_us, door_tally.norm.rate());
        door_readings(door, engine, log, figures, out);
    }

    let verdict = checker.finish(fx, inputs);
    out.readings.set("f1", verdict.f1);
    out.attempted = verdict.attempted;
    out.failed = verdict.failed;
}
