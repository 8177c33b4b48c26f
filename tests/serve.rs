//! The network serving tier end to end (ARCHITECTURE.md invariant 16).
//!
//! The contract under test: putting the ingest front door behind the
//! `oasd-serve` wire protocol adds transport, never semantics —
//!
//! * labels received over loopback are **byte-identical** to the
//!   in-process drivers for the same seeded [`EventTrace`], at 1/2/8
//!   shards (the tentpole property, via [`Driver::Net`]);
//! * accounting stays exact across the wire and across graceful
//!   shutdown: `submitted == flushed + shed + quarantined`, with every
//!   session drained;
//! * tenants are isolated: quota exhaustion sheds only the exhausted
//!   tenant's opens, and a model swap scoped to tenant A never relabels
//!   tenant B's sessions (nor A's already-open ones — epochs pin at
//!   open);
//! * malformed input — wrong preamble, garbage frames, bogus HTTP —
//!   produces typed errors / 4xx responses and never wedges a listener,
//!   pairing with the engine's `admit` poison quarantine on the data
//!   path.

mod common;

use common::{trained_fixture, CityKind, EngineFixture};
use proptest::prelude::*;
use rl4oasd_repro::prelude::*;
use rl4oasd_repro::serve::proto::{decode_frame, fault_from_code, frame_bytes};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn fixture() -> &'static EngineFixture {
    static FX: OnceLock<EngineFixture> = OnceLock::new();
    FX.get_or_init(|| trained_fixture(CityKind::ChengduGrid, 0x5E4E_0001))
}

fn loopback_server(fx: &EngineFixture, shards: usize, tenants: Vec<TenantSpec>) -> Server {
    Server::start(
        Arc::clone(&fx.model),
        Arc::clone(&fx.net),
        ServerConfig {
            shards,
            ingest: IngestConfig {
                flush: FlushPolicy::immediate(),
                obs: Obs::new(ObsConfig::enabled()),
                ..IngestConfig::default()
            },
            tenants,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback listeners")
}

/// In-process reference: the same trajectory through a 1-shard sync
/// engine — the byte-identity baseline for single-session wire runs.
fn reference_labels(
    model: &Arc<TrainedModel>,
    net: &Arc<RoadNetwork>,
    traj: &MappedTrajectory,
) -> Vec<u8> {
    let mut engine = ShardedEngine::new(Arc::clone(model), Arc::clone(net), 1);
    let h = engine.open(traj.sd_pair().expect("non-empty"), traj.start_time);
    let mut out = Vec::new();
    for &seg in &traj.segments {
        engine.observe_batch(&[(h, seg)], &mut out);
    }
    engine.close(h)
}

/// Drives one full session over the wire: open → await verdict → submit
/// every point → close → await `Closed`. Returns the epoch swap seq the
/// open pinned plus the authoritative final labels.
fn wire_session(
    client: &mut Client,
    cid: u64,
    tenant: u32,
    traj: &MappedTrajectory,
) -> Result<(u32, Vec<u8>), WireError> {
    let sd = traj.sd_pair().expect("non-empty");
    client
        .send(&Frame::Open {
            session: cid,
            tenant,
            source: sd.source.0,
            dest: sd.dest.0,
            start_time: traj.start_time,
            priority: 0,
        })
        .expect("send open");
    let epoch_seq = loop {
        match client.recv().expect("open verdict") {
            Frame::Opened { session, epoch_seq } if session == cid => break epoch_seq,
            Frame::Rejected { session, error } if session == cid => return Err(error),
            Frame::Label { .. } | Frame::Closed { .. } => {}
            other => panic!("unexpected frame awaiting open verdict: {other:?}"),
        }
    };
    for &seg in &traj.segments {
        client
            .send(&Frame::Submit {
                session: cid,
                segment: seg.0,
            })
            .expect("send submit");
        // Drain streamed labels so outboxes never back up.
        while let Some(frame) = client.try_recv().expect("drain") {
            match frame {
                Frame::Label { .. } => {}
                other => panic!("unexpected frame during submits: {other:?}"),
            }
        }
    }
    client
        .send(&Frame::Close { session: cid })
        .expect("send close");
    loop {
        match client.recv().expect("close result") {
            Frame::Closed { session, labels } if session == cid => return Ok((epoch_seq, labels)),
            Frame::Label { .. } => {}
            other => panic!("unexpected frame awaiting close: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// **Invariant 16.** A seeded scenario trace replayed through the
    /// loopback network driver yields byte-identical labels to the
    /// in-process sync reference, at 1/2/8 shards.
    #[test]
    fn net_driver_labels_are_byte_identical(
        seed in 0u64..1000,
        scenario in 0usize..6,
    ) {
        let kind = NetworkKind::ChengduGrid;
        static WORLD: OnceLock<(World, Arc<TrainedModel>)> = OnceLock::new();
        let (world, model) = WORLD.get_or_init(|| {
            let world = World::tiny(kind, 0x5E4E_1600);
            let model = Arc::new(world.train(&Rl4oasdConfig::tiny(0x5E4E_1600)));
            (world, model)
        });
        let spec = standard_suite(kind, 48, 0.5).swap_remove(scenario);
        let trace = EventTrace::generate(world, &spec, seed);
        let runner = ScenarioRunner::new(Arc::clone(model), Arc::clone(&world.net));
        let reference = runner.run(&trace, &Driver::Sync { shards: 1 });
        for shards in [1usize, 2, 8] {
            let out = runner.run(
                &trace,
                &Driver::Net {
                    shards,
                    flush: FlushPolicy::immediate(),
                    queue_capacity: 1024,
                },
            );
            prop_assert_eq!(&out.labels, &reference.labels);
            prop_assert_eq!(&out.truth, &trace.truth);
            prop_assert_eq!(out.sessions, trace.sessions as usize);
            prop_assert_eq!(out.events, trace.events);
            prop_assert_eq!(out.rejected, 0);
        }
    }
}

/// Graceful shutdown drains everything: a load-generator fleet runs to
/// completion, every ops endpoint answers, and the post-shutdown report
/// satisfies exact accounting with zero faults.
#[test]
fn load_fleet_accounting_is_exact_and_ops_surface_answers() {
    let fx = fixture();
    let server = loopback_server(fx, 2, Vec::new());
    let ops = server.ops_addr();
    let report = run_load(
        server.wire_addr(),
        LoadSpec {
            connections: 3,
            sessions_per_conn: 8,
            points_per_session: 12,
            tenant: 7,
            num_segments: fx.net.num_segments() as u32,
        },
    );
    assert_eq!(report.sessions_opened, 24);
    assert_eq!(report.sessions_closed, 24);
    assert_eq!(report.labels_streamed, 24 * 12);
    assert_eq!(report.opens_rejected, 0);
    assert_eq!(report.faults, 0);

    let (status, body) = http_get(ops, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "healthz body: {body}");
    let (status, body) = http_get(ops, "/stats");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"id\":7"),
        "auto-registered tenant in stats: {body}"
    );
    let (status, body) = http_get(ops, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("oasd_serve_connections_total"),
        "metrics body: {body}"
    );

    let ingest = server.shutdown().ingest;
    assert_eq!(ingest.submitted, 24 * 12);
    assert_eq!(
        ingest.submitted,
        ingest.flushed_events + ingest.shed_events + ingest.quarantined_events
    );
    assert_eq!(ingest.quarantined_sessions, 0);
}

/// Shutdown with connections still open closes their sessions into the
/// engine first: nothing leaks, accounting stays exact.
#[test]
fn shutdown_drains_abandoned_sessions() {
    let fx = fixture();
    let server = loopback_server(fx, 2, Vec::new());
    let traj = &fx.trajs[0];
    let mut client = Client::connect(server.wire_addr()).expect("connect");
    let sd = traj.sd_pair().unwrap();
    for cid in 0..4u64 {
        client
            .send(&Frame::Open {
                session: cid,
                tenant: 0,
                source: sd.source.0,
                dest: sd.dest.0,
                start_time: traj.start_time,
                priority: 0,
            })
            .expect("send open");
    }
    let points = traj.segments.len().min(6);
    for &seg in &traj.segments[..points] {
        for cid in 0..4u64 {
            client
                .send(&Frame::Submit {
                    session: cid,
                    segment: seg.0,
                })
                .expect("send submit");
        }
    }
    // Wait until every submitted point has streamed a label back, so the
    // server has definitely consumed all our frames before we abandon
    // the connection without closing anything.
    let mut labels = 0;
    while labels < 4 * points {
        match client.recv().expect("streamed label") {
            Frame::Label { .. } => labels += 1,
            Frame::Opened { .. } => {}
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    let ingest = server.shutdown().ingest;
    assert_eq!(ingest.submitted, 4 * points as u64);
    assert_eq!(ingest.flushed_events, ingest.submitted, "drain lost events");
    assert_eq!(
        ingest.submitted,
        ingest.flushed_events + ingest.shed_events + ingest.quarantined_events
    );
}

/// The label path is event-driven end to end: a live connection with
/// open sessions and nothing in flight costs **zero** pump wake-ups — the
/// pump blocks on its sink with no timer — and the next point wakes it.
#[test]
fn idle_connection_never_wakes_its_pump() {
    let fx = fixture();
    let server = loopback_server(fx, 1, Vec::new());
    let pump_wakeups = || -> u64 {
        (server.obs().snapshot().counters.iter())
            .filter(|c| c.name == obs::names::SERVE_PUMP_WAKEUPS)
            .map(|c| c.value)
            .sum()
    };
    let traj = &fx.trajs[0];
    let sd = traj.sd_pair().unwrap();
    let mut client = Client::connect(server.wire_addr()).expect("connect");
    const SESSIONS: u64 = 3;
    for cid in 0..SESSIONS {
        client
            .send(&Frame::Open {
                session: cid,
                tenant: 0,
                source: sd.source.0,
                dest: sd.dest.0,
                start_time: traj.start_time,
                priority: 0,
            })
            .expect("open");
        for &seg in &traj.segments[..2] {
            client
                .send(&Frame::Submit {
                    session: cid,
                    segment: seg.0,
                })
                .expect("submit");
        }
    }
    // Everything sent has been answered once these frames are in: the
    // pump counted its last wake-up before it wrote the last label.
    // (Pipelined as they were, each session's `Opened` — the reader's
    // frame — still precedes its labels — the pump's.)
    let (mut opened, mut labels) = (Vec::new(), 0);
    while opened.len() < SESSIONS as usize || labels < 2 * SESSIONS {
        match client.recv().expect("answer") {
            Frame::Opened { session, .. } => opened.push(session),
            Frame::Label { session, .. } => {
                assert!(opened.contains(&session), "label before Opened");
                labels += 1;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    let before = pump_wakeups();
    assert!(before >= 1, "labels were delivered by pump wake-ups");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(pump_wakeups(), before, "an idle pump must stay asleep");
    // Still live: one more point is labelled, by one more wake-up.
    client
        .send(&Frame::Submit {
            session: 0,
            segment: traj.segments[2].0,
        })
        .expect("submit");
    assert!(matches!(
        client.recv().expect("label"),
        Frame::Label { session: 0, .. }
    ));
    assert_eq!(pump_wakeups(), before + 1);
    drop(client);
    server.shutdown();
}

/// Per-tenant quotas shed exactly the exhausted tenant's opens; closing
/// a session returns its quota slot.
#[test]
fn tenant_quota_sheds_only_that_tenant() {
    let fx = fixture();
    let server = loopback_server(
        fx,
        1,
        vec![
            TenantSpec {
                id: 1,
                name: "capped".into(),
                max_sessions: 2,
            },
            TenantSpec::unlimited(2, "open"),
        ],
    );
    let traj = &fx.trajs[0];
    let sd = traj.sd_pair().unwrap();
    let mut client = Client::connect(server.wire_addr()).expect("connect");
    let open = |client: &mut Client, cid: u64, tenant: u32| {
        client
            .send(&Frame::Open {
                session: cid,
                tenant,
                source: sd.source.0,
                dest: sd.dest.0,
                start_time: traj.start_time,
                priority: 0,
            })
            .expect("send open");
        match client.recv().expect("verdict") {
            Frame::Opened { session, .. } if session == cid => Ok(()),
            Frame::Rejected { session, error } if session == cid => Err(error),
            other => panic!("unexpected frame: {other:?}"),
        }
    };
    assert_eq!(open(&mut client, 10, 1), Ok(()));
    assert_eq!(open(&mut client, 11, 1), Ok(()));
    // Tenant 1 is at quota; its third open is shed —
    assert_eq!(open(&mut client, 12, 1), Err(WireError::QuotaExhausted));
    // — while tenant 2 admits freely on the same connection,
    assert_eq!(open(&mut client, 20, 2), Ok(()));
    assert_eq!(open(&mut client, 21, 2), Ok(()));
    // and a tenant this server does not host is a typed error.
    assert_eq!(open(&mut client, 30, 3), Err(WireError::UnknownTenant));
    // Reusing a live session id is rejected without touching the quota.
    assert_eq!(open(&mut client, 10, 2), Err(WireError::DuplicateSession));

    // Closing one capped session frees its slot.
    client.send(&Frame::Close { session: 10 }).expect("close");
    loop {
        match client.recv().expect("closed") {
            Frame::Closed { session: 10, .. } => break,
            Frame::Label { .. } => {}
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(open(&mut client, 12, 1), Ok(()));
    drop(client);
    server.shutdown();
}

/// Scoped model swap: tenant A's new sessions run the new model; tenant
/// B's sessions — and A's already-open sessions — keep the old one,
/// byte for byte.
#[test]
fn tenant_model_swap_isolates_tenants() {
    let fx = fixture();
    // A second model trained on the same data with a different seed; it
    // need not disagree with the first on any one trajectory for the
    // isolation property to be checked exactly.
    let model_b = Arc::new(rl4oasd::train(
        &fx.net,
        &fx.ds,
        &Rl4oasdConfig::tiny(0x5E4E_0002),
    ));
    let traj = fx
        .trajs
        .iter()
        .find(|t| {
            t.segments.len() >= 4
                && reference_labels(&fx.model, &fx.net, t) != reference_labels(&model_b, &fx.net, t)
        })
        .unwrap_or(&fx.trajs[0]);
    let ref_a = reference_labels(&fx.model, &fx.net, traj);
    let ref_b = reference_labels(&model_b, &fx.net, traj);

    let server = loopback_server(fx, 2, Vec::new());
    let mut client = Client::connect(server.wire_addr()).expect("connect");

    // Baseline: both tenants serve model A at swap seq 0.
    let (seq, labels) = wire_session(&mut client, 1, 1, traj).expect("tenant 1 baseline");
    assert_eq!((seq, &labels), (0, &ref_a));
    let (seq, labels) = wire_session(&mut client, 2, 2, traj).expect("tenant 2 baseline");
    assert_eq!((seq, &labels), (0, &ref_a));

    // Open a tenant-1 session, feed half the trajectory, THEN swap
    // tenant 1 to model B mid-flight.
    let sd = traj.sd_pair().unwrap();
    let half = traj.segments.len() / 2;
    client
        .send(&Frame::Open {
            session: 3,
            tenant: 1,
            source: sd.source.0,
            dest: sd.dest.0,
            start_time: traj.start_time,
            priority: 0,
        })
        .expect("open pinned session");
    // Await the open verdict: once `Opened` is back, the open has been
    // enqueued ahead of any later swap in the shard's FIFO, so the
    // session's epoch pin is decided.
    match client.recv().expect("pinned open verdict") {
        Frame::Opened { session: 3, .. } => {}
        other => panic!("unexpected frame: {other:?}"),
    }
    for &seg in &traj.segments[..half] {
        client
            .send(&Frame::Submit {
                session: 3,
                segment: seg.0,
            })
            .expect("submit first half");
    }
    let swap_seq = server
        .swap_tenant_model(1, Arc::clone(&model_b))
        .expect("scoped swap");
    assert_eq!(swap_seq, 1);
    for &seg in &traj.segments[half..] {
        client
            .send(&Frame::Submit {
                session: 3,
                segment: seg.0,
            })
            .expect("submit second half");
        while let Some(frame) = client.try_recv().expect("drain") {
            match frame {
                Frame::Label { .. } | Frame::Opened { .. } => {}
                other => panic!("unexpected frame: {other:?}"),
            }
        }
    }
    client.send(&Frame::Close { session: 3 }).expect("close");
    let pinned_labels = loop {
        match client.recv().expect("closed") {
            Frame::Closed { session: 3, labels } => break labels,
            Frame::Label { .. } | Frame::Opened { .. } => {}
            other => panic!("unexpected frame: {other:?}"),
        }
    };
    // The mid-flight session was pinned to model A at open: the swap
    // must not have relabelled it.
    assert_eq!(pinned_labels, ref_a);

    // After the swap: tenant 1's NEW sessions run model B at seq 1 …
    let (seq, labels) = wire_session(&mut client, 4, 1, traj).expect("tenant 1 after swap");
    assert_eq!((seq, &labels), (1, &ref_b));
    // … and tenant 2 still runs model A at seq 0, byte for byte.
    let (seq, labels) = wire_session(&mut client, 5, 2, traj).expect("tenant 2 after swap");
    assert_eq!((seq, &labels), (0, &ref_a));

    drop(client);
    let ingest = server.shutdown().ingest;
    assert_eq!(
        ingest.submitted,
        ingest.flushed_events + ingest.shed_events + ingest.quarantined_events
    );
}

/// The wire pairing of `SessionEngine::admit` poison semantics: an
/// out-of-range segment quarantines exactly its session with a typed
/// `Fault{PoisonEvent}` frame; sibling sessions on the same connection
/// close clean with identical labels, and accounting charges the
/// quarantined events.
#[test]
fn poison_submit_faults_only_its_session() {
    let fx = fixture();
    let ref_labels = reference_labels(&fx.model, &fx.net, &fx.trajs[0]);
    let server = loopback_server(fx, 1, Vec::new());
    let traj = &fx.trajs[0];
    let sd = traj.sd_pair().unwrap();
    let mut client = Client::connect(server.wire_addr()).expect("connect");
    for cid in [1u64, 2] {
        client
            .send(&Frame::Open {
                session: cid,
                tenant: 0,
                source: sd.source.0,
                dest: sd.dest.0,
                start_time: traj.start_time,
                priority: 0,
            })
            .expect("open");
    }
    // Session 1 sends one good point, then a poison segment far outside
    // the network; session 2 streams the whole trajectory normally.
    client
        .send(&Frame::Submit {
            session: 1,
            segment: traj.segments[0].0,
        })
        .expect("good point");
    client
        .send(&Frame::Submit {
            session: 1,
            segment: u32::MAX,
        })
        .expect("poison point");
    for &seg in &traj.segments {
        client
            .send(&Frame::Submit {
                session: 2,
                segment: seg.0,
            })
            .expect("sibling point");
        while let Some(frame) = client.try_recv().expect("drain") {
            check_poison_phase_frame(frame);
        }
    }
    client.send(&Frame::Close { session: 2 }).expect("close 2");
    let mut fault_seen = false;
    let sibling_labels = loop {
        match client.recv().expect("frames") {
            Frame::Closed { session: 2, labels } => break labels,
            frame => {
                fault_seen |= is_poison_fault(&frame);
                check_poison_phase_frame(frame);
            }
        }
    };
    assert_eq!(
        sibling_labels, ref_labels,
        "sibling session must be untouched by the quarantine"
    );
    // Close the poisoned session: its terminal status is the fault.
    client.send(&Frame::Close { session: 1 }).expect("close 1");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !fault_seen {
        assert!(
            std::time::Instant::now() < deadline,
            "poison fault frame never arrived"
        );
        if let Some(frame) = client.try_recv().expect("fault frame") {
            fault_seen |= is_poison_fault(&frame);
            check_poison_phase_frame(frame);
        }
    }
    drop(client);
    let ingest = server.shutdown().ingest;
    assert_eq!(ingest.quarantined_sessions, 1);
    assert!(ingest.quarantined_events >= 1, "poison event is charged");
    assert_eq!(
        ingest.submitted,
        ingest.flushed_events + ingest.shed_events + ingest.quarantined_events
    );
}

fn is_poison_fault(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::Fault { session: 1, fault } if fault_from_code(*fault) == Some(SessionFault::PoisonEvent)
    )
}

fn check_poison_phase_frame(frame: Frame) {
    match frame {
        Frame::Opened { .. } | Frame::Label { .. } | Frame::Closed { .. } => {}
        Frame::Fault { session, fault } => {
            assert_eq!(session, 1, "only the poisoned session may fault");
            assert_eq!(fault_from_code(fault), Some(SessionFault::PoisonEvent));
        }
        other => panic!("unexpected frame during poison run: {other:?}"),
    }
}

/// Next frame from the server, or a test failure once `deadline` passes:
/// a server whose shard died must fail the test, not hang it.
fn recv_before(client: &mut Client, deadline: Instant) -> Frame {
    loop {
        if let Some(frame) = client.try_recv().expect("read frame") {
            return frame;
        }
        assert!(Instant::now() < deadline, "no frame before the deadline");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Opens `cid` and waits for its `Opened` verdict (labels of other
/// sessions may arrive meanwhile and are dropped).
fn open_before(client: &mut Client, cid: u64, traj: &MappedTrajectory, deadline: Instant) {
    let sd = traj.sd_pair().expect("non-empty");
    client
        .send(&Frame::Open {
            session: cid,
            tenant: 0,
            source: sd.source.0,
            dest: sd.dest.0,
            start_time: traj.start_time,
            priority: 0,
        })
        .expect("send open");
    loop {
        match recv_before(client, deadline) {
            Frame::Opened { session, .. } if session == cid => return,
            Frame::Label { .. } => {}
            other => panic!("unexpected frame awaiting open verdict: {other:?}"),
        }
    }
}

/// Submits `segments` for `cid` and waits until each has streamed its
/// label back.
fn submit_before(client: &mut Client, cid: u64, segments: &[SegmentId], deadline: Instant) {
    for &seg in segments {
        client
            .send(&Frame::Submit {
                session: cid,
                segment: seg.0,
            })
            .expect("send submit");
    }
    let mut labels = 0;
    while labels < segments.len() {
        match recv_before(client, deadline) {
            Frame::Label { session, .. } if session == cid => labels += 1,
            other => panic!("unexpected frame awaiting labels: {other:?}"),
        }
    }
}

/// Closes `cid` and returns its authoritative final labels.
fn close_before(client: &mut Client, cid: u64, deadline: Instant) -> Vec<u8> {
    client
        .send(&Frame::Close { session: cid })
        .expect("send close");
    match recv_before(client, deadline) {
        Frame::Closed { session, labels } if session == cid => labels,
        other => panic!("unexpected frame awaiting close: {other:?}"),
    }
}

/// A default-configured `oasd-serve` survives a panic on every shard
/// worker: the session open across the panic is salvaged with labels
/// byte-identical to the in-process oracle, every shard restarts exactly
/// once, and a session opened afterwards is served normally.
#[test]
fn default_server_survives_worker_panic() {
    silence_injected_panic_output();
    let fx = fixture();
    let config = ServerConfig::default();
    let shards = config.shards;
    let server = Server::start(Arc::clone(&fx.model), Arc::clone(&fx.net), config)
        .expect("bind loopback listeners");
    let traj = fx
        .trajs
        .iter()
        .find(|t| t.len() >= 4)
        .expect("fixture has a trip of at least four segments");
    let oracle = reference_labels(&fx.model, &fx.net, traj);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = Client::connect(server.wire_addr()).expect("connect");

    open_before(&mut client, 1, traj, deadline);
    let (head, tail) = traj.segments.split_at(traj.len() / 2);
    submit_before(&mut client, 1, head, deadline);
    server
        .handle()
        .control(|_: &mut StreamEngine| panic!("{FAULT_INJECTION_MARKER}: worker panic"))
        .expect("panic injection accepted");
    submit_before(&mut client, 1, tail, deadline);
    assert_eq!(
        close_before(&mut client, 1, deadline),
        oracle,
        "the session open across the panic must be salvaged byte-exactly"
    );

    open_before(&mut client, 2, traj, deadline);
    submit_before(&mut client, 2, &traj.segments, deadline);
    assert_eq!(close_before(&mut client, 2, deadline), oracle);

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.ingest.worker_restarts, shards as u64);
    assert_eq!(report.ingest.quarantined_sessions, 0);
}

/// Submits and closes for never-opened sessions, and out-of-range SD
/// pairs in opens, are typed rejections — the connection (and server)
/// keep working.
#[test]
fn unknown_sessions_and_bad_opens_are_typed_rejections() {
    let fx = fixture();
    let server = loopback_server(fx, 1, Vec::new());
    let traj = &fx.trajs[0];
    let mut client = Client::connect(server.wire_addr()).expect("connect");
    client
        .send(&Frame::Submit {
            session: 99,
            segment: 0,
        })
        .expect("stray submit");
    assert_eq!(
        client.recv().expect("verdict"),
        Frame::Rejected {
            session: 99,
            error: WireError::UnknownSession
        }
    );
    client
        .send(&Frame::Close { session: 99 })
        .expect("stray close");
    assert_eq!(
        client.recv().expect("verdict"),
        Frame::Rejected {
            session: 99,
            error: WireError::UnknownSession
        }
    );
    // An SD endpoint outside the network must be screened at the door,
    // not crash a shard worker at observe time.
    client
        .send(&Frame::Open {
            session: 1,
            tenant: 0,
            source: u32::MAX,
            dest: 0,
            start_time: 0.0,
            priority: 0,
        })
        .expect("bad open");
    assert_eq!(
        client.recv().expect("verdict"),
        Frame::Rejected {
            session: 1,
            error: WireError::Malformed
        }
    );
    // The connection survived all three rejections.
    let (_, labels) = wire_session(&mut client, 7, 0, traj).expect("session after rejections");
    assert_eq!(labels, reference_labels(&fx.model, &fx.net, traj));
    drop(client);
    server.shutdown();
}

/// Cross-protocol garbage on the wire port: a typed `Malformed`
/// rejection, the connection closes, and the listener keeps accepting.
#[test]
fn wire_listener_survives_malformed_connections() {
    let fx = fixture();
    let server = loopback_server(fx, 1, Vec::new());

    // 1. An HTTP request aimed at the wire port fails the preamble.
    let mut stream = TcpStream::connect(server.wire_addr()).expect("connect");
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("send http garbage");
    assert_eq!(
        read_rejection(&mut stream),
        Some(WireError::Malformed),
        "preamble mismatch must answer a typed rejection"
    );
    drop(stream);

    // 2. A correct preamble followed by an oversized length prefix.
    let mut stream = TcpStream::connect(server.wire_addr()).expect("connect");
    stream.write_all(b"OSD1").expect("preamble");
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("hostile length prefix");
    assert_eq!(read_rejection(&mut stream), Some(WireError::Malformed));
    drop(stream);

    // 3. A correct preamble followed by an unknown opcode.
    let mut stream = TcpStream::connect(server.wire_addr()).expect("connect");
    stream.write_all(b"OSD1").expect("preamble");
    stream.write_all(&1u32.to_le_bytes()).expect("prefix");
    stream.write_all(&[0x55]).expect("bogus opcode");
    assert_eq!(read_rejection(&mut stream), Some(WireError::Malformed));
    drop(stream);

    // 4. A client sending a response opcode is off-protocol.
    let mut stream = TcpStream::connect(server.wire_addr()).expect("connect");
    stream.write_all(b"OSD1").expect("preamble");
    stream
        .write_all(&frame_bytes(&Frame::Bye))
        .expect("response opcode from client");
    assert_eq!(read_rejection(&mut stream), Some(WireError::Malformed));
    drop(stream);

    // The listener is not wedged: a well-formed session still works.
    let traj = &fx.trajs[0];
    let mut client = Client::connect(server.wire_addr()).expect("connect after garbage");
    let (_, labels) = wire_session(&mut client, 1, 0, traj).expect("clean session");
    assert_eq!(labels, reference_labels(&fx.model, &fx.net, traj));
    drop(client);
    let ingest = server.shutdown().ingest;
    assert_eq!(
        ingest.submitted,
        ingest.flushed_events + ingest.shed_events + ingest.quarantined_events
    );
}

/// Garbage HTTP on the ops port: 400/404/405, never a panic or a wedged
/// listener.
#[test]
fn ops_listener_survives_malformed_requests() {
    let fx = fixture();
    let server = loopback_server(fx, 1, Vec::new());
    let ops = server.ops_addr();

    let (status, _) = http_raw(ops, b"\x00\x01\x02\x03 utter garbage\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _) = http_raw(ops, b"GARBAGE\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _) = http_raw(ops, b"GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _) = http_raw(ops, b"DELETE /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _) = http_raw(ops, b"POST /swap?model=oops HTTP/1.1\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _) = http_raw(ops, b"POST /swap?model=42 HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404, "unknown shelf index is a 404, not a crash");

    // Still serving after all of it.
    let (status, body) = http_get(ops, "/healthz");
    assert_eq!((status, body.contains("\"ok\"")), (200, true));
    server.shutdown();
}

/// The ops `/swap` trigger swaps a shelf model for real: subsequent wire
/// sessions label with the new model.
#[test]
fn ops_swap_trigger_swaps_shelf_model() {
    let fx = fixture();
    let model_b = Arc::new(rl4oasd::train(
        &fx.net,
        &fx.ds,
        &Rl4oasdConfig::tiny(0x5E4E_0003),
    ));
    let traj = &fx.trajs[0];
    let ref_b = reference_labels(&model_b, &fx.net, traj);
    let server = loopback_server(fx, 1, Vec::new());
    let idx = server.add_shelf_model(Arc::clone(&model_b));
    let (status, body) = http_raw(
        server.ops_addr(),
        format!("POST /swap?model={idx} HTTP/1.1\r\n\r\n").as_bytes(),
    );
    assert_eq!(status, 200, "swap trigger failed: {body}");
    assert!(body.contains("\"swapped\":true"), "swap body: {body}");
    let mut client = Client::connect(server.wire_addr()).expect("connect");
    let (seq, labels) = wire_session(&mut client, 1, 0, traj).expect("post-swap session");
    assert_eq!(seq, 1, "swap seq must reflect the ops-triggered install");
    assert_eq!(
        labels, ref_b,
        "new sessions must label with the shelf model"
    );
    drop(client);
    server.shutdown();
}

// --- tiny HTTP helpers -------------------------------------------------

fn http_raw(addr: std::net::SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(request).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    http_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

/// Reads frames from a raw socket until `Rejected` (returning its error)
/// or EOF (`None`).
fn read_rejection(stream: &mut TcpStream) -> Option<WireError> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        // Reassemble with the public decoder so the test also exercises
        // the client-facing path.
        let mut offset = 0;
        while buf.len() >= offset + 4 {
            let n = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap()) as usize;
            if buf.len() < offset + 4 + n {
                break;
            }
            if let Ok(Frame::Rejected { error, .. }) =
                decode_frame(&buf[offset + 4..offset + 4 + n])
            {
                return Some(error);
            }
            offset += 4 + n;
        }
        buf.drain(..offset);
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(_) => return None,
        }
    }
}
