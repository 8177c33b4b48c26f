//! Telemetry-spine acceptance suite: the observability layer must be
//! **invisible** to every label the system emits and faithful in what it
//! reports.
//!
//! * obs-on / obs-off byte-identity: for any interleaving and shard count
//!   (1/2/8), both serving paths (sync [`ShardedEngine`], async
//!   [`IngestEngine`]) produce labels byte-identical to an engine with no
//!   telemetry wired — and to one wired with `ObsConfig::disabled()`;
//! * ring accounting: the ops-event and span rings report exact
//!   sequence-gap/drop counts when they wrap — loss-aware, never silent;
//! * export: the Prometheus exposition matches a golden file byte-for-byte
//!   and every line parses under a name/label/value grammar check;
//! * compile-time guard: the aggregated stats surfaces destructure
//!   exhaustively, so adding a field without updating aggregation fails
//!   here first.
//!
//! Run in CI's release-mode jobs alongside the other equivalence suites.

use obs::{names, Snapshot};
use proptest::prelude::*;
use rl4oasd_repro::prelude::*;
use std::sync::{Arc, OnceLock};

mod common;
use common::{interleaved, trained_fixture, CityKind, EngineFixture};

/// One shared fixture for every test in this file (training is the
/// expensive part; the properties only exercise serving + telemetry).
fn fixture() -> &'static EngineFixture {
    static FIXTURE: OnceLock<EngineFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| trained_fixture(CityKind::ChengduGrid, 0x0B5E))
}

/// The shard counts the byte-identity properties sweep (acceptance: 1/2/8).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Sum of every per-label cell of one counter name.
fn counter_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

/// Total samples across every histogram cell carrying `(key, value)`.
fn hist_count(snap: &Snapshot, name: &str, label: (&str, &str)) -> u64 {
    snap.histograms
        .iter()
        .filter(|h| h.name == name && h.labels.iter().any(|(k, v)| k == label.0 && v == label.1))
        .map(|h| h.count)
        .sum()
}

/// xorshift64* schedule shared by the ingest driver.
fn schedule(seed: u64) -> impl FnMut() -> u64 {
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Synchronous path: a `ShardedEngine` with telemetry enabled and one
    /// wired with `ObsConfig::disabled()` both label byte-identically to
    /// an engine with no telemetry at all — while the enabled run's
    /// snapshot faithfully accounts for every decision.
    #[test]
    fn telemetry_never_changes_labels_sync(seed in 0u64..10_000, n in 4usize..12) {
        let fx = fixture();
        let trajs: Vec<&MappedTrajectory> = fx.trajs[..n].iter().collect();
        let total: u64 = trajs.iter().map(|t| t.len() as u64).sum();

        for shards in SHARD_COUNTS {
            let mut plain =
                ShardedEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net), shards);
            let expected = interleaved(&mut plain, &trajs, seed);

            let off = Obs::new(ObsConfig::disabled());
            let mut muted = ShardedEngine::new(
                Arc::clone(&fx.model), Arc::clone(&fx.net), shards,
            ).with_obs(&off);
            let got_off = interleaved(&mut muted, &trajs, seed);
            prop_assert!(got_off == expected, "disabled obs changed labels ({shards} shards)");
            prop_assert!(off.snapshot().is_empty(), "disabled obs recorded something");

            let obs = Obs::new(ObsConfig::enabled());
            let mut wired = ShardedEngine::new(
                Arc::clone(&fx.model), Arc::clone(&fx.net), shards,
            ).with_obs(&obs);
            let got_on = interleaved(&mut wired, &trajs, seed);
            prop_assert!(got_on == expected, "enabled obs changed labels ({shards} shards)");

            // stats() mirrors the registry; the snapshot then accounts
            // for every decision exactly once across shards.
            let stats = wired.stats();
            let snap = obs.snapshot();
            prop_assert!(!snap.is_empty());
            prop_assert_eq!(counter_sum(&snap, names::ENGINE_DECISIONS), total);
            prop_assert_eq!(counter_sum(&snap, names::ENGINE_DECISIONS), stats.observe_events);
        }
    }

    /// Async path: an `IngestEngine` with telemetry in its config delivers
    /// final labels byte-identical to one without, at every shard count —
    /// and its shutdown snapshot carries per-shard ingest counters, the
    /// submit→label histogram and per-stage spans covering every event.
    #[test]
    fn telemetry_never_changes_labels_ingest(seed in 0u64..10_000, n in 4usize..10) {
        let fx = fixture();
        let trajs = &fx.trajs[..n];
        let total: u64 = trajs.iter().map(|t| t.len() as u64).sum();

        for shards in SHARD_COUNTS {
            let mut finals: Vec<Vec<Vec<u8>>> = Vec::new();
            for obs in [Obs::disabled(), Obs::new(ObsConfig::enabled())] {
                let enabled = obs.enabled();
                let engine = IngestEngine::new(
                    Arc::clone(&fx.model),
                    Arc::clone(&fx.net),
                    shards,
                    IngestConfig {
                        flush: FlushPolicy::new(4),
                        obs: obs.clone(),
                        ..Default::default()
                    },
                );
                let handle = engine.handle();
                let mut next = schedule(seed);
                let submit = |session, seg| {
                    while handle.submit(session, seg) == Err(SubmitError::QueueFull) {
                        std::thread::yield_now();
                    }
                };
                let opened: Vec<_> = trajs
                    .iter()
                    .map(|t| handle.open(t.sd_pair().unwrap(), t.start_time).unwrap())
                    .collect();
                let mut pos = vec![0usize; trajs.len()];
                loop {
                    let mut advanced = false;
                    for (k, t) in trajs.iter().enumerate() {
                        if pos[k] < t.len() && !next().is_multiple_of(3) {
                            submit(opened[k].0, t.segments[pos[k]]);
                            pos[k] += 1;
                            advanced = true;
                        }
                    }
                    if !advanced && pos.iter().zip(trajs).all(|(&p, t)| p == t.len()) {
                        break;
                    }
                }
                finals.push(
                    opened
                        .into_iter()
                        .map(|(session, _sub)| handle.close(session).unwrap().wait().unwrap())
                        .collect(),
                );

                let report = engine.shutdown();
                prop_assert_eq!(report.ingest.flushed_events, total);
                let snap = report.obs;
                if enabled {
                    prop_assert!(!snap.is_empty());
                    prop_assert_eq!(counter_sum(&snap, names::INGEST_SUBMITTED), total);
                    prop_assert_eq!(counter_sum(&snap, names::INGEST_FLUSHED), total);
                    let latency_samples = (0..shards)
                        .map(|s| {
                            hist_count(&snap, names::INGEST_LATENCY, ("shard", &s.to_string()))
                        })
                        .sum::<u64>();
                    prop_assert!(
                        latency_samples == total,
                        "submit→label histogram lost samples: {latency_samples} != {total}"
                    );
                    // Every flush traced: the per-stage breakdown holds
                    // at least one span per executed flush.
                    prop_assert!(hist_count(&snap, names::STAGE_NANOS, ("stage", "flush")) > 0);
                    prop_assert!(
                        hist_count(&snap, names::STAGE_NANOS, ("stage", "batch_compute")) > 0
                    );
                    prop_assert!(
                        hist_count(&snap, names::STAGE_NANOS, ("stage", "label_delivery")) > 0
                    );
                    prop_assert!(
                        hist_count(&snap, names::STAGE_NANOS, ("stage", "enqueue_wait")) == total,
                        "enqueue-wait must be recorded once per event"
                    );
                } else {
                    prop_assert!(snap.is_empty(), "disabled obs recorded something");
                }
            }
            prop_assert!(
                finals[0] == finals[1],
                "telemetry changed ingest labels ({shards} shards)"
            );
        }
    }
}

/// One connection streams `trajs` as concurrent sessions through an
/// `oasd-serve` built on `obs`, returning every session's streamed and
/// final labels plus the server's shutdown report.
fn wire_run(obs: Obs, trajs: &[MappedTrajectory]) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, IngestReport) {
    let fx = fixture();
    let server = Server::start(
        Arc::clone(&fx.model),
        Arc::clone(&fx.net),
        ServerConfig {
            shards: 1,
            ingest: IngestConfig {
                obs,
                ..IngestConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback listeners");
    let mut client = Client::connect(server.wire_addr()).expect("connect");
    let mut streamed = vec![Vec::new(); trajs.len()];
    let mut finals = vec![Vec::new(); trajs.len()];
    let mut closed = 0;
    let mut take = |frame: Frame, closed: &mut usize| match frame {
        Frame::Opened { .. } => {}
        Frame::Label { session, label } => streamed[session as usize].push(label),
        Frame::Closed { session, labels } => {
            finals[session as usize] = labels;
            *closed += 1;
        }
        other => panic!("unexpected frame: {other:?}"),
    };
    for (cid, t) in trajs.iter().enumerate() {
        let sd = t.sd_pair().unwrap();
        client
            .send(&Frame::Open {
                session: cid as u64,
                tenant: 0,
                source: sd.source.0,
                dest: sd.dest.0,
                start_time: t.start_time,
                priority: 0,
            })
            .expect("open");
    }
    let longest = trajs.iter().map(|t| t.len()).max().unwrap_or(0);
    for step in 0..longest {
        for (cid, t) in trajs.iter().enumerate() {
            if let Some(seg) = t.segments.get(step) {
                client
                    .send(&Frame::Submit {
                        session: cid as u64,
                        segment: seg.0,
                    })
                    .expect("submit");
            }
        }
        while let Some(frame) = client.try_recv().expect("drain") {
            take(frame, &mut closed);
        }
    }
    for cid in 0..trajs.len() {
        client
            .send(&Frame::Close {
                session: cid as u64,
            })
            .expect("close");
    }
    while closed < trajs.len() {
        take(client.recv().expect("close results"), &mut closed);
    }
    drop(client);
    (streamed, finals, server.shutdown())
}

/// Invariant 14 over the wire: the pump's telemetry (`pump_wakeups`,
/// `label_frames`, the `pump_write` stage) changes no label, costs
/// nothing when off, and when on accounts for every label frame — with
/// at most one pump wake-up per flush, close result or hang-up.
#[test]
fn serve_pump_telemetry_is_inert_and_faithful() {
    let trajs = &fixture().trajs[..6];
    let total: u64 = trajs.iter().map(|t| t.len() as u64).sum();
    let (streamed_off, finals_off, report_off) = wire_run(Obs::disabled(), trajs);
    assert!(report_off.obs.is_empty(), "disabled obs recorded something");
    let (streamed_on, finals_on, report_on) = wire_run(Obs::new(ObsConfig::enabled()), trajs);
    assert_eq!(
        streamed_on, streamed_off,
        "telemetry changed streamed labels"
    );
    assert_eq!(finals_on, finals_off, "telemetry changed final labels");
    assert_eq!(streamed_on, finals_on, "every label was streamed");

    let snap = &report_on.obs;
    assert_eq!(counter_sum(snap, names::SERVE_LABEL_FRAMES), total);
    let wakeups = counter_sum(snap, names::SERVE_PUMP_WAKEUPS);
    assert_eq!(
        hist_count(snap, names::STAGE_NANOS, ("stage", "pump_write")),
        wakeups,
        "one pump_write span per wake-up"
    );
    assert!(wakeups >= 1);
    // One connection: a flush is one push into its sink, so the pump
    // comes back at most once per flush, per close result and for the
    // hang-up — never on a timer.
    let bound = report_on.ingest.flushes + trajs.len() as u64 + 1;
    assert!(
        wakeups <= bound,
        "{wakeups} pump wake-ups for {} flushes",
        report_on.ingest.flushes
    );
}

/// The ops-event ring wraps loss-aware: a tailer that fell behind learns
/// exactly how many events it missed, and sequence numbers stay gap-free.
#[test]
fn event_ring_wrap_reports_exact_gap() {
    let obs = Obs::new(ObsConfig {
        enabled: true,
        event_capacity: 4,
        span_capacity: 2,
        sample_capacity: 4,
    });
    for shed in 0..10 {
        obs.event(OpsEvent::BackpressureShed { shed });
    }
    // Ring holds seqs 6..=9; a tailer resuming from 0 missed 6.
    let tail = obs.tail_events(0);
    assert_eq!(tail.missed, 6);
    let seqs: Vec<u64> = tail.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![6, 7, 8, 9]);
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "sequence gap inside the ring"
    );
    // A tailer inside the retained window is loss-free.
    let caught_up = obs.tail_events(7);
    assert_eq!(caught_up.missed, 0);
    assert_eq!(caught_up.events.len(), 3);
    // The snapshot reports the lifetime total, not just the retained tail.
    assert_eq!(obs.snapshot().events_total, 10);
}

/// The span ring evicts oldest-first and counts every drop.
#[test]
fn span_ring_wrap_counts_drops() {
    let obs = Obs::new(ObsConfig {
        enabled: true,
        event_capacity: 4,
        span_capacity: 2,
        sample_capacity: 4,
    });
    let stage = obs.stage(Stage::Flush, 0);
    for _ in 0..5 {
        let span = stage.start();
        stage.finish(span);
    }
    let snap = obs.snapshot();
    assert_eq!(snap.spans.len(), 2);
    assert_eq!(snap.spans_dropped, 3);
    assert_eq!(snap.spans[0].seq, 3);
    assert_eq!(snap.spans[1].seq, 4);
    // The histogram saw all five spans even though the ring kept two.
    assert_eq!(hist_count(&snap, names::STAGE_NANOS, ("stage", "flush")), 5);
}

/// A deterministic registry: fixed counters, gauges and histogram samples
/// so the Prometheus exposition is byte-stable.
fn golden_obs() -> Obs {
    let obs = Obs::new(ObsConfig::enabled());
    obs.counter(names::INGEST_SUBMITTED, &[("shard", "0")])
        .add(128);
    obs.counter(names::INGEST_SUBMITTED, &[("shard", "1")])
        .add(64);
    obs.counter(names::INGEST_REJECTED, &[("shard", "0")])
        .add(3);
    obs.gauge(names::ENGINE_SESSIONS, &[("shard", "0"), ("tier", "hot")])
        .set(41);
    obs.gauge(
        names::ENGINE_SESSIONS,
        &[("shard", "0"), ("tier", "frozen")],
    )
    .set(7);
    obs.gauge(names::ENGINE_ARENA_BYTES, &[("shard", "0")])
        .set(65_536);
    let latency = obs.histogram(names::INGEST_LATENCY, &[("shard", "0")]);
    for nanos in [1_000, 2_000, 4_000, 8_000, 8_000, 64_000] {
        latency.record_nanos(nanos);
    }
    obs
}

/// Byte-for-byte golden-file check of the Prometheus text exposition.
/// Re-record after an intentional format change with
/// `OBS_RECORD_GOLDEN=1 cargo test --test obs prometheus`.
#[test]
fn prometheus_exposition_matches_golden_file() {
    let text = golden_obs().snapshot().to_prometheus();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt");
    if std::env::var_os("OBS_RECORD_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("record golden file");
    }
    let golden = std::fs::read_to_string(path)
        .expect("tests/golden/prometheus.txt missing; re-record with OBS_RECORD_GOLDEN=1");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from tests/golden/prometheus.txt \
         (re-record with OBS_RECORD_GOLDEN=1 if the change is intentional)"
    );
}

/// Line-by-line grammar check of the exposition: every line is either a
/// `# TYPE` declaration or `name{label="value",...} number`, names match
/// the Prometheus identifier charset, every sample's name was declared by
/// a preceding TYPE line, and the histogram summary carries its quantile
/// + `_sum` + `_count` lines.
#[test]
fn prometheus_exposition_parses_line_by_line() {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    /// Splits `name{k="v",...}` into the name and its label pairs.
    fn parse_series(s: &str) -> Option<(String, Vec<(String, String)>)> {
        let Some(open) = s.find('{') else {
            return valid_name(s).then(|| (s.to_string(), Vec::new()));
        };
        let name = &s[..open];
        let body = s.strip_suffix('}')?.get(open + 1..)?;
        if !valid_name(name) {
            return None;
        }
        let mut labels = Vec::new();
        let mut rest = body;
        while !rest.is_empty() {
            let eq = rest.find("=\"")?;
            let key = &rest[..eq];
            if !valid_name(key) {
                return None;
            }
            // Scan the quoted value, honouring \" \\ \n escapes.
            let mut value = String::new();
            let mut chars = rest[eq + 2..].char_indices();
            let close = loop {
                let (i, c) = chars.next()?;
                match c {
                    '"' => break eq + 2 + i,
                    '\\' => {
                        let (_, esc) = chars.next()?;
                        if !matches!(esc, '"' | '\\' | 'n') {
                            return None;
                        }
                        value.push(esc);
                    }
                    _ => value.push(c),
                }
            };
            labels.push((key.to_string(), value));
            rest = &rest[close + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest);
        }
        Some((name.to_string(), labels))
    }

    let text = golden_obs().snapshot().to_prometheus();
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl
                .split_once(' ')
                .unwrap_or_else(|| panic!("line {lineno}: malformed TYPE declaration: {line:?}"));
            assert!(valid_name(name), "line {lineno}: bad metric name {name:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "line {lineno}: unknown metric type {kind:?}"
            );
            declared.push((name.to_string(), kind.to_string()));
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "line {lineno}: unexpected comment {line:?}"
        );
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line {lineno}: no value separator: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "line {lineno}: unparseable sample value {value:?}"
        );
        let (name, labels) = parse_series(series)
            .unwrap_or_else(|| panic!("line {lineno}: malformed series {series:?}"));
        // Summary child series (`x_sum`, `x_count`) belong to `x`.
        let base = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| declared.iter().any(|(n, k)| n == base && k == "summary"))
            .unwrap_or(&name);
        assert!(
            declared.iter().any(|(n, _)| n == base),
            "line {lineno}: sample {name:?} has no preceding TYPE declaration"
        );
        for (key, _) in &labels {
            assert!(valid_name(key), "line {lineno}: bad label key {key:?}");
        }
        samples += 1;
    }
    assert!(samples > 0, "exposition contained no samples");
    // The histogram exported as a summary: quantiles + _sum + _count.
    for needle in ["quantile=\"0.5\"", "quantile=\"0.9\"", "quantile=\"0.99\""] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    assert!(text.contains("oasd_ingest_latency_nanos_sum{shard=\"0\"}"));
    assert!(text.contains("oasd_ingest_latency_nanos_count{shard=\"0\"} 6"));
}

/// Compile-time guard (satellite): every aggregated stats surface
/// destructures exhaustively — adding a field to `EngineStats`,
/// `IngestStats` or `IngestReport` without updating the aggregation
/// logic fails to compile *here*, with a pointer to the real sites.
#[test]
fn stats_surfaces_destructure_exhaustively() {
    // EngineStats: aggregated in `EngineStats::add_assign` — update it
    // (and the obs gauge mirror in core::engine) when this breaks.
    let EngineStats {
        sessions_opened,
        sessions_closed,
        observe_events,
        batched_events,
        batched_rounds,
        scalar_events,
        model_swaps,
        sessions_hibernated,
        sessions_rehydrated,
        resident_sessions,
        frozen_sessions,
        resident_bytes,
        frozen_bytes,
        frozen_footprint_bytes,
    } = EngineStats::default();
    let sum = sessions_opened
        + sessions_closed
        + observe_events
        + batched_events
        + batched_rounds
        + scalar_events
        + model_swaps
        + sessions_hibernated
        + sessions_rehydrated
        + resident_sessions
        + frozen_sessions
        + resident_bytes
        + frozen_bytes
        + frozen_footprint_bytes;
    assert_eq!(sum, 0, "default EngineStats must be all-zero");

    // IngestStats / IngestReport: merged in `IngestFrontDoor::shutdown`
    // and `IngestEngine::shutdown` — update those (and the worker
    // telemetry mirror in traj::ingest) when these break.
    #[allow(dead_code)]
    fn ingest_guard(stats: &IngestStats, report: &IngestReport) {
        let IngestStats {
            submitted,
            rejected_full,
            flushed_events,
            flushes,
            max_flush_batch,
            shed_events,
            quarantined_events,
            quarantined_sessions,
            worker_restarts,
            deadline_exceeded,
            latency,
        } = stats;
        let _ = (
            submitted,
            rejected_full,
            flushed_events,
            flushes,
            max_flush_batch,
            shed_events,
            quarantined_events,
            quarantined_sessions,
            worker_restarts,
            deadline_exceeded,
            latency,
        );
        let IngestReport {
            ingest,
            engine,
            shard_stats,
            decision_counts,
            epoch_stats,
            obs,
        } = report;
        let _ = (
            ingest,
            engine,
            shard_stats,
            decision_counts,
            epoch_stats,
            obs,
        );
    }
}
