//! `scenarios` — the city-scale scenario soak, written to
//! `BENCH_scenarios.json`.
//!
//! Runs the standard six-regime scenario battery
//! ([`scenario::standard_suite`]) on **both** synthetic cities (the
//! Chengdu-like grid and the Porto-like radial network), replaying every
//! `(seed, spec)` trace through the async ingest front door at a fixed
//! flush policy and cross-checking the labels against the synchronous
//! sharded path (the replay-determinism invariant, enforced here on every
//! soak run, not just in tests). Reported per row: detection quality
//! (segment-level precision/recall/F1 plus the paper's span-level F1)
//! against the scenario's own ground truth, p50/p99 submit→label latency
//! from the door's HDR histogram, shed counts and the trace digest.
//!
//! ```text
//! cargo run --release -p bench_suite --bin scenarios [-- [--smoke] [out.json]]
//! ```
//!
//! `--smoke` shrinks to the tiny worlds and short traces for CI; the full
//! run uses the paper-scale city presets.

use obs::{Obs, ObsConfig, Snapshot};
use rl4oasd::Rl4oasdConfig;
use scenario::{Backpressure, Driver, EventTrace, NetworkKind, ScenarioRunner, World};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use traj::FlushPolicy;

#[derive(Serialize)]
struct Row {
    scenario: String,
    network: String,
    seed: u64,
    digest: String,
    sessions: usize,
    events: u64,
    rejected: u64,
    precision: f64,
    recall: f64,
    f1: f64,
    span_f1: f64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    seconds: f64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    mode: String,
    ticks: u32,
    arrivals_per_tick: f64,
    shards: usize,
    max_batch: usize,
    queue_capacity: usize,
    host_cores: usize,
    /// Events/sec of the first trace replayed with telemetry on vs the
    /// same trace through an un-instrumented runner.
    obs_on_events_per_sec: f64,
    obs_off_events_per_sec: f64,
    /// `(1 - on/off) · 100` — positive means telemetry cost throughput.
    obs_overhead_pct: f64,
    /// Cumulative telemetry snapshot over the whole soak (both cities).
    obs: Snapshot,
    results: Vec<Row>,
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_scenarios.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }

    let (ticks, arrivals, shards, seed) = if smoke {
        (48u32, 0.5f64, 2usize, 0x5CEA_2026u64)
    } else {
        (240u32, 1.5f64, 4usize, 0x5CEA_2026u64)
    };
    let flush = FlushPolicy::new(64);
    let queue_capacity = 512;

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results = Vec::new();

    // One telemetry spine across the whole soak; small rings keep the
    // snapshot embedded in the JSON a readable size.
    let obs = Obs::new(ObsConfig {
        enabled: true,
        event_capacity: 64,
        span_capacity: 64,
        sample_capacity: 64,
    });
    let mut obs_on_events_per_sec = 0.0f64;
    let mut obs_off_events_per_sec = 0.0f64;

    for kind in [NetworkKind::ChengduGrid, NetworkKind::PortoRadial] {
        eprintln!("[{}] building world + training model...", kind.label());
        let world = if smoke {
            World::tiny(kind, seed)
        } else {
            World::city(kind, seed)
        };
        let train_cfg = if smoke {
            Rl4oasdConfig::tiny(seed)
        } else {
            Rl4oasdConfig {
                joint_trajs: 200,
                pretrain_trajs: 100,
                ..Rl4oasdConfig::default()
            }
        };
        let model = Arc::new(world.train(&train_cfg));
        let runner = ScenarioRunner::new(Arc::clone(&model), Arc::clone(&world.net)).with_obs(&obs);

        for spec in scenario::standard_suite(kind, ticks, arrivals) {
            let trace = EventTrace::generate(&world, &spec, seed);
            let driver = Driver::Ingest {
                shards,
                flush,
                queue_capacity,
                backpressure: Backpressure::Retry,
            };
            let t0 = Instant::now();
            let out = runner.run(&trace, &driver);
            let seconds = t0.elapsed().as_secs_f64();

            if results.is_empty() {
                // Telemetry-overhead probe on the first trace: alternate
                // un-instrumented and instrumented replays, best of 3
                // each, so warm-up and scheduler noise cancel out of the
                // recorded number. The instrumented replays record into
                // their own throwaway spine so the soak snapshot below
                // only covers the actual soak rows.
                let plain = ScenarioRunner::new(Arc::clone(&model), Arc::clone(&world.net));
                let probe_obs = Obs::new(ObsConfig {
                    enabled: true,
                    event_capacity: 64,
                    span_capacity: 64,
                    sample_capacity: 64,
                });
                let wired = ScenarioRunner::new(Arc::clone(&model), Arc::clone(&world.net))
                    .with_obs(&probe_obs);
                for _ in 0..3 {
                    let t = Instant::now();
                    let off = plain.run(&trace, &driver);
                    let off_rate = off.events as f64 / t.elapsed().as_secs_f64().max(1e-12);
                    obs_off_events_per_sec = obs_off_events_per_sec.max(off_rate);
                    let t = Instant::now();
                    let on = wired.run(&trace, &driver);
                    let on_rate = on.events as f64 / t.elapsed().as_secs_f64().max(1e-12);
                    obs_on_events_per_sec = obs_on_events_per_sec.max(on_rate);
                    assert_eq!(
                        out.labels, off.labels,
                        "un-instrumented replay diverged in `{}`",
                        spec.name
                    );
                    assert_eq!(
                        out.labels, on.labels,
                        "telemetry changed labels in `{}`",
                        spec.name
                    );
                }
            }

            // Replay-determinism cross-check: the sync sharded path must
            // emit byte-identical labels for the same trace.
            let sync = runner.run(&trace, &Driver::Sync { shards });
            assert_eq!(
                out.labels,
                sync.labels,
                "ingest/sync label divergence in `{}` on {}",
                spec.name,
                kind.label()
            );

            let conf = out.confusion();
            let span = out.span_metrics();
            let us = |q: f64| out.latency.percentile(q).as_secs_f64() * 1e6;
            let row = Row {
                scenario: spec.name.clone(),
                network: kind.label().to_string(),
                seed,
                digest: format!("{:016x}", trace.digest()),
                sessions: out.sessions,
                events: out.events,
                rejected: out.rejected,
                precision: conf.precision(),
                recall: conf.recall(),
                f1: conf.f1(),
                span_f1: span.f1,
                p50_us: us(0.50),
                p99_us: us(0.99),
                mean_us: out.latency.mean().as_secs_f64() * 1e6,
                seconds,
            };
            eprintln!(
                "[{}] {:<22} {:>5} sessions {:>7} events | P {:.3} R {:.3} F1 {:.3} \
                 (span {:.3}) | p50 {:>7.0}us p99 {:>7.0}us | {:.2}s",
                row.network,
                row.scenario,
                row.sessions,
                row.events,
                row.precision,
                row.recall,
                row.f1,
                row.span_f1,
                row.p50_us,
                row.p99_us,
                row.seconds,
            );
            results.push(row);
        }
    }

    // Every replay records through the shared spine, so an empty
    // snapshot after a soak means the telemetry wiring came apart.
    let snapshot = obs.snapshot();
    assert!(
        !snapshot.is_empty(),
        "telemetry snapshot is empty after the soak"
    );
    let obs_overhead_pct =
        (1.0 - obs_on_events_per_sec / obs_off_events_per_sec.max(1e-12)) * 100.0;
    eprintln!(
        "telemetry overhead: {obs_on_events_per_sec:.0} (on) vs {obs_off_events_per_sec:.0} (off) \
         events/sec = {obs_overhead_pct:+.2}%",
    );

    let report = Report {
        bench: "scenario_soak".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        ticks,
        arrivals_per_tick: arrivals,
        shards,
        max_batch: flush.max_batch,
        queue_capacity,
        host_cores,
        obs_on_events_per_sec,
        obs_off_events_per_sec,
        obs_overhead_pct,
        obs: snapshot,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json).expect("write BENCH_scenarios.json");
    eprintln!("wrote {out_path}");
}
