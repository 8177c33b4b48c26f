//! `faults` — the fault-injection chaos drill, written to
//! `BENCH_faults.json`.
//!
//! Replays one scenario trace through the **supervised** ingest front door
//! under each fault class ([`scenario::Fault`]) and a seeded mixed plan,
//! next to a fault-free baseline through the same shape. Reported per
//! row: delivered throughput, p50/p99 submit→label latency, labels lost
//! to quarantine, shed/quarantined event accounting, worker restarts,
//! recovery time (MTTR in scenario ticks) and whether degraded-mode
//! admission control engaged.
//!
//! Two invariants are **asserted** on every run, not just reported:
//!
//! * zero loss outside the blast radius — sessions without a terminal
//!   fault must produce labels byte-identical to the baseline replay;
//! * exact accounting — `submitted == flushed + shed + quarantined` after
//!   every drill.
//!
//! ```text
//! cargo run --release -p bench_suite --bin faults [-- [--smoke] [out.json]]
//! ```
//!
//! `--smoke` shrinks to the tiny world and a short trace for CI's chaos
//! step; the full run uses the city-scale preset.

use rl4oasd::Rl4oasdConfig;
use scenario::{
    Backpressure, Driver, EventTrace, Fault, FaultPlan, NetworkKind, RunOutcome, ScenarioRunner,
    ScenarioSpec, World,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use traj::FlushPolicy;

#[derive(Serialize)]
struct Row {
    fault_class: String,
    shards: usize,
    queue_capacity: usize,
    sessions: usize,
    delivered: u64,
    events_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    labels_lost: u64,
    quarantined_events: u64,
    shed_events: u64,
    worker_restarts: u64,
    /// Scenario ticks from panic injection to full restart; `None` for
    /// classes that never kill a worker.
    mttr_ticks: Option<u64>,
    degraded_entered: bool,
    seconds: f64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    mode: String,
    network: String,
    seed: u64,
    ticks: u32,
    arrivals_per_tick: f64,
    shards: usize,
    max_batch: usize,
    queue_capacity: usize,
    host_cores: usize,
    baseline_events_per_sec: f64,
    results: Vec<Row>,
}

/// One drill per fault class: `(class, plan, queue_capacity)`. The
/// degraded-admission drill pairs a long stall with a capacity-1 queue so
/// the rejection streak crosses the degraded watermark (256 consecutive
/// `QueueFull`s at a backoff capped at 2 ms needs a stall of ~400 ms).
fn plans(ticks: u32, seed: u64, queue_capacity: usize) -> Vec<(&'static str, FaultPlan, usize)> {
    let mid = ticks / 3;
    vec![
        ("baseline", FaultPlan::none(), queue_capacity),
        (
            "poison",
            FaultPlan {
                faults: vec![Fault::Poison {
                    at_tick: mid,
                    victims: 3,
                }],
            },
            queue_capacity,
        ),
        (
            "worker_panic",
            FaultPlan {
                faults: vec![Fault::WorkerPanic { at_tick: mid }],
            },
            queue_capacity,
        ),
        (
            "queue_stall",
            FaultPlan {
                faults: vec![Fault::QueueStall {
                    at_tick: mid,
                    millis: 20,
                }],
            },
            queue_capacity,
        ),
        (
            "slow_shard",
            FaultPlan {
                faults: vec![Fault::SlowShard {
                    from_tick: mid,
                    every: 4,
                    micros: 400,
                }],
            },
            queue_capacity,
        ),
        (
            "degraded_admission",
            FaultPlan {
                faults: vec![Fault::QueueStall {
                    at_tick: mid,
                    millis: 600,
                }],
            },
            1,
        ),
        ("seeded_mix", FaultPlan::seeded(seed, ticks), queue_capacity),
    ]
}

/// Sessions without a terminal fault must match the baseline labels
/// byte-for-byte — the zero-loss assertion of the drill.
fn assert_zero_loss(out: &scenario::FaultOutcome, baseline: &RunOutcome, class: &str) {
    for (id, fault) in out.faults.iter().enumerate() {
        if fault.is_none() {
            assert_eq!(
                out.labels[id], baseline.labels[id],
                "[{class}] session {id} outside the blast radius diverged"
            );
        }
    }
    assert_eq!(
        out.labels_lost(),
        out.faults.iter().filter(|f| f.is_some()).count() as u64,
        "[{class}] labels_lost out of step with the fault ledger"
    );
    assert!(
        out.accounting_exact(),
        "[{class}] accounting leak: submitted={} flushed={} shed={} quarantined={}",
        out.ingest.submitted,
        out.ingest.flushed_events,
        out.ingest.shed_events,
        out.ingest.quarantined_events
    );
}

fn main() {
    traj::silence_injected_panic_output();
    let mut smoke = false;
    let mut out_path = "BENCH_faults.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }

    let seed = 0xFA17_2026u64;
    let kind = NetworkKind::ChengduGrid;
    let (ticks, arrivals, shards) = if smoke {
        (48u32, 0.8f64, 2usize)
    } else {
        (240u32, 1.5f64, 4usize)
    };
    let flush = FlushPolicy::new(64);
    let queue_capacity = 256;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

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
    let runner = ScenarioRunner::new(Arc::clone(&model), Arc::clone(&world.net));

    let spec = ScenarioSpec {
        name: "fault_drill".into(),
        network: kind,
        ticks,
        arrivals_per_tick: arrivals,
        regimes: Vec::new(),
    };
    let trace = EventTrace::generate(&world, &spec, seed);

    // Fault-free reference labels through the same ingest shape under
    // lossless retry — the byte-identity yardstick for every drill.
    let baseline = runner.run(
        &trace,
        &Driver::Ingest {
            shards,
            flush,
            queue_capacity,
            backpressure: Backpressure::Retry,
        },
    );
    let mut baseline_events_per_sec = 0.0f64;

    let mut results = Vec::new();
    for (class, plan, capacity) in plans(trace.ticks.len() as u32, seed, queue_capacity) {
        let t0 = Instant::now();
        let out = runner.run_supervised(&trace, shards, flush, capacity, &plan);
        let seconds = t0.elapsed().as_secs_f64();
        assert_zero_loss(&out, &baseline, class);

        let events_per_sec = out.delivered as f64 / seconds.max(1e-12);
        if class == "baseline" {
            baseline_events_per_sec = events_per_sec;
            assert_eq!(out.labels_lost(), 0, "the baseline drill must lose nothing");
        }
        if class == "degraded_admission" {
            assert!(
                out.degraded_entered,
                "the capacity-1 stall drill must cross the degraded watermark"
            );
        }
        let us = |q: f64| out.ingest.latency.percentile(q).as_secs_f64() * 1e6;
        let row = Row {
            fault_class: class.to_string(),
            shards,
            queue_capacity: capacity,
            sessions: out.sessions,
            delivered: out.delivered,
            events_per_sec,
            p50_us: us(0.50),
            p99_us: us(0.99),
            labels_lost: out.labels_lost(),
            quarantined_events: out.ingest.quarantined_events,
            shed_events: out.ingest.shed_events,
            worker_restarts: out.worker_restarts,
            mttr_ticks: out.mttr_ticks,
            degraded_entered: out.degraded_entered,
            seconds,
        };
        eprintln!(
            "[{:<12}] {:>5} sessions {:>7} events | {:>9.0} ev/s p99 {:>7.0}us | \
             lost {:>3} restarts {:>2} mttr {:?} | {:.2}s",
            row.fault_class,
            row.sessions,
            row.delivered,
            row.events_per_sec,
            row.p99_us,
            row.labels_lost,
            row.worker_restarts,
            row.mttr_ticks,
            row.seconds,
        );
        results.push(row);
    }

    let report = Report {
        bench: "fault_drill".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        network: kind.label().to_string(),
        seed,
        ticks,
        arrivals_per_tick: arrivals,
        shards,
        max_batch: flush.max_batch,
        queue_capacity,
        host_cores,
        baseline_events_per_sec,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json).expect("write BENCH_faults.json");
    eprintln!("wrote {out_path}");
}
