//! `hotswap` — serving cost of zero-downtime model hot-swap, written to
//! `BENCH_hotswap.json`.
//!
//! Drives a live [`rl4oasd::IngestEngine`] with closed-loop producers
//! while a publisher thread hot-swaps the serving
//! model through [`rl4oasd::SwapModel::swap_model`], and reports sustained
//! points/sec + p50/p99 submit→label latency per mode:
//!
//! * `baseline` — no swaps (the front door's own cost for this config);
//! * `swap_Nms` — a prebuilt second model republished every N ms: measures
//!   the pure swap overhead (queue broadcast + flush-boundary apply +
//!   epoch bookkeeping) at an absurdly hot cadence;
//! * `fine_tune_live` — the drift-adaptation closed loop: an
//!   [`rl4oasd::OnlineLearner`] fine-tunes on recorded trips in the
//!   publisher thread and publishes each refreshed snapshot into the
//!   running engine (swap cadence = fine-tune duration).
//!
//! Every row also records how many swaps were applied (per shard) during
//! the run. The invariant half of the story — swaps never change any
//! in-flight session's labels — is `tests/hotswap.rs`; this bin measures
//! that the freedom is close to free.
//!
//! ```text
//! cargo run --release -p bench_suite --bin hotswap [-- out.json]
//! ```

use obs::{Obs, ObsConfig, Snapshot};
use rl4oasd::{
    train, IngestEngine, OnlineLearner, Rl4oasdConfig, StreamEngine, SwapModel, TrainedModel,
};
use rnet::{CityBuilder, CityConfig, RoadNetwork};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj::{
    Dataset, FlushPolicy, IngestConfig, IngestHandle, MappedTrajectory, SubmitError, Subscription,
    TrafficConfig, TrafficSimulator,
};

#[derive(Serialize)]
struct Row {
    mode: String,
    sessions: usize,
    shards: usize,
    producers: usize,
    points: u64,
    seconds: f64,
    points_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    swaps_per_shard: u64,
    queue_full_retries: u64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    city: String,
    hidden_dim: usize,
    host_cores: usize,
    max_batch: usize,
    /// Final telemetry snapshot of the last row (swap events + spans
    /// included).
    obs: Snapshot,
    results: Vec<Row>,
}

struct Lane {
    session: traj::SessionId,
    sub: Subscription,
    traj: usize,
    pos: usize,
}

fn open_lane(
    handle: &IngestHandle<StreamEngine>,
    trajs: &[MappedTrajectory],
    next_traj: &mut usize,
) -> Lane {
    let ti = *next_traj % trajs.len();
    *next_traj += 1;
    let (session, sub) = loop {
        match handle.open(
            trajs[ti].sd_pair().expect("non-empty"),
            trajs[ti].start_time,
        ) {
            Ok(opened) => break opened,
            Err(SubmitError::QueueFull) => std::thread::yield_now(),
            Err(SubmitError::ShutDown) => panic!("front door closed mid-benchmark"),
            Err(e) => panic!("unexpected open error: {e}"),
        }
    };
    Lane {
        session,
        sub,
        traj: ti,
        pos: 0,
    }
}

/// Closed-loop producer: `lanes` concurrent trips, one point per lane per
/// round, recycling finished trips.
fn produce(
    handle: IngestHandle<StreamEngine>,
    trajs: Arc<Vec<MappedTrajectory>>,
    lanes: usize,
    first_traj: usize,
    total: Arc<AtomicU64>,
    min_points: u64,
) -> u64 {
    let mut next_traj = first_traj;
    let mut open: Vec<Lane> = (0..lanes)
        .map(|_| open_lane(&handle, &trajs, &mut next_traj))
        .collect();
    let mut retries = 0u64;
    let mut sink = Vec::new();
    while total.load(Ordering::Relaxed) < min_points {
        for lane in open.iter_mut() {
            sink.clear();
            lane.sub.drain_into(&mut sink);
            let segment = trajs[lane.traj].segments[lane.pos];
            loop {
                match handle.submit(lane.session, segment) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull) => {
                        retries += 1;
                        sink.clear();
                        lane.sub.drain_into(&mut sink);
                        std::thread::yield_now();
                    }
                    Err(SubmitError::ShutDown) => return retries,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            total.fetch_add(1, Ordering::Relaxed);
            lane.pos += 1;
            if lane.pos == trajs[lane.traj].len() {
                let closed = std::mem::replace(lane, open_lane(&handle, &trajs, &mut next_traj));
                wait_close(&handle, closed);
            }
        }
    }
    for lane in open {
        wait_close(&handle, lane);
    }
    retries
}

fn wait_close(handle: &IngestHandle<StreamEngine>, lane: Lane) {
    let ticket = loop {
        match handle.close(lane.session) {
            Ok(ticket) => break ticket,
            Err(SubmitError::QueueFull) => std::thread::yield_now(),
            Err(SubmitError::ShutDown) => return,
            Err(e) => panic!("unexpected close error: {e}"),
        }
    };
    ticket.wait().unwrap();
}

/// What the publisher thread does while the producers hammer the engine.
enum Publisher {
    None,
    /// Republish prebuilt models alternately every `period`.
    Alternate {
        period: Duration,
    },
    /// Fine-tune an [`OnlineLearner`] on `recent` and publish each
    /// snapshot as soon as it is ready (cadence = fine-tune duration).
    FineTune {
        recent: Dataset,
    },
}

#[allow(clippy::too_many_arguments)]
fn measure(
    mode: &str,
    v1: &Arc<TrainedModel>,
    v2: &Arc<TrainedModel>,
    net: &Arc<RoadNetwork>,
    trajs: &Arc<Vec<MappedTrajectory>>,
    sessions: usize,
    shards: usize,
    min_points: u64,
    config: IngestConfig,
    publisher: Publisher,
) -> (Row, Snapshot) {
    let engine = IngestEngine::new(Arc::clone(v1), Arc::clone(net), shards, config);
    let producers = sessions.min(4);
    let per = sessions.div_ceil(producers);
    let total = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let swapper = {
        let handle = engine.handle();
        let stop = Arc::clone(&stop);
        let (v1, v2) = (Arc::clone(v1), Arc::clone(v2));
        let net = Arc::clone(net);
        match publisher {
            Publisher::None => None,
            Publisher::Alternate { period } => Some(std::thread::spawn(move || {
                let mut flip = false;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    let next = if flip { &v1 } else { &v2 };
                    flip = !flip;
                    if handle.swap_model(Arc::clone(next)).is_err() {
                        break;
                    }
                }
            })),
            Publisher::FineTune { recent } => Some(std::thread::spawn(move || {
                let mut learner = OnlineLearner::new(TrainedModel::clone(&v1));
                while !stop.load(Ordering::Relaxed) {
                    learner.fine_tune(&net, &recent);
                    if handle.swap_model(Arc::new(learner.model.clone())).is_err() {
                        break;
                    }
                }
            })),
        }
    };

    let t0 = Instant::now();
    let joins: Vec<_> = (0..producers)
        .filter_map(|p| {
            let lanes = per.min(sessions.saturating_sub(p * per));
            if lanes == 0 {
                return None;
            }
            let handle = engine.handle();
            let trajs = Arc::clone(trajs);
            let total = Arc::clone(&total);
            Some(std::thread::spawn(move || {
                produce(handle, trajs, lanes, p * 31, total, min_points)
            }))
        })
        .collect();
    let retries: u64 = joins.into_iter().map(|j| j.join().expect("producer")).sum();
    let seconds = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    if let Some(swapper) = swapper {
        swapper.join().expect("publisher thread");
    }
    let report = engine.shutdown();

    let points = report.ingest.submitted;
    let lat = &report.ingest.latency;
    let us = |q: f64| lat.percentile(q).as_secs_f64() * 1e6;
    let row = Row {
        mode: mode.to_string(),
        sessions,
        shards,
        producers,
        points,
        seconds,
        points_per_sec: points as f64 / seconds.max(1e-12),
        p50_us: us(0.50),
        p99_us: us(0.99),
        swaps_per_shard: report.engine.model_swaps / shards as u64,
        queue_full_retries: retries,
    };
    (row, report.obs)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotswap.json".to_string());

    eprintln!("building city + training two model generations (one-time setup)...");
    let net = CityBuilder::new(CityConfig::chengdu_like()).build();
    let sim = TrafficSimulator::new(
        &net,
        TrafficConfig {
            num_sd_pairs: 10,
            trajs_per_pair: (50, 80),
            ..TrafficConfig::default()
        },
    );
    let train_set = Dataset::from_generated(&sim.generate());
    let config = Rl4oasdConfig {
        joint_trajs: 200,
        pretrain_trajs: 100,
        ..Rl4oasdConfig::default()
    };
    let v1 = Arc::new(train(&net, &train_set, &config));
    let v2 = Arc::new(train(
        &net,
        &train_set,
        &Rl4oasdConfig {
            seed: config.seed ^ 0x5A11AD,
            ..config.clone()
        },
    ));
    // Pre-pack both generations: the bench measures swap cost, not the
    // one-time packing either model would pay on its first epoch anyway.
    v1.packed();
    v2.packed();
    let trajs: Arc<Vec<MappedTrajectory>> = Arc::new(
        train_set
            .trajectories
            .iter()
            .filter(|t| !t.is_empty())
            .take(200)
            .cloned()
            .collect(),
    );
    // A small "recorded" slice for the live fine-tune mode: big enough to
    // be a real fine-tune, small enough to publish several times per run.
    let recent = train_set.filter(|t| t.id.0 < 40);
    let net = Arc::new(net);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let ingest_config = IngestConfig {
        flush: FlushPolicy::new(128),
        queue_capacity: 512,
        outbox_capacity: 256,
        obs: Obs::disabled(),
    };
    // Small rings keep the embedded snapshot a readable size in the JSON.
    let obs_rings = ObsConfig {
        enabled: true,
        event_capacity: 64,
        span_capacity: 64,
        sample_capacity: 64,
    };

    let sessions = 10_000usize;
    let min_points = 200_000u64;
    let mut results = Vec::new();
    let mut snapshot = Snapshot::default();
    for shards in [1usize, 4] {
        for (mode, publisher) in [
            ("baseline", Publisher::None),
            (
                "swap_50ms",
                Publisher::Alternate {
                    period: Duration::from_millis(50),
                },
            ),
            (
                "fine_tune_live",
                Publisher::FineTune {
                    recent: recent.clone(),
                },
            ),
        ] {
            // Fresh telemetry per row so shard-labelled series don't
            // bleed across configurations.
            let (row, snap) = measure(
                mode,
                &v1,
                &v2,
                &net,
                &trajs,
                sessions,
                shards,
                min_points,
                IngestConfig {
                    obs: Obs::new(obs_rings.clone()),
                    ..ingest_config.clone()
                },
                publisher,
            );
            snapshot = snap;
            eprintln!(
                "{:>15} x {} shards: {:>8} points in {:>7.3}s = {:>9.0} points/sec | \
                 p50 {:>8.0}us p99 {:>8.0}us | {} swaps/shard, {} retries",
                row.mode,
                row.shards,
                row.points,
                row.seconds,
                row.points_per_sec,
                row.p50_us,
                row.p99_us,
                row.swaps_per_shard,
                row.queue_full_retries,
            );
            results.push(row);
        }
    }

    let report = Report {
        bench: "model_hotswap".to_string(),
        city: "Chengdu-sim".to_string(),
        hidden_dim: config.hidden_dim,
        host_cores,
        max_batch: ingest_config.flush.max_batch,
        obs: snapshot,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json).expect("write BENCH_hotswap.json");
    eprintln!("wrote {out_path}");
}
