//! Fleet monitoring: the paper's motivating scenario at fleet scale — a
//! ride-hailing operator watches *many* live trips at once and spots each
//! driver the moment their trajectory starts to deviate.
//!
//! Demonstrates the *async ingestion* path end-to-end: GPS points do not
//! arrive in neat ticks, they arrive one at a time from many gateway
//! connections. Here several **producer threads** each monitor a slice of
//! the fleet, submitting every point through a cloned
//! [`traj::IngestHandle`] into an [`rl4oasd::IngestEngine`] — one
//! `StreamEngine` shard per available core behind one shared trained
//! model, each shard owned by a persistent worker thread that
//! group-commits arrivals into batched LSTM ticks ([`traj::FlushPolicy`]:
//! whatever is queued, up to 64 events, flushed the moment the queue is
//! empty). Labels stream back on per-session subscriptions: the
//! producer raises a deviation alert the moment the first anomalous label
//! arrives, while the trip is still in progress. Labels are bit-identical
//! to running each trip alone through `Rl4oasdDetector`, whatever the
//! shard count or flush policy.
//!
//! Run with: `cargo run --release --example fleet_monitoring`

use rl4oasd_repro::prelude::*;
use rnet::{CityBuilder, CityConfig};
use std::sync::Arc;
use std::time::Instant;

/// One producer thread: feeds its slice of the fleet point-by-point,
/// watching subscriptions for the first anomalous label of each trip.
/// Returns `(trip index, final labels)` for every trip it served.
fn produce(
    handle: IngestHandle<StreamEngine>,
    trips: Arc<Vec<MappedTrajectory>>,
    mine: Vec<usize>,
) -> Vec<(usize, Vec<u8>)> {
    struct Lane {
        trip: usize,
        session: traj::SessionId,
        sub: traj::Subscription,
        received: usize,
        alerted: bool,
    }

    // Open a session per owned trip.
    let mut lanes: Vec<Lane> = mine
        .iter()
        .map(|&k| {
            let t = &trips[k];
            let (session, sub) = handle
                .open(t.sd_pair().expect("non-empty"), t.start_time)
                .expect("fleet fits the front door");
            Lane {
                trip: k,
                session,
                sub,
                received: 0,
                alerted: false,
            }
        })
        .collect();

    let alert = |trip: &MappedTrajectory, tick: usize, label: u8, alerted: &mut bool| {
        if label == 1 && !*alerted {
            println!(
                "  !! tick {tick:>3}: deviation alert for trip {:?} (live)",
                trip.id
            );
            *alerted = true;
        }
    };

    // Submit one point per trip per round (the simulated GPS cadence),
    // draining labels as they stream back.
    let max_len = mine.iter().map(|&k| trips[k].len()).max().unwrap_or(0);
    for tick in 0..max_len {
        for lane in lanes.iter_mut() {
            let t = &trips[lane.trip];
            if tick < t.len() {
                // Backpressure: wait politely instead of shedding points.
                while handle.submit(lane.session, t.segments[tick]) == Err(SubmitError::QueueFull) {
                    std::thread::yield_now();
                }
            }
            while let Some(label) = lane.sub.try_recv() {
                lane.received += 1;
                alert(t, tick, label, &mut lane.alerted);
            }
        }
    }

    // Every point is submitted, but the last micro-batches may still be in
    // flight: wait out the remaining labels (a worker flushes as soon as
    // its queue is empty) so no live alert is lost, then close.
    lanes
        .into_iter()
        .map(|mut lane| {
            let t = &trips[lane.trip];
            while lane.received < t.len() {
                match lane.sub.recv() {
                    Some(label) => {
                        lane.received += 1;
                        alert(t, t.len() - 1, label, &mut lane.alerted);
                    }
                    None => break,
                }
            }
            let labels = handle
                .close(lane.session)
                .expect("close accepted")
                .wait()
                .expect("session healthy");
            (lane.trip, labels)
        })
        .collect()
}

fn main() {
    let net = CityBuilder::new(CityConfig::chengdu_like()).build();
    let sim = TrafficSimulator::new(
        &net,
        TrafficConfig {
            num_sd_pairs: 15,
            trajs_per_pair: (80, 120),
            ..Default::default()
        },
    );
    let generated = sim.generate();
    let train = Dataset::from_generated(&generated);
    println!("training on {} historical trips...", train.len());
    let model = rl4oasd::train(
        &net,
        &train,
        &Rl4oasdConfig {
            joint_trajs: 800,
            ..Default::default()
        },
    );

    // The fleet: a batch of live trips sharing the route families, with
    // detours forced so the demo has something to alert on.
    let live = Dataset::from_generated(&sim.generate_from_pairs(&generated.pairs, (2, 3), 0.5, 7));
    let trips: Arc<Vec<MappedTrajectory>> = Arc::new(
        live.trajectories
            .iter()
            .filter(|t| !t.is_empty())
            .cloned()
            .collect(),
    );

    // The async front door: one StreamEngine shard per core behind one
    // shared immutable model, persistent workers, 64-event / 2 ms flushes.
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = rl4oasd::IngestEngine::new(
        Arc::new(model),
        Arc::new(net),
        shards,
        IngestConfig {
            flush: FlushPolicy::new(64),
            ..Default::default()
        },
    );
    let producers = 4usize.min(trips.len().max(1));
    println!(
        "\nmonitoring {} concurrent trips: {} producer threads -> {} shard worker(s)\n",
        trips.len(),
        producers,
        engine.num_shards()
    );

    // Producer threads: each owns an interleaved slice of the fleet.
    let t0 = Instant::now();
    let joins: Vec<_> = (0..producers)
        .map(|p| {
            let handle = engine.handle();
            let trips = Arc::clone(&trips);
            let mine: Vec<usize> = (p..trips.len()).step_by(producers).collect();
            std::thread::spawn(move || produce(handle, trips, mine))
        })
        .collect();
    let mut final_labels: Vec<(usize, Vec<u8>)> = joins
        .into_iter()
        .flat_map(|j| j.join().expect("producer thread"))
        .collect();
    final_labels.sort_by_key(|&(k, _)| k);
    let serve_seconds = t0.elapsed().as_secs_f64();
    let report = engine.shutdown();

    // Compare the flagged spans with ground truth.
    let mut hits = 0usize;
    let mut flagged = 0usize;
    for (k, labels) in &final_labels {
        let spans = traj::extract_subtrajectories(labels);
        let truth_spans = traj::extract_subtrajectories(live.truth(trips[*k].id).unwrap());
        if !spans.is_empty() {
            flagged += 1;
        }
        if !truth_spans.is_empty() && !spans.is_empty() {
            hits += 1;
        }
    }
    let total_points = report.ingest.submitted;
    println!(
        "\n  {} of {} trips flagged ({} with a true detour detected)",
        flagged,
        trips.len(),
        hits
    );
    println!(
        "  served {total_points} points in {:.3}s = {:.0} points/sec",
        serve_seconds,
        total_points as f64 / serve_seconds.max(1e-12)
    );
    println!(
        "  micro-batches: {} flushes, largest {} events; batched nn events: {}, scalar: {}",
        report.ingest.flushes,
        report.ingest.max_flush_batch,
        report.engine.batched_events,
        report.engine.scalar_events
    );
    let lat = &report.ingest.latency;
    println!(
        "  submit->label latency: p50 {:.0} us, p99 {:.0} us, max {:.1} ms (paper: < 0.1 ms compute/point)",
        lat.percentile(0.50).as_secs_f64() * 1e6,
        lat.percentile(0.99).as_secs_f64() * 1e6,
        lat.max().as_secs_f64() * 1e3
    );
}
