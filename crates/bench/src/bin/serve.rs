//! `serve` — over-the-wire serving throughput + latency, written to
//! `BENCH_serve.json`.
//!
//! Stands up a loopback `oasd-serve` server (wire + ops listeners over
//! the ingest front door) and drives it with the serve crate's load
//! generator: `connections` concurrent TCP clients, each multiplexing
//! `sessions_per_conn` trip sessions, each session streaming
//! `points_per_session` road-segment events. Reported per row: sustained
//! points/sec **and p50/p99 submit→label latency measured at the
//! client** — the full round trip through encode → TCP → decode →
//! ingress queue → micro-batch flush → label sink → TCP → decode, i.e.
//! what a remote producer actually experiences, unlike
//! `BENCH_ingest.json`'s in-process histogram.
//!
//! The client pipelines with a bounded window: each session keeps at
//! most 8 submits in flight (draining non-blockingly between sends and
//! blocking when the window fills), so the latency percentiles measure
//! submit→label under sustained load as a producer with finite
//! buffering experiences it — not unbounded queue depth.
//!
//! ```text
//! cargo run --release -p bench_suite --bin serve [-- out.json]
//! ```

use obs::{Obs, ObsConfig, Snapshot};
use rl4oasd::{train, Rl4oasdConfig};
use rnet::{CityBuilder, CityConfig};
use serde::Serialize;
use serve::{run_load, LoadSpec, Server, ServerConfig};
use std::sync::Arc;
use traj::{Dataset, FlushPolicy, IngestConfig, TrafficConfig, TrafficSimulator};

#[derive(Serialize)]
struct Row {
    connections: usize,
    sessions_per_conn: usize,
    sessions: u64,
    points_per_session: usize,
    shards: usize,
    labels_streamed: u64,
    seconds: f64,
    points_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    faults: u64,
    opens_rejected: u64,
    accounting_exact: bool,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    city: String,
    host_cores: usize,
    max_batch: usize,
    queue_capacity: usize,
    /// Final telemetry snapshot of the largest row (serve counters +
    /// ingest histograms).
    obs: Snapshot,
    results: Vec<Row>,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    eprintln!("building city + training model (one-time setup)...");
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
    let model = Arc::new(train(&net, &train_set, &config));
    let net = Arc::new(net);
    let num_segments = net.num_segments() as u32;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let flush = FlushPolicy::new(128);
    let queue_capacity = 512;
    // Small rings keep the embedded snapshot a readable size in the JSON.
    let obs_rings = ObsConfig {
        enabled: true,
        event_capacity: 64,
        span_capacity: 64,
        sample_capacity: 64,
    };

    let mut results = Vec::new();
    let mut snapshot = Snapshot::default();
    for (connections, sessions_per_conn, shards) in [(1, 25, 1), (4, 25, 1), (4, 25, 4), (8, 50, 4)]
    {
        // Fresh server (and telemetry) per row so counters don't bleed
        // across configurations.
        let server = Server::start(
            Arc::clone(&model),
            Arc::clone(&net),
            ServerConfig {
                shards,
                ingest: IngestConfig {
                    flush,
                    queue_capacity,
                    obs: Obs::new(obs_rings.clone()),
                    ..IngestConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback serve listeners");
        let points_per_session = 60;
        let load = run_load(
            server.wire_addr(),
            LoadSpec {
                connections,
                sessions_per_conn,
                points_per_session,
                tenant: 0,
                num_segments,
            },
        );
        let report = server.shutdown();
        let stats = &report.ingest;
        let accounting_exact =
            stats.submitted == stats.flushed_events + stats.shed_events + stats.quarantined_events;
        snapshot = report.obs;

        let seconds = load.elapsed.as_secs_f64();
        let us = |q: f64| load.latency.percentile(q).as_secs_f64() * 1e6;
        let row = Row {
            connections,
            sessions_per_conn,
            sessions: load.sessions_opened,
            points_per_session,
            shards,
            labels_streamed: load.labels_streamed,
            seconds,
            points_per_sec: load.labels_streamed as f64 / seconds.max(1e-12),
            p50_us: us(0.50),
            p99_us: us(0.99),
            mean_us: load.latency.mean().as_secs_f64() * 1e6,
            faults: load.faults,
            opens_rejected: load.opens_rejected,
            accounting_exact,
        };
        eprintln!(
            "{:>2} conns x {:>3} sessions x {} shards: {:>7} labels in {:>6.2}s = \
             {:>8.0} points/sec | wire p50 {:>7.0}us p99 {:>7.0}us | accounting {}",
            row.connections,
            row.sessions_per_conn,
            row.shards,
            row.labels_streamed,
            row.seconds,
            row.points_per_sec,
            row.p50_us,
            row.p99_us,
            if row.accounting_exact {
                "exact"
            } else {
                "BROKEN"
            },
        );
        assert!(row.accounting_exact, "serve accounting broke");
        assert_eq!(row.faults, 0, "unexpected wire faults");
        results.push(row);
    }

    let report = Report {
        bench: "serve_wire".to_string(),
        city: "Chengdu-sim".to_string(),
        host_cores,
        max_batch: flush.max_batch,
        queue_capacity,
        obs: snapshot,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json).expect("write BENCH_serve.json");
    eprintln!("wrote {out_path}");
}
