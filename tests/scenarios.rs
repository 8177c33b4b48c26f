//! Scenario-engine replay determinism and regime edge cases.
//!
//! The contract under test (ARCHITECTURE.md invariant 13): a scenario is
//! a pure function of `(seed, spec)` — two generations are byte-identical
//! — and replaying the same trace through the sync sharded path or the
//! async ingest front door, at any shard count and flush policy, yields
//! byte-identical final labels. The file also mirrors the grid network
//! invariants (A* reachability, spatial-index round-trip, shard-count
//! invariance) on the Porto-style radial city.

mod common;

use common::{interleaved, trained_fixture, CityKind, EngineFixture};
use proptest::prelude::*;
use rl4oasd_repro::prelude::*;
use rnet::NodeId;
use std::sync::{Arc, OnceLock};

/// Trained scenario fixture per network kind, shared across tests.
struct ScenarioFixture {
    world: World,
    model: Arc<TrainedModel>,
}

fn fixture(kind: NetworkKind) -> &'static ScenarioFixture {
    static GRID: OnceLock<ScenarioFixture> = OnceLock::new();
    static RADIAL: OnceLock<ScenarioFixture> = OnceLock::new();
    let (cell, seed) = match kind {
        NetworkKind::ChengduGrid => (&GRID, 0x5CE4_0001u64),
        NetworkKind::PortoRadial => (&RADIAL, 0x5CE4_0002u64),
    };
    cell.get_or_init(|| {
        let world = World::tiny(kind, seed);
        let model = Arc::new(world.train(&Rl4oasdConfig::tiny(seed)));
        ScenarioFixture { world, model }
    })
}

fn runner(fx: &ScenarioFixture) -> ScenarioRunner {
    ScenarioRunner::new(Arc::clone(&fx.model), Arc::clone(&fx.world.net))
}

/// A short spec with no regimes, used as the base for edge-case variants.
fn base_spec(kind: NetworkKind, ticks: u32) -> ScenarioSpec {
    ScenarioSpec {
        name: "edge_case".into(),
        network: kind,
        ticks,
        arrivals_per_tick: 0.6,
        regimes: Vec::new(),
    }
}

fn anomalous_mass(truth: &[Vec<u8>]) -> usize {
    truth
        .iter()
        .map(|t| t.iter().filter(|&&l| l == 1).count())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite 1 — the replay-determinism property: any `(seed, spec)`
    /// from the standard suite on either network generates byte-identical
    /// traces across two runs, and replays to byte-identical labels across
    /// the sync driver at 1/2/8 shards and the ingest driver at 1/2/8
    /// shards under two flush policies.
    #[test]
    fn replay_is_byte_identical_across_runs_and_drivers(
        seed in 0u64..1000,
        scenario in 0usize..6,
        kind_idx in 0usize..2,
    ) {
        let kind = if kind_idx == 1 {
            NetworkKind::PortoRadial
        } else {
            NetworkKind::ChengduGrid
        };
        let fx = fixture(kind);
        let spec = standard_suite(kind, 48, 0.5).swap_remove(scenario);

        let trace = EventTrace::generate(&fx.world, &spec, seed);
        let again = EventTrace::generate(&fx.world, &spec, seed);
        prop_assert_eq!(trace.digest(), again.digest());
        prop_assert_eq!(&trace, &again);

        let runner = runner(fx);
        let reference = runner.run(&trace, &Driver::Sync { shards: 1 });
        prop_assert_eq!(&reference.truth, &trace.truth);
        prop_assert_eq!(reference.sessions, trace.sessions as usize);
        for shards in [2usize, 8] {
            let out = runner.run(&trace, &Driver::Sync { shards });
            prop_assert_eq!(&out.labels, &reference.labels);
        }
        for shards in [1usize, 2, 8] {
            for flush in [
                FlushPolicy::immediate(),
                FlushPolicy::new(4),
            ] {
                let out = runner.run(
                    &trace,
                    &Driver::Ingest {
                        shards,
                        flush,
                        queue_capacity: 1024,
                        backpressure: Backpressure::Retry,
                    },
                );
                prop_assert_eq!(&out.labels, &reference.labels);
                prop_assert_eq!(&out.truth, &trace.truth);
                prop_assert_eq!(out.rejected, 0);
            }
        }
    }
}

/// Satellite 2a — a total dropout burst every tick drops every point: the
/// trace carries zero events, every session is zero-length, and both
/// drivers close all of them cleanly with empty labels.
#[test]
fn total_dropout_yields_zero_length_sessions_on_both_drivers() {
    let kind = NetworkKind::ChengduGrid;
    let fx = fixture(kind);
    let mut spec = base_spec(kind, 40);
    spec.regimes.push(Regime::Dropout {
        period: 1,
        burst_len: 1,
        drop_prob: 1.0,
    });
    let trace = EventTrace::generate(&fx.world, &spec, 0xD20);
    assert!(trace.sessions > 0, "arrivals must still open sessions");
    assert_eq!(trace.events, 0, "every point must be dropped");
    assert!(trace.truth.iter().all(|t| t.is_empty()));

    let runner = runner(fx);
    for driver in [
        Driver::Sync { shards: 2 },
        Driver::Ingest {
            shards: 2,
            flush: FlushPolicy::immediate(),
            queue_capacity: 64,
            backpressure: Backpressure::Retry,
        },
    ] {
        let out = runner.run(&trace, &driver);
        assert_eq!(out.sessions, trace.sessions as usize);
        assert_eq!(out.events, 0);
        assert!(
            out.labels.iter().all(|l| l.is_empty()),
            "zero-length sessions must close with empty labels"
        );
    }
}

/// Satellite 2b — an incident window covering the whole trace: a
/// near-zero MTTH fires the incident immediately and its duration outlasts
/// the trace, so one SD pair detours for the entire run. The trace must
/// carry more anomalous mass than the regime-free control, and the two
/// drivers must still agree byte-for-byte.
#[test]
fn incident_window_covering_whole_trace_replays_identically() {
    let kind = NetworkKind::PortoRadial;
    let fx = fixture(kind);
    let mut spec = base_spec(kind, 60);
    spec.regimes.push(Regime::Incidents {
        mtth: 0.001,
        duration: u32::MAX,
        cooldown: 0,
        detour_prob: 1.0,
    });
    let trace = EventTrace::generate(&fx.world, &spec, 0x1C1);
    let control = EventTrace::generate(&fx.world, &base_spec(kind, 60), 0x1C1);
    assert!(
        anomalous_mass(&trace.truth) > anomalous_mass(&control.truth),
        "a whole-trace incident must force extra detours"
    );

    let runner = runner(fx);
    let sync = runner.run(&trace, &Driver::Sync { shards: 2 });
    let ingest = runner.run(
        &trace,
        &Driver::Ingest {
            shards: 2,
            flush: FlushPolicy::new(4),
            queue_capacity: 256,
            backpressure: Backpressure::Retry,
        },
    );
    assert_eq!(sync.labels, ingest.labels);
    assert_eq!(sync.truth, ingest.truth);
}

/// Satellite 2c — arrival waves exceeding the ingress queue: a standing
/// 25-sessions/tick wave against a capacity-2 queue, which the producer
/// (a submit costs well under a microsecond) outruns by construction
/// (labelling a point costs the worker several). The door must report explicit
/// `QueueFull` backpressure — counted as shed events — and the run must
/// terminate with per-session labels exactly covering the accepted
/// events. No hang, no lost accounting.
#[test]
fn arrival_wave_overflow_reports_explicit_backpressure() {
    let kind = NetworkKind::ChengduGrid;
    let fx = fixture(kind);
    let mut spec = base_spec(kind, 30);
    spec.regimes.push(Regime::ArrivalWave {
        period: 4,
        offset: 0,
        len: 4,
        peak: 25.0,
    });
    let trace = EventTrace::generate(&fx.world, &spec, 0xF100D);
    assert!(
        trace.events > 1_000,
        "the wave must actually flood the door"
    );

    let out = runner(fx).run(
        &trace,
        &Driver::Ingest {
            shards: 1,
            flush: FlushPolicy::new(1_000_000),
            queue_capacity: 2,
            backpressure: Backpressure::Shed,
        },
    );
    assert!(
        out.rejected > 0,
        "a capacity-2 queue under a 25x wave must shed; got {} rejected of {}",
        out.rejected,
        trace.events
    );
    assert_eq!(out.events + out.rejected, trace.events);
    assert_eq!(out.labels.len(), trace.sessions as usize);
    for (labels, truth) in out.labels.iter().zip(&out.truth) {
        assert_eq!(
            labels.len(),
            truth.len(),
            "labels must cover exactly the accepted events"
        );
    }
}

/// Satellite 2c (control) — the same overload replayed under
/// `Backpressure::Retry` loses nothing and still matches the sync path:
/// backpressure is a delivery policy, not a correctness leak.
#[test]
fn arrival_wave_overflow_under_retry_matches_sync() {
    let kind = NetworkKind::ChengduGrid;
    let fx = fixture(kind);
    let mut spec = base_spec(kind, 20);
    spec.regimes.push(Regime::ArrivalWave {
        period: 4,
        offset: 0,
        len: 4,
        peak: 15.0,
    });
    let trace = EventTrace::generate(&fx.world, &spec, 0xF100E);
    let runner = runner(fx);
    let sync = runner.run(&trace, &Driver::Sync { shards: 1 });
    let out = runner.run(
        &trace,
        &Driver::Ingest {
            shards: 1,
            flush: FlushPolicy::immediate(),
            queue_capacity: 2,
            backpressure: Backpressure::Retry,
        },
    );
    assert_eq!(out.rejected, 0);
    assert_eq!(out.events, trace.events);
    assert_eq!(out.labels, sync.labels);
}

// ---------------------------------------------------------------------
// Satellite 3 — Porto-network invariants mirroring the grid suites.
// ---------------------------------------------------------------------

/// Every sampled node pair on the radial city is A*-reachable in both
/// directions (the grid version of this lives in `tests/edge_cases.rs`).
#[test]
fn porto_astar_reachability_both_directions() {
    let net = common::build_city(CityKind::PortoRadial, 0x9027);
    let n = net.num_nodes() as u32;
    assert!(n > 20);
    for step in [1u32, 3, 7] {
        for t in (step..n).step_by(5) {
            let fwd = rnet::astar(&net, NodeId(0), NodeId(t));
            let back = rnet::astar(&net, NodeId(t), NodeId(0));
            assert!(fwd.is_some(), "node {t} unreachable from the centre");
            assert!(back.is_some(), "centre unreachable from node {t}");
        }
    }
}

/// Spatial-index round-trip on the radial city: querying a point on a
/// segment's own geometry finds that segment at ~zero distance.
#[test]
fn porto_segment_index_round_trip() {
    let net = common::build_city(CityKind::PortoRadial, 0x9027);
    let index = rnet::SegmentIndex::build(&net, 80.0);
    for seg in net.segments().iter().step_by(3) {
        let p = seg.geometry[seg.geometry.len() / 2];
        let hits = index.candidates(&net, &p, 5.0);
        assert!(
            hits.iter()
                .any(|c| c.segment == seg.id && c.distance < 1e-6),
            "index lost segment {:?}",
            seg.id
        );
    }
}

/// Shard-count invariance holds on the Porto network too: the shared
/// fixture (satellite 4) trains on the radial city and the interleaved
/// schedule labels identically at 1, 2 and 8 shards.
#[test]
fn porto_engine_labels_are_shard_count_invariant() {
    static FIXTURE: OnceLock<EngineFixture> = OnceLock::new();
    let fx = FIXTURE.get_or_init(|| trained_fixture(CityKind::PortoRadial, 0x9027_0004));
    let trajs: Vec<&MappedTrajectory> = fx.trajs.iter().take(24).collect();
    let mut single = ShardedEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net), 1);
    let expected = interleaved(&mut single, &trajs, 0x5EED);
    for shards in [2usize, 8] {
        let mut engine = ShardedEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net), shards);
        let got = interleaved(&mut engine, &trajs, 0x5EED);
        assert_eq!(got, expected, "labels diverged at {shards} shards");
    }
}
