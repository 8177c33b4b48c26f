//! Shard-invariance harness for the synchronous sharded reference: a
//! `ShardedEngine` must produce **byte-identical** labels and anomaly
//! decisions to a single `StreamEngine` on the same workload, for every
//! shard count — sharding never changes behaviour. The property test
//! drives random session interleavings through shard counts 1, 2 and 8;
//! the stats tests pin the aggregation contract (engine totals = sum of
//! per-shard values = single-engine totals for workload-invariant fields).
//! The multi-core `IngestEngine` is held to the same labels in
//! `tests/ingest.rs`.

use proptest::prelude::*;
use rl4oasd::ShardedEngine;
use rl4oasd_repro::prelude::*;
use std::sync::{Arc, OnceLock};

mod common;
use common::{interleaved, trained_fixture, CityKind, EngineFixture};

/// One shared trained fixture for every test in this file (training is the
/// expensive part; the properties only exercise serving).
fn fixture() -> &'static EngineFixture {
    static FIXTURE: OnceLock<EngineFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| trained_fixture(CityKind::ChengduGrid, 0x5AAD))
}

/// The shard counts every invariance property sweeps (1 = the degenerate
/// sharded engine, 2 = minimal parallelism, 8 = more shards than the
/// bench sweep's largest tier).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// RL4OASD: for random session interleavings, the `ShardedEngine` at
    /// shard counts 1, 2 and 8 produces byte-identical labels to a single
    /// `StreamEngine` on the same schedule.
    #[test]
    fn sharded_engine_is_shard_invariant(seed in 0u64..10_000, n in 2usize..20) {
        let fx = fixture();
        let trajs: Vec<&MappedTrajectory> = fx.trajs.iter().take(n).collect();
        let mut single = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net));
        let expected = interleaved(&mut single, &trajs, seed);
        for shards in SHARD_COUNTS {
            let mut engine =
                ShardedEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net), shards);
            let got = interleaved(&mut engine, &trajs, seed);
            prop_assert!(got == expected, "shards = {} diverged", shards);
            prop_assert_eq!(engine.active_sessions(), 0);
            // Decisions, not just labels: RNEL/policy splits are identical.
            prop_assert_eq!(engine.decision_counts(), single.decision_counts());
        }
    }
}

/// Aggregated `stats()` / `decision_counts()` are exactly the sums of the
/// per-shard values, and the workload-invariant fields match a single
/// `StreamEngine` run on the same workload. (The batched/scalar event
/// split legitimately differs — shards see smaller tick slices — but the
/// total event count is conserved.)
#[test]
fn aggregated_stats_equal_per_shard_sums_and_single_engine() {
    let fx = fixture();
    let trajs: Vec<&MappedTrajectory> = fx.trajs.iter().take(30).collect();

    let mut single = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net));
    let expected = interleaved(&mut single, &trajs, 42);
    let mut engine = ShardedEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net), 4);
    let got = interleaved(&mut engine, &trajs, 42);
    assert_eq!(got, expected);

    // Aggregates are the exact field-wise sums of the per-shard stats.
    let agg = engine.stats();
    let per_shard = engine.shard_stats();
    assert_eq!(per_shard.len(), 4);
    let summed: EngineStats = per_shard.iter().copied().sum();
    assert_eq!(agg, summed);
    assert_eq!(
        agg.observe_events,
        per_shard.iter().map(|s| s.observe_events).sum::<u64>()
    );
    let (rnel, policy) = engine.decision_counts();
    let shard_counts = engine.shard_decision_counts();
    assert_eq!(rnel, shard_counts.iter().map(|c| c.0).sum::<usize>());
    assert_eq!(policy, shard_counts.iter().map(|c| c.1).sum::<usize>());

    // Workload-invariant fields match the single-engine run.
    let one = single.stats();
    assert_eq!(agg.sessions_opened, one.sessions_opened);
    assert_eq!(agg.sessions_closed, one.sessions_closed);
    assert_eq!(agg.observe_events, one.observe_events);
    assert_eq!(
        agg.batched_events + agg.scalar_events,
        one.batched_events + one.scalar_events,
        "events lost or double-counted across shards"
    );
    assert_eq!(engine.decision_counts(), single.decision_counts());
}

/// Fleet-scale smoke of the sharded path: 2,000 concurrent sessions over 8
/// shards, tick-synchronous, byte-identical to the single engine.
#[test]
fn sharded_engine_sustains_fleet_scale() {
    let fx = fixture();
    let sessions: Vec<&MappedTrajectory> = fx
        .trajs
        .iter()
        .cycle()
        .take(2_000.max(fx.trajs.len()))
        .collect();

    let mut single = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net));
    let mut engine = ShardedEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net), 8);
    let hs: Vec<_> = sessions
        .iter()
        .map(|t| single.open(t.sd_pair().unwrap(), t.start_time))
        .collect();
    let hp: Vec<_> = sessions
        .iter()
        .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
        .collect();
    assert!(engine.active_sessions() >= 1_000);

    let max_len = sessions.iter().map(|t| t.len()).max().unwrap();
    let (mut ev_s, mut ev_p) = (Vec::new(), Vec::new());
    let (mut out_s, mut out_p) = (Vec::new(), Vec::new());
    for tick in 0..max_len {
        ev_s.clear();
        ev_p.clear();
        for (k, t) in sessions.iter().enumerate() {
            if tick < t.len() {
                ev_s.push((hs[k], t.segments[tick]));
                ev_p.push((hp[k], t.segments[tick]));
            }
        }
        single.observe_batch(&ev_s, &mut out_s);
        engine.observe_batch(&ev_p, &mut out_p);
        assert_eq!(out_p, out_s, "tick {tick} labels diverged");
    }
    for (hs, hp) in hs.iter().zip(&hp) {
        assert_eq!(engine.close(*hp), single.close(*hs));
    }
    assert_eq!(engine.active_sessions(), 0);
    assert!(engine.stats().observe_events >= 10_000);
    assert_eq!(engine.decision_counts(), single.decision_counts());
}
