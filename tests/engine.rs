//! Integration tests of the fleet-scale session engine: interleaving many
//! concurrent trajectories through `StreamEngine` must yield
//! byte-identical labels to driving each trajectory alone through the
//! per-trajectory `Rl4oasdDetector` path — and the engine must sustain the scale the
//! serving layer is built for (thousands of sessions, tens of thousands of
//! interleaved observes, batched nn ticks).

use proptest::prelude::*;
use rl4oasd_repro::prelude::*;
use std::sync::{Arc, OnceLock};

mod common;
use common::{interleaved, trained_fixture, CityKind, EngineFixture};

/// One shared trained fixture for every test in this file (training is the
/// expensive part; the properties only exercise serving).
fn fixture() -> &'static EngineFixture {
    static FIXTURE: OnceLock<EngineFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| trained_fixture(CityKind::ChengduGrid, 0xF1EE7))
}

/// Labels every trajectory alone through the per-trajectory path.
fn sequential<D: OnlineDetector>(mut det: D, trajs: &[&MappedTrajectory]) -> Vec<Vec<u8>> {
    trajs.iter().map(|t| det.label_trajectory(t)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// RL4OASD: interleaving N trajectories through the StreamEngine is
    /// byte-identical to the sequential per-trajectory path, whatever the
    /// interleaving schedule.
    #[test]
    fn stream_engine_matches_sequential(seed in 0u64..10_000, n in 2usize..24) {
        let fx = fixture();
        let trajs: Vec<&MappedTrajectory> = fx.trajs.iter().take(n).collect();
        let expected = sequential(Rl4oasdDetector::new(&fx.model, &fx.net), &trajs);
        let mut engine = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net));
        let got = interleaved(&mut engine, &trajs, seed);
        prop_assert_eq!(got, expected);
    }
}

/// The acceptance-scale run: ≥ 1,000 concurrent sessions, ≥ 10,000
/// interleaved observe calls in one process, labels identical to the
/// per-trajectory path, batched nn step used for every multi-session tick.
#[test]
fn stream_engine_sustains_fleet_scale() {
    let fx = fixture();
    // 1,000+ sessions cycling over the corpus.
    let sessions: Vec<&MappedTrajectory> = fx
        .trajs
        .iter()
        .cycle()
        .take(2_000.max(fx.trajs.len()))
        .collect();
    let expected = sequential(Rl4oasdDetector::new(&fx.model, &fx.net), &sessions);

    let mut engine = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net));
    let handles: Vec<_> = sessions
        .iter()
        .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
        .collect();
    assert!(engine.active_sessions() >= 1_000);
    assert!(
        sessions.iter().map(|t| t.len() as u64).sum::<u64>() >= 10_000,
        "fixture too small for the acceptance scale"
    );

    // Tick-synchronous: all still-active sessions advance each tick.
    let max_len = sessions.iter().map(|t| t.len()).max().unwrap();
    let mut events = Vec::new();
    let mut out = Vec::new();
    for tick in 0..max_len {
        events.clear();
        for (k, t) in sessions.iter().enumerate() {
            if tick < t.len() {
                events.push((handles[k], t.segments[tick]));
            }
        }
        engine.observe_batch(&events, &mut out);
    }
    let got: Vec<Vec<u8>> = handles.iter().map(|&h| engine.close(h)).collect();
    assert_eq!(got, expected, "fleet-scale interleaving changed labels");

    let stats = engine.stats();
    assert!(
        stats.observe_events >= 10_000,
        "only {} observe events",
        stats.observe_events
    );
    // Every tick here advances >1 session, so every event must have gone
    // through the batched nn step.
    assert_eq!(
        stats.scalar_events, 0,
        "batched nn step not used for a multi-session tick"
    );
    assert_eq!(stats.batched_events, stats.observe_events);
    assert!(stats.batched_rounds > 0);
    assert_eq!(stats.sessions_opened, handles.len() as u64);
    assert_eq!(stats.sessions_closed, handles.len() as u64);
}
