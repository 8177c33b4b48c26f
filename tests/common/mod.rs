//! Shared drivers and fixtures for the session-engine integration tests:
//! the same interleaving schedule must be replayable against different
//! engines (single, sharded) so cross-file equivalence claims
//! compare the exact same workload — and the same fixture recipe must be
//! buildable on either city generator so every suite can run
//! cross-network.

// Each integration-test binary compiles this module independently and
// uses a different subset of it; what one binary leaves unused another
// depends on.
#![allow(dead_code)]

use rl4oasd_repro::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Parks every shard worker behind `handle` inside a control command
/// until the returned gate is set: whatever is enqueued meanwhile is all
/// sitting in the ingress queues when the workers resume. (The door has
/// no timer to out-wait, so this is how a test keeps events pending.)
pub fn hold_workers<E: SessionEngine + 'static>(handle: &IngestHandle<E>) -> Arc<AtomicBool> {
    let gate = Arc::new(AtomicBool::new(false));
    let hold = Arc::clone(&gate);
    handle
        .control(move |_engine: &mut E| {
            while !hold.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        })
        .expect("door is open");
    gate
}

/// Which synthetic city a fixture is built on. Test suites default to the
/// Chengdu-like grid; the scenario suite sweeps both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityKind {
    /// The paper's Chengdu-like imperfect grid.
    ChengduGrid,
    /// The Porto-like ring-and-spoke radial city.
    PortoRadial,
}

/// Builds the tiny test-scale network of the given kind.
pub fn build_city(kind: CityKind, seed: u64) -> RoadNetwork {
    match kind {
        CityKind::ChengduGrid => CityBuilder::new(CityConfig::tiny(seed)).build(),
        CityKind::PortoRadial => RadialCityBuilder::new(RadialCityConfig::tiny(seed)).build(),
    }
}

/// A trained serving fixture: network, model and a pool of non-empty
/// trajectories — the recipe every engine-equivalence suite shares,
/// parameterised by the network handle so any suite can run on either
/// city.
pub struct EngineFixture {
    pub net: Arc<RoadNetwork>,
    pub model: Arc<TrainedModel>,
    /// The training corpus (kept so suites can train variant models on
    /// the exact same data).
    pub ds: Dataset,
    pub trajs: Vec<MappedTrajectory>,
}

/// Builds the standard trained fixture on `kind` with the given seed:
/// 4 SD pairs × 50–70 trajectories at 15% anomaly ratio, trained with
/// `Rl4oasdConfig::tiny(seed)`.
pub fn trained_fixture(kind: CityKind, seed: u64) -> EngineFixture {
    let net = build_city(kind, seed);
    let cfg = TrafficConfig {
        num_sd_pairs: 4,
        trajs_per_pair: (50, 70),
        anomaly_ratio: 0.15,
        ..TrafficConfig::tiny(seed)
    };
    let ds = Dataset::from_generated(&TrafficSimulator::new(&net, cfg).generate());
    let model = Arc::new(rl4oasd::train(&net, &ds, &Rl4oasdConfig::tiny(seed)));
    let trajs: Vec<MappedTrajectory> = ds
        .trajectories
        .iter()
        .filter(|t| !t.is_empty())
        .cloned()
        .collect();
    EngineFixture {
        net: Arc::new(net),
        model,
        ds,
        trajs,
    }
}

/// Drives the trajectories through an engine with a deterministic but
/// irregular interleaving: each tick advances a seed-dependent subset of
/// the still-active sessions via `observe_batch` (so ticks mix batch sizes
/// 1, 2, ... n), then closes everything. Identical schedule for identical
/// seeds, so two engines fed the same seed see the same workload.
pub fn interleaved<E: SessionEngine>(
    engine: &mut E,
    trajs: &[&MappedTrajectory],
    schedule_seed: u64,
) -> Vec<Vec<u8>> {
    let handles: Vec<_> = trajs
        .iter()
        .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
        .collect();
    let mut pos = vec![0usize; trajs.len()];
    let mut rng = schedule_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        // xorshift64* — self-contained schedule randomness
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut events = Vec::new();
    let mut out = Vec::new();
    loop {
        events.clear();
        for (k, t) in trajs.iter().enumerate() {
            // ~2/3 of active sessions advance each tick; stragglers catch
            // up on later ticks, so ticks interleave trips at different
            // positions.
            if pos[k] < t.len() && next() % 3 != 0 {
                events.push((handles[k], t.segments[pos[k]]));
                pos[k] += 1;
            }
        }
        if events.is_empty() {
            if pos.iter().zip(trajs).all(|(&p, t)| p == t.len()) {
                break;
            }
            continue; // unlucky tick: nobody advanced
        }
        engine.observe_batch(&events, &mut out);
        assert_eq!(out.len(), events.len());
    }
    handles.into_iter().map(|h| engine.close(h)).collect()
}
