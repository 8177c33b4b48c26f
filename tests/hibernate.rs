//! Hibernation equivalence harness: freezing idle sessions into the cold
//! tier and thawing them on their next event must be **invisible** in every
//! label the system emits. For any interleaving, any freeze/thaw schedule
//! (including the adversarial freeze-every-tick policy), any shard count
//! and both serving paths (the synchronous [`ShardedEngine`] and the async
//! [`IngestEngine`]):
//!
//! * label streams and final labels are **byte-identical** to a
//!   never-hibernated engine on the same workload;
//! * a frozen session keeps its model epoch alive exactly like a hot one
//!   (drop-order test via `Weak`), so hibernation composes with hot-swap;
//! * closing a frozen session works (thaw + finish) and the memory-tier
//!   gauges always account for every open session, in exactly one tier.
//!
//! Run in CI's release-mode jobs alongside the shard/ingest/hot-swap
//! equivalence suites (with `-C debug-assertions` so the frozen-arena
//! bounds checks stay armed in release).

use proptest::prelude::*;
use rl4oasd_repro::prelude::*;
use std::sync::{Arc, OnceLock};

mod common;
use common::{interleaved, trained_fixture, CityKind, EngineFixture};

/// One shared fixture for every test in this file (training is the
/// expensive part; the properties only exercise serving + freeze/thaw).
fn fixture() -> &'static EngineFixture {
    static FIXTURE: OnceLock<EngineFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| trained_fixture(CityKind::ChengduGrid, 0xC01D))
}

/// The shard counts the hibernation properties sweep (acceptance: 1/2/8).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Per-trajectory labels of a never-hibernated scalar engine — THE
/// reference every hibernating drive below compares against.
fn reference_labels(
    model: &Arc<TrainedModel>,
    net: &Arc<RoadNetwork>,
    trajs: &[MappedTrajectory],
) -> Vec<Vec<u8>> {
    let mut engine = StreamEngine::new(Arc::clone(model), Arc::clone(net));
    trajs
        .iter()
        .map(|t| {
            let h = engine.open(t.sd_pair().unwrap(), t.start_time);
            for &seg in &t.segments {
                engine.observe(h, seg);
            }
            engine.close(h)
        })
        .collect()
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
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Synchronous path: for random interleavings and random hibernation
    /// policies — including `idle_ticks == 0 && sweep_every == 1`, which
    /// freezes every hot session at every tick — a hibernating
    /// `ShardedEngine` produces labels byte-identical to the
    /// never-hibernated reference at every shard count.
    #[test]
    fn hibernation_never_changes_labels_sync(
        seed in 0u64..10_000,
        n in 4usize..12,
        idle_ticks in 0u64..6,
        sweep_every in 1u64..4,
    ) {
        let fx = fixture();
        let trajs: Vec<&MappedTrajectory> = fx.trajs[..n].iter().collect();
        let expected = reference_labels(&fx.model, &fx.net, &fx.trajs[..n]);
        let cfg = HibernationConfig { idle_ticks, sweep_every };

        for shards in SHARD_COUNTS {
            let mut engine =
                ShardedEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net), shards)
                    .with_hibernation(cfg);
            let got = interleaved(&mut engine, &trajs, seed);
            prop_assert!(
                got == expected,
                "hibernation changed labels: {} shards, policy {:?}", shards, cfg
            );
            let stats = engine.stats();
            // Every freeze must thaw by the time all sessions closed.
            prop_assert_eq!(stats.sessions_hibernated, stats.sessions_rehydrated);
            if idle_ticks == 0 {
                prop_assert!(
                    stats.sessions_hibernated > 0,
                    "freeze-at-every-sweep schedule never froze anything"
                );
            }
        }
    }

    /// Async path: an `IngestEngine` built with the adversarial
    /// freeze-every-tick policy (sessions also swept at every flush
    /// boundary via `maintain`) delivers per-session subscription streams
    /// and final labels byte-identical to the never-hibernated reference,
    /// for every shard count, for both an immediate and a batching flush
    /// policy.
    #[test]
    fn hibernation_never_changes_labels_ingest(seed in 0u64..10_000, n in 4usize..10) {
        let fx = fixture();
        let trajs = &fx.trajs[..n];
        let expected = reference_labels(&fx.model, &fx.net, trajs);

        for shards in SHARD_COUNTS {
            for policy in [
                FlushPolicy::immediate(),
                FlushPolicy::new(4),
            ] {
                let engine = IngestEngine::with_hibernation(
                    Arc::clone(&fx.model),
                    Arc::clone(&fx.net),
                    shards,
                    IngestConfig { flush: policy, ..Default::default() },
                    HibernationConfig::freeze_every_tick(),
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

                for (k, (session, sub)) in opened.into_iter().enumerate() {
                    let finals = handle.close(session).unwrap().wait().unwrap();
                    prop_assert!(
                        finals == expected[k],
                        "finals diverged: session {} shards {} policy {:?}",
                        k, shards, policy
                    );
                    let mut stream = Vec::new();
                    while let Some(label) = sub.recv() {
                        stream.push(label);
                    }
                    prop_assert!(
                        stream.len() == trajs[k].len(),
                        "hibernation dropped events: session {} shards {}", k, shards
                    );
                }

                let report = engine.shutdown();
                let total: u64 = trajs.iter().map(|t| t.len() as u64).sum();
                prop_assert_eq!(report.ingest.flushed_events, total);
                prop_assert_eq!(report.engine.observe_events, total);
                prop_assert!(
                    report.engine.sessions_hibernated > 0,
                    "flush-boundary sweeps never froze a session"
                );
                prop_assert_eq!(
                    report.engine.sessions_hibernated,
                    report.engine.sessions_rehydrated
                );
                // All decisions were served by the single construction
                // epoch (satellite: per-epoch counters in the report).
                prop_assert_eq!(report.epoch_stats.len(), 1);
                prop_assert_eq!(report.epoch_stats[0].decisions, total);
            }
        }
    }
}

/// Drop order under hibernation: a frozen session must keep its pre-swap
/// model alive exactly like a hot one (its epoch id survives in the frozen
/// blob's prefix, outside the payload), and closing the frozen session —
/// thaw + finish — releases the old model's `Arc`.
#[test]
fn frozen_sessions_pin_their_model_until_closed() {
    let fx = fixture();
    // A private clone of the model so this test owns the only strong
    // handles to the "old" weights.
    let old = Arc::new(TrainedModel::clone(&fx.model));
    let old_weak = Arc::downgrade(&old);
    let mut engine = StreamEngine::new(old, Arc::clone(&fx.net))
        .with_hibernation(HibernationConfig::freeze_every_tick());

    let t = &fx.trajs[0];
    let s = engine.open(t.sd_pair().unwrap(), t.start_time);
    engine.observe(s, t.segments[0]); // end of tick: s freezes
    assert_eq!(engine.stats().frozen_sessions, 1, "schedule never froze");

    engine.swap_model(Arc::clone(&fx.model));
    assert!(
        old_weak.upgrade().is_some(),
        "old model freed while a frozen session still runs on it"
    );

    // Closing the frozen session thaws it on the old model and finishes.
    let labels = engine.close(s);
    assert_eq!(labels.len(), 1);
    assert!(
        old_weak.upgrade().is_none(),
        "old model not released when its last (frozen) session closed"
    );
}

/// Under the default (non-adversarial) policy, a session that goes quiet
/// while others keep streaming is hibernated by the tick sweep, and its
/// labels after rehydration continue exactly where they left off.
#[test]
fn idle_sessions_hibernate_under_default_policy_and_resume_exactly() {
    let fx = fixture();
    let quiet = fx.trajs.iter().find(|t| t.len() >= 3).unwrap();
    let busy = &fx.trajs[1];

    // Never-hibernated reference for the quiet session.
    let mut plain = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net));
    let hp = plain.open(quiet.sd_pair().unwrap(), quiet.start_time);
    for &seg in &quiet.segments {
        plain.observe(hp, seg);
    }
    let expected = plain.close(hp);

    let cfg = HibernationConfig::default();
    let mut engine =
        StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.net)).with_hibernation(cfg);
    let hq = engine.open(quiet.sd_pair().unwrap(), quiet.start_time);
    engine.observe(hq, quiet.segments[0]);

    // The busy session streams long enough for the quiet one to pass the
    // idle TTL and get swept at a tick boundary.
    let hb = engine.open(busy.sd_pair().unwrap(), busy.start_time);
    let ticks = (cfg.idle_ticks + 2 * cfg.sweep_every) as usize;
    for i in 0..ticks {
        engine.observe(hb, busy.segments[i % busy.len()]);
    }
    let stats = engine.stats();
    assert_eq!(stats.frozen_sessions, 1, "idle session was not swept");
    assert_eq!(stats.resident_sessions, 1);
    assert!(stats.frozen_bytes > 0);
    assert!(stats.frozen_footprint_bytes >= stats.frozen_bytes);

    // Rehydration is transparent: the quiet session resumes mid-trip and
    // finishes byte-identical to the never-hibernated reference.
    for &seg in &quiet.segments[1..] {
        engine.observe(hq, seg);
    }
    assert_eq!(engine.close(hq), expected, "rehydrated session diverged");
    assert!(engine.stats().sessions_rehydrated >= 1);
    engine.close(hb);
}
