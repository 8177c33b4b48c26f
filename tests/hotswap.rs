//! Hot-swap equivalence harness: swapping the serving model on a live
//! engine must be invisible to every in-flight session and total for every
//! later one. For any interleaving, shard count and serving path (the
//! synchronous [`ShardedEngine`] and the async [`IngestEngine`]):
//!
//! * sessions opened **before** the swap produce label streams
//!   **byte-identical** to serving the old model alone — no event is
//!   dropped, reordered or relabelled by the swap;
//! * sessions opened **after** the swap produce label streams
//!   byte-identical to serving the new model alone;
//! * the old model's `Arc` is released the moment its last pre-swap
//!   session closes (drop-order test via `Weak`).
//!
//! Run in CI's release-mode `native` job alongside the kernel/shard/ingest
//! equivalence suites.

use proptest::prelude::*;
use rl4oasd::{IngestEngine, SwapModel};
use rl4oasd_repro::prelude::*;
use std::sync::{Arc, OnceLock};

mod common;
use common::{trained_fixture, CityKind};

struct Fixture {
    net: Arc<RoadNetwork>,
    /// The model engines start serving ("old").
    v1: Arc<TrainedModel>,
    /// The retrained model published mid-stream ("new").
    v2: Arc<TrainedModel>,
    trajs: Vec<MappedTrajectory>,
}

/// One shared two-model fixture for every test in this file (training is
/// the expensive part; the properties only exercise serving + swapping).
/// Built from the shared cross-network fixture recipe, plus a second
/// model retrained on the same corpus with different seeds.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = trained_fixture(CityKind::ChengduGrid, 0x5A7);
        let v2 = Arc::new(rl4oasd::train(
            &base.net,
            &base.ds,
            &Rl4oasdConfig::tiny(0xBEEF),
        ));
        // Guard (deterministic): the two models must actually disagree
        // somewhere, or the swap assertions below would be vacuous.
        let fx = Fixture {
            net: base.net,
            v1: base.model,
            v2,
            trajs: base.trajs,
        };
        let a = reference_labels(&fx.v1, &fx.net, &fx.trajs[..20]);
        let b = reference_labels(&fx.v2, &fx.net, &fx.trajs[..20]);
        assert_ne!(a, b, "fixture models agree everywhere; pick other seeds");
        fx
    })
}

/// The shard counts the swap properties sweep (acceptance: 1/2/8).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Per-trajectory labels of one model alone — THE reference both halves of
/// every swap test compare against (the engine contract makes the drive
/// irrelevant: single-session scalar == batched == sharded == ingest).
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

/// xorshift64* tick schedule shared by the sync and ingest drivers.
fn schedule(seed: u64) -> impl FnMut() -> u64 {
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    }
}

/// Drives a synchronous engine through a mid-stream swap: the `before`
/// trips open under the old model and advance a few irregular ticks, then
/// `swap` runs, then the `after` trips open and everything drains to
/// completion in **mixed** `observe_batch` ticks (old-epoch and new-epoch
/// sessions share ticks). Returns the final labels of both groups.
fn swap_drive_sync<E: SessionEngine>(
    engine: &mut E,
    swap: impl FnOnce(&mut E),
    before: &[MappedTrajectory],
    after: &[MappedTrajectory],
    seed: u64,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut next = schedule(seed);
    let hb: Vec<_> = before
        .iter()
        .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
        .collect();
    let mut pos_b = vec![0usize; before.len()];
    let mut out = Vec::new();
    // Phase 1: pre-swap sessions advance ~2 irregular ticks mid-trip.
    for _ in 0..2 {
        let mut events = Vec::new();
        for (k, t) in before.iter().enumerate() {
            if pos_b[k] < t.len() && !next().is_multiple_of(3) {
                events.push((hb[k], t.segments[pos_b[k]]));
                pos_b[k] += 1;
            }
        }
        if !events.is_empty() {
            engine.observe_batch(&events, &mut out);
        }
    }

    swap(engine);

    // Phase 2: post-swap sessions open and both groups drain together.
    let ha: Vec<_> = after
        .iter()
        .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
        .collect();
    let mut pos_a = vec![0usize; after.len()];
    loop {
        let mut events = Vec::new();
        for (k, t) in before.iter().enumerate() {
            if pos_b[k] < t.len() && !next().is_multiple_of(3) {
                events.push((hb[k], t.segments[pos_b[k]]));
                pos_b[k] += 1;
            }
        }
        for (k, t) in after.iter().enumerate() {
            if pos_a[k] < t.len() && !next().is_multiple_of(3) {
                events.push((ha[k], t.segments[pos_a[k]]));
                pos_a[k] += 1;
            }
        }
        if events.is_empty() {
            let done_b = pos_b.iter().zip(before).all(|(&p, t)| p == t.len());
            let done_a = pos_a.iter().zip(after).all(|(&p, t)| p == t.len());
            if done_b && done_a {
                break;
            }
            continue; // unlucky tick: nobody advanced
        }
        engine.observe_batch(&events, &mut out);
        assert_eq!(out.len(), events.len());
    }
    (
        hb.into_iter().map(|h| engine.close(h)).collect(),
        ha.into_iter().map(|h| engine.close(h)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Synchronous path: a `ShardedEngine::swap_model` between ticks gives
    /// pre-swap sessions old-model-only labels and post-swap sessions
    /// new-model-only labels, byte-identically, at every shard count.
    #[test]
    fn sharded_swap_splits_sessions_by_model(seed in 0u64..10_000, n in 4usize..12) {
        let fx = fixture();
        let trajs = &fx.trajs[..n];
        let (before, after) = trajs.split_at(n / 2);
        let expected_old = reference_labels(&fx.v1, &fx.net, before);
        let expected_new = reference_labels(&fx.v2, &fx.net, after);

        for shards in SHARD_COUNTS {
            let mut engine =
                ShardedEngine::new(Arc::clone(&fx.v1), Arc::clone(&fx.net), shards);
            let (got_old, got_new) = swap_drive_sync(
                &mut engine,
                |e: &mut ShardedEngine| e.swap_model(Arc::clone(&fx.v2)),
                before,
                after,
                seed,
            );
            prop_assert!(
                got_old == expected_old,
                "pre-swap sessions diverged from old model at {} shards", shards
            );
            prop_assert!(
                got_new == expected_new,
                "post-swap sessions diverged from new model at {} shards", shards
            );
            // Every session closed => every old epoch drained and retired.
            prop_assert!(engine
                .shard_live_model_epochs()
                .into_iter()
                .all(|live| live == 1));
            prop_assert_eq!(engine.stats().model_swaps, shards as u64);
            prop_assert!(Arc::ptr_eq(engine.model(), &fx.v2));
        }
    }

    /// Async path: `IngestHandle::swap_model` on a running `IngestEngine`
    /// takes effect for newly opened sessions without dropping, reordering
    /// or relabelling any in-flight session's events — per-session
    /// subscription streams and final labels are byte-identical to the
    /// respective single-model references, at every shard count, for both
    /// an immediate and a batching flush policy.
    #[test]
    fn ingest_swap_splits_sessions_by_model(seed in 0u64..10_000, n in 4usize..10) {
        let fx = fixture();
        let trajs = &fx.trajs[..n];
        let (before, after) = trajs.split_at(n / 2);
        let expected_old = reference_labels(&fx.v1, &fx.net, before);
        let expected_new = reference_labels(&fx.v2, &fx.net, after);

        for shards in SHARD_COUNTS {
            for policy in [
                FlushPolicy::immediate(),
                FlushPolicy::new(4),
            ] {
                let engine = IngestEngine::new(
                    Arc::clone(&fx.v1),
                    Arc::clone(&fx.net),
                    shards,
                    IngestConfig { flush: policy, ..Default::default() },
                );
                let handle = engine.handle();
                let mut next = schedule(seed);
                let submit = |session, seg| {
                    while handle.submit(session, seg) == Err(SubmitError::QueueFull) {
                        std::thread::yield_now();
                    }
                };

                let opened_b: Vec<_> = before
                    .iter()
                    .map(|t| handle.open(t.sd_pair().unwrap(), t.start_time).unwrap())
                    .collect();
                let mut pos_b = vec![0usize; before.len()];
                // Pre-swap sessions get an irregular prefix of events.
                for (k, t) in before.iter().enumerate() {
                    let prefix = (next() as usize % t.len()).min(t.len() - 1);
                    while pos_b[k] < prefix {
                        submit(opened_b[k].0, t.segments[pos_b[k]]);
                        pos_b[k] += 1;
                    }
                }

                handle.swap_model(Arc::clone(&fx.v2)).unwrap();

                let opened_a: Vec<_> = after
                    .iter()
                    .map(|t| handle.open(t.sd_pair().unwrap(), t.start_time).unwrap())
                    .collect();
                let mut pos_a = vec![0usize; after.len()];
                // Both groups drain together, irregularly interleaved.
                loop {
                    let mut advanced = false;
                    for (k, t) in before.iter().enumerate() {
                        if pos_b[k] < t.len() && !next().is_multiple_of(3) {
                            submit(opened_b[k].0, t.segments[pos_b[k]]);
                            pos_b[k] += 1;
                            advanced = true;
                        }
                    }
                    for (k, t) in after.iter().enumerate() {
                        if pos_a[k] < t.len() && !next().is_multiple_of(3) {
                            submit(opened_a[k].0, t.segments[pos_a[k]]);
                            pos_a[k] += 1;
                            advanced = true;
                        }
                    }
                    if !advanced
                        && pos_b.iter().zip(before).all(|(&p, t)| p == t.len())
                        && pos_a.iter().zip(after).all(|(&p, t)| p == t.len())
                    {
                        break;
                    }
                }

                let collect = |opened: Vec<(SessionId, traj::Subscription)>| -> Vec<(Vec<u8>, Vec<u8>)> {
                    opened
                        .into_iter()
                        .map(|(session, sub)| {
                            let finals = handle.close(session).unwrap().wait().unwrap();
                            let mut stream = Vec::new();
                            while let Some(label) = sub.recv() {
                                stream.push(label);
                            }
                            (stream, finals)
                        })
                        .collect()
                };
                let got_b = collect(opened_b);
                let got_a = collect(opened_a);
                for (k, (stream, finals)) in got_b.iter().enumerate() {
                    prop_assert!(
                        finals == &expected_old[k],
                        "pre-swap finals diverged: session {} shards {} policy {:?}",
                        k, shards, policy
                    );
                    prop_assert!(
                        stream.len() == before[k].len(),
                        "pre-swap events dropped: session {} shards {}", k, shards
                    );
                }
                for (k, (stream, finals)) in got_a.iter().enumerate() {
                    prop_assert!(
                        finals == &expected_new[k],
                        "post-swap finals diverged: session {} shards {} policy {:?}",
                        k, shards, policy
                    );
                    prop_assert_eq!(stream.len(), after[k].len());
                }

                let report = engine.shutdown();
                let total: u64 = trajs.iter().map(|t| t.len() as u64).sum();
                prop_assert_eq!(report.ingest.submitted, total);
                prop_assert!(report.ingest.flushed_events == total, "swap dropped events");
                prop_assert_eq!(report.engine.observe_events, total);
                prop_assert_eq!(report.engine.sessions_closed, trajs.len() as u64);
                prop_assert_eq!(report.engine.model_swaps, shards as u64);
            }
        }
    }
}

/// Drop order: the engine holds the old model only through its epoch
/// bookkeeping, so once the last pre-swap session closes, the old model's
/// `Arc` strong count hits zero — observable through a `Weak` that stops
/// upgrading. (The new model must *not* be released.)
#[test]
fn old_model_arc_released_when_last_preswap_session_closes() {
    let fx = fixture();
    // A private clone of v1 so this test owns the only strong handles.
    let old = Arc::new(TrainedModel::clone(&fx.v1));
    let old_weak = Arc::downgrade(&old);
    let mut engine = StreamEngine::new(old, Arc::clone(&fx.net));

    let t1 = &fx.trajs[0];
    let t2 = &fx.trajs[1];
    let s1 = engine.open(t1.sd_pair().unwrap(), t1.start_time);
    let s2 = engine.open(t2.sd_pair().unwrap(), t2.start_time);
    engine.observe(s1, t1.segments[0]);
    engine.observe(s2, t2.segments[0]);

    engine.swap_model(Arc::clone(&fx.v2));
    assert_eq!(engine.live_model_epochs(), 2);
    assert!(
        old_weak.upgrade().is_some(),
        "old model freed while pre-swap sessions still run"
    );

    engine.close(s1);
    assert!(
        old_weak.upgrade().is_some(),
        "old model freed before its last session closed"
    );
    engine.close(s2);
    assert!(
        old_weak.upgrade().is_none(),
        "old model not released by its last pre-swap close"
    );
    assert_eq!(engine.live_model_epochs(), 1);

    // The serving model is untouched; new sessions keep working.
    let s3 = engine.open(t1.sd_pair().unwrap(), t1.start_time);
    for &seg in &t1.segments {
        engine.observe(s3, seg);
    }
    assert_eq!(engine.close(s3).len(), t1.len());
}

/// Repeated swaps on a busy engine never accumulate epochs beyond the
/// drain set, and sessions spanning several swaps stay on their opening
/// model throughout.
#[test]
fn repeated_swaps_drain_cleanly() {
    let fx = fixture();
    let trajs = &fx.trajs[..6];
    let expected_old = reference_labels(&fx.v1, &fx.net, trajs);
    let mut engine = StreamEngine::new(Arc::clone(&fx.v1), Arc::clone(&fx.net));
    let handles: Vec<_> = trajs
        .iter()
        .map(|t| engine.open(t.sd_pair().unwrap(), t.start_time))
        .collect();
    // Sessions opened under v1 survive v2 -> v1 -> v2 swap churn.
    for k in 0..3 {
        let m = if k % 2 == 0 { &fx.v2 } else { &fx.v1 };
        engine.swap_model(Arc::clone(m));
        assert_eq!(
            engine.live_model_epochs(),
            2,
            "idle intermediate epochs must retire at swap"
        );
    }
    let mut out = Vec::new();
    let max_len = trajs.iter().map(|t| t.len()).max().unwrap();
    for tick in 0..max_len {
        let events: Vec<_> = trajs
            .iter()
            .enumerate()
            .filter(|(_, t)| tick < t.len())
            .map(|(k, t)| (handles[k], t.segments[tick]))
            .collect();
        engine.observe_batch(&events, &mut out);
    }
    let got: Vec<Vec<u8>> = handles.into_iter().map(|h| engine.close(h)).collect();
    assert_eq!(got, expected_old, "swap churn changed in-flight labels");
    assert_eq!(engine.stats().model_swaps, 3);
    assert_eq!(engine.live_model_epochs(), 1);
}
