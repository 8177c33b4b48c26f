//! The two in-process workloads: `engine_single` (one open session at a
//! time, scalar `observe`) and `engine_fleet` (tick replay through
//! `observe_batch` with thousands of sessions open). Both drive one
//! `StreamEngine` through the `SessionEngine` trait and nothing else.

use crate::alloc;
use crate::inputs::{Checker, Fixture, Inputs};
use crate::refkernel::Normaliser;
use crate::spans::{SpanLog, NO_PARENT, NO_SESSION};
use rl4oasd::StreamEngine;
use rnet::SegmentId;
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj::{SessionEngine, SessionId};

/// Points each member of the memory cohort is fed.
pub const COHORT_POINTS: usize = 20;

pub struct EngineSystem {
    pub engine: StreamEngine,
    handles: Vec<Option<SessionId>>,
    fed: Vec<u32>,
    events: Vec<(SessionId, SegmentId)>,
    out: Vec<u8>,
}

/// What one or more timed passes added up to. Every timed operation is
/// booked in `norm` as work; a label's wait is sampled there too (one
/// sample per observe on `engine_single` and per label over the wire, one
/// per tick on `engine_fleet`, whose points all wait for their tick).
#[derive(Default)]
pub struct Tally {
    pub points: u64,
    pub norm: Normaliser,
}

impl Tally {
    /// A tally whose reference runs on two threads (see [`Normaliser`]).
    pub fn paired() -> Tally {
        Tally {
            points: 0,
            norm: Normaliser::paired(),
        }
    }
}

/// When a pass may stop short.
#[derive(Clone, Copy)]
pub struct Limit {
    /// Stop at the next session / tick boundary after this instant.
    pub deadline: Option<Instant>,
    /// Stop after this many points (warm passes).
    pub max_points: u64,
}

impl Limit {
    pub const WHOLE: Limit = Limit {
        deadline: None,
        max_points: u64::MAX,
    };

    pub fn hit(&self, points_this_pass: u64) -> bool {
        points_this_pass >= self.max_points || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl EngineSystem {
    /// Builds the engine and runs a short untimed pass over the head of
    /// the trace, so that lazy set-up (packed weights, slab growth,
    /// scratch buffers) is paid before the clock starts.
    pub fn build(fx: &Fixture, inputs: &Inputs, fleet: bool, warm_points: u64) -> EngineSystem {
        let mut sys = EngineSystem {
            engine: StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.world.net)),
            handles: vec![None; inputs.sessions.len()],
            fed: vec![0; inputs.sessions.len()],
            events: Vec::new(),
            out: Vec::new(),
        };
        let limit = Limit {
            deadline: None,
            max_points: warm_points,
        };
        sys.pass(inputs, fleet, limit, &mut Tally::default(), None, None);
        sys
    }

    /// One pass over the inputs. Returns whether it ran to the end.
    pub fn pass(
        &mut self,
        inputs: &Inputs,
        fleet: bool,
        limit: Limit,
        tally: &mut Tally,
        checker: Option<&mut Checker>,
        spans: Option<&mut SpanLog>,
    ) -> bool {
        if fleet {
            self.pass_fleet(inputs, limit, tally, checker, spans)
        } else {
            self.pass_single(inputs, limit, tally, checker, spans)
        }
    }

    fn pass_single(
        &mut self,
        inputs: &Inputs,
        limit: Limit,
        tally: &mut Tally,
        mut checker: Option<&mut Checker>,
        mut spans: Option<&mut SpanLog>,
    ) -> bool {
        let engine = &mut self.engine;
        let start_points = tally.points;
        let pass_span = spans
            .as_deref_mut()
            .map(|log| log.begin("pass", NO_PARENT, NO_SESSION, Instant::now()));
        let mut complete = true;
        for (id, session) in inputs.sessions.iter().enumerate() {
            if limit.hit(tally.points - start_points) {
                complete = false;
                break;
            }
            let id = id as u32;
            // Spans are kept for the chunks the tally marks as traced.
            let mut log = spans.as_deref_mut().filter(|_| tally.norm.tracing());
            let mut work = Duration::ZERO;
            let session_span = log.as_deref_mut().map(|log| {
                let parent = pass_span.unwrap_or(NO_PARENT);
                log.begin("session", parent, id, Instant::now())
            });
            let parent = session_span.unwrap_or(NO_PARENT);

            let t = Instant::now();
            let handle = engine.open(session.sd, session.start_time);
            let end = Instant::now();
            work += end - t;
            if let Some(log) = log.as_deref_mut() {
                log.leaf("engine.open", parent, id, t, end);
            }

            for &seg in &session.segs {
                let t = Instant::now();
                let label = engine.observe(handle, seg);
                let end = Instant::now();
                std::hint::black_box(label);
                work += end - t;
                tally.norm.sample(end - t);
                tally.points += 1;
                if let Some(log) = log.as_deref_mut() {
                    log.leaf("engine.observe", parent, id, t, end);
                }
            }

            let t = Instant::now();
            let labels = engine.close(handle);
            let end = Instant::now();
            work += end - t;
            if let Some(log) = log {
                log.leaf("engine.close", parent, id, t, end);
                if let Some(span) = session_span {
                    log.end(span, end);
                }
            }
            if let Some(checker) = checker.as_deref_mut() {
                checker.closed(id, session.segs.len(), labels);
            }
            tally.norm.add_work(work, session.segs.len() as u64);
        }
        if let (Some(log), Some(span)) = (spans, pass_span) {
            log.end(span, Instant::now());
        }
        complete
    }

    fn pass_fleet(
        &mut self,
        inputs: &Inputs,
        limit: Limit,
        tally: &mut Tally,
        mut checker: Option<&mut Checker>,
        mut spans: Option<&mut SpanLog>,
    ) -> bool {
        let engine = &mut self.engine;
        let start_points = tally.points;
        self.fed.iter_mut().for_each(|f| *f = 0);
        let pass_span = spans
            .as_deref_mut()
            .map(|log| log.begin("pass", NO_PARENT, NO_SESSION, Instant::now()));
        let mut complete = true;
        for tick in &inputs.trace.ticks {
            if limit.hit(tally.points - start_points) {
                complete = false;
                break;
            }
            let mut log = spans.as_deref_mut().filter(|_| tally.norm.tracing());
            let mut work = Duration::ZERO;
            let tick_span = log.as_deref_mut().map(|log| {
                let parent = pass_span.unwrap_or(NO_PARENT);
                log.begin("tick", parent, NO_SESSION, Instant::now())
            });
            let parent = tick_span.unwrap_or(NO_PARENT);

            for &(id, sd, start_time) in &tick.opens {
                let t = Instant::now();
                let handle = engine.open(sd, start_time);
                let end = Instant::now();
                work += end - t;
                self.handles[id as usize] = Some(handle);
                if let Some(log) = log.as_deref_mut() {
                    log.leaf("engine.open", parent, id, t, end);
                }
            }

            if !tick.points.is_empty() {
                self.events.clear();
                for &(id, seg) in &tick.points {
                    let handle = self.handles[id as usize].expect("point for an open session");
                    self.events.push((handle, seg));
                    self.fed[id as usize] += 1;
                }
                let t = Instant::now();
                engine.observe_batch(&self.events, &mut self.out);
                let end = Instant::now();
                assert_eq!(self.out.len(), self.events.len(), "one label per event");
                work += end - t;
                tally.norm.sample(end - t);
                tally.points += self.events.len() as u64;
                if let Some(log) = log.as_deref_mut() {
                    log.leaf("engine.observe_batch", parent, NO_SESSION, t, end);
                }
            }

            for &id in &tick.closes {
                let handle = self.handles[id as usize]
                    .take()
                    .expect("close of an open session");
                let t = Instant::now();
                let labels = engine.close(handle);
                let end = Instant::now();
                work += end - t;
                if let Some(log) = log.as_deref_mut() {
                    log.leaf("engine.close", parent, id, t, end);
                }
                if let Some(checker) = checker.as_deref_mut() {
                    checker.closed(id, self.fed[id as usize] as usize, labels);
                }
            }
            if let (Some(log), Some(span)) = (log, tick_span) {
                log.end(span, Instant::now());
            }
            // One chunk per tick, however short: a tick is the unit whose
            // duration is a label's wait.
            tally.norm.add_work(work, tick.points.len() as u64);
            tally.norm.close_chunk();
        }
        if !complete {
            // A cut pass still owes the engine a close for every session
            // it opened; their (partial) rows are checked for length.
            let mut work = Duration::ZERO;
            for id in 0..self.handles.len() {
                if let Some(handle) = self.handles[id].take() {
                    let t = Instant::now();
                    let labels = engine.close(handle);
                    work += t.elapsed();
                    if let Some(checker) = checker.as_deref_mut() {
                        checker.closed(id as u32, self.fed[id] as usize, labels);
                    }
                }
            }
            tally.norm.add_work(work, 0);
        }
        if let (Some(log), Some(span)) = (spans, pass_span) {
            log.end(span, Instant::now());
        }
        complete
    }

    /// Heap allocation calls per thousand points over one pass of at most
    /// `max_points`, counted by the allocator wrapper. The checker is left
    /// out so that only the engine's own allocations are seen.
    pub fn allocs_per_kpoint(&mut self, inputs: &Inputs, fleet: bool, max_points: u64) -> f64 {
        let mut tally = Tally::default();
        let limit = Limit {
            deadline: None,
            max_points,
        };
        alloc::set_counting(true);
        let before = alloc::read();
        self.pass(inputs, fleet, limit, &mut tally, None, None);
        let after = alloc::read();
        alloc::set_counting(false);
        // The tally's own sample buffer grows while counting; its few
        // doublings are noise against tens of thousands of points.
        (after.alloc_calls - before.alloc_calls) as f64 / tally.points.max(1) as f64 * 1e3
    }
}

/// Live heap a fresh engine gains per session when `cohort` sessions are
/// opened and fed [`COHORT_POINTS`] points each (scalar or batched, as the
/// workload does), counted by the allocator wrapper.
pub fn bytes_per_session(fx: &Fixture, inputs: &Inputs, fleet: bool, cohort: usize) -> f64 {
    let members = cohort_members(inputs, cohort);
    let mut engine = StreamEngine::new(Arc::clone(&fx.model), Arc::clone(&fx.world.net));
    let mut handles: Vec<SessionId> = Vec::with_capacity(cohort);
    let mut events: Vec<(SessionId, SegmentId)> = Vec::with_capacity(cohort);
    let mut out: Vec<u8> = Vec::with_capacity(cohort);

    alloc::set_counting(true);
    let before = alloc::read();
    for &m in &members {
        let s = &inputs.sessions[m];
        handles.push(engine.open(s.sd, s.start_time));
    }
    for k in 0..COHORT_POINTS {
        if fleet {
            events.clear();
            events.extend(
                members
                    .iter()
                    .zip(&handles)
                    .map(|(&m, &h)| (h, inputs.sessions[m].segs[k])),
            );
            engine.observe_batch(&events, &mut out);
        } else {
            for (&m, &h) in members.iter().zip(&handles) {
                std::hint::black_box(engine.observe(h, inputs.sessions[m].segs[k]));
            }
        }
    }
    let after = alloc::read();
    alloc::set_counting(false);
    assert_eq!(engine.active_sessions(), cohort);
    (after.live_bytes - before.live_bytes) as f64 / cohort as f64
}

/// The first `cohort` sessions long enough to feed [`COHORT_POINTS`]
/// points, cycling if the trace has fewer.
pub fn cohort_members(inputs: &Inputs, cohort: usize) -> Vec<usize> {
    let long: Vec<usize> = (0..inputs.sessions.len())
        .filter(|&i| inputs.sessions[i].segs.len() >= COHORT_POINTS)
        .collect();
    assert!(!long.is_empty(), "no session has {COHORT_POINTS} points");
    long.iter().copied().cycle().take(cohort).collect()
}
