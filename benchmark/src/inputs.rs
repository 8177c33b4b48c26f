//! The fixed program inputs (world, model) and the seeded workload inputs
//! (event trace), plus the oracle the outputs are checked against.

use rl4oasd::{Rl4oasdConfig, Rl4oasdDetector, TrainedModel};
use rnet::SegmentId;
use scenario::{EventTrace, NetworkKind, ScenarioSpec, World};
use std::sync::Arc;
use std::time::Instant;
use traj::{OnlineDetector, SdPair};

/// World seed. Not derived from `--seed`: the city and the model trained
/// on it are part of the program under test, the traffic is the input.
pub const WORLD_SEED: u64 = 0x5CEA_2026;

/// One in this many sessions (by id) is replayed through the scalar
/// oracle and compared label for label.
pub const ORACLE_SAMPLE: usize = 8;

pub struct Fixture {
    pub world: World,
    pub model: Arc<TrainedModel>,
    pub world_s: f64,
    pub train_s: f64,
}

impl Fixture {
    /// Builds the Chengdu-sim world and trains the serving model on it —
    /// hidden 64 / embed 64, the sizes every committed `BENCH_*.json` row
    /// used; segment F1 ≈ 0.92 on this world.
    pub fn build() -> Fixture {
        let t = Instant::now();
        let world = World::city(NetworkKind::ChengduGrid, WORLD_SEED);
        let world_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let config = Rl4oasdConfig {
            joint_trajs: 200,
            pretrain_trajs: 100,
            ..Rl4oasdConfig::default()
        };
        let model = Arc::new(world.train(&config));
        let train_s = t.elapsed().as_secs_f64();
        Fixture {
            world,
            model,
            world_s,
            train_s,
        }
    }
}

/// One trip of the trace: what a client would send, in order.
pub struct Session {
    pub sd: SdPair,
    pub start_time: f64,
    pub segs: Vec<SegmentId>,
}

/// One step of a trace flattened into the order a single client sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open(u32),
    Point(u32, SegmentId),
    Close(u32),
}

pub struct Inputs {
    pub trace: EventTrace,
    /// Indexed by the trace's session id.
    pub sessions: Vec<Session>,
    pub trace_s: f64,
}

impl Inputs {
    /// A regime-free trace of `ticks` ticks with `arrivals_per_tick` new
    /// trips per tick; `seed` is the only source of variation.
    pub fn generate(fx: &Fixture, ticks: u32, arrivals_per_tick: f64, seed: u64) -> Inputs {
        let t = Instant::now();
        let spec = ScenarioSpec {
            name: "benchmark".to_string(),
            network: NetworkKind::ChengduGrid,
            ticks,
            arrivals_per_tick,
            regimes: Vec::new(),
        };
        let trace = EventTrace::generate(&fx.world, &spec, seed);
        let mut sessions: Vec<Session> = Vec::with_capacity(trace.sessions as usize);
        for tick in &trace.ticks {
            for &(id, sd, start_time) in &tick.opens {
                assert_eq!(id as usize, sessions.len(), "trace ids are dense");
                sessions.push(Session {
                    sd,
                    start_time,
                    segs: Vec::new(),
                });
            }
            for &(id, seg) in &tick.points {
                sessions[id as usize].segs.push(seg);
            }
        }
        Inputs {
            trace,
            sessions,
            trace_s: t.elapsed().as_secs_f64(),
        }
    }

    /// The trace as one client's send order: per tick opens, then points,
    /// then closes.
    pub fn script(&self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.trace.events as usize + 2 * self.sessions.len());
        for tick in &self.trace.ticks {
            ops.extend(tick.opens.iter().map(|&(id, _, _)| Op::Open(id)));
            ops.extend(tick.points.iter().map(|&(id, seg)| Op::Point(id, seg)));
            ops.extend(tick.closes.iter().map(|&id| Op::Close(id)));
        }
        ops
    }
}

/// Final labels of one complete replay plus the tally of every later
/// comparison against it.
pub struct Verdict {
    /// Points offered to the system, every pass counted.
    pub attempted: u64,
    /// Points whose label was missing, refused or wrong.
    pub failed: u64,
    /// Segment-level F1 of the first complete pass against ground truth.
    pub f1: f64,
}

/// Collects what the system answered and checks it.
///
/// The first complete pass is kept whole: its labels are scored against
/// the trace's ground truth, and a 1-in-[`ORACLE_SAMPLE`] sample of its
/// sessions is compared byte for byte with the scalar reference detector.
/// Every later pass must repeat the first exactly (the program is
/// deterministic — invariants 3, 5 and 16), which extends the check to
/// every session of every pass at the cost of a memcmp.
pub struct Checker {
    first: Vec<Option<Vec<u8>>>,
    lengths: Vec<usize>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    pub fn new(inputs: &Inputs) -> Checker {
        Checker {
            first: vec![None; inputs.sessions.len()],
            lengths: inputs.sessions.iter().map(|s| s.segs.len()).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Books the final labels of session `id` after `fed` of its points
    /// were accepted. `fed` may be short of the session's length when a
    /// timed pass was cut; a short row is only checked for its length.
    pub fn closed(&mut self, id: u32, fed: usize, labels: Vec<u8>) {
        self.attempted += fed as u64;
        let whole = fed == self.lengths[id as usize];
        if labels.len() != fed {
            self.failed += fed.abs_diff(labels.len()).max(1) as u64;
            return;
        }
        if !whole {
            return;
        }
        match &self.first[id as usize] {
            None => self.first[id as usize] = Some(labels),
            Some(first) => {
                self.failed += first.iter().zip(&labels).filter(|(a, b)| a != b).count() as u64;
            }
        }
    }

    /// Books `points` that were offered and got no usable answer
    /// (rejected, faulted, or their session never closed).
    pub fn lost(&mut self, points: u64) {
        self.attempted += points;
        self.failed += points;
    }

    /// Whether every session has been seen whole at least once.
    pub fn first_pass_complete(&self) -> bool {
        self.first.iter().all(Option::is_some)
    }

    /// Runs the oracle over the sample and scores the first pass, every
    /// session of which must have been seen whole.
    pub fn finish(self, fx: &Fixture, inputs: &Inputs) -> Verdict {
        self.finish_scored(fx, inputs, |_| true)
    }

    /// [`Checker::finish`] for a run that is cut by the clock: only the
    /// sessions `scored` picks must have been seen whole, and only they
    /// count towards F1. Every whole session of the oracle sample is
    /// compared with the oracle either way.
    pub fn finish_scored(
        mut self,
        fx: &Fixture,
        inputs: &Inputs,
        scored: impl Fn(usize) -> bool,
    ) -> Verdict {
        let mut oracle = Rl4oasdDetector::new(&fx.model, &fx.world.net);
        let mut labels = Vec::with_capacity(self.first.len());
        let first = std::mem::take(&mut self.first);
        for (id, (row, session)) in first.into_iter().zip(&inputs.sessions).enumerate() {
            let Some(row) = row else {
                if scored(id) {
                    // Promised whole and never closed whole.
                    self.failed += session.segs.len().max(1) as u64;
                }
                labels.push(Vec::new());
                continue;
            };
            if id % ORACLE_SAMPLE == 0 {
                oracle.begin(session.sd, session.start_time);
                for &seg in &session.segs {
                    oracle.observe(seg);
                }
                let expected = oracle.finish();
                self.failed += expected.iter().zip(&row).filter(|(a, b)| a != b).count() as u64;
            }
            labels.push(if scored(id) { row } else { Vec::new() });
        }
        Verdict {
            attempted: self.attempted,
            failed: self.failed,
            f1: crate::stats::f1(&labels, &inputs.trace.truth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fixture() -> Fixture {
        // The tiny world keeps this debug-fast; no model is needed to
        // generate a trace, so an untrained stand-in would do, but a real
        // (tiny) one keeps `Fixture` honest.
        let world = World::tiny(NetworkKind::ChengduGrid, 11);
        let model = Arc::new(world.train(&Rl4oasdConfig {
            pretrain_trajs: 20,
            joint_trajs: 20,
            ..Rl4oasdConfig::tiny(11)
        }));
        Fixture {
            world,
            model,
            world_s: 0.0,
            train_s: 0.0,
        }
    }

    #[test]
    fn trace_is_a_pure_function_of_the_seed_and_script_keeps_order() {
        let fx = tiny_fixture();
        let a = Inputs::generate(&fx, 30, 1.5, 5);
        let b = Inputs::generate(&fx, 30, 1.5, 5);
        let c = Inputs::generate(&fx, 30, 1.5, 6);
        assert_eq!(a.trace.digest(), b.trace.digest());
        assert_ne!(a.trace.digest(), c.trace.digest());
        assert_eq!(a.script(), b.script());

        // Every session: opened once, its points in route order, closed
        // once, nothing after the close.
        let mut fed = vec![0usize; a.sessions.len()];
        let mut state = vec![0u8; a.sessions.len()];
        for op in a.script() {
            match op {
                Op::Open(id) => {
                    assert_eq!(state[id as usize], 0);
                    state[id as usize] = 1;
                }
                Op::Point(id, seg) => {
                    assert_eq!(state[id as usize], 1);
                    assert_eq!(a.sessions[id as usize].segs[fed[id as usize]], seg);
                    fed[id as usize] += 1;
                }
                Op::Close(id) => {
                    assert_eq!(state[id as usize], 1);
                    state[id as usize] = 2;
                }
            }
        }
        assert!(state.iter().all(|&s| s == 2));
        let total: usize = fed.iter().sum();
        assert_eq!(total as u64, a.trace.events);
    }

    #[test]
    fn checker_accepts_the_oracle_and_counts_every_kind_of_failure() {
        let fx = tiny_fixture();
        let inputs = Inputs::generate(&fx, 30, 1.5, 5);
        let mut oracle = Rl4oasdDetector::new(&fx.model, &fx.world.net);
        let truth: Vec<Vec<u8>> = inputs
            .sessions
            .iter()
            .map(|s| {
                oracle.begin(s.sd, s.start_time);
                s.segs.iter().for_each(|&seg| {
                    oracle.observe(seg);
                });
                oracle.finish()
            })
            .collect();

        let mut good = Checker::new(&inputs);
        for pass in 0..2 {
            for (id, row) in truth.iter().enumerate() {
                good.closed(id as u32, row.len(), row.clone());
            }
            assert!(good.first_pass_complete() || pass == 0);
        }
        let verdict = good.finish(&fx, &inputs);
        assert_eq!(verdict.failed, 0);
        assert_eq!(verdict.attempted, 2 * inputs.trace.events);

        // A flipped label in a sampled session, a short row, a later pass
        // that disagrees with the first, and lost points all count.
        let victim = (0..truth.len())
            .step_by(ORACLE_SAMPLE)
            .find(|&i| truth[i].len() >= 2)
            .expect("a sampled session with points");
        let mut bad = Checker::new(&inputs);
        for (id, row) in truth.iter().enumerate() {
            let mut row = row.clone();
            if id == victim {
                row[0] ^= 1;
            }
            bad.closed(id as u32, row.len(), row);
        }
        let mut short = truth[victim].clone();
        short.pop();
        bad.closed(victim as u32, truth[victim].len(), short);
        let mut drift = truth[victim].clone();
        drift[1] ^= 1;
        // Differs from the (already wrong) first row at positions 0 and 1.
        bad.closed(victim as u32, drift.len(), drift);
        bad.lost(3);
        assert_eq!(bad.finish(&fx, &inputs).failed, 1 + 1 + 2 + 3);

        // A cut run: only the scored sessions must be whole.
        let mut cut = Checker::new(&inputs);
        cut.closed(0, truth[0].len(), truth[0].clone());
        let verdict = cut.finish_scored(&fx, &inputs, |id| id == 0);
        assert_eq!(verdict.failed, 0);
        let mut cut = Checker::new(&inputs);
        cut.closed(0, truth[0].len(), truth[0].clone());
        assert!(cut.finish_scored(&fx, &inputs, |id| id <= 1).failed > 0);
    }
}
