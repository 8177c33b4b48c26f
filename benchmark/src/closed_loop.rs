//! The closed loop: a fixed number of points in flight, the next one sent
//! only when a label comes back — callers that each wait for a reply.

use crate::engine::{Limit, Tally};
use crate::inputs::{Checker, Op, Session};
use crate::spans::{SpanLog, NO_PARENT};
use crate::transport::{Event, Plan, Transport};
use std::time::Instant;

/// Points per timed chunk: the loop drains, stops its clock and lets the
/// reference kernel run between chunks.
const CHUNK_POINTS: usize = 5000;

/// Where a session stands within one pass of a closed loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Unopened,
    Open,
    CloseSent,
}

/// Book-keeping of one closed-loop client across passes.
pub struct ClosedLoop {
    window: usize,
    stage: Vec<Stage>,
    fed: Vec<u32>,
    answered: Vec<u32>,
    sent_at: Vec<Instant>,
    events: Vec<Event>,
    in_flight: usize,
    /// Sessions opened and not yet reported closed.
    unclosed: u32,
    pass: u64,
    /// Name of the span recorded per point, send → label.
    pub point_span: &'static str,
}

impl ClosedLoop {
    pub fn new(plan: &Plan, sessions: usize, window: usize) -> ClosedLoop {
        ClosedLoop {
            window,
            stage: vec![Stage::Unopened; sessions],
            fed: vec![0; sessions],
            answered: vec![0; sessions],
            sent_at: vec![Instant::now(); plan.points],
            events: Vec::new(),
            in_flight: 0,
            unclosed: 0,
            pass: 0,
            point_span: "wire.point",
        }
    }

    /// Sends `plan` once through `t` and waits for every session it
    /// opened to close. Stops at a chunk boundary once `limit` is hit,
    /// closing what it had opened. Returns whether the plan ran to its end.
    #[allow(clippy::too_many_arguments)]
    pub fn pass<T: Transport>(
        &mut self,
        t: &mut T,
        sessions: &[Session],
        plan: &Plan,
        limit: Limit,
        tally: &mut Tally,
        mut checker: Option<&mut Checker>,
        mut spans: Option<&mut SpanLog>,
    ) -> bool {
        let complete = self.drive(
            t,
            sessions,
            plan,
            limit,
            tally,
            checker.as_deref_mut(),
            spans.as_deref_mut(),
        );
        let t0 = Instant::now();
        if !complete {
            for id in 0..self.stage.len() {
                if self.stage[id] == Stage::Open {
                    t.queue(sessions, Op::Close(id as u32), self.pass);
                    self.stage[id] = Stage::CloseSent;
                }
            }
            t.flush();
        }
        while self.unclosed > 0 {
            t.recv(&mut self.events);
            self.absorb(plan, tally, checker.as_deref_mut(), spans.as_deref_mut());
        }
        tally.norm.add_work(t0.elapsed(), 0);
        self.pass += 1;
        complete
    }

    /// The sending half of [`ClosedLoop::pass`]: chunks of
    /// [`CHUNK_POINTS`], never more than the window in flight, each chunk
    /// timed from its first send to its last label and booked as work.
    /// Returns with nothing in flight; closes may still be pending.
    #[allow(clippy::too_many_arguments)]
    pub fn drive<T: Transport>(
        &mut self,
        t: &mut T,
        sessions: &[Session],
        plan: &Plan,
        limit: Limit,
        tally: &mut Tally,
        mut checker: Option<&mut Checker>,
        mut spans: Option<&mut SpanLog>,
    ) -> bool {
        self.stage.iter_mut().for_each(|s| *s = Stage::Unopened);
        self.fed.iter_mut().for_each(|f| *f = 0);
        self.answered.iter_mut().for_each(|a| *a = 0);
        let start_points = tally.points;
        let mut cursor = 0usize;
        while cursor < plan.ops.len() {
            if limit.hit(tally.points - start_points) {
                return false;
            }
            // Spans are kept for the chunks the tally marks as traced.
            let mut log = spans.as_deref_mut().filter(|_| tally.norm.tracing());
            t.set_tracing(log.is_some());
            let chunk_start = Instant::now();
            let mut sent_in_chunk = 0usize;
            loop {
                // Top up to the window; opens and closes ride along.
                let now = Instant::now();
                while cursor < plan.ops.len() {
                    let op = plan.ops[cursor];
                    match op {
                        Op::Point(id, _) => {
                            if self.in_flight >= self.window || sent_in_chunk >= CHUNK_POINTS {
                                break;
                            }
                            self.sent_at[plan.point_of_op[cursor] as usize] = now;
                            self.fed[id as usize] += 1;
                            self.in_flight += 1;
                            sent_in_chunk += 1;
                        }
                        Op::Open(id) => {
                            self.stage[id as usize] = Stage::Open;
                            self.unclosed += 1;
                        }
                        Op::Close(id) => self.stage[id as usize] = Stage::CloseSent,
                    }
                    t.queue(sessions, op, self.pass);
                    cursor += 1;
                }
                t.flush();
                if self.in_flight == 0 {
                    break;
                }
                t.recv(&mut self.events);
                self.absorb(plan, tally, checker.as_deref_mut(), log.as_deref_mut());
            }
            tally
                .norm
                .add_work(chunk_start.elapsed(), sent_in_chunk as u64);
        }
        true
    }

    /// Books the events `recv` just delivered.
    fn absorb(
        &mut self,
        plan: &Plan,
        tally: &mut Tally,
        mut checker: Option<&mut Checker>,
        mut spans: Option<&mut SpanLog>,
    ) {
        let now = Instant::now();
        for event in self.events.drain(..) {
            match event {
                Event::Label(id) => {
                    let k = self.answered[id as usize];
                    self.answered[id as usize] += 1;
                    let point = plan.session_points[id as usize][k as usize];
                    let sent = self.sent_at[point as usize];
                    tally.norm.sample(now - sent);
                    self.in_flight -= 1;
                    tally.points += 1;
                    if let Some(log) = spans.as_deref_mut() {
                        log.leaf(self.point_span, NO_PARENT, id, sent, now);
                    }
                }
                Event::Closed(id, labels) => {
                    self.unclosed = self.unclosed.saturating_sub(1);
                    if let Some(c) = checker.as_deref_mut() {
                        c.closed(id, self.fed[id as usize] as usize, labels);
                    }
                }
                Event::Lost(id) => {
                    // Whatever it still owed will never come.
                    let owed = self.fed[id as usize] - self.answered[id as usize];
                    self.in_flight = self.in_flight.saturating_sub(owed as usize);
                    self.answered[id as usize] = self.fed[id as usize];
                    self.unclosed = self.unclosed.saturating_sub(1);
                    if let Some(c) = checker.as_deref_mut() {
                        c.lost(u64::from(self.fed[id as usize]));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Session;
    use rnet::SegmentId;
    use traj::SdPair;

    /// A system that answers at once: every point gets its label, every
    /// close the labels of the points its session was sent. It also checks
    /// what a real server would: nothing for an unopened or closed session,
    /// never more in flight than the window.
    struct Echo {
        window: usize,
        open: Vec<bool>,
        fed: Vec<usize>,
        pending: Vec<Event>,
        unanswered: usize,
        max_unanswered: usize,
        flushes: usize,
    }

    impl Transport for Echo {
        fn queue(&mut self, _: &[Session], op: Op, _: u64) {
            match op {
                Op::Open(id) => {
                    assert!(!self.open[id as usize], "double open");
                    self.open[id as usize] = true;
                    self.fed[id as usize] = 0;
                }
                Op::Point(id, _) => {
                    assert!(self.open[id as usize], "point for a session not open");
                    self.fed[id as usize] += 1;
                    self.unanswered += 1;
                    self.max_unanswered = self.max_unanswered.max(self.unanswered);
                    self.pending.push(Event::Label(id));
                }
                Op::Close(id) => {
                    assert!(self.open[id as usize], "close of a session not open");
                    self.open[id as usize] = false;
                    self.pending
                        .push(Event::Closed(id, vec![0; self.fed[id as usize]]));
                }
            }
        }
        fn flush(&mut self) {
            self.flushes += 1;
        }
        fn recv(&mut self, sink: &mut Vec<Event>) {
            assert!(
                !self.pending.is_empty(),
                "recv with nothing owed would block"
            );
            assert!(self.max_unanswered <= self.window);
            // Hand over half of what is owed, to exercise partial drains.
            let n = self.pending.len().div_ceil(2);
            for event in self.pending.drain(..n) {
                if let Event::Label(_) = event {
                    self.unanswered -= 1;
                }
                sink.push(event);
            }
        }
        fn set_tracing(&mut self, _: bool) {}
    }

    fn fixture(sessions: usize, points_each: usize) -> (Vec<Session>, Plan) {
        let seg = SegmentId(1);
        let rows: Vec<Session> = (0..sessions)
            .map(|_| Session {
                sd: SdPair::default(),
                start_time: 0.0,
                segs: vec![seg; points_each],
            })
            .collect();
        // Round-robin: all sessions open at once, closed at the end.
        let mut ops: Vec<Op> = (0..sessions as u32).map(Op::Open).collect();
        for _ in 0..points_each {
            ops.extend((0..sessions as u32).map(|id| Op::Point(id, seg)));
        }
        ops.extend((0..sessions as u32).map(Op::Close));
        (rows, Plan::new(ops, sessions))
    }

    fn echo(sessions: usize, window: usize) -> Echo {
        Echo {
            window,
            open: vec![false; sessions],
            fed: vec![0; sessions],
            pending: Vec::new(),
            unanswered: 0,
            max_unanswered: 0,
            flushes: 0,
        }
    }

    #[test]
    fn a_whole_pass_labels_every_point_and_closes_every_session() {
        let (sessions, plan) = fixture(7, 30);
        let mut t = echo(7, 16);
        let mut client = ClosedLoop::new(&plan, 7, 16);
        let mut tally = Tally::default();
        for pass in 1..=2u64 {
            assert!(client.pass(
                &mut t,
                &sessions,
                &plan,
                Limit::WHOLE,
                &mut tally,
                None,
                None
            ));
            assert_eq!(tally.points, pass * 210);
            assert!(t.open.iter().all(|o| !o), "a session was left open");
            assert_eq!((t.unanswered, t.pending.len()), (0, 0));
        }
        assert_eq!(t.max_unanswered, 16, "the window was never filled");
    }

    #[test]
    fn a_cut_pass_closes_what_it_opened() {
        let (sessions, plan) = fixture(5, 4000);
        assert!(plan.points > 2 * CHUNK_POINTS);
        let mut t = echo(5, 8);
        let mut client = ClosedLoop::new(&plan, 5, 8);
        let mut tally = Tally::default();
        let limit = Limit {
            deadline: None,
            max_points: 1,
        };
        // The limit is looked at between chunks: one chunk goes out whole.
        assert!(!client.pass(&mut t, &sessions, &plan, limit, &mut tally, None, None));
        assert_eq!(tally.points, CHUNK_POINTS as u64);
        assert!(t.open.iter().all(|o| !o), "a session was left open");
        assert_eq!((t.unanswered, t.pending.len()), (0, 0));
        // And the client is fit for another pass afterwards.
        assert!(!client.pass(&mut t, &sessions, &plan, limit, &mut tally, None, None));
        assert_eq!(tally.points, 2 * CHUNK_POINTS as u64);
    }
}
