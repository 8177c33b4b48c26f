//! One client's path into the system — the loopback socket or the ingest
//! door called directly — behind one trait, so that the same closed loop
//! can drive either and the difference between the two is the wire's cost.

use crate::inputs::{Op, Session};
use crate::spans::{SpanLog, NO_PARENT, NO_SESSION};
use bytes::BytesMut;
use rl4oasd::StreamEngine;
use serve::proto::{encode_frame, Frame, FrameReader, PREAMBLE};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;
use traj::{CloseTicket, IngestHandle, SessionId, SubmitError, Subscription};

/// Spans one transport half may keep in a traced run.
pub const TRANSPORT_SPAN_CAP: usize = 150_000;

/// A send order plus, per session, which points are its own — labels come
/// back in order per session but interleaved across sessions, so the k-th
/// label of a session answers that session's k-th point.
pub struct Plan {
    pub ops: Vec<Op>,
    /// Point number of each op (`u32::MAX` for opens and closes).
    pub point_of_op: Vec<u32>,
    /// Per session, the point numbers of its points, in order.
    pub session_points: Vec<Vec<u32>>,
    /// Session of each point.
    pub session_of_point: Vec<u32>,
    pub points: usize,
}

impl Plan {
    pub fn new(ops: Vec<Op>, sessions: usize) -> Plan {
        let mut point_of_op = Vec::with_capacity(ops.len());
        let mut session_points = vec![Vec::new(); sessions];
        let mut session_of_point = Vec::new();
        for op in &ops {
            if let Op::Point(id, _) = *op {
                let point = session_of_point.len() as u32;
                point_of_op.push(point);
                session_points[id as usize].push(point);
                session_of_point.push(id);
            } else {
                point_of_op.push(u32::MAX);
            }
        }
        Plan {
            ops,
            point_of_op,
            session_points,
            points: session_of_point.len(),
            session_of_point,
        }
    }
}

/// The frame a client sends for `op`.
pub fn request_frame(sessions: &[Session], op: Op, id_offset: u64) -> Frame {
    match op {
        Op::Open(id) => {
            let s = &sessions[id as usize];
            Frame::Open {
                session: u64::from(id) + id_offset,
                tenant: 0,
                source: s.sd.source.0,
                dest: s.sd.dest.0,
                start_time: s.start_time,
                priority: 0,
            }
        }
        Op::Point(id, seg) => Frame::Submit {
            session: u64::from(id) + id_offset,
            segment: seg.0,
        },
        Op::Close(id) => Frame::Close {
            session: u64::from(id) + id_offset,
        },
    }
}

/// Something the system said about a session.
pub enum Event {
    /// Its next provisional label arrived.
    Label(u32),
    /// It closed; these are its final labels.
    Closed(u32, Vec<u8>),
    /// A request for it was refused, or it faulted.
    Lost(u32),
}

/// One client's path into the system: the loopback socket, or the ingest
/// door called directly.
pub trait Transport {
    /// Hands `op` over; it may sit in a send buffer until [`flush`].
    ///
    /// [`flush`]: Transport::flush
    fn queue(&mut self, sessions: &[Session], op: Op, pass: u64);
    fn flush(&mut self);
    /// Appends what has arrived to `sink`, waiting for at least one event.
    fn recv(&mut self, sink: &mut Vec<Event>);
    /// Starts or stops span recording (a no-op on an untraced transport).
    fn set_tracing(&mut self, on: bool);
}

pub struct WireTx {
    stream: TcpStream,
    buf: BytesMut,
    /// Ids on the wire are `pass × sessions + id`: a pump may still hold a
    /// closed session's id when the next pass would reuse it.
    sessions: u64,
    first_queued: Option<Instant>,
    spans: Option<SpanLog>,
    tracing: bool,
}

pub struct WireRx {
    stream: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
    sessions: u64,
    /// When the read that delivered the latest events returned.
    pub last_read: Instant,
    pub bye: bool,
    spans: Option<SpanLog>,
    tracing: bool,
}

pub struct WireConn {
    pub tx: WireTx,
    pub rx: WireRx,
}

impl WireConn {
    /// `span_epoch` is `Some` in a traced run: both halves then hold a
    /// span log, idle until [`Transport::set_tracing`] turns it on.
    pub fn connect(addr: SocketAddr, sessions: usize, span_epoch: Option<Instant>) -> WireConn {
        let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.write_all(&PREAMBLE).expect("send preamble");
        let read_half = stream.try_clone().expect("clone socket for reading");
        let log = || span_epoch.map(|epoch| SpanLog::new(epoch, TRANSPORT_SPAN_CAP));
        WireConn {
            tx: WireTx {
                stream,
                buf: BytesMut::new(),
                sessions: sessions as u64,
                first_queued: None,
                spans: log(),
                tracing: false,
            },
            rx: WireRx {
                stream: read_half,
                reader: FrameReader::new(),
                buf: vec![0u8; 64 * 1024],
                sessions: sessions as u64,
                last_read: Instant::now(),
                bye: false,
                spans: log(),
                tracing: false,
            },
        }
    }

    /// Says goodbye and reads to the server's `Bye`; sessions still open
    /// are closed by the server and their final labels arrive as events.
    pub fn goodbye(&mut self, sink: &mut Vec<Event>) {
        self.tx.goodbye();
        while !self.rx.bye {
            self.rx.recv(sink);
        }
    }

    pub fn take_spans(&mut self, into: &mut SpanLog) {
        for log in [self.tx.spans.take(), self.rx.spans.take()]
            .into_iter()
            .flatten()
        {
            into.absorb(log);
        }
    }
}

impl WireTx {
    pub fn queue(&mut self, sessions: &[Session], op: Op, pass: u64) {
        if self.tracing && self.first_queued.is_none() {
            self.first_queued = Some(Instant::now());
        }
        encode_frame(
            &request_frame(sessions, op, pass * self.sessions),
            &mut self.buf,
        );
    }

    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let start = Instant::now();
        self.stream
            .write_all(&self.buf)
            .expect("write to loopback server");
        if let (true, Some(log)) = (self.tracing, self.spans.as_mut()) {
            let end = Instant::now();
            let queued = self.first_queued.take().unwrap_or(start);
            log.leaf("proto.encode", NO_PARENT, NO_SESSION, queued, start);
            log.leaf("sock.write", NO_PARENT, NO_SESSION, start, end);
        }
        self.buf = BytesMut::new();
    }

    pub fn goodbye(&mut self) {
        encode_frame(&Frame::Goodbye, &mut self.buf);
        self.flush();
    }
}

impl WireRx {
    /// Blocks for one read and turns every complete frame into an event.
    pub fn recv(&mut self, sink: &mut Vec<Event>) {
        let start = Instant::now();
        let n = match self.stream.read(&mut self.buf) {
            Ok(0) => panic!("server hung up before Bye"),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return,
            Err(e) => panic!("read from loopback server: {e}"),
        };
        self.last_read = Instant::now();
        self.reader.push(&self.buf[..n]);
        let local = |wire_id: u64| (wire_id % self.sessions) as u32;
        loop {
            match self.reader.next() {
                Ok(Some(Frame::Label { session, .. })) => sink.push(Event::Label(local(session))),
                Ok(Some(Frame::Closed { session, labels })) => {
                    sink.push(Event::Closed(local(session), labels))
                }
                Ok(Some(Frame::Rejected { session, .. } | Frame::Fault { session, .. })) => {
                    sink.push(Event::Lost(local(session)))
                }
                Ok(Some(Frame::Bye)) => self.bye = true,
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => panic!("undecodable frame from server: {e}"),
            }
        }
        if let (true, Some(log)) = (self.tracing, self.spans.as_mut()) {
            log.leaf("sock.read", NO_PARENT, NO_SESSION, start, self.last_read);
            log.leaf(
                "proto.decode",
                NO_PARENT,
                NO_SESSION,
                self.last_read,
                Instant::now(),
            );
        }
    }
}

impl Transport for WireConn {
    fn queue(&mut self, sessions: &[Session], op: Op, pass: u64) {
        self.tx.queue(sessions, op, pass);
    }
    fn flush(&mut self) {
        self.tx.flush();
    }
    fn recv(&mut self, sink: &mut Vec<Event>) {
        self.rx.recv(sink);
    }
    fn set_tracing(&mut self, on: bool) {
        self.tx.tracing = on;
        self.rx.tracing = on;
    }
}

/// A client of the ingest door living in the caller's thread. It has no
/// thread to block in, so it finds labels by sweeping the subscriptions
/// of its open sessions — which is also what the server's pump does.
pub struct DoorConn {
    handle: IngestHandle<StreamEngine>,
    open: Vec<Option<(SessionId, Subscription)>>,
    live: Vec<u32>,
    closing: Vec<(u32, CloseTicket)>,
    scratch: Vec<u8>,
    pub queue_full_retries: u64,
    spans: Option<SpanLog>,
    tracing: bool,
}

impl DoorConn {
    pub fn new(
        handle: IngestHandle<StreamEngine>,
        sessions: usize,
        span_epoch: Option<Instant>,
    ) -> DoorConn {
        DoorConn {
            handle,
            open: (0..sessions).map(|_| None).collect(),
            live: Vec::new(),
            closing: Vec::new(),
            scratch: Vec::new(),
            queue_full_retries: 0,
            spans: span_epoch.map(|epoch| SpanLog::new(epoch, TRANSPORT_SPAN_CAP)),
            tracing: false,
        }
    }

    /// Calls `f` until the door takes it, counting `QueueFull` refusals.
    fn insist<T>(retries: &mut u64, mut f: impl FnMut() -> Result<T, SubmitError>) -> T {
        loop {
            match f() {
                Ok(v) => return v,
                Err(SubmitError::QueueFull) => {
                    *retries += 1;
                    std::thread::yield_now();
                }
                Err(e) => panic!("ingest door refused a request: {e}"),
            }
        }
    }

    /// One pass over the open sessions and pending closes; never waits.
    pub fn sweep(&mut self, sink: &mut Vec<Event>) {
        let mut faulted = false;
        for &id in &self.live {
            let (_, sub) = self.open[id as usize]
                .as_ref()
                .expect("live session is open");
            self.scratch.clear();
            for _ in 0..sub.drain_into(&mut self.scratch) {
                sink.push(Event::Label(id));
            }
            if sub.fault().is_some() {
                sink.push(Event::Lost(id));
                faulted = true;
            }
        }
        if faulted {
            let open = &self.open;
            self.live.retain(|&id| {
                open[id as usize]
                    .as_ref()
                    .is_some_and(|(_, sub)| sub.fault().is_none())
            });
        }
        let mut k = 0;
        while k < self.closing.len() {
            match self.closing[k].1.try_wait() {
                None => k += 1,
                Some(result) => {
                    let (id, _) = self.closing.swap_remove(k);
                    // Labels the outbox still held when the close landed.
                    if let Some((_, sub)) = self.open[id as usize].take() {
                        self.scratch.clear();
                        for _ in 0..sub.drain_into(&mut self.scratch) {
                            sink.push(Event::Label(id));
                        }
                    }
                    match result {
                        Ok(labels) => sink.push(Event::Closed(id, labels)),
                        Err(_) => sink.push(Event::Lost(id)),
                    }
                }
            }
        }
    }

    pub fn take_spans(&mut self, into: &mut SpanLog) {
        if let Some(log) = self.spans.take() {
            into.absorb(log);
        }
    }
}

impl Transport for DoorConn {
    fn queue(&mut self, sessions: &[Session], op: Op, _pass: u64) {
        let start = Instant::now();
        let (name, id) = match op {
            Op::Open(id) => {
                let s = &sessions[id as usize];
                let opened = Self::insist(&mut self.queue_full_retries, || {
                    self.handle.open(s.sd, s.start_time)
                });
                self.open[id as usize] = Some(opened);
                self.live.push(id);
                ("door.open", id)
            }
            Op::Point(id, seg) => {
                let (sid, _) = self.open[id as usize]
                    .as_ref()
                    .expect("point for an open session");
                Self::insist(&mut self.queue_full_retries, || {
                    self.handle.submit(*sid, seg)
                });
                ("door.submit", id)
            }
            Op::Close(id) => {
                let (sid, _) = self.open[id as usize]
                    .as_ref()
                    .expect("close of an open session");
                let ticket = Self::insist(&mut self.queue_full_retries, || self.handle.close(*sid));
                self.closing.push((id, ticket));
                self.live.retain(|&l| l != id);
                ("door.close", id)
            }
        };
        if let (true, Some(log)) = (self.tracing, self.spans.as_mut()) {
            log.leaf(name, NO_PARENT, id, start, Instant::now());
        }
    }

    fn flush(&mut self) {}

    fn recv(&mut self, sink: &mut Vec<Event>) {
        let before = sink.len();
        while sink.len() == before {
            self.sweep(sink);
            std::hint::spin_loop();
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnet::SegmentId;

    #[test]
    fn plan_routes_the_kth_label_of_a_session_to_its_kth_point() {
        let seg = SegmentId(9);
        let ops = vec![
            Op::Open(1),
            Op::Open(0),
            Op::Point(1, seg),
            Op::Point(0, seg),
            Op::Point(1, seg),
            Op::Close(1),
            Op::Point(0, seg),
            Op::Close(0),
        ];
        let plan = Plan::new(ops, 2);
        assert_eq!(plan.points, 4);
        assert_eq!(plan.session_points, vec![vec![1, 3], vec![0, 2]]);
        assert_eq!(plan.session_of_point, vec![1, 0, 1, 0]);
        let m = u32::MAX;
        assert_eq!(plan.point_of_op, vec![m, m, 0, 1, 2, m, 3, m]);
    }
}
