//! Client side of the `oasd-serve` wire protocol: a minimal blocking
//! [`Client`] (used by the scenario runner's `Driver::Net` and the test
//! suites) and a multi-connection load generator ([`run_load`]) that
//! measures over-the-wire submit→label latency (`oasd-serve --smoke` and
//! `tests/serve.rs` drive it).

use crate::proto::{frame_bytes, Frame, FrameReader, PREAMBLE};
use obs::LatencyHistogram;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking wire-protocol client over one TCP connection.
///
/// The protocol is fully pipelined: callers may queue many requests
/// before reading any response, but a producer that submits without ever
/// draining eventually fills the connection's label sink on the server
/// and stalls the pipe — interleave [`Client::try_recv`] with submits (the
/// load generator and `Driver::Net` both do).
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
}

impl Client {
    /// Connects and sends the protocol preamble.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&PREAMBLE)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            buf: vec![0u8; 16 * 1024],
        })
    }

    /// Sends one frame (a single `write_all`).
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.stream.write_all(&frame_bytes(frame))
    }

    /// Blocks until the next frame arrives. `UnexpectedEof` when the
    /// server hangs up; `InvalidData` on an undecodable byte stream.
    pub fn recv(&mut self) -> std::io::Result<Frame> {
        loop {
            if let Some(frame) = self.next_buffered()? {
                return Ok(frame);
            }
            self.stream.set_read_timeout(None)?;
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            let fill = &self.buf[..n];
            self.reader.push(fill);
        }
    }

    /// Non-blocking poll: returns a frame if one is buffered or already
    /// readable on the socket, `None` otherwise, without ever sleeping.
    /// (A short `SO_RCVTIMEO` is not an option here — kernels round
    /// socket timeouts up to scheduler-tick granularity, which would put
    /// a multi-millisecond floor under every empty poll.)
    pub fn try_recv(&mut self) -> std::io::Result<Option<Frame>> {
        if let Some(frame) = self.next_buffered()? {
            return Ok(Some(frame));
        }
        self.stream.set_nonblocking(true)?;
        let read = self.stream.read(&mut self.buf);
        self.stream.set_nonblocking(false)?;
        match read {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                let fill = &self.buf[..n];
                self.reader.push(fill);
                self.next_buffered()
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Sends `Goodbye` and drains frames until the server's `Bye`,
    /// returning everything received in between (late labels, closes).
    pub fn goodbye(&mut self) -> std::io::Result<Vec<Frame>> {
        self.send(&Frame::Goodbye)?;
        let mut frames = Vec::new();
        loop {
            match self.recv()? {
                Frame::Bye => return Ok(frames),
                frame => frames.push(frame),
            }
        }
    }

    fn next_buffered(&mut self) -> std::io::Result<Option<Frame>> {
        self.reader
            .next()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
    }
}

/// Load-generator shape: `connections` concurrent TCP connections, each
/// multiplexing `sessions_per_conn` sessions, each session submitting
/// `points_per_session` road-segment events.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    pub connections: usize,
    pub sessions_per_conn: usize,
    pub points_per_session: usize,
    /// Tenant id carried in every `Open`.
    pub tenant: u32,
    /// Segment-id space to draw events from (the serving network's
    /// `num_segments`).
    pub num_segments: u32,
}

/// What one load run observed, aggregated over all connections.
pub struct LoadReport {
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub opens_rejected: u64,
    pub labels_streamed: u64,
    pub faults: u64,
    /// Submit→label latency over the wire, one sample per streamed
    /// provisional label.
    pub latency: LatencyHistogram,
    pub elapsed: Duration,
}

struct ConnOutcome {
    opened: u64,
    closed: u64,
    rejected: u64,
    labels: u64,
    faults: u64,
    samples: Vec<Duration>,
}

/// Drives `spec` against a server and measures per-label wire latency.
/// Panics on I/O errors — this is a harness, not production code.
pub fn run_load(addr: SocketAddr, spec: LoadSpec) -> LoadReport {
    assert!(spec.num_segments > 0, "load spec needs a non-empty network");
    let started = Instant::now();
    let mut workers = Vec::new();
    for conn in 0..spec.connections {
        workers.push(std::thread::spawn(move || {
            drive_connection(addr, conn, spec)
        }));
    }
    let mut report = LoadReport {
        sessions_opened: 0,
        sessions_closed: 0,
        opens_rejected: 0,
        labels_streamed: 0,
        faults: 0,
        latency: LatencyHistogram::new(),
        elapsed: Duration::ZERO,
    };
    for worker in workers {
        let outcome = worker.join().expect("load connection thread panicked");
        report.sessions_opened += outcome.opened;
        report.sessions_closed += outcome.closed;
        report.opens_rejected += outcome.rejected;
        report.labels_streamed += outcome.labels;
        report.faults += outcome.faults;
        for sample in outcome.samples {
            report.latency.record(sample);
        }
    }
    report.elapsed = started.elapsed();
    report
}

fn drive_connection(addr: SocketAddr, conn: usize, spec: LoadSpec) -> ConnOutcome {
    let mut client = Client::connect(addr).expect("connect load connection");
    let mut outcome = ConnOutcome {
        opened: 0,
        closed: 0,
        rejected: 0,
        labels: 0,
        faults: 0,
        samples: Vec::new(),
    };
    // Per-session submit timestamps; each streamed label pops the oldest.
    let mut inflight: HashMap<u64, VecDeque<Instant>> = HashMap::new();
    let mut live: Vec<u64> = Vec::new();
    let segs = u64::from(spec.num_segments);

    for s in 0..spec.sessions_per_conn {
        let cid = (conn as u64) << 32 | s as u64;
        let source = (cid.wrapping_mul(7) % segs) as u32;
        let dest = (cid.wrapping_mul(13).wrapping_add(1) % segs) as u32;
        client
            .send(&Frame::Open {
                session: cid,
                tenant: spec.tenant,
                source,
                dest,
                start_time: 0.0,
                priority: 0,
            })
            .expect("send open");
        // Await the verdict before submitting: a rejected open must not
        // be followed by submits that would spam UnknownSession.
        loop {
            match client.recv().expect("recv open verdict") {
                Frame::Opened { session, .. } if session == cid => {
                    outcome.opened += 1;
                    inflight.insert(cid, VecDeque::new());
                    live.push(cid);
                    break;
                }
                Frame::Rejected { session, .. } if session == cid => {
                    outcome.rejected += 1;
                    break;
                }
                other => absorb(&mut outcome, &mut inflight, other),
            }
        }
    }

    // Round-robin submits across sessions, draining as we go. Each
    // session keeps at most `WINDOW` submits in flight — unbounded
    // pipelining would turn the latency histogram into a pure measure of
    // queue depth; a bounded window measures submit→label under
    // sustained load the way a real producer with finite buffering
    // experiences it.
    const WINDOW: usize = 8;
    for point in 0..spec.points_per_session {
        for &cid in &live {
            while inflight.get(&cid).map_or(0, VecDeque::len) >= WINDOW {
                let frame = client.recv().expect("recv under flow control");
                absorb(&mut outcome, &mut inflight, frame);
            }
            let segment = ((cid ^ point as u64).wrapping_mul(31) % segs) as u32;
            if let Some(queue) = inflight.get_mut(&cid) {
                queue.push_back(Instant::now());
            }
            client
                .send(&Frame::Submit {
                    session: cid,
                    segment,
                })
                .expect("send submit");
            while let Some(frame) = client.try_recv().expect("drain during load") {
                absorb(&mut outcome, &mut inflight, frame);
            }
        }
    }

    for &cid in &live {
        client
            .send(&Frame::Close { session: cid })
            .expect("send close");
    }
    for frame in client.goodbye().expect("goodbye") {
        absorb(&mut outcome, &mut inflight, frame);
    }
    outcome
}

fn absorb(outcome: &mut ConnOutcome, inflight: &mut HashMap<u64, VecDeque<Instant>>, frame: Frame) {
    match frame {
        Frame::Label { session, .. } => {
            outcome.labels += 1;
            if let Some(at) = inflight.get_mut(&session).and_then(VecDeque::pop_front) {
                outcome.samples.push(at.elapsed());
            }
        }
        Frame::Closed { .. } => outcome.closed += 1,
        Frame::Fault { .. } => outcome.faults += 1,
        Frame::Rejected { .. } => outcome.rejected += 1,
        _ => {}
    }
}
